"""The package's public surface: ``qlinksim.__all__`` is exactly the list
below, one batch API on Pauli rows with no complex-stack wrapper beside it,
every name the benchmark in ``bench/`` reaches still resolves and still
takes the arguments it passes, so deleting one fails here and not only in
the benchmark, and the README's Python examples run."""

import dataclasses
import re
from pathlib import Path

import numpy as np

import qlinksim
from qlinksim import detection, metrics, pipeline, states, visualization

README = Path(__file__).resolve().parent.parent / "README.md"

# The complex-stack wrappers that stood beside the row kernels.
DELETED_WRAPPERS = (
    "apply_batch", "score_states", "argmax_labels", "sample_labels", "project_states", "bloch_xyz",
)

PUBLIC = [
    "__version__",
    "BosonicConfig",
    "Channel",
    "ChannelConfig",
    "ChannelRunResult",
    "DensityMatrix",
    "DephasingConfig",
    "DepolarizingConfig",
    "DetectorCodebook",
    "ErasureConfig",
    "InvalidStateError",
    "PMDConfig",
    "POVM",
    "SimulationConfig",
    "SimulationReport",
    "TurbulenceConfig",
    "argmax_rows",
    "build_pgm",
    "decide",
    "default_config_path",
    "derive_rng",
    "embed_amplitudes",
    "embed_povm_with_erasure",
    "error_counts",
    "load_config",
    "measurement_scores",
    "project_rows",
    "qam_codebook",
    "qam_constellation",
    "qpsk_codebook",
    "run_comparison",
    "run_simulation",
    "sample_rows",
    "score_rows",
    "state_rows",
    "write_states_csv",
]


def test_all_is_the_public_surface():
    assert qlinksim.__all__ == PUBLIC
    assert all(hasattr(qlinksim, name) for name in PUBLIC)
    # A run scores its (sent, received) pairs: the dense (M, M + 1) tables
    # left the package and the README (tests/conftest.py keeps them).
    for name in ("confusion_matrix", "hamming_table"):
        assert not hasattr(qlinksim, name) and not hasattr(metrics, name)
        assert name not in README.read_text(encoding="utf-8"), name
    # write_figures is the one figure entry point; the renderers it calls
    # stay in visualization, where the benchmark's part clock wraps them.
    for name in ("render_constellation_svg", "render_bloch_svg"):
        assert not hasattr(qlinksim, name) and callable(getattr(visualization, name))


def test_kernels_and_per_symbol_helpers_left_the_top_level():
    # test_metrics pins the per-symbol scoring names' absence.  The codebook
    # and the PGM are closed forms on rows, so the complex construction and
    # the eigensolver left the package (the tests keep them as oracles), and
    # no source file calls an eigensolver.
    for name in ("hermitize", "inv_sqrt_psd", "make_pure_states"):
        assert not hasattr(qlinksim, name) and not hasattr(states, name)
    for path in Path(qlinksim.__file__).parent.glob("*.py"):
        assert not re.search(r"\beig(h|vals|valsh)?\(", path.read_text(encoding="utf-8")), path.name
    # Rows replaced the leading-block projection, and the closed-form
    # criterion the spectrum of any dimension.
    assert not hasattr(states, "leading_blocks")
    assert not hasattr(states, "min_eigenvalues") and not hasattr(states, "DegenerateStateError")
    codebook = qlinksim.qpsk_codebook()
    assert not hasattr(codebook, "bit_table") and not hasattr(codebook, "name")


def test_one_batch_api_on_rows():
    assert not hasattr(qlinksim.Channel, "apply_batch")
    for module in (detection, states, visualization):
        for name in DELETED_WRAPPERS:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(detection, "_scores")
    # The kernels take the POVM itself: no decision-table tuple beside it,
    # in the package or in the README.
    assert not hasattr(qlinksim.POVM, "outcomes") and not hasattr(qlinksim.POVM, "n_outcomes")
    for path in [README, *Path(qlinksim.__file__).parent.glob("*.py")]:
        assert "outcomes(" not in path.read_text(encoding="utf-8"), path.name


def test_zero_rows_through_the_public_row_path():
    rows = qlinksim.state_rows(np.empty((0, 2, 2)))
    assert rows.shape == (0, 4)
    for cfg in (
        qlinksim.DepolarizingConfig(p=0.1),
        qlinksim.DephasingConfig(p=0.2),
        qlinksim.ErasureConfig(p=0.25),
        qlinksim.BosonicConfig(loss_db=3.0),
        qlinksim.TurbulenceConfig(sigma_p=0.1, w0=1.0, rytov_var=0.2),
        qlinksim.PMDConfig(dgd=2.0, sigma_omega=1.0),
    ):
        received = qlinksim.Channel(cfg).apply_rows(rows, np.random.default_rng(0))
        assert received.shape == (0, 4), cfg.kind
    povm = qlinksim.embed_povm_with_erasure(qlinksim.build_pgm(qlinksim.qam_codebook(16)), 3)
    assert qlinksim.score_rows(povm, rows).shape == (0, 17)
    for labels in (
        qlinksim.argmax_rows(povm, rows),
        qlinksim.sample_rows(povm, rows, np.random.default_rng(1)),
    ):
        assert labels.shape == (0,) and labels.dtype == np.int64
    assert len(qlinksim.project_rows(rows)) == 0


def test_readme_python_examples_run(tmp_path, monkeypatch, capsys):
    # Every fenced python block, in order and in one namespace; each
    # ``print(...)  # value`` line must print its value.
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", "".join(blocks), re.M)
    assert expected and capsys.readouterr().out.splitlines() == expected
    # Neither the README nor the package's source names a deleted wrapper.
    sources = sorted(Path(qlinksim.__file__).parent.glob("*.py"))
    for name in DELETED_WRAPPERS:
        assert name not in text, name
        for path in sources:
            assert name not in path.read_text(encoding="utf-8"), (path.name, name)


def test_names_the_benchmark_reaches_resolve(tmp_path):
    codebook = qlinksim.qam_codebook(16)
    assert qlinksim.qpsk_codebook().M == 4
    povm = qlinksim.build_pgm(codebook)
    # The bosonic entry keeps its fock_dim key.
    entry = {"type": "bosonic", "loss_db": 3.0, "n_th": 0.0, "fock_dim": 2}
    bosonic = qlinksim.Channel(pipeline.channel_config_from_dict(entry), input_dim=codebook.dim)
    assert bosonic.output_dim == codebook.dim
    erasure = qlinksim.Channel(qlinksim.ErasureConfig(p=0.25), input_dim=codebook.dim)
    assert erasure.output_dim == 3
    embedded = qlinksim.embed_povm_with_erasure(povm, erasure.output_dim)
    # The per-object API: one DensityMatrix per codebook state, one apply,
    # one decision and one row of scores.
    rho = codebook.states[5]
    assert isinstance(rho, qlinksim.DensityMatrix)
    received = erasure.apply(rho)
    assert isinstance(received, qlinksim.DensityMatrix)
    scores = qlinksim.measurement_scores(embedded, received)
    assert scores.shape == (17,) and np.isclose(scores.sum(), 1.0)
    assert qlinksim.decide(embedded, received) in embedded.labels
    cfg = qlinksim.load_config(qlinksim.default_config_path())
    report = qlinksim.run_comparison(dataclasses.replace(
        cfg, n_symbols=20, output_dir=tmp_path, emit_states=False, emit_figures=False
    ))
    assert list(report.channels) == [name for name, _ in cfg.channels]
