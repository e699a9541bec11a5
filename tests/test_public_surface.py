"""The package's public surface: ``qlinksim.__all__`` is exactly the list
below, and every name the benchmark in ``bench/`` reaches still resolves
and still takes the arguments it passes, so deleting one fails here and
not only in the benchmark."""

import dataclasses

import numpy as np

import qlinksim
from qlinksim import pipeline, states

PUBLIC = [
    "__version__",
    "BosonicConfig",
    "Channel",
    "ChannelConfig",
    "ChannelRunResult",
    "DegenerateStateError",
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
    "argmax_labels",
    "bloch_xyz",
    "build_pgm",
    "confusion_matrix",
    "decide",
    "default_config_path",
    "derive_rng",
    "embed_amplitudes",
    "embed_povm_with_erasure",
    "error_counts",
    "hamming_table",
    "load_config",
    "make_pure_states",
    "measurement_scores",
    "project_states",
    "qam_codebook",
    "qam_constellation",
    "qpsk_codebook",
    "render_bloch_svg",
    "render_constellation_svg",
    "run_comparison",
    "run_simulation",
    "sample_labels",
    "score_states",
    "write_states_csv",
]


def test_all_is_the_public_surface():
    assert qlinksim.__all__ == PUBLIC
    assert all(hasattr(qlinksim, name) for name in PUBLIC)


def test_kernels_and_per_symbol_helpers_left_the_top_level():
    # The kernels stay in their submodule; test_metrics pins the per-symbol
    # scoring names' absence.
    for name in ("hermitize", "inv_sqrt_psd"):
        assert not hasattr(qlinksim, name) and callable(getattr(states, name))
    # Rows replaced the leading-block projection.
    assert not hasattr(states, "leading_blocks")
    codebook = qlinksim.qpsk_codebook()
    assert not hasattr(codebook, "bit_table") and not hasattr(codebook, "name")


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
