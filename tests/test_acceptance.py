"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import functools
import json
import time

import numpy as np
from conftest import (
    apply_stack,
    compute_ber,
    dilation_reference,
    make_pure_states,
    pure,
    purity,
    random_density,
    random_pure,
    symbols_to_bits,
)

from qlinksim import (
    Channel,
    DepolarizingConfig,
    DephasingConfig,
    DetectorCodebook,
    ErasureConfig,
    BosonicConfig,
    PMDConfig,
    SimulationConfig,
    TurbulenceConfig,
    argmax_rows,
    build_pgm,
    decide,
    default_config_path,
    embed_amplitudes,
    embed_povm_with_erasure,
    load_config,
    project_rows,
    qam_codebook,
    qam_constellation,
    qpsk_codebook,
    run_comparison,
    run_simulation,
    sample_rows,
    state_rows,
)
from qlinksim.channels import _pure_loss
from qlinksim.states import from_rows, to_rows


def criterion(num: int, desc: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d}: FAIL  {desc}")
                raise
            print(f"criterion {num:2d}: PASS  {desc}")

        return wrapper

    return deco


@criterion(1, "all six channels preserve density-matrix invariants on 1000 inputs each")
def test_cptp_suite():
    start = time.perf_counter()
    configs = [
        *(DepolarizingConfig(p=p) for p in (0.0, 0.3, 1.0)),
        *(DephasingConfig(p=p) for p in (0.0, 0.3, 1.0)),
        *(ErasureConfig(p=p) for p in (0.0, 0.3, 1.0)),
        BosonicConfig(loss_db=0.0, n_th=0.0, fock_dim=2),
        BosonicConfig(loss_db=3.0, n_th=0.5, fock_dim=2),
        TurbulenceConfig(sigma_p=0.1, w0=1.0, rytov_var=0.2),
        PMDConfig(dgd=0.0, sigma_omega=1.0, n_sections=8),
        PMDConfig(dgd=6.0, sigma_omega=1.0, n_sections=8),
    ]
    rng = np.random.default_rng(101)
    for cfg in configs:
        channel = Channel(cfg)
        for _ in range(1000):
            out = channel.apply(random_density(rng, 2), rng).mat
            assert np.max(np.abs(out - out.conj().T)) <= 1e-9
            assert abs(np.trace(out).real - 1.0) <= 1e-9
            assert np.linalg.eigvalsh(out)[0] >= -1e-9
    assert time.perf_counter() - start < 10.0


@criterion(2, "PGM and its erasure embedding resolve the identity within 1e-9")
def test_povm_completeness():
    for codebook in (qpsk_codebook(), qam_codebook(16)):
        povm = build_pgm(codebook)
        assert np.max(np.abs(sum(povm.elements) - np.eye(codebook.dim))) <= 1e-9
        embedded = embed_povm_with_erasure(povm, codebook.dim + 1)
        assert np.max(np.abs(sum(embedded.elements) - np.eye(codebook.dim + 1))) <= 1e-9


@criterion(3, "single-photon population decays exactly with transmissivity")
def test_single_photon_decay():
    # No channel config reaches eta = 0, so this runs the pure-loss row kernel itself.
    etas = np.linspace(0.0, 1.0, 50)
    out = from_rows(_pure_loss(etas, to_rows(np.repeat(pure(0, 1)[None], 50, axis=0))))
    assert np.all(np.abs(out[:, 1, 1].real - etas) <= 1e-12)


@criterion(4, "bosonic loss matches its two-mode dilation, and the Kraus pure-loss map at n_th = 0")
def test_stinespring_kraus_equivalence():
    rng = np.random.default_rng(104)
    states = np.stack([random_density(rng, 2).mat for _ in range(200)])
    for loss_db in (0.0, 1.0, 3.0, 10.0):
        eta = 10 ** (-loss_db / 10)
        a = apply_stack(Channel(BosonicConfig(loss_db=loss_db, n_th=0.0, fock_dim=2)), states)
        b = from_rows(_pure_loss(eta, to_rows(states)))
        assert np.max(np.abs(a - b)) <= 1e-9
        for n_th in (0.0, 0.5):
            a = apply_stack(Channel(BosonicConfig(loss_db=loss_db, n_th=n_th)), states)
            assert np.max(np.abs(a - dilation_reference(eta, n_th, states))) <= 1e-12


@criterion(5, "two-state detection is Helstrom-optimal in regions and error rate")
def test_two_state_helstrom():
    rng = np.random.default_rng(105)
    for overlap in (0.0, 0.5, 0.9):
        codebook = DetectorCodebook(
            rows=state_rows(make_pure_states([[1, 0], [overlap, np.sqrt(1 - overlap**2)]]), 2),
            priors=np.array([0.5, 0.5]),
            bit_labels=((0,), (1,)),
        )
        povm = build_pgm(codebook)

        delta = 0.5 * codebook.mats[0] - 0.5 * codebook.mats[1]
        vals, vecs = np.linalg.eigh(delta)
        plus = vecs[:, vals > 0] @ vecs[:, vals > 0].conj().T
        for _ in range(1000):
            probe = random_density(rng, 2)
            helstrom = 0 if np.trace(plus @ probe.mat).real > 0.5 else 1
            assert decide(povm, probe) == helstrom

        trials = 100_000
        bound = 0.5 * (1.0 - np.sqrt(1.0 - overlap**2))
        tx = rng.integers(0, 2, trials)
        guesses = sample_rows(povm, codebook.rows[tx], rng)
        rate = np.count_nonzero(guesses != tx) / trials
        sigma = np.sqrt(bound * (1 - bound) / trials)
        assert abs(rate - bound) <= 3 * sigma + 1e-12


@criterion(6, "QPSK through a transparent channel decodes without a single error")
def test_matched_identity_zero_error(tmp_path):
    cfg = SimulationConfig(
        modulation="qpsk",
        n_symbols=4000,
        seed=20260815,
        channels=(("clean", DepolarizingConfig(p=0.0)),),
        output_dir=tmp_path,
        emit_states=False,
        emit_figures=False,
    )
    result = run_simulation(cfg, "clean")
    assert result.ser == 0.0 and result.ser_count == 0
    assert result.ber == 0.0 and result.ber_count == 0


@criterion(7, "polarization dispersion leaves purity 1 at zero delay, degrades it as delay grows")
def test_pmd_purity():
    n_sections = 8
    sigma_omega = 1.0
    # dgd solving sigma_omega * dgd / sqrt(n_sections) = 2
    dgd_large = 2.0 * np.sqrt(n_sections)
    means = []
    for dgd in (0.0, 1.0, dgd_large):
        cfg = PMDConfig(dgd=dgd, sigma_omega=sigma_omega, n_sections=n_sections)
        total = 0.0
        for trial in range(500):
            state = random_pure(np.random.default_rng((1000, trial)), 2)
            out = apply_stack(Channel(cfg), state[None], np.random.default_rng((2000, trial)))
            total += purity(out[0])
        means.append(total / 500)
    assert abs(means[0] - 1.0) <= 1e-9
    assert means[2] < 0.99
    assert means[0] >= means[1] - 1e-9 and means[1] >= means[2] - 1e-9


@criterion(8, "erasure flag carries exactly p and erased symbols cost every bit")
def test_erasure_flag_law():
    rng = np.random.default_rng(108)
    for p in (0.0, 0.25, 1.0):
        states = np.stack([pure(1, 0), random_density(rng, 2).mat])
        out = apply_stack(Channel(ErasureConfig(p=p)), states)
        assert np.all(np.abs(out[:, 2, 2].real - p) <= 1e-12)

    povm = embed_povm_with_erasure(build_pgm(qpsk_codebook()), 3)
    fully_erased = apply_stack(Channel(ErasureConfig(p=1.0)), qpsk_codebook().mats[1:2])
    assert argmax_rows(povm, state_rows(fully_erased, povm.dim))[0] == -1

    codebook = qam_codebook(16)
    tx = np.arange(10) % 16
    rx = tx.copy()
    rx[3] = -1
    ber, count = compute_ber(symbols_to_bits(tx, codebook), symbols_to_bits(rx, codebook))
    assert count == 4
    assert ber == 4 / 40


@criterion(9, "benchmark comparison run finishes in time and reproduces byte-for-byte")
def test_benchmark_reproduction(tmp_path):
    import dataclasses

    cfg = dataclasses.replace(load_config(default_config_path()), output_dir=tmp_path)
    start = time.perf_counter()
    run_comparison(cfg)
    assert time.perf_counter() - start < 60.0

    names = sorted(p.name for p in tmp_path.iterdir())
    assert names.count("report.json") == 1
    assert sum(n.endswith(".csv") for n in names) == 6
    assert sum(n.endswith(".svg") for n in names) == 12

    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    run_comparison(cfg)
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert set(first) == set(second)
    for name in first:
        if name == "report.json":
            a, b = json.loads(first[name]), json.loads(second[name])
            a.pop("wall_time_s"), b.pop("wall_time_s")
            assert a == b
        else:
            assert first[name] == second[name], f"{name} changed between runs"


@criterion(10, "every 16-QAM point survives the embed/reconstruct round trip")
def test_constellation_round_trip():
    alphas, _, scale = qam_constellation(16)
    rec = project_rows(state_rows(embed_amplitudes(alphas)), scale)
    for alpha, (i, q), clipped in zip(alphas, rec.iq, rec.clipped):
        assert not clipped
        target = alpha / scale
        assert abs(i - target.real) <= 1e-9
        assert abs(q - target.imag) <= 1e-9
