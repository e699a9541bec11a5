import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (
    make_pure_states,
    one_state_pgm,
    pure,
    random_density,
    score_sample_labels,
    trace_product_scores,
)

from qlinksim import (
    POVM,
    BosonicConfig,
    Channel,
    DensityMatrix,
    DephasingConfig,
    DepolarizingConfig,
    DetectorCodebook,
    ErasureConfig,
    PMDConfig,
    TurbulenceConfig,
    argmax_rows,
    build_pgm,
    decide,
    embed_povm_with_erasure,
    measurement_scores,
    qam_codebook,
    qpsk_codebook,
    sample_rows,
    score_rows,
    state_rows,
)
from qlinksim import detection
from qlinksim.states import TOL, from_rows, to_rows

# Absolute tolerance of the closed-form codebook and PGM against the one-state
# complex references: four float64 ulps at 1 (observed at most two).
ULPS_4 = 4 * np.finfo(float).eps


def four_buffer_sample_labels(povm, scores, rng):
    """The sampler as it was before its CDF shared one buffer: clip, divide
    and cumulative sum each in a fresh (n, K) array."""
    if scores.min(initial=0.0) < -TOL:
        raise ValueError(f"negative outcome probability {scores.min():.3e}")
    scores = np.maximum(scores, 0.0)
    totals = scores.sum(axis=1, keepdims=True)
    off = np.abs(totals - 1.0)
    if off.max(initial=0.0) > 1e-6:
        raise ValueError(f"outcome probabilities sum to {float(totals.flat[off.argmax()])!r}, not 1")
    cdf = np.cumsum(scores / totals, axis=1)
    cdf /= cdf[:, -1:]
    draws = rng.random(len(scores))
    return np.asarray(povm.labels)[(cdf <= draws[:, None]).sum(axis=1)]


def codebook_povm(m: int, erasure: bool):
    """The PGM of QPSK (m = 4) or m-QAM, with its codebook; embedded for
    erasure outputs when ``erasure``."""
    cb = qpsk_codebook() if m == 4 else qam_codebook(m)
    povm = build_pgm(cb)
    return cb, embed_povm_with_erasure(povm, 3) if erasure else povm


def channel_outputs(kind: str, m: int, erasure: bool, n: int):
    """The PGM and n random symbols' states through one channel (then
    erasure, when ``erasure``), as (n, 4) rows, one row per symbol."""
    cb, povm = codebook_povm(m, erasure)
    rng = np.random.default_rng(90 + n)
    channel = Channel({
        "depolarizing": DepolarizingConfig(p=0.1),
        "turbulence": TurbulenceConfig(sigma_p=0.1, w0=1.0, rytov_var=0.2),
        "pmd": PMDConfig(dgd=2.0, sigma_omega=1.0),
    }[kind])
    rows = channel.apply_rows(cb.rows[rng.integers(0, m, n)], rng)
    if erasure:
        rows = Channel(ErasureConfig(p=0.25)).apply_rows(rows)
    return povm, rows


def two_state_codebook(overlap: float) -> DetectorCodebook:
    """Equiprobable pure pair with the given real inner product."""
    return DetectorCodebook(
        rows=state_rows(make_pure_states([[1, 0], [overlap, np.sqrt(1 - overlap**2)]]), 2),
        priors=np.array([0.5, 0.5]),
        bit_labels=((0,), (1,)),
    )


class TestPOVMValidation:
    def test_projective_pair_accepted(self):
        povm = POVM.from_elements(
            (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
            labels=(0, 1),
        )
        assert len(povm.rows) == 2

    def test_incomplete_set_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            POVM.from_elements((np.diag([1.0, 0.0]).astype(complex),), labels=(0,))

    def test_non_psd_element_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            POVM.from_elements(
                (
                    np.diag([1.5, 0.0]).astype(complex),
                    np.diag([-0.5, 1.0]).astype(complex),
                ),
                labels=(0, 1),
            )

    def test_non_psd_qubit_element_with_coherences_rejected(self):
        e0 = np.array([[0.5, 0.8j], [-0.8j, 0.5]])  # eigenvalues 1.3 and -0.3
        with pytest.raises(ValueError, match=r"not PSD \(min eigenvalue -3\.000e-01\)"):
            POVM.from_elements((e0, np.eye(2) - e0), labels=(0, 1))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_psd_edge_at_tolerance(self, dim):
        # e0 has the spectrum (-x, 1) on the qubit; for dim 3 the last element
        # alone reads the flag.
        q, _ = np.linalg.qr(np.arange(1.0, 5.0).reshape(2, 2) + np.eye(2))
        for x in (0.99e-9, 1.01e-9):
            e0 = np.zeros((dim, dim))
            e0[:2, :2] = (q * [-x, 1.0]) @ q.T
            elements = (e0.astype(complex), (np.eye(dim) - e0).astype(complex))
            if x < 1e-9:
                POVM.from_elements(elements, labels=(0, 1))
            else:
                with pytest.raises(ValueError, match="PSD"):
                    POVM.from_elements(elements, labels=(0, 1))

    @pytest.mark.parametrize("dim", [3])
    def test_only_the_last_element_reads_the_flag(self, dim):
        e0 = np.diag([0.25, 0.0, 0.25]).astype(complex)
        with pytest.raises(ValueError, match="only its last element reads"):
            POVM.from_elements((e0, np.eye(dim) - e0), labels=(0, 1))

    def test_rows_read_each_element_once(self):
        # Rows are the POVM's data; its elements are derived from them.
        povm = embed_povm_with_erasure(build_pgm(qam_codebook(16)), 3)
        e = povm.elements
        assert np.array_equal(e[:, :2, :2], from_rows(povm.rows)) and not povm.rows.flags.writeable
        assert not e[:, :2, 2:].any() and not e[:, 2:, :2].any()
        # The last element holds the whole flag.
        assert e[:-1, 2, 2].tolist() == [0.0] * 16 and abs(e[-1, 2, 2] - 1.0) <= 1e-15
        assert povm.dim == 3 and build_pgm(qam_codebook(16)).dim == 2

    def test_label_count_must_match(self):
        with pytest.raises(ValueError, match="label"):
            POVM.from_elements((np.eye(2, dtype=complex),), labels=(0, 1))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_elements_rejected(self, dim, bad):
        e = np.full((dim, dim), bad, dtype=complex)
        with pytest.raises(ValueError, match="POVM elements must be finite"):
            POVM.from_elements((e, np.eye(dim) - e), labels=(0, 1))
        e = np.eye(dim, dtype=complex) / 2
        e[0, -1] = bad
        with pytest.raises(ValueError, match="POVM elements must be finite"):
            POVM.from_elements((e, np.eye(dim) - e), labels=(0, 1))

    def test_element_stack_crosses_to_rows_once(self, monkeypatch):
        e0 = np.diag([1.0, 0.0]).astype(complex)
        calls = []
        real = detection.check_structure
        monkeypatch.setattr(
            detection, "check_structure", lambda m, what: calls.append(what) or real(m, what)
        )
        povm = POVM.from_elements((e0, np.eye(2) - e0), labels=(0, 1))
        assert calls == ["POVM elements"]
        assert np.array_equal(povm.rows, [[1, 0, 0, 1], [1, 0, 0, -1]])

    @pytest.mark.parametrize(
        "rows, dim, message",
        [
            (np.empty((0, 4)), 2, "nonempty"),
            (np.eye(2), 2, "nonempty"),
            ([[1, 0, 0, 1], [1, 0, 0, -1]], 4, "dim must be 2"),
            ([[1, 0, 0, 1], [1, 0, 0, np.nan]], 2, "identity"),
            ([[1, 0, 0, 1], [1, 0, 0, -0.5]], 2, "identity"),
            # A float dim loaded, and ``elements`` then raised a TypeError.
            ([[1, 0, 0, 1], [1, 0, 0, -1]], 2.0, "dim must be 2"),
            ([[1, 0, 0, 1], [1, 0, 0, -1]], np.float64(3.0), "dim must be 2"),
            ([[1, 0, 0, 1], [1, 0, 0, -1]], True, "dim must be 2"),
        ],
    )
    def test_malformed_rows_rejected(self, rows, dim, message):
        with pytest.raises(ValueError, match=message):
            POVM(rows, tuple(range(len(rows))), dim)

    @pytest.mark.parametrize("dim", [2, 3, np.int64(2), np.uint8(3)])
    def test_integer_dim_stored_as_int(self, dim):
        povm = POVM([[1, 0, 0, 1], [1, 0, 0, -1]], (0, 1), dim)
        assert type(povm.dim) is int and povm.dim == dim
        assert povm.elements.shape == (2, dim, dim)

    @pytest.mark.parametrize(
        "labels",
        [("a", "b"), (0.5, 7), (True, False), (np.bool_(True), 1), "ab", 7, ((0,), (1,)), (0, -2),
         (0, 1 << 63)],
    )
    def test_labels_must_be_integers_from_minus_one(self, labels):
        # String and float labels loaded, and argmax_rows returned them.
        message = r"^POVM labels must be integers in \[-1, 2\^63 - 1\], got "
        with pytest.raises(ValueError, match=message):
            POVM([[1, 0, 0, 1], [1, 0, 0, -1]], labels)

    @pytest.mark.parametrize(
        "labels", [[0, 1], np.array([0, 1]), (np.int32(0), 1), range(2), (np.uint64(0), 1)]
    )
    def test_labels_stored_as_a_tuple_of_ints(self, labels):
        # A list loaded as a list, and embed_povm_with_erasure then failed
        # to concatenate it with a tuple.
        povm = POVM([[1, 0, 0, 1], [1, 0, 0, -1]], labels)
        assert povm.labels == (0, 1) and all(type(k) is int for k in povm.labels)
        assert embed_povm_with_erasure(povm, 3).labels == (0, 1, -1)

    @pytest.mark.parametrize(
        "rows, dtype",
        [
            ([["1", "0", "0", "1"], ["1", "0", "0", "-1"]], "<U2"),
            ([[1 + 0j, 0, 0, 1], [1, 0, 0, -1]], "complex128"),
            ([[True, False, False, True], [True, False, False, False]], "bool"),
        ],
    )
    def test_rows_must_be_integers_or_floats(self, rows, dtype):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"^POVM rows must be integers or floats, got dtype {dtype}$"
            with pytest.raises(TypeError, match=message):
                POVM(rows, (0, 1))

    def test_elements_are_one_read_only_stack(self):
        e0 = np.diag([1.0, 0.0]).astype(complex)
        povm = POVM.from_elements((e0, np.eye(2) - e0), labels=(0, 1))
        assert povm.elements.shape == (2, 2, 2) and (povm.dim, len(povm.rows)) == (2, 2)
        assert not povm.elements.flags.writeable
        e0[0, 0] = 0.5
        assert povm.elements[0, 0, 0] == 1.0


class TestBuildPgm:
    def test_orthogonal_codebook_gives_projectors(self):
        cb = DetectorCodebook(
            rows=state_rows(make_pure_states([[1, 0], [0, 1]]), 2),
            priors=np.array([0.5, 0.5]),
            bit_labels=((0,), (1,)),
        )
        povm = build_pgm(cb)
        assert np.allclose(povm.elements[0], [[1, 0], [0, 0]], atol=1e-12)
        assert np.allclose(povm.elements[1], [[0, 0], [0, 1]], atol=1e-12)

    def test_qpsk_elements_are_halved_states(self):
        cb = qpsk_codebook()
        povm = build_pgm(cb)
        assert np.allclose(povm.elements, cb.mats / 2, atol=1e-12)
        # rhobar = I / 2, so S = sqrt(2) I and every row is exactly half its state's.
        assert np.array_equal(povm.rows, cb.rows / 2)

    @pytest.mark.parametrize("codebook", [qpsk_codebook(), qam_codebook(16)])
    def test_completeness(self, codebook):
        povm = build_pgm(codebook)
        total = sum(povm.elements)
        assert np.max(np.abs(total - np.eye(codebook.dim))) <= 1e-9

    def test_score_vector_sums_to_one(self):
        rng = np.random.default_rng(61)
        povm = build_pgm(qam_codebook(16))
        for _ in range(20):
            scores = measurement_scores(povm, random_density(rng, 2))
            assert scores.sum() == pytest.approx(1.0, abs=1e-9)

    def test_non_spanning_codebook_rejected(self):
        # Both states sit in the |0> line, so rhobar has no support on |1>.
        cb = DetectorCodebook(
            rows=state_rows(make_pure_states([[1, 0], [1, 0]]), 2),
            priors=np.array([0.5, 0.5]),
            bit_labels=((0,), (1,)),
        )
        with pytest.raises(ValueError, match="span"):
            build_pgm(cb)

    @pytest.mark.parametrize("ket", [[1, 0], [0, 1], [2**-0.5, 2**-0.5], [0.6, 0.8j]])
    def test_rank_deficient_mean_raises_do_not_span(self, ket):
        # One pure state, with all the weight, whatever the other states:
        # rhobar is that state, of rank 1, and its zero eigenvalue is cut.
        mats = make_pure_states([ket, [1, 0], [0, 1]])
        priors = [1.0, 0.0, 0.0]
        labels = np.eye(3, dtype=int)
        cb = DetectorCodebook(rows=state_rows(mats, 2), priors=priors, bit_labels=labels)
        with pytest.raises(ValueError, match="codebook states do not span the full 2-dimensional"):
            build_pgm(cb)

    @pytest.mark.parametrize(
        "codebook",
        [qpsk_codebook(), qam_codebook(4), qam_codebook(16), qam_codebook(64), qam_codebook(256)],
        ids=["qpsk", "qam4", "qam16", "qam64", "qam256"],
    )
    def test_elements_match_one_state_loop(self, codebook):
        # The closed form against the eigensolver, one state at a time.
        povm = build_pgm(codebook)
        ref = np.stack(one_state_pgm(codebook.mats, codebook.priors))
        assert np.max(np.abs(povm.elements - ref)) <= ULPS_4
        assert np.max(np.abs(povm.rows - to_rows(ref))) <= ULPS_4

    def test_unequal_priors_match_one_state_loop(self):
        cb = qam_codebook(16)
        w = np.arange(1.0, 17.0)
        cb = DetectorCodebook(rows=cb.rows, priors=w / w.sum(), bit_labels=cb.bit_labels)
        ref = np.stack(one_state_pgm(cb.mats, cb.priors))
        assert np.max(np.abs(build_pgm(cb).elements - ref)) <= ULPS_4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_states_with_unequal_priors_match_one_state_loop(self, seed):
        # |r| < 1 for every state, and a mean of any direction and length.
        rng = np.random.default_rng(70 + seed)
        mats = np.stack([random_density(rng, 2).mat for _ in range(12)])
        rows = state_rows(mats, 2)
        assert np.all(np.linalg.norm(rows[:, 1:], axis=1) < 1.0)
        w = rng.random(12)
        cb = DetectorCodebook(rows=rows, priors=w / w.sum(), bit_labels=np.eye(12, dtype=int))
        ref = np.stack(one_state_pgm(cb.mats, cb.priors))
        povm = build_pgm(cb)
        assert np.max(np.abs(povm.elements - ref)) <= ULPS_4
        assert np.max(np.abs(povm.rows.sum(axis=0) - [2, 0, 0, 0])) <= 1e-12

    def test_shared_arrays_are_read_only(self):
        povm = build_pgm(qam_codebook(16))
        assert povm.elements.shape == (16, 2, 2)
        with pytest.raises(ValueError):
            povm.elements[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            embed_povm_with_erasure(povm, 3).elements[-1, 2, 2] = 0.0


class TestErasureEmbedding:
    def test_qpsk_residual_is_flag_projector(self):
        povm = embed_povm_with_erasure(build_pgm(qpsk_codebook()), 3)
        assert np.allclose(povm.elements[-1], np.diag([0, 0, 1.0]), atol=1e-9)

    def test_labels_extended_with_sentinel(self):
        povm = embed_povm_with_erasure(build_pgm(qpsk_codebook()), 3)
        assert povm.labels == (0, 1, 2, 3, -1)

    def test_completeness_preserved(self):
        povm = embed_povm_with_erasure(build_pgm(qam_codebook(16)), 3)
        assert np.max(np.abs(sum(povm.elements) - np.eye(3))) <= 1e-9

    def test_dim_must_grow(self):
        with pytest.raises(ValueError, match="exceed"):
            embed_povm_with_erasure(build_pgm(qpsk_codebook()), 2)

    def test_matches_element_by_element_padding(self):
        povm = build_pgm(qam_codebook(16))
        padded = []
        for e in povm.elements:
            big = np.zeros((3, 3), dtype=complex)
            big[:2, :2] = e
            padded.append(big)
        flag = np.diag([0.0, 0.0, 1.0]).astype(complex)
        embedded = embed_povm_with_erasure(povm, 3)
        for got, want in zip(embedded.elements, padded + [flag], strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("order", ["qpsk", 4, 16, 64])
    def test_rows_are_the_run_outcome_rows(self, order):
        # A run decides every channel with this POVM: the qubit PGM's
        # rows bit for bit, then the zero row, labeled -1.
        povm = build_pgm(qpsk_codebook() if order == "qpsk" else qam_codebook(order))
        embedded = embed_povm_with_erasure(povm, 3)
        assert np.array_equal(embedded.rows[:-1], povm.rows) and not embedded.rows[-1].any()
        assert embedded.labels == povm.labels + (-1,) and embedded.dim == 3

    def test_takes_no_eigendecomposition(self, monkeypatch):
        povm = build_pgm(qam_codebook(16))
        monkeypatch.setattr(np.linalg, "eigh", None)
        assert len(embed_povm_with_erasure(povm, 3).rows) == 17


class TestDecide:
    def test_projective_case(self):
        povm = POVM.from_elements(
            (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
            labels=(0, 1),
        )
        assert decide(povm, DensityMatrix(pure(0, 1))) == 1

    def test_qpsk_scores_oracle(self):
        cb = qpsk_codebook()
        povm = build_pgm(cb)
        scores = measurement_scores(povm, cb.states[0])
        assert scores == pytest.approx([0.5, 0.0, 0.25, 0.25], abs=1e-12)
        assert decide(povm, cb.states[0]) == 0

    def test_fully_erased_state_yields_sentinel(self):
        povm = embed_povm_with_erasure(build_pgm(qpsk_codebook()), 3)
        erased = Channel(ErasureConfig(p=1.0)).apply_rows(qpsk_codebook().rows[2:3])
        assert argmax_rows(povm, erased)[0] == -1

    def test_tie_breaks_to_lowest_index(self):
        povm = POVM.from_elements(
            (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
            labels=(7, 3),
        )
        # I/2 scores both outcomes at exactly 0.5.
        assert decide(povm, DensityMatrix(np.eye(2) / 2)) == 7

    def test_prior_scale_invariance(self):
        cb = qpsk_codebook()
        weights = np.array([1.0, 2.0, 3.0, 4.0])

        def with_weights(w):
            return DetectorCodebook(rows=cb.rows, priors=w / w.sum(), bit_labels=cb.bit_labels)

        rng = np.random.default_rng(62)
        povm_a = build_pgm(with_weights(weights))
        povm_b = build_pgm(with_weights(7.0 * weights))
        for _ in range(20):
            rho = random_density(rng, 2)
            assert decide(povm_a, rho) == decide(povm_b, rho)

    def test_dim_mismatch_rejected(self):
        povm = build_pgm(qpsk_codebook())
        with pytest.raises(ValueError, match="dim"):
            decide(povm, DensityMatrix(np.eye(3) / 3))


class TestDecideSampled:
    def test_projective_on_eigenstate_deterministic(self):
        povm = POVM.from_elements(
            (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
            labels=(0, 1),
        )
        rng = np.random.default_rng(63)
        rows = state_rows(np.repeat(pure(1, 0)[None], 100, axis=0))
        assert np.all(sample_rows(povm, rows, rng) == 0)

    def test_qpsk_empirical_frequencies(self):
        cb = qpsk_codebook()
        povm = build_pgm(cb)
        rng = np.random.default_rng(64)
        draws = sample_rows(povm, np.repeat(cb.rows[:1], 100_000, axis=0), rng)
        freqs = np.bincount(draws, minlength=4) / draws.size
        assert freqs == pytest.approx([0.5, 0.0, 0.25, 0.25], abs=0.01)

    def test_uniform_povm_uniform_labels(self):
        m = 4
        povm = POVM.from_elements(
            tuple(np.eye(2, dtype=complex) / m for _ in range(m)),
            labels=tuple(range(m)),
        )
        rng = np.random.default_rng(65)
        rows = state_rows(np.repeat(pure(1, 0)[None], 20_000, axis=0))
        draws = sample_rows(povm, rows, rng)
        freqs = np.bincount(draws, minlength=m) / draws.size
        assert freqs == pytest.approx([0.25] * 4, abs=0.02)


    @pytest.mark.parametrize("m", [4, 16, 64])
    @pytest.mark.parametrize("erasure", [False, True], ids=["qubit", "flagged"])
    def test_decision_tables_are_built_once(self, m, erasure):
        # The tables as sample_rows built them on every call: the labels, the
        # CDF search rows padded to a power of two, the label of each and the
        # cumulative row of all outcomes.
        cb, povm = codebook_povm(m, erasure)
        k = len(povm.rows)
        width = 1 << (k - 1).bit_length()
        labels = np.array(povm.labels, dtype=np.int64)
        cumulative = np.cumsum(povm.rows, axis=0) / 2.0
        pad = np.tile([2.0, 0.0, 0.0, 0.0], (width - k + 1, 1))
        search = np.concatenate([cumulative[:-1], pad])
        label_of = np.concatenate([labels, np.full(width - k, labels[-1])])
        tables = (povm._label_array, *povm._search)
        for got, want in zip(tables, (labels, search, label_of, cumulative[-1]), strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
        rng = np.random.default_rng(66)
        for _ in range(2):
            sample_rows(povm, cb.rows, rng)
            argmax_rows(povm, cb.rows)
        assert all(a is b for a, b in zip((povm._label_array, *povm._search), tables))


class TestRowScores:
    @pytest.mark.parametrize("m, erasure", [(4, False), (16, False), (16, True), (64, True)])
    def test_match_the_complex_trace_product(self, m, erasure):
        _, povm = codebook_povm(m, erasure)
        rng = np.random.default_rng(120 + m)
        mats = np.stack([random_density(rng, povm.dim).mat for _ in range(200)])
        got = score_rows(povm, state_rows(mats, povm.dim))
        assert np.max(np.abs(got - trace_product_scores(povm, mats))) <= 1e-12

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_erasure_outcome_fires_on_the_flag_weight(self, m):
        # A run appends the erasure outcome to the qubit PGM instead of
        # embedding it; its score is the flag's weight 1 - t, which is p
        # itself wherever 1 - p is a double: codebook rows have t = 1.
        cb = qpsk_codebook() if m == 4 else qam_codebook(m)
        povm = embed_povm_with_erasure(build_pgm(cb), 3)
        assert povm.labels[-1] == -1 and povm.dim == 3 and not povm.rows[-1].any()
        for p in (0.0, 0.25, 0.5, 0.6, 0.75, 1.0, 0.1, 0.3):
            rows = Channel(ErasureConfig(p=p)).apply_rows(cb.rows)
            flagged = score_rows(povm, rows)[:, -1]
            if p in (0.1, 0.3):
                # 1 - p rounds, by at most half an ulp of 1.
                assert np.all(np.abs(flagged - p) <= 2.0**-53)
            else:
                assert np.all(flagged == p), p

    def test_row_path_matches_the_complex_path(self):
        # The erasure channel's rows, scored as they are and after a round
        # trip through the checked 3x3 stack they represent.
        cb = qam_codebook(16)
        embedded = embed_povm_with_erasure(build_pgm(cb), 3)
        rows = Channel(ErasureConfig(p=0.25)).apply_rows(cb.rows)
        got = score_rows(embedded, rows)
        want = score_rows(embedded, state_rows(from_rows(rows, 3)))
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_argmax_labels_do_not_depend_on_the_chunk(self, monkeypatch, chunk):
        povm, rows = channel_outputs("pmd", 64, True, 300)
        want = np.array(povm.labels)[np.argmax(score_rows(povm, rows), axis=1)]
        # Blocks of ``chunk`` rows of K scores each.
        monkeypatch.setattr(detection, "_BLOCK_SCORES", (chunk or len(rows)) * len(povm.rows))
        assert np.array_equal(argmax_rows(povm, rows), want)

    def test_argmax_holds_one_chunk_of_scores(self, monkeypatch):
        povm, rows = channel_outputs("pmd", 64, True, 20_000)
        monkeypatch.setattr(detection, "_BLOCK_SCORES", 1000 * len(povm.rows))
        tracemalloc.start()
        try:
            argmax_rows(povm, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(rows) * len(povm.rows) * 8 / 4


class TestBatchDetection:
    def test_scores_match_per_state(self):
        rng = np.random.default_rng(67)
        povm = embed_povm_with_erasure(build_pgm(qam_codebook(16)), 3)
        stack = np.stack([random_density(rng, 2).mat for _ in range(30)])
        received = Channel(ErasureConfig(p=0.3)).apply_rows(state_rows(stack, 2))
        states = [DensityMatrix(m) for m in from_rows(received, 3)]
        rows = state_rows(np.stack([s.mat for s in states]), povm.dim)
        scores = score_rows(povm, rows)
        assert scores.shape == (30, 17)
        for row, rho in zip(scores, states):
            assert np.array_equal(row, measurement_scores(povm, rho))
        labels = argmax_rows(povm, rows)
        assert labels.tolist() == [decide(povm, rho) for rho in states]

    @pytest.mark.parametrize("m, erasure", [(4, False), (16, False), (16, True), (64, True)])
    def test_scores_do_not_depend_on_chunking(self, m, erasure):
        cb, povm = codebook_povm(m, erasure)
        rng = np.random.default_rng(71)
        rows = Channel(PMDConfig(dgd=2.0, sigma_omega=1.0)).apply_rows(
            cb.rows[rng.integers(0, m, 300)], rng
        )
        if erasure:
            rows = Channel(ErasureConfig(p=0.25)).apply_rows(rows)
        whole = score_rows(povm, rows)
        for size in (1, 2, 7, 64, len(rows)):
            parts = np.concatenate(
                [score_rows(povm, rows[i : i + size]) for i in range(0, len(rows), size)]
            )
            assert np.array_equal(parts.view(np.uint8), whole.view(np.uint8)), size

    def test_sampled_labels_match_sequential_choice(self):
        # One uniform per row, in row order, searched like Generator.choice.
        rng = np.random.default_rng(68)
        povm = build_pgm(qam_codebook(16))
        rows = state_rows(np.stack([random_density(rng, 2).mat for _ in range(200)]))
        scores = score_rows(povm, rows)
        batch = sample_rows(povm, rows, np.random.default_rng(69))
        ref_rng = np.random.default_rng(69)
        reference = [
            povm.labels[ref_rng.choice(16, p=np.clip(row, 0, None) / np.clip(row, 0, None).sum())]
            for row in scores
        ]
        assert batch.tolist() == reference

    @pytest.mark.parametrize("k", [4, 17, 65])
    def test_sampled_labels_match_four_buffer_sampler(self, k):
        povm = {
            4: build_pgm(qpsk_codebook()),
            17: embed_povm_with_erasure(build_pgm(qam_codebook(16)), 3),
            65: embed_povm_with_erasure(build_pgm(qam_codebook(64)), 3),
        }[k]
        d = povm.dim
        rng = np.random.default_rng(75 + k)
        states = np.stack([random_density(rng, d).mat for _ in range(3000)])
        # Basis states give outcomes of probability exactly 0: QPSK's |0>
        # and |1> elements, and every symbol outcome of the erasure flag |2>.
        basis = np.eye(d, dtype=complex)[:, :, None] * np.eye(d)[:, None, :]
        states[:300] = basis[rng.integers(0, d, 300)]
        rows = state_rows(states, d)
        got = sample_rows(povm, rows, np.random.default_rng(76))
        want = four_buffer_sample_labels(
            povm, score_rows(povm, rows), np.random.default_rng(76)
        )
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype

    @pytest.mark.parametrize("n", [1, 7, 500, 20_000])
    @pytest.mark.parametrize("m, erasure", [(4, False), (16, False), (16, True), (64, True)])
    @pytest.mark.parametrize("kind", ["depolarizing", "turbulence", "pmd"])
    def test_labels_match_score_sampler(self, kind, m, erasure, n):
        povm, rows = channel_outputs(kind, m, erasure, n)
        got = sample_rows(povm, rows, np.random.default_rng(86))
        want = score_sample_labels(povm, score_rows(povm, rows), np.random.default_rng(86))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m, erasure", [(4, False), (64, True)])
    def test_labels_do_not_depend_on_chunking(self, m, erasure):
        povm, rows = channel_outputs("pmd", m, erasure, 300)
        whole = sample_rows(povm, rows, np.random.default_rng(89))
        for size in (1, 2, 7, 64, len(rows)):
            rng = np.random.default_rng(89)
            parts = np.concatenate(
                [sample_rows(povm, rows[i : i + size], rng) for i in range(0, len(rows), size)]
            )
            assert np.array_equal(parts, whole), size

    def test_sampler_forms_no_per_draw_cdf(self):
        n = 20000
        povm, rows = channel_outputs("pmd", 64, True, n)
        assert len(povm.rows) == 65
        rng = np.random.default_rng(78)
        tracemalloc.start()
        try:
            sample_rows(povm, rows, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * len(povm.rows) * 8

    def test_per_state_draws_on_a_cdf_step_count_it(self):
        # A draw equal to a CDF value counts that entry (<=), also where a
        # zero-probability outcome repeats the value; dyadic elements and
        # basis states make the CDF exact: |0> has outcome probabilities
        # (1/2, 0, 1/4, 1/4) and |1> (1/4, 1/4, 1/4, 1/4).  Each state's row
        # is repeated once per draw, as a deterministic channel's run does.
        class FixedDraws:
            def random(self, n):
                return np.array([0.5, 0.75, 0.0, 0.25, 0.5])[:n]

        povm = POVM.from_elements(
            [np.diag(diag).astype(complex)
                      for diag in ([0.5, 0.25], [0.0, 0.25], [0.25, 0.25], [0.25, 0.25])],
            labels=(0, 1, 2, 3),
        )
        rows = state_rows(np.stack([pure(1, 0), pure(0, 1)]))
        got = sample_rows(povm, rows[[0, 0, 0, 1, 1]], FixedDraws())
        assert got.tolist() == [2, 3, 0, 1, 2]

    @pytest.mark.parametrize("m", [4, 16, 64])
    @pytest.mark.parametrize(
        "cfg",
        [DepolarizingConfig(p=0.1), DephasingConfig(p=1.0), BosonicConfig(loss_db=3.0, n_th=0.2),
         TurbulenceConfig(sigma_p=0.1, w0=1.0, rytov_var=0.2), PMDConfig(dgd=2.0, sigma_omega=1.0)],
        ids=lambda cfg: cfg.kind,
    )
    def test_flagged_pgm_never_erases_a_trace_preserving_channel(self, cfg, m):
        # A run decides every channel with the PGM and the erasure outcome.
        # A channel that keeps the trace gives t = 1 exactly, so the flag
        # scores 0: argmax takes the first of tied scores, the flag last, and
        # a draw's target u * total stays below the last qubit CDF value,
        # also at the largest draw u = 1 - 2^-53.  The labels are the PGM's.
        class LastDraws:
            def random(self, n):
                return np.full(n, 1.0 - 2.0**-53)

        cb, pgm = codebook_povm(m, False)
        flagged = embed_povm_with_erasure(pgm, 3)
        rng = np.random.default_rng(95)
        rows = Channel(cfg).apply_rows(cb.rows[rng.integers(0, m, 500)], rng)
        scores = score_rows(flagged, rows)
        assert np.array_equal(rows[:, 0], np.ones(len(rows)))
        assert np.array_equal(scores[:, -1], np.zeros(len(rows)))
        if m == 4 and cfg.kind == "dephasing":
            # |+> and |-> lose their Bloch vector: four scores of exactly 1/4.
            assert (scores[:, :4] == 0.25).all(axis=1).any()
        for decide_rows in (argmax_rows, lambda povm, r: sample_rows(povm, r, LastDraws())):
            got = decide_rows(flagged, rows)
            assert -1 not in got
            assert np.array_equal(got, decide_rows(pgm, rows))
        got = sample_rows(flagged, rows, np.random.default_rng(96))
        assert np.array_equal(got, sample_rows(pgm, rows, np.random.default_rng(96)))

    def test_scores_do_not_hold_the_complex_product(self):
        cb = qam_codebook(64)
        povm = build_pgm(cb)
        rows = cb.rows[np.random.default_rng(79).integers(0, 64, 5000)]
        tracemalloc.start()
        try:
            scores = score_rows(povm, rows)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # The complex product the scores come from is twice their size.
        assert scores.flags.c_contiguous
        assert held <= 1.1 * scores.nbytes

    def test_bad_probabilities_rejected(self):
        povm = build_pgm(qpsk_codebook())
        rng = np.random.default_rng(70)

        def sample(mats):
            return sample_rows(povm, state_rows(mats, povm.dim), rng)

        with pytest.raises(ValueError, match="trace"):
            sample(np.stack([pure(1, 0), 1.1 * pure(0, 1)]))
        with pytest.raises(ValueError, match="positive semidefinite"):
            sample(np.stack([pure(1, 0), np.diag([1.5, -0.5])]))
        with pytest.raises(ValueError, match="square"):
            sample(np.array([[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]]))
        with pytest.raises(ValueError, match="dim"):
            sample(np.eye(3)[None] / 3)
        # Rows that bypass the crossing still meet the sampler's own total check.
        with pytest.raises(ValueError, match="probabilities sum to"):
            sample_rows(povm, np.array([[1.1, 0.0, 0.0, 0.0]]), rng)


class TestTwoStateOptimality:
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.9])
    def test_pgm_matches_helstrom_regions(self, overlap):
        cb = two_state_codebook(overlap)
        povm = build_pgm(cb)
        delta = 0.5 * cb.mats[0] - 0.5 * cb.mats[1]
        vals, vecs = np.linalg.eigh(delta)
        plus = vecs[:, vals > 0] @ vecs[:, vals > 0].conj().T
        rng = np.random.default_rng(66)
        for _ in range(200):
            probe = random_density(rng, 2)
            helstrom = 0 if np.trace(plus @ probe.mat).real > 0.5 else 1
            assert decide(povm, probe) == helstrom
