import numpy as np
import pytest
from conftest import random_density

from qlinksim import (
    POVM,
    Channel,
    DensityMatrix,
    DetectorCodebook,
    ErasureConfig,
    argmax_labels,
    build_pgm,
    decide,
    embed_povm_with_erasure,
    make_pure,
    measurement_scores,
    qam_codebook,
    qpsk_codebook,
    sample_labels,
    score_states,
)


def two_state_codebook(overlap: float) -> DetectorCodebook:
    """Equiprobable pure pair with the given real inner product."""
    psi0 = make_pure([1, 0])
    psi1 = make_pure([overlap, np.sqrt(1 - overlap**2)])
    return DetectorCodebook(
        states=(psi0, psi1),
        priors=np.array([0.5, 0.5]),
        bit_labels=((0,), (1,)),
        bits_per_symbol=1,
    )


class TestPOVMValidation:
    def test_projective_pair_accepted(self):
        povm = POVM(
            elements=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
            labels=(0, 1),
        )
        assert povm.n_outcomes == 2

    def test_incomplete_set_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            POVM(elements=(np.diag([1.0, 0.0]).astype(complex),), labels=(0,))

    def test_non_psd_element_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            POVM(
                elements=(
                    np.diag([1.5, 0.0]).astype(complex),
                    np.diag([-0.5, 1.0]).astype(complex),
                ),
                labels=(0, 1),
            )

    def test_label_count_must_match(self):
        with pytest.raises(ValueError, match="label"):
            POVM(elements=(np.eye(2, dtype=complex),), labels=(0, 1))


class TestBuildPgm:
    def test_orthogonal_codebook_gives_projectors(self):
        cb = DetectorCodebook(
            states=(make_pure([1, 0]), make_pure([0, 1])),
            priors=np.array([0.5, 0.5]),
            bit_labels=((0,), (1,)),
            bits_per_symbol=1,
        )
        povm = build_pgm(cb)
        assert np.allclose(povm.elements[0], [[1, 0], [0, 0]], atol=1e-12)
        assert np.allclose(povm.elements[1], [[0, 0], [0, 1]], atol=1e-12)

    def test_qpsk_elements_are_halved_states(self):
        cb = qpsk_codebook()
        povm = build_pgm(cb)
        for element, state in zip(povm.elements, cb.states):
            assert np.allclose(element, state.mat / 2, atol=1e-12)

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
            states=(make_pure([1, 0]), make_pure([1, 0])),
            priors=np.array([0.5, 0.5]),
            bit_labels=((0,), (1,)),
            bits_per_symbol=1,
        )
        with pytest.raises(ValueError, match="span"):
            build_pgm(cb)


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


class TestDecide:
    def test_projective_case(self):
        povm = POVM(
            elements=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
            labels=(0, 1),
        )
        assert decide(povm, make_pure([0, 1])) == 1

    def test_qpsk_scores_oracle(self):
        cb = qpsk_codebook()
        povm = build_pgm(cb)
        scores = measurement_scores(povm, cb.states[0])
        assert scores == pytest.approx([0.5, 0.0, 0.25, 0.25], abs=1e-12)
        assert decide(povm, cb.states[0]) == 0

    def test_fully_erased_state_yields_sentinel(self):
        povm = embed_povm_with_erasure(build_pgm(qpsk_codebook()), 3)
        erased = Channel(ErasureConfig(p=1.0)).apply_batch(qpsk_codebook().states[2].mat[None])
        assert argmax_labels(povm, score_states(povm, erased))[0] == -1

    def test_tie_breaks_to_lowest_index(self):
        povm = POVM(
            elements=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
            labels=(7, 3),
        )
        # I/2 scores both outcomes at exactly 0.5.
        assert decide(povm, DensityMatrix(np.eye(2) / 2)) == 7

    def test_prior_scale_invariance(self):
        cb = qpsk_codebook()
        weights = np.array([1.0, 2.0, 3.0, 4.0])

        def with_weights(w):
            return DetectorCodebook(
                states=cb.states,
                priors=w / w.sum(),
                bit_labels=cb.bit_labels,
                bits_per_symbol=cb.bits_per_symbol,
            )

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
        povm = POVM(
            elements=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
            labels=(0, 1),
        )
        rng = np.random.default_rng(63)
        scores = score_states(povm, np.repeat(make_pure([1, 0]).mat[None], 100, axis=0))
        assert np.all(sample_labels(povm, scores, rng) == 0)

    def test_qpsk_empirical_frequencies(self):
        cb = qpsk_codebook()
        povm = build_pgm(cb)
        rng = np.random.default_rng(64)
        scores = score_states(povm, np.repeat(cb.states[0].mat[None], 100_000, axis=0))
        draws = sample_labels(povm, scores, rng)
        freqs = np.bincount(draws, minlength=4) / draws.size
        assert freqs == pytest.approx([0.5, 0.0, 0.25, 0.25], abs=0.01)

    def test_uniform_povm_uniform_labels(self):
        m = 4
        povm = POVM(
            elements=tuple(np.eye(2, dtype=complex) / m for _ in range(m)),
            labels=tuple(range(m)),
        )
        rng = np.random.default_rng(65)
        scores = score_states(povm, np.repeat(make_pure([1, 0]).mat[None], 20_000, axis=0))
        draws = sample_labels(povm, scores, rng)
        freqs = np.bincount(draws, minlength=m) / draws.size
        assert freqs == pytest.approx([0.25] * 4, abs=0.02)


class TestBatchDetection:
    def test_scores_match_per_state(self):
        rng = np.random.default_rng(67)
        povm = embed_povm_with_erasure(build_pgm(qam_codebook(16)), 3)
        stack = np.stack([random_density(rng, 2).mat for _ in range(30)])
        states = [DensityMatrix(m) for m in Channel(ErasureConfig(p=0.3)).apply_batch(stack)]
        scores = score_states(povm, np.stack([s.mat for s in states]))
        assert scores.shape == (30, 17)
        for row, rho in zip(scores, states):
            assert np.array_equal(row, measurement_scores(povm, rho))
        labels = argmax_labels(povm, scores)
        assert labels.tolist() == [decide(povm, rho) for rho in states]

    def test_sampled_labels_match_sequential_choice(self):
        # One uniform per row, in row order, searched like Generator.choice.
        rng = np.random.default_rng(68)
        povm = build_pgm(qam_codebook(16))
        states = [random_density(rng, 2) for _ in range(200)]
        scores = score_states(povm, np.stack([s.mat for s in states]))
        batch = sample_labels(povm, scores, np.random.default_rng(69))
        ref_rng = np.random.default_rng(69)
        reference = [
            povm.labels[ref_rng.choice(16, p=np.clip(row, 0, None) / np.clip(row, 0, None).sum())]
            for row in scores
        ]
        assert batch.tolist() == reference

    def test_bad_probabilities_rejected(self):
        povm = build_pgm(qpsk_codebook())
        rng = np.random.default_rng(70)
        with pytest.raises(ValueError, match="negative"):
            sample_labels(povm, np.array([[0.5, 0.6, 0.0, -0.1]]), rng)
        with pytest.raises(ValueError, match="sum"):
            sample_labels(povm, np.array([[0.5, 0.5, 0.0, 0.0], [0.5, 0.6, 0.0, 0.0]]), rng)


class TestTwoStateOptimality:
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.9])
    def test_pgm_matches_helstrom_regions(self, overlap):
        cb = two_state_codebook(overlap)
        povm = build_pgm(cb)
        delta = 0.5 * cb.states[0].mat - 0.5 * cb.states[1].mat
        vals, vecs = np.linalg.eigh(delta)
        plus = vecs[:, vals > 0] @ vecs[:, vals > 0].conj().T
        rng = np.random.default_rng(66)
        for _ in range(200):
            probe = random_density(rng, 2)
            helstrom = 0 if np.trace(plus @ probe.mat).real > 0.5 else 1
            assert decide(povm, probe) == helstrom
