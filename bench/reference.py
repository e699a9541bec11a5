"""Independent numpy reference for the benchmark's output checks.

Closed-form qubit channel maps, the square-QAM qubit codebook and the
pretty-good measurement, written from their definitions without calling
``qlinksim``.  ``exact_error_probability`` turns them into the symbol error
probability a deterministic channel must show, so the benchmark can bound
each reported ``ser_count`` however the program lays out its random draws.
"""

from __future__ import annotations

import numpy as np

DETERMINISTIC_KINDS = ("depolarizing", "dephasing", "erasure", "bosonic")


def qam_states(order: int) -> np.ndarray:
    """(M, 2, 2) pure states (|0> + a|1>)/sqrt(1 + |a|^2) of unit-power square M-QAM.

    Symbol index ix * side + iq holds the grid point (2ix - side + 1) +
    i(2iq - side + 1), scaled so the mean of |a|^2 is 1.
    """
    side = int(round(np.sqrt(order)))
    levels = 2.0 * np.arange(side) - (side - 1)
    alpha = (levels[:, None] + 1j * levels[None, :]).ravel()
    alpha = alpha / np.sqrt(2.0 * (order - 1) / 3.0)
    kets = np.stack([np.ones_like(alpha), alpha], axis=1) / np.sqrt(1.0 + np.abs(alpha) ** 2)[:, None]
    return np.einsum("mi,mj->mij", kets, kets.conj())


def apply_channel(kind: str, params: dict, rho: np.ndarray) -> np.ndarray:
    """Closed-form output of one deterministic channel on a (..., 2, 2) qubit state stack."""
    rho = np.asarray(rho, dtype=complex)
    if kind == "depolarizing":
        p = params["p"]
        return (1.0 - p) * rho + p * np.eye(2) / 2.0
    if kind == "dephasing":
        out = rho * (1.0 - params["p"])
        out[..., 0, 0] = rho[..., 0, 0]
        out[..., 1, 1] = rho[..., 1, 1]
        return out
    if kind == "erasure":
        p = params["p"]
        out = np.zeros(rho.shape[:-2] + (3, 3), dtype=complex)
        out[..., :2, :2] = (1.0 - p) * rho
        out[..., 2, 2] = p
        return out
    if kind == "bosonic":
        if params.get("n_th", 0.0) != 0.0:
            raise ValueError("the reference covers bosonic loss at n_th = 0 only")
        # Pure loss is amplitude damping: K0 = diag(1, sqrt(eta)), K1 = sqrt(1-eta)|0><1|.
        eta = 10.0 ** (-params["loss_db"] / 10.0)
        out = rho * np.sqrt(eta)
        out[..., 0, 0] = rho[..., 0, 0] + (1.0 - eta) * rho[..., 1, 1]
        out[..., 1, 1] = eta * rho[..., 1, 1]
        return out
    raise ValueError(f"no closed-form reference for channel kind {kind!r}")


def pgm(states: np.ndarray, priors: np.ndarray, eig_cut: float = 1e-10) -> np.ndarray:
    """(M, d, d) elements p_m S rho_m S with S the pseudo-inverse square root of sum_m p_m rho_m."""
    rhobar = np.einsum("m,mij->ij", priors, states)
    vals, vecs = np.linalg.eigh(rhobar)
    inv = np.where(vals > eig_cut, 1.0 / np.sqrt(np.where(vals > eig_cut, vals, 1.0)), 0.0)
    s = (vecs * inv) @ vecs.conj().T
    return priors[:, None, None] * (s @ states @ s)


def with_erasure(elements: np.ndarray, out_dim: int) -> np.ndarray:
    """Zero-pad the elements to ``out_dim`` and append the residual I - sum as the erasure outcome."""
    m, d, _ = elements.shape
    padded = np.zeros((m + 1, out_dim, out_dim), dtype=complex)
    padded[:m, :d, :d] = elements
    padded[m] = np.eye(out_dim) - padded[:m].sum(axis=0)
    return padded


def outcome_probabilities(elements: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Born probabilities Tr(E_k rho) for a (..., d, d) stack of states, outcomes on the last axis."""
    return np.einsum("kij,...ji->...k", elements, rho).real


def exact_error_probability(kind: str, params: dict, order: int, decision_mode: str) -> float:
    """Symbol error probability of uniform M-QAM through a deterministic channel.

    Under ``argmax`` each codebook state is decided the same way every
    time, so the probability is the share of states decided wrongly
    (ties go to the lowest outcome index, the erasure outcome last).
    Under ``sampled`` it is the Born error 1 - mean_m Tr(E_m Phi(rho_m)).
    """
    states = qam_states(order)
    elements = pgm(states, np.full(order, 1.0 / order))
    received = apply_channel(kind, params, states)
    if received.shape[-1] > elements.shape[-1]:
        elements = with_erasure(elements, received.shape[-1])
    probs = outcome_probabilities(elements, received)
    sent = np.arange(order)
    if decision_mode == "argmax":
        return float(np.mean(np.argmax(probs, axis=1) != sent))
    if decision_mode == "sampled":
        return float(1.0 - np.mean(probs[sent, sent]))
    raise ValueError(f"unknown decision mode {decision_mode!r}")
