"""Proper orthogonal decomposition via the method of snapshots."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

RANK_CLAMP = 1e-14  # eigenvalues below RANK_CLAMP * sigma_1 are treated as zero


class PodError(ValueError):
    pass


@dataclass
class PodBasis:
    """Mass-orthonormal mode matrix with the full correlation spectrum.

    ``n_energy`` is the smallest mode count whose retained energy fraction
    reaches 1 - eps for the POD tolerance eps; ``n_max`` is the number of
    built modes, which exceeds ``n_energy`` only when the caller asked for
    extra modes to serve a wider sweep (never past the numerical rank).
    """

    V: np.ndarray
    sigma: np.ndarray
    n_max: int
    n_energy: int


def energy_mode_count(sigma: np.ndarray, eps: float) -> int:
    """Smallest k with cumulative energy fraction >= 1 - eps, never counting
    modes clamped to zero."""
    sigma = np.asarray(sigma, dtype=float)
    if not sigma.size or sigma[0] <= 0.0:
        raise PodError("spectrum sums to zero")
    cum = np.cumsum(sigma) / sigma.sum()
    k = int(np.searchsorted(cum, 1.0 - eps) + 1)
    return min(k, int(np.count_nonzero(sigma > 0.0)))


def build_pod_basis(s_mat: np.ndarray, mass: sp.csr_matrix, eps: float,
                    min_modes: int = 0) -> PodBasis:
    """Eigendecompose the mass-weighted correlation matrix S^T M S of the
    snapshot columns S (full-order solutions, zero outside each parameter's
    active set) and form modes S v_k / sqrt(sigma_k), re-orthonormalized in
    the M inner product.

    The re-orthonormalization (Cholesky of the mode Gram matrix) does not
    change mode spans; it removes the round-off loss of orthogonality the
    method of snapshots incurs for small eigenvalues.  ``min_modes`` forces
    extra well-defined modes beyond the energy cutoff so a sweep can request
    more modes than the tolerance alone would retain.
    """
    if s_mat.ndim != 2 or s_mat.shape[1] < 1:
        raise PodError("need at least one snapshot column")
    corr = s_mat.T @ (mass @ s_mat)
    corr = 0.5 * (corr + corr.T)
    w, vecs = np.linalg.eigh(corr)
    order = np.argsort(w)[::-1]
    sigma = w[order].copy()
    vecs = vecs[:, order]
    if not sigma.size or sigma[0] <= 0.0:
        raise PodError("all-zero snapshot matrix")
    sigma[sigma < RANK_CLAMP * sigma[0]] = 0.0

    n_energy = energy_mode_count(sigma, eps)
    n_max = max(n_energy, min(int(min_modes), int(np.count_nonzero(sigma > 0.0))))

    v = (s_mat @ vecs[:, :n_max]) / np.sqrt(sigma[:n_max])[None, :]
    gram = v.T @ (mass @ v)
    gram = 0.5 * (gram + gram.T)
    r_fac = sla.cholesky(gram, lower=False)
    v = sla.solve_triangular(r_fac.T, v.T, lower=True).T
    return PodBasis(V=v, sigma=sigma, n_max=n_max, n_energy=n_energy)


def tail_energy(sigma: np.ndarray, n: int) -> float:
    """Discarded energy fraction sum_{k>n} sigma_k / sum_k sigma_k.

    Computed from a reversed cumulative sum so the value is monotone
    non-increasing in n even in floating point.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not (0 <= n <= sigma.size):
        raise PodError(f"mode count {n} outside [0, {sigma.size}]")
    tails = np.cumsum(sigma[::-1])[::-1]
    if tails.size == 0 or tails[0] <= 0.0:
        raise PodError("spectrum sums to zero")
    if n == sigma.size:
        return 0.0
    return float(tails[n] / tails[0])
