"""Proper orthogonal decomposition by a thin SVD in the mass inner product.

With M = RᵀR (banded Cholesky, dofs in reverse Cuthill-McKee order), the
M-orthonormal POD modes of the snapshots S are R⁻¹W for the thin SVD
R S = W diag(s) Yᵀ, with spectrum sigma = s² (Kunisch & Volkwein 2002).
This never forms SᵀMS, whose eigendecomposition (the method of snapshots)
squares the condition number and leaves the spectrum tail with few correct
digits.  Every SVD basis of the package (the POD here and both DEIM
operators) takes its thin SVD from ``thin_svd``, one LAPACK call that works
in the caller's Fortran-ordered array, and truncates it by
``truncation_rank``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dtbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .fom import upper_band

RANK_CLAMP = 1e-14  # singular values at or below RANK_CLAMP * s_1 count as zero

# LAPACK's divide-and-conquer SVD, called directly so it works in the
# caller's array: ``np.linalg.svd`` copies a C-ordered input to Fortran
# order and copies both factors out again
_GESDD = sla.get_lapack_funcs("gesdd", (np.empty(1),))


class PodError(ValueError):
    pass


@dataclass
class PodBasis:
    """Mass-orthonormal mode matrix with the full spectrum sigma = s², one
    value per singular value of R S (min(N, snapshot count) of them).

    ``n_energy`` is the smallest mode count whose retained energy fraction
    reaches 1 - eps for the POD tolerance eps; ``n_max`` is the number of
    built modes, which exceeds ``n_energy`` only when the caller asked for
    extra modes to serve a wider sweep (never past the numerical rank).
    """

    V: np.ndarray
    sigma: np.ndarray
    n_max: int
    n_energy: int


def truncation_rank(s: np.ndarray, eps: float) -> int:
    """The truncation rule of every SVD basis (POD and both DEIM operators):
    the smallest k with sum_{i<=k} s_i² >= (1 - eps) sum_i s_i² for the
    descending singular values s, capped by the numerical rank, the count of
    s_i above ``RANK_CLAMP`` s_1."""
    s = np.asarray(s, dtype=float)
    if not s.size or s[0] <= 0.0:
        raise PodError("spectrum sums to zero")
    energy = s * s
    cum = np.cumsum(energy) / energy.sum()
    k = int(np.searchsorted(cum, 1.0 - eps) + 1)
    return min(k, int(np.count_nonzero(s > RANK_CLAMP * s[0])))


def thin_svd(a: np.ndarray, error: type[Exception]):
    """U and s of the thin SVD a = U diag(s) Vᵀ, for every SVD basis (POD and
    both DEIM operators), by one in-place LAPACK ``gesdd``: ``a`` must be an
    owned, Fortran-ordered float64 array, and is overwritten; U is
    Fortran-ordered.  The caller's ``error`` names the first column of ``a``
    with a non-finite entry (LAPACK would refuse a NaN as an illegal argument
    and return NaN singular values for an inf), and a LAPACK failure."""
    bad = np.flatnonzero(~np.isfinite(a).all(axis=0))
    if bad.size:
        raise error(f"snapshot column {bad[0]} has a non-finite entry")
    u, s, _vt, info = _GESDD(a, compute_uv=1, full_matrices=0, overwrite_a=1)
    if info:
        raise error(f"SVD of the snapshot matrix failed (LAPACK gesdd info={info})")
    return u, s


def build_pod_basis(s_mat: np.ndarray, mass: sp.csr_matrix, eps: float,
                    min_modes: int = 0) -> PodBasis:
    """M-orthonormal modes of the snapshot columns S (full-order solutions,
    zero outside each parameter's active set) from the thin SVD of R S, where
    M = RᵀR.  Singular values at or below ``RANK_CLAMP`` s_1 are set to zero
    before sigma = s² is formed.  A snapshot column with a non-finite entry
    is refused by name, as is a failed SVD.  ``min_modes`` forces extra
    well-defined modes beyond the energy cutoff so a sweep can request more
    modes than the tolerance alone would retain.
    """
    if s_mat.ndim != 2 or s_mat.shape[1] < 1:
        raise PodError("need at least one snapshot column")
    n = mass.shape[0]
    # every dof is active, so a dof's band position is its rank
    pos = np.empty(n, dtype=np.int64)
    pos[reverse_cuthill_mckee(mass, symmetric_mode=True)] = np.arange(n)
    rows = np.repeat(np.arange(n), np.diff(mass.indptr))
    band = upper_band(pos[rows], pos[mass.indices], mass.data, n)
    r_band = sla.cholesky_banded(band, overwrite_ab=True, check_finite=False)
    width = r_band.shape[0] - 1
    # row k of LAPACK's upper band form is the diagonal at offset width - k,
    # laid out as scipy's DIA format lays out a diagonal
    r_mat = sp.dia_matrix((r_band, width - np.arange(width + 1)), shape=(n, n)).tocsr()
    s_perm = np.empty_like(s_mat, dtype=float)
    s_perm[pos] = s_mat
    w, s = thin_svd(np.asfortranarray(r_mat @ s_perm), PodError)
    if s[0] <= 0.0:
        raise PodError("all-zero snapshot matrix")
    s[s <= RANK_CLAMP * s[0]] = 0.0

    n_energy = truncation_rank(s, eps)
    n_max = max(n_energy, min(int(min_modes), int(np.count_nonzero(s))))

    v_perm = dtbtrs(r_band, w[:, :n_max])[0]  # R has a positive diagonal: never singular
    return PodBasis(V=v_perm[pos], sigma=s * s, n_max=n_max, n_energy=n_energy)


def projection_tail_gap(pod: PodBasis, snapshots: np.ndarray, mass, n: int) -> float:
    """Relative gap between the M-norm projection error of the snapshot
    columns on the first n modes and the discarded spectrum sum_{k>n} sigma_k.

    The two agree in exact arithmetic; with modes from the thin SVD they
    agree to round-off relative to the tail, also deep in the spectrum."""
    v_n = pod.V[:, :n]
    diff = snapshots - v_n @ (v_n.T @ (mass @ snapshots))
    lhs = float((diff * (mass @ diff)).sum())
    rhs = float(pod.sigma[n:].sum())
    return abs(lhs - rhs) / rhs


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
