"""Discrete empirical interpolation for the parametric stiffness matrix and load.

Matrix snapshots are vectorized over the union of the structural sparsity
patterns seen in training, which is exact: entries off the union pattern are
zero for every training parameter.  The stiffness matrices are symmetric,
so the union pattern keeps its upper half only (row <= col): a sorted set of
positions in the mesh's assembly pattern (``BackgroundMesh.pattern_upper``),
which carries every training matrix whole.  The snapshots are given there,
their off-diagonal rows weighted by sqrt(2) so the Frobenius inner product
of the whole matrices is kept, and the basis U stays there: row k of U is
the entry at ``pattern.positions[k]``.  A vector basis is the same
computation with every row of weight 1.  For both kinds an interpolation
index is a row of U, and an interpolant is U c (``reconstruct``).  The
callers that need the whole symmetric matrix (the sweep's η_A and
``rom.build_rom_offline``) mirror it with the pattern's ``whole`` positions
and their ``twin`` rows.

The greedy index selection is LU elimination of the basis with a pivot rule
(Sorensen & Embree 2016): the pivot is the first position whose residual is
within ``TIE_RTOL`` of the largest, so near-ties (symmetric geometries) are
decided by position, not by rounding.  It runs blocked, ``PANEL`` modes at
a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .geometry import BackgroundMesh
from .pod import thin_svd, truncation_rank

MATRIX = "matrix"
VECTOR = "vector"

COND_LIMIT = 1e12

# the greedy takes the first position whose |residual| is within TIE_RTOL
# (relative) of the largest, and eliminates PANEL modes per block
TIE_RTOL = 1e-8
PANEL = 16

# LAPACK's LU solve, called directly: ``scipy.linalg.lu_solve`` adds about
# 15 us of argument handling per call, and the sweep's indicators make four
# calls per parameter
_GETRS = sla.get_lapack_funcs("getrs", (np.empty(1),))


class DeimError(ValueError):
    pass


class UnionPattern:
    """The upper half of the union of the training stiffness patterns: row
    k of a matrix snapshot or basis is the entry at mesh position
    ``positions[k]`` (sorted, each with row <= col), and ``diagonal[k]``
    says whether it is on the diagonal.  A position below the diagonal
    raises ``DeimError``.

    The whole symmetric union is written here once: ``whole`` holds its
    mesh positions, sorted (the upper ones and their mirrors through
    ``mesh.pattern_transpose``), and ``twin`` the row of each one's upper
    entry, so ``values.take(twin)`` mirrors values over the rows to the
    whole union."""

    def __init__(self, mesh: BackgroundMesh, positions: np.ndarray):
        rows, cols = mesh.pattern_rows[positions], mesh.pattern_cols[positions]
        below = np.flatnonzero(rows > cols)
        if below.size:
            k = below[0]
            raise DeimError(f"union pattern position {positions[k]} (row {rows[k]}, "
                            f"column {cols[k]}) is below the diagonal")
        self.positions = positions
        self.size = positions.size
        self.diagonal = rows == cols
        self.whole = np.union1d(positions, mesh.pattern_transpose[positions])
        self.twin = np.searchsorted(positions,
                                    np.minimum(self.whole, mesh.pattern_transpose[self.whole]))


def build_union_pattern(mesh: BackgroundMesh, position_sets) -> UnionPattern:
    """The upper half (``BackgroundMesh.pattern_upper``) of the union of the
    stiffness matrices' structural patterns, each given by its mesh-pattern
    positions (``assembly.SystemPair.pattern_pos``).  The matrices are
    symmetric, so their patterns are, and the upper half carries the
    union."""
    if len(position_sets) < 1:
        raise DeimError("need at least one matrix")
    used = np.zeros(mesh.pattern_cols.size, dtype=bool)
    for positions in position_sets:
        used[positions] = True
    return UnionPattern(mesh, mesh.pattern_upper[used[mesh.pattern_upper]])


@dataclass
class DeimOperator:
    """Left singular basis, greedy interpolation indices (rows of U), and
    the interpolation matrix PᵀU = U[indices] with its precomputed
    factorization, its 2-norm condition number and its Lebesgue constant
    ‖(PᵀU)⁻¹‖₂.  A matrix operator carries its union ``pattern``: row k of
    U is the entry at ``pattern.positions[k]``."""

    U: np.ndarray
    indices: np.ndarray
    pu: np.ndarray
    lu: tuple
    cond: float
    lebesgue: float
    pattern: UnionPattern | None = None

    @property
    def l(self) -> int:
        return self.indices.size


def interpolation_conditioning(pu: np.ndarray):
    """Condition number (as ``np.linalg.cond``) and Lebesgue constant
    ‖(PᵀU)⁻¹‖₂ = 1/σ_min of an interpolation matrix, from one set of
    singular values."""
    s = np.linalg.svd(pu, compute_uv=False)
    with np.errstate(all="ignore"):
        return float(s[0] / s[-1]), float(1.0 / s[-1])


def deim_operator(u: np.ndarray, indices: np.ndarray,
                  pattern: UnionPattern | None = None) -> DeimOperator:
    """The operator of basis ``u`` interpolated at ``indices`` (rows of
    ``u``): forms PᵀU, refuses it when its condition number is not finite or
    exceeds ``COND_LIMIT``, and LU-factors it.  A fresh build and a loaded
    model both come through here."""
    pu = u[indices, :]
    cond, lebesgue = interpolation_conditioning(pu)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise DeimError(f"interpolation matrix is numerically singular (cond={cond:.3e})")
    return DeimOperator(U=u, indices=indices, pu=pu, lu=sla.lu_factor(pu), cond=cond,
                        lebesgue=lebesgue, pattern=pattern)


def _pivot(rho: np.ndarray) -> int:
    """The first position whose |rho| is within ``TIE_RTOL`` of the largest."""
    size = np.abs(rho)
    top = size.max()
    return int(np.argmax(top - size <= TIE_RTOL * top))


def _greedy_indices(u: np.ndarray) -> np.ndarray:
    """Greedy interpolation indices of the basis ``u`` (m x l): p_k is the
    ``_pivot`` of the residual of mode k interpolated at p_1 .. p_(k-1).

    This is LU elimination of Uᵀ with that pivot rule, run left-looking in
    panels of ``PANEL`` modes: the earlier modes' multipliers are applied to
    a panel with one unit-triangular solve at the pivot positions and one
    GEMM, and the panel's modes are then eliminated one at a time."""
    m, l = u.shape
    indices = np.empty(l, dtype=np.int64)
    mult = np.empty((l, m))  # row k: residual of mode k over its pivot value
    for k0 in range(0, l, PANEL):
        k1 = min(k0 + PANEL, l)
        panel = u[:, k0:k1].T.copy()
        if k0:
            pivots = indices[:k0]
            top = sla.solve_triangular(mult[:k0, pivots], u[pivots, k0:k1], trans="T",
                                       unit_diagonal=True, check_finite=False)
            panel -= top.T @ mult[:k0]
        for j, k in enumerate(range(k0, k1)):
            rho = panel[j]
            indices[k] = p = _pivot(rho)
            np.divide(rho, rho[p], out=mult[k])
            panel[j + 1:] -= panel[j + 1:, p, None] * mult[k]
    return indices


def build_deim_operator(snapshots: np.ndarray, eps: float, kind: str = VECTOR,
                        pattern: UnionPattern | None = None) -> DeimOperator:
    """Interpolation operator of the snapshot columns: left singular basis,
    truncated by the rule every SVD basis shares (``pod.truncation_rank``:
    squared-singular-value energy 1 - eps, capped by the numerical rank, so
    l is at most the number of snapshots), and its greedy indices.

    With a ``pattern`` the snapshots are the symmetric stiffness matrices at
    the union's entries, one row per entry, which carry them whole.  Their
    off-diagonal rows are weighted by sqrt(2): the SVD sees the Frobenius
    inner product of the whole matrices, and the truncation their spectrum,
    which is not kept.  The basis is divided by the weights again: mirrored
    to the lower entries it is orthonormal.  Without a pattern every row has
    weight 1.  ``kind`` must agree with ``pattern``: ``MATRIX`` with one,
    ``VECTOR`` without; either disagreement raises ``DeimError``, as does a
    row count other than the pattern's.  A snapshot column with a non-finite
    entry is refused by name, as is a failed SVD.

    The weighted copy of the snapshots is the SVD's work array
    (``pod.thin_svd``): Fortran-ordered snapshots, such as the stores of
    ``pipeline.run_offline``, are decomposed with no other copy.  The
    references to ``snapshots`` are dropped once that copy exists, so
    snapshots handed in as a temporary are freed before the SVD starts, and
    the work array once it ends.  The kept basis is one C-ordered array.
    """
    if kind != (VECTOR if pattern is None else MATRIX):
        raise DeimError(f"{kind!r} operator with{'out' if pattern is None else ''} a union "
                        "pattern: a matrix-kind operator needs one, a vector-kind one none")
    snaps = np.asarray(snapshots, dtype=float)
    if snaps.ndim != 2:
        raise DeimError("snapshots must be a 2-d array (m x n_train)")
    if pattern is not None and snaps.shape[0] != pattern.size:
        raise DeimError(f"{snaps.shape[0]} snapshot rows for the {pattern.size} "
                        "upper entries of a union pattern")
    if not np.any(snaps):
        raise DeimError("all-zero snapshot matrix")
    weight = 1.0 if pattern is None else np.where(pattern.diagonal, 1.0, np.sqrt(2.0))[:, None]
    work = np.asfortranarray(snaps * weight)
    del snapshots, snaps  # a caller's temporary is freed before the SVD
    u, s = thin_svd(work, DeimError)
    del work
    l = truncation_rank(s, eps)
    u = np.divide(u[:, :l], weight, order="C")
    indices = _greedy_indices(u)
    if np.unique(indices).size != l:
        raise DeimError("greedy selection produced duplicate indices")
    return deim_operator(u, indices, pattern)


def deim_coefficients(op: DeimOperator, sampled: np.ndarray) -> np.ndarray:
    """Interpolation coefficients from values sampled at ``op.indices``.

    One refinement step keeps the interpolation residual at the selected
    positions near machine level; cost stays O(l^2).
    """
    sampled = np.asarray(sampled, dtype=float)
    if sampled.shape != (op.l,):
        raise DeimError(f"expected {op.l} sampled values, got {sampled.shape}")
    c = _GETRS(*op.lu, sampled)[0]
    c = c + _GETRS(*op.lu, sampled - op.pu @ c)[0]
    return c


def reconstruct(op: DeimOperator, coefficients: np.ndarray) -> np.ndarray:
    """The interpolant U c: for the load its values over the dofs; for the
    matrix its values over the union's upper entries, which a lower entry
    mirrors."""
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (op.l,):
        raise DeimError(f"expected {op.l} coefficients, got {coefficients.shape}")
    return op.U @ coefficients
