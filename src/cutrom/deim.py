"""Discrete empirical interpolation for the parametric stiffness matrix and load.

Matrix snapshots are vectorized over the union of the structural sparsity
patterns seen in training, which is exact: entries off the union pattern are
zero for every training parameter.  The greedy index selection and the
interpolation solve follow the standard algorithm, with deterministic
tie-breaking (first maximal entry).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

MATRIX = "matrix"
VECTOR = "vector"

RANK_CLAMP = 1e-14
COND_LIMIT = 1e12


class DeimError(ValueError):
    pass


@dataclass
class UnionPattern:
    """Sorted row-major union sparsity pattern: position k holds the entry
    (rows[k], cols[k]) of code rows[k] * n + cols[k]."""

    codes: np.ndarray
    n: int
    rows: np.ndarray = field(init=False)
    cols: np.ndarray = field(init=False)
    indptr: np.ndarray = field(init=False)  # CSR row pointers of the pattern

    def __post_init__(self):
        self.rows = self.codes // self.n
        self.cols = self.codes % self.n
        self.indptr = np.searchsorted(self.rows, np.arange(self.n + 1))

    @property
    def size(self) -> int:
        return self.codes.size

    def vectorize(self, a: sp.csr_matrix) -> np.ndarray:
        """Values of a sparse matrix at the pattern positions (zeros where the
        matrix has no stored entry)."""
        a = a.tocsr()
        rows = np.repeat(np.arange(self.n), np.diff(a.indptr))
        codes = rows * self.n + a.indices
        pos = np.searchsorted(self.codes, codes)
        valid = (pos < self.codes.size) & (self.codes[np.minimum(pos, self.codes.size - 1)] == codes)
        if not valid.all():
            raise DeimError("matrix has structural entries outside the union pattern")
        out = np.zeros(self.codes.size)
        out[pos] = a.data
        return out

    def matrix_from_values(self, values: np.ndarray) -> sp.csr_matrix:
        return sp.csr_matrix((values, self.cols, self.indptr), shape=(self.n, self.n))


def build_union_pattern(matrices) -> UnionPattern:
    """Union of the structural patterns of the given stiffness matrices."""
    if len(matrices) < 1:
        raise DeimError("need at least one matrix")
    code_list = []
    n = None
    for m in matrices:
        a = sp.csr_matrix(m)
        if n is None:
            n = a.shape[0]
        rows = np.repeat(np.arange(n), np.diff(a.indptr))
        code_list.append(rows.astype(np.int64) * n + a.indices)
    codes = np.unique(np.concatenate(code_list))
    return UnionPattern(codes, n)


@dataclass
class DeimOperator:
    """Left singular basis, greedy interpolation indices, and the
    interpolation matrix PᵀU = U[indices] with its precomputed factorization,
    its 2-norm condition number and its Lebesgue constant ‖(PᵀU)⁻¹‖₂."""

    U: np.ndarray
    indices: np.ndarray
    singular_values: np.ndarray
    kind: str
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


def deim_operator(u: np.ndarray, indices: np.ndarray, singular_values: np.ndarray,
                  kind: str, pattern: UnionPattern | None = None) -> DeimOperator:
    """The operator of basis ``u`` interpolated at ``indices``: forms PᵀU,
    refuses it when its condition number is not finite or exceeds
    ``COND_LIMIT``, and LU-factors it.  A fresh build and a loaded model
    both come through here."""
    pu = u[indices, :]
    cond, lebesgue = interpolation_conditioning(pu)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise DeimError(f"interpolation matrix is numerically singular (cond={cond:.3e})")
    return DeimOperator(U=u, indices=indices, singular_values=singular_values, kind=kind,
                        pu=pu, lu=sla.lu_factor(pu), cond=cond, lebesgue=lebesgue,
                        pattern=pattern)


def _greedy_indices(u: np.ndarray) -> np.ndarray:
    """Classic greedy selection: p1 = argmax |u1|; then maximize the residual
    of interpolating each next mode at the already selected positions."""
    m, l = u.shape
    indices = np.empty(l, dtype=np.int64)
    indices[0] = int(np.argmax(np.abs(u[:, 0])))
    for k in range(1, l):
        sel = indices[:k]
        coeff = np.linalg.solve(u[sel, :k], u[sel, k])
        rho = u[:, k] - u[:, :k] @ coeff
        indices[k] = int(np.argmax(np.abs(rho)))
    return indices


def build_deim_operator(snapshots: np.ndarray, eps: float, l_cap: int,
                        kind: str = VECTOR, pattern: UnionPattern | None = None) -> DeimOperator:
    """SVD-based basis with squared-singular-value energy truncation.

    l = min{k : sum_{i<=k} s_i^2 / sum s_i^2 >= 1 - eps}, capped by ``l_cap``
    and by the numerical rank.
    """
    snaps = np.asarray(snapshots, dtype=float)
    if snaps.ndim != 2:
        raise DeimError("snapshots must be a 2-d array (m x n_train)")
    if not np.any(snaps):
        raise DeimError("all-zero snapshot matrix")
    u, s, _vt = np.linalg.svd(snaps, full_matrices=False)
    energy = s * s
    cum = np.cumsum(energy) / energy.sum()
    l = int(np.searchsorted(cum, 1.0 - eps) + 1)
    rank = int(np.count_nonzero(s > RANK_CLAMP * s[0]))
    l = max(1, min(l, int(l_cap), rank))
    u = u[:, :l].copy()
    indices = _greedy_indices(u)
    if np.unique(indices).size != l:
        raise DeimError("greedy selection produced duplicate indices")
    return deim_operator(u, indices, s.copy(), kind, pattern)


def deim_coefficients(op: DeimOperator, sampled: np.ndarray) -> np.ndarray:
    """Interpolation coefficients from values sampled at ``op.indices``.

    One refinement step keeps the interpolation residual at the selected
    positions near machine level; cost stays O(l^2).
    """
    sampled = np.asarray(sampled, dtype=float)
    if sampled.shape != (op.l,):
        raise DeimError(f"expected {op.l} sampled values, got {sampled.shape}")
    c = sla.lu_solve(op.lu, sampled)
    c = c + sla.lu_solve(op.lu, sampled - op.pu @ c)
    return c


def reconstruct(op: DeimOperator, coefficients: np.ndarray):
    """U c lifted back to a full vector, or to a symmetrized sparse matrix
    through the union pattern for matrix-kind operators."""
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (op.l,):
        raise DeimError(f"expected {op.l} coefficients, got {coefficients.shape}")
    values = op.U @ coefficients
    if op.kind == VECTOR:
        return values
    if op.pattern is None:
        raise DeimError("matrix-kind operator needs a union pattern")
    b = op.pattern.matrix_from_values(values)
    return ((b + b.T) * 0.5).tocsr()
