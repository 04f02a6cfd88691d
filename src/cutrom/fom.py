"""Full-order solves on the active dof block and algebraic residuals.

The active block of the stiffness matrix is symmetric positive definite.  It
is factored by SuperLU (scipy.sparse.linalg.splu) in symmetric mode: a
minimum-degree ordering of A + A^T applied to rows and columns alike, with
diagonal pivots only.  The factorization is then P A P^T = L U with one
permutation P on both sides and unit lower L, so U = D L^T: the diagonal of
U holds the LDL^T pivots, and a non-positive pivot proves the block is not
positive definite.  A factorization that leaves symmetric pivoting (row
and column orders differ) or reports an exactly singular block is rejected
the same way, with ``FomError``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import SystemPair
from .geometry import ParameterPoint


class FomError(RuntimeError):
    pass


@dataclass
class FomSolution:
    """Full-order solution vector (zero at inactive dofs) and its solve time."""

    u: np.ndarray
    mu: ParameterPoint
    solve_time: float


def solve_fom(sys: SystemPair) -> FomSolution:
    """Sparse symmetric factorization and solve of A restricted to the
    active dofs.

    One step of iterative refinement keeps the active residual at the
    round-off level required by the solver contract.  Inactive dofs are
    zero-filled.  Raises ``FomError`` when the active block is singular or
    not positive definite.
    """
    act = sys.active_dofs
    if act.size == 0:
        raise FomError("empty active dof set")
    t0 = time.perf_counter()
    a_act = sys.A[act][:, act].tocsc()
    f_act = sys.f[act]
    try:
        lu = spla.splu(a_act, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise FomError(f"singular active block at mu={sys.geom.mu}: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FomError(f"off-diagonal pivot in the active block at mu={sys.geom.mu}")
    pivots = lu.U.diagonal()
    if not (pivots > 0.0).all():
        raise FomError(
            f"non-positive pivot {pivots.min():.3e} in the active block at mu={sys.geom.mu}"
        )
    x = lu.solve(f_act)
    x = x + lu.solve(f_act - a_act @ x)
    dt = time.perf_counter() - t0
    u = np.zeros(sys.f.shape[0])
    u[act] = x
    return FomSolution(u=u, mu=sys.geom.mu, solve_time=dt)


def residual(sys: SystemPair, u: np.ndarray) -> np.ndarray:
    """Algebraic residual f - A u over all background dofs."""
    if u.shape[0] != sys.f.shape[0]:
        raise FomError("dimension mismatch between system and vector")
    return sys.f - sys.A @ u
