"""Full-order solves on the active dof block and algebraic residuals.

The active block of the stiffness matrix is symmetric positive definite.  Its
dofs are numbered in the reverse Cuthill-McKee order of the mesh pattern
(``BackgroundMesh.rcm_rank``), which keeps the block narrow-banded; the upper
band, as wide as this block needs, is filled straight from the CSR arrays and
factored once by LAPACK's banded Cholesky (``scipy.linalg.cholesky_banded``).
Only the upper triangle is read, so the block is taken to be exactly
symmetric, as assembly makes it.  A block that is not positive definite has
a non-positive pivot; LAPACK stops there, and ``solve_fom`` raises
``FomError`` naming the parameter.  A non-finite entry of the matrix or the
load raises ``FomError`` too, before the factorization: LAPACK would pass it
into the solution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import SystemPair


class FomError(RuntimeError):
    pass


@dataclass
class FomSolution:
    """Full-order solution vector (zero at inactive dofs), its solve time,
    and the bandwidth of the factored active block."""

    u: np.ndarray
    solve_time: float
    bandwidth: int


def active_band(a: sp.csr_matrix, rcm_rank: np.ndarray, active_dofs: np.ndarray):
    """The active block of the symmetric ``a`` in LAPACK's upper band form,
    its dofs numbered in the order of ``rcm_rank`` restricted to them, and
    the band position of each active dof.

    The band is as wide as this block needs: entry (i, j), i <= j, sits at
    ``band[width + i - j, j]``.  Only the upper triangle of ``a`` is read.
    """
    mark = np.zeros(rcm_rank.size, dtype=bool)
    mark[rcm_rank[active_dofs]] = True
    loc = np.zeros(rcm_rank.size, dtype=np.int64)  # meaningless at inactive dofs
    loc[active_dofs] = (np.cumsum(mark) - 1)[rcm_rank[active_dofs]]
    col = loc[a.indices]
    above = col - np.repeat(loc, np.diff(a.indptr))  # distance above the diagonal
    upper = np.flatnonzero(above >= 0)
    above, col = above.take(upper), col.take(upper)
    width = int(above.max())
    band = np.zeros((width + 1, active_dofs.size), order="F")  # LAPACK layout
    band[width - above, col] = a.data.take(upper)
    return band, loc[active_dofs]


def solve_fom(sys: SystemPair) -> FomSolution:
    """Banded Cholesky factorization and solve of A restricted to the active
    dofs.

    One step of iterative refinement, with the same factor, keeps the active
    residual at the round-off level required by the solver contract.
    Inactive dofs are zero-filled.  Raises ``FomError`` when the active
    block or the load has a non-finite entry, or the block is not positive
    definite.
    """
    act = sys.active_dofs
    if act.size == 0:
        raise FomError("empty active dof set")
    t0 = time.perf_counter()
    if not np.isfinite(sys.A.data).all():
        raise FomError(f"non-finite entry in the active block at mu={sys.geom.mu}")
    if not np.isfinite(sys.f).all():
        raise FomError(f"non-finite entry in the load at mu={sys.geom.mu}")
    band, pos = active_band(sys.A, sys.geom.mesh.rcm_rank, act)
    try:
        factor = (sla.cholesky_banded(band, overwrite_ab=True, check_finite=False), False)
    except sla.LinAlgError as exc:
        raise FomError(f"non-positive pivot in the active block at mu={sys.geom.mu}: "
                       f"{exc}") from exc
    rhs = np.empty(act.size)
    rhs[pos] = sys.f[act]
    x = sla.cho_solve_banded(factor, rhs, check_finite=False)
    u = np.zeros(sys.f.shape[0])
    u[act] = x[pos]
    rhs[pos] = (sys.f - sys.A @ u)[act]
    x = x + sla.cho_solve_banded(factor, rhs, check_finite=False)
    u[act] = x[pos]
    dt = time.perf_counter() - t0
    return FomSolution(u=u, solve_time=dt, bandwidth=band.shape[0] - 1)


def residual(sys: SystemPair, u: np.ndarray) -> np.ndarray:
    """Algebraic residual f - A u over all background dofs."""
    if u.shape[0] != sys.f.shape[0]:
        raise FomError("dimension mismatch between system and vector")
    return sys.f - sys.A @ u
