"""Full-order solves on the active dof block and algebraic residuals.

The active block of the stiffness matrix is symmetric positive definite.  Its
dofs are numbered in the reverse Cuthill-McKee order of the mesh pattern
(``BackgroundMesh.rcm_rank``), which keeps the block narrow-banded.  The
upper band, as wide as this block needs, is filled straight from the
mesh-pattern positions and values of the stored entries (``upper_band``) and
factored once by LAPACK's banded Cholesky, ``pbtrf``, with ``pbtrs`` for the
solves; both are called directly, with no CSR matrix made.  ``solve_fom``
solves an assembled ``SystemPair`` this way, and the training solves call
the same ``solve_active`` on the values of a batch.  Only the upper triangle
is read, so the block is taken to be exactly symmetric, as assembly makes
it.  A block that is not positive definite has a non-positive pivot; LAPACK
stops there, and the solve raises ``FomError`` naming the parameter.  A
non-finite entry of the matrix or the load raises ``FomError`` too, before
the factorization: LAPACK would pass it into the solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .assembly import SystemPair

# LAPACK's banded Cholesky factorization and solve, called directly as
# ``deim._GETRS`` is: ``cholesky_banded`` and ``cho_solve_banded`` add argument
# handling to every call of every training solve
_PBTRF, _PBTRS = sla.get_lapack_funcs(("pbtrf", "pbtrs"), (np.empty(1),))


class FomError(RuntimeError):
    pass


@dataclass
class FomSolution:
    """Full-order solution vector (zero at inactive dofs) and the bandwidth
    of the factored active block."""

    u: np.ndarray
    bandwidth: int


def band_positions(rank: np.ndarray, active_dofs: np.ndarray) -> np.ndarray:
    """Band position of every dof: the place of its ``rank`` among those of
    the ``active_dofs`` (meaningless at inactive dofs)."""
    mark = np.zeros(rank.size, dtype=bool)
    mark[rank[active_dofs]] = True
    loc = np.zeros(rank.size, dtype=np.int64)
    loc[active_dofs] = (np.cumsum(mark) - 1)[rank[active_dofs]]
    return loc


def upper_band(row: np.ndarray, col: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """The symmetric matrix of order ``size`` with ``values`` at the band
    positions (``row``, ``col``), in LAPACK's upper band form, as wide as it
    needs: entry (i, j), i <= j, sits at ``band[width + i - j, j]``.  Entries
    below the diagonal are not read."""
    above = col - row  # distance above the diagonal
    upper = np.flatnonzero(above >= 0)
    above, col = above.take(upper), col.take(upper)
    width = int(above.max())
    band = np.zeros((width + 1, size), order="F")  # LAPACK layout
    band[width - above, col] = values.take(upper)
    return band


def solve_active(mesh, active_dofs: np.ndarray, positions: np.ndarray, values: np.ndarray,
                 f: np.ndarray, mu) -> FomSolution:
    """Banded Cholesky factorization and solve of the matrix with ``values``
    at the mesh-pattern ``positions`` (ascending, all in active rows and
    columns), restricted to the ``active_dofs``, against the load ``f``.

    One step of iterative refinement, with the same factor, keeps the active
    residual at the round-off level required by the solver contract; the
    residual sums each row in position order, as a CSR product does.
    Inactive dofs are zero-filled.  Raises ``FomError`` naming ``mu`` when
    the values or the load have a non-finite entry, or the block is not
    positive definite.
    """
    if active_dofs.size == 0:
        raise FomError("empty active dof set")
    if not np.isfinite(values).all():
        raise FomError(f"non-finite entry in the active block at mu={mu}")
    if not np.isfinite(f).all():
        raise FomError(f"non-finite entry in the load at mu={mu}")
    loc = band_positions(mesh.rcm_rank, active_dofs)
    row, col = loc[mesh.pattern_rows[positions]], loc[mesh.pattern_cols[positions]]
    band = upper_band(row, col, values, active_dofs.size)
    factor, info = _PBTRF(band, overwrite_ab=1)
    if info > 0:
        raise FomError(f"non-positive pivot in the active block at mu={mu}: "
                       f"{info}-th leading minor not positive definite")
    pos = loc[active_dofs]
    rhs = np.empty(active_dofs.size)
    rhs[pos] = f[active_dofs]
    x = _PBTRS(factor, rhs)[0]
    x = x + _PBTRS(factor, rhs - np.bincount(row, values * x[col], minlength=rhs.size))[0]
    u = np.zeros(f.shape[0])
    u[active_dofs] = x[pos]
    return FomSolution(u=u, bandwidth=band.shape[0] - 1)


def solve_fom(sys: SystemPair) -> FomSolution:
    """``solve_active`` of an assembled system: the stored values of ``A``
    at its ``pattern_pos``."""
    return solve_active(sys.geom.mesh, sys.active_dofs, sys.pattern_pos, sys.A.data, sys.f,
                        sys.geom.mu)


def residual(sys: SystemPair, u: np.ndarray) -> np.ndarray:
    """Algebraic residual f - A u over all background dofs."""
    if u.shape[0] != sys.f.shape[0]:
        raise FomError("dimension mismatch between system and vector")
    return sys.f - sys.A @ u
