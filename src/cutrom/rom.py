"""Reduced blocks projected offline and the sampled online solve.

The blocks, the interpolation operators and the entry plan are carried by
one offline object, ``artifacts.OfflineArtifacts``.  The blocks are kept in
the DEIM online form (Chaturantabut & Sorensen 2010; Negri, Manzoni &
Amsallem 2015): the inverse of each interpolation matrix PᵀU is folded into
them offline, so the reduced operator and load are linear in the sampled
entries themselves, and no interpolation system is solved online.  The
matrix basis lives on the upper half of the union pattern; the projection
mirrors it to the whole union (``deim.UnionPattern.whole``), as it needs
the whole symmetric matrices.

The online stage has two steps.  ``sample_entries`` samples the planned
entries for one parameter (``assembly.evaluate_entries``): the entry plan's
piece of the mesh, its terms selected by the same rule and summed through
the same routine as full assembly, so the samples are entries of the
assembled operator bit for bit; they depend on the parameter only, not on
the mode count.  A query reads the geometry's level set and element
classes on that piece only, and derives neither of the whole-mesh sets the
geometry keeps (cut elements, active dofs).  ``solve`` then forms the
reduced system for one mode count (one product each with the matrix and
the load blocks), solves it with one LU solve and lifts it.
``rom_online_solve`` is one standalone query: both steps at one mode
count.  The interpolation coefficients, which only the estimators need,
come from ``deim.deim_coefficients`` on the same samples.  Neither step
reads the clock: the sweep's per-parameter step times them
(``pipeline.parameter_records``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg as sla

from .assembly import csr_on_pattern, evaluate_entries
from .deim import DeimOperator
from .geometry import (BackgroundMesh, CutGeometry, ParameterPoint, build_cut_geometry,
                       require_inside_box)
from .pod import PodBasis

if TYPE_CHECKING:
    from .artifacts import OfflineArtifacts


# LAPACK's LU solve of a general system, called directly as ``deim._GETRS``
# is: ``np.linalg.solve`` adds about 10 us of argument handling per call
_GESV = sla.get_lapack_funcs("gesv", (np.empty(1),))


class RomError(RuntimeError):
    pass


@dataclass
class RomSolution:
    """Reduced coefficients and the lifted full-order vector at n modes."""

    u_hat: np.ndarray
    u_lifted: np.ndarray
    n: int


def _upper_entries(n_max: int):
    """Rows and columns of the upper triangle of an n_max x n_max block in
    column-major order: (i, j), i <= j, by j, then by i."""
    cols, rows = np.tril_indices(n_max)
    return rows, cols


def packed_upper_index(n_max: int) -> np.ndarray:
    """(n_max, n_max) map from an entry (i, j) of a symmetric reduced block to
    its row in the packed layout: the upper triangle in column-major order,
    so (i, j) with i <= j sits at row j (j + 1) / 2 + i, and the leading
    n x n block fills the first n (n + 1) / 2 rows."""
    rows, cols = _upper_entries(n_max)
    index = np.empty((n_max, n_max), dtype=np.int64)
    index[rows, cols] = np.arange(rows.size)
    index[cols, rows] = np.arange(rows.size)
    return index


def build_rom_offline(mesh: BackgroundMesh, pod: PodBasis, deim_a: DeimOperator,
                      deim_f: DeimOperator):
    """Project every interpolation basis matrix/vector onto the mode basis
    and fold in the interpolation inverses: ``(blocks_a, blocks_f)`` of
    shapes (n_max (n_max + 1) / 2, l_A) and (l_f, n_max).

    The matrix basis lives on the union's upper entries
    (``deim.build_deim_operator``); one CSR matrix on the whole union
    (``UnionPattern.whole``) takes each element's values in turn, each entry
    the value of its upper ``twin``, so it is symmetric.  Each projected
    block is stored packed (``packed_upper_index``), one column per basis
    element, so the leading n x n blocks of all elements are one contiguous
    slab and a reduced operator unpacks exactly symmetric.

    The projected blocks B (one column per matrix basis element) and F (one
    row per load basis vector) are then folded with the LU factors the
    operators hold: B (P_AᵀU_A)⁻¹ and (P_fᵀU_f)⁻ᵀ F.  Column i of the
    folded B is the packed reduced operator of a unit sample at the i-th
    interpolation index, so ``reduced_operator`` of the sampled entries s is
    Vᵀ U_A (P_AᵀU_A)⁻¹ s V, the DEIM approximation, with no coefficients
    formed; likewise for the load.
    """
    if deim_a.pattern is None:
        raise RomError("matrix operator must carry the union pattern")
    v = pod.V
    rows, cols = _upper_entries(pod.n_max)
    pattern = deim_a.pattern
    basis_mat = csr_on_pattern(mesh, np.zeros(mesh.pattern_cols.size), pattern.whole)
    blocks_a = np.empty((rows.size, deim_a.l))
    for j in range(deim_a.l):
        np.take(deim_a.U[:, j], pattern.twin, out=basis_mat.data)
        blocks_a[:, j] = (v.T @ (basis_mat @ v))[rows, cols]
    blocks_f = np.empty((deim_f.l, pod.n_max))
    for j in range(deim_f.l):
        blocks_f[j] = v.T @ deim_f.U[:, j]
    blocks_a = np.ascontiguousarray(sla.lu_solve(deim_a.lu, blocks_a.T, trans=1).T)
    blocks_f = sla.lu_solve(deim_f.lu, blocks_f, trans=1)
    return blocks_a, blocks_f


def sample_entries(art: OfflineArtifacts, geom: CutGeometry):
    """Evaluate the planned stiffness/load entries for one parameter, as
    full assembly sums them, on the plan's piece of the mesh: the sampled
    ``(a_samp, f_samp)`` in the order of the interpolation indices, shared
    by every mode count."""
    return evaluate_entries(geom, art.plan)


def reduced_operator(art: OfflineArtifacts, a_samp: np.ndarray, n: int) -> np.ndarray:
    """The n x n reduced operator of the sampled stiffness entries
    ``a_samp``: one product with the first n (n + 1) / 2 packed rows of the
    folded blocks, unpacked through ``art.packed_index``, so it is exactly
    symmetric."""
    return (art.blocks_a[:n * (n + 1) // 2] @ a_samp)[art.packed_index[:n, :n]]


def solve(art: OfflineArtifacts, mu: ParameterPoint, a_samp: np.ndarray, f_samp: np.ndarray,
          n: int) -> RomSolution:
    """Per-mode-count step on the sampled entries of ``mu``: dense n x n LU
    solve, then the lift.

    The reduced operator for n modes is the leading sub-block of the
    precomputed n_max blocks, valid because mode order is fixed.  An exactly
    singular reduced operator raises ``RomError`` naming ``mu`` and n.
    """
    if not (1 <= n <= art.pod.n_max):
        raise RomError(f"mode count {n} outside [1, {art.pod.n_max}]")
    a_hat = reduced_operator(art, a_samp, n)
    f_hat = f_samp @ art.blocks_f[:, :n]
    _lu, _piv, u_hat, info = _GESV(a_hat, f_hat, overwrite_a=True, overwrite_b=True)
    if info != 0:
        raise RomError(f"singular reduced system at mu={mu}, n={n}: "
                       f"an exactly zero pivot in its LU factors (gesv info {info})")
    u_lifted = art.pod.V[:, :n] @ u_hat
    return RomSolution(u_hat=u_hat, u_lifted=u_lifted, n=n)


def rom_online_solve(art: OfflineArtifacts, mu: ParameterPoint, n: int,
                     geom: CutGeometry | None = None) -> RomSolution:
    """One standalone online query: ``sample_entries`` and ``solve`` at n
    modes.

    Raises ``GeometryError`` for an ellipse that leaves the background box.
    A ``geom`` passed in must be the geometry of ``mu``."""
    require_inside_box(mu, art.config.box)
    if geom is None:
        geom = build_cut_geometry(art.mesh, mu)
    elif geom.mu != mu:
        raise RomError(f"geometry was built for mu={geom.mu}, not for the queried mu={mu}")
    return solve(art, mu, *sample_entries(art, geom), n)
