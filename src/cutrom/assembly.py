"""Assembly of the cut stiffness matrix, load vector, mesh-norm and mass matrices.

Matrices are built into a fixed structural pattern (active-element stencils
plus ghost-facet patches), so rows outside the active dof set are never stored
and are exactly zero.  ``evaluate_entries`` reproduces the entries an
``EntryPlan`` requests bit-identically by replaying the same per-entity
contributions in the same order as full assembly: volume elements, then
interface segments, then ghost facets, each in ascending index order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .geometry import BackgroundMesh, CutGeometry


class AssemblyError(ValueError):
    pass


@dataclass(frozen=True)
class PhysicsParams:
    """Source strength, boundary datum coefficients, and penalty parameters.

    The Dirichlet datum is g(x, y) = g0 + gx*x + gy*y + gxy*x*y, evaluated
    pointwise at quadrature nodes.  ``gamma[k]`` weights the ghost-penalty
    term of order k (jumps of (k+1)-th normal derivatives).  For P1 elements
    only ``gamma[0]`` enters: ``gamma[1:]`` is accepted and has no effect.
    """

    f_const: float = 20.0
    g_coeffs: tuple = (0.5, 0.0, 0.0, 1.0)
    nitsche_lambda: float = 10.0
    gamma: tuple = (0.1, 0.001)

    def __post_init__(self):
        if not self.nitsche_lambda > 0:
            raise AssemblyError("Nitsche penalty lambda must be positive")
        if len(self.gamma) < 1 or any(g < 0 for g in self.gamma):
            raise AssemblyError("ghost-penalty coefficients must be non-negative")
        if len(self.g_coeffs) != 4:
            raise AssemblyError("g_coeffs must be (g0, gx, gy, gxy)")


def physics_from_config(config) -> PhysicsParams:
    """The physics of a ``config.Config``."""
    return PhysicsParams(
        f_const=config.f_const,
        g_coeffs=config.g_coeffs,
        nitsche_lambda=config.nitsche_lambda,
        gamma=config.gamma,
    )


@dataclass
class SystemPair:
    """Stiffness matrix and load vector on background dofs, plus the active set."""

    A: sp.csr_matrix
    f: np.ndarray
    active_dofs: np.ndarray
    geom: CutGeometry


def _pattern(mesh: BackgroundMesh, triangles: np.ndarray, facets: np.ndarray):
    """Sorted row-major structural pattern and scatter positions.

    Marks the mesh-pattern positions (``BackgroundMesh._build_pattern``) of
    the stencils of ``triangles`` and the patches of the interior ``facets``,
    and renumbers the marked ones by a running count.  Returns (nnz, indptr,
    cols, vol_pos, ghost_pos).
    """
    vol = mesh.tri_pattern_pos[triangles]
    ghost = mesh.facet_pattern_pos[facets]
    used = np.zeros(mesh.pattern_cols.size, dtype=bool)
    used[vol] = True
    used[ghost] = True
    rank = np.zeros(used.size + 1, dtype=np.int64)
    np.cumsum(used, out=rank[1:])
    return int(rank[-1]), rank[mesh.pattern_indptr], mesh.pattern_cols[used], rank[vol], rank[ghost]


def _ghost_values(geom: CutGeometry, phys: PhysicsParams):
    """Ghost-penalty 4x4 blocks per ghost facet.

    For P1 elements only the k = 0 jump term exists: the jumps of second and
    higher normal derivatives vanish identically, so ``gamma[1:]`` has no
    effect on the matrix.
    """
    mesh = geom.mesh
    gf = geom.ghost_facets
    jv = mesh.facet_jump[gf]
    coef0 = phys.gamma[0] * mesh.h * mesh.facet_len[gf]
    return coef0[:, None, None] * (jv[:, :, None] * jv[:, None, :])


def _volume_inputs(geom: CutGeometry):
    mesh = geom.mesh
    act = geom.active_elements
    return (
        geom.vol_pts,
        geom.vol_wts,
        mesh.v0[act],
        mesh.inv_j[act],
        mesh.bvec[act],
    )


def _boundary_inputs(geom: CutGeometry):
    mesh = geom.mesh
    cut = geom.cut_elements
    return (
        geom.seg_pts,
        geom.seg_wts,
        geom.seg_normal,
        mesh.v0[cut],
        mesh.inv_j[cut],
        mesh.bvec[cut],
    )


def assemble_system(geom: CutGeometry, phys: PhysicsParams) -> SystemPair:
    """Assemble A = diffusion + Nitsche + ghost penalty, and the load vector.

    The load carries the source term and the Nitsche boundary data terms:
    f_i = int_O f phi_i - int_G (grad phi_i . n) g + (lambda/h) int_G phi_i g.
    """
    mesh = geom.mesh
    if geom.seg_wts.shape[0] != geom.cut_elements.size:
        raise AssemblyError("every cut element needs a boundary rule")
    n = mesh.n_vertices
    nnz, indptr, cols, vol_pos, ghost_pos = _pattern(mesh, geom.active_elements, geom.ghost_facets)
    lam_over_h = phys.nitsche_lambda / mesh.h
    g0, gx, gy, gxy = (float(c) for c in phys.g_coeffs)

    a_vol, f_vol = _kernels.volume_contribs(*_volume_inputs(geom), float(phys.f_const))
    a_nit, _pen, f_bnd = _kernels.boundary_contribs(
        *_boundary_inputs(geom), lam_over_h, g0, gx, gy, gxy
    )
    ghost_vals = _ghost_values(geom, phys)

    values = np.zeros(nnz)
    np.add.at(values, vol_pos.ravel(), a_vol.ravel())
    cut_sel = geom.active_pos[geom.cut_elements]
    np.add.at(values, vol_pos[cut_sel].ravel(), a_nit.ravel())
    np.add.at(values, ghost_pos.ravel(), ghost_vals.ravel())

    f = np.zeros(n)
    np.add.at(f, mesh.triangles[geom.active_elements].ravel(), f_vol.ravel())
    np.add.at(f, mesh.triangles[geom.cut_elements].ravel(), f_bnd.ravel())

    a = sp.csr_matrix((values, cols, indptr), shape=(n, n))
    return SystemPair(A=a, f=f, active_dofs=geom.active_dofs, geom=geom)


def assemble_norm_matrix(geom: CutGeometry, phys: PhysicsParams) -> sp.csr_matrix:
    """Matrix of the mesh-dependent energy norm: gradient part on the physical
    domain, scaled boundary mass, and the ghost jump terms."""
    mesh = geom.mesh
    n = mesh.n_vertices
    nnz, indptr, cols, vol_pos, ghost_pos = _pattern(mesh, geom.active_elements, geom.ghost_facets)
    lam_over_h = phys.nitsche_lambda / mesh.h
    g0, gx, gy, gxy = (float(c) for c in phys.g_coeffs)

    a_vol, _f_vol = _kernels.volume_contribs(*_volume_inputs(geom), 0.0)
    _a_nit, pen, _f_bnd = _kernels.boundary_contribs(
        *_boundary_inputs(geom), lam_over_h, g0, gx, gy, gxy
    )
    ghost_vals = _ghost_values(geom, phys)

    values = np.zeros(nnz)
    np.add.at(values, vol_pos.ravel(), a_vol.ravel())
    cut_sel = geom.active_pos[geom.cut_elements]
    np.add.at(values, vol_pos[cut_sel].ravel(), pen.ravel())
    np.add.at(values, ghost_pos.ravel(), ghost_vals.ravel())
    return sp.csr_matrix((values, cols, indptr), shape=(n, n))


def assemble_mass_matrix(mesh: BackgroundMesh) -> sp.csr_matrix:
    """Standard P1 mass matrix over the whole background box (parameter-free)."""
    n = mesh.n_vertices
    nnz, indptr, cols, vol_pos, _ = _pattern(
        mesh, np.arange(mesh.n_triangles), np.empty(0, dtype=np.int64)
    )
    local = np.array([2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0]) / 12.0
    vals = mesh.tri_area[:, None] * local[None, :]
    values = np.zeros(nnz)
    np.add.at(values, vol_pos.ravel(), vals.ravel())
    return sp.csr_matrix((values, cols, indptr), shape=(n, n))


def _gather_ranges(indptr, indices, keys):
    """Flatten indices[indptr[k]:indptr[k+1]] for each key, with owner ids."""
    counts = indptr[keys + 1] - indptr[keys]
    total = int(counts.sum())
    owner = np.repeat(np.arange(keys.size), counts)
    if total == 0:
        return owner, np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    offs = np.arange(total) - np.repeat(ends - counts, counts)
    vals = indices[np.repeat(indptr[keys], counts) + offs]
    return owner, vals


def _local_index(tri_rows, targets):
    return np.argmax(tri_rows == targets[:, None], axis=1)


class EntryPlan:
    """Topology of a sampled-entry request: which elements and facets can
    contribute to each requested entry, with local slot indices and the
    parameter-independent per-candidate mesh data pre-gathered.

    Candidates are ordered entry-major with ascending entity indices, the
    same relative order full assembly uses, so replaying them reproduces the
    assembled values bit for bit.  Parameter dependence enters only through
    the per-call activity masks and quadrature rules.  The reduced model
    builds its plan once, beside the sample entries it describes.
    """

    def __init__(self, mesh: BackgroundMesh, matrix_entries, vector_entries):
        m_ent = np.asarray(matrix_entries, dtype=np.int64).reshape(-1, 2)
        v_ent = np.asarray(vector_entries, dtype=np.int64).reshape(-1)
        n = mesh.n_vertices
        if m_ent.size and not ((m_ent >= 0).all() and (m_ent < n).all()):
            raise AssemblyError("matrix entry index out of range")
        if v_ent.size and not ((v_ent >= 0).all() and (v_ent < n).all()):
            raise AssemblyError("vector entry index out of range")
        self.n_matrix = m_ent.shape[0]
        self.n_vector = v_ent.shape[0]
        indptr, indices = mesh.vertex_tri_adjacency()

        owner, cand = _gather_ranges(indptr, indices, m_ent[:, 0]) if m_ent.size else (
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        if cand.size:
            jrep = m_ent[owner, 1]
            tri_v = mesh.triangles[cand]
            has_j = (tri_v[:, 0] == jrep) | (tri_v[:, 1] == jrep) | (tri_v[:, 2] == jrep)
            owner, cand = owner[has_j], cand[has_j]
        self.m_ids = owner
        self.m_elems = cand
        tri_rows = mesh.triangles[cand]
        self.m_aloc = _local_index(tri_rows, m_ent[owner, 0]) if cand.size else cand
        self.m_cloc = _local_index(tri_rows, m_ent[owner, 1]) if cand.size else cand
        self.m_v0 = mesh.v0[cand]
        self.m_invj = mesh.inv_j[cand]
        self.m_b = mesh.bvec[cand]

        f_indptr, f_indices = mesh.vertex_facet_adjacency()
        fowner, fcand = _gather_ranges(f_indptr, f_indices, m_ent[:, 0]) if m_ent.size else (
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        if fcand.size:
            jrep = m_ent[fowner, 1]
            patch = mesh.facet_patch[fcand]
            has_j = (
                (patch[:, 0] == jrep) | (patch[:, 1] == jrep)
                | (patch[:, 2] == jrep) | (patch[:, 3] == jrep)
            )
            fowner, fcand = fowner[has_j], fcand[has_j]
        self.g_ids = fowner
        self.g_facets = fcand
        patch_k = mesh.facet_patch[fcand]
        g_aloc = _local_index(patch_k, m_ent[fowner, 0]) if fcand.size else fcand
        g_cloc = _local_index(patch_k, m_ent[fowner, 1]) if fcand.size else fcand
        rng = np.arange(fcand.size)
        self.g_jva = mesh.facet_jump[fcand][rng, g_aloc] if fcand.size else np.empty(0)
        self.g_jvc = mesh.facet_jump[fcand][rng, g_cloc] if fcand.size else np.empty(0)
        self.g_len = mesh.facet_len[fcand]

        owner, cand = _gather_ranges(indptr, indices, v_ent) if v_ent.size else (
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        self.v_ids = owner
        self.v_elems = cand
        self.v_aloc = _local_index(mesh.triangles[cand], v_ent[owner]) if cand.size else cand
        self.v_v0 = mesh.v0[cand]
        self.v_invj = mesh.inv_j[cand]
        self.v_b = mesh.bvec[cand]


def evaluate_entries(geom: CutGeometry, phys: PhysicsParams, plan: EntryPlan):
    """Evaluate the entries of A and f that ``plan`` requests, by local
    assembly only.

    Each requested value is accumulated over exactly the entities whose
    supports contain the involved dofs, in the same order as full assembly,
    and therefore matches ``assemble_system`` bit for bit.  Cost scales with
    the number of requested entries: the request topology is in the plan,
    built once, so each call pays only for the parameter-dependent part.
    ``geom`` may live on any mesh identical to the one the plan was built on.
    """
    mesh = geom.mesh
    lam_over_h = phys.nitsche_lambda / mesh.h
    g0, gx, gy, gxy = (float(c) for c in phys.g_coeffs)

    out_m = np.zeros(plan.n_matrix)
    out_v = np.zeros(plan.n_vector)

    if plan.m_elems.size:
        keep = geom.active_pos[plan.m_elems] >= 0
        if keep.any():
            apos = geom.active_pos[plan.m_elems[keep]]
            vals = _kernels.entry_volume_matrix(
                geom.vol_wts[apos], plan.m_b[keep], plan.m_aloc[keep], plan.m_cloc[keep],
            )
            np.add.at(out_m, plan.m_ids[keep], vals)
        keep = geom.cut_pos[plan.m_elems] >= 0
        if keep.any():
            cpos = geom.cut_pos[plan.m_elems[keep]]
            vals = _kernels.entry_boundary_matrix(
                geom.seg_pts[cpos], geom.seg_wts[cpos], geom.seg_normal[cpos],
                plan.m_v0[keep], plan.m_invj[keep], plan.m_b[keep],
                plan.m_aloc[keep], plan.m_cloc[keep], lam_over_h,
            )
            np.add.at(out_m, plan.m_ids[keep], vals)

    if plan.g_facets.size:
        keep = geom.ghost_mask[plan.g_facets]
        if keep.any():
            coef0 = phys.gamma[0] * mesh.h * plan.g_len[keep]
            vals = coef0 * (plan.g_jva[keep] * plan.g_jvc[keep])
            np.add.at(out_m, plan.g_ids[keep], vals)

    if plan.v_elems.size:
        keep = geom.active_pos[plan.v_elems] >= 0
        if keep.any():
            apos = geom.active_pos[plan.v_elems[keep]]
            vals = _kernels.entry_volume_vector(
                geom.vol_pts[apos], geom.vol_wts[apos],
                plan.v_v0[keep], plan.v_invj[keep], plan.v_aloc[keep],
                float(phys.f_const),
            )
            np.add.at(out_v, plan.v_ids[keep], vals)
        keep = geom.cut_pos[plan.v_elems] >= 0
        if keep.any():
            cpos = geom.cut_pos[plan.v_elems[keep]]
            vals = _kernels.entry_boundary_vector(
                geom.seg_pts[cpos], geom.seg_wts[cpos], geom.seg_normal[cpos],
                plan.v_v0[keep], plan.v_invj[keep], plan.v_b[keep],
                plan.v_aloc[keep], lam_over_h, g0, gx, gy, gxy,
            )
            np.add.at(out_v, plan.v_ids[keep], vals)

    return out_m, out_v
