"""Assembly of the cut stiffness matrix, load vector, mesh-norm and mass matrices.

Matrices are built into a fixed structural pattern (active-element stencils
plus ghost-facet patches), so rows outside the active dof set are never stored
and are exactly zero.

Per parameter, only the cut elements need new local terms.  ``_cut_stage``
computes them once, component-major: per cut element the volume-weight sum,
the segment weight, and per local vertex the volume load, the barycentrics at
both Gauss points, the normal derivative and the boundary load.  Full
assembly builds its cut rows from this stage and its inside rows from the
mesh's whole-triangle rules.  ``EntryPlan`` stores the value of every inside
candidate once, computed with the same kernels on the same rule rows, and
``evaluate_entries`` picks the cut candidates' values from the stage.  Both
accumulate the same per-entity values in the same order as full assembly
(volume elements, then interface segments, then ghost facets, each in
ascending index order), so sampled entries match ``assemble_system`` bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .geometry import INSIDE, BackgroundMesh, CutGeometry


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
    return _kernels.ghost_penalty(phys.gamma[0], mesh.h, mesh.facet_len[gf][:, None, None],
                                  jv[:, :, None], jv[:, None, :])


# rows of the per-vertex stage: barycentrics at Gauss points 0 and 1, normal
# derivative, volume load, boundary load
_BARY, _DN, _F_VOL, _F_BND = slice(0, 2), 2, 3, 4


def _cut_stage(geom: CutGeometry, phys: PhysicsParams):
    """Local terms of every cut element for one parameter, component-major:
    per-vertex rows (5, 3, k) (see ``_BARY`` ... ``_F_BND``) and per-element
    rows (2, k): the volume-weight sum and the segment Gauss weight."""
    rule = geom.cut_rule
    if rule.seg_wts.shape[0] != geom.cut_elements.size:
        raise AssemblyError("every cut element needs a component-major cut rule")
    mesh = geom.mesh
    g0, gx, gy, gxy = (float(c) for c in phys.g_coeffs)
    wsum, f_vol = _kernels.volume_terms(rule.vol_pts, rule.vol_wts, rule.tri, float(phys.f_const))
    bary, dn, f_bnd = _kernels.boundary_terms(
        rule.seg_pts, rule.seg_wts, rule.normal, rule.tri,
        phys.nitsche_lambda / mesh.h, g0, gx, gy, gxy,
    )
    vert = np.concatenate([bary, dn[None], f_vol[None], f_bnd[None]])
    return vert, np.stack([wsum, rule.seg_wts])


def _whole_terms(mesh: BackgroundMesh, triangles: np.ndarray, f_const: float):
    """Volume-weight sums and source loads of ``triangles`` on their
    whole-triangle rules."""
    return _kernels.volume_terms(
        np.take(mesh.whole_pts, triangles, axis=0).transpose(2, 1, 0),
        np.take(mesh.whole_wts, triangles, axis=0).T,
        np.take(mesh.tri_comp, triangles, axis=1), f_const,
    )


def _volume_rows(geom: CutGeometry, vert, elem, f_const: float):
    """Volume-weight sums (n_act,) and source loads (3, n_act) of the active
    elements: whole-triangle rules inside, the stage on cut rows."""
    act = geom.active_elements
    ins_sel = np.flatnonzero(geom.elem_class[act] == INSIDE)
    cut_sel = geom.active_pos[geom.cut_elements]
    w_in, f_in = _whole_terms(geom.mesh, act[ins_sel], f_const)
    wsum = np.empty(act.size)
    wsum[ins_sel] = w_in
    wsum[cut_sel] = elem[0]
    f_vol = np.empty((3, act.size))
    f_vol[:, ins_sel] = f_in
    f_vol[:, cut_sel] = vert[_F_VOL]
    return wsum, f_vol, cut_sel


def _assemble_matrix(geom: CutGeometry, phys: PhysicsParams, wsum, boundary_blocks, cut_sel):
    mesh = geom.mesh
    n = mesh.n_vertices
    nnz, indptr, cols, vol_pos, ghost_pos = _pattern(mesh, geom.active_elements, geom.ghost_facets)
    a_vol = _kernels.volume_contribs(wsum, np.take(mesh.tri_comp, geom.active_elements, axis=1))
    values = np.zeros(nnz)
    np.add.at(values, vol_pos.ravel(), a_vol.ravel())
    np.add.at(values, vol_pos[cut_sel].ravel(), boundary_blocks.ravel())
    np.add.at(values, ghost_pos.ravel(), _ghost_values(geom, phys).ravel())
    return sp.csr_matrix((values, cols, indptr), shape=(n, n))


def assemble_system(geom: CutGeometry, phys: PhysicsParams) -> SystemPair:
    """Assemble A = diffusion + Nitsche + ghost penalty, and the load vector.

    The load carries the source term and the Nitsche boundary data terms:
    f_i = int_O f phi_i - int_G (grad phi_i . n) g + (lambda/h) int_G phi_i g.
    """
    mesh = geom.mesh
    vert, elem = _cut_stage(geom, phys)
    wsum, f_vol, cut_sel = _volume_rows(geom, vert, elem, float(phys.f_const))
    a_nit, _pen = _kernels.boundary_contribs(
        elem[1], vert[_BARY], vert[_DN], phys.nitsche_lambda / mesh.h)
    a = _assemble_matrix(geom, phys, wsum, a_nit, cut_sel)

    f = np.zeros(mesh.n_vertices)
    np.add.at(f, mesh.triangles[geom.active_elements].ravel(), f_vol.T.ravel())
    np.add.at(f, mesh.triangles[geom.cut_elements].ravel(), vert[_F_BND].T.ravel())
    return SystemPair(A=a, f=f, active_dofs=geom.active_dofs, geom=geom)


def assemble_norm_matrix(geom: CutGeometry, phys: PhysicsParams) -> sp.csr_matrix:
    """Matrix of the mesh-dependent energy norm: gradient part on the physical
    domain, scaled boundary mass, and the ghost jump terms."""
    vert, elem = _cut_stage(geom, phys)
    wsum, _f_vol, cut_sel = _volume_rows(geom, vert, elem, 0.0)
    _a_nit, pen = _kernels.boundary_contribs(
        elem[1], vert[_BARY], vert[_DN], phys.nitsche_lambda / geom.mesh.h)
    return _assemble_matrix(geom, phys, wsum, pen, cut_sel)


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
    """A sampled-entry request for one physics: which elements and facets
    can contribute to each requested entry, with local slot indices, and
    every parameter-independent value precomputed.

    Candidates are ordered entry-major with ascending entity indices, the
    same relative order full assembly uses, so replaying them reproduces the
    assembled values bit for bit.  The plan stores the value of every
    candidate on its whole-triangle rule (what it contributes while inside)
    and every ghost value; a parameter enters only through the activity
    masks and the cut elements' stage.  The reduced model builds its plan
    once, beside the sample entries it describes.
    """

    def __init__(self, mesh: BackgroundMesh, phys: PhysicsParams, matrix_entries, vector_entries):
        m_ent = np.asarray(matrix_entries, dtype=np.int64).reshape(-1, 2)
        v_ent = np.asarray(vector_entries, dtype=np.int64).reshape(-1)
        n = mesh.n_vertices
        if m_ent.size and not ((m_ent >= 0).all() and (m_ent < n).all()):
            raise AssemblyError("matrix entry index out of range")
        if v_ent.size and not ((v_ent >= 0).all() and (v_ent < n).all()):
            raise AssemblyError("vector entry index out of range")
        self.phys = phys
        self.mesh_shape = (mesh.n_vertices, mesh.n_triangles, mesh.h)
        self.n_matrix = m_ent.shape[0]
        self.n_vector = v_ent.shape[0]
        f_const = float(phys.f_const)
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
        tri = np.take(mesh.tri_comp, cand, axis=1)
        rng = np.arange(cand.size)
        gx = tri[_kernels.GX]
        gy = tri[_kernels.GY]
        # (a_x, a_y, c_x, c_y) gradients per candidate
        self.m_grad = np.stack([gx[self.m_aloc, rng], gy[self.m_aloc, rng],
                                gx[self.m_cloc, rng], gy[self.m_cloc, rng]])
        wsum, _loads = _whole_terms(mesh, cand, f_const)
        self.m_whole = _kernels.stiffness(wsum, *self.m_grad)

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
        jump = mesh.facet_jump[fcand]
        rng = np.arange(fcand.size)
        self.g_vals = _kernels.ghost_penalty(phys.gamma[0], mesh.h, mesh.facet_len[fcand],
                                             jump[rng, g_aloc], jump[rng, g_cloc])

        owner, cand = _gather_ranges(indptr, indices, v_ent) if v_ent.size else (
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        self.v_ids = owner
        self.v_elems = cand
        self.v_aloc = _local_index(mesh.triangles[cand], v_ent[owner]) if cand.size else cand
        _wsum, loads = _whole_terms(mesh, cand, f_const)
        self.v_whole = loads[self.v_aloc, np.arange(cand.size)]


def evaluate_entries(geom: CutGeometry, plan: EntryPlan):
    """Evaluate the entries of A and f that ``plan`` requests, for the
    plan's physics, by local assembly only.

    Each requested value is accumulated over exactly the entities whose
    supports contain the involved dofs, in the same order as full assembly,
    and therefore matches ``assemble_system`` bit for bit.  Inside candidates
    take the plan's stored values; cut candidates pick theirs from the cut
    elements' stage with 1-D gathers.  ``geom`` may live on any mesh
    identical to the one the plan was built on; a mesh of another vertex
    count, triangle count or ``h`` raises ``AssemblyError``.
    """
    mesh = geom.mesh
    shape = (mesh.n_vertices, mesh.n_triangles, mesh.h)
    if shape != plan.mesh_shape:
        raise AssemblyError(
            f"geometry mesh (vertices, triangles, h) = {shape} does not match the "
            f"plan's {plan.mesh_shape}"
        )
    vert, elem = _cut_stage(geom, plan.phys)
    k = geom.cut_elements.size
    lam_over_h = plan.phys.nitsche_lambda / mesh.h

    # matrix: volume values of the active candidates, Nitsche values of the
    # cut ones, then the ghost facets
    act = geom.active_pos[plan.m_elems] >= 0
    cpos = geom.cut_pos[plan.m_elems]
    cut = np.flatnonzero(cpos >= 0)
    cp = cpos[cut]
    seg = vert[:3].reshape(3, 3 * k)
    at_a = seg[:, plan.m_aloc[cut] * k + cp]
    at_c = seg[:, plan.m_cloc[cut] * k + cp]
    wsum, w = elem[:, cp]
    vol = plan.m_whole.copy()
    vol[cut] = _kernels.stiffness(wsum, *plan.m_grad[:, cut])
    nit = _kernels.nitsche(w, at_a[_BARY], at_c[_BARY], at_a[_DN], at_c[_DN], lam_over_h)
    ghost = geom.ghost_mask[plan.g_facets]
    out_m = np.zeros(plan.n_matrix)
    np.add.at(out_m, np.concatenate([plan.m_ids[act], plan.m_ids[cut], plan.g_ids[ghost]]),
              np.concatenate([vol[act], nit, plan.g_vals[ghost]]))

    # vector: volume loads of the active candidates, then boundary loads of
    # the cut ones
    act = geom.active_pos[plan.v_elems] >= 0
    cpos = geom.cut_pos[plan.v_elems]
    cut = np.flatnonzero(cpos >= 0)
    cp = cpos[cut]
    loads = vert[_F_VOL:].reshape(2, 3 * k)[:, plan.v_aloc[cut] * k + cp]
    vol = plan.v_whole.copy()
    vol[cut] = loads[0]
    out_v = np.zeros(plan.n_vector)
    np.add.at(out_v, np.concatenate([plan.v_ids[act], plan.v_ids[cut]]),
              np.concatenate([vol[act], loads[1]]))
    return out_m, out_v
