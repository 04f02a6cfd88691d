"""Assembly of the cut stiffness matrix, load vector, mesh-norm and mass matrices.

Matrices are built into a fixed structural pattern (active-element stencils
plus ghost-facet patches), so rows outside the active dof set are never stored
and are exactly zero.  Sparse entries are addressed by their position in the
mesh's assembly pattern (``BackgroundMesh._build_pattern``), the one sparse
index of the package: a ``SystemPair`` carries the position of each stored
entry of its matrix, and an ``EntryPlan`` takes its matrix entries as
positions.  The mesh's slot tables (``tri_pattern_pos``,
``facet_pattern_pos``) say where each local slot of each triangle and facet
lands in that pattern; full assembly scatters through them, and an
``EntryPlan``'s candidates for an entry are the entities whose slots land on
it.

Per parameter, only the cut elements need new local terms.  ``_cut_stage``
computes them once, component-major: per cut element the volume-weight sum,
the segment weight, and per local vertex the barycentrics at both Gauss
points with the normal derivative (one array), the volume load and the
boundary load.  Full assembly gathers its inside rows from the mesh's
whole-triangle stiffness blocks (``BackgroundMesh.tri_stiffness``) and
loads f |T| / 3 (``_whole_load``), and recomputes only its cut rows, from
this stage.
``assemble_batch`` assembles several geometries of one mesh at once: one
stage over their joined cut rules, and one ``np.bincount`` over (parameter,
pattern position) for A and one over (parameter, dof) for f.  A bin sums
its terms in the order they are given, so each entry of each parameter sums
in the order of a lone assembly; ``assemble_system`` is the batch of one.
``EntryPlan`` gathers the value of every inside candidate from the same
table, and ``evaluate_entries`` picks the cut candidates' values from the
stage.  Both accumulate the same per-entity values in the same order as
full assembly (volume elements, then interface segments, then ghost facets,
each in ascending index order), so sampled entries match ``assemble_system``
bit for bit.

The energy norm is a_h plus the Nitsche consistency term, |||v|||^2 =
a_h(v, v) + 2 <dn v, v>_G, so ``assemble_norm_matrix`` adds the consistency
blocks that ``assemble_system`` keeps to a copy of A: one assembly each.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .geometry import OUTSIDE, BackgroundMesh, CutGeometry, CutRule


class AssemblyError(ValueError):
    pass


@dataclass(frozen=True)
class PhysicsParams:
    """Source strength, boundary datum coefficients, and penalty parameters.

    The Dirichlet datum is g(x, y) = g0 + gx*x + gy*y + gxy*x*y, evaluated
    pointwise at quadrature nodes.  ``gamma`` weights the ghost penalty on
    the jumps of the normal derivative across ghost facets.  It is the only
    ghost term of P1 elements: higher-order penalties weight jumps of second
    and higher normal derivatives, which vanish identically.  The defaults
    live in ``config.Config``; ``physics_from_config`` reads them.
    """

    f_const: float
    g_coeffs: tuple
    nitsche_lambda: float
    gamma: float

    def __post_init__(self):
        if not self.nitsche_lambda > 0:
            raise AssemblyError("Nitsche penalty lambda must be positive")
        if not self.gamma >= 0:
            raise AssemblyError("ghost-penalty coefficient gamma must be non-negative")
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
    """Stiffness matrix and load vector on background dofs, plus the active
    set.  ``pattern_pos`` is the mesh-pattern position of each stored entry
    of ``A``, in storage order.  ``consistency`` holds the cut elements'
    (k, 9) Nitsche consistency blocks for ``assemble_norm_matrix``, and
    ``cut_slots`` the storage index in ``A`` of each of their slots."""

    A: sp.csr_matrix
    f: np.ndarray
    active_dofs: np.ndarray
    geom: CutGeometry
    pattern_pos: np.ndarray
    consistency: np.ndarray
    cut_slots: np.ndarray


def _scatter(positions, values, size: int):
    """Sums of ``values`` into ``size`` bins at ``positions``, and the flags
    of the bins hit.  Each bin adds its values in the order given, as a
    sequential ``np.add.at`` into zeros would."""
    used = np.zeros(size, dtype=bool)
    used[positions] = True
    return np.bincount(positions, values, minlength=size), used


def _flat_index(table, rows, shift, out):
    """Write the entries of ``table`` in ``rows``, each row shifted by its
    ``shift``, into ``out`` (flat, ``rows.size`` times the row width):
    indices into the batch's flat (K, stride) bins.  ``take`` gathers whole
    rows several times faster than fancy indexing; ``mode="clip"`` writes
    straight into ``out``, where the default mode buffers a copy (the rows
    are element and facet ids of the mesh, always in range)."""
    out = out.reshape(rows.size, table.shape[1])
    table.take(rows, axis=0, out=out, mode="clip")
    out += shift[:, None]


def csr_on_pattern(mesh: BackgroundMesh, values, positions):
    """The matrix with ``values`` on the mesh pattern that stores the entries
    at ``positions`` (ascending): the storage index of a position is its
    place among them.  The package's one builder of a CSR matrix from
    pattern positions."""
    n = mesh.n_vertices
    return sp.csr_matrix((values.take(positions), mesh.pattern_cols.take(positions),
                          np.searchsorted(positions, mesh.pattern_indptr)), shape=(n, n))


class _Stage(NamedTuple):
    """Local terms of cut elements, component-major (one column per
    element): ``bdn`` (3, 3, k) the barycentrics at Gauss points 0 and 1 and
    the normal derivatives of the three hats (``_kernels.boundary_terms``),
    the volume and boundary loads (3, k), the volume-weight sums and the
    segment Gauss weights (k,), and the elements' columns (12, k) of
    ``tri_comp``."""

    bdn: np.ndarray
    f_vol: np.ndarray
    f_bnd: np.ndarray
    wsum: np.ndarray
    seg_w: np.ndarray
    tri: np.ndarray


def _cut_stage(geoms, phys: PhysicsParams) -> _Stage:
    """Local terms of the cut elements of ``geoms`` (one mesh), their rules
    joined in order.  Every term is computed column by column, so joining
    rules changes no value."""
    for geom in geoms:
        if geom.cut_rule.seg_wts.shape[0] != geom.cut_elements.size:
            raise AssemblyError("every cut element needs a component-major cut rule")
    if len(geoms) == 1:  # every query: no copy
        rule = geoms[0].cut_rule
    else:
        rule = CutRule(*(np.concatenate([getattr(g.cut_rule, f.name) for g in geoms], axis=-1)
                         for f in fields(CutRule)))
    g0, gx, gy, gxy = (float(c) for c in phys.g_coeffs)
    wsum, f_vol = _kernels.volume_terms(rule.vol_pts, rule.vol_wts, rule.tri, float(phys.f_const))
    bdn, f_bnd = _kernels.boundary_terms(
        rule.seg_pts, rule.seg_wts, rule.normal, rule.tri,
        phys.nitsche_lambda / geoms[0].mesh.h, g0, gx, gy, gxy,
    )
    return _Stage(bdn, f_vol, f_bnd, wsum, rule.seg_wts, rule.tri)


def _whole_load(area, f_const: float):
    """Source load of each hat on whole triangles of ``area``."""
    return f_const * area / 3.0


def assemble_batch(geoms, phys: PhysicsParams):
    """Assemble A = diffusion + Nitsche + ghost penalty, and the load vector,
    for each geometry of ``geoms`` (all on one mesh), in one cut stage and
    one scatter each for A and f.

    Returns ``(values, used, loads, consistency)``: the values (K, P) of the
    K matrices on the P positions of the mesh pattern, zero at the positions
    a matrix does not store; the flags (K, P) of the stored ones; the loads
    (K, N); and the (k, 9) Nitsche consistency blocks of the cut elements,
    geometry by geometry.  Every entry sums its terms in the order of
    ``assemble_system`` (volume elements, then interface segments, then
    ghost facets, each ascending), so a batch reproduces its members bit for
    bit.  The load carries the source term and the Nitsche boundary data
    terms: f_i = int_O f phi_i - int_G (grad phi_i . n) g + (lambda/h) int_G phi_i g.
    """
    mesh = geoms[0].mesh
    if any(g.mesh is not mesh for g in geoms):
        raise AssemblyError("a batch of geometries must share one background mesh")
    batch = len(geoms)
    size, n = mesh.pattern_cols.size, mesh.n_vertices
    act = np.concatenate([g.active_elements for g in geoms])
    cut = np.concatenate([g.cut_elements for g in geoms])
    gf = np.concatenate([g.ghost_facets for g in geoms])
    # the batch member of each active element, cut element and ghost facet
    counts = np.array([(g.active_elements.size, g.cut_elements.size, g.ghost_facets.size)
                       for g in geoms])
    act_of, cut_of, gf_of = (np.repeat(np.arange(batch), c) for c in counts.T)
    stage = _cut_stage(geoms, phys)
    # each cut element's row among the batch's active elements
    t = mesh.n_triangles
    cut_sel = np.searchsorted(act_of * t + act, cut_of * t + cut)

    # load: whole-triangle loads with the cut rows from the stage, then the
    # cut elements' boundary loads
    f_vol = np.repeat(_whole_load(mesh.tri_area[act], float(phys.f_const))[:, None], 3, axis=1)
    f_vol[cut_sel] = stage.f_vol.T
    f_pos = np.empty(3 * (act.size + cut.size), dtype=np.int64)
    _flat_index(mesh.triangles, act, act_of * n, f_pos[:3 * act.size])
    _flat_index(mesh.triangles, cut, cut_of * n, f_pos[3 * act.size:])
    loads = np.bincount(f_pos, np.concatenate([f_vol.ravel(), stage.f_bnd.T.ravel()]),
                        minlength=batch * n)

    # stiffness, its scatter positions and values written into one
    # preallocated pair: whole-triangle blocks with the cut rows from the
    # stage, then the Nitsche blocks, then the ghost blocks
    ends = np.cumsum([9 * act.size, 9 * cut.size, 16 * gf.size])
    a_pos = np.empty(ends[-1], dtype=np.int64)
    a_val = np.empty(ends[-1])
    vol_pos, nit_pos, ghost_pos = np.split(a_pos, ends[:-1])
    vol, nit, ghost = np.split(a_val, ends[:-1])
    _flat_index(mesh.tri_pattern_pos, act, act_of * size, vol_pos)
    _flat_index(mesh.tri_pattern_pos, cut, cut_of * size, nit_pos)
    _flat_index(mesh.facet_pattern_pos, gf, gf_of * size, ghost_pos)
    vol = vol.reshape(act.size, 9)
    mesh.tri_stiffness.take(act, axis=0, out=vol, mode="clip")
    vol[cut_sel] = _kernels.volume_contribs(stage.wsum, stage.tri)
    a_nit, cons = _kernels.boundary_contribs(
        stage.seg_w, stage.bdn[:2], stage.bdn[2], phys.nitsche_lambda / mesh.h)
    nit.reshape(cut.size, 9)[:] = a_nit
    jv = mesh.facet_jump.take(gf, axis=0)
    ghost.reshape(gf.size, 4, 4)[:] = _kernels.ghost_penalty(
        phys.gamma, mesh.h, mesh.facet_len[gf][:, None, None], jv[:, :, None], jv[:, None, :])
    values, used = _scatter(a_pos, a_val, batch * size)
    return values.reshape(batch, size), used.reshape(batch, size), loads.reshape(batch, n), cons


def assemble_system(geom: CutGeometry, phys: PhysicsParams) -> SystemPair:
    """Assemble A = diffusion + Nitsche + ghost penalty, and the load vector,
    of one geometry: ``assemble_batch`` of one, stored as CSR."""
    values, used, loads, cons = assemble_batch([geom], phys)
    pos = np.flatnonzero(used[0])
    return SystemPair(A=csr_on_pattern(geom.mesh, values[0], pos), f=loads[0],
                      active_dofs=geom.active_dofs, geom=geom, pattern_pos=pos, consistency=cons,
                      cut_slots=np.searchsorted(
                          pos, geom.mesh.tri_pattern_pos.take(geom.cut_elements, axis=0)))


def assemble_norm_matrix(system: SystemPair) -> sp.csr_matrix:
    """Matrix of the mesh-dependent energy norm: the stiffness matrix plus
    its Nitsche consistency term, |||v|||^2 = a_h(v, v) + 2 <dn v, v>_G,
    which leaves the gradient part on the physical domain, the scaled
    boundary mass and the ghost jump terms.  Stored on A's pattern."""
    values = system.A.data.copy()
    np.add.at(values, system.cut_slots.ravel(), system.consistency.ravel())
    return sp.csr_matrix((values, system.A.indices, system.A.indptr), shape=system.A.shape)


def assemble_mass_matrix(mesh: BackgroundMesh) -> sp.csr_matrix:
    """Standard P1 mass matrix over the whole background box (parameter-free)."""
    local = np.array([2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0]) / 12.0
    vals = mesh.tri_area[:, None] * local[None, :]
    values, used = _scatter(mesh.tri_pattern_pos.ravel(), vals.ravel(), mesh.pattern_cols.size)
    return csr_on_pattern(mesh, values, np.flatnonzero(used))


def _slot_holders(pos_table, positions, size: int):
    """The (entity, slot) pairs of ``pos_table`` that hold each requested
    position of a pattern of ``size`` positions, as flat arrays (request,
    entity, slot): request-major, entities ascending within a request, as
    full assembly visits them."""
    flat = pos_table.ravel()
    wanted = np.zeros(size + 1, dtype=bool)  # an unused slot (-1) reads the last, unset flag
    wanted[positions] = True
    hit = np.flatnonzero(wanted[flat])
    hit = hit[np.argsort(flat[hit], kind="stable")]
    hit_pos = flat[hit]
    lo = np.searchsorted(hit_pos, positions, side="left")
    counts = np.searchsorted(hit_pos, positions, side="right") - lo
    request = np.repeat(np.arange(positions.size), counts)
    first = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    entity, slot = np.divmod(hit[np.arange(request.size) + first], pos_table.shape[1])
    return request, entity, slot


class EntryPlan:
    """A sampled-entry request for one physics: the elements and facets that
    contribute to each requested entry, with local slot indices, and every
    parameter-independent value precomputed.

    Matrix entries are requested by their mesh-pattern position, vector
    entries by dof; a vector entry i is the diagonal position
    (``BackgroundMesh.pattern_diag``).  The candidates of a position are the
    triangles and interior facets whose stencil slots land on it
    (``BackgroundMesh.tri_pattern_pos``/``facet_pattern_pos``, the tables
    full assembly scatters through).  Candidates are ordered entry-major
    with ascending entity indices, the same relative order full assembly
    uses, so replaying them reproduces the assembled values bit for bit.
    The plan stores the value of every candidate as a whole triangle (what
    it contributes while inside) and every ghost value; a parameter
    enters only through the activity masks and the cut elements' stage.
    The reduced model builds its plan once, beside the sample entries it
    describes.
    """

    def __init__(self, mesh: BackgroundMesh, phys: PhysicsParams, matrix_positions, vector_entries):
        m_pos = np.asarray(matrix_positions, dtype=np.int64).reshape(-1)
        v_ent = np.asarray(vector_entries, dtype=np.int64).reshape(-1)
        size = mesh.pattern_cols.size
        if m_pos.size and not ((m_pos >= 0).all() and (m_pos < size).all()):
            raise AssemblyError("matrix entry position outside the mesh pattern")
        if v_ent.size and not ((v_ent >= 0).all() and (v_ent < mesh.n_vertices).all()):
            raise AssemblyError("vector entry index out of range")
        self.phys = phys
        self.mesh_shape = (mesh.n_vertices, mesh.n_triangles, mesh.h)
        self.n_matrix = m_pos.size
        self.n_vector = v_ent.size

        self.m_ids, cand, slot = _slot_holders(mesh.tri_pattern_pos, m_pos, size)
        self.m_elems = cand
        # local (a, c) of each candidate: row 0 a, row 1 c
        self.m_loc = np.stack(np.divmod(slot, 3))
        self.m_aloc, self.m_cloc = self.m_loc
        tri = np.take(mesh.tri_comp, cand, axis=1)
        rng = np.arange(cand.size)
        gx = tri[_kernels.GX]
        gy = tri[_kernels.GY]
        # (a_x, a_y, c_x, c_y) gradients per candidate
        self.m_grad = np.stack([gx[self.m_aloc, rng], gy[self.m_aloc, rng],
                                gx[self.m_cloc, rng], gy[self.m_cloc, rng]])
        self.m_whole = mesh.tri_stiffness[cand, slot]

        self.g_ids, fcand, slot = _slot_holders(mesh.facet_pattern_pos, m_pos, size)
        self.g_facets = fcand
        g_aloc, g_cloc = np.divmod(slot, 4)
        jump = mesh.facet_jump[fcand]
        rng = np.arange(fcand.size)
        self.g_vals = _kernels.ghost_penalty(phys.gamma, mesh.h, mesh.facet_len[fcand],
                                             jump[rng, g_aloc], jump[rng, g_cloc])

        self.v_ids, cand, slot = _slot_holders(mesh.tri_pattern_pos, mesh.pattern_diag[v_ent], size)
        self.v_elems = cand
        self.v_aloc = slot // 3
        self.v_whole = _whole_load(mesh.tri_area[cand], float(phys.f_const))


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
    stage = _cut_stage([geom], plan.phys)
    k = geom.cut_elements.size
    lam_over_h = plan.phys.nitsche_lambda / mesh.h

    # matrix: volume values of the active candidates, Nitsche values of the
    # cut ones, then the ghost facets
    act = geom.elem_class[plan.m_elems] != OUTSIDE
    cpos = geom.cut_pos[plan.m_elems]
    cut = np.flatnonzero(cpos >= 0)
    cp = cpos[cut]
    # one gather for both hats: (barycentric 0, barycentric 1, dn) x (a, c)
    at = stage.bdn.reshape(3, 3 * k)[:, np.take(plan.m_loc, cut, axis=1) * k + cp]
    vol = plan.m_whole.copy()
    vol[cut] = _kernels.stiffness(stage.wsum[cp], *plan.m_grad[:, cut])
    nit = _kernels.nitsche(stage.seg_w[cp], at[:2, 0], at[:2, 1], at[2, 0], at[2, 1], lam_over_h)
    ghost = geom.ghost_mask[plan.g_facets]
    out_m = np.bincount(np.concatenate([plan.m_ids[act], plan.m_ids[cut], plan.g_ids[ghost]]),
                        np.concatenate([vol[act], nit, plan.g_vals[ghost]]),
                        minlength=plan.n_matrix)

    # vector: volume loads of the active candidates, then boundary loads of
    # the cut ones
    act = geom.elem_class[plan.v_elems] != OUTSIDE
    cpos = geom.cut_pos[plan.v_elems]
    cut = np.flatnonzero(cpos >= 0)
    at = plan.v_aloc[cut] * k + cpos[cut]
    vol = plan.v_whole.copy()
    vol[cut] = stage.f_vol.reshape(-1)[at]
    out_v = np.bincount(np.concatenate([plan.v_ids[act], plan.v_ids[cut]]),
                        np.concatenate([vol[act], stage.f_bnd.reshape(-1)[at]]),
                        minlength=plan.n_vector)
    return out_m, out_v
