"""Assembly of the cut stiffness matrix, load vector, mesh-norm and mass matrices.

Matrices are built into a fixed structural pattern (active-element stencils
plus ghost-facet patches), so rows outside the active dof set are never stored
and are exactly zero.  Sparse entries are addressed by their position in the
mesh's assembly pattern (``BackgroundMesh._build_pattern``), the one sparse
index of the package: a ``SystemPair`` carries the position of each stored
entry of its matrix, and an ``EntryPlan`` takes its matrix entries as
positions.  The mesh's slot tables (``tri_pattern_pos``,
``facet_pattern_pos``) say where each local slot of each triangle and facet
lands in that pattern; full assembly scatters through them.

Per parameter, only the cut elements need new local terms.  ``_cut_stage``
forms them once, from a cut rule: per cut element its volume block and its
Nitsche block (k, 9), its volume and boundary loads (3, k), and the segment
terms the energy norm reads (the barycentrics at both Gauss points with the
normal derivatives, and the Gauss weights).  Full assembly gathers its
inside rows from the mesh's whole-triangle stiffness blocks
(``BackgroundMesh.tri_stiffness``) and loads f |T| / 3 (``_whole_load``),
and only places the stage's blocks and loads at its cut rows.
``assemble_batch`` assembles several geometries of one mesh at once: one
stage over their joined cut rules, and one ``np.bincount`` over (parameter,
pattern position) for A and one over (parameter, dof) for f.  A bin sums
its terms in the order they are given, so each entry of each parameter sums
in the order of a lone assembly; ``assemble_system`` is the batch of one.
Sampled entries are the same assembly restricted to a piece of the mesh:
an ``EntryPlan`` holds the triangles and facets whose slots land on the
requested entries, and ``evaluate_entries`` stages only their cut elements
and sums their blocks, in full assembly's order, into one bin per
requested entry, so sampled entries match ``assemble_system`` bit for bit.

The energy norm is a_h plus the Nitsche consistency term, |||v|||^2 =
a_h(v, v) + 2 <dn v, v>_G.  Only ``assemble_norm_matrix`` forms that term,
from the stage a ``SystemPair`` keeps, and adds it to a copy of A.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .geometry import CUT, OUTSIDE, BackgroundMesh, CutGeometry, CutRule


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
    of ``A``, in storage order; ``stage`` the local terms assembly formed for
    the cut elements of ``geom``, which ``assemble_norm_matrix`` reads."""

    A: sp.csr_matrix
    f: np.ndarray
    active_dofs: np.ndarray
    geom: CutGeometry
    pattern_pos: np.ndarray
    stage: _Stage


def _scatter(positions, values, size: int):
    """Sums of ``values`` into ``size`` bins at ``positions``, and the flags
    of the bins hit.  Each bin adds its values in the order given, as a
    sequential ``np.add.at`` into zeros would."""
    used = np.zeros(size, dtype=bool)
    used[positions] = True
    return np.bincount(positions, values, minlength=size), used


def _flat_index(table, rows, shift, out):
    """Write the entries of ``table`` in ``rows``, each row shifted by its
    ``shift``, into ``out`` (flat, ``rows.size`` times the row width) and
    return it by rows: indices into the batch's flat (K, stride) bins.
    ``take`` gathers whole rows several times faster than fancy indexing;
    ``mode="clip"`` writes into ``out`` with no buffered copy (the rows are
    element and facet ids of the mesh, always in range)."""
    out = out.reshape(rows.size, table.shape[1])
    table.take(rows, axis=0, out=out, mode="clip")
    out += shift[:, None]
    return out


def csr_on_pattern(mesh: BackgroundMesh, values, positions):
    """The matrix with ``values`` on the mesh pattern that stores the entries
    at ``positions`` (ascending): the storage index of a position is its
    place among them.  The package's one builder of a CSR matrix from
    pattern positions."""
    n = mesh.n_vertices
    return sp.csr_matrix((values.take(positions), mesh.pattern_cols.take(positions),
                          np.searchsorted(positions, mesh.pattern_indptr)), shape=(n, n))


class _Stage(NamedTuple):
    """Local terms of cut elements: the volume and Nitsche blocks (k, 9),
    the volume and boundary loads (3, k), and for the energy norm ``bdn``
    (3, 3, k), the barycentrics at both Gauss points and the hats' normal
    derivatives (``_kernels.boundary_terms``), and the Gauss weights (k,)."""

    vol: np.ndarray
    nit: np.ndarray
    f_vol: np.ndarray
    f_bnd: np.ndarray
    bdn: np.ndarray
    seg_w: np.ndarray


def _checked_rule(geom: CutGeometry) -> CutRule:
    """The cut rule of ``geom``, refused unless it has one column per cut
    element."""
    if geom.cut_rule.seg_wts.shape[0] != geom.cut_elements.size:
        raise AssemblyError("every cut element needs a component-major cut rule")
    return geom.cut_rule


def _cut_stage(rule: CutRule, phys: PhysicsParams, h: float) -> _Stage:
    """Local terms of the cut elements of ``rule``, on a mesh of size ``h``.
    Every term is computed column by column, so joining rules or taking
    some of their columns changes no value."""
    g0, gx, gy, gxy = (float(c) for c in phys.g_coeffs)
    lam_over_h = phys.nitsche_lambda / h
    wsum, f_vol = _kernels.volume_terms(rule.vol_pts, rule.vol_wts, rule.tri, float(phys.f_const))
    bdn, f_bnd = _kernels.boundary_terms(
        rule.seg_pts, rule.seg_wts, rule.normal, rule.tri, lam_over_h, g0, gx, gy, gxy,
    )
    return _Stage(_kernels.volume_contribs(wsum, rule.tri),
                  _kernels.boundary_contribs(rule.seg_wts, bdn[:2], bdn[2], lam_over_h),
                  f_vol, f_bnd, bdn, rule.seg_wts)


def _whole_load(area, f_const: float):
    """Source load of each hat on whole triangles of ``area``."""
    return f_const * area / 3.0


def _ghost_blocks(mesh: BackgroundMesh, gamma: float, facets):
    """Ghost-penalty blocks (F, 4, 4) of the interior ``facets``."""
    jv = mesh.facet_jump.take(facets, axis=0)
    return _kernels.ghost_penalty(gamma, mesh.h, mesh.facet_len[facets][:, None, None],
                                  jv[:, :, None], jv[:, None, :])


def assemble_batch(geoms, phys: PhysicsParams):
    """Assemble A = diffusion + Nitsche + ghost penalty, and the load vector,
    for each geometry of ``geoms`` (all on one mesh), in one cut stage and
    one scatter each for A and f.

    Returns ``(values, used, loads)``: the values (K, P) of the K matrices on
    the P positions of the mesh pattern, zero at the positions a matrix does
    not store; the flags (K, P) of the stored ones; and the loads (K, N).
    Every entry sums its terms in the order of ``assemble_system`` (volume
    elements, then interface segments, then ghost facets, each ascending),
    so a batch reproduces its members bit for bit.  The load carries the
    source term and the Nitsche boundary data terms:
    f_i = int_O f phi_i - int_G (grad phi_i . n) g + (lambda/h) int_G phi_i g.
    """
    mesh = geoms[0].mesh
    if any(g.mesh is not mesh for g in geoms):
        raise AssemblyError("a batch of geometries must share one background mesh")
    rules = [_checked_rule(g) for g in geoms]
    rule = CutRule(*(np.concatenate([getattr(r, f.name) for r in rules], axis=-1)
                     for f in fields(CutRule)))
    return _place(geoms, phys, _cut_stage(rule, phys, mesh.h))


def _place(geoms, phys: PhysicsParams, stage: _Stage):
    """``assemble_batch`` of ``geoms`` with ``stage``, the cut stage of
    their joined cut rules, placed at their cut rows."""
    mesh = geoms[0].mesh
    batch = len(geoms)
    size, n = mesh.pattern_cols.size, mesh.n_vertices
    act = np.concatenate([g.active_elements for g in geoms])
    gf = np.concatenate([g.ghost_facets for g in geoms])
    # the batch member of each active element and ghost facet, and the rows
    # of the cut elements among the active ones (in stage order)
    counts = np.array([(g.active_elements.size, g.ghost_facets.size) for g in geoms])
    act_of, gf_of = (np.repeat(np.arange(batch), c) for c in counts.T)
    cut = np.flatnonzero(np.concatenate([g.elem_class.take(g.active_elements) for g in geoms])
                         == CUT)
    na, nc = act.size, cut.size

    # load: whole-triangle loads with the cut rows from the stage, then the
    # cut elements' boundary loads at their rows' dofs
    f_vol = np.repeat(_whole_load(mesh.tri_area[act], float(phys.f_const))[:, None], 3, axis=1)
    f_vol[cut] = stage.f_vol.T
    f_pos = np.empty(3 * (na + nc), dtype=np.int64)
    tri_pos = _flat_index(mesh.triangles, act, act_of * n, f_pos[:3 * na])
    tri_pos.take(cut, axis=0, out=f_pos[3 * na:].reshape(nc, 3), mode="clip")
    loads = np.bincount(f_pos, np.concatenate([f_vol.ravel(), stage.f_bnd.T.ravel()]),
                        minlength=batch * n)

    # stiffness, its scatter positions and values written into one
    # preallocated pair: whole-triangle blocks with the stage's at the cut
    # rows, then its Nitsche blocks at those rows' positions, then the ghosts'
    vol_end, nit_end = 9 * na, 9 * (na + nc)
    a_pos = np.empty(nit_end + 16 * gf.size, dtype=np.int64)
    a_val = np.empty(a_pos.size)
    tri_pos = _flat_index(mesh.tri_pattern_pos, act, act_of * size, a_pos[:vol_end])
    tri_pos.take(cut, axis=0, out=a_pos[vol_end:nit_end].reshape(nc, 9), mode="clip")
    _flat_index(mesh.facet_pattern_pos, gf, gf_of * size, a_pos[nit_end:])
    vol = a_val[:vol_end].reshape(na, 9)
    mesh.tri_stiffness.take(act, axis=0, out=vol, mode="clip")
    vol[cut] = stage.vol
    a_val[vol_end:nit_end].reshape(nc, 9)[:] = stage.nit
    a_val[nit_end:].reshape(gf.size, 4, 4)[:] = _ghost_blocks(mesh, phys.gamma, gf)
    values, used = _scatter(a_pos, a_val, batch * size)
    return values.reshape(batch, size), used.reshape(batch, size), loads.reshape(batch, n)


def assemble_system(geom: CutGeometry, phys: PhysicsParams) -> SystemPair:
    """Assemble A = diffusion + Nitsche + ghost penalty, and the load vector,
    of one geometry: ``assemble_batch`` of one, as CSR, with its cut stage."""
    stage = _cut_stage(_checked_rule(geom), phys, geom.mesh.h)
    values, used, loads = _place([geom], phys, stage)
    pos = np.flatnonzero(used[0])
    return SystemPair(A=csr_on_pattern(geom.mesh, values[0], pos), f=loads[0],
                      active_dofs=geom.active_dofs, geom=geom, pattern_pos=pos, stage=stage)


def assemble_norm_matrix(system: SystemPair) -> sp.csr_matrix:
    """Matrix of the mesh-dependent energy norm: the stiffness matrix plus
    its Nitsche consistency term, |||v|||^2 = a_h(v, v) + 2 <dn v, v>_G,
    which leaves the gradient part on the physical domain, the scaled
    boundary mass and the ghost jump terms.  Stored on A's pattern: the cut
    elements' consistency blocks, formed from the system's stage, are added
    to a copy of A's values, element by element."""
    stage, geom = system.stage, system.geom
    bary, dn = stage.bdn[:2], stage.bdn[2]
    cons = _kernels.consistency(stage.seg_w, bary[:, :, None], bary[:, None], dn[:, None], dn[None])
    slots = np.searchsorted(system.pattern_pos,
                            geom.mesh.tri_pattern_pos.take(geom.cut_elements, axis=0))
    values = system.A.data.copy()
    np.add.at(values, slots.ravel(), cons.reshape(9, -1).T.ravel())
    return sp.csr_matrix((values, system.A.indices, system.A.indptr), shape=system.A.shape)


def assemble_mass_matrix(mesh: BackgroundMesh) -> sp.csr_matrix:
    """Standard P1 mass matrix over the whole background box (parameter-free)."""
    local = np.array([2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0]) / 12.0
    vals = mesh.tri_area[:, None] * local[None, :]
    values, used = _scatter(mesh.tri_pattern_pos.ravel(), vals.ravel(), mesh.pattern_cols.size)
    return csr_on_pattern(mesh, values, np.flatnonzero(used))


class EntryPlan:
    """A sampled-entry request for one physics: the piece of the mesh that
    holds the requested entries, with its parameter-independent values.

    Matrix entries are requested by their mesh-pattern position, vector
    entries by dof.  The plan's triangles ``tris`` and interior facets
    ``facets``, ascending, are those whose slots in the mesh's tables
    (``BackgroundMesh.tri_pattern_pos``/``facet_pattern_pos``, the tables
    full assembly scatters through) land on a requested position, or on
    the diagonal position (``BackgroundMesh.pattern_diag``) of a requested
    dof.  Its bin tables give the bin of every slot of them:
    ``stiffness_bins`` (T_c, 9), ``ghost_bins`` (F_c, 16) and ``load_bins``
    (T_c, 3).  There is one bin per distinct requested entry and a last one
    for the slots no request reads; ``n_bins`` counts them for A and for f.
    ``take_matrix`` and ``take_vector`` map the bins to the requests in
    their order, repeats included.  The plan stores the whole triangles'
    stiffness rows and loads and the ghost blocks; a parameter enters only
    through the activity masks and the cut elements' stage.  The reduced
    model builds its plan once, beside the sample entries it describes.
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
        self.mesh_shape = (mesh.n_vertices, mesh.n_triangles, mesh.h, mesh.box)
        positions, self.take_matrix = np.unique(m_pos, return_inverse=True)
        dofs, self.take_vector = np.unique(v_ent, return_inverse=True)
        self.n_bins = (positions.size + 1, dofs.size + 1)
        # the bin of each pattern position, and of an unused facet slot (-1)
        a_bin = np.full(size + 1, positions.size)
        a_bin[positions] = np.arange(positions.size)
        f_bin = np.full(mesh.n_vertices, dofs.size)
        f_bin[dofs] = np.arange(dofs.size)
        # every slot on a requested entry has its row's vertex, so the piece
        # is among the triangles at those vertices and the facets of them
        at_vertex = f_bin < dofs.size
        at_vertex[mesh.pattern_rows[positions]] = True
        tris = np.flatnonzero(np.logical_or.reduce(at_vertex[mesh.triangles_t]))
        of_tris = np.zeros(mesh.facets.shape[0], dtype=bool)
        of_tris[mesh.tri_facets.take(tris, axis=0)] = True
        facets = np.flatnonzero(of_tris)
        tri_bins = a_bin[mesh.tri_pattern_pos.take(tris, axis=0)]
        load_bins = f_bin[mesh.triangles.take(tris, axis=0)]
        facet_bins = a_bin[mesh.facet_pattern_pos.take(facets, axis=0)]
        keep = (tri_bins < positions.size).any(axis=1) | (load_bins < dofs.size).any(axis=1)
        hit = (facet_bins < positions.size).any(axis=1)
        self.tris, self.facets = tris[keep], facets[hit]
        self.stiffness_bins, self.load_bins = tri_bins[keep], load_bins[keep]
        self.ghost_bins = facet_bins[hit]
        self.stiffness = mesh.tri_stiffness[self.tris]
        self.loads = np.repeat(_whole_load(mesh.tri_area[self.tris], float(phys.f_const))[:, None],
                               3, axis=1)
        self.ghost = _ghost_blocks(mesh, phys.gamma, self.facets).reshape(-1, 16)


def evaluate_entries(geom: CutGeometry, plan: EntryPlan):
    """Evaluate the entries of A and f that ``plan`` requests, for the
    plan's physics: full assembly restricted to the plan's piece of the
    mesh.

    The plan's active triangles, cut triangles and ghost facets at ``geom``
    place their blocks as ``assemble_batch`` does (whole-triangle rows with
    the stage's volume blocks at the cut rows, then its Nitsche blocks, then
    the ghost blocks), from a cut stage over the plan's cut elements only,
    and one ``np.bincount`` each for A and f sums them into the plan's bins.
    Every requested entry thus sums the terms of full assembly in its order,
    and matches ``assemble_system`` bit for bit.  ``geom`` may live on any
    mesh identical to the one the plan was built on; a mesh of another
    vertex count, triangle count, ``h`` or box raises ``AssemblyError``.
    """
    mesh = geom.mesh
    shape = (mesh.n_vertices, mesh.n_triangles, mesh.h, mesh.box)
    if shape != plan.mesh_shape:
        raise AssemblyError(
            f"geometry mesh (vertices, triangles, h, box) = {shape} does not match the "
            f"plan's {plan.mesh_shape}"
        )
    rule = _checked_rule(geom)
    act = np.flatnonzero(geom.elem_class[plan.tris] != OUTSIDE)
    cols = geom.cut_pos[plan.tris.take(act)]
    cut = np.flatnonzero(cols >= 0)  # the cut rows among the active ones
    cols = cols[cut]
    stage = _cut_stage(CutRule(*(getattr(rule, f.name).take(cols, axis=-1)
                                 for f in fields(CutRule))), plan.phys, mesh.h)
    ghost = np.flatnonzero(geom.ghost_mask[plan.facets])

    load = plan.loads.take(act, axis=0)
    load[cut] = stage.f_vol.T
    bins = plan.load_bins.take(act, axis=0)
    f = np.bincount(np.concatenate([bins.ravel(), bins.take(cut, axis=0).ravel()]),
                    np.concatenate([load.ravel(), stage.f_bnd.T.ravel()]),
                    minlength=plan.n_bins[1])

    vol = plan.stiffness.take(act, axis=0)
    vol[cut] = stage.vol
    bins = plan.stiffness_bins.take(act, axis=0)
    a = np.bincount(np.concatenate([bins.ravel(), bins.take(cut, axis=0).ravel(),
                                    plan.ghost_bins.take(ghost, axis=0).ravel()]),
                    np.concatenate([vol.ravel(), stage.nit.ravel(),
                                    plan.ghost.take(ghost, axis=0).ravel()]),
                    minlength=plan.n_bins[0])
    return a.take(plan.take_matrix), f.take(plan.take_vector)
