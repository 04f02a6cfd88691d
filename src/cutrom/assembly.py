"""Assembly of the cut stiffness matrix, load vector, mesh-norm and mass matrices.

Matrices are built into a fixed structural pattern (active-element stencils
plus ghost-facet patches), so rows outside the active dof set are never stored
and are exactly zero.  Sparse entries are addressed by their position in the
mesh's assembly pattern (``BackgroundMesh._build_pattern``), the one sparse
index of the package: a ``SystemPair`` carries the position of each stored
entry of its matrix, and an ``EntryPlan`` takes its matrix entries as
positions.  The mesh's slot tables (``tri_pattern_pos``,
``facet_pattern_pos``) say where each local slot of each triangle and facet
lands in that pattern; full assembly sums through them.

Per parameter, the terms a piece of the mesh sums are selected from the
geometry's classification by one rule, ``_select``: the active triangles,
the cut triangles among them, and the ghost facets, the interior facets
whose two neighbours are active, one of them cut (Burman & Hansbo 2012).
It reads the classes of the piece's triangles and of its facets'
neighbour pairs, so full assembly, each member of a training batch and a
sampled-entry query all select through it; no other code decides which
terms a parameter sums.  Only the cut elements need new local terms.
Each path gathers the inputs of exactly the cut elements it sums from the
mesh tables by triangle id (``_cut_inputs``: their ``tri_comp`` columns
and the level set at their vertices), makes their cut rule
(``geometry.cut_rule``), and ``_cut_stage`` forms the terms once, from
that rule (``_kernels.cut_terms``, then the blocks): per cut element its
volume block and its Nitsche block (k, 9), its volume and boundary loads
(3, k), and the segment terms the energy norm reads (the barycentrics at
both Gauss points with the normal derivatives).  The stage keeps the rule
itself: the energy norm reads its Gauss weights, and the invariant suite
the domain's area and interface length from it.
``_sum_piece`` is the one routine that places and sums assembly's terms:
on a piece of the mesh (``_Piece``), in one fixed order, with one
``np.bincount`` for A and one for f.  Full assembly is that sum on the
whole mesh, the piece whose rows are the triangle and facet ids and whose
bins are the pattern positions and the dofs.  ``assemble_batch`` sums
several geometries of one mesh at once, from one rule and one stage over
their joined cut elements, with member k's bins shifted by k P and k N;
``assemble_system`` is the batch of one.  Sampled entries are the same sum
on the piece of an ``EntryPlan``, whose compact bins are the requested
entries, over the rule of the piece's cut elements only.  A query reads
the geometry's level set and classes on the piece alone, so no whole-mesh
set of the geometry is derived.  Every kernel computes each element's
column on its own, so they match ``assemble_system`` bit for bit.

The energy norm is a_h plus the Nitsche consistency term, |||v|||^2 =
a_h(v, v) + 2 <dn v, v>_G.  Only ``assemble_norm_matrix`` forms that term,
from the stage a ``SystemPair`` keeps, and adds it to a copy of A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .geometry import CUT, OUTSIDE, BackgroundMesh, CutGeometry, CutRule, cut_rule


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
    of ``A``, in storage order, the bins ``_sum_piece`` hit on the whole
    mesh; ``stage`` the local terms assembly formed for the cut elements of
    ``geom``, which ``assemble_norm_matrix`` reads, with their cut rule
    (``stage.rule``)."""

    A: sp.csr_matrix
    f: np.ndarray
    active_dofs: np.ndarray
    geom: CutGeometry
    pattern_pos: np.ndarray
    stage: _Stage


def _used(positions, size: int):
    """The flags of the ``size`` bins that ``positions`` hit."""
    used = np.zeros(size, dtype=bool)
    used[positions] = True
    return used


def _flat_index(table, rows, member, n_bins: int, out):
    """Write the rows ``rows`` of a piece's bin table ``table`` into the
    contiguous ``out`` (``rows.size`` times the row width) and return it by
    rows: the bins of the rows' terms, each row's shifted by ``n_bins``
    times its ``member`` unless that is None.  ``take`` gathers whole rows
    several times faster than fancy indexing; ``mode="clip"`` writes into
    ``out`` with no buffered copy (the rows are in range)."""
    out = out.reshape(rows.size, table.shape[1])
    table.take(rows, axis=0, out=out, mode="clip")
    if member is not None:
        out += (member * n_bins)[:, None]
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
    derivatives (``_kernels.cut_terms``); and the ``CutRule`` they were
    formed from, whose Gauss weights the energy norm also reads."""

    vol: np.ndarray
    nit: np.ndarray
    f_vol: np.ndarray
    f_bnd: np.ndarray
    bdn: np.ndarray
    rule: CutRule


def _cut_inputs(geom: CutGeometry, tris):
    """The inputs of the cut rule of the triangles ``tris`` (ids on the
    mesh of ``geom``): their ``tri_comp`` columns (12, k) and the level set
    of ``geom`` at their vertices (3, k).  Refused unless ``geom`` holds one
    level-set value per mesh vertex."""
    mesh = geom.mesh
    if geom.phi.shape != (mesh.n_vertices,):
        raise AssemblyError("a geometry needs one level-set value per mesh vertex")
    return mesh.tri_comp.take(tris, axis=1), geom.phi.take(mesh.triangles_t.take(tris, axis=1))


def _select(cls, pair_cls):
    """The terms a piece of the mesh sums at one parameter, from the
    classes ``cls`` of its triangles and ``pair_cls`` (2, F) of its facets'
    neighbour pairs, a missing neighbour counting as OUTSIDE: the one
    selection rule of every assembly.

    Returns the active triangle rows, the cut rows, the cut rows' places
    among the active ones, and the ghost facet rows.  A facet is a ghost
    facet when it is interior, both neighbours are active and one of them
    is cut; with INSIDE < CUT < OUTSIDE, that is the larger class being
    CUT.
    """
    # ``nonzero`` as a method: ``np.flatnonzero`` adds two Python-level
    # calls, about 1 us each
    act = (cls != OUTSIDE).nonzero()[0]
    rows = (cls == CUT).nonzero()[0]
    ghost = (np.maximum(*pair_cls) == CUT).nonzero()[0]
    return act, rows, act.searchsorted(rows), ghost


def _select_mesh(geom: CutGeometry):
    """``_select`` on the whole mesh of ``geom``, whose rows are the
    triangle and facet ids; the missing neighbour of a boundary facet (-1 in
    ``facet_tris``) reads the OUTSIDE appended to the classes."""
    cls = geom.elem_class
    # a uint8 OUTSIDE keeps the gathered classes uint8, as the classes are
    return _select(cls, np.append(cls, np.uint8(OUTSIDE))[geom.mesh.facet_tris.T])


def _cut_stage(rule: CutRule, phys: PhysicsParams, h: float) -> _Stage:
    """Local terms of the cut elements of ``rule``, on a mesh of size ``h``.
    Every term is computed column by column, so joining rules or taking
    some of their columns changes no value."""
    g0, gx, gy, gxy = map(float, phys.g_coeffs)
    lam_over_h = phys.nitsche_lambda / h
    wsum, f_vol, f_bnd, bdn = _kernels.cut_terms(
        rule.pts, rule.vol_wts, rule.seg_wts, rule.normal, rule.tri, float(phys.f_const),
        lam_over_h, g0, gx, gy, gxy,
    )
    return _Stage(_kernels.volume_contribs(wsum, rule.tri),
                  _kernels.boundary_contribs(rule.seg_wts, bdn[:2], bdn[2], lam_over_h),
                  f_vol, f_bnd, bdn, rule)


def _whole_load(area, f_const: float):
    """Source load of each hat on whole triangles of ``area``."""
    return f_const * area / 3.0


def _ghost_blocks(mesh: BackgroundMesh, gamma: float, facets):
    """Ghost-penalty blocks (F, 4, 4) of the interior ``facets``."""
    jv = mesh.facet_jump.take(facets, axis=0)
    return _kernels.ghost_penalty(gamma, mesh.h, mesh.facet_len[facets][:, None, None],
                                  jv[:, :, None], jv[:, None, :])


class _Piece(NamedTuple):
    """A piece of the mesh as ``_sum_piece`` reads it: per triangle the bins
    of its stiffness slots (T, 9) and load slots (T, 3) and its
    whole-triangle stiffness block (T, 9), per interior facet the bins of
    its ghost slots (F, 16), and the bin counts of A and f of one member.
    The whole mesh is the piece whose bins are the pattern positions and the
    dofs; an ``EntryPlan`` holds a piece with compact bins."""

    stiffness_bins: np.ndarray
    load_bins: np.ndarray
    stiffness: np.ndarray
    ghost_bins: np.ndarray
    n_bins: tuple


def _sum_piece(piece, stage: _Stage, act, cut, loads, ghost, ghost_blocks, members=None):
    """Sum the terms of ``piece`` into its bins: the one place where
    assembly orders and sums its terms.

    ``act`` are the piece's active triangle rows, ``cut`` the rows among
    them of the cut elements of ``stage`` (in its order), ``loads`` the
    whole-triangle load of each active row, ``ghost`` the piece's ghost
    facet rows and ``ghost_blocks`` (G, 4, 4) their blocks.  A
    sums, in this order, the whole-triangle blocks with the stage's volume
    blocks at the cut rows, the Nitsche blocks at the cut rows, and the
    ghost blocks; f the whole loads with the stage's volume loads at the cut
    rows, then the boundary loads at the cut rows.  ``np.bincount`` adds
    each bin's terms in the order given, so every bin sums the terms of
    full assembly in its order.  ``members`` is None for one member, or
    (K, the member of each active row, the member of each ghost row): the
    bins of member k are then shifted by k times the piece's bin counts.

    Returns A's sums (K * n_bins[0]), f's sums (K * n_bins[1]) and the bin
    of each of A's terms.
    """
    (n_a, n_f), (na, nc, ng) = piece.n_bins, (act.size, cut.size, ghost.size)
    batch, act_of, ghost_of = members or (1, None, None)
    f_pos = np.empty((na + nc, 3), dtype=np.int64)
    f_val = np.empty((na + nc, 3))
    _flat_index(piece.load_bins, act, act_of, n_f, f_pos[:na])
    f_pos[:na].take(cut, axis=0, out=f_pos[na:], mode="clip")
    f_val[:na] = loads[:, None]
    f_val[cut] = stage.f_vol.T
    f_val[na:] = stage.f_bnd.T

    vol_end, nit_end = 9 * na, 9 * (na + nc)
    a_pos = np.empty(nit_end + 16 * ng, dtype=np.int64)
    a_val = np.empty(a_pos.size)
    rows = _flat_index(piece.stiffness_bins, act, act_of, n_a, a_pos[:vol_end])
    rows.take(cut, axis=0, out=a_pos[vol_end:nit_end].reshape(nc, 9), mode="clip")
    _flat_index(piece.ghost_bins, ghost, ghost_of, n_a, a_pos[nit_end:])
    vol = a_val[:vol_end].reshape(na, 9)
    piece.stiffness.take(act, axis=0, out=vol, mode="clip")
    vol[cut] = stage.vol
    a_val[vol_end:nit_end].reshape(nc, 9)[:] = stage.nit
    a_val[nit_end:] = ghost_blocks.reshape(-1)
    return (np.bincount(a_pos, a_val, minlength=batch * n_a),
            np.bincount(f_pos.reshape(-1), f_val.reshape(-1), minlength=batch * n_f), a_pos)


def _assemble_mesh(geoms, phys: PhysicsParams):
    """Full assembly of ``geoms``: each member's terms selected on the
    whole mesh (``_select_mesh``), one cut rule and one cut stage over their
    joined cut elements (a lone geometry's rows and inputs are used as they
    are, with no batch bookkeeping), and
    ``_sum_piece`` on the whole mesh, the piece whose bins are the pattern
    positions and the dofs.  Returns the stage and ``_sum_piece``'s sums and
    bins, member k's at k P + position and k N + dof."""
    mesh, k = geoms[0].mesh, len(geoms)
    if any(g.mesh is not mesh for g in geoms):
        raise AssemblyError("a batch of geometries must share one background mesh")
    picks = [_select_mesh(g) for g in geoms]
    cuts = [_cut_inputs(g, rows) for g, (_, rows, _, _) in zip(geoms, picks)]
    tri, phi = cuts[0] if k == 1 else (np.concatenate(c, axis=-1) for c in zip(*cuts))
    stage = _cut_stage(cut_rule(tri, phi, mesh.h), phys, mesh.h)
    if k == 1:
        (act, _, cut, ghost), members = picks[0], None
    else:
        counts = np.array([(act.size, ghost.size) for act, _, _, ghost in picks])
        start = np.cumsum(counts[:, 0]) - counts[:, 0]  # each member's first active row
        act, ghost = (np.concatenate([p[i] for p in picks]) for i in (0, 3))
        cut = np.concatenate([p[2] + s for p, s in zip(picks, start)])
        members = (k, *(np.repeat(np.arange(k), c) for c in counts.T))
    piece = _Piece(mesh.tri_pattern_pos, mesh.triangles, mesh.tri_stiffness,
                   mesh.facet_pattern_pos, (mesh.pattern_cols.size, mesh.n_vertices))
    loads = _whole_load(mesh.tri_area[act], float(phys.f_const))
    return stage, _sum_piece(piece, stage, act, cut, loads, ghost,
                             _ghost_blocks(mesh, phys.gamma, ghost), members)


def assemble_batch(geoms, phys: PhysicsParams):
    """Assemble A = diffusion + Nitsche + ghost penalty, and the load vector,
    for each geometry of ``geoms`` (all on one mesh), in one cut rule, one
    cut stage and one ``_sum_piece`` over the whole mesh.

    Returns ``(values, used, loads)``: the values (K, P) of the K matrices on
    the P positions of the mesh pattern, zero at the positions a matrix does
    not store; the flags (K, P) of the stored ones; and the loads (K, N).
    Every entry sums its terms in the order of ``assemble_system``, so a
    batch reproduces its members bit for bit.  The load carries the source
    term and the Nitsche boundary data terms:
    f_i = int_O f phi_i - int_G (grad phi_i . n) g + (lambda/h) int_G phi_i g.
    """
    _, (values, loads, pos) = _assemble_mesh(geoms, phys)
    k = len(geoms)
    return values.reshape(k, -1), _used(pos, values.size).reshape(k, -1), loads.reshape(k, -1)


def assemble_system(geom: CutGeometry, phys: PhysicsParams) -> SystemPair:
    """Assemble A = diffusion + Nitsche + ghost penalty, and the load vector,
    of one geometry: the batch of one, as CSR, with its cut stage."""
    stage, (values, loads, pos) = _assemble_mesh([geom], phys)
    pos = np.flatnonzero(_used(pos, values.size))
    return SystemPair(A=csr_on_pattern(geom.mesh, values, pos), f=loads,
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
    cons = _kernels.consistency(stage.rule.seg_wts, bary[:, :, None], bary[:, None],
                                dn[:, None], dn[None])
    rank = np.empty(geom.mesh.pattern_cols.size, dtype=np.int64)
    rank[system.pattern_pos] = np.arange(system.pattern_pos.size)
    slots = rank.take(geom.mesh.tri_pattern_pos.take(geom.cut_elements, axis=0))
    values = system.A.data.copy()
    np.add.at(values, slots.ravel(), cons.reshape(9, -1).T.ravel())
    return sp.csr_matrix((values, system.A.indices, system.A.indptr), shape=system.A.shape)


def assemble_mass_matrix(mesh: BackgroundMesh) -> sp.csr_matrix:
    """Standard P1 mass matrix over the whole background box (parameter-free)."""
    local = np.array([2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0]) / 12.0
    pos, size = mesh.tri_pattern_pos.ravel(), mesh.pattern_cols.size
    values = np.bincount(pos, (mesh.tri_area[:, None] * local).ravel(), minlength=size)
    return csr_on_pattern(mesh, values, np.flatnonzero(_used(pos, values.size)))


class EntryPlan:
    """A sampled-entry request for one physics: the piece of the mesh that
    holds the requested entries, with compact bins, and its
    parameter-independent values.

    Matrix entries are requested by their mesh-pattern position, vector
    entries by dof.  The bins are gathered over the whole mesh's slot
    tables (``BackgroundMesh.tri_pattern_pos``/``facet_pattern_pos``, the
    tables full assembly sums through, and ``triangles`` for the load).
    The plan's triangles ``tris``, ascending, are those with a stiffness
    slot on a requested position or a vertex at a requested dof; its
    interior facets ``facets``, ascending, those with a slot on a requested
    position.  ``piece`` (a ``_Piece``) gives the bin of every slot of them and
    their ``tri_stiffness`` rows; there is one bin per distinct requested
    entry and a last one for the slots no request reads.  ``take_matrix``
    and ``take_vector`` map the bins to the requests in their order,
    repeats included.  The plan also stores the whole triangles' loads
    ``loads`` (T_c,) and the ghost blocks ``ghost`` (F_c, 4, 4), and the
    neighbour pairs of its facets ``facet_pairs`` (2, F_c).  A parameter
    enters only through the classes of the piece's triangles and of its
    facets' neighbours, from which ``_select`` picks the terms by plan row,
    and the stage of the piece's cut elements, whose inputs a query gathers
    from the mesh tables by triangle id.  The reduced model builds its plan
    once, beside the sample entries it describes.
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
        # the bin of each pattern position, and of an unused facet slot (-1)
        a_bin = np.full(size + 1, positions.size)
        a_bin[positions] = np.arange(positions.size)
        f_bin = np.full(mesh.n_vertices, dofs.size)
        f_bin[dofs] = np.arange(dofs.size)
        tri_bins = a_bin[mesh.tri_pattern_pos]
        load_bins = f_bin[mesh.triangles]
        facet_bins = a_bin[mesh.facet_pattern_pos]
        keep = (tri_bins < positions.size).any(axis=1) | (load_bins < dofs.size).any(axis=1)
        hit = (facet_bins < positions.size).any(axis=1)
        self.tris, self.facets = np.flatnonzero(keep), np.flatnonzero(hit)
        self.piece = _Piece(tri_bins[keep], load_bins[keep], mesh.tri_stiffness[self.tris],
                            facet_bins[hit], (positions.size + 1, dofs.size + 1))
        self.loads = _whole_load(mesh.tri_area[self.tris], float(phys.f_const))
        self.ghost = _ghost_blocks(mesh, phys.gamma, self.facets)
        self.facet_pairs = np.ascontiguousarray(mesh.facet_tris.take(self.facets, axis=0).T)


def evaluate_entries(geom: CutGeometry, plan: EntryPlan):
    """Evaluate the entries of A and f that ``plan`` requests, for the
    plan's physics: full assembly restricted to the plan's piece of the
    mesh.

    It selects the plan's active triangles, cut triangles and ghost facets
    at ``geom`` by plan row with ``_select``, the rule full assembly selects
    by, from the classes of the plan's triangles and of its facets'
    neighbour pairs; makes the cut rule of exactly the plan's cut triangles
    from the mesh tables (``_cut_inputs``) and stages them; and sums their
    terms into the plan's bins with ``_sum_piece``, the routine full
    assembly sums through.  It reads no whole-mesh set of ``geom``, so none
    is derived.  Every requested entry thus sums the terms of full assembly
    in its order, and matches ``assemble_system`` bit for bit.
    ``geom`` may live on any mesh identical to the one the plan was built
    on; a mesh of another vertex count, triangle count, ``h`` or box, or a
    level set of another width than the vertex count, raises
    ``AssemblyError``.
    """
    mesh = geom.mesh
    shape = (mesh.n_vertices, mesh.n_triangles, mesh.h, mesh.box)
    if shape != plan.mesh_shape:
        raise AssemblyError(
            f"geometry mesh (vertices, triangles, h, box) = {shape} does not match the "
            f"plan's {plan.mesh_shape}"
        )
    cls = geom.elem_class
    act, rows, cut, ghost = _select(cls.take(plan.tris), cls.take(plan.facet_pairs))
    rule = cut_rule(*_cut_inputs(geom, plan.tris.take(rows)), mesh.h)
    stage = _cut_stage(rule, plan.phys, mesh.h)
    a, f, _ = _sum_piece(plan.piece, stage, act, cut, plan.loads.take(act), ghost,
                         plan.ghost.take(ghost, axis=0))
    return a.take(plan.take_matrix), f.take(plan.take_vector)
