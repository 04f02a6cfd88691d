import ast
import dataclasses
import os

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cutrom
from cutrom import _kernels, assembly
from cutrom.assembly import (
    AssemblyError,
    EntryPlan,
    PhysicsParams,
    assemble_batch,
    assemble_mass_matrix,
    assemble_norm_matrix,
    assemble_system,
    evaluate_entries,
    physics_from_config,
)
from cutrom.config import Config
from cutrom.estimators import alpha_star
from cutrom.fom import solve_fom
from cutrom.geometry import (
    CUT,
    INSIDE,
    ParameterPoint,
    build_background_mesh,
    build_cut_geometry,
    cut_rule,
    level_set,
)
from cutrom.pipeline import TRAIN_CHUNK, sample_parameters, spd_coercivity_check

MUS = [ParameterPoint(1.0, 1.0), ParameterPoint(1.07, 1.13), ParameterPoint(1.2, 1.01)]
DEFAULT_PHYS = physics_from_config(Config())


def _inactive(mesh, active):
    return np.setdiff1d(np.arange(mesh.n_vertices), active)


def test_physics_validation():
    with pytest.raises(AssemblyError):
        dataclasses.replace(DEFAULT_PHYS, nitsche_lambda=-1.0)
    with pytest.raises(AssemblyError):
        dataclasses.replace(DEFAULT_PHYS, gamma=-0.2)
    with pytest.raises(AssemblyError):
        dataclasses.replace(DEFAULT_PHYS, g_coeffs=(1.0, 2.0))


@pytest.mark.parametrize("mu", MUS, ids=str)
def test_zero_rows_outside_active_exact(default_mesh, default_phys, mu):
    geom = build_cut_geometry(default_mesh, mu)
    sys_ = assemble_system(geom, default_phys)
    inact = _inactive(default_mesh, sys_.active_dofs)
    assert np.abs(sys_.A[inact]).max() == 0.0
    assert np.abs(sys_.A[:, inact]).max() == 0.0
    assert np.abs(sys_.f[inact]).max(initial=0.0) == 0.0


@pytest.mark.parametrize("mu", MUS, ids=str)
def test_matrix_exactly_symmetric(default_mesh, default_phys, mu):
    geom = build_cut_geometry(default_mesh, mu)
    a = assemble_system(geom, default_phys).A
    assert abs(a - a.T).max() == 0.0


def test_linear_patch_residual(default_mesh, patch_phys):
    geom = build_cut_geometry(default_mesh, ParameterPoint(1.0, 1.0))
    sys_ = assemble_system(geom, patch_phys)
    verts = default_mesh.vertices
    u_exact = 1.0 + 2.0 * verts[:, 0] + 3.0 * verts[:, 1]
    u = np.zeros_like(u_exact)
    u[sys_.active_dofs] = u_exact[sys_.active_dofs]
    res = sys_.f - sys_.A @ u
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(sys_.f)


def test_norm_matrix_constant_vector(default_mesh, default_phys):
    geom = build_cut_geometry(default_mesh, ParameterPoint(1.0, 1.0))
    sys_ = assemble_system(geom, default_phys)
    nm = assemble_norm_matrix(sys_)
    ones = np.ones(default_mesh.n_vertices)
    quad = ones @ (nm @ ones)
    lam_over_h = default_phys.nitsche_lambda / default_mesh.h
    assert quad == pytest.approx(lam_over_h * 2 * np.pi, rel=0.02)
    # consistency with the assembled boundary measure is much tighter
    assert quad == pytest.approx(lam_over_h * 2.0 * sys_.stage.rule.seg_wts.sum(), rel=1e-12)
    assert np.zeros_like(ones) @ (nm @ np.zeros_like(ones)) == 0.0
    assert abs(nm - nm.T).max() <= 1e-12 * abs(nm).max()


def test_mass_matrix_partition_of_unity(default_mesh):
    m = assemble_mass_matrix(default_mesh)
    ones = np.ones(default_mesh.n_vertices)
    assert ones @ (m @ ones) == pytest.approx(5.76, abs=1e-10)
    assert abs(m - m.T).max() == 0.0
    dense = m.toarray()
    assert sla.eigvalsh(dense)[0] > 0.0


@pytest.mark.parametrize("mu", MUS[:2], ids=str)
def test_active_block_spd_and_coercivity(default_mesh, default_phys, mu):
    a_star = alpha_star(default_phys.nitsche_lambda, 1.0)
    assert a_star == 0.5
    check = spd_coercivity_check(default_mesh, default_phys, [mu], a_star)
    assert check.ok, check


@pytest.mark.parametrize("mu", MUS, ids=str)
def test_evaluate_entries_matches_assembly_bitwise(default_mesh, default_phys, mu):
    geom = build_cut_geometry(default_mesh, mu)
    sys_ = assemble_system(geom, default_phys)
    pos = sys_.pattern_pos
    vent = np.arange(default_mesh.n_vertices, dtype=np.int64)
    vals_m, vals_v = evaluate_entries(geom, EntryPlan(default_mesh, default_phys, pos, vent))
    ref = np.asarray(sys_.A[default_mesh.pattern_rows[pos], default_mesh.pattern_cols[pos]]).ravel()
    assert np.array_equal(vals_m, ref)
    assert np.array_equal(vals_m, sys_.A.data)
    assert np.array_equal(vals_v, sys_.f)


def test_evaluate_entries_rejects_out_of_range(default_mesh, default_phys):
    size = default_mesh.pattern_cols.size
    for positions, dofs in (([size], []), ([-1], []), ([], [-1]), ([], [default_mesh.n_vertices])):
        with pytest.raises(AssemblyError):
            EntryPlan(default_mesh, default_phys, positions, dofs)


# a physics with every term switched on and no default value
EDGE_PHYS = PhysicsParams(f_const=-3.7, g_coeffs=(0.2, 1.3, -0.7, 2.1),
                          nitsche_lambda=23.0, gamma=0.37)
_EDGE_MESHES = {nx: build_background_mesh(((-1.2, 1.2), (-1.2, 1.2)), 2.4 / nx) for nx in (7, 20, 40)}
_FULL_PLANS = {}


def _full_pattern_plan(nx):
    """A plan for every position of the mesh pattern and every vertex."""
    if nx not in _FULL_PLANS:
        mesh = _EDGE_MESHES[nx]
        _FULL_PLANS[nx] = EntryPlan(mesh, EDGE_PHYS, np.arange(mesh.pattern_cols.size),
                                    np.arange(mesh.n_vertices))
    return _FULL_PLANS[nx]


def _assert_entries_bitwise(nx, mu):
    plan = _full_pattern_plan(nx)
    mesh = _EDGE_MESHES[nx]
    geom = build_cut_geometry(mesh, mu)
    sys_ = assemble_system(geom, EDGE_PHYS)
    vals_m, vals_v = evaluate_entries(geom, plan)
    ref = np.asarray(sys_.A[mesh.pattern_rows, mesh.pattern_cols]).ravel()
    assert vals_m.tobytes() == ref.tobytes()
    assert vals_v.tobytes() == sys_.f.tobytes()
    return geom


@pytest.mark.parametrize("nx", sorted(_EDGE_MESHES))
@settings(max_examples=15, deadline=None)
@given(r=st.floats(min_value=0.3, max_value=1.44), theta=st.floats(min_value=0.3, max_value=1.44))
@example(r=1.44, theta=1.44)
def test_sampled_entries_match_assembly_on_edge_parameters(nx, r, theta):
    _assert_entries_bitwise(nx, ParameterPoint(r, theta))


@pytest.mark.parametrize("nx", sorted(_EDGE_MESHES))
def test_sampled_entries_match_assembly_with_a_vertex_on_the_interface(nx):
    # mu = (2 x^2, 2 y^2) puts the off-axis vertex (x, y) exactly on phi = 0
    mesh = _EDGE_MESHES[nx]
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    off_axis = np.flatnonzero((x != 0.0) & (y != 0.0))
    v = off_axis[np.argmin(np.abs(2 * x[off_axis] ** 2 - 0.9) + np.abs(2 * y[off_axis] ** 2 - 0.9))]
    mu = ParameterPoint(2 * x[v] ** 2, 2 * y[v] ** 2)
    assert level_set(mu, x, y)[v] == 0.0
    assert _assert_entries_bitwise(nx, mu).cut_elements.size > 0


def test_every_assembly_selects_its_terms_through_one_rule(small_run, monkeypatch):
    # full assembly, each member of a batch and a sampled-entry query pick
    # their terms with ``_select``: the whole mesh's rows, then the plan's
    art, _ = small_run
    original, pieces = assembly._select, []

    def spy(cls, pair_cls):
        pieces.append((cls.size, pair_cls.shape))
        return original(cls, pair_cls)

    monkeypatch.setattr(assembly, "_select", spy)
    mesh, plan = art.mesh, art.plan
    whole = (mesh.n_triangles, (2, mesh.facets.shape[0]))
    geoms = [build_cut_geometry(mesh, mu) for mu in MUS]
    assemble_system(geoms[0], art.phys)
    assert pieces == [whole]
    assemble_batch(geoms, art.phys)
    assert pieces == [whole] * (1 + len(geoms))
    evaluate_entries(geoms[0], plan)
    assert pieces[-1] == (plan.tris.size, (2, plan.facets.size))
    assert len(pieces) == 2 + len(geoms)


def _gradients(mesh, rows):
    """Hat gradients (len(rows), 3, 2) by local vertex and coordinate."""
    return mesh.tri_comp[6:12, rows].reshape(2, 3, -1).transpose(2, 1, 0)


# the source alone: the hats sum to one, so with g = 0 the loads total
# f |domain|, whole triangles and cut sub-triangles alike
SOURCE_PHYS = dataclasses.replace(DEFAULT_PHYS, f_const=-3.7, g_coeffs=(0.0, 0.0, 0.0, 0.0))


def _assert_load_total_is_source_times_area(domain_area, nx, mu):
    sys_ = assemble_system(build_cut_geometry(_EDGE_MESHES[nx], mu), SOURCE_PHYS)
    want = SOURCE_PHYS.f_const * domain_area(sys_.geom, sys_.stage.rule)
    assert abs(sys_.f.sum() - want) <= 1e-13 * abs(want)
    return sys_


@pytest.mark.parametrize("nx", [7, 20])
@settings(max_examples=25, deadline=None)
@given(r=st.floats(min_value=0.3, max_value=1.44), theta=st.floats(min_value=0.3, max_value=1.44))
def test_load_total_is_source_times_area(domain_area, nx, r, theta):
    _assert_load_total_is_source_times_area(domain_area, nx, ParameterPoint(r, theta))


def _edge_parameters(mesh):
    """The four corners of the default parameter box, an ellipse within one
    cell of the box edge, and last a vertex exactly on phi = 0 (degenerate
    segments)."""
    corners = [ParameterPoint(*mu) for mu in ((1.0, 1.0), (1.0, 1.2), (1.2, 1.0), (1.2, 1.2))]
    semi = 1.2 - 0.5 * mesh.h
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    off_axis = np.flatnonzero((x != 0.0) & (y != 0.0))
    v = off_axis[np.argmin(np.abs(2 * x[off_axis] ** 2 - 0.9) + np.abs(2 * y[off_axis] ** 2 - 0.9))]
    mu = ParameterPoint(2 * x[v] ** 2, 2 * y[v] ** 2)
    assert level_set(mu, x, y)[v] == 0.0
    return corners + [ParameterPoint(semi ** 2, 1.0), mu]


@pytest.mark.parametrize("nx", [7, 20])
def test_load_total_is_source_times_area_on_edge_parameters(domain_area, nx):
    systems = [_assert_load_total_is_source_times_area(domain_area, nx, mu)
               for mu in _edge_parameters(_EDGE_MESHES[nx])]
    assert np.count_nonzero(systems[-1].stage.rule.degenerate) > 0


# v = x has dn v = n_x, so by the divergence theorem the consistency term
# 2 int_G dn v v = 2 int_G n_x x is twice the domain's area; likewise v = y
def _assert_norm_gap_is_twice_the_area(domain_area, nx, mu):
    geom = build_cut_geometry(_EDGE_MESHES[nx], mu)
    sys_ = assemble_system(geom, EDGE_PHYS)
    gap = assemble_norm_matrix(sys_) - sys_.A
    want = 2.0 * domain_area(geom, sys_.stage.rule)
    for v in geom.mesh.vertices.T:
        assert abs(v @ (gap @ v) - want) <= 1e-12 * want


@pytest.mark.parametrize("nx", [7, 20])
@settings(max_examples=25, deadline=None)
@given(r=st.floats(min_value=0.3, max_value=1.44), theta=st.floats(min_value=0.3, max_value=1.44))
def test_norm_minus_stiffness_is_twice_the_area(domain_area, nx, r, theta):
    _assert_norm_gap_is_twice_the_area(domain_area, nx, ParameterPoint(r, theta))


@pytest.mark.parametrize("nx", [7, 20])
def test_norm_minus_stiffness_is_twice_the_area_on_edge_parameters(domain_area, nx):
    for mu in _edge_parameters(_EDGE_MESHES[nx]):
        _assert_norm_gap_is_twice_the_area(domain_area, nx, mu)


def _element_major_rules(geom):
    """The rules element-major: two volume slots per active element, a
    whole triangle's area in slot 0 and the cut rule's sub-triangles
    (centroid, area) on cut rows, and the interface rule per cut element and
    Gauss point."""
    mesh, (act, cut, _, _) = geom.mesh, assembly._select_mesh(geom)
    rule = cut_rule(mesh.tri_comp[:, cut], geom.phi[mesh.triangles_t[:, cut]], mesh.h)
    vol_pts = np.zeros((act.size, 2, 2))
    vol_wts = np.zeros((act.size, 2))
    vol_wts[:, 0] = mesh.tri_area[act]
    cut_sel = np.searchsorted(act, cut)  # each cut element's active row
    vol_pts[cut_sel] = rule.pts[:, :2].transpose(2, 1, 0)
    vol_wts[cut_sel] = rule.vol_wts.T
    seg_pts = rule.pts[:, 2:].transpose(2, 1, 0)
    seg_wts = np.repeat(rule.seg_wts[:, None], 2, axis=1)
    return vol_pts, vol_wts, seg_pts, seg_wts, rule.normal.T


def _reference_matrices(geom, phys):
    """A, f and the norm matrix twice from the element-major rule arrays,
    slot by slot, with the blockwise element formulas the kernels must
    reproduce.  A whole triangle's loads are f |T| / 3.  The first norm
    matrix is A plus the consistency blocks, added in element order; the
    second is the direct sum of volume, penalty and ghost terms."""
    mesh = geom.mesh
    act, cut, _, ghost_facets = assembly._select_mesh(geom)
    vol_pts, vol_wts, seg_pts, seg_wts, seg_normal = _element_major_rules(geom)
    lam = phys.nitsche_lambda / mesh.h
    g0, gx, gy, gxy = phys.g_coeffs

    def bary(pts, rows):
        # the gradients of hats 1 and 2 are the rows of the inverse Jacobian
        v0 = mesh.vertices[mesh.triangles[rows, 0]]
        inv_j = _gradients(mesh, rows)[:, 1:]
        dx = pts[:, 0] - v0[:, 0]
        dy = pts[:, 1] - v0[:, 1]
        xi = inv_j[:, 0, 0] * dx + inv_j[:, 0, 1] * dy
        eta = inv_j[:, 1, 0] * dx + inv_j[:, 1, 1] * dy
        return (1.0 - xi - eta, xi, eta)

    b = _gradients(mesh, act)
    wsum = np.zeros(act.size)
    for q in range(2):
        wsum = wsum + vol_wts[:, q]
    a_vol = np.zeros((act.size, 9))
    f_vol = np.zeros((act.size, 3))
    for a in range(3):
        for c in range(3):
            a_vol[:, 3 * a + c] = wsum * (b[:, a, 0] * b[:, c, 0] + b[:, a, 1] * b[:, c, 1])
    whole = geom.elem_class[act] == INSIDE
    for q in range(2):
        p = bary(vol_pts[:, q], act)
        for a in range(3):
            f_vol[:, a] += vol_wts[:, q] * phys.f_const * p[a]
    f_vol[whole] = (phys.f_const * vol_wts[whole, 0] / 3.0)[:, None]

    b = _gradients(mesh, cut)
    dn = [b[:, a, 0] * seg_normal[:, 0] + b[:, a, 1] * seg_normal[:, 1] for a in range(3)]
    a_nit = np.zeros((cut.size, 9))
    cons = np.zeros((cut.size, 9))
    pen = np.zeros((cut.size, 9))
    f_bnd = np.zeros((cut.size, 3))
    for q in range(2):
        w = seg_wts[:, q]
        x, y = seg_pts[:, q, 0], seg_pts[:, q, 1]
        p = bary(seg_pts[:, q], cut)
        g = g0 + gx * x + gy * y + gxy * (x * y)
        for a in range(3):
            for c in range(3):
                pq = lam * (p[a] * p[c])
                a_nit[:, 3 * a + c] += w * (pq - (dn[c] * p[a] + dn[a] * p[c]))
                cons[:, 3 * a + c] += w * (dn[c] * p[a] + dn[a] * p[c])
                pen[:, 3 * a + c] += w * pq
            f_bnd[:, a] += w * (lam * (p[a] * g) - dn[a] * g)

    jv = mesh.facet_jump[ghost_facets]
    coef = phys.gamma * mesh.h * mesh.facet_len[ghost_facets]
    ghost = coef[:, None, None] * (jv[:, :, None] * jv[:, None, :])
    nnz, _indptr, _cols, vol_pos, ghost_pos, _used = _reference_pattern(mesh, act, ghost_facets)
    cut_pos = vol_pos[np.searchsorted(act, cut)]
    out = []
    for boundary in (a_nit, pen):
        values = np.zeros(nnz)
        np.add.at(values, vol_pos.ravel(), a_vol.ravel())
        np.add.at(values, cut_pos.ravel(), boundary.ravel())
        np.add.at(values, ghost_pos.ravel(), ghost.ravel())
        out.append(values)
    f = np.zeros(mesh.n_vertices)
    np.add.at(f, mesh.triangles[act].ravel(), f_vol.ravel())
    np.add.at(f, mesh.triangles[cut].ravel(), f_bnd.ravel())
    norm = out[0].copy()
    np.add.at(norm, cut_pos.ravel(), cons.ravel())
    return out[0], f, norm, out[1]


@pytest.mark.parametrize("nx", [7, 20])
@settings(max_examples=15, deadline=None)
@given(r=st.floats(min_value=0.3, max_value=1.44), theta=st.floats(min_value=0.3, max_value=1.44))
@example(r=1.44, theta=1.44)
def test_assembly_matches_slotwise_reference_bitwise(nx, r, theta):
    geom = build_cut_geometry(_EDGE_MESHES[nx], ParameterPoint(r, theta))
    for phys in (DEFAULT_PHYS, EDGE_PHYS):
        ref_a, ref_f, ref_norm, direct_norm = _reference_matrices(geom, phys)
        sys_ = assemble_system(geom, phys)
        assert sys_.A.data.tobytes() == ref_a.tobytes()
        assert sys_.f.tobytes() == ref_f.tobytes()
        norm = assemble_norm_matrix(sys_).data
        assert norm.tobytes() == ref_norm.tobytes()
        assert np.abs(norm - direct_norm).max() <= 1e-14 * np.abs(direct_norm).max()


# an ellipse through the background vertex (-1.08, 0) of the meshes with h = 0.12
VERTEX_MU = ParameterPoint(1.08 ** 2, 1.1)


def _assert_batch_matches_its_members(mesh, mus):
    """``assemble_batch`` of the geometries of ``mus`` against
    ``assemble_system`` of each, byte for byte."""
    geoms = [build_cut_geometry(mesh, mu) for mu in mus]
    values, used, loads = assemble_batch(geoms, EDGE_PHYS)
    assert values.shape == used.shape == (len(geoms), mesh.pattern_cols.size)
    assert loads.shape == (len(geoms), mesh.n_vertices)
    for k, geom in enumerate(geoms):
        sys_ = assemble_system(geom, EDGE_PHYS)
        pos = np.flatnonzero(used[k])
        assert pos.tobytes() == sys_.pattern_pos.tobytes()
        assert values[k, pos].tobytes() == sys_.A.data.tobytes()
        assert not values[k, ~used[k]].any()
        assert loads[k].tobytes() == sys_.f.tobytes()


_PARAM = st.floats(min_value=0.3, max_value=1.44)


@pytest.mark.parametrize("nx", [7, 20])
@settings(max_examples=15, deadline=None)
@given(drawn=st.lists(st.tuples(_PARAM, _PARAM), max_size=6), data=st.data())
def test_batch_assembly_matches_its_members_bitwise(nx, drawn, data):
    # the box-touching ellipse, a vertex on the interface, and last in
    # ``_edge_parameters`` a vertex on phi = 0 that leaves degenerate segments
    mesh = _EDGE_MESHES[nx]
    special = [ParameterPoint(1.44, 1.44), VERTEX_MU, _edge_parameters(mesh)[-1]]
    mus = data.draw(st.permutations(special + [ParameterPoint(*mu) for mu in drawn]))
    _assert_batch_matches_its_members(mesh, mus)


def test_batch_assembly_refuses_geometries_on_two_meshes():
    geoms = [build_cut_geometry(_EDGE_MESHES[nx], ParameterPoint(1.0, 1.0)) for nx in (7, 20)]
    with pytest.raises(AssemblyError, match="one background mesh"):
        assemble_batch(geoms, EDGE_PHYS)


def test_only_the_norm_matrix_forms_consistency_blocks(monkeypatch):
    # training chunks and full-order solves never read the consistency term
    mesh = _EDGE_MESHES[20]
    geoms = [build_cut_geometry(mesh, mu) for mu in MUS]
    calls = []
    original = _kernels.consistency

    def spy(*args):
        calls.append(args[0].size)
        return original(*args)

    monkeypatch.setattr(_kernels, "consistency", spy)
    assemble_batch(geoms, EDGE_PHYS)
    assert calls == []
    sys_ = assemble_system(geoms[1], EDGE_PHYS)
    solve_fom(sys_)
    assert calls == []
    assemble_norm_matrix(sys_)
    assert calls == [geoms[1].cut_elements.size]


def test_every_path_sums_through_one_routine(monkeypatch):
    # full assembly, a training chunk and sampled entries each place and sum
    # their terms in one call of the shared routine
    mesh = _EDGE_MESHES[20]
    geoms = [build_cut_geometry(mesh, mu) for mu in MUS]
    plan = EntryPlan(mesh, EDGE_PHYS, np.arange(mesh.pattern_cols.size),
                     np.arange(mesh.n_vertices))
    calls = []
    original = assembly._sum_piece

    def spy(piece, *args, **kwargs):
        calls.append(piece)
        return original(piece, *args, **kwargs)

    monkeypatch.setattr(assembly, "_sum_piece", spy)
    assemble_system(geoms[0], EDGE_PHYS)
    assert len(calls) == 1
    assemble_batch(geoms, EDGE_PHYS)
    assert len(calls) == 2
    evaluate_entries(geoms[0], plan)
    assert len(calls) == 3 and calls[2] is plan.piece


def test_each_consumer_makes_the_cut_rule_it_sums(small_run, monkeypatch):
    # the geometry carries no quadrature; full assembly, a training chunk
    # and sampled entries each make one rule, of exactly the cut elements
    # they sum
    art, _ = small_run
    cfg = Config()
    geoms = [build_cut_geometry(art.mesh, ParameterPoint(*mu))
             for mu in sample_parameters(TRAIN_CHUNK, 7, cfg.mu_min, cfg.mu_max)]
    widths = []
    original = _kernels.cut_rules

    def spy(tri, phi, degen_tol):
        widths.append(phi.shape[1])
        return original(tri, phi, degen_tol)

    monkeypatch.setattr(_kernels, "cut_rules", spy)
    geom = build_cut_geometry(art.mesh, ParameterPoint(1.07, 1.13))
    assert widths == []
    assemble_system(geom, art.phys)
    assert widths == [geom.cut_elements.size]
    assemble_batch(geoms, art.phys)
    assert widths[1:] == [sum(g.cut_elements.size for g in geoms)]
    evaluate_entries(geom, art.plan)
    planned_cut = int((geom.elem_class[art.plan.tris] == CUT).sum())
    assert widths[2:] == [planned_cut]
    assert 0 < planned_cut < geom.cut_elements.size


def _cut_rules_callers(tree, module):
    """(module, innermost enclosing function or None) of every name of
    ``cut_rules`` in ``tree``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if "cut_rules" in (getattr(node, "attr", None), getattr(node, "id", None)) or (
                isinstance(node, ast.alias) and node.name == "cut_rules"):
            found.add((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_only_geometry_cut_rule_calls_the_cut_rule_kernel():
    # one producer of cut quadrature
    package = os.path.dirname(cutrom.__file__)
    callers = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                callers |= _cut_rules_callers(ast.parse(fh.read()), name)
    assert callers == {("geometry.py", "cut_rule")}


def test_evaluate_entries_rejects_a_geometry_on_another_mesh(default_mesh, default_phys):
    plan = EntryPlan(default_mesh, default_phys, [1], [0])
    fine = build_background_mesh(((-1.2, 1.2), (-1.2, 1.2)), 0.06)
    geom = build_cut_geometry(fine, ParameterPoint(1.0, 1.0))
    with pytest.raises(AssemblyError, match="does not match"):
        evaluate_entries(geom, plan)


def _reference_pattern(mesh, triangles, facets):
    """Per-parameter pattern from np.unique over the active stencil codes,
    with the mesh positions it uses found by code."""
    n = mesh.n_vertices
    act_tris = mesh.triangles[triangles]
    vol_codes = np.repeat(act_tris, 3, axis=1).astype(np.int64) * n + np.tile(act_tris, (1, 3))
    patch = mesh.facet_patch[facets]
    ghost_codes = np.repeat(patch, 4, axis=1) * n + np.tile(patch, (1, 4))
    codes = np.unique(np.concatenate([vol_codes.ravel(), ghost_codes.ravel()]))
    indptr = np.searchsorted(codes // n, np.arange(n + 1))
    used = np.isin(mesh.pattern_rows * n + mesh.pattern_cols, codes)
    return (codes.size, indptr, codes % n,
            np.searchsorted(codes, vol_codes), np.searchsorted(codes, ghost_codes), used)


_PATTERN_MESH = build_background_mesh(((-1.2, 1.2), (-1.2, 1.2)), 0.125)


def _assert_csr_equal_to_reference(mu):
    geom = build_cut_geometry(_PATTERN_MESH, mu)
    new_sys = assemble_system(geom, DEFAULT_PHYS)
    new = new_sys.A
    new_norm = assemble_norm_matrix(new_sys)
    n = _PATTERN_MESH.n_vertices
    act, _, _, ghost_facets = assembly._select_mesh(geom)
    _, indptr, cols, _, _, used = _reference_pattern(_PATTERN_MESH, act, ghost_facets)
    ref_a, _, ref_norm, _ = _reference_matrices(geom, DEFAULT_PHYS)
    ref = sp.csr_matrix((ref_a, cols, indptr), shape=(n, n))
    ref_norm = sp.csr_matrix((ref_norm, cols, indptr), shape=(n, n))
    assert np.array_equal(new_sys.pattern_pos, np.flatnonzero(used))
    # the mesh positions of A name the (row, col) of every stored entry of A
    # and of the norm matrix, which has A's pattern
    pos = new_sys.pattern_pos
    for a, b in ((new, ref), (new_norm, ref_norm)):
        assert a.indptr.dtype == b.indptr.dtype and a.indices.dtype == b.indices.dtype
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert a.data.tobytes() == b.data.tobytes()
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        assert np.array_equal(_PATTERN_MESH.pattern_rows[pos], rows)
        assert np.array_equal(_PATTERN_MESH.pattern_cols[pos], a.indices)


@settings(max_examples=25, deadline=None)
@given(r=st.floats(min_value=0.3, max_value=1.44), theta=st.floats(min_value=0.3, max_value=1.44))
def test_mesh_pattern_matches_unique_pattern_bitwise(r, theta):
    _assert_csr_equal_to_reference(ParameterPoint(r, theta))


def test_mesh_pattern_matches_unique_pattern_on_edge_parameters():
    # touching the box: semi-axes sqrt(1.44) = 1.2 = half-width
    _assert_csr_equal_to_reference(ParameterPoint(1.44, 1.44))
    # a mesh vertex exactly on phi = 0: x^2 / (2 x^2) + y^2 / (2 y^2) - 1 == 0
    x, y = _PATTERN_MESH.vertices[np.argmin(np.hypot(*(_PATTERN_MESH.vertices - 0.72).T))]
    mu = ParameterPoint(2.0 * x ** 2, 2.0 * y ** 2)
    assert level_set(mu, x, y) == 0.0
    _assert_csr_equal_to_reference(mu)


def _reference_mass_matrix(mesh):
    """P1 mass matrix with its own np.unique pattern over every triangle stencil."""
    n = mesh.n_vertices
    tris = mesh.triangles
    rows = np.repeat(tris, 3, axis=1).astype(np.int64)
    cols = np.tile(tris, (1, 3)).astype(np.int64)
    local = np.array([2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0]) / 12.0
    vals = mesh.tri_area[:, None] * local[None, :]
    codes = np.unique(rows * n + cols)
    pos = np.searchsorted(codes, rows * n + cols)
    values = np.zeros(codes.size)
    np.add.at(values, pos.ravel(), vals.ravel())
    indptr = np.searchsorted(codes // n, np.arange(n + 1))
    return sp.csr_matrix((values, codes % n, indptr), shape=(n, n))


@pytest.mark.parametrize("h", [0.5, 0.125, 0.06])
def test_mass_matrix_matches_unique_pattern_bitwise(h):
    mesh = build_background_mesh(((-1.2, 1.2), (-1.2, 1.2)), h)
    new = assemble_mass_matrix(mesh)
    ref = _reference_mass_matrix(mesh)
    assert new.indptr.dtype == ref.indptr.dtype and new.indices.dtype == ref.indices.dtype
    assert new.indptr.tobytes() == ref.indptr.tobytes()
    assert new.indices.tobytes() == ref.indices.tobytes()
    assert new.data.tobytes() == ref.data.tobytes()


# --- the entry plan against an adjacency-based candidate search ---------------

def _vertex_tri_adjacency(mesh):
    """CSR-style vertex -> triangle adjacency, triangle ids ascending."""
    flat = mesh.triangles.ravel()
    tri_of = np.repeat(np.arange(mesh.n_triangles), 3)
    order = np.lexsort((tri_of, flat))
    indptr = np.searchsorted(flat[order], np.arange(mesh.n_vertices + 1))
    return indptr, tri_of[order]


def _vertex_facet_adjacency(mesh):
    """Vertex -> interior facets whose 4-dof patch contains the vertex."""
    interior = np.flatnonzero(mesh.facet_tris[:, 1] >= 0)
    dofs = mesh.facet_patch[interior].ravel()
    fac_of = np.repeat(interior, 4)
    order = np.lexsort((fac_of, dofs))
    indptr = np.searchsorted(dofs[order], np.arange(mesh.n_vertices + 1))
    return indptr, fac_of[order]


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


def _reference_plan(mesh, matrix_entries, vector_entries):
    """The plan's triangles and interior facets from vertex adjacency lists:
    the triangles (interior facets) around i whose vertices (patch) also
    hold j, and the triangles around each requested dof."""
    m_ent = np.asarray(matrix_entries, dtype=np.int64).reshape(-1, 2)
    v_ent = np.asarray(vector_entries, dtype=np.int64).reshape(-1)
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    indptr, indices = _vertex_tri_adjacency(mesh)
    owner, cand = _gather_ranges(indptr, indices, m_ent[:, 0]) if m_ent.size else empty
    if cand.size:
        jrep = m_ent[owner, 1]
        tri_v = mesh.triangles[cand]
        cand = cand[(tri_v[:, 0] == jrep) | (tri_v[:, 1] == jrep) | (tri_v[:, 2] == jrep)]
    _, v_cand = _gather_ranges(indptr, indices, v_ent) if v_ent.size else empty

    f_indptr, f_indices = _vertex_facet_adjacency(mesh)
    fowner, fcand = _gather_ranges(f_indptr, f_indices, m_ent[:, 0]) if m_ent.size else empty
    if fcand.size:
        jrep = m_ent[fowner, 1]
        patch = mesh.facet_patch[fcand]
        fcand = fcand[(patch[:, 0] == jrep) | (patch[:, 1] == jrep)
                      | (patch[:, 2] == jrep) | (patch[:, 3] == jrep)]
    return np.union1d(cand, v_cand), np.unique(fcand)


_PLAN_MESHES = {nx: build_background_mesh(((-1.2, 1.2), (-1.2, 1.2)), 2.4 / nx)
                for nx in (2, 3, 7, 20)}
_PLAN_MU = ParameterPoint(0.93, 1.17)


def _assert_plan_matches_reference(mesh, matrix_positions, vector_entries):
    """The plan's piece of the mesh is the adjacency reference's, and its
    entries are those of full assembly, bit for bit."""
    plan = EntryPlan(mesh, EDGE_PHYS, matrix_positions, vector_entries)
    pos = np.asarray(matrix_positions, dtype=np.int64)
    rows, cols = mesh.pattern_rows[pos], mesh.pattern_cols[pos]
    tris, facets = _reference_plan(mesh, np.column_stack([rows, cols]), vector_entries)
    assert np.array_equal(plan.tris, tris)
    assert np.array_equal(plan.facets, facets)
    geom = build_cut_geometry(mesh, _PLAN_MU)
    sys_ = assemble_system(geom, EDGE_PHYS)
    vals_m, vals_v = evaluate_entries(geom, plan)
    assert vals_m.tobytes() == sys_.A.toarray()[rows, cols].tobytes()
    assert vals_v.tobytes() == sys_.f[np.asarray(vector_entries, dtype=np.int64)].tobytes()


@pytest.mark.parametrize("nx", sorted(_PLAN_MESHES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_entry_plan_matches_adjacency_reference_bitwise(nx, data):
    mesh = _PLAN_MESHES[nx]
    pos = data.draw(st.lists(st.integers(0, mesh.pattern_cols.size - 1), max_size=90))
    if pos:
        pos += data.draw(st.lists(st.sampled_from(pos), max_size=10))
    pos = data.draw(st.permutations(pos))
    vec = data.draw(st.lists(st.integers(0, mesh.n_vertices - 1), max_size=30))
    _assert_plan_matches_reference(mesh, pos, vec)


def _small_requests(mesh):
    # position 1 is (0, 1); the last position (n-1, n-1) beside the first, (0, 0)
    n = mesh.n_vertices
    return {"empty": ([], []), "one-entry": ([1], []), "one-vector-entry": ([], [0]),
            "last-position": ([mesh.pattern_cols.size - 1, 0], [n - 1])}


@pytest.mark.parametrize("nx", sorted(_PLAN_MESHES))
@pytest.mark.parametrize("name", ["empty", "last-position", "one-entry", "one-vector-entry"])
def test_entry_plan_matches_adjacency_reference_on_small_requests(nx, name):
    mesh = _PLAN_MESHES[nx]
    _assert_plan_matches_reference(mesh, *_small_requests(mesh)[name])


def test_entries_stage_only_the_plans_cut_elements(small_run, monkeypatch):
    art, _ = small_run
    geom = build_cut_geometry(art.mesh, ParameterPoint(1.07, 1.13))
    widths = []
    original = _kernels.cut_terms

    def spy(pts, wts, *args):
        widths.append(wts.shape[-1])
        return original(pts, wts, *args)

    monkeypatch.setattr(_kernels, "cut_terms", spy)
    evaluate_entries(geom, art.plan)
    planned_cut = int((geom.elem_class[art.plan.tris] == CUT).sum())
    assert widths == [planned_cut]
    assert 0 < planned_cut < geom.cut_elements.size


@pytest.mark.parametrize("extra", [1, -1], ids=["one-too-many", "one-too-few"])
def test_both_paths_refuse_a_cut_rule_of_the_wrong_width(default_mesh, default_phys, extra):
    # the cut rules are made from the geometry's level set, so a level set
    # of the wrong width is refused before a rule is made from it
    geom = build_cut_geometry(default_mesh, ParameterPoint(1.07, 1.13))
    n = default_mesh.n_vertices
    bad = dataclasses.replace(geom, phi=geom.phi.take(np.arange(n + extra) % n))
    plan = EntryPlan(default_mesh, default_phys, np.arange(default_mesh.pattern_cols.size),
                     np.arange(n))
    with pytest.raises(AssemblyError, match="one level-set value per mesh vertex"):
        assemble_system(bad, default_phys)
    with pytest.raises(AssemblyError, match="one level-set value per mesh vertex"):
        evaluate_entries(bad, plan)
    with pytest.raises(AssemblyError, match="one level-set value per mesh vertex"):
        assemble_batch([geom, bad], default_phys)
