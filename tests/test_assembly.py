import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutrom import assembly
from cutrom.assembly import (
    AssemblyError,
    EntryPlan,
    PhysicsParams,
    assemble_mass_matrix,
    assemble_norm_matrix,
    assemble_system,
    evaluate_entries,
)
from cutrom.estimators import alpha_star
from cutrom.geometry import ParameterPoint, build_background_mesh, build_cut_geometry, level_set

MUS = [ParameterPoint(1.0, 1.0), ParameterPoint(1.07, 1.13), ParameterPoint(1.2, 1.01)]


def _inactive(mesh, active):
    return np.setdiff1d(np.arange(mesh.n_vertices), active)


def test_physics_validation():
    with pytest.raises(AssemblyError):
        PhysicsParams(nitsche_lambda=-1.0)
    with pytest.raises(AssemblyError):
        PhysicsParams(gamma=(0.1, -0.2))
    with pytest.raises(AssemblyError):
        PhysicsParams(g_coeffs=(1.0, 2.0))


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
    nm = assemble_norm_matrix(geom, default_phys)
    ones = np.ones(default_mesh.n_vertices)
    quad = ones @ (nm @ ones)
    lam_over_h = default_phys.nitsche_lambda / default_mesh.h
    assert quad == pytest.approx(lam_over_h * 2 * np.pi, rel=0.02)
    # consistency with the assembled boundary measure is much tighter
    assert quad == pytest.approx(lam_over_h * geom.boundary_weight_sum(), rel=1e-12)
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
    geom = build_cut_geometry(default_mesh, mu)
    sys_ = assemble_system(geom, default_phys)
    nm = assemble_norm_matrix(geom, default_phys)
    act = sys_.active_dofs
    a_act = sys_.A[act][:, act].toarray()
    n_act = nm[act][:, act].toarray()
    assert sla.eigvalsh(a_act)[0] > 0.0
    coer = sla.eigh(a_act, n_act, eigvals_only=True)[0]
    assert coer >= 0.05
    assert alpha_star(default_phys.nitsche_lambda, 1.0) == 0.5


def test_ghost_order1_term_contributes_exact_zero(default_mesh):
    mu = ParameterPoint(1.09, 1.17)
    geom = build_cut_geometry(default_mesh, mu)
    with_k1 = PhysicsParams(gamma=(0.1, 0.001))
    without_k1 = PhysicsParams(gamma=(0.1,))
    a1 = assemble_system(geom, with_k1).A
    a0 = assemble_system(geom, without_k1).A
    assert np.array_equal(a1.data, a0.data)
    assert np.array_equal(a1.indices, a0.indices)


@pytest.mark.parametrize("mu", MUS, ids=str)
def test_evaluate_entries_matches_assembly_bitwise(default_mesh, default_phys, mu):
    geom = build_cut_geometry(default_mesh, mu)
    sys_ = assemble_system(geom, default_phys)
    coo = sys_.A.tocoo()
    ent = np.column_stack([coo.row, coo.col]).astype(np.int64)
    vent = np.arange(default_mesh.n_vertices, dtype=np.int64)
    vals_m, vals_v = evaluate_entries(geom, EntryPlan(default_mesh, default_phys, ent, vent))
    ref = np.asarray(sys_.A[ent[:, 0], ent[:, 1]]).ravel()
    assert np.array_equal(vals_m, ref)
    assert np.array_equal(vals_v, sys_.f)


def test_evaluate_entries_disjoint_support_zero(default_mesh, default_phys):
    geom = build_cut_geometry(default_mesh, ParameterPoint(1.0, 1.0))
    # opposite corners of the box: never share an element
    vals_m, _ = evaluate_entries(geom, EntryPlan(default_mesh, default_phys, [(0, 440)], []))
    assert vals_m[0] == 0.0


def test_evaluate_entries_rejects_out_of_range(default_mesh, default_phys):
    with pytest.raises(AssemblyError):
        EntryPlan(default_mesh, default_phys, [(0, 441)], [])
    with pytest.raises(AssemblyError):
        EntryPlan(default_mesh, default_phys, [], [-1])


# a physics with every term switched on and no default value
EDGE_PHYS = PhysicsParams(f_const=-3.7, g_coeffs=(0.2, 1.3, -0.7, 2.1),
                          nitsche_lambda=23.0, gamma=(0.37, 0.002))
_EDGE_MESHES = {nx: build_background_mesh(((-1.2, 1.2), (-1.2, 1.2)), 2.4 / nx) for nx in (7, 20, 40)}
_FULL_PLANS = {}


def _full_pattern_plan(nx):
    """A plan for every entry the mesh pattern can hold and every vertex."""
    if nx not in _FULL_PLANS:
        mesh = _EDGE_MESHES[nx]
        rows = np.repeat(np.arange(mesh.n_vertices), np.diff(mesh.pattern_indptr))
        ent = np.column_stack([rows, mesh.pattern_cols])
        _FULL_PLANS[nx] = ent, EntryPlan(mesh, EDGE_PHYS, ent, np.arange(mesh.n_vertices))
    return _FULL_PLANS[nx]


def _assert_entries_bitwise(nx, mu):
    ent, plan = _full_pattern_plan(nx)
    geom = build_cut_geometry(_EDGE_MESHES[nx], mu)
    sys_ = assemble_system(geom, EDGE_PHYS)
    vals_m, vals_v = evaluate_entries(geom, plan)
    ref = np.asarray(sys_.A[ent[:, 0], ent[:, 1]]).ravel()
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


def _element_major_rules(geom):
    """The rules element-major: the whole-triangle rule of each active
    element with the cut rows replaced by ``cut_rule``, and the interface
    rule per cut element and Gauss point."""
    mesh, rule = geom.mesh, geom.cut_rule
    vol_pts = mesh.whole_pts[geom.active_elements]
    vol_wts = mesh.whole_wts[geom.active_elements]
    cut_sel = geom.active_pos[geom.cut_elements]
    vol_pts[cut_sel] = rule.vol_pts.transpose(2, 1, 0)
    vol_wts[cut_sel] = rule.vol_wts.T
    seg_pts = rule.seg_pts.transpose(2, 0, 1)
    seg_wts = np.repeat(rule.seg_wts[:, None], 2, axis=1)
    return vol_pts, vol_wts, seg_pts, seg_wts, rule.normal.T


def _reference_matrices(geom, phys):
    """A, f and the norm matrix from the element-major rule arrays, slot by
    slot, with the blockwise element formulas the kernels must reproduce."""
    mesh = geom.mesh
    act, cut = geom.active_elements, geom.cut_elements
    vol_pts, vol_wts, seg_pts, seg_wts, seg_normal = _element_major_rules(geom)
    lam = phys.nitsche_lambda / mesh.h
    g0, gx, gy, gxy = phys.g_coeffs

    def bary(pts, rows):
        # the gradients of hats 1 and 2 are the rows of the inverse Jacobian
        v0 = mesh.vertices[mesh.triangles[rows, 0]]
        inv_j = mesh.bvec[rows, 1:]
        dx = pts[:, 0] - v0[:, 0]
        dy = pts[:, 1] - v0[:, 1]
        xi = inv_j[:, 0, 0] * dx + inv_j[:, 0, 1] * dy
        eta = inv_j[:, 1, 0] * dx + inv_j[:, 1, 1] * dy
        return (1.0 - xi - eta, xi, eta)

    b = mesh.bvec[act]
    wsum = np.zeros(act.size)
    for q in range(6):
        wsum = wsum + vol_wts[:, q]
    a_vol = np.zeros((act.size, 9))
    f_vol = np.zeros((act.size, 3))
    for a in range(3):
        for c in range(3):
            a_vol[:, 3 * a + c] = wsum * (b[:, a, 0] * b[:, c, 0] + b[:, a, 1] * b[:, c, 1])
    for q in range(6):
        p = bary(vol_pts[:, q], act)
        for a in range(3):
            f_vol[:, a] += vol_wts[:, q] * phys.f_const * p[a]

    b = mesh.bvec[cut]
    dn = [b[:, a, 0] * seg_normal[:, 0] + b[:, a, 1] * seg_normal[:, 1] for a in range(3)]
    a_nit = np.zeros((cut.size, 9))
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
                pen[:, 3 * a + c] += w * pq
            f_bnd[:, a] += w * (lam * (p[a] * g) - dn[a] * g)

    jv = mesh.facet_jump[geom.ghost_facets]
    coef = phys.gamma[0] * mesh.h * mesh.facet_len[geom.ghost_facets]
    ghost = coef[:, None, None] * (jv[:, :, None] * jv[:, None, :])
    nnz, _indptr, _cols, vol_pos, ghost_pos = assembly._pattern(mesh, act, geom.ghost_facets)
    cut_pos = vol_pos[geom.active_pos[cut]]
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
    return out[0], f, out[1]


@pytest.mark.parametrize("nx", [7, 20])
@settings(max_examples=15, deadline=None)
@given(r=st.floats(min_value=0.3, max_value=1.44), theta=st.floats(min_value=0.3, max_value=1.44))
@example(r=1.44, theta=1.44)
def test_assembly_matches_slotwise_reference_bitwise(nx, r, theta):
    geom = build_cut_geometry(_EDGE_MESHES[nx], ParameterPoint(r, theta))
    for phys in (PhysicsParams(), EDGE_PHYS):
        ref_a, ref_f, ref_norm = _reference_matrices(geom, phys)
        sys_ = assemble_system(geom, phys)
        assert sys_.A.data.tobytes() == ref_a.tobytes()
        assert sys_.f.tobytes() == ref_f.tobytes()
        assert assemble_norm_matrix(geom, phys).data.tobytes() == ref_norm.tobytes()


def test_evaluate_entries_rejects_a_geometry_on_another_mesh(default_mesh, default_phys):
    plan = EntryPlan(default_mesh, default_phys, [(0, 1)], [0])
    fine = build_background_mesh(((-1.2, 1.2), (-1.2, 1.2)), 0.06)
    geom = build_cut_geometry(fine, ParameterPoint(1.0, 1.0))
    with pytest.raises(AssemblyError, match="does not match"):
        evaluate_entries(geom, plan)


def _reference_pattern(mesh, triangles, facets):
    """Per-parameter pattern from np.unique over the active stencil codes."""
    n = mesh.n_vertices
    act_tris = mesh.triangles[triangles]
    vol_codes = np.repeat(act_tris, 3, axis=1).astype(np.int64) * n + np.tile(act_tris, (1, 3))
    patch = mesh.facet_patch[facets]
    ghost_codes = np.repeat(patch, 4, axis=1) * n + np.tile(patch, (1, 4))
    codes = np.unique(np.concatenate([vol_codes.ravel(), ghost_codes.ravel()]))
    indptr = np.searchsorted(codes // n, np.arange(n + 1))
    return (codes.size, indptr, codes % n,
            np.searchsorted(codes, vol_codes), np.searchsorted(codes, ghost_codes))


_PATTERN_MESH = build_background_mesh(((-1.2, 1.2), (-1.2, 1.2)), 0.125)


def _assert_csr_equal_to_reference(mu):
    geom = build_cut_geometry(_PATTERN_MESH, mu)
    new = assemble_system(geom, PhysicsParams()).A
    new_norm = assemble_norm_matrix(geom, PhysicsParams())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "_pattern", _reference_pattern)
        ref = assemble_system(geom, PhysicsParams()).A
        ref_norm = assemble_norm_matrix(geom, PhysicsParams())
    for a, b in ((new, ref), (new_norm, ref_norm)):
        assert a.indptr.dtype == b.indptr.dtype and a.indices.dtype == b.indices.dtype
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert a.data.tobytes() == b.data.tobytes()


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
