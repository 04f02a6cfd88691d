import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutrom._kernels import GAUSS_T, REF_ETA, REF_XI
from cutrom.geometry import (
    CUT,
    DEGEN_FACTOR,
    INSIDE,
    OUTSIDE,
    BackgroundMesh,
    CutGeometry,
    GeometryError,
    ParameterPoint,
    build_background_mesh,
    build_cut_geometry,
    level_set,
)

BOX = ((-1.2, 1.2), (-1.2, 1.2))

mu_values = st.floats(min_value=1.0, max_value=1.2)


def test_mesh_counts_default():
    mesh = build_background_mesh(BOX, 0.125)
    assert mesh.nx == 20
    assert mesh.h == pytest.approx(0.12, abs=1e-15)
    assert mesh.n_vertices == 441
    assert mesh.n_triangles == 800


def test_mesh_minimal_grid():
    mesh = build_background_mesh(((0.0, 1.0), (0.0, 1.0)), 1.0)
    assert mesh.nx == 1
    assert mesh.n_vertices == 4
    assert mesh.n_triangles == 2


def test_mesh_rejects_non_square():
    with pytest.raises(GeometryError):
        build_background_mesh(((0.0, 1.0), (0.0, 2.0)), 0.5)


def test_mesh_rejects_bad_h():
    with pytest.raises(GeometryError):
        build_background_mesh(BOX, 0.0)


def test_triangle_orientation_and_h():
    mesh = build_background_mesh(BOX, 0.125)
    assert (mesh.tri_area > 0).all()
    assert mesh.tri_area.sum() == pytest.approx(5.76, abs=1e-12)


def test_facet_adjacency_counts():
    mesh = build_background_mesh(BOX, 0.125)
    assert ((mesh.facet_tris >= 0).sum(axis=1) >= 1).all()
    interior = (mesh.facet_tris[:, 1] >= 0).sum()
    boundary = (mesh.facet_tris[:, 1] < 0).sum()
    assert boundary == 4 * mesh.nx  # hypotenuses never lie on the box edge
    assert interior + boundary == mesh.facets.shape[0]


def test_level_set_values():
    mu = ParameterPoint(1.0, 1.0)
    assert level_set(mu, 0.0, 0.0) == -1.0
    assert level_set(mu, 1.0, 0.0) == 0.0
    mu2 = ParameterPoint(1.2, 1.0)
    assert level_set(mu2, np.sqrt(1.2), 0.0) == pytest.approx(0.0, abs=1e-15)


def test_parameter_validation():
    with pytest.raises(GeometryError):
        ParameterPoint(0.0, 1.0)
    with pytest.raises(GeometryError):
        ParameterPoint(1.0, -0.5)


def test_circle_area_and_perimeter(default_mesh):
    geom = build_cut_geometry(default_mesh, ParameterPoint(1.0, 1.0))
    assert geom.volume_weight_sum() == pytest.approx(np.pi, rel=0.02)
    assert geom.boundary_weight_sum() == pytest.approx(2 * np.pi, rel=0.02)


def test_outside_elements_have_no_quadrature(default_mesh):
    geom = build_cut_geometry(default_mesh, ParameterPoint(1.0, 1.0))
    outside = np.flatnonzero(geom.elem_class == OUTSIDE)
    assert np.intersect1d(outside, geom.active_elements).size == 0
    # per-parameter weights live on the cut rule only, one column per cut element
    rule = geom.cut_rule
    assert rule.vol_wts.shape[1] == rule.seg_wts.shape[0] == geom.cut_elements.size
    assert np.intersect1d(outside, geom.cut_elements).size == 0


@settings(max_examples=25, deadline=None)
@given(r=mu_values, theta=mu_values)
def test_classification_partition(r, theta):
    mesh = _MESH
    geom = build_cut_geometry(mesh, ParameterPoint(r, theta))
    counts = [(geom.elem_class == c).sum() for c in (INSIDE, CUT, OUTSIDE)]
    assert sum(counts) == mesh.n_triangles
    assert np.array_equal(
        np.sort(np.concatenate([
            np.flatnonzero(geom.elem_class == INSIDE),
            np.flatnonzero(geom.elem_class == CUT),
        ])),
        geom.active_elements,
    )
    assert 0.0 < geom.volume_weight_sum() < 5.76


@settings(max_examples=25, deadline=None)
@given(r=mu_values, theta=mu_values)
def test_ghost_facets_interior_to_active(r, theta):
    mesh = _MESH
    geom = build_cut_geometry(mesh, ParameterPoint(r, theta))
    for f in geom.ghost_facets:
        ta, tb = mesh.facet_tris[f]
        assert ta >= 0 and tb >= 0
        assert geom.elem_class[ta] != OUTSIDE and geom.elem_class[tb] != OUTSIDE
        assert geom.elem_class[ta] == CUT or geom.elem_class[tb] == CUT


@settings(max_examples=20, deadline=None)
@given(r=mu_values, theta=mu_values)
def test_boundary_normals_unit(r, theta):
    geom = build_cut_geometry(_MESH, ParameterPoint(r, theta))
    norms = np.hypot(*geom.cut_rule.normal)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_area_accuracy_and_convergence():
    mu = ParameterPoint(1.07, 1.13)
    exact = np.pi * np.sqrt(mu.r * mu.theta)
    errs = []
    for h in (0.125, 0.0625):
        mesh = build_background_mesh(BOX, h)
        geom = build_cut_geometry(mesh, mu)
        errs.append(abs(geom.volume_weight_sum() - exact))
    assert errs[0] / exact <= 0.02
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_deterministic_rebuild(default_mesh):
    mu = ParameterPoint(1.083, 1.127)
    g1 = build_cut_geometry(default_mesh, mu)
    g2 = build_cut_geometry(default_mesh, mu)
    for f in dataclasses.fields(g1.cut_rule):
        assert np.array_equal(getattr(g1.cut_rule, f.name), getattr(g2.cut_rule, f.name)), f.name
    assert np.array_equal(g1.elem_class, g2.elem_class)
    assert np.array_equal(g1.ghost_facets, g2.ghost_facets)


def test_degenerate_cut_reported_and_skipped():
    # vertex (1,1) sits exactly on the ellipse for mu=(2,2); both triangles
    # classify as cut with a zero-length interface segment
    mesh = build_background_mesh(((1.0, 3.0), (1.0, 3.0)), 2.0)
    geom = build_cut_geometry(mesh, ParameterPoint(2.0, 2.0))
    assert (geom.elem_class == CUT).all()
    assert geom.degenerate_elements == [0, 1]
    assert geom.cut_rule.seg_wts.sum() == 0.0
    assert geom.volume_weight_sum() == 0.0


_MESH = build_background_mesh(BOX, 0.125)


def _reference_triangles(nx):
    """Triangle table built cell by cell, in the order the mesh promises."""
    tris = np.empty((2 * nx * nx, 3), dtype=np.int64)
    t = 0
    for iy in range(nx):
        for ix in range(nx):
            bl = iy * (nx + 1) + ix
            br, tl = bl + 1, bl + nx + 1
            tr = tl + 1
            tris[t] = (bl, br, tr)
            tris[t + 1] = (bl, tr, tl)
            t += 2
    return tris


def _reference_facet_patches(mesh):
    """Facet patches and jumps facet by facet, slot by slot."""
    n_f = mesh.facets.shape[0]
    patch = np.full((n_f, 4), -1, dtype=np.int64)
    jump = np.zeros((n_f, 4))
    patch[:, :2] = mesh.facets
    for f in np.flatnonzero(mesh.facet_tris[:, 1] >= 0):
        ta, tb = mesh.facet_tris[f]
        fa, fb = mesh.facets[f]
        patch[f, 2] = [v for v in mesh.triangles[ta] if v != fa and v != fb][0]
        patch[f, 3] = [v for v in mesh.triangles[tb] if v != fa and v != fb][0]
        n = mesh.facet_normal[f]
        for slot, dof in enumerate(patch[f]):
            da = db = 0.0
            loc = np.flatnonzero(mesh.triangles[ta] == dof)
            if loc.size:
                da = mesh.bvec[ta, loc[0], 0] * n[0] + mesh.bvec[ta, loc[0], 1] * n[1]
            loc = np.flatnonzero(mesh.triangles[tb] == dof)
            if loc.size:
                db = mesh.bvec[tb, loc[0], 0] * n[0] + mesh.bvec[tb, loc[0], 1] * n[1]
            jump[f, slot] = da - db
    return patch, jump


@pytest.mark.parametrize("nx", [2, 3, 7])
def test_vectorized_mesh_build_matches_loops_bitwise(nx):
    mesh = build_background_mesh(BOX, 2.4 / nx)
    assert mesh.nx == nx
    assert np.array_equal(mesh.triangles, _reference_triangles(nx))
    assert mesh.triangles.dtype == np.int64
    patch, jump = _reference_facet_patches(mesh)
    assert np.array_equal(mesh.facet_patch, patch)
    assert mesh.facet_jump.tobytes() == jump.tobytes()


# ---------------------------------------------------------------------------
# per-parameter geometry against the whole-mesh construction it replaced
# ---------------------------------------------------------------------------

def _reference_cut_rules(tri_pts, phi, bvec, degen_tol):
    """Cut rules with one fancy-index store per point column."""
    k = tri_pts.shape[0]
    vol_pts = np.zeros((k, 6, 2))
    vol_wts = np.zeros((k, 6))
    seg_pts = np.zeros((k, 2, 2))
    seg_wts = np.zeros((k, 2))
    seg_nrm = np.zeros((k, 2))
    degen = np.zeros(k, dtype=np.uint8)
    if k == 0:
        return vol_pts, vol_wts, seg_pts, seg_wts, seg_nrm, degen
    gx = bvec[:, 0, 0] * phi[:, 0] + bvec[:, 1, 0] * phi[:, 1] + bvec[:, 2, 0] * phi[:, 2]
    gy = bvec[:, 0, 1] * phi[:, 0] + bvec[:, 1, 1] * phi[:, 1] + bvec[:, 2, 1] * phi[:, 2]
    gn = np.sqrt(gx * gx + gy * gy)
    seg_nrm[:, 0] = gx / gn
    seg_nrm[:, 1] = gy / gn
    inside = phi <= 0.0
    nin = inside.sum(axis=1)
    q1 = np.zeros((k, 2))
    q2 = np.zeros((k, 2))

    def store(rows, slot, va, vb, vc, area):
        for q in range(3):
            for d in range(2):
                vol_pts[rows, slot + q, d] = (
                    va[:, d] + REF_XI[q] * (vb[:, d] - va[:, d]) + REF_ETA[q] * (vc[:, d] - va[:, d])
                )
            vol_wts[rows, slot + q] = area / 3.0

    def cross_area(va, vb, vc):
        cross = (vb[:, 0] - va[:, 0]) * (vc[:, 1] - va[:, 1]) - (
            vb[:, 1] - va[:, 1]
        ) * (vc[:, 0] - va[:, 0])
        return 0.5 * np.abs(cross)

    one = np.flatnonzero(nin == 1)
    if one.size:
        a = np.argmax(inside[one], axis=1)
        b, c = (a + 1) % 3, (a + 2) % 3
        va, vb, vc = tri_pts[one, a], tri_pts[one, b], tri_pts[one, c]
        pa, pb, pc = phi[one, a], phi[one, b], phi[one, c]
        p_ab = va + (pa / (pa - pb))[:, None] * (vb - va)
        p_ac = va + (pa / (pa - pc))[:, None] * (vc - va)
        store(one, 0, va, p_ab, p_ac, cross_area(va, p_ab, p_ac))
        for q in range(3, 6):
            for d in range(2):
                vol_pts[one, q, d] = va[:, d]
        q1[one] = p_ab
        q2[one] = p_ac

    two = np.flatnonzero(nin == 2)
    if two.size:
        c = np.argmax(~inside[two], axis=1)
        a, b = (c + 1) % 3, (c + 2) % 3
        va, vb, vc = tri_pts[two, a], tri_pts[two, b], tri_pts[two, c]
        pa, pb, pc = phi[two, a], phi[two, b], phi[two, c]
        p_ac = va + (pa / (pa - pc))[:, None] * (vc - va)
        p_bc = vb + (pb / (pb - pc))[:, None] * (vc - vb)
        store(two, 0, va, vb, p_bc, cross_area(va, vb, p_bc))
        store(two, 3, va, p_bc, p_ac, cross_area(va, p_bc, p_ac))
        q1[two] = p_ac
        q2[two] = p_bc

    dx = q2[:, 0] - q1[:, 0]
    dy = q2[:, 1] - q1[:, 1]
    seg_len = np.sqrt(dx * dx + dy * dy)
    for q in range(2):
        seg_pts[:, q, 0] = q1[:, 0] + GAUSS_T[q] * dx
        seg_pts[:, q, 1] = q1[:, 1] + GAUSS_T[q] * dy
    ok = seg_len >= degen_tol
    degen[~ok] = 1
    seg_wts[ok, 0] = 0.5 * seg_len[ok]
    seg_wts[ok, 1] = 0.5 * seg_len[ok]
    return vol_pts, vol_wts, seg_pts, seg_wts, seg_nrm, degen


def _reference_cut_geometry(mesh, mu):
    """Whole-mesh construction: ghost mask over all facets, inside rules
    point by point, active dofs by ``np.unique``.  Returns the
    ``CutGeometry`` fields by name, next to the element-major rule arrays
    (``vol_pts``/``vol_wts`` per active element, ``seg_pts``/``seg_wts``/
    ``seg_normal`` per cut element)."""
    phi_v = level_set(mu, mesh.vertices[:, 0], mesh.vertices[:, 1])
    tri_phi = phi_v[mesh.triangles]
    n_neg = (tri_phi <= 0.0).sum(axis=1)
    elem_class = np.full(mesh.n_triangles, CUT, dtype=np.uint8)
    elem_class[n_neg == 3] = INSIDE
    elem_class[n_neg == 0] = OUTSIDE
    active = np.flatnonzero(elem_class != OUTSIDE)
    cut = np.flatnonzero(elem_class == CUT)
    active_pos = np.full(mesh.n_triangles, -1, dtype=np.int64)
    active_pos[active] = np.arange(active.size)
    cut_pos = np.full(mesh.n_triangles, -1, dtype=np.int64)
    cut_pos[cut] = np.arange(cut.size)

    ft = mesh.facet_tris
    interior = ft[:, 1] >= 0
    cls0 = np.where(interior, elem_class[ft[:, 0]], OUTSIDE)
    cls1 = np.where(interior, elem_class[np.where(interior, ft[:, 1], 0)], OUTSIDE)
    ghost_mask = interior & ((cls0 == CUT) | (cls1 == CUT)) & (cls0 != OUTSIDE) & (cls1 != OUTSIDE)

    vol_pts = np.zeros((active.size, 6, 2))
    vol_wts = np.zeros((active.size, 6))
    ins_sel = np.flatnonzero(elem_class[active] == INSIDE)
    tri_ids = active[ins_sel]
    p0, p1, p2 = (mesh.vertices[mesh.triangles[tri_ids, j]] for j in range(3))
    for q in range(3):
        for d in range(2):
            vol_pts[ins_sel, q, d] = (
                p0[:, d] + REF_XI[q] * (p1[:, d] - p0[:, d]) + REF_ETA[q] * (p2[:, d] - p0[:, d])
            )
        vol_wts[ins_sel, q] = mesh.tri_area[tri_ids] / 3.0
    for q in range(3, 6):
        for d in range(2):
            vol_pts[ins_sel, q, d] = p0[:, d]

    c_vol_pts, c_vol_wts, seg_pts, seg_wts, seg_nrm, degen = _reference_cut_rules(
        mesh.vertices[mesh.triangles[cut]], tri_phi[cut], mesh.bvec[cut], DEGEN_FACTOR * mesh.h,
    )
    vol_pts[active_pos[cut]] = c_vol_pts
    vol_wts[active_pos[cut]] = c_vol_wts
    return dict(
        elem_class=elem_class, active_elements=active, cut_elements=cut,
        ghost_facets=np.flatnonzero(ghost_mask),
        active_dofs=np.unique(mesh.triangles[active].ravel()),
        cut_pos=cut_pos, active_pos=active_pos, ghost_mask=ghost_mask,
        degenerate_elements=[int(cut[i]) for i in np.flatnonzero(degen)],
        vol_pts=vol_pts, vol_wts=vol_wts, seg_pts=seg_pts, seg_wts=seg_wts, seg_normal=seg_nrm,
    )


def _assert_bytes_equal(a, b, name):
    assert a.dtype == b.dtype and a.shape == b.shape, name
    assert a.tobytes() == b.tobytes(), name


def _assert_geometry_bitwise(mesh, mu):
    new = build_cut_geometry(mesh, mu)
    ref = _reference_cut_geometry(mesh, mu)
    for f in dataclasses.fields(CutGeometry):
        if f.name in ref and isinstance(ref[f.name], np.ndarray):
            _assert_bytes_equal(getattr(new, f.name), ref[f.name], f.name)
    assert new.degenerate_elements == ref["degenerate_elements"]
    # the reference's element-major rules: inside rows are the mesh's
    # whole-triangle rules, cut rows the component-major cut rule
    act, cut, rule = new.active_elements, new.cut_elements, new.cut_rule
    ins_sel = np.flatnonzero(new.elem_class[act] == INSIDE)
    cut_sel = new.active_pos[cut]
    assert ins_sel.size + cut_sel.size == act.size
    _assert_bytes_equal(ref["vol_pts"][ins_sel], mesh.whole_pts[act[ins_sel]], "inside vol_pts")
    _assert_bytes_equal(ref["vol_wts"][ins_sel], mesh.whole_wts[act[ins_sel]], "inside vol_wts")
    _assert_bytes_equal(ref["vol_pts"][cut_sel], rule.vol_pts.transpose(2, 1, 0), "cut vol_pts")
    _assert_bytes_equal(ref["vol_wts"][cut_sel], rule.vol_wts.T, "cut vol_wts")
    _assert_bytes_equal(ref["seg_pts"], rule.seg_pts.transpose(2, 0, 1), "seg_pts")
    for q in range(2):
        _assert_bytes_equal(ref["seg_wts"][:, q], rule.seg_wts, "seg_wts")
    _assert_bytes_equal(ref["seg_normal"], rule.normal.T, "seg_normal")
    _assert_bytes_equal(rule.tri, mesh.tri_comp[:, cut], "tri")
    return new


_LADDER = {nx: build_background_mesh(BOX, 2.4 / nx) for nx in (2, 3, 7, 20)}


@pytest.mark.parametrize("nx", sorted(_LADDER))
@settings(max_examples=25, deadline=None)
@given(r=st.floats(min_value=0.3, max_value=1.44), theta=st.floats(min_value=0.3, max_value=1.44))
@example(r=1.44, theta=1.44)
def test_cut_geometry_matches_whole_mesh_reference_bitwise(nx, r, theta):
    _assert_geometry_bitwise(_LADDER[nx], ParameterPoint(r, theta))


@pytest.mark.parametrize("nx", [3, 7, 20])
def test_cut_geometry_matches_reference_with_a_vertex_on_the_interface(nx):
    # mu = (2 x^2, 2 y^2) puts the vertex (x, y) exactly on phi = 0; pick the
    # off-axis vertex whose mu lies nearest the middle of [0.3, 1.44].  At
    # nx = 2 the only off-axis vertices are the box corners; there the
    # (1.44, 1.44) example puts the four edge midpoints on phi = 0
    mesh = _LADDER[nx]
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    off_axis = np.flatnonzero((x != 0.0) & (y != 0.0))
    v = off_axis[np.argmin(np.abs(2 * x[off_axis] ** 2 - 0.9) + np.abs(2 * y[off_axis] ** 2 - 0.9))]
    mu = ParameterPoint(2 * x[v] ** 2, 2 * y[v] ** 2)
    assert level_set(mu, x, y)[v] == 0.0
    assert _assert_geometry_bitwise(mesh, mu).cut_elements.size > 0


@pytest.mark.parametrize("nx", sorted(_LADDER))
@settings(max_examples=10, deadline=None)
@given(r=st.floats(min_value=0.3, max_value=1.44), theta=st.floats(min_value=0.3, max_value=1.44))
@example(r=1.44, theta=1.44)
def test_weight_sums_match_element_major_reference(nx, r, theta):
    mesh = _LADDER[nx]
    mu = ParameterPoint(r, theta)
    geom = build_cut_geometry(mesh, mu)
    ref = _reference_cut_geometry(mesh, mu)
    for got, want in ((geom.volume_weight_sum(), ref["vol_wts"].sum()),
                      (geom.boundary_weight_sum(), ref["seg_wts"].sum())):
        assert abs(got - want) <= 1e-14 * abs(want)


def test_component_table_matches_mesh_arrays():
    mesh = _LADDER[7]
    for a in range(3):
        assert np.array_equal(mesh.tri_comp[a], mesh.vertices[mesh.triangles[:, a], 0])
        assert np.array_equal(mesh.tri_comp[3 + a], mesh.vertices[mesh.triangles[:, a], 1])
        assert np.array_equal(mesh.tri_comp[6 + a], mesh.bvec[:, a, 0])
        assert np.array_equal(mesh.tri_comp[9 + a], mesh.bvec[:, a, 1])
    # the kernels read the affine origin and the inverse Jacobian from it
    p0, p1, p2 = (mesh.vertices[mesh.triangles[:, j]] for j in range(3))
    jac = np.stack([p1 - p0, p2 - p0], axis=2)
    assert np.allclose(mesh.tri_comp[[7, 10, 8, 11]].T.reshape(-1, 2, 2) @ jac, np.eye(2), atol=1e-14)
    assert np.array_equal(mesh.tri_comp[[0, 3]].T, p0)


def test_cut_geometry_matches_reference_on_degenerate_segments():
    # (1.44, 1.44) touches the box edge at the four edge midpoints, which are
    # vertices on an even grid; a one-cell mesh with its corner on the ellipse
    geom = _assert_geometry_bitwise(_LADDER[20], ParameterPoint(1.44, 1.44))
    assert len(geom.degenerate_elements) > 0
    corner = build_background_mesh(((1.0, 3.0), (1.0, 3.0)), 2.0)
    geom = _assert_geometry_bitwise(corner, ParameterPoint(2.0, 2.0))
    assert geom.degenerate_elements == [0, 1]


# ---------------------------------------------------------------------------
# per-mesh tables
# ---------------------------------------------------------------------------

def _assert_tri_facet_map(mesh):
    tf = mesh.tri_facets
    assert tf.shape == (mesh.n_triangles, 3) and tf.dtype == np.int64
    for t in range(mesh.n_triangles):
        named = np.flatnonzero((mesh.facet_tris == t).any(axis=1))
        assert np.array_equal(np.sort(tf[t]), named)
        for k in range(3):
            edge = sorted((mesh.triangles[t, k], mesh.triangles[t, (k + 1) % 3]))
            assert list(mesh.facets[tf[t, k]]) == edge
    for f in np.flatnonzero(mesh.facet_tris[:, 1] >= 0):
        ta, tb = mesh.facet_tris[f]
        assert f in tf[ta] and f in tf[tb]


def _reference_whole_rules(mesh):
    pts = np.empty((mesh.n_triangles, 6, 2))
    wts = np.zeros((mesh.n_triangles, 6))
    for t in range(mesh.n_triangles):
        p0, p1, p2 = (mesh.vertices[mesh.triangles[t, j]] for j in range(3))
        for q in range(3):
            for d in range(2):
                pts[t, q, d] = p0[d] + REF_XI[q] * (p1[d] - p0[d]) + REF_ETA[q] * (p2[d] - p0[d])
            wts[t, q] = mesh.tri_area[t] / 3.0
        pts[t, 3:] = p0
    return pts, wts


@pytest.mark.parametrize("nx", [2, 3, 7])
def test_mesh_tables_match_loops(nx):
    mesh = build_background_mesh(BOX, 2.4 / nx)
    _assert_tri_facet_map(mesh)
    pts, wts = _reference_whole_rules(mesh)
    assert mesh.whole_pts.shape == pts.shape and mesh.whole_pts.tobytes() == pts.tobytes()
    assert mesh.whole_wts.shape == wts.shape and mesh.whole_wts.tobytes() == wts.tobytes()


def test_tri_facet_map_on_an_unstructured_mesh():
    # a hexagon fan around an off-centre hub, then one ring of outer
    # triangles: not a criss grid, and vertex valences differ
    ang = np.arange(6) * np.pi / 3.0
    ring = np.column_stack([np.cos(ang), np.sin(ang)])
    outer = 2.0 * np.column_stack([np.cos(ang + np.pi / 6), np.sin(ang + np.pi / 6)])
    vertices = np.vstack([[0.1, -0.05], ring, outer])
    fan = [(0, 1 + i, 1 + (i + 1) % 6) for i in range(6)]
    caps = [(1 + i, 7 + i, 1 + (i + 1) % 6) for i in range(6)]
    tris = np.array(fan + caps, dtype=np.int64)
    mesh = BackgroundMesh(vertices, tris, 2, (-2.0, 2.0))
    assert (mesh.facet_tris[:, 1] >= 0).sum() == 12
    _assert_tri_facet_map(mesh)
    pts, wts = _reference_whole_rules(mesh)
    assert mesh.whole_pts.tobytes() == pts.tobytes() and mesh.whole_wts.tobytes() == wts.tobytes()
    assert _assert_geometry_bitwise(mesh, ParameterPoint(0.8, 0.6)).ghost_facets.size > 0


def test_mesh_with_a_vertex_outside_every_triangle_rejected():
    # the active-dof marking counts every vertex with phi <= 0 as active
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]])
    with pytest.raises(GeometryError, match="every vertex"):
        BackgroundMesh(vertices, np.array([[0, 1, 2]], dtype=np.int64), 1, (0.0, 1.0))
