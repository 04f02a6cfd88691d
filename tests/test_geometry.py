import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutrom._kernels import GAUSS_T
from cutrom.assembly import _select, _select_mesh
from cutrom.geometry import (
    CUT,
    DEGEN_FACTOR,
    INSIDE,
    OUTSIDE,
    BackgroundMesh,
    GeometryError,
    ParameterPoint,
    build_background_mesh,
    build_cut_geometry,
    cut_rule,
    level_set,
)

BOX = ((-1.2, 1.2), (-1.2, 1.2))
# the whole-mesh sets a CutGeometry derives from its classification
DERIVED = ("cut_elements", "active_dofs")

mu_values = st.floats(min_value=1.0, max_value=1.2)


def _selection(geom):
    """The terms assembly selects on the whole mesh at ``geom``
    (``assembly._select``), by the names of the reference's sets."""
    act, cut, _, ghost = _select_mesh(geom)
    return dict(active_elements=act, cut_elements=cut, ghost_facets=ghost)


def _all_cut_rule(geom):
    """The cut rule of every cut element of ``geom``."""
    mesh, cut = geom.mesh, geom.cut_elements
    return cut_rule(mesh.tri_comp[:, cut], geom.phi[mesh.triangles_t[:, cut]], mesh.h)


def _degenerate_elements(geom):
    """The cut elements of ``geom`` whose interface segment is degenerate."""
    return geom.cut_elements[_all_cut_rule(geom).degenerate].tolist()


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


def test_circle_area_and_perimeter(default_mesh, domain_area):
    geom = build_cut_geometry(default_mesh, ParameterPoint(1.0, 1.0))
    rule = _all_cut_rule(geom)
    assert domain_area(geom, rule) == pytest.approx(np.pi, rel=0.02)
    assert 2.0 * rule.seg_wts.sum() == pytest.approx(2 * np.pi, rel=0.02)


def test_outside_elements_have_no_quadrature(default_mesh):
    geom = build_cut_geometry(default_mesh, ParameterPoint(1.0, 1.0))
    outside = np.flatnonzero(geom.elem_class == OUTSIDE)
    assert np.intersect1d(outside, _selection(geom)["active_elements"]).size == 0
    # per-parameter weights live on the cut rule only, one column per cut element
    rule = _all_cut_rule(geom)
    assert rule.vol_wts.shape[1] == rule.seg_wts.shape[0] == geom.cut_elements.size
    assert np.intersect1d(outside, geom.cut_elements).size == 0


@settings(max_examples=25, deadline=None)
@given(r=mu_values, theta=mu_values)
def test_classification_partition(domain_area, r, theta):
    mesh = _MESH
    geom = build_cut_geometry(mesh, ParameterPoint(r, theta))
    counts = [(geom.elem_class == c).sum() for c in (INSIDE, CUT, OUTSIDE)]
    assert sum(counts) == mesh.n_triangles
    assert np.array_equal(
        np.sort(np.concatenate([
            np.flatnonzero(geom.elem_class == INSIDE),
            np.flatnonzero(geom.elem_class == CUT),
        ])),
        _selection(geom)["active_elements"],
    )
    assert 0.0 < domain_area(geom, _all_cut_rule(geom)) < 5.76


@settings(max_examples=25, deadline=None)
@given(r=mu_values, theta=mu_values)
def test_ghost_facets_interior_to_active(small_run, near_tangent_mu, r, theta):
    # the ghost facets are exactly the interior facets with both neighbours
    # active and one of them cut, on the whole mesh and on a plan's piece
    art, _ = small_run
    mesh, plan = art.mesh, art.plan
    interior = np.flatnonzero(mesh.facet_tris[:, 1] >= 0)
    for mu in [ParameterPoint(r, theta), *near_tangent_mu]:
        geom = build_cut_geometry(mesh, mu)
        act, cut, _, ghost = _select_mesh(geom)
        for f in ghost:
            ta, tb = mesh.facet_tris[f]
            assert ta >= 0 and tb >= 0
            assert geom.elem_class[ta] != OUTSIDE and geom.elem_class[tb] != OUTSIDE
            assert geom.elem_class[ta] == CUT or geom.elem_class[tb] == CUT
        cls = geom.elem_class[mesh.facet_tris[interior]]
        meets = (cls != OUTSIDE).all(axis=1) & (cls == CUT).any(axis=1)
        assert np.array_equal(ghost, interior[meets])
        # the plan's selection is the whole mesh's on every plan triangle and facet
        p_act, p_cut, p_place, p_ghost = _select(geom.elem_class[plan.tris],
                                                 geom.elem_class[plan.facet_pairs])
        assert np.array_equal(plan.tris[p_act], np.intersect1d(act, plan.tris))
        assert np.array_equal(plan.tris[p_cut], np.intersect1d(cut, plan.tris))
        assert np.array_equal(p_act[p_place], p_cut)
        assert np.array_equal(plan.facets[p_ghost], np.intersect1d(ghost, plan.facets))


@settings(max_examples=20, deadline=None)
@given(r=mu_values, theta=mu_values)
def test_boundary_normals_unit(r, theta):
    geom = build_cut_geometry(_MESH, ParameterPoint(r, theta))
    norms = np.hypot(*_all_cut_rule(geom).normal)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_area_accuracy_and_convergence(domain_area):
    mu = ParameterPoint(1.07, 1.13)
    exact = np.pi * np.sqrt(mu.r * mu.theta)
    errs = []
    for h in (0.125, 0.0625):
        mesh = build_background_mesh(BOX, h)
        geom = build_cut_geometry(mesh, mu)
        errs.append(abs(domain_area(geom, _all_cut_rule(geom)) - exact))
    assert errs[0] / exact <= 0.02
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_deterministic_rebuild(default_mesh):
    mu = ParameterPoint(1.083, 1.127)
    g1 = build_cut_geometry(default_mesh, mu)
    g2 = build_cut_geometry(default_mesh, mu)
    r1, r2 = _all_cut_rule(g1), _all_cut_rule(g2)
    for f in dataclasses.fields(r1):
        assert np.array_equal(getattr(r1, f.name), getattr(r2, f.name)), f.name
    assert np.array_equal(g1.elem_class, g2.elem_class)
    assert np.array_equal(_selection(g1)["ghost_facets"], _selection(g2)["ghost_facets"])


def test_degenerate_cut_reported_and_skipped(domain_area):
    # vertex (1,1) sits exactly on the ellipse for mu=(2,2); both triangles
    # classify as cut with a zero-length interface segment
    mesh = build_background_mesh(((1.0, 3.0), (1.0, 3.0)), 2.0)
    geom = build_cut_geometry(mesh, ParameterPoint(2.0, 2.0))
    assert (geom.elem_class == CUT).all()
    assert _degenerate_elements(geom) == [0, 1]
    assert _all_cut_rule(geom).seg_wts.sum() == 0.0
    assert domain_area(geom, _all_cut_rule(geom)) == 0.0


_MESH = build_background_mesh(BOX, 0.125)


def _gradients(mesh):
    """Hat gradients (n_triangles, 3, 2) by local vertex and coordinate."""
    return mesh.tri_comp[6:12].reshape(2, 3, -1).transpose(2, 1, 0)


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
    grad = _gradients(mesh)
    for f in np.flatnonzero(mesh.facet_tris[:, 1] >= 0):
        ta, tb = mesh.facet_tris[f]
        fa, fb = mesh.facets[f]
        patch[f, 2] = [v for v in mesh.triangles[ta] if v != fa and v != fb][0]
        patch[f, 3] = [v for v in mesh.triangles[tb] if v != fa and v != fb][0]
        tangent = mesh.vertices[fb] - mesh.vertices[fa]
        n = np.array([tangent[1], -tangent[0]]) / np.sqrt(
            tangent[0] * tangent[0] + tangent[1] * tangent[1])
        for slot, dof in enumerate(patch[f]):
            da = db = 0.0
            loc = np.flatnonzero(mesh.triangles[ta] == dof)
            if loc.size:
                da = grad[ta, loc[0], 0] * n[0] + grad[ta, loc[0], 1] * n[1]
            loc = np.flatnonzero(mesh.triangles[tb] == dof)
            if loc.size:
                db = grad[tb, loc[0], 0] * n[0] + grad[tb, loc[0], 1] * n[1]
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

def _reference_cut_rules(tri_pts, phi, grad, degen_tol):
    """Cut rules with one fancy-index store per point column: the centroid
    and area of each sub-triangle."""
    k = tri_pts.shape[0]
    vol_pts = np.zeros((k, 2, 2))
    vol_wts = np.zeros((k, 2))
    seg_pts = np.zeros((k, 2, 2))
    seg_wts = np.zeros((k, 2))
    seg_nrm = np.zeros((k, 2))
    degen = np.zeros(k, dtype=np.uint8)
    if k == 0:
        return vol_pts, vol_wts, seg_pts, seg_wts, seg_nrm, degen
    gx = grad[:, 0, 0] * phi[:, 0] + grad[:, 1, 0] * phi[:, 1] + grad[:, 2, 0] * phi[:, 2]
    gy = grad[:, 0, 1] * phi[:, 0] + grad[:, 1, 1] * phi[:, 1] + grad[:, 2, 1] * phi[:, 2]
    gn = np.sqrt(gx * gx + gy * gy)
    seg_nrm[:, 0] = gx / gn
    seg_nrm[:, 1] = gy / gn
    inside = phi <= 0.0
    nin = inside.sum(axis=1)
    q1 = np.zeros((k, 2))
    q2 = np.zeros((k, 2))

    def store(rows, slot, va, vb, vc, area):
        for d in range(2):
            vol_pts[rows, slot, d] = va[:, d] + ((vb[:, d] - va[:, d]) + (vc[:, d] - va[:, d])) / 3.0
        vol_wts[rows, slot] = area

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
        # the second slot has zero area at the lone vertex
        for d in range(2):
            vol_pts[one, 1, d] = va[:, d]
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
        store(two, 1, va, p_bc, p_ac, cross_area(va, p_bc, p_ac))
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
    """Whole-mesh construction: ghost mask over all facets, active dofs by
    ``np.unique``.  Returns the ``CutGeometry`` fields and the sets of the
    whole-mesh selection (``_selection``) by name, next to the
    element-major rule arrays (``vol_pts``/``vol_wts`` per active element:
    a whole triangle's area in slot 0, the sub-triangles' centroids and
    areas on cut rows; ``seg_pts``/``seg_wts``/``seg_normal`` per cut
    element)."""
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

    ft = mesh.facet_tris
    interior = ft[:, 1] >= 0
    cls0 = np.where(interior, elem_class[ft[:, 0]], OUTSIDE)
    cls1 = np.where(interior, elem_class[np.where(interior, ft[:, 1], 0)], OUTSIDE)
    ghost_mask = interior & ((cls0 == CUT) | (cls1 == CUT)) & (cls0 != OUTSIDE) & (cls1 != OUTSIDE)

    vol_pts = np.zeros((active.size, 2, 2))
    vol_wts = np.zeros((active.size, 2))
    ins_sel = np.flatnonzero(elem_class[active] == INSIDE)
    vol_wts[ins_sel, 0] = mesh.tri_area[active[ins_sel]]

    c_vol_pts, c_vol_wts, seg_pts, seg_wts, seg_nrm, degen = _reference_cut_rules(
        mesh.vertices[mesh.triangles[cut]], tri_phi[cut], _gradients(mesh)[cut],
        DEGEN_FACTOR * mesh.h,
    )
    vol_pts[active_pos[cut]] = c_vol_pts
    vol_wts[active_pos[cut]] = c_vol_wts
    return dict(
        elem_class=elem_class, active_elements=active, cut_elements=cut,
        ghost_facets=np.flatnonzero(ghost_mask),
        active_dofs=np.unique(mesh.triangles[active].ravel()),
        phi=phi_v, active_pos=active_pos, ghost_mask=ghost_mask,
        degenerate_elements=[int(cut[i]) for i in np.flatnonzero(degen)],
        vol_pts=vol_pts, vol_wts=vol_wts, seg_pts=seg_pts, seg_wts=seg_wts, seg_normal=seg_nrm,
    )


def _assert_bytes_equal(a, b, name):
    assert a.dtype == b.dtype and a.shape == b.shape, name
    assert a.tobytes() == b.tobytes(), name


def _assert_geometry_bitwise(mesh, mu):
    new = build_cut_geometry(mesh, mu)
    ref = _reference_cut_geometry(mesh, mu)
    for name in ("phi", "elem_class", *DERIVED):
        _assert_bytes_equal(getattr(new, name), ref[name], name)
    selected = _selection(new)
    for name, got in selected.items():
        _assert_bytes_equal(got, ref[name], name)
    ghost_mask = np.zeros(mesh.facets.shape[0], dtype=bool)
    ghost_mask[selected["ghost_facets"]] = True
    _assert_bytes_equal(ghost_mask, ref["ghost_mask"], "ghost_mask")
    # the cut rows of the reference's element-major rules are the
    # component-major cut rule
    act, cut, rule = selected["active_elements"], new.cut_elements, _all_cut_rule(new)
    assert cut[rule.degenerate].tolist() == ref["degenerate_elements"]
    ins_sel = np.flatnonzero(new.elem_class[act] == INSIDE)
    cut_sel = ref["active_pos"][cut]
    assert ins_sel.size + cut_sel.size == act.size
    _assert_bytes_equal(ref["vol_pts"][cut_sel], rule.pts[:, :2].transpose(2, 1, 0), "cut vol_pts")
    _assert_bytes_equal(ref["vol_wts"][cut_sel], rule.vol_wts.T, "cut vol_wts")
    _assert_bytes_equal(ref["seg_pts"], rule.pts[:, 2:].transpose(2, 1, 0), "seg_pts")
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
def test_weight_sums_match_element_major_reference(domain_area, nx, r, theta):
    mesh = _LADDER[nx]
    mu = ParameterPoint(r, theta)
    geom = build_cut_geometry(mesh, mu)
    rule = _all_cut_rule(geom)
    ref = _reference_cut_geometry(mesh, mu)
    for got, want in ((domain_area(geom, rule), ref["vol_wts"].sum()),
                      (2.0 * rule.seg_wts.sum(), ref["seg_wts"].sum())):
        assert abs(got - want) <= 1e-14 * abs(want)


def test_component_table_matches_mesh_arrays():
    mesh = _LADDER[7]
    for a in range(3):
        assert np.array_equal(mesh.tri_comp[a], mesh.vertices[mesh.triangles[:, a], 0])
        assert np.array_equal(mesh.tri_comp[3 + a], mesh.vertices[mesh.triangles[:, a], 1])
    # the kernels read the affine origin and the inverse Jacobian from it
    p0, p1, p2 = (mesh.vertices[mesh.triangles[:, j]] for j in range(3))
    jac = np.stack([p1 - p0, p2 - p0], axis=2)
    assert np.allclose(mesh.tri_comp[[7, 10, 8, 11]].T.reshape(-1, 2, 2) @ jac, np.eye(2), atol=1e-14)
    assert np.array_equal(mesh.tri_comp[[0, 3]].T, p0)


def test_cut_geometry_matches_reference_on_near_tangent_cuts(default_mesh, near_tangent_mu):
    x, y = default_mesh.vertices.T
    near = np.abs(np.maximum(x, y) - 1.08) < 1e-9
    # the vertices (x_v, 0) and (0, x_v) the two triples touch: each middle
    # parameter puts its vertex on phi = 0, its neighbours one ulp to either side
    for triple, v in ((near_tangent_mu[:3], np.flatnonzero(near & (y == 0.0))),
                      (near_tangent_mu[3:], np.flatnonzero(near & (x == 0.0)))):
        phi = [level_set(mu, x[v], y[v]).item() for mu in triple]
        assert phi[0] > 0.0 and phi[1] == 0.0 and phi[2] < 0.0
        for mu in triple:
            assert _assert_geometry_bitwise(default_mesh, mu).cut_elements.size > 0


def test_cut_geometry_matches_reference_on_degenerate_segments():
    # (1.44, 1.44) touches the box edge at the four edge midpoints, which are
    # vertices on an even grid; a one-cell mesh with its corner on the ellipse
    geom = _assert_geometry_bitwise(_LADDER[20], ParameterPoint(1.44, 1.44))
    assert len(_degenerate_elements(geom)) > 0
    corner = build_background_mesh(((1.0, 3.0), (1.0, 3.0)), 2.0)
    geom = _assert_geometry_bitwise(corner, ParameterPoint(2.0, 2.0))
    assert _degenerate_elements(geom) == [0, 1]


# ---------------------------------------------------------------------------
# per-mesh tables
# ---------------------------------------------------------------------------

def _assert_tri_facet_map(mesh):
    """Each triangle's three edges are the facets that name it in
    ``facet_tris``, and an interior facet's two triangles both hold it."""
    for t in range(mesh.n_triangles):
        named = np.flatnonzero((mesh.facet_tris == t).any(axis=1))
        edges = sorted(sorted((mesh.triangles[t, k], mesh.triangles[t, (k + 1) % 3]))
                       for k in range(3))
        assert sorted(mesh.facets[named].tolist()) == edges
    for f in np.flatnonzero(mesh.facet_tris[:, 1] >= 0):
        for t in mesh.facet_tris[f]:
            assert set(mesh.facets[f]) <= set(mesh.triangles[t])


def _reference_gradients(mesh):
    """Hat gradients triangle by triangle: those of hats 1 and 2 are the
    rows of the inverse Jacobian, hat 0's is minus their sum."""
    grad = np.empty((mesh.n_triangles, 3, 2))
    for t in range(mesh.n_triangles):
        p0, p1, p2 = (mesh.vertices[mesh.triangles[t, j]] for j in range(3))
        e1, e2 = p1 - p0, p2 - p0
        det = e1[0] * e2[1] - e1[1] * e2[0]
        grad[t, 1] = e2[1] / det, -e2[0] / det
        grad[t, 2] = -e1[1] / det, e1[0] / det
        grad[t, 0] = -(grad[t, 1] + grad[t, 2])
    return grad


def _assert_pattern_maps(mesh):
    """The assembly pattern is sorted row-major, consistent with its row
    pointers, and its transpose map is an involution that sends (i, j) to
    (j, i); each vertex i has one diagonal position (i, i)."""
    n = mesh.n_vertices
    rows, cols, t = mesh.pattern_rows, mesh.pattern_cols, mesh.pattern_transpose
    assert np.all(np.diff(rows * n + cols) > 0)
    assert np.array_equal(np.repeat(np.arange(n), np.diff(mesh.pattern_indptr)), rows)
    assert np.array_equal(t[t], np.arange(t.size))
    assert np.array_equal(rows[t], cols) and np.array_equal(cols[t], rows)
    diagonal = np.flatnonzero(rows == cols)
    assert np.array_equal(rows[diagonal], np.arange(n))


@pytest.mark.parametrize("nx", [2, 3, 7])
def test_mesh_tables_match_loops(nx):
    mesh = build_background_mesh(BOX, 2.4 / nx)
    _assert_tri_facet_map(mesh)
    _assert_pattern_maps(mesh)
    _assert_bytes_equal(_gradients(mesh), _reference_gradients(mesh), "gradients")


def _hexagon_fan_mesh():
    """A hexagon fan around an off-centre hub, then one ring of outer
    triangles: not a criss grid, and vertex valences differ."""
    ang = np.arange(6) * np.pi / 3.0
    ring = np.column_stack([np.cos(ang), np.sin(ang)])
    outer = 2.0 * np.column_stack([np.cos(ang + np.pi / 6), np.sin(ang + np.pi / 6)])
    vertices = np.vstack([[0.1, -0.05], ring, outer])
    fan = [(0, 1 + i, 1 + (i + 1) % 6) for i in range(6)]
    caps = [(1 + i, 7 + i, 1 + (i + 1) % 6) for i in range(6)]
    return BackgroundMesh(vertices, np.array(fan + caps, dtype=np.int64), 2, (-2.0, 2.0))


def _relabelled_grid_mesh(nx, seed):
    """The criss grid with its vertices renumbered by a seeded random
    permutation and each triangle's vertex list rotated (still
    counter-clockwise)."""
    grid = build_background_mesh(BOX, 2.4 / nx)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(grid.n_vertices)
    vertices = np.empty_like(grid.vertices)
    vertices[perm] = grid.vertices
    shift = rng.integers(0, 3, size=grid.n_triangles)[:, None]
    tris = np.take_along_axis(perm[grid.triangles], (np.arange(3) + shift) % 3, axis=1)
    return BackgroundMesh(vertices, tris, nx, grid.box)


@pytest.mark.parametrize("make", [_hexagon_fan_mesh, lambda: _relabelled_grid_mesh(4, 7)],
                         ids=["hexagon_fan", "relabelled_grid"])
def test_facet_patches_match_loops_on_unstructured_meshes(make):
    mesh = make()
    # on each side, some facets list their vertices in ascending local
    # order and some in descending
    interior = np.flatnonzero(mesh.facet_tris[:, 1] >= 0)
    for side in (0, 1):
        tv = mesh.triangles[mesh.facet_tris[interior, side]]
        lo = mesh.facets[interior, 0]
        at = np.argmax(tv == lo[:, None], axis=1)
        ascending = tv[np.arange(interior.size), (at + 1) % 3] == mesh.facets[interior, 1]
        assert ascending.any() and not ascending.all()
    patch, jump = _reference_facet_patches(mesh)
    assert mesh.facet_patch.tobytes() == patch.tobytes()
    assert mesh.facet_jump.tobytes() == jump.tobytes()


def test_tri_facet_map_on_an_unstructured_mesh():
    mesh = _hexagon_fan_mesh()
    assert (mesh.facet_tris[:, 1] >= 0).sum() == 12
    _assert_tri_facet_map(mesh)
    _assert_pattern_maps(mesh)
    _assert_bytes_equal(_gradients(mesh), _reference_gradients(mesh), "gradients")
    geom = _assert_geometry_bitwise(mesh, ParameterPoint(0.8, 0.6))
    assert _selection(geom)["ghost_facets"].size > 0


def test_mesh_with_a_facet_of_three_triangles_rejected():
    # three counter-clockwise triangles on the edge (0, 1)
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    tris = np.array([(0, 1, 2), (1, 0, 3), (0, 1, 4)], dtype=np.int64)
    with pytest.raises(GeometryError, match="more than two triangles"):
        BackgroundMesh(vertices, tris, 1, (0.0, 1.0))


@pytest.mark.parametrize("tris", [[[0, 1, 2], [1, 2, 0]], [[0, 1, 2], [0, 1, 2]],
                                  [[0, 1, 2], [0, 1, 3]]],
                         ids=["relisted", "repeated", "folded"])
def test_mesh_with_overlapping_triangles_rejected(tris):
    # both counter-clockwise triangles lie on one side of a facet they share
    tris = np.array(tris, dtype=np.int64)
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])[: tris.max() + 1]
    with pytest.raises(GeometryError, match=r"triangles \[0, 1\] overlap"):
        BackgroundMesh(vertices, tris, 1, (0.0, 1.0))


def test_mesh_with_a_vertex_outside_every_triangle_rejected():
    # the active-dof marking counts every vertex with phi <= 0 as active
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]])
    with pytest.raises(GeometryError, match="every vertex"):
        BackgroundMesh(vertices, np.array([[0, 1, 2]], dtype=np.int64), 1, (0.0, 1.0))
