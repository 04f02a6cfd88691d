import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutrom.geometry import (
    CUT,
    INSIDE,
    OUTSIDE,
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
    # weight mass only lives on the active rule arrays, which exclude OUTSIDE
    assert geom.vol_wts.shape[0] == geom.active_elements.size


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
    norms = np.hypot(geom.seg_normal[:, 0], geom.seg_normal[:, 1])
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
    assert np.array_equal(g1.vol_pts, g2.vol_pts)
    assert np.array_equal(g1.vol_wts, g2.vol_wts)
    assert np.array_equal(g1.seg_pts, g2.seg_pts)
    assert np.array_equal(g1.seg_wts, g2.seg_wts)
    assert np.array_equal(g1.seg_normal, g2.seg_normal)
    assert np.array_equal(g1.elem_class, g2.elem_class)
    assert np.array_equal(g1.ghost_facets, g2.ghost_facets)


def test_degenerate_cut_reported_and_skipped():
    # vertex (1,1) sits exactly on the ellipse for mu=(2,2); both triangles
    # classify as cut with a zero-length interface segment
    mesh = build_background_mesh(((1.0, 3.0), (1.0, 3.0)), 2.0)
    geom = build_cut_geometry(mesh, ParameterPoint(2.0, 2.0))
    assert (geom.elem_class == CUT).all()
    assert geom.degenerate_elements == [0, 1]
    assert geom.seg_wts.sum() == 0.0
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
