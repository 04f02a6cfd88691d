"""Background mesh, parametric level set, element classification and cut quadrature.

The computational setup is a fixed square background mesh that never changes
with the parameter.  The mesh builds its parameter-independent tables once:
element geometry, facets and patches, the assembly pattern, the rule of every
whole triangle, and the per-triangle component table ``tri_comp`` (vertex
coordinates and basis gradients, one contiguous row per component) that the
kernels read.  For each parameter the ellipse level set classifies every
triangle as inside / cut / outside, and only the cut triangles get new
quadrature: sub-triangle volume rules for the region where the linear
interpolant of the level set is non-positive, plus a 2-point Gauss rule on
the straight interface segment.  ``CutRule`` holds them component-major, the
layout assembly reads; an inside element's rule is its row of the mesh's
whole-triangle rules, and an outside element has none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels

INSIDE = 0
CUT = 1
OUTSIDE = 2

# interface segments shorter than DEGEN_FACTOR * h are skipped (zero weights)
DEGEN_FACTOR = 1e-14

# element class by the number of vertices with phi <= 0
_CLASS_BY_COUNT = np.array([OUTSIDE, CUT, CUT, INSIDE], dtype=np.uint8)


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class ParameterPoint:
    """Ellipse shape parameter: semi-axes are sqrt(r) and sqrt(theta)."""

    r: float
    theta: float

    def __post_init__(self):
        if not (self.r > 0.0 and self.theta > 0.0):
            raise GeometryError(f"parameter components must be positive, got {(self.r, self.theta)}")


def require_inside_box(mu: ParameterPoint, box) -> None:
    """Raise GeometryError unless the ellipse of ``mu`` lies strictly inside
    the box ((x0, x1), (y0, y1)).  An ellipse that reaches the box edge would
    be solved with that edge acting as a natural boundary."""
    (x0, x1), (y0, y1) = box
    half = min(-x0, x1, -y0, y1)
    semi = max(np.sqrt(mu.r), np.sqrt(mu.theta))
    if semi >= half:
        raise GeometryError(
            f"ellipse {(mu.r, mu.theta)} leaves the background box: semi-axis "
            f"{semi:.6g} >= distance {half:.6g} from the origin to the box edge"
        )


def level_set(mu: ParameterPoint, x, y):
    """Signed level-set value x^2/r + y^2/theta - 1 (negative inside the ellipse)."""
    return np.asarray(x) ** 2 / mu.r + np.asarray(y) ** 2 / mu.theta - 1.0


class BackgroundMesh:
    """Uniform criss triangulation of a square box.

    Each grid square is split along its bottom-left to top-right diagonal.
    ``h`` is the grid spacing (the mesh-size parameter entering the lambda/h
    Nitsche weight), all triangles are counter-clockwise.
    """

    def __init__(self, vertices, triangles, nx, box):
        self.vertices = vertices
        self.triangles = triangles
        self.nx = nx
        self.box = box
        self.h = (box[1] - box[0]) / nx
        self.n_vertices = vertices.shape[0]
        self.n_triangles = triangles.shape[0]
        self._build_precomputed()
        self._build_whole_rules()
        self._build_facets()
        self._build_pattern()

    def _build_precomputed(self):
        verts = self.vertices
        tris = self.triangles
        p0 = verts[tris[:, 0]]
        p1 = verts[tris[:, 1]]
        p2 = verts[tris[:, 2]]
        e1 = p1 - p0
        e2 = p2 - p0
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det <= 0):
            raise GeometryError("triangle orientation must be counter-clockwise")
        if np.bincount(tris.ravel(), minlength=self.n_vertices).min(initial=1) == 0:
            raise GeometryError("every vertex must belong to a triangle")
        self.tri_area = 0.5 * det
        # the gradients of hats 1 and 2 are the rows of the inverse Jacobian
        bvec = np.empty((self.n_triangles, 3, 2))
        bvec[:, 1, 0] = e2[:, 1] / det
        bvec[:, 1, 1] = -e2[:, 0] / det
        bvec[:, 2, 0] = -e1[:, 1] / det
        bvec[:, 2, 1] = e1[:, 0] / det
        bvec[:, 0, :] = -(bvec[:, 1, :] + bvec[:, 2, :])
        self.bvec = bvec
        # contiguous per-component copies for the per-parameter kernels
        self.vertices_t = np.ascontiguousarray(verts.T)
        self.triangles_t = np.ascontiguousarray(tris.T)
        comp = np.empty((_kernels.N_COMP, self.n_triangles))
        comp[_kernels.X] = verts[tris.T, 0]
        comp[_kernels.Y] = verts[tris.T, 1]
        comp[_kernels.GX] = bvec[:, :, 0].T
        comp[_kernels.GY] = bvec[:, :, 1].T
        self.tri_comp = comp

    def _build_whole_rules(self):
        """The mapped 3-point rule of every whole triangle in volume-rule
        layout: 6 slots, slots 3-5 padded with ``p0`` and zero weight.  An
        inside element's rule is its row here."""
        verts = self.vertices
        tris = self.triangles
        p0 = verts[tris[:, 0]]
        pts = np.empty((self.n_triangles, 6, 2))
        pts[:, :3] = _kernels.mapped_points(p0, verts[tris[:, 1]], verts[tris[:, 2]])
        pts[:, 3:] = p0[:, None, :]
        wts = np.zeros((self.n_triangles, 6))
        wts[:, :3] = (self.tri_area / 3.0)[:, None]
        self.whole_pts = pts
        self.whole_wts = wts

    def _build_facets(self):
        tris = self.triangles
        nv = self.n_vertices
        edges = np.concatenate(
            [tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]], axis=0
        )
        owner = np.tile(np.arange(self.n_triangles), 3)
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        code = lo.astype(np.int64) * nv + hi
        order = np.argsort(code, kind="stable")
        code_s = code[order]
        owner_s = owner[order]
        uniq, start = np.unique(code_s, return_index=True)
        # column k holds the facet of local edge (k, k+1 mod 3)
        self.tri_facets = np.ascontiguousarray(
            np.searchsorted(uniq, code).reshape(3, self.n_triangles).T
        )
        n_f = uniq.shape[0]
        facets = np.empty((n_f, 2), dtype=np.int64)
        facets[:, 0] = uniq // nv
        facets[:, 1] = uniq % nv
        facet_tris = np.full((n_f, 2), -1, dtype=np.int64)
        counts = np.diff(np.append(start, code_s.shape[0]))
        if np.any(counts > 2):
            raise GeometryError("facet shared by more than two triangles")
        facet_tris[:, 0] = owner_s[start]
        two = counts == 2
        facet_tris[two, 1] = owner_s[start[two] + 1]
        # adjacent triangles in ascending index order
        swap = two & (facet_tris[:, 0] > facet_tris[:, 1])
        facet_tris[swap] = facet_tris[swap][:, ::-1]
        self.facets = facets
        self.facet_tris = facet_tris
        verts = self.vertices
        tangent = verts[facets[:, 1]] - verts[facets[:, 0]]
        length = np.sqrt(tangent[:, 0] ** 2 + tangent[:, 1] ** 2)
        normal = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / length[:, None]
        self.facet_len = length
        self.facet_normal = normal
        self._build_facet_patches()

    def _build_facet_patches(self):
        """Per interior facet: the 4 patch dofs and the normal-derivative jump
        of each patch hat function (both sides are P1, so the jump vector is
        parameter-independent).  Boundary facets keep -1 patch slots 2-3 and
        a zero jump."""
        facets = self.facets
        n_f = facets.shape[0]
        patch = np.full((n_f, 4), -1, dtype=np.int64)
        jump = np.zeros((n_f, 4))
        patch[:, 0] = facets[:, 0]
        patch[:, 1] = facets[:, 1]
        idx = np.flatnonzero(self.facet_tris[:, 1] >= 0)
        tri_pair = self.facet_tris[idx]
        fa = facets[idx, 0:1]
        fb = facets[idx, 1:2]
        rows = np.arange(idx.size)
        for side in (0, 1):
            tv = self.triangles[tri_pair[:, side]]
            patch[idx, 2 + side] = tv[rows, np.argmax((tv != fa) & (tv != fb), axis=1)]
        nrm = self.facet_normal[idx]
        dn = []
        for side in (0, 1):
            ts = tri_pair[:, side]
            hit = self.triangles[ts][:, None, :] == patch[idx][:, :, None]
            b = self.bvec[ts[:, None], np.argmax(hit, axis=2)]
            d = b[:, :, 0] * nrm[:, 0:1] + b[:, :, 1] * nrm[:, 1:2]
            dn.append(np.where(hit.any(axis=2), d, 0.0))
        jump[idx] = dn[0] - dn[1]
        self.facet_patch = patch
        self.facet_jump = jump

    def _build_pattern(self):
        """Sorted row-major codes row*N+col of every entry a stiffness matrix
        can hold (all triangle stencils and interior-facet patches), with each
        triangle's 9 and each interior facet's 16 positions in them.

        A parameter's pattern is the subset its active triangles and ghost
        facets touch, so assembly only marks and renumbers positions.  The 9
        (16) positions run row-major over the local vertices (patch slots),
        the order in which the element kernels emit their blocks.
        """
        n = self.n_vertices
        tris = self.triangles
        tri_codes = np.repeat(tris, 3, axis=1) * n + np.tile(tris, (1, 3))
        interior = np.flatnonzero(self.facet_tris[:, 1] >= 0)
        patch = self.facet_patch[interior]
        facet_codes = np.repeat(patch, 4, axis=1) * n + np.tile(patch, (1, 4))
        codes = np.unique(np.concatenate([tri_codes.ravel(), facet_codes.ravel()]))
        self.pattern_cols = codes % n
        self.pattern_indptr = np.searchsorted(codes // n, np.arange(n + 1))
        self.tri_pattern_pos = np.searchsorted(codes, tri_codes)
        facet_pos = np.full((self.facets.shape[0], 16), -1, dtype=np.int64)
        facet_pos[interior] = np.searchsorted(codes, facet_codes)
        self.facet_pattern_pos = facet_pos

    def vertex_tri_adjacency(self):
        """CSR-style vertex -> triangle adjacency, triangle ids ascending."""
        flat = self.triangles.ravel()
        tri_of = np.repeat(np.arange(self.n_triangles), 3)
        order = np.lexsort((tri_of, flat))
        indptr = np.searchsorted(flat[order], np.arange(self.n_vertices + 1))
        return indptr, tri_of[order]

    def vertex_facet_adjacency(self):
        """Vertex -> interior facets whose 4-dof patch contains the vertex."""
        interior = np.flatnonzero(self.facet_tris[:, 1] >= 0)
        dofs = self.facet_patch[interior].ravel()
        fac_of = np.repeat(interior, 4)
        order = np.lexsort((fac_of, dofs))
        indptr = np.searchsorted(dofs[order], np.arange(self.n_vertices + 1))
        return indptr, fac_of[order]


def build_background_mesh(box, h_target: float) -> BackgroundMesh:
    """Uniform square grid with nx = ceil(width / h_target) cells per side,
    each cell split along the bottom-left to top-right diagonal."""
    (x0, x1), (y0, y1) = box
    if not (x1 > x0 and y1 > y0):
        raise GeometryError("box must be non-degenerate")
    width = x1 - x0
    if abs((y1 - y0) - width) > 1e-14 * width or abs(y0 - x0) > 1e-14 * max(1.0, abs(x0)):
        raise GeometryError("only square boxes [a1,a2]^2 are supported")
    if not h_target > 0:
        raise GeometryError("h_target must be positive")
    nx = int(np.ceil(width / h_target - 1e-12))
    xs = np.linspace(x0, x1, nx + 1)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    iy, ix = np.divmod(np.arange(nx * nx, dtype=np.int64), nx)
    bl = iy * (nx + 1) + ix
    br = bl + 1
    tl = bl + (nx + 1)
    tr = tl + 1
    tris = np.empty((2 * nx * nx, 3), dtype=np.int64)
    tris[0::2] = np.column_stack([bl, br, tr])
    tris[1::2] = np.column_stack([bl, tr, tl])
    return BackgroundMesh(vertices, tris, nx, (x0, x1))


@dataclass
class CutRule:
    """The cut elements' quadrature in the component-major layout of
    ``_kernels`` (one row per component, one column per cut element), with
    the elements' columns of ``BackgroundMesh.tri_comp``.  Volume rules have
    6 slots, zero-weight padding; a degenerate segment has zero weight."""

    tri: np.ndarray  # (12, k) per-triangle table columns
    vol_pts: np.ndarray  # (2, 6, k) by coordinate and slot
    vol_wts: np.ndarray  # (6, k)
    seg_pts: np.ndarray  # (2, 2, k) by Gauss point and coordinate
    seg_wts: np.ndarray  # (k,) weight of each of the two Gauss points
    normal: np.ndarray  # (2, k)


@dataclass
class CutGeometry:
    """Per-parameter classification and quadrature on the background mesh.

    ``cut_rule`` is the only per-parameter quadrature, one column per entry
    of ``cut_elements``; inside elements use ``BackgroundMesh.whole_pts`` /
    ``whole_wts``.
    """

    mu: ParameterPoint
    mesh: BackgroundMesh
    elem_class: np.ndarray
    active_elements: np.ndarray
    cut_elements: np.ndarray
    ghost_facets: np.ndarray
    active_dofs: np.ndarray
    cut_rule: CutRule = field(repr=False)
    cut_pos: np.ndarray  # triangle id -> position in cut_elements, -1 elsewhere
    active_pos: np.ndarray  # triangle id -> position in active_elements, -1 elsewhere
    ghost_mask: np.ndarray  # facet id -> ghost facet flag
    degenerate_elements: list = field(default_factory=list)

    def volume_weight_sum(self) -> float:
        """Quadrature area of the domain: the inside elements' areas plus
        the cut elements' sub-triangle weights."""
        inside = self.elem_class == INSIDE
        return float(self.mesh.tri_area[inside].sum() + self.cut_rule.vol_wts.sum())

    def boundary_weight_sum(self) -> float:
        """Quadrature length of the interface: both Gauss points of a
        segment carry its ``seg_wts`` entry."""
        return float(2.0 * self.cut_rule.seg_wts.sum())


def build_cut_geometry(mesh: BackgroundMesh, mu: ParameterPoint) -> CutGeometry:
    """Classify elements by vertex signs of the level set and build quadrature.

    A vertex with phi <= 0 counts as inside; all-inside elements carry the
    plain 3-point rule, mixed elements are cut, all-outside elements carry no
    quadrature and are excluded from the active set.
    """
    phi_v = level_set(mu, *mesh.vertices_t)
    vertex_in = phi_v <= 0.0
    corner_in = vertex_in.view(np.uint8)[mesh.triangles_t]
    elem_class = _CLASS_BY_COUNT[corner_in[0] + corner_in[1] + corner_in[2]]

    active = np.flatnonzero(elem_class != OUTSIDE)
    cut = np.flatnonzero(elem_class == CUT)

    active_pos = np.full(mesh.n_triangles, -1, dtype=np.int64)
    active_pos[active] = np.arange(active.size)
    cut_pos = np.full(mesh.n_triangles, -1, dtype=np.int64)
    cut_pos[cut] = np.arange(cut.size)

    # ghost facets: interior facets of cut elements with both neighbours
    # active; every ghost facet has a cut neighbour, so the cut band's facets
    # are the only candidates
    cand = mesh.tri_facets[cut].ravel()
    ft = mesh.facet_tris[cand]
    keep = (ft[:, 1] >= 0) & (elem_class[ft[:, 0]] != OUTSIDE) & (elem_class[ft[:, 1]] != OUTSIDE)
    ghost_mask = np.zeros(mesh.facets.shape[0], dtype=bool)
    ghost_mask[cand[keep]] = True
    ghost_facets = np.flatnonzero(ghost_mask)

    cut_vertices = mesh.triangles_t[:, cut]
    tri = np.take(mesh.tri_comp, cut, axis=1)
    pts, wts, seg, seg_w, nrm, degen = _kernels.cut_rules(
        tri, phi_v[cut_vertices], DEGEN_FACTOR * mesh.h,
    )

    # a vertex with phi <= 0 makes all its triangles active (every vertex
    # has one); any other active vertex belongs to a cut triangle
    dof_mark = vertex_in.copy()
    dof_mark[cut_vertices] = True
    active_dofs = np.flatnonzero(dof_mark)

    return CutGeometry(
        mu=mu,
        mesh=mesh,
        elem_class=elem_class,
        active_elements=active,
        cut_elements=cut,
        ghost_facets=ghost_facets,
        active_dofs=active_dofs,
        cut_rule=CutRule(tri=tri, vol_pts=pts, vol_wts=wts, seg_pts=seg, seg_wts=seg_w, normal=nrm),
        cut_pos=cut_pos,
        active_pos=active_pos,
        ghost_mask=ghost_mask,
        degenerate_elements=cut[degen].tolist(),
    )
