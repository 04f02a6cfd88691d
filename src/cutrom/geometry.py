"""Background mesh, parametric level set, element classification and cut quadrature.

The computational setup is a fixed square background mesh that never changes
with the parameter.  For each parameter the ellipse level set classifies every
triangle as inside / cut / outside, and the cut triangles receive sub-triangle
volume rules for the region where the linear interpolant of the level set is
non-positive, plus a 2-point Gauss rule on the straight interface segment.
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

    def as_array(self):
        return np.array([self.r, self.theta])


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
        self.tri_area = 0.5 * det
        inv_j = np.empty((self.n_triangles, 2, 2))
        inv_j[:, 0, 0] = e2[:, 1] / det
        inv_j[:, 0, 1] = -e2[:, 0] / det
        inv_j[:, 1, 0] = -e1[:, 1] / det
        inv_j[:, 1, 1] = e1[:, 0] / det
        self.inv_j = inv_j
        bvec = np.empty((self.n_triangles, 3, 2))
        bvec[:, 1, :] = inv_j[:, 0, :]
        bvec[:, 2, :] = inv_j[:, 1, :]
        bvec[:, 0, :] = -(bvec[:, 1, :] + bvec[:, 2, :])
        self.bvec = bvec
        self.v0 = p0.copy()

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
class CutGeometry:
    """Per-parameter classification and quadrature on the background mesh.

    Volume rule arrays are aligned with ``active_elements`` (6 padded slots,
    zero-weight padding); boundary rule arrays with ``cut_elements``.
    """

    mu: ParameterPoint
    mesh: BackgroundMesh
    elem_class: np.ndarray
    active_elements: np.ndarray
    cut_elements: np.ndarray
    ghost_facets: np.ndarray
    active_dofs: np.ndarray
    vol_pts: np.ndarray
    vol_wts: np.ndarray
    seg_pts: np.ndarray
    seg_wts: np.ndarray
    seg_normal: np.ndarray
    cut_pos: np.ndarray  # triangle id -> position in cut_elements, -1 elsewhere
    active_pos: np.ndarray  # triangle id -> position in active_elements, -1 elsewhere
    ghost_mask: np.ndarray  # facet id -> ghost facet flag
    degenerate_elements: list = field(default_factory=list)

    def volume_weight_sum(self) -> float:
        return float(self.vol_wts.sum())

    def boundary_weight_sum(self) -> float:
        return float(self.seg_wts.sum())


def build_cut_geometry(mesh: BackgroundMesh, mu: ParameterPoint) -> CutGeometry:
    """Classify elements by vertex signs of the level set and build quadrature.

    A vertex with phi <= 0 counts as inside; all-inside elements carry the
    plain 3-point rule, mixed elements are cut, all-outside elements carry no
    quadrature and are excluded from the active set.
    """
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

    # ghost facets: interior facets of cut elements with both neighbours
    # active; every ghost facet has a cut neighbour, so the cut band's facets
    # are the only candidates
    cand = mesh.tri_facets[cut].ravel()
    ft = mesh.facet_tris[cand]
    keep = (ft[:, 1] >= 0) & (elem_class[ft[:, 0]] != OUTSIDE) & (elem_class[ft[:, 1]] != OUTSIDE)
    ghost_mask = np.zeros(mesh.facets.shape[0], dtype=bool)
    ghost_mask[cand[keep]] = True
    ghost_facets = np.flatnonzero(ghost_mask)

    # volume rules: the whole-triangle rule of each active element, with the
    # cut rows replaced by sub-triangle rules
    vol_pts = mesh.whole_pts[active]
    vol_wts = mesh.whole_wts[active]
    c_vol_pts, c_vol_wts, seg_pts, seg_wts, seg_nrm, degen = _kernels.cut_rules(
        mesh.vertices[mesh.triangles[cut]], tri_phi[cut], mesh.bvec[cut], DEGEN_FACTOR * mesh.h,
    )
    cut_sel = active_pos[cut]
    vol_pts[cut_sel] = c_vol_pts
    vol_wts[cut_sel] = c_vol_wts

    dof_mark = np.zeros(mesh.n_vertices, dtype=bool)
    dof_mark[mesh.triangles[active]] = True
    active_dofs = np.flatnonzero(dof_mark)
    degenerate = [int(cut[i]) for i in np.flatnonzero(degen)]

    return CutGeometry(
        mu=mu,
        mesh=mesh,
        elem_class=elem_class,
        active_elements=active,
        cut_elements=cut,
        ghost_facets=ghost_facets,
        active_dofs=active_dofs,
        vol_pts=vol_pts,
        vol_wts=vol_wts,
        seg_pts=seg_pts,
        seg_wts=seg_wts,
        seg_normal=seg_nrm,
        cut_pos=cut_pos,
        active_pos=active_pos,
        ghost_mask=ghost_mask,
        degenerate_elements=degenerate,
    )
