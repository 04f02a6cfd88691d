"""Background mesh, parametric level set, element classification and cut quadrature.

The computational setup is a fixed square background mesh that never changes
with the parameter.  The mesh builds its parameter-independent tables once:
element areas, facets with the triangles on either side and their patches,
the assembly pattern, the per-triangle component table ``tri_comp`` (vertex
coordinates and basis gradients, one contiguous row per component) that the
kernels read, and the whole triangles' stiffness blocks ``tri_stiffness``.
For each parameter, ``build_cut_geometry`` evaluates the ellipse level set at
the vertices and classifies every triangle as inside / cut / outside, and
does nothing more: a ``CutGeometry`` is that classification.  The terms a
parameter sums (active and cut elements, ghost facets) are selected from
it by assembly, on whatever piece of the mesh it sums
(``assembly._select``), and are not kept.  The geometry derives only the
two sets several consumers read, the cut elements and the active dofs,
when first read, so a sampled-entry query, which reads the classification
on its plan's piece of the mesh only, never derives them.  Only the cut
triangles need new quadrature: the centroid and area of each sub-triangle
of the region where the linear interpolant of the level set is
non-positive, plus a 2-point Gauss rule on the straight interface segment.
``cut_rule`` makes it, component-major as ``CutRule``, for exactly the cut
triangles its caller sums (assembly, sampled entries, a training batch); an
inside element needs only its area, and an outside element has none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

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
        # contiguous per-component copies for the per-parameter kernels
        self.vertices_t = np.ascontiguousarray(verts.T)
        self.triangles_t = np.ascontiguousarray(tris.T)
        comp = np.empty((_kernels.N_COMP, self.n_triangles))
        comp[_kernels.X] = verts[tris.T, 0]
        comp[_kernels.Y] = verts[tris.T, 1]
        # gradients by coordinate and hat; those of hats 1 and 2 are the
        # rows of the inverse Jacobian
        grad = comp[_kernels.GX.start:_kernels.GY.stop].reshape(2, 3, self.n_triangles)
        grad[:, 1] = e2[:, 1] / det, -e2[:, 0] / det
        grad[:, 2] = -e1[:, 1] / det, e1[:, 0] / det
        grad[:, 0] = -(grad[:, 1] + grad[:, 2])
        self.tri_comp = comp
        # stiffness blocks of the whole triangles, (T, 9) row-major over
        # local (a, c): what an inside element contributes to every parameter
        self.tri_stiffness = np.ascontiguousarray(_kernels.volume_contribs(self.tri_area, comp))

    def _build_facets(self):
        """Facets with the triangles on either side and their lengths, and
        per interior facet the 4 patch dofs and the normal-derivative jump of
        each patch hat (both sides are P1, so the jump vector is
        parameter-independent), all read off one sort of the edges.
        Boundary facets keep -1 patch slots 2-3 and a zero jump.  Raises
        ``GeometryError`` on a facet of more than two triangles and on two
        triangles that lie on the same side of their shared facet."""
        tris = self.triangles
        nv = self.n_vertices
        edges = np.concatenate(
            [tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]], axis=0
        )
        owner = np.tile(np.arange(self.n_triangles), 3)
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        code = lo.astype(np.int64) * nv + hi
        # edges by facet, and a facet's triangles in ascending index order
        order = np.lexsort((owner, code))
        code_s = code[order]
        # each sorted edge's local edge (k, k+1 mod 3) and its triangle
        local_s, owner_s = np.divmod(order, self.n_triangles)
        # each facet's first edge, by neighbour as in _build_pattern; any
        # other edge is its second side
        first = np.concatenate([[True], code_s[1:] != code_s[:-1]])
        if np.any(~first[1:] & ~first[:-1]):
            raise GeometryError("facet shared by more than two triangles")
        facet_of = np.cumsum(first) - 1
        facets = np.column_stack(np.divmod(code_s[first], nv))
        facet_tris = np.full((facets.shape[0], 2), -1, dtype=np.int64)
        facet_tris[:, 0] = owner_s[first]
        facet_tris[facet_of[~first], 1] = owner_s[~first]
        self.facets = facets
        self.facet_tris = facet_tris
        verts = self.vertices
        tangent = verts[facets[:, 1]] - verts[facets[:, 0]]
        length = np.sqrt(tangent[:, 0] ** 2 + tangent[:, 1] ** 2)
        normal = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / length[:, None]
        self.facet_len = length
        # side s of an interior facet is its (s+1)-th sorted edge
        interior = facet_of[~first]
        patch = np.full((facets.shape[0], 4), -1, dtype=np.int64)
        patch[:, :2] = facets
        nrm = normal[interior]
        grad_x = self.tri_comp[_kernels.GX]
        grad_y = self.tri_comp[_kernels.GY]
        dn = np.zeros((2, interior.size, 4))
        swaps = np.empty((2, interior.size), dtype=bool)
        for side, e in enumerate((np.flatnonzero(first)[interior], np.flatnonzero(~first))):
            k, t = local_s[e], owner_s[e]
            k1, k2 = (k + 1) % 3, (k + 2) % 3
            patch[interior, 2 + side] = tris[t, k2]
            # the local hats of slots 0-1 (the facet's vertices, ascending)
            # and of this side's opposite vertex; the other side's has no
            # hat in t
            swaps[side] = swap = tris[t, k] > tris[t, k1]
            at = (np.column_stack([np.where(swap, k1, k), np.where(swap, k, k1), k2]), t[:, None])
            dn[side][:, [0, 1, 2 + side]] = grad_x[at] * nrm[:, 0:1] + grad_y[at] * nrm[:, 1:2]
        # counter-clockwise triangles on opposite sides of a facet traverse
        # it in opposite directions
        same = interior[swaps[0] == swaps[1]]
        if same.size:
            raise GeometryError(f"triangles {facet_tris[same[0]].tolist()} overlap: both lie on "
                                f"one side of their facet {facets[same[0]].tolist()}")
        jump = np.zeros((facets.shape[0], 4))
        jump[interior] = dn[0] - dn[1]
        self.facet_patch = patch
        self.facet_jump = jump

    def _build_pattern(self):
        """Every entry a stiffness matrix can hold (all triangle stencils and
        interior-facet patches), sorted row-major, with each triangle's 9 and
        each interior facet's 16 positions in it.  A position here is the
        package's one sparse index; no other code forms row*N+col codes.
        Position k holds (``pattern_rows[k]``, ``pattern_cols[k]``), its
        transpose sits at ``pattern_transpose[k]`` (the pattern is
        symmetric), and ``pattern_upper`` holds the positions with row <= col
        (k <= ``pattern_transpose[k]``), which carry a symmetric matrix
        whole.

        A parameter's pattern is the subset its active triangles and ghost
        facets touch, so assembly only marks and renumbers positions.  The 9
        (16) positions run row-major over the local vertices (patch slots),
        the order in which the element kernels emit their blocks.  The same
        slot tables tell ``assembly.EntryPlan`` which triangles and facets
        contribute to a sampled entry: its piece of the mesh.

        ``rcm_rank`` is each vertex's place in a reverse Cuthill-McKee order
        of this pattern's graph (Cuthill & McKee 1969; George 1971).  The
        full-order solve numbers an active block's dofs in this order, which
        keeps the block narrow-banded.
        """
        n = self.n_vertices
        tris = self.triangles
        tri_codes = np.repeat(tris, 3, axis=1) * n + np.tile(tris, (1, 3))
        interior = np.flatnonzero(self.facet_tris[:, 1] >= 0)
        patch = self.facet_patch[interior]
        facet_codes = np.repeat(patch, 4, axis=1) * n + np.tile(patch, (1, 4))
        # sorted, then deduplicated by neighbour: the codes of np.unique,
        # without its hash pass
        codes = np.sort(np.concatenate([tri_codes.ravel(), facet_codes.ravel()]))
        codes = codes[np.concatenate([[True], codes[1:] != codes[:-1]])]
        self.pattern_rows, self.pattern_cols = np.divmod(codes, n)
        self.pattern_indptr = np.searchsorted(self.pattern_rows, np.arange(n + 1))
        self.pattern_transpose = np.searchsorted(codes, self.pattern_cols * n + self.pattern_rows)
        self.pattern_upper = np.flatnonzero(self.pattern_rows <= self.pattern_cols)
        graph = sp.csr_matrix((np.ones(codes.size, dtype=np.int8), self.pattern_cols,
                               self.pattern_indptr), shape=(n, n))
        self.rcm_rank = np.empty(n, dtype=np.int64)
        self.rcm_rank[reverse_cuthill_mckee(graph, symmetric_mode=True)] = np.arange(n)
        self.tri_pattern_pos = np.searchsorted(codes, tri_codes)
        facet_pos = np.full((self.facets.shape[0], 16), -1, dtype=np.int64)
        facet_pos[interior] = np.searchsorted(codes, facet_codes)
        self.facet_pattern_pos = facet_pos


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
    """The quadrature of some cut elements in the component-major layout of
    ``_kernels`` (one row per component, one column per cut element), with
    the elements' columns of ``BackgroundMesh.tri_comp``.  The volume has
    one slot per sub-triangle, its centroid and area (a zero-area second
    slot when the region is one triangle); a degenerate segment has zero
    weight and its ``degenerate`` flag set.  ``cut_rule`` makes every one."""

    tri: np.ndarray  # (12, k) per-triangle table columns
    pts: np.ndarray  # (2, 4, k) by coordinate: centroids of slots 0, 1, Gauss points 0, 1
    vol_wts: np.ndarray  # (2, k) areas
    seg_wts: np.ndarray  # (k,) weight of each of the two Gauss points
    normal: np.ndarray  # (2, k)
    degenerate: np.ndarray  # (k,) flags of the segments shorter than DEGEN_FACTOR * h


def cut_rule(tri, phi, h: float) -> CutRule:
    """The cut rule of the cut triangles whose ``BackgroundMesh.tri_comp``
    columns are ``tri`` (12, k), where ``phi`` (3, k) holds the level set at
    their vertices, on a mesh of size ``h``: the package's one producer of
    cut quadrature.  The kernel computes each triangle's column on its own,
    so the rule of some cut triangles, or of several geometries' cut
    triangles joined, equals those columns of the rules of each."""
    return CutRule(tri, *_kernels.cut_rules(tri, phi, DEGEN_FACTOR * h))


@dataclass
class CutGeometry:
    """Per-parameter classification on the background mesh: the level set
    ``phi`` at every mesh vertex and the class of every triangle.

    Two per-parameter sets are derived from these on first access and kept
    on the geometry, because several consumers read them: the cut elements
    (read by the active dofs and the energy-norm matrix) and the active dofs
    (read by the full-order solves, the estimators and the checks).  The
    terms an assembly sums are selected from the classes by
    ``assembly._select``, on the piece of the mesh it sums, and are not kept
    here; a sampled-entry query reads only ``phi`` and ``elem_class``, on
    the plan's piece of the mesh.  The geometry carries no quadrature: each
    consumer of a cut rule makes it with ``cut_rule``, on exactly the cut
    elements it sums, and a full assembly keeps its rule on its stage
    (``assembly.SystemPair.stage``), where the area, the interface length
    and the degenerate segments of a geometry are read.
    """

    mu: ParameterPoint
    mesh: BackgroundMesh
    phi: np.ndarray  # (N,) level set at the mesh vertices
    elem_class: np.ndarray  # (T,) INSIDE, CUT or OUTSIDE

    @cached_property
    def cut_elements(self) -> np.ndarray:
        return np.flatnonzero(self.elem_class == CUT)

    @cached_property
    def active_dofs(self) -> np.ndarray:
        """A vertex with phi <= 0 makes all its triangles active (every
        vertex has one); any other active vertex belongs to a cut triangle."""
        mark = self.phi <= 0.0
        mark[self.mesh.triangles_t.take(self.cut_elements, axis=1)] = True
        return np.flatnonzero(mark)


def build_cut_geometry(mesh: BackgroundMesh, mu: ParameterPoint) -> CutGeometry:
    """Classify elements by vertex signs of the level set.

    A vertex with phi <= 0 counts as inside; all-inside elements are
    integrated whole, mixed elements are cut, all-outside elements carry no
    quadrature and are excluded from the active set.  Nothing else is
    computed here: the two sets ``CutGeometry`` derives are made when first
    read.
    """
    phi = level_set(mu, *mesh.vertices_t)
    corner_in = (phi <= 0.0).view(np.uint8).take(mesh.triangles_t)
    elem_class = _CLASS_BY_COUNT.take(corner_in[0] + corner_in[1] + corner_in[2])
    return CutGeometry(mu=mu, mesh=mesh, phi=phi, elem_class=elem_class)
