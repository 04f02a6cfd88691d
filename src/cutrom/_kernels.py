"""Per-element kernels of the cut finite element method, vectorized over elements.

Everything here operates on plain float64 arrays in component-major layout:
one contiguous row per component (a coordinate, a quadrature slot, a local
vertex) and one column per element.  An element's mesh data is its column of
the per-triangle table ``BackgroundMesh.tri_comp``, whose rows ``X``, ``Y``,
``GX`` and ``GY`` hold the three vertex coordinates and the three P1 basis
gradients.

Volume integrals are in closed form: the source is constant and the hats are
linear, so on a straight-sided region S the stiffness weight is |S| and the
load of hat i is f |S| phi_i(centroid of S).  A whole triangle needs only
its area; a cut element's region is one or two sub-triangles, each carried
by its centroid and area.  ``cut_rules`` computes them, with the interface
segment's Gauss rule; its one caller is ``geometry.cut_rule``, which each
consumer calls on exactly the cut elements it sums.  A rule's four points
(two centroids, two Gauss points) are one (2, 4, k) array, so the
reference coordinates of all of them are one pass of ``cut_terms``.  The
kernels are sized for few elements, where each numpy call costs about the
same whatever its width: they stack what the same arithmetic applies to,
and take no extra pass.

Each local formula exists once: the volume and boundary terms of a cut
element (``cut_terms``), and the stiffness, Nitsche,
consistency and ghost-penalty values of one (a, c) pair (``stiffness``,
``nitsche``, ``consistency``, ``ghost_penalty``).  Assembly applies the pair
formulas to whole 3x3 blocks: ``volume_contribs`` and ``boundary_contribs``
(the Nitsche blocks), for full assembly and sampled entries alike; only the
energy-norm matrix applies ``consistency``, to the same staged terms.  Every
kernel evaluates the same expression for every element, column by column,
so an element's values do not depend on which others share the call, and
results are bit-reproducible.
"""

from __future__ import annotations

import numpy as np

# name of the kernel implementation, recorded in benchmark run manifests
BACKEND = "numpy"

# 2-point Gauss rule on the unit segment
GAUSS_T = np.array([0.5 * (1.0 - 1.0 / np.sqrt(3.0)), 0.5 * (1.0 + 1.0 / np.sqrt(3.0))])

# rows of the per-triangle table: vertex x, vertex y, gradient x, gradient y,
# each for local vertices 0, 1, 2
X, Y, GX, GY = slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 12)
N_COMP = 12
# local vertex 0 is the affine origin, and the gradients of hats 1 and 2 are
# the rows of the inverse Jacobian: (xi, eta) = G_x (x - x0) + G_y (y - y0)
ORIGIN = slice(0, 4, 3)
# points of a cut rule: the centroids of sub-triangle slots 0 and 1, then
# Gauss points 0 and 1 of the interface segment
VOL, SEG = slice(0, 2), slice(2, 4)

# corner roles in ``cut_rules``, by the code b0 + 2 b1 + 4 b2 of the inside
# bits of a cut triangle's vertices: whether exactly one vertex is inside,
# and the vertex of each of the five roles (the bases of edges 0 and 1, their
# tips, and the third vertex n).  Counting from the lone vertex l, the roles
# sit at offsets (0, 0, 1, 2, 2) with one vertex inside and (1, 2, 0, 0, 2)
# with two.  Codes 0 and 7 (not cut) are never looked up.
_CODE_BITS = np.array([1, 2, 4], dtype=np.uint8)
_LONE_BY_CODE = np.array([0, 0, 1, 2, 2, 1, 0, 0])
_ONE_BY_CODE = np.array([False, True, True, False, True, False, False, False])
_ROLE_VERTEX = (_LONE_BY_CODE + np.where(
    _ONE_BY_CODE, np.array([0, 0, 1, 2, 2])[:, None], np.array([1, 2, 0, 0, 2])[:, None])) % 3
# the second and third vertices of the sub-triangles, (b1, b2, c2, c1), as
# x rows of the points of ``cut_rules`` (the roles' x in rows 0-4, their y
# in 5-9, the edge points' x in 10-11 and y in 12-13): (n, E1, E0, E1)
# with two vertices inside, (E0, l, l, E1) with one (l is role 0)
_SUB_X = np.where(_ONE_BY_CODE, np.array([10, 0, 0, 11])[:, None],
                  np.array([4, 11, 10, 11])[:, None])
# the row of every coordinate ``cut_rules`` gathers, by code: the roles' x
# and y in the triangle table (a role's vertex in the x rows, 3 rows
# further in the y rows), then the sub-triangle vertices' x and y in its
# points
_GATHER_ROW = np.concatenate([_ROLE_VERTEX + X.start, _ROLE_VERTEX + Y.start,
                              _SUB_X, _SUB_X + np.where(_SUB_X < 10, 5, 2)])


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

def cut_rules(tri, phi, degen_tol):
    """Quadrature rules on the cut triangles, in one pass over all of them.

    ``tri`` is the (12, k) table of the cut triangles and ``phi`` the
    (3, k) level-set values at their vertices.  The sub-region
    {phi_lin <= 0} is split into one or two sub-triangles, each carried by
    its centroid and area (slots 0 and 1; a zero-area slot at the lone
    vertex when there is one), and the straight interface segment
    {phi_lin = 0} carries a 2-point Gauss rule with the outward unit normal
    grad(phi_lin)/|grad(phi_lin)|.  Segments shorter than ``degen_tol`` are
    flagged degenerate and get zero weights.

    Each triangle is rotated so that its lone vertex (the only one inside,
    or the only one outside) comes first, as (l, m, n).  With one vertex
    inside, the edge points run from l towards m and n, and the region is
    the triangle (l, E0, E1).  With two inside, they run from m and n
    towards l, and the region is (m, n, E1) plus (m, E1, E0).  The
    coordinates of each role are gathered by flat offsets in one take, and
    those of the sub-triangles' other vertices, roles or edge points, in
    one more, so every element runs the same formulas.  The level-set
    gradient and the segment vector sit side by side, so one pass gives
    both lengths.

    Returns ``pts`` (2, 4, k) by coordinate and point (the centroids of
    slots 0 and 1, then Gauss points 0 and 1: ``VOL`` and ``SEG``), the
    areas ``wts`` (2, k), the Gauss weight ``seg_w`` (k,), the normal
    ``nrm`` (2, k) and the degenerate flags.
    """
    k = phi.shape[1]
    vec = np.empty((2, 2, k))  # by coordinate: the gradient, the segment
    np.add.reduce(tri[GX.start:GY.stop].reshape(2, 3, k) * phi, axis=1, out=vec[:, 0])

    code = _CODE_BITS @ (phi <= 0.0).view(np.uint8)
    # flat offsets of the gathered coordinates into their (row, k) tables,
    # in range by construction; those of the roles' x rows index phi too
    at = _GATHER_ROW.take(code, axis=1) * k + np.arange(k)
    p = np.empty((14, k))  # the roles' x and y, then the edge points' x and y
    tri.take(at[:10], out=p[:10], mode="clip")
    xy, edge = p[:10].reshape(2, 5, k), p[10:].reshape(2, 2, k)  # (coordinate, point, k)
    ph = phi.take(at[:4], mode="clip")

    t = ph[0:2] / (ph[0:2] - ph[2:4])
    base = xy[:, 0:2]
    np.add(base, t * (xy[:, 2:4] - base), out=edge)
    apex = xy[:, 0]  # first vertex of both sub-triangles: l, or m
    d = p.take(at[10:], mode="clip").reshape(2, 4, k) - apex[:, None]
    d_b, d_c = d[:, :2], d[:, :1:-1]  # (b1, b2) and (c1, c2)
    cross = d_b * d_c[::-1]  # x_b y_c and y_b x_c
    wts = 0.5 * np.abs(cross[0] - cross[1])
    pts = np.empty((2, 4, k))
    np.add(apex[:, None], (d_b + d_c) / 3.0, out=pts[:, VOL])

    np.subtract(edge[:, 1], edge[:, 0], out=vec[:, 1])
    np.add(edge[:, 0, None], GAUSS_T[:, None] * vec[:, 1, None], out=pts[:, SEG])
    sq = vec * vec
    length = np.sqrt(sq[0] + sq[1])  # of the gradient, of the segment
    ok = length[1] >= degen_tol
    seg_w = np.where(ok, 0.5 * length[1], 0.0)
    return pts, wts, seg_w, vec[:, 0] / length[0], ~ok


# ---------------------------------------------------------------------------
# per-element terms of a rule
# ---------------------------------------------------------------------------

def cut_terms(pts, wts, seg_w, nrm, tri, f_const, lam_over_h, g0, gx, gy, gxy):
    """Volume and boundary terms of the cut elements of a rule (``pts``
    (2, 4, k), ``wts`` (2, k), ``seg_w`` (k,) and ``nrm`` (2, k), as
    ``cut_rules`` returns them).  One product of the three hats' gradients
    with the four points' offsets from the affine origin v0 and the normal,
    summed over the coordinates, gives the reference coordinates of every
    point, xi = G1 . (p - v0) and eta = G2 . (p - v0), and the hats' normal
    derivatives G . n.

    Returns the weight sum (k,) and the source loads (3, k) of the cut
    regions, the Nitsche boundary loads (3, k) of the datum
    g = g0 + gx x + gy y + gxy x y, and ``bdn`` (3, 3, k): the barycentrics
    of the three hats at Gauss points 0 and 1 (rows 0 and 1) and their
    normal derivatives (row 2)."""
    k = wts.shape[1]
    v = np.empty((2, 5, k))  # by coordinate: the four points' offsets, the normal
    np.subtract(pts, tri[ORIGIN][:, None], out=v[:, :4])
    v[:, 4] = nrm
    prod = tri[GX.start:GY.stop].reshape(2, 3, 1, k) * v[:, None]
    bary = np.add(prod[0], prod[1])  # by hat and point (the normal last)
    # hat 0 at the four points is 1 - xi - eta, not the product's G0 . (p - v0)
    np.subtract(1.0, bary[1, :4], out=bary[0, :4])
    bary[0, :4] -= bary[2, :4]

    loads = np.empty((2, 3, 2, k))  # volume, boundary; by hat and slot or Gauss point
    np.multiply(bary[:, VOL], wts * f_const, out=loads[0])
    x, y = pts[0, SEG], pts[1, SEG]
    g = g0 + gx * x + gy * y + gxy * (x * y)
    np.multiply(seg_w, lam_over_h * (bary[:, SEG] * g) - bary[:, 4, None] * g, out=loads[1])
    f = loads[..., 0, :] + loads[..., 1, :]
    return wts[0] + wts[1], f[0], f[1], bary[:, 2:].transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# values of one (a, c) pair
# ---------------------------------------------------------------------------

def stiffness(wsum, a, c):
    """Diffusion value of hats a, c (constant gradients, stacked by
    coordinate) on a rule of total weight ``wsum``."""
    prod = a * c
    return wsum * (prod[0] + prod[1])


def nitsche(w, pa, pc, dna, dnc, lam_over_h):
    """Symmetric Nitsche value of hats a, c over both Gauss points: ``pa``,
    ``pc`` are (2, ...) barycentrics, ``w`` the Gauss weight.  Products are
    grouped so that swapping a and c commutes bitwise."""
    terms = w * (lam_over_h * (pa * pc) - (dnc * pa + dna * pc))
    return terms[0] + terms[1]


def consistency(w, pa, pc, dna, dnc):
    """Nitsche consistency value of hats a, c over both Gauss points, the
    energy-norm matrix minus the stiffness matrix.  Grouped like ``nitsche``,
    so that swapping a and c commutes bitwise."""
    terms = w * (dnc * pa + dna * pc)
    return terms[0] + terms[1]


def ghost_penalty(gamma, h, facet_len, ja, jc):
    """Ghost-penalty value of patch dofs a, c on a facet, from their
    normal-derivative jumps."""
    return gamma * h * facet_len * (ja * jc)


# ---------------------------------------------------------------------------
# 3x3 blocks for full assembly
# ---------------------------------------------------------------------------

def volume_contribs(wsum, tri):
    """Diffusion blocks (k, 9), row-major over local (a, c)."""
    grad = tri[GX.start:GY.stop].reshape(2, 3, 1, -1)
    return stiffness(wsum, grad, grad.transpose(0, 2, 1, 3)).reshape(9, -1).T


def boundary_contribs(w, bary, dn, lam_over_h):
    """Nitsche blocks (k, 9) per cut element, from the staged segment
    terms."""
    a_nit = nitsche(w, bary[:, :, None], bary[:, None], dn[:, None], dn[None], lam_over_h)
    return a_nit.reshape(9, -1).T
