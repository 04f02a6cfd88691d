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
consumer calls on exactly the cut elements it sums.

Each local formula exists once: the volume and boundary terms of a cut
element (``volume_terms``, ``boundary_terms``), and the stiffness, Nitsche,
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
# the rows of the inverse Jacobian: (xi, eta) = J_x (x - x0) + J_y (y - y0)
ORIGIN, JX, JY = slice(0, 4, 3), slice(7, 9), slice(10, 12)

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


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

def cut_rules(tri, phi, degen_tol):
    """Quadrature rules on the cut triangles, in one pass over all of them.

    ``tri`` is the (12, k) table of the cut triangles and ``phi`` the (3, k)
    level-set values at their vertices.  The sub-region {phi_lin <= 0} is
    split into one or two sub-triangles, each carried by its centroid and
    area (slots 0 and 1; a zero-area slot at the lone vertex when there is
    one), and the straight interface segment {phi_lin = 0} carries a
    2-point Gauss rule with the outward unit normal
    grad(phi_lin)/|grad(phi_lin)|.  Segments shorter than ``degen_tol`` are flagged degenerate and get zero
    weights.

    Each triangle is rotated so that its lone vertex (the only one inside,
    or the only one outside) comes first, as (l, m, n).  With one vertex
    inside, the edge points run from l towards m and n, and the region is
    the triangle (l, E0, E1).  With two inside, they run from m and n
    towards l, and the region is (m, n, E1) plus (m, E1, E0).  The vertices
    of each role are gathered by flat offsets, and ``np.copyto`` only picks
    the inputs of the shared formulas.

    Returns ``pts`` (2, 2, k) by coordinate and slot, ``wts`` (2, k),
    ``seg`` (2, 2, k) by Gauss point and coordinate, the Gauss weight
    ``seg_w`` (k,), the normal ``nrm`` (2, k) and the degenerate flags.
    """
    k = phi.shape[1]
    grad = tri[GX.start:GY.stop].reshape(2, 3, k) * phi
    grad = grad[:, 0] + grad[:, 1] + grad[:, 2]
    nrm = grad / np.sqrt(grad[0] * grad[0] + grad[1] * grad[1])

    code = _CODE_BITS @ (phi <= 0.0).view(np.uint8)
    one = _ONE_BY_CODE[code]
    # the role vertices as flat offsets into the (vertex, k) rows of tri and
    # phi; in range by construction, so ``mode="clip"`` takes them unbuffered
    at = np.take(_ROLE_VERTEX, code, axis=1) * k + np.arange(k)
    xy = np.empty((2, 5, k))  # by coordinate and role
    np.take(tri[X], at, out=xy[0], mode="clip")
    np.take(tri[Y], at, out=xy[1], mode="clip")
    ph = np.take(phi, at[:4])

    t = ph[0:2] / (ph[0:2] - ph[2:4])
    base = xy[:, 0:2]
    edge = base + t * (xy[:, 2:4] - base)  # (coordinate, edge, k)
    apex = xy[:, 0]  # first vertex of both sub-triangles: l, or m
    # second and third vertex of each sub-triangle, as (b1, b2, c2, c1):
    # (n, E1, E0, E1) with two vertices inside, (E0, l, l, E1) with one
    bc = np.empty((2, 4, k))
    bc[:, 0] = xy[:, 4]
    bc[:, 1::2] = edge[:, 1:]
    bc[:, 2] = edge[:, 0]
    np.copyto(bc[:, 0], edge[:, 0], where=one)
    np.copyto(bc[:, 1:3], apex[:, None], where=one)
    d = bc - apex[:, None]
    d_b, d_c = d[:, :2], d[:, :1:-1]  # (b1, b2) and (c1, c2)
    cross = d_b[0] * d_c[1] - d_b[1] * d_c[0]
    wts = 0.5 * np.abs(cross)
    pts = apex[:, None] + (d_b + d_c) / 3.0

    d = edge[:, 1] - edge[:, 0]
    seg_len = np.sqrt(d[0] * d[0] + d[1] * d[1])
    seg = edge[:, 0] + GAUSS_T[:, None, None] * d
    ok = seg_len >= degen_tol
    seg_w = np.where(ok, 0.5 * seg_len, 0.0)
    return pts, wts, seg, seg_w, nrm, ~ok


# ---------------------------------------------------------------------------
# per-element terms of a rule
# ---------------------------------------------------------------------------

def _reference_coords(pts, tri):
    """(xi, eta) of points ``pts`` (2, ..., k) in each element's reference
    frame, stacked as (2, ..., k): xi = G1 . (p - v0), eta = G2 . (p - v0)."""
    shape = (2,) + (1,) * (pts.ndim - 2) + (-1,)
    d = pts - tri[ORIGIN].reshape(shape)
    return tri[JX].reshape(shape) * d[0] + tri[JY].reshape(shape) * d[1]


def volume_terms(pts, wts, tri, f_const):
    """Weight sum (k,) and source loads (3, k) of the cut regions: ``pts``
    (2, 2, k) sub-triangle centroids by coordinate and slot, ``wts`` (2, k)
    their areas."""
    xi, eta = _reference_coords(pts, tri)
    wf = wts * f_const
    terms = np.empty((4,) + wts.shape)
    terms[0] = wts
    terms[1] = wf * (1.0 - xi - eta)
    terms[2] = wf * xi
    terms[3] = wf * eta
    acc = terms[:, 0] + terms[:, 1]
    return acc[0], acc[1:]


def boundary_terms(seg, seg_w, nrm, tri, lam_over_h, g0, gx, gy, gxy):
    """Interface-segment terms per cut element, in one (3, 3, k) array: the
    barycentrics of the three hats at Gauss points 0 and 1 (rows 0 and 1)
    and their normal derivatives (row 2); and the Nitsche boundary loads
    (3, k) of the datum g = g0 + gx x + gy y + gxy x y."""
    bdn = np.empty((3, 3, seg.shape[2]))
    bary, dn = bdn[:2], bdn[2]
    np.add(tri[GX] * nrm[0], tri[GY] * nrm[1], out=dn)
    xi, eta = _reference_coords(seg.transpose(1, 0, 2), tri)
    bary[:, 0] = 1.0 - xi - eta
    bary[:, 1] = xi
    bary[:, 2] = eta
    x = seg[:, 0]
    y = seg[:, 1]
    g = (g0 + gx * x + gy * y + gxy * (x * y))[:, None]
    terms = seg_w * (lam_over_h * (bary * g) - dn * g)
    return bdn, terms[0] + terms[1]


# ---------------------------------------------------------------------------
# values of one (a, c) pair
# ---------------------------------------------------------------------------

def stiffness(wsum, ax, ay, cx, cy):
    """Diffusion value of hats a, c (constant gradients) on a rule of
    total weight ``wsum``."""
    return wsum * (ax * cx + ay * cy)


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
    bx = tri[GX]
    by = tri[GY]
    blocks = stiffness(wsum, bx[:, None], by[:, None], bx[None], by[None])
    return blocks.reshape(9, -1).T


def boundary_contribs(w, bary, dn, lam_over_h):
    """Nitsche blocks (k, 9) per cut element, from the staged segment
    terms."""
    a_nit = nitsche(w, bary[:, :, None], bary[:, None], dn[:, None], dn[None], lam_over_h)
    return a_nit.reshape(9, -1).T
