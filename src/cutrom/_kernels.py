"""Per-element kernels of the cut finite element method, vectorized over elements.

Everything here operates on plain float64 arrays in component-major layout:
one contiguous row per component (a coordinate, a quadrature slot, a local
vertex) and one column per element.  An element's mesh data is its column of
the per-triangle table ``BackgroundMesh.tri_comp``, whose rows ``X``, ``Y``,
``GX`` and ``GY`` hold the three vertex coordinates and the three P1 basis
gradients.

Each local formula exists once: the volume and boundary terms of a rule
(``volume_terms``, ``boundary_terms``), and the stiffness, Nitsche, penalty
and ghost-penalty values of one (a, c) pair (``stiffness``, ``nitsche``,
``penalty``, ``ghost_penalty``).  Full assembly applies the pair formulas to
whole 3x3 blocks (``volume_contribs``, ``boundary_contribs``); sampled entry
evaluation applies them to the single local slots it needs.  Every kernel
evaluates the same expression for every element in a fixed order, so the two
agree bit for bit and results are bit-reproducible.
"""

from __future__ import annotations

import numpy as np

# name of the kernel implementation, recorded in benchmark run manifests
BACKEND = "numpy"

# degree-2 rule on the reference triangle (weights are |T|/3 each)
REF_XI = np.array([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])
REF_ETA = np.array([1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0])
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

def mapped_points(va, vb, vc):
    """The 3 reference points mapped to each triangle (va, vb, vc), as a
    (k, 3, 2) block of va + xi * (vb - va) + eta * (vc - va)."""
    return (va[:, None, :] + REF_XI[:, None] * (vb - va)[:, None, :]
            + REF_ETA[:, None] * (vc - va)[:, None, :])


def cut_rules(tri, phi, degen_tol):
    """Quadrature rules on the cut triangles, in one pass over all of them.

    ``tri`` is the (12, k) table of the cut triangles and ``phi`` the (3, k)
    level-set values at their vertices.  The sub-region {phi_lin <= 0} is
    split into one or two sub-triangles carrying the mapped 3-point rule
    (slots 0..5; zero-weight padding at the lone vertex when there is one),
    and the straight interface segment {phi_lin = 0} carries a 2-point Gauss
    rule with the outward unit normal grad(phi_lin)/|grad(phi_lin)|.
    Segments shorter than ``degen_tol`` are flagged degenerate and get zero
    weights.

    Each triangle is rotated so that its lone vertex (the only one inside,
    or the only one outside) comes first, as (l, m, n).  With one vertex
    inside, the edge points run from l towards m and n, and the region is
    the triangle (l, E0, E1).  With two inside, they run from m and n
    towards l, and the region is (m, n, E1) plus (m, E1, E0).  ``np.where``
    only selects the inputs of the shared formulas.

    Returns ``pts`` (2, 6, k) by coordinate and slot, ``wts`` (6, k),
    ``seg`` (2, 2, k) by Gauss point and coordinate, the Gauss weight
    ``seg_w`` (k,), the normal ``nrm`` (2, k) and the degenerate flags.
    """
    k = phi.shape[1]
    grad = tri[GX.start:GY.stop].reshape(2, 3, k) * phi
    grad = grad[:, 0] + grad[:, 1] + grad[:, 2]
    nrm = grad / np.sqrt(grad[0] * grad[0] + grad[1] * grad[1])

    code = _CODE_BITS @ (phi <= 0.0).view(np.uint8)
    one = _ONE_BY_CODE[code]
    # (role, x/y/phi, k) from corners laid out (vertex, x/y/phi, k)
    corner = np.stack([tri[X], tri[Y], phi], axis=1)
    vert = np.take(_ROLE_VERTEX, code, axis=1)
    sel = np.take(corner, (vert * (3 * k))[:, None] + np.arange(3 * k).reshape(3, k))

    t = sel[0:2, 2] / (sel[0:2, 2] - sel[2:4, 2])
    base = sel[0:2, :2]
    edge = base + t[:, None] * (sel[2:4, :2] - base)  # (edge, coordinate, k)
    apex = base[0]  # first vertex of both sub-triangles: l, or m
    # second and third vertex of each sub-triangle: (b1, b2, c1, c2)
    bc = np.where(one, np.stack([edge[0], apex, edge[1], apex]),
                  np.stack([sel[4, :2], edge[1], edge[1], edge[0]]))
    d_b = bc[0:2] - apex
    d_c = bc[2:4] - apex
    cross = d_b[:, 0] * d_c[:, 1] - d_b[:, 1] * d_c[:, 0]
    wts = np.repeat(0.5 * np.abs(cross) / 3.0, 3, axis=0)
    pts = (apex[:, None, None, :] + REF_XI[:, None] * d_b.transpose(1, 0, 2)[:, :, None, :]
           + REF_ETA[:, None] * d_c.transpose(1, 0, 2)[:, :, None, :]).reshape(2, 6, k)

    d = edge[1] - edge[0]
    seg_len = np.sqrt(d[0] * d[0] + d[1] * d[1])
    seg = edge[0] + GAUSS_T[:, None, None] * d
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
    """Weight sum (k,) and source loads (3, k) of a 6-slot volume rule:
    ``pts`` (2, 6, k) by coordinate and slot, ``wts`` (6, k)."""
    xi, eta = _reference_coords(pts, tri)
    wf = wts * f_const
    terms = np.empty((4,) + wts.shape)
    terms[0] = wts
    terms[1] = wf * (1.0 - xi - eta)
    terms[2] = wf * xi
    terms[3] = wf * eta
    acc = terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3] + terms[:, 4] + terms[:, 5]
    return acc[0], acc[1:]


def boundary_terms(seg, seg_w, nrm, tri, lam_over_h, g0, gx, gy, gxy):
    """Interface-segment terms per cut element: the barycentrics (2, 3, k)
    at both Gauss points, the normal derivatives (3, k) of the three hats,
    and the Nitsche boundary loads (3, k) of the datum
    g = g0 + gx x + gy y + gxy x y."""
    dn = tri[GX] * nrm[0] + tri[GY] * nrm[1]
    xi, eta = _reference_coords(seg.transpose(1, 0, 2), tri)
    bary = np.empty((2, 3, seg.shape[2]))
    bary[:, 0] = 1.0 - xi - eta
    bary[:, 1] = xi
    bary[:, 2] = eta
    x = seg[:, 0]
    y = seg[:, 1]
    g = (g0 + gx * x + gy * y + gxy * (x * y))[:, None]
    terms = seg_w * (lam_over_h * (bary * g) - dn * g)
    return bary, dn, terms[0] + terms[1]


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


def penalty(w, pa, pc, lam_over_h):
    """Penalty-only boundary value of hats a, c (the energy-norm term)."""
    terms = w * (lam_over_h * (pa * pc))
    return terms[0] + terms[1]


def ghost_penalty(gamma0, h, facet_len, ja, jc):
    """Order-0 ghost-penalty value of patch dofs a, c on a facet, from their
    normal-derivative jumps."""
    return gamma0 * h * facet_len * (ja * jc)


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
    """Nitsche blocks and penalty-only blocks (k, 9) per cut element, from
    the staged segment terms."""
    pa = bary[:, :, None]
    pc = bary[:, None]
    a_nit = nitsche(w, pa, pc, dn[:, None], dn[None], lam_over_h)
    pen = penalty(w, pa, pc, lam_over_h)
    return a_nit.reshape(9, -1).T, pen.reshape(9, -1).T
