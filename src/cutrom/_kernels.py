"""Per-element kernels of the cut finite element method, vectorized over elements.

Everything here operates on plain float64/int64 arrays.  Each kernel
evaluates the same arithmetic expression for every element, in a fixed
order, so results are bit-reproducible.  The single-entry kernels at the end
repeat the formulas of the full-block kernels one local slot at a time, so
sampled entry evaluation (``assembly.evaluate_entries``) matches full
assembly bit for bit.
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


# ---------------------------------------------------------------------------
# cut-cell quadrature rules
# ---------------------------------------------------------------------------

def mapped_points(va, vb, vc):
    """The 3 reference points mapped to each triangle (va, vb, vc), as a
    (k, 3, 2) block of va + xi * (vb - va) + eta * (vc - va)."""
    return (va[:, None, :] + REF_XI[:, None] * (vb - va)[:, None, :]
            + REF_ETA[:, None] * (vc - va)[:, None, :])


def cut_rules(tri_pts, phi, bvec, degen_tol):
    """Quadrature rules on the cut triangles.

    For each cut triangle the sub-region {phi_lin <= 0} is split into one or
    two sub-triangles carrying the mapped 3-point rule (slots 0..5 of the
    volume arrays, zero-weight padding), and the straight interface segment
    {phi_lin = 0} carries a 2-point Gauss rule with the outward unit normal
    grad(phi_lin)/|grad(phi_lin)|.  Segments shorter than ``degen_tol`` are
    flagged degenerate and get zero weights.
    """
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

    one = np.flatnonzero(nin == 1)
    if one.size:
        a = np.argmax(inside[one], axis=1)
        b = (a + 1) % 3
        c = (a + 2) % 3
        va = tri_pts[one, a]
        vb = tri_pts[one, b]
        vc = tri_pts[one, c]
        pa = phi[one, a]
        pb = phi[one, b]
        pc = phi[one, c]
        tab = pa / (pa - pb)
        tac = pa / (pa - pc)
        p_ab = va + tab[:, None] * (vb - va)
        p_ac = va + tac[:, None] * (vc - va)
        cross = (p_ab[:, 0] - va[:, 0]) * (p_ac[:, 1] - va[:, 1]) - (
            p_ab[:, 1] - va[:, 1]
        ) * (p_ac[:, 0] - va[:, 0])
        area = 0.5 * np.abs(cross)
        vol_pts[one, :3] = mapped_points(va, p_ab, p_ac)
        vol_pts[one, 3:] = va[:, None, :]
        vol_wts[one, :3] = (area / 3.0)[:, None]
        q1[one] = p_ab
        q2[one] = p_ac

    two = np.flatnonzero(nin == 2)
    if two.size:
        c = np.argmax(~inside[two], axis=1)
        a = (c + 1) % 3
        b = (c + 2) % 3
        va = tri_pts[two, a]
        vb = tri_pts[two, b]
        vc = tri_pts[two, c]
        pa = phi[two, a]
        pb = phi[two, b]
        pc = phi[two, c]
        tac = pa / (pa - pc)
        tbc = pb / (pb - pc)
        p_ac = va + tac[:, None] * (vc - va)
        p_bc = vb + tbc[:, None] * (vc - vb)
        cross1 = (vb[:, 0] - va[:, 0]) * (p_bc[:, 1] - va[:, 1]) - (
            vb[:, 1] - va[:, 1]
        ) * (p_bc[:, 0] - va[:, 0])
        area1 = 0.5 * np.abs(cross1)
        cross2 = (p_bc[:, 0] - va[:, 0]) * (p_ac[:, 1] - va[:, 1]) - (
            p_bc[:, 1] - va[:, 1]
        ) * (p_ac[:, 0] - va[:, 0])
        area2 = 0.5 * np.abs(cross2)
        vol_pts[two, :3] = mapped_points(va, vb, p_bc)
        vol_pts[two, 3:] = mapped_points(va, p_bc, p_ac)
        vol_wts[two, :3] = (area1 / 3.0)[:, None]
        vol_wts[two, 3:] = (area2 / 3.0)[:, None]
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
    half = 0.5 * seg_len
    seg_wts[ok, 0] = half[ok]
    seg_wts[ok, 1] = half[ok]
    return vol_pts, vol_wts, seg_pts, seg_wts, seg_nrm, degen


# ---------------------------------------------------------------------------
# local contributions: volume (diffusion + source)
# ---------------------------------------------------------------------------

def volume_contribs(vol_pts, vol_wts, v0, inv_j, bvec, f_const):
    """Per-element diffusion blocks (row-major 3x3) and source loads."""
    k = vol_wts.shape[0]
    a_loc = np.zeros((k, 9))
    f_loc = np.zeros((k, 3))
    wsum = np.zeros(k)
    for q in range(6):
        wsum = wsum + vol_wts[:, q]
    for a in range(3):
        for c in range(3):
            a_loc[:, 3 * a + c] = wsum * (
                bvec[:, a, 0] * bvec[:, c, 0] + bvec[:, a, 1] * bvec[:, c, 1]
            )
    for q in range(6):
        w = vol_wts[:, q]
        dx = vol_pts[:, q, 0] - v0[:, 0]
        dy = vol_pts[:, q, 1] - v0[:, 1]
        xi = inv_j[:, 0, 0] * dx + inv_j[:, 0, 1] * dy
        eta = inv_j[:, 1, 0] * dx + inv_j[:, 1, 1] * dy
        wf = w * f_const
        f_loc[:, 0] += wf * (1.0 - xi - eta)
        f_loc[:, 1] += wf * xi
        f_loc[:, 2] += wf * eta
    return a_loc, f_loc


# ---------------------------------------------------------------------------
# local contributions: interface segment (Nitsche + boundary data)
# ---------------------------------------------------------------------------

def boundary_contribs(seg_pts, seg_wts, seg_nrm, v0, inv_j, bvec,
                      lam_over_h, g0, gx, gy, gxy):
    """Nitsche blocks, penalty-only blocks, and boundary loads per cut element.

    The (a, c) entry groups products so that swapping a and c commutes
    bitwise, keeping the assembled matrix exactly symmetric.
    """
    k = seg_wts.shape[0]
    a_nit = np.zeros((k, 9))
    pen = np.zeros((k, 9))
    f_loc = np.zeros((k, 3))
    nx = seg_nrm[:, 0]
    ny = seg_nrm[:, 1]
    dn = [bvec[:, a, 0] * nx + bvec[:, a, 1] * ny for a in range(3)]
    for q in range(2):
        w = seg_wts[:, q]
        x = seg_pts[:, q, 0]
        y = seg_pts[:, q, 1]
        dxv = x - v0[:, 0]
        dyv = y - v0[:, 1]
        xi = inv_j[:, 0, 0] * dxv + inv_j[:, 0, 1] * dyv
        eta = inv_j[:, 1, 0] * dxv + inv_j[:, 1, 1] * dyv
        p = (1.0 - xi - eta, xi, eta)
        g = g0 + gx * x + gy * y + gxy * (x * y)
        for a in range(3):
            for c in range(3):
                pq = lam_over_h * (p[a] * p[c])
                a_nit[:, 3 * a + c] += w * (pq - (dn[c] * p[a] + dn[a] * p[c]))
                pen[:, 3 * a + c] += w * pq
            f_loc[:, a] += w * (lam_over_h * (p[a] * g) - dn[a] * g)
    return a_nit, pen, f_loc


# ---------------------------------------------------------------------------
# single-entry kernels for sampled evaluation (same formulas as above, one
# local slot per candidate instead of full 3x3 blocks)
# ---------------------------------------------------------------------------

def _bary_pick(a_loc, xi, eta):
    return np.where(a_loc == 0, 1.0 - xi - eta, np.where(a_loc == 1, xi, eta))


def entry_volume_matrix(vol_wts, bvec, a_loc, c_loc):
    k = a_loc.shape[0]
    wsum = np.zeros(k)
    for q in range(6):
        wsum = wsum + vol_wts[:, q]
    rng = np.arange(k)
    ba = bvec[rng, a_loc]
    bc = bvec[rng, c_loc]
    return wsum * (ba[:, 0] * bc[:, 0] + ba[:, 1] * bc[:, 1])


def entry_volume_vector(vol_pts, vol_wts, v0, inv_j, a_loc, f_const):
    k = a_loc.shape[0]
    acc = np.zeros(k)
    for q in range(6):
        w = vol_wts[:, q]
        dx = vol_pts[:, q, 0] - v0[:, 0]
        dy = vol_pts[:, q, 1] - v0[:, 1]
        xi = inv_j[:, 0, 0] * dx + inv_j[:, 0, 1] * dy
        eta = inv_j[:, 1, 0] * dx + inv_j[:, 1, 1] * dy
        wf = w * f_const
        acc += np.where(a_loc == 0, wf * (1.0 - xi - eta), np.where(a_loc == 1, wf * xi, wf * eta))
    return acc


def entry_boundary_matrix(seg_pts, seg_wts, seg_nrm, v0, inv_j, bvec,
                          a_loc, c_loc, lam_over_h):
    k = a_loc.shape[0]
    rng = np.arange(k)
    nx = seg_nrm[:, 0]
    ny = seg_nrm[:, 1]
    ba = bvec[rng, a_loc]
    bc = bvec[rng, c_loc]
    dna = ba[:, 0] * nx + ba[:, 1] * ny
    dnc = bc[:, 0] * nx + bc[:, 1] * ny
    acc = np.zeros(k)
    for q in range(2):
        w = seg_wts[:, q]
        dx = seg_pts[:, q, 0] - v0[:, 0]
        dy = seg_pts[:, q, 1] - v0[:, 1]
        xi = inv_j[:, 0, 0] * dx + inv_j[:, 0, 1] * dy
        eta = inv_j[:, 1, 0] * dx + inv_j[:, 1, 1] * dy
        pa = _bary_pick(a_loc, xi, eta)
        pc = _bary_pick(c_loc, xi, eta)
        pq = lam_over_h * (pa * pc)
        acc += w * (pq - (dnc * pa + dna * pc))
    return acc


def entry_boundary_vector(seg_pts, seg_wts, seg_nrm, v0, inv_j, bvec,
                          a_loc, lam_over_h, g0, gx, gy, gxy):
    k = a_loc.shape[0]
    rng = np.arange(k)
    nx = seg_nrm[:, 0]
    ny = seg_nrm[:, 1]
    ba = bvec[rng, a_loc]
    dna = ba[:, 0] * nx + ba[:, 1] * ny
    acc = np.zeros(k)
    for q in range(2):
        w = seg_wts[:, q]
        x = seg_pts[:, q, 0]
        y = seg_pts[:, q, 1]
        dxv = x - v0[:, 0]
        dyv = y - v0[:, 1]
        xi = inv_j[:, 0, 0] * dxv + inv_j[:, 0, 1] * dyv
        eta = inv_j[:, 1, 0] * dxv + inv_j[:, 1, 1] * dyv
        pa = _bary_pick(a_loc, xi, eta)
        g = g0 + gx * x + gy * y + gxy * (x * y)
        acc += w * (lam_over_h * (pa * g) - dna * g)
    return acc
