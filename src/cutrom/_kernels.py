"""Hot per-element kernels: numba-compiled loops with a vectorized numpy fallback.

Everything here operates on plain float64/int64 arrays.  The two variants of
each kernel implement the same arithmetic expression for every element, in the
same order, so within one backend the results are bit-reproducible and the
entry-sampling path can match full assembly exactly.

Backend selection happens once at import time: set ``CUTROM_NUMBA=0`` in the
environment to force the pure-numpy path.  ``benchmarks/benchmark_kernels.py``
times both variants against each other.
"""

from __future__ import annotations

import os

import numpy as np

_env = os.environ.get("CUTROM_NUMBA", "1").strip().lower()
_want_numba = _env not in ("0", "false", "off", "no")

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # numba is optional at runtime
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and _want_numba
BACKEND = "numba" if USE_NUMBA else "numpy"

# degree-2 rule on the reference triangle (weights are |T|/3 each)
REF_XI = np.array([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])
REF_ETA = np.array([1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0])
# 2-point Gauss rule on the unit segment
GAUSS_T = np.array([0.5 * (1.0 - 1.0 / np.sqrt(3.0)), 0.5 * (1.0 + 1.0 / np.sqrt(3.0))])


# ---------------------------------------------------------------------------
# cut-cell quadrature rules
# ---------------------------------------------------------------------------

def _cut_rules_loops(tri_pts, phi, bvec, degen_tol, ref_xi, ref_eta, gauss_t):
    """Loop form of the cut-cell rule builder (compiled under numba).

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
    for e in range(k):
        p0 = phi[e, 0]
        p1 = phi[e, 1]
        p2 = phi[e, 2]
        gx = bvec[e, 0, 0] * p0 + bvec[e, 1, 0] * p1 + bvec[e, 2, 0] * p2
        gy = bvec[e, 0, 1] * p0 + bvec[e, 1, 1] * p1 + bvec[e, 2, 1] * p2
        gn = np.sqrt(gx * gx + gy * gy)
        seg_nrm[e, 0] = gx / gn
        seg_nrm[e, 1] = gy / gn
        nin = 0
        if p0 <= 0.0:
            nin += 1
        if p1 <= 0.0:
            nin += 1
        if p2 <= 0.0:
            nin += 1
        if nin == 1:
            if p0 <= 0.0:
                a = 0
            elif p1 <= 0.0:
                a = 1
            else:
                a = 2
            b = (a + 1) % 3
            c = (a + 2) % 3
            pa = phi[e, a]
            pb = phi[e, b]
            pc = phi[e, c]
            vax = tri_pts[e, a, 0]
            vay = tri_pts[e, a, 1]
            tab = pa / (pa - pb)
            tac = pa / (pa - pc)
            q1x = vax + tab * (tri_pts[e, b, 0] - vax)
            q1y = vay + tab * (tri_pts[e, b, 1] - vay)
            q2x = vax + tac * (tri_pts[e, c, 0] - vax)
            q2y = vay + tac * (tri_pts[e, c, 1] - vay)
            cross = (q1x - vax) * (q2y - vay) - (q1y - vay) * (q2x - vax)
            area = 0.5 * np.abs(cross)
            for q in range(3):
                vol_pts[e, q, 0] = vax + ref_xi[q] * (q1x - vax) + ref_eta[q] * (q2x - vax)
                vol_pts[e, q, 1] = vay + ref_xi[q] * (q1y - vay) + ref_eta[q] * (q2y - vay)
                vol_wts[e, q] = area / 3.0
            for q in range(3, 6):
                vol_pts[e, q, 0] = vax
                vol_pts[e, q, 1] = vay
        else:
            if p0 > 0.0:
                c = 0
            elif p1 > 0.0:
                c = 1
            else:
                c = 2
            a = (c + 1) % 3
            b = (c + 2) % 3
            pa = phi[e, a]
            pb = phi[e, b]
            pc = phi[e, c]
            vax = tri_pts[e, a, 0]
            vay = tri_pts[e, a, 1]
            vbx = tri_pts[e, b, 0]
            vby = tri_pts[e, b, 1]
            vcx = tri_pts[e, c, 0]
            vcy = tri_pts[e, c, 1]
            tac = pa / (pa - pc)
            tbc = pb / (pb - pc)
            q1x = vax + tac * (vcx - vax)
            q1y = vay + tac * (vcy - vay)
            q2x = vbx + tbc * (vcx - vbx)
            q2y = vby + tbc * (vcy - vby)
            cross1 = (vbx - vax) * (q2y - vay) - (vby - vay) * (q2x - vax)
            area1 = 0.5 * np.abs(cross1)
            for q in range(3):
                vol_pts[e, q, 0] = vax + ref_xi[q] * (vbx - vax) + ref_eta[q] * (q2x - vax)
                vol_pts[e, q, 1] = vay + ref_xi[q] * (vby - vay) + ref_eta[q] * (q2y - vay)
                vol_wts[e, q] = area1 / 3.0
            cross2 = (q2x - vax) * (q1y - vay) - (q2y - vay) * (q1x - vax)
            area2 = 0.5 * np.abs(cross2)
            for q in range(3):
                vol_pts[e, q + 3, 0] = vax + ref_xi[q] * (q2x - vax) + ref_eta[q] * (q1x - vax)
                vol_pts[e, q + 3, 1] = vay + ref_xi[q] * (q2y - vay) + ref_eta[q] * (q1y - vay)
                vol_wts[e, q + 3] = area2 / 3.0
        dx = q2x - q1x
        dy = q2y - q1y
        seg_len = np.sqrt(dx * dx + dy * dy)
        for q in range(2):
            seg_pts[e, q, 0] = q1x + gauss_t[q] * dx
            seg_pts[e, q, 1] = q1y + gauss_t[q] * dy
        if seg_len < degen_tol:
            degen[e] = 1
        else:
            seg_wts[e, 0] = 0.5 * seg_len
            seg_wts[e, 1] = 0.5 * seg_len
    return vol_pts, vol_wts, seg_pts, seg_wts, seg_nrm, degen


if HAVE_NUMBA:
    _cut_rules_nb = njit(cache=True)(_cut_rules_loops)


def _cut_rules_np(tri_pts, phi, bvec, degen_tol, ref_xi, ref_eta, gauss_t):
    """Vectorized cut-cell rule builder; same formulas as the loop form."""
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
        for q in range(3):
            vol_pts[one, q, 0] = (
                va[:, 0] + ref_xi[q] * (p_ab[:, 0] - va[:, 0]) + ref_eta[q] * (p_ac[:, 0] - va[:, 0])
            )
            vol_pts[one, q, 1] = (
                va[:, 1] + ref_xi[q] * (p_ab[:, 1] - va[:, 1]) + ref_eta[q] * (p_ac[:, 1] - va[:, 1])
            )
            vol_wts[one, q] = area / 3.0
        for q in range(3, 6):
            vol_pts[one, q, 0] = va[:, 0]
            vol_pts[one, q, 1] = va[:, 1]
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
        for q in range(3):
            vol_pts[two, q, 0] = (
                va[:, 0] + ref_xi[q] * (vb[:, 0] - va[:, 0]) + ref_eta[q] * (p_bc[:, 0] - va[:, 0])
            )
            vol_pts[two, q, 1] = (
                va[:, 1] + ref_xi[q] * (vb[:, 1] - va[:, 1]) + ref_eta[q] * (p_bc[:, 1] - va[:, 1])
            )
            vol_wts[two, q] = area1 / 3.0
        cross2 = (p_bc[:, 0] - va[:, 0]) * (p_ac[:, 1] - va[:, 1]) - (
            p_bc[:, 1] - va[:, 1]
        ) * (p_ac[:, 0] - va[:, 0])
        area2 = 0.5 * np.abs(cross2)
        for q in range(3):
            vol_pts[two, q + 3, 0] = (
                va[:, 0] + ref_xi[q] * (p_bc[:, 0] - va[:, 0]) + ref_eta[q] * (p_ac[:, 0] - va[:, 0])
            )
            vol_pts[two, q + 3, 1] = (
                va[:, 1] + ref_xi[q] * (p_bc[:, 1] - va[:, 1]) + ref_eta[q] * (p_ac[:, 1] - va[:, 1])
            )
            vol_wts[two, q + 3] = area2 / 3.0
        q1[two] = p_ac
        q2[two] = p_bc

    dx = q2[:, 0] - q1[:, 0]
    dy = q2[:, 1] - q1[:, 1]
    seg_len = np.sqrt(dx * dx + dy * dy)
    for q in range(2):
        seg_pts[:, q, 0] = q1[:, 0] + gauss_t[q] * dx
        seg_pts[:, q, 1] = q1[:, 1] + gauss_t[q] * dy
    ok = seg_len >= degen_tol
    degen[~ok] = 1
    half = 0.5 * seg_len
    seg_wts[ok, 0] = half[ok]
    seg_wts[ok, 1] = half[ok]
    return vol_pts, vol_wts, seg_pts, seg_wts, seg_nrm, degen


def cut_rules(tri_pts, phi, bvec, degen_tol):
    args = (tri_pts, phi, bvec, degen_tol, REF_XI, REF_ETA, GAUSS_T)
    if USE_NUMBA:
        return _cut_rules_nb(*args)
    return _cut_rules_np(*args)


# ---------------------------------------------------------------------------
# local contributions: volume (diffusion + source)
# ---------------------------------------------------------------------------

def _volume_contribs_loops(vol_pts, vol_wts, v0, inv_j, bvec, f_const):
    """Per-element diffusion blocks (row-major 3x3) and source loads."""
    k = vol_wts.shape[0]
    a_loc = np.zeros((k, 9))
    f_loc = np.zeros((k, 3))
    for e in range(k):
        wsum = 0.0
        for q in range(6):
            wsum += vol_wts[e, q]
        for a in range(3):
            for c in range(3):
                a_loc[e, 3 * a + c] = wsum * (
                    bvec[e, a, 0] * bvec[e, c, 0] + bvec[e, a, 1] * bvec[e, c, 1]
                )
        for q in range(6):
            w = vol_wts[e, q]
            dx = vol_pts[e, q, 0] - v0[e, 0]
            dy = vol_pts[e, q, 1] - v0[e, 1]
            xi = inv_j[e, 0, 0] * dx + inv_j[e, 0, 1] * dy
            eta = inv_j[e, 1, 0] * dx + inv_j[e, 1, 1] * dy
            wf = w * f_const
            f_loc[e, 0] += wf * (1.0 - xi - eta)
            f_loc[e, 1] += wf * xi
            f_loc[e, 2] += wf * eta
    return a_loc, f_loc


if HAVE_NUMBA:
    _volume_contribs_nb = njit(cache=True)(_volume_contribs_loops)


def _volume_contribs_np(vol_pts, vol_wts, v0, inv_j, bvec, f_const):
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


def volume_contribs(vol_pts, vol_wts, v0, inv_j, bvec, f_const):
    if USE_NUMBA:
        return _volume_contribs_nb(vol_pts, vol_wts, v0, inv_j, bvec, f_const)
    return _volume_contribs_np(vol_pts, vol_wts, v0, inv_j, bvec, f_const)


# ---------------------------------------------------------------------------
# local contributions: interface segment (Nitsche + boundary data)
# ---------------------------------------------------------------------------

def _boundary_contribs_loops(seg_pts, seg_wts, seg_nrm, v0, inv_j, bvec,
                             lam_over_h, g0, gx, gy, gxy):
    """Nitsche blocks, penalty-only blocks, and boundary loads per cut element.

    The (a, c) entry groups products so that swapping a and c commutes
    bitwise, keeping the assembled matrix exactly symmetric.
    """
    k = seg_wts.shape[0]
    a_nit = np.zeros((k, 9))
    pen = np.zeros((k, 9))
    f_loc = np.zeros((k, 3))
    p = np.zeros(3)
    dn = np.zeros(3)
    for e in range(k):
        nx = seg_nrm[e, 0]
        ny = seg_nrm[e, 1]
        dn[0] = bvec[e, 0, 0] * nx + bvec[e, 0, 1] * ny
        dn[1] = bvec[e, 1, 0] * nx + bvec[e, 1, 1] * ny
        dn[2] = bvec[e, 2, 0] * nx + bvec[e, 2, 1] * ny
        for q in range(2):
            w = seg_wts[e, q]
            x = seg_pts[e, q, 0]
            y = seg_pts[e, q, 1]
            dx = x - v0[e, 0]
            dy = y - v0[e, 1]
            xi = inv_j[e, 0, 0] * dx + inv_j[e, 0, 1] * dy
            eta = inv_j[e, 1, 0] * dx + inv_j[e, 1, 1] * dy
            p[0] = 1.0 - xi - eta
            p[1] = xi
            p[2] = eta
            g = g0 + gx * x + gy * y + gxy * (x * y)
            for a in range(3):
                for c in range(3):
                    pq = lam_over_h * (p[a] * p[c])
                    a_nit[e, 3 * a + c] += w * (pq - (dn[c] * p[a] + dn[a] * p[c]))
                    pen[e, 3 * a + c] += w * pq
                f_loc[e, a] += w * (lam_over_h * (p[a] * g) - dn[a] * g)
    return a_nit, pen, f_loc


if HAVE_NUMBA:
    _boundary_contribs_nb = njit(cache=True)(_boundary_contribs_loops)


def _boundary_contribs_np(seg_pts, seg_wts, seg_nrm, v0, inv_j, bvec,
                          lam_over_h, g0, gx, gy, gxy):
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


def boundary_contribs(seg_pts, seg_wts, seg_nrm, v0, inv_j, bvec,
                      lam_over_h, g0, gx, gy, gxy):
    args = (seg_pts, seg_wts, seg_nrm, v0, inv_j, bvec, lam_over_h, g0, gx, gy, gxy)
    if USE_NUMBA:
        return _boundary_contribs_nb(*args)
    return _boundary_contribs_np(*args)


# ---------------------------------------------------------------------------
# single-entry kernels for sampled evaluation (same formulas as above, one
# local slot per candidate instead of full 3x3 blocks)
# ---------------------------------------------------------------------------

def _entry_volume_matrix_loops(vol_wts, bvec, a_loc, c_loc):
    k = a_loc.shape[0]
    out = np.zeros(k)
    for e in range(k):
        wsum = 0.0
        for q in range(6):
            wsum += vol_wts[e, q]
        a = a_loc[e]
        c = c_loc[e]
        out[e] = wsum * (bvec[e, a, 0] * bvec[e, c, 0] + bvec[e, a, 1] * bvec[e, c, 1])
    return out


def _entry_volume_vector_loops(vol_pts, vol_wts, v0, inv_j, a_loc, f_const):
    k = a_loc.shape[0]
    out = np.zeros(k)
    for e in range(k):
        a = a_loc[e]
        acc = 0.0
        for q in range(6):
            w = vol_wts[e, q]
            dx = vol_pts[e, q, 0] - v0[e, 0]
            dy = vol_pts[e, q, 1] - v0[e, 1]
            xi = inv_j[e, 0, 0] * dx + inv_j[e, 0, 1] * dy
            eta = inv_j[e, 1, 0] * dx + inv_j[e, 1, 1] * dy
            wf = w * f_const
            if a == 0:
                acc += wf * (1.0 - xi - eta)
            elif a == 1:
                acc += wf * xi
            else:
                acc += wf * eta
        out[e] = acc
    return out


def _entry_boundary_matrix_loops(seg_pts, seg_wts, seg_nrm, v0, inv_j, bvec,
                                 a_loc, c_loc, lam_over_h):
    k = a_loc.shape[0]
    out = np.zeros(k)
    for e in range(k):
        nx = seg_nrm[e, 0]
        ny = seg_nrm[e, 1]
        a = a_loc[e]
        c = c_loc[e]
        dna = bvec[e, a, 0] * nx + bvec[e, a, 1] * ny
        dnc = bvec[e, c, 0] * nx + bvec[e, c, 1] * ny
        acc = 0.0
        for q in range(2):
            w = seg_wts[e, q]
            dx = seg_pts[e, q, 0] - v0[e, 0]
            dy = seg_pts[e, q, 1] - v0[e, 1]
            xi = inv_j[e, 0, 0] * dx + inv_j[e, 0, 1] * dy
            eta = inv_j[e, 1, 0] * dx + inv_j[e, 1, 1] * dy
            if a == 0:
                pa = 1.0 - xi - eta
            elif a == 1:
                pa = xi
            else:
                pa = eta
            if c == 0:
                pc = 1.0 - xi - eta
            elif c == 1:
                pc = xi
            else:
                pc = eta
            pq = lam_over_h * (pa * pc)
            acc += w * (pq - (dnc * pa + dna * pc))
        out[e] = acc
    return out


def _entry_boundary_vector_loops(seg_pts, seg_wts, seg_nrm, v0, inv_j, bvec,
                                 a_loc, lam_over_h, g0, gx, gy, gxy):
    k = a_loc.shape[0]
    out = np.zeros(k)
    for e in range(k):
        nx = seg_nrm[e, 0]
        ny = seg_nrm[e, 1]
        a = a_loc[e]
        dna = bvec[e, a, 0] * nx + bvec[e, a, 1] * ny
        acc = 0.0
        for q in range(2):
            w = seg_wts[e, q]
            x = seg_pts[e, q, 0]
            y = seg_pts[e, q, 1]
            dx = x - v0[e, 0]
            dy = y - v0[e, 1]
            xi = inv_j[e, 0, 0] * dx + inv_j[e, 0, 1] * dy
            eta = inv_j[e, 1, 0] * dx + inv_j[e, 1, 1] * dy
            if a == 0:
                pa = 1.0 - xi - eta
            elif a == 1:
                pa = xi
            else:
                pa = eta
            g = g0 + gx * x + gy * y + gxy * (x * y)
            acc += w * (lam_over_h * (pa * g) - dna * g)
        out[e] = acc
    return out


if HAVE_NUMBA:
    _entry_volume_matrix_nb = njit(cache=True)(_entry_volume_matrix_loops)
    _entry_volume_vector_nb = njit(cache=True)(_entry_volume_vector_loops)
    _entry_boundary_matrix_nb = njit(cache=True)(_entry_boundary_matrix_loops)
    _entry_boundary_vector_nb = njit(cache=True)(_entry_boundary_vector_loops)


def _bary_pick(a_loc, xi, eta):
    return np.where(a_loc == 0, 1.0 - xi - eta, np.where(a_loc == 1, xi, eta))


def _entry_volume_matrix_np(vol_wts, bvec, a_loc, c_loc):
    k = a_loc.shape[0]
    wsum = np.zeros(k)
    for q in range(6):
        wsum = wsum + vol_wts[:, q]
    rng = np.arange(k)
    ba = bvec[rng, a_loc]
    bc = bvec[rng, c_loc]
    return wsum * (ba[:, 0] * bc[:, 0] + ba[:, 1] * bc[:, 1])


def _entry_volume_vector_np(vol_pts, vol_wts, v0, inv_j, a_loc, f_const):
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


def _entry_boundary_matrix_np(seg_pts, seg_wts, seg_nrm, v0, inv_j, bvec,
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


def _entry_boundary_vector_np(seg_pts, seg_wts, seg_nrm, v0, inv_j, bvec,
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


def entry_volume_matrix(vol_wts, bvec, a_loc, c_loc):
    if USE_NUMBA:
        return _entry_volume_matrix_nb(vol_wts, bvec, a_loc, c_loc)
    return _entry_volume_matrix_np(vol_wts, bvec, a_loc, c_loc)


def entry_volume_vector(vol_pts, vol_wts, v0, inv_j, a_loc, f_const):
    if USE_NUMBA:
        return _entry_volume_vector_nb(vol_pts, vol_wts, v0, inv_j, a_loc, f_const)
    return _entry_volume_vector_np(vol_pts, vol_wts, v0, inv_j, a_loc, f_const)


def entry_boundary_matrix(seg_pts, seg_wts, seg_nrm, v0, inv_j, bvec, a_loc, c_loc, lam_over_h):
    if USE_NUMBA:
        return _entry_boundary_matrix_nb(seg_pts, seg_wts, seg_nrm, v0, inv_j, bvec,
                                         a_loc, c_loc, lam_over_h)
    return _entry_boundary_matrix_np(seg_pts, seg_wts, seg_nrm, v0, inv_j, bvec,
                                     a_loc, c_loc, lam_over_h)


def entry_boundary_vector(seg_pts, seg_wts, seg_nrm, v0, inv_j, bvec, a_loc,
                          lam_over_h, g0, gx, gy, gxy):
    if USE_NUMBA:
        return _entry_boundary_vector_nb(seg_pts, seg_wts, seg_nrm, v0, inv_j, bvec,
                                         a_loc, lam_over_h, g0, gx, gy, gxy)
    return _entry_boundary_vector_np(seg_pts, seg_wts, seg_nrm, v0, inv_j, bvec,
                                     a_loc, lam_over_h, g0, gx, gy, gxy)


def _entry_eval_fused_loops(
    m_ids, m_elems, m_aloc, m_cloc, m_v0, m_invj, m_b,
    g_ids, g_facets, g_jva, g_jvc, g_len,
    v_ids, v_elems, v_aloc, v_v0, v_invj, v_b,
    active_pos, cut_pos, ghost_flag,
    vol_pts, vol_wts, seg_pts, seg_wts, seg_nrm,
    lam_over_h, f_const, g0, gx, gy, gxy, h, gamma,
    n_matrix, n_vector,
):
    """Single-pass sampled evaluation (numba path): volume, boundary, then
    ghost contributions per entry, ascending entity order within each phase,
    with the same scalar expressions as the full-assembly kernels."""
    out_m = np.zeros(n_matrix)
    out_v = np.zeros(n_vector)

    for t in range(m_ids.shape[0]):
        ap = active_pos[m_elems[t]]
        if ap < 0:
            continue
        wsum = 0.0
        for q in range(6):
            wsum += vol_wts[ap, q]
        a = m_aloc[t]
        c = m_cloc[t]
        out_m[m_ids[t]] += wsum * (m_b[t, a, 0] * m_b[t, c, 0] + m_b[t, a, 1] * m_b[t, c, 1])

    for t in range(m_ids.shape[0]):
        cp = cut_pos[m_elems[t]]
        if cp < 0:
            continue
        nx = seg_nrm[cp, 0]
        ny = seg_nrm[cp, 1]
        a = m_aloc[t]
        c = m_cloc[t]
        dna = m_b[t, a, 0] * nx + m_b[t, a, 1] * ny
        dnc = m_b[t, c, 0] * nx + m_b[t, c, 1] * ny
        acc = 0.0
        for q in range(2):
            w = seg_wts[cp, q]
            dx = seg_pts[cp, q, 0] - m_v0[t, 0]
            dy = seg_pts[cp, q, 1] - m_v0[t, 1]
            xi = m_invj[t, 0, 0] * dx + m_invj[t, 0, 1] * dy
            eta = m_invj[t, 1, 0] * dx + m_invj[t, 1, 1] * dy
            if a == 0:
                pa = 1.0 - xi - eta
            elif a == 1:
                pa = xi
            else:
                pa = eta
            if c == 0:
                pc = 1.0 - xi - eta
            elif c == 1:
                pc = xi
            else:
                pc = eta
            pq = lam_over_h * (pa * pc)
            acc += w * (pq - (dnc * pa + dna * pc))
        out_m[m_ids[t]] += acc

    for t in range(g_ids.shape[0]):
        if not ghost_flag[g_facets[t]]:
            continue
        coef0 = gamma[0] * h * g_len[t]
        out_m[g_ids[t]] += coef0 * (g_jva[t] * g_jvc[t])

    for t in range(v_ids.shape[0]):
        ap = active_pos[v_elems[t]]
        if ap < 0:
            continue
        a = v_aloc[t]
        acc = 0.0
        for q in range(6):
            w = vol_wts[ap, q]
            dx = vol_pts[ap, q, 0] - v_v0[t, 0]
            dy = vol_pts[ap, q, 1] - v_v0[t, 1]
            xi = v_invj[t, 0, 0] * dx + v_invj[t, 0, 1] * dy
            eta = v_invj[t, 1, 0] * dx + v_invj[t, 1, 1] * dy
            wf = w * f_const
            if a == 0:
                acc += wf * (1.0 - xi - eta)
            elif a == 1:
                acc += wf * xi
            else:
                acc += wf * eta
        out_v[v_ids[t]] += acc

    for t in range(v_ids.shape[0]):
        cp = cut_pos[v_elems[t]]
        if cp < 0:
            continue
        nx = seg_nrm[cp, 0]
        ny = seg_nrm[cp, 1]
        a = v_aloc[t]
        dna = v_b[t, a, 0] * nx + v_b[t, a, 1] * ny
        acc = 0.0
        for q in range(2):
            w = seg_wts[cp, q]
            x = seg_pts[cp, q, 0]
            y = seg_pts[cp, q, 1]
            dx = x - v_v0[t, 0]
            dy = y - v_v0[t, 1]
            xi = v_invj[t, 0, 0] * dx + v_invj[t, 0, 1] * dy
            eta = v_invj[t, 1, 0] * dx + v_invj[t, 1, 1] * dy
            if a == 0:
                pa = 1.0 - xi - eta
            elif a == 1:
                pa = xi
            else:
                pa = eta
            g = g0 + gx * x + gy * y + gxy * (x * y)
            acc += w * (lam_over_h * (pa * g) - dna * g)
        out_v[v_ids[t]] += acc

    return out_m, out_v


if HAVE_NUMBA:
    _entry_eval_fused_nb = njit(cache=True)(_entry_eval_fused_loops)
