"""A posteriori estimators, true errors, effectivity indices, and the combined bound.

Naming note for the record/CSV schema: ``eta_A``/``eta_f`` are the relative
interpolation-quality indicators of the sampled operators, ``eta_2a``/``eta_2b``
the plain and Jacobi-weighted residual norms, ``eta_2a_active`` the residual
norm restricted to active dofs, and ``eta_pod`` the discarded-energy fraction.
Effectivities divide by the relative Euclidean error, mirroring the report
tables; the mesh-norm error ``e_T`` is carried alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np
import scipy.sparse as sp


class EstimatorError(ValueError):
    pass


@dataclass
class EstimatorRecord:
    """One sweep record: all estimator values for a (parameter, mode count) pair."""

    mu_r: float
    mu_theta: float
    n: int
    eta_A: float
    eta_f: float
    eta_2a: float
    eta_2b: float
    eta_2a_active: float
    eta_pod: float
    e_rel: float
    e_T: float
    theta_2a: float
    theta_2b: float
    theta_2a_active: float
    bound: float
    d_min: float
    d_max: float
    fom_time: float = 0.0
    rom_time: float = 0.0

    FIELDS: ClassVar[tuple]  # the field names in order: the records.csv columns


EstimatorRecord.FIELDS = tuple(f.name for f in fields(EstimatorRecord))


def _frobenius(a) -> float:
    if sp.issparse(a):
        return float(np.sqrt((a.data * a.data).sum()))
    return float(np.linalg.norm(np.asarray(a)))


def deim_matrix_error(a, a_deim) -> tuple[float, float]:
    """Absolute and relative Frobenius error of the interpolated stiffness
    matrix."""
    denom = _frobenius(a)
    if denom == 0.0:
        raise EstimatorError("reference matrix has zero Frobenius norm")
    err = _frobenius(a - a_deim)
    return err, err / denom


def deim_vector_error(f, f_deim) -> tuple[float, float]:
    """Absolute and relative Euclidean error of the interpolated load vector."""
    denom = float(np.linalg.norm(f))
    if denom == 0.0:
        raise EstimatorError("reference vector has zero norm")
    err = float(np.linalg.norm(np.asarray(f) - np.asarray(f_deim)))
    return err, err / denom


def residual_norm_plain(r) -> float:
    """Plain Euclidean residual norm."""
    return float(np.linalg.norm(r))


def residual_norm_jacobi(r, a_diag, eps_safe: float) -> float:
    """Diagonal-weighted residual norm sqrt(sum r_i^2 / max(|d_i|, eps_safe))."""
    if eps_safe <= 0.0:
        raise EstimatorError("diagonal safeguard must be positive")
    r = np.asarray(r, dtype=float)
    d = np.maximum(np.abs(np.asarray(a_diag, dtype=float)), eps_safe)
    return float(np.sqrt((r * r / d).sum()))


def residual_norm_active(r, active) -> float:
    """Euclidean norm of the residual restricted to the active dof set."""
    return float(np.linalg.norm(np.asarray(r)[np.asarray(active, dtype=np.int64)]))


def true_errors(u_fom, u_rom, norm_matrix) -> tuple[float, float]:
    """Relative Euclidean dof error and the mesh-norm error of the difference."""
    u_fom = np.asarray(u_fom, dtype=float)
    denom = float(np.linalg.norm(u_fom))
    if denom == 0.0:
        raise EstimatorError("full-order solution is identically zero")
    e = u_fom - np.asarray(u_rom, dtype=float)
    e_rel = float(np.linalg.norm(e)) / denom
    quad = float(e @ (norm_matrix @ e))
    e_t = float(np.sqrt(max(quad, 0.0)))
    return e_rel, e_t


def effectivity(eta: float, e: float) -> float:
    """Estimator over error; undefined (nan) when the error vanishes."""
    if e == 0.0:
        return float("nan")
    return eta / e


def combined_error_bound(res_active: float, a_err_frob: float, f_err_l2: float,
                         u_rom_norm: float, vn_norm: float, alpha_star: float) -> float:
    """Total bound: residual term plus interpolation perturbation terms,
    each divided by the coercivity constant.

    The matrix term carries vn_norm^4 (the operator-norm factor times the
    Frobenius-to-operator constant, both equal to the squared basis norm).
    """
    if alpha_star <= 0.0:
        raise EstimatorError("coercivity constant must be positive")
    term1 = res_active / alpha_star
    term2 = (vn_norm ** 4 / alpha_star) * a_err_frob * u_rom_norm
    term3 = (vn_norm / alpha_star) * f_err_l2
    return term1 + term2 + term3


def alpha_star(nitsche_lambda: float, c_inv: float = 1.0) -> float:
    """Coercivity constant min(1 - 2 C_inv^2 / lambda, 1/2, 1)."""
    return min(1.0 - 2.0 * c_inv ** 2 / nitsche_lambda, 0.5, 1.0)


@dataclass
class RayleighCheck:
    ok: bool
    ratio: float
    lower: float
    upper: float
    lower_margin: float
    upper_margin: float


def rayleigh_ratio_check(eta_2a: float, eta_2b: float, d_min: float, d_max: float,
                         slack: float = 1e-12) -> RayleighCheck:
    """Exact algebra check 1/sqrt(d_max) <= eta_2b/eta_2a <= 1/sqrt(d_min).

    A violation beyond the slack indicates an implementation bug; callers
    treat it as a hard failure.
    """
    if eta_2a <= 0.0:
        raise EstimatorError("plain residual norm must be positive for the ratio check")
    if not (0.0 < d_min <= d_max):
        raise EstimatorError("invalid diagonal range")
    ratio = eta_2b / eta_2a
    lower = 1.0 / np.sqrt(d_max)
    upper = 1.0 / np.sqrt(d_min)
    ok = (lower - slack) <= ratio <= (upper + slack)
    return RayleighCheck(
        ok=bool(ok),
        ratio=float(ratio),
        lower=float(lower),
        upper=float(upper),
        lower_margin=float(ratio - lower),
        upper_margin=float(upper - ratio),
    )


def active_diagonal_range(a: sp.csr_matrix, active) -> tuple[float, float]:
    """Min and max of |A_ii| over active dofs (inactive diagonals are exactly
    zero and would poison the Rayleigh bounds)."""
    diag = a.diagonal()
    act = np.asarray(active, dtype=np.int64)
    vals = np.abs(diag[act])
    if vals.size == 0:
        raise EstimatorError("empty active set")
    return float(vals.min()), float(vals.max())
