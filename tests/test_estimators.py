import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cutrom import estimators as est


def test_deim_matrix_error_limits():
    # a matrix as the vector of its entries: the error is the Frobenius error
    a = np.array([2.0, 0.0, 0.0, 1.0])
    assert est.deim_error(a, a) == (0.0, 0.0)
    assert est.deim_error(a, a * 0.0) == (math.sqrt(5.0), 1.0)
    assert est.deim_error(a, np.array([2.0, 0.5, 0.0, 1.0])) == (0.5, 0.5 / math.sqrt(5.0))
    with pytest.raises(est.EstimatorError):
        est.deim_error(a * 0.0, a)


def test_deim_vector_error_limits():
    f = np.array([3.0, 4.0])
    assert est.deim_error(f, f) == (0.0, 0.0)
    assert est.deim_error(f, np.zeros(2)) == (5.0, 1.0)
    assert est.deim_error(f, np.array([3.0, 2.0])) == (2.0, 0.4)
    with pytest.raises(est.EstimatorError):
        est.deim_error(np.zeros(2), f)


def test_residual_norms_basic():
    assert est.residual_norm_plain(np.zeros(5)) == 0.0
    assert est.residual_norm_plain(np.array([3.0, 4.0, 0.0])) == 5.0
    assert est.residual_norm_jacobi(np.zeros(3), np.ones(3), 1e-14) == 0.0
    val = est.residual_norm_jacobi(np.array([1.0, 1.0]), np.array([1.0, 4.0]), 1e-14)
    assert val == pytest.approx(math.sqrt(1.25), rel=1e-15)


def test_jacobi_concentration_attains_upper_bound():
    r = np.array([1.0, 0.0])
    d = np.array([2.0, 8.0])
    eta_2b = est.residual_norm_jacobi(r, d, 1e-14)
    eta_2a = est.residual_norm_plain(r)
    assert eta_2b / eta_2a == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    check = est.rayleigh_ratio_check(eta_2a, eta_2b, d.min(), d.max())
    assert check.ok
    assert check.ratio == pytest.approx(check.upper, abs=1e-15)


def test_safeguard_clamps_small_diagonals():
    r = np.array([0.0, 1.0])
    d = np.array([1.0, 0.0])  # zero diagonal clamped to eps
    val = est.residual_norm_jacobi(r, d, 1e-14)
    assert val == pytest.approx(1e7, rel=1e-12)
    with pytest.raises(est.EstimatorError):
        est.residual_norm_jacobi(r, d, 0.0)


def test_active_restriction():
    r = np.array([1.0, -2.0, 3.0])
    assert est.residual_norm_active(r, [0, 1, 2]) == est.residual_norm_plain(r)
    assert est.residual_norm_active(r, []) == 0.0
    assert est.residual_norm_active(r, [2]) == 3.0


def test_true_errors():
    n = sp.eye(3).tocsr()
    u = np.array([1.0, 2.0, 2.0])
    e_rel, e_t = est.true_errors(u, u, n)
    assert (e_rel, e_t) == (0.0, 0.0)
    e_rel, e_t = est.true_errors(u, np.zeros(3), n)
    assert e_rel == 1.0
    assert e_t == pytest.approx(3.0, rel=1e-15)
    with pytest.raises(est.EstimatorError):
        est.true_errors(np.zeros(3), u, n)


def test_effectivity():
    assert est.effectivity(2.5, 2.5) == 1.0
    assert math.isnan(est.effectivity(1.0, 0.0))


def test_combined_bound_zero_and_positive():
    assert est.combined_error_bound(0.0, 0.0, 0.0, 1.0, 1.0, 0.5) == 0.0
    val = est.combined_error_bound(1.0, 0.5, 0.25, 2.0, 1.0, 0.5)
    # terms: 2.0 + (1/0.5)*0.5*2 + (1/0.5)*0.25
    assert val == pytest.approx(2.0 + 2.0 + 0.5, rel=1e-15)
    with pytest.raises(est.EstimatorError):
        est.combined_error_bound(1.0, 0.0, 0.0, 1.0, 1.0, 0.0)


def test_alpha_star_default_parameters():
    assert est.alpha_star(10.0, 1.0) == 0.5
    assert est.alpha_star(100.0, 1.0) == 0.5  # capped by the boundary factor
    assert est.alpha_star(3.0, 1.0) == pytest.approx(1.0 - 2.0 / 3.0, rel=1e-15)


def test_rayleigh_equal_diagonals_exact():
    r = np.array([0.3, -0.7, 0.1])
    d = np.full(3, 4.0)
    eta_2a = est.residual_norm_plain(r)
    eta_2b = est.residual_norm_jacobi(r, d, 1e-14)
    assert eta_2b / eta_2a == pytest.approx(0.5, rel=1e-14)
    check = est.rayleigh_ratio_check(eta_2a, eta_2b, 4.0, 4.0)
    assert check.ok


def test_rayleigh_violation_detected():
    check = est.rayleigh_ratio_check(1.0, 1.0, 4.0, 4.0)  # ratio 1 > 1/2
    assert not check.ok
    with pytest.raises(est.EstimatorError):
        est.rayleigh_ratio_check(0.0, 1.0, 1.0, 2.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=15),
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=15, max_size=15),
)
def test_rayleigh_sandwich_property(r_vals, d_vals):
    r = np.asarray(r_vals)
    d = np.asarray(d_vals)[: r.size]
    if est.residual_norm_plain(r) == 0.0:
        return
    eta_2a = est.residual_norm_plain(r)
    eta_2b = est.residual_norm_jacobi(r, d, 1e-14)
    check = est.rayleigh_ratio_check(eta_2a, eta_2b, d.min(), d.max())
    assert check.ok


def test_active_diagonal_range():
    diag = np.array([0.0, 2.0, -5.0, 0.0])
    d_min, d_max = est.active_diagonal_range(diag, [1, 2])
    assert (d_min, d_max) == (2.0, 5.0)
    with pytest.raises(est.EstimatorError):
        est.active_diagonal_range(diag, [])
