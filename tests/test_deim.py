import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from cutrom.deim import (
    MATRIX,
    VECTOR,
    DeimError,
    build_deim_operator,
    build_union_pattern,
    deim_coefficients,
    reconstruct,
)


def test_union_pattern_diagonal():
    pat = build_union_pattern([sp.diags([1.0, 2.0, 3.0]).tocsr()])
    assert pat.size == 3
    assert np.array_equal(pat.rows, [0, 1, 2])
    assert np.array_equal(pat.cols, [0, 1, 2])
    assert np.array_equal(pat.codes, [0, 4, 8])


def test_union_pattern_is_union():
    a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    b = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    c = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    pat = build_union_pattern([b, c])
    assert pat.size == 4
    vec = pat.vectorize(b)
    assert np.array_equal(vec, [1.0, 0.0, 0.0, 1.0])
    vec = pat.vectorize(a)
    assert np.array_equal(vec, [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(DeimError):
        build_union_pattern([b]).vectorize(c)


def test_empty_training_set_rejected():
    with pytest.raises(DeimError):
        build_union_pattern([])


def test_rank_one_operator():
    base = np.array([0.3, -2.0, 1.1, 0.0])
    snaps = np.column_stack([base * c for c in (1.0, 2.0, -0.5)])
    op = build_deim_operator(snaps, 1e-10, 10, kind=VECTOR)
    assert op.l == 1
    assert op.indices[0] == 1  # position of the max-abs entry of the mode
    c = deim_coefficients(op, np.array([base[1] * 2.0]))
    rec = reconstruct(op, c)
    assert np.abs(rec - 2.0 * base).max() <= 1e-12


def test_rank3_exact_reconstruction():
    rng = np.random.default_rng(42)
    basis = rng.standard_normal((5, 3))
    coeffs = rng.standard_normal((3, 7))
    snaps = basis @ coeffs
    op = build_deim_operator(snaps, 1e-15, 10, kind=VECTOR)
    assert op.l == 3
    for j in range(snaps.shape[1]):
        c = deim_coefficients(op, snaps[op.indices, j])
        assert np.abs(reconstruct(op, c) - snaps[:, j]).max() <= 1e-10


def test_selected_position_interpolation_exact_for_any_input():
    rng = np.random.default_rng(3)
    snaps = rng.standard_normal((20, 6))
    op = build_deim_operator(snaps, 1e-8, 4, kind=VECTOR)
    arbitrary = rng.standard_normal(20)
    c = deim_coefficients(op, arbitrary[op.indices])
    rec = reconstruct(op, c)
    assert np.abs(rec[op.indices] - arbitrary[op.indices]).max() <= 1e-10


def test_coefficients_unit_vector_property():
    rng = np.random.default_rng(11)
    snaps = rng.standard_normal((12, 5))
    op = build_deim_operator(snaps, 1e-12, 5, kind=VECTOR)
    pu = op.U[op.indices, :]
    for j in range(op.l):
        c = deim_coefficients(op, pu[:, j])
        ej = np.zeros(op.l)
        ej[j] = 1.0
        assert np.abs(c - ej).max() <= 1e-12
    assert np.abs(deim_coefficients(op, np.zeros(op.l))).max() == 0.0


def test_training_reconstruction_matches_svd_projection():
    rng = np.random.default_rng(5)
    snaps = rng.standard_normal((30, 8))
    op = build_deim_operator(snaps, 1e-3, 8, kind=VECTOR)
    for j in range(snaps.shape[1]):
        a = snaps[:, j]
        c = deim_coefficients(op, a[op.indices])
        rec = reconstruct(op, c)
        proj = op.U @ (op.U.T @ a)  # orthogonal projection oracle
        resid_deim = np.linalg.norm(a - rec)
        resid_proj = np.linalg.norm(a - proj)
        # interpolation residual matches the basis truncation residual scale
        assert resid_deim <= op.cond * resid_proj + 1e-10
    # and the projection itself is reproduced exactly when sampling its values
    a = op.U @ (op.U.T @ snaps[:, 0])
    c = deim_coefficients(op, a[op.indices])
    assert np.linalg.norm(reconstruct(op, c) - a) <= 1e-10


def test_matrix_kind_reconstruction_symmetric():
    rng = np.random.default_rng(9)
    mats = []
    for _ in range(5):
        m = rng.standard_normal((6, 6))
        m = m + m.T
        m[np.abs(m) < 1.2] = 0.0
        mats.append(sp.csr_matrix(m))
    pat = build_union_pattern([m + sp.eye(6) for m in mats])
    snaps = np.column_stack([pat.vectorize((m + sp.eye(6)).tocsr()) for m in mats])
    op = build_deim_operator(snaps, 1e-12, 5, kind=MATRIX, pattern=pat)
    c = deim_coefficients(op, snaps[op.indices, 2])
    rec = reconstruct(op, c)
    assert abs(rec - rec.T).max() == 0.0
    assert np.abs(reconstruct(op, np.zeros(op.l)).toarray()).max() == 0.0
    ej = np.zeros(op.l)
    ej[0] = 1.0
    basis0 = pat.matrix_from_values(op.U[:, 0])
    expected = (basis0 + basis0.T) * 0.5
    assert abs(reconstruct(op, ej) - expected).max() <= 1e-15


def test_all_zero_snapshots_rejected():
    with pytest.raises(DeimError):
        build_deim_operator(np.zeros((4, 3)), 1e-6, 3)



def test_stored_interpolation_matrix_and_row_pointers():
    # P^T U and the pattern's CSR row pointers are stored once; both must
    # give what the per-call expressions gave, bit for bit
    dense = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 3.0]])
    pat = build_union_pattern([sp.csr_matrix(dense)])
    assert pat.indptr.tobytes() == np.searchsorted(pat.rows, np.arange(pat.n + 1)).tobytes()
    m = pat.matrix_from_values(np.array([1.5, -2.0, 0.25, 4.0]))
    assert np.array_equal(m.indptr, [0, 2, 2, 4]) and np.array_equal(m.indices, pat.cols)
    assert np.array_equal(m.toarray(), [[1.5, 0.0, -2.0], [0.0, 0.0, 0.0], [0.25, 0.0, 4.0]])
    rng = np.random.default_rng(4)
    op = build_deim_operator(rng.standard_normal((12, 5)), 1e-12, 5)
    pu = op.U[op.indices, :]
    assert op.pu.tobytes() == pu.tobytes()
    sampled = rng.standard_normal(op.l)
    c = sla.lu_solve(op.lu, sampled)
    c = c + sla.lu_solve(op.lu, sampled - pu @ c)
    assert deim_coefficients(op, sampled).tobytes() == c.tobytes()
