import numpy as np
import pytest
import scipy.linalg as sla

from cutrom.deim import (
    MATRIX,
    VECTOR,
    DeimError,
    UnionPattern,
    build_deim_operator,
    build_union_pattern,
    deim_coefficients,
    reconstruct,
)
from cutrom.geometry import build_background_mesh

# 3 x 3 vertices, 8 triangles: a mesh pattern of 57 positions
MESH = build_background_mesh(((-1.2, 1.2), (-1.2, 1.2)), 1.2)
OFF_DIAGONAL = np.flatnonzero(MESH.pattern_rows != MESH.pattern_cols)


def test_union_pattern_diagonal():
    n = MESH.n_vertices
    pat = build_union_pattern(MESH, [MESH.pattern_diag])
    assert pat.size == n
    assert np.array_equal(pat.positions, MESH.pattern_diag)
    assert np.array_equal(pat.cols, np.arange(n))
    assert np.array_equal(pat.indptr, np.arange(n + 1))
    assert np.array_equal(pat.transpose, np.arange(n))


def test_union_pattern_is_union():
    size = MESH.pattern_cols.size
    diag = MESH.pattern_diag
    pat = build_union_pattern(MESH, [diag, OFF_DIAGONAL])
    assert np.array_equal(pat.positions, np.arange(size))
    vec = pat.vectorize(diag, np.arange(1.0, diag.size + 1))
    assert np.array_equal(vec[diag], np.arange(1.0, diag.size + 1))
    assert not vec[OFF_DIAGONAL].any()
    vec = pat.vectorize(np.arange(size), np.ones(size))
    assert np.array_equal(vec, np.ones(size))
    with pytest.raises(DeimError, match="outside the union pattern"):
        build_union_pattern(MESH, [diag]).vectorize(OFF_DIAGONAL, np.ones(OFF_DIAGONAL.size))
    # one off-diagonal entry without its transpose
    with pytest.raises(DeimError, match="not symmetric"):
        UnionPattern(MESH, np.union1d(diag, OFF_DIAGONAL[:1]))


def test_empty_training_set_rejected():
    with pytest.raises(DeimError):
        build_union_pattern(MESH, [])


def test_rank_one_operator():
    base = np.array([0.3, -2.0, 1.1, 0.0])
    snaps = np.column_stack([base * c for c in (1.0, 2.0, -0.5)])
    op = build_deim_operator(snaps, 1e-10, kind=VECTOR)
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
    op = build_deim_operator(snaps, 1e-15, kind=VECTOR)
    assert op.l == 3
    for j in range(snaps.shape[1]):
        c = deim_coefficients(op, snaps[op.indices, j])
        assert np.abs(reconstruct(op, c) - snaps[:, j]).max() <= 1e-10


def test_selected_position_interpolation_exact_for_any_input():
    rng = np.random.default_rng(3)
    snaps = rng.standard_normal((20, 6))
    op = build_deim_operator(snaps, 1e-8, kind=VECTOR)
    arbitrary = rng.standard_normal(20)
    c = deim_coefficients(op, arbitrary[op.indices])
    rec = reconstruct(op, c)
    assert np.abs(rec[op.indices] - arbitrary[op.indices]).max() <= 1e-10


def test_coefficients_unit_vector_property():
    rng = np.random.default_rng(11)
    snaps = rng.standard_normal((12, 5))
    op = build_deim_operator(snaps, 1e-12, kind=VECTOR)
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
    op = build_deim_operator(snaps, 1e-3, kind=VECTOR)
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
    # unsymmetric values on symmetric patterns, so the symmetrization matters
    rng = np.random.default_rng(9)
    sets = []
    for _ in range(5):
        keep = rng.random(MESH.pattern_cols.size) < 0.4
        keep |= keep[MESH.pattern_transpose]
        keep[MESH.pattern_diag] = True
        sets.append(np.flatnonzero(keep))
    pat = build_union_pattern(MESH, sets)
    snaps = np.column_stack([pat.vectorize(pos, rng.standard_normal(pos.size)) for pos in sets])
    op = build_deim_operator(snaps, 1e-12, kind=MATRIX, pattern=pat)
    for c in (deim_coefficients(op, snaps[op.indices, 2]), rng.standard_normal(op.l)):
        rec = reconstruct(op, c)
        assert abs(rec - rec.T).max() == 0.0
        assert rec.toarray().tobytes() == rec.T.toarray().tobytes()
    assert np.abs(reconstruct(op, np.zeros(op.l)).toarray()).max() == 0.0
    ej = np.zeros(op.l)
    ej[0] = 1.0
    basis0 = pat.matrix_from_values(op.U[:, 0])
    expected = (basis0 + basis0.T) * 0.5
    assert abs(reconstruct(op, ej) - expected).max() <= 1e-15


def test_all_zero_snapshots_rejected():
    with pytest.raises(DeimError):
        build_deim_operator(np.zeros((4, 3)), 1e-6)



def test_stored_interpolation_matrix_and_row_pointers():
    # P^T U and the pattern's CSR row pointers are stored once; both must
    # give what the per-call expressions gave, bit for bit
    # the diagonal and the first off-diagonal pair of row 0
    first = OFF_DIAGONAL[0]
    positions = np.union1d(MESH.pattern_diag, [first, MESH.pattern_transpose[first]])
    pat = build_union_pattern(MESH, [positions])
    rows = MESH.pattern_rows[positions]
    assert pat.indptr.tobytes() == np.searchsorted(rows, np.arange(pat.n + 1)).tobytes()
    values = np.arange(1.0, positions.size + 1)
    m = pat.matrix_from_values(values)
    assert np.array_equal(m.indices, pat.cols)
    dense = np.zeros((pat.n, pat.n))
    dense[rows, MESH.pattern_cols[positions]] = values
    assert np.array_equal(m.toarray(), dense)
    rng = np.random.default_rng(4)
    op = build_deim_operator(rng.standard_normal((12, 5)), 1e-12)
    pu = op.U[op.indices, :]
    assert op.pu.tobytes() == pu.tobytes()
    sampled = rng.standard_normal(op.l)
    c = sla.lu_solve(op.lu, sampled)
    c = c + sla.lu_solve(op.lu, sampled - pu @ c)
    assert deim_coefficients(op, sampled).tobytes() == c.tobytes()
