import os
import subprocess
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cutrom
from cutrom import deim, estimators, pipeline
from cutrom.assembly import assemble_system, csr_on_pattern
from cutrom.config import Config
from cutrom.deim import (
    MATRIX,
    TIE_RTOL,
    VECTOR,
    DeimError,
    UnionPattern,
    _greedy_indices,
    build_deim_operator,
    build_union_pattern,
    deim_coefficients,
    reconstruct,
)
from cutrom.geometry import ParameterPoint, build_background_mesh, build_cut_geometry
from cutrom.pipeline import sample_parameters
from cutrom.pod import truncation_rank
from cutrom.rom import sample_entries

# 3 x 3 vertices, 8 triangles: a mesh pattern of 57 positions
MESH = build_background_mesh(((-1.2, 1.2), (-1.2, 1.2)), 1.2)
DIAGONAL = np.flatnonzero(MESH.pattern_rows == MESH.pattern_cols)
OFF_DIAGONAL = np.flatnonzero(MESH.pattern_rows != MESH.pattern_cols)
LOWER = np.flatnonzero(MESH.pattern_rows > MESH.pattern_cols)


def test_union_pattern_diagonal(whole_union):
    n = MESH.n_vertices
    pat = build_union_pattern(MESH, [DIAGONAL])
    assert pat.size == n
    assert np.array_equal(pat.positions, DIAGONAL)
    assert pat.diagonal.all()
    whole = whole_union(MESH, pat)
    assert np.array_equal(whole.positions, DIAGONAL)
    for mirror in (whole.transpose, whole.twin, whole.upper):
        assert np.array_equal(mirror, np.arange(n))


def test_union_pattern_upper_half_and_twins(whole_union):
    size = MESH.pattern_cols.size
    pat = build_union_pattern(MESH, [np.arange(size)])
    rows, cols = MESH.pattern_rows, MESH.pattern_cols
    assert np.array_equal(pat.positions, np.flatnonzero(rows <= cols))
    assert np.array_equal(pat.positions, MESH.pattern_upper)
    assert np.array_equal(pat.diagonal, (rows == cols)[pat.positions])
    # mirrored, the upper half is the whole union again: every entry's twin
    # is itself if upper, else its transpose
    whole = whole_union(MESH, pat)
    assert np.array_equal(whole.positions, np.arange(size))
    k = np.arange(size)
    assert np.array_equal(whole.upper[whole.twin], np.where(rows <= cols, k, whole.transpose))


def test_union_pattern_is_union():
    diag = DIAGONAL
    pat = build_union_pattern(MESH, [diag, OFF_DIAGONAL])
    assert np.array_equal(pat.positions, MESH.pattern_upper)
    assert np.array_equal(build_union_pattern(MESH, [diag, diag]).positions, diag)
    # a position below the diagonal is refused by name
    k = LOWER[0]
    with pytest.raises(DeimError, match=rf"^union pattern position {k} \(row "
                       rf"{MESH.pattern_rows[k]}, column {MESH.pattern_cols[k]}\) is below"):
        UnionPattern(MESH, np.union1d(diag, [k]))


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


def test_reconstruct_is_u_times_c_over_the_union(whole_union):
    rng = np.random.default_rng(9)
    sets = []
    for _ in range(5):
        keep = rng.random(MESH.pattern_cols.size) < 0.4
        keep |= keep[MESH.pattern_transpose]
        keep[DIAGONAL] = True
        sets.append(np.flatnonzero(keep))
    pat = build_union_pattern(MESH, sets)
    whole = whole_union(MESH, pat)
    snaps = np.column_stack([whole.vector(pos, rng.standard_normal(pos.size)) for pos in sets])
    upper = snaps[whole.upper]
    op = build_deim_operator(upper, 1e-12, kind=MATRIX, pattern=pat)
    assert op.U.shape == (pat.size, op.l)
    for c in (deim_coefficients(op, upper[op.indices, 2]), rng.standard_normal(op.l)):
        rec = reconstruct(op, c)
        assert rec.shape == (pat.size,)
        assert rec.tobytes() == (op.U @ c).tobytes()
        # mirrored to the whole union, an entry and its transpose agree
        mirrored = rec[whole.twin]
        assert mirrored[whole.transpose].tobytes() == mirrored.tobytes()
    assert not reconstruct(op, np.zeros(op.l)).any()


def test_kind_that_disagrees_with_the_pattern_refused():
    pat = build_union_pattern(MESH, [DIAGONAL])
    snaps = np.random.default_rng(10).standard_normal((pat.size, 3))
    with pytest.raises(DeimError, match="'matrix' operator without a union pattern"):
        build_deim_operator(snaps, 1e-12, kind=MATRIX)
    with pytest.raises(DeimError, match="'vector' operator with a union pattern"):
        build_deim_operator(snaps, 1e-12, kind=VECTOR, pattern=pat)


def test_all_zero_snapshots_rejected():
    with pytest.raises(DeimError):
        build_deim_operator(np.zeros((4, 3)), 1e-6)



def test_stored_interpolation_matrix_and_row_pointers():
    # the CSR builder derives its row pointers from the mesh's, and P^T U
    # is stored once; both must give what the per-call expressions gave,
    # P^T U bit for bit
    # the diagonal and the first off-diagonal pair of row 0
    n = MESH.n_vertices
    first = OFF_DIAGONAL[0]
    positions = np.union1d(DIAGONAL, [first, MESH.pattern_transpose[first]])
    rows = MESH.pattern_rows[positions]
    values = np.zeros(MESH.pattern_cols.size)
    values[positions] = np.arange(1.0, positions.size + 1)
    m = csr_on_pattern(MESH, values, positions)
    assert np.array_equal(m.indptr, np.searchsorted(rows, np.arange(n + 1)))
    assert np.array_equal(m.indices, MESH.pattern_cols[positions])
    dense = np.zeros((n, n))
    dense[rows, MESH.pattern_cols[positions]] = values[positions]
    assert np.array_equal(m.toarray(), dense)
    rng = np.random.default_rng(4)
    op = build_deim_operator(rng.standard_normal((12, 5)), 1e-12)
    pu = op.U[op.indices, :]
    assert op.pu.tobytes() == pu.tobytes()
    sampled = rng.standard_normal(op.l)
    c = sla.lu_solve(op.lu, sampled)
    c = c + sla.lu_solve(op.lu, sampled - pu @ c)
    assert deim_coefficients(op, sampled).tobytes() == c.tobytes()


def _plain_greedy(u: np.ndarray) -> np.ndarray:
    """The documented rule as a plain loop: the residual of mode k from the
    classic k x k solve at the positions picked so far, then the first
    position whose |residual| is within TIE_RTOL of the largest."""
    indices = []
    for k in range(u.shape[1]):
        rho = u[:, k].copy()
        if k:
            rho -= u[:, :k] @ np.linalg.solve(u[indices, :k], u[indices, k])
        size = np.abs(rho)
        indices.append(int(np.flatnonzero(size.max() - size <= TIE_RTOL * size.max())[0]))
    return np.array(indices)


def _orthonormal(m: int, l: int, seed: int) -> np.ndarray:
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((m, l)))[0]


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 60), l=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
@example(m=9, l=1, seed=0)
@example(m=5, l=5, seed=1)  # fewer positions than one panel
@example(m=60, l=37, seed=2)  # three panels, the last one partial
@example(m=48, l=deim.PANEL + 1, seed=3)
def test_blocked_greedy_matches_the_plain_loop(m, l, seed):
    u = _orthonormal(m, min(l, m), seed)
    assert np.array_equal(_greedy_indices(u), _plain_greedy(u))


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 30), extra=st.integers(1, 30), l=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1))
@example(m=20, extra=20, l=20, seed=0)
def test_duplicated_rows_the_smaller_position_wins(m, extra, l, seed):
    rng = np.random.default_rng(seed)
    # every row of an orthonormal basis at least once, some twice or more, shuffled
    rows = rng.permutation(np.concatenate([np.arange(m), rng.integers(0, m, extra)]))
    u = _orthonormal(m, min(l, m), seed)[rows]
    picked = _greedy_indices(u)
    assert np.array_equal(picked, _plain_greedy(u))
    first = np.array([np.flatnonzero(rows == rows[p])[0] for p in picked])
    assert np.array_equal(picked, first)


def test_greedy_matches_the_plain_loop_on_the_default_model(default_run):
    art = default_run.artifacts
    # for both kinds an index is a row of the basis
    for op in (art.deim_a, art.deim_f):
        assert np.array_equal(_greedy_indices(op.U), op.indices)
        assert np.array_equal(_plain_greedy(op.U), op.indices)


@pytest.mark.parametrize("panel", [1, 7, deim.PANEL])
def test_panel_width_changes_no_index(default_run, monkeypatch, panel):
    art = default_run.artifacts
    monkeypatch.setattr(deim, "PANEL", panel)
    assert np.array_equal(_greedy_indices(art.deim_a.U), art.deim_a.indices)
    assert np.array_equal(_greedy_indices(art.deim_f.U), art.deim_f.indices)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_snapshot_refused_by_column(value):
    snaps = np.random.default_rng(8).standard_normal((12, 5))
    snaps[7, 3] = value
    with pytest.raises(DeimError, match="snapshot column 3 has a non-finite entry"):
        build_deim_operator(snaps, 1e-12)


def test_non_finite_matrix_snapshot_refused_by_column():
    # a NaN at each row the function receives, diagonal and off-diagonal
    # upper entries alike, is refused by its column
    pat = build_union_pattern(MESH, [np.arange(MESH.pattern_cols.size)])
    clean = np.random.default_rng(6).standard_normal((pat.size, 4))
    for row in range(pat.size):
        snaps = clean.copy()
        snaps[row, 2] = np.nan
        with pytest.raises(DeimError, match="snapshot column 2 has a non-finite entry"):
            build_deim_operator(snaps, 1e-12, kind=MATRIX, pattern=pat)


def test_matrix_snapshots_off_the_upper_rows_refused():
    pat = build_union_pattern(MESH, [np.arange(MESH.pattern_cols.size)])
    snaps = np.random.default_rng(7).standard_normal((MESH.pattern_cols.size, 4))
    with pytest.raises(DeimError, match="57 snapshot rows for the 33 upper entries"):
        build_deim_operator(snaps, 1e-12, kind=MATRIX, pattern=pat)


class Built(NamedTuple):
    """An offline build; the snapshot rows and keywords of each
    ``build_deim_operator`` call it made, and the matrix snapshots it
    decomposed; its training matrices assembled one by one
    (``assemble_system``) as vectors over the whole union; and that whole
    union (``conftest.WholeUnion``)."""

    art: object
    calls: list
    snaps: np.ndarray
    whole: np.ndarray
    union: object


def _build_with_matrix_snapshots(config, whole_union):
    calls, seen = [], []
    original = pipeline.build_deim_operator

    def spy(snaps, *args, **kwargs):
        calls.append((np.shape(snaps)[0], kwargs))
        if kwargs.get("kind") == MATRIX:
            seen.append(np.array(snaps))
        return original(snaps, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "build_deim_operator", spy)
        art = pipeline.run_offline(config)
    union = whole_union(art.mesh, art.pattern)
    whole = np.empty((union.size, config.n_train))
    train_mu = sample_parameters(config.n_train, config.seed, config.mu_min, config.mu_max)
    for i, mu in enumerate(train_mu):
        system = assemble_system(build_cut_geometry(art.mesh, ParameterPoint(*mu)), art.phys)
        whole[:, i] = union.vector(system.pattern_pos, system.A.data)
    return Built(art, calls, seen[0], whole, union)


@pytest.fixture(scope="module", params=["default", "h0.06"])
def built(request, whole_union):
    config = Config()
    if request.param == "h0.06":
        config = replace(config, h_target=0.06, n_train=200)
    return _build_with_matrix_snapshots(config.validate(), whole_union)


def test_matrix_build_receives_the_upper_rows(built):
    art, calls, snaps, whole, union = built
    # one call per kind, ``kind`` by keyword (the benchmark tracer labels by it)
    assert sorted(kwargs.get("kind") for _, kwargs in calls) == [MATRIX, VECTOR]
    assert [rows for rows, kwargs in calls if kwargs["kind"] == MATRIX] == [art.pattern.size]
    # the assembled stiffness matrices are symmetric, so their upper rows carry them
    assert whole[union.transpose].tobytes() == whole.tobytes()
    assert snaps.tobytes() == whole[union.upper].tobytes()


def _whole_union_build(snaps, union, eps):
    """The matrix DEIM built from whole-union snapshots: the upper rows of
    their symmetric parts (S + S[transpose]) / 2, weighted by sqrt(2) off the
    diagonal, the basis divided by the weights and mirrored to the union.
    Returns the mirrored basis, the indices (whole-union entries) and
    PᵀU."""
    transpose, upper = union.transpose, union.upper
    weight = np.where(transpose[upper] == upper, 1.0, np.sqrt(2.0))[:, None]
    half = snaps[upper]
    half += snaps[transpose[upper]]
    half *= 0.5 * weight
    u, s, _vt = np.linalg.svd(half, full_matrices=False)
    u = u[:, :truncation_rank(s, eps)] / weight
    indices = upper[_greedy_indices(u)]
    u = u[union.twin]
    return u, indices, u[indices]


def test_upper_row_build_matches_the_whole_union_build(built):
    art, _, _, whole, union = built
    op = art.deim_a
    u, indices, pu = _whole_union_build(whole, union, art.config.eps_deim_a)
    assert op.U.tobytes() == u[union.upper].tobytes()
    assert union.upper[op.indices].tobytes() == indices.tobytes()
    assert op.pu.tobytes() == pu.tobytes()


def test_matrix_basis_is_a_mirrored_orthonormal_half(built):
    op, pattern, union = built.art.deim_a, built.art.pattern, built.union
    assert op.U.shape == (pattern.size, op.l)
    mirrored = op.U[union.twin]
    assert mirrored[union.transpose].tobytes() == mirrored.tobytes()
    assert np.linalg.norm(mirrored.T @ mirrored - np.eye(op.l), 2) <= 1e-13
    sampled = pattern.positions[op.indices]
    assert np.all(built.art.mesh.pattern_rows[sampled] <= built.art.mesh.pattern_cols[sampled])


def test_matrix_reconstruction_is_exactly_symmetric(built, monkeypatch):
    # the sweep's η_A compares the whole matrices: its interpolant, mirrored
    # over the mesh pattern, is exactly symmetric and U c on the upper entries
    art = built.art
    approx = []
    original = estimators.deim_error

    def spy(exact, approximation):
        approx.append(approximation)
        return original(exact, approximation)

    monkeypatch.setattr(estimators, "deim_error", spy)
    report = pipeline.run_online_sweep(art, art.config)
    transpose = art.mesh.pattern_transpose
    for i, mu in enumerate(report.test_mu):
        a_samp = sample_entries(art, build_cut_geometry(art.mesh, ParameterPoint(*mu)))[0]
        rec = reconstruct(art.deim_a, deim_coefficients(art.deim_a, a_samp))
        a_whole = approx[2 * i]
        assert a_whole[transpose].tobytes() == a_whole.tobytes()
        assert a_whole[art.pattern.positions].tobytes() == rec.tobytes()
        assert not np.delete(a_whole, np.union1d(art.pattern.positions,
                                                 transpose[art.pattern.positions])).any()


def test_projection_matches_the_per_column_projection_bitwise(built):
    # reference: one CSR matrix per basis column mirrored to the union (so
    # symmetric), then the interpolation inverse folded in with the
    # operator's LU factors
    art, union = built.art, built.union
    v = art.pod.V
    cols, rows = np.tril_indices(art.pod.n_max)
    reference = np.empty_like(art.blocks_a)
    for j in range(art.deim_a.l):
        basis_mat = union.matrix(art.deim_a.U[union.twin, j])
        reference[:, j] = (v.T @ (basis_mat @ v))[rows, cols]
    reference = sla.lu_solve(art.deim_a.lu, reference.T, trans=1).T
    assert art.blocks_a.tobytes() == reference.tobytes()


def _symmetrized_eta_a(art, union, system, c_a):
    """η_A from a sparse matrix: U c mirrored to the whole union and
    symmetrized, built as a CSR matrix and subtracted from A, and the
    Frobenius norms taken over the stored values."""
    values = art.deim_a.U[union.twin] @ c_a
    diff = system.A - union.matrix(0.5 * (values + values[union.transpose]))
    err = float(np.sqrt((diff.data * diff.data).sum()))
    return err, err / float(np.sqrt((system.A.data * system.A.data).sum()))


def test_indicators_on_pattern_vectors_match_the_sparse_matrix_form(built, monkeypatch):
    """The sweep's η_A, over vectors on the mesh pattern, agrees with the
    symmetrized sparse-matrix form to 1e-12 relative (absolute and relative
    error) at every test parameter, and its η_f is the plain Euclidean
    error bit for bit."""
    art = built.art
    errors = []
    original = estimators.deim_error

    def spy(exact, approx):
        errors.append(original(exact, approx))
        return errors[-1]

    monkeypatch.setattr(estimators, "deim_error", spy)
    report = pipeline.run_online_sweep(art, art.config)
    assert len(errors) == 2 * len(report.test_mu)
    for i, mu in enumerate(report.test_mu):
        geom = build_cut_geometry(art.mesh, ParameterPoint(*mu))
        system = assemble_system(geom, art.phys)
        a_samp, f_samp = sample_entries(art, geom)
        (a_abs, a_rel), f_errors = errors[2 * i], errors[2 * i + 1]
        ref_abs, ref_rel = _symmetrized_eta_a(art, built.union, system,
                                              deim_coefficients(art.deim_a, a_samp))
        assert abs(a_abs - ref_abs) <= 1e-12 * ref_abs
        assert abs(a_rel - ref_rel) <= 1e-12 * ref_rel
        assert report.records[i * len(report.n_list)].eta_A == a_rel
        f_deim = reconstruct(art.deim_f, deim_coefficients(art.deim_f, f_samp))
        f_err = float(np.linalg.norm(system.f - f_deim))
        assert f_errors == (f_err, f_err / float(np.linalg.norm(system.f)))


_THREAD_PROBE = """
import sys
import numpy as np
from cutrom.config import Config
from cutrom.pipeline import run_offline
art = run_offline(Config())
np.savez(sys.argv[1], a=art.deim_a.indices, f=art.deim_f.indices)
"""


def test_indices_do_not_depend_on_the_blas_thread_count(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cutrom.__file__)))
    picks = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"indices_{threads}.npz"
        subprocess.run([sys.executable, "-c", _THREAD_PROBE, str(out)], env=env, check=True,
                       capture_output=True, text=True, timeout=300)
        picks.append(np.load(out))
    one, two = picks
    assert np.array_equal(one["a"], two["a"])
    assert np.array_equal(one["f"], two["f"])
