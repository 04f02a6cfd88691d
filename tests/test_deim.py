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
from cutrom.assembly import assemble_system
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
from cutrom.pod import truncation_rank
from cutrom.rom import prepare

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
    assert np.array_equal(pat.upper, np.arange(n))
    assert np.array_equal(pat.twin, np.arange(n))


def test_union_pattern_upper_half_and_twins():
    pat = build_union_pattern(MESH, [np.arange(MESH.pattern_cols.size)])
    rows = MESH.pattern_rows[pat.positions]
    cols = MESH.pattern_cols[pat.positions]
    assert np.array_equal(pat.upper, np.flatnonzero(rows <= cols))
    # every entry's twin is itself if upper, else its transpose
    k = np.arange(pat.size)
    assert np.array_equal(pat.upper[pat.twin], np.where(rows <= cols, k, pat.transpose))


def test_union_pattern_is_union():
    size = MESH.pattern_cols.size
    diag = MESH.pattern_diag
    pat = build_union_pattern(MESH, [diag, OFF_DIAGONAL])
    assert np.array_equal(pat.positions, np.arange(size))
    assert np.array_equal(build_union_pattern(MESH, [diag, diag]).positions, diag)
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


def _union_vector(pattern, positions, values):
    """The matrix with ``values`` at the mesh ``positions`` (all in the
    union) as a vector over ``pattern``, zero where it stores nothing."""
    out = np.zeros(pattern.size)
    out[np.searchsorted(pattern.positions, positions)] = values
    return out


def test_reconstruct_is_u_times_c_over_the_union():
    rng = np.random.default_rng(9)
    sets = []
    for _ in range(5):
        keep = rng.random(MESH.pattern_cols.size) < 0.4
        keep |= keep[MESH.pattern_transpose]
        keep[MESH.pattern_diag] = True
        sets.append(np.flatnonzero(keep))
    pat = build_union_pattern(MESH, sets)
    snaps = np.column_stack([_union_vector(pat, pos, rng.standard_normal(pos.size)) for pos in sets])
    op = build_deim_operator(snaps[pat.upper], 1e-12, kind=MATRIX, pattern=pat)
    assert op.U.shape == (pat.upper.size, op.l)
    for c in (deim_coefficients(op, snaps[op.indices, 2]), rng.standard_normal(op.l)):
        rec = reconstruct(op, c)
        assert rec.shape == (pat.size,)
        # U c on the upper rows, mirrored: an entry and its transpose agree
        assert rec.tobytes() == (op.U @ c)[pat.twin].tobytes()
        assert rec[pat.transpose].tobytes() == rec.tobytes()
    assert not reconstruct(op, np.zeros(op.l)).any()


def test_kind_that_disagrees_with_the_pattern_refused():
    pat = build_union_pattern(MESH, [MESH.pattern_diag])
    snaps = np.random.default_rng(10).standard_normal((pat.size, 3))
    with pytest.raises(DeimError, match="'matrix' operator without a union pattern"):
        build_deim_operator(snaps, 1e-12, kind=MATRIX)
    with pytest.raises(DeimError, match="'vector' operator with a union pattern"):
        build_deim_operator(snaps, 1e-12, kind=VECTOR, pattern=pat)


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
    # the matrix basis has a row per upper entry of the union
    for op, entry in ((art.deim_a, art.pattern.upper), (art.deim_f, np.arange(art.mesh.n_vertices))):
        assert np.array_equal(entry[_greedy_indices(op.U)], op.indices)
        assert np.array_equal(entry[_plain_greedy(op.U)], op.indices)


@pytest.mark.parametrize("panel", [1, 7, deim.PANEL])
def test_panel_width_changes_no_index(default_run, monkeypatch, panel):
    art = default_run.artifacts
    monkeypatch.setattr(deim, "PANEL", panel)
    upper = art.pattern.upper
    assert np.array_equal(upper[_greedy_indices(art.deim_a.U)], art.deim_a.indices)
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
    clean = np.random.default_rng(6).standard_normal((pat.upper.size, 4))
    for row in range(pat.upper.size):
        snaps = clean.copy()
        snaps[row, 2] = np.nan
        with pytest.raises(DeimError, match="snapshot column 2 has a non-finite entry"):
            build_deim_operator(snaps, 1e-12, kind=MATRIX, pattern=pat)


def test_matrix_snapshots_off_the_upper_rows_refused():
    pat = build_union_pattern(MESH, [np.arange(MESH.pattern_cols.size)])
    snaps = np.random.default_rng(7).standard_normal((pat.size, 4))
    with pytest.raises(DeimError, match="57 snapshot rows for the 33 upper entries"):
        build_deim_operator(snaps, 1e-12, kind=MATRIX, pattern=pat)


def test_matrix_spectrum_has_the_whole_union_length():
    # 40 symmetric snapshots over 57 entries, of which 33 are upper: the whole
    # union's SVD has 40 values, the last 7 zero, and the saved format keeps 40
    pat = build_union_pattern(MESH, [np.arange(MESH.pattern_cols.size)])
    snaps = np.random.default_rng(12).standard_normal((pat.size, 40))
    snaps += snaps[pat.transpose]
    assert pat.upper.size == 33
    op = build_deim_operator(snaps[pat.upper], 1e-14, kind=MATRIX, pattern=pat)
    full = np.linalg.svd(snaps, compute_uv=False)
    assert op.singular_values.shape == (40,)
    assert not op.singular_values[33:].any()
    assert np.abs(op.singular_values - full).max() <= 1e-12 * full[0]
    assert op.l == 33


class Built(NamedTuple):
    """An offline build; the snapshot rows and keywords of each
    ``build_deim_operator`` call it made, and the matrix snapshots it
    decomposed; and its training matrices assembled one by one
    (``assemble_system``) as vectors over the whole union."""

    art: object
    calls: list
    snaps: np.ndarray
    whole: np.ndarray


def _build_with_matrix_snapshots(config):
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
    whole = np.empty((art.pattern.size, config.n_train))
    for i, mu in enumerate(art.train_mu):
        system = assemble_system(build_cut_geometry(art.mesh, ParameterPoint(*mu)), art.phys)
        whole[:, i] = _union_vector(art.pattern, system.pattern_pos, system.A.data)
    return Built(art, calls, seen[0], whole)


@pytest.fixture(scope="module", params=["default", "h0.06"])
def built(request):
    config = Config()
    if request.param == "h0.06":
        config = replace(config, h_target=0.06, n_train=200)
    return _build_with_matrix_snapshots(config.validate())


def test_matrix_build_receives_the_upper_rows(built):
    art, calls, snaps, whole = built
    pattern = art.pattern
    # one call per kind, ``kind`` by keyword (the benchmark tracer labels by it)
    assert sorted(kwargs.get("kind") for _, kwargs in calls) == [MATRIX, VECTOR]
    assert [rows for rows, kwargs in calls if kwargs["kind"] == MATRIX] == [pattern.upper.size]
    # the assembled stiffness matrices are symmetric, so their upper rows carry them
    assert whole[pattern.transpose].tobytes() == whole.tobytes()
    assert snaps.tobytes() == whole[pattern.upper].tobytes()


def _whole_union_build(snaps, pattern, eps):
    """The matrix DEIM built from whole-union snapshots: the upper rows of
    their symmetric parts (S + S[transpose]) / 2, weighted by sqrt(2) off the
    diagonal, the basis divided by the weights and mirrored to the union.
    Returns the mirrored basis, the indices, the spectrum and PᵀU."""
    transpose, upper = pattern.transpose, pattern.upper
    weight = np.where(transpose[upper] == upper, 1.0, np.sqrt(2.0))[:, None]
    half = snaps[upper]
    half += snaps[transpose[upper]]
    half *= 0.5 * weight
    u, s, _vt = np.linalg.svd(half, full_matrices=False)
    u = u[:, :truncation_rank(s, eps)] / weight
    indices = upper[_greedy_indices(u)]
    spectrum = np.zeros(min(snaps.shape))
    spectrum[:s.size] = s
    u = u[pattern.twin]
    return u, indices, spectrum, u[indices]


def test_upper_row_build_matches_the_whole_union_build(built):
    art, _, _, whole = built
    op, pattern = art.deim_a, art.pattern
    u, indices, spectrum, pu = _whole_union_build(whole, pattern, art.config.eps_deim_a)
    assert op.U.tobytes() == u[pattern.upper].tobytes()
    assert op.indices.tobytes() == indices.tobytes()
    assert op.singular_values.tobytes() == spectrum.tobytes()
    assert op.pu.tobytes() == pu.tobytes()


def test_matrix_basis_is_a_mirrored_orthonormal_half(built):
    op, pattern = built.art.deim_a, built.art.pattern
    assert op.U.shape == (pattern.upper.size, op.l)
    mirrored = op.U[pattern.twin]
    assert mirrored[pattern.transpose].tobytes() == mirrored.tobytes()
    assert np.linalg.norm(mirrored.T @ mirrored - np.eye(op.l), 2) <= 1e-13
    rows = built.art.mesh.pattern_rows[pattern.positions]
    cols = built.art.mesh.pattern_cols[pattern.positions]
    assert np.all(rows[op.indices] <= cols[op.indices])
    assert np.isin(op.indices, pattern.upper).all()


def test_matrix_singular_values_are_those_of_the_whole_union(built):
    full = np.linalg.svd(built.whole, compute_uv=False)
    assert built.art.deim_a.singular_values.shape == full.shape
    assert np.abs(built.art.deim_a.singular_values - full).max() <= 1e-12 * full[0]


def test_matrix_reconstruction_is_exactly_symmetric(built):
    art = built.art
    test_mu = pipeline.sample_parameters(art.config.n_test, art.config.seed + 1,
                                         art.config.mu_min, art.config.mu_max)
    for mu in test_mu:
        a_samp = prepare(art, build_cut_geometry(art.mesh, ParameterPoint(*mu))).a
        rec = reconstruct(art.deim_a, deim_coefficients(art.deim_a, a_samp))
        assert rec[art.pattern.transpose].tobytes() == rec.tobytes()


def test_projection_matches_the_per_column_projection_bitwise(built):
    # reference: one CSR matrix per basis column mirrored to the union (so
    # symmetric), then the interpolation inverse folded in with the
    # operator's LU factors
    art = built.art
    v, pattern = art.pod.V, art.pattern
    cols, rows = np.tril_indices(art.pod.n_max)
    reference = np.empty_like(art.blocks_a)
    for j in range(art.deim_a.l):
        basis_mat = pattern.matrix_from_values(art.deim_a.U[pattern.twin, j])
        reference[:, j] = (v.T @ (basis_mat @ v))[rows, cols]
    reference = sla.lu_solve(art.deim_a.lu, reference.T, trans=1).T
    assert art.blocks_a.tobytes() == reference.tobytes()


def _symmetrized_eta_a(art, system, c_a):
    """η_A from a sparse matrix: U c symmetrized over the union, built as a
    CSR matrix and subtracted from A, and the Frobenius norms taken over the
    stored values."""
    pattern = art.pattern
    values = art.deim_a.U[pattern.twin] @ c_a
    diff = system.A - pattern.matrix_from_values(0.5 * (values + values[pattern.transpose]))
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
        prep = prepare(art, geom)
        (a_abs, a_rel), f_errors = errors[2 * i], errors[2 * i + 1]
        ref_abs, ref_rel = _symmetrized_eta_a(art, system, deim_coefficients(art.deim_a, prep.a))
        assert abs(a_abs - ref_abs) <= 1e-12 * ref_abs
        assert abs(a_rel - ref_rel) <= 1e-12 * ref_rel
        assert report.records[i * len(report.n_list)].eta_A == a_rel
        f_deim = reconstruct(art.deim_f, deim_coefficients(art.deim_f, prep.f))
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
