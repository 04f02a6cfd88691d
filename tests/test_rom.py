from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from cutrom import deim
from cutrom.assembly import AssemblyError, assemble_system
from cutrom.config import Config
from cutrom.deim import MATRIX, UnionPattern, build_deim_operator, deim_coefficients, reconstruct
from cutrom.geometry import GeometryError, ParameterPoint, build_background_mesh, build_cut_geometry
from cutrom.pipeline import run_offline, sample_parameters
from cutrom.pod import PodBasis
from cutrom.rom import (
    RomError,
    build_rom_offline,
    packed_upper_index,
    reduced_operator,
    rom_online_solve,
    sample_entries,
    solve,
)


def test_identity_basis_matrix_projects_to_gram(default_mesh):
    n = default_mesh.n_vertices
    rng = np.random.default_rng(2)
    v = rng.standard_normal((n, 3))
    pod = PodBasis(V=v, sigma=np.ones(3), n_max=3, n_energy=3)
    diagonal = np.flatnonzero(default_mesh.pattern_rows == default_mesh.pattern_cols)
    pattern = UnionPattern(default_mesh, diagonal)
    # a single-mode operator whose basis matrix is the identity on the diagonal
    snaps = np.column_stack([np.ones(n), np.ones(n)])
    op = build_deim_operator(snaps, 1e-12, kind=MATRIX, pattern=pattern)
    blocks_a, _ = build_rom_offline(default_mesh, pod, op, op)
    assert blocks_a.shape == (6, 1)
    # folded: a unit sample interpolates the identity, whose projection is VᵀV
    assert np.abs(blocks_a[:, 0][packed_upper_index(3)] - v.T @ v).max() <= 1e-10


def test_packed_index_runs_column_major_over_the_upper_triangle():
    index = packed_upper_index(3)
    assert np.array_equal(index, [[0, 1, 3], [1, 2, 4], [3, 4, 5]])
    assert np.array_equal(packed_upper_index(2), index[:2, :2])


def test_online_solve_matches_fom_at_training_parameter(small_run):
    art, _ = small_run
    from cutrom.assembly import assemble_system
    from cutrom.fom import solve_fom
    from cutrom.geometry import build_cut_geometry

    cfg = art.config
    mu = ParameterPoint(*sample_parameters(cfg.n_train, cfg.seed, cfg.mu_min, cfg.mu_max)[0])
    geom = build_cut_geometry(art.mesh, mu)
    fom = solve_fom(assemble_system(geom, art.phys))
    rs = rom_online_solve(art, mu, art.pod.n_max, geom=geom)
    e_rel = np.linalg.norm(fom.u - rs.u_lifted) / np.linalg.norm(fom.u)
    assert e_rel <= 1e-2


def test_lift_consistency_exact(small_run):
    art, _ = small_run
    mu = ParameterPoint(1.05, 1.12)
    rs = rom_online_solve(art, mu, min(3, art.pod.n_max))
    again = art.pod.V[:, :rs.n] @ rs.u_hat
    assert np.array_equal(rs.u_lifted, again)


def test_mode_count_validation(small_run):
    art, _ = small_run
    with pytest.raises(RomError):
        rom_online_solve(art, ParameterPoint(1.1, 1.1), 0)
    with pytest.raises(RomError):
        rom_online_solve(art, ParameterPoint(1.1, 1.1), art.pod.n_max + 1)


def test_block_counts_match_mode_counts(small_run):
    art, _ = small_run
    n_max = art.pod.n_max
    assert art.blocks_a.shape == (n_max * (n_max + 1) // 2, art.deim_a.l)
    assert art.blocks_a.flags.c_contiguous
    assert art.blocks_f.shape == (art.deim_f.l, art.pod.n_max)
    assert art.matrix_sample_entries.shape == (art.deim_a.l, 2)
    assert art.vector_sample_entries.shape == (art.deim_f.l,)


def test_truncation_uses_leading_subblock(small_run):
    art, _ = small_run
    mu = ParameterPoint(1.14, 1.03)
    n = min(2, art.pod.n_max)
    rs = rom_online_solve(art, mu, n)
    # reproduce the reduced solve by hand from the sampled entries and the
    # folded blocks: the leading n x n triangle is the first n (n + 1) / 2
    # packed rows, and the LU solve is LAPACK's getrf and getrs
    a_samp, f_samp = sample_entries(art, build_cut_geometry(art.mesh, mu))
    a_hat = (art.blocks_a[:n * (n + 1) // 2] @ a_samp)[packed_upper_index(n)]
    f_hat = f_samp @ art.blocks_f[:, :n]
    assert np.array_equal(sla.lu_solve(sla.lu_factor(a_hat), f_hat), rs.u_hat)


def test_packed_operator_matches_the_full_block_contraction(small_run, small_config,
                                                            whole_union):
    art, _ = small_run
    # reference: the unpacked projection V^T B_j V of every basis matrix
    # (its upper rows mirrored to the whole union, taken as (B_j + B_jᵀ) / 2,
    # which a mirrored basis leaves unchanged), contracted with the
    # interpolation coefficients over the full (l_A, n, n) sub-blocks
    v = art.pod.V
    union = whole_union(art.mesh, art.pattern)
    full = np.empty((art.deim_a.l, art.pod.n_max, art.pod.n_max))
    for j in range(art.deim_a.l):
        basis_mat = union.matrix(art.deim_a.U[union.twin, j])
        full[j] = v.T @ (((basis_mat + basis_mat.T) * 0.5) @ v)
    for mu in (ParameterPoint(1.0, 1.0), ParameterPoint(1.14, 1.03), ParameterPoint(1.2, 1.2)):
        a_samp = sample_entries(art, build_cut_geometry(art.mesh, mu))[0]
        c_a = deim_coefficients(art.deim_a, a_samp)
        for n in small_config.n_list:
            a_hat = reduced_operator(art, a_samp, n)
            ref = np.tensordot(c_a, full[:, :n, :n], axes=(0, 0))
            assert np.linalg.norm(a_hat - ref) <= 1e-13 * np.linalg.norm(ref)
            assert np.array_equal(a_hat, a_hat.T)


def test_folded_blocks_match_the_coefficient_form(small_run, small_config, whole_union):
    """The folded blocks applied to the sampled entries give the projected
    DEIM approximations V_nᵀ A_deim V_n and V_nᵀ f_deim, where A_deim and
    f_deim are reconstructed from the interpolation coefficients, to 1e-13
    relative (Frobenius and 2-norm) at every test parameter and mode count.
    The two forms differ only in rounding: the fold solves with the same LU
    factors as the coefficients, once offline, without their refinement
    step."""
    art, _ = small_run
    union = whole_union(art.mesh, art.pattern)
    test_mu = sample_parameters(small_config.n_test, small_config.seed + 1,
                                small_config.mu_min, small_config.mu_max)
    for mu in test_mu:
        a_samp, f_samp = sample_entries(art, build_cut_geometry(art.mesh, ParameterPoint(*mu)))
        a_deim = union.matrix(
            reconstruct(art.deim_a, deim_coefficients(art.deim_a, a_samp))[union.twin])
        f_deim = reconstruct(art.deim_f, deim_coefficients(art.deim_f, f_samp))
        for n in small_config.n_list:
            v = art.pod.V[:, :n]
            ref_a = v.T @ (a_deim @ v)
            ref_f = v.T @ f_deim
            a_hat = reduced_operator(art, a_samp, n)
            f_hat = f_samp @ art.blocks_f[:, :n]
            assert np.linalg.norm(a_hat - ref_a) <= 1e-13 * np.linalg.norm(ref_a)
            assert np.linalg.norm(f_hat - ref_f) <= 1e-13 * np.linalg.norm(ref_f)


def test_query_solves_no_interpolation_system(small_run, monkeypatch):
    """The online query multiplies the sampled entries by the folded blocks:
    with the coefficient solve and its LAPACK call made to raise, it still
    returns."""
    art, _ = small_run

    def refuse(*_args, **_kwargs):
        raise AssertionError("an interpolation system was solved in an online query")

    monkeypatch.setattr(deim, "deim_coefficients", refuse)
    monkeypatch.setattr(deim, "_GETRS", refuse)
    sol = rom_online_solve(art, ParameterPoint(1.07, 1.13), art.pod.n_max)
    assert np.isfinite(sol.u_lifted).all()


def test_a_query_derives_none_of_the_whole_mesh_sets(small_run):
    # a query reads the classification on the plan's piece only; full
    # assembly derives the geometry's two kept sets, once per geometry
    art, _ = small_run
    mu = ParameterPoint(1.07, 1.13)
    geom = build_cut_geometry(art.mesh, mu)
    rom_online_solve(art, mu, art.pod.n_max, geom=geom)
    derived = ("cut_elements", "active_dofs")
    assert not set(derived) & set(vars(geom))
    sys_ = assemble_system(geom, art.phys)
    assert set(derived) <= set(vars(geom))
    assert sys_.active_dofs is geom.active_dofs


def test_exactly_singular_reduced_system_named(small_run):
    art, _ = small_run
    mu = ParameterPoint(1.07, 1.13)
    a_samp, f_samp = sample_entries(art, build_cut_geometry(art.mesh, mu))
    with pytest.raises(RomError, match=r"singular reduced system at mu=.*1\.07.*, n=2"):
        solve(art, mu, np.zeros_like(a_samp), f_samp, 2)


def test_sample_then_solve_is_bitwise_the_standalone_query(small_run, small_config):
    art, _ = small_run
    mu = ParameterPoint(1.08, 1.16)
    geom = build_cut_geometry(art.mesh, mu)
    a_samp, f_samp = sample_entries(art, geom)
    for n in small_config.n_list:
        split = solve(art, mu, a_samp, f_samp, n)
        alone = rom_online_solve(art, mu, n, geom=geom)
        assert np.array_equal(split.u_lifted, alone.u_lifted)
        assert np.array_equal(split.u_hat, alone.u_hat)


def test_plan_serves_geometry_on_an_identical_mesh(small_run, small_config):
    art, _ = small_run
    mu = ParameterPoint(1.02, 1.19)
    twin = build_background_mesh(small_config.box, small_config.h_target)
    assert twin is not art.mesh
    own = sample_entries(art, build_cut_geometry(art.mesh, mu))
    other = sample_entries(art, build_cut_geometry(twin, mu))
    assert np.array_equal(own[0], other[0])
    assert np.array_equal(own[1], other[1])


def test_query_rejects_a_geometry_on_a_shifted_box(small_run, small_config):
    # the model's vertex count, triangle count and h, on a box moved by 0.2
    art, _ = small_run
    mu = ParameterPoint(1.1, 1.1)
    shifted = build_background_mesh(((-1.0, 1.4), (-1.0, 1.4)), small_config.h_target)
    size = (art.mesh.n_vertices, art.mesh.n_triangles, art.mesh.h)
    assert (shifted.n_vertices, shifted.n_triangles, shifted.h) == size
    with pytest.raises(AssemblyError, match="does not match"):
        rom_online_solve(art, mu, 4, geom=build_cut_geometry(shifted, mu))


def test_query_rejects_a_geometry_of_another_parameter(small_run):
    art, _ = small_run
    mu = ParameterPoint(1.02, 1.19)
    other = ParameterPoint(1.19, 1.02)
    with pytest.raises(RomError) as info:
        rom_online_solve(art, mu, 2, geom=build_cut_geometry(art.mesh, other))
    assert str(mu) in str(info.value) and str(other) in str(info.value)


@pytest.mark.parametrize("mu", [ParameterPoint(2.0, 1.0), ParameterPoint(1.44, 1.44)])
def test_query_rejects_an_ellipse_leaving_the_box(small_run, mu):
    art, _ = small_run
    with pytest.raises(GeometryError, match="leaves the background box"):
        rom_online_solve(art, mu, 2)


def test_query_outside_the_training_box_still_solves(small_run):
    art, _ = small_run
    mu = ParameterPoint(1.3, 0.9)
    assert mu.r > art.config.mu_max and mu.theta < art.config.mu_min
    assert np.isfinite(rom_online_solve(art, mu, 2).u_lifted).all()


def test_reduced_operator_is_indefinite_on_the_fine_mesh():
    """Witness of a live defect (ROADMAP items 1-2).  With h = 0.06 and 200
    training solves (the benchmark's ``fine-rom`` model) the matrix DEIM
    gets too few snapshots, and at this test parameter of the default draw
    the reduced operator is indefinite: lambda_min is about -79 at n = 10
    and -279 at n = 40.  ``solve`` still returns a finite answer.  When
    definiteness is checked, this becomes an expected ``RomError``."""
    config = replace(Config(), h_target=0.06, n_train=200).validate()
    mu = (1.0406910481352298, 1.05246266808837)
    draw = sample_parameters(10, config.seed + 1, config.mu_min, config.mu_max)
    assert mu in [tuple(m) for m in draw.tolist()]
    art = run_offline(config)
    mu = ParameterPoint(*mu)
    a_samp, f_samp = sample_entries(art, build_cut_geometry(art.mesh, mu))
    for n in (10, 40):
        assert np.linalg.eigvalsh(reduced_operator(art, a_samp, n))[0] < 0.0
        assert np.isfinite(solve(art, mu, a_samp, f_samp, n).u_lifted).all()
