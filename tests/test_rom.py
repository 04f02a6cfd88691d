import numpy as np
import pytest

from cutrom.deim import MATRIX, UnionPattern, build_deim_operator
from cutrom.geometry import GeometryError, ParameterPoint, build_background_mesh, build_cut_geometry
from cutrom.pod import PodBasis
from cutrom.rom import RomError, build_rom_offline, prepare, rom_online_solve, sample_entries, solve


def test_identity_basis_matrix_projects_to_gram(default_mesh):
    n = default_mesh.n_vertices
    rng = np.random.default_rng(2)
    v = rng.standard_normal((n, 3))
    pod = PodBasis(V=v, sigma=np.ones(3), n_max=3, n_energy=3)
    codes = np.arange(n, dtype=np.int64) * n + np.arange(n)
    pattern = UnionPattern(codes, n)
    # a single-mode operator whose basis matrix is the identity on the diagonal
    snaps = np.column_stack([np.ones(n), np.ones(n)])
    op = build_deim_operator(snaps, 1e-12, 1, kind=MATRIX, pattern=pattern)
    scale = op.U[0, 0]  # normalized constant mode
    blocks_a, _ = build_rom_offline(pod, op, op)
    assert blocks_a.shape == (1, 3, 3)
    assert np.abs(blocks_a[0] / scale - v.T @ v).max() <= 1e-10


def test_online_solve_matches_fom_at_training_parameter(small_run):
    art, _ = small_run
    from cutrom.assembly import assemble_system
    from cutrom.fom import solve_fom
    from cutrom.geometry import build_cut_geometry

    mu = ParameterPoint(*art.train_mu[0])
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
    assert art.blocks_a.shape == (art.deim_a.l, art.pod.n_max, art.pod.n_max)
    assert art.blocks_f.shape == (art.deim_f.l, art.pod.n_max)
    assert art.matrix_sample_entries.shape == (art.deim_a.l, 2)
    assert art.vector_sample_entries.shape == (art.deim_f.l,)


def test_truncation_uses_leading_subblock(small_run):
    art, _ = small_run
    mu = ParameterPoint(1.14, 1.03)
    n = min(2, art.pod.n_max)
    rs = rom_online_solve(art, mu, n)
    # reproduce the reduced solve by hand from the plan and blocks
    from cutrom.deim import deim_coefficients
    from cutrom.geometry import build_cut_geometry
    from cutrom.rom import sample_entries

    geom = build_cut_geometry(art.mesh, mu)
    a_samp, f_samp = sample_entries(art, geom)
    c_a = deim_coefficients(art.deim_a, a_samp)
    c_f = deim_coefficients(art.deim_f, f_samp)
    a_hat = np.tensordot(c_a, art.blocks_a[:, :n, :n], axes=(0, 0))
    f_hat = c_f @ art.blocks_f[:, :n]
    assert np.array_equal(np.linalg.solve(a_hat, f_hat), rs.u_hat)


def test_prepare_then_solve_is_bitwise_the_standalone_query(small_run, small_config):
    art, _ = small_run
    mu = ParameterPoint(1.08, 1.16)
    geom = build_cut_geometry(art.mesh, mu)
    prep = prepare(art, geom)
    for n in small_config.n_list:
        split = solve(art, prep, n)
        alone = rom_online_solve(art, mu, n, geom=geom)
        assert np.array_equal(split.u_lifted, alone.u_lifted)
        assert np.array_equal(split.u_hat, alone.u_hat)
        assert split.online_time >= prep.time


def test_plan_serves_geometry_on_an_identical_mesh(small_run, small_config):
    art, _ = small_run
    mu = ParameterPoint(1.02, 1.19)
    twin = build_background_mesh(small_config.box, small_config.h_target)
    assert twin is not art.mesh
    own = sample_entries(art, build_cut_geometry(art.mesh, mu))
    other = sample_entries(art, build_cut_geometry(twin, mu))
    assert np.array_equal(own[0], other[0])
    assert np.array_equal(own[1], other[1])


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
