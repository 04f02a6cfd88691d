"""Sweep-level properties of the default configuration run."""

import numpy as np
import pytest

from cutrom.assembly import assemble_system
from cutrom.geometry import ParameterPoint, build_cut_geometry, level_set
from cutrom.pipeline import run_online_sweep
from cutrom.rom import sample_entries


def test_union_pattern_is_small_fraction(default_run):
    art = default_run.artifacts
    # the pattern is the upper half: with its mirrors, the whole union
    whole = 2 * art.pattern.size - int(art.pattern.diagonal.sum())
    frac = whole / art.mesh.n_vertices ** 2
    assert frac < 0.05


def test_discarded_energy_underestimates_error(default_run):
    for r in default_run.report.records:
        assert r.eta_pod < r.e_rel


def test_errors_positive_below_full_mode_count(default_run):
    n_max = default_run.artifacts.pod.n_max
    for r in default_run.report.records:
        if r.n < n_max:
            assert r.e_rel > 0.0
            assert r.e_T > 0.0


def test_mean_error_decreases_from_first_to_last_mode_count(default_run):
    report = default_run.report
    first = np.mean(report.column("e_rel")[:, 0])
    last = np.mean(report.column("e_rel")[:, -1])
    assert last < first


def test_online_time_roughly_constant_in_n(default_run):
    # medians per mode count: robust against isolated scheduler stalls
    report = default_run.report
    rom_time = report.column("rom_time")
    meds = [np.median(rom_time[:, j]) for j in range(len(report.n_list))]
    assert max(meds) / min(meds) <= 3.0


def test_jacobi_ratio_within_rayleigh_bounds(default_run):
    # d_min dips below 1 on this mesh, so eta_2b may exceed eta_2a on rare
    # records; the mean down-weighting still holds (criterion 6 checks the
    # per-record Rayleigh bounds)
    ratios = [r.eta_2b / r.eta_2a for r in default_run.report.records]
    assert np.mean(ratios) < 1.0


def test_active_restriction_never_exceeds_plain(default_run):
    for r in default_run.report.records:
        assert r.eta_2a_active <= r.eta_2a * (1.0 + 1e-12)


def test_tail_energy_at_two_in_reference_band(default_run):
    tails = {r.n: r.eta_pod for r in default_run.report.records}
    assert 1e-4 <= tails[2] <= 5e-3


def test_mean_plain_residual_at_two_in_reference_band(default_run):
    report = default_run.report
    vals = report.column("eta_2a")[:, report.n_list.index(2)]
    assert 3.0 <= np.mean(vals) <= 50.0


def test_effectivity_scale_before_spectrum_cliff(default_run):
    report = default_run.report
    vals = report.column("theta_2a")[:, report.n_list.index(2)]
    assert 50.0 <= np.mean(vals) <= 2000.0


@pytest.mark.xfail(strict=True, reason=(
    "the snapshot spectrum on the symmetric structured mesh collapses after "
    "~14 modes, so effectivities fall with the error instead of plateauing"))
def test_effectivity_scale_at_eight(default_run):
    report = default_run.report
    vals = report.column("theta_2a")[:, report.n_list.index(8)]
    assert 50.0 <= np.mean(vals) <= 2000.0


def test_sweep_invariants_hold_on_edge_parameters(small_run, small_config):
    """The four corners of the parameter box, and two ellipses through the
    mesh vertex (x, 0) resp. (0, x) with x = 1.08 (to rounding), where the
    level set is exactly zero.  ``run_online_sweep`` raises on the first
    record that breaks the Rayleigh sandwich, the active <= plain ordering
    or the combined bound."""
    art, _ = small_run
    lo, hi = small_config.mu_min, small_config.mu_max
    x = 1.0799999999999998
    mus = [(lo, lo), (lo, hi), (hi, lo), (hi, hi), (x * x, 1.1), (1.1, x * x)]
    vx, vy = art.mesh.vertices.T
    for mu, on_phi0 in zip(mus[4:], ((vx == x) & (vy == 0.0), (vx == 0.0) & (vy == x))):
        assert level_set(ParameterPoint(*mu), vx[on_phi0], vy[on_phi0]).tolist() == [0.0]
    report = run_online_sweep(art, small_config, test_params=mus)
    assert len(report.records) == len(mus) * len(small_config.n_list)


def test_sampled_entries_and_sweep_on_near_tangent_cuts(small_run, small_config, near_tangent_mu):
    """Ellipses tangent to a grid line at a mesh vertex, and one ulp either
    side: the model's sampled entries equal the assembled ones bit for bit,
    and the sweep's record-by-record invariants hold."""
    art, _ = small_run
    rows, cols = art.matrix_sample_entries.T
    for mu in near_tangent_mu:
        geom = build_cut_geometry(art.mesh, mu)
        system = assemble_system(geom, art.phys)
        a_samp, f_samp = sample_entries(art, geom)
        assert a_samp.tobytes() == np.asarray(system.A[rows, cols]).ravel().tobytes()
        assert f_samp.tobytes() == system.f[art.vector_sample_entries].tobytes()
    params = [(mu.r, mu.theta) for mu in near_tangent_mu]
    report = run_online_sweep(art, small_config, test_params=params)
    assert len(report.records) == len(params) * len(small_config.n_list)
