import ast
import collections
import csv
import dataclasses
import hashlib
import logging
import os
import re
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg as sla

import cutrom
from cutrom import cli, pipeline, pod
from cutrom.estimators import EstimatorRecord
from cutrom.assembly import assemble_mass_matrix, assemble_system
from cutrom.config import Config
from cutrom.geometry import GeometryError, ParameterPoint, build_cut_geometry
from cutrom.pod import tail_energy
from cutrom.pipeline import (
    RUN4_COLUMNS,
    PipelineError,
    emit_report,
    load_report,
    parameter_records,
    patch_check,
    pod_tail_check,
    run_offline,
    run_online_sweep,
    sample_parameters,
    spd_coercivity_check,
    verify_invariants,
    zero_ghost_rows_check,
)

CHECK_NAMES = ["patch_test", "zero_ghost_rows", "spd_coercivity", "pod_tail_identity",
               "sweep_invariants"]


def test_record_count_and_order(small_run, small_config):
    _, report = small_run
    assert len(report.records) == small_config.n_test * len(small_config.n_list)
    for i in range(small_config.n_test):
        chunk = report.records[i * len(small_config.n_list):(i + 1) * len(small_config.n_list)]
        assert [r.n for r in chunk] == list(small_config.n_list)
        assert len({(r.mu_r, r.mu_theta) for r in chunk}) == 1


def test_train_and_test_draws_are_independent(small_config):
    train = sample_parameters(10, small_config.seed, 1.0, 1.2)
    test = sample_parameters(10, small_config.seed + 1, 1.0, 1.2)
    assert not np.allclose(train, test)
    assert train.min() >= 1.0 and train.max() <= 1.2


def test_report_files_and_schemas(tmp_path, small_run, small_config):
    _, report = small_run
    out = tmp_path / "rep"
    emit_report(report, str(out))
    with open(out / "run4.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(RUN4_COLUMNS)
    assert len(rows[0]) == 12
    assert len(rows) == 1 + len(small_config.n_list)
    with open(out / "tail.csv") as fh:
        tail_rows = list(csv.reader(fh))
    assert [int(r[0]) for r in tail_rows[1:]] == list(small_config.n_list)
    with open(out / "rates.csv") as fh:
        rate_rows = list(csv.reader(fh))
    assert rate_rows[0] == ["quantity", "alpha", "r2_alg", "beta", "r2_exp", "best", "formula"]
    assert [r[0] for r in rate_rows[1:]] == ["e_rel", "eta_2a", "eta_2b", "eta_pod", "eta_A", "eta_f"]
    for name in ("timings.csv", "records.csv", "fig_timing.csv", "report_meta.txt"):
        assert (out / name).exists()


def test_seventeen_digit_roundtrip(tmp_path, small_run):
    _, report = small_run
    out = tmp_path / "rep"
    emit_report(report, str(out))
    with open(out / "records.csv") as fh:
        reader = csv.DictReader(fh)
        first = next(reader)
    assert float(first["eta_2a"]) == report.records[0].eta_2a


def test_report_reemission_identical(tmp_path, small_run):
    _, report = small_run
    a = tmp_path / "a"
    b = tmp_path / "b"
    emit_report(report, str(a))
    loaded = load_report(str(a))
    emit_report(loaded, str(b))
    for name in ("run4.csv", "tail.csv", "rates.csv", "records.csv", "timings.csv",
                 "fig_timing.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_a_report_whose_records_are_not_runs_of_its_n_list_is_refused(small_run):
    _, report = small_run
    with pytest.raises(PipelineError, match="does not repeat the n_list"):
        dataclasses.replace(report, n_list=(2, 4))
    with pytest.raises(PipelineError, match="holds no records"):
        dataclasses.replace(report, records=[])


def test_report_columns_hold_the_records_in_sweep_order(small_run):
    _, report = small_run
    for name in EstimatorRecord.FIELDS:
        column = report.column(name)
        assert column.shape == (len(report.records) // len(report.n_list), len(report.n_list))
        assert column.ravel().tolist() == [getattr(r, name) for r in report.records]


def test_report_means_equal_the_record_loops_bit_for_bit(tmp_path, small_run):
    # the per-n means and the per-parameter timing rows, as loops over the
    # records themselves
    _, report = small_run
    k = len(report.n_list)
    for n, row in zip(report.n_list, report.mean_rows()):
        recs = [r for r in report.records if r.n == n]
        assert row["n"] == n
        for name in RUN4_COLUMNS[1:]:
            expected = float(np.mean([getattr(r, name) for r in recs]))
            assert np.float64(row[name]).tobytes() == np.float64(expected).tobytes(), (n, name)
        assert row["eta_pod"] == recs[0].eta_pod
    expected_rows = []
    for i, first in enumerate(report.records[::k]):
        chunk = report.records[i * k:(i + 1) * k]
        expected_rows.append([i, first.mu_r, first.mu_theta, 1e3 * first.fom_time,
                              1e3 * float(np.mean([r.rom_time for r in chunk]))])
    emit_report(report, str(tmp_path))
    with open(tmp_path / "fig_timing.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows == [[pipeline._g17(v) for v in row] for row in expected_rows]
    assert report.test_mu.tobytes() == np.array(
        [(r.mu_r, r.mu_theta) for r in report.records[::k]]).tobytes()
    assert report.mean_fom_time == float(np.mean([r.fom_time for r in report.records[::k]]))
    assert report.mean_rom_time == float(np.mean([r.rom_time for r in report.records]))


def test_emit_report_builds_the_mean_rows_once(tmp_path, small_run, monkeypatch):
    # run4.csv, tail.csv and rates.csv share one pass over the records
    calls = []
    mean_rows = pipeline.SweepReport.mean_rows
    monkeypatch.setattr(pipeline.SweepReport, "mean_rows",
                        lambda self: calls.append(1) or mean_rows(self))
    emit_report(small_run[1], str(tmp_path))
    assert len(calls) == 1


def _emit_with_error_window_2(tmp_path, report):
    out = tmp_path / "rep"
    emit_report(dataclasses.replace(report, fit_n_min_error=2), str(out))
    return out


def test_load_report_refuses_a_missing_meta_file(tmp_path, small_run):
    out = _emit_with_error_window_2(tmp_path, small_run[1])
    assert load_report(str(out)).fit_n_min_error == 2
    (out / "report_meta.txt").unlink()
    rates = (out / "rates.csv").read_bytes()
    with pytest.raises(PipelineError, match="no report_meta.txt"):
        load_report(str(out))
    assert cli.main(["report", "--from", str(out)]) == 2
    assert (out / "rates.csv").read_bytes() == rates


@pytest.mark.parametrize("key", ["n_list", "fit_n_min_error", "fit_n_min_tail"])
def test_load_report_refuses_a_missing_meta_key(tmp_path, small_run, key):
    out = _emit_with_error_window_2(tmp_path, small_run[1])
    meta = out / "report_meta.txt"
    lines = meta.read_text().splitlines(keepends=True)
    meta.write_text("".join(line for line in lines if not line.startswith(f"{key} =")))
    with pytest.raises(PipelineError, match=f"has no {key}$"):
        load_report(str(out))
    assert cli.main(["report", "--from", str(out)]) == 2


@pytest.mark.parametrize("n_list", ["2,4", "2,6,4", "2,4,6,8"])
def test_load_report_refuses_records_that_are_not_runs_of_the_n_list(tmp_path, small_run, n_list):
    out = _emit_with_error_window_2(tmp_path, small_run[1])
    meta = out / "report_meta.txt"
    lines = meta.read_text().splitlines(keepends=True)
    meta.write_text("".join(f"n_list = {n_list}\n" if line.startswith("n_list =") else line
                            for line in lines))
    with pytest.raises(PipelineError, match="does not repeat the n_list"):
        load_report(str(out))
    assert cli.main(["report", "--from", str(out)]) == 2


def test_load_report_refuses_a_records_file_with_no_records(tmp_path, small_run):
    out = _emit_with_error_window_2(tmp_path, small_run[1])
    records = out / "records.csv"
    records.write_text(records.read_text().splitlines(keepends=True)[0])
    rates = (out / "rates.csv").read_bytes()
    with pytest.raises(PipelineError, match="records.csv' holds no records"):
        load_report(str(out))
    assert cli.main(["report", "--from", str(out)]) == 2
    assert (out / "rates.csv").read_bytes() == rates


@pytest.mark.parametrize("edit, message", [
    ("column", "records.csv' has no eta_A column$"),
    ("short", "records.csv' line 3 does not hold one value per column$"),
    ("long", "records.csv' line 3 does not hold one value per column$"),
    ("value", "records.csv' line 3 column e_rel does not parse as float: 'abc'$"),
])
def test_load_report_names_a_broken_records_file(tmp_path, small_run, edit, message):
    out = _emit_with_error_window_2(tmp_path, small_run[1])
    records = out / "records.csv"
    with open(records, newline="") as fh:
        rows = list(csv.reader(fh))
    if edit == "column":
        k = rows[0].index("eta_A")
        rows = [row[:k] + row[k + 1:] for row in rows]
    elif edit == "short":
        rows[2] = rows[2][:-1]
    elif edit == "value":
        rows[2][rows[0].index("e_rel")] = "abc"
    else:
        rows[2] = rows[2] + ["1.0"]
    with open(records, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    rates = (out / "rates.csv").read_bytes()
    with pytest.raises(PipelineError, match=message):
        load_report(str(out))
    assert cli.main(["report", "--from", str(out)]) == 2
    assert (out / "rates.csv").read_bytes() == rates


@pytest.mark.parametrize("key, value", [("fit_n_min_error", "five"), ("n_list", "2,four,6")])
def test_load_report_names_a_meta_value_that_is_not_an_integer(tmp_path, small_run, key, value):
    out = _emit_with_error_window_2(tmp_path, small_run[1])
    meta = out / "report_meta.txt"
    lines = meta.read_text().splitlines(keepends=True)
    meta.write_text("".join(f"{key} = {value}\n" if line.startswith(f"{key} =") else line
                            for line in lines))
    rates = (out / "rates.csv").read_bytes()
    with pytest.raises(PipelineError, match=f"report_meta.txt' {key} does not parse as int: "):
        load_report(str(out))
    assert cli.main(["report", "--from", str(out)]) == 2
    assert (out / "rates.csv").read_bytes() == rates


def test_sweep_refuses_an_empty_test_set(small_run, small_config, monkeypatch):
    art, _ = small_run

    def refuse(*_args, **_kwargs):
        raise AssertionError("a test parameter was solved")

    monkeypatch.setattr(pipeline, "build_cut_geometry", refuse)
    with pytest.raises(PipelineError, match="empty test set"):
        run_online_sweep(art, small_config, test_params=[])


@pytest.mark.parametrize("params", [
    [[1.0, 1.1, 1.2], [1.05, 1.15, 1.19]],  # two rows of three: once read as three pairs
    [1.1, 1.1],  # one bare pair
    [[[1.1, 1.1]]],
], ids=["two_rows_of_three", "bare_pair", "nested"])
def test_sweep_refuses_test_parameters_that_are_not_pairs(small_run, small_config, params,
                                                         monkeypatch):
    art, _ = small_run

    def refuse(*_args, **_kwargs):
        raise AssertionError("a test parameter was solved")

    monkeypatch.setattr(pipeline, "build_cut_geometry", refuse)
    shape = re.escape(str(np.shape(params)))
    with pytest.raises(PipelineError, match=f"shape {shape} are not \\(count, 2\\) pairs"):
        run_online_sweep(art, small_config, test_params=params)


def test_training_subset_reproduction(small_run, small_config):
    art, _ = small_run
    cfg = dataclasses.replace(small_config, n_list=(art.pod.n_max,)).validate()
    train_mu = sample_parameters(cfg.n_train, cfg.seed, cfg.mu_min, cfg.mu_max)
    report = run_online_sweep(art, cfg, test_params=train_mu[:4])
    mean_e = np.mean([r.e_rel for r in report.records])
    assert mean_e <= 1e-2


@pytest.mark.parametrize("mu", [(2.0, 1.0), (1.44, 1.44)])
def test_sweep_rejects_an_ellipse_leaving_the_box(small_run, small_config, mu):
    art, _ = small_run
    with pytest.raises(GeometryError, match="leaves the background box"):
        run_online_sweep(art, small_config, test_params=[[1.1, 1.1], list(mu)])


def test_sweep_outside_the_training_box_still_solves(small_run, small_config):
    art, _ = small_run
    report = run_online_sweep(art, small_config, test_params=[[1.3, 0.9]])
    assert len(report.records) == len(small_config.n_list)


def test_single_snapshot_pipeline_is_legal():
    cfg = Config(n_train=1, n_test=2, n_list=(1,), seed=0).validate()
    art = run_offline(cfg)
    assert art.pod.n_max == 1
    assert art.deim_a.l == 1 and art.deim_f.l == 1
    report = run_online_sweep(art, cfg)
    assert len(report.records) == 2


def test_determinism_bitwise(tmp_path):
    from cutrom.artifacts import save_artifacts

    cfg = Config(n_train=12, n_test=3, n_list=(1, 2, 4), seed=0).validate()
    dirs = []
    for tag in ("one", "two"):
        art = run_offline(cfg)
        report = run_online_sweep(art, cfg)
        out = tmp_path / tag
        emit_report(report, str(out))
        save_artifacts(str(out / "arts"), art)
        dirs.append(out)
    for name in ("run4.csv", "tail.csv", "rates.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    first = sorted((dirs[0] / "arts").iterdir())
    second = sorted((dirs[1] / "arts").iterdir())
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()


def test_sweep_needs_enough_modes(small_run, small_config):
    art, _ = small_run
    cfg = dataclasses.replace(small_config, n_list=(art.pod.n_max + 3,)).validate()
    with pytest.raises(PipelineError):
        run_online_sweep(art, cfg)


def test_verify_suite_on_small_config(tmp_path):
    cfg = Config(n_train=25, n_test=4, n_list=(2, 4), seed=0).validate()
    summary = tmp_path / "geometry_summary.csv"
    checks = verify_invariants(cfg, geometry_csv=str(summary))
    assert [c.name for c in checks] == CHECK_NAMES
    failed = [c for c in checks if not c.ok]
    assert not failed, failed
    with open(summary) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:5] == ["mu_r", "mu_theta", "n_inside", "n_cut", "n_outside"]
    assert len(rows) == 31
    assert all(float(r[-1]) <= 0.02 for r in rows[1:])


def test_verify_builds_each_geometry_once(monkeypatch):
    # verify checks the objects the pipeline builds: every parameter's
    # geometry is built once, and the sweep's per-parameter step runs once
    # per test parameter
    cfg = Config(n_train=25, n_test=4, n_list=(2, 4), seed=0).validate()
    built, states = collections.Counter(), collections.Counter()
    build, step = pipeline.build_cut_geometry, pipeline.parameter_records

    def counted_build(mesh, mu):
        built[mu] += 1
        return build(mesh, mu)

    def counted_step(art, mu, *args):
        states[mu] += 1
        return step(art, mu, *args)

    monkeypatch.setattr(pipeline, "build_cut_geometry", counted_build)
    monkeypatch.setattr(pipeline, "parameter_records", counted_step)
    assert all(c.ok for c in verify_invariants(cfg))
    train, test = (sample_parameters(count, seed, cfg.mu_min, cfg.mu_max)
                   for count, seed in ((cfg.n_train, cfg.seed), (cfg.n_test, cfg.seed + 1)))
    assert states == collections.Counter(ParameterPoint(*m) for m in test)
    assert {ParameterPoint(*m) for m in (*train, *test)} <= set(built)
    assert set(built.values()) == {1}


def test_pod_tail_check_fails_on_corrupted_spectrum(small_run, default_run):
    """Scaling the spectrum past the built modes by 1 + 1e-6 fails the check.
    On the default run that is the far tail, sigma[40:]."""
    for art in (small_run[0], default_run.artifacts):
        snaps = art.snapshots
        mass = assemble_mass_matrix(art.mesh)
        intact = pod_tail_check(art.pod, snaps, mass)
        assert intact.status == "pass", intact
        sigma = art.pod.sigma.copy()
        sigma[art.pod.n_max:] *= 1.0 + 1e-6
        bad = pod_tail_check(dataclasses.replace(art.pod, sigma=sigma), snaps, mass)
        assert bad.status == "fail", bad


@pytest.mark.parametrize("field, value", [("eps_safe", 0.5), ("nitsche_lambda", 40.0)])
def test_sweep_refuses_a_config_that_disagrees_with_its_artifacts(small_run, small_config,
                                                                  field, value):
    art, _ = small_run
    cfg = dataclasses.replace(small_config, **{field: value}).validate()
    with pytest.raises(PipelineError, match=f"sweep config {field} = "):
        run_online_sweep(art, cfg)


def _first_record_site(small_run, small_config):
    _, report = small_run
    mu = report.test_mu[0]
    return re.escape(f"at mu=({mu[0]:.17g}, {mu[1]:.17g}), n={small_config.n_list[0]}")


def test_sweep_raises_on_a_violated_rayleigh_sandwich(small_run, small_config, monkeypatch):
    original = pipeline.est.rayleigh_ratio_check

    def violated(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), ok=False)

    monkeypatch.setattr(pipeline.est, "rayleigh_ratio_check", violated)
    site = _first_record_site(small_run, small_config)
    with pytest.raises(PipelineError, match="Rayleigh sandwich violated " + site):
        run_online_sweep(small_run[0], small_config)


def test_sweep_raises_when_the_active_norm_exceeds_the_plain_norm(small_run, small_config,
                                                                  monkeypatch):
    monkeypatch.setattr(pipeline.est, "residual_norm_active",
                        lambda r, active: 2.0 * float(np.linalg.norm(r)))
    site = _first_record_site(small_run, small_config)
    with pytest.raises(PipelineError, match="active residual norm exceeds plain norm " + site):
        run_online_sweep(small_run[0], small_config)


def test_sweep_raises_on_a_violated_combined_bound(small_run, small_config, monkeypatch):
    monkeypatch.setattr(pipeline.est, "combined_error_bound", lambda *args: 0.0)
    site = _first_record_site(small_run, small_config)
    with pytest.raises(PipelineError, match="combined bound violated " + site):
        run_online_sweep(small_run[0], small_config)


def test_cli_verify_fails_on_a_violated_sweep_invariant(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("[sampling]\nn_train = 25\nn_test = 4\n[sweep]\nn_list = 2,4\n"
                   f"[paths]\nreport_dir = {tmp_path / 'rep'}\n")
    monkeypatch.setattr(pipeline.est, "combined_error_bound", lambda *args: 0.0)
    assert cli.main(["verify", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] sweep_invariants: combined bound violated at mu=" in out
    assert [line.split("]")[1].split(":")[0].strip() for line in out.splitlines()
            if line.startswith("[")] == CHECK_NAMES
    assert (tmp_path / "rep" / "geometry_summary.csv").exists()


# failure paths of the shared checks: each reports fail on a broken input

def _patched_assembly(monkeypatch, edit):
    """Make the checks see ``edit(system)`` in place of each assembled system."""
    original = pipeline.assemble_system
    monkeypatch.setattr(pipeline, "assemble_system",
                        lambda geom, phys: edit(original(geom, phys)))


CHECK_MUS = [ParameterPoint(1.0, 1.0), ParameterPoint(1.07, 1.13)]


def test_zero_ghost_rows_check_fails_on_a_tiny_inactive_load(default_mesh, default_phys):
    systems = [assemble_system(build_cut_geometry(default_mesh, mu), default_phys)
               for mu in CHECK_MUS]
    assert zero_ghost_rows_check(systems).ok

    def tiny_load(system):
        inactive = np.setdiff1d(np.arange(system.f.size), system.active_dofs)
        f = system.f.copy()
        f[inactive[0]] = 1e-300
        return dataclasses.replace(system, f=f)

    bad = zero_ghost_rows_check([tiny_load(system) for system in systems])
    assert bad.status == "fail", bad


def test_patch_check_fails_on_a_perturbed_solution(default_mesh, patch_phys, monkeypatch):
    assert patch_check(default_mesh, patch_phys, CHECK_MUS).ok
    original = pipeline.solve_fom

    def perturbed(system):
        sol = original(system)
        u = sol.u.copy()
        u[system.active_dofs[0]] += 1e-9
        return dataclasses.replace(sol, u=u)

    monkeypatch.setattr(pipeline, "solve_fom", perturbed)
    bad = patch_check(default_mesh, patch_phys, CHECK_MUS)
    assert bad.status == "fail", bad


def test_patch_check_refuses_a_non_affine_datum(default_mesh, default_phys):
    with pytest.raises(PipelineError, match="affine datum"):
        patch_check(default_mesh, default_phys, CHECK_MUS)


def test_spd_coercivity_check_fails_on_a_negated_matrix(default_mesh, default_phys, monkeypatch):
    _patched_assembly(monkeypatch, lambda system: dataclasses.replace(system, A=-system.A))
    bad = spd_coercivity_check(default_mesh, default_phys, CHECK_MUS, 0.5)
    assert bad.status == "fail", bad


def test_sweep_raises_on_an_inexact_matrix_interpolant(small_run, small_config, monkeypatch):
    # the sampled entries are left alone, so the interpolant at its own
    # indices misses the scaled assembled matrix by about 1e-8 |A|
    art, report = small_run
    _patched_assembly(monkeypatch,
                      lambda system: dataclasses.replace(system, A=system.A * (1.0 + 1e-8)))
    mu = report.test_mu[0]
    site = re.escape(f"matrix interpolant inexact at mu=({mu[0]:.17g}, {mu[1]:.17g}): ")
    with pytest.raises(PipelineError, match=site + r"max \|A_deim - A\| at the selected entries"):
        run_online_sweep(art, small_config)


CONFIG_TEXT = """
[sampling]
n_train = 12
n_test = 3
[sweep]
n_list = 1,2,4
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


def test_cli_sweep_and_report(tmp_path, config_file, capsys):
    art_dir = str(tmp_path / "arts")
    rep_dir = str(tmp_path / "rep")
    assert cli.main(["sweep", "--config", config_file, "--out", art_dir,
                     "--report", rep_dir]) == 0
    assert os.path.exists(os.path.join(art_dir, "manifest.txt"))
    assert os.path.exists(os.path.join(rep_dir, "run4.csv"))
    # online from saved artifacts
    rep2 = str(tmp_path / "rep2")
    assert cli.main(["online", "--artifacts", art_dir, "--config", config_file,
                     "--report", rep2]) == 0
    with open(os.path.join(rep_dir, "run4.csv"), "rb") as fh:
        first = fh.read()
    with open(os.path.join(rep2, "run4.csv"), "rb") as fh:
        assert fh.read() == first
    # re-emission from saved records
    rep3 = str(tmp_path / "rep3")
    assert cli.main(["report", "--from", rep_dir, "--out", rep3]) == 0
    with open(os.path.join(rep3, "run4.csv"), "rb") as fh:
        assert fh.read() == first


# SHA-256 of the report tables ``cutrom sweep`` writes with one BLAS thread,
# as the README quotes them: the small config above and the default config
QUOTED_DIGESTS = {
    "small": (CONFIG_TEXT, {
        "run4.csv": "c1ede4433c68d6d9e092e23176e05ea7d18874c3a3df8043d095a8e75157b7f4",
        "tail.csv": "ba3707247a8aec46c48094900fe07a4623fedf3b317658d18a53e2641431901a",
        "rates.csv": "b60d1b07bdc943da5f0f1b5891da73ea8775982fdae0e71c16398f50f10a90d1",
    }),
    "default": ("", {
        "run4.csv": "9699020249d3821e6117a743fa759cc0359d0bff688c9e6f7dab4595bdd38671",
        "tail.csv": "78373e4ed91f87f976b7d11749a5f977a93742f948ce39a71d98a7603e161600",
        "rates.csv": "b6a7aeae0a137bbda6bbe6e38f961b5eb4b91ac947e3c0e48faaff724326a0ac",
    }),
}


# SHA-256 of the geometry summary ``cutrom verify`` writes for the default
# config: class counts and area/perimeter estimates of its zero-row parameters
GEOMETRY_SUMMARY_DIGEST = "e203ea41e9be47e3f3c82276836355728aa7bba70d1609500c0205a29ad7d62b"


def test_cli_verify_writes_the_quoted_geometry_summary(tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(f"[paths]\nreport_dir = {tmp_path / 'rep'}\n")
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    summary = (tmp_path / "rep" / "geometry_summary.csv").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == GEOMETRY_SUMMARY_DIGEST


@pytest.mark.parametrize("name", sorted(QUOTED_DIGESTS))
def test_cli_sweep_writes_the_quoted_digests(tmp_path, name):
    """A change that moves any number in the report tables fails here.  The
    digests are those of numpy's bundled OpenBLAS on x86-64; another BLAS
    build may round the DEIM's SVD differently."""
    text, digests = QUOTED_DIGESTS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cutrom.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "cutrom", "sweep", "--config", str(cfg),
                    "--out", str(tmp_path / "arts"), "--report", str(tmp_path / "rep")],
                   env=env, check=True, capture_output=True, text=True, timeout=300)
    for file, digest in digests.items():
        assert hashlib.sha256((tmp_path / "rep" / file).read_bytes()).hexdigest() == digest, file


@pytest.mark.parametrize("argv, debug", [(["offline", "-v"], True), (["-v", "offline"], True),
                                         (["offline"], False)])
def test_cli_verbose_before_or_after_the_command(tmp_path, config_file, argv, debug):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cutrom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "cutrom", *argv, "--config", config_file,
                          "--out", str(tmp_path / "arts")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert ("DEBUG cutrom" in run.stderr) == debug


def test_cli_seed_mismatch_refused(tmp_path, config_file):
    art_dir = str(tmp_path / "arts")
    assert cli.main(["offline", "--config", config_file, "--out", art_dir]) == 0
    ret = cli.main(["online", "--artifacts", art_dir, "--config", config_file,
                    "--report", str(tmp_path / "r"), "--seed", "9"])
    assert ret == 2


@pytest.fixture(scope="module")
def saved_small_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("small_model")
    cfg = root / "small.cfg"
    cfg.write_text(CONFIG_TEXT)
    assert cli.main(["offline", "--config", str(cfg), "--out", str(root / "arts")]) == 0
    return str(root / "arts")


# (text replaced in CONFIG_TEXT, or appended when None; its replacement)
@pytest.mark.parametrize("old, new", [
    (None, "[paths]\nreport_dir = elsewhere\n"),
    ("n_test = 3", "n_test = 2"),
    ("n_list = 1,2,4", "n_list = 1,2,4\nfit_n_min_error = 2"),
    ("n_list = 1,2,4", "n_list = 1,2"),
], ids=["report_dir", "n_test", "fit_n_min_error", "shorter_n_list"])
def test_cli_online_accepts_a_sweep_only_change(tmp_path, saved_small_model, old, new):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(CONFIG_TEXT + new if old is None else CONFIG_TEXT.replace(old, new))
    assert cli.main(["online", "--artifacts", saved_small_model, "--config", str(cfg),
                     "--report", str(tmp_path / "r")]) == 0
    assert (tmp_path / "r" / "run4.csv").exists()


@pytest.mark.parametrize("old, new, message", [
    (None, "[physics]\nlambda = 20\n", "config hash mismatch"),
    (None, "[tolerances]\neps_pod = 1e-4\n", "config hash mismatch"),
    ("n_list = 1,2,4", "n_list = 1,2,4,100", "needs 100 modes but only"),
], ids=["lambda", "eps_pod", "longer_n_list"])
def test_cli_online_refuses_a_model_change(tmp_path, saved_small_model, caplog, old, new,
                                           message):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(CONFIG_TEXT + new if old is None else CONFIG_TEXT.replace(old, new))
    assert cli.main(["online", "--artifacts", saved_small_model, "--config", str(cfg),
                     "--report", str(tmp_path / "r")]) == 2
    assert message in caplog.text
    assert not (tmp_path / "r").exists()


def test_cli_fom_patch_output(tmp_path, capsys):
    cfg = tmp_path / "patch.cfg"
    cfg.write_text("[physics]\nf_const = 0\ng0 = 1\ngx = 2\ngy = 3\ngxy = 0\n")
    assert cli.main(["fom", "--r", "1.1", "--theta", "1.05", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "error vs interpolated boundary datum" in out
    assert "n/a" not in out


def test_cli_fom_solves_the_patch_system_once(tmp_path, capsys, monkeypatch, default_mesh,
                                             patch_phys):
    # the patch error is read off the system the command has already solved
    cfg = tmp_path / "patch.cfg"
    cfg.write_text("[physics]\nf_const = 0\ng0 = 1\ngx = 2\ngy = 3\ngxy = 0\n")
    original, solved = cli.solve_fom, []

    def spy(system):
        solved.append(system.geom.mu)
        return original(system)

    monkeypatch.setattr(cli, "solve_fom", spy)
    monkeypatch.setattr(pipeline, "solve_fom", spy)
    mu = ParameterPoint(1.1, 1.05)
    assert cli.main(["fom", "--r", "1.1", "--theta", "1.05", "--config", str(cfg)]) == 0
    assert solved == [mu]
    check = patch_check(default_mesh, patch_phys, [mu])  # the config's physics
    assert f"error vs interpolated boundary datum: {check.detail} (max norm)" in capsys.readouterr().out


def test_cli_fom_rejects_a_nan_source(tmp_path, capsys, caplog):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("[physics]\nf_const = nan\n")
    assert cli.main(["fom", "--r", "1.1", "--theta", "1.05", "--config", str(cfg)]) != 0
    assert "f_const must be finite" in caplog.text
    assert "residual norm" not in capsys.readouterr().out


def test_cli_fom_default_not_applicable(capsys):
    assert cli.main(["fom", "--r", "1.0", "--theta", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "n/a" in out


@pytest.mark.parametrize("r, theta", [(2.0, 1.0), (1.0, 1.44)])
def test_cli_fom_rejects_ellipse_leaving_the_box(r, theta, capsys, caplog):
    assert cli.main(["fom", "--r", str(r), "--theta", str(theta)]) == 2
    assert "leaves the background box" in caplog.text
    assert "residual norm" not in capsys.readouterr().out


def test_sweep_samples_entries_once_per_parameter(small_run, small_config, monkeypatch):
    from cutrom import rom

    art, _ = small_run
    calls = []
    original = rom.evaluate_entries

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(rom, "evaluate_entries", counting)
    run_online_sweep(art, small_config)
    assert len(calls) == small_config.n_test


def test_parameter_records_reproduce_the_sweep_records(small_run):
    # the sweep is parameter_records once per test parameter: called
    # directly, it gives the sweep's records bit for bit in every field but
    # the two timings
    art, report = small_run
    n_list = report.n_list
    records = parameter_records(
        art, ParameterPoint(*report.test_mu[0]), n_list,
        {n: float(sla.svdvals(art.pod.V[:, :n])[0]) for n in n_list},
        {n: tail_energy(art.pod.sigma, n) for n in n_list})
    assert [r.n for r in records] == list(n_list)
    for record, swept in zip(records, report.records):
        for name in EstimatorRecord.FIELDS:
            if name not in ("fom_time", "rom_time"):
                mine, theirs = np.float64(getattr(record, name)), np.float64(getattr(swept, name))
                assert mine.tobytes() == theirs.tobytes(), (record.n, name)


def test_offline_logs_deim_lebesgue_constants(caplog):
    cfg = Config(n_train=12, n_test=2, n_list=(2, 4), seed=3).validate()
    with caplog.at_level(logging.INFO, logger="cutrom.pipeline"):
        art = run_offline(cfg)
    line = next(r.getMessage() for r in caplog.records if r.getMessage().startswith("deim:"))
    for op in (art.deim_a, art.deim_f):
        s = np.linalg.svd(op.pu, compute_uv=False)
        assert op.lebesgue == 1.0 / s[-1]
        assert op.cond == np.linalg.cond(op.pu)
        assert f"Lebesgue {op.lebesgue:.4g}" in line
        assert f"cond {op.cond:.3e}" in line


def _offline_bytes(cfg, directory, monkeypatch):
    """Training snapshots, the snapshot matrices of both interpolation
    operators (stiffness values over the union pattern, and loads), and the
    saved arrays of one offline build."""
    from cutrom.artifacts import save_artifacts

    deim_snapshots = []
    original = pipeline.build_deim_operator

    def spy(snaps, *args, **kwargs):
        deim_snapshots.append(np.array(snaps).tobytes())
        return original(snaps, *args, **kwargs)

    monkeypatch.setattr(pipeline, "build_deim_operator", spy)
    art = run_offline(cfg)
    save_artifacts(str(directory), art)
    saved = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return art.snapshots.tobytes(), deim_snapshots, saved


def test_training_chunk_size_changes_no_byte(tmp_path, monkeypatch):
    # 40 training solves: chunks of 32 + 8, six of 7 and a last of 5, or 40 of one
    cfg = Config(n_train=40, n_test=2, n_list=(2, 4), seed=0).validate()
    builds = {}
    for chunk in (1, 7, pipeline.TRAIN_CHUNK):
        with monkeypatch.context() as mp:
            mp.setattr(pipeline, "TRAIN_CHUNK", chunk)
            builds[chunk] = _offline_bytes(cfg, tmp_path / f"chunk{chunk}", mp)
    assert 40 % 7 and pipeline.TRAIN_CHUNK < 40
    assert len(builds[1][1]) == 2
    for chunk in (7, pipeline.TRAIN_CHUNK):
        assert builds[chunk] == builds[1]


def test_every_svd_works_in_place_on_an_owned_fortran_array(small_config, monkeypatch):
    # the POD, the matrix DEIM and the load DEIM, in that order, each hand
    # LAPACK one array that it overwrites: no layout copy on the way
    calls = []
    original = pod._GESDD

    def spy(a, **kwargs):
        before = a.copy()
        out = original(a, **kwargs)
        calls.append((a.shape, a.flags.f_contiguous, a.flags.owndata,
                      not np.array_equal(a, before)))
        return out

    monkeypatch.setattr(pod, "_GESDD", spy)
    art = run_offline(small_config)
    n, n_train = art.mesh.n_vertices, small_config.n_train
    assert calls == [((n, n_train), True, True, True),
                     ((art.pattern.size, n_train), True, True, True),
                     ((n, n_train), True, True, True)]
    # the kept bases are C-ordered: the saved headers and the rounding of
    # ``reconstruct`` depend on it
    assert art.deim_a.U.flags.c_contiguous and art.deim_f.U.flags.c_contiguous


def test_offline_log_names_every_stage(caplog):
    cfg = Config(n_train=12, n_test=2, n_list=(2, 4), seed=3).validate()
    with caplog.at_level(logging.INFO, logger="cutrom.pipeline"):
        art = run_offline(cfg)
    line = [r.getMessage() for r in caplog.records if r.name == "cutrom.pipeline"][-1]
    assert line.startswith("offline done in ")
    for stage in ("geometry", "assembly", "solves", "pod", "deim", "projection"):
        assert re.search(rf"\b{stage} \d+\.\d{{3}} s\b", line), stage
    # the store the build holds: one row per union position, one column per parameter
    rows, cols, mb = re.search(r"; matrix store (\d+) x (\d+) \((\d+\.\d) MB\)$", line).groups()
    assert (int(rows), int(cols)) == (art.pattern.size, cfg.n_train)
    assert mb == f"{art.pattern.size * cfg.n_train * 8 / 1e6:.1f}"


def test_offline_peak_memory_is_a_few_union_stores():
    # tracemalloc peak of the default build over the bytes of its matrix
    # store (1533 x 400 float64, 4.91 MB): 25.0 MB (5.1x) when a full
    # upper-position store and its union-row copy were alive together and
    # the DEIM held its input through the SVD, 20.1 MB (4.1x) with the
    # union store as the only copy, freed before the SVD
    cfg = Config().validate()
    tracemalloc.start()
    try:
        art = run_offline(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    store = art.pattern.size * cfg.n_train * 8
    assert peak < 4.6 * store, (peak / 1e6, store / 1e6)


def test_offline_names_the_training_mu_whose_assembly_fails(monkeypatch):
    cfg = Config(n_train=10, n_test=2, n_list=(2,), seed=0).validate()
    bad = tuple(sample_parameters(cfg.n_train, cfg.seed, cfg.mu_min, cfg.mu_max)[6])
    original = pipeline.build_cut_geometry

    def broken(mesh, mu):
        geom = original(mesh, mu)
        if (mu.r, mu.theta) == bad:
            geom.phi = geom.phi[:-1]
        return geom

    monkeypatch.setattr(pipeline, "build_cut_geometry", broken)
    with pytest.raises(PipelineError, match=re.escape(f"offline failure at training mu={bad}: ")
                       + "a geometry needs one level-set value per mesh vertex"):
        run_offline(cfg)


def test_sweep_timings_hold_exactly_their_stages(small_run, small_config, monkeypatch):
    """With a fake clock that only the per-parameter stages advance, each by
    its own power of two, every record's ``fom_time`` is assembly plus the
    full-order solve and its ``rom_time`` sampling plus the reduced solve:
    the geometry, the norm matrix and the interpolation coefficients are in
    neither window."""
    art, _ = small_run
    clock = types.SimpleNamespace(now=0.0)
    monkeypatch.setattr(pipeline, "time", types.SimpleNamespace(perf_counter=lambda: clock.now))
    steps = {"build_cut_geometry": 1, "assemble_system": 2, "solve_fom": 4, "sample_entries": 8,
             "solve": 16, "assemble_norm_matrix": 32, "deim_coefficients": 64}
    for name, step in steps.items():
        def advancing(*args, _stage=getattr(pipeline, name), _step=step, **kwargs):
            clock.now += _step
            return _stage(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, advancing)
    records = run_online_sweep(art, small_config).records
    assert [(r.fom_time, r.rom_time) for r in records] == [(2 + 4, 8 + 16)] * len(records)


def _reads_the_clock(tree) -> bool:
    """Whether a module imports ``time`` (either way) or names ``perf_counter``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "time" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            return True
        if isinstance(node, (ast.Attribute, ast.Name)) and "perf_counter" in (
                getattr(node, "attr", None), getattr(node, "id", None)):
            return True
    return False


def test_only_the_pipeline_and_the_cli_read_the_clock():
    # the sweep's timing windows and the fom command's are each defined in
    # one place; every other module is untimed
    package = os.path.dirname(cutrom.__file__)
    readers = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                if _reads_the_clock(ast.parse(fh.read())):
                    readers.add(name)
    assert readers == {"cli.py", "pipeline.py"}
