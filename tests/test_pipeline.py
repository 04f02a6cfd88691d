import csv
import dataclasses
import logging
import os

import numpy as np
import pytest

from cutrom import cli
from cutrom.assembly import assemble_mass_matrix
from cutrom.config import Config
from cutrom.geometry import GeometryError
from cutrom.pipeline import (
    RUN4_COLUMNS,
    emit_report,
    load_report,
    pod_tail_check,
    run_offline,
    run_online_sweep,
    sample_parameters,
    verify_invariants,
)


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
    for name in ("run4.csv", "tail.csv", "rates.csv", "records.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_training_subset_reproduction(small_run, small_config):
    art, _ = small_run
    cfg = dataclasses.replace(small_config, n_list=(art.pod.n_max,)).validate()
    report = run_online_sweep(art, cfg, test_params=art.train_mu[:4])
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
    from cutrom.pipeline import PipelineError
    cfg = dataclasses.replace(small_config, n_list=(art.pod.n_max + 3,)).validate()
    with pytest.raises(PipelineError):
        run_online_sweep(art, cfg)


def test_verify_suite_on_small_config(tmp_path):
    cfg = Config(n_train=25, n_test=4, n_list=(2, 4), seed=0).validate()
    summary = tmp_path / "geometry_summary.csv"
    checks = verify_invariants(cfg, geometry_csv=str(summary))
    names = {c.name for c in checks}
    assert {"patch_test", "zero_ghost_rows", "spd_coercivity", "pod_tail_identity",
            "deim_interpolation_exactness", "sweep_invariants"} <= names
    failed = [c for c in checks if not c.ok]
    assert not failed, failed
    with open(summary) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:5] == ["mu_r", "mu_theta", "n_inside", "n_cut", "n_outside"]
    assert len(rows) == 31
    assert all(float(r[-1]) <= 0.02 for r in rows[1:])


def test_pod_tail_check_fails_on_corrupted_spectrum(small_run, small_config):
    art, _ = small_run
    snaps = art.snapshots
    mass = assemble_mass_matrix(art.mesh)
    intact = pod_tail_check(art.pod, snaps, mass)
    assert intact.status in ("pass", "noise"), intact
    sigma = art.pod.sigma.copy()
    sigma[art.pod.n_max:] *= 1.0 + 1e-6
    bad = pod_tail_check(dataclasses.replace(art.pod, sigma=sigma), snaps, mass)
    assert bad.status == "fail", bad
    assert bad.noise_floor is None


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


def test_cli_seed_mismatch_refused(tmp_path, config_file):
    art_dir = str(tmp_path / "arts")
    assert cli.main(["offline", "--config", config_file, "--out", art_dir]) == 0
    ret = cli.main(["online", "--artifacts", art_dir, "--config", config_file,
                    "--report", str(tmp_path / "r"), "--seed", "9"])
    assert ret == 2


def test_cli_fom_patch_output(tmp_path, capsys):
    cfg = tmp_path / "patch.cfg"
    cfg.write_text("[physics]\nf_const = 0\ng0 = 1\ngx = 2\ngy = 3\ngxy = 0\n")
    assert cli.main(["fom", "--r", "1.1", "--theta", "1.05", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "error vs interpolated boundary datum" in out
    assert "n/a" not in out


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
