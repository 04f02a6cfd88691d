"""Command-line front door: offline, online, sweep, verify, fom, report."""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
import time

import numpy as np

from .artifacts import load_artifacts, save_artifacts
from .assembly import assemble_system, physics_from_config
from .config import Config, load_config
from .fom import residual, solve_fom
from .geometry import (
    ParameterPoint,
    build_background_mesh,
    build_cut_geometry,
    require_inside_box,
)
from .pipeline import (
    emit_report,
    load_report,
    patch_error,
    run_offline,
    run_online_sweep,
    verify_invariants,
)

log = logging.getLogger("cutrom")


def _load(args) -> Config:
    config = load_config(args.config) if args.config else Config().validate()
    if getattr(args, "seed", None) is not None:
        config = config.with_seed(args.seed)
    return config


def _cmd_offline(args) -> int:
    config = _load(args)
    art = run_offline(config)
    out = args.out or config.artifact_dir
    save_artifacts(out, art)
    log.info("artifacts written to %s", out)
    return 0


def _cmd_online(args) -> int:
    config = _load(args)
    art = load_artifacts(args.artifacts, config)
    report = run_online_sweep(art, config)
    out = args.report or config.report_dir
    emit_report(report, out)
    log.info("report written to %s", out)
    return 0


def _cmd_sweep(args) -> int:
    config = _load(args)
    art_dir = args.out or config.artifact_dir
    rep_dir = args.report or config.report_dir
    art = run_offline(config)
    save_artifacts(art_dir, art)
    emit_report(run_online_sweep(art, config), rep_dir)
    log.info("artifacts in %s, report in %s", art_dir, rep_dir)
    return 0


def _cmd_verify(args) -> int:
    config = _load(args)
    geom_csv = os.path.join(config.report_dir, "geometry_summary.csv")
    checks = verify_invariants(config, geometry_csv=geom_csv)
    print(f"geometry summary written to {geom_csv}")
    for c in checks:
        print(f"[{c.status.upper()}] {c.name}: {c.detail}")
    failed = sum(1 for c in checks if not c.ok)
    print(f"{len(checks) - failed}/{len(checks)} invariant checks passed")
    return 0 if failed == 0 else 1


def _cmd_fom(args) -> int:
    config = _load(args)
    mu = ParameterPoint(args.r, args.theta)
    require_inside_box(mu, config.box)
    mesh = build_background_mesh(config.box, config.h_target)
    phys = physics_from_config(config)
    t0 = time.perf_counter()
    geom = build_cut_geometry(mesh, mu)
    t1 = time.perf_counter()
    system = assemble_system(geom, phys)
    t2 = time.perf_counter()
    sol = solve_fom(system)
    t3 = time.perf_counter()
    res = residual(system, sol.u)
    print(f"dofs               : {mesh.n_vertices} total, {system.active_dofs.size} active "
          f"(bandwidth {sol.bandwidth})")
    print(f"geometry / assembly: {1e3 * (t1 - t0):.2f} ms / {1e3 * (t2 - t1):.2f} ms")
    print(f"solve              : {1e3 * (t3 - t2):.2f} ms")
    print(f"residual norm      : {np.linalg.norm(res[system.active_dofs]):.3e}")
    if config.f_const == 0.0 and config.gxy == 0.0:
        print("error vs interpolated boundary datum: "
              f"max dof error {patch_error(system, sol.u, phys):.3e} (max norm)")
    else:
        print("error vs interpolated boundary datum: n/a (needs f = 0 and affine datum)")
    return 0


def _cmd_report(args) -> int:
    report = load_report(args.src)
    out = args.out or args.src
    emit_report(report, out)
    log.info("report re-emitted to %s", out)
    return 0


def main(argv=None) -> int:
    # one -v for the program and every subcommand, before or after its name;
    # a suppressed default, so a subcommand cannot reset a -v given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true", default=argparse.SUPPRESS,
                        help="debug logging")
    parser = argparse.ArgumentParser(
        prog="cutrom",
        description="Reduced order models with certified estimators on cut meshes",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, parents=[common])

    p = add_parser("offline", help="training solves and reduced operators")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None, help="artifact directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_offline)

    p = add_parser("online", help="test sweep from saved artifacts")
    p.add_argument("--artifacts", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--report", default=None, help="report directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_online)

    p = add_parser("sweep", help="offline + online + report")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None, help="artifact directory")
    p.add_argument("--report", default=None, help="report directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = add_parser("verify", help="run the invariant suite")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = add_parser("fom", help="single full-order solve")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_fom)

    p = add_parser("report", help="re-emit tables from saved records")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except Exception as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
