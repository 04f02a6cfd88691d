"""Offline/online orchestration, report emission, and the invariant suite.

The offline phase solves the training set, builds the mode basis and both
interpolation operators, and precomputes the reduced blocks and the entry
plan.  The online sweep samples the planned entries once per test parameter
(``rom.prepare``); the same interpolation coefficients give the DEIM
indicators and every reduced solve (``rom.solve``, once per mode count).
Each record gets the full estimator set, and the hard invariants (Rayleigh
sandwich, active-restriction ordering, combined bound) are enforced as it
goes.

Training solves and test parameters are processed one after another, in
input order.
"""

from __future__ import annotations

import csv
import logging
import os
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import estimators as est
from . import rates
from .artifacts import OfflineArtifacts, save_artifacts
from .assembly import (
    PhysicsParams,
    assemble_mass_matrix,
    assemble_norm_matrix,
    assemble_system,
    physics_from_config,
)
from .config import Config
from .deim import MATRIX, VECTOR, build_deim_operator, build_union_pattern, reconstruct
from .fom import residual, solve_fom
from .geometry import ParameterPoint, build_background_mesh, build_cut_geometry, require_inside_box
from .pod import build_pod_basis, tail_energy
from .rom import build_rom_offline, prepare, solve

log = logging.getLogger(__name__)

RUN4_COLUMNS = (
    "n", "e_rel", "eta_A", "eta_f", "eta_2a", "eta_2b", "eta_2a_active",
    "theta_2a", "theta_2b", "theta_2a_active", "e_T", "bound",
)

RATE_QUANTITIES = ("e_rel", "eta_2a", "eta_2b", "eta_pod", "eta_A", "eta_f")


class PipelineError(RuntimeError):
    pass


def sample_parameters(count: int, seed: int, mu_min: float, mu_max: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return mu_min + (mu_max - mu_min) * rng.random((count, 2))


def run_offline(config: Config) -> OfflineArtifacts:
    """Training solves, mode basis, interpolation operators, reduced blocks.

    The training snapshot matrix stays on the returned artifacts (not saved)."""
    t_start = time.perf_counter()
    mesh = build_background_mesh(config.box, config.h_target)
    phys = physics_from_config(config)
    train_mu = sample_parameters(config.n_train, config.seed, config.mu_min, config.mu_max)

    def one_snapshot(i):
        mu = ParameterPoint(*train_mu[i])
        try:
            geom = build_cut_geometry(mesh, mu)
            system = assemble_system(geom, phys)
            sol = solve_fom(system)
        except Exception as exc:
            raise PipelineError(f"offline failure at training mu={tuple(train_mu[i])}: {exc}") from exc
        # keep A and f only: holding every training geometry until the DEIM
        # build would dominate the peak memory of the offline stage
        return system.A, system.f, sol.u

    results = [one_snapshot(i) for i in range(config.n_train)]
    matrices = [r[0] for r in results]
    snapshots = np.column_stack([r[2] for r in results])
    t_fom = time.perf_counter() - t_start

    mass = assemble_mass_matrix(mesh)
    pod = build_pod_basis(snapshots, mass, config.eps_pod, min_modes=max(config.n_list))
    log.info("pod: built %d modes (energy rule keeps %d of %d), sigma_1=%.6e, tail(n_max)=%.3e",
             pod.n_max, pod.n_energy, pod.sigma.size, pod.sigma[0],
             tail_energy(pod.sigma, pod.n_max))
    head = pod.sigma[: min(12, pod.sigma.size)] / pod.sigma[0]
    log.debug("pod spectrum head (sigma_k/sigma_1): %s",
              " ".join(f"{v:.3e}" for v in head))

    pattern = build_union_pattern(matrices)
    n2 = mesh.n_vertices ** 2
    log.info("union pattern: %d positions (%.2f%% of N^2)", pattern.size, 100.0 * pattern.size / n2)
    a_snaps = np.column_stack([pattern.vectorize(a) for a in matrices])
    deim_a = build_deim_operator(a_snaps, config.eps_deim_a, config.effective_l_cap,
                                 kind=MATRIX, pattern=pattern)
    f_snaps = np.column_stack([r[1] for r in results])
    deim_f = build_deim_operator(f_snaps, config.eps_deim_f, config.effective_l_cap,
                                 kind=VECTOR)
    log.info("deim: l_A=%d (cond %.3e, Lebesgue %.4g), l_f=%d (cond %.3e, Lebesgue %.4g)",
             deim_a.l, deim_a.cond, deim_a.lebesgue, deim_f.l, deim_f.cond, deim_f.lebesgue)

    blocks_a, blocks_f = build_rom_offline(pod, deim_a, deim_f)
    art = OfflineArtifacts(
        config=config, mesh=mesh, phys=phys, pod=pod, deim_a=deim_a, deim_f=deim_f,
        blocks_a=blocks_a, blocks_f=blocks_f, train_mu=train_mu, snapshots=snapshots,
    )
    log.info("offline done in %.1f s (training solves %.1f s)",
             time.perf_counter() - t_start, t_fom)
    return art


@dataclass
class SweepReport:
    """All per-(parameter, mode) records plus derived tables."""

    records: list
    n_list: tuple
    test_mu: np.ndarray
    fit_n_min_error: int
    fit_n_min_tail: int
    mean_fom_time: float
    mean_rom_time: float

    @property
    def speedup(self) -> float:
        return self.mean_fom_time / self.mean_rom_time if self.mean_rom_time > 0 else float("inf")

    def records_for_n(self, n: int):
        return [r for r in self.records if r.n == n]

    def mean_rows(self):
        rows = []
        for n in self.n_list:
            recs = self.records_for_n(n)
            row = {"n": n}
            for name in RUN4_COLUMNS[1:]:
                row[name] = float(np.mean([getattr(r, name) for r in recs]))
            row["eta_pod"] = recs[0].eta_pod
            rows.append(row)
        return rows

    def fit_table(self):
        """One row per estimator quantity, mirroring the rate-fit report."""
        means = self.mean_rows()
        series = {name: [(r["n"], r[name]) for r in means] for name in RATE_QUANTITIES}
        windows = {
            "e_rel": self.fit_n_min_error,
            "eta_2a": self.fit_n_min_error,
            "eta_2b": self.fit_n_min_error,
            "eta_pod": self.fit_n_min_tail,
            "eta_A": 1,
            "eta_f": 1,
        }
        table = []
        for name in RATE_QUANTITIES:
            try:
                alg = rates.fit_algebraic(series[name], windows[name])
                exp = rates.fit_exponential(series[name], windows[name])
            except rates.FitError:
                # sweep grid too short for this fit window
                table.append({
                    "quantity": name, "alpha": float("nan"), "r2_alg": float("nan"),
                    "beta": float("nan"), "r2_exp": float("nan"), "best": "n/a",
                    "formula": "n/a (too few points in fit window)",
                })
                continue
            best = rates.select_model(alg, exp)
            if best == rates.NONE:
                value = series[name][0][1]
                table.append({
                    "quantity": name, "alpha": 0.0, "r2_alg": float("nan"),
                    "beta": 0.0, "r2_exp": float("nan"), "best": "const",
                    "formula": f"{value:.17g} (const)",
                })
                continue
            if best == rates.ALGEBRAIC:
                formula = f"{alg.prefactor:.17g} * n^-{alg.rate:.17g}"
            else:
                formula = f"{exp.prefactor:.17g} * exp(-{exp.rate:.17g} n)"
            table.append({
                "quantity": name,
                "alpha": alg.rate,
                "r2_alg": alg.r_squared if alg.r_squared is not None else float("nan"),
                "beta": exp.rate,
                "r2_exp": exp.r_squared if exp.r_squared is not None else float("nan"),
                "best": best,
                "formula": formula,
            })
        return table


def run_online_sweep(art: OfflineArtifacts, config: Config, test_params=None) -> SweepReport:
    """Solve FOM and ROM over the test set, evaluate every estimator record,
    and enforce the hard invariants record by record.

    Raises ``GeometryError`` before any solve when a test ellipse leaves the
    background box."""
    if test_params is None:
        test_mu = sample_parameters(config.n_test, config.seed + 1, config.mu_min, config.mu_max)
    else:
        test_mu = np.asarray(test_params, dtype=float).reshape(-1, 2)
    test_points = [ParameterPoint(*m) for m in test_mu]
    for mu in test_points:
        require_inside_box(mu, art.config.box)
    n_list = tuple(config.n_list)
    if n_list[-1] > art.pod.n_max:
        raise PipelineError(
            f"sweep needs {n_list[-1]} modes but only {art.pod.n_max} were retained"
        )
    a_star = est.alpha_star(config.nitsche_lambda, config.c_inv)
    vn_norm = {n: float(sla.svdvals(art.pod.V[:, :n])[0]) for n in n_list}
    tails = {n: tail_energy(art.pod.sigma, n) for n in n_list}

    def one_parameter(i):
        geom = build_cut_geometry(art.mesh, test_points[i])
        t0 = time.perf_counter()
        system = assemble_system(geom, art.phys)
        t_asm = time.perf_counter() - t0
        norm_mat = assemble_norm_matrix(geom, art.phys)
        fom_sol = solve_fom(system)
        fom_time = t_asm + fom_sol.solve_time

        prep = prepare(art, geom)
        a_deim = reconstruct(art.deim_a, prep.c_a)
        f_deim = reconstruct(art.deim_f, prep.c_f)
        a_err_abs, eta_a = est.deim_matrix_error(system.A, a_deim)
        f_err_abs, eta_f_val = est.deim_vector_error(system.f, f_deim)
        d_min, d_max = est.active_diagonal_range(system.A, system.active_dofs)
        diag = system.A.diagonal()

        recs = []
        for n in n_list:
            rom_sol = solve(art, prep, n)
            r = residual(system, rom_sol.u_lifted)
            eta_2a = est.residual_norm_plain(r)
            eta_2b = est.residual_norm_jacobi(r, diag, config.eps_safe)
            eta_2a_act = est.residual_norm_active(r, system.active_dofs)
            e_rel, e_t = est.true_errors(fom_sol.u, rom_sol.u_lifted, norm_mat)
            check = est.rayleigh_ratio_check(eta_2a, eta_2b, d_min, d_max)
            if not check.ok:
                raise PipelineError(
                    f"Rayleigh sandwich violated at mu={tuple(test_mu[i])}, n={n}: "
                    f"ratio={check.ratio:.17g} not in [{check.lower:.17g}, {check.upper:.17g}]"
                )
            if eta_2a_act > eta_2a * (1.0 + 1e-12):
                raise PipelineError(
                    f"active residual norm exceeds plain norm at mu={tuple(test_mu[i])}, n={n}"
                )
            bound = est.combined_error_bound(
                eta_2a_act, a_err_abs, f_err_abs,
                float(np.linalg.norm(rom_sol.u_lifted)), vn_norm[n], a_star,
            )
            if e_t > bound:
                raise PipelineError(
                    f"combined bound violated at mu={tuple(test_mu[i])}, n={n}: "
                    f"e_T={e_t:.17g} > bound={bound:.17g}"
                )
            recs.append(est.EstimatorRecord(
                mu_r=float(test_mu[i, 0]), mu_theta=float(test_mu[i, 1]), n=n,
                eta_A=eta_a, eta_f=eta_f_val, eta_2a=eta_2a, eta_2b=eta_2b,
                eta_2a_active=eta_2a_act, eta_pod=tails[n], e_rel=e_rel, e_T=e_t,
                theta_2a=est.effectivity(eta_2a, e_rel),
                theta_2b=est.effectivity(eta_2b, e_rel),
                theta_2a_active=est.effectivity(eta_2a_act, e_rel),
                bound=bound, d_min=d_min, d_max=d_max,
                fom_time=fom_time, rom_time=rom_sol.online_time,
            ))
        return recs

    per_mu = [one_parameter(i) for i in range(test_mu.shape[0])]
    records = [rec for group in per_mu for rec in group]
    fom_times = [g[0].fom_time for g in per_mu]
    rom_times = [rec.rom_time for rec in records]
    report = SweepReport(
        records=records,
        n_list=n_list,
        test_mu=test_mu,
        fit_n_min_error=config.fit_n_min_error,
        fit_n_min_tail=config.fit_n_min_tail,
        mean_fom_time=float(np.mean(fom_times)),
        mean_rom_time=float(np.mean(rom_times)),
    )
    log.info("sweep: %d records, mean FOM %.2f ms, mean ROM online %.2f ms (%.1fx)",
             len(records), 1e3 * report.mean_fom_time, 1e3 * report.mean_rom_time,
             report.speedup)
    return report


def _g17(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_g17(v) if not isinstance(v, str) else v for v in row])
    return path


def emit_report(report: SweepReport, dirpath: str) -> list:
    """Write the summary tables, the per-record table and the per-parameter
    timings as CSV files."""
    os.makedirs(dirpath, exist_ok=True)
    paths = []
    means = report.mean_rows()

    paths.append(_write_csv(
        os.path.join(dirpath, "run4.csv"),
        RUN4_COLUMNS,
        [[row[c] for c in RUN4_COLUMNS] for row in means],
    ))
    paths.append(_write_csv(
        os.path.join(dirpath, "tail.csv"),
        ("n", "eta_pod"),
        [[row["n"], row["eta_pod"]] for row in means],
    ))
    fit_rows = report.fit_table()
    paths.append(_write_csv(
        os.path.join(dirpath, "rates.csv"),
        ("quantity", "alpha", "r2_alg", "beta", "r2_exp", "best", "formula"),
        [[r["quantity"], r["alpha"], r["r2_alg"], r["beta"], r["r2_exp"], r["best"], r["formula"]]
         for r in fit_rows],
    ))
    paths.append(_write_csv(
        os.path.join(dirpath, "timings.csv"),
        ("mean_fom_ms", "mean_rom_online_ms", "speedup"),
        [[1e3 * report.mean_fom_time, 1e3 * report.mean_rom_time, report.speedup]],
    ))
    paths.append(_write_csv(
        os.path.join(dirpath, "records.csv"),
        est.EstimatorRecord.FIELDS,
        [[getattr(r, f) for f in est.EstimatorRecord.FIELDS] for r in report.records],
    ))

    n_per_mu = len(report.n_list)
    timing_rows = []
    for i in range(report.test_mu.shape[0]):
        chunk = report.records[i * n_per_mu:(i + 1) * n_per_mu]
        timing_rows.append([
            i, report.test_mu[i, 0], report.test_mu[i, 1],
            1e3 * chunk[0].fom_time,
            1e3 * float(np.mean([r.rom_time for r in chunk])),
        ])
    paths.append(_write_csv(
        os.path.join(dirpath, "fig_timing.csv"),
        ("test_index", "mu_r", "mu_theta", "fom_ms", "rom_online_ms"),
        timing_rows,
    ))
    with open(os.path.join(dirpath, "report_meta.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"n_list = {','.join(str(n) for n in report.n_list)}\n")
        fh.write(f"fit_n_min_error = {report.fit_n_min_error}\n")
        fh.write(f"fit_n_min_tail = {report.fit_n_min_tail}\n")
    paths.append(os.path.join(dirpath, "report_meta.txt"))
    return paths


def load_report(dirpath: str) -> SweepReport:
    """Rebuild a SweepReport from records.csv and report_meta.txt."""
    meta = {}
    meta_path = os.path.join(dirpath, "report_meta.txt")
    if os.path.exists(meta_path):
        with open(meta_path, "r", encoding="utf-8") as fh:
            for line in fh:
                key, _, val = line.partition("=")
                meta[key.strip()] = val.strip()
    rec_path = os.path.join(dirpath, "records.csv")
    if not os.path.exists(rec_path):
        raise PipelineError(f"no records.csv in {dirpath!r}")
    records = []
    with open(rec_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            kwargs = {f: (int(row[f]) if f == "n" else float(row[f]))
                      for f in est.EstimatorRecord.FIELDS}
            records.append(est.EstimatorRecord(**kwargs))
    if meta.get("n_list"):
        n_list = tuple(int(x) for x in meta["n_list"].split(","))
    else:
        n_list = tuple(sorted({r.n for r in records}))
    mus = []
    seen = set()
    for r in records:
        key = (r.mu_r, r.mu_theta)
        if key not in seen:
            seen.add(key)
            mus.append(key)
    test_mu = np.array(mus)
    per_mu_fom = [next(r for r in records if (r.mu_r, r.mu_theta) == m).fom_time for m in mus]
    return SweepReport(
        records=records,
        n_list=n_list,
        test_mu=test_mu,
        fit_n_min_error=int(meta.get("fit_n_min_error", Config.fit_n_min_error)),
        fit_n_min_tail=int(meta.get("fit_n_min_tail", Config.fit_n_min_tail)),
        mean_fom_time=float(np.mean(per_mu_fom)),
        mean_rom_time=float(np.mean([r.rom_time for r in records])),
    )


def run_sweep(config: Config, artifact_dir: str | None = None, report_dir: str | None = None):
    """Offline + online + report emission in one call."""
    art = run_offline(config)
    if artifact_dir:
        save_artifacts(artifact_dir, art)
    report = run_online_sweep(art, config)
    if report_dir:
        emit_report(report, report_dir)
    return art, report


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    """One invariant check.  ``noise_floor`` is set when the check holds only
    within a round-off floor above its tolerance; the check still passes, with
    status ``noise`` instead of ``pass``."""

    name: str
    ok: bool
    detail: str
    noise_floor: float | None = None

    @property
    def status(self) -> str:
        if not self.ok:
            return "fail"
        return "pass" if self.noise_floor is None else "noise"


def pod_tail_check(pod, snapshots: np.ndarray, mass) -> CheckResult:
    """Mode-energy identity: the M-norm training projection error with n modes
    equals the discarded spectrum sum_{k>n} sigma_k, to 1e-8 relative, for
    n = 2, 10 and 40 (clipped to the built modes).

    n = 40 probes the spectrum tail, which the eigensolver knows only to about
    (m - n) eps sigma_1 for m snapshots.  There a mismatch above 1e-8 but
    within that floor, relative to the tail, is reported as noise; above the
    floor it fails.  n = 2 and 10 take the plain 1e-8 test, also when n = 40
    clips onto them.
    """
    sigma = pod.sigma
    plain = {min(2, pod.n_max), min(10, pod.n_max)}
    ok = True
    floor_used = None
    details = []
    for n_eff in sorted(plain | {min(40, pod.n_max)}):
        v_n = pod.V[:, :n_eff]
        proj = v_n @ (v_n.T @ (mass @ snapshots))
        diff = snapshots - proj
        lhs = float((diff * (mass @ diff)).sum())
        rhs = float(sigma[n_eff:].sum())
        if rhs <= 0:
            continue
        mismatch = abs(lhs - rhs) / rhs
        detail = f"n={n_eff}: {mismatch:.2e}"
        if mismatch > 1e-8:
            floor = (sigma.size - n_eff) * np.finfo(float).eps * sigma[0] / rhs
            if n_eff not in plain and mismatch <= floor:
                floor_used = floor
                detail += f" within the eigensolver noise floor {floor:.2e}"
            else:
                ok = False
        details.append(detail)
    return CheckResult("pod_tail_identity", ok, "; ".join(details),
                       noise_floor=floor_used if ok else None)


def verify_invariants(config: Config, geometry_csv: str | None = None) -> list:
    """Run the full invariant suite for a configuration.

    Covers: linear patch test, exact zero ghost rows, SPD / discrete
    coercivity, the mode-energy identity, interpolation exactness at selected
    positions, and one check for the per-record sweep invariants (Rayleigh
    sandwich, active <= plain, combined bound), which the sweep enforces.
    When ``geometry_csv`` is given, a per-parameter geometry summary (class
    counts, area/perimeter estimates) is written there.
    """
    checks = []
    geometry_rows = []
    mesh = build_background_mesh(config.box, config.h_target)
    phys = physics_from_config(config)
    rng = np.random.default_rng(config.seed + 10_000)

    # 1. linear patch test: affine boundary data is reproduced exactly
    patch_phys = PhysicsParams(
        f_const=0.0, g_coeffs=(1.0, 2.0, 3.0, 0.0),
        nitsche_lambda=config.nitsche_lambda, gamma=config.gamma,
    )
    worst = 0.0
    for _ in range(5):
        mu = ParameterPoint(*(config.mu_min + (config.mu_max - config.mu_min) * rng.random(2)))
        geom = build_cut_geometry(mesh, mu)
        system = assemble_system(geom, patch_phys)
        sol = solve_fom(system)
        exact = 1.0 + 2.0 * mesh.vertices[:, 0] + 3.0 * mesh.vertices[:, 1]
        err = float(np.max(np.abs(sol.u[system.active_dofs] - exact[system.active_dofs])))
        worst = max(worst, err)
    checks.append(CheckResult("patch_test", worst <= 1e-10, f"max dof error {worst:.3e}"))

    # 2. exact zero rows/entries outside the active set
    worst = 0.0
    for _ in range(30):
        mu = ParameterPoint(*(config.mu_min + (config.mu_max - config.mu_min) * rng.random(2)))
        geom = build_cut_geometry(mesh, mu)
        system = assemble_system(geom, phys)
        inactive = np.setdiff1d(np.arange(mesh.n_vertices), system.active_dofs)
        row_mass = np.abs(system.A[inactive]).sum(axis=1).max() if inactive.size else 0.0
        worst = max(worst, float(row_mass), float(np.abs(system.f[inactive]).max(initial=0.0)))
        exact_area = np.pi * np.sqrt(mu.r * mu.theta)
        geometry_rows.append([
            mu.r, mu.theta,
            int((geom.elem_class == 0).sum()), int((geom.elem_class == 1).sum()),
            int((geom.elem_class == 2).sum()),
            geom.volume_weight_sum(), geom.boundary_weight_sum(), exact_area,
            abs(geom.volume_weight_sum() - exact_area) / exact_area,
        ])
    checks.append(CheckResult("zero_ghost_rows", worst == 0.0, f"max inactive magnitude {worst:.3e}"))
    if geometry_csv is not None:
        os.makedirs(os.path.dirname(geometry_csv) or ".", exist_ok=True)
        _write_csv(geometry_csv,
                   ("mu_r", "mu_theta", "n_inside", "n_cut", "n_outside",
                    "volume_sum", "boundary_sum", "exact_area", "area_rel_err"),
                   geometry_rows)

    # 3. SPD on the active block and discrete coercivity vs the mesh norm
    a_star = est.alpha_star(config.nitsche_lambda, config.c_inv)
    min_eig = np.inf
    min_coer = np.inf
    for _ in range(3):
        mu = ParameterPoint(*(config.mu_min + (config.mu_max - config.mu_min) * rng.random(2)))
        geom = build_cut_geometry(mesh, mu)
        system = assemble_system(geom, phys)
        norm_mat = assemble_norm_matrix(geom, phys)
        act = system.active_dofs
        a_act = system.A[act][:, act].toarray()
        n_act = norm_mat[act][:, act].toarray()
        min_eig = min(min_eig, float(sla.eigvalsh(a_act)[0]))
        min_coer = min(min_coer, float(sla.eigh(a_act, n_act, eigvals_only=True)[0]))
    ok = (min_eig > 0.0) and (min_coer >= 0.05)
    checks.append(CheckResult(
        "spd_coercivity", ok,
        f"min eig {min_eig:.3e}, discrete coercivity {min_coer:.4f} (alpha*={a_star:.2f})",
    ))

    # heavy checks need the offline build
    art = run_offline(config)

    # 4. energy identity: training projection error equals the spectrum tail
    checks.append(pod_tail_check(art.pod, art.snapshots, assemble_mass_matrix(mesh)))

    # 5. interpolation exactness at selected positions, for fresh parameters
    test_mu = sample_parameters(config.n_test, config.seed + 1, config.mu_min, config.mu_max)
    worst = 0.0
    for i in range(test_mu.shape[0]):
        mu = ParameterPoint(*test_mu[i])
        geom = build_cut_geometry(mesh, mu)
        system = assemble_system(geom, art.phys)
        a_deim = reconstruct(art.deim_a, prepare(art, geom).c_a)
        diff = (a_deim - system.A).tocsr()
        rows_sel, cols_sel = art.matrix_sample_entries.T
        vals = np.abs(np.asarray(diff[rows_sel, cols_sel])).max()
        worst = max(worst, float(vals))
    checks.append(CheckResult(
        "deim_interpolation_exactness", worst <= 1e-10, f"max |A_deim - A| at selected {worst:.3e}",
    ))

    # 6. per-record sweep invariants: run_online_sweep raises on the first violation
    try:
        report = run_online_sweep(art, config)
        checks.append(CheckResult("sweep_invariants", True, f"{len(report.records)} records"))
    except PipelineError as exc:
        checks.append(CheckResult("sweep_invariants", False, str(exc)))
    return checks
