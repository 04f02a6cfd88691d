"""Offline/online orchestration, report emission, and the invariant suite.

The offline phase solves the training set, builds the mode basis and both
interpolation operators, and precomputes the reduced blocks and the entry
plan.  The online sweep takes one step per test parameter,
``parameter_records``.  It first does the work every mode count of the
parameter shares: the geometry, the assembled system and its full-order
solve, the sampled entries (``rom.sample_entries``, once per parameter), the
norm matrix, and both interpolants with the errors of the DEIM indicators;
it enforces the interpolation exactness of the matrix interpolant at its own
indices.  Then each mode count gets its ``EstimatorRecord``: the reduced
solve (``rom.solve``), the full estimator set, and the per-record invariants
(Rayleigh sandwich, active-restriction ordering, combined bound).  Each hard
invariant raises ``PipelineError`` on violation.  ``run_online_sweep`` only
validates its input and loops over the step, and the invariant suite
(``verify_invariants``) reads its completed sweep as one check.

The step holds every clock read of a record's timings; the modules it calls
are untimed.  A record's ``fom_time`` is assembly plus the full-order solve,
and its ``rom_time`` is sampling plus the reduced solve and lift.  The
geometry, the norm matrix and the interpolation coefficients are in neither.

Training parameters are assembled in chunks of ``TRAIN_CHUNK``; training
solves and test parameters are processed one after another, in input order.
"""

from __future__ import annotations

import csv
import logging
import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy.linalg as sla

from . import estimators as est
from . import rates
from .artifacts import OfflineArtifacts, read_key_values
from .assembly import (
    PhysicsParams,
    SystemPair,
    assemble_batch,
    assemble_mass_matrix,
    assemble_norm_matrix,
    assemble_system,
    physics_from_config,
)
from .config import SWEEP_ONLY_FIELDS, Config
from .deim import (MATRIX, VECTOR, build_deim_operator, build_union_pattern,
                   deim_coefficients, reconstruct)
from .fom import residual, solve_active, solve_fom
from .geometry import (INSIDE, ParameterPoint, build_background_mesh, build_cut_geometry,
                       require_inside_box)
from .pod import build_pod_basis, projection_tail_gap, tail_energy
from .rom import build_rom_offline, sample_entries, solve

log = logging.getLogger(__name__)

RUN4_COLUMNS = (
    "n", "e_rel", "eta_A", "eta_f", "eta_2a", "eta_2b", "eta_2a_active",
    "theta_2a", "theta_2b", "theta_2a_active", "e_T", "bound",
)

RATE_QUANTITIES = ("e_rel", "eta_2a", "eta_2b", "eta_pod", "eta_A", "eta_f")
RATE_COLUMNS = ("quantity", "alpha", "r2_alg", "beta", "r2_exp", "best", "formula")


# training parameters assembled together: one cut stage and one bincount each for A and f;
# the batch's dense (TRAIN_CHUNK x pattern) arrays are part of the offline peak memory
TRAIN_CHUNK = 16


class PipelineError(RuntimeError):
    pass


def sample_parameters(count: int, seed: int, mu_min: float, mu_max: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return mu_min + (mu_max - mu_min) * rng.random((count, 2))


def _on_mesh_pattern(mesh, positions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` at the mesh-pattern ``positions`` as a vector over the
    whole assembly pattern, zero elsewhere."""
    out = np.zeros(mesh.pattern_cols.size)
    out[positions] = values
    return out


def _union_store(blocks: list, rows: np.ndarray, n_train: int) -> np.ndarray:
    """The matrix DEIM's snapshots: the chunks' ``blocks`` (training
    parameters, upper columns, their values) scattered into one zero-filled,
    Fortran-ordered store with a row per union position (``rows``, sorted)
    and a column per training parameter.  The list is emptied as it is
    read, so no block outlives the scatter."""
    store = np.zeros((rows.size, n_train), order="F")
    while blocks:
        chunk, cols, block = blocks.pop()
        store[np.searchsorted(rows, cols), chunk] = block.T
    return store


def run_offline(config: Config) -> OfflineArtifacts:
    """Training solves, mode basis, interpolation operators, reduced blocks.

    The training parameters are assembled ``TRAIN_CHUNK`` at a time
    (``assemble_batch``), and each is solved from the batch's values
    (``solve_active``), with no CSR matrix made.  The stiffness matrices are
    symmetric, so each is kept on the upper positions of the mesh pattern
    only (``BackgroundMesh.pattern_upper``).  Each chunk keeps the columns
    of those positions that some member stores, as one parameter-major
    block, and marks them: the marked positions are the union pattern.
    After the last chunk the blocks are scattered into the matrix DEIM's
    snapshots (``_union_store``), the one copy of them that is alive from
    then on; it is handed to ``build_deim_operator`` as a temporary, which
    frees it before its SVD.  The load store is parameter-major too, and its
    transpose is the Fortran-ordered snapshot matrix of the load DEIM.  Each
    chunk's arrays are dropped before the next is assembled.  The training
    snapshot matrix stays on the returned artifacts (not saved).  The last
    log line gives the seconds of each stage and the size of the matrix
    store (union rows x training parameters)."""
    t_start = time.perf_counter()
    mesh = build_background_mesh(config.box, config.h_target)
    phys = physics_from_config(config)
    train_mu = sample_parameters(config.n_train, config.seed, config.mu_min, config.mu_max)
    n_train = config.n_train
    snapshots = np.empty((mesh.n_vertices, n_train))
    loads = np.empty((n_train, mesh.n_vertices))
    upper = mesh.pattern_upper
    blocks = []  # per chunk: its parameters, the upper columns its members store, their values
    stored = np.zeros(upper.size, dtype=bool)  # the union of the structural patterns there
    stages = dict.fromkeys(("geometry", "assembly", "solves", "pod", "deim", "projection"), 0.0)
    last = t_start

    def lap(stage):
        """Book the time since the last lap to ``stage`` (the mesh build to
        the geometry)."""
        nonlocal last
        now = time.perf_counter()
        stages[stage] += now - last
        last = now

    def at(i, step):
        """``step()``, its failure raised as a ``PipelineError`` naming
        training parameter i."""
        try:
            return step()
        except Exception as exc:
            raise PipelineError(f"offline failure at training mu={tuple(train_mu[i])}: {exc}") from exc

    for start in range(0, n_train, TRAIN_CHUNK):
        stop = min(start + TRAIN_CHUNK, n_train)
        chunk = range(start, stop)
        geoms = [at(i, lambda: build_cut_geometry(mesh, ParameterPoint(*train_mu[i])))
                 for i in chunk]
        lap("geometry")
        try:
            values, used, f = assemble_batch(geoms, phys)
        except Exception:
            # name the parameter: assemble the chunk's geometries one at a time
            for i, geom in zip(chunk, geoms):
                at(i, lambda: assemble_batch([geom], phys))
            raise
        lap("assembly")
        for k, i in enumerate(chunk):
            pos = np.flatnonzero(used[k])
            snapshots[:, i] = at(i, lambda: solve_active(
                mesh, geoms[k].active_dofs, pos, values[k, pos], f[k], geoms[k].mu)).u
        cols = np.flatnonzero(used.any(axis=0)[upper])
        blocks.append((slice(start, stop), cols, values.take(upper[cols], axis=1)))
        stored[cols] = True
        loads[start:stop] = f
        del geoms, values, used, f
        lap("solves")

    mass = assemble_mass_matrix(mesh)
    pod = build_pod_basis(snapshots, mass, config.eps_pod, min_modes=max(config.n_list))
    lap("pod")
    log.info("pod: built %d modes (energy rule keeps %d of %d), sigma_1=%.6e, tail(n_max)=%.3e",
             pod.n_max, pod.n_energy, pod.sigma.size, pod.sigma[0],
             tail_energy(pod.sigma, pod.n_max))
    head = pod.sigma[: min(12, pod.sigma.size)] / pod.sigma[0]
    log.debug("pod spectrum head (sigma_k/sigma_1): %s",
              " ".join(f"{v:.3e}" for v in head))

    rows = np.flatnonzero(stored)
    pattern = build_union_pattern(mesh, [upper[rows]])
    log.info("union pattern: %d upper positions, %d with their mirrors (%.2f%% of N^2)",
             pattern.size, pattern.whole.size, 100.0 * pattern.whole.size / mesh.n_vertices ** 2)
    deim_a = build_deim_operator(_union_store(blocks, rows, n_train), config.eps_deim_a,
                                 kind=MATRIX, pattern=pattern)
    deim_f = build_deim_operator(loads.T, config.eps_deim_f, kind=VECTOR)
    lap("deim")
    log.info("deim: l_A=%d (cond %.3e, Lebesgue %.4g), l_f=%d (cond %.3e, Lebesgue %.4g)",
             deim_a.l, deim_a.cond, deim_a.lebesgue, deim_f.l, deim_f.cond, deim_f.lebesgue)

    blocks_a, blocks_f = build_rom_offline(mesh, pod, deim_a, deim_f)
    lap("projection")
    art = OfflineArtifacts(
        config=config, mesh=mesh, pod=pod, deim_a=deim_a, deim_f=deim_f,
        blocks_a=blocks_a, blocks_f=blocks_f, snapshots=snapshots,
    )
    log.info("offline done in %.3f s: %s; matrix store %d x %d (%.1f MB)",
             time.perf_counter() - t_start,
             ", ".join(f"{name} {sec:.3f} s" for name, sec in stages.items()),
             pattern.size, n_train, pattern.size * n_train * 8 / 1e6)
    return art


@dataclass
class SweepReport:
    """All per-(parameter, mode) records plus the tables derived from them.

    ``records`` holds one run of ``len(n_list)`` records per test parameter,
    in sweep order, so each record field is a (test parameter, mode count)
    grid (``column``).  Construction raises ``PipelineError`` when there are
    no records or they are not runs of ``n_list``; the message says what
    the records lack, with no subject, so ``load_report`` can put the file
    in front.  Every mean is a 1-D mean over a column, a row or the whole
    grid, in record order."""

    records: list
    n_list: tuple
    fit_n_min_error: int
    fit_n_min_tail: int

    def __post_init__(self):
        if not self.records:
            raise PipelineError("holds no records: the test set is empty")
        ns = [r.n for r in self.records]
        if ns != list(self.n_list) * (len(ns) // len(self.n_list)):
            raise PipelineError(f"does not repeat the n_list {self.n_list}")

    def column(self, name: str) -> np.ndarray:
        """The record field ``name`` as a (test parameter, mode count) array."""
        return np.array([getattr(r, name) for r in self.records]).reshape(-1, len(self.n_list))

    @property
    def test_mu(self) -> np.ndarray:
        return np.column_stack([self.column("mu_r")[:, 0], self.column("mu_theta")[:, 0]])

    @property
    def mean_fom_time(self) -> float:
        """Mean over test parameters: the records of one parameter share its
        full-order time."""
        return float(np.mean(self.column("fom_time")[:, 0]))

    @property
    def mean_rom_time(self) -> float:
        return float(np.mean(self.column("rom_time")))

    @property
    def speedup(self) -> float:
        return self.mean_fom_time / self.mean_rom_time if self.mean_rom_time > 0 else float("inf")

    def mean_rows(self):
        """One row per mode count: the ``RUN4_COLUMNS`` means over the test
        parameters, and the mode count's ``eta_pod``."""
        grids = {name: self.column(name) for name in (*RUN4_COLUMNS[1:], "eta_pod")}
        return [{"n": n, **{name: float(np.mean(grids[name][:, j])) for name in RUN4_COLUMNS[1:]},
                 "eta_pod": float(grids["eta_pod"][0, j])} for j, n in enumerate(self.n_list)]

    def fit_table(self, means):
        """One row per estimator quantity, mirroring the rate-fit report: a
        dict over ``RATE_COLUMNS``, fitted to ``means``, the report's
        ``mean_rows()``."""
        windows = dict.fromkeys(RATE_QUANTITIES, self.fit_n_min_error)
        windows.update(eta_pod=self.fit_n_min_tail, eta_A=1, eta_f=1)
        nan = float("nan")
        table = []
        for name in RATE_QUANTITIES:
            series = [(r["n"], r[name]) for r in means]
            try:
                alg = rates.fit_algebraic(series, windows[name])
                exp = rates.fit_exponential(series, windows[name])
            except rates.FitError:
                # sweep grid too short for this fit window
                values = (nan, nan, nan, nan, "n/a", "n/a (too few points in fit window)")
            else:
                best = rates.select_model(alg, exp)
                fits = (alg.rate, nan if alg.r_squared is None else alg.r_squared,
                        exp.rate, nan if exp.r_squared is None else exp.r_squared)
                if best == rates.NONE:
                    values = (0.0, nan, 0.0, nan, "const", f"{series[0][1]:.17g} (const)")
                elif best == rates.ALGEBRAIC:
                    values = (*fits, best, f"{alg.prefactor:.17g} * n^-{alg.rate:.17g}")
                else:
                    values = (*fits, best, f"{exp.prefactor:.17g} * exp(-{exp.rate:.17g} n)")
            table.append(dict(zip(RATE_COLUMNS, (name, *values))))
        return table


def parameter_records(art: OfflineArtifacts, mu: ParameterPoint, n_list, vn_norm: dict,
                      tails: dict) -> list:
    """The records of one test parameter ``mu``, one per mode count of
    ``n_list``, in its order.  The work every mode count shares is done once:
    geometry, system and full-order solve (timed together, the records'
    ``fom_time``), sampled entries (``rom.sample_entries``, timed alone),
    norm matrix, and both interpolants with their errors, A's before f's.
    The matrix interpolant is mirrored to the whole union
    (``UnionPattern.whole``), so it is compared with A whole.  Each mode
    count n then takes the reduced solve, the residual estimators, the true
    errors and the combined bound; its ``rom_time`` is the sampling time plus
    the timed reduced solve and lift, the cost of one standalone query at n.
    ``vn_norm[n]``, the spectral norm of the first n modes, and ``tails[n]``,
    their discarded-energy fraction (``pod.tail_energy``), are the same for
    every parameter, so the sweep computes them once.

    Raises ``PipelineError`` naming ``mu`` when the matrix interpolant misses
    the assembled A by more than 1e-10 at the selected entries, its own
    interpolation indices, where the two agree to rounding (Chaturantabut &
    Sorensen 2010), and naming ``mu`` and n when the Rayleigh sandwich, the
    active <= plain ordering or the combined bound fails."""
    geom = build_cut_geometry(art.mesh, mu)
    t0 = time.perf_counter()
    system = assemble_system(geom, art.phys)
    fom = solve_fom(system)
    t1 = time.perf_counter()
    a_samp, f_samp = sample_entries(art, geom)
    t2 = time.perf_counter()
    norm_mat = assemble_norm_matrix(system)
    a_deim = reconstruct(art.deim_a, deim_coefficients(art.deim_a, a_samp))
    f_deim = reconstruct(art.deim_f, deim_coefficients(art.deim_f, f_samp))
    pattern, selected = art.pattern, art.deim_a.indices
    a_exact = _on_mesh_pattern(art.mesh, system.pattern_pos, system.A.data)
    gap = float(np.abs(a_deim.take(selected)
                       - a_exact.take(pattern.positions.take(selected))).max())
    if not gap <= 1e-10:
        raise PipelineError(f"matrix interpolant inexact at mu=({mu.r:.17g}, {mu.theta:.17g}): "
                            f"max |A_deim - A| at the selected entries {gap:.3e} > 1e-10")
    a_whole = _on_mesh_pattern(art.mesh, pattern.whole, a_deim.take(pattern.twin))
    a_err = est.deim_error(a_exact, a_whole)
    f_err = est.deim_error(system.f, f_deim)
    diag = system.A.diagonal()
    d_min, d_max = est.active_diagonal_range(diag, system.active_dofs)
    a_star = est.alpha_star(art.config.nitsche_lambda, art.config.c_inv)
    records = []
    for n in n_list:
        at = f"mu=({mu.r:.17g}, {mu.theta:.17g}), n={n}"
        t3 = time.perf_counter()
        rom_sol = solve(art, mu, a_samp, f_samp, n)
        rom_time = (t2 - t1) + (time.perf_counter() - t3)
        r = residual(system, rom_sol.u_lifted)
        eta_2a = est.residual_norm_plain(r)
        eta_2b = est.residual_norm_jacobi(r, diag, art.config.eps_safe)
        eta_2a_act = est.residual_norm_active(r, system.active_dofs)
        e_rel, e_t = est.true_errors(fom.u, rom_sol.u_lifted, norm_mat)
        check = est.rayleigh_ratio_check(eta_2a, eta_2b, d_min, d_max)
        if not check.ok:
            raise PipelineError(
                f"Rayleigh sandwich violated at {at}: "
                f"ratio={check.ratio:.17g} not in [{check.lower:.17g}, {check.upper:.17g}]"
            )
        if eta_2a_act > eta_2a * (1.0 + 1e-12):
            raise PipelineError(f"active residual norm exceeds plain norm at {at}")
        bound = est.combined_error_bound(
            eta_2a_act, a_err[0], f_err[0], float(np.linalg.norm(rom_sol.u_lifted)),
            vn_norm[n], a_star,
        )
        if e_t > bound:
            raise PipelineError(
                f"combined bound violated at {at}: e_T={e_t:.17g} > bound={bound:.17g}"
            )
        records.append(est.EstimatorRecord(
            mu_r=float(mu.r), mu_theta=float(mu.theta), n=n,
            eta_A=a_err[1], eta_f=f_err[1], eta_2a=eta_2a, eta_2b=eta_2b,
            eta_2a_active=eta_2a_act, eta_pod=tails[n], e_rel=e_rel, e_T=e_t,
            theta_2a=est.effectivity(eta_2a, e_rel),
            theta_2b=est.effectivity(eta_2b, e_rel),
            theta_2a_active=est.effectivity(eta_2a_act, e_rel),
            bound=bound, d_min=d_min, d_max=d_max,
            fom_time=t1 - t0, rom_time=rom_time,
        ))
    return records


def run_online_sweep(art: OfflineArtifacts, config: Config, test_params=None) -> SweepReport:
    """Solve FOM and ROM over the test set, evaluate every estimator record,
    and enforce the hard invariants parameter by parameter and record by
    record: ``parameter_records`` once per test parameter.

    ``config`` may differ from ``art.config`` only in the sweep and path
    fields (``SWEEP_ONLY_FIELDS``, the fields ``Config.hash`` leaves out, so
    ``load_artifacts`` accepts the same configs); any other difference
    raises ``PipelineError`` naming the field.  So do an empty test set and
    ``test_params`` that are not (count, 2) pairs, by shape.
    Raises ``GeometryError`` before any solve when a test ellipse leaves the
    background box."""
    for f in fields(Config):
        if f.name not in SWEEP_ONLY_FIELDS and getattr(config, f.name) != getattr(art.config, f.name):
            raise PipelineError(
                f"sweep config {f.name} = {getattr(config, f.name)!r} differs from the "
                f"artifacts' {getattr(art.config, f.name)!r}"
            )
    if test_params is None:
        test_mu = sample_parameters(config.n_test, config.seed + 1, config.mu_min, config.mu_max)
    else:
        test_mu = np.asarray(test_params, dtype=float)
    if test_mu.size == 0:
        raise PipelineError("empty test set: the sweep needs at least one test parameter")
    if test_mu.ndim != 2 or test_mu.shape[1] != 2:
        raise PipelineError(f"test parameters of shape {test_mu.shape} are not (count, 2) pairs")
    test_points = [ParameterPoint(*m) for m in test_mu]
    for mu in test_points:
        require_inside_box(mu, art.config.box)
    n_list = tuple(config.n_list)
    if n_list[-1] > art.pod.n_max:
        raise PipelineError(
            f"sweep needs {n_list[-1]} modes but only {art.pod.n_max} were retained"
        )
    vn_norm = {n: float(sla.svdvals(art.pod.V[:, :n])[0]) for n in n_list}
    tails = {n: tail_energy(art.pod.sigma, n) for n in n_list}
    records = []
    for mu in test_points:
        records.extend(parameter_records(art, mu, n_list, vn_norm, tails))
    report = SweepReport(
        records=records,
        n_list=n_list,
        fit_n_min_error=config.fit_n_min_error,
        fit_n_min_tail=config.fit_n_min_tail,
    )
    log.info("sweep: %d records, mean FOM %.2f ms, mean ROM online %.2f ms (%.1fx)",
             len(report.records), 1e3 * report.mean_fom_time, 1e3 * report.mean_rom_time,
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
    paths.append(_write_csv(
        os.path.join(dirpath, "rates.csv"),
        RATE_COLUMNS,
        [[r[c] for c in RATE_COLUMNS] for r in report.fit_table(means)],
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

    fom_time, rom_time = report.column("fom_time")[:, 0], report.column("rom_time")
    paths.append(_write_csv(
        os.path.join(dirpath, "fig_timing.csv"),
        ("test_index", "mu_r", "mu_theta", "fom_ms", "rom_online_ms"),
        [[i, *mu, 1e3 * fom, 1e3 * float(np.mean(rom))]
         for i, (mu, fom, rom) in enumerate(zip(report.test_mu, fom_time, rom_time))],
    ))
    with open(os.path.join(dirpath, "report_meta.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"n_list = {','.join(str(n) for n in report.n_list)}\n")
        fh.write(f"fit_n_min_error = {report.fit_n_min_error}\n")
        fh.write(f"fit_n_min_tail = {report.fit_n_min_tail}\n")
    paths.append(os.path.join(dirpath, "report_meta.txt"))
    return paths


def _number(kind, text: str, where: str):
    """``kind(text)`` for a number type ``kind``; a ``text`` that does not
    parse as one raises ``PipelineError`` naming ``where``."""
    try:
        return kind(text)
    except ValueError:
        raise PipelineError(f"{where} does not parse as {kind.__name__}: {text!r}") from None


def load_report(dirpath: str) -> SweepReport:
    """Rebuild a SweepReport from records.csv and report_meta.txt.  Raises
    ``PipelineError`` naming a missing file or meta key, a meta value that
    is not an integer (by key), a records.csv column that is missing, a
    records.csv line that does not hold one value per column, a records.csv
    value that is not a number (by line and column), and, with the
    records.csv path in front, the ``SweepReport`` layout errors: no
    records, or records that are not runs of the meta file's ``n_list``."""
    meta_path = os.path.join(dirpath, "report_meta.txt")
    rec_path = os.path.join(dirpath, "records.csv")
    for path in (meta_path, rec_path):
        if not os.path.exists(path):
            raise PipelineError(f"no {os.path.basename(path)} in {dirpath!r}")
    meta = read_key_values(meta_path)
    for key in ("n_list", "fit_n_min_error", "fit_n_min_tail"):
        if not meta.get(key):
            raise PipelineError(f"{meta_path!r} has no {key}")
    n_list = tuple(_number(int, x, f"{meta_path!r} n_list") for x in meta["n_list"].split(","))
    fit_error, fit_tail = (_number(int, meta[key], f"{meta_path!r} {key}")
                           for key in ("fit_n_min_error", "fit_n_min_tail"))
    records = []
    with open(rec_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [f for f in est.EstimatorRecord.FIELDS if f not in (reader.fieldnames or ())]
        if missing:
            raise PipelineError(f"{rec_path!r} has no {missing[0]} column")
        for row in reader:
            at = f"{rec_path!r} line {reader.line_num}"
            # DictReader keys a long row's extra values by None, and gives a
            # short row's missing ones the value None
            if None in row or None in row.values():
                raise PipelineError(f"{at} does not hold one value per column")
            kwargs = {f: _number(int if f == "n" else float, row[f], f"{at} column {f}")
                      for f in est.EstimatorRecord.FIELDS}
            records.append(est.EstimatorRecord(**kwargs))
    try:
        return SweepReport(records, n_list, fit_error, fit_tail)
    except PipelineError as exc:
        raise PipelineError(f"{rec_path!r} {exc}") from None


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    """One invariant check: its name, whether it holds, and what it measured."""

    name: str
    ok: bool
    detail: str

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"


def patch_error(system: SystemPair, u: np.ndarray, phys: PhysicsParams) -> float:
    """Max error of the solution ``u`` of ``system`` at its active dofs
    against the affine datum g0 + gx x + gy y (``phys.g_coeffs``) that it
    reproduces when ``phys`` has f = 0: the linear patch test's measure.
    Raises ``PipelineError`` unless f = 0 and the datum is affine."""
    g0, gx, gy, gxy = phys.g_coeffs
    if phys.f_const != 0.0 or gxy != 0.0:
        raise PipelineError("the patch test needs f = 0 and an affine datum (gxy = 0)")
    act = system.active_dofs
    x, y = system.geom.mesh.vertices[act].T
    return float(np.max(np.abs(u[act] - (g0 + gx * x + gy * y))))


def patch_check(mesh, phys: PhysicsParams, params) -> CheckResult:
    """Linear patch test: with f = 0 and affine boundary data
    (``patch_error``), every active dof reproduces the datum to 1e-10 at
    each parameter of ``params``."""
    worst = 0.0
    for mu in params:
        system = assemble_system(build_cut_geometry(mesh, mu), phys)
        worst = max(worst, patch_error(system, solve_fom(system).u, phys))
    return CheckResult("patch_test", worst <= 1e-10, f"max dof error {worst:.3e}")


def zero_ghost_rows_check(systems) -> CheckResult:
    """Rows of A and entries of f outside the active dofs are exactly 0.0
    in each assembled system of ``systems``."""
    worst = 0.0
    for system in systems:
        inactive = np.setdiff1d(np.arange(system.f.size), system.active_dofs)
        row_mass = np.abs(system.A[inactive]).sum(axis=1).max() if inactive.size else 0.0
        worst = max(worst, float(row_mass), float(np.abs(system.f[inactive]).max(initial=0.0)))
    return CheckResult("zero_ghost_rows", worst == 0.0, f"max inactive magnitude {worst:.3e}")


def spd_coercivity_check(mesh, phys: PhysicsParams, params, a_star: float) -> CheckResult:
    """The active block of A is SPD, and its discrete coercivity against the
    mesh-dependent norm is at least 0.05 (``a_star`` is reported only).  An A
    that is not SPD fails before the generalized eigenproblem is posed."""
    min_eig = np.inf
    min_coer = np.inf
    for mu in params:
        system = assemble_system(build_cut_geometry(mesh, mu), phys)
        act = system.active_dofs
        a_act = system.A[act][:, act].toarray()
        min_eig = min(min_eig, float(sla.eigvalsh(a_act)[0]))
        if not min_eig > 0.0:
            return CheckResult("spd_coercivity", False,
                               f"min eig {min_eig:.3e}: A is not SPD on the active dofs")
        n_act = assemble_norm_matrix(system)[act][:, act].toarray()
        min_coer = min(min_coer, float(sla.eigh(a_act, n_act, eigvals_only=True)[0]))
    return CheckResult(
        "spd_coercivity", min_coer >= 0.05,
        f"min eig {min_eig:.3e}, discrete coercivity {min_coer:.4f} (alpha*={a_star:.2f})",
    )


def pod_tail_check(pod, snapshots: np.ndarray, mass) -> CheckResult:
    """Mode-energy identity: the M-norm training projection error with n modes
    equals the discarded spectrum sum_{k>n} sigma_k, to 1e-8 relative, for
    n = 2, 10 and 40 (clipped to the built modes)."""
    ok = True
    details = []
    for n_eff in sorted({min(n, pod.n_max) for n in (2, 10, 40)}):
        if float(pod.sigma[n_eff:].sum()) <= 0:
            continue
        mismatch = projection_tail_gap(pod, snapshots, mass, n_eff)
        ok = ok and mismatch <= 1e-8
        details.append(f"n={n_eff}: {mismatch:.2e}")
    return CheckResult("pod_tail_identity", ok, "; ".join(details))


def _geometry_row(system: SystemPair) -> list:
    """Class counts and area/perimeter estimates of one parameter's
    geometry, the cut elements' weights read from the rule its assembly
    made (``stage.rule``)."""
    geom, rule = system.geom, system.stage.rule
    mu = geom.mu
    exact_area = np.pi * np.sqrt(mu.r * mu.theta)
    counts = [int((geom.elem_class == c).sum()) for c in (0, 1, 2)]
    area = float(geom.mesh.tri_area[geom.elem_class == INSIDE].sum() + rule.vol_wts.sum())
    return [mu.r, mu.theta, *counts, area, float(2.0 * rule.seg_wts.sum()), exact_area,
            abs(area - exact_area) / exact_area]


def verify_invariants(config: Config, geometry_csv: str | None = None) -> list:
    """Run the full invariant suite for a configuration.

    Builds the offline model first, and runs every check on its mesh and
    physics: linear patch test, exact zero ghost rows, SPD / discrete
    coercivity, the mode-energy identity, and one check for the invariants
    the sweep enforces (interpolation exactness at the selected entries per
    parameter; Rayleigh sandwich, active <= plain and combined bound per
    record), which reads the completed sweep.  Each zero-row parameter is
    assembled once; when ``geometry_csv`` is given, a per-parameter geometry
    summary (class counts, area/perimeter estimates) of those systems is
    written there.
    """
    art = run_offline(config)
    mesh, phys = art.mesh, art.phys
    mu = [ParameterPoint(*m) for m in sample_parameters(38, config.seed + 10_000,
                                                        config.mu_min, config.mu_max)]
    patch_mu, zero_mu, spd_mu = mu[:5], mu[5:35], mu[35:]
    zero_systems = [assemble_system(build_cut_geometry(mesh, m), phys) for m in zero_mu]
    if geometry_csv is not None:
        os.makedirs(os.path.dirname(geometry_csv) or ".", exist_ok=True)
        _write_csv(geometry_csv,
                   ("mu_r", "mu_theta", "n_inside", "n_cut", "n_outside",
                    "volume_sum", "boundary_sum", "exact_area", "area_rel_err"),
                   [_geometry_row(system) for system in zero_systems])

    patch_phys = replace(phys, f_const=0.0, g_coeffs=(1.0, 2.0, 3.0, 0.0))
    checks = [
        patch_check(mesh, patch_phys, patch_mu),
        zero_ghost_rows_check(zero_systems),
        spd_coercivity_check(mesh, phys, spd_mu, est.alpha_star(config.nitsche_lambda, config.c_inv)),
        pod_tail_check(art.pod, art.snapshots, assemble_mass_matrix(mesh)),
    ]
    # the sweep raises on the first violation of any invariant it enforces
    try:
        report = run_online_sweep(art, config)
        checks.append(CheckResult(
            "sweep_invariants", True,
            f"{len(report.records)} records: interpolation exactness at the selected entries, "
            "Rayleigh sandwich, active <= plain, combined bound"))
    except PipelineError as exc:
        checks.append(CheckResult("sweep_invariants", False, str(exc)))
    return checks
