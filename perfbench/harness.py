"""Workloads, timed phases and output checks of the cutrom benchmark.

Each phase calls the package through the same public functions the CLI
uses and is timed from outside with ``time.perf_counter``:

* offline: ``run_offline`` + ``save_artifacts`` (``cutrom offline``);
* sweep: ``load_artifacts`` + ``run_online_sweep`` + ``emit_report``
  (``cutrom online``), whose record-by-record invariants are part of it;
* set-up: a fresh interpreter that imports cutrom, then
  ``build_background_mesh`` + one warm-up online query, which pays for the
  lazily built entry plan;
* queries: ``build_cut_geometry`` + ``rom_online_solve`` at the largest mode
  count on fresh parameters, a closed loop with one client;
* full-order solves: ``build_cut_geometry`` + ``assemble_system`` +
  ``solve_fom`` on fresh parameters, a closed loop with one client.

Output checks run outside every timed window.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

import cutrom
from cutrom import artifacts, assembly, fom, geometry, pipeline, rom
from cutrom.artifacts import ArtifactError
from cutrom.assembly import AssemblyError
from cutrom.config import Config
from cutrom.deim import DeimError
from cutrom.fom import FomError
from cutrom.geometry import GeometryError, ParameterPoint
from cutrom.pipeline import PipelineError
from cutrom.pod import PodError
from cutrom.rom import RomError

import spans

# a raised error of the program counts as a failed operation
ERRORS = (ArtifactError, AssemblyError, DeimError, FomError, GeometryError,
          PipelineError, PodError, RomError)

# fixed parameter (centre of the parameter box) for the mesh counts, so they
# do not depend on the seed
MU_REF = ParameterPoint(1.1, 1.1)

# relative active residual |f - A u| / |f| a full-order solve must reach
FOM_RESIDUAL_TOL = 1e-12

# end-to-end metrics the result line carries.  The p50 latencies are printed
# but not gated: per-operation times on a shared host are bimodal (the CPU
# switches between a fast and a slow state every few seconds), and the median
# jumps between the two modes as their mix changes, while the mean follows it
GATED = ("setup_s", "offline_s", "sweep_s", "query_ms_mean", "query_ms_p95",
         "fom_ms_mean", "peak_rss_mb")

# sha256 of run4.csv from the default configuration (seed 0), one BLAS thread
RUN4_SEED0_SHA256 = "9e37bca91700777b164a4691774a89f94f42fa1584e14b2984d974c84c29d97a"


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload.  Every workload runs every phase, so each
    reports every end-to-end metric; they differ in mesh size and in which
    phase carries the weight."""

    name: str
    h_target: float
    n_train: int
    n_test: int
    n_list: tuple
    offline_reps: int
    sweep_reps: int
    setup_reps: int
    query_share: float  # share of --seconds given to the query stream
    n_checked: int  # query parameters re-checked through run_online_sweep

    def config(self, seed: int) -> Config:
        return replace(Config(), h_target=self.h_target, n_train=self.n_train,
                       n_test=self.n_test, n_list=self.n_list).with_seed(seed)

    def smoke(self) -> "Workload":
        """Tiny sizes on the same mesh, for the harness smoke test."""
        return replace(self, n_train=min(self.n_train, 24), n_test=1, n_list=(2, 4),
                       offline_reps=1, sweep_reps=1, setup_reps=1, n_checked=1)


DEFAULT_N_LIST = Config().n_list

WORKLOADS = {
    w.name: w for w in (
        # the paper's reference experiment: default Config, per-call overhead
        # dominates, and the sweep samples entries 11 times per parameter
        Workload("ref-sweep", 0.125, 400, 30, DEFAULT_N_LIST,
                 offline_reps=5, sweep_reps=5, setup_reps=5, query_share=0.5, n_checked=5),
        # N = 1681: dense Cholesky dominates the offline build, the DEIM SVD runs
        # over a ~9.6k-row union pattern, and the whole-mesh geometry pass is
        # half of each query
        Workload("fine-rom", 0.06, 200, 10, DEFAULT_N_LIST,
                 offline_reps=3, sweep_reps=5, setup_reps=3, query_share=0.5, n_checked=3),
        # N = 6561: factorization is nearly all of a full-order solve and the
        # mesh build nearly all of set-up.  The reduced model is kept small;
        # with 12 or fewer training solves it can extrapolate to a singular
        # reduced system near the edge of the parameter box
        Workload("fine-fom", 0.03, 16, 2, (2, 4, 8),
                 offline_reps=1, sweep_reps=2, setup_reps=3, query_share=0.3, n_checked=1),
    )
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)  # name -> (value, unit)
    counts: dict = field(default_factory=dict)
    status: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)  # stream name -> sample count
    per_layer: dict = field(default_factory=dict)
    traced_s: float = 0.0  # stream time of the traced half of each pair
    untraced_s: float = 0.0  # ... and of the untraced half


def _param_stream(cfg: Config, stream: int, grid: int = 4):
    """Fresh parameters from the config's parameter box: rounds of one
    uniform draw in each cell of a grid x grid partition, cells in shuffled
    order, so that a run with few operations still spreads them over the
    whole box."""
    rng = np.random.default_rng([cfg.seed, stream])
    while True:
        for cell in rng.permutation(grid * grid):
            u = (np.array([cell % grid, cell // grid]) + rng.random(2)) / grid
            yield ParameterPoint(*(cfg.mu_min + (cfg.mu_max - cfg.mu_min) * u))


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _query(mesh, rom_off, mu, n):
    geom = geometry.build_cut_geometry(mesh, mu)
    return rom.rom_online_solve(rom_off, mu, n, geom=geom)


def _fom_solve(mesh, phys, mu):
    geom = geometry.build_cut_geometry(mesh, mu)
    system = assembly.assemble_system(geom, phys)
    return system, fom.solve_fom(system)


def _fom_ok(system, sol) -> bool:
    act = system.active_dofs
    r = (system.f - system.A @ sol.u)[act]
    return bool(np.linalg.norm(r) <= FOM_RESIDUAL_TOL * np.linalg.norm(system.f[act]))


class _Stream:
    """One closed-loop client: the next operation starts when the previous
    one has ended, each on a fresh parameter.

    With a tracer, every parameter runs twice, once traced and once not, in
    alternating order; only the untraced latency is kept, and both halves are
    summed into the outcome for the tracing overhead.
    """

    def __init__(self, name, share, params, op, ok, keep=0):
        self.name = name
        self.share = share
        self.params = params
        self.op = op
        self.ok = ok
        self.keep = keep
        self.lat: list = []
        self.kept: list = []  # first ``keep`` (parameter, result) pairs
        self.spent = 0.0

    def step(self, out, tracer):
        mu = next(self.params)
        order = (True, False) if len(self.lat) % 2 == 0 else (False, True)
        for traced in (order if tracer is not None else (False,)):
            out.attempted += 1
            if traced:
                tracer.request = f"{self.name}:{len(self.lat)}"
                tracer.install()
            t0 = time.perf_counter()
            try:
                res = self.op(mu)
            except ERRORS:
                res = None
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
                out.traced_s += dt
            else:
                out.untraced_s += dt
                self.lat.append(dt)
            if res is None or not self.ok(res):
                out.failed += 1
            elif not traced and len(self.kept) < self.keep:
                self.kept.append((mu, res))


def _run_streams(out, seconds, streams, tracer):
    """Run the streams interleaved for ``seconds`` of wall clock: the next
    operation goes to the stream furthest below its share of the time spent
    so far, so every stream samples the whole window.  Each gets at least
    one operation."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or not all(s.lat for s in streams):
        s = min(streams, key=lambda s: s.spent / s.share)
        t0 = time.perf_counter()
        s.step(out, tracer)
        s.spent += time.perf_counter() - t0
    for s in streams:
        out.samples[s.name] = len(s.lat)


def _import_s() -> float:
    """Wall clock of a fresh interpreter that imports cutrom from the same
    source tree, i.e. process start to the end of the imports."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cutrom.__file__)))
    t0 = time.perf_counter()
    code = "import sys; sys.path.insert(0, sys.argv[1]); import cutrom"
    subprocess.run([sys.executable, "-c", code, src], check=True)
    return time.perf_counter() - t0


def _recheck_queries(out, art, cfg, n, kept):
    """Each kept query parameter goes through the sweep, which raises on a
    violated Rayleigh sandwich or combined bound, and the query is re-run to
    confirm the lifted solution is bit-identical."""
    for mu, sol in kept:
        try:
            pipeline.run_online_sweep(art, cfg, test_params=[[mu.r, mu.theta]])
            again = _query(art.mesh, art.rom, mu, n)
            good = np.array_equal(again.u_lifted, sol.u_lifted)
        except ERRORS:
            good = False
        if not good:
            out.failed += 1


def run_workload(w: Workload, seed: int, seconds: float, work_dir: str,
                 tracer: spans.Tracer | None = None) -> Outcome:
    """Run the phases in rounds.  Round k runs each phase that has more than
    k repeats, then a slice of the query and solve streams, so every metric
    samples the whole run rather than one stretch of it."""
    out = Outcome()
    cfg = w.config(seed)
    phys = pipeline.physics_from_config(cfg)
    n_query = max(cfg.n_list)
    art_dir = os.path.join(work_dir, "artifacts")
    rep_dir = os.path.join(work_dir, "report")

    def traced(label):
        if tracer is not None:
            tracer.request = label
            tracer.install()

    def untraced():
        if tracer is not None:
            tracer.uninstall()

    queries = _Stream(
        "query", w.query_share, _param_stream(cfg, 1),
        lambda mu: _query(mesh, loaded.rom, mu, n_query),
        lambda sol: bool(np.isfinite(sol.u_lifted).all()),
        keep=w.n_checked,
    )
    solves = _Stream(
        "fom", 1.0 - w.query_share, _param_stream(cfg, 2),
        lambda mu: _fom_solve(mesh, phys, mu),
        lambda res: _fom_ok(*res),
    )
    offline_t, sweep_t, setup_t = [], [], []
    rounds = max(w.offline_reps, w.sweep_reps, w.setup_reps)
    for k in range(rounds):
        if k < w.offline_reps:
            out.attempted += 1
            traced(f"offline:{k}")
            t0 = time.perf_counter()
            art = pipeline.run_offline(cfg)
            artifacts.save_artifacts(art_dir, art)
            offline_t.append(time.perf_counter() - t0)
            untraced()
            del art

        if k < w.sweep_reps:
            out.attempted += 1
            traced(f"sweep:{k}")
            t0 = time.perf_counter()
            loaded = artifacts.load_artifacts(art_dir, cfg)
            try:
                report = pipeline.run_online_sweep(loaded, cfg)
                pipeline.emit_report(report, rep_dir)
            except ERRORS:
                out.failed += 1
            sweep_t.append(time.perf_counter() - t0)
            untraced()

        if k < w.setup_reps:
            t_import = _import_s()
            traced(f"setup:{k}")
            t0 = time.perf_counter()
            mesh = geometry.build_background_mesh(cfg.box, cfg.h_target)
            _query(mesh, loaded.rom, MU_REF, n_query)
            setup_t.append(t_import + time.perf_counter() - t0)
            untraced()

        _run_streams(out, seconds / rounds, (queries, solves), tracer)

    _recheck_queries(out, loaded, cfg, n_query, queries.kept)
    run4 = os.path.join(rep_dir, "run4.csv")
    if cfg == Config().with_seed(0) and os.path.exists(run4):
        digest = _sha256(run4)
        out.status["run4_determinism"] = (
            "bit-identical to the seed digest" if digest == RUN4_SEED0_SHA256
            else f"differs from the seed digest: {digest}")
    else:
        out.status["run4_determinism"] = "not checked (only on ref-sweep with seed 0)"

    geom_ref = geometry.build_cut_geometry(mesh, MU_REF)
    out.counts = {
        "cut_elements": int(geom_ref.cut_elements.size),
        "active_dofs": int(geom_ref.active_dofs.size),
        "entries_sampled": int(loaded.rom.matrix_sample_entries.shape[0]
                               + loaded.rom.vector_sample_entries.size),
        "pattern_size": int(loaded.pattern.size),
        "l_A": int(loaded.deim_a.l),
        "l_f": int(loaded.deim_f.l),
        "n_max": int(loaded.pod.n_max),
        "n_energy": int(loaded.pod.n_energy),
        "artifact_bytes": _dir_bytes(art_dir),
    }
    shutil.rmtree(art_dir, ignore_errors=True)
    shutil.rmtree(rep_dir, ignore_errors=True)

    out.e2e = {
        "setup_s": (statistics.median(setup_t), "s"),
        "offline_s": (statistics.fmean(offline_t), "s"),
        "sweep_s": (statistics.fmean(sweep_t), "s"),
        "query_ms_mean": (1e3 * statistics.fmean(queries.lat), "ms"),
        "query_ms_p50": (1e3 * float(np.percentile(queries.lat, 50)), "ms"),
        "query_ms_p95": (1e3 * float(np.percentile(queries.lat, 95)), "ms"),
        "fom_ms_mean": (1e3 * statistics.fmean(solves.lat), "ms"),
        "fom_ms_p50": (1e3 * float(np.percentile(solves.lat, 50)), "ms"),
    }
    if tracer is not None:
        out.per_layer = spans.layer_metrics(tracer.spans, out.counts)
        out.per_layer["trace.overhead_frac"] = (out.traced_s / out.untraced_s - 1.0, "1")
    return out
