"""cutrom benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload ref-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The process pins one BLAS thread
and ``CUTROM_THREADS=1`` before numpy loads.  It prints the run manifest,
every metric with its unit and the status of the output checks, and as its
last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  The same result, with the manifest and, when
traced, every span, is written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("ref-sweep", "fine-rom", "fine-fom")
THREAD_ENV = ("CUTROM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_revision() -> str:
    """HEAD of the checkout, read from .git without starting git; 'unknown'
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                func = getattr(lib, sym)
                func.restype = ctypes.c_int
                found[os.path.basename(path)] = func()
                break
    return found


def _manifest(args, np, scipy, cutrom) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV},
        "cutrom_backend": cutrom._kernels.BACKEND,
        "git_revision": _git_revision(),
    }


def run_one(args) -> int:
    for key in THREAD_ENV:
        os.environ[key] = "1"
    src = ROOT / "src"
    if not (src / "cutrom" / "__init__.py").is_file():
        print(f"error: no cutrom package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy

    import cutrom
    if Path(cutrom.__file__).resolve().parent != (src / "cutrom").resolve():
        print(f"error: cutrom imported from {cutrom.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness
    import spans

    workload = harness.WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / f"{tag}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer(f"{tag}-{os.getpid()}") if args.trace else None
    try:
        out = harness.run_workload(workload, args.seed, args.seconds, str(work_dir), tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    out.e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    failed_ratio = out.failed / out.attempted

    manifest = _manifest(args, np, scipy, cutrom)
    for key, val in manifest.items():
        print(f"manifest {key} = {val}")
    for key, val in out.counts.items():
        print(f"count {key} = {val}")
    for key, val in out.samples.items():
        print(f"samples {key} = {val}")
    for key, val in out.status.items():
        print(f"status {key}: {val}")
    # end-to-end times of a traced run include the tracing, so only the
    # untraced run reports them
    metrics = out.per_layer if args.trace else {k: out.e2e[k] for k in harness.GATED}
    if not args.trace:
        for name, (value, unit) in out.e2e.items():
            print(f"metric {name} = {value!r} {unit}")
    print(f"metric failed_ratio = {failed_ratio!r} 1")
    for name, (value, unit) in out.per_layer.items():
        print(f"layer {name} = {value!r} {unit}")

    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, manifest=manifest, counts=out.counts, samples=out.samples,
                  status=out.status, failed_ratio=failed_ratio)
    if tracer is None:
        record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in out.e2e.items()}
    else:
        record["run_id"] = tracer.run_id
        record["span_fields"] = ["name", "start", "end", "parent", "request"]
        record["spans"] = tracer.spans
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; a table at the end."""
    rows = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        rows[name] = result["metrics"]
        status |= 0 if result["correct"] else 1
    names = sorted({m for metrics in rows.values() for m in metrics})
    print(f"{'metric':44s}" + "".join(f"{w:>14s}" for w in rows))
    for m in names:
        cells = "".join(
            f"{rows[w][m]['value']:14.6g}" if m in rows[w] else f"{'-':>14s}" for w in rows)
        unit = next(rows[w][m]["unit"] for w in rows if m in rows[w])
        print(f"{m + ' [' + unit + ']':44s}{cells}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall clock of the closed-loop query and solve streams")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, to test the harness itself")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
