"""Smoke test of the benchmark harness: tiny sizes on every workload.

    python3 perfbench/smoke.py

Runs every workload ``run.py`` offers, untraced and traced, with
``--smoke``, and checks the printed metrics and the result line against
``BENCHMARK.json``.  Then it checks that a copy of the benchmark without
``src/`` exits with a non-zero code and prints no result.  Exits with 1 and
lists the problems when a check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# printed by every untraced run, with its unit (a traced run prints failed_ratio)
PRINTED = {"setup_s": "s", "offline_s": "s", "sweep_s": "s", "query_ms_mean": "ms",
           "query_ms_p50": "ms", "query_ms_p95": "ms", "fom_ms_mean": "ms", "fom_ms_p50": "ms",
           "peak_rss_mb": "MB", "failed_ratio": "1"}


def _run(cwd: Path, run: Path, workload: str, trace: int):
    cmd = [sys.executable, str(run), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_workload(spec: dict, workload: str, trace: int) -> list:
    tag = f"{workload} --trace {trace}"
    proc = _run(ROOT, RUN, workload, trace)
    if proc.returncode != 0:
        return [f"{tag}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{tag}: {result['failed']} of {result['attempted']} operations failed")
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            printed[name] = rest.rsplit(" ", 1)[1]
    for name, unit in PRINTED.items():
        if (not trace or name == "failed_ratio") and printed.get(name) != unit:
            problems.append(f"{tag}: metric {name} printed with unit {printed.get(name)!r}")
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{tag}: metrics differ from BENCHMARK.json {kind}: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {sorted(k for k in want if k in got and got[k] != want[k])}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or value != value:
            problems.append(f"{tag}: {name} = {value!r}")
        elif trace and (name.endswith(".calls") or name.endswith(".s")) and value <= 0:
            problems.append(f"{tag}: layer {name} did not run ({value!r})")
    return problems


def check_bare_copy() -> list:
    """The benchmark alone, without the program, must fail without a result."""
    bare = ROOT / ".perfbench_out" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, bare / "perfbench" / "run.py", "ref-sweep", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare copy: exit code {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = {w["name"] for w in spec["workloads"]} - set(WORKLOAD_NAMES)
    problems = [f"BENCHMARK.json names unknown workloads {sorted(missing)}"] if missing else []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            found = check_workload(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_bare_copy()
    print(f"bare copy: {'ok' if not found else 'FAILED'}")
    problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
