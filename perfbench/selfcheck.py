"""Fast check of the benchmark's metric plumbing.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py

Runs every workload at the ``smoke`` input sizes for one second, untraced
and traced, and confirms that each run prints a result line with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, that the metrics
are exactly the ``end_to_end`` (untraced) or ``per_layer`` (traced) metrics
of BENCHMARK.json with their units, that every check passes, and that the
report line records the machine and interpreter.  It also confirms that the
benchmark exits non-zero without a result in a directory that holds only
BENCHMARK.json and the benchmark's own files.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path("src").resolve()))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402

MACHINE_KEYS = {"nproc", "mem_total_mb", "python", "numpy", "commit", "src_sha256"}


def result_lines(cmd: list, cwd: Path) -> tuple:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def check_run(bench: dict, workload: str, trace: int) -> list:
    cmd = bench["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace), "--shape", "smoke"]
    code, lines, err = result_lines(cmd, Path.cwd())
    where = f"{workload} trace={trace}"
    if code != 0 or len(lines) < 2:
        return [f"{where}: exit code {code}: {err[-500:]}"]
    problems = []
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: checks failed: {report.get('failures')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"{where}: missing {sorted(set(want) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(want))}")
    for name, m in got.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
        if name in want and m.get("unit") != want[name]:
            problems.append(f"{where}: {name} unit {m.get('unit')!r}, want {want[name]!r}")
    missing = MACHINE_KEYS - set(report.get("machine", {}))
    if missing:
        problems.append(f"{where}: report lacks machine keys {sorted(missing)}")
    return problems


def check_without_sources(bench: dict) -> list:
    bare = run.OUT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy("BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                                  "--seconds", "1", "--trace", "0"]
        code, lines, _ = result_lines(cmd, bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        return [f"without roac0 sources the benchmark exited {code} with {lines[-1:]}"]
    return []


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    names = [w["name"] for w in bench["workloads"]]
    if names != list(run.WORKLOADS) or set(names) != set(bench_workloads.BUILDERS):
        problems.append(f"workloads differ: {names} / {run.WORKLOADS} / "
                        f"{list(bench_workloads.BUILDERS)}")
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if layer != {k: unit for k, (unit, _, _) in bench_trace.LAYER_METRICS.items()}:
        problems.append("per_layer metrics differ from bench_trace.LAYER_METRICS")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if e2e != run.E2E_UNITS:
        problems.append("end_to_end metrics differ from run.E2E_UNITS")
    for workload in names:
        for trace in (0, 1):
            problems += check_run(bench, workload, trace)
    problems += check_without_sources(bench)
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
