"""roac0 benchmark: one workload, one seed, one run.

Usage, from the root of a checkout (the directory holding ``src/roac0``):

    python3 perfbench/run.py --workload spectral_sweep --seed 1 --seconds 20 --trace 0

The run builds the workload's inputs from ``--seed``, then repeats the
workload pass (every step starting with roac0's caches cold) until
``--seconds`` have gone by, checks every output, and prints one JSON object
as its last line: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:
  setup_s      median over SETUP_REPEATS fresh processes, started between
               passes, of the time from process start until the inputs
               are ready (imports, corpus and circuit generation); the
               run's own set-up is not among them
  solve_s      the pass's wall time, taken as the sum over its steps of each
               step's best time over the passes of the run
  peak_rss_mb  the run's maximum resident set size
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from spans (see bench_trace.py); spans go to
``.perfbench_out/spans-<workload>-seed<seed>.json``.

The line before the result is a JSON report with the step timings, the
failed check labels, the exact-output digest, ``failed_frac``,
``float_rel_err``, the machine and interpreter, and the known defects.  A
human-readable table goes to standard error.  The run exits 2 without a
result when the checkout holds no roac0 sources.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # as near to process start as this script gets

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_trace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
E2E_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
WORKLOADS = ("spectral_sweep", "restriction_mc", "generator_sweep", "bp_witness")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="Run one roac0 benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shape", choices=("full", "smoke"), default="full",
                    help="input sizes; smoke is for the plumbing self-check only")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print 'ready' and exit (times setup_s)")
    return ap.parse_args(argv)


def import_roac0():
    """Import roac0 from this checkout's sources, never from elsewhere."""
    if not (SRC / "roac0" / "__init__.py").is_file():
        print(f"error: no roac0 sources under {SRC}; run from a checkout root", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import roac0

    if Path(roac0.__file__).resolve().parent != (SRC / "roac0").resolve():
        print(f"error: imported roac0 from {roac0.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def time_setup(args) -> float:
    """Wall time from spawning a fresh process until it reports its inputs ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--shape", args.shape, "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"error: set-up process failed with code {proc.returncode}")
    return t1 - t0


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop: the machine's speed now."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def run_pass(bw, wl, tracer=None):
    """One pass: every step timed with cold caches, then every output checked."""
    times, results = {}, []
    for step in wl.steps:
        bw.clear_caches()
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        results.append(step.run())
        times[step.name] = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
    checks = bw.Checks()
    for step, result in zip(wl.steps, results):
        step.check(result, checks)
    return times, checks, tracer.take() if tracer else None, calibrate()


def best_pass_s(passes: list) -> float:
    """Sum over steps of each step's best time across passes.

    Other processes on a shared machine only ever add time, in bursts of a
    few seconds, so the best of several short timings of the same step is
    the steadiest estimate of what the step costs.
    """
    steps = passes[0][0].keys()
    return sum(min(p[0][s] for p in passes) for s in steps)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def machine() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "roac0").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_roac0()
    import bench_workloads as bw

    out_root = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    if args.setup_only:
        bw.build(args.workload, args.seed, args.shape, out_root)
        print("ready", flush=True)
        return 0

    tracer = bench_trace.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    t_ready = time.perf_counter()
    wl = bw.build(args.workload, args.seed, args.shape, out_root)
    setup_inproc_s = time.perf_counter() - T_START
    setup_build_s = time.perf_counter() - t_ready
    if tracer:
        tracer.uninstall()
        setup_rec = tracer.take()
    # Untraced runs time a fresh set-up process after each of the first
    # passes, so the set-up samples spread over the run instead of one burst;
    # that time does not count against --seconds.
    plain, traced, setup_times = [], [], []
    try:
        deadline = time.perf_counter() + args.seconds
        while True:
            use_tracer = tracer if args.trace and len(traced) < len(plain) else None
            (traced if use_tracer else plain).append(run_pass(bw, wl, use_tracer))
            if not args.trace and len(setup_times) < SETUP_REPEATS:
                t0 = time.perf_counter()
                setup_times.append(time_setup(args))
                deadline += time.perf_counter() - t0
            if time.perf_counter() >= deadline and (traced or not args.trace):
                break
        while not args.trace and len(setup_times) < SETUP_REPEATS:
            setup_times.append(time_setup(args))
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    # correctness: every check of every pass, and every pass reproducing the first
    every = plain + traced
    digest = every[0][1].digest()
    attempted = sum(p[1].attempted for p in every) + len(every) - 1
    failures = [label for p in every for label in p[1].failures]
    failures += ["pass output digest differs from the first pass"
                 for p in every[1:] if p[1].digest() != digest]
    if not wl.float_errors:
        approx, exact = bw.probe_damped(bw.probe_circuit(bw.SHAPES[args.shape]))
        wl.float_errors.append(bw.rel_err(approx, exact))
    float_rel_err = max(wl.float_errors)
    ok, tried = wl.witness_counts

    solve_s = best_pass_s(plain)
    if args.trace:
        overhead = best_pass_s(traced) / solve_s - 1
        walls = [sum(p[0].values()) for p in traced]
        metrics = bench_trace.layer_metrics(
            setup_rec, [p[2] for p in traced], walls, overhead,
            {"fourier.float_rel_err": float_rel_err,
             "bp.witness.ok_frac": ok / tried if tried else 0.0})
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(bench_trace.span_dump(setup_rec, [p[2] for p in traced])))
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "solve_s": solve_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "shape": args.shape,
        "passes": len(plain), "traced_passes": len(traced),
        "setup_s_samples": setup_times, "setup_inproc_s": setup_inproc_s,
        "setup_build_s": setup_build_s,
        "step_s": {s: [p[0][s] for p in plain] for s in plain[0][0]},
        "calibration_s": [p[3] for p in plain],
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "float_rel_err": float_rel_err,
        "digest": digest,
        "machine": machine(),
        "known_defects": json.loads((HERE / "known_defects.json").read_text()),
    }
    counts = {"setup_s": len(setup_times), "solve_s": len(plain), "peak_rss_mb": 1}
    for name, m in metrics.items():
        n = counts.get(name, len(traced))
        print(f"{args.workload:16s} {name:34s} {m['value']:14.6g} {m['unit']:6s} n={n}",
              file=sys.stderr)
    print(f"{args.workload:16s} {'failed_frac':34s} {report['failed_frac']:14.6g} "
          f"{'ratio':6s} n={attempted}", file=sys.stderr)
    print(f"{args.workload:16s} {'float_rel_err':34s} {float_rel_err:14.6g} {'ratio':6s}",
          file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
