"""Run every workload over several seeds and print each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/report.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/report.py --workloads bp_witness --seeds 1 2 3 --save a.json
    python3 perfbench/report.py --seeds 1 2 3 --save b.json --compare a.json

Runs are made one after another with the command and run length from
BENCHMARK.json.  For each workload and metric it prints the median over
runs, the quartiles, the run count, and the spread (q3 - q1) / median next
to the metric's bound, plus ``failed_frac`` and ``float_rel_err`` from the
report line.  ``--compare`` checks a saved earlier set: every end-to-end
median within its bound and the exact-output digests identical, seed by
seed.  Exits 1 if a run fails, a check fails, or a comparison does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_one(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def spread(values: list) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--workloads", nargs="+", default=None)
    ap.add_argument("--save", default=None, help="write all runs to this JSON file")
    ap.add_argument("--compare", default=None, help="earlier --save file to compare with")
    args = ap.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {w: {} for w in workloads}
    bad = 0
    for w in workloads:
        for seed in args.seeds:
            r = run_one(bench, w, seed)
            runs[w][str(seed)] = r
            res = r["result"]
            if not res["correct"] or res["failed"]:
                bad += 1
                print(f"{w} seed {seed}: failed checks {r['report']['failures']}")

    print(f"{'workload':16s} {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'unit':6s} {'runs':>4s} {'spread':>7s} {'bound':>6s}")
    for w in workloads:
        seeds = list(runs[w])
        names = list(runs[w][seeds[0]]["result"]["metrics"])
        for name in names:
            vals = [runs[w][s]["result"]["metrics"][name]["value"] for s in seeds]
            unit = runs[w][seeds[0]]["result"]["metrics"][name]["unit"]
            med, q1, q3, sp = spread(vals)
            print(f"{w:16s} {name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {unit:6s} "
                  f"{len(vals):4d} {sp:7.3f} {bounds[name]:>6}")
        for name, unit in (("failed_frac", "ratio"), ("float_rel_err", "ratio")):
            vals = [runs[w][s]["report"][name] for s in seeds]
            med, q1, q3, _ = spread(vals)
            print(f"{w:16s} {name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {unit:6s} "
                  f"{len(vals):4d}")

    if args.save:
        Path(args.save).write_text(json.dumps(runs))
    if args.compare:
        old = json.loads(Path(args.compare).read_text())
        for w in workloads:
            common = [s for s in runs[w] if s in old.get(w, {})]
            if not common:
                continue
            for s in common:
                if runs[w][s]["report"]["digest"] != old[w][s]["report"]["digest"]:
                    bad += 1
                    print(f"{w} seed {s}: exact-output digest differs")
            for name, bound in bounds.items():
                new_med = statistics.median(runs[w][s]["result"]["metrics"][name]["value"]
                                            for s in common)
                old_med = statistics.median(old[w][s]["result"]["metrics"][name]["value"]
                                            for s in common)
                change = new_med / old_med - 1
                ok = change <= bound
                bad += not ok
                print(f"compare {w:16s} {name:12s} {old_med:10.5g} -> {new_med:10.5g} "
                      f"({change:+.3f}, bound {bound}) {'ok' if ok else 'WORSE'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
