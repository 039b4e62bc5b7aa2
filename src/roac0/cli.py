"""Command-line front end: corpus sweeps, experiments, report files.

Every subcommand accepts either a single circuit or a declarative corpus
spec, runs the corresponding library routines, prints a one-line summary
per check, and (with ``--out``) writes JSON/CSV data files plus a
``run.json`` manifest that lists them.  Data files contain no timestamps
or timings, so identical configuration and master seed reproduce them
byte for byte; wall-clock time lives only in the manifest.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
parse error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import (
    And,
    BiasVector,
    Circuit,
    CircuitError,
    Leaf,
    Or,
    acceptance_probability,
    evaluate,
    gen_random_read_once,
    gen_recursive_tribes,
    gen_tribes,
    parse,
    render,
)
from . import bp as bpmod
from . import fourier as fmod
from . import prg as prgmod
from . import shrinkage as shmod


class UsageError(CircuitError):
    """Bad command-line input; maps to exit code 2."""


# -- circuit and corpus specs -------------------------------------------------


def _parse_kv(body: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in body.split(","):
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _int_field(kv: dict, key: str, default=None) -> int:
    if key not in kv:
        if default is None:
            raise UsageError(f"spec is missing {key}=")
        return default
    try:
        return int(kv[key])
    except ValueError:
        raise UsageError(f"{key}={kv[key]!r} is not an integer") from None


def load_circuit(spec: str) -> Circuit:
    """Build one circuit from a spec string, inline expression, or file.

    Recognized generator specs:
      random:n=12,d=3,seed=7
      tribes:m=2,w=2
      rectribes:d=3,widths=8-16-8
      and:k=4  /  or:k=4
    Anything starting with "(" is parsed as a DSL expression; any other
    string is treated as a path to a file holding one expression.
    """
    spec = spec.strip()
    if spec.startswith("("):
        return parse(spec)
    kind, _, body = spec.partition(":")
    kv = _parse_kv(body) if body else {}
    if kind == "random":
        return gen_random_read_once(
            _int_field(kv, "n"), _int_field(kv, "d"), _int_field(kv, "seed", 0)
        )
    if kind == "tribes":
        return gen_tribes(_int_field(kv, "m"), _int_field(kv, "w"))
    if kind == "rectribes":
        if "widths" not in kv:
            raise UsageError("rectribes needs widths=a-b-c")
        widths = [int(w) for w in kv["widths"].split("-")]
        return gen_recursive_tribes(_int_field(kv, "d", len(widths)), widths)
    if kind in ("and", "or"):
        k = _int_field(kv, "k")
        if k <= 0:
            raise UsageError("k must be positive")
        gate = And if kind == "and" else Or
        return Circuit(gate(tuple(Leaf(i) for i in range(k))), k)
    path = Path(spec)
    if not path.exists():
        raise UsageError(f"no such circuit spec or file: {spec}")
    return parse(path.read_text())


def load_corpus(spec: str) -> list[Circuit]:
    """Expand a corpus spec into a circuit list.

    ``random:n=64,d=3,count=500,seed=9`` draws ``count`` circuits with
    n_i in [2, n] and depth_i in [1, d], all derived from the one seed.
    Specs without ``count`` degrade to a single-circuit corpus.
    """
    kind, _, body = spec.strip().partition(":")
    kv = _parse_kv(body) if body else {}
    if kind != "random" or "count" not in kv:
        return [load_circuit(spec)]
    n_max = _int_field(kv, "n")
    d_max = _int_field(kv, "d")
    count = _int_field(kv, "count")
    seed = _int_field(kv, "seed", 0)
    if n_max < 2 or d_max < 1 or count < 1:
        raise UsageError("corpus needs n >= 2, d >= 1, count >= 1")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ni = rng.randint(2, n_max)
        di = rng.randint(1, d_max)
        out.append(gen_random_read_once(ni, di, seed=rng.randrange(2**32)))
    return out


# -- report plumbing ----------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Echo of one run's inputs; stored in every manifest."""

    command: str
    options: dict

    def as_dict(self) -> dict:
        return {"command": self.command, "options": _jsonable(self.options)}


@dataclass
class RunManifest:
    config: ExperimentConfig
    files: list = field(default_factory=list)
    checks_total: int = 0
    checks_failed: int = 0
    wall_time_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "tool": "roac0",
            "version": __version__,
            "config": self.config.as_dict(),
            "files": list(self.files),
            "checks": {
                "total": self.checks_total,
                "passed": self.checks_total - self.checks_failed,
                "failed": self.checks_failed,
            },
            "wall_time_s": round(self.wall_time_s, 3),
        }


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    return obj


class Reporter:
    """Collects data files and check results for one run."""

    def __init__(self, command: str, options: dict, out_dir: str | None):
        self.manifest = RunManifest(ExperimentConfig(command, options))
        self.out_dir = Path(out_dir) if out_dir else None
        self._payloads: list[tuple[str, str]] = []
        self._t0 = time.time()

    def check(self, label: str, ok: bool) -> bool:
        self.manifest.checks_total += 1
        if not ok:
            self.manifest.checks_failed += 1
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
        return ok

    def add_json(self, name: str, data) -> None:
        text = json.dumps(_jsonable(data), indent=2, sort_keys=True) + "\n"
        self._payloads.append((name, text))

    def add_csv(self, name: str, header: list[str], rows) -> None:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_jsonable(v) for v in row])
        self._payloads.append((name, buf.getvalue()))

    def finish(self) -> int:
        self.manifest.wall_time_s = time.time() - self._t0
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            for name, text in self._payloads:
                (self.out_dir / name).write_text(text)
                self.manifest.files.append(name)
            (self.out_dir / "run.json").write_text(
                json.dumps(self.manifest.as_dict(), indent=2, sort_keys=True) + "\n"
            )
        return 1 if self.manifest.checks_failed else 0


def _default_jobs() -> int:
    env = os.environ.get("RO_AC0_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _pmap(fn, items: list, jobs: int) -> list:
    # order-preserving map; results never depend on the worker count
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs))))


# -- subcommands --------------------------------------------------------------


def cmd_describe(args) -> int:
    rep = Reporter("describe", {"circuit": args.circuit}, args.out)
    c = load_circuit(args.circuit)
    f0 = acceptance_probability(c, BiasVector.uniform(c.n))
    info = {
        "n": c.n,
        "depth": c.depth,
        "size": c.size,
        "read_once": c.is_read_once(),
        "monotone": c.is_monotone(),
        "f0": f0,
        "expression": render(c),
    }
    print(
        f"n={c.n} depth={c.depth} size={c.size} "
        f"read_once={info['read_once']} f0={f0}"
    )
    rep.add_json("describe.json", info)
    rep.check("circuit is read-once", info["read_once"])
    return rep.finish()


def cmd_fourier(args) -> int:
    rep = Reporter(
        "fourier",
        {"circuit": args.circuit, "p": args.p, "check": args.check},
        args.out,
    )
    c = load_circuit(args.circuit)
    lp = fmod.level_profile_recursive(c)
    rows = [
        (k, str(lp.abs_mass[k]), str(lp.signed_sum[k]), float(lp.abs_mass[k]), float(lp.signed_sum[k]))
        for k in range(c.n + 1)
    ]
    data = {
        "n": c.n,
        "depth": c.depth,
        "total_mass": fmod.total_mass(lp),
        "damped": {},
    }
    for p in args.p:
        data["damped"][str(p)] = float(fmod.damped_mass(lp, p))
    if args.check:
        if c.n > fmod.WHT_CAP:
            raise UsageError(f"--check needs n <= {fmod.WHT_CAP}")
        abs_w, sgn_w = fmod.wht_bruteforce(c).level_sums()
        ok = all(
            lp.abs_mass[k] == abs_w[k] and lp.signed_sum[k] == sgn_w[k]
            for k in range(c.n + 1)
        )
        rep.check("recursion matches exhaustive transform", ok)
        data["cross_checked"] = ok
    rep.add_json("fourier.json", data)
    rep.add_csv(
        "levels.csv",
        ["k", "abs_mass", "signed_sum", "abs_mass_float", "signed_sum_float"],
        rows,
    )
    print(f"total mass {float(data['total_mass']):.6g} over {c.n} levels")
    return rep.finish()


def _bounds_task(item):
    idx, c, eps_opt, p_opt = item
    eps = Fraction(eps_opt) if eps_opt is not None else Fraction(1, c.n)
    r = fmod.check_mainbound(c, eps, p=p_opt)
    return (
        idx,
        c.n,
        c.depth,
        r.lhs,
        r.rhs,
        r.slack,
        r.passed,
        r.params["p"],
        float(eps),
    )


def cmd_bounds(args) -> int:
    rep = Reporter(
        "bounds",
        {"corpus": args.corpus, "eps": args.eps, "p": args.p, "jobs": args.jobs},
        args.out,
    )
    circuits = load_corpus(args.corpus)
    items = [(i, c, args.eps, args.p) for i, c in enumerate(circuits)]
    rows = _pmap(_bounds_task, items, args.jobs)
    failures = sum(1 for row in rows if not row[6])
    rep.add_csv(
        "bounds.csv",
        ["index", "n", "depth", "lhs", "rhs", "slack", "passed", "p", "eps"],
        rows,
    )
    rep.add_json(
        "bounds.json",
        {
            "circuits": len(rows),
            "failures": failures,
            "min_slack": min((row[5] for row in rows), default=0.0),
        },
    )
    rep.check(f"damped-mass bound on {len(rows)} circuits", failures == 0)
    return rep.finish()


def _bp_task(item):
    idx, c, witnesses, seed = item
    b = bpmod.bp_from_circuit(c)
    width_ok = b.width <= max(c.depth, 1) + 1
    if c.n <= 14:
        inputs = range(1 << c.n)
    else:
        rng = random.Random(seed ^ 0xB9)
        inputs = [rng.randrange(1 << c.n) for _ in range(10_000)]
    equal = all(bpmod.bp_accepts(b, x) == evaluate(c, x) for x in inputs)
    wit_ok = 0
    rng = random.Random(seed)
    for _ in range(witnesses):
        i = rng.randint(1, b.length)
        j = rng.randint(i, b.length)
        d1 = rng.randint(1, b.width)
        d2 = rng.randint(1, b.width)
        w = bpmod.bp_slice_witness(b, bpmod.BPSliceQuery(i, j, d1, d2))
        sub = bpmod.bp_subprogram(b, i, j)
        good = True
        for x in range(1 << min(w.n, 14)):
            if bpmod.bp_evaluate(sub, x, start=d1) == d2:
                want = 1
            else:
                want = 0
            if evaluate(w, x) != want:
                good = False
                break
        wit_ok += good
    return (idx, c.n, c.depth, b.width, b.length, width_ok, equal, wit_ok, witnesses)


def cmd_bp(args) -> int:
    rep = Reporter(
        "bp",
        {
            "corpus": args.corpus,
            "witnesses": args.witnesses,
            "seed": args.seed,
            "jobs": args.jobs,
        },
        args.out,
    )
    circuits = load_corpus(args.corpus)
    items = [(i, c, args.witnesses, args.seed + i) for i, c in enumerate(circuits)]
    rows = _pmap(_bp_task, items, args.jobs)
    rep.add_csv(
        "bp.csv",
        [
            "index", "n", "depth", "width", "length",
            "width_ok", "equivalent", "witnesses_ok", "witnesses",
        ],
        rows,
    )
    all_equal = all(row[6] for row in rows)
    all_width = all(row[5] for row in rows)
    all_wit = all(row[7] == row[8] for row in rows)
    rep.add_json(
        "bp.json",
        {"circuits": len(rows), "equivalent": all_equal, "width_bounded": all_width},
    )
    rep.check("program equals circuit on every tested input", all_equal)
    rep.check("width within depth + 1", all_width)
    if args.witnesses:
        rep.check("slice witnesses match subprogram truth tables", all_wit)
    return rep.finish()


def _build_expander(args, n: int):
    if args.mode == "uniform":
        return prgmod.UniformGen(n)
    if args.mode == "smallbias":
        if args.ell is None:
            raise UsageError("smallbias mode needs --ell")
        return prgmod.SmallBiasGen(args.ell, n)
    if args.eps is not None:
        return prgmod.RestrictionPRG.standard(n, args.eps, a=args.a)
    return prgmod.RestrictionPRG(n, a=args.a, rounds=args.rounds)


def cmd_prg(args) -> int:
    rep = Reporter(
        "prg",
        {
            "circuit": args.circuit,
            "mode": args.mode,
            "ell": args.ell,
            "a": args.a,
            "rounds": args.rounds,
            "eps": args.eps,
            "trials": args.trials,
            "exhaustive": args.exhaustive,
            "seed": args.seed,
            "max_error": args.max_error,
        },
        args.out,
    )
    c = load_circuit(args.circuit)
    gen = _build_expander(args, c.n)
    mode = "exhaustive" if args.exhaustive else "mc"
    fr = prgmod.fooling_error(
        c, gen, mode=mode, trials=args.trials, master_seed=args.seed
    )
    data = fr.as_dict()
    data["seed_bits"] = gen.seed_bits
    if hasattr(gen, "bias_bound"):
        data["bias_bound"] = gen.bias_bound
    rep.add_json("prg.json", data)
    print(
        f"|E[F(G)] - E[F]| = {float(fr.abs_error):.6g} "
        f"({mode}, seed {gen.seed_bits} bits)"
    )
    if args.max_error is not None:
        rep.check(f"fooling error <= {args.max_error}", fr.abs_error <= args.max_error)
    return rep.finish()


def cmd_shrink(args) -> int:
    rep = Reporter(
        "shrink",
        {
            "circuit": args.circuit,
            "p": args.p,
            "eps": args.eps,
            "trials": args.trials,
            "seed": args.seed,
            "threshold": args.threshold,
        },
        args.out,
    )
    c = load_circuit(args.circuit)
    eps = Fraction(args.eps)
    r = shmod.shrink_experiment(
        c, args.p, eps, trials=args.trials, master_seed=args.seed,
        threshold=args.threshold,
    )
    rep.add_json("shrink.json", r.as_dict())
    rep.add_csv(
        "sizes.csv",
        ["trial", "size_lower", "size_upper", "size_max", "size_original", "fanin_max"],
        (
            (t, int(r.sizes_lower[t]), int(r.sizes_upper[t]),
             int(r.sizes_max[t]), int(r.sizes_original[t]), int(r.fanin_max[t]))
            for t in range(r.trials)
        ),
    )
    print(
        f"quantile({r.quantile_level:.4g}) of restricted sandwich size = "
        f"{r.quantile_value} over {r.trials} trials"
    )
    if args.threshold is not None:
        rep.check(f"size quantile <= {args.threshold}", bool(r.passed))
    return rep.finish()


def cmd_bench(args) -> int:
    rep = Reporter(
        "bench",
        {
            "wht_n": args.wht_n,
            "recursion_leaves": args.recursion_leaves,
            "mc_trials": args.mc_trials,
        },
        args.out,
    )
    results = {}

    c = gen_random_read_once(args.wht_n, 3, seed=1)
    t0 = time.time()
    fmod.wht_bruteforce(c)
    results["wht"] = {"n": args.wht_n, "wall_s": round(time.time() - t0, 4)}

    big = gen_random_read_once(args.recursion_leaves, 3, seed=2)
    t0 = time.time()
    mass = fmod.damped_mass_recursive(big, 0.5)
    dt = time.time() - t0
    # the mass can lie below the float range (mass == 0.0); log2 of the exact value
    exact = fmod.damped_mass_recursive(big, Fraction(1, 2), exact=True)
    results["recursion"] = {
        "leaves": big.size,
        "wall_s": round(dt, 4),
        "damped_mass_half": mass,
        "damped_mass_half_log2": math.log2(exact.numerator) - math.log2(exact.denominator),
    }

    mc_circuit = gen_random_read_once(24, 3, seed=3)
    t0 = time.time()
    shmod.collapse_probability(
        mc_circuit, 0.01, Fraction(1, 48), trials=args.mc_trials,
        enforce_bounds=False,
    )
    dt = time.time() - t0
    results["mc"] = {
        "trials": args.mc_trials,
        "wall_s": round(dt, 4),
        "trials_per_s": round(args.mc_trials / max(dt, 1e-9)),
    }

    rep.add_json("bench.json", results)
    for name, row in results.items():
        print(f"{name}: {row}")
    rep.check(f"transform at n={args.wht_n} under 5 s", results["wht"]["wall_s"] < 5)
    rep.check("recursion on large circuit under 1 s", results["recursion"]["wall_s"] < 1)
    return rep.finish()


# -- argument parsing ---------------------------------------------------------


def _add_common(sp, corpus: bool = False):
    if corpus:
        sp.add_argument("--corpus", required=True, help="circuit or corpus spec")
        sp.add_argument("--jobs", type=int, default=_default_jobs())
    else:
        sp.add_argument("--circuit", required=True, help="circuit spec or file")
    sp.add_argument("--out", default=None, help="directory for data files + run.json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="roac0",
        description="Read-once AC0 spectra, bounds, programs, and generators",
    )
    ap.add_argument("--version", action="version", version=f"roac0 {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("describe", help="parse a circuit and print its statistics")
    _add_common(sp)
    sp.set_defaults(fn=cmd_describe)

    sp = sub.add_parser("fourier", help="level masses and damped sums")
    _add_common(sp)
    sp.add_argument("--p", type=float, action="append", default=[],
                    help="damping value (repeatable)")
    sp.add_argument("--check", action="store_true",
                    help="cross-check against the exhaustive transform")
    sp.set_defaults(fn=cmd_fourier)

    sp = sub.add_parser("bounds", help="damped-mass bound sweep over a corpus")
    _add_common(sp, corpus=True)
    sp.add_argument("--eps", type=str, default=None,
                    help="bound epsilon (fraction or float; default 1/n)")
    sp.add_argument("--p", type=float, default=None,
                    help="damping (default: boundary value)")
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser("bp", help="branching-program conversion checks")
    _add_common(sp, corpus=True)
    sp.add_argument("--witnesses", type=int, default=0,
                    help="random slice witnesses per circuit")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_bp)

    sp = sub.add_parser("prg", help="expander fooling experiments")
    _add_common(sp)
    sp.add_argument("--mode", choices=("smallbias", "restriction", "uniform"),
                    required=True)
    sp.add_argument("--ell", type=int, default=None, help="field degree")
    sp.add_argument("--a", type=int, default=1,
                    help="selection bits per round (restriction mode)")
    sp.add_argument("--rounds", type=int, default=1)
    sp.add_argument("--eps", type=float, default=None,
                    help="target error; picks the standard restriction layout")
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--exhaustive", action="store_true",
                    help="sweep every seed instead of Monte Carlo")
    sp.add_argument("--seed", type=int, default=0, help="master seed for MC")
    sp.add_argument("--max-error", type=float, default=None,
                    help="fail (exit 1) if the measured error exceeds this")
    sp.set_defaults(fn=cmd_prg)

    sp = sub.add_parser("shrink", help="restriction shrinkage experiment")
    _add_common(sp)
    sp.add_argument("--p", type=float, required=True, help="free probability")
    sp.add_argument("--eps", type=str, required=True,
                    help="sandwich epsilon (fraction like 1/100 or float)")
    sp.add_argument("--trials", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threshold", type=float, default=None,
                    help="fail (exit 1) if the size quantile exceeds this")
    sp.set_defaults(fn=cmd_shrink)

    sp = sub.add_parser("bench", help="timing table for the main kernels")
    sp.add_argument("--out", default=None)
    sp.add_argument("--wht-n", type=int, default=20)
    sp.add_argument("--recursion-leaves", type=int, default=100_000)
    sp.add_argument("--mc-trials", type=int, default=100_000)
    sp.set_defaults(fn=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CircuitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
