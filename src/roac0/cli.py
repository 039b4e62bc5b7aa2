"""Command-line front end: corpus sweeps, experiments, report files.

Every subcommand accepts either a single circuit or a declarative corpus
spec, runs the corresponding library routines, prints a one-line summary
per check, and (with ``--out``) writes JSON/CSV data files plus a
``run.json`` manifest that lists them.  Data files contain no timestamps
or timings, so identical configuration and master seed reproduce them
byte for byte; wall-clock time lives only in the manifest, as the run's
total and as the stages a subcommand times (wall time, items, rate).

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
parse error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
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
    evaluate,  # noqa: F401  (perfbench's tracer wraps this name here)
    evaluate_columns,
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


def _jsonable(obj):
    if type(obj) in (int, float, str, bool):  # the common case, before the ABC checks
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    return obj


class Reporter:
    """Collects data files and check results for one run.

    ``run.json`` echoes the parsed command line (every option but ``--out``)
    and lists the files written, the check counts, the wall time and the
    timed stages.
    """

    def __init__(self, args):
        self.command = args.command
        self.options = {k: v for k, v in vars(args).items() if k not in ("command", "fn", "out")}
        self.out_dir = Path(args.out) if args.out else None
        self.checks_total = self.checks_failed = 0
        self.stages: list[dict] = []
        self._payloads: list[tuple[str, str]] = []
        self._t0 = time.time()

    def check(self, label: str, ok: bool) -> bool:
        self.checks_total += 1
        if not ok:
            self.checks_failed += 1
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
        return ok

    @contextmanager
    def stage(self, name: str, items: int):
        """Time the block; run.json records its wall time, item count and rate."""
        t0 = time.perf_counter()
        yield
        wall = time.perf_counter() - t0
        self.stages.append({
            "name": name,
            "wall_s": round(wall, 6),
            "items": items,
            "rate": round(items / wall, 1) if wall > 0 else None,
        })

    def add_json(self, name: str, data) -> None:
        text = json.dumps(_jsonable(data), indent=2, sort_keys=True) + "\n"
        self._payloads.append((name, text))

    def add_csv(self, name: str, header: list[str], rows) -> None:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        # every cell is an int, float, bool or str; an array's rows become Python ints
        w.writerows(rows.tolist() if isinstance(rows, np.ndarray) else rows)
        self._payloads.append((name, buf.getvalue()))

    def finish(self) -> int:
        wall = time.time() - self._t0
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            for name, text in self._payloads:
                (self.out_dir / name).write_text(text)
            manifest = {
                "tool": "roac0",
                "version": __version__,
                "config": {"command": self.command, "options": _jsonable(self.options)},
                "files": [name for name, _ in self._payloads],
                "checks": {
                    "total": self.checks_total,
                    "passed": self.checks_total - self.checks_failed,
                    "failed": self.checks_failed,
                },
                "wall_time_s": round(wall, 3),
                "stages": self.stages,
            }
            (self.out_dir / "run.json").write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n"
            )
        return 1 if self.checks_failed else 0


def _default_jobs() -> int:
    env = os.environ.get("RO_AC0_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise UsageError(f"{text!r} divides by zero") from None


def _pmap(fn, items: list, jobs: int) -> list:
    # order-preserving map; results never depend on the worker count
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: it costs every process start some 20 ms, and one job needs no pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs))))


# -- subcommands --------------------------------------------------------------


def cmd_describe(args) -> int:
    rep = Reporter(args)
    c = load_circuit(args.circuit)
    with rep.stage("describe", c.size):
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
    rep = Reporter(args)
    c = load_circuit(args.circuit)
    with rep.stage("fourier", c.n + 1):
        lp = fmod.level_profile_recursive(c)
    rows = [
        (k, str(a), str(s), fmod._float_or_inf(a), fmod._float_or_inf(s))
        for k, (a, s) in enumerate(zip(lp.abs_mass, lp.signed_sum))
    ]
    data = {
        "n": c.n,
        "depth": c.depth,
        "total_mass": fmod.total_mass(lp),
        "damped": {},
    }
    for p in args.p:  # the exact fold, rounded once
        data["damped"][str(p)] = fmod._float_or_inf(fmod.damped_mass_recursive(c, p, exact=True))
    if args.check:
        if c.n > fmod.WHT_CAP:
            raise UsageError(f"--check needs n <= {fmod.WHT_CAP}")
        with rep.stage("transform", 1 << c.n):
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
    print(f"total mass {fmod._float_or_inf(data['total_mass']):.6g} over {c.n} levels")
    return rep.finish()


def _bounds_task(item):
    idx, c, eps_opt, p_opt = item
    eps = eps_opt if eps_opt is not None else Fraction(1, c.n)
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
    rep = Reporter(args)
    eps = None if args.eps is None else _fraction(args.eps)
    circuits = load_corpus(args.corpus)
    items = [(i, c, eps, args.p) for i, c in enumerate(circuits)]
    with rep.stage("bounds", len(items)):
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


def _bp_planes(n: int, seed: int) -> np.ndarray:
    """uint8 bit planes (row v = variable v) of the inputs ``bp`` checks: all
    2^n for n <= 14, else 10,000 ``random.Random(seed ^ 0xB9)`` draws."""
    if n <= 14:
        return np.stack([fmod.variable_pattern(v, n) for v in range(n)])
    rng = random.Random(seed ^ 0xB9)
    width = (n + 7) // 8
    raw = b"".join(rng.randrange(1 << n).to_bytes(width, "little") for _ in range(10_000))
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(-1, width),
                         axis=1, count=n, bitorder="little")
    return np.ascontiguousarray(bits.T)


def _bp_task(item):
    idx, c, witnesses, seed = item
    b = bpmod.bp_from_circuit(c)
    width_ok = b.width <= max(c.depth, 1) + 1
    planes = _bp_planes(c.n, seed)
    size = planes.shape[1]
    column = lambda v: planes[v].copy()  # noqa: E731  (evaluate_columns writes into it)
    # both sides are arrays of 0/1 bytes, so equal bytes mean equal values
    accepted = bpmod.bp_run(b, column, size) == 1
    equal = accepted.tobytes() == evaluate_columns(c, column, size).tobytes()
    wit_ok = 0
    rng = random.Random(seed)
    for _ in range(witnesses):
        i = rng.randint(1, b.length)
        j = rng.randint(i, b.length)
        d1 = rng.randint(1, b.width)
        d2 = rng.randint(1, b.width)
        w = bpmod.bp_slice_witness(b, i, j, d1, d2)
        sub = bpmod.bp_subprogram(b, i, j)
        reached = bpmod.bp_run(sub, column, size, start=d1) == d2
        wit_ok += reached.tobytes() == evaluate_columns(w, column, size).tobytes()
    return (idx, c.n, c.depth, b.width, b.length, width_ok, equal, wit_ok, witnesses)


def cmd_bp(args) -> int:
    rep = Reporter(args)
    if args.witnesses < 0:
        raise UsageError(f"--witnesses {args.witnesses} is negative")
    circuits = load_corpus(args.corpus)
    items = [(i, c, args.witnesses, args.seed + i) for i, c in enumerate(circuits)]
    with rep.stage("bp", len(items)):
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
    if args.max_error is not None and np.isnan(args.max_error):
        raise UsageError("--max-error is not a number")
    rep = Reporter(args)
    c = load_circuit(args.circuit)
    gen = _build_expander(args, c.n)
    if gen.seed_bits > prgmod.MC_BATCH_BITS:  # each seed would expand alone
        raise UsageError(f"{gen.seed_bits} seed bits exceed one batch, {prgmod.MC_BATCH_BITS}")
    mode = "exhaustive" if args.exhaustive else "mc"
    seeds = 1 << gen.seed_bits if args.exhaustive else args.trials
    with rep.stage("prg", seeds):
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
    rep = Reporter(args)
    c = load_circuit(args.circuit)
    eps = _fraction(args.eps)
    with rep.stage("experiment", args.trials):
        r = shmod.shrink_experiment(
            c, args.p, eps, trials=args.trials, master_seed=args.seed,
            threshold=args.threshold,
        )
    with rep.stage("report", r.trials):
        rep.add_json("shrink.json", r.as_dict())
        rep.add_csv(
            "sizes.csv",
            ["trial", "size_lower", "size_upper", "size_max", "size_original", "fanin_max"],
            np.column_stack([np.arange(r.trials), r.sizes_lower, r.sizes_upper,
                             r.sizes_max, r.sizes_original, r.fanin_max]),
        )
    print(
        f"quantile({r.quantile_level:.4g}) of restricted sandwich size = "
        f"{r.quantile_value} over {r.trials} trials"
    )
    if args.threshold is not None:
        rep.check(f"size quantile <= {args.threshold}", bool(r.passed))
    return rep.finish()


# -- argument parsing ---------------------------------------------------------


def _add_common(sp, corpus: bool = False):
    if corpus:
        sp.add_argument("--corpus", required=True, help="circuit or corpus spec")
        sp.add_argument("--jobs", type=int, default=None)
    else:
        sp.add_argument("--circuit", required=True, help="circuit spec or file")
    sp.add_argument("--out", default=None, help="directory for data files + run.json")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call.

    Parsing leaves it unchanged, so one parser serves every ``main`` call in
    a process.  ``--jobs`` defaults to None, which ``main`` replaces with
    ``RO_AC0_JOBS`` at each call.
    """
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
    sp.add_argument("--trials", type=int, default=10_000,
                    help="restrictions to draw, at most 2^22")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threshold", type=float, default=None,
                    help="fail (exit 1) if the size quantile exceeds this")
    sp.set_defaults(fn=cmd_shrink)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", 0) is None:
        args.jobs = _default_jobs()
    try:
        return args.fn(args)
    except (CircuitError, ValueError, OSError) as e:  # UsageError is a CircuitError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
