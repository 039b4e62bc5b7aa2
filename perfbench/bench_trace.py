"""Span tracing for the traced benchmark run, installed from outside roac0.

Every roac0 module imports its helpers by name (``from .circuit import
evaluate``), so a function is wrapped once under every name a caller looks
it up by: ``roac0.cli.evaluate`` and ``roac0.circuit.evaluate`` are two
patches of the same function.  Nothing under ``src/`` changes; the patches
are removed again after each traced pass.

Ordinary calls become spans (name, parent, start, end, self time, a few
call facts).  Functions called millions of times per pass (``hot`` in
``WRAPS``) keep only a count and summed inclusive and self time.  A span's
self time is its duration minus the time its child spans and hot calls
cover.  Spans stay in memory; run.py writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import os
import statistics
from collections import defaultdict
from time import perf_counter


def _arg(args, kwargs, index, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


def _report_bytes(args, kwargs, result):
    out_dir = args[0].out_dir
    if out_dir is None or not out_dir.is_dir():
        return {"bytes": 0}
    return {"bytes": sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())}


def _fooling_info(args, kwargs, result):
    kind = type(_arg(args, kwargs, 1, "expander")).__name__
    return {"seeds": result.seeds_used, "mc_" + kind: 1 if result.mode == "mc" else 0}


# (span name, hot, call facts, [(module, attribute path), ...]): every name
# under which some caller looks the function up.
WRAPS = [
    ("circuit.evaluate", True, None,
     [("roac0.circuit", "evaluate"), ("roac0.cli", "evaluate")]),
    ("circuit.acceptance", False, None,
     [(m, "acceptance_probability") for m in (
         "roac0.circuit", "roac0.cli", "roac0.fourier", "roac0.prg", "roac0.shrinkage")]),
    ("circuit.simplify", False, None,
     [("roac0.circuit", "simplify"), ("roac0.bp", "simplify"), ("roac0.shrinkage", "simplify")]),
    ("circuit.to_nand_form", False, None, [("roac0.circuit", "to_nand_form")]),
    ("circuit.push_nots", False, None,
     [(m, "push_nots_to_leaves") for m in ("roac0.circuit", "roac0.fourier", "roac0.shrinkage")]),
    ("circuit.strip_negations", False, None,
     [("roac0.circuit", "strip_leaf_negations"), ("roac0.shrinkage", "strip_leaf_negations")]),
    ("circuit.generate", False, None,
     [(m, f) for m in ("roac0.circuit", "roac0.cli")
      for f in ("gen_random_read_once", "gen_tribes", "gen_recursive_tribes")]),
    ("fourier.truth_table", False, None,
     [("roac0.fourier", "truth_table"), ("roac0.prg", "truth_table")]),
    ("fourier.wht", False, lambda a, k, r: {"points": 1 << a[0].n},
     [("roac0.fourier", "wht_bruteforce")]),
    ("fourier.level_profile", False, None,
     [("roac0.fourier", "level_profile_recursive"), ("roac0.prg", "level_profile_recursive")]),
    ("fourier.damped_recursive", False, None, [("roac0.fourier", "damped_mass_recursive")]),
    ("fourier.mainbound", False, None, [("roac0.fourier", "check_mainbound")]),
    ("fourier.biased_gap", False, None,
     [("roac0.fourier", "biased_gap"), ("roac0.shrinkage", "biased_gap")]),
    ("bp.convert", False, None, [("roac0.bp", "bp_from_circuit")]),
    ("bp.evaluate", True, None, [("roac0.bp", "bp_evaluate")]),
    ("bp.accepts", True, None, [("roac0.bp", "bp_accepts")]),
    ("bp.witness", False, None, [("roac0.bp", "bp_slice_witness")]),
    ("prg.expand.smallbias", True, None, [("roac0.prg", "SmallBiasGen.expand")]),
    ("prg.expand.restriction", True, None, [("roac0.prg", "RestrictionPRG.expand")]),
    ("prg.distribution", False, lambda a, k, r: {"seeds": 1 << a[0].seed_bits},
     [("roac0.prg", "output_distribution")]),
    ("prg.measure_bias", False, None, [("roac0.prg", "measure_bias")]),
    ("prg.fooling", False, _fooling_info, [("roac0.prg", "fooling_error")]),
    ("shrinkage.collapse", False,
     lambda a, k, r: {"trials": r.trials, "alive": round(r.estimate * r.trials)},
     [("roac0.shrinkage", "collapse_probability")]),
    ("shrinkage.sandwich", False, None, [("roac0.shrinkage", "build_sandwich")]),
    ("shrinkage.shrink", False, lambda a, k, r: {"trials": r.trials},
     [("roac0.shrinkage", "shrink_experiment")]),
    ("cli.load", False, None, [("roac0.cli", "load_corpus"), ("roac0.cli", "load_circuit")]),
    ("cli.report", False, _report_bytes, [("roac0.cli", "Reporter.finish")]),
    ("cli.main", False, None, [("roac0.cli", "main")]),
]


class Tracer:
    """Collects spans and hot-call aggregates while installed."""

    def __init__(self):
        self._stack: list[list] = []  # open frames: [span id, child seconds]
        self._patches: list[tuple] = []
        self._next_id = 0
        self.spans: list[tuple] = []  # (id, parent id, name, t0, t1, self_s, facts)
        self.hot: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self

    def _span(self, name, fn, facts):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
            info = facts(args, kwargs, result) if facts else {}
            spans.append((frame[0], parent, name, t0, t1, t1 - t0 - frame[1], info))
            return result

        return traced

    def _hot(self, name, fn):
        stack, agg = self._stack, self.hot[name]

        def traced(*args, **kwargs):
            frame = [0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]

        return traced

    def install(self) -> None:
        for name, hot, facts, targets in WRAPS:
            for module, path in targets:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                wrapped = self._hot(name, fn) if hot else self._span(name, fn, facts)
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def take(self) -> "Record":
        """Everything recorded since the last take, as one record."""
        rec = Record(self.spans, dict(self.hot))
        self.spans = []
        self.hot = defaultdict(lambda: [0, 0.0, 0.0])
        return rec


class Record:
    """Spans and hot aggregates of one phase (set-up or one traced pass)."""

    def __init__(self, spans, hot):
        self.spans = spans
        self.hot = {k: tuple(v) for k, v in hot.items()}
        names = {sid: name for sid, _, name, *_ in spans}
        parents = {sid: parent for sid, parent, *_ in spans}
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.facts = defaultdict(float)
        self.durations = defaultdict(list)
        for sid, parent, name, t0, t1, self_s, info in spans:
            self.self_s[name] += self_s
            self.calls[name] += 1
            self.durations[name].append(t1 - t0)
            for key, value in info.items():
                self.facts[f"{name}:{key}"] += value
            # inclusive time counts only the outermost span of a name
            p = parent
            while p and names.get(p) != name:
                p = parents.get(p)
            if not p:
                self.incl[name] += t1 - t0
        for name, (calls, total, self_s) in self.hot.items():
            self.incl[name] += total
            self.self_s[name] += self_s
            self.calls[name] += calls

    def attributed_s(self) -> float:
        return sum(self.self_s.values())


# name -> (unit, better, the end-to-end metric and workload it should move);
# the order is the order of the output.  A layer that does no work on a
# workload reads 0 there.
LAYER_METRICS = {
    "fourier.level_profile.s": ("s", "lower", "solve_s: spectral_sweep, restriction_mc"),
    "fourier.level_profile.calls": ("count", "lower", "solve_s: spectral_sweep"),
    "fourier.mainbound.ms_p50": ("ms", "lower", "solve_s: spectral_sweep"),
    "fourier.mainbound.ms_p98": ("ms", "lower", "solve_s: spectral_sweep"),
    "fourier.wht.s": ("s", "lower", "solve_s: spectral_sweep"),
    "fourier.wht.points_per_s": ("1/s", "higher", "solve_s: spectral_sweep"),
    "fourier.truth_table.s": ("s", "lower", "solve_s: spectral_sweep, generator_sweep"),
    "fourier.damped_recursive.s": ("s", "lower", "solve_s: spectral_sweep"),
    "fourier.biased_gap.s": ("s", "lower", "solve_s: restriction_mc"),
    "fourier.float_rel_err": ("ratio", "lower", "none: accuracy of the float damped mass"),
    "circuit.acceptance.s": ("s", "lower", "solve_s: spectral_sweep, restriction_mc"),
    "circuit.acceptance.calls": ("count", "lower", "solve_s: spectral_sweep, restriction_mc"),
    "circuit.evaluate.calls": ("count", "lower", "solve_s: bp_witness"),
    "circuit.evaluate.us_per_call": ("us", "lower", "solve_s: bp_witness"),
    "circuit.nand_simplify.s": ("s", "lower", "solve_s: restriction_mc"),
    "shrinkage.collapse.self_s": ("s", "lower", "solve_s, peak_rss_mb: restriction_mc"),
    "shrinkage.collapse.trials_per_s": ("1/s", "higher", "solve_s: restriction_mc"),
    "shrinkage.collapse.alive_frac": ("ratio", "higher", "none: fixed by the inputs"),
    "shrinkage.sandwich.s": ("s", "lower", "solve_s: restriction_mc"),
    "shrinkage.shrink.self_s": ("s", "lower", "solve_s: restriction_mc"),
    "shrinkage.shrink.trials_per_s": ("1/s", "higher", "solve_s: restriction_mc"),
    "prg.distribution.s": ("s", "lower", "solve_s, peak_rss_mb: generator_sweep"),
    "prg.distribution.seeds_per_s": ("1/s", "higher", "solve_s: generator_sweep"),
    "prg.bias_transform.self_s": ("s", "lower", "solve_s, peak_rss_mb: generator_sweep"),
    "prg.mc_restriction.seeds_per_s": ("1/s", "higher", "solve_s: generator_sweep"),
    "prg.mc_smallbias.seeds_per_s": ("1/s", "higher", "solve_s: generator_sweep"),
    "prg.fooling.s": ("s", "lower", "solve_s: generator_sweep"),
    "bp.convert.s": ("s", "lower", "solve_s: bp_witness"),
    "bp.accepts.us_per_call": ("us", "lower", "solve_s: bp_witness"),
    "bp.evaluate.calls": ("count", "lower", "solve_s: bp_witness"),
    "bp.evaluate.us_per_call": ("us", "lower", "solve_s: bp_witness"),
    "bp.witness.s": ("s", "lower", "solve_s: bp_witness"),
    "bp.witness.ok_frac": ("ratio", "higher", "none: correctness of the witnesses"),
    "cli.load.s": ("s", "lower", "setup_s: all"),
    "cli.report.s": ("s", "lower", "solve_s: all (small)"),
    "cli.report.bytes": ("bytes", "lower", "solve_s: all (small)"),
    "trace.overhead_frac": ("ratio", "lower", "none: cost of tracing"),
    "trace.unattributed_s": ("s", "lower", "none: time outside every span"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _percentile(values: list, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def layer_metrics(setup: Record, passes: list, pass_walls: list, overhead_frac: float,
                  extra: dict) -> dict:
    """Per-layer values for one set-up plus one pass (the mean traced pass).

    ``extra`` carries the values that come from checked outputs rather than
    spans: ``fourier.float_rel_err`` and ``bp.witness.ok_frac``.
    """
    k = len(passes)

    def total(field: str, name: str) -> float:
        per_pass = sum(getattr(r, field)[name] for r in passes) / k
        return getattr(setup, field)[name] + per_pass

    def incl(*names):
        return sum(total("incl", n) for n in names)

    def self_s(name):
        return total("self_s", name)

    def calls(name):
        return total("calls", name)

    def fact(key):
        return total("facts", key)

    def us_per_call(name):
        return 1e6 * _ratio(incl(name), calls(name))

    mainbound_ms = [1e3 * d for r in passes for d in r.durations["fourier.mainbound"]]
    unattributed = statistics.fmean(w - r.attributed_s() for w, r in zip(pass_walls, passes))
    values = {
        "fourier.level_profile.s": incl("fourier.level_profile"),
        "fourier.level_profile.calls": calls("fourier.level_profile"),
        "fourier.mainbound.ms_p50": _percentile(mainbound_ms, 50),
        "fourier.mainbound.ms_p98": _percentile(mainbound_ms, 98),
        # the transform alone: wht_bruteforce minus the truth table it builds
        "fourier.wht.s": self_s("fourier.wht"),
        "fourier.wht.points_per_s": _ratio(fact("fourier.wht:points"), self_s("fourier.wht")),
        "fourier.truth_table.s": incl("fourier.truth_table"),
        "fourier.damped_recursive.s": incl("fourier.damped_recursive"),
        "fourier.biased_gap.s": incl("fourier.biased_gap"),
        "fourier.float_rel_err": extra["fourier.float_rel_err"],
        "circuit.acceptance.s": incl("circuit.acceptance"),
        "circuit.acceptance.calls": calls("circuit.acceptance"),
        "circuit.evaluate.calls": calls("circuit.evaluate"),
        "circuit.evaluate.us_per_call": us_per_call("circuit.evaluate"),
        "circuit.nand_simplify.s": incl("circuit.to_nand_form", "circuit.simplify"),
        "shrinkage.collapse.self_s": self_s("shrinkage.collapse"),
        "shrinkage.collapse.trials_per_s": _ratio(
            fact("shrinkage.collapse:trials"), self_s("shrinkage.collapse")),
        "shrinkage.collapse.alive_frac": _ratio(
            fact("shrinkage.collapse:alive"), fact("shrinkage.collapse:trials")),
        "shrinkage.sandwich.s": incl("shrinkage.sandwich"),
        "shrinkage.shrink.self_s": self_s("shrinkage.shrink"),
        "shrinkage.shrink.trials_per_s": _ratio(
            fact("shrinkage.shrink:trials"), self_s("shrinkage.shrink")),
        "prg.distribution.s": incl("prg.distribution"),
        "prg.distribution.seeds_per_s": _ratio(
            fact("prg.distribution:seeds"), incl("prg.distribution")),
        "prg.bias_transform.self_s": self_s("prg.measure_bias"),
        "prg.mc_restriction.seeds_per_s": _mc_rate(passes, "RestrictionPRG"),
        "prg.mc_smallbias.seeds_per_s": _mc_rate(passes, "SmallBiasGen"),
        "prg.fooling.s": incl("prg.fooling"),
        "bp.convert.s": incl("bp.convert"),
        "bp.accepts.us_per_call": us_per_call("bp.accepts"),
        "bp.evaluate.calls": calls("bp.evaluate"),
        "bp.evaluate.us_per_call": us_per_call("bp.evaluate"),
        "bp.witness.s": incl("bp.witness"),
        "bp.witness.ok_frac": extra["bp.witness.ok_frac"],
        "cli.load.s": incl("cli.load"),
        "cli.report.s": incl("cli.report"),
        "cli.report.bytes": fact("cli.report:bytes"),
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_s": unattributed,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _, _) in LAYER_METRICS.items()}


def _mc_rate(passes: list, kind: str) -> float:
    """Seeds per second of Monte-Carlo fooling_error calls on one expander kind."""
    seeds = seconds = 0.0
    for r in passes:
        for _, _, name, t0, t1, _, info in r.spans:
            if name == "prg.fooling" and info.get("mc_" + kind):
                seeds += info["seeds"]
                seconds += t1 - t0
    return _ratio(seeds, seconds)


def span_dump(setup: Record, passes: list) -> dict:
    """JSON-ready spans, written out once the run has ended."""
    def rows(rec):
        return {
            "spans": [
                {"id": sid, "parent": parent, "name": name, "start": t0, "end": t1,
                 "self_s": self_s, **info}
                for sid, parent, name, t0, t1, self_s, info in rec.spans
            ],
            "hot": {name: {"calls": c, "total_s": t, "self_s": s}
                    for name, (c, t, s) in rec.hot.items()},
        }
    return {"pid": os.getpid(), "setup": rows(setup), "passes": [rows(r) for r in passes]}
