"""The four pinned workloads: their inputs, timed steps and output checks.

A workload is built from the run's seed (every corpus, circuit and
Monte-Carlo seed derives from it) and is a list of steps.  Each step has a
timed call into roac0's public entry points (``roac0.cli.main`` where a
subcommand exists) and an untimed check of what the call produced.  Checks
count attempted and failed oracle comparisons and feed a digest of every
exact output and every Monte-Carlo hit count, so two runs of the same code
and seed can be compared byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from roac0 import circuit, cli, fourier, prg, shrinkage

# Trial counts are scaled so one pass of each workload takes a few seconds
# on a 2-core machine, and long sweeps are split into several calls of under
# a second, so each step's best time over a run's passes can dodge bursts of
# load from other processes.  ``smoke`` shrinks everything so the plumbing
# self-check runs in seconds.
SHAPES = {
    "full": {
        "bounds": "n=64,d=4,count=50", "bounds_calls": 10,
        "oracle": "n=20,d=4,count=100", "oracle_chunks": 4, "probe_leaves": 2000,
        "collapse_n": 512, "collapse_trials": 20_000, "shrink_trials": 10_000,
        "tribes": "tribes:m=128,w=8", "rectribes": "rectribes:d=3,widths=8-16-8",
        "bias_gen": (11, 22), "exh_n": 20, "exh_ell": 10,
        "rprg_n": 16, "rprg_trials": 400, "rprg_calls": 4,
        "sb_n": 20, "sb_ell": 12, "sb_trials": 10_000, "sb_calls": 4,
        "bp_n": 14, "bp_circuits": 12, "bp_witnesses": 4,
    },
    "smoke": {
        "bounds": "n=24,d=4,count=10", "bounds_calls": 2,
        "oracle": "n=10,d=4,count=6", "oracle_chunks": 2, "probe_leaves": 2000,
        "collapse_n": 64, "collapse_trials": 2000, "shrink_trials": 500,
        "tribes": "tribes:m=8,w=4", "rectribes": "rectribes:d=3,widths=2-4-2",
        "bias_gen": (6, 12), "exh_n": 10, "exh_ell": 6,
        "rprg_n": 8, "rprg_trials": 20, "rprg_calls": 2,
        "sb_n": 10, "sb_ell": 8, "sb_trials": 500, "sb_calls": 2,
        "bp_n": 8, "bp_circuits": 2, "bp_witnesses": 2,
    },
}

Z_WILSON = 4.0  # Monte-Carlo estimates must sit inside this Wilson interval


def sub_seed(seed: int, tag: str) -> int:
    """A 32-bit seed for one input, derived from the run's seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{tag}".encode()).digest()[:4], "big")


class Checks:
    """Attempted/failed oracle comparisons plus a digest of exact outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._digest = hashlib.sha256()

    def expect(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def record(self, *parts) -> None:
        for part in parts:
            self._feed(part)

    def _feed(self, part) -> None:
        if isinstance(part, (list, tuple)):
            self._digest.update(b"[%d" % len(part))
            for item in part:
                self._feed(item)
            return
        if isinstance(part, Fraction):
            # exact values can outgrow int-to-str limits, so hash their bytes
            data = b"/".join(v.to_bytes(v.bit_length() // 8 + 1, "big", signed=True)
                             for v in (part.numerator, part.denominator))
        elif isinstance(part, bytes):
            data = part
        else:
            data = repr(part).encode()
        self._digest.update(type(part).__name__.encode() + len(data).to_bytes(8, "big") + data)

    def digest(self) -> str:
        return self._digest.hexdigest()


@dataclass
class Step:
    name: str
    run: Callable[[], Any]  # timed
    check: Callable[[Any, Checks], None]  # untimed


@dataclass
class Workload:
    steps: list
    float_errors: list  # relative errors of float paths against exact, filled by checks
    witness_counts: list  # [ok, attempted] slice witnesses, filled by checks


# -- shared helpers ------------------------------------------------------------


def run_cli(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def data_files(out_dir: Path) -> dict:
    """Contents of the data files a CLI run wrote (run.json holds wall time)."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.name != "run.json"}


def read_csv(out_dir: Path, name: str) -> list:
    with open(out_dir / name, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text())


def cli_step(name: str, argv: list, out_root: Path, check) -> Step:
    """A timed ``roac0`` subcommand writing into its own output directory."""
    out = out_root / name

    def verify(code, checks):
        checks.expect(f"{name}: exit code {code}", code == 0)
        files = data_files(out) if out.is_dir() else {}
        checks.record(name, sorted(files.items()))
        check(out, checks)
        shutil.rmtree(out, ignore_errors=True)

    return Step(name, lambda: run_cli(argv + ["--out", out]), verify)


def uniform_acceptance(c) -> Fraction:
    return circuit.acceptance_probability(c, circuit.BiasVector.uniform(c.n))


def nonconstant_probability(c, p: float) -> Fraction:
    """Exact Pr[a p-regular restriction leaves c nonconstant].

    On the monotonized circuit the restriction is nonconstant exactly when
    free bits set to 1 accept and free bits set to 0 reject, so the
    probability is acc((1+p)/2) - acc((1-p)/2), computed here independently
    of the library's biased-gap route.
    """
    mono = circuit.strip_leaf_negations(circuit.push_nots_to_leaves(c))
    pf = Fraction(p)
    hi = circuit.acceptance_probability(mono, circuit.BiasVector.constant(c.n, (1 + pf) / 2))
    lo = circuit.acceptance_probability(mono, circuit.BiasVector.constant(c.n, (1 - pf) / 2))
    return hi - lo


def wilson_contains(hits: int, trials: int, lo_value: float, hi_value: float | None = None) -> bool:
    """Does the z=4 Wilson interval of hits/trials meet [lo_value, hi_value]?"""
    lo, hi = prg.wilson_interval(hits, trials, z=Z_WILSON)
    hi_value = lo_value if hi_value is None else hi_value
    return lo <= hi_value and lo_value <= hi


def rel_err(approx, exact) -> float:
    exact = Fraction(exact)
    if exact == 0:
        return 0.0 if approx == 0 else float("inf")
    return float(abs(Fraction(approx) - exact) / abs(exact))


def probe_circuit(shape: dict):
    """The pinned accuracy probe: float damped mass underflows on it."""
    return cli.load_circuit(f"random:n={shape['probe_leaves']},d=3,seed=2")


def probe_damped(c) -> tuple:
    half = Fraction(1, 2)
    return (fourier.damped_mass_recursive(c, 0.5),
            fourier.damped_mass_recursive(c, half, exact=True))


# -- workloads -----------------------------------------------------------------


def spectral_sweep(seed: int, shape: dict, out_root: Path) -> Workload:
    bounds_specs = [f"random:{shape['bounds']},seed={sub_seed(seed, f'bounds{i}')}"
                    for i in range(shape["bounds_calls"])]
    bounds_corpora = [cli.load_corpus(spec) for spec in bounds_specs]
    oracle = cli.load_corpus(f"random:{shape['oracle']},seed={sub_seed(seed, 'oracle')}")
    probe = probe_circuit(shape)
    wl = Workload([], [], [0, 0])

    def check_bounds(out, checks, corpus):
        rows = read_csv(out, "bounds.csv") if (out / "bounds.csv").exists() else []
        checks.expect("bounds: one row per circuit",
                      [int(r["n"]) for r in rows] == [c.n for c in corpus])
        for row in rows:
            checks.expect(f"bounds: circuit {row['index']} verdict", row["passed"] == "True")

    def check_oracle(results, checks, circuits):
        half = Fraction(1, 2)
        for c, (lp, (abs_w, sgn_w)) in zip(circuits, results):
            checks.expect("oracle: recursion equals transform",
                          list(lp.abs_mass) == abs_w and list(lp.signed_sum) == sgn_w)
            exact = fourier.damped_mass_recursive(c, half, exact=True)
            checks.expect("oracle: damped mass from profile equals recursion",
                          fourier.damped_mass(lp, half) == exact)
            wl.float_errors.append(rel_err(fourier.damped_mass_recursive(c, 0.5), exact))
            checks.record(lp.abs_mass, lp.signed_sum, exact)

    def oracle_step(i: int, circuits: list) -> Step:
        def run():
            return [(fourier.level_profile_recursive(c), fourier.wht_bruteforce(c).level_sums())
                    for c in circuits]
        return Step(f"oracle{i}", run,
                    lambda results, checks: check_oracle(results, checks, circuits))

    def check_probe(values, checks):
        approx, exact = values
        checks.record(exact)
        wl.float_errors.append(rel_err(approx, exact))

    k = shape["oracle_chunks"]
    wl.steps = [
        cli_step(f"bounds{i}", ["bounds", "--corpus", spec, "--jobs", 1], out_root,
                 lambda out, checks, corpus=corpus: check_bounds(out, checks, corpus))
        for i, (spec, corpus) in enumerate(zip(bounds_specs, bounds_corpora))
    ]
    wl.steps += [oracle_step(i, oracle[i::k]) for i in range(k)]
    wl.steps.append(Step("damped_probe", lambda: probe_damped(probe), check_probe))
    return wl


def restriction_mc(seed: int, shape: dict, out_root: Path) -> Workload:
    n = shape["collapse_n"]
    collapse_c = cli.load_circuit(f"random:n={n},d=3,seed={sub_seed(seed, 'collapse')}")
    wl = Workload([], [], [0, 0])
    p_collapse, eps_collapse = 0.01, 1 / 1024

    def run_collapse():
        return shrinkage.collapse_probability(
            collapse_c, p_collapse, eps_collapse, trials=shape["collapse_trials"],
            master_seed=sub_seed(seed, "collapse_mc"), enforce_bounds=False)

    def check_collapse(r, checks):
        exact = nonconstant_probability(collapse_c, p_collapse)
        hits = round(r.estimate * r.trials)
        checks.expect("collapse: exact identity agrees", r.exact == exact)
        checks.expect("collapse: MC inside Wilson interval of exact",
                      wilson_contains(hits, r.trials, float(exact)))
        checks.record(r.exact, hits, r.trials)

    steps = [Step("collapse", run_collapse, check_collapse)]
    for tag, spec, p in (("tribes", shape["tribes"], 0.025),
                         ("rectribes", shape["rectribes"], 0.0025)):
        c = cli.load_circuit(spec)

        def check_shrink(out, checks, c=c, p=p, tag=tag):
            data = read_json(out, "shrink.json")
            exact = nonconstant_probability(c, p)
            hits = round(data["nonconstant_original"] * data["trials"])
            checks.expect(f"shrink {tag}: MC inside Wilson interval of exact",
                          wilson_contains(hits, data["trials"], float(exact)))

        argv = ["shrink", "--circuit", spec, "--p", p, "--eps", "1/16",
                "--trials", shape["shrink_trials"], "--seed", sub_seed(seed, tag)]
        steps.append(cli_step(f"shrink_{tag}", argv, out_root, check_shrink))
    wl.steps = steps
    return wl


def generator_sweep(seed: int, shape: dict, out_root: Path) -> Workload:
    ell, n_out = shape["bias_gen"]
    specs = {tag: f"random:n={shape[key]},d=3,seed={sub_seed(seed, tag)}"
             for tag, key in (("exhaustive", "exh_n"), ("restriction", "rprg_n"),
                              ("smallbias_mc", "sb_n"))}
    circuits = {tag: cli.load_circuit(spec) for tag, spec in specs.items()}
    wl = Workload([], [], [0, 0])

    def check_bias(bias, checks):
        checks.expect("measure_bias: within bias_bound",
                      bias <= prg.SmallBiasGen(ell, n_out).bias_bound)
        checks.record(bias)

    def fooling_slack(tag: str, gen_ell: int) -> tuple:
        """Exact E[F] and the small-bias fooling bound (n / 2^ell) * L(F)."""
        c = circuits[tag]
        mass = fourier.total_mass(fourier.level_profile_recursive(c))
        return uniform_acceptance(c), prg.SmallBiasGen(gen_ell, c.n).bias_bound * mass

    def check_exhaustive(out, checks):
        data = read_json(out, "prg.json")
        exact, slack = fooling_slack("exhaustive", shape["exh_ell"])
        checks.expect("prg exhaustive: exact expectation",
                      data["exact_expectation"] == float(exact))
        checks.expect("prg exhaustive: error within bias * L(F)",
                      data["abs_error"] <= float(slack) * (1 + 1e-12))

    def check_restriction(out, checks):
        data = read_json(out, "prg.json")
        c = circuits["restriction"]
        checks.expect("prg restriction: exact expectation",
                      data["exact_expectation"] == float(uniform_acceptance(c)))
        checks.expect("prg restriction: all seeds used", data["seeds_used"] == shape["rprg_trials"])
        lo, hi = data["ci"]
        checks.expect("prg restriction: estimate inside its interval",
                      lo <= data["generator_expectation"] <= hi)

    def check_smallbias(out, checks):
        data = read_json(out, "prg.json")
        exact, slack = fooling_slack("smallbias_mc", shape["sb_ell"])
        trials = data["seeds_used"]
        hits = round(data["generator_expectation"] * trials)
        checks.expect("prg smallbias MC: Wilson interval meets E[F] +- bias * L(F)",
                      wilson_contains(hits, trials, float(exact - slack), float(exact + slack)))

    wl.steps = [
        Step("measure_bias", lambda: prg.measure_bias(prg.SmallBiasGen(ell, n_out)), check_bias),
        cli_step("prg_exhaustive",
                 ["prg", "--circuit", specs["exhaustive"], "--mode", "smallbias",
                  "--ell", shape["exh_ell"], "--exhaustive"], out_root, check_exhaustive),
    ]
    wl.steps += [
        cli_step(f"prg_restriction{i}",
                 ["prg", "--circuit", specs["restriction"], "--mode", "restriction",
                  "--eps", 0.0625, "--a", 1, "--trials", shape["rprg_trials"],
                  "--seed", sub_seed(seed, f"restriction_mc{i}")], out_root, check_restriction)
        for i in range(shape["rprg_calls"])
    ]
    wl.steps += [
        cli_step(f"prg_smallbias_mc{i}",
                 ["prg", "--circuit", specs["smallbias_mc"], "--mode", "smallbias",
                  "--ell", shape["sb_ell"], "--trials", shape["sb_trials"],
                  "--seed", sub_seed(seed, f"smallbias_seeds{i}")], out_root, check_smallbias)
        for i in range(shape["sb_calls"])
    ]
    return wl


def bp_witness(seed: int, shape: dict, out_root: Path) -> Workload:
    specs = [f"random:n={shape['bp_n']},d=4,seed={sub_seed(seed, f'bp{i}')}"
             for i in range(shape["bp_circuits"])]
    corpora = [cli.load_corpus(spec) for spec in specs]
    wl = Workload([], [], [0, 0])

    def check_bp(out, checks, corpus):
        rows = read_csv(out, "bp.csv")
        checks.expect("bp: one row per circuit",
                      [int(r["n"]) for r in rows] == [c.n for c in corpus])
        for row in rows:
            checks.expect("bp: width within depth + 1", row["width_ok"] == "True")
            checks.expect("bp: program equals circuit", row["equivalent"] == "True")
            ok, tried = int(row["witnesses_ok"]), int(row["witnesses"])
            checks.expect("bp: slice witnesses correct", ok == tried)
            wl.witness_counts[0] += ok
            wl.witness_counts[1] += tried

    wl.steps = [
        cli_step(f"bp{i}", ["bp", "--corpus", spec, "--witnesses", shape["bp_witnesses"],
                            "--seed", sub_seed(seed, f"bp_witness{i}"), "--jobs", 1],
                 out_root, lambda out, checks, corpus=corpus: check_bp(out, checks, corpus))
        for i, (spec, corpus) in enumerate(zip(specs, corpora))
    ]
    return wl


BUILDERS = {
    "spectral_sweep": spectral_sweep,
    "restriction_mc": restriction_mc,
    "generator_sweep": generator_sweep,
    "bp_witness": bp_witness,
}


def build(name: str, seed: int, shape: str, out_root: Path) -> Workload:
    """Make the workload's inputs: the set-up that ``setup_s`` times."""
    return BUILDERS[name](seed, SHAPES[shape], out_root)


def clear_caches() -> None:
    """Empty roac0's lru_cache tables so every step starts cold, as a CLI run does."""
    for fn in (prg._alpha_power_rows, prg._distribution_cached, prg._block_table):
        fn.cache_clear()
