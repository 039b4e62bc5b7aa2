"""End-to-end acceptance gate: twelve checks with pinned tolerances and budgets.

Each test covers one release criterion, prints a single verdict line with its
elapsed time, and fails if the check or its runtime budget is violated.  All
randomness is seeded; reruns are bit-for-bit repeatable.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np

from conftest import gap_paths, random_corpus
from roac0 import (
    Circuit,
    acceptance_probability,
    evaluate,
    gen_random_read_once,
    gen_recursive_tribes,
    gen_tribes,
    parse,
    to_nand_form,
)
from roac0.bp import (
    bp_from_circuit,
    bp_slice_witness,
    bp_state_functions,
    bp_subprogram,
)
from roac0.circuit import BiasVector
from roac0.cli import main as cli_main
from roac0.fourier import (
    boundary_p,
    check_mainbound,
    damped_mass,
    level_profile_recursive,
    truth_table,
    wht_bruteforce,
)
from roac0.prg import RestrictionPRG, SmallBiasGen, check_sandwich_fooling, measure_bias, output_distribution, wilson_interval
from roac0.shrinkage import (
    build_sandwich,
    collapse_probability,
    sandwich_condition_violations,
    shrink_experiment,
)

MASTER_SEED = 2026


def _verdict(num: int, label: str, t0: float, budget: float) -> None:
    dt = time.perf_counter() - t0
    assert dt < budget, f"criterion {num} took {dt:.1f}s, budget {budget}s"
    print(f"[PASS] criterion {num:2d}: {label} ({dt:.1f}s < {budget:.0f}s)")


def _bp_truth_table(b) -> np.ndarray:
    """Acceptance of the program on every input of its variable span."""
    n = max(b.var_order) + 1 if b.var_order else 1
    tab = bp_state_functions(b)[(1, 1)]
    x = np.arange(1 << n, dtype=np.int64)
    e = np.zeros(1 << n, dtype=np.int64)
    for t, v in enumerate(b.var_order):
        e |= ((x >> v) & 1) << t
    return tab[e]


def test_criterion_01_level_masses_match_exhaustive_transform():
    t0 = time.perf_counter()
    for c in random_corpus(500, 14, 4, seed=101):
        abs_w, sgn_w = wht_bruteforce(c).level_sums()
        lp = level_profile_recursive(c)  # exact rationals
        assert list(lp.abs_mass) == list(abs_w)
        assert list(lp.signed_sum) == list(sgn_w)
        lf = level_profile_recursive(c, exact=False)
        for k in range(c.n + 1):
            assert abs(lf.abs_mass[k] - float(abs_w[k])) <= 1e-10
            assert abs(lf.signed_sum[k] - float(sgn_w[k])) <= 1e-10
    _verdict(1, "recursion equals exhaustive transform on 500 circuits", t0, 120)


def test_criterion_02_damped_mass_bound_nonnegative_slack():
    t0 = time.perf_counter()
    failures = 0
    for c in random_corpus(500, 64, 4, seed=202):
        rep = check_mainbound(c, Fraction(1, c.n))
        if not rep.passed or rep.slack < 0:
            failures += 1
    assert failures == 0
    _verdict(2, "bound holds at the damping boundary, eps = 1/n, 500 circuits", t0, 60)


def test_criterion_03_and_gate_closed_form():
    t0 = time.perf_counter()
    for k in range(1, 31):
        c = Circuit(parse(f"(and {' '.join(f'x{i}' for i in range(k))})").root, k)
        lp = level_profile_recursive(c)
        for p in (0.1, 0.5, 1.0):
            want = (p / 2 + 0.5) ** k - 0.5**k
            assert abs(damped_mass(lp, p) - want) <= 1e-12
    _verdict(3, "conjunction damped mass matches closed form to 1e-12", t0, 30)


def test_criterion_04_biased_gap_three_way_agreement():
    t0 = time.perf_counter()
    for c in random_corpus(200, 14, 4, seed=404):
        for p in (0.05, 0.25, -0.05, -0.25):
            vals = list(gap_paths(c, p).values())
            assert max(vals) - min(vals) <= 1e-12
    _verdict(4, "signed sum, measure difference, and table agree on 200 circuits", t0, 60)


def test_criterion_05_branching_program_equivalence_and_witnesses():
    t0 = time.perf_counter()
    corpus = random_corpus(40, 16, 4, seed=505) + [gen_tribes(2, 2), gen_tribes(4, 4)]
    rng = random.Random(MASTER_SEED)
    for c in corpus:
        b = bp_from_circuit(c)
        assert b.width <= max(c.depth, 1) + 1
        tt_b = _bp_truth_table(b)
        tt_c = truth_table(c)
        span = min(len(tt_b), len(tt_c))  # program may read fewer variables
        assert np.array_equal(tt_b[:span], tt_c[:span])
        if len(tt_c) > span:
            assert np.array_equal(np.tile(tt_b, len(tt_c) // len(tt_b)), tt_c)
        for _ in range(50):
            i = rng.randint(1, b.length)
            j = rng.randint(i, b.length)
            d1 = rng.randint(1, b.width)
            d2 = rng.randint(1, b.width)
            w = bp_slice_witness(b, i, j, d1, d2)
            sub = bp_subprogram(b, i, j)
            tab = bp_state_functions(sub)[(d1, d2)]
            tt_w = truth_table(Circuit(w.root, c.n))
            e = np.arange(1 << sub.length, dtype=np.int64)
            mask = np.zeros(1 << sub.length, dtype=np.int64)
            for t, v in enumerate(sub.var_order):
                mask |= ((e >> t) & 1) << v
            assert np.array_equal(tt_w[mask], tab)
    _verdict(5, "program equals circuit exhaustively; 50 slice witnesses each", t0, 180)


def test_criterion_06_small_bias_certification():
    t0 = time.perf_counter()
    gen = SmallBiasGen(8, 16)
    bias = measure_bias(gen)
    assert bias <= Fraction(1, 16)
    assert bias <= gen.bias_bound
    _verdict(6, f"degree-8 generator at 16 bits: measured bias {float(bias):.4f} <= 0.0625", t0, 60)


def test_criterion_07_restriction_generator_fooling_under_22_bits():
    t0 = time.perf_counter()
    layout = RestrictionPRG(12, a=0, rounds=1, ell_asn=8, ell_final=3)
    assert layout.seed_bits <= 22
    counts = output_distribution(layout)  # one shared exhaustive sweep
    total = 1 << layout.seed_bits
    worst = Fraction(0)
    for k in range(50):
        c = gen_random_read_once(12, 3, seed=k)
        tt = truth_table(c).astype(np.int64)
        e_gen = Fraction(int(counts @ tt), total)
        e_uni = Fraction(int(tt.sum()), 1 << 12)
        worst = max(worst, abs(e_gen - e_uni))
    assert worst <= Fraction(1, 20)
    _verdict(7, f"22-bit seed fools 50 circuits, max error {float(worst):.4f} <= 0.05", t0, 600)


def test_criterion_08_sandwich_transfer_inequality():
    t0 = time.perf_counter()
    for c in random_corpus(50, 12, 3, seed=808):
        nand = to_nand_form(c)
        pair = build_sandwich(nand, Fraction(1, 16))
        rep = check_sandwich_fooling(nand, pair.upper, pair.lower, SmallBiasGen(8, c.n))
        assert rep.passed, rep
    _verdict(8, "transfer bound holds exhaustively on 50 sandwiched circuits", t0, 300)


def test_criterion_09_collapse_probability_bound_and_identity():
    t0 = time.perf_counter()
    for i, c in enumerate(random_corpus(50, 12, 3, seed=909)):
        eps = 1 / (2 * c.n)
        p = boundary_p(c.n, c.depth, eps)
        rep = collapse_probability(c, p, eps, trials=10**5, master_seed=MASTER_SEED + i)
        assert rep.passed, rep
    # monotone half: estimator vs the exact two-sided identity; z=4 keeps the
    # family failure odds near 0.1% across the 20 comparisons
    rng = random.Random(MASTER_SEED)
    for i in range(20):
        n = rng.randint(3, 12)
        c = gen_random_read_once(n, rng.randint(1, 3), seed=rng.randrange(2**32), neg_prob=0.0)
        assert c.is_monotone()
        rep = collapse_probability(
            c, 0.3, 0.2, trials=10**5, master_seed=MASTER_SEED + 100 + i, enforce_bounds=False
        )
        hits = round(rep.estimate * rep.trials)
        lo, hi = wilson_interval(hits, rep.trials, z=4.0)
        assert lo - 1e-12 <= float(rep.exact) <= hi + 1e-12
    _verdict(9, "bound holds at 10^5 trials for 50 circuits; identity inside CI", t0, 300)


def test_criterion_10_sandwich_ordering_conditions_and_gap():
    t0 = time.perf_counter()
    for c in random_corpus(40, 16, 4, seed=1010):
        nand = to_nand_form(c)
        tt = truth_table(nand)
        for eps in (Fraction(1, 16), Fraction(1, 64)):
            pair = build_sandwich(nand, eps)
            assert np.all(truth_table(pair.lower) <= tt)
            assert np.all(tt <= truth_table(pair.upper))
            assert sandwich_condition_violations(pair.lower, eps) == []
            assert sandwich_condition_violations(pair.upper, eps) == []
            # gap <= 8 n sqrt(eps), squared to stay in rationals
            assert pair.gap**2 <= 64 * c.n**2 * eps
    _verdict(10, "pointwise order, exact node masses, gap under 8n*sqrt(eps)", t0, 120)


def test_criterion_11_shrinkage_quantile_trend():
    t0 = time.perf_counter()
    logn = 10  # n = 2^10 throughout
    configs = (
        (gen_tribes(128, 8), 2),
        (gen_recursive_tribes(3, [8, 16, 8]), 3),
    )
    for c, depth in configs:
        assert c.n == 1 << logn and c.depth == depth
        p = 1 / (4 * logn ** (depth - 1))
        threshold = 50 * logn**depth
        rep = shrink_experiment(
            c, p, Fraction(1, 16), trials=10**4, master_seed=MASTER_SEED, threshold=threshold
        )
        assert rep.passed is True
        assert rep.quantile_value <= threshold
    _verdict(11, "restricted sandwich size quantile stays under 50*(log2 n)^D", t0, 600)


def test_criterion_12_reproducible_data_files(tmp_path):
    t0 = time.perf_counter()
    spec = "random:n=12,d=3,count=10,seed=7"
    outs = {}
    for jobs in ("1", "4"):
        d = tmp_path / f"jobs{jobs}"
        assert cli_main(["bounds", "--corpus", spec, "--jobs", jobs, "--out", str(d)]) == 0
        outs[jobs] = {n: (d / n).read_bytes() for n in ("bounds.csv", "bounds.json")}
    assert outs["1"] == outs["4"]
    reruns = []
    for tag in ("a", "b"):
        d = tmp_path / f"shrink_{tag}"
        assert cli_main([
            "shrink", "--circuit", "tribes:m=2,w=2", "--p", "0.3", "--eps", "1/10",
            "--trials", "400", "--seed", "11", "--out", str(d),
        ]) == 0
        reruns.append((d / "shrink.json").read_bytes() + (d / "sizes.csv").read_bytes())
    assert reruns[0] == reruns[1]
    _verdict(12, "identical config and seed give byte-identical data files", t0, 60)
