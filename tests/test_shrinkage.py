"""Random restrictions: sampler, collapse rates, sandwiches, shrink runs."""

import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_corpus
from roac0 import (
    BiasVector,
    Circuit,
    CircuitError,
    acceptance_probability,
    evaluate,
    gen_random_read_once,
    gen_tribes,
    parse,
    restrict,
    to_nand_form,
)
from roac0.circuit import Const, Leaf, RestrictionMask
from roac0.fourier import truth_table
from roac0.shrinkage import (
    CollapseReport,
    PRegularSampler,
    _exact_nonconstant_probability,
    _restriction_blocks,
    build_sandwich,
    collapse_probability,
    sample_restriction,
    sandwich_condition_violations,
    shrink_experiment,
)


# -- p-regular sampler ----------------------------------------------------------


def test_sampler_rejects_bad_parameters():
    with pytest.raises(CircuitError):
        PRegularSampler(0, 0.5)
    with pytest.raises(CircuitError):
        PRegularSampler(4, 1.5)
    with pytest.raises(CircuitError):
        PRegularSampler(4, -0.1)


def test_sampler_extreme_p():
    s = PRegularSampler(6, 0.0, seed=1)
    for _ in range(20):
        assert sample_restriction(s).t == 0
    s = PRegularSampler(6, 1.0, seed=1)
    for _ in range(20):
        assert sample_restriction(s).t == 0b111111


def test_sampler_marginals():
    n, p, draws = 8, 0.3, 4000
    s = PRegularSampler(n, p, seed=7)
    free = np.zeros(n)
    ones = np.zeros(n)
    for _ in range(draws):
        m = sample_restriction(s)
        for i in range(n):
            free[i] += (m.t >> i) & 1
            ones[i] += (m.x >> i) & 1
    # 3 sigma on a Bernoulli mean over 4000 draws
    assert np.all(np.abs(free / draws - p) < 3 * (p * (1 - p) / draws) ** 0.5)
    assert np.all(np.abs(ones / draws - 0.5) < 3 * (0.25 / draws) ** 0.5)


def test_sampler_is_deterministic_per_seed():
    a = PRegularSampler(10, 0.4, seed=42)
    b = PRegularSampler(10, 0.4, seed=42)
    for _ in range(25):
        ma, mb = sample_restriction(a), sample_restriction(b)
        assert (ma.t, ma.x) == (mb.t, mb.x)


# -- collapse probability -------------------------------------------------------


def test_collapse_constant_circuit_never_survives():
    rep = collapse_probability(Circuit(Const(1), 2), 0.5, 0.25, trials=200)
    assert rep.exact == 0
    assert rep.estimate == 0.0
    assert rep.passed


def test_collapse_single_leaf_is_exactly_p():
    c = Circuit(Leaf(0), 1)
    rep = collapse_probability(c, 0.375, 0.5, trials=4000, master_seed=5)
    assert rep.exact == Fraction(3, 8)
    assert abs(rep.estimate - 0.375) <= 4 * rep.se
    assert rep.ci[0] <= rep.estimate <= rep.ci[1]


def test_collapse_and4_matches_closed_form():
    # nonconstant iff some position is free and every fixed one drew a 1:
    # ((1+p)/2)^4 - ((1-p)/2)^4, at p=1/4 this is 544/4096
    c = parse("(and x0 x1 x2 x3)")
    rep = collapse_probability(
        c, 0.25, 0.2, trials=30000, master_seed=11, enforce_bounds=False
    )
    assert rep.exact == Fraction(17, 128)
    assert abs(rep.estimate - float(rep.exact)) <= 4 * rep.se


def test_collapse_fraction_p_draws_like_its_float():
    # dyadic p is the same number either way, and float(1/3) rounds to a
    # value no 2^-53 draw falls between, so every trial agrees
    c = gen_random_read_once(40, 3, seed=5)
    for p in (Fraction(1, 4), Fraction(3, 64), Fraction(1, 3)):
        a = collapse_probability(c, p, 0.01, trials=3000, master_seed=2, enforce_bounds=False)
        b = collapse_probability(c, float(p), 0.01, trials=3000, master_seed=2, enforce_bounds=False)
        assert a.estimate == b.estimate
    assert a.exact == _exact_nonconstant_probability(c, Fraction(1, 3))


def test_restriction_free_mask_is_exact_comparison_with_p():
    p = Fraction(1, 3)
    (free, _), = _restriction_blocks(8, p, 500, 9)
    rng = np.random.default_rng(np.random.SeedSequence([9, 0]))
    draws = rng.random((500, 8))
    assert free.tolist() == [[Fraction(u) < p for u in row] for row in draws.tolist()]


def test_collapse_non_dyadic_fraction_p_is_fast():
    c = gen_random_read_once(256, 3, seed=5)
    t0 = time.perf_counter()
    rep = collapse_probability(
        c, Fraction(1, 3), 0.01, trials=20000, master_seed=1, enforce_bounds=False
    )
    assert time.perf_counter() - t0 < 5
    assert abs(rep.estimate - float(rep.exact)) <= 4 * rep.se + 1e-3


def test_collapse_parameter_gates():
    c = parse("(and x0 x1 x2 x3)")
    with pytest.raises(CircuitError):
        collapse_probability(c, 0.05, 0.3)  # eps >= 1/n
    with pytest.raises(CircuitError):
        collapse_probability(c, 0.05, 0.1)  # p above the damping boundary
    with pytest.raises(CircuitError):
        collapse_probability(c, 1.5, 0.1, enforce_bounds=False)
    with pytest.raises(CircuitError):
        collapse_probability(c, 0.25, 1.2, enforce_bounds=False)
    with pytest.raises(CircuitError):
        collapse_probability(c, 0.25, 0.2, trials=0, enforce_bounds=False)


def test_collapse_bound_holds_at_legal_p():
    c = parse("(and x0 x1 x2 x3)")
    logterm = 9 * np.log2(4 * 4 / 0.1)
    rep = collapse_probability(c, 0.9 / logterm, 0.1, trials=2000, master_seed=3)
    assert isinstance(rep, CollapseReport)
    assert rep.passed
    assert rep.rhs >= 2 * 0.1
    d = rep.as_dict()
    assert d["trials"] == 2000 and 0 <= d["estimate"] <= 1


def test_exact_identity_against_brute_force():
    # weight each (t, x) pair exactly and test the restricted circuit for
    # constancy by truth table; n <= 4 keeps the double enumeration small
    p = Fraction(1, 3)
    for c in random_corpus(8, 4, 3, seed=606):
        n = c.n
        want = Fraction(0)
        for t in range(1 << n):
            k = bin(t).count("1")
            wt = p**k * (1 - p) ** (n - k)
            for x in range(1 << n):
                tt = truth_table(restrict(c, RestrictionMask(t, x, n)))
                if tt.min() != tt.max():
                    want += wt
        want /= 1 << n
        assert _exact_nonconstant_probability(c, p) == want


def test_exact_identity_monotone_in_p():
    c = gen_tribes(2, 2)
    vals = [_exact_nonconstant_probability(c, Fraction(k, 10)) for k in range(11)]
    assert vals[0] == 0 and vals[-1] == 1
    assert all(a <= b for a, b in zip(vals, vals[1:]))


# -- sandwich construction ------------------------------------------------------


def test_sandwich_eps_gates():
    c, _ = to_nand_form(gen_tribes(2, 2))
    with pytest.raises(CircuitError):
        build_sandwich(c, 0)
    with pytest.raises(CircuitError):
        build_sandwich(c, Fraction(3, 10))
    build_sandwich(c, Fraction(1, 4))


def test_sandwich_requires_nand_form():
    with pytest.raises(CircuitError, match="NAND form"):
        build_sandwich(parse("(and x0 x1)"), Fraction(1, 16))


def test_sandwich_identity_when_masses_already_inside():
    # NAND of two leaves rejects with mass 1/4, inside [1/16, 15/16],
    # so both halves reproduce the input and the gap vanishes
    c, _ = to_nand_form(parse("(nand x0 x1)"))
    pair = build_sandwich(c, Fraction(1, 16))
    assert pair.gap == 0
    assert truth_table(pair.lower).tolist() == truth_table(c).tolist()
    assert truth_table(pair.upper).tolist() == truth_table(c).tolist()


def test_sandwich_wide_or_prunes_to_exact_gap():
    c, _ = to_nand_form(parse("(or x0 x1 x2 x3 x4 x5)"))
    pair = build_sandwich(c, Fraction(1, 16))
    assert isinstance(pair.upper.root, Const) and pair.upper.root.value == 1
    assert pair.gap == Fraction(1, 16)
    d = pair.as_dict()
    assert d["lower_leaves"] == 4 and d["source_leaves"] == 6
    tt_c, tt_lo = truth_table(c), truth_table(pair.lower)
    assert np.all(tt_lo <= tt_c)


def test_sandwich_constant_input():
    pair = build_sandwich(Circuit(Const(1), 2), Fraction(1, 8))
    assert pair.gap == 0
    assert isinstance(pair.lower.root, Const)


def test_sandwich_random_battery():
    eps = Fraction(1, 16)
    for c in random_corpus(12, 10, 3, seed=717):
        nand, _ = to_nand_form(c)
        pair = build_sandwich(nand, eps)
        tt = truth_table(nand)
        tt_lo, tt_up = truth_table(pair.lower), truth_table(pair.upper)
        assert np.all(tt_lo <= tt) and np.all(tt <= tt_up)
        assert sandwich_condition_violations(pair.lower, eps) == []
        assert sandwich_condition_violations(pair.upper, eps) == []
        d = pair.as_dict()
        assert d["lower_leaves"] <= d["source_leaves"]
        assert d["upper_leaves"] <= d["source_leaves"]
        uni = BiasVector.uniform(c.n)
        gap = acceptance_probability(pair.upper, uni) - acceptance_probability(
            pair.lower, uni
        )
        assert gap == pair.gap


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_sandwich_pointwise_property(meta):
    rng = random.Random(meta)
    n = rng.randint(2, 8)
    c = gen_random_read_once(n, rng.randint(1, 3), seed=rng.randrange(2**32))
    nand, _ = to_nand_form(c)
    pair = build_sandwich(nand, Fraction(1, 16))
    for x in range(1 << n):
        lo, mid, up = (
            evaluate(pair.lower, x),
            evaluate(nand, x),
            evaluate(pair.upper, x),
        )
        assert lo <= mid <= up


def test_condition_check_flags_light_rejection():
    c, _ = to_nand_form(parse("(or x0 x1 x2 x3 x4 x5)"))
    bad = sandwich_condition_violations(c, Fraction(1, 16))
    assert bad and bad[0][0] == "Nand"
    ok, _ = to_nand_form(parse("(nand x0 x1)"))
    assert sandwich_condition_violations(ok, Fraction(1, 16)) == []


# -- shrink experiment ----------------------------------------------------------


def test_shrink_p_zero_collapses_everything():
    rep = shrink_experiment(gen_tribes(2, 2), 0.0, 0.1, trials=300, master_seed=2)
    assert rep.sizes_max.max() == 0
    assert rep.nonconstant_original == 0.0
    assert rep.quantile_value == 0


def test_shrink_p_one_keeps_every_leaf():
    c = gen_tribes(2, 2)
    rep = shrink_experiment(c, 1.0, 0.1, trials=100, master_seed=2)
    assert rep.nonconstant_original == 1.0
    assert rep.sizes_original.min() == rep.sizes_original.max() == 4
    assert rep.sizes_lower.min() == rep.sizes_lower.max() == rep.params["lower_leaves"]


def test_shrink_deterministic_per_seed():
    c = gen_tribes(2, 2)
    a = shrink_experiment(c, 0.3, 0.1, trials=500, master_seed=9)
    b = shrink_experiment(c, 0.3, 0.1, trials=500, master_seed=9)
    assert np.array_equal(a.sizes_max, b.sizes_max)
    assert a.as_dict() == b.as_dict()


def test_shrink_bookkeeping():
    rep = shrink_experiment(gen_tribes(2, 2), 0.4, 0.1, trials=800, master_seed=4)
    assert np.array_equal(rep.sizes_max, np.maximum(rep.sizes_lower, rep.sizes_upper))
    order = np.sort(rep.sizes_max)
    idx = min(len(order) - 1, max(0, int(np.ceil(rep.quantile_level * rep.trials)) - 1))
    assert rep.quantile_value == int(order[idx])
    assert rep.quantile_level == 1 - 2 * 0.1
    assert rep.threshold is None and rep.passed is None


def test_shrink_threshold_verdicts():
    c = gen_tribes(2, 2)
    hi = shrink_experiment(c, 0.4, 0.1, trials=400, master_seed=4, threshold=100)
    lo = shrink_experiment(c, 0.4, 0.1, trials=400, master_seed=4, threshold=-1)
    assert hi.passed is True and lo.passed is False
    assert hi.quantile_value == lo.quantile_value


def test_shrink_parameter_gates():
    c = gen_tribes(2, 2)
    with pytest.raises(CircuitError):
        shrink_experiment(c, 1.5, 0.1)
    with pytest.raises(CircuitError):
        shrink_experiment(c, 0.5, 0.1, trials=0)


def test_shrink_report_dict_uses_plain_types():
    rep = shrink_experiment(gen_tribes(2, 2), 0.3, 0.1, trials=200, master_seed=8)
    d = rep.as_dict()
    assert isinstance(d["size_mean_lower"], float)
    assert isinstance(d["quantile_value"], int)
    assert set(d["params"]) >= {"n", "depth", "gap", "master_seed"}
