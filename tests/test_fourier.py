"""Spectra: brute-force transform oracle, level recursion, bound checkers."""

import hashlib
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deep_chain, gap_paths, random_corpus
from roac0 import (
    And,
    BiasVector,
    Circuit,
    CircuitError,
    Const,
    Leaf,
    Not,
    acceptance_probability,
    evaluate,
    gen_random_read_once,
    gen_tribes,
    parse,
    render,
    to_nand_form,
)
from roac0.bp import bp_from_circuit, bp_matrix_levelmass_upper
from roac0.circuit import evaluate_columns
from roac0.fourier import (
    _EXACT_FLOAT,
    WHT_CAP,
    BoundReport,
    CapExceeded,
    SpectralTable,
    _wht_integers,
    biased_gap,
    boundary_p,
    check_growth_corollary,
    check_lp_sandwich,
    check_mainbound,
    damped_mass,
    damped_mass_recursive,
    growth_factor,
    level_profile_recursive,
    popcounts,
    total_mass,
    truth_table,
    wht_bruteforce,
)
from roac0.prg import EXHAUSTIVE_SEED_CAP
from roac0.shrinkage import collapse_probability


def and_k(k: int) -> Circuit:
    return parse("(and " + " ".join(f"x{i}" for i in range(k)) + ")")


# -- brute-force transform ----------------------------------------------------


def coefficients(n: int, nums, some=None) -> list[Fraction]:
    """F_hat[s] = nums[s] / 2^n for s in ``some``, default every s."""
    return [Fraction(int(nums[s]), 1 << n) for s in (range(1 << n) if some is None else some)]


def parseval_holds(n: int, nums) -> bool:
    """Exact check of sum_s F_hat[s]^2 = F_hat[0] for Boolean F."""
    nums = [int(v) for v in nums]
    return sum(v * v for v in nums) == nums[0] << n


def spectrum_sum(n: int, nums) -> Fraction:
    """sum_s F_hat[s], which equals F(0^n) for any F."""
    return Fraction(int(np.sum(nums, dtype=np.int64)), 1 << n)


def test_single_leaf_spectrum():
    t = wht_bruteforce(parse("x0"))
    assert coefficients(t.n, t.numerators) == [Fraction(1, 2), Fraction(-1, 2)]


def test_const_one_spectrum():
    t = wht_bruteforce(parse("(and 1 1)"))
    assert coefficients(t.n, t.numerators) == [1] + [0] * ((1 << t.n) - 1)


def test_and_two_spectrum():
    t = wht_bruteforce(parse("(and x0 x1)"))
    hat = coefficients(t.n, t.numerators)
    assert hat[0] == Fraction(1, 4)
    assert sorted(map(abs, hat[1:])) == [Fraction(1, 4)] * 3
    abs_l, _ = t.level_sums()
    assert abs_l[1] == Fraction(1, 2)
    assert abs_l[2] == Fraction(1, 4)


def test_parseval_holds_on_corpus():
    for c in random_corpus(20, 12, 4, seed=101):
        assert parseval_holds(c.n, wht_bruteforce(c).numerators)


def test_spectrum_sums_to_value_at_zero():
    for c in random_corpus(10, 10, 3, seed=103):
        assert spectrum_sum(c.n, wht_bruteforce(c).numerators) == evaluate(c, 0)


def test_transform_cap_enforced():
    with pytest.raises(CapExceeded):  # at the call, not at a later query
        wht_bruteforce(gen_random_read_once(30, 2, seed=1))


def wht_reference(values) -> list:
    """h[s] = sum_x v[x] (-1)^{s.x} in Python ints, by H_2N = [[H_N, H_N], [H_N, -H_N]]."""
    h = np.array([int(v) for v in values], dtype=object)

    def split(h):
        if len(h) == 1:
            return h
        lo, hi = split(h[: len(h) // 2]), split(h[len(h) // 2 :])
        return np.concatenate([lo + hi, lo - hi])

    return split(h).tolist()


def test_wht_reference_is_the_definition():
    rng = random.Random(5)
    for n in range(7):
        v = [rng.randrange(-50, 50) for _ in range(1 << n)]
        want = [sum(v[x] * (-1) ** bin(s & x).count("1") for x in range(1 << n))
                for s in range(1 << n)]
        assert wht_reference(v) == want


# below, at and above one matmul (2^6) and one matmul pair (2^12), and over
# two float blocks (2^17)
@pytest.mark.parametrize("n", list(range(14)) + [17])
@pytest.mark.parametrize("kind", ["table", "counts", "wide"])
def test_wht_integers_exact_against_reference(n, kind):
    rng = np.random.default_rng(1000 * n + len(kind))
    if kind == "table":  # truth tables and branching-program tables
        values = rng.integers(0, 2, 1 << n).astype(np.uint8)
    elif kind == "counts":  # seed counts under EXHAUSTIVE_SEED_CAP
        values = rng.integers(0, 1 << 26, 1 << n, endpoint=True)
    else:  # 2^n * max|v| <= 2^52: float64 is still exact
        values = rng.integers(-(1 << (52 - n)), 1 << (52 - n), 1 << n, endpoint=True)
    before = values.copy()
    values.setflags(write=False)
    h = _wht_integers(values)
    assert h.dtype == (np.int32 if kind == "table" else np.int64)
    assert h.tolist() == wht_reference(values)
    assert np.array_equal(values, before)


def butterfly_reference(values: np.ndarray) -> np.ndarray:
    """The transform as n int64 butterfly levels over the whole array."""
    h = values.astype(np.int64)
    step = 1
    while step < h.size:
        pairs = h.reshape(-1, 2, step)
        pairs[:] = np.stack([pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]], axis=1)
        step *= 2
    return h


def test_butterfly_reference_is_the_definition():
    values = np.random.default_rng(9).integers(-50, 50, 1 << 9)
    assert butterfly_reference(values).tolist() == wht_reference(values)


# 0/1 tables run in float32 while 2^n * max|v| <= 2^24: across the float32
# tiles above a 2^16-entry block, and at the edge of float32's integers
@pytest.mark.parametrize("n", [18, 20, 22])
def test_wht_integers_matches_butterfly_on_large_tables(n):
    table = np.random.default_rng(n).integers(0, 2, 1 << n).astype(np.uint8)
    assert np.array_equal(_wht_integers(table), butterfly_reference(table))


def test_wht_integers_all_ones_at_n24_reaches_2_to_the_24():
    h = _wht_integers(np.ones(1 << 24, dtype=np.uint8))
    assert h[0] == 1 << 24
    assert not h[1:].any()


# 2^n * max|v| = 2^24 is the last input float32, and so int32, holds exactly
@pytest.mark.parametrize("n", [0, 6, 12, 17, 20])
def test_wht_integers_narrows_to_int32_up_to_2_to_the_24(n):
    edge = (1 << 24) >> n
    rng = np.random.default_rng(n)
    for bound, dtype in ((edge, np.int32), (edge + 1, np.int64)):
        values = rng.integers(-bound, bound, 1 << n, endpoint=True)
        values[-1] = -bound
        h = _wht_integers(values)
        assert h.dtype == dtype
        assert np.array_equal(h, butterfly_reference(values))
        full = _wht_integers(np.full(1 << n, bound, dtype=np.int64))
        assert full.dtype == dtype
        assert full[0] == bound << n


def test_wht_integers_leaves_a_writable_input_alone():
    values = np.arange(1 << 10, dtype=np.int64)
    _wht_integers(values)
    assert values.tolist() == list(range(1 << 10))


def test_wht_integers_rejects_inputs_past_the_exact_float_range():
    for n in (12, 17):
        edge = 1 << (53 - n)  # 2^n * edge = 2^53
        ok = np.full(1 << n, edge - 1, dtype=np.int64)
        assert _wht_integers(ok)[0] == (1 << 53) - (1 << n)
        for v in (edge, -edge):
            with pytest.raises(ArithmeticError):
                _wht_integers(np.full(1 << n, v, dtype=np.int64))


def test_seed_counts_under_the_caps_stay_in_the_exact_float_range():
    # every seed count transform sums to at most 2^EXHAUSTIVE_SEED_CAP over n <= WHT_CAP
    assert (1 << EXHAUSTIVE_SEED_CAP) << WHT_CAP < _EXACT_FLOAT


def test_wht_integers_memory_peak_is_the_result_plus_small_buffers():
    # the int32 result is the float32 buffer itself: a full-size temporary
    # beside it at 2^20 would add at least 4 MiB
    table = np.random.default_rng(3).integers(0, 2, 1 << 20).astype(np.uint8)
    tracemalloc.start()
    try:
        h = _wht_integers(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.nbytes == 4 << 20
    assert peak <= h.nbytes + (2 << 20)


def test_wht_integers_memory_peak_at_2_22_is_the_result_plus_small_buffers():
    # the tiles above a block: a full-size temporary would add at least 16 MiB
    table = np.random.default_rng(4).integers(0, 2, 1 << 22).astype(np.uint8)
    tracemalloc.start()
    try:
        h = _wht_integers(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.nbytes == 4 << 22
    assert peak <= h.nbytes + (2 << 20)


@pytest.mark.parametrize("n, seed, mib", [(20, 20, 3), (22, 22, 6)])
def test_bruteforce_level_sums_memory_peak_is_the_table_plus_block_buffers(n, seed, mib):
    # the uint8 truth table, transformed in place and restored, and about
    # 1 MiB of block buffers; an int8 working copy would pass the bound, and
    # the int32 spectrum took 5.5 MiB at 2^20 and 20.5 MiB at 2^22
    c = gen_random_read_once(n, 3, seed=seed)
    tracemalloc.start()
    try:
        abs_l, sgn_l = wht_bruteforce(c).level_sums()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lp = level_profile_recursive(c)
    assert (abs_l, sgn_l) == (list(lp.abs_mass), list(lp.signed_sum))
    assert peak <= mib << 20


def per_popcount_sums(n: int, nums: np.ndarray) -> tuple[list, list]:
    """(abs, signed) sums of integer numerators by the popcount of their index, over 2^n."""
    if n <= 14:  # in Python ints
        abs_ref, sgn_ref = [0] * (n + 1), [0] * (n + 1)
        for s, v in enumerate(nums.tolist()):
            k = bin(s).count("1")
            abs_ref[k] += abs(v)
            sgn_ref[k] += v
    else:  # int64 sums by mask, exact
        pop, nums = np.bitwise_count(np.arange(1 << n)), nums.astype(np.int64)
        abs_ref = [int(np.abs(nums[pop == k]).sum()) for k in range(n + 1)]
        sgn_ref = [int(nums[pop == k].sum()) for k in range(n + 1)]
    den = 1 << n
    return [Fraction(v, den) for v in abs_ref], [Fraction(v, den) for v in sgn_ref]


@pytest.mark.parametrize("n", range(15))
def test_level_sums_match_per_popcount_python_sums(n):
    rng = np.random.default_rng(n)
    table = rng.integers(-(1 << n), 1 << n, 1 << n, endpoint=True)
    assert SpectralTable(n, table).level_sums() == per_popcount_sums(n, _wht_integers(table))
    assert popcounts(n).tolist() == [bin(s).count("1") for s in range(1 << n)]


# one block of at most 2^16 entries, then one bit (n = 17) and six bits
# (n = 22, the most the block rule allows) above a block
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 11, 16, 17, 19, 22])
def test_streamed_level_sums_of_0_1_tables_match_per_popcount_sums(n):
    table = np.random.default_rng(n).integers(0, 2, 1 << n).astype(np.uint8)
    want = per_popcount_sums(n, _wht_integers(table))
    before = table.copy()
    assert SpectralTable(n, table).level_sums() == want
    assert np.array_equal(table, before)  # transformed in place, then restored
    table.setflags(write=False)  # a read-only table is copied to int8 instead
    assert SpectralTable(n, table).level_sums() == want


@pytest.mark.parametrize("dtype, low, high", [
    (np.int64, -1000, 1000),  # in place in int64, restored by a shift
    (np.int8, -1, 1),  # in place in int8, with the restoring pass wrapping past 127
    (np.uint8, 0, 100),  # 100 fits int8, but 2^h * 100 needs an int16 copy
    (np.bool_, 0, 1),
])
def test_level_sums_above_a_block_leave_any_table_as_it_was(dtype, low, high):
    n = 18
    table = np.random.default_rng(18).integers(low, high, 1 << n, endpoint=True).astype(dtype)
    before = table.copy()
    assert SpectralTable(n, table).level_sums() == per_popcount_sums(n, _wht_integers(table))
    assert np.array_equal(table, before)


def test_table_queries_pinned():
    # sha256 of these rows as computed when SpectralTable stored the whole
    # int32 spectrum instead of the table
    rows = []
    for c in random_corpus(12, 9, 3, seed=131) + [gen_random_read_once(17, 3, seed=17)]:
        nums = wht_bruteforce(c).numerators
        some = range(1 << c.n) if c.n <= 9 else range(0, 1 << c.n, 997)
        rows.append(f"{render(c)} {coefficients(c.n, nums, some)} {parseval_holds(c.n, nums)} "
                    f"{spectrum_sum(c.n, nums)}")
        b = bp_from_circuit(c)
        rows.append(f"{b.width} {[bp_matrix_levelmass_upper(b, k) for k in range(c.n + 2)]}")
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
        "a3df41b8c671251c78b2a52214365a8325577a89bc4452d2b896856b5a1a7a16")


# -- level recursion ----------------------------------------------------------


def test_recursion_matches_transform_exactly():
    for c in random_corpus(60, 14, 4, seed=107):
        lp = level_profile_recursive(c)
        abs_w, sgn_w = wht_bruteforce(c).level_sums()
        assert list(lp.abs_mass) == abs_w
        assert list(lp.signed_sum) == sgn_w


def test_float_mode_close_to_exact():
    for c in random_corpus(30, 14, 4, seed=109):
        ex = level_profile_recursive(c, exact=True)
        fl = level_profile_recursive(c, exact=False)
        for k in range(c.n + 1):
            assert abs(float(ex.abs_mass[k]) - fl.abs_mass[k]) < 1e-10
            assert abs(float(ex.signed_sum[k]) - fl.signed_sum[k]) < 1e-10


def test_and_k_binomial_levels():
    lp = level_profile_recursive(and_k(6))
    for j in range(7):
        assert lp.abs_mass[j] == Fraction(math.comb(6, j), 2**6)


def test_const_zero_profile():
    lp = level_profile_recursive(parse("(or 0 0)"))
    assert lp.abs_mass[0] == 0
    assert all(v == 0 for v in lp.abs_mass)


def test_negation_preserves_levels_above_zero():
    for c in random_corpus(15, 10, 3, seed=113):
        lp = level_profile_recursive(c)
        ln = level_profile_recursive(Circuit(Not(c.root), c.n))
        assert lp.abs_mass[1:] == ln.abs_mass[1:]
        assert lp.abs_mass[0] + ln.abs_mass[0] == 1


def test_signed_bounded_by_abs():
    for c in random_corpus(15, 12, 4, seed=127):
        lp = level_profile_recursive(c)
        for k in range(c.n + 1):
            assert abs(lp.signed_sum[k]) <= lp.abs_mass[k]


# -- damped masses ------------------------------------------------------------


def test_damped_mass_at_zero():
    lp = level_profile_recursive(and_k(4))
    assert damped_mass(lp, 0) == 0


def test_damped_mass_and_two_at_one():
    lp = level_profile_recursive(and_k(2))
    assert damped_mass(lp, 1) == Fraction(3, 4)


def test_damped_mass_single_leaf():
    lp = level_profile_recursive(parse("x0"))
    for p in (Fraction(1, 3), Fraction(1, 2), 1):
        assert damped_mass(lp, p) == Fraction(p, 2)


def test_and_k_damped_closed_form():
    for k in (1, 2, 5, 12):
        lp = level_profile_recursive(and_k(k))
        for p in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
            want = (p / 2 + Fraction(1, 2)) ** k - Fraction(1, 2**k)
            assert damped_mass(lp, p) == want


def test_damped_mass_monotone_in_p():
    for c in random_corpus(10, 10, 3, seed=131):
        lp = level_profile_recursive(c, exact=False)
        values = [damped_mass(lp, p / 20) for p in range(21)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_scalar_recursion_agrees_with_profile():
    for c in random_corpus(15, 12, 3, seed=137):
        lp = level_profile_recursive(c)
        for p in (Fraction(1, 4), Fraction(3, 5)):
            assert damped_mass_recursive(c, p, exact=True) == damped_mass(lp, p)


def _assert_float_damped_is_rounded_exact(c, p):
    exact = damped_mass_recursive(c, p, exact=True)
    approx = damped_mass_recursive(c, p)
    if exact >= Fraction(sys.float_info.min):
        assert abs(Fraction(approx) - exact) <= exact / 2**52
    assert approx == float(exact)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 5000),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    p=st.sampled_from([0.5, 0.01, 0.25, 0.9, 1.0, Fraction(1, 3), Fraction(2, 7)]),
)
def test_float_damped_mass_matches_exact(n, d, seed, p):
    _assert_float_damped_is_rounded_exact(gen_random_read_once(n, d, seed=seed), p)


def test_float_damped_mass_at_cancellation_sizes():
    # 1.7e-28 exactly; a float recursion that subtracts products returns 0.0
    c = gen_random_read_once(2000, 3, seed=2)
    for p in (0.5, Fraction(1, 3)):
        _assert_float_damped_is_rounded_exact(c, p)
    assert damped_mass_recursive(c, 0.5) > 1e-28


def test_total_mass_excludes_level_zero():
    lp = level_profile_recursive(and_k(2))
    assert total_mass(lp) == Fraction(3, 4)


# -- inequality checkers ------------------------------------------------------


def test_lp_sandwich_and_two():
    lp = level_profile_recursive(and_k(2))
    r = check_lp_sandwich(lp, Fraction(1, 2))
    assert r.passed
    # max_k p^k L^k = 1/4, L_p = 5/16, n * max = 1/2
    assert r.params["slack_lower"] == pytest.approx(1 / 16)
    assert r.params["slack_upper"] == pytest.approx(3 / 16)


def test_lp_sandwich_const():
    lp = level_profile_recursive(parse("(and 1 1)"))
    assert check_lp_sandwich(lp, Fraction(1, 2)).passed


def test_lp_sandwich_sweep():
    for c in random_corpus(60, 14, 4, seed=139):
        lp = level_profile_recursive(c)
        for p in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
            assert check_lp_sandwich(lp, p).passed


def test_mainbound_and_two():
    r = check_mainbound(and_k(2), Fraction(1, 2))
    assert isinstance(r, BoundReport)
    assert r.passed and r.slack >= 0
    assert r.params["constant"] == 9 and r.params["log_base"] == 2


def test_mainbound_const():
    r = check_mainbound(parse("(or 1 0)"), Fraction(1, 2))
    assert r.passed and r.lhs == 0


def test_mainbound_rejects_large_eps():
    with pytest.raises(CircuitError):
        check_mainbound(and_k(4), Fraction(1, 2))  # 1/2 > 1/4


def test_mainbound_rejects_p_above_boundary():
    c = and_k(4)
    with pytest.raises(CircuitError):
        check_mainbound(c, Fraction(1, 4), p=0.5)


def test_boundary_p_value():
    # D=1, n=2, eps=1/2: 9*log2(4*2/(1/2)) = 9*4 = 36
    assert boundary_p(2, 1, 0.5) == pytest.approx(1 / 36)


def test_growth_factor_overflow_is_a_circuit_error():
    # (9 log2(4^D n/eps))^D passes the float range near D = 95 at n = 1, eps = 1,
    # and 4.0**D alone does at D = 512
    def chain(d):
        return parse("(and " * d + "x0" + ")" * d)

    assert check_mainbound(chain(90), 1).passed
    with pytest.raises(CircuitError, match="overflows"):
        check_mainbound(chain(100), 1)
    with pytest.raises(CircuitError, match="overflows"):
        boundary_p(10, 600, 0.01)
    assert boundary_p(2, 0, 0.5) == pytest.approx(1 / 36)  # depth floor at 1


def test_eps_below_the_float_range_is_a_circuit_error():
    # float(Fraction("1e-400")) is 0.0, so 4^D n / eps would divide by zero
    tiny = Fraction("1e-400")
    with pytest.raises(CircuitError, match="float range"):
        growth_factor(8, 2, tiny)
    with pytest.raises(CircuitError, match="float range"):
        check_mainbound(gen_tribes(2, 2), tiny)
    with pytest.raises(CircuitError, match="float range"):
        collapse_probability(gen_tribes(2, 2), 0.01, tiny, trials=10)
    assert growth_factor(8, 2, Fraction(1, 10**300)) == (9.0 * math.log2(16.0 * 8 / 1e-300)) ** 2


def test_growth_report_and_k():
    rep = check_growth_corollary(and_k(8))
    assert rep["g"] <= 1.0


def test_growth_report_const():
    from roac0 import And, Const

    c = Circuit(And((Const(1), Const(0))), 2)
    assert check_growth_corollary(c)["g"] == 0


def test_growth_report_tribes_finite():
    rep = check_growth_corollary(gen_tribes(2, 2))
    assert 0 < rep["g"] < 10


# -- biased acceptance gap ----------------------------------------------------


def test_gap_zero_at_zero_bias():
    assert biased_gap(and_k(3), 0) == 0


def test_gap_single_leaf():
    for p in (Fraction(1, 5), Fraction(-1, 3)):
        assert biased_gap(parse("x0"), p) == abs(p) / 2


def test_gap_and_two_full_bias():
    # coin bias 1 forces the all-zeros input: |F(0,0) - 1/4| = 1/4
    assert biased_gap(and_k(2), 1) == Fraction(1, 4)


def test_gap_three_paths_agree():
    for c in random_corpus(25, 12, 3, seed=149):
        for p in (0.05, -0.05, 0.25, -0.25):
            vals = list(gap_paths(c, p).values())
            assert max(vals) - min(vals) <= 1e-12


def test_gap_float_is_rounded_exact():
    for c in random_corpus(40, 14, 4, seed=151):
        for x in (0.05, -0.05, 0.25, -0.3, 0.01):
            exact = biased_gap(c, Fraction(x))
            assert isinstance(exact, Fraction)
            assert biased_gap(c, x) == float(exact)


def test_gap_rejects_out_of_range():
    with pytest.raises(CircuitError):
        biased_gap(and_k(2), 1.5)


@given(st.integers(2, 10), st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_profile_oracle_property(n, d, seed):
    c = gen_random_read_once(n, d, seed=seed)
    lp = level_profile_recursive(c)
    abs_w, sgn_w = wht_bruteforce(c).level_sums()
    assert list(lp.abs_mass) == abs_w
    assert list(lp.signed_sum) == sgn_w


FOLD_CORPUS = {
    "tribes": gen_tribes(2, 2),
    "not_over_or": parse("(not (or (and x0 (not x1)) x2))"),
    "nand_mixed": parse("(nand x0 (or x1 (not x2)) (not (nand x3 x4)))"),
    "constants": parse("(or 0 (and 1 x0) (not (and x1 0)) (not (nand 1 x2)))"),
    "double_not": parse("(not (not (nand (not (or x0 x1)) (not x2))))"),
    "not_leaf_node": Circuit(Not(Leaf(0)), 1),
    "const_root": Circuit(Not(Const(0)), 2),
    "nand_form": to_nand_form(gen_random_read_once(9, 3, seed=4)),
    "negated_leaves": gen_random_read_once(10, 4, seed=8, neg_prob=0.6),
}


@pytest.mark.parametrize("name", FOLD_CORPUS)
def test_truth_table_matches_evaluate(name):
    c = FOLD_CORPUS[name]
    tt = truth_table(c)
    assert tt.dtype == np.uint8
    assert tt.tolist() == [evaluate(c, x) for x in range(1 << c.n)]


def _word_corpus():
    """Circuits on n = 0..8: one partial word (n < 6), the word boundary
    (n = 6, 7) and beyond, with constants, NOT/NAND nestings and negated
    low (0-5) and high (6, 7) variables."""
    yield Circuit(Const(1), 0)
    yield Circuit(Not(Const(1)), 0)
    for n in range(1, 9):
        top = n - 1
        yield Circuit(Leaf(top, negated=True), n)
        yield Circuit(Not(Leaf(0)), n)
        yield Circuit(parse(f"(or 0 (and 1 (not x{top})))").root, n)
        yield gen_random_read_once(n, 3, seed=n, neg_prob=0.5)
        if n >= 2:
            yield Circuit(parse(f"(nand (not x0) (not (nand x{top} 1)))").root, n)
            yield to_nand_form(gen_random_read_once(n, 4, seed=20 + n, neg_prob=0.5))
        if n >= 3:
            yield Circuit(parse(f"(not (nand (nand x1 (not x0)) (and x{top} 1)))").root, n)


@pytest.mark.parametrize("c", list(_word_corpus()), ids=lambda c: f"n{c.n}-{render(c)}")
def test_word_truth_table_matches_evaluate_across_word_sizes(c):
    tt = truth_table(c)
    assert tt.dtype == np.uint8 and tt.shape == (1 << c.n,)
    assert tt.tolist() == [evaluate(c, x) for x in range(1 << c.n)]


def test_truth_table_memory_peak_is_the_table_plus_word_planes():
    # 2^20 one-byte entries, the fold holds 2^14-word planes (128 KiB each)
    c = gen_random_read_once(20, 4, seed=3, neg_prob=0.5)
    tracemalloc.start()
    try:
        tt = truth_table(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tt.size == 1 << 20
    assert peak < 1.5 * (1 << 20)


SAMPLED_CORPUS = {
    **FOLD_CORPUS,
    "random_n100": gen_random_read_once(100, 4, seed=11, neg_prob=0.5),  # Pr[1] ~ 0.52
    "nand_n100": to_nand_form(gen_random_read_once(100, 4, seed=13)),
}


@pytest.mark.parametrize("name", SAMPLED_CORPUS)
def test_evaluate_columns_matches_evaluate_on_sampled_inputs(name):
    c = SAMPLED_CORPUS[name]
    rng = random.Random(name)
    xs = [rng.randrange(1 << c.n) for _ in range(300)]
    planes = np.array([[(x >> v) & 1 for x in xs] for v in range(c.n)], dtype=np.uint8)
    got = evaluate_columns(c, lambda v: planes[v].copy(), len(xs))
    assert got.dtype == np.uint8
    assert got.tolist() == [evaluate(c, x) for x in xs]


def test_folds_handle_deep_nesting():
    depth = 1200
    assert depth > sys.getrecursionlimit()
    c = deep_chain(depth)
    assert c.depth == depth
    # acceptance by the chain's own recurrence: every leaf is 1 w.p. 1/2
    acc = Fraction(1, 2)
    for i in range(1, depth + 1):
        acc = (acc / 2, 1 - (1 - acc) / 2, 1 - acc / 2)[i % 3]
        if i % 5 == 0:
            acc = 1 - acc
    assert acceptance_probability(c, BiasVector.uniform(c.n)) == acc
    lp = level_profile_recursive(c)
    assert lp.signed_sum[0] == acc
    half = Fraction(1, 2)
    assert damped_mass_recursive(c, half, exact=True) == damped_mass(lp, half)
