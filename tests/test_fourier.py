"""Spectra: brute-force transform oracle, level recursion, bound checkers."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_corpus
from roac0 import Circuit, CircuitError, Not, gen_random_read_once, gen_tribes, parse
from roac0.fourier import (
    BoundReport,
    CapExceeded,
    biased_gap,
    boundary_p,
    check_growth_corollary,
    check_lp_sandwich,
    check_mainbound,
    damped_mass,
    damped_mass_recursive,
    level_profile_recursive,
    total_mass,
    truth_table,
    wht_bruteforce,
)


def and_k(k: int) -> Circuit:
    return parse("(and " + " ".join(f"x{i}" for i in range(k)) + ")")


# -- brute-force transform ----------------------------------------------------


def test_single_leaf_spectrum():
    t = wht_bruteforce(parse("x0"))
    assert t.coefficient(0) == Fraction(1, 2)
    assert t.coefficient(1) == Fraction(-1, 2)


def test_const_one_spectrum():
    t = wht_bruteforce(parse("(and 1 1)"))
    assert t.coefficient(0) == 1
    assert all(t.coefficient(s) == 0 for s in range(1, 1 << t.n))


def test_and_two_spectrum():
    t = wht_bruteforce(parse("(and x0 x1)"))
    assert t.coefficient(0) == Fraction(1, 4)
    assert sorted(abs(t.coefficient(s)) for s in range(1, 4)) == [
        Fraction(1, 4)
    ] * 3
    abs_l, _ = t.level_sums()
    assert abs_l[1] == Fraction(1, 2)
    assert abs_l[2] == Fraction(1, 4)


def test_parseval_holds_on_corpus():
    for c in random_corpus(20, 12, 4, seed=101):
        assert wht_bruteforce(c).check_parseval()


def test_spectrum_sums_to_value_at_zero():
    from roac0 import evaluate

    for c in random_corpus(10, 10, 3, seed=103):
        assert wht_bruteforce(c).sum_all() == evaluate(c, 0)


def test_transform_cap_enforced():
    with pytest.raises(CapExceeded):
        wht_bruteforce(gen_random_read_once(30, 2, seed=1), cap=24)


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
    assert boundary_p(2, 0, 0.5) == pytest.approx(1 / 36)  # depth floor at 1


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
            paths = biased_gap(c, p, details=True)
            vals = [float(v) for v in paths.values()]
            assert max(vals) - min(vals) <= 1e-12


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


def test_truth_table_matches_evaluate():
    from roac0 import evaluate

    c = gen_tribes(2, 2)
    tt = truth_table(c)
    for x in range(16):
        assert tt[x] == evaluate(c, x)
