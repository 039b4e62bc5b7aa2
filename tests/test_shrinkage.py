"""Random restrictions: collapse rates, sandwiches, shrink runs."""

import random
import time
import tracemalloc
from fractions import Fraction
from math import ceil

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
    render,
    restrict,
    simplify,
    to_nand_form,
)
from roac0.circuit import (
    And,
    Const,
    Leaf,
    Nand,
    Not,
    Or,
    RestrictionMask,
    _collect,
    fold,
    iter_nodes,
    trampoline,
)
from roac0.cli import load_circuit
from roac0.fourier import CapExceeded, check_mainbound, growth_factor, truth_table
from roac0.shrinkage import (
    _BLOCK,
    SHRINK_TRIALS_CAP,
    _SELECT_BYTES,
    CollapseReport,
    _exact_nonconstant_probability,
    _restricted,
    _restriction_blocks,
    build_sandwich,
    collapse_probability,
    sandwich_condition_violations,
    shrink_experiment,
)

# -- trial-major references ------------------------------------------------------

_ALIVE = 2


def split_threshold(p):
    """(top, rest) of T = ceil(p 2^53) = top 2^45 + rest; at p = 1 top is 255."""
    t = ceil(Fraction(p) * 2**53)
    top = min(t >> 45, 255)
    return top, t - (top << 45)


def reference_stream(n, p, size, master_seed, b):
    """Block b's draws, each whole: the (n, 64 W) selector bytes, the flat
    indices of the ties, their 45-bit tails, and the (n, W) x words."""
    words = -(-size // 64)
    bg = np.random.PCG64(np.random.SeedSequence([master_seed, b]))
    sel = bg.random_raw(n * words * 8).astype("<u8").view(np.uint8).reshape(n, 64 * words)
    ties = np.flatnonzero(sel == split_threshold(p)[0])
    tails = bg.random_raw(len(ties)) >> 19
    x = bg.random_raw(n * words).astype("<u8").reshape(n, words)
    return sel, ties, tails, x


def reference_blocks(n, p, trials, master_seed):
    """Trial-major (free, x) per block, from its whole draws."""
    top, rest = split_threshold(p)
    for b, start in enumerate(range(0, trials, _BLOCK)):
        size = min(_BLOCK, trials - start)
        sel, ties, tails, x = reference_stream(n, p, size, master_seed, b)
        free = (sel < top).ravel()
        free[ties] = tails < rest
        bits = np.unpackbits(x.view(np.uint8), axis=1, bitorder="little")
        yield free.reshape(n, -1)[:, :size].T, bits[:, :size].T


def trial_major(words, size):
    """(size, n) 0/1 uint8 of (n, W) word rows; the pad bits must be 0."""
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    assert not bits[:, size:].any()
    return bits[:, :size].T


def uint8_restricted(c, free, x, stats=False):
    """Per-trial state (0, 1 or 2 = alive) on trial-major draws, one uint8
    column per node: the bit-sliced fold's oracle.  With ``stats`` the value
    is (state, live leaf count, max gate fan-in)."""
    trials = free.shape[0]
    zeros = np.zeros(trials, dtype=np.int32)

    def leaf(var, negated):
        s = np.where(free[:, var], _ALIVE, x[:, var] ^ int(negated)).astype(np.int8)
        return (s, (s == _ALIVE).astype(np.int32), zeros) if stats else s

    def const(value):
        s = np.full(trials, value, dtype=np.int8)
        return (s, zeros, zeros) if stats else s

    def finish(children, is_and):
        hit = 0 if is_and else 1
        absorbed = np.zeros(trials, dtype=bool)
        alive = np.zeros(trials, dtype=np.int32 if stats else bool)
        for ch in children:
            s = ch[0] if stats else ch
            absorbed |= s == hit
            alive += s == _ALIVE
        state = np.where(absorbed, hit, np.where(alive, _ALIVE, 1 - hit)).astype(np.int8)
        if not stats:
            return state
        leaves = np.zeros(trials, dtype=np.int32)
        fan = np.zeros(trials, dtype=np.int32)
        for _, ch_leaves, ch_fan in children:
            leaves += ch_leaves
            np.maximum(fan, ch_fan, out=fan)
        np.maximum(fan, np.where(alive >= 2, alive, 0), out=fan)
        dead = state != _ALIVE
        leaves[dead] = 0
        fan[dead] = 0
        return state, leaves, fan

    return fold(c, leaf, const, list, _collect, finish)


def states(alive, one, size):
    """Per-trial 0, 1 or 2 (alive) of the bit-sliced fold's planes."""
    a, o = (np.unpackbits(w.view(np.uint8), count=size, bitorder="little") for w in (alive, one))
    assert not (a & o).any()
    return np.where(a == 1, _ALIVE, o).astype(np.int8)


# -- collapse probability -------------------------------------------------------


def test_collapse_constant_circuit_never_survives():
    rep = collapse_probability(Circuit(Const(1), 2), 0.5, 0.25, trials=200)
    assert rep.exact == 0
    assert rep.estimate == 0.0
    assert rep.passed


def test_zero_variable_circuit_is_a_circuit_error():
    # the bound's log2(4^D n / eps) and its eps <= 1/n need n >= 1
    c = Circuit(Const(1), 0)
    with pytest.raises(CircuitError):
        growth_factor(0, 1, 0.5)
    with pytest.raises(CircuitError):
        check_mainbound(c, Fraction(1, 2))
    for enforce in (False, True):
        with pytest.raises(CircuitError):
            collapse_probability(c, 0.1, 0.5, trials=10, enforce_bounds=enforce)
    with pytest.raises(CircuitError, match="n >= 1"):
        shrink_experiment(c, 0.3, 0.1, trials=100)


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
    # a position is free when u / 2^53 < p for the 53-bit uniform u, its
    # selector byte over a 45-bit tail: a tie reads the tail of its tie word,
    # and a non-tie gets the drawn answer whatever its tail
    n, trials, seed = 64, 1000, 9
    for p in (Fraction(1, 3), 0.3, Fraction(1, 256), Fraction(1, 2**60), 1 - Fraction(1, 2**53)):
        (size, free, _), = _restriction_blocks(n, p, trials, seed)
        sel, ties, tails, _ = reference_stream(n, p, size, seed, 0)
        byte = sel.ravel()
        drawn = np.unpackbits(free.view(np.uint8), bitorder="little").astype(bool)
        real = np.arange(byte.size) % sel.shape[1] < size
        fixed = real.copy()
        fixed[ties] = False
        for tail in (0, 2**45 - 1):
            answer = np.array([Fraction((b << 45) + tail, 2**53) < p for b in range(256)])
            assert np.array_equal(drawn[fixed], answer[byte[fixed]]), (p, tail)
        real_ties = 0
        for f, tail in zip(ties.tolist(), tails.tolist()):
            if real[f]:
                real_ties += 1
                assert drawn[f] == (Fraction((int(byte[f]) << 45) + tail, 2**53) < p), (p, f)
        assert real_ties > 100
        assert not drawn[~real].any()


# n = 1024 at _BLOCK + 3 trials compares its selector bytes in more than one
# chunk of variables and runs two blocks; trial counts that are not
# multiples of 64 pad the last word; n = 7 at p = 0.3 and _BLOCK + 3 trials
# has bytes that hold two freed ties
_STREAM_NS = [1, 2, 7, 64, 300, 512, 1024]
_STREAM_TRIALS = (1, 63, 65, _BLOCK + 3)
_STREAM_PS = (0, 0.3, 1)
_STREAM_SEED = 17


def test_stream_cases_cover_pads_chunks_blocks_and_shared_ties():
    assert {0, 1} <= set(_STREAM_PS)
    assert any(trials % 64 for trials in _STREAM_TRIALS)
    assert max(_STREAM_TRIALS) > _BLOCK
    assert max(_STREAM_NS) > _SELECT_BYTES // _BLOCK  # variables per chunk of a full block
    shared = 0
    _, rest = split_threshold(0.3)
    for b, size in enumerate((_BLOCK, 3)):
        _, ties, tails, _ = reference_stream(7, 0.3, size, _STREAM_SEED, b)
        freed = ties[tails < rest]
        shared += int((np.bincount(freed >> 3) >= 2).sum())
    assert shared > 0


@pytest.mark.parametrize("n", _STREAM_NS)
def test_restriction_blocks_are_the_whole_draws_transposed(n):
    for trials in _STREAM_TRIALS:
        for p in _STREAM_PS:
            blocks = list(_restriction_blocks(n, p, trials, _STREAM_SEED))
            want = list(reference_blocks(n, p, trials, _STREAM_SEED))
            assert len(blocks) == len(want)
            for (size, free, x), (ref_free, ref_x) in zip(blocks, want):
                assert free.shape == x.shape == (n, -(-size // 64)) and size == len(ref_free)
                assert np.array_equal(trial_major(free, size), ref_free)
                assert np.array_equal(trial_major(x, size), ref_x)


def test_restriction_bits_take_no_trials_by_n_byte_array():
    # a whole block's (1024, 16384) selector bytes alone would take 16 MiB;
    # the two packed outputs are 4 MiB, and compared a chunk of variables at a
    # time, 256 KiB of selector bytes each, the peak is 5.0 MiB
    tracemalloc.start()
    try:
        list(_restriction_blocks(1024, 0.025, 16384, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_restricted_stats_memory_does_not_grow_with_fan_in():
    # holding the root OR's 128 children whole (a (128, 10000) byte unpack and
    # two int32 arrays per child) peaked at 14.4 MiB, and fixed-to-1 planes
    # for all 1024 leaves up front at 3.5 MiB; streamed, with each leaf's plane
    # built as it is read, the peak is about 1.1 MiB
    c = load_circuit("tribes:m=128,w=8")
    (size, free, x), = _restriction_blocks(c.n, 0.2, 10_000, 1)
    tracemalloc.start()
    try:
        _restricted(c, free, x, size, stats=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


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


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [
    lambda c, eps: check_mainbound(c, eps),
    lambda c, eps: collapse_probability(c, 0.01, eps, trials=10),
    lambda c, eps: collapse_probability(c, 0.01, eps, trials=10, enforce_bounds=False),
    lambda c, eps: build_sandwich(to_nand_form(c), eps),
    lambda c, eps: shrink_experiment(c, 0.3, eps, trials=10),
], ids=["check_mainbound", "collapse_probability", "collapse_unenforced", "build_sandwich",
        "shrink_experiment"])
def test_non_finite_eps_is_a_circuit_error(call, eps):
    # the range check comes before Fraction(eps), which raises ValueError on
    # nan and OverflowError on an infinity
    with pytest.raises(CircuitError, match="eps"):
        call(gen_tribes(2, 2), eps)


def test_collapse_bound_overflow_is_a_circuit_error():
    c = parse("(and " * 100 + "x0" + ")" * 100)
    with pytest.raises(CircuitError, match="overflows"):
        collapse_probability(c, 0.5, 0.5, trials=10, enforce_bounds=False)


def test_collapse_bound_holds_at_legal_p():
    c = parse("(and x0 x1 x2 x3)")
    logterm = 9 * np.log2(4 * 4 / 0.1)
    rep = collapse_probability(c, 0.9 / logterm, 0.1, trials=2000, master_seed=3)
    assert isinstance(rep, CollapseReport)
    assert rep.passed
    assert rep.rhs >= 2 * 0.1
    assert rep.trials == 2000 and 0 <= rep.estimate <= 1


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
    c = to_nand_form(gen_tribes(2, 2))
    with pytest.raises(CircuitError):
        build_sandwich(c, 0)
    with pytest.raises(CircuitError):
        build_sandwich(c, Fraction(3, 10))
    build_sandwich(c, Fraction(1, 4))


def test_sandwich_requires_nand_form():
    with pytest.raises(CircuitError, match="NAND form"):
        build_sandwich(parse("(and x0 x1)"), Fraction(1, 16))
    nested_not = Circuit(Nand((Leaf(0), Not(Nand((Leaf(1), Leaf(2)))))), 3)
    with pytest.raises(CircuitError, match=r"NAND form \(got Not\)"):
        build_sandwich(nested_not, Fraction(1, 16))
    # the first offending node in pre-order is named
    with pytest.raises(CircuitError, match=r"NAND form \(got And\)"):
        build_sandwich(parse("(nand (and x0 x1) (or x2 x3))"), Fraction(1, 16))


def test_sandwich_identity_when_masses_already_inside():
    # NAND of two leaves rejects with mass 1/4, inside [1/16, 15/16],
    # so both halves reproduce the input and the gap vanishes
    c = to_nand_form(parse("(nand x0 x1)"))
    pair = build_sandwich(c, Fraction(1, 16))
    assert pair.gap == 0
    assert truth_table(pair.lower).tolist() == truth_table(c).tolist()
    assert truth_table(pair.upper).tolist() == truth_table(c).tolist()


def test_sandwich_wide_or_prunes_to_exact_gap():
    c = to_nand_form(parse("(or x0 x1 x2 x3 x4 x5)"))
    pair = build_sandwich(c, Fraction(1, 16))
    assert isinstance(pair.upper.root, Const) and pair.upper.root.value == 1
    assert pair.gap == Fraction(1, 16)
    assert pair.lower.size == 4 and simplify(c).size == 6
    tt_c, tt_lo = truth_table(c), truth_table(pair.lower)
    assert np.all(tt_lo <= tt_c)


def test_sandwich_constant_input():
    pair = build_sandwich(Circuit(Const(1), 2), Fraction(1, 8))
    assert pair.gap == 0
    assert isinstance(pair.lower.root, Const)


def test_sandwich_random_battery():
    eps = Fraction(1, 16)
    for c in random_corpus(12, 10, 3, seed=717):
        nand = to_nand_form(c)
        pair = build_sandwich(nand, eps)
        tt = truth_table(nand)
        tt_lo, tt_up = truth_table(pair.lower), truth_table(pair.upper)
        assert np.all(tt_lo <= tt) and np.all(tt <= tt_up)
        assert sandwich_condition_violations(pair.lower, eps) == []
        assert sandwich_condition_violations(pair.upper, eps) == []
        assert pair.lower.size <= simplify(nand).size
        assert pair.upper.size <= simplify(nand).size
        uni = BiasVector.uniform(c.n)
        gap = acceptance_probability(pair.upper, uni) - acceptance_probability(
            pair.lower, uni
        )
        assert gap == pair.gap


def _reference_nand(nodes, accs):
    kept, kacc = [], []
    for nd, a in zip(nodes, accs):
        if isinstance(nd, Const):
            if nd.value == 0:
                return Const(1), Fraction(1)
            continue
        kept.append(nd)
        kacc.append(a)
    if not kept:
        return Const(0), Fraction(0)
    rej = Fraction(1)
    for a in kacc:
        rej *= a
    if len(kept) == 1 and isinstance(kept[0], Leaf):
        inner = kept[0]
        return Leaf(inner.var, not inner.negated), 1 - rej
    return Nand(tuple(kept)), 1 - rej


def _reference_sandwich_node(node, e):
    """The sandwich recursion in Fraction arithmetic: (lower, upper, acc_lower,
    acc_upper, acc_true)."""
    if isinstance(node, Leaf):
        h = Fraction(1, 2)
        return node, node, h, h, h
    if isinstance(node, Const):
        v = Fraction(node.value)
        return node, node, v, v, v
    parts = yield [_reference_sandwich_node(ch, e) for ch in node.children]
    lows = [p[0] for p in parts]
    ups = [p[1] for p in parts]
    alows = [p[2] for p in parts]
    aups = [p[3] for p in parts]
    rej_true = Fraction(1)
    for p_ in parts:
        rej_true *= p_[4]
    acc_true = 1 - rej_true

    low_node, acc_low = _reference_nand(ups, aups)
    if rej_true >= e:
        up_cand, acc_upc = _reference_nand(lows, alows)
        if 1 - acc_upc >= e:
            return low_node, up_cand, acc_low, acc_upc, acc_true
        return low_node, Const(1), acc_low, Fraction(1), acc_true

    up_node, acc_up = Const(1), Fraction(1)
    if 1 - acc_low >= e:
        return low_node, up_node, acc_low, acc_up, acc_true
    if isinstance(low_node, Const):
        return low_node, up_node, acc_low, acc_up, acc_true

    alive = [(u, a) for u, a in zip(ups, aups) if not isinstance(u, Const)]
    suffix = Fraction(1)
    jstar, q = None, None
    for j in range(len(alive) - 1, -1, -1):
        nxt = suffix * alive[j][1]
        if nxt < e:
            break
        suffix = nxt
        jstar, q = j, nxt
    if jstar is None or jstar == 0:
        raise CircuitError("pruning scan broke an inductive rejection bound")
    if q * q <= e:
        kept = tuple(u for u, _ in alive[jstar:])
        low_node, acc_low = _reference_nand(kept, [a for _, a in alive[jstar:]])
    else:
        u, a = alive[jstar - 1]
        if not (e <= a and a * a <= e):
            raise CircuitError("pruning fallback child outside [eps, sqrt(eps)]")
        low_node, acc_low = _reference_nand([u], [a])
    return low_node, up_node, acc_low, acc_up, acc_true


def _reference_violations(c, e):
    rej = {}
    nodes = list(iter_nodes(c.root))
    for node in reversed(nodes):
        if isinstance(node, Nand):
            r = Fraction(1)
            for ch in node.children:
                r *= 1 - rej[id(ch)]
        elif isinstance(node, Leaf):
            r = Fraction(1, 2)
        else:
            r = Fraction(1 - node.value)
        rej[id(node)] = r
    return [(type(node).__name__, float(rej[id(node)])) for node in nodes
            if not isinstance(node, Const) and not e <= rej[id(node)] <= 1 - e]


def reference_sandwich(c, eps):
    """(lower, upper, gap) of the Fraction recursion, through the same
    simplify steps and Fraction condition check as ``build_sandwich``."""
    base = simplify(c)
    low, up, acc_low, acc_up, _ = trampoline(_reference_sandwich_node(base.root, eps))
    halves = simplify(Circuit(low, c.n)), simplify(Circuit(up, c.n))
    for half in halves:
        bad = _reference_violations(half, eps)
        if bad:
            raise CircuitError(f"sandwich output violates node conditions: {bad[0]}")
    return *halves, acc_up - acc_low


def random_nand_tree(rng, leaves):
    """A NAND-form read-once circuit with fan-ins 1-6, some negated leaves
    and a few constant leaves."""
    count = 0

    def build(budget, depth):
        nonlocal count
        if budget == 1 or depth == 0:
            if rng.random() < 0.05:
                return Const(rng.randint(0, 1))
            count += 1
            return Leaf(count - 1, rng.random() < 0.3)
        sizes = [1] * rng.randint(1, min(6, budget))
        for _ in range(budget - len(sizes)):
            sizes[rng.randrange(len(sizes))] += 1
        return Nand(tuple(build(size, depth - 1) for size in sizes))

    root = build(leaves, rng.randint(1, 6))
    return Circuit(root, max(count, 1))


def _sandwich_outcome(build, c, eps):
    try:
        return build(c, eps)
    except CircuitError as err:
        return str(err)


@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 16), Fraction(1, 300), Fraction(2, 9)],
                         ids=["1/4", "1/16", "1/300", "2/9"])
def test_sandwich_pairs_match_the_fraction_recursion(eps):
    circuits = [load_circuit(spec) for spec in (
        "tribes:m=128,w=8", "tribes:m=6,w=3", "tribes:m=40,w=5", "rectribes:d=3,widths=8-16-8",
        "rectribes:d=3,widths=2-4-2", "rectribes:d=4,widths=3-2-4-2")]
    circuits += random_corpus(30, 24, 4, seed=409)
    circuits = [to_nand_form(c) for c in circuits]
    rng = random.Random(410)
    circuits += [random_nand_tree(rng, rng.randint(1, 40)) for _ in range(60)]
    for nand in circuits:
        assert sandwich_condition_violations(nand, eps) == _reference_violations(nand, eps)
        want = _sandwich_outcome(reference_sandwich, nand, eps)
        got = _sandwich_outcome(build_sandwich, nand, eps)
        if isinstance(want, str):
            assert got == want
        else:
            assert (got.lower, got.upper, got.gap) == want
            # build_sandwich leaves the node-mass check of its halves to callers
            assert sandwich_condition_violations(got.lower, eps) == []
            assert sandwich_condition_violations(got.upper, eps) == []
            assert type(got.gap) is type(got.eps) is Fraction and got.eps == eps
            # the halves come out constant-propagated without a simplify pass
            assert simplify(got.lower) == got.lower
            assert simplify(got.upper) == got.upper
            # neither half uses more leaves than the constant-propagated input
            assert max(got.lower.size, got.upper.size) <= simplify(nand).size


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_sandwich_pointwise_property(meta):
    rng = random.Random(meta)
    n = rng.randint(2, 8)
    c = gen_random_read_once(n, rng.randint(1, 3), seed=rng.randrange(2**32))
    nand = to_nand_form(c)
    pair = build_sandwich(nand, Fraction(1, 16))
    for x in range(1 << n):
        lo, mid, up = (
            evaluate(pair.lower, x),
            evaluate(nand, x),
            evaluate(pair.upper, x),
        )
        assert lo <= mid <= up


def test_condition_check_flags_light_rejection():
    c = to_nand_form(parse("(or x0 x1 x2 x3 x4 x5)"))
    bad = sandwich_condition_violations(c, Fraction(1, 16))
    assert bad and bad[0][0] == "Nand"
    ok = to_nand_form(parse("(nand x0 x1)"))
    assert sandwich_condition_violations(ok, Fraction(1, 16)) == []


def test_condition_violations_match_per_node_acceptance():
    e = Fraction(1, 8)
    for c in random_corpus(20, 10, 3, seed=31):
        nand = to_nand_form(c)
        expected = []
        for node in iter_nodes(nand.root):
            if isinstance(node, Const):
                continue
            sub = Circuit(node, nand.n)
            rej = 1 - acceptance_probability(sub, BiasVector.uniform(nand.n))
            if not e <= rej <= 1 - e:
                expected.append((type(node).__name__, float(rej)))
        assert sandwich_condition_violations(nand, e) == expected
    with pytest.raises(CircuitError, match="NAND form"):
        sandwich_condition_violations(parse("(and x0 x1)"), e)


# -- shrink experiment ----------------------------------------------------------


def simplified_stats(c: Circuit) -> tuple:
    """(state, live leaves, largest gate fan-in) of an already simplified circuit."""
    if isinstance(c.root, Const):
        return c.root.value, 0, 0
    fans = [len(nd.children) for nd in iter_nodes(c.root) if isinstance(nd, (And, Or, Nand))]
    return 2, c.size, max(fans, default=0)


def test_restricted_stats_match_simplify():
    # trial counts that are not multiples of 64 leave pad bits in the last word
    for i, c in enumerate(random_corpus(30, 9, 4, seed=61)):
        nand = to_nand_form(c)
        pair = build_sandwich(nand, Fraction(1, 16))
        (size, free, x), = _restriction_blocks(c.n, 0.4, 37 + 5 * i, c.n)
        free_t, x_t = trial_major(free, size), trial_major(x, size)
        for form in (c, Circuit(Not(c.root), c.n), nand, pair.lower, pair.upper):
            alive, one, leaves, fan = _restricted(form, free, x, size, stats=True)
            planes = _restricted(form, free, x, size)  # collapse's path
            assert np.array_equal(planes[0], alive) and np.array_equal(planes[1], one)
            state = states(alive, one, size)
            assert len(leaves) == len(fan) == size
            for t in range(size):
                m = RestrictionMask.from_bits(free_t[t].tolist(), x_t[t].tolist())
                want = simplified_stats(simplify(restrict(form, m)))
                assert (int(state[t]), int(leaves[t]), int(fan[t])) == want, (render(form), t)


def _wide(gate, items):
    return f"({gate} {' '.join(items)})"


# gates that are constant in every trial while their children and their
# parents are alive in some, and gates with more than 64 leaf or gate
# children, whose live children are counted 64 planes at a time
_SKIP_RULE_CASES = [
    ("(and 0 (or x0 x1))", 0.5),
    ("(or 1 (and x0 x1) x2)", 0.5),
    ("(or x3 (and 0 (or x0 x1)) (and x4 x5))", 0.5),
    ("(and x3 (or 1 (and x0 x1) x2) (or x4 (nand x5 x6)))", 0.5),
    (_wide("or", [f"x{i}" for i in range(130)]), 0.99),
    (_wide("and", ["x130", _wide("or", [f"x{i}" for i in range(130)])]), 0.99),
    (_wide("or", [f"(and x{2 * i} x{2 * i + 1})" for i in range(70)]), 0.9),
]


@pytest.mark.parametrize("text, p", _SKIP_RULE_CASES, ids=[
    "and-0", "or-1", "or-over-and-0", "and-over-or-1", "or-130-leaves", "and-over-or-130-leaves",
    "or-70-gates"])
def test_restricted_stats_skip_dead_gates_and_count_wide_ones(text, p):
    c = parse(text)
    for trials in (37, 130):
        (size, free, x), = _restriction_blocks(c.n, p, trials, 5)
        free_t, x_t = trial_major(free, size), trial_major(x, size)
        for form in (c, Circuit(Not(c.root), c.n), to_nand_form(c)):
            alive, one, leaves, fan = _restricted(form, free, x, size, stats=True)
            planes = _restricted(form, free, x, size)
            assert np.array_equal(planes[0], alive) and np.array_equal(planes[1], one)
            state = states(alive, one, size)
            want_state, want_leaves, want_fan = uint8_restricted(form, free_t, x_t, stats=True)
            assert np.array_equal(state, want_state)
            assert np.array_equal(leaves, want_leaves) and np.array_equal(fan, want_fan)
            for t in range(size):
                m = RestrictionMask.from_bits(free_t[t].tolist(), x_t[t].tolist())
                want = simplified_stats(simplify(restrict(form, m)))
                assert (int(state[t]), int(leaves[t]), int(fan[t])) == want, (text, t)
        if c.size > 64:  # the wide gate is alive in some trial, so it counted
            assert (state == _ALIVE).any()


@pytest.mark.parametrize("p", [0.9, 0.97])
def test_collapse_hits_match_uint8_oracle(p):
    c = load_circuit("random:n=512,d=3,seed=5")
    trials = 20_000
    rep = collapse_probability(c, p, 0.5, trials=trials, master_seed=3, enforce_bounds=False)
    want = sum(int((uint8_restricted(c, free, x) == _ALIVE).sum())
               for free, x in reference_blocks(c.n, p, trials, 3))
    assert want > 0
    assert round(rep.estimate * trials) == want


# at eps = 1/16 both halves of this tribes are constant, so it takes 1/300,
# where they keep every leaf in NAND form
@pytest.mark.parametrize("spec, eps", [("tribes:m=128,w=8", Fraction(1, 300)),
                                       ("rectribes:d=3,widths=8-16-8", Fraction(1, 16))])
def test_shrink_matches_uint8_oracle(spec, eps):
    c = load_circuit(spec)
    p, trials, seed = 0.2, 3000, 6
    rep = shrink_experiment(c, p, eps, trials=trials, master_seed=seed)
    nand = to_nand_form(c)
    pair = build_sandwich(nand, eps)
    (free, x), = reference_blocks(c.n, p, trials, seed)
    (st_lo, lv_lo, fn_lo), (st_up, lv_up, fn_up), (st_or, lv_or, _) = (
        uint8_restricted(form, free, x, stats=True) for form in (pair.lower, pair.upper, c)
    )
    assert np.array_equal(rep.sizes_lower, lv_lo)
    assert np.array_equal(rep.sizes_upper, lv_up)
    assert np.array_equal(rep.sizes_original, lv_or)
    assert np.array_equal(rep.fanin_max, np.maximum(fn_lo, fn_up))
    assert rep.fanin_max.max() > 1 and rep.sizes_max.max() > 1
    for rate, st in ((rep.nonconstant_lower, st_lo), (rep.nonconstant_upper, st_up),
                     (rep.nonconstant_original, st_or)):
        assert rate == int((st == _ALIVE).sum()) / trials
    assert 0 < rep.nonconstant_upper < 1


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


def test_shrink_constant_circuit_never_survives():
    for value in (0, 1):
        rep = shrink_experiment(Circuit(Const(value), 1), 0.3, 0.1, trials=100)
        assert rep.sizes_max.max() == rep.sizes_original.max() == rep.fanin_max.max() == 0
        assert rep.nonconstant_original == rep.nonconstant_lower == 0.0


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
    with pytest.raises(CircuitError, match="not a number"):
        shrink_experiment(c, 0.5, 0.1, threshold=float("nan"))


def test_shrink_trials_cap_raises_before_drawing():
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="exceeds shrink cap"):
            shrink_experiment(gen_tribes(8, 4), 0.3, 0.1, trials=SHRINK_TRIALS_CAP + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_shrink_report_dict_uses_plain_types():
    rep = shrink_experiment(gen_tribes(2, 2), 0.3, 0.1, trials=200, master_seed=8)
    d = rep.as_dict()
    assert isinstance(d["size_mean_lower"], float)
    assert isinstance(d["quantile_value"], int)
    assert set(d["params"]) >= {"n", "depth", "gap", "master_seed"}
