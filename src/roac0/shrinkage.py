"""Truly random p-regular restrictions: collapse rates and sandwiches.

A p-regular restriction keeps each position free independently with
probability p (mask bit 1) and fixes the rest to uniform bits.  For a
read-once circuit the restricted function is nonconstant exactly when
constant propagation leaves a live leaf, so collapse statistics reduce to a
three-state evaluation (0, 1, alive).  It is bit-sliced: the draws of a
block come packed 64 trials to a uint64 word, one row per variable, and
the fold carries two word planes per node (alive, and constant 1), so a
gate costs a few word operations per child for 64 trials at once.  The
fold streams: a gate takes in each child as soon as it is done and keeps
only its alive plane, so memory does not grow with fan-in beyond a bit
per child and trial.  The seeded draw stream is fixed, so every hit count
and size reproduces for a given seed: block b of ``master_seed`` draws raw
PCG64 words, variable-major, as one selector byte per position, then one
word per tie, then the rows of x as they stand.  A position is free when
its byte over a 45-bit tail, a 53-bit uniform u, is below T = ceil(p 2^53).
Only a byte equal to T's top byte leaves that open, and only such a tie
draws its tail, so each position is free with probability T / 2^53
exactly, from about a byte of generator output.  The comparisons pack
straight into word rows, with no transpose.

The sandwich builder works on NAND-form circuits.  Writing rej(f) for
Pr[f = 0], a NAND node rejects exactly when every child accepts, so its
acceptance is 1 minus the product of its children's, the product rule of
``circuit.product_fold``.  Nodes with rej(f) >= eps swap each child for
its opposite-side half (lower half gets child uppers and vice versa),
replacing an upper whose rejection dropped below eps by the constant 1.
Nodes with rej(f) < eps take the constant 1 upper outright, and if the
lower's rejection also fell below eps, children are pruned in index order
until the rejection lands in [eps, sqrt(eps)]; when one pruning step would
overshoot the window, the single child at the jump has acceptance in
[eps, sqrt(eps)] and a one-child NAND of it serves as the lower half.
All masses are exact rationals, carried as unnormalised pairs of ints and
compared with eps by cross-multiplying, so every case split is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import ceil, isnan, sqrt
from typing import Iterator

import numpy as np

from .circuit import (
    _WORD,
    BiasVector,
    Circuit,
    CircuitError,
    Const,
    Leaf,
    Nand,
    Node,
    _bits,
    _nand,
    _pair_not,
    _pair_times,
    acceptance_probability,
    fold,
    iter_nodes,
    product_fold,
    push_nots_to_leaves,  # noqa: F401  (perfbench's tracer wraps this name here)
    simplify,  # noqa: F401  (perfbench's tracer wraps this name here)
    strip_leaf_negations,  # noqa: F401  (perfbench's tracer wraps this name here)
    to_nand_form,
    trampoline,
)
from .fourier import biased_gap  # noqa: F401  (perfbench's tracer wraps this name here)
from .fourier import CapExceeded, growth_factor
from .prg import wilson_interval


class _OpenGate:
    """What an open gate of :func:`_restricted`'s fold keeps of its children.

    ``one`` and ``nonzero`` are the running AND (for an AND) or OR (for an
    OR) of the children's ``one`` and ``alive | one`` planes.  Of each child
    only its alive plane stays, in ``leaf_planes`` for a leaf and in
    ``gate_planes`` for a gate alive in some trial; such a gate's per-trial
    live leaf count is added into ``leaves`` and its largest fan-in maxed into
    ``fan`` as it arrives (both None before the first).
    """

    __slots__ = ("one", "nonzero", "leaf_planes", "gate_planes", "leaves", "fan")

    def __init__(self, one, nonzero):
        self.one, self.nonzero = one, nonzero
        self.leaf_planes, self.gate_planes = [], []
        self.leaves = self.fan = None


def _restricted(c: Circuit, free: np.ndarray, x: np.ndarray, size: int, stats: bool = False):
    """Bit planes of the restricted circuit over ``size`` trials at once.

    ``free`` and ``x`` hold one row of words per variable, as
    :func:`_restriction_blocks` yields them.  Every value of the fold is a
    pair of planes (alive, one): a trial's bit is set in ``alive`` when the
    restricted node is nonconstant and in ``one`` when it is the constant 1;
    neither bit means the constant 0.  A leaf reads its variable's rows.  An
    AND keeps ``one`` where every child is 1 and is alive where no child is 0
    and not every child is 1; an OR is the dual.  Pad bits past ``size`` are
    never alive.  Returns (alive, one).

    With ``stats`` it returns (alive, one, live leaf count, max gate fan-in),
    the last two per trial as int32 arrays, counted as
    simplify(restrict(.)) leaves them: neutral constants drop out, absorbed
    gates vanish, single-child And/Or collapse, and a one-child NAND survives
    as a gate only when its child keeps two or more live leaves (one live
    leaf simplifies to a literal).

    The fold streams: a gate folds each child into an :class:`_OpenGate` as
    soon as that child is done, so it never holds its children's per-trial
    arrays, only their alive planes of one bit per trial.  Only a gate alive
    in some trial counts its live children, when it closes, unpacking at
    most 64 planes at a time; a leaf's count is its alive bit, and a gate
    alive in no trial counts nothing.  So the fold's memory does not grow
    with a gate's fan-in by more than a bit per child and trial.
    """
    words = free.shape[1]

    # a value is (alive, one, counts): counts is None for a leaf, (leaves, fan)
    # for a gate that counted, and () for a constant or any other gate
    def leaf(var, negated):
        # fixed to 1, or fixed to 0 under a negation: a fresh plane a gate may keep
        one = ~(x[var] | free[var]) if negated else x[var] & ~free[var]
        return free[var], one, None

    def const(value):
        zeros = np.zeros(words, _WORD)
        return zeros, ~zeros if value else zeros, ()

    def absorb(gate, child, is_and):
        alive, one, counts = child
        nonzero = alive | one
        if gate is None:
            gate = _OpenGate(one, nonzero)
        elif is_and:  # no child 0 so far, every child 1 so far
            gate.one &= one
            gate.nonzero &= nonzero
        else:  # some child not 0 so far, some child 1 so far
            gate.one |= one
            gate.nonzero |= nonzero
        if counts is None:
            gate.leaf_planes.append(alive)
        elif counts:
            leaves, fan = counts
            gate.gate_planes.append(alive)
            if gate.leaves is None:
                gate.leaves, gate.fan = leaves, fan
            else:
                gate.leaves += leaves
                np.maximum(gate.fan, fan, out=gate.fan)
        return gate

    def live_count(planes):
        count = np.zeros(size, dtype=np.int32)
        for i in range(0, len(planes), 64):  # 64 planes sum to at most 64 in uint8
            count += _bits(np.array(planes[i:i + 64]), size).sum(axis=0, dtype=np.uint8)
        return count

    def finish(gate, is_and):
        if gate is None:
            return const(int(is_and))
        one_out = gate.one
        # either way ``nonzero`` holds ``one``, and alive is the rest of it
        alive_out = np.bitwise_xor(gate.nonzero, one_out, out=gate.nonzero)
        if not stats or not alive_out.any():
            return alive_out, one_out, ()
        leaves = live_count(gate.leaf_planes)
        count = leaves + live_count(gate.gate_planes)  # live children
        # a gate with one live child simplifies away, or stays as a one-child
        # NAND above two or more live leaves, whose nearest common gate has
        # two live children: either way it adds nothing to the largest fan-in
        fan = np.where(count >= 2, count, 0)
        if gate.leaves is not None:  # a live gate child counts its leaves, not 1
            leaves += gate.leaves
            np.maximum(fan, gate.fan, out=fan)
        live = _bits(alive_out, size)
        return alive_out, one_out, (leaves * live, fan * live)

    alive, one, counts = fold(c, leaf, const, lambda: None, absorb, finish)
    if not stats:
        return alive, one
    if counts:
        return alive, one, *counts
    return alive, one, _bits(alive, size).astype(np.int32), np.zeros(size, dtype=np.int32)


def _exact_nonconstant_probability(c: Circuit, p) -> Fraction:
    """Pr over (t, x) that the restricted circuit stays nonconstant.

    Leaf values are uniform, so negations shift nothing: with the NOTs
    pushed to the leaves (as ``fold`` does) and the leaf flags dropped, the
    circuit is monotone, and the restriction is nonconstant exactly when
    setting free bits to all-1 accepts while all-0 rejects.  Each bit is 1
    with probability (b + a) / 2b in the first event and (b - a) / 2b in the
    second, p = a/b, and the first event contains the second, so the
    probability is the difference of the two acceptance probabilities.
    Each is a product fold of pairs over ``c`` itself whose leaves ignore
    their flags; both run over leaf denominator 2b on the same tree, so
    their denominators agree and one Fraction is built at the end.
    """
    a, b = Fraction(p).as_integer_ratio()

    def accepts(leaf):
        return product_fold(c, lambda var, negated: leaf, lambda value: (value, 1), (1, 1),
                            _pair_times, _pair_not)

    (hi, den), (lo, _) = accepts((b + a, 2 * b)), accepts((b - a, 2 * b))
    return Fraction(hi - lo, den)


@dataclass(frozen=True)
class CollapseReport:
    """Monte-Carlo nonconstant rate against the restriction collapse bound."""

    estimate: float
    ci: tuple
    se: float
    rhs: float
    exact: Fraction
    trials: int
    passed: bool
    params: dict = field(default_factory=dict)


_BLOCK = 1 << 14  # trials per seeded block
SHRINK_TRIALS_CAP = 1 << 22  # a shrink run keeps about 225 B per trial, 0.95 GB at the cap
_SELECT_BYTES = 1 << 18  # selector bytes compared per chunk of variables


def _restriction_blocks(n: int, p: float, trials: int, master_seed: int) -> Iterator:
    """(size, free, x) per block of up to ``_BLOCK`` trials.

    Both come back variable-major and packed along the trial axis, as
    (n, W) arrays of little-endian uint64 words, W = ceil(size / 64), with
    zero pad bits.  Block b draws raw 64-bit words from
    ``PCG64(SeedSequence([master_seed, b]))``, read as little-endian bytes:

    1. n W 8 words of selector bytes, an (n, 64 W) byte array whose byte j
       of row v belongs to variable v in trial j, pad trials included;
    2. one tie word per selector byte equal to ``top`` (below), in flat
       index order;
    3. n W words, the rows of x as they stand.

    A position is free when the 53-bit uniform u made of its selector byte
    over a 45-bit tail is below T = ceil(p 2^53): u / 2^53 < p exactly when
    u < T, as u is an integer.  With T = top 2^45 + rest and rest < 2^45, a
    byte below ``top`` is free whatever the tail, a byte above it is fixed,
    and only a tie, a byte equal to ``top``, reads its tail: the top 45 bits
    of its tie word, free when below ``rest``.  So each position is free
    independently with probability top / 256 + rest / 2^53 = T / 2^53, and
    x is independent of the mask.  At p = 1, T = 2^53 would make ``top``
    256, which no byte reaches; it is 255 instead, with ``rest`` 2^45, so
    every tie is free as well, and the selector bytes and tie words are
    drawn as for any other p.

    The selector bytes are compared about ``_SELECT_BYTES`` at a time, a
    chunk of whole variables, so memory stays bounded; the chunk does not
    enter the stream.  A byte-level ``bitwise_or.at`` sets the freed ties,
    since two of them can share a byte.
    """
    t = ceil(Fraction(p) * 2**53)
    top = min(t >> 45, 255)
    rest = t - (top << 45)
    for b, start in enumerate(range(0, trials, _BLOCK)):
        size = min(_BLOCK, trials - start)
        words = -(-size // 64)
        bg = np.random.PCG64(np.random.SeedSequence([master_seed, b]))
        free = np.empty((n, words), dtype=_WORD)
        mask = free.view(np.uint8)
        step = max(1, _SELECT_BYTES // (64 * words))  # variables per chunk
        ties = []
        for v in range(0, n, step):
            rows = min(step, n - v)
            raw = bg.random_raw(rows * words * 8).astype(_WORD, copy=False)
            sel = raw.view(np.uint8).reshape(rows, 64 * words)
            mask[v:v + rows] = np.packbits(sel < top, axis=1, bitorder="little")
            ties.append(np.flatnonzero(sel == top) + v * 64 * words)
        ties = np.concatenate(ties)
        won = ties[bg.random_raw(len(ties)) >> 19 < rest]
        np.bitwise_or.at(mask.reshape(-1), won >> 3, (1 << (won & 7)).astype(np.uint8))
        x = bg.random_raw(n * words).astype(_WORD, copy=False).reshape(n, words)
        if size % 64:
            pad = _WORD.type((1 << size % 64) - 1)
            free[:, -1] &= pad
            x[:, -1] &= pad
        yield size, free, x


def collapse_probability(
    c: Circuit,
    p: float,
    eps: float,
    trials: int = 10**5,
    master_seed: int = 0,
    enforce_bounds: bool = True,
) -> CollapseReport:
    """Estimate Pr[restricted circuit is nonconstant] and check the bound

        2p * min(F[0], 1-F[0]) * (9*log2(4^D*n/eps))^D + 2*eps.

    Requires eps < 1/n and p at most the damping boundary for (n, D, eps).
    The same probability is also computed exactly through the monotone
    two-sided coin identity; the MC estimate ships with a Wilson interval.
    ``enforce_bounds=False`` skips the parameter gate: the estimator and the
    exact identity are meaningful for any p, only the bound needs the gate.
    """
    n, D = c.n, c.depth
    if not 0 <= p <= 1:
        raise CircuitError(f"p={p} outside [0,1]")
    if not 0 < eps < 1:  # nan and inf fail here, before Fraction
        raise CircuitError(f"eps={eps} outside (0,1)")
    if enforce_bounds and not Fraction(eps) * n < 1:
        raise CircuitError(f"eps={eps} not inside (0, 1/{n})")
    factor = growth_factor(n, D, eps)
    pmax = 1.0 / factor
    if enforce_bounds and p > pmax * (1 + 1e-12):
        raise CircuitError(f"p={p} above the damping boundary {pmax}")
    if trials < 1:
        raise CircuitError("trials must be positive")
    hits = 0
    for size, free, x in _restriction_blocks(n, p, trials, master_seed):
        alive, _ = _restricted(c, free, x, size)
        hits += int(np.bitwise_count(alive).sum())
    estimate = hits / trials
    se = sqrt(max(estimate * (1 - estimate), 1e-300) / trials)
    f0 = acceptance_probability(c, BiasVector.uniform(n))
    minf0 = float(min(f0, 1 - f0))
    rhs = 2 * p * minf0 * factor + 2 * eps
    exact = _exact_nonconstant_probability(c, p)
    return CollapseReport(
        estimate=estimate,
        ci=wilson_interval(hits, trials),
        se=se,
        rhs=rhs,
        exact=exact,
        trials=trials,
        passed=estimate <= rhs + 3 * se,
        params={"p": p, "eps": eps, "n": n, "depth": D, "min_f0": minf0},
    )


@dataclass(frozen=True)
class SandwichPair:
    """lower <= circuit <= upper pointwise, with the exact expected gap."""

    lower: Circuit
    upper: Circuit
    eps: Fraction
    gap: Fraction


def _require_nand_form(node: Node) -> None:
    if not isinstance(node, (Leaf, Const, Nand)):
        raise CircuitError(
            f"sandwich construction needs NAND form (got {type(node).__name__}); "
            "run to_nand_form first"
        )


_ONE = Const(1), (1, 1)


def _literal_pair(node: Node) -> tuple:
    """A leaf's or a constant's acceptance pair under uniform inputs."""
    return (1, 2) if isinstance(node, Leaf) else (node.value, 1)


def _nand_pair(pairs) -> tuple:
    """A NAND's acceptance pair from its children's: it rejects when every child accepts."""
    return _pair_not(reduce(_pair_times, pairs, (1, 1)))


def _make_nand(halves):
    """simplify's NAND of (node, acceptance pair) halves, with its exact pair.  Every
    constant half is (Const(v), (v, 1)), so a 1 child multiplies by (1, 1)."""
    node = _nand([nd for nd, _ in halves])
    if isinstance(node, Const):
        return node, (node.value, 1)
    return node, _nand_pair(pair for _, pair in halves)


def _sandwich_node(node: Node, en: int, ed: int):
    """Returns (lower, upper, own) at eps = en/ed: two (node, acceptance) halves
    and the node's own acceptance.

    Each acceptance is an unnormalised (numerator, denominator) pair of ints
    with a positive denominator, and each comparison with eps or its square
    root cross-multiplies.  Every half is built by simplify's NAND rule, so
    a node runs as its own half would.  A node that is not NAND form raises
    before its children run, so the walk's order makes it the first such
    node in pre-order.
    """
    if isinstance(node, (Leaf, Const)):
        half = node, _literal_pair(node)
        return half, half, half[1]
    _require_nand_form(node)
    parts = yield [_sandwich_node(ch, en, ed) for ch in node.children]
    lows = [p[0] for p in parts]
    ups = [p[1] for p in parts]
    own = _nand_pair(p[2] for p in parts)
    lower = _make_nand(ups)
    an, ad = own
    if (ad - an) * ed >= en * ad:  # the node rejects with at least e
        upper = _make_nand(lows)
        un, ud = upper[1]
        if (ud - un) * ed >= en * ud:  # so does the candidate upper
            return lower, upper, own
        return lower, _ONE, own

    ln, ld = lower[1]
    if (ld - ln) * ed >= en * ld or isinstance(lower[0], Const):
        # the lower rejects with at least e, or rejection below e forces the
        # constant 1, so the node is identically 1
        return lower, _ONE, own

    # prune leading children until the suffix rejection reaches [e, sqrt(e)]
    alive = [u for u in ups if not isinstance(u[0], Const)]
    sn = sd = 1
    jstar = None
    for j in range(len(alive) - 1, -1, -1):
        an, ad = alive[j][1]
        if sn * an * ed < en * sd * ad:  # the longer suffix rejects below e
            break
        sn, sd = sn * an, sd * ad
        jstar = j
    if jstar is None or jstar == 0:
        raise CircuitError("pruning scan broke an inductive rejection bound")
    if sn * sn * ed <= en * sd * sd:  # suffix rejection at most sqrt(e)
        return _make_nand(alive[jstar:]), _ONE, own
    an, ad = alive[jstar - 1][1]
    if not (en * ad <= an * ed and an * an * ed <= en * ad * ad):
        raise CircuitError("pruning fallback child outside [eps, sqrt(eps)]")
    return _make_nand(alive[jstar - 1:jstar]), _ONE, own


def build_sandwich(c: Circuit, eps) -> SandwichPair:
    """Bracket a NAND-form read-once circuit between two like circuits.

    Every nonconstant node of either output has rejection mass inside
    [eps, 1-eps] exactly, neither output uses more leaves than
    ``simplify(c)``, and lower <= c <= upper pointwise.  Both come out
    constant-propagated; the input's own masses are carried as pairs, and
    no simplified copy of it is built.  eps must lie in (0, 1/4].  The
    build does not re-derive the halves' node masses:
    :func:`sandwich_condition_violations` checks them, and the sandwich
    tests run it on the halves they build.
    """
    if not 0 < eps <= Fraction(1, 4):  # nan and inf fail here, before Fraction
        raise CircuitError(f"eps={eps} outside (0, 1/4]")
    e = Fraction(eps)
    (low, acc_low), (up, acc_up), _ = trampoline(
        _sandwich_node(c.root, e.numerator, e.denominator))
    return SandwichPair(
        lower=Circuit(low, c.n),
        upper=Circuit(up, c.n),
        eps=e,
        gap=Fraction(*acc_up) - Fraction(*acc_low),
    )


def sandwich_condition_violations(c: Circuit, eps) -> list:
    """Nonconstant nodes whose exact rejection mass leaves [eps, 1-eps].

    Needs NAND form, as the sandwich does, and raises on the first other
    node in pre-order.  One bottom-up pass over the pre-order node list
    gives every node's acceptance as an unnormalised (numerator,
    denominator) pair of ints, a NAND's by :func:`_nand_pair`; the
    offending nodes come back in pre-order.
    """
    en, ed = Fraction(eps).as_integer_ratio()
    nodes = list(iter_nodes(c.root))
    for node in nodes:
        _require_nand_form(node)
    acc = {}
    for node in reversed(nodes):  # every child before its parent
        acc[id(node)] = (_nand_pair(acc[id(ch)] for ch in node.children)
                         if isinstance(node, Nand) else _literal_pair(node))
    bad = []
    for node in nodes:
        rn, rd = _pair_not(acc[id(node)])
        if not isinstance(node, Const) and not en * rd <= rn * ed <= (ed - en) * rd:
            bad.append((type(node).__name__, rn / rd))
    return bad


@dataclass(frozen=True)
class ShrinkReport:
    """Surviving-size distributions of the sandwich halves under restriction."""

    trials: int
    p: float
    eps: float
    sizes_lower: np.ndarray
    sizes_upper: np.ndarray
    sizes_max: np.ndarray
    sizes_original: np.ndarray
    fanin_max: np.ndarray
    nonconstant_lower: float
    nonconstant_upper: float
    nonconstant_original: float
    quantile_level: float
    quantile_value: int
    threshold: float | None
    passed: bool | None
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "p": self.p,
            "eps": self.eps,
            "size_mean_lower": float(self.sizes_lower.mean()),
            "size_mean_upper": float(self.sizes_upper.mean()),
            "size_max_observed": int(self.sizes_max.max()),
            "fanin_max_observed": int(self.fanin_max.max()),
            "nonconstant_lower": self.nonconstant_lower,
            "nonconstant_upper": self.nonconstant_upper,
            "nonconstant_original": self.nonconstant_original,
            "quantile_level": self.quantile_level,
            "quantile_value": self.quantile_value,
            "threshold": self.threshold,
            "passed": self.passed,
            "params": dict(self.params),
        }


def shrink_experiment(
    c: Circuit,
    p: float,
    eps: float,
    trials: int = 10**4,
    master_seed: int = 0,
    threshold: float | None = None,
) -> ShrinkReport:
    """Restrict the sandwich halves repeatedly and record surviving sizes.

    The circuit is brought to NAND form, sandwiched at eps, and each trial
    applies one shared p-regular restriction to the lower half, the upper
    half, and the original circuit.  Size = live leaves after constant
    propagation; gate fan-in is tracked separately.  The (1 - 2*eps)
    quantile of the per-trial max over both halves is compared against
    ``threshold`` when one is given.  More than ``SHRINK_TRIALS_CAP``
    trials raise :class:`CapExceeded` before anything is drawn.
    """
    if c.n < 1:
        raise CircuitError("shrink experiments need n >= 1, got n=0")
    if not 0 <= p <= 1:
        raise CircuitError(f"p={p} outside [0,1]")
    if trials < 1:
        raise CircuitError("trials must be positive")
    if trials > SHRINK_TRIALS_CAP:
        raise CapExceeded(f"trials={trials} exceeds shrink cap {SHRINK_TRIALS_CAP}")
    if threshold is not None and isnan(threshold):
        raise CircuitError("threshold is not a number")
    pair = build_sandwich(to_nand_form(c), eps)
    n = c.n
    sizes, alive_counts, fans = ([], [], []), [0, 0, 0], []
    for size, free, x in _restriction_blocks(n, p, trials, master_seed):
        fan = 0
        for k, target in enumerate((pair.lower, pair.upper, c)):
            alive, _, live, target_fan = _restricted(target, free, x, size, stats=True)
            alive_counts[k] += int(np.bitwise_count(alive).sum())
            sizes[k].append(live)
            if k < 2:  # fan-in is kept for the sandwich halves only
                fan = np.maximum(fan, target_fan)
        fans.append(fan)
    sizes_lower, sizes_upper, sizes_original = map(np.concatenate, sizes)
    fanin = np.concatenate(fans)
    sizes_max = np.maximum(sizes_lower, sizes_upper)
    level = 1 - 2 * float(eps)
    order = np.sort(sizes_max)
    idx = min(len(order) - 1, max(0, int(np.ceil(level * trials)) - 1))
    qv = int(order[idx])
    passed = None if threshold is None else bool(qv <= threshold)
    return ShrinkReport(
        trials=trials,
        p=p,
        eps=float(eps),
        sizes_lower=sizes_lower,
        sizes_upper=sizes_upper,
        sizes_max=sizes_max,
        sizes_original=sizes_original,
        fanin_max=fanin,
        nonconstant_lower=alive_counts[0] / trials,
        nonconstant_upper=alive_counts[1] / trials,
        nonconstant_original=alive_counts[2] / trials,
        quantile_level=level,
        quantile_value=qv,
        threshold=threshold,
        passed=passed,
        params={
            "n": n,
            "depth": c.depth,
            "gap": float(pair.gap),
            "lower_leaves": pair.lower.size,
            "upper_leaves": pair.upper.size,
            "master_seed": master_seed,
        },
    )
