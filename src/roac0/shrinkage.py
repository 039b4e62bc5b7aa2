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
per child and trial.  The seeded draw stream is fixed: block b of
``master_seed`` draws all its uniforms, trial-major, then all its bits, so
every hit count and size reproduces for a given seed whatever the
packing.  The bits are the top bits of the raw PCG64 output bytes, chunk by
chunk: that is the stream of ``rng.integers(0, 2, uint8)``, without its
trials x n byte array.  Each chunk's comparisons (u < p, byte >= 128) are
written straight into a packing buffer, 8 trials are ORed into each byte
on uint64 lanes, and only the packed bytes are transposed.

The sandwich builder works on NAND-form circuits.  Writing rej(f) for
Pr[f = 0], a NAND node rejects exactly when every child accepts, so child
acceptances multiply.  Nodes with rej(f) >= eps swap each child for its
opposite-side half (lower half gets child uppers and vice versa), replacing
an upper whose rejection dropped below eps by the constant 1.  Nodes with
rej(f) < eps take the constant 1 upper outright, and if the lower's
rejection also fell below eps, children are pruned in index order until the
rejection lands in [eps, sqrt(eps)]; when one pruning step would overshoot
the window, the single child at the jump has acceptance in [eps, sqrt(eps)]
and a one-child NAND of it serves as the lower half.  All masses are exact
rationals, carried as unnormalised pairs of ints and compared with eps by
cross-multiplying, so every case split is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
    _acceptance_pair,
    _bits,
    _nand,
    acceptance_probability,
    fold,
    iter_nodes,
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

    def finish(gate, is_and, nand):
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
    with probability (1+p)/2 in the first event and (1-p)/2 in the second,
    and the first event contains the second, so the probability is the
    difference of the two acceptance probabilities.  Both folds read ``c``
    itself with its leaf flags ignored.  For p = a/b they run over leaf
    denominator 2b on the same tree, so their denominators agree and one
    Fraction is built at the end.
    """
    a, b = Fraction(p).as_integer_ratio()
    hi, den = _acceptance_pair(c, [(b + a, 2 * b)] * c.n, negations=False)
    lo, _ = _acceptance_pair(c, [(b - a, 2 * b)] * c.n, negations=False)
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

    def as_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "ci": [self.ci[0], self.ci[1]],
            "se": self.se,
            "rhs": self.rhs,
            "exact": float(self.exact),
            "trials": self.trials,
            "passed": self.passed,
            "params": dict(self.params),
        }


_BLOCK = 1 << 14  # trials per seeded block
SHRINK_TRIALS_CAP = 1 << 22  # a shrink run keeps about 225 B per trial, 0.95 GB at the cap
_CHUNK = 1 << 16  # draws per chunk, so a chunk's buffers stay in cache
_LANE_SHIFTS = np.arange(8, dtype=_WORD)[:, None, None]


def _chunk_rows(n: int) -> int:
    """Trials per chunk of draws: a multiple of 64, about ``_CHUNK`` draws."""
    return max(64, _CHUNK // max(n, 1) // 64 * 64)


def _pack_trials(words: np.ndarray, op, src: np.ndarray, arg, start: int) -> None:
    """Pack the comparison ``op(src, arg)``, trial-major for trials ``start..``, into word rows.

    ``op`` writes trial 8g + k to row g of plane k; read as uint64 lanes,
    each plane shifts left by its index and the planes OR into 8 trials per
    byte.  Only those packed bytes are transposed, 8x less data than the
    chunk, whose own byte transpose is slow at power-of-two row strides.
    """
    n = len(words)
    size = len(src)
    dest = words.view(np.uint8)[:, start // 8:(start + size + 7) // 8]
    full = size // 8
    planes = np.empty((8, dest.shape[1], -(-n // 8) * 8), np.bool_)
    op(src[:full * 8].reshape(full, 8, n), arg, out=planes[:, :full, :n].transpose(1, 0, 2))
    if full < dest.shape[1]:  # a last chunk that ends inside a byte
        planes[:, full] = 0
        op(src[full * 8:], arg, out=planes[:size - full * 8, full, :n])
    # bytes past n hold garbage; a shift carries it only into higher pad bytes
    lanes = planes.view(_WORD)
    lanes <<= _LANE_SHIFTS
    dest[...] = np.bitwise_or.reduce(lanes, axis=0).view(np.uint8)[:, :n].T


def _restriction_blocks(n: int, p: float, trials: int, master_seed: int) -> Iterator:
    """(size, free, x) per block of up to ``_BLOCK`` trials.

    Block b draws from ``default_rng(SeedSequence([master_seed, b]))`` the
    uniforms of ``rng.random((size, n))``, trial-major, then the bits of
    ``rng.integers(0, 2, (size, n), uint8)``; a position is free when its
    uniform is below p.  The uniforms are filled :func:`_chunk_rows` trials
    at a time, which is the same stream without the whole float array.  The
    bits come from ``rng.bit_generator.random_raw`` one chunk at a time: a
    bit is bit 7 of one little-endian byte of the raw 64-bit words, in
    order, so it is set when the byte is at least 128.  That is what
    ``integers`` draws for PCG64, because numpy's bounded draw for range 2
    has rejection threshold 0 and reads the bytes of buffered 32-bit words
    low half first.  :func:`_pack_trials` writes each chunk's comparisons
    straight into its packing buffer, 8 trials to a byte on uint64 lanes.
    Both come back variable-major and packed along the trial axis, as
    (n, ceil(size / 64)) arrays of little-endian uint64 words with zero pad
    bits.
    """
    # Draws are multiples of 2^-53, so u < p exactly when u < ceil(p 2^53) 2^-53,
    # a float threshold even for a Fraction p.
    threshold = ceil(Fraction(p) * 2**53) / 2**53
    rows = _chunk_rows(n)
    done = 0
    b = 0
    while done < trials:
        size = min(_BLOCK, trials - done)
        rng = np.random.default_rng(np.random.SeedSequence([master_seed, b]))
        free = np.zeros((n, -(-size // 64)), dtype=_WORD)
        x = np.zeros_like(free)
        buf = np.empty((min(rows, size), n))
        for start in range(0, size, rows):
            chunk = buf[:min(rows, size - start)]
            rng.random(out=chunk)
            _pack_trials(free, np.less, chunk, threshold, start)
        for start in range(0, size, rows):
            # only the last chunk can end inside a word, and nothing is drawn after it
            count = min(rows, size - start) * n
            raw = rng.bit_generator.random_raw(-(-count // 8)).astype("<u8", copy=False)
            _pack_trials(x, np.greater_equal, raw.view(np.uint8)[:count].reshape(-1, n), 128, start)
        yield size, free, x
        done += size
        b += 1


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
    if enforce_bounds and not 0 < Fraction(eps) * n < 1:
        raise CircuitError(f"eps={eps} not inside (0, 1/{n})")
    if not 0 < eps < 1:
        raise CircuitError(f"eps={eps} outside (0,1)")
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
    source_leaves: int

    def as_dict(self) -> dict:
        return {
            "eps": float(self.eps),
            "gap": float(self.gap),
            "source_leaves": self.source_leaves,
            "lower_leaves": self.lower.size,
            "upper_leaves": self.upper.size,
        }


def _require_nand_form(node: Node) -> None:
    if not isinstance(node, (Leaf, Const, Nand)):
        raise CircuitError(
            f"sandwich construction needs NAND form (got {type(node).__name__}); "
            "run to_nand_form first"
        )


_ONE = Const(1), (1, 1)


def _make_nand(halves):
    """simplify's NAND of (node, acceptance pair) halves, with its exact pair.  Every
    constant half is (Const(v), (v, 1)), so a 1 child multiplies by (1, 1)."""
    node = _nand([nd for nd, _ in halves])
    if isinstance(node, Const):
        return node, (node.value, 1)
    rn = rd = 1  # rejection: every child accepts
    for _, (an, ad) in halves:
        rn *= an
        rd *= ad
    return node, (rd - rn, rd)


def _sandwich_node(node: Node, en: int, ed: int):
    """Returns the halves (lower, upper, own) at eps = en/ed: (node, acceptance) pairs.

    Each acceptance is an unnormalised (numerator, denominator) pair of ints
    with a positive denominator, and each comparison with eps or its square
    root cross-multiplies.  ``own`` is ``simplify(node)``.  Every half is
    built by simplify's NAND rule, so a node runs as its own half would.
    A node that is not NAND form raises before its children run, so the
    walk's order makes it the first such node in pre-order.
    """
    if isinstance(node, Leaf):
        half = node, (1, 2)
        return half, half, half
    if isinstance(node, Const):
        half = node, (node.value, 1)
        return half, half, half
    _require_nand_form(node)
    parts = yield [_sandwich_node(ch, en, ed) for ch in node.children]
    lows = [p[0] for p in parts]
    ups = [p[1] for p in parts]
    own = _make_nand([p[2] for p in parts])
    lower = _make_nand(ups)
    an, ad = own[1]
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
    [eps, 1-eps] exactly, neither output uses more leaves than the input,
    and lower <= c <= upper pointwise.  Both come out constant-propagated,
    and ``source_leaves`` counts the leaves of ``simplify(c)``.  eps must
    lie in (0, 1/4].  The build does not re-derive the halves' node
    masses: :func:`sandwich_condition_violations` checks them, and the
    sandwich tests run it on the halves they build.
    """
    e = Fraction(eps)
    if not 0 < e <= Fraction(1, 4):
        raise CircuitError(f"eps={eps} outside (0, 1/4]")
    (low, acc_low), (up, acc_up), (own, _) = trampoline(
        _sandwich_node(c.root, e.numerator, e.denominator))
    return SandwichPair(
        lower=Circuit(low, c.n),
        upper=Circuit(up, c.n),
        eps=e,
        gap=Fraction(*acc_up) - Fraction(*acc_low),
        source_leaves=Circuit(own, c.n).size,
    )


def sandwich_condition_violations(c: Circuit, eps) -> list:
    """Nonconstant nodes whose exact rejection mass leaves [eps, 1-eps].

    Needs NAND form, as the sandwich does, and raises on the first other
    node in pre-order.  A NAND rejects exactly when every child accepts, so
    one bottom-up pass over the pre-order node list gives every node's
    rejection mass, as an unnormalised (numerator, denominator) pair of
    ints; the offending nodes come back in pre-order.
    """
    en, ed = Fraction(eps).as_integer_ratio()
    nodes = list(iter_nodes(c.root))
    for node in nodes:
        _require_nand_form(node)
    rej = {}
    for node in reversed(nodes):  # every child before its parent
        if isinstance(node, Nand):
            rn = rd = 1
            for ch in node.children:
                cn, cd = rej[id(ch)]
                rn *= cd - cn
                rd *= cd
        elif isinstance(node, Leaf):
            rn, rd = 1, 2
        else:
            rn, rd = 1 - node.value, 1
        rej[id(node)] = rn, rd
    bad = []
    for node in nodes:
        rn, rd = rej[id(node)]
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
    s_lo, s_up, s_or, fans = [], [], [], []
    alive_lo = alive_up = alive_or = 0
    for size, free, x in _restriction_blocks(n, p, trials, master_seed):
        alive, _, lv, fan_lo = _restricted(pair.lower, free, x, size, stats=True)
        alive_lo += int(np.bitwise_count(alive).sum())
        s_lo.append(lv)
        alive, _, lv, fan_up = _restricted(pair.upper, free, x, size, stats=True)
        alive_up += int(np.bitwise_count(alive).sum())
        s_up.append(lv)
        alive, _, lv, _ = _restricted(c, free, x, size, stats=True)
        alive_or += int(np.bitwise_count(alive).sum())
        s_or.append(lv)
        fans.append(np.maximum(fan_lo, fan_up))
    sizes_lower = np.concatenate(s_lo)
    sizes_upper = np.concatenate(s_up)
    sizes_original = np.concatenate(s_or)
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
        nonconstant_lower=alive_lo / trials,
        nonconstant_upper=alive_up / trials,
        nonconstant_original=alive_or / trials,
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
