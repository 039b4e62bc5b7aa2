"""Truly random p-regular restrictions: collapse rates and sandwiches.

A p-regular restriction keeps each position free independently with
probability p (mask bit 1) and fixes the rest to uniform bits.  For a
read-once circuit the restricted function is nonconstant exactly when
constant propagation leaves a live leaf, so collapse statistics reduce to a
three-state evaluation (0, 1, alive) that vectorizes across trials.

The sandwich builder works on NAND-form circuits.  Writing rej(f) for
Pr[f = 0], a NAND node rejects exactly when every child accepts, so child
acceptances multiply.  Nodes with rej(f) >= eps swap each child for its
opposite-side half (lower half gets child uppers and vice versa), replacing
an upper whose rejection dropped below eps by the constant 1.  Nodes with
rej(f) < eps take the constant 1 upper outright, and if the lower's
rejection also fell below eps, children are pruned in index order until the
rejection lands in [eps, sqrt(eps)]; when one pruning step would overshoot
the window, the single child at the jump has acceptance in [eps, sqrt(eps)]
and a one-child NAND of it serves as the lower half.  All rejection masses
are exact rationals, so every case split is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, log2, sqrt
from typing import Iterator

import numpy as np

from .circuit import (
    And,
    BiasVector,
    Circuit,
    CircuitError,
    Const,
    Leaf,
    Nand,
    Node,
    Not,
    Or,
    RestrictionMask,
    _accept_node,
    acceptance_probability,
    push_nots_to_leaves,
    simplify,
    strip_leaf_negations,
)
from .fourier import biased_gap  # noqa: F401  (perfbench's tracer wraps this name here)
from .prg import wilson_interval

_ALIVE = 2


@dataclass
class PRegularSampler:
    """Stream of restriction masks: each bit free w.p. p, values uniform."""

    n: int
    p: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise CircuitError(f"n={self.n} must be positive")
        if not 0 <= self.p <= 1:
            raise CircuitError(f"p={self.p} outside [0,1]")
        self._rng = np.random.default_rng(self.seed)


def _pack_bits(arr) -> int:
    data = np.packbits(np.asarray(arr, dtype=np.uint8), bitorder="little")
    return int.from_bytes(data.tobytes(), "little")


def sample_restriction(s: PRegularSampler) -> RestrictionMask:
    t = s._rng.random(s.n) < s.p
    x = s._rng.integers(0, 2, s.n, dtype=np.uint8)
    return RestrictionMask(t=_pack_bits(t), x=_pack_bits(x), n=s.n)


def _state_vec(node: Node, free: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-trial value of the restricted node: 0, 1, or 2 (alive)."""
    if isinstance(node, Leaf):
        val = x[:, node.var] ^ (1 if node.negated else 0)
        return np.where(free[:, node.var], _ALIVE, val).astype(np.int8)
    if isinstance(node, Const):
        return np.full(free.shape[0], node.value, dtype=np.int8)
    if isinstance(node, Not):
        s = _state_vec(node.child, free, x)
        return np.where(s == _ALIVE, _ALIVE, 1 - s).astype(np.int8)
    states = [_state_vec(ch, free, x) for ch in node.children]
    alive = np.zeros(free.shape[0], dtype=bool)
    absorbed = np.zeros(free.shape[0], dtype=bool)
    absorbing = 1 if isinstance(node, Or) else 0
    for s in states:
        absorbed |= s == absorbing
        alive |= s == _ALIVE
    if isinstance(node, And):
        quiet, hit = 1, 0
    elif isinstance(node, Or):
        quiet, hit = 0, 1
    else:
        quiet, hit = 0, 1  # Nand: all children 1 -> 0, any child 0 -> 1
    out = np.where(absorbed, hit, np.where(alive, _ALIVE, quiet))
    return out.astype(np.int8)


def _shrink_stats(node: Node, free: np.ndarray, x: np.ndarray):
    """(state, live leaf count, max gate fan-in) per trial, all vectorized.

    Counts match simplify(restrict(.)) exactly: neutral constants drop out,
    absorbed gates vanish, single-child And/Or collapse, and a one-child
    NAND survives as a gate only when its child is not a leaf.
    """
    B = free.shape[0]
    zeros = np.zeros(B, dtype=np.int32)
    if isinstance(node, Leaf):
        s = _state_vec(node, free, x)
        return s, (s == _ALIVE).astype(np.int32), zeros
    if isinstance(node, Const):
        return np.full(B, node.value, dtype=np.int8), zeros, zeros.copy()
    if isinstance(node, Not):
        s, leaves, fan = _shrink_stats(node.child, free, x)
        return np.where(s == _ALIVE, _ALIVE, 1 - s).astype(np.int8), leaves, fan
    triples = [_shrink_stats(ch, free, x) for ch in node.children]
    states = [t[0] for t in triples]
    alive_counts = np.zeros(B, dtype=np.int32)
    leaf_alive = np.zeros(B, dtype=np.int32)
    absorbed = np.zeros(B, dtype=bool)
    any_alive = np.zeros(B, dtype=bool)
    leaves_sum = np.zeros(B, dtype=np.int32)
    fan_best = np.zeros(B, dtype=np.int32)
    absorbing = 1 if isinstance(node, Or) else 0
    for ch, (s, leaves, fan) in zip(node.children, triples):
        isalive = s == _ALIVE
        alive_counts += isalive
        if isinstance(ch, Leaf):
            leaf_alive += isalive
        absorbed |= s == absorbing
        any_alive |= isalive
        leaves_sum += leaves
        fan_best = np.maximum(fan_best, fan)
    if isinstance(node, And):
        quiet, hit = 1, 0
    elif isinstance(node, Or):
        quiet, hit = 0, 1
    else:
        quiet, hit = 0, 1
    state = np.where(absorbed, hit, np.where(any_alive, _ALIVE, quiet)).astype(np.int8)
    here = state == _ALIVE
    if isinstance(node, Nand):
        # fan-in k >= 2 counts; k == 1 keeps a gate only over a non-leaf child
        own = np.where(
            alive_counts >= 2,
            alive_counts,
            np.where((alive_counts == 1) & (leaf_alive == 0), 1, 0),
        )
    else:
        own = np.where(alive_counts >= 2, alive_counts, 0)
    fan = np.where(here, np.maximum(fan_best, own), 0).astype(np.int32)
    leaves = np.where(here, leaves_sum, 0).astype(np.int32)
    return state, leaves, fan


def _exact_nonconstant_probability(c: Circuit, p) -> Fraction:
    """Pr over (t, x) that the restricted circuit stays nonconstant.

    Leaf values are uniform, so negations shift nothing; after pushing and
    stripping them the circuit is monotone and the restriction is
    nonconstant exactly when setting free bits to all-1 accepts while all-0
    rejects.  Each bit is 1 with probability (1+p)/2 in the first event and
    (1-p)/2 in the second, and the first event contains the second, so the
    probability is the difference of the two acceptance probabilities.
    """
    mono = strip_leaf_negations(push_nots_to_leaves(c))
    pf = Fraction(p)
    hi = acceptance_probability(mono, BiasVector.constant(c.n, (1 + pf) / 2))
    lo = acceptance_probability(mono, BiasVector.constant(c.n, (1 - pf) / 2))
    return hi - lo


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


_BLOCK = 1 << 14


def _restriction_blocks(n: int, p: float, trials: int, master_seed: int) -> Iterator:
    # Draws are multiples of 2^-53, so u < p exactly when u < ceil(p 2^53) 2^-53,
    # a float threshold even for a Fraction p.
    threshold = ceil(Fraction(p) * 2**53) / 2**53
    done = 0
    b = 0
    while done < trials:
        size = min(_BLOCK, trials - done)
        rng = np.random.default_rng(np.random.SeedSequence([master_seed, b]))
        free = rng.random((size, n)) < threshold
        x = rng.integers(0, 2, (size, n), dtype=np.uint8)
        yield free, x
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
    if enforce_bounds and not 0 < Fraction(eps) < Fraction(1, n):
        raise CircuitError(f"eps={eps} not inside (0, 1/{n})")
    if not 0 < eps < 1:
        raise CircuitError(f"eps={eps} outside (0,1)")
    logterm = 9 * log2((4**D) * n / eps)
    pmax = 1.0 if D == 0 else logterm**-D
    if enforce_bounds and p > pmax * (1 + 1e-12):
        raise CircuitError(f"p={p} above the damping boundary {pmax}")
    if trials < 1:
        raise CircuitError("trials must be positive")
    hits = 0
    for free, x in _restriction_blocks(n, p, trials, master_seed):
        hits += int((_state_vec(c.root, free, x) == _ALIVE).sum())
    estimate = hits / trials
    se = sqrt(max(estimate * (1 - estimate), 1e-300) / trials)
    f0 = acceptance_probability(c, BiasVector.uniform(n))
    minf0 = float(min(f0, 1 - f0))
    rhs = 2 * p * minf0 * logterm**D + 2 * eps
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
    if isinstance(node, (Leaf, Const)):
        return
    if isinstance(node, Nand):
        for ch in node.children:
            _require_nand_form(ch)
        return
    raise CircuitError(
        f"sandwich construction needs NAND form (got {type(node).__name__}); "
        "run to_nand_form first"
    )


def _make_nand(nodes, accs):
    """NAND with constant folding; returns (node, exact acceptance)."""
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


def _sandwich_node(node: Node, e: Fraction):
    """Returns (lower, upper, acc_lower, acc_upper, acc_true)."""
    if isinstance(node, Leaf):
        h = Fraction(1, 2)
        return node, node, h, h, h
    if isinstance(node, Const):
        v = Fraction(node.value)
        return node, node, v, v, v
    parts = [_sandwich_node(ch, e) for ch in node.children]
    lows = [p[0] for p in parts]
    ups = [p[1] for p in parts]
    alows = [p[2] for p in parts]
    aups = [p[3] for p in parts]
    rej_true = Fraction(1)
    for p_ in parts:
        rej_true *= p_[4]
    acc_true = 1 - rej_true

    low_node, acc_low = _make_nand(ups, aups)
    if rej_true >= e:
        up_cand, acc_upc = _make_nand(lows, alows)
        if 1 - acc_upc >= e:
            return low_node, up_cand, acc_low, acc_upc, acc_true
        return low_node, Const(1), acc_low, Fraction(1), acc_true

    up_node, acc_up = Const(1), Fraction(1)
    if 1 - acc_low >= e:
        return low_node, up_node, acc_low, acc_up, acc_true
    if isinstance(low_node, Const):
        # rejection below e forces the constant 1, so the node is identically 1
        return low_node, up_node, acc_low, acc_up, acc_true

    # prune leading children until the suffix rejection reaches [e, sqrt(e)]
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
        low_node, acc_low = _make_nand(kept, [a for _, a in alive[jstar:]])
    else:
        u, a = alive[jstar - 1]
        if not (e <= a and a * a <= e):
            raise CircuitError("pruning fallback child outside [eps, sqrt(eps)]")
        low_node, acc_low = _make_nand([u], [a])
    return low_node, up_node, acc_low, acc_up, acc_true


def build_sandwich(c: Circuit, eps) -> SandwichPair:
    """Bracket a NAND-form read-once circuit between two like circuits.

    Every nonconstant node of either output has rejection mass inside
    [eps, 1-eps] exactly, neither output uses more leaves than the input,
    and lower <= c <= upper pointwise.  eps must lie in (0, 1/4].
    """
    e = Fraction(eps)
    if not 0 < e <= Fraction(1, 4):
        raise CircuitError(f"eps={eps} outside (0, 1/4]")
    _require_nand_form(c.root)
    base = simplify(c)
    low, up, acc_low, acc_up, _ = _sandwich_node(base.root, e)
    lower = simplify(Circuit(low, c.n))
    upper = simplify(Circuit(up, c.n))
    for half in (lower, upper):
        bad = sandwich_condition_violations(half, e)
        if bad:
            raise CircuitError(f"sandwich output violates node conditions: {bad[0]}")
    return SandwichPair(
        lower=lower,
        upper=upper,
        eps=e,
        gap=acc_up - acc_low,
        source_leaves=base.size,
    )


def sandwich_condition_violations(c: Circuit, eps) -> list:
    """Nonconstant nodes whose exact rejection mass leaves [eps, 1-eps]."""
    e = Fraction(eps)
    uniform = BiasVector.uniform(c.n)
    out = []

    def walk(node):
        if isinstance(node, Const):
            return
        rej = 1 - _accept_node(node, uniform)
        if not e <= rej <= 1 - e:
            out.append((type(node).__name__, float(rej)))
        if isinstance(node, Not):
            walk(node.child)
        elif not isinstance(node, Leaf):
            for ch in node.children:
                walk(ch)

    walk(c.root)
    return out


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
    ``threshold`` when one is given.
    """
    if not 0 <= p <= 1:
        raise CircuitError(f"p={p} outside [0,1]")
    if trials < 1:
        raise CircuitError("trials must be positive")
    from .circuit import to_nand_form

    nand, _ = to_nand_form(c)
    pair = build_sandwich(nand, eps)
    n = c.n
    s_lo, s_up, s_or, fans = [], [], [], []
    alive_lo = alive_up = alive_or = 0
    for free, x in _restriction_blocks(n, p, trials, master_seed):
        st, lv, fn = _shrink_stats(pair.lower.root, free, x)
        alive_lo += int((st == _ALIVE).sum())
        s_lo.append(lv)
        fan_block = fn
        st, lv, fn = _shrink_stats(pair.upper.root, free, x)
        alive_up += int((st == _ALIVE).sum())
        s_up.append(lv)
        fan_block = np.maximum(fan_block, fn)
        st, lv, _ = _shrink_stats(c.root, free, x)
        alive_or += int((st == _ALIVE).sum())
        s_or.append(lv)
        fans.append(fan_block)
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
