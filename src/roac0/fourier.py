"""Fourier analysis of read-once circuits.

Two computation paths for the spectrum's level structure: a brute-force
Walsh-Hadamard transform over the full truth table (the oracle, exact in
integer arithmetic, n capped), and a linear-size bottom-up recursion that
exploits read-onceness (children of a gate touch disjoint variables, so
generating polynomials multiply).  Both the truth table and the recursion
are folds over the NOT-free de Morgan form, so they see only AND and OR
gates over possibly negated leaves, and need no recursion at any nesting
depth.  The recursions are ``circuit.product_fold``s (an AND multiplies,
an OR is NOT-AND-NOT) and exact at any n, in dyadic integers: a leaf
contributes +-1/2, so every subtree's quantities are integers over
2^(leaf count) ((2b)^(leaf count) for damping p = a/b), with one
``Fraction`` built at the root and float modes rounding that value.  The
bound checkers need only L_p and F_hat[0], which one O(size) scalar fold
gives exactly; the level profile and the transform are the oracles.

The transform is one stream of blocks of max(2^16, 2^(n-6)) indices: the
h <= 6 index bits above a block go first, by integer butterflies in place
(a 0/1 table is read as int8, then restored), then each block's
low bits as float matmuls by +-1 matrices, exact because every partial sum
is an integer of magnitude at most 2^n * max|v|: float32 to 2^24 (0/1
tables, n <= 24), float64 below 2^53 (seed counts, 2^EXHAUSTIVE_SEED_CAP =
2^26 in total), and past that the input is refused.  Level sums reduce
each block as it arrives and stay below 4^n <= 2^48.

Conventions, fixed once here and used everywhere:
  * characters chi_s(x) = (-1)^{s.x}; F_hat[s] = E_x[F(x) chi_s(x)]
  * L^k = sum of |F_hat[s]| over |s| = k;  A^k = sum of F_hat[s] over |s|=k
  * damped mass L_p = sum_{k >= 1} p^k L^k
  * total mass L(F) = sum_{k >= 1} L^k  (level 0 excluded)
  * coin bias p means E[(-1)^{x_i}] = p, i.e. Pr[x_i = 1] = (1 - p)/2
  * all logarithms are base 2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .circuit import (
    _WORD,
    BiasVector,
    Circuit,
    CircuitError,
    _bits,
    acceptance_probability,
    evaluate_columns,
    product_fold,
    push_nots_to_leaves,  # noqa: F401  (perfbench's tracer wraps this name here)
)

WHT_CAP = 24  # largest n for exhaustive transforms


class CapExceeded(CircuitError):
    """Brute-force operation requested above its configured input cap."""


# ---------------------------------------------------------------------------
# Truth tables and the transform oracle


def variable_pattern(i: int, n: int) -> np.ndarray:
    """Value of bit i across all 2^n assignments; index bit i = variable i."""
    block = np.repeat(np.array([0, 1], dtype=np.uint8), 1 << i)
    return np.tile(block, 1 << (n - 1 - i))


_LOW_WORDS = [sum(1 << t for t in range(64) if t >> v & 1) for v in range(6)]  # 0xAAAA...


def truth_table(c: Circuit) -> np.ndarray:
    """uint8 array of length 2^n with F evaluated on every assignment.

    Folded on words of 64 assignments: variable v >= 6 is constant in a
    word, laid out over the 2^(n-6) words as variable v - 6.
    """
    if c.n > WHT_CAP:
        raise CapExceeded(f"truth table for n={c.n} exceeds cap {WHT_CAP}")
    words = 1 << max(0, c.n - 6)

    def column(var):
        if var < 6:
            return np.full(words, _LOW_WORDS[var], dtype=_WORD)
        return -variable_pattern(var - 6, c.n - 6).astype(_WORD)  # 1 -> all-ones

    return _bits(evaluate_columns(c, column, words, one=~_WORD.type(0)), 1 << c.n)


def popcounts(n: int) -> np.ndarray:
    """uint8 array: popcounts[s] = number of set bits of s, s < 2^n."""
    counts = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        counts = np.concatenate([counts, counts + 1])
    return counts


_EXACT_FLOAT32, _EXACT_FLOAT = 1 << 24, 1 << 53  # float32, float64 hold every integer up to these
_H64 = {np.dtype(t): 1 - 2 * (popcounts(6)[np.bitwise_and.outer(*[np.arange(64)] * 2)] & 1).astype(t)
        for t in (np.float32, np.float64)}  # Sylvester, in each float type
_POP_BITS = 10
_POP_ONEHOT = np.eye(_POP_BITS + 1)[popcounts(_POP_BITS)]  # [j, k] = (popcount(j) == k)


def _hadamard_rows(m: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """H_R @ m for a float (R, C) array, R = 2^r: H_R itself up to 32 rows, else H_16 factors.

    Overwrites m and ``spare`` and returns whichever holds the result.  Each
    matmul is a batch of products of at most 2^18 multiply-adds, which the
    BLAS runs on this thread (waking another costs ms on a busy machine).
    """
    shape, (outer, inner) = m.shape, m.shape
    factor = outer if outer <= 32 else 16
    while outer > 1:
        b = min(outer, factor)
        outer //= b
        cols = min(inner, (1 << 18) // (b * b))
        split = (outer, b, inner // cols, cols)
        np.matmul(_H64[m.dtype][:b, :b], m.reshape(split).transpose(0, 2, 1, 3),
                  out=spare.reshape(split).transpose(0, 2, 1, 3))
        inner *= b
        m, spare = spare, m
    return m.reshape(shape)


def _block_bits(n: int) -> int:
    """Index bits of a transform block."""
    return min(n, max(16, n - 6))


def _butterflies(work: np.ndarray, block: int) -> None:
    """H over the index bits above ``block``, in place by radix-2 butterflies on
    runs of one block; numpy's integers wrap, so it is exact modulo the width."""
    step = block
    while step < work.size:
        for r in range(0, work.size, 2 * step):
            for c in range(r, r + step, block):
                top, bottom = work[c : c + block], work[c + step : c + step + block]
                diff = top - bottom
                top += bottom
                bottom[...] = diff
        step *= 2


def _wht_blocks(values: np.ndarray):
    """Yield (start, h[start : start + B]) for h[s] = sum_x v[x]*(-1)^{s.x}.

    The h bits above a block of B = 2^_block_bits(n) go first, by butterflies
    on a table that holds 2^h * max|v|: ``values`` if it is writable and wide
    enough, restored after (H @ H = 2^h * I, then a shift), else a copy in
    the narrowest signed type.  Each block's low bits then run as float
    matmuls: float32 while 2^n * max|v| <= 2^24, else float64 (ArithmeticError
    from 2^53).  Each yielded block is overwritten by the next.
    """
    size = values.size
    bound = max(int(values.max()), 0 if values.dtype.kind in "bu" else -int(values.min()))
    if bound * size >= _EXACT_FLOAT:
        raise ArithmeticError(f"|v| = {bound} too large for an exact transform of {size}")
    bits = _block_bits(size.bit_length() - 1)
    block, high = 1 << bits, size.bit_length() - 1 - bits
    width = next(w for w in (1, 2, 4, 8) if bound << high < 1 << (8 * w - 1))  # bytes
    own = high and values.dtype.kind in "biu" and values.flags.carray and width <= values.itemsize
    work = (values.view(f"i{values.itemsize}") if own else
            values.astype(f"i{width}") if high else values)
    _butterflies(work, block)
    try:
        low = min(size, 64)  # index bits 0-5, by block @ H; the rest by H @ block
        group = low * min(block // low, 64)  # bits 0-11: batches of <= 2^18 multiply-adds
        buf, spare = np.empty((2, block), np.float32 if bound * size <= _EXACT_FLOAT32 else float)
        for r in range(0, size, block):
            np.copyto(buf, work[r : r + block])
            np.matmul(buf.reshape(-1, group // low, low), _H64[buf.dtype][:low, :low],
                      out=spare.reshape(-1, group // low, low))
            yield r, _hadamard_rows(spare.reshape(-1, low), buf).ravel()
    finally:
        if own:
            _butterflies(work, block)
            work >>= high


def _wht_integers(values: np.ndarray) -> np.ndarray:
    """New array h[s] = sum_x v[x]*(-1)^{s.x}, ``values`` as it was: each block
    written into int32 (from float32: a 0/1 table) or int64."""
    for r, block in _wht_blocks(values):
        if r == 0:
            out = np.empty(values.size, np.int32 if block.dtype == np.float32 else np.int64)
        out[r : r + block.size] = block
    return out


@dataclass(frozen=True)
class SpectralTable:
    """The spectrum of an integer table on 2^n points, exact.

    ``table[x]`` is F(x); ``numerators[s]`` = 2^n * F_hat[s] is transformed
    on demand, the whole spectrum on each access (int32 for a 0/1 table),
    and ``level_sums`` never holds it.
    """

    n: int
    table: np.ndarray

    @property
    def numerators(self) -> np.ndarray:
        return _wht_integers(self.table)

    def level_sums(self) -> tuple[list[Fraction], list[Fraction]]:
        """(abs sums L^0..L^n, signed sums A^0..A^n), exact.

        Each block is reduced as it arrives: rows of 2^10 numerators (and of
        their absolute values) times a one-hot popcount matrix, binned by
        level, which the popcount of the block index shifts.
        """
        n, bits = self.n, _block_bits(self.n)
        low = min(bits, _POP_BITS)
        onehot = _POP_ONEHOT[: 1 << low, : low + 1]
        level = (popcounts(bits - low)[:, None] + np.arange(low + 1)).ravel()
        buf, sums = np.empty((1 << (bits - low), 1 << low)), np.zeros((2, n + 1))  # abs, signed
        for r, block in _wht_blocks(self.table):
            np.copyto(buf, block.reshape(buf.shape))
            at = slice(k := (r >> bits).bit_count(), k + bits + 1)
            sums[1, at] += np.bincount(level, weights=(buf @ onehot).ravel())
            sums[0, at] += np.bincount(level, weights=(np.abs(buf, out=buf) @ onehot).ravel())
        return tuple([Fraction(int(v), 1 << n) for v in row] for row in sums)


def wht_bruteforce(c: Circuit) -> SpectralTable:
    """Exact spectrum of the full truth table (``CapExceeded`` above
    n = ``WHT_CAP``, from :func:`truth_table`)."""
    return SpectralTable(c.n, truth_table(c))


# ---------------------------------------------------------------------------
# Level profiles by read-once recursion


@dataclass(frozen=True)
class LevelProfile:
    """Per-level spectral masses: abs_mass[k] = L^k, signed_sum[k] = A^k.

    Entries are Fractions in exact mode, floats otherwise; levels above the
    subtree's variable count are identically zero and trimmed arrays are
    padded back to length n+1.
    """

    n: int
    abs_mass: tuple
    signed_sum: tuple

    def __post_init__(self):
        if len(self.abs_mass) != self.n + 1 or len(self.signed_sum) != self.n + 1:
            raise CircuitError("profile arrays must have length n+1")


def _convolve(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return out


def _negate_polys(polys: tuple) -> tuple[int, list, list]:
    # G = 1 - F: level 0 becomes 1 - A^0, higher signed levels flip sign,
    # higher abs levels are untouched.
    m, absL, sgnA = polys
    a0 = (1 << m) - sgnA[0]
    return m, [a0] + absL[1:], [a0] + [-a for a in sgnA[1:]]


def level_profile_recursive(c: Circuit, exact: bool = True) -> LevelProfile:
    """Exact per-level masses for a read-once circuit, no 2^n blowup.

    Gate recursion: for an AND the children's generating polynomials
    multiply (their variable sets are disjoint, so coefficient magnitudes
    multiply with no cancellation); NOT rewrites only level 0; OR is
    NOT-AND-NOT.  Coefficients are integers over 2^(leaf count), so the
    recursion costs O(size^2) integer operations and both modes share it;
    ``exact=False`` returns the correctly rounded floats of the exact masses.
    """
    c.check_read_once()
    # (m, abs, sgn) over the subtree's leaf count m: L^k = abs[k] / 2^m
    m, absL, sgnA = product_fold(
        c,
        lambda var, negated: (1, [1, 1], [1, 1 if negated else -1]),
        lambda value: (0, [value], [value]),
        (0, [1], [1]),
        lambda f, g: (f[0] + g[0], _convolve(f[1], g[1]), _convolve(f[2], g[2])),
        _negate_polys,
    )
    den = 1 << m
    pad = [0] * (c.n + 1 - len(absL))
    conv = (lambda v: Fraction(v, den)) if exact else (lambda v: v / den)
    return LevelProfile(c.n, tuple(map(conv, absL + pad)), tuple(map(conv, sgnA + pad)))


def damped_mass(lp: LevelProfile, p) -> object:
    """L_p = sum_{k>=1} p^k L^k; exact when p and the profile are rational."""
    if not 0 <= p <= 1:
        raise CircuitError(f"p={p} outside [0,1]")
    total = lp.abs_mass[0] * 0
    pk = p * 1
    for k in range(1, lp.n + 1):
        total += pk * lp.abs_mass[k]
        pk = pk * p
    return total


def total_mass(lp: LevelProfile):
    """L(F) = sum_{k>=1} L^k, the mass of the nonconstant part."""
    return sum(lp.abs_mass[1:], lp.abs_mass[0] * 0)


def _float_or_inf(x) -> float:
    """float(x), or inf / -inf for a rational past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _damped_fold(c: Circuit, p) -> tuple[int, int, int]:
    """Dyadic integers (u, L, f0) with L_p = L / u and F_hat[0] = f0 / u.

    A :func:`~roac0.circuit.product_fold` of (u, L + f0, f0): for an AND,
    L_p(F) + F_hat[0] = prod(L_p(F_i) + F_i_hat[0]) and F_hat[0] =
    prod(F_i_hat[0]), and a NOT keeps L_p and turns f0 into u - f0.  With
    p = a/b every subtree's L_p and F_hat[0] are integers over
    u = (2b)^(leaf count), so the fold is exact for any rational p (a float
    p is a dyadic rational), with no cancellation; L is taken at the root.
    """
    if not 0 <= p <= 1:
        raise CircuitError(f"p={p} outside [0,1]")
    c.check_read_once()
    a, b = Fraction(p).as_integer_ratio()
    u, both, f0 = product_fold(
        c, lambda var, negated: (2 * b, a + b, b), lambda value: (1, value, value),
        (1, 1, 1), lambda f, g: (f[0] * g[0], f[1] * g[1], f[2] * g[2]),
        lambda f: (f[0], f[1] - 2 * f[2] + f[0], f[0] - f[2]))
    return u, both - f0, f0


def damped_mass_recursive(c: Circuit, p, exact: bool = False):
    """L_p by the O(size) scalar fold, no polynomials.

    Exact (a ``Fraction``) with ``exact=True``; otherwise the correctly
    rounded float of the exact value.
    """
    u, num, _ = _damped_fold(c, p)
    return Fraction(num, u) if exact else num / u


# ---------------------------------------------------------------------------
# Bound checkers


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality: lhs <= rhs with slack = rhs - lhs."""

    lhs: float
    rhs: float
    slack: float
    passed: bool
    params: dict = field(default_factory=dict)


def check_lp_sandwich(lp: LevelProfile, p) -> BoundReport:
    """max_{k>=1} p^k L^k  <=  L_p  <=  n * max_{k>=1} p^k L^k.

    The max runs over the damped summands only (k >= 1); including level 0
    would break the lower inequality.  Both slacks are recorded; the report
    passes when both hold.
    """
    if not 0 < p <= 1:
        raise CircuitError(f"p={p} outside (0,1]")
    terms = [p**k * lp.abs_mass[k] for k in range(1, lp.n + 1)]
    peak = max(terms, default=lp.abs_mass[0] * 0)
    lpv = damped_mass(lp, p)
    lower_slack = lpv - peak
    upper_slack = lp.n * peak - lpv
    passed = lower_slack >= 0 and upper_slack >= 0
    params = {"p": float(p), "n": lp.n, "slack_lower": float(lower_slack),
              "slack_upper": float(upper_slack), "upper_rhs": float(lp.n * peak)}
    return BoundReport(float(peak), float(lpv), float(min(lower_slack, upper_slack)), passed, params)


def growth_factor(n: int, depth: int, eps) -> float:
    """(9 log2(4^D n / eps))^D at D = ``depth``, or CircuitError past the float range."""
    if n < 1 or not eps > 0:
        raise CircuitError(f"growth factor needs n >= 1 and eps > 0, got n={n}, eps={eps}")
    try:
        factor = (9.0 * math.log2((4.0**depth) * n / eps)) ** depth
    except OverflowError:
        factor = math.inf
    except ZeroDivisionError:  # a Fraction eps > 0 that rounds to the float 0.0
        raise CircuitError("eps > 0 is below the float range: it rounds to 0.0") from None
    if math.isinf(factor):
        raise CircuitError(
            f"growth factor (9 log2(4^D n/eps))^D overflows a float at D={depth}, n={n}"
        )
    return factor


def boundary_p(n: int, depth: int, eps: float) -> float:
    """Largest admissible damping 1 / (9 log2(4^D n / eps))^D."""
    return 1.0 / growth_factor(n, max(depth, 1), eps)


def check_mainbound(c: Circuit, eps, p: float | None = None) -> BoundReport:
    """L_p <= p * min(F_hat[0], 1-F_hat[0]) * (9 log2(4^D n/eps))^D + eps.

    Checked at the boundary p unless one is supplied.  Depth-0 circuits are
    treated as depth 1 (wrap in a unary AND, which changes nothing else).
    The explicit constant is 9 and logs are base 2.  Both L_p and F_hat[0]
    come exactly from the O(size) damped fold; ``lhs`` is the correctly
    rounded float of the exact L_p, and ``rhs`` is a float (it has a log2).
    """
    if not (0 < eps <= 1 and Fraction(eps) * c.n <= 1):  # nan and inf fail before Fraction
        raise CircuitError(f"eps={eps} outside (0, 1/n] for n={c.n}")
    d = max(c.depth, 1)
    factor = growth_factor(c.n, d, eps)
    p_max = 1.0 / factor
    if p is None:
        p = p_max
    elif p > p_max * (1 + 1e-12):
        raise CircuitError(f"p={p} exceeds admissible maximum {p_max}")
    u, mass, f0 = _damped_fold(c, p)
    f0 = Fraction(f0, u)  # F_hat[0] = E[F]
    minf0 = float(min(f0, 1 - f0))
    lhs = mass / u
    rhs = p * minf0 * factor + eps
    slack = rhs - lhs
    params = {"p": p, "eps": float(eps), "D": d, "n": c.n, "f0": minf0, "log_base": 2, "constant": 9}
    return BoundReport(lhs, rhs, slack, slack >= 0, params)


def check_growth_corollary(c: Circuit) -> dict:
    """Empirical hidden constant for L^k <= O(log^{D-1} n)^k.

    Reports g = max_{k>=1} (L^k)^{1/k} / (log2 n)^{D-1}.  The asymptotic
    statement hides its constant, so this logs rather than asserts.  Each
    root is taken in log2 of the exact numerator and denominator, so a mass
    past the float range still has one (its "mass" entry reads inf), and
    only levels of mass exactly 0 are left out.
    """
    if c.n < 2:
        raise CircuitError("growth report needs n >= 2")
    lp = level_profile_recursive(c)
    d = max(c.depth, 1)
    denom = math.log2(c.n) ** (d - 1)
    per_level = []
    g = 0.0
    for k in range(1, c.n + 1):
        mass = lp.abs_mass[k]
        if not mass:
            continue
        root = 2 ** ((math.log2(mass.numerator) - math.log2(mass.denominator)) / k)
        per_level.append({"k": k, "mass": _float_or_inf(mass), "kth_root": root})
        g = max(g, root / denom)
    return {"g": g, "denominator": denom, "D": d, "n": c.n, "levels": per_level}


def biased_gap(c: Circuit, p_coin):
    """|E_X[F] - E_U[F]| for the product coin distribution with bias p.

    Convention: bias p means E[(-1)^{x_i}] = p, so Pr[x_i = 1] = (1-p)/2
    and the gap equals |sum_{k>=1} A^k p^k|.  Computed exactly as the
    difference of two acceptance probabilities: a ``Fraction`` or int p
    gives the exact ``Fraction``, any other p its correctly rounded float.
    """
    if not -1 <= p_coin <= 1:
        raise CircuitError(f"coin bias {p_coin} outside [-1,1]")
    biased = BiasVector.from_coin_bias(c.n, Fraction(p_coin))
    gap = abs(acceptance_probability(c, biased)
              - acceptance_probability(c, BiasVector.uniform(c.n)))
    return gap if isinstance(p_coin, (Fraction, int)) else float(gap)
