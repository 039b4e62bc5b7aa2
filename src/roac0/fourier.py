"""Fourier analysis of read-once circuits.

Two computation paths for the spectrum's level structure: a brute-force
Walsh-Hadamard transform over the full truth table (the oracle, exact in
integer arithmetic, n capped), and a linear-size bottom-up recursion that
exploits read-onceness (children of a gate touch disjoint variables, so
generating polynomials multiply).  Both the truth table and the recursion
are folds (``circuit.fold``) over the NOT-free de Morgan form, so they see
only AND and OR gates over possibly negated leaves, and need no recursion
at any nesting depth.  The recursion is exact at any n, in dyadic integers:
a leaf contributes +-1/2, so every subtree's quantities are integers over
2^(leaf count) ((2b)^(leaf count) for damping p = a/b), with one
``Fraction`` built at the root and float modes rounding that value.  The
bound checkers need only L_p and F_hat[0], which one O(size) scalar fold
gives exactly; the level profile and the transform are the oracles.

The transform and its level sums run as float matmuls by +-1 and 0/1
matrices, exact because every partial sum is an integer the float type
holds: a transform partial sum is at most 2^n * max|v|, so 0/1 tables
(n <= 24) run in float32 (to 2^24) and seed counts (2^EXHAUSTIVE_SEED_CAP
= 2^26 in total) in float64 (to 2^53); an input past 2^53 is refused, not
transformed another way.  Level sums stay below 4^n <= 2^48.

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
    fold,
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
_MATMUL_BLOCK = 1 << 16  # entries per float block: two 256 or 512 KiB buffers
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


def _wht_integers(values: np.ndarray) -> np.ndarray:
    """New int64 array h with h[s] = sum_x v[x]*(-1)^{s.x}; ``values`` is untouched.

    After k levels every partial sum is an integer of magnitude at most
    2^k * max|v|, so levels run as float matmuls by Sylvester matrices, exact
    while 2^n * max|v| is an integer the float type holds: float32 to 2^24
    (0/1 tables up to n = 24), else float64 below 2^53 (seed counts, at most
    2^EXHAUSTIVE_SEED_CAP * 2^WHT_CAP = 2^50); 2^n * max|v| >= 2^53 raises
    ArithmeticError.  Blocks of _MATMUL_BLOCK entries take the low index
    bits, then one pass over column tiles of h the bits above.
    """
    size = values.size
    low = min(size, 64)  # index bits 0-5, by block @ H; the rest by H @ block
    group = low * min(size // low, 64)  # bits 0-11: a batch of products of <= 2^18 multiply-adds
    bound = max(int(values.max()), 0 if values.dtype.kind in "bu" else -int(values.min()))
    if bound * size >= _EXACT_FLOAT:
        raise ArithmeticError(f"|v| = {bound} too large for an exact transform of {size}")
    block = min(size, _MATMUL_BLOCK)
    ftype = np.float32 if bound * size <= _EXACT_FLOAT32 else np.float64
    buf, spare = np.empty(block, ftype), np.empty(block, ftype)
    h = np.empty(size, dtype=np.int64)
    for r in range(0, size, block):
        np.copyto(buf, values[r : r + block])
        np.matmul(buf.reshape(-1, group // low, low), _H64[buf.dtype][:low, :low],
                  out=spare.reshape(-1, group // low, low))
        h[r : r + block] = _hadamard_rows(spare.reshape(-1, low), buf).ravel()
    if size > block:  # the bits above a block: H @ each column tile of h's rows
        tiles = h.reshape(size // block, -1, block * block // size)  # [row, tile, column]
        tile = buf.reshape(len(tiles), -1)
        for t in range(tiles.shape[1]):
            np.copyto(tile, tiles[:, t])
            tiles[:, t] = _hadamard_rows(tile, spare)
    return h


@dataclass(frozen=True)
class SpectralTable:
    """All 2^n Fourier coefficients, stored exactly.

    ``numerators[s]`` is the integer 2^n * F_hat[s]; the shared denominator
    keeps the table exact in int64 and the float32 transform of a 0/1 table
    (|numerator| <= 2^n <= 2^WHT_CAP), and its level sums exact in float64
    (sum_s |numerator| <= 4^n <= 2^48).
    """

    n: int
    numerators: np.ndarray

    def coefficient(self, s: int) -> Fraction:
        return Fraction(int(self.numerators[s]), 1 << self.n)

    def level_sums(self) -> tuple[list[Fraction], list[Fraction]]:
        """(abs sums L^0..L^n, signed sums A^0..A^n), exact.

        popcount(s) = popcount(s >> 10) + popcount(low 10 bits): rows of 2^10
        numerators (and of their absolute values) times a one-hot popcount
        matrix, binned by the row's popcount.
        """
        n = self.n
        low = min(n, _POP_BITS)
        onehot = _POP_ONEHOT[: 1 << low, : low + 1]
        rows = self.numerators.reshape(-1, 1 << low)
        sgn_rows = np.empty((rows.shape[0], low + 1))
        abs_rows = np.empty_like(sgn_rows)
        step = _MATMUL_BLOCK >> low  # rows per float64 block
        buf = np.empty((min(step, len(rows)), 1 << low))
        for r in range(0, len(rows), step):
            np.copyto(buf, rows[r : r + step])
            sgn_rows[r : r + step] = buf @ onehot
            abs_rows[r : r + step] = np.abs(buf, out=buf) @ onehot
        level = (popcounts(n - low)[:, None] + np.arange(low + 1)).ravel()
        den = 1 << n
        return tuple(
            [Fraction(int(v), den) for v in np.bincount(level, weights=w.ravel(), minlength=n + 1)]
            for w in (abs_rows, sgn_rows)
        )

    def check_parseval(self) -> bool:
        """Exact check of sum_s F_hat[s]^2 = F_hat[0] for Boolean F."""
        nums = [int(v) for v in self.numerators]
        return sum(v * v for v in nums) == nums[0] << self.n

    def sum_all(self) -> Fraction:
        """sum_s F_hat[s], which equals F(0^n) for any F."""
        return Fraction(int(np.sum(self.numerators, dtype=np.int64)), 1 << self.n)


def wht_bruteforce(c: Circuit) -> SpectralTable:
    """Exact spectrum by Walsh-Hadamard transform of the full truth table
    (``CapExceeded`` above n = ``WHT_CAP``, from :func:`truth_table`)."""
    return SpectralTable(c.n, _wht_integers(truth_table(c)))


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


def _negate_polys(m: int, absL: list, sgnA: list) -> tuple[int, list, list]:
    # G = 1 - F: level 0 becomes 1 - A^0, higher signed levels flip sign,
    # higher abs levels are untouched.
    a0 = (1 << m) - sgnA[0]
    return m, [a0] + absL[1:], [a0] + [-a for a in sgnA[1:]]


def _profile_absorb(acc, child, is_and):
    # And multiplies; Or is NOT-AND-NOT
    m, absL, sgnA = acc
    cm, cl, ca = child if is_and else _negate_polys(*child)
    return m + cm, _convolve(absL, cl), _convolve(sgnA, ca)


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
    m, absL, sgnA = fold(
        c,
        lambda var, negated: (1, [1, 1], [1, 1 if negated else -1]),
        lambda value: (0, [value], [value]),
        lambda: (0, [1], [1]),
        _profile_absorb,
        lambda acc, is_and, nand: acc if is_and else _negate_polys(*acc),
    )
    den = 1 << m
    pad = [0] * (c.n + 1 - len(absL))
    conv = (lambda v: Fraction(v, den)) if exact else (lambda v: v / den)
    return LevelProfile(
        c.n, tuple(map(conv, absL + pad)), tuple(map(conv, sgnA + pad))
    )


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

    For an AND: L_p(F) = prod(L_p(F_i) + F_i_hat[0]) - prod(F_i_hat[0]).
    With p = a/b every subtree's L_p and F_hat[0] are integers over
    u = (2b)^(leaf count), so the fold is exact for any rational p (a float
    p is a dyadic rational), with no cancellation.
    """
    if not 0 <= p <= 1:
        raise CircuitError(f"p={p} outside [0,1]")
    c.check_read_once()
    pf = Fraction(p)
    a, scale = pf.numerator, 2 * pf.denominator

    # a gate carries (u, prod(L_i + f0_i), prod(f0_i)) until it closes
    def absorb(acc, child, is_and):
        u, prod_both, prod_f0 = acc
        cu, lp_c, f0_c = child
        if not is_and:  # Or is NOT-AND-NOT: L_p unchanged, f0 -> 1 - f0
            f0_c = cu - f0_c
        return u * cu, prod_both * (lp_c + f0_c), prod_f0 * f0_c

    def finish(acc, is_and, nand):
        u, prod_both, prod_f0 = acc
        return u, prod_both - prod_f0, prod_f0 if is_and else u - prod_f0

    return fold(c, lambda var, negated: (scale, a, scale // 2), lambda value: (1, 0, value),
                lambda: (1, 1, 1), absorb, finish)


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

    def as_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "passed": self.passed,
            "params": dict(self.params),
        }


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
    return BoundReport(
        float(peak),
        float(lpv),
        float(min(lower_slack, upper_slack)),
        passed,
        {
            "p": float(p),
            "n": lp.n,
            "slack_lower": float(lower_slack),
            "slack_upper": float(upper_slack),
            "upper_rhs": float(lp.n * peak),
        },
    )


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
    if not 0 < Fraction(eps) * c.n <= 1:
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
    return BoundReport(
        lhs,
        rhs,
        slack,
        slack >= 0,
        {
            "p": p,
            "eps": float(eps),
            "D": d,
            "n": c.n,
            "f0": minf0,
            "log_base": 2,
            "constant": 9,
        },
    )


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
