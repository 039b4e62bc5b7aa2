"""Fourier analysis of read-once circuits.

Two computation paths for the spectrum's level structure: a brute-force
Walsh-Hadamard transform over the full truth table (the oracle, exact in
integer arithmetic, n capped), and a linear-size bottom-up recursion that
exploits read-onceness (children of a gate touch disjoint variables, so
generating polynomials multiply).  The recursion is exact at any n, in
dyadic integers: a leaf contributes +-1/2, so every subtree's quantities are
integers over 2^(leaf count) ((2b)^(leaf count) for damping p = a/b), with
one ``Fraction`` built at the root and float modes rounding that value.

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
    And,
    BiasVector,
    Circuit,
    CircuitError,
    Const,
    Leaf,
    Not,
    Or,
    acceptance_probability,
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


def truth_table(c: Circuit) -> np.ndarray:
    """uint8 array of length 2^n with F evaluated on every assignment."""
    if c.n > WHT_CAP:
        raise CapExceeded(f"truth table for n={c.n} exceeds cap {WHT_CAP}")
    size = 1 << c.n

    def go(node) -> np.ndarray:
        if isinstance(node, Leaf):
            col = variable_pattern(node.var, c.n)
            return 1 - col if node.negated else col
        if isinstance(node, Const):
            return np.full(size, node.value, dtype=np.uint8)
        if isinstance(node, Not):
            return 1 - go(node.child)
        if isinstance(node, Or):
            acc = go(node.children[0])
            for ch in node.children[1:]:
                acc = acc | go(ch)
            return acc
        acc = go(node.children[0])
        for ch in node.children[1:]:
            acc = acc & go(ch)
        if isinstance(node, And):
            return acc
        return 1 - acc  # Nand

    return go(c.root)


def _wht_integers(values: np.ndarray) -> np.ndarray:
    """In-place butterfly: returns h with h[s] = sum_x v[x]*(-1)^{s.x}."""
    h = values.astype(np.int64)
    step = 1
    while step < h.size:
        pairs = h.reshape(-1, 2, step)
        a, b = pairs[:, 0], pairs[:, 1]
        a += b  # a + b
        b *= -2
        b += a  # (a + b) - 2b = a - b
        step *= 2
    return h


def popcounts(n: int) -> np.ndarray:
    """uint8 array: popcounts[s] = number of set bits of s, s < 2^n."""
    counts = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        counts = np.concatenate([counts, counts + 1])
    return counts


@dataclass(frozen=True)
class SpectralTable:
    """All 2^n Fourier coefficients, stored exactly.

    ``numerators[s]`` is the integer 2^n * F_hat[s]; the shared denominator
    keeps the table exact in int64 (|numerator| <= 2^n <= 2^24).
    """

    n: int
    numerators: np.ndarray

    def coefficient(self, s: int) -> Fraction:
        return Fraction(int(self.numerators[s]), 1 << self.n)

    def level_sums(self) -> tuple[list[Fraction], list[Fraction]]:
        """(abs sums L^0..L^n, signed sums A^0..A^n), exact."""
        counts = popcounts(self.n)
        # float64 holds these integer sums exactly: |sums| <= 4^n < 2^53
        abs_i = np.bincount(counts, weights=np.abs(self.numerators), minlength=self.n + 1)
        sgn_i = np.bincount(counts, weights=self.numerators, minlength=self.n + 1)
        den = 1 << self.n
        abs_f = [Fraction(int(v), den) for v in abs_i]
        sgn_f = [Fraction(int(v), den) for v in sgn_i]
        return abs_f, sgn_f

    def check_parseval(self) -> bool:
        """Exact check of sum_s F_hat[s]^2 = F_hat[0] for Boolean F."""
        nums = [int(v) for v in self.numerators]
        return sum(v * v for v in nums) == nums[0] << self.n

    def sum_all(self) -> Fraction:
        """sum_s F_hat[s], which equals F(0^n) for any F."""
        return Fraction(int(np.sum(self.numerators, dtype=np.int64)), 1 << self.n)


def wht_bruteforce(c: Circuit, cap: int = WHT_CAP) -> SpectralTable:
    """Exact spectrum by butterfly transform of the full truth table."""
    if c.n > cap:
        raise CapExceeded(f"n={c.n} exceeds brute-force cap {cap}")
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


def _profile_ints(node) -> tuple[int, list, list]:
    """(m, abs, sgn) over the subtree's leaf count m: L^k = abs[k] / 2^m."""
    if isinstance(node, Leaf):
        return 1, [1, 1], [1, 1 if node.negated else -1]
    if isinstance(node, Const):
        return 0, [node.value], [node.value]
    if isinstance(node, Not):
        return _negate_polys(*_profile_ints(node.child))
    # And multiplies; Or is NOT-AND-NOT and Nand is NOT-AND
    neg = isinstance(node, Or)
    m, absL, sgnA = 0, [1], [1]
    for ch in node.children:
        cm, cl, ca = _negate_polys(*_profile_ints(ch)) if neg else _profile_ints(ch)
        m += cm
        absL = _convolve(absL, cl)
        sgnA = _convolve(sgnA, ca)
    if isinstance(node, And):
        return m, absL, sgnA
    return _negate_polys(m, absL, sgnA)


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
    m, absL, sgnA = _profile_ints(c.root)
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


def damped_mass_recursive(c: Circuit, p, exact: bool = False):
    """L_p by the scalar product recursion, O(size) with no polynomials.

    For an AND: L_p(F) = prod(L_p(F_i) + F_i_hat[0]) - prod(F_i_hat[0]).
    With p = a/b every subtree's L_p and F_hat[0] are integers over
    (2b)^(leaf count), so the recursion is exact for any rational p (a
    float p is a dyadic rational) and ``exact=False`` returns the correctly
    rounded float of the exact value, with no cancellation.
    """
    if not 0 <= p <= 1:
        raise CircuitError(f"p={p} outside [0,1]")
    c.check_read_once()
    pf = Fraction(p)
    a, scale = pf.numerator, 2 * pf.denominator

    def go(node) -> tuple[int, int, int]:
        """(u, L, f0): L_p = L / u and F_hat[0] = f0 / u, u = scale^leaves."""
        if isinstance(node, Leaf):
            return scale, a, scale // 2
        if isinstance(node, Const):
            return 1, 0, node.value
        if isinstance(node, Not):
            u, lp, f0 = go(node.child)
            return u, lp, u - f0
        # Or: negate children (L_p unchanged, f0 -> 1-f0), AND, negate;
        # Nand: AND, negate
        neg = isinstance(node, Or)
        u, prod_both, prod_f0 = 1, 1, 1
        for ch in node.children:
            cu, lp_c, f0_c = go(ch)
            if neg:
                f0_c = cu - f0_c
            u *= cu
            prod_both *= lp_c + f0_c
            prod_f0 *= f0_c
        f0 = prod_f0 if isinstance(node, And) else u - prod_f0
        return u, prod_both - prod_f0, f0

    u, num, _ = go(c.root)
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


def _report(lhs, rhs, params, tolerance=0.0) -> BoundReport:
    slack = rhs - lhs
    return BoundReport(lhs, rhs, slack, slack >= -tolerance, params)


def check_lp_sandwich(lp: LevelProfile, p, tolerance: float = 0.0) -> BoundReport:
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
    passed = lower_slack >= -tolerance and upper_slack >= -tolerance
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


def boundary_p(n: int, depth: int, eps: float) -> float:
    """Largest admissible damping 1 / (9 log2(4^D n / eps))^D."""
    d = max(depth, 1)
    return 1.0 / (9.0 * math.log2((4.0**d) * n / eps)) ** d


def check_mainbound(
    c: Circuit, eps, p: float | None = None, tolerance: float = 0.0
) -> BoundReport:
    """L_p <= p * min(F_hat[0], 1-F_hat[0]) * (9 log2(4^D n/eps))^D + eps.

    Checked at the boundary p unless one is supplied.  Depth-0 circuits are
    treated as depth 1 (wrap in a unary AND, which changes nothing else).
    The explicit constant is 9 and logs are base 2.
    """
    if Fraction(eps) > Fraction(1, c.n):
        raise CircuitError(f"eps={eps} exceeds 1/n for n={c.n}")
    d = max(c.depth, 1)
    logterm = 9.0 * math.log2((4.0**d) * c.n / eps)
    p_max = 1.0 / logterm**d
    if p is None:
        p = p_max
    elif p > p_max * (1 + 1e-12):
        raise CircuitError(f"p={p} exceeds admissible maximum {p_max}")
    lp = level_profile_recursive(c)
    lhs = float(damped_mass(lp, p))
    f0 = lp.signed_sum[0]  # F_hat[0] = E[F]
    minf0 = float(min(f0, 1 - f0))
    rhs = p * minf0 * logterm**d + eps
    return _report(
        lhs,
        rhs,
        {
            "p": p,
            "eps": float(eps),
            "D": d,
            "n": c.n,
            "f0": minf0,
            "log_base": 2,
            "constant": 9,
        },
        tolerance,
    )


def check_growth_corollary(c: Circuit) -> dict:
    """Empirical hidden constant for L^k <= O(log^{D-1} n)^k.

    Reports g = max_{k>=1} (L^k)^{1/k} / (log2 n)^{D-1}.  The asymptotic
    statement hides its constant, so this logs rather than asserts.
    """
    if c.n < 2:
        raise CircuitError("growth report needs n >= 2")
    lp = level_profile_recursive(c)
    d = max(c.depth, 1)
    denom = math.log2(c.n) ** (d - 1)
    per_level = []
    g = 0.0
    for k in range(1, c.n + 1):
        mass = float(lp.abs_mass[k])
        if mass == 0.0:
            continue
        root = mass ** (1.0 / k)
        per_level.append({"k": k, "mass": mass, "kth_root": root})
        g = max(g, root / denom)
    return {"g": g, "denominator": denom, "D": d, "n": c.n, "levels": per_level}


def biased_gap(c: Circuit, p_coin, details: bool = False):
    """|E_X[F] - E_U[F]| for the product coin distribution with bias p.

    Convention: bias p means E[(-1)^{x_i}] = p, so Pr[x_i = 1] = (1-p)/2
    and the gap equals |sum_{k>=1} A^k p^k|.  Computed independently from
    the signed profile, from acceptance probabilities, and (n <= 14) from
    the brute-force table; the three paths must agree.
    """
    if not -1 <= p_coin <= 1:
        raise CircuitError(f"coin bias {p_coin} outside [-1,1]")
    exact = isinstance(p_coin, (Fraction, int))
    p = Fraction(p_coin) if exact else float(p_coin)
    lp = level_profile_recursive(c, exact=exact)

    signed = sum(
        (p**k * lp.signed_sum[k] for k in range(1, c.n + 1)),
        lp.signed_sum[0] * 0,
    )
    via_profile = abs(signed)

    q = BiasVector.constant(c.n, (1 - p) / 2)
    via_measure = abs(
        acceptance_probability(c, q)
        - acceptance_probability(c, BiasVector.uniform(c.n))
    )

    paths = {"profile": via_profile, "measure": via_measure}
    if c.n <= 14:
        _, sgn = wht_bruteforce(c).level_sums()
        paths["table"] = abs(
            sum((p**k * sgn[k] for k in range(1, c.n + 1)), sgn[0] * 0)
        )

    values = [float(v) for v in paths.values()]
    if max(values) - min(values) > 1e-12:
        raise ArithmeticError(f"gap computation paths disagree: {paths}")
    if details:
        return paths
    return via_profile
