"""Small-bias expanders and the seed-recycling restriction generator.

The base expander powers a binary-field element: a seed splits into field
elements (alpha, beta) of ell bits each, and output bit i is the GF(2) inner
product of the coefficient vectors of alpha^(i+1) and beta.  For any nonzero
character the signed sum collapses to the event that an explicit polynomial
of degree at most n vanishes at alpha, so the bias is at most n/2^ell.

The restriction expander spends one such string at a time.  Each round draws
`a` selection strings and one assignment string; a position still free gets
fixed exactly when all `a` selection bits read 1 (about a 2^-a fraction per
round) and takes its value from the assignment string.  A final block fixes
whatever survives every round, so expansion always covers all n positions.

Batched expansion uses that a block's output is GF(2)-linear in beta: up to
ell = 10 two gathers from ``_block_table``, above that a power chain.  Every
batched field computation runs in the narrowest unsigned dtype that holds
ell bits (``_field_dtype``: uint8 up to ell = 8, uint16 up to 16, uint32 up
to 32, uint64 above); what leaves the field (power rows, output words) is
int64.  The restriction expander expands all blocks of one kind at once and
folds them as arrays: a round fixes what its selections pick and no earlier
round took (a prefix OR over the rounds).  Monte Carlo and exhaustive
restriction sweeps both run this batched path.

The exact small-bias bias is a closed form in (ell, n) from the factors of
GF(2)[x] (``SmallBiasGen``).  An exhaustive small-bias sweep reads every
beta at one alpha per Frobenius orbit, weighted by the orbit's size, about a
(1/ell)th of the seeds.  Exhaustive fooling counts run over slices of about
2^16 outputs, so beside the truth table they hold nothing of size 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil, ldexp, log2
from typing import Iterator

import numpy as np

from .circuit import BiasVector, Circuit, CircuitError, acceptance_probability
from .fourier import (
    WHT_CAP,
    BoundReport,
    CapExceeded,
    _damped_fold,
    _wht_blocks,
    level_profile_recursive,  # noqa: F401  (perfbench's tracer wraps this name here)
    truth_table,
)

EXHAUSTIVE_SEED_CAP = 26  # full seed sweeps stay below 2^26 expansions
MC_BATCH_BITS = 1 << 20  # Monte-Carlo seed bits expanded in one batch
_ENVELOPE_B = 2.0  # the level-k mass envelope's base is this times (log2 n)^(D-1)
_ENVELOPE_A = 2.0  # and its scale is this

# Lexicographically least irreducible polynomial of each degree over GF(2),
# bit i = coefficient of x^i.  Degree 8 is the familiar 0x11b.
IRREDUCIBLE_POLY = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
    17: 0x20009,
    18: 0x40009,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
    25: 0x2000009,
    26: 0x400001B,
    27: 0x8000027,
    28: 0x10000003,
    29: 0x20000005,
    30: 0x40000003,
    31: 0x80000009,
    32: 0x10000008D,
    33: 0x20000004B,
    34: 0x40000001B,
    35: 0x800000005,
    36: 0x1000000035,
    37: 0x200000003F,
    38: 0x4000000063,
    39: 0x8000000011,
    40: 0x10000000039,
    41: 0x20000000009,
    42: 0x40000000027,
    43: 0x80000000059,
    44: 0x100000000021,
    45: 0x20000000001B,
    46: 0x400000000003,
    47: 0x800000000021,
    48: 0x100000000002D,
    49: 0x2000000000071,
    50: 0x400000000001D,
    51: 0x800000000004B,
    52: 0x10000000000009,
    53: 0x20000000000047,
    54: 0x4000000000007D,
    55: 0x80000000000047,
    56: 0x100000000000095,
    57: 0x200000000000011,
    58: 0x400000000000063,
    59: 0x80000000000007B,
    60: 0x1000000000000003,
    61: 0x2000000000000027,
    62: 0x4000000000000069,
    63: 0x8000000000000003,
    64: 0x1000000000000001B,
}


def gf_mul(a: int, b: int, ell: int) -> int:
    """Multiply two elements of the degree-ell binary field."""
    if ell not in IRREDUCIBLE_POLY:
        raise CircuitError(f"no field of degree {ell} (table covers 2..64)")
    poly = IRREDUCIBLE_POLY[ell]
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> ell) & 1:
            a ^= poly
    return r


def _field_dtype(ell: int) -> type:
    """The narrowest unsigned dtype that holds an ell-bit field element."""
    return next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if ell <= np.iinfo(t).bits)


def _gf_shifts(a: np.ndarray, ell: int) -> list:
    """[a * x^j for j < ell], elementwise over an array of field elements.

    The arithmetic runs in a's dtype, ``_field_dtype(ell)`` on every batched
    path (any unsigned dtype of at least ell bits gives the same values).
    """
    dt = a.dtype.type
    poly = dt(IRREDUCIBLE_POLY[ell] ^ (1 << ell))
    low = dt((1 << (ell - 1)) - 1)
    top, one = dt(ell - 1), dt(1)
    shifts = [a]
    for _ in range(ell - 1):
        # clear the top bit before the shift (so ell = 64 fits), fold it back in
        a = ((a & low) << one) ^ (poly * (a >> top))
        shifts.append(a)
    return shifts


def _gf_mul_many(shifts: list, b: np.ndarray) -> np.ndarray:
    """Elementwise gf_mul(a, b): the XOR of a * x^j over the set bits j of b.

    ``shifts`` is ``_gf_shifts(a, ell)``, so a power chain with a fixed
    factor shifts it once; b has the same dtype as a.
    """
    dt = b.dtype.type
    r = np.zeros(b.shape, dtype=dt)
    bit = np.empty(b.shape, dtype=dt)
    for j, aj in enumerate(shifts):
        np.right_shift(b, dt(j), out=bit)
        bit &= dt(1)
        bit *= aj
        r ^= bit
    return r


def _gf_powers(alpha: np.ndarray, ell: int, n: int) -> Iterator[np.ndarray]:
    """alpha^1, ..., alpha^n, elementwise in alpha's dtype."""
    shifts = _gf_shifts(alpha, ell)
    p = alpha
    for i in range(n):
        yield p
        if i + 1 < n:
            p = _gf_mul_many(shifts, p)


@lru_cache(maxsize=32)
def _alpha_power_rows(ell: int, n: int) -> np.ndarray:
    """rows[alpha, i] = coefficient mask of alpha^(i+1), as int64."""
    alphas = np.arange(1 << ell, dtype=_field_dtype(ell))
    rows = np.stack(list(_gf_powers(alphas, ell, n)), axis=1).astype(np.int64)
    rows.setflags(write=False)
    return rows


def _frobenius_orbits(ell: int) -> tuple:
    """(alphas, sizes): the least element of each orbit {alpha^(2^k)} of the
    degree-ell field, 0 its own orbit, and the orbit's size, ordered by size
    and then by alpha.

    The size d divides ell: it is the degree of the smallest subfield
    holding alpha.  Squaring is one gather through the table of squares.
    """
    alphas = np.arange(1 << ell, dtype=_field_dtype(ell))
    square = _gf_mul_many(_gf_shifts(alphas, ell), alphas)
    sizes = np.zeros(alphas.shape, dtype=np.int64)
    least, x = alphas.copy(), alphas
    for d in range(1, ell + 1):
        x = square[x]
        sizes[(sizes == 0) & (x == alphas)] = d
        np.minimum(least, x, out=least)
    first = np.flatnonzero(least == alphas)
    first = first[np.argsort(sizes[first], kind="stable")]
    return alphas[first], sizes[first]


def _beta_columns(powers, ell: int, count: int) -> np.ndarray:
    """cols[j, r] = output at alpha_r and beta = 2^j, as int64: bit i of it
    is bit j of alpha_r^(i+1).

    ``powers`` yields alpha^1, ..., alpha^n elementwise over the count alphas.
    """
    cols = np.zeros((ell, count), dtype=np.int64)
    for i, p in enumerate(powers):
        cols |= ((p >> np.arange(ell)[:, None]) & 1) << i
    return cols


def _xor_span(vectors: np.ndarray) -> np.ndarray:
    """table[t] = XOR of vectors[j] over the set bits j of t."""
    table = np.zeros((1, vectors.shape[1]), dtype=vectors.dtype)
    for v in vectors:
        table = np.concatenate([table, table ^ v])
    return table


def _fields(seeds: np.ndarray, offsets, width: int) -> np.ndarray:
    """uint64 value of the width-bit field at each bit offset, shape (offsets, rows).

    ``seeds`` holds one seed per row as little-endian bytes (``_seed_bytes``),
    read as 64-bit words (the row zero-padded to whole words), so a field of
    up to 64 bits lies in the word holding its first bit and the next one.
    Gathers past the row's end repeat its last word, whose bits land above
    the field and are masked off.  The power chain narrows its alpha and beta
    fields to ``_field_dtype(ell)``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    words = np.pad(seeds, ((0, 0), (0, -seeds.shape[1] % 8))).view("<u8").T
    shift = (offsets % 64).astype(np.uint64)[:, None]
    index = offsets // 64
    value = words[index]
    value >>= shift
    # the next word's bits start at 64 - shift; at shift 0 they all fall off
    high = words[np.minimum(index + 1, len(words) - 1)]
    high <<= np.uint64(1)
    high <<= np.uint64(63) - shift
    value |= high
    del high
    if width < 64:
        value &= np.uint64((1 << width) - 1)
    return value


@lru_cache(maxsize=32)
def _block_table(ell: int, n: int) -> tuple:
    """(T_0, T_1), T_j[t << ell | alpha] = output at alpha and beta = t << (j * c).

    c = ceil(ell / 2).  Output bit i is <alpha^(i+1), beta>, GF(2)-linear in
    beta: the XOR of cols[j][alpha], the output at beta = 2^j, over the set
    bits j of beta.  For odd ell T_1 also spans one zero column, as padding.
    Only ``_expand_fields`` reads the tables (Monte Carlo and the restriction
    expander, ell <= 10); exhaustive small-bias sweeps build none.
    """
    c = (ell + 1) // 2
    cols = np.zeros((2 * c, 1 << ell), dtype=np.int64)
    cols[:ell] = _beta_columns(_alpha_power_rows(ell, n).T, ell, 1 << ell)
    tables = (_xor_span(cols[:c]).ravel(), _xor_span(cols[c:]).ravel())
    for table in tables:
        table.setflags(write=False)
    return tables


def _expand_fields(seeds: np.ndarray, ell: int, n: int, offsets) -> np.ndarray:
    """SmallBiasGen(ell, n) outputs of the blocks at each offset, (offsets, rows) int64.

    The seed-by-seed path: Monte Carlo, and every restriction-expander block
    (exhaustive small-bias sweeps go by orbits, ``SmallBiasGen._output_chunks``).
    Up to ell = 10 a block is two gathers, T_0 at alpha and the low half of
    beta, T_1 at alpha and the high half; above that a power chain in
    ``_field_dtype(ell)``.  Table build and gathers against the chain, caches
    cold, at n = 20 in ms (min of 31, one run on a 2-core x86-64, numpy 2.4;
    49 blocks per seed is the RestrictionPRG(16, a=1, rounds=24) layout):

        blocks x seeds   ell = 8      10           11           12
        1 x 400          0.68 / 0.59  2.29 / 1.22  5.57 / 1.36  9.78 / 1.49
        1 x 10,000       0.80 / 1.21  2.51 / 2.36  5.74 / 2.88  10.6 / 3.07
        49 x 400         1.42 / 2.81  2.54 / 4.08  3.49 / 3.86  4.31 / 3.32
        49 x 10,000      15.2 / 80.4  15.6 / 111   16.1 / 99.6  17.7 / 108

    Moving the cut down to 9 loses at both batch sizes on 49 blocks, and up
    to 11 loses at both on one block, so it stays at 10.
    """
    if ell <= 10:
        fields = _fields(seeds, offsets, 2 * ell).view(np.int64)
        low = ell + (ell + 1) // 2  # alpha and the low half of beta: T_0's index
        t0, t1 = _block_table(ell, n)
        out = t0[fields & ((1 << low) - 1)]
        alpha = fields & ((1 << ell) - 1)
        fields >>= low  # fields becomes T_1's index in place
        fields <<= ell
        fields |= alpha
        del alpha
        out ^= t1[fields]
        return out
    dt = _field_dtype(ell)
    alpha = _fields(seeds, offsets, ell).astype(dt, copy=False)
    beta = _fields(seeds, np.add(offsets, ell), ell).astype(dt, copy=False)
    out = np.zeros(alpha.shape, dtype=np.uint64)
    for i, p in enumerate(_gf_powers(alpha, ell, n)):
        out |= (np.bitwise_count(p & beta) & 1).astype(np.uint64) << np.uint64(i)
    return out.view(np.int64)


def _one_word(n: int) -> None:
    if n > 64:  # every batched expander returns one 64-bit word per seed
        raise CapExceeded(f"batched expansion of n={n} outputs exceeds one 64-bit word")


@dataclass(frozen=True)
class SmallBiasGen:
    """Field-powering expander: 2*ell seed bits stretch to n output bits.

    The n/2^ell bias guarantee needs n <= 2^ell; beyond that the powers of
    alpha start cycling and correlated output positions appear, so larger n
    is accepted but carries no useful bound.

    The exact bias depends on (ell, n) alone.  Let N_d = (1/d) sum_{e | d}
    mu(e) 2^(d/e) be the number of irreducible polynomials of degree d over
    GF(2).  Take one item of size d for each irreducible whose degree d
    divides ell, except x (so degree 1 gives only x + 1), and let best be
    the largest sum of distinct items that is at most n - 1.  The bias is
    (1 + best) / 2^ell.  Why: write a nonzero character S as the polynomial
    q_S(x) = sum_{i in S} x^i, a one-to-one map onto the nonzero
    polynomials of degree <= n - 1.  S sums to 2^ell * #{alpha : alpha
    q_S(alpha) = 0} over the seeds.  That count is 1 (alpha = 0) plus
    sum deg f over the distinct irreducible factors f != x of q_S whose
    degree divides ell: each such f has deg f distinct roots in GF(2^ell),
    all nonzero, no two factors share a root, and factors of other degrees
    have no root there.  The product of the chosen irreducibles has degree
    best <= n - 1 and reaches the maximum.

    Exhaustive sweeps read one alpha per Frobenius orbit {alpha, alpha^2,
    alpha^4, ...} and weight it by the orbit's size.  For a fixed alpha the
    map beta -> output is GF(2)-linear, and its image is the annihilator of
    the characters S with alpha q_S(alpha) = 0.  Squaring is a field
    automorphism fixing GF(2), so q(alpha^2) = q(alpha)^2: alpha and alpha^2
    vanish on the same q, give the same image, and so the same multiset of
    outputs over all beta.
    """

    ell: int
    n: int

    def __post_init__(self):
        if self.ell not in IRREDUCIBLE_POLY:
            raise CircuitError(f"ell={self.ell} outside field table (2..64)")
        if self.n < 1:
            raise CircuitError(f"output length {self.n} must be positive")

    @property
    def seed_bits(self) -> int:
        return 2 * self.ell

    @property
    def bias_bound(self) -> Fraction:
        return min(Fraction(1), Fraction(self.n, 1 << self.ell))

    def expand(self, seed: int) -> int:
        if not 0 <= seed < (1 << self.seed_bits):
            raise CircuitError(f"seed {seed} outside {self.seed_bits} bits")
        mask = (1 << self.ell) - 1
        alpha = seed & mask
        beta = seed >> self.ell
        out = 0
        p = alpha
        for i in range(self.n):
            out |= ((p & beta).bit_count() & 1) << i
            p = gf_mul(p, alpha, self.ell)
        return out

    def _output_chunks(self, chunk_bits: int) -> Iterator[tuple]:
        """(outputs, weight) pairs: every beta at one alpha per Frobenius
        orbit, weighted by the orbit's size (class docstring).

        cols[j, r] is the output at alphas[r] and beta = 2^j.  The span of
        the low c = ceil(ell / 2) columns holds every low half of beta, one
        (R, 2^c) array over the R orbits, and each high half of beta XORs
        one row of the other span into it.  That block yields one chunk per
        orbit size.  A block has 2^c * R outputs whatever chunk_bits asks:
        3,456 at ell = 10 and 80,896 at ell = 13, the largest under the
        seed cap.  Stacking 18 high halves into 2^16-output blocks at
        ell = 10 raised a process's peak RSS by about 0.9 MB (2-core
        x86-64, numpy 2.4).  The sweep reads 2^ell * R, about 2^(2 ell) /
        ell, outputs and builds no table over all alphas.
        """
        alphas, sizes = _frobenius_orbits(self.ell)
        weights, starts = np.unique(sizes, return_index=True)
        runs = list(zip(weights.tolist(), starts.tolist(), [*starts[1:].tolist(), len(alphas)]))
        c = (self.ell + 1) // 2
        cols = _beta_columns(_gf_powers(alphas, self.ell, self.n), self.ell, len(alphas))
        low = np.ascontiguousarray(_xor_span(cols[:c]).T)  # alpha-major, so chunks are views
        for row in _xor_span(cols[c:]):
            block = low ^ row[:, None]
            for weight, a, b in runs:
                yield block[a:b].reshape(-1), weight

    def _expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        _one_word(self.n)
        return _expand_fields(seeds, self.ell, self.n, [0])[0]

    def _bias(self) -> Fraction:
        # count[d] = N_d from 2^d = sum_{e | d} e N_e; bit s of reach: some
        # set of distinct items has degree sum s
        budget, reach, count = self.n - 1, 1, {}
        for d in range(1, self.ell + 1):
            count[d] = ((1 << d) - sum(e * count[e] for e in range(1, d) if d % e == 0)) // d
            if self.ell % d == 0:
                for _ in range(min(count[d] - (d == 1), budget // d)):  # x is no item
                    reach |= reach << d
        return Fraction((reach & ((2 << budget) - 1)).bit_length(), 1 << self.ell)


@dataclass(frozen=True)
class UniformGen:
    """Identity expander: the seed is the output.  Bias exactly 0."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise CircuitError(f"output length {self.n} must be positive")

    @property
    def seed_bits(self) -> int:
        return self.n

    def expand(self, seed: int) -> int:
        if not 0 <= seed < (1 << self.n):
            raise CircuitError(f"seed {seed} outside {self.n} bits")
        return seed

    def _output_chunks(self, chunk_bits: int) -> Iterator[tuple]:
        total = 1 << self.n
        step = 1 << min(chunk_bits, self.n)
        for lo in range(0, total, step):
            yield np.arange(lo, min(lo + step, total), dtype=np.int64), 1

    def _expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        _one_word(self.n)
        return _fields(seeds, [0], self.n)[0].view(np.int64)

    def _bias(self) -> Fraction:
        return Fraction(0)


def _check_exhaustive(gen) -> None:
    """The caps every full seed sweep and 2^n output table stays under."""
    if gen.seed_bits > EXHAUSTIVE_SEED_CAP:
        raise CapExceeded(f"{gen.seed_bits} seed bits exceed exhaustive cap {EXHAUSTIVE_SEED_CAP}")
    if gen.n > WHT_CAP:
        raise CapExceeded(f"output distribution for n={gen.n} exceeds cap {WHT_CAP}")


@lru_cache(maxsize=6)
def _distribution_cached(gen) -> np.ndarray:
    """Read-only counts of each n-bit output over the full seed space.

    Each chunk of at most 2^20 outputs is added in place with its weight
    (``np.add.at``), so beside the 2^n counts only one chunk is ever held:
    no 2^n-bin ``bincount`` result and no 2^n-output chunk.  A chunk's
    weight is the number of seeds behind each of its outputs: 1, or for a
    ``SmallBiasGen`` the size of the Frobenius orbit of the chunk's alphas.
    """
    _check_exhaustive(gen)
    counts = np.zeros(1 << gen.n, dtype=np.int64)
    for chunk, weight in gen._output_chunks(chunk_bits=20):
        np.add.at(counts, chunk, weight)
        del chunk  # not held while the next one is built
    counts.setflags(write=False)
    return counts


def output_distribution(gen) -> np.ndarray:
    """Counts of each n-bit output over the full seed space."""
    return _distribution_cached(gen).copy()


def _accepted_seeds(gen, tt: np.ndarray) -> int:
    """Seeds whose output the 0/1 truth table accepts.

    Counted one chunk at a time, each accepted output times its chunk's
    weight (``_distribution_cached``): 2^16 outputs, or a ``SmallBiasGen``
    chunk of one high half of beta.
    """
    _check_exhaustive(gen)
    return sum(weight * int(np.count_nonzero(tt[chunk]))
               for chunk, weight in gen._output_chunks(chunk_bits=16))


def _transform_bias(gen) -> Fraction:
    """Bias from the exact transform of the output distribution."""
    top = 0
    for r, block in _wht_blocks(_distribution_cached(gen)):
        rest = block[1:] if r == 0 else block  # s = 0 is no character
        top = max(top, int(rest.max()), -int(rest.min()))
    return Fraction(top, 1 << gen.seed_bits)


def measure_bias(gen) -> Fraction:
    """Exact max over nonzero characters of |E_seed[(-1)^(s.output)]|.

    A ``SmallBiasGen`` has the closed form (1 + best) / 2^ell: best is the
    largest degree sum of distinct irreducible polynomials over GF(2),
    other than x, whose degrees divide ell, with best <= n - 1.  Character
    S's signed sum over the seeds is 2^ell times the number of roots in
    GF(2^ell) of x q_S(x), q_S(x) = sum_{i in S} x^i, and those roots are
    0 and the roots of such factors of q_S (the class docstring has the
    argument).  ``UniformGen`` has bias 0.  Other generators sweep every
    seed into the output distribution and transform it.  All stay in
    integers and under the same caps: 2^26 seeds (``EXHAUSTIVE_SEED_CAP``)
    and n <= ``WHT_CAP``.  The bias of the first k output bits of a
    ``SmallBiasGen`` or ``RestrictionPRG`` is that of
    ``dataclasses.replace(gen, n=k)``.
    """
    _check_exhaustive(gen)
    return gen._bias()


def default_rounds(n: int, eps: float, a: int) -> int:
    """Rounds needed so all n positions are fixed before the fallback whp.

    Each round fixes a free position with probability about 2^-a, so
    ceil(2^a * (2*log2(n) + log2(1/eps))) rounds leave any given position
    free with probability below eps/n^2.
    """
    if n < 1 or not 0 < eps < 1 or a < 0:
        raise CircuitError(f"bad parameters n={n} eps={eps} a={a}")
    try:
        return max(1, ceil(ldexp(2 * log2(max(n, 2)) - log2(eps), a)))
    except OverflowError:
        raise CircuitError(f"a={a} needs more rounds than a float holds") from None


@dataclass(frozen=True)
class RestrictionPRG:
    """Layout of the round-based restriction expander.

    Per round: ``a`` selection blocks of 2*ell_sel bits and one assignment
    block of 2*ell_asn bits; one final assignment block (degree ell_final,
    defaulting to ell_asn) after the last round.  a = 0 makes every round
    fix all remaining positions at once.
    """

    n: int
    a: int = 1
    rounds: int = 1
    ell_sel: int = 3
    ell_asn: int = 4
    ell_final: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise CircuitError(f"n={self.n} must be positive")
        if self.a < 0 or self.rounds < 1:
            raise CircuitError(f"bad layout a={self.a} rounds={self.rounds}")
        for ell in (self.ell_sel, self.ell_asn, self.final_ell):
            if ell not in IRREDUCIBLE_POLY:
                raise CircuitError(f"ell={ell} outside field table (2..64)")

    @property
    def final_ell(self) -> int:
        return self.ell_asn if self.ell_final is None else self.ell_final

    @cached_property
    def _offsets(self) -> tuple:
        """Seed-bit offsets: (rounds, a) selection blocks, each round's
        assignment block, and the final block."""
        sel_bits = 2 * self.ell_sel
        round_bits = self.a * sel_bits + 2 * self.ell_asn
        starts = np.arange(self.rounds, dtype=np.int64) * round_bits
        sel = starts[:, None] + np.arange(self.a, dtype=np.int64) * sel_bits
        return sel, starts + self.a * sel_bits, self.rounds * round_bits

    @property
    def seed_bits(self) -> int:
        return self.rounds * (self.a * 2 * self.ell_sel + 2 * self.ell_asn) + (
            2 * self.final_ell
        )

    @classmethod
    def standard(cls, n: int, eps: float, a: int = 1) -> "RestrictionPRG":
        """Pick ell so each block biases below eps, rounds to cover whp."""
        rounds = default_rounds(n, eps, a)  # validates n, eps and a first
        ell = min(64, max(2, ceil(log2(max(n, 2)) - log2(eps))))
        return cls(n=n, a=a, rounds=rounds, ell_sel=ell, ell_asn=ell)

    def expand(self, seed: int) -> int:
        if not 0 <= seed < (1 << self.seed_bits):
            raise CircuitError(f"seed {seed} outside {self.seed_bits} bits")
        return self.expand_trace(seed)["output"]

    def expand_trace(self, seed: int) -> dict:
        """Expansion plus per-round bookkeeping (for restriction experiments).

        Returns output, the mask fixed in each round, the assignment string
        of each round, and the fallback mask/string.
        """
        def block(ell: int, off: int) -> int:
            return SmallBiasGen(ell, self.n).expand((seed >> off) & ((1 << (2 * ell)) - 1))

        sel_offsets, asn_offsets, final_offset = self._offsets
        full = (1 << self.n) - 1
        free = full
        out = 0
        fixed_masks, asn_strings = [], []
        for sel_round, asn_off in zip(sel_offsets.tolist(), asn_offsets.tolist()):
            sel = full
            for off in sel_round:
                sel &= block(self.ell_sel, off)
            asn = block(self.ell_asn, asn_off)
            fix = free & sel
            out |= asn & fix
            free &= ~fix
            fixed_masks.append(fix)
            asn_strings.append(asn)
        final = block(self.final_ell, final_offset)
        out |= final & free
        return {
            "output": out,
            "fixed": fixed_masks,
            "values": asn_strings,
            "fallback_mask": free,
            "fallback_values": final,
        }

    def _output_chunks(self, chunk_bits: int) -> Iterator[tuple]:
        total = 1 << self.seed_bits
        step = 1 << min(chunk_bits, self.seed_bits)
        sub = min(step, 1 << 14)  # (blocks, seeds) arrays under 1 MiB all told
        for lo in range(0, total, step):
            chunk = np.empty(step, dtype=np.int64)
            for s in range(0, step, sub):
                seeds = np.arange(lo + s, lo + s + sub, dtype="<u8").view(np.uint8)
                chunk[s : s + sub] = self._expand_seeds(seeds.reshape(sub, 8))
            yield chunk, 1
            del chunk  # not held while the next one is built

    def _expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        """The vectorized form of ``expand_trace``, one expansion per block kind.

        A round's selection strings AND together; the round fixes what they
        select and no earlier round took (a prefix OR), and the final string
        fills whatever no round took.  With a = 0 the empty AND is all ones.
        """
        _one_word(self.n)
        sel_offsets, asn_offsets, final_offset = self._offsets
        rows, n = len(seeds), self.n
        sel = _expand_fields(seeds, self.ell_sel, n, sel_offsets.ravel())
        sel = np.bitwise_and.reduce(sel.reshape(self.rounds, self.a, rows), axis=1)
        taken = np.bitwise_or.accumulate(sel, axis=0)
        sel[1:] &= ~taken[:-1]
        out = np.bitwise_or.reduce(_expand_fields(seeds, self.ell_asn, n, asn_offsets) & sel, axis=0)
        del sel
        final = _expand_fields(seeds, self.final_ell, n, [final_offset])[0]
        final &= ~taken[-1]
        out |= final
        return out

    def _bias(self) -> Fraction:
        return _transform_bias(self)


def seed_length_account(n: int, eps: float, D: int) -> dict:
    """Accounting only: compare the generic seed formula with our layout.

    Instantiates the level-k mass envelope a*b^k with a = _ENVELOPE_A and
    b = _ENVELOPE_B*(log2 n)^(D-1), width w = D+1, and evaluates
    b*log(b)*log(n)*log(a*b*w^2*n/eps) next to the concrete block layout's
    total.  Nothing is asserted; the constants are reported so the reader
    can judge the gap.
    """
    if n < 2 or not 0 < eps < 1 or D < 1:
        raise CircuitError(f"bad parameters n={n} eps={eps} D={D}")
    b = max(2.0, _ENVELOPE_B * log2(n) ** (D - 1))
    w = D + 1
    formula_bits = (
        b * max(1.0, log2(b)) * log2(n) * log2(_ENVELOPE_A * b * w * w * n / eps)
    )
    a_sel = max(1, ceil(log2(b)))
    cfg = RestrictionPRG.standard(n, eps, a=a_sel)
    return {
        "n": n,
        "eps": eps,
        "depth": D,
        "mass_envelope": {"a": _ENVELOPE_A, "b": b, "width": w},
        "formula_bits": formula_bits,
        "layout": {
            "a": cfg.a,
            "rounds": cfg.rounds,
            "ell_sel": cfg.ell_sel,
            "ell_asn": cfg.ell_asn,
            "ell_final": cfg.final_ell,
            "seed_bits": cfg.seed_bits,
        },
        "polylog_form_bits": log2(n) ** D * log2(n / eps),
    }


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple:
    """Wilson score interval for a binomial proportion at normal quantile z.

    The default z = 1.96 gives a 95% interval; another z gives its own level.
    """
    if trials <= 0:
        raise CircuitError("trials must be positive")
    if not 0 <= successes <= trials:
        raise CircuitError(f"successes {successes} outside 0..{trials}")
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * (phat * (1 - phat) / trials + z * z / (4 * trials * trials)) ** 0.5
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class FoolingReport:
    """How far a generator's acceptance rate sits from the true one."""

    exact_expectation: object
    generator_expectation: object
    abs_error: object
    seeds_used: int
    mode: str
    ci: tuple | None = None

    def as_dict(self) -> dict:
        return {
            "exact_expectation": float(self.exact_expectation),
            "generator_expectation": float(self.generator_expectation),
            "abs_error": float(self.abs_error),
            "seeds_used": self.seeds_used,
            "mode": self.mode,
            "ci": None if self.ci is None else [self.ci[0], self.ci[1]],
        }


def _seed_bytes(rng, bits: int, size: int) -> np.ndarray:
    """One block's seed draws as little-endian bytes, one row per seed."""
    if bits <= 63:
        seeds = rng.integers(0, 1 << bits, size=size, dtype=np.uint64)
        return seeds.astype("<u8").view(np.uint8).reshape(size, 8)
    # wider seeds come a byte at a time, the first byte the most significant
    raw = rng.integers(0, 256, size=(size, (bits + 7) // 8), dtype=np.uint16)
    return raw[:, ::-1].astype(np.uint8)


def fooling_error(
    c: Circuit,
    expander,
    mode: str = "exhaustive",
    trials: int = 10**6,
    master_seed: int = 0,
) -> FoolingReport:
    """|E[F(uniform)] - E[F(expander(seed))]|, exact or Monte-Carlo.

    Exhaustive mode counts over every seed (cap EXHAUSTIVE_SEED_CAP seed
    bits; small-bias sweeps read one alpha per Frobenius orbit, weighted by
    its size) and returns an exact rational error.  MC mode samples seeds
    in blocks with counter-based per-block RNG streams and attaches a
    Wilson 95% interval, so the result depends only on (master_seed,
    trials), not on scheduling.
    It expands each block of seeds in numpy batches of about MC_BATCH_BITS
    seed bits, any field degree up to 64 included.
    """
    if expander.n != c.n:
        raise CircuitError(f"expander emits {expander.n} bits, circuit reads {c.n}")
    exact = acceptance_probability(c, BiasVector.uniform(c.n))
    tt = truth_table(c)
    if mode == "exhaustive":
        seen = 1 << expander.seed_bits
        gen_exp = Fraction(_accepted_seeds(expander, tt), seen)
        return FoolingReport(exact, gen_exp, abs(gen_exp - exact), seen, mode)
    if mode != "mc":
        raise CircuitError(f"unknown mode {mode!r}")
    if trials < 1:
        raise CircuitError("trials must be positive")
    block = 1 << 16
    bits = expander.seed_bits
    step = max(1, MC_BATCH_BITS // bits)  # seeds expanded at once
    accepted = 0
    for b, lo in enumerate(range(0, trials, block)):
        rng = np.random.default_rng(np.random.SeedSequence([master_seed, b]))
        draws = _seed_bytes(rng, bits, min(block, trials - lo))
        for s in range(0, len(draws), step):
            accepted += int(tt[expander._expand_seeds(draws[s : s + step])].sum(dtype=np.int64))
    mean = accepted / trials
    ci = wilson_interval(accepted, trials)
    return FoolingReport(exact, mean, abs(mean - float(exact)), trials, "mc", ci)


def check_sandwich_fooling(c: Circuit, fplus: Circuit, fminus: Circuit, gen) -> BoundReport:
    """|E_gen[F] - E[F]|  <=  E[F+ - F-]  +  bias * max(L(F+), L(F-)).

    F- <= F <= F+ must hold pointwise (verified exhaustively here); the gap
    delta and both total masses are exact rationals, and the bias is the
    measured one, so pass/fail is an exact comparison.  A total mass
    L(F) = sum_{k>=1} L^k is the damped mass at p = 1, so each half's mass
    and E[f] = F_hat[0] come from one O(size) fold, with no level profile.
    """
    for f in (fplus, fminus):
        if f.n != c.n:
            raise CircuitError("sandwich halves must read the same variables")
    tt = truth_table(c)
    tp = truth_table(fplus)
    tm = truth_table(fminus)
    bad = np.nonzero((tm > tt) | (tt > tp))[0]
    if bad.size:
        raise CircuitError(f"not a sandwich: violated at input {int(bad[0])}")
    (u_up, mass_up, f0_up), (u_low, mass_low, f0_low) = (
        _damped_fold(f, 1) for f in (fplus, fminus))  # L(f) = mass / u, E[f] = f0 / u
    delta = Fraction(f0_up, u_up) - Fraction(f0_low, u_low)
    eps = measure_bias(gen)
    masses = [Fraction(mass_up, u_up), Fraction(mass_low, u_low)]
    gen_exp = Fraction(_accepted_seeds(gen, tt), 1 << gen.seed_bits)
    exact = acceptance_probability(c, BiasVector.uniform(c.n))
    lhs = abs(gen_exp - exact)
    rhs = delta + eps * max(masses)
    params = {
        "delta": float(delta),
        "bias": float(eps),
        "mass_upper": float(masses[0]),
        "mass_lower": float(masses[1]),
        "n": c.n,
        "seed_bits": gen.seed_bits,
    }
    # the verdict compares the exact rationals, floats are for display
    return BoundReport(float(lhs), float(rhs), float(rhs) - float(lhs), lhs <= rhs, params)
