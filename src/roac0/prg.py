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
ell = 10 two gathers from ``_block_table``, above that a power chain.  The
restriction expander expands all blocks of one kind at once and folds them
as arrays: a round fixes what its selections pick and no earlier round took
(a prefix OR over the rounds).  Monte Carlo and exhaustive restriction
sweeps both run this batched path.

Small-bias root counts and exhaustive fooling counts run over 2^16-entry
slices, so beside the truth table neither holds anything of size 2^n.
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
    _wht_integers,
    damped_mass_recursive,
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


def _gf_shifts(a: np.ndarray, ell: int) -> list:
    """[a * x^j for j < ell], elementwise over a uint64 array of field elements."""
    poly = np.uint64(IRREDUCIBLE_POLY[ell] ^ (1 << ell))
    low = np.uint64((1 << (ell - 1)) - 1)
    top = np.uint64(ell - 1)
    shifts = [a]
    for _ in range(ell - 1):
        # clear the top bit before the shift (so ell = 64 fits), fold it back in
        a = ((a & low) << np.uint64(1)) ^ (poly * (a >> top))
        shifts.append(a)
    return shifts


def _gf_mul_many(shifts: list, b: np.ndarray) -> np.ndarray:
    """Elementwise gf_mul(a, b): the XOR of a * x^j over the set bits j of b.

    ``shifts`` is ``_gf_shifts(a, ell)``, so a power chain with a fixed
    factor shifts it once.
    """
    r = np.zeros(b.shape, dtype=np.uint64)
    bit = np.empty(b.shape, dtype=np.uint64)
    for j, aj in enumerate(shifts):
        np.right_shift(b, np.uint64(j), out=bit)
        bit &= np.uint64(1)
        bit *= aj
        r ^= bit
    return r


def _gf_powers(alpha: np.ndarray, ell: int, n: int) -> Iterator[np.ndarray]:
    """alpha^1, ..., alpha^n, elementwise over a uint64 array."""
    shifts = _gf_shifts(alpha, ell)
    p = alpha
    for i in range(n):
        yield p
        if i + 1 < n:
            p = _gf_mul_many(shifts, p)


@lru_cache(maxsize=32)
def _alpha_power_rows(ell: int, n: int) -> np.ndarray:
    """rows[alpha, i] = coefficient mask of alpha^(i+1), as int64."""
    alphas = np.arange(1 << ell, dtype=np.uint64)
    rows = np.stack(list(_gf_powers(alphas, ell, n)), axis=1).view(np.int64)
    rows.setflags(write=False)
    return rows


def _xor_span(vectors: np.ndarray) -> np.ndarray:
    """table[t] = XOR of vectors[j] over the set bits j of t."""
    table = np.zeros((1, vectors.shape[1]), dtype=vectors.dtype)
    for v in vectors:
        table = np.concatenate([table, table ^ v])
    return table


def _frobenius_orbits(ell: int) -> tuple:
    """(alphas, degree): the least element of each orbit {alpha^(2^k)} of
    nonzero field elements, and the orbit's size.

    The size d is also the degree of the smallest subfield holding alpha.
    """
    alphas = np.arange(1, 1 << ell, dtype=np.uint64)
    degree = np.zeros(alphas.shape, dtype=np.int64)
    least = alphas.copy()
    x = alphas
    for d in range(1, ell + 1):
        x = _gf_mul_many(_gf_shifts(x, ell), x)
        degree[(degree == 0) & (x == alphas)] = d
        np.minimum(least, x, out=least)
    first = least == alphas
    return alphas[first], degree[first]


def _power_coords(powers: np.ndarray, d: int) -> np.ndarray:
    """coords[a, j] = d-bit coordinates of powers[a, d + j] in the basis powers[a, :d].

    One batched GF(2) elimination over the rows: each basis vector in turn
    takes its lowest set bit as pivot and is cleared from every other one,
    while a tag records which original vectors it sums.  Reducing a power
    by the pivots it holds then leaves 0 and its coordinates in the tag.
    """
    basis = powers[:, :d].copy()
    tags = np.tile(1 << np.arange(d), (len(basis), 1))
    pivots = np.empty_like(basis)
    for i in range(d):
        row, tag = basis[:, i : i + 1], tags[:, i : i + 1]
        pivots[:, i : i + 1] = row & -row
        hit = (basis & pivots[:, i : i + 1]) != 0
        hit[:, i] = False
        basis ^= row * hit
        tags ^= tag * hit
    rest = powers[:, d:].copy()
    coords = np.zeros_like(rest)
    for i in range(d):
        hit = (rest & pivots[:, i : i + 1]) != 0
        rest ^= basis[:, i : i + 1] * hit
        coords ^= tags[:, i : i + 1] * hit
    return coords


def _fields(seeds: np.ndarray, offsets, width: int) -> np.ndarray:
    """uint64 value of the width-bit field at each bit offset, shape (offsets, rows).

    ``seeds`` holds one seed per row as little-endian bytes (``_seed_bytes``),
    read as 64-bit words (the row zero-padded to whole words), so a field of
    up to 64 bits lies in the word holding its first bit and the next one.
    Gathers past the row's end repeat its last word, whose bits land above
    the field and are masked off.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    words = np.pad(seeds, ((0, 0), (0, -seeds.shape[1] % 8))).view("<u8").T
    shift = (offsets % 64).astype(np.uint64)[:, None]
    index = offsets // 64
    value = words[index] >> shift
    # the next word's bits start at 64 - shift; at shift 0 they all fall off
    value |= (words[np.minimum(index + 1, len(words) - 1)] << np.uint64(1)) << (np.uint64(63) - shift)
    if width < 64:
        value &= np.uint64((1 << width) - 1)
    return value


@lru_cache(maxsize=32)
def _block_table(ell: int, n: int) -> tuple:
    """(T_0, T_1), T_j[t << ell | alpha] = output at alpha and beta = t << (j * c).

    c = ceil(ell / 2).  Output bit i is <alpha^(i+1), beta>, GF(2)-linear in
    beta: the XOR of cols[j][alpha], the output at beta = 2^j, over the set
    bits j of beta.  For odd ell T_1 also spans one zero column, as padding.
    """
    rows = _alpha_power_rows(ell, n)
    c = (ell + 1) // 2
    cols = np.zeros((2 * c, 1 << ell), dtype=np.int64)
    for i in range(n):
        cols[:ell] |= ((rows[:, i] >> np.arange(ell)[:, None]) & 1) << i
    tables = (_xor_span(cols[:c]).ravel(), _xor_span(cols[c:]).ravel())
    for table in tables:
        table.setflags(write=False)
    return tables


def _expand_fields(seeds: np.ndarray, ell: int, n: int, offsets) -> np.ndarray:
    """SmallBiasGen(ell, n) outputs of the blocks at each offset, (offsets, rows) int64.

    Up to ell = 10 a block is two gathers, T_0 at alpha and the low half of
    beta, T_1 at alpha and the high half; above that a table build costs
    more than a batch's power chain.
    """
    if ell <= 10:
        fields = _fields(seeds, offsets, 2 * ell).view(np.int64)
        low = ell + (ell + 1) // 2  # alpha and the low half of beta: T_0's index
        t0, t1 = _block_table(ell, n)
        return t0[fields & ((1 << low) - 1)] ^ t1[(fields >> low << ell) | (fields & ((1 << ell) - 1))]
    alpha = _fields(seeds, offsets, ell)
    beta = _fields(seeds, np.add(offsets, ell), ell)
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

    def _output_chunks(self, chunk_bits: int) -> Iterator[np.ndarray]:
        # Seed order: alpha in the low ell bits, beta above, so beta is the
        # outer loop.  A chunk holds 2^k consecutive betas (about 2^chunk_bits
        # seeds): the XOR of their rows of both block tables, read as [t, alpha].
        c = (self.ell + 1) // 2
        t0, t1 = (t.reshape(1 << c, -1) for t in _block_table(self.ell, self.n))
        k = min(self.ell, max(0, chunk_bits - self.ell))
        for beta in range(0, 1 << self.ell, 1 << k):
            lo, hi = beta & ((1 << c) - 1), beta >> c
            yield (t1[hi : hi + max(1, (1 << k) >> c), None]
                   ^ t0[None, lo : lo + min(1 << k, 1 << c)]).reshape(-1)

    def _expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        _one_word(self.n)
        return _expand_fields(seeds, self.ell, self.n, [0])[0]

    def _bias(self) -> Fraction:
        # Character S sums to 2^ell * #{alpha : sum_{i in S} alpha^(i+1) = 0}
        # over the seeds, so its bias is that root count over 2^ell.  Every
        # S has the root 0.  For alpha of degree d, the smallest subfield
        # holding it, alpha^1..alpha^d are a basis of the span of all its
        # powers, so the S it is a root of are any bits above d together with
        # the d low bits that cancel them.  The polynomial has coefficients
        # in GF(2), so alpha^2 is a root whenever alpha is: the d conjugates
        # of alpha share its S, and one of them stands for all d.  The S run
        # in slices of 2^w: a slice takes 2^(w - d) consecutive high parts of
        # each degree, a span table over their low w - d bits XOR one base
        # from the slice index, counted by one bincount (d < w, as d < n and
        # d divides an ell of at most 13 under the seed cap).
        alphas, degree = _frobenius_orbits(self.ell)
        powers = np.stack(list(_gf_powers(alphas, self.ell, self.n)), axis=1).view(np.int64)
        w, spans, best = min(16, self.n), [], 0
        for d in np.unique(degree).tolist():
            if d < self.n:
                coords = _power_coords(powers[degree == d], d)
                offsets = (np.arange(1 << (w - d), dtype=np.int64) << d)[:, None]
                spans.append((d, _xor_span(coords[:, : w - d].T) | offsets, coords[:, w - d :]))
        for s in range(1 << (self.n - w)):
            high = ((s >> np.arange(self.n - w)) & 1).astype(bool)
            counts = np.zeros(1 << w, dtype=np.int64)
            for d, low, rest in spans:
                part = np.bincount((low ^ np.bitwise_xor.reduce(rest[:, high], axis=1)).ravel(),
                                   minlength=1 << w)
                part *= d
                counts += part
            best = max(best, int(counts[1 if s == 0 else 0 :].max()))  # nonzero S only
        return Fraction(best + 1, 1 << self.ell)


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

    def _output_chunks(self, chunk_bits: int) -> Iterator[np.ndarray]:
        total = 1 << self.n
        step = 1 << min(chunk_bits, self.n)
        for lo in range(0, total, step):
            yield np.arange(lo, min(lo + step, total), dtype=np.int64)

    def _expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        _one_word(self.n)
        return _fields(seeds, [0], self.n)[0].view(np.int64)

    def _bias(self) -> Fraction:
        return _transform_bias(self)


def _check_exhaustive(gen) -> None:
    """The caps every full seed sweep and 2^n output table stays under."""
    if gen.seed_bits > EXHAUSTIVE_SEED_CAP:
        raise CapExceeded(
            f"{gen.seed_bits} seed bits exceed exhaustive cap {EXHAUSTIVE_SEED_CAP}"
        )
    if gen.n > WHT_CAP:
        raise CapExceeded(f"output distribution for n={gen.n} exceeds cap {WHT_CAP}")


@lru_cache(maxsize=6)
def _distribution_cached(gen) -> np.ndarray:
    """Read-only counts of each n-bit output over the full seed space."""
    _check_exhaustive(gen)
    # chunks of at least 2^n outputs, so each 2^n-bin bincount pays for itself
    counts = np.zeros(1 << gen.n, dtype=np.int64)
    for chunk in gen._output_chunks(chunk_bits=max(20, gen.n)):
        counts += np.bincount(chunk, minlength=1 << gen.n)
    counts.setflags(write=False)
    return counts


def output_distribution(gen) -> np.ndarray:
    """Counts of each n-bit output over the full seed space."""
    return _distribution_cached(gen).copy()


def _accepted_seeds(gen, tt: np.ndarray) -> int:
    """Seeds whose output the truth table accepts, counted 2^16 outputs at a time."""
    _check_exhaustive(gen)
    return sum(int(np.count_nonzero(tt[chunk])) for chunk in gen._output_chunks(chunk_bits=16))


def _transform_bias(gen) -> Fraction:
    """Bias from the exact transform of the output distribution."""
    # _wht_integers copies the read-only counts; max |.| without a full-size np.abs temporary
    rest = _wht_integers(_distribution_cached(gen))[1:]
    return Fraction(max(int(rest.max()), -int(rest.min())), 1 << gen.seed_bits)


def measure_bias(gen) -> Fraction:
    """Exact max over nonzero characters of |E_seed[(-1)^(s.output)]|.

    A small-bias generator counts roots: character S's signed sum over the
    seeds is 2^ell times the number of alphas at which sum_{i in S}
    alpha^(i+1) vanishes, and for each alpha those S form a kernel of a
    GF(2)-linear map.  Slices of 2^16 characters keep only a running max,
    so this takes a few MiB up to n = 24.  Other generators sweep every seed
    into the output distribution and transform it.  Both stay in integers
    and under the same caps: 2^26 seeds (``EXHAUSTIVE_SEED_CAP``) and
    n <= ``WHT_CAP``.  The bias of the first k output bits of a
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

    def _output_chunks(self, chunk_bits: int) -> Iterator[np.ndarray]:
        total = 1 << self.seed_bits
        step = 1 << min(chunk_bits, self.seed_bits)
        sub = min(step, 1 << 15)  # cache-sized (blocks, seeds) arrays
        for lo in range(0, total, step):
            chunk = np.empty(step, dtype=np.int64)
            for s in range(0, step, sub):
                seeds = np.arange(lo + s, lo + s + sub, dtype="<u8").view(np.uint8)
                chunk[s : s + sub] = self._expand_seeds(seeds.reshape(sub, 8))
            yield chunk

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
        final = _expand_fields(seeds, self.final_ell, n, [final_offset])[0]
        return out | (final & ~taken[-1])

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
    """Wilson 95% score interval for a binomial proportion."""
    if trials <= 0:
        raise CircuitError("trials must be positive")
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

    Exhaustive mode enumerates every seed (cap EXHAUSTIVE_SEED_CAP seed
    bits; small-bias sweeps use the linearity of the output in beta) and
    returns an exact rational error.  MC mode samples seeds in blocks with
    counter-based per-block RNG streams and attaches a Wilson 95% interval,
    so the result depends only on (master_seed, trials), not on scheduling.
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
    L(F) = sum_{k>=1} L^k is the damped mass at p = 1, so it comes from the
    O(size) fold, with no level profile.
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
    uniform = BiasVector.uniform(c.n)
    delta = acceptance_probability(fplus, uniform) - acceptance_probability(
        fminus, uniform
    )
    eps = measure_bias(gen)
    masses = [damped_mass_recursive(f, 1, exact=True) for f in (fplus, fminus)]
    gen_exp = Fraction(_accepted_seeds(gen, tt), 1 << gen.seed_bits)
    exact = acceptance_probability(c, uniform)
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
