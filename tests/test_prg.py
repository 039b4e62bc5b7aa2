"""Expanders: field arithmetic, bias measurement, restriction schedule, fooling."""

import dataclasses
import hashlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_corpus
from roac0.cli import load_circuit
from roac0 import (
    BiasVector,
    CircuitError,
    acceptance_probability,
    evaluate,
    gen_random_read_once,
    gen_tribes,
    parse,
    restrict,
    to_nand_form,
)
from roac0.circuit import RestrictionMask
from roac0.fourier import WHT_CAP, CapExceeded, level_profile_recursive, total_mass, truth_table
from roac0.prg import (
    EXHAUSTIVE_SEED_CAP,
    IRREDUCIBLE_POLY,
    RestrictionPRG,
    SmallBiasGen,
    UniformGen,
    check_sandwich_fooling,
    default_rounds,
    fooling_error,
    gf_mul,
    measure_bias,
    output_distribution,
    seed_length_account,
    wilson_interval,
)
from roac0.shrinkage import build_sandwich
from roac0.prg import (
    _accepted_seeds,
    _alpha_power_rows,
    _block_table,
    _distribution_cached,
    _expand_fields,
    _field_dtype,
    _frobenius_orbits,
    _gf_mul_many,
    _gf_shifts,
    _seed_bytes,
    _transform_bias,
)


# -- field arithmetic ---------------------------------------------------------


def _poly_mod(a: int, f: int) -> int:
    """a mod f for GF(2) polynomials as ints, bit i = coefficient of x^i."""
    deg = f.bit_length() - 1
    while a.bit_length() - 1 >= deg:
        a ^= f << (a.bit_length() - 1 - deg)
    return a


def _x_power_of_two(f: int, k: int) -> int:
    """x^(2^k) mod f, by k squarings of x."""
    y = 0b10
    for _ in range(k):
        square, a, b = 0, y, y
        while b:
            if b & 1:
                square ^= a
            a, b = a << 1, b >> 1
        y = _poly_mod(square, f)
    return y


def _is_irreducible(f: int) -> bool:
    """Rabin's test: f of degree n is irreducible iff x^(2^n) = x mod f and
    gcd(f, x^(2^(n/q)) - x) = 1 for every prime q dividing n."""
    n = f.bit_length() - 1
    if _x_power_of_two(f, n) != 0b10:
        return False
    for q in (q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))):
        a, b = f, _x_power_of_two(f, n // q) ^ 0b10
        while b:
            a, b = b, _poly_mod(a, b)
        if a != 1:
            return False
    return True


def test_field_table_holds_the_least_irreducible_polynomial_of_each_degree():
    # Rabin's test first finds the known number of irreducibles of each degree 2..8
    assert [sum(map(_is_irreducible, range(1 << ell, 2 << ell))) for ell in range(2, 9)] == \
        [1, 2, 3, 6, 9, 18, 30]
    assert sorted(IRREDUCIBLE_POLY) == list(range(2, 65))
    for ell, poly in IRREDUCIBLE_POLY.items():
        assert poly.bit_length() - 1 == ell
        assert _is_irreducible(poly)
        assert not any(map(_is_irreducible, range(1 << ell, poly)))


def test_field_multiplication_known_inverse_pair():
    assert gf_mul(0x53, 0xCA, 8) == 1


def test_field_identity_and_zero():
    for a in (1, 7, 200):
        assert gf_mul(a, 1, 8) == a
        assert gf_mul(a, 0, 8) == 0


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=60, deadline=None)
def test_field_ring_axioms(a, b, c):
    assert gf_mul(a, b, 8) == gf_mul(b, a, 8)
    assert gf_mul(a, gf_mul(b, c, 8), 8) == gf_mul(gf_mul(a, b, 8), c, 8)
    assert gf_mul(a, b ^ c, 8) == gf_mul(a, b, 8) ^ gf_mul(a, c, 8)


def test_field_no_zero_divisors_small():
    for a in range(1, 16):
        for b in range(1, 16):
            assert gf_mul(a, b, 4) != 0


@pytest.mark.parametrize("ell", [2, 3, 8, 9, 12, 13, 16, 17, 31, 32, 33, 63, 64])
def test_batched_field_multiplication_matches_scalar(ell):
    # in the narrowest dtype (8, 9, 16, 17, 32, 33 sit on its boundaries) and in uint64
    bits = np.iinfo(_field_dtype(ell)).bits
    assert ell <= bits and (bits == 8 or 2 * ell > bits)
    rng = random.Random(ell)
    a = [rng.getrandbits(ell) for _ in range(300)] + [(1 << ell) - 1, 1, 0]
    b = [rng.getrandbits(ell) for _ in range(300)] + [(1 << ell) - 1, 0, 1]
    want = [gf_mul(x, y, ell) for x, y in zip(a, b)]
    for dtype in (_field_dtype(ell), np.uint64):
        shifts = _gf_shifts(np.array(a, dtype=dtype), ell)
        got = _gf_mul_many(shifts, np.array(b, dtype=dtype))
        assert {x.dtype for x in shifts} == {got.dtype} == {np.dtype(dtype)}
        assert got.tolist() == want


# -- small-bias expansion -----------------------------------------------------


def test_zero_beta_gives_zero_output():
    gen = SmallBiasGen(5, 10)
    for alpha in (0, 3, 31):
        assert gen.expand(alpha) == 0  # beta bits are the high half


def test_expansion_deterministic():
    gen = SmallBiasGen(6, 12)
    assert gen.expand(1234) == gen.expand(1234)


@pytest.mark.parametrize("chunk_bits", [3, 6, 11])  # below ell, between, above 2*ell
def test_chunked_outputs_match_scalar(chunk_bits):
    # the weighted outputs are the multiset of every seed's output, whatever
    # chunk size is asked for
    gen = SmallBiasGen(5, 9)
    seen = Counter()
    for chunk, weight in gen._output_chunks(chunk_bits=chunk_bits):
        for out in chunk.tolist():
            seen[out] += weight
    assert seen == Counter(gen.expand(s) for s in range(1 << gen.seed_bits))


def _every_seed_counts(gen) -> np.ndarray:
    """Counts of each output over every seed, each expanded by ``_expand_seeds``."""
    counts = np.zeros(1 << gen.n, dtype=np.int64)
    step = 1 << min(gen.seed_bits, 18)
    for lo in range(0, 1 << gen.seed_bits, step):
        seeds = np.arange(lo, lo + step, dtype="<u8").view(np.uint8).reshape(step, 8)
        counts += np.bincount(gen._expand_seeds(seeds), minlength=1 << gen.n)
    return counts


@pytest.mark.parametrize("ell", range(2, 14))
def test_frobenius_orbits_partition_the_field(ell):
    alphas, sizes = _frobenius_orbits(ell)
    pairs = list(zip(sizes.tolist(), alphas.tolist()))
    assert pairs == sorted(pairs)  # by size, then by alpha
    seen = set()
    for alpha, size in zip(alphas.tolist(), sizes.tolist()):
        orbit, x = [alpha], gf_mul(alpha, alpha, ell)
        while x != alpha:
            orbit.append(x)
            x = gf_mul(x, x, ell)
        assert min(orbit) == alpha and len(orbit) == size and ell % size == 0
        seen.update(orbit)
    assert len(seen) == sum(sizes.tolist()) == 1 << ell  # disjoint, and they cover the field


def _outputs_over_every_beta(gen, alpha: int) -> np.ndarray:
    seeds = alpha | (np.arange(1 << gen.ell, dtype="<u8") << np.uint64(gen.ell))
    return gen._expand_seeds(seeds.view(np.uint8).reshape(-1, 8))


@pytest.mark.parametrize("ell", range(2, 14))
def test_alpha_and_its_square_give_the_same_outputs(ell):
    gen = SmallBiasGen(ell, min(2 * ell, 24))
    if ell <= 10:
        alphas = range(1 << ell)
    else:
        alphas = random.Random(ell).sample(range(1 << ell), 8)
    for alpha in alphas:
        square = gf_mul(alpha, alpha, ell)
        assert np.array_equal(np.sort(_outputs_over_every_beta(gen, alpha)),
                              np.sort(_outputs_over_every_beta(gen, square)))


@pytest.mark.parametrize("ell", range(2, 13))
def test_orbit_sweep_matches_every_seed(ell):
    # n = 7 at ell = 2 runs past 2^ell, where the powers of alpha cycle
    gen = SmallBiasGen(ell, min(ell + 5, 16))
    want = _every_seed_counts(gen)
    tt = truth_table(load_circuit(f"random:n={gen.n},d=3,seed={ell}"))
    try:
        assert np.array_equal(_distribution_cached(gen), want)
        assert _accepted_seeds(gen, tt) == int(want @ tt.astype(np.int64))
    finally:
        _distribution_cached.cache_clear()


def _scalar_seeds(rng, bits: int, size: int) -> list:
    """Monte-Carlo seeds as Python ints, drawn the way fooling_error draws them."""
    if bits <= 63:
        return [int(s) for s in rng.integers(0, 1 << bits, size=size, dtype=np.uint64)]
    rows = rng.integers(0, 256, size=(size, (bits + 7) // 8), dtype=np.uint16)
    return [int.from_bytes(bytes(row.astype(np.uint8)), "big") & ((1 << bits) - 1)
            for row in rows]


def _assert_batched_matches_scalar(gen, size=200, seed=5):
    draws = _seed_bytes(np.random.default_rng(seed), gen.seed_bits, size)
    want = [gen.expand(s) for s in _scalar_seeds(np.random.default_rng(seed), gen.seed_bits, size)]
    assert gen._expand_seeds(draws).tolist() == want


@pytest.mark.parametrize("ell", [2, 3, 12, 13, 31, 32, 63, 64])
def test_batched_smallbias_expansion_matches_scalar(ell):
    # 2*ell <= 62 reads seeds from uint64 draws, 2*ell >= 64 from byte draws
    _assert_batched_matches_scalar(SmallBiasGen(ell, 20))


@pytest.mark.parametrize("gen", [
    RestrictionPRG(6, a=0, rounds=2, ell_asn=4, ell_final=3),
    RestrictionPRG(10, a=2, rounds=3, ell_sel=5, ell_asn=7, ell_final=9),
    RestrictionPRG(12, a=1, rounds=2, ell_sel=31, ell_asn=64, ell_final=2),
    RestrictionPRG.standard(16, Fraction(1, 16)),
    RestrictionPRG(9, a=2, rounds=40, ell_sel=3, ell_asn=5),  # the prefix OR over 40 rounds
    UniformGen(12),
], ids=lambda g: f"{type(g).__name__}-{g.seed_bits}bits")
def test_batched_layout_expansion_matches_scalar(gen):
    _assert_batched_matches_scalar(gen)


def _word_generators(n: int) -> list:
    return [SmallBiasGen(12, n), SmallBiasGen(7, n), UniformGen(n),
            RestrictionPRG(n, a=1, rounds=2, ell_sel=7, ell_asn=12, ell_final=5)]


@pytest.mark.parametrize("n", [63, 64])
def test_batched_expansion_keeps_every_output_bit_up_to_64(n):
    for gen in _word_generators(n):
        draws = _seed_bytes(np.random.default_rng(n), gen.seed_bits, 200)
        want = [gen.expand(s) for s in _scalar_seeds(np.random.default_rng(n), gen.seed_bits, 200)]
        assert gen._expand_seeds(draws).view(np.uint64).tolist() == want
        assert any(w >> (n - 1) for w in want)  # the top output bit is reached


@pytest.mark.parametrize("n", [65, 70])
def test_batched_expansion_refuses_outputs_past_one_word(n):
    for gen in _word_generators(n):
        draws = _seed_bytes(np.random.default_rng(n), gen.seed_bits, 4)
        with pytest.raises(CapExceeded, match="64-bit word"):
            gen._expand_seeds(draws)


# two gathers up to ell = 10, the power chain above: uint16 up to 16, uint32 at 17
@pytest.mark.parametrize("ell", [*range(2, 13), 16, 17])
def test_expand_fields_matches_scalar_expand(ell):
    rng = np.random.default_rng(ell)
    seeds = rng.integers(0, 256, size=(30, 11), dtype=np.uint8)
    offsets = [0, 3, 13, 45]  # 45 + 2 * 17 <= 88 bits per row
    mask = (1 << (2 * ell)) - 1
    for n in (1, 7, 16, 63, 64):
        got = _expand_fields(seeds, ell, n, offsets).view(np.uint64).T
        gen = SmallBiasGen(ell, n)
        for row, value in zip(got, (int.from_bytes(bytes(r), "little") for r in seeds)):
            assert row.tolist() == [gen.expand((value >> off) & mask) for off in offsets]


@pytest.mark.parametrize("gen", [
    RestrictionPRG(6, a=1, rounds=1, ell_sel=3, ell_asn=2, ell_final=5),
    RestrictionPRG(4, a=0, rounds=1, ell_asn=2, ell_final=11),  # a block past ell = 10
    pytest.param(RestrictionPRG(5, a=2, rounds=1, ell_sel=2, ell_asn=3, ell_final=3),
                 id="20bits-a2"),
], ids=lambda g: f"{g.seed_bits}bits")
def test_restriction_chunks_match_scalar_with_odd_ell(gen):
    chunk, weight = next(gen._output_chunks(chunk_bits=20))
    assert weight == 1
    picks = np.random.default_rng(3).integers(0, len(chunk), 2000)
    assert [int(chunk[s]) for s in picks] == [gen.expand(int(s)) for s in picks]


def test_restriction_chunks_agree_across_sub_steps():
    # a chunk is filled in 2^14-seed steps
    gen = RestrictionPRG(21, a=1, rounds=1, ell_sel=2, ell_asn=4, ell_final=5)
    wide = np.concatenate([chunk for chunk, _ in gen._output_chunks(chunk_bits=21)])
    narrow = np.concatenate([chunk for chunk, _ in gen._output_chunks(chunk_bits=20)])
    assert np.array_equal(wide, narrow)
    assert [int(v) for v in wide[[0, 12345, len(wide) - 1]]] == [
        gen.expand(s) for s in (0, 12345, len(wide) - 1)
    ]


def test_near_cap_layout_expands_as_its_first_assignment_block():
    # a = 0: round one fixes every position, so 131,000 rounds (1,048,008
    # seed bits) read only the first block; the scalar reference is
    # quadratic at this size
    cfg = RestrictionPRG(2, a=0, rounds=131000)
    seeds = _seed_bytes(np.random.default_rng(4), cfg.seed_bits, 2)
    want = SmallBiasGen(cfg.ell_asn, 2)._expand_seeds(seeds)
    assert cfg._expand_seeds(seeds).tolist() == want.tolist()


def test_measured_bias_within_envelope():
    gen = SmallBiasGen(4, 8)
    bias = measure_bias(gen)
    assert isinstance(bias, Fraction)
    assert bias <= gen.bias_bound == Fraction(1, 2)
    assert bias == Fraction(1, 2)  # exact measured value, pinned


def test_degree_too_small_for_length_is_useless():
    # alpha powers cycle before position n, so one character is fully biased
    assert measure_bias(SmallBiasGen(3, 8)) == 1


def test_single_bit_bias():
    assert measure_bias(SmallBiasGen(8, 1)) == Fraction(1, 256)


def test_uniform_generator_unbiased():
    assert measure_bias(UniformGen(6)) == 0


def test_exhaustive_entry_points_share_seed_cap():
    gen = SmallBiasGen(14, 4)  # 28 seed bits
    with pytest.raises(CapExceeded) as direct:
        output_distribution(gen)
    with pytest.raises(CapExceeded) as fooling:
        fooling_error(gen_tribes(2, 2), gen, mode="exhaustive")
    assert str(direct.value) == str(fooling.value)
    assert f"cap {EXHAUSTIVE_SEED_CAP}" in str(direct.value)
    with pytest.raises(CapExceeded, match=f"cap {WHT_CAP}"):
        output_distribution(UniformGen(WHT_CAP + 1))


def test_measure_bias_reads_the_cached_distribution_without_changing_it():
    gen = RestrictionPRG(7, a=1, rounds=1, ell_sel=2, ell_asn=3, ell_final=2)  # 14 seed bits
    counts = output_distribution(gen)
    counts[:] = 0  # the caller's copy is its own
    first = measure_bias(gen)
    assert measure_bias(gen) == first
    assert output_distribution(gen).sum() == 1 << gen.seed_bits
    # the root count keeps both caps and their messages
    with pytest.raises(CapExceeded) as seeds:
        measure_bias(SmallBiasGen(14, 4))
    with pytest.raises(CapExceeded) as width:
        measure_bias(SmallBiasGen(12, WHT_CAP + 1))
    assert str(seeds.value) == "28 seed bits exceed exhaustive cap 26"
    assert str(width.value) == "output distribution for n=25 exceeds cap 24"


@pytest.mark.parametrize("n", [None, 4])
def test_measure_bias_matches_seed_by_seed_reference(n):
    gen = SmallBiasGen(4, 6)
    bits = gen.n if n is None else n
    outs = [gen.expand(seed) & ((1 << bits) - 1) for seed in range(1 << gen.seed_bits)]
    top = max(abs(sum((-1) ** bin(t & out).count("1") for out in outs))
              for t in range(1, 1 << bits))
    assert measure_bias(dataclasses.replace(gen, n=bits)) == Fraction(top, 1 << gen.seed_bits)


@pytest.mark.parametrize("ell", range(2, 10))
def test_root_count_matches_distribution_transform(ell):
    # ell = 4, 6 and 8 have several proper subfields; ell = 2 runs past n = 2^ell
    for n in range(1, min(2 * ell + 2, 18) + 1):
        want = _transform_bias(SmallBiasGen(ell, n))
        assert measure_bias(SmallBiasGen(ell, n)) == want
        if n >= 1 << ell:
            assert want == 1  # alpha^(2^ell) = alpha, so bits 0 and 2^ell - 1 agree


def test_smallbias_bias_pinned():
    # sha256 of these rows as the sweep over all 2^n characters, which the
    # closed form replaced, computed them
    rows = "\n".join(f"{ell} {n} {measure_bias(SmallBiasGen(ell, n))}"
                     for ell in range(2, 14) for n in range(1, 25))
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "77db6ec2d3e8da958ae167aa03e56055aa13e6e16ede7ce169f731daae673e98")


# 2 * ell - 1 = 25 is past WHT_CAP at ell = 13, and n = 24 would hold two
# 128 MiB arrays, so it stops at 20
@pytest.mark.parametrize("ell, sizes", [
    (10, (1, 10, 14, 19)),
    (11, (1, 11, 14, 21)),
    (12, (1, 12, 14, 23)),
    (13, (1, 13, 14, 20)),
])
def test_closed_form_matches_distribution_transform_past_ell_9(ell, sizes):
    try:
        for n in sizes:
            assert measure_bias(SmallBiasGen(ell, n)) == _transform_bias(SmallBiasGen(ell, n))
    finally:
        _distribution_cached.cache_clear()


def test_transform_bias_streams_blocks_off_one_narrow_copy_of_the_counts():
    # the int64 spectrum of the 2^20 counts took 8 MiB; the counts are built
    # before tracing, so the peak is the working copy and the block buffers
    gen = SmallBiasGen(10, 20)
    _distribution_cached.cache_clear()
    try:
        counts = _distribution_cached(gen)
        width = next(w for w in (1, 2, 4, 8) if int(counts.max()) << 4 < 1 << (8 * w - 1))
        tracemalloc.start()
        try:
            bias = _transform_bias(gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        _distribution_cached.cache_clear()
    assert bias == measure_bias(gen) == Fraction(19, 1024)
    assert peak <= width * counts.size + (2 << 20)


@pytest.mark.parametrize("n", range(1, 13))
def test_uniform_generator_transform_is_zero(n):
    assert _transform_bias(UniformGen(n)) == 0 == measure_bias(UniformGen(n))


def _traced_peak(call):
    """(call(), tracemalloc peak of the call), every prg cache cold."""
    for cache in (_distribution_cached, _block_table, _alpha_power_rows):
        cache.cache_clear()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_root_count_memory_peak_stays_under_4_mib():
    # a 2^22-entry table of root counts alone took 16 MiB; slices of 2^16 do not add up
    bias, peak = _traced_peak(lambda: measure_bias(SmallBiasGen(11, 22)))
    assert bias == Fraction(13, 2048)
    assert peak <= 4 << 20
    assert _distribution_cached.cache_info().currsize == 0


def test_exhaustive_fooling_memory_peak_stays_under_4_mib():
    # the 2^20-entry int64 output distribution alone took 8 MiB; the 1 MiB
    # truth table is the one table of size 2^n left
    c = load_circuit("random:n=20,d=3,seed=5")
    r, peak = _traced_peak(lambda: fooling_error(c, SmallBiasGen(10, 20), mode="exhaustive"))
    assert r.generator_expectation == Fraction(345883, 524288)
    assert peak <= 4 << 20
    assert _distribution_cached.cache_info().currsize == 0


def test_orbit_sweep_at_ell_13_builds_no_table_over_alpha():
    # the two 2^20-entry block tables over (alpha, half of beta) took 26 MiB
    c = load_circuit("random:n=18,d=3,seed=5")
    r, peak = _traced_peak(lambda: fooling_error(c, SmallBiasGen(13, 18), mode="exhaustive"))
    assert r.generator_expectation == Fraction(33018545, 67108864)
    assert peak <= 4 << 20
    assert _block_table.cache_info().currsize == _alpha_power_rows.cache_info().currsize == 0


@pytest.mark.parametrize("gen", [
    SmallBiasGen(11, 22),  # 32 blocks of 2^6 low halves of beta into 2^22 counts
    RestrictionPRG(10, a=1, rounds=1, ell_sel=3, ell_asn=3, ell_final=3),
], ids=lambda g: f"{type(g).__name__}-{g.seed_bits}bits")
def test_distribution_matches_bincount_and_holds_one_chunk(gen):
    # bincounts over every seed against chunks added in place; a 2^n
    # bincount result or a second chunk beside the counts took 98 MiB at 2^22
    counts, peak = _traced_peak(lambda: _distribution_cached(gen))
    assert np.array_equal(counts, _every_seed_counts(gen))
    assert peak <= counts.nbytes + (16 << 20)


def test_restriction_distribution_holds_one_chunk_of_2_20_outputs():
    # 2^22 seeds in four 8 MiB chunks; the previous chunk held while the
    # next one was built read counts + 16 MiB
    gen = RestrictionPRG(16, a=1, rounds=1, ell_sel=4, ell_asn=4, ell_final=3)
    assert gen.seed_bits == 22
    counts, peak = _traced_peak(lambda: _distribution_cached(gen))
    try:
        assert counts.sum() == 1 << 22
        assert peak <= counts.nbytes + (9 << 20)
    finally:
        _distribution_cached.cache_clear()


@pytest.mark.parametrize("gen", [
    SmallBiasGen(5, 9),
    SmallBiasGen(9, 12),  # orbits of sizes 1, 3 and 9, 16 high halves of beta
    SmallBiasGen(11, 12),  # orbits of sizes 1 and 11, 32 high halves of beta
    UniformGen(12),
    UniformGen(18),
    RestrictionPRG(6, a=1, rounds=1, ell_sel=2, ell_asn=2, ell_final=2),
    RestrictionPRG(9, a=1, rounds=1, ell_sel=3, ell_asn=3, ell_final=3),
], ids=lambda g: f"{type(g).__name__}-{g.seed_bits}bits")
def test_streamed_seed_count_matches_distribution(gen):
    c = load_circuit(f"random:n={gen.n},d=3,seed=11")
    tt = truth_table(c)
    want = int(output_distribution(gen) @ tt.astype(np.int64))
    assert _accepted_seeds(gen, tt) == want
    assert fooling_error(c, gen).generator_expectation == Fraction(want, 1 << gen.seed_bits)


def test_distribution_sums_to_seed_count():
    gen = SmallBiasGen(4, 6)
    dist = output_distribution(gen)
    assert dist.sum() == 1 << gen.seed_bits
    assert len(dist) == 1 << 6


# -- restriction schedule -----------------------------------------------------


def test_default_round_count():
    assert default_rounds(16, Fraction(1, 16), 1) == 24
    assert default_rounds(2, Fraction(1, 2), 0) == 3


def test_layout_accounting():
    cfg = RestrictionPRG(6, a=0, rounds=1, ell_asn=4, ell_final=3)
    assert cfg.seed_bits == 14
    sel, asn, final = cfg._offsets
    assert sel.shape == (1, 0)  # no selection blocks
    assert asn.tolist() == [0]
    assert final == 8


def test_degenerate_schedule_copies_assignment_block():
    # a=0 fixes every position in round one, so the assignment block is
    # the whole output and the final block is never consulted
    cfg = RestrictionPRG(6, a=0, rounds=1, ell_asn=4, ell_final=3)
    inner = SmallBiasGen(4, 6)
    for seed in (0, 77, 1234, (1 << 14) - 1):
        assert cfg.expand(seed) == inner.expand(seed & 0xFF)


def test_expansion_covers_every_position_once():
    cfg = RestrictionPRG(12, a=1, rounds=4)
    rng = random.Random(3)
    for _ in range(40):
        seed = rng.getrandbits(cfg.seed_bits)
        trace = cfg.expand_trace(seed)
        assigned = 0
        for fixed in trace["fixed"]:
            assert assigned & fixed == 0  # first fixing wins
            assigned |= fixed
        assert assigned | trace["fallback_mask"] == (1 << 12) - 1
        assert assigned & trace["fallback_mask"] == 0
        assert cfg.expand(seed) == trace["output"]


def test_residual_positions_rare_at_default_rounds():
    # seeds must span the whole layout; a narrow seed zeroes the later
    # rounds' blocks and nothing past round one ever gets fixed
    for n, a, samples in ((16, 1, 400), (64, 3, 60)):
        cfg = RestrictionPRG.standard(n, Fraction(1, 16), a=a)
        rng = random.Random(7)
        leftovers = [
            bin(cfg.expand_trace(rng.getrandbits(cfg.seed_bits))["fallback_mask"]).count("1")
            for _ in range(samples)
        ]
        assert float(np.mean(leftovers)) < 1.0


def test_seed_account_shapes():
    acc = seed_length_account(64, 1 / 64, 2)
    assert acc["layout"]["seed_bits"] == 34584  # concrete layout, pinned
    assert acc["mass_envelope"]["width"] == 3
    assert acc["formula_bits"] > 0
    bigger = seed_length_account(128, 1 / 64, 2)
    assert bigger["layout"]["seed_bits"] >= acc["layout"]["seed_bits"]
    flat = seed_length_account(64, 1 / 64, 1)
    assert flat["layout"]["rounds"] <= acc["layout"]["rounds"]


# -- fooling measurement ------------------------------------------------------


def test_uniform_expander_has_zero_error():
    c = gen_tribes(2, 2)
    r = fooling_error(c, UniformGen(4), mode="exhaustive")
    assert r.abs_error == 0
    assert r.mode == "exhaustive"


def test_exhaustive_error_within_mass_bound():
    c = parse("(and x0 x1)")
    gen = SmallBiasGen(8, 2)
    r = fooling_error(c, gen, mode="exhaustive")
    mass = total_mass(level_profile_recursive(c))
    assert r.abs_error <= measure_bias(gen) * mass


def test_exhaustive_fooling_counts_seeds_like_scalar_expansion():
    c = gen_random_read_once(5, 2, seed=3)
    gen = SmallBiasGen(6, 5)
    before = output_distribution(gen)
    hits = sum(evaluate(c, gen.expand(seed)) for seed in range(1 << gen.seed_bits))
    r = fooling_error(c, gen, mode="exhaustive")
    assert r.generator_expectation == Fraction(hits, 1 << gen.seed_bits)
    assert check_sandwich_fooling(c, c, c, gen).passed
    assert np.array_equal(output_distribution(gen), before)  # cached counts untouched


def test_mc_interval_contains_exhaustive_value():
    c = gen_tribes(2, 2)
    gen = SmallBiasGen(6, 4)
    exact = fooling_error(c, gen, mode="exhaustive")
    mc = fooling_error(c, gen, mode="mc", trials=40_000, master_seed=5)
    lo, hi = mc.ci
    assert lo - 1e-9 <= float(exact.generator_expectation) <= hi + 1e-9


def test_mc_reproducible():
    c = gen_tribes(2, 2)
    gen = RestrictionPRG(4, a=1, rounds=2)
    a = fooling_error(c, gen, mode="mc", trials=5000, master_seed=42)
    b = fooling_error(c, gen, mode="mc", trials=5000, master_seed=42)
    assert a.generator_expectation == b.generator_expectation


@pytest.mark.parametrize("gen, hits", [
    (SmallBiasGen(12, 16), 1774),
    (SmallBiasGen(20, 16), 1700),
    (RestrictionPRG.standard(16, 0.0625, a=1), 1712),  # 784 seed bits
    (RestrictionPRG(16, a=2, rounds=3, ell_sel=5, ell_asn=7, ell_final=9), 1732),
], ids=lambda v: getattr(v, "seed_bits", v))
def test_mc_hit_counts_pinned(gen, hits):
    # pins the draw order and the expansion: any change to either moves these
    c = load_circuit("random:n=16,d=3,seed=7")
    r = fooling_error(c, gen, mode="mc", trials=3000, master_seed=9)
    assert round(r.generator_expectation * 3000) == hits


def test_length_mismatch_rejected():
    with pytest.raises(CircuitError):
        fooling_error(gen_tribes(2, 2), UniformGen(5))


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0 and hi > 0
    lo2, hi2 = wilson_interval(50, 100)
    assert lo2 < 0.5 < hi2


@pytest.mark.parametrize("successes", [-1, 4, 5])
def test_wilson_interval_rejects_successes_outside_trials(successes):
    with pytest.raises(CircuitError, match="outside 0..3"):
        wilson_interval(successes, 3)
    assert wilson_interval(3, 3)[1] == 1.0


# -- sandwich transfer bound ----------------------------------------------------


def test_self_sandwich_bound_on_corpus():
    gens = {}
    for c in random_corpus(12, 10, 3, seed=311):
        gen = gens.setdefault(c.n, SmallBiasGen(8, c.n))
        rep = check_sandwich_fooling(c, c, c, gen)
        assert rep.passed
        assert rep.params["delta"] == 0


def test_sandwich_violation_reported_with_witness():
    c = parse("(and x0 x1)")
    above = parse("(or x0 x1)")
    with pytest.raises(CircuitError, match="input"):
        check_sandwich_fooling(c, c, above, SmallBiasGen(8, 2))


def test_uniform_generator_satisfies_transfer_bound():
    c = gen_tribes(2, 2)
    rep = check_sandwich_fooling(c, c, c, UniformGen(4))
    assert rep.passed and rep.lhs == 0


def test_sandwich_fooling_reports_pinned():
    # sha256 of every report's fields on the inputs of the tests above and of
    # acceptance criterion 8 (halves of build_sandwich, 20 with delta != 0),
    # as computed when each half's E[f] came from its own acceptance fold
    cases = [(c, c, c, SmallBiasGen(8, c.n)) for c in random_corpus(12, 10, 3, seed=311)]
    c = gen_random_read_once(5, 2, seed=3)
    cases.append((c, c, c, SmallBiasGen(6, 5)))
    c = gen_tribes(2, 2)
    cases.append((c, c, c, UniformGen(4)))
    for c in random_corpus(50, 12, 3, seed=808):
        nand = to_nand_form(c)
        pair = build_sandwich(nand, Fraction(1, 16))
        cases.append((nand, pair.upper, pair.lower, SmallBiasGen(8, c.n)))
    rows = []
    for c, upper, lower, gen in cases:
        rep = check_sandwich_fooling(c, upper, lower, gen)
        rows.append(f"{rep.lhs!r} {rep.rhs!r} {rep.slack!r} {rep.passed} "
                    f"{sorted(rep.params.items())}")
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
        "d98b81c59a297a22a44dd503ee1384faef7793c983761c17f18f7023692c51c8")


def test_restriction_rounds_preserve_acceptance_on_average():
    # one pseudorandom round (t from selection bits, x from the assignment
    # block) should track the truly random restriction's average closely;
    # needs block degree with 2^ell >= n, or the wrapped positions correlate
    rng = np.random.default_rng(19)
    trials = 1200
    for c in random_corpus(12, 10, 3, seed=313):
        cfg = RestrictionPRG(c.n, a=1, rounds=1, ell_sel=8, ell_asn=8)
        uni = BiasVector.uniform(c.n)
        base = float(acceptance_probability(c, uni))

        seeder = random.Random(19)
        sb_vals = np.empty(trials)
        for i in range(trials):
            trace = cfg.expand_trace(seeder.getrandbits(cfg.seed_bits))
            fixed = trace["fixed"][0]
            m = RestrictionMask(~fixed & ((1 << c.n) - 1), trace["values"][0], c.n)
            sb_vals[i] = acceptance_probability(
              restrict(c, m), BiasVector.constant(c.n, 0.5)
            )

        tr_vals = np.empty(trials)
        for i in range(trials):
            t = int(rng.integers(0, 1 << c.n))
            x = int(rng.integers(0, 1 << c.n))
            tr_vals[i] = acceptance_probability(
                restrict(c, RestrictionMask(t, x, c.n)),
                BiasVector.constant(c.n, 0.5),
            )

        se = sb_vals.std() / trials**0.5 + tr_vals.std() / trials**0.5
        lhs = abs(sb_vals.mean() - base)
        rhs = abs(tr_vals.mean() - base) + 3 * se
        assert lhs <= rhs + 1e-12
