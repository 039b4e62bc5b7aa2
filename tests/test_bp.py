"""Ordered branching programs: conversion, closure operations, witnesses."""

import random

import numpy as np
import pytest

from conftest import random_corpus
from roac0 import (
    And,
    Circuit,
    Const,
    Leaf,
    Nand,
    Not,
    Or,
    RestrictionMask,
    evaluate,
    gen_random_read_once,
    gen_tribes,
    parse,
    restrict,
    to_nand_form,
)
from roac0.circuit import evaluate_columns
from roac0.bp import (
    BPError,
    OrderedBP,
    bp_accepts,
    bp_concat,
    bp_evaluate,
    bp_from_circuit,
    bp_from_json_dict,
    bp_matrix_levelmass_upper,
    bp_permute,
    bp_restrict,
    bp_run,
    bp_slice_witness,
    bp_state_functions,
    bp_subprogram,
    bp_to_json_dict,
)
from roac0.fourier import level_profile_recursive, truth_table, variable_pattern


def and_k(k):
    return parse("(and " + " ".join(f"x{i}" for i in range(k)) + ")")


def accept_table(b: OrderedBP, n: int) -> np.ndarray:
    """Truth table of the program over the n-variable input space."""
    return np.array([bp_accepts(b, x) for x in range(1 << n)], dtype=np.uint8)


# -- evaluation basics --------------------------------------------------------


def test_identity_layers_keep_state():
    ident = ((1, 2), (1, 2))
    b = OrderedBP(2, (0, 1), (ident, ident))
    for x in range(4):
        for start in (1, 2):
            assert bp_evaluate(b, x, start=start) == start


def test_width_two_and_program():
    b = bp_from_circuit(and_k(2))
    assert b.width == 2
    for x in range(4):
        assert bp_accepts(b, x) == (1 if x == 3 else 0)


def test_final_state_always_in_range():
    b = bp_from_circuit(gen_random_read_once(8, 3, seed=5))
    for x in range(256):
        assert 1 <= bp_evaluate(b, x) <= b.width


def test_start_state_validated():
    b = bp_from_circuit(and_k(2))
    with pytest.raises(BPError):
        bp_evaluate(b, 0, start=9)


def test_input_must_cover_the_read_variables():
    b = bp_from_circuit(parse("(and x0 x3)"))
    assert bp_accepts(b, "1001") == bp_accepts(b, [1, 0, 0, 1]) == bp_accepts(b, 9) == 1
    with pytest.raises(BPError, match="length 3 does not cover 3"):
        bp_evaluate(b, "100")


def _run_programs() -> dict:
    conv = bp_from_circuit(gen_random_read_once(8, 3, seed=5))
    rotate = list(range(2, conv.width + 1)) + [1]
    mask = RestrictionMask.from_strings("10110010", "01101001")
    return {
        "converted": conv,
        "restricted": bp_restrict(conv, mask),
        "permuted_pre": bp_permute(conv, rotate, "pre"),
        "permuted_post": bp_permute(conv, rotate[::-1], "post"),
        "concatenated": bp_concat(
            bp_from_circuit(Circuit(parse("(and x0 (not x2))").root, 8)),
            bp_from_circuit(Circuit(parse("(or x1 (not x5) x7)").root, 8)),
        ),
        "const_one": bp_from_circuit(Circuit(Const(1), 8)),  # width 1, length 0
        "const_zero": bp_from_circuit(Circuit(Const(0), 8)),  # width 2, one layer
    }


RUN_PROGRAMS = _run_programs()


@pytest.mark.parametrize("name", RUN_PROGRAMS)
def test_batched_run_matches_scalar_for_every_start(name):
    b = RUN_PROGRAMS[name]
    column = lambda v: variable_pattern(v, 8)  # noqa: E731
    every = bp_run(b, column, 256, start=np.arange(1, b.width + 1)[:, None])
    assert every.shape == (b.width, 256)
    for u in range(1, b.width + 1):
        want = [bp_evaluate(b, x, start=u) for x in range(256)]
        assert bp_run(b, column, 256, start=u).tolist() == want
        assert every[u - 1].tolist() == want
    for bad in (0, b.width + 1):
        with pytest.raises(BPError):
            bp_run(b, column, 256, start=bad)


# -- conversion ---------------------------------------------------------------


def test_single_leaf_program():
    b = bp_from_circuit(parse("x0"))
    assert b.width == 2
    assert b.length == 1
    assert bp_accepts(b, 1) == 1
    assert bp_accepts(b, 0) == 0


def test_and_three_accepts_only_all_ones():
    b = bp_from_circuit(and_k(3))
    assert b.width == 2
    for x in range(8):
        assert bp_accepts(b, x) == (1 if x == 7 else 0)


def test_tribes_program_equivalent():
    c = gen_tribes(2, 2)
    b = bp_from_circuit(c)
    assert b.width <= 3
    for x in range(16):
        assert bp_accepts(b, x) == evaluate(c, x)


def test_conversion_sound_on_corpus():
    for c in random_corpus(25, 12, 4, seed=211):
        b = bp_from_circuit(c)
        assert b.width <= c.depth + 1
        assert (accept_table(b, c.n) == truth_table(c)).all()


def test_conversion_rejects_shared_variable():
    from roac0 import And, Leaf

    shared = Circuit(And((Leaf(0), Leaf(0))), 1)
    with pytest.raises(Exception):
        bp_from_circuit(shared)


def test_const_circuit_conversion():
    for value in (0, 1):
        b = bp_from_circuit(Circuit(Const(value), 1))
        assert bp_accepts(b, 0) == value and bp_accepts(b, 1) == value


# -- closure operations -------------------------------------------------------


def test_concat_composes():
    b1 = bp_from_circuit(parse("x0"))
    b2 = bp_from_circuit(Circuit(parse("x1").root, 2))
    both = bp_concat(b1, b2)
    assert both.length == 2
    for x in range(4):
        want = bp_evaluate(b2, x, start=bp_evaluate(b1, x))
        assert bp_evaluate(both, x) == want


def test_concat_associative():
    parts = [
        bp_from_circuit(Circuit(parse(f"x{i}").root, 3)) for i in range(3)
    ]
    left = bp_concat(bp_concat(parts[0], parts[1]), parts[2])
    right = bp_concat(parts[0], bp_concat(parts[1], parts[2]))
    assert left == right


def test_concat_rejects_variable_overlap():
    b = bp_from_circuit(parse("x0"))
    with pytest.raises(BPError):
        bp_concat(b, b)


def test_subprogram_full_span_is_identity():
    b = bp_from_circuit(gen_random_read_once(6, 2, seed=9))
    sub = bp_subprogram(b, 1, b.length)
    assert sub.var_order == b.var_order and sub.layers == b.layers


def test_subprogram_bad_span():
    b = bp_from_circuit(and_k(3))
    with pytest.raises(BPError):
        bp_subprogram(b, 2, 99)


def test_restrict_all_bits_constant_map():
    c = gen_random_read_once(6, 2, seed=13)
    b = bp_from_circuit(c)
    for x in (0, 17, 63):
        m = RestrictionMask(0, x, 6)
        rb = bp_restrict(b, m)
        results = {bp_accepts(rb, y) for y in range(64)}
        assert results == {evaluate(c, x)}


def test_restrict_commutes_with_conversion():
    rng = random.Random(17)
    for c in random_corpus(10, 9, 3, seed=223):
        t = rng.randrange(1 << c.n)
        x = rng.randrange(1 << c.n)
        m = RestrictionMask(t, x, c.n)
        via_bp = bp_restrict(bp_from_circuit(c), m)
        via_circuit = restrict(c, m)
        assert (accept_table(via_bp, c.n) == truth_table(via_circuit)).all()


def test_permute_identity_noop():
    b = bp_from_circuit(and_k(2))
    ident = list(range(1, b.width + 1))
    assert bp_permute(b, ident, "pre") == b
    assert bp_permute(b, ident, "post") == b


def test_permute_pre_semantics():
    b = bp_from_circuit(gen_tribes(2, 2))
    pi = list(range(2, b.width + 1)) + [1]  # cyclic shift
    pb = bp_permute(b, pi, "pre")
    for x in range(16):
        for u in range(1, b.width + 1):
            assert bp_evaluate(pb, x, start=u) == bp_evaluate(b, x, start=pi[u - 1])


def test_permute_rejects_non_permutation():
    b = bp_from_circuit(and_k(2))
    with pytest.raises(BPError):
        bp_permute(b, [1, 1], "post")


def test_json_round_trip():
    b = bp_from_circuit(gen_tribes(2, 2))
    back = bp_from_json_dict(bp_to_json_dict(b))
    assert back.width == b.width
    assert back.var_order == b.var_order
    assert back.layers == b.layers


# -- slice witnesses ----------------------------------------------------------


def test_whole_span_witness_equals_circuit():
    for seed in (31, 32, 33):
        c = gen_random_read_once(8, 3, seed=seed)
        b = bp_from_circuit(c)
        w = bp_slice_witness(b, 1, b.length, 1, 1)
        assert (truth_table(Circuit(w.root, c.n)) == truth_table(c)).all()


def test_witness_needs_metadata():
    b = OrderedBP(2, (0,), ((((1, 2), (2, 1))),))
    with pytest.raises(BPError):
        bp_slice_witness(b, 1, 1, 1, 1)


def test_witnesses_match_slice_tables():
    rng = random.Random(41)
    for c in random_corpus(12, 10, 3, seed=227):
        b = bp_from_circuit(c)
        for _ in range(25):
            i = rng.randint(1, b.length)
            j = rng.randint(i, b.length)
            d1 = rng.randint(1, b.width)
            d2 = rng.randint(1, b.width)
            w = bp_slice_witness(b, i, j, d1, d2)
            assert w.is_read_once()
            assert w.depth <= c.depth
            sub = bp_subprogram(b, i, j)
            assert set(w.variables()) <= set(sub.var_order)
            tab = bp_state_functions(sub)[(d1, d2)]
            for e in range(1 << sub.length):
                mask = sum(((e >> t) & 1) << v for t, v in enumerate(sub.var_order))
                assert evaluate(w, mask) == tab[e]


def _random_gate_tree(rng, variables):
    """Read-once tree over ``variables`` with AND, OR and NAND gates in any
    nesting (an AND may sit under an AND), NOTs over gates and negated leaves."""
    if len(variables) == 1:
        return Leaf(variables[0], rng.random() < 0.3)
    k = rng.randint(2, min(3, len(variables)))
    cuts = sorted(rng.sample(range(1, len(variables)), k - 1))
    parts = [variables[a:b] for a, b in zip([0] + cuts, cuts + [len(variables)])]
    node = rng.choice((And, Or, Nand))(tuple(_random_gate_tree(rng, p) for p in parts))
    return Not(node) if rng.random() < 0.3 else node


def test_every_witness_matches_slice_tables_on_nand_not_and_nested_gates():
    # alternating AND/OR formulas never reach the NOT and NAND conversions
    # or a witness that ends inside an absorbing child block
    rng = random.Random(59)
    corpus = [to_nand_form(c) for c in random_corpus(12, 6, 3, seed=61)]
    corpus += [parse(text) for text in (
        "(not (and x0 (or x1 x2)))", "(and (not (or x0 x1)) (and x2 x3) x4)",
        "(and (and x0 x1 x2) (and x3 x4))", "(or (or x0 (not x1)) (or x2 x3))",
        "(nand (and x0 x1) (not (nand x2 x3)))")]
    for _ in range(20):
        n = rng.randint(2, 6)
        corpus.append(Circuit(_random_gate_tree(rng, rng.sample(range(n), n)), n))
    for c in corpus:
        b = bp_from_circuit(c)
        assert (accept_table(b, c.n) == truth_table(c)).all()
        for i in range(1, b.length + 1):
            for j in range(i, b.length + 1):
                sub = bp_subprogram(b, i, j)
                tables = bp_state_functions(sub)
                layer_of = {v: t for t, v in enumerate(sub.var_order)}
                column = lambda v: variable_pattern(layer_of[v], sub.length)  # noqa: E731
                for (d1, d2), tab in tables.items():
                    w = bp_slice_witness(b, i, j, d1, d2)
                    assert w.is_read_once() and w.depth <= c.depth
                    assert set(w.variables()) <= set(sub.var_order)
                    assert (evaluate_columns(w, column, 1 << sub.length) == tab).all()


def test_state_functions_partition():
    b = bp_from_circuit(gen_tribes(2, 2))
    funcs = bp_state_functions(b)
    for u in range(1, b.width + 1):
        rowsum = sum(funcs[(u, v)].astype(int) for v in range(1, b.width + 1))
        assert (rowsum == 1).all()


def test_state_functions_refuse_programs_past_the_cap():
    with pytest.raises(BPError, match="length 23 exceeds exhaustive cap"):
        bp_state_functions(bp_from_circuit(and_k(23)))


# -- matrix-style level bound ---------------------------------------------------


def test_levelmass_upper_width_one():
    b = OrderedBP(1, (0, 1), (((1,), (1,)), ((1,), (1,))))
    assert bp_matrix_levelmass_upper(b, 1) == 0
    assert bp_matrix_levelmass_upper(b, 2) == 0


def test_levelmass_upper_dominates_accept_function():
    for c in random_corpus(8, 8, 3, seed=229):
        b = bp_from_circuit(c)
        lp = level_profile_recursive(c)
        for k in (1, 2):
            bound = bp_matrix_levelmass_upper(b, k)
            # program reads variables in its own order; level masses are
            # permutation-invariant so the circuit profile is comparable
            assert bound >= lp.abs_mass[k]


def test_levelmass_upper_rejects_negative_level():
    b = bp_from_circuit(and_k(2))
    with pytest.raises(BPError):
        bp_matrix_levelmass_upper(b, -1)
