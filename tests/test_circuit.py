"""Circuit AST: parsing, evaluation, restriction, simplification, generators."""

import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deep_chain, random_corpus, reference_acceptance
from roac0 import (
    And,
    BiasVector,
    Circuit,
    CircuitError,
    Const,
    Leaf,
    Nand,
    Not,
    Or,
    ParseError,
    ReadOnceViolation,
    RestrictionMask,
    acceptance_probability,
    evaluate,
    gen_random_read_once,
    gen_recursive_tribes,
    gen_tribes,
    parse,
    push_nots_to_leaves,
    render,
    restrict,
    simplify,
    to_nand_form,
)
from roac0.circuit import evaluate_columns, strip_leaf_negations, trampoline
from roac0.bp import bp_from_circuit
from roac0.fourier import check_mainbound, level_profile_recursive, truth_table


# -- parsing ------------------------------------------------------------------


def test_parse_and_of_two_leaves():
    c = parse("(and x0 x1)")
    assert isinstance(c.root, And)
    assert c.n == 2
    assert c.size == 2


def test_parse_nested_structure():
    c = parse("(or (and x0 x1) (not x2))")
    assert c.n == 3
    assert c.depth == 2
    assert isinstance(c.root, Or)


def test_parse_rejects_duplicate_variable():
    with pytest.raises(ReadOnceViolation):
        parse("(and x0 x0)")
    # the construction walk records the verdict; every reader of it still raises
    c = Circuit(And((Leaf(0), Leaf(1), Leaf(0))), 2)
    assert not c.is_read_once() and c.size == 3 and c.depth == 1
    with pytest.raises(ReadOnceViolation, match=r"^variable x0 appears in more than one leaf$"):
        c.check_read_once()
    for reader in (level_profile_recursive, lambda c: check_mainbound(c, Fraction(1, 2)),
                   lambda c: acceptance_probability(c, BiasVector.uniform(2)), bp_from_circuit):
        with pytest.raises(ReadOnceViolation, match=r"\bx0\b"):
            reader(c)
    back = pickle.loads(pickle.dumps(c))
    assert back == c and (back.depth, back.size, back.is_read_once()) == (1, 3, False)
    # the first variable to repeat in leaf order is named
    with pytest.raises(ReadOnceViolation, match=r"\bx1\b"):
        Circuit(And((Leaf(1), Leaf(0), Leaf(1), Leaf(0))), 2).check_read_once()


def test_parse_error_carries_position():
    with pytest.raises(ParseError):
        parse("(and x0")
    with pytest.raises(ParseError):
        parse("(bogus x0)")
    with pytest.raises(ParseError):
        parse("")


def test_parse_constants_and_whitespace():
    assert evaluate(parse("(or 0  1)"), 0) == 1
    assert evaluate(parse(" ( and  x0   1 ) "), 1) == 1


def test_render_round_trip_on_corpus():
    for c in random_corpus(30, 10, 3, seed=11):
        assert parse(render(c)).root == c.root


# -- evaluation ---------------------------------------------------------------


def test_evaluate_and_gate():
    c = parse("(and x0 x1)")
    assert evaluate(c, "11") == 1
    assert evaluate(c, "10") == 0
    assert evaluate(c, [0, 1]) == 0
    assert evaluate(c, 3) == 1  # integer mask, little-endian


def test_evaluate_tribes_instance():
    c = gen_tribes(2, 2)
    assert evaluate(c, "0011") == 1
    assert evaluate(c, "1100") == 1
    assert evaluate(c, "0110") == 0


def test_evaluate_rejects_wrong_length():
    with pytest.raises(Exception):
        evaluate(parse("(and x0 x1)"), "101")


# -- restriction --------------------------------------------------------------


def test_restrict_fixes_masked_positions():
    c = parse("(and x0 x1)")
    m = RestrictionMask.from_bits([1, 0], [0, 1])
    r = restrict(c, m)
    # x1 replaced by the constant 1, x0 still free
    assert evaluate(r, "01") == 0
    assert evaluate(r, "11") == 1
    s = simplify(r)
    assert isinstance(s.root, Leaf)


def test_restrict_all_free_is_identity():
    c = gen_tribes(2, 2)
    m = RestrictionMask.from_bits([1] * 4, [0] * 4)
    assert restrict(c, m).root == c.root


def test_restrict_nothing_free_becomes_constant():
    c = gen_tribes(2, 2)
    for x in range(16):
        bits = [(x >> i) & 1 for i in range(4)]
        m = RestrictionMask.from_bits([0] * 4, bits)
        s = simplify(restrict(c, m))
        assert isinstance(s.root, Const)
        assert s.root.value == evaluate(c, x)


def test_simplify_collapses_iff_function_constant():
    # brute-force cross-check of the constant test on restricted circuits
    import random as _random

    rng = _random.Random(5)
    for c in random_corpus(15, 9, 3, seed=21):
        tt = truth_table(c)
        for _ in range(20):
            t = [rng.randint(0, 1) for _ in range(c.n)]
            x = [rng.randint(0, 1) for _ in range(c.n)]
            s = simplify(restrict(c, RestrictionMask.from_bits(t, x)))
            free = [i for i in range(c.n) if t[i]]
            base = sum(x[i] << i for i in range(c.n) if not t[i])
            values = {
                int(tt[base | sum(((a >> k) & 1) << free[k] for k in range(len(free)))])
                for a in range(1 << len(free))
            }
            assert isinstance(s.root, Const) == (len(values) == 1)


# -- simplification -----------------------------------------------------------


def test_simplify_drops_neutral_constants():
    assert simplify(parse("(and 1 x3)")).root == Leaf(3)


def test_simplify_absorbing_element():
    assert simplify(parse("(or 1 x0 x1)")).root == Const(1)


def test_simplify_recurses():
    assert simplify(parse("(and (or 0 x1) x2)")).root == And((Leaf(1), Leaf(2)))


@pytest.mark.parametrize("text, want", [
    ("(nand x0 0)", "1"),  # a 0 child gives 1
    ("(nand 1 1)", "0"),  # 1 children drop out, and no child left gives 0
    ("(nand x0 1)", "(not x0)"),  # a NAND of one leaf is that leaf negated
    ("(nand (nand x0 x1) 1)", "(nand (nand x0 x1))"),  # a NAND of one gate stays
])
def test_simplify_nand_rule(text, want):
    assert render(simplify(parse(text))) == want


def test_simplify_preserves_function():
    for c in random_corpus(20, 8, 3, seed=31):
        assert (truth_table(simplify(c)) == truth_table(c)).all()


# -- negation normal forms ----------------------------------------------------


def test_push_nots_de_morgan():
    c = push_nots_to_leaves(parse("(not (and x0 x1))"))
    assert c.root == Or((Leaf(0, True), Leaf(1, True)))


def test_push_nots_idempotent():
    c = push_nots_to_leaves(parse("(not (or (and x0 x1) x2))"))
    assert c.root == And((Or((Leaf(0, True), Leaf(1, True))), Leaf(2, True)))
    assert push_nots_to_leaves(c).root == c.root


def test_push_nots_preserves_function_and_depth():
    for c in random_corpus(20, 10, 3, seed=41):
        wrapped = Circuit(Not(c.root), c.n)
        normal = push_nots_to_leaves(wrapped)
        assert (truth_table(normal) == 1 - truth_table(c)).all()
        assert normal.depth <= wrapped.depth


def test_strip_leaf_negations_is_monotone_on_any_input():
    # NANDs and NOTs over gates are pushed down first, so every form of a
    # read-once function strips to the same monotone function
    for c in random_corpus(20, 10, 3, seed=43) + [deep_chain(12)]:
        want = strip_leaf_negations(push_nots_to_leaves(c))
        assert strip_leaf_negations(Circuit(Not(Not(c.root)), c.n)) == want
        mono = strip_leaf_negations(to_nand_form(c))
        assert mono.is_monotone() and (truth_table(mono) == truth_table(want)).all()


def test_to_nand_form_small_gates():
    for text in ("(and x0 x1)", "(or x0 x1)", "1", "(not x0)"):
        c = parse(text)
        nand = to_nand_form(c)
        assert (truth_table(nand) == truth_table(c)).all()
        assert nand.depth <= 2 * max(c.depth, 1)
        for node in _gates(nand.root):
            assert isinstance(node, (Nand, Leaf, Const))


def _gates(node):
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(getattr(cur, "children", ()) or ())


def test_to_nand_form_preserves_function_on_corpus():
    for c in random_corpus(20, 12, 3, seed=51):
        nand = to_nand_form(c)
        assert (truth_table(nand) == truth_table(c)).all()


def test_to_nand_form_structure_pinned():
    # NOTs above gates, a NAND under a NOT, constants: the rewrite's exact shape
    cases = {
        "(or x0 (not (and x1 x2)) (nand x3 (not x4)))":
            ("(nand (not x0) (nand (nand x1 x2)) (nand (nand x3 (not x4))))", 3),
        "(not (or (and x0 1) (nand (not (or x1 x2)) 0)))":
            ("(nand (nand (nand x0 1) (nand (nand (nand (nand (not x1) (not x2))) 0))))", 6),
    }
    for text, (want, depth) in cases.items():
        nand = to_nand_form(parse(text))
        assert render(nand) == want and nand.depth == depth


# -- deep nesting and pickling ---------------------------------------------


def test_trampoline_keeps_the_recursion_order():
    # each call records its path from the root; values come back in call order
    def plain(path, seen):
        seen.append(path)
        if len(path) == 4:
            return [path]
        first = plain(path + "a", seen)
        return first + sum([plain(path + k, seen) for k in "bc"], [])

    def walk(path, seen):
        seen.append(path)
        if len(path) == 4:
            return [path]
        first = yield walk(path + "a", seen)
        return first + sum((yield [walk(path + k, seen) for k in "bc"]), [])

    a, b = [], []
    assert trampoline(walk("", b)) == plain("", a)
    assert a == b and len(a) == 1 + 3 + 9 + 27 + 81

    def count(k):
        if k == 0:
            raise ValueError("bottom")
        return 1 + (yield count(k - 1))

    with pytest.raises(ValueError, match="bottom"):
        trampoline(count(100_000))


def test_structure_walkers_handle_deep_nesting():
    c = deep_chain(1200)
    text = render(c)
    assert render(parse(text)) == text
    assert pickle.loads(pickle.dumps(c)) == c
    assert repr(c.root) == f"<{type(c.root).__name__} {text}>"
    assert pickle.loads(pickle.dumps(c.root)) == c.root
    nand = to_nand_form(c)
    assert c.depth == 1200 and nand.depth <= 2 * 1200
    mono = strip_leaf_negations(push_nots_to_leaves(c))
    assert mono.is_monotone()
    rng = random.Random(7)
    t, fixed = rng.getrandbits(c.n), rng.getrandbits(c.n)
    restricted = restrict(c, RestrictionMask(t, fixed, c.n))
    xs = [rng.getrandbits(c.n) for _ in range(40)]
    columns = [[(x >> v) & 1 for x in xs] for v in range(c.n)]
    want = evaluate_columns(c, lambda v: np.array(columns[v], dtype=np.uint8), len(xs)).tolist()
    for x, value in zip(xs, want):
        assert evaluate(c, x) == evaluate(nand, x) == evaluate(simplify(c), x) == value
        assert evaluate(restricted, x) == evaluate(c, (x & t) | (fixed & ~t))
    assert gen_random_read_once(2000, 1200, seed=1).depth == 1200
    assert gen_recursive_tribes(1200, [2, 2] + [1] * 1198).size == 4


def test_deep_circuits_compare_hash_and_repr_without_recursion():
    c, same = deep_chain(1200), deep_chain(1200)
    assert c == same and hash(c) == hash(same) and c is not same
    assert repr(c) == f"Circuit({render(c)!r}, n=1201)"
    assert c != Circuit(c.root, c.n + 1)
    assert Circuit(And((c.root, Leaf(1201))), 1202) != Circuit(Or((c.root, Leaf(1201))), 1202)
    assert {c: 1}[same] == 1


def test_deep_nodes_compare_and_hash_without_recursion():
    c, same = deep_chain(1200), deep_chain(1200)
    assert c.root == same.root and hash(c.root) == hash(same.root) and c.root is not same.root
    assert {c.root: 1}[same.root] == 1
    assert And((c.root, Leaf(1201))) != Or((c.root, Leaf(1201)))
    assert Not(c.root) != c.root and Not(c.root) == Not(same.root)
    assert c.root != deep_chain(1199).root
    assert Leaf(0) == Leaf(0) and Leaf(0) != Leaf(0, negated=True) and Const(1) != Const(0)
    assert And((Leaf(0), Leaf(1))) == And((Leaf(0), Leaf(1))) != Nand((Leaf(0), Leaf(1)))
    assert And((Leaf(0),)) != Leaf(0) and Not(Leaf(0)) != Leaf(0, negated=True)


def test_structural_equality_keeps_node_identity():
    # a NOT over a leaf renders like a negated leaf but is a different tree
    assert Circuit(Not(Leaf(0)), 1) != Circuit(Leaf(0, negated=True), 1)
    assert Circuit(And((Leaf(0), Leaf(1))), 2) == parse("(and x0 x1)")
    assert Circuit(And((Leaf(0), Leaf(1))), 2) != Circuit(And((Leaf(0),)), 2)
    # same pre-order of node types and leaves, different arities
    nested = Circuit(And((And((Leaf(0), Leaf(1))), Leaf(2))), 3)
    assert nested != Circuit(And((And((Leaf(0),)), Leaf(1), Leaf(2))), 3)
    assert Circuit(Nand((Leaf(0), Leaf(1))), 2) != Circuit(And((Leaf(0), Leaf(1))), 2)
    assert Circuit(Const(1), 2) != Circuit(Const(0), 2)
    assert parse("(and x0 x1)") != "(and x0 x1)"


def test_evaluate_checks_assignment_length():
    c = parse("(and x0 x1)")
    assert evaluate(c, "11") == evaluate(c, [1, 1]) == evaluate(c, 3) == 1
    with pytest.raises(CircuitError, match="length 3 != n=2"):
        evaluate(c, "110")


def test_pickle_goes_through_text():
    # a NOT over a leaf comes back as a negated leaf, as parse stores it; n
    # survives, and so does a circuit that is not read-once
    c = Circuit(And((Not(Leaf(0)), Leaf(2))), 5)
    assert pickle.loads(pickle.dumps(c)) == Circuit(And((Leaf(0, negated=True), Leaf(2))), 5)
    twice = Circuit(Or((Leaf(1), Leaf(1))), 2)
    assert pickle.loads(pickle.dumps(twice)) == twice
    # a node on its own goes through its text too
    assert pickle.loads(pickle.dumps(Not(Leaf(0)))) == Leaf(0, negated=True)
    assert pickle.loads(pickle.dumps(twice.root)) == twice.root
    assert repr(c.root) == "<And (and (not x0) x2)>"


# -- exact acceptance ---------------------------------------------------------


def test_acceptance_and_two():
    c = parse("(and x0 x1)")
    assert acceptance_probability(c, BiasVector.uniform(2)) == Fraction(1, 4)


def test_acceptance_tribes_formula():
    for m, w in [(2, 2), (3, 2), (2, 4)]:
        c = gen_tribes(m, w)
        got = acceptance_probability(c, BiasVector.uniform(c.n))
        assert got == 1 - (1 - Fraction(1, 2**w)) ** m


def test_acceptance_degenerate_bias_evaluates():
    c = gen_tribes(2, 2)
    for x in range(16):
        bits = [(x >> i) & 1 for i in range(4)]
        q = BiasVector(tuple(Fraction(b) for b in bits))
        assert acceptance_probability(c, q) == evaluate(c, x)


def test_acceptance_matches_truth_table_average():
    for c in random_corpus(15, 10, 3, seed=61):
        got = acceptance_probability(c, BiasVector.uniform(c.n))
        assert got == Fraction(int(truth_table(c).sum()), 1 << c.n)


def _oracle_circuits():
    yield from random_corpus(40, 40, 4, seed=83)
    yield deep_chain(30)
    yield gen_tribes(16, 4)
    yield parse("(nand (not (or x0 x1)) (and x2 (nand x3 (not x4))))")
    yield Circuit(Const(1), 3)


def test_acceptance_pairs_match_the_fraction_fold():
    rng = random.Random(5)
    choices = (Fraction(1, 2), Fraction(0.01), Fraction(1, 3), 0, 1)
    for c in _oracle_circuits():
        for q in (BiasVector(tuple(rng.choice(choices) for _ in range(c.n))),
                  BiasVector(tuple(rng.choice((0, 1, Fraction(1))) for _ in range(c.n))),
                  BiasVector(tuple(rng.choice((0, 1)) for _ in range(c.n))),
                  BiasVector.constant(c.n, Fraction(0.01)), BiasVector.uniform(c.n)):
            got, want = acceptance_probability(c, q), reference_acceptance(c, q)
            assert got == want and type(got) is type(want)


def test_acceptance_floats_bit_identical_to_the_float_fold():
    rng = random.Random(6)
    for c in _oracle_circuits():
        for q in (BiasVector(tuple(rng.random() for _ in range(c.n))),
                  BiasVector(tuple(rng.choice((0.01, 0.5, 1 / 3, 0.0, 1.0, 0, 1))
                                   for _ in range(c.n))),
                  BiasVector.from_coin_bias(c.n, 0.02)):
            got, want = acceptance_probability(c, q), reference_acceptance(c, q)
            assert type(got) is type(want) and got == want
            if type(got) is float:
                assert got.hex() == want.hex()


# -- generators ---------------------------------------------------------------


def test_tribes_shape():
    c = gen_tribes(2, 2)
    assert render(c) == "(or (and x0 x1) (and x2 x3))"
    assert c.depth == 2


def test_recursive_tribes_depth_one_is_and():
    c = gen_recursive_tribes(1, [5])
    assert isinstance(c.root, And)
    assert c.n == 5


def test_recursive_tribes_matches_tribes():
    a = gen_recursive_tribes(2, [3, 2])
    b = gen_tribes(3, 2)
    assert a.root == b.root


def test_random_generator_deterministic():
    a = gen_random_read_once(12, 3, seed=7)
    b = gen_random_read_once(12, 3, seed=7)
    assert a.root == b.root
    assert a.root != gen_random_read_once(12, 3, seed=8).root


def test_random_generator_respects_bounds():
    for c in random_corpus(40, 14, 4, seed=71):
        c.check_read_once()
        assert c.depth >= 1
        assert c.n <= 14


@given(st.integers(2, 12), st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_generated_circuits_round_trip(n, d, seed):
    c = gen_random_read_once(n, d, seed=seed)
    assert parse(render(c)).root == c.root
    assert c.is_read_once()
