"""Read-once AND/OR/NOT formulas: AST, DSL, restriction, and exact expectations.

Circuits are immutable trees.  Gate depth counts AND/OR/NAND nodes only;
NOT gates and leaves are free.  Every variable index may feed at most one
leaf (read-once), which is what makes the bottom-up product formulas in
:func:`acceptance_probability` exact.  Every bottom-up quantity is a
:func:`fold` over the NOT-free de Morgan form.  Walkers that keep the tree
as written (the parser, the renderer, evaluation, restriction and the
rewrites) are generators run by :func:`trampoline`, which keeps their
recursion on an explicit stack.  Nothing here recurses in Python once per
nesting level, so circuits of any depth work; pickling goes through the
DSL text for the same reason.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Iterator, Sequence, Union

import numpy as np


class CircuitError(Exception):
    """Base class for circuit construction and usage errors."""


class ParseError(CircuitError):
    """Raised on malformed DSL input; carries a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ReadOnceViolation(CircuitError):
    """A variable index appears in more than one leaf."""


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class Leaf:
    var: int
    negated: bool = False


@dataclass(frozen=True)
class Const:
    value: int  # 0 or 1


class _Tree:
    """Equality and hashing over the pre-order shapes, repr and pickle via the DSL text.

    The dataclass defaults and the default pickle recurse once per nesting
    level; the pre-order list of :func:`_shape` determines the tree, and the
    text is built and parsed on explicit stacks, so all four work at any
    depth.  A pickled NOT over a leaf comes back as a negated leaf.
    """

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _shapes(self) == _shapes(other)

    def __hash__(self) -> int:
        return hash(_shapes(self))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {trampoline(_render_node(self))}>"

    def __reduce__(self):
        return _parse_node, (trampoline(_render_node(self)),)


@dataclass(frozen=True, eq=False, repr=False)
class Not(_Tree):
    child: "Node"


@dataclass(frozen=True, eq=False, repr=False)
class And(_Tree):
    children: tuple["Node", ...]


@dataclass(frozen=True, eq=False, repr=False)
class Or(_Tree):
    children: tuple["Node", ...]


@dataclass(frozen=True, eq=False, repr=False)
class Nand(_Tree):
    children: tuple["Node", ...]


Node = Union[Leaf, Const, Not, And, Or, Nand]

_GATES = (And, Or, Nand)
_WORD = np.dtype("<u8")  # 64 inputs per word, input t at bit t % 64 of word t // 64


@dataclass(frozen=True, repr=False)
class Circuit:
    """A read-once formula together with its input arity ``n``.

    ``n`` is the number of input positions; variable indices used by the
    leaves must lie in ``0..n-1`` but need not be contiguous.  Equality and
    hashing are the dataclass's, over ``root`` and ``n``, and the root
    compares as the nodes do, without recursion.  Construction walks the
    leaves once and records their count and the first repeated variable, so
    ``size`` and the read-once checks cost no walk; ``depth`` is folded on
    first use and kept.
    """

    root: Node
    n: int

    def __post_init__(self):
        seen: set[int] = set()
        leaves, repeat = 0, None
        for node in iter_nodes(self.root):
            if isinstance(node, Leaf):
                if self.n <= 0:
                    raise CircuitError("variable count must be positive")
                if node.var >= self.n:
                    raise CircuitError(f"leaf x{node.var} out of range for n={self.n}")
                if repeat is None and node.var in seen:
                    repeat = node.var
                seen.add(node.var)
                leaves += 1
        object.__setattr__(self, "_leaves", leaves)
        object.__setattr__(self, "_repeat", repeat)

    def __reduce__(self):
        # the record is rebuilt on load, so a pickle holds the fields only
        return Circuit, (self.root, self.n)

    def __repr__(self) -> str:
        return f"Circuit({render(self)!r}, n={self.n})"

    # -- structural queries ------------------------------------------------

    @cached_property
    def depth(self) -> int:
        """Number of AND/OR/NAND gates on the deepest root-to-leaf path."""
        return fold(self, lambda var, negated: 0, lambda value: 0, lambda: 0,
                    lambda acc, d, is_and: max(acc, d), lambda acc, is_and: acc + 1)

    @property
    def size(self) -> int:
        """Number of leaves."""
        return self._leaves

    def variables(self) -> list[int]:
        """Variable indices in leaf (DFS) order."""
        return [node.var for node in iter_nodes(self.root) if isinstance(node, Leaf)]

    def check_read_once(self) -> None:
        if self._repeat is not None:
            raise ReadOnceViolation(f"variable x{self._repeat} appears in more than one leaf")

    def is_read_once(self) -> bool:
        return self._repeat is None

    def is_monotone(self) -> bool:
        """True when no NOT gates or negated leaves remain (NANDs count as negations)."""
        for node in iter_nodes(self.root):
            if isinstance(node, (Not, Nand)):
                return False
            if isinstance(node, Leaf) and node.negated:
                return False
        return True

    def __str__(self) -> str:
        return render(self)


def iter_nodes(node: Node) -> Iterator[Node]:
    """Pre-order traversal."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, _GATES):
            stack.extend(reversed(cur.children))
        elif isinstance(cur, Not):
            stack.append(cur.child)


def _shape(node: Node) -> tuple:
    """A node's type and own fields, with its children replaced by their count.

    A pre-order list of shapes determines the tree, so it can stand in for
    the tree in comparisons and hashes.
    """
    if isinstance(node, _GATES):
        return type(node), len(node.children)
    if isinstance(node, Not):
        return (Not,)
    return type(node), *vars(node).values()


def _shapes(node: Node) -> tuple:
    return tuple(map(_shape, iter_nodes(node)))


def trampoline(walk):
    """Run a generator-based recursive walker on an explicit stack.

    A walker is a generator function that yields where it would recurse: it
    yields the generator of one recursive call, or a list of them, and gets
    back that call's value, or the list of their values, evaluated in order.
    Its ``return`` value is the call's value.  So ``f(x)`` in a recursive
    body becomes ``(yield f(x))``, and the evaluation order, side effects
    included, stays that of the recursion, at any nesting depth.
    """
    stack, value = [walk], None
    while stack:
        try:
            call = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
            continue
        stack.append(_each(call) if isinstance(call, list) else call)
        value = None
    return value


def _each(calls):
    values = []
    for call in calls:
        values.append((yield call))
    return values


def fold(c: Circuit, leaf, const, start, absorb, finish):
    """Bottom-up value of ``c`` over its NOT-free de Morgan form, iteratively.

    This is the one place where NOTs are pushed down: ``leaf(var, negated)``
    and ``const(value)`` see the flags after every NOT above them is applied,
    an AND or OR under an odd number of NOTs arrives as the other gate, and a
    NAND arrives as an OR of negated children (an AND under an odd number of
    NOTs).  Children of every gate then read disjoint variables and no
    negation sits above a gate.  A gate opens with ``acc = start()``, takes
    each child's value through ``acc = absorb(acc, value, is_and)`` as soon as
    that child is done, and closes with ``finish(acc, is_and)``.  No
    recursion, so any nesting depth works.
    """
    # the open gate lives in locals, its ancestors on the stack; the bottom
    # frame is a pseudo-gate over the root whose first value is the result
    stack = []
    kids, i, neg, is_and, acc = (c.root,), 0, False, True, None
    while True:
        if i < len(kids):
            node = kids[i]
            i += 1
            node_neg = neg
            kind = type(node)
            while kind is Not:
                node, node_neg, kind = node.child, not node_neg, type(node.child)
            if kind is Leaf:
                value = leaf(node.var, node.negated != node_neg)
            elif kind is Const:
                value = const(node.value ^ node_neg)
            else:
                stack.append((kids, i, neg, is_and, acc))
                neg = node_neg != (kind is Nand)  # NAND(cs) = NOT(AND(cs))
                is_and = (kind is Or) == neg  # a NOT swaps AND and OR
                kids, i, acc = node.children, 0, start()
                continue
        else:
            value = finish(acc, is_and)
            kids, i, neg, is_and, acc = stack.pop()
        if not stack:
            return value
        acc = absorb(acc, value, is_and)


# ---------------------------------------------------------------------------
# DSL: (and e+) | (or e+) | (nand e+) | (not e) | x<digits> | 0 | 1

_TOKEN = re.compile(r"\s*(\(|\)|[^\s()]+)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def parse(text: str) -> Circuit:
    """Parse one DSL expression into a :class:`Circuit`.

    Raises :class:`ParseError` on syntax problems (with character position)
    and :class:`ReadOnceViolation` when a variable repeats.
    """
    node = _parse_node(text)
    circuit = Circuit(node, 1 + max((nd.var for nd in iter_nodes(node) if isinstance(nd, Leaf)),
                                    default=0))
    circuit.check_read_once()
    return circuit


def _parse_node(text: str) -> Node:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    node, rest = trampoline(_parse_expr(tokens, 0))
    if rest != len(tokens):
        raise ParseError("trailing input after expression", tokens[rest][1])
    return node


def _parse_expr(tokens: list[tuple[str, int]], i: int) -> tuple[Node, int]:
    if i >= len(tokens):
        raise ParseError("unexpected end of input", tokens[-1][1] + 1 if tokens else 0)
    tok, pos = tokens[i]
    if tok == "(":
        if i + 1 >= len(tokens):
            raise ParseError("unterminated '('", pos)
        head, head_pos = tokens[i + 1]
        if head not in ("and", "or", "not", "nand"):
            raise ParseError(f"unknown gate {head!r}", head_pos)
        children = []
        j = i + 2
        while j < len(tokens) and tokens[j][0] != ")":
            child, j = yield _parse_expr(tokens, j)
            children.append(child)
        if j >= len(tokens):
            raise ParseError("missing ')'", pos)
        if not children:
            raise ParseError(f"empty ({head}) gate", pos)
        if head == "not":
            if len(children) != 1:
                raise ParseError("(not ...) takes exactly one argument", pos)
            child = children[0]
            # canonical form: a negated leaf is stored as a leaf flag, so
            # render/parse round-trips node for node
            if isinstance(child, Leaf):
                return Leaf(child.var, not child.negated), j + 1
            return Not(child), j + 1
        ctor = {"and": And, "or": Or, "nand": Nand}[head]
        return ctor(tuple(children)), j + 1
    if tok == "0" or tok == "1":
        return Const(int(tok)), i + 1
    m = re.fullmatch(r"x(\d+)", tok)
    if m is None:
        raise ParseError(f"unexpected token {tok!r}", pos)
    return Leaf(int(m.group(1))), i + 1


def render(c: Circuit) -> str:
    """Canonical single-line DSL text; ``parse(render(c))`` round-trips."""
    return trampoline(_render_node(c.root))


def _render_node(node: Node) -> str:
    if isinstance(node, Leaf):
        text = f"x{node.var}"
        return f"(not {text})" if node.negated else text
    if isinstance(node, Const):
        return str(node.value)
    if isinstance(node, Not):
        return f"(not {(yield _render_node(node.child))})"
    name = {And: "and", Or: "or", Nand: "nand"}[type(node)]
    return f"({name} {' '.join((yield [_render_node(ch) for ch in node.children]))})"


# ---------------------------------------------------------------------------
# Evaluation and restriction


@dataclass(frozen=True)
class RestrictionMask:
    """Which positions stay free (``t`` bit = 1) and the fixed values ``x``.

    Both are length-``n`` bit vectors packed LSB-first into ints: bit ``i``
    corresponds to variable ``x_i``.
    """

    t: int
    x: int
    n: int

    @classmethod
    def from_bits(cls, t_bits: Sequence[int], x_bits: Sequence[int]) -> "RestrictionMask":
        if len(t_bits) != len(x_bits):
            raise CircuitError("t and x must have equal length")
        return cls(bits_to_int(t_bits), bits_to_int(x_bits), len(t_bits))

    def is_free(self, i: int) -> bool:
        return bool((self.t >> i) & 1)

    def fixed_value(self, i: int) -> int:
        return (self.x >> i) & 1


def bits_to_int(bits: Sequence[int]) -> int:
    return sum(b << i for i, b in enumerate(bits))


def evaluate(c: Circuit, x: int | Sequence[int] | str) -> int:
    """Evaluate the circuit on an assignment.

    ``x`` may be an int bitmask (bit ``i`` = variable ``i``), a bit sequence,
    or a '0101' string (position ``k`` = variable ``k``).
    """
    mask, length = _as_mask(x)
    if length not in (None, c.n):
        raise CircuitError(f"assignment length {length} != n={c.n}")
    return trampoline(_eval_node(c.root, mask))


def _as_mask(x) -> tuple[int, int | None]:
    """(bitmask, bit count) of an assignment; an int is a mask with no count."""
    if isinstance(x, int):
        return x, None
    bits = [int(b) for b in x] if isinstance(x, str) else list(x)
    return bits_to_int(bits), len(bits)


def _eval_node(node: Node, mask: int) -> int:
    if isinstance(node, Leaf):
        bit = (mask >> node.var) & 1
        return bit ^ 1 if node.negated else bit
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Not):
        return 1 - (yield _eval_node(node.child, mask))
    if isinstance(node, And):
        for ch in node.children:
            if (yield _eval_node(ch, mask)) == 0:
                return 0
        return 1
    if isinstance(node, Or):
        for ch in node.children:
            if (yield _eval_node(ch, mask)) == 1:
                return 1
        return 0
    # Nand
    for ch in node.children:
        if (yield _eval_node(ch, mask)) == 0:
            return 1
    return 0


def _bits(planes: np.ndarray, size: int) -> np.ndarray:
    """uint8 0/1 per input of ``_WORD`` planes: shape (..., W) to (..., size)."""
    return np.unpackbits(planes.view(np.uint8), axis=-1, count=size, bitorder="little")


def evaluate_columns(c: Circuit, column, size: int, one=np.uint8(1)) -> np.ndarray:
    """Values of the circuit on many inputs at once, planes of ``size`` entries.

    ``column(var)`` returns a fresh plane of variable ``var``'s bits, which
    the fold may overwrite; ``one`` is a true entry: 1 for uint8 byte planes,
    all-ones for ``_WORD`` planes of 64 inputs.  :func:`evaluate` is the
    scalar reference.
    """

    def absorb(acc, col, is_and):
        # every value is a fresh array, so the first child's becomes the
        # accumulator and each open gate holds one column
        if acc is None:
            return col
        return np.bitwise_and(acc, col, out=acc) if is_and else np.bitwise_or(acc, col, out=acc)

    def const(value):
        return np.full(size, one if value else 0, dtype=one.dtype)

    return fold(c, lambda var, negated: column(var) ^ one if negated else column(var), const,
                lambda: None, absorb,
                lambda acc, is_and: const(int(is_and)) if acc is None else acc)


def restrict(c: Circuit, m: RestrictionMask) -> Circuit:
    """Replace every leaf at a non-free position with the fixed constant."""
    if m.n != c.n:
        raise CircuitError(f"mask length {m.n} != n={c.n}")

    def go(node: Node) -> Node:
        if isinstance(node, Leaf):
            if m.is_free(node.var):
                return node
            bit = m.fixed_value(node.var)
            return Const(bit ^ 1 if node.negated else bit)
        if isinstance(node, Const):
            return node
        if isinstance(node, Not):
            return Not((yield go(node.child)))
        return type(node)(tuple((yield [go(ch) for ch in node.children])))

    return Circuit(trampoline(go(c.root)), c.n)


# ---------------------------------------------------------------------------
# Normalization


def _collect(children, child, is_and):
    # a fold's ``absorb`` for gates that need every child's value at ``finish``
    children.append(child)
    return children


def _gate(children, is_and):
    # a fold's ``finish`` that rebuilds the de Morgan form's AND or OR
    return (And if is_and else Or)(tuple(children))


def push_nots_to_leaves(c: Circuit) -> Circuit:
    """De Morgan dualization: NOT gates survive only as leaf negation flags.

    Preserves the computed function and the gate depth.  NAND gates are
    rewritten into NOT-free AND/OR structure as well.
    """
    return Circuit(fold(c, Leaf, Const, list, _collect, _gate), c.n)


def strip_leaf_negations(c: Circuit) -> Circuit:
    """The monotone circuit left when the de Morgan form's leaf flags are dropped.

    Any input works: NOTs and NANDs are pushed down as in
    :func:`push_nots_to_leaves`, and every leaf comes out unnegated, so
    ``strip_leaf_negations(push_nots_to_leaves(c))`` equals
    ``strip_leaf_negations(c)``.
    """
    return Circuit(fold(c, lambda var, negated: Leaf(var), Const, list, _collect, _gate), c.n)


def to_nand_form(c: Circuit) -> Circuit:
    """Rewrite into NAND gates plus possibly-negated leaves.

    The function is unchanged, and the gate depth at most doubles.
    """

    # each node's value is (its NAND form, its negation's NAND form), over the
    # de Morgan form: an AND (or a NOT-ed OR or NAND) is NOT(NAND(cs)), an OR
    # (or a NOT-ed AND, or a NAND) is NAND(NOT cs)
    def leaf(var, negated):
        return Leaf(var, negated), Leaf(var, not negated)

    def finish(children, is_and):
        inner = Nand(tuple(child[0 if is_and else 1] for child in children))
        return (Nand((inner,)), inner) if is_and else (inner, Nand((inner,)))

    pos, _ = fold(c, leaf, lambda value: (Const(value), Const(1 - value)), list, _collect, finish)
    return Circuit(pos, c.n)


def simplify(c: Circuit) -> Circuit:
    """Full constant propagation.

    For read-once circuits the result is a :class:`Const` node exactly when
    the circuit computes a constant function: every surviving leaf of a
    constant-propagated read-once formula is influential.
    """
    return Circuit(trampoline(_simplify_node(c.root)), c.n)


def _simplify_node(node: Node) -> Node:
    if isinstance(node, (Leaf, Const)):
        return node
    if isinstance(node, Not):
        child = yield _simplify_node(node.child)
        if isinstance(child, Const):
            return Const(1 - child.value)
        if isinstance(child, Leaf):
            return Leaf(child.var, not child.negated)
        if isinstance(child, Not):
            return child.child
        return Not(child)
    absorbing = 0 if isinstance(node, (And, Nand)) else 1
    kept = []
    for ch in node.children:
        ch = yield _simplify_node(ch)
        if isinstance(ch, Const):
            if ch.value == absorbing:  # it decides the gate, so the rest need no walk
                kept = [ch]
                break
            continue  # neutral constant drops out
        kept.append(ch)
    if isinstance(node, Nand):
        return _nand(kept)
    if not kept:  # empty AND -> 1, empty OR -> 0
        return Const(1 - absorbing)
    return kept[0] if len(kept) == 1 else type(node)(tuple(kept))


def _nand(children) -> Node:
    """NAND of constant-propagated children, constant-propagated: a 0 child gives
    1, 1 children drop out, none left gives 0, and a NAND of one leaf negates it."""
    kept = []
    for ch in children:
        if not isinstance(ch, Const):
            kept.append(ch)
        elif ch.value == 0:
            return Const(1)
    if not kept:
        return Const(0)
    if len(kept) == 1 and isinstance(kept[0], Leaf):
        return Leaf(kept[0].var, not kept[0].negated)
    return Nand(tuple(kept))


# ---------------------------------------------------------------------------
# Product-measure expectations


@dataclass(frozen=True)
class BiasVector:
    """Per-variable probabilities that the input bit equals 1.

    Entries may be :class:`~fractions.Fraction` and int (exact mode) or
    floats; :func:`acceptance_probability` computes exactly when every
    entry is a Fraction or an int.
    """

    values: tuple

    @classmethod
    def uniform(cls, n: int) -> "BiasVector":
        return cls((Fraction(1, 2),) * n)

    @classmethod
    def constant(cls, n: int, q) -> "BiasVector":
        return cls((q,) * n)

    @classmethod
    def from_coin_bias(cls, n: int, p) -> "BiasVector":
        """Coin convention E[(-1)^{x_i}] = p, i.e. Pr[x_i = 1] = (1-p)/2."""
        one = Fraction(1) if isinstance(p, (Fraction, int)) else 1.0
        return cls(tuple((one - p) / 2 for _ in range(n)))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int):
        return self.values[i]


def acceptance_probability(c: Circuit, q: BiasVector):
    """Exact Pr[F = 1] when input bits are independent with Pr[x_i=1] = q_i.

    Valid for read-once circuits, where children of every gate depend on
    disjoint variables.  The fold runs on (numerator, denominator) pairs
    (:func:`_acceptance_pair`): a Fraction or int entry as its two ints, so
    exact vectors pay no gcd per gate.  When any entry is neither, ints stay
    (v, 1) and every other entry is read as (float(q_i), 1.0), which runs
    exactly the float operations of folding the entries themselves.  The
    result has the type that plain arithmetic on the entries read gives: a
    float if a float was read, else a Fraction if a Fraction was, else an
    int (a constant circuit gives its value).
    """
    if len(q) != c.n:
        raise CircuitError(f"bias vector length {len(q)} != n={c.n}")
    exact = all(isinstance(v, (int, Fraction)) for v in q.values)
    num, den = _acceptance_pair(c, [
        (v.numerator, v.denominator) if exact or type(v) is int else (float(v), 1.0)
        for v in q.values])
    if isinstance(den, float):
        return num / den
    if den == 1 and not any(isinstance(q[v], Fraction) for v in c.variables()):
        return num
    return Fraction(num, den)


def _acceptance_pair(c: Circuit, pairs: list, negations: bool = True) -> tuple:
    """Pr[F = 1] as an unnormalised (numerator, denominator) pair, when
    Pr[x_i = 1] = pairs[i][0] / pairs[i][1].

    The fold multiplies numerators and denominators and divides nowhere, so
    integer pairs cost no gcd per gate.  The denominator depends only on the
    tree and the leaves' denominators.  With ``negations=False`` every leaf
    reads as unnegated: the value for the monotone circuit left when the
    de Morgan form's leaf flags are dropped.
    """
    c.check_read_once()

    def leaf(var, negated):
        num, den = pairs[var]
        return (den - num, den) if negated and negations else (num, den)

    def absorb(prod, acc, is_and):
        # AND accepts when every child does, OR rejects when every child does
        num, den = acc
        return prod[0] * (num if is_and else den - num), prod[1] * den

    def finish(prod, is_and):
        num, den = prod
        return prod if is_and else (den - num, den)

    return fold(c, leaf, lambda value: (value, 1), lambda: (1, 1), absorb, finish)


# ---------------------------------------------------------------------------
# Generators


def gen_tribes(m: int, w: int) -> Circuit:
    """OR of ``m`` disjoint ANDs of width ``w``; n = m*w, depth 2.

    This is ``gen_recursive_tribes(2, [m, w])``.
    """
    return gen_recursive_tribes(2, [m, w])


def gen_recursive_tribes(depth: int, fanins: Sequence[int]) -> Circuit:
    """Alternating AND/OR tree with the given per-level fan-ins, top level first.

    The bottom level is AND and gate types alternate upward; leaves are
    numbered left to right.  The tree is built one level at a time.
    """
    if depth <= 0 or len(fanins) != depth:
        raise CircuitError("need one fan-in per level")
    if any(f <= 0 for f in fanins):
        raise CircuitError("fan-ins must be positive")
    n = prod(fanins)
    nodes = [Leaf(v) for v in range(n)]
    for level, fanin in enumerate(reversed(fanins)):  # bottom up, the bottom level AND
        gate = Or if level % 2 else And
        nodes = [gate(tuple(nodes[i:i + fanin])) for i in range(0, len(nodes), fanin)]
    return Circuit(nodes[0], n)


def gen_random_read_once(
    n: int, depth: int, seed: int, neg_prob: float = 0.25
) -> Circuit:
    """Random read-once circuit: alternating gate levels, random partition.

    Deterministic in ``seed``.  The realized gate depth is exactly
    ``min(depth, n - 1)`` (depth d with fan-in >= 2 everywhere needs d+1
    variables); every gate has fan-in >= 2 whenever the budget allows.
    Leaves are negated independently with probability ``neg_prob``.
    """
    if n <= 0 or depth < 0:
        raise CircuitError("invalid generator parameters")
    rng = random.Random(seed)
    variables = list(range(n))
    rng.shuffle(variables)
    root_is_and = rng.random() < 0.5

    def leaf(v: int) -> Node:
        return Leaf(v, rng.random() < neg_prob)

    def build(vars_: list[int], d: int, is_and: bool) -> Node:
        d = min(d, len(vars_) - 1)
        if d <= 0:
            return leaf(vars_[0])
        if d == 1:
            return (And if is_and else Or)(tuple(leaf(v) for v in vars_))
        # choose fan-in; one child (the spine) gets enough variables to
        # realize depth d-1, every other child gets at least one
        k = rng.randint(2, max(2, min(len(vars_) - d + 1, 5)))
        spine_size = rng.randint(d, len(vars_) - (k - 1))
        rest = vars_[spine_size:]
        cuts = sorted(rng.sample(range(1, len(rest)), k - 2)) if k > 2 else []
        blocks = [vars_[:spine_size]]
        prev = 0
        for cut in cuts + [len(rest)]:
            blocks.append(rest[prev:cut])
            prev = cut
        rng.shuffle(blocks)
        children = tuple((yield [build(b, d - 1, not is_and) for b in blocks]))
        return (And if is_and else Or)(children)

    circuit = Circuit(trampoline(build(variables, depth, root_is_and)), n)
    circuit.check_read_once()
    return circuit
