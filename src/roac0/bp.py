"""Ordered branching programs and the read-once circuit conversion.

A width-w, length-n program is a sequence of n layers; layer t reads one
variable and applies one of two total maps on states [w] = {1..w}.  State 1
is both the start and the accept state.  Layer t of edges connects vertex
layer t-1 to vertex layer t.

The conversion from a depth-D read-once circuit produces width <= D+1.  An
AND concatenates its children's blocks and chains accept (state 1) to start.
A child's live states (all of them but an absorbing reject) keep their
labels, and one more label, the highest, is the parent's shared absorbing
reject: every other label, every edge to a state past the live ones and
every final-layer edge to a state other than 1 goes there.  So an absorbing
child donates its reject instead of forcing a fresh state, which is what
keeps AND towers at width 2.  An OR is the negated AND of its negated
children; negating a gate block transposes accept and reject on its last
layer, which costs the absorbing property but not correctness.

The conversion is one :func:`circuit.fold`, whose values are blocks; each
block's metadata (its width, its final swap and its children's boundaries)
stays attached to the program, so that any state-to-state slice indicator
can be rebuilt as a read-once circuit of depth <= D.  A slice of a gate
block is a chain of whole children, each accepting (the first entered at
the slice's start layer and state), followed by one partial run of the
child the slice ends in; when the slice starts in that child, the chain is
empty and the run starts where the slice does.
``bp_run`` runs a program on many inputs at once (one table gather per
layer); ``roac0 bp`` checks equivalence and witnesses with it and
``circuit.evaluate_columns``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .circuit import (
    And,
    Circuit,
    CircuitError,
    Const,
    Leaf,
    Not,
    RestrictionMask,
    _as_mask,
    _collect,
    fold,
    simplify,
    trampoline,
)
from .fourier import SpectralTable, _wht_integers, variable_pattern


class BPError(CircuitError):
    pass


StateMap = tuple[int, ...]  # entry u-1 holds the successor of state u
Layer = tuple[StateMap, StateMap]  # (map for bit 0, map for bit 1)


# -- construction metadata ---------------------------------------------------


@dataclass(frozen=True)
class LeafBlock:
    """Single-layer program for a literal: state 1 survives iff bit == sat."""

    var: int
    sat: int
    width = 2
    absorbing = True


@dataclass(frozen=True)
class ConstBlock:
    value: int


@dataclass(frozen=True)
class ChildSlot:
    start: int  # first edge layer of this child's block, 1-indexed in parent
    end: int
    meta: Union["GateBlock", LeafBlock]


@dataclass(frozen=True)
class GateBlock:
    """An AND-concatenation of child blocks, optionally accept/reject-swapped."""

    width: int
    swap: bool
    slots: tuple[ChildSlot, ...]

    @property
    def absorbing(self) -> bool:
        return not self.swap


Meta = Union[GateBlock, LeafBlock, ConstBlock, None]


@dataclass(frozen=True)
class OrderedBP:
    width: int
    var_order: tuple[int, ...]
    layers: tuple[Layer, ...]
    meta: Meta = field(default=None, compare=False)

    def __post_init__(self):
        if self.width < 1:
            raise BPError("width must be positive")
        if len(self.var_order) != len(self.layers):
            raise BPError("one variable per layer required")
        if len(set(self.var_order)) != len(self.var_order):
            raise BPError("ordered programs read each variable at most once")
        for t, (m0, m1) in enumerate(self.layers):
            for m in (m0, m1):
                if len(m) != self.width or any(not 1 <= v <= self.width for v in m):
                    raise BPError(f"layer {t + 1} transition not a map into [w]")

    @property
    def length(self) -> int:
        return len(self.layers)


# -- evaluation and closure operations ---------------------------------------


def bp_evaluate(b: OrderedBP, x, start: int = 1) -> int:
    """Final state after running all layers from ``start``."""
    if not 1 <= start <= b.width:
        raise BPError(f"start state {start} outside [1,{b.width}]")
    mask, length = _as_mask(x)
    if length is not None and b.var_order and length <= max(b.var_order):
        raise BPError(f"input of length {length} does not cover {max(b.var_order)}")
    state = start
    for v, (m0, m1) in zip(b.var_order, b.layers):
        state = (m1 if (mask >> v) & 1 else m0)[state - 1]
    return state


def bp_accepts(b: OrderedBP, x) -> int:
    return 1 if bp_evaluate(b, x, 1) == 1 else 0


def bp_run(b: OrderedBP, column, size: int, start=1) -> np.ndarray:
    """Final states after running all layers, for ``size`` inputs at once.

    ``column(var)`` is variable ``var``'s uint8 0/1 bits over the inputs, and
    ``start`` a state or an array of states broadcast against them (shape
    ``(w, 1)`` runs every start state).  Each layer is one gather from a
    table indexed by bit * w + state; :func:`bp_evaluate` is the reference.
    """
    if not 1 <= np.min(start) <= np.max(start) <= b.width:
        raise BPError(f"start state outside [1,{b.width}]")
    dtype = np.min_scalar_type(2 * b.width)
    w = dtype.type(b.width)
    states = np.full(np.broadcast_shapes(np.shape(start), (size,)), start, dtype=dtype)
    for v, (m0, m1) in zip(b.var_order, b.layers):
        table = np.array((0,) + m0 + m1, dtype=dtype)
        states = table.take(column(v) * w + states)
    return states


def bp_concat(b1: OrderedBP, b2: OrderedBP) -> OrderedBP:
    if b1.width != b2.width:
        raise BPError(f"width mismatch {b1.width} != {b2.width}")
    if set(b1.var_order) & set(b2.var_order):
        raise BPError("concatenated programs must read disjoint variables")
    return OrderedBP(b1.width, b1.var_order + b2.var_order, b1.layers + b2.layers)


def bp_subprogram(b: OrderedBP, i: int, j: int) -> OrderedBP:
    """Edge layers i..j inclusive, 1-indexed."""
    if not 1 <= i <= j <= b.length:
        raise BPError(f"invalid layer span [{i},{j}] for length {b.length}")
    return OrderedBP(b.width, b.var_order[i - 1 : j], b.layers[i - 1 : j])


def bp_restrict(b: OrderedBP, m: RestrictionMask) -> OrderedBP:
    """Layers reading fixed variables apply the fixed bit's map for any input."""
    layers = []
    for v, (m0, m1) in zip(b.var_order, b.layers):
        if v < m.n and not m.is_free(v):
            fixed = (m1 if m.fixed_value(v) else m0)
            layers.append((fixed, fixed))
        else:
            layers.append((m0, m1))
    return OrderedBP(b.width, b.var_order, tuple(layers))


def bp_permute(b: OrderedBP, pi: Sequence[int], side: str) -> OrderedBP:
    """Relabel the start side (pre: (pi B)[x](u) = B[x](pi(u))) or accept side."""
    if sorted(pi) != list(range(1, b.width + 1)):
        raise BPError("pi must be a permutation of [w]")
    if b.length == 0:
        raise BPError("cannot permute a length-0 program")
    layers = list(b.layers)
    if side == "pre":
        m0, m1 = layers[0]
        layers[0] = (
            tuple(m0[pi[u - 1] - 1] for u in range(1, b.width + 1)),
            tuple(m1[pi[u - 1] - 1] for u in range(1, b.width + 1)),
        )
    elif side == "post":
        layers[-1] = _relabel(layers[-1], pi)
    else:
        raise BPError(f"side must be 'pre' or 'post', got {side!r}")
    return OrderedBP(b.width, b.var_order, tuple(layers))


def _relabel(layer: Layer, pi) -> Layer:
    """The layer with every target state t renamed pi(t)."""
    return tuple(tuple(pi[t - 1] for t in m) for m in layer)


# -- serialization ------------------------------------------------------------


def bp_to_json_dict(b: OrderedBP) -> dict:
    return {
        "width": b.width,
        "length": b.length,
        "var_order": list(b.var_order),
        "layers": [[list(m0), list(m1)] for m0, m1 in b.layers],
    }


def bp_from_json_dict(d: dict) -> OrderedBP:
    layers = tuple((tuple(m0), tuple(m1)) for m0, m1 in d["layers"])
    b = OrderedBP(d["width"], tuple(d["var_order"]), layers)
    if b.length != d.get("length", b.length):
        raise BPError("length field disagrees with layer count")
    return b


# -- circuit -> program conversion --------------------------------------------


def bp_from_circuit(c: Circuit) -> OrderedBP:
    """Ordered program of width <= depth+1 computing the same function.

    Constants are propagated first, so Const nodes can only appear at the
    root.  Const(1) maps to the empty width-1 program; Const(0) needs one
    absorbing width-2 layer (a length-0 program cannot reject).
    """
    c.check_read_once()
    sc = simplify(c)
    if isinstance(sc.root, Const):
        if sc.root.value == 1:
            return OrderedBP(1, (), (), meta=ConstBlock(1))
        return OrderedBP(2, (0,), (((2, 2), (2, 2)),), meta=ConstBlock(0))
    var_order, layers, meta = fold(sc, _leaf_block, None, list, _collect, _gate_block)
    return OrderedBP(meta.width, tuple(var_order), tuple(layers), meta=meta)


def _leaf_block(var: int, negated: bool):
    """The (var_order, layers, meta) block of a literal."""
    sat = int(not negated)
    return [var], [tuple(((1 if bit == sat else 2), 2) for bit in (0, 1))], LeafBlock(var, sat)


def _negated(block):
    """The complement's block: a literal flips ``sat``, a gate toggles its final
    swap, which trades accept 1 and reject w and is an involution."""
    var_order, layers, meta = block
    if isinstance(meta, LeafBlock):
        return _leaf_block(meta.var, meta.sat == 1)
    w = meta.width
    layers[-1] = _relabel(layers[-1], (w, *range(2, w), 1))  # a fold value is read once
    return var_order, layers, GateBlock(w, not meta.swap, meta.slots)


def _gate_block(blocks, is_and: bool):
    """An AND concatenates its children's blocks; an OR is the negated AND of
    its negated children."""
    if not is_and:
        return _negated(_gate_block([_negated(block) for block in blocks], True))
    width = 1 + max(_live(meta) for _, _, meta in blocks)
    var_order: list[int] = []
    layers: list[Layer] = []
    slots: list[ChildSlot] = []
    for vo, ly, meta in blocks:
        slots.append(ChildSlot(len(layers) + 1, len(layers) + len(ly), meta))
        # labels up to ``live`` keep their child state; every other label, a
        # target past ``live`` and a last-layer target other than 1 go to the
        # shared reject ``width``
        live = _live(meta)
        dead = (width,) * (width - live)
        for t, layer in enumerate(ly):
            keep = 1 if t == len(ly) - 1 else live
            layers.append(tuple(tuple(v if v <= keep else width for v in m[:live]) + dead
                                for m in layer))
        var_order.extend(vo)
    return var_order, layers, GateBlock(width, False, tuple(slots))


def _live(meta) -> int:
    """How many of a child block's states keep their label in the parent: all
    but an absorbing reject, which the parent's shared reject replaces.  A
    live label is always below the parent's width."""
    return meta.width - meta.absorbing


# -- slice witnesses -----------------------------------------------------------


def bp_slice_witness(b: OrderedBP, i: int, j: int, d1: int, d2: int) -> Circuit:
    """Read-once circuit computing I[running layers i..j from d1 ends at d2].

    Layers are 1-indexed and inclusive, states run over [1, b.width].
    Requires a program built by bp_from_circuit (construction metadata).
    The returned circuit is over the same global variable space and has
    gate depth at most the original circuit's.
    """
    if b.meta is None:
        raise BPError("program carries no construction metadata")
    if not 1 <= i <= j <= b.length:
        raise BPError(f"invalid span [{i},{j}] for length {b.length}")
    if not (1 <= d1 <= b.width and 1 <= d2 <= b.width):
        raise BPError("states out of range")
    node = trampoline(_witness(b.meta, i, j, d1, d2))
    return simplify(Circuit(node, max(b.var_order, default=0) + 1))


def _const(truth: bool):
    return Const(1 if truth else 0)


def _witness(meta: Meta, i: int, j: int, d1: int, d2: int):
    """Indicator node for the slice of ``meta``'s program, local layers i..j."""
    if isinstance(meta, ConstBlock):
        # only the width-2 reject program has layers; it absorbs into state 2
        return _const(d2 == 2)
    if isinstance(meta, LeafBlock):
        if d1 == 2:
            return _const(d2 == 2)
        if d2 == 1:
            return Leaf(meta.var, negated=meta.sat == 0)
        if d2 == 2:
            return Leaf(meta.var, negated=meta.sat == 1)
        return _const(False)

    w = meta.width
    swapped = meta.swap and j == meta.slots[-1].end
    first = next(s for s in meta.slots if s.start <= i <= s.end)
    last = next(s for s in meta.slots if s.start <= j <= s.end)
    if d1 > _live(first.meta):
        # a label past the first child's live states goes to the shared
        # reject and rides it to the end (transposed by a final swap)
        return _const(d2 == (1 if swapped else w))

    # a chain of whole children, then one partial run of ``last`` from
    # layer ``start`` in state ``state``
    chain, start, state = [], i - first.start + 1, d1
    if first is not last:
        chain.append((yield _witness(first.meta, start, first.end - first.start + 1, d1, 1)))
        chain += yield [_witness(s.meta, 1, s.end - s.start + 1, 1, 1)
                        for s in meta.slots if first.end < s.start and s.end < last.start]
        start, state = 1, 1
    j_local = j - last.start + 1
    if j == last.end:
        # block boundary: outcomes collapse to accept (1) or reject (w)
        chain.append((yield _witness(last.meta, start, j_local, state, 1)))
        alive = _and(chain)
        if d2 == (w if swapped else 1):
            return alive
        if d2 == (1 if swapped else w):
            return Not(alive)
        return _const(False)
    if d2 == w:
        # dead at j: either the chain broke, or the last child walked into its
        # own absorbing reject
        if last.meta.absorbing:
            chain.append(Not((yield _witness(last.meta, start, j_local, state, last.meta.width))))
        return Not(_and(chain))
    if d2 > _live(last.meta):
        return _const(False)
    chain.append((yield _witness(last.meta, start, j_local, state, d2)))
    return _and(chain)


def _and(parts: list):
    # a one-part AND is that part, so simplify has no wrapper to strip
    return parts[0] if len(parts) == 1 else And(tuple(parts))


# -- spectral upper bound for the matrix view ---------------------------------


def bp_state_functions(b: OrderedBP) -> dict[tuple[int, int], np.ndarray]:
    """Truth table of I[B[x](u) = v] for every state pair, over read bits.

    Enumeration index bit t is the value of the variable read at layer t+1.
    """
    length = b.length
    if length > 22:
        raise BPError(f"length {length} exceeds exhaustive cap")
    layer_of = {v: t for t, v in enumerate(b.var_order)}
    finals = bp_run(b, lambda v: variable_pattern(layer_of[v], length), 1 << length,
                    start=np.arange(1, b.width + 1)[:, None])
    return {
        (u, v): (finals[u - 1] == v).view(np.uint8)
        for u in range(1, b.width + 1)
        for v in range(1, b.width + 1)
    }


def bp_matrix_levelmass_upper(b: OrderedBP, k: int):
    """w * max over state pairs of L^k of the pair's path indicator.

    This is the scalar bound obtained from the matrix view by bounding the
    operator norm entrywise.
    """
    if k < 0:
        raise BPError("level must be nonnegative")
    if k > b.length:
        return Fraction(0)
    best = max(SpectralTable(b.length, _wht_integers(table)).level_sums()[0][k]
               for table in bp_state_functions(b).values())
    return b.width * best
