"""Ordered branching programs and the read-once circuit conversion.

A width-w, length-n program is a sequence of n layers; layer t reads one
variable and applies one of two total maps on states [w] = {1..w}.  State 1
is both the start and the accept state.  Layer t of edges connects vertex
layer t-1 to vertex layer t.

The conversion from a depth-D read-once circuit produces width <= D+1: an
AND concatenates its children's programs, chains accept (state 1) to start,
and reroutes every other final-layer edge of each child block into a shared
absorbing reject state (the highest index).  An OR builds the AND of the
negated children and then transposes accept and reject on the last layer,
which costs the absorbing property but not correctness.  Children whose
reject is already absorbing donate it to the parent instead of forcing a
fresh state, which is what keeps AND towers at width 2.

Construction metadata (child block boundaries, child programs' functions)
stays attached to the program so that any state-to-state slice indicator
can be rebuilt as a read-once circuit of depth <= D.  ``bp_run`` runs a
program on many inputs at once (one table gather per layer); ``roac0 bp``
checks equivalence and witnesses with it and ``circuit.evaluate_columns``.
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
    Nand,
    Node,
    Not,
    Or,
    RestrictionMask,
    _as_mask,
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


@dataclass(frozen=True)
class ConstBlock:
    value: int


@dataclass(frozen=True)
class ChildSlot:
    start: int  # first edge layer of this child's block, 1-indexed in parent
    end: int
    meta: Union["GateBlock", LeafBlock]
    width: int
    absorbing: bool
    node: Node  # the Boolean function this child block computes from 1 to 1


@dataclass(frozen=True)
class GateBlock:
    """An AND-concatenation of child blocks, optionally accept/reject-swapped."""

    width: int
    swap: bool
    slots: tuple[ChildSlot, ...]


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
    width, var_order, layers, meta, _ = trampoline(_build(sc.root, False))
    return OrderedBP(width, tuple(var_order), tuple(layers), meta=meta)


def _build(node, neg: bool):
    """Returns (width, var_order, layers, meta, absorbing) for node xor neg."""
    if isinstance(node, Leaf):
        sat = 1 ^ int(node.negated) ^ int(neg)
        maps = []
        for bit in (0, 1):
            maps.append(((1 if bit == sat else 2), 2))
        return 2, [node.var], [tuple(maps)], LeafBlock(node.var, sat), True
    if isinstance(node, Not):
        return (yield _build(node.child, not neg))
    if isinstance(node, And):
        pairs = [(ch, False) for ch in node.children]
        return (yield _and_construction(pairs, swap=neg))
    if isinstance(node, Or):
        # OR(cs) = NOT(AND(NOT cs)); negation toggles the final swap
        pairs = [(ch, True) for ch in node.children]
        return (yield _and_construction(pairs, swap=not neg))
    if isinstance(node, Nand):
        pairs = [(ch, False) for ch in node.children]
        return (yield _and_construction(pairs, swap=not neg))
    raise BPError(f"constant below the root; simplify first: {node}")


def _and_construction(pairs, swap: bool):
    built = yield [_build(ch, cneg) for ch, cneg in pairs]
    width = max(2, max(w if ab else w + 1 for w, _, _, _, ab in built))

    var_order: list[int] = []
    layers: list[Layer] = []
    slots: list[ChildSlot] = []
    for (w, vo, ly, meta, absorbing), (ch, cneg) in zip(built, pairs):
        slot = ChildSlot(len(layers) + 1, len(layers) + len(ly), meta, w, absorbing,
                         Not(ch) if cneg else ch)
        # parent label u runs child state run[u]; a child state keeps its label
        # unless that label runs nothing (an absorbing child's reject), and
        # then it is the shared reject
        run = [_unembed(u, slot, width) for u in range(width + 1)]
        for t, (m0, m1) in enumerate(ly):
            last = t == len(ly) - 1
            parent_maps = []
            for child_map in (m0, m1):
                pm = []
                for u in range(1, width + 1):
                    target = child_map[run[u] - 1] if run[u] else width
                    pm.append(width if (last and target != 1) or not run[target] else target)
                parent_maps.append(tuple(pm))
            layers.append(tuple(parent_maps))
        var_order.extend(vo)
        slots.append(slot)

    if swap:
        sigma = list(range(1, width + 1))
        sigma[0], sigma[width - 1] = width, 1
        layers[-1] = _relabel(layers[-1], sigma)
    return width, var_order, layers, GateBlock(width, swap, tuple(slots)), not swap


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
    n = _meta_space(b)
    node = trampoline(_witness(b.meta, i, j, d1, d2))
    return simplify(Circuit(node, n))


def _meta_space(b: OrderedBP) -> int:
    return max(b.var_order, default=0) + 1


def _const(truth: bool):
    return Const(1 if truth else 0)


def _witness(meta: Meta, i: int, j: int, d1: int, d2: int):
    """Indicator node for the slice of ``meta``'s program, local layers i..j."""
    if isinstance(meta, ConstBlock):
        # width-1 accept program has no layers; width-2 reject program
        # absorbs everything into state 2
        return _const(d2 == (1 if meta.value == 1 else 2))
    if isinstance(meta, LeafBlock):
        if d1 == 2:
            return _const(d2 == 2)
        if d2 == 1:
            return Leaf(meta.var, negated=meta.sat == 0)
        if d2 == 2:
            return Leaf(meta.var, negated=meta.sat == 1)
        return _const(False)

    total_end = meta.slots[-1].end
    w = meta.width
    swapped = meta.swap and j == total_end

    first = next(s for s in meta.slots if s.start <= i <= s.end)
    last = next(s for s in meta.slots if s.start <= j <= s.end)

    # states without a life line: the shared reject, and labels no child
    # block uses; they ride to the end (and get transposed by a final swap)
    dead_end = 1 if swapped else w
    d1_local = _unembed(d1, first, w)
    if d1_local is None:
        return _const(d2 == dead_end)

    if first is last:
        i_local = i - first.start + 1
        j_local = j - first.start + 1
        if j < first.end:
            return (yield _mid_block_target(first, i_local, j_local, d1_local, d2, w))
        # block boundary: outcomes collapse to accept (1) or reject (w)
        alive = yield _witness(first.meta, i_local, first.end - first.start + 1, d1_local, 1)
        return _boundary_target(alive, d2, w, swapped)

    survive_first = yield _witness(
        first.meta, i - first.start + 1, first.end - first.start + 1, d1_local, 1
    )
    chain = [survive_first]
    for slot in meta.slots:
        if slot.start > first.end and slot.end < last.start:
            chain.append(slot.node)

    if j < last.end:
        j_local = j - last.start + 1
        if d2 == w:
            # dead at j: either the chain broke earlier, or the last child
            # walked into its own absorbing reject
            if last.absorbing:
                avoid = Not((yield _witness(last.meta, 1, j_local, 1, last.width)))
                return Not(And(tuple(chain + [avoid])))
            return Not(And(tuple(chain)))
        d2_local = _unembed(d2, last, w)
        if d2_local is None:
            return _const(False)
        reach = yield _witness(last.meta, 1, j_local, 1, d2_local)
        return And(tuple(chain + [reach]))

    alive = And(tuple(chain + [last.node]))
    return _boundary_target(alive, d2, w, swapped)


def _unembed(state: int, slot: ChildSlot, parent_width: int):
    """Parent label -> child state, or None for junk/dead labels."""
    if state == parent_width:
        return None  # shared reject: dead even when donated by this child
    if state <= (slot.width - 1 if slot.absorbing else slot.width):
        return state
    return None


def _mid_block_target(slot: ChildSlot, i_local, j_local, d1_local, d2, w):
    if d2 == w:
        if slot.absorbing:
            return (yield _witness(slot.meta, i_local, j_local, d1_local, slot.width))
        return _const(False)
    d2_local = _unembed(d2, slot, w)
    if d2_local is None:
        return _const(False)
    return (yield _witness(slot.meta, i_local, j_local, d1_local, d2_local))


def _boundary_target(alive, d2: int, w: int, swapped: bool):
    accept_label = w if swapped else 1
    reject_label = 1 if swapped else w
    if d2 == accept_label:
        return alive
    if d2 == reject_label:
        return Not(alive)
    return _const(False)


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
