"""Synchronized product of a client program with a shared object.

The program side owns the program actions, the object side owns the
internal actions, and calls and returns synchronize both.  Component
idle loops are dropped; the product gets its own idle loop exactly at
states where nothing else is enabled.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .errors import AlphabetMismatch
from .lts import Action, ActionKind, Alphabet, Lts, _idle_completed


class ProductState(NamedTuple):
    """Component state indices of one product state."""

    prog: int
    obj: int


# builds a ProductState from a (prog, obj) pair in C
_product_state = partial(tuple.__new__, ProductState)
# enum members read as globals: ActionKind.X costs a slow class lookup each time
_PROGRAM, _INTERNAL, _IDLE = ActionKind.PROGRAM, ActionKind.INTERNAL, ActionKind.IDLE
# an object state's call/return row and its internal edges
_ObjectSide = tuple[dict[Action, int], list[tuple[Action, int]]]


class ProductLts(Lts):
    """Product LTS remembering which component pair each state is."""

    parts: tuple[ProductState, ...]

    def part(self, s: int) -> ProductState:
        return self.parts[s]


def _check_interfaces(prog: Lts, obj: Lts) -> None:
    pa, oa = prog.alphabet, obj.alphabet
    if pa.internal:
        a = min(pa.internal, key=Action.key)
        raise AlphabetMismatch(a, "program side declares internal actions")
    if oa.program:
        a = min(oa.program, key=Action.key)
        raise AlphabetMismatch(a, "object side declares program actions")
    for label, mine, theirs in (("calls", pa.calls, oa.calls), ("returns", pa.returns, oa.returns)):
        diff = mine ^ theirs
        if diff:
            a = min(diff, key=Action.key)
            side = "program" if a in mine else "object"
            raise AlphabetMismatch(a, f"{label} declared only on the {side} side")
    clash = {a.label() for a in pa.program} & {a.label() for a in oa.internal}
    if clash:
        name = sorted(clash)[0]
        a = next(x for x in pa.program if x.label() == name)
        raise AlphabetMismatch(a, "label used as both a program and an internal action")


def product(prog: Lts, obj: Lts) -> ProductLts:
    """Reachable synchronized product, idle-completed.

    Program actions move the program component alone, internal actions
    move the object alone, and calls and returns require both to move.
    Product states are numbered in breadth-first order, each state's
    successors met in the program's canonical edge order, then the
    object's internal edges in theirs.
    """
    _check_interfaces(prog, obj)
    pa, oa = prog.alphabet, obj.alphabet
    alphabet = Alphabet(
        program=pa.program,
        calls=pa.calls,
        returns=pa.returns,
        internal=oa.internal,
    )

    # Each component state's usable edges, worked out at its first visit:
    # the program's non-idle edges, flagged when the object must join in,
    # and the object's call/return row and internal edges.
    prog_moves: list[list[tuple[Action, int, bool]] | None] = [None] * prog.num_states
    obj_moves: list[_ObjectSide | None] = [None] * obj.num_states

    # the search interns plain (prog, obj) pairs; ProductStates come last
    pairs: list[tuple[int, int]] = [(prog.initial, obj.initial)]
    index: dict[tuple[int, int], int] = {pairs[0]: 0}
    rows: list[dict[Action, int]] = []
    for p, o in pairs:  # pairs grows as the search goes
        own = prog_moves[p]
        if own is None:
            own = prog_moves[p] = [
                (a, pt, a.kind is not _PROGRAM)
                for a, pt in prog.out_edges(p)
                if a.kind is not _IDLE
            ]
        side = obj_moves[o]
        if side is None:
            side = obj_moves[o] = _object_side(obj, o)
        sync, internal = side
        row: dict[Action, int] = {}
        for a, pt, joint in own:
            ot = sync.get(a) if joint else o
            if ot is not None:
                pair = (pt, ot)
                row[a] = t = index.setdefault(pair, len(pairs))
                if t == len(pairs):
                    pairs.append(pair)
        for a, ot in internal:
            pair = (p, ot)
            row[a] = t = index.setdefault(pair, len(pairs))
            if t == len(pairs):
                pairs.append(pair)
        rows.append(row)

    labels = [f"{prog.label_of(p)}|{obj.label_of(o)}" for p, o in pairs]
    prod = ProductLts._from_rows(alphabet, 0, _idle_completed(rows), labels)
    prod.parts = tuple(map(_product_state, pairs))
    return prod


def _object_side(obj: Lts, o: int) -> _ObjectSide:
    """The calls and returns state o enables, and its internal edges."""
    sync: dict[Action, int] = {}
    internal: list[tuple[Action, int]] = []
    for a, ot in obj.out_edges(o):
        if a.kind is _INTERNAL:
            internal.append((a, ot))
        elif a.kind is not _IDLE:
            sync[a] = ot
    return sync, internal
