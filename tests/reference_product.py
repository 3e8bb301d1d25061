"""The product as it was before it worked out each component state's
usable edges once: every product state redoes the program/call/return
split and the object's internal filter, and the LTS is built from a
(state, action) -> state mapping.

Kept unchanged as the reference that tests compare product with: state
numbering, parts, labels, alphabet and every state's edge order.
"""

from __future__ import annotations

from collections import deque

from ltsim.composition import ProductLts, ProductState, _check_interfaces
from ltsim.lts import Action, ActionKind, Alphabet, Lts


def reference_product(prog: Lts, obj: Lts) -> ProductLts:
    """Reachable synchronized product, idle-completed.

    Program actions move the program component alone, internal actions
    move the object alone, and calls and returns require both to move.
    """
    _check_interfaces(prog, obj)
    pa, oa = prog.alphabet, obj.alphabet
    alphabet = Alphabet(
        program=pa.program,
        calls=pa.calls,
        returns=pa.returns,
        internal=oa.internal,
    )

    start = ProductState(prog.initial, obj.initial)
    index: dict[ProductState, int] = {start: 0}
    parts: list[ProductState] = [start]
    transitions: dict[tuple[int, Action], int] = {}
    queue: deque[ProductState] = deque([start])

    def intern(ps: ProductState) -> int:
        i = index.get(ps)
        if i is None:
            i = len(parts)
            index[ps] = i
            parts.append(ps)
            queue.append(ps)
        return i

    while queue:
        ps = queue.popleft()
        s = index[ps]
        for a, pt in prog.out_edges(ps.prog):
            if a.kind is ActionKind.IDLE:
                continue
            if a in pa.program:
                transitions[(s, a)] = intern(ProductState(pt, ps.obj))
            else:  # call or return: the object must also enable it
                ot = obj.step(ps.obj, a)
                if ot is not None:
                    transitions[(s, a)] = intern(ProductState(pt, ot))
        for a, ot in obj.out_edges(ps.obj):
            if a in oa.internal:
                transitions[(s, a)] = intern(ProductState(ps.prog, ot))

    sources = {s for (s, _a) in transitions}
    for s in range(len(parts)):
        if s not in sources:
            transitions[(s, alphabet.idle)] = s

    labels = [f"{prog.label_of(ps.prog)}|{obj.label_of(ps.obj)}" for ps in parts]
    prod = ProductLts(alphabet, len(parts), 0, transitions, labels)
    prod.parts = tuple(parts)
    return prod
