"""The progressive search as it was before it kept an explicit undo stack:
one suspended generator per open choice point, whose resumption retracts
the landing it applied last.

Kept unchanged as the reference that tests compare _backtrack with,
except that it is named reference_backtrack and returns its choices as a
flat dict keyed by (s1, action, s2), in the order they were made.
"""

from __future__ import annotations

from collections.abc import Iterator

from ltsim.errors import BudgetExceeded
from ltsim.lts import Action, Lts
from ltsim.simulation import ChoiceEntry, MatchTable, Relation


def reference_backtrack(
    a1: Lts,
    a2: Lts,
    relation: Relation,
    table: MatchTable,
    budget: int,
) -> tuple[dict[tuple[int, Action, int], ChoiceEntry], set[tuple[int, int]]] | None:
    """Complete search for a choice assignment with an acyclic stutter graph.

    Explores only pairs reached from the initial pair through the chosen
    landings, and returns the choices with the reached set, which is the
    certificate relation.  Raises BudgetExceeded when the tried-assignment
    count passes the budget.  The search is depth-first over choice points
    (obligation, step), one suspended generator per open choice point, so
    its depth is bounded by memory rather than by the recursion limit.
    """
    init = (a1.initial, a2.initial)
    spent = 0
    obligations: list[tuple[int, int]] = [init]
    supported: set[tuple[int, int]] = {init}
    choice: dict[tuple[int, Action, int], ChoiceEntry] = {}
    stutter: set[tuple[int, Action, int]] = set()
    stutter_succ: dict[int, list[int]] = {}  # adjacency of the stutter edges
    steps: dict[int, list[tuple[Action, int]]] = {}

    def steps_of(s1: int) -> list[tuple[Action, int]]:
        if s1 not in steps:
            steps[s1] = list(a1.out_edges(s1))
        return steps[s1]

    def stutter_reaches(src: int, dst: int) -> bool:
        seen = {src}
        stack = [src]
        while stack:
            s = stack.pop()
            if s == dst:
                return True
            for y in stutter_succ.get(s, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    def attempts(i: int, j: int) -> Iterator[bool]:
        """Apply each admissible landing for step j of obligation i in turn;
        resuming retracts the one applied last."""
        nonlocal spent
        s1, s2 = obligations[i]
        a, s1n = steps_of(s1)[j]
        for entry in table.column(table.key(a))[s2]:
            alpha, t = entry
            if (s1n, t) not in relation:
                continue
            spent += 1
            if spent > budget:
                raise BudgetExceeded(budget)
            is_stutter = not alpha
            edge = (s1, a, s1n)
            if is_stutter and (s1 == s1n or stutter_reaches(s1n, s1)):
                continue  # would close a stutter cycle
            added_pair = (s1n, t) not in supported
            if added_pair:
                supported.add((s1n, t))
                obligations.append((s1n, t))
            # another obligation may already force this edge to stutter;
            # only the choice point that inserted it may remove it
            added_edge = is_stutter and edge not in stutter
            if added_edge:
                stutter.add(edge)
                stutter_succ.setdefault(s1, []).append(s1n)
            choice[(s1, a, s2)] = entry
            yield True
            del choice[(s1, a, s2)]
            if added_edge:
                stutter.discard(edge)
                stutter_succ[s1].remove(s1n)
            if added_pair:
                supported.discard((s1n, t))
                obligations.pop()

    frames: list[tuple[int, int, Iterator[bool]]] = []
    i = j = 0  # the next choice point to open
    while True:
        while i < len(obligations) and j == len(steps_of(obligations[i][0])):
            i, j = i + 1, 0
        if i == len(obligations):
            return choice, supported
        frames.append((i, j, attempts(i, j)))
        # resume the newest choice point that has a landing left to try
        while not next(frames[-1][2], False):
            frames.pop()
            if not frames:
                return None
        i, j = frames[-1][0], frames[-1][1] + 1
