"""The greedy choice as it was before choices were kept per step block:
one candidate search per (related pair, concrete step); and the steps
forced to stutter for every partner as they were found before they were
read off the greedy blocks: by a rescan of every partner's candidates.

Kept unchanged as the references that tests compare _greedy_choice and
_forced_everywhere_edges with, except that a partner's candidates are
read off its search key's MatchTable column.
"""

from __future__ import annotations

from ltsim.lts import Action, Lts
from ltsim.simulation import ChoiceEntry, MatchTable, Relation, StutterEdge


def reference_greedy_choice(
    a1: Lts, relation: Relation, table: MatchTable
) -> dict[tuple[int, Action, int], ChoiceEntry]:
    """The first candidate landing in the relation, per related pair and step."""
    choice: dict[tuple[int, Action, int], ChoiceEntry] = {}
    for s1 in range(a1.num_states):
        mine = relation.partners(s1)
        if not mine:
            continue
        steps = [(a, table.key(a), relation.partners(s1n)) for a, s1n in a1.out_edges(s1)]
        for s2 in mine:
            for a, key, landing in steps:
                for entry in table.column(key)[s2]:
                    if entry.target in landing:
                        choice[(s1, a, s2)] = entry
                        break
    return choice


def reference_forced_everywhere_edges(
    a1: Lts, relation: Relation, table: MatchTable
) -> list[StutterEdge]:
    """Steps that stutter for every abstract partner of their source."""
    out: list[StutterEdge] = []
    for s1 in a1.reachable():
        mine = relation.partners(s1)
        if not mine:
            continue
        for a, s1n in a1.out_edges(s1):
            landing, column = relation.partners(s1n), table.column(table.key(a))
            if all(
                not any(alpha and t in landing for alpha, t in column[s2])
                for s2 in mine
            ):
                out.append(StutterEdge(s1, a, s1n, tuple(mine)))
    return out
