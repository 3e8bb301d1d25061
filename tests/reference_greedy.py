"""The greedy choice as it was before choices were kept per step block:
one candidate search per (related pair, concrete step).

Kept unchanged as the reference that tests compare _greedy_choice with.
"""

from __future__ import annotations

from ltsim.lts import Action, Lts
from ltsim.simulation import ChoiceEntry, MatchTable, Relation


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
                for entry in table.matches(key, s2):
                    if entry.target in landing:
                        choice[(s1, a, s2)] = entry
                        break
    return choice
