"""Lts.__init__ as it was before every construction went through per-state
rows: each transition of the mapping is checked in the mapping's order,
and each state's row is sorted into canonical action order.

Kept unchanged as the reference that tests compare Lts construction
with: the first ModelError a faulty mapping raises, and the rows built.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ltsim.errors import ModelError
from ltsim.lts import Action, ActionKind, Alphabet, sort_actions


class ReferenceLts:
    """Lts.__init__ at the parent; rows() lists each state's edges in order."""

    def __init__(
        self,
        alphabet: Alphabet,
        num_states: int,
        initial: int,
        transitions: Mapping[tuple[int, Action], int],
        labels: Sequence[Any] | None = None,
    ):
        if not (0 <= initial < num_states):
            raise ModelError(f"initial state {initial} out of range 0..{num_states - 1}")
        if labels is not None and len(labels) != num_states:
            raise ModelError(f"{len(labels)} labels for {num_states} states")
        known = alphabet.all_actions
        out: list[dict[Action, int]] = [dict() for _ in range(num_states)]
        for (s, a), t in transitions.items():
            if not (0 <= s < num_states) or not (0 <= t < num_states):
                raise ModelError(f"transition ({s}, {a.label()}, {t}) has a dangling state index")
            if a not in known:
                raise ModelError(f"transition on {a.label()} not in the declared alphabet")
            if a.kind is ActionKind.IDLE and t != s:  # a is known: it is the alphabet's idle
                raise ModelError(f"idle transition {s} -> {t} must be a self-loop")
            out[s][a] = t
        self.alphabet = alphabet
        self.num_states = num_states
        self.initial = initial
        self.labels = tuple(labels) if labels is not None else None
        # canonical per-state order, used for reproducible iteration
        self._out: tuple[dict[Action, int], ...] = tuple(
            {a: row[a] for a in sort_actions(row)} for row in out
        )

    def rows(self) -> list[list[tuple[Action, int]]]:
        return [list(row.items()) for row in self._out]
