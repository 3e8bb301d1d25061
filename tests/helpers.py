"""Test fixtures that no library code uses: a scheduler given by a finite
table of traces, and whether an LTS enables some action at every state."""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ltsim.lts import Action, Lts, Trace
from ltsim.scheduler import Scheduler


class TableScheduler(Scheduler):
    """Finite explicit table; traces outside the table get the empty set."""

    def __init__(self, table: Mapping[Sequence[Action], Any]):
        self._table: dict[Trace, frozenset[Action]] = {
            tuple(k): frozenset(v) for k, v in table.items()
        }

    def schedule(self, trace: Trace) -> frozenset[Action]:
        return self._table.get(tuple(trace), frozenset())


def is_idle_complete(lts: Lts) -> bool:
    return all(lts.enabled(s) for s in range(lts.num_states))
