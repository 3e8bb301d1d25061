"""The two depth-first searches and the rank walk as they were before
lts.depth_first replaced them: find_cycle, which stops at the first back
edge; _postorder, a second DFS over integer step lists; and
_ranks_from_edges, which ranked a stutter graph known to be acyclic.

Kept unchanged as the references that tests compare depth_first and
simulation._stutter_ranks with.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from ltsim.lts import Action
from ltsim.simulation import ProgressWitness, StutterEdge

_Node = TypeVar("_Node", bound=Hashable)
_Label = TypeVar("_Label")


def find_cycle(
    starts: Iterable[_Node], succ: Callable[[_Node], Iterable[tuple[_Label, _Node]]]
) -> tuple[_Node, tuple[_Label, ...]] | None:
    """The first cycle met by an iterative back-edge DFS (Tarjan, 1972).

    Starts are tried in the given order and successors in the order succ
    yields its (label, node) pairs.  Returns the node the back edge
    closes on and the labels around the cycle from that node back to
    itself, or None when no cycle is reachable from the starts.  Depth
    is bounded by memory, not by the recursion limit.
    """
    color: dict[_Node, int] = {}  # 1 = on the DFS path, 2 = done
    for start in starts:
        if start in color:
            continue
        color[start] = 1
        stack: list[tuple[_Node, Iterator[tuple[_Label, _Node]]]] = [(start, iter(succ(start)))]
        path: list[_Label] = []  # labels of the edges between stack entries
        while stack:
            node, it = stack[-1]
            step = next(it, None)
            if step is None:
                color[node] = 2
                stack.pop()
                if path:
                    path.pop()
                continue
            label, nxt = step
            mark = color.get(nxt)
            if mark == 1:
                idx = next(i for i, (n, _) in enumerate(stack) if n == nxt)
                return nxt, tuple(path[idx:]) + (label,)
            if mark is None:
                color[nxt] = 1
                path.append(label)
                stack.append((nxt, iter(succ(nxt))))
    return None


def _postorder(steps: list[list[tuple[int, int]]]) -> list[int]:
    """Every state once, each after the states its steps reach first.

    An iterative DFS over the step lists, roots in ascending state order,
    so its depth is bounded by memory rather than by the recursion limit.
    """
    order: list[int] = []
    seen = bytearray(len(steps))
    for root in range(len(steps)):
        if seen[root]:
            continue
        seen[root] = 1
        stack = [(root, iter(steps[root]))]
        while stack:
            s, it = stack[-1]
            for _, t in it:
                if not seen[t]:
                    seen[t] = 1
                    stack.append((t, iter(steps[t])))
                    break
            else:
                stack.pop()
                order.append(s)
    return order


def _ranks_from_edges(edges: Iterable[StutterEdge], num_states: int) -> ProgressWitness:
    """Longest-path ranks over the stutter DAG: every edge strictly descends.

    States are ranked in _postorder's DFS order, each after the states its
    edges reach, so a deep DAG needs no recursion; acyclicity is
    established by the caller.
    """
    succ: list[list[tuple[Action, int]]] = [[] for _ in range(num_states)]
    for e in edges:
        succ[e.source].append((e.action, e.target))
    rank = [0] * num_states
    for s in _postorder(succ):
        rank[s] = max((rank[t] + 1 for _, t in succ[s]), default=0)
    return ProgressWitness(dict(enumerate(rank)))
