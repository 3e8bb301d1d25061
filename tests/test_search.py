"""lts.depth_first against the searches it replaced (tests/reference_search.py).

Random graphs of up to 12 nodes, with self-loops, parallel edges, and
starts that repeat or name nodes no edge touches.  depth_first must find
find_cycle's cycle, list _postorder's order on int graphs started from
range(n), and reach every node reachable from the starts exactly once;
simulation._stutter_ranks must give find_cycle's cycle over the stutter
graph's sources in ascending order, or _ranks_from_edges' ranks.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from ltsim.lts import depth_first
from ltsim.simulation import StutterEdge, _stutter_ranks

from conftest import internal
from reference_search import _postorder, _ranks_from_edges, find_cycle

LABELS = [internal("a"), internal("b"), internal("c")]


@st.composite
def graphs(draw):
    """n, edges (source, label, target) over range(n), and starts that may
    repeat and may lie outside range(n)."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, st.sampled_from(LABELS), node), max_size=3 * n))
    starts = draw(st.lists(st.integers(0, n + 2), max_size=n + 3))
    return n, edges, starts


def adjacency(edges, name=lambda i: i):
    succ: dict = {}
    for s, a, t in edges:
        succ.setdefault(name(s), []).append((a, name(t)))
    return lambda node: succ.get(node, [])


def reached(starts, succ) -> set:
    seen, stack = set(starts), list(starts)
    while stack:
        for _, t in succ(stack.pop()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def as_tuple(i: int) -> tuple[int, int]:
    return (i % 3, i // 3)


@settings(max_examples=400, deadline=None)
@given(graphs())
def test_depth_first_finds_find_cycles_cycle(graph):
    n, edges, starts = graph
    for name in (lambda i: i, as_tuple):
        succ = adjacency(edges, name)
        named = [name(s) for s in starts]
        cycle, order = depth_first(named, succ)
        assert cycle == find_cycle(named, succ)
        assert len(order) == len(set(order))
        assert set(order) == reached(named, succ)


@settings(max_examples=400, deadline=None)
@given(graphs())
def test_depth_first_lists_postorders_order(graph):
    n, edges, _ = graph
    steps: list[list[tuple[object, int]]] = [[] for _ in range(n)]
    for s, a, t in edges:
        steps[s].append((a, t))
    assert depth_first(range(n), steps.__getitem__)[1] == _postorder(steps)


@settings(max_examples=400, deadline=None)
@given(graphs(), st.booleans())
def test_stutter_ranks_match_the_cycle_and_the_rank_walk(graph, acyclic):
    n, edges, _ = graph
    if acyclic:  # only edges that climb, so no cycle
        edges = [(s, a, t) for s, a, t in edges if s < t]
    stutters = [StutterEdge(s, a, t, (0,)) for s, a, t in edges]
    cycle, witness = _stutter_ranks(stutters, n)
    succ: dict[int, list[tuple[StutterEdge, int]]] = {}
    for e in stutters:
        succ.setdefault(e.source, []).append((e, e.target))
    want = find_cycle(sorted(succ), lambda s: succ.get(s, ()))
    if want is not None:
        assert (cycle, witness) == (want[1], None)
    else:
        assert cycle is None
        assert witness.rank == _ranks_from_edges(stutters, n).rank
    if acyclic:
        assert witness is not None
