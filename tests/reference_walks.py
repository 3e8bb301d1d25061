"""The scheduler walks as they were before one walk served every check:
enumerate_traces and the bounded admission and determinism checks each
walk the traces themselves, and each equality check enumerates its own
tree of the abstract scheduler.

Kept unchanged as the reference that tests compare the shared walk and
check_s2 with, error included, except that the projection check numbers
both trees before it reads a node's projection id, that a child is
read as a position in its tree's node_list, and that a walk asks the
scheduler itself where it asked walker(s), as every scheduler is now a
Scheduler subclass.  The two tree comparisons that the reference
equality checks use are kept here with them.

ReferenceS2 is the derived scheduler as it was before one rule decided
when it rebuilds its mapped trees: asked at a trace its tree leaves
open, it rebuilds them 4 deeper until the trace is answered, the cap is
reached or the tree has no frontier.  Kept as the reference that tests
compare S2Scheduler's answers and rebuild counts with, except that its
switch to never rebuild is gone and a rebuild uses the budget recorded
on the mapped trees.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from ltsim.errors import BudgetExceeded, DepthExhausted
from ltsim.lts import Action, Lts, sort_actions
from ltsim.scheduler import (
    Scheduler,
    SchedulerCheck,
    Strategy,
    TraceNode,
    TracePrefixTree,
    _strategy_graph,
    node_budget,
)
from ltsim.transform import (
    EqualityResult,
    MappedTraces,
    S2Scheduler,
    _fmt,
    _Projections,
    _saturated_states,
    _smallest,
    build_f,
)


def reference_enumerate_traces(
    a: Lts, s: Scheduler, depth: int, budget: int | None = None
) -> TracePrefixTree:
    """The consistent traces of a under s, up to the given length.

    Children of a node are the scheduled actions that are enabled, in
    canonical order, so the tree is reproducible byte for byte.
    """
    limit = node_budget(budget)
    w = s
    tree = TracePrefixTree(a.initial)
    queue: deque[tuple[TraceNode, Any]] = deque([(tree.root, w.cursor())])
    while queue:
        node, cur = queue.popleft()
        if node.depth >= depth:
            continue
        for act in sort_actions(w.scheduled(cur)):
            t = a.step(node.state, act)
            if t is None:
                continue
            child = tree.extend(node, act, t)
            if tree.size > limit:
                raise BudgetExceeded(limit)
            # a leaf at the depth bound is never scheduled, so it needs no cursor
            queue.append((child, w.advance(cur, act) if child.depth < depth else None))
    return tree


def _check_scheduled(
    s: Scheduler,
    a: Lts,
    depth: int,
    budget: int | None,
    problem: Callable[[int, frozenset[Action]], str | None],
) -> SchedulerCheck:
    """First consistent trace whose state and scheduled set have a problem.

    Exact over the (state, memory) graph for strategies over a; for
    other schedulers, a breadth-first walk of the consistent traces up
    to depth whose popped nodes count against the budget.
    """
    limit = node_budget(budget)
    if isinstance(s, Strategy) and s.lts is a:
        access, _ = _strategy_graph(s, limit)
        for (state, mem), trace in access.items():
            detail = problem(state, s.decide(state, mem))
            if detail is not None:
                return SchedulerCheck(False, True, trace, detail)
        return SchedulerCheck(True, True)

    # queue entries: (path, length, cursor, state); a path is (parent path, action)
    w = s
    queue: deque[tuple[Any, int, Any, int]] = deque([(None, 0, w.cursor(), a.initial)])
    seen = 0
    while queue:
        path, length, cur, state = queue.popleft()
        seen += 1
        if seen > limit:
            raise BudgetExceeded(limit)
        scheduled = w.scheduled(cur)
        detail = problem(state, scheduled)
        if detail is not None:
            witness = []
            while path is not None:
                path, act = path
                witness.append(act)
            return SchedulerCheck(False, False, tuple(reversed(witness)), detail)
        if length < depth:
            for act in sort_actions(scheduled):
                t = a.step(state, act)
                if t is not None:
                    queue.append(((path, act), length + 1, w.advance(cur, act), t))
    return SchedulerCheck(True, False)


def reference_check_admitted(
    s: Scheduler, a: Lts, depth: int, budget: int | None = None
) -> SchedulerCheck:
    """Non-empty and all-enabled scheduling along every consistent trace.

    Exact for strategies over a (finite reachable memory); bounded to
    depth otherwise.
    """

    def problem(state: int, scheduled: frozenset[Action]) -> str | None:
        if not scheduled:
            return "scheduled set is empty"
        stuck = sort_actions(x for x in scheduled if a.step(state, x) is None)
        if stuck:
            return f"scheduled action {stuck[0].label()} is not enabled"
        return None

    return _check_scheduled(s, a, depth, budget, problem)


def reference_check_deterministic_scheduler(
    s: Scheduler, prod: Lts, depth: int, budget: int | None = None
) -> SchedulerCheck:
    """Every scheduled set is program-only or a singleton, along consistent traces."""
    program = prod.alphabet.program

    def problem(state: int, scheduled: frozenset[Action]) -> str | None:
        if len(scheduled) > 1 and not scheduled <= program:
            names = ", ".join(x.label() for x in sort_actions(scheduled))
            return f"scheduled set {{{names}}} is neither program-only nor a singleton"
        return None

    return _check_scheduled(s, prod, depth, budget, problem)


def _first_divergence(
    lhs: TracePrefixTree, rhs: TracePrefixTree, depth: int
) -> tuple[tuple[Action, ...], bool] | None:
    """Smallest trace in exactly one of two trees, lhs cut at depth.

    Walks both trees in step, level by level; the smallest difference
    is a child of a shared node, so the first level with one holds it.
    Returns the trace and whether it is in rhs.
    """
    level = [(lhs.root, rhs.root)]
    while level:
        found: list[tuple[TraceNode, bool]] = []
        shared = []
        for x, y in level:
            if x.depth >= depth:
                continue
            left, right = x.children, y.children
            matched = 0
            for a, i in left.items():
                j = right.get(a)
                if j is None:
                    found.append((lhs.node_list[i], False))
                else:
                    shared.append((lhs.node_list[i], rhs.node_list[j]))
                    matched += 1
            if matched < len(right):
                found.extend((rhs.node_list[j], True) for a, j in right.items() if a not in left)
        if found:
            side = {node.trace(): in_rhs for node, in_rhs in found}
            diff = _smallest(side)
            return diff, side[diff]
        level = shared
    return None


def _complete_projection_length(
    tree: TracePrefixTree, depth: int, prod: Lts, proj: _Projections
) -> int | None:
    """Largest projection length the bounded tree is guaranteed to cover.

    A frontier leaf that can still reach a program action caps the
    guarantee at the program actions already on its path; None means no
    cap (every frontier leaf is saturated).  proj must have numbered tree.
    """
    saturated = _saturated_states(prod, proj.sigma)
    caps = [
        proj.length[proj[leaf]]
        for leaf in tree.node_list
        if leaf.depth >= depth and not leaf.children and leaf.state not in saturated
    ]
    return min(caps) if caps else None


def reference_check_image_equality(
    mt: MappedTraces, s2: Scheduler, budget: int | None = None
) -> EqualityResult:
    """The abstract scheduler admits exactly the image prefixes, bounded.

    Compares consistent traces of prod2 under s2 against image-tree
    traces, both restricted to the settled image length.
    """
    settled = mt.settled_image_length()
    depth2 = settled if settled is not None else max(v.depth for v in mt.image.nodes())
    rhs_tree = reference_enumerate_traces(mt.prod2, s2, depth2, budget=budget)
    lhs_size = sum(1 for v in mt.image.nodes() if v.depth <= depth2)
    found = _first_divergence(mt.image, rhs_tree, depth2)
    if found is None:
        return EqualityResult(True, depth2, None, lhs_size, rhs_tree.size)
    diff, in_rhs = found
    side = "only scheduled" if in_rhs else "only an image prefix"
    return EqualityResult(False, depth2, f"{_fmt(diff)} is {side}", lhs_size, rhs_tree.size)


def reference_check_projection_equality(
    mt: MappedTraces,
    s2: Scheduler,
    sigma_p: frozenset[Action],
    depth: int,
    budget: int | None = None,
) -> EqualityResult:
    """Projected trace sets of both scheduled systems coincide, bounded.

    Projections are compared up to the largest length both bounded
    trees are guaranteed to cover completely, additionally capped by
    the requested depth.
    """
    settled = mt.settled_image_length()
    depth2 = settled if settled is not None else max(v.depth for v in mt.image.nodes())
    rhs_tree = reference_enumerate_traces(mt.prod2, s2, depth2, budget=budget)

    proj = _Projections(sigma_p)  # one trie, so equal projections get equal ids
    proj.number(mt.concrete.node_list)
    proj.number(rhs_tree.node_list)
    lhs_cap = _complete_projection_length(mt.concrete, mt.depth, mt.prod1, proj)
    rhs_cap = _complete_projection_length(rhs_tree, depth2, mt.prod2, proj)
    caps = [c for c in (lhs_cap, rhs_cap, depth) if c is not None]
    bound = min(caps) if caps else None

    def gather(tree: TracePrefixTree) -> set[int]:
        ids = (proj[node] for node in tree.nodes())
        return {i for i in ids if bound is None or proj.length[i] <= bound}

    lhs = gather(mt.concrete)
    rhs = gather(rhs_tree)
    if lhs == rhs:
        return EqualityResult(True, bound, None, len(lhs), len(rhs))
    shortest = min(proj.length[i] for i in lhs ^ rhs)
    side = {proj.trace(i): i in rhs for i in lhs ^ rhs if proj.length[i] == shortest}
    diff = _smallest(side)
    kind = "abstract-only" if side[diff] else "concrete-only"
    return EqualityResult(False, bound, f"{kind} projection {_fmt(diff)}", len(lhs), len(rhs))


class ReferenceS2(S2Scheduler):
    """S2Scheduler with the rebuild loop it had before: a query the tree
    leaves open rebuilds the mapped trees 4 deeper, up to the cap, unless
    the concrete tree has no frontier."""

    def scheduled(self, cur: tuple) -> frozenset[Action]:
        value = self._value(cur)
        if value is not None:
            return value
        image, at = cur
        trace = at if image is None else at.trace()
        value = self._value(self._fold(trace))
        while value is None:
            if self.mt.depth >= self.max_depth or not self.mt.frontier():
                raise DepthExhausted(len(trace) + 1, self.max_depth)
            self.mt = build_f(
                self.mt.prod1,
                self.mt.s1,
                self.mt.prod2,
                self.mt.cert,
                min(self.mt.depth + 4, self.max_depth),
                budget=self.mt.budget,
            )
            value = self._value(self._fold(trace))
        return value
