"""Schedulers over LTS traces and their semantic checks.

A scheduler maps every finite trace to a set of next actions, and every
scheduler is a Scheduler subclass.  The ones provided are strategies,
which replay the trace on an LTS while folding a finite memory value.
Finite memory is what makes admissibility, determinism and divergence
checks exact instead of depth-bounded: the reachable (state, memory)
graph is the whole behavior.

Every walk over traces (tree enumeration, the bounded checks,
consistency) carries a cursor per trace instead of replaying it from
the root: cursor() is the cursor of the empty trace, advance(cur, a)
extends it by one action and scheduled(cur) is the scheduled set
there.  A subclass may override the three; one that defines only
schedule(trace) keeps working, because the defaults use the trace
itself as the cursor.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator, Sequence

from .errors import BudgetExceeded, ModelError
from .lts import IDLE, Action, ActionKind, Lasso, Lts, Trace, depth_first, sort_actions

# enum members read as globals: ActionKind.X costs a slow class lookup each time
_IDLE = ActionKind.IDLE
# what a strategy schedules once nothing else is enabled: idle if enabled, else nothing
_ONLY_IDLE = frozenset({IDLE})

DEFAULT_NODE_BUDGET = 1_000_000


def node_budget(budget: int | None = None) -> int:
    return DEFAULT_NODE_BUDGET if budget is None else budget


# --- scheduler kinds ----------------------------------------------------


class Scheduler(ABC):
    """Pure function from finite traces to sets of next actions.

    The cursor methods let a walk extend a trace one action at a time;
    the defaults carry the trace tuple and ask schedule(), so
    overriding schedule() alone is enough.  schedule() may return any
    set; scheduled() returns a frozenset.
    """

    @abstractmethod
    def schedule(self, trace: Trace) -> frozenset[Action] | set[Action]:
        raise NotImplementedError

    def cursor(self) -> Any:
        """Cursor of the empty trace."""
        return ()

    def advance(self, cur: Any, a: Action) -> Any:
        """Cursor of the trace of cur extended by a."""
        return cur + (a,)

    def scheduled(self, cur: Any) -> frozenset[Action]:
        """Scheduled set after the trace of cur."""
        return frozenset(self.schedule(cur))

    def _fold(self, trace: Sequence[Action]) -> Any:
        """Cursor of a whole trace: the fold of advance from cursor()."""
        cur = self.cursor()
        for a in trace:
            cur = self.advance(cur, a)
        return cur


class Strategy(Scheduler):
    """Scheduler realized by replaying the trace on an LTS with finite memory.

    Subclasses override decide() and, when history matters, the memory
    hooks.  Memory values must be hashable; the default is the constant
    None, i.e. a memoryless state-feedback scheduler.  decide() and
    update_memory() must be pure functions of their arguments: a walk
    asks each distinct cursor (state, memory) once and reuses the answer.
    decide() may return any set; scheduled() returns a frozenset.
    """

    def __init__(self, lts: Lts):
        self.lts = lts

    def initial_memory(self) -> Hashable:
        return None

    def update_memory(self, mem: Hashable, state: int, action: Action) -> Hashable:
        return mem

    @abstractmethod
    def decide(self, state: int, mem: Hashable) -> frozenset[Action] | set[Action]:
        raise NotImplementedError

    # cursor: (state, memory), or None once the trace has left the LTS

    def cursor(self) -> tuple[int, Hashable] | None:
        return (self.lts.initial, self.initial_memory())

    def advance(self, cur: tuple[int, Hashable] | None, a: Action) -> tuple[int, Hashable] | None:
        if cur is None:
            return None
        s, mem = cur
        t = self.lts.step(s, a)
        if t is None:
            return None
        return (t, self.update_memory(mem, s, a))

    def scheduled(self, cur: tuple[int, Hashable] | None) -> frozenset[Action]:
        return frozenset() if cur is None else frozenset(self.decide(*cur))

    def schedule(self, trace: Trace) -> frozenset[Action]:
        return self.scheduled(self._fold(trace))


class MaximalStrategy(Strategy):
    """Schedules every enabled action; admitted but rarely deterministic."""

    def decide(self, state: int, mem: Hashable) -> frozenset[Action]:
        return self.lts.enabled(state)


class ObjectFirstStrategy(Strategy):
    """Drains object work before the program moves.

    Internal actions first, then calls and returns, then the whole set
    of enabled program actions, then idle; non-program picks are
    canonical-first singletons, so the scheduler is deterministic.
    """

    def decide(self, state: int, mem: Hashable) -> frozenset[Action]:
        enabled = self.lts.enabled(state)
        alpha = self.lts.alphabet
        for group in (alpha.internal, alpha.cr):
            hits = sort_actions(enabled & group)
            if hits:
                return frozenset({hits[0]})
        prog = enabled & alpha.program
        if prog:
            return frozenset(prog)
        return enabled & _ONLY_IDLE


class FifoStrategy(Strategy):
    """Rotates turns through thread tags, least recently served first.

    Memory is the queue of thread tags (untagged actions share one slot).
    The front-most tag with an enabled action acts, canonical-first.
    """

    def __init__(self, lts: Lts):
        super().__init__(lts)
        tags = {a.thread for a in lts.alphabet.non_idle()}
        self._tags = tuple(sorted(tags, key=lambda t: (t is None, t)))

    def initial_memory(self) -> Hashable:
        return self._tags

    def update_memory(self, mem: Hashable, state: int, action: Action) -> Hashable:
        queue: tuple = mem  # type: ignore[assignment]
        if action.thread in queue:
            return tuple(t for t in queue if t != action.thread) + (action.thread,)
        return queue

    def decide(self, state: int, mem: Hashable) -> frozenset[Action]:
        enabled = self.lts.enabled(state)
        queue: tuple = mem  # type: ignore[assignment]
        for tag in queue:
            hits = sort_actions(a for a in enabled if a.thread == tag and a.kind is not _IDLE)
            if hits:
                return frozenset({hits[0]})
        return enabled & _ONLY_IDLE


# kept in name order, which help and error texts list
STRATEGIES: dict[str, Callable[[Lts], Scheduler]] = {
    "fifo": FifoStrategy,
    "maximal": MaximalStrategy,
    "object-first": ObjectFirstStrategy,
}


def register_strategy(name: str, factory: Callable[[Lts], Scheduler]) -> None:
    """Make factory(lts) available under name to make_scheduler and the CLI.

    A factory that builds a Strategy must keep decide() and
    update_memory() pure (see Strategy).
    """
    STRATEGIES[name] = factory
    for key in sorted(STRATEGIES):
        STRATEGIES[key] = STRATEGIES.pop(key)


def make_scheduler(name: str, lts: Lts) -> Scheduler:
    try:
        factory = STRATEGIES[name]
    except KeyError:
        known = ", ".join(STRATEGIES)
        raise ModelError(f"unknown strategy {name!r} (known: {known})") from None
    return factory(lts)


# --- consistency --------------------------------------------------------


def is_consistent(tau: Sequence[Action], s: Scheduler) -> bool:
    """Every next action of tau is scheduled after the prefix before it."""
    cur = s.cursor()
    for a in tau:
        if a not in s.scheduled(cur):
            return False
        cur = s.advance(cur, a)
    return True


# --- trace prefix trees -------------------------------------------------


class TraceNode:
    """One node of a prefix tree; the root carries action None.

    children maps each next action to its node's position in the tree's
    node_list, in insertion order, and starts empty; parent is the parent
    node itself.  So a tree holds no reference cycle, and reference
    counting frees it.  image and scheduled, None until build_f sets them,
    annotate a mapped trace tree (see MappedTraces).  Nodes compare by
    identity: a node is one place in one tree.  A plain class with
    __slots__, as every trace of a tree is one node.
    """

    __slots__ = ("action", "state", "depth", "parent", "children", "image", "scheduled")

    def __init__(
        self, action: Action | None, state: int, depth: int, parent: "TraceNode | None" = None
    ):
        self.action = action
        self.state = state
        self.depth = depth
        self.parent = parent
        self.children: dict[Action, int] = {}
        self.image: TraceNode | None = None
        self.scheduled: frozenset[Action] | None = None

    def trace(self) -> Trace:
        parts = []
        node = self
        while node.parent is not None:
            parts.append(node.action)
            node = node.parent
        return tuple(reversed(parts))


class TracePrefixTree:
    """Prefix-closed set of bounded traces with per-node annotations.

    node_list holds every node in insertion order, so a parent before
    its children; a walk whose result does not depend on the order
    iterates it rather than the preorder of nodes().  Children name their
    nodes by position in it, so it is only ever appended to.
    """

    def __init__(self, root_state: int):
        self.root = TraceNode(action=None, state=root_state, depth=0)
        self.node_list = [self.root]

    @property
    def size(self) -> int:
        return len(self.node_list)

    def extend(self, node: TraceNode, action: Action, state: int) -> TraceNode:
        i = len(self.node_list)
        if node.children.setdefault(action, i) != i:  # hashes action once
            raise ModelError(f"duplicate child {action.label()} in prefix tree")
        child = TraceNode(action, state, node.depth + 1, node)
        self.node_list.append(child)
        return child

    def nodes(self) -> Iterator[TraceNode]:
        """All nodes, preorder, children in insertion (canonical) order."""
        nodes = self.node_list
        stack = [0]
        while stack:
            node = nodes[stack.pop()]
            yield node
            stack.extend(reversed(node.children.values()))

    def traces(self) -> Iterator[Trace]:
        for node in self.nodes():
            yield node.trace()

    def find(self, trace: Sequence[Action]) -> TraceNode | None:
        node = self.root
        for a in trace:
            if a not in node.children:
                return None
            node = self.node_list[node.children[a]]
        return node

    def leaves(self) -> Iterator[TraceNode]:
        for node in self.nodes():
            if not node.children:
                yield node


def enumerate_traces(
    a: Lts, s: Scheduler, depth: int, budget: int | None = None
) -> TracePrefixTree:
    """The consistent traces of a under s, up to the given length.

    Children of a node are the scheduled actions that are enabled, in
    canonical order, so the tree is reproducible byte for byte.
    """
    return _walk(a, s, depth, budget)[0]


# a problem test: (lts, state, scheduled set) -> what is wrong, or None
Problem = Callable[[Lts, int, frozenset[Action]], "str | None"]


class _Memo(dict):
    """f(key) for each distinct key, computed on its first lookup."""

    def __init__(self, f: Callable[[Any], Any]):
        super().__init__()
        self.f = f

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.f(key)
        return value


def _walk(
    a: Lts,
    s: Scheduler,
    depth: int,
    budget: int | None,
    problems: Sequence[Problem] = (),
    check_depth: int = -1,
    along: TracePrefixTree | None = None,
) -> tuple[Any, list[SchedulerCheck]]:
    """The consistent traces to depth, and each problem's first node.

    One breadth-first walk asks s once per node it expands, or, for a
    strategy, once per distinct cursor.  A problem is tested on each node
    up to check_depth (the root always) until it first occurs; nodes only
    a test reaches stay out of the tree.  The budget caps the tree and,
    while tests run, the nodes tested; tests running when the tree
    overflows finish over the nodes already made, so the error raised is
    the one separate walks would raise, tests first.  A node's ordered
    steps and test verdicts depend only on its state and scheduled set,
    so they are computed once per distinct pair.

    The walk builds a tree of its own, which it returns.  Given along, a
    tree of a, it follows that tree instead and leaves it as it was: a
    step along has reuses along's node, any other step gets a new node
    outside along, and the walk returns the list of nodes it walked to
    depth, parents first, in place of a tree.  A node outside the tree, a
    test's or one off along, is in no children map, only linked to its parent.
    """
    limit = node_budget(budget)

    def steps(key: tuple[int, frozenset[Action]]) -> list[tuple[Action, int]]:
        state, scheduled = key
        return [(x, t) for x in sort_actions(scheduled) if (t := a.step(state, x)) is not None]

    memo = isinstance(s, Strategy)  # its set and next cursors depend on the cursor alone
    at_cursor = _Memo(s.scheduled)
    advanced = _Memo(lambda key: s.advance(*key))
    moves = _Memo(steps)
    verdict = _Memo(lambda key: problems[key[0]](a, key[1], key[2]))
    tree = TracePrefixTree(a.initial) if along is None else along
    walked = tree.node_list if along is None else [tree.root]
    found: list[SchedulerCheck | None] = [None] * len(problems)
    running = len(problems)
    queue: deque[tuple[TraceNode, Any]] = deque([(tree.root, s.cursor())])
    reach = max(check_depth, 0)
    tested = 0
    full = False  # the tree outgrew the budget; only the running tests go on
    while queue:
        node, cur = queue.popleft()
        testing = running and node.depth <= reach
        if testing:
            tested += 1
            if tested > limit:
                raise BudgetExceeded(limit)
        elif full:
            raise BudgetExceeded(limit)
        elif node.depth >= depth:
            continue
        scheduled = at_cursor[cur] if memo else s.scheduled(cur)
        if testing:
            for i in range(len(problems)):
                detail = None if found[i] else verdict[i, node.state, scheduled]
                if detail is not None:
                    found[i] = SchedulerCheck(False, False, node.trace(), detail)
                    running -= 1
        grow = node.depth < depth
        if full or not (grow or (testing and node.depth < check_depth)):
            continue
        for act, t in moves[node.state, scheduled]:
            i = node.children.get(act)  # along's node for the step; a new tree has none
            if i is None:
                child = TraceNode(act, t, node.depth + 1, node)
                if grow and along is None:
                    node.children[act] = len(walked)  # walked is the tree's node_list
            else:
                child = tree.node_list[i]
            if grow:
                walked.append(child)
                if len(walked) > limit:
                    full = True
                    break
            # a leaf at the depth bound is asked only by a test
            if child.depth >= depth and not running:
                nxt = None
            else:
                nxt = advanced[cur, act] if memo else s.advance(cur, act)
            queue.append((child, nxt))
    if full:
        raise BudgetExceeded(limit)
    return tree if along is None else walked, [f or SchedulerCheck(True, False) for f in found]


# --- admissibility and determinism --------------------------------------


@dataclass(frozen=True)
class SchedulerCheck:
    """Verdict of a scheduler property check.

    complete distinguishes exact verdicts (finite-memory walk) from
    depth-bounded ones; witness/detail describe the first violation.
    """

    ok: bool
    complete: bool
    witness: Trace | None = None
    detail: str | None = None


def _strategy_graph(
    s: Strategy, budget: int, decided: dict[tuple[int, Hashable], frozenset[Action]] | None = None
) -> tuple[dict[tuple[int, Hashable], Trace], dict[tuple[int, Hashable], list[tuple[Action, tuple[int, Hashable]]]]]:
    """Reachable (state, memory) nodes of a strategy with shortest access traces.

    Only scheduled-and-enabled moves are followed, so paths in this
    graph are exactly the consistent traces.  decided, when given,
    receives each node's scheduled set.
    """
    lts = s.lts
    start = (lts.initial, s.initial_memory())
    access: dict[tuple[int, Hashable], Trace] = {start: ()}
    edges: dict[tuple[int, Hashable], list[tuple[Action, tuple[int, Hashable]]]] = {}
    queue: deque[tuple[int, Hashable]] = deque([start])
    while queue:
        node = queue.popleft()
        state, mem = node
        out = []
        scheduled = s.decide(state, mem)
        if decided is not None:
            decided[node] = scheduled
        for act in sort_actions(scheduled):
            t = lts.step(state, act)
            if t is None:
                continue
            nxt = (t, s.update_memory(mem, state, act))
            out.append((act, nxt))
            if nxt not in access:
                access[nxt] = access[node] + (act,)
                if len(access) > budget:
                    raise BudgetExceeded(budget)
                queue.append(nxt)
        edges[node] = out
    return access, edges


def _check_scheduled(
    s: Scheduler,
    a: Lts,
    depth: int,
    budget: int | None,
    problems: Sequence[Problem],
    tree_depth: int = 0,
    along: TracePrefixTree | None = None,
) -> tuple[Any, list[SchedulerCheck]]:
    """The consistent traces to tree_depth, and per problem its first trace.

    Exact over the (state, memory) graph for strategies over a; for
    other schedulers, the walk of the tree also tests the traces up to
    depth, and the nodes tested count against the budget.  The traces
    are a tree, or the nodes walked along a given tree (see _walk).
    """
    if not (isinstance(s, Strategy) and s.lts is a):
        return _walk(a, s, tree_depth, budget, problems, depth, along)
    decided: dict[tuple[int, Hashable], frozenset[Action]] = {}
    access, _ = _strategy_graph(s, node_budget(budget), decided)
    checks = [SchedulerCheck(True, True)] * len(problems)
    for i, problem in enumerate(problems):
        for node, trace in access.items():
            detail = problem(a, node[0], decided[node])
            if detail is not None:
                checks[i] = SchedulerCheck(False, True, trace, detail)
                break
    return _walk(a, s, tree_depth, budget, along=along)[0], checks


def _not_admitted(a: Lts, state: int, scheduled: frozenset[Action]) -> str | None:
    if not scheduled:
        return "scheduled set is empty"
    stuck = sort_actions(x for x in scheduled if a.step(state, x) is None)
    if stuck:
        return f"scheduled action {stuck[0].label()} is not enabled"
    return None


def _not_deterministic(prod: Lts, state: int, scheduled: frozenset[Action]) -> str | None:
    if len(scheduled) > 1 and not scheduled <= prod.alphabet.program:
        names = ", ".join(x.label() for x in sort_actions(scheduled))
        return f"scheduled set {{{names}}} is neither program-only nor a singleton"
    return None


def check_admitted(
    s: Scheduler, a: Lts, depth: int, budget: int | None = None
) -> SchedulerCheck:
    """Non-empty and all-enabled scheduling along every consistent trace.

    Exact for strategies over a (finite reachable memory); bounded to
    depth otherwise.
    """
    return _check_scheduled(s, a, depth, budget, [_not_admitted])[1][0]


def check_deterministic_scheduler(
    s: Scheduler, prod: Lts, depth: int, budget: int | None = None
) -> SchedulerCheck:
    """Every scheduled set is program-only or a singleton, along consistent traces."""
    return _check_scheduled(s, prod, depth, budget, [_not_deterministic])[1][0]


def check_scheduler_tree(
    s: Scheduler,
    a: Lts,
    depth: int,
    tree_depth: int,
    budget: int | None = None,
    along: TracePrefixTree | None = None,
) -> tuple[Any, SchedulerCheck, SchedulerCheck]:
    """enumerate_traces to tree_depth with check_admitted and
    check_deterministic_scheduler to depth, from one walk of the traces.

    Given along, a tree of a, the walk follows it without changing it
    and gives the list of nodes walked instead of a tree (see _walk).
    """
    tree, (adm, det) = _check_scheduled(
        s, a, depth, budget, [_not_admitted, _not_deterministic], tree_depth, along
    )
    return tree, adm, det


# --- divergence ---------------------------------------------------------


def find_divergence(
    prod: Lts,
    s: Scheduler,
    gamma_p: frozenset[Action] | set[Action],
    *,
    budget: int | None = None,
) -> Lasso | None:
    """A consistent lasso whose cycle stays inside the silent actions.

    Silent means outside gamma_p and not idle.  Exact for strategies
    over prod: a cycle in the reachable (state, memory) graph repeats
    forever, so a found lasso is a real divergence and absence of one
    is a proof.  Any other scheduler is not searched at all: None then
    proves nothing (the command line reports such a run as unknown).
    """
    if not (isinstance(s, Strategy) and s.lts is prod):
        return None
    access, edges = _strategy_graph(s, node_budget(budget))
    gamma = frozenset(gamma_p)

    def silent_succ(node: tuple[int, Hashable]) -> list[tuple[Action, tuple[int, Hashable]]]:
        return [(a, t) for a, t in edges[node] if a not in gamma and a != IDLE]

    found, _ = depth_first(access, silent_succ)
    return None if found is None else Lasso(stem=access[found[0]], cycle=found[1])
