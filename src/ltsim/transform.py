"""Turning a concrete scheduler into an abstract one along a simulation.

Given products P x O1 and P x O2, a simulation certificate between the
objects, and a scheduler S1 for the concrete product, this module maps
every bounded concrete trace to an abstract one (program actions map to
themselves, object actions to the certificate's chosen alpha), then
derives the abstract scheduler S2 that schedules exactly the mapped
traces.  The structural facts that make S2 well defined are exposed as
five executable checks over the bounded trees, plus a bounded
comparison of the two projected trace sets.

Every check walks its trees once and computes what it needs of a node
from the node's parent: the scheduler's cursor (S2's is its image-tree
node), the projection as an id in a trie, or preorder spans for
ancestry.  No check replays a trace from the root, so each is linear in
tree size; traces are spelled out only for counterexamples.  S2's
traces are walked along the image tree itself, reusing its nodes, so
checking S2 copies no tree: a node is made only where a step of S2
leaves the image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .composition import ProductLts
from .errors import BudgetExceeded, ContractViolation, DepthExhausted
from .lts import IDLE, Action, ActionKind, Lts, Trace, depth_first, sort_actions
from .scheduler import (
    Scheduler,
    SchedulerCheck,
    TraceNode,
    TracePrefixTree,
    _Memo,
    _ONLY_IDLE,
    check_scheduler_tree,
    enumerate_traces,
    node_budget,
)
from .simulation import SimulationCertificate

# enum members read as globals: ActionKind.X costs a slow class lookup each time
_PROGRAM, _IDLE = ActionKind.PROGRAM, ActionKind.IDLE


def _fmt(trace: Trace) -> str:
    return "·".join(a.label() for a in trace) if trace else "ε"


# --- the mapping m ------------------------------------------------------


def mapping_m(
    cs: int, a: Action, as_: int, cert: SimulationCertificate
) -> Trace:
    """Abstract action sequence matching one concrete action.

    Program actions map to themselves.  Object actions (calls, returns,
    internal) use the certificate's fixed choice for the object-state
    pair, so the same inputs always give the same sequence.
    """
    if a.kind is _PROGRAM:
        return (a,)
    if a.kind is _IDLE:
        raise ContractViolation("the idle action has no object-level mapping")
    if (cs, as_) not in cert.relation:
        raise ContractViolation(f"object states ({cs}, {as_}) are not related")
    entry = cert.choice.get((cs, a, as_))
    if entry is None:
        raise ContractViolation(
            f"certificate has no choice for ({cs}, {a.label()}, {as_})"
        )
    return entry.alpha


# --- mapped trace trees -------------------------------------------------


@dataclass
class MappedTraces:
    """Bounded concrete trace tree with its abstract image tree.

    Every concrete node u carries u.image, the image-tree node of its
    mapped trace; an image node v carries v.scheduled, the scheduled set
    derived from the governing diagram (None while the bounded tree
    cannot determine it).  conflicts records
    image nodes that two diagrams tried to annotate differently, which
    a deterministic concrete scheduler never produces.  budget is the
    node budget build_f was given, which a deeper rebuild reuses.
    """

    concrete: TracePrefixTree
    image: TracePrefixTree
    prod1: ProductLts
    prod2: ProductLts
    cert: SimulationCertificate
    s1: Scheduler
    depth: int
    conflicts: list[str] = field(default_factory=list)
    budget: int | None = None

    @property
    def gamma_p(self) -> frozenset[Action]:
        return self.prod1.alphabet.gamma_p

    def linked(self) -> Iterator[tuple[TraceNode, TraceNode]]:
        for node in self.concrete.nodes():
            yield node, node.image

    def frontier(self) -> list[TraceNode]:
        """Concrete leaves sitting at the depth bound (truncated futures), in insertion order."""
        return [u for u in self.concrete.node_list if u.depth >= self.depth and not u.children]

    def settled_image_length(self) -> int | None:
        """Image length below which the image tree is complete.

        Anything shorter than every frontier leaf's image is fully
        determined; None means no frontier (the tree closed early).
        """
        frontier = self.frontier()
        if not frontier:
            return None
        return min(u.image.depth for u in frontier)


def build_f(
    prod1: ProductLts,
    s1: Scheduler,
    prod2: ProductLts,
    cert: SimulationCertificate,
    depth: int,
    budget: int | None = None,
) -> MappedTraces:
    """Map every bounded concrete trace to its abstract image.

    Walks the consistent traces of prod1 under s1 to the given depth;
    each step extends the image by the mapped sequence, replayed on
    prod2.  The empty trace maps to the empty trace.  The idle action
    maps to itself when enabled at the image state and to the empty
    sequence otherwise.  A step's mapped sequence and its replay depend
    only on the two end states and the action, so each distinct one is
    computed once.
    """
    for prod, name in ((prod1, "concrete"), (prod2, "abstract")):
        if not isinstance(prod, ProductLts):
            raise ContractViolation(f"{name} system is not a product")
    if prod1.alphabet.gamma_p != prod2.alphabet.gamma_p:
        raise ContractViolation("products disagree on program, call or return actions")

    limit = node_budget(budget)
    gamma_p = prod1.alphabet.gamma_p

    concrete = enumerate_traces(prod1, s1, depth, budget=limit)
    image = TracePrefixTree(prod2.initial)
    mt = MappedTraces(concrete, image, prod1, prod2, cert, s1, depth, budget=budget)

    concrete.root.image = image.root

    def image_path(key: tuple[int, Action, int]) -> tuple[list[tuple], Action | None]:
        """One concrete step's image, as (action, annotation, prod2 state
        reached) up to its first action prod2 cannot take, and that action
        (None when all replay).  The annotation None stands for the
        concrete node's scheduled set."""
        state1, a, state2 = key
        if a == IDLE:
            alpha: Trace = (IDLE,) if prod2.step(state2, IDLE) is not None else ()
        else:
            alpha = mapping_m(prod1.part(state1).obj, a, prod2.part(state2).obj, cert)
        steps = []
        for b in alpha:
            nxt = prod2.step(state2, b)
            if nxt is None:
                return steps, b
            steps.append((b, None if b in gamma_p else frozenset({b}), nxt))
            state2 = nxt
        return steps, None

    paths = _Memo(image_path)
    concrete_nodes, image_nodes = concrete.node_list, image.node_list
    for u in concrete.nodes():
        if not u.children:
            continue
        v = u.image
        scheduled = frozenset(u.children)  # = s1 choices that are enabled
        for a, i in u.children.items():
            u2 = concrete_nodes[i]
            steps, stuck = paths[u.state, a, v.state]
            w = v
            for b, value, nxt_state in steps:
                value = value or scheduled
                prev = w.scheduled
                if prev is None:
                    w.scheduled = value
                elif prev is not value and prev != value:
                    _conflict(mt, w, prev, value)
                j = w.children.get(b)
                if j is None:
                    w = image.extend(w, b, nxt_state)
                    if len(image_nodes) > limit:
                        raise BudgetExceeded(limit, f"image tree exceeded the node budget {limit}")
                else:
                    w = image_nodes[j]
            if stuck is not None:
                raise ContractViolation(
                    f"image of {_fmt(u2.trace())} does not replay: "
                    f"{stuck.label()} not enabled after {_fmt(w.trace())}"
                )
            u2.image = w
    return mt


def _conflict(mt: MappedTraces, w: TraceNode, prev: frozenset[Action], value: frozenset[Action]) -> None:
    mt.conflicts.append(
        f"image node {_fmt(w.trace())} scheduled as "
        f"{{{', '.join(a.label() for a in sort_actions(prev))}}} and "
        f"{{{', '.join(a.label() for a in sort_actions(value))}}}"
    )


# --- the abstract scheduler ---------------------------------------------


# An S2 cursor is (tree, node) for a node of an image tree, (None, trace)
# for a trace inside the unbuilt fringe, or _OFF_IMAGE once a step has
# left the image, which no later step undoes.
_OFF_IMAGE = (None, None)


class S2Scheduler(Scheduler):
    """Scheduler of exactly the image traces.

    Inside the image tree it returns the annotated set: the concrete
    scheduler's set when the next image action is a program, call or
    return action, and the singleton next action otherwise.  Traces
    outside the image get the idle singleton, which no consistent trace
    ever reaches.

    A query the tree leaves open is answered by rebuilding the mapped
    trees 4 deeper, with mt's budget, up to a cap (the first depth plus
    twice the concrete state count plus 8), and only where a deeper tree
    can answer it.  A deeper tree adds concrete nodes only below frontier
    leaves, whose images are at least the settled image length L deep, so
    the image tree and its annotations shorter than L never change.  So
    S2 rebuilds only for a trace of at least L actions whose first L are
    a path of the image tree, and otherwise, or with no frontier (every
    concrete trace ended before the depth), or at the cap, raises
    DepthExhausted at once, naming the cap.

    A cursor is an image-tree node and its tree, so a walk costs one
    child lookup per step.  In the unbuilt fringe, or on a tree that a
    deeper rebuild has since replaced, it falls back to the trace itself.
    """

    def __init__(self, mt: MappedTraces):
        self.mt = mt
        self.max_depth = mt.depth + 2 * mt.prod1.num_states + 8

    def cursor(self) -> tuple:
        image = self.mt.image
        return (image, image.root)

    def advance(self, cur: tuple, a: Action) -> tuple:
        image, at = cur
        if image is None:  # off the image, or a trace in the unbuilt fringe
            return cur if at is None else (None, at + (a,))
        if image is not self.mt.image:  # on a tree a rebuild has replaced
            return (None, at.trace() + (a,))
        i = at.children.get(a)
        if i is not None:
            return (image, image.node_list[i])
        value = at.scheduled
        if value is None or (a in value and self.mt.prod2.step(at.state, a) is not None):
            return (None, at.trace() + (a,))  # inside the unbuilt fringe
        return _OFF_IMAGE

    def _value(self, cur: tuple) -> frozenset[Action] | None:
        """Scheduled set at a cursor, None when the current tree leaves it open."""
        image, at = cur
        if image is self.mt.image:
            return at.scheduled
        if at is None:
            return _ONLY_IDLE
        return None

    def scheduled(self, cur: tuple) -> frozenset[Action]:
        value = self._value(cur)
        if value is not None:
            return value
        image, at = cur
        trace = at if image is None else at.trace()
        value = self._value(self._fold(trace))
        while value is None:
            mt = self.mt
            settled = mt.settled_image_length()
            if (
                settled is None
                or len(trace) < settled
                or mt.image.find(trace[:settled]) is None
                or mt.depth >= self.max_depth
            ):
                raise DepthExhausted(len(trace) + 1, self.max_depth)
            self.mt = build_f(
                mt.prod1, mt.s1, mt.prod2, mt.cert, min(mt.depth + 4, self.max_depth), budget=mt.budget
            )
            value = self._value(self._fold(trace))
        return value

    def schedule(self, trace: Trace) -> frozenset[Action]:
        return self.scheduled(self._fold(trace))


def construct_s2(mt: MappedTraces) -> S2Scheduler:
    """The abstract scheduler derived from a mapped trace tree (see S2Scheduler)."""
    return S2Scheduler(mt)


# --- per-node facts computed from the parent ----------------------------


def _preorder(tree: TracePrefixTree) -> tuple[list[TraceNode], dict[TraceNode, int], list[int]]:
    """Nodes in preorder, their preorder numbers and subtree sizes by number.

    a is an ancestor of b (or b itself) iff number[a] <= number[b] <
    number[a] + size[number[a]].
    """
    order = list(tree.nodes())
    number = {node: i for i, node in enumerate(order)}
    size = [1] * len(order)
    for i in range(len(order) - 1, 0, -1):
        size[number[order[i].parent]] += size[i]  # type: ignore[index]
    return order, number, size


class _Projections(dict):
    """Projections of node traces onto an alphabet, as ids in one trie.

    A node's id is its parent's id extended by its action when that
    action is in the alphabet; equal ids mean equal projections, across
    trees too.  Id 0 is the empty trace, and ids count up in the order
    their (parent id, action) keys appear.  The mapping holds the id of
    each node numbered.  number(tree.node_list) numbers a whole tree in
    one parents-first pass, one parent lookup per node; a tree is numbered
    before any of its nodes is looked up.
    """

    def __init__(self, sigma: frozenset[Action]):
        super().__init__()
        self.sigma = sigma
        self.length = [0]
        self._child: dict[tuple[int, Action], int] = {}

    def number(self, nodes: Iterable[TraceNode]) -> list[int]:
        """The ids of nodes given parents first, such as a tree's node_list."""
        child, length, sigma = self._child, self.length, self.sigma
        out = []
        for node in nodes:
            parent = node.parent
            pid = 0 if parent is None else self[parent]
            a = node.action
            if a in sigma:
                key = (pid, a)
                nxt = child.get(key)
                if nxt is None:
                    nxt = child[key] = len(length)
                    length.append(length[pid] + 1)
                pid = nxt
            self[node] = pid
            out.append(pid)
        return out

    def trace(self, pid: int) -> Trace:
        keys = list(self._child)  # the key of id i is keys[i - 1]
        out = []
        while pid:
            pid, a = keys[pid - 1]
            out.append(a)
        return tuple(reversed(out))


# --- lemma checks -------------------------------------------------------


@dataclass(frozen=True)
class LemmaResult:
    """Verdict of one bounded structural check, with a counterexample on failure."""

    lemma: int
    ok: bool
    counterexample: str | None = None
    checked: int = 0


def _check_projection(mt: MappedTraces) -> LemmaResult:
    """Image traces project onto program, call and return actions unchanged.

    Also confirms the linked end states agree on the program component
    and are certificate-related on the object component.
    """
    proj = _Projections(mt.gamma_p)
    proj.number(mt.concrete.node_list)
    proj.number(mt.image.node_list)
    checked = 0
    for u, v in mt.linked():
        checked += 1
        if proj[u] != proj[v]:
            return LemmaResult(1, False, f"projections differ at {_fmt(u.trace())}", checked)
        p1 = mt.prod1.part(u.state)
        p2 = mt.prod2.part(v.state)
        if p1.prog != p2.prog:
            return LemmaResult(
                1, False, f"program components differ at {_fmt(u.trace())}", checked
            )
        if (p1.obj, p2.obj) not in mt.cert.relation:
            return LemmaResult(
                1, False, f"object states unrelated at {_fmt(u.trace())}", checked
            )
    return LemmaResult(1, True, None, checked)


def _check_common_prefix(mt: MappedTraces) -> LemmaResult:
    """Equal image projections force a prefix chain with silent surplus.

    Concrete traces whose images share the same program-action content
    must be prefixes of one another, the longer adding only actions
    outside the program, call and return alphabet (internal or idle).
    """
    proj = _Projections(mt.gamma_p)
    proj.number(mt.concrete.node_list)
    proj.number(mt.image.node_list)
    groups: dict[int, list[TraceNode]] = {}
    for u, v in mt.linked():
        groups.setdefault(proj[v], []).append(u)
    _, number, size = _preorder(mt.concrete)
    checked = 0
    for nodes in groups.values():
        nodes.sort(key=lambda n: n.depth)
        for prev, cur in zip(nodes, nodes[1:]):
            checked += 1
            i = number[prev]
            if not i <= number[cur] < i + size[i]:
                return LemmaResult(
                    2,
                    False,
                    f"{_fmt(prev.trace())} and {_fmt(cur.trace())} share image projections "
                    "but neither extends the other",
                    checked,
                )
            # cur extends prev, so the surplus is observable iff the projection grew
            if proj.length[proj[cur]] > proj.length[proj[prev]]:
                return LemmaResult(
                    2,
                    False,
                    f"surplus of {_fmt(cur.trace())} over {_fmt(prev.trace())} "
                    "contains an observable action",
                    checked,
                )
    return LemmaResult(2, True, None, checked)


def _check_unique_diagram(mt: MappedTraces) -> LemmaResult:
    """Each image prefix is governed by exactly one expansion step.

    Equivalent bounded form: the empty trace maps to the empty trace,
    images are prefix-monotone along every concrete step, and no two
    diagrams annotated one image node differently.
    """
    if mt.concrete.root.image is not mt.image.root:
        return LemmaResult(3, False, "the empty trace does not map to the empty trace", 1)
    checked = 1
    nodes = mt.concrete.node_list
    for u, v in mt.linked():
        for a, i in u.children.items():
            u2 = nodes[i]
            checked += 1
            v2 = u2.image
            node, hops = v2, v2.depth - v.depth
            if hops < 0:
                return LemmaResult(
                    3, False, f"image shrinks on step {a.label()} after {_fmt(u.trace())}", checked
                )
            for _ in range(hops):
                node = node.parent
            if node is not v:
                return LemmaResult(
                    3,
                    False,
                    f"image of {_fmt(u2.trace())} does not extend the image of its prefix",
                    checked,
                )
    if mt.conflicts:
        return LemmaResult(3, False, mt.conflicts[0], checked)
    return LemmaResult(3, True, None, checked)


def _check_common_origin(mt: MappedTraces) -> LemmaResult:
    """A shared image prefix always comes from a shared concrete prefix.

    For each image node, the concrete nodes whose image passes through
    it must contain a unique shallowest member that is an ancestor of
    all of them; that ancestor is the common concrete prefix.
    """
    order, _, size = _preorder(mt.concrete)
    # the users of an image node: concrete nodes whose image passes through it,
    # summed up as (depth, number) of the shallowest, first in preorder among
    # equals, and the least and greatest preorder number; keys in the order
    # a walk up from each user's image first touches them
    users: dict[TraceNode, tuple[int, int, int, int] | None] = {}
    for i, u in enumerate(order):
        image = v = u.image
        while v is not None and v not in users:
            users[v] = None
            v = v.parent
        users[image] = _join_users(users[image], (u.depth, i, i, i))
    for v in sorted(users, key=lambda n: n.depth, reverse=True):
        if v.parent is not None:
            users[v.parent] = _join_users(users[v.parent], users[v])  # type: ignore[arg-type]

    checked = 0
    for v, (_, top, lo, hi) in users.items():  # type: ignore[misc]
        checked += 1
        if top <= lo and hi < top + size[top]:
            continue  # every user lies in the shallowest one's subtree
        # name the first user, in preorder, outside that subtree
        below_v: dict[TraceNode, bool] = {v: True}
        for i, u in enumerate(order):
            path = []
            w: TraceNode | None = u.image
            while w is not None and w not in below_v:
                path.append(w)
                w = w.parent
            hit = w is not None and below_v[w]
            below_v.update(dict.fromkeys(path, hit))
            if hit and not top <= i < top + size[top]:
                return LemmaResult(
                    4,
                    False,
                    f"image prefix {_fmt(v.trace())} is shared by {_fmt(order[top].trace())} "
                    f"and {_fmt(u.trace())}, which share no governing concrete prefix",
                    checked,
                )
    return LemmaResult(4, True, None, checked)


def _join_users(
    a: tuple[int, int, int, int] | None, b: tuple[int, int, int, int]
) -> tuple[int, int, int, int]:
    if a is None:
        return b
    depth, top = min(a[:2], b[:2])
    return (depth, top, min(a[2], b[2]), max(a[3], b[3]))


def _check_step_equivalence(mt: MappedTraces, s2: Scheduler) -> LemmaResult:
    """Scheduled-and-enabled extensions coincide with image membership.

    At every determined image node, the actions the abstract scheduler
    may take (scheduled and enabled) are exactly the node's children in
    the image tree.
    """
    checked = 0
    nodes = mt.image.node_list
    stack = [(mt.image.root, s2.cursor())]  # preorder, each node with its cursor
    while stack:
        v, cur = stack.pop()
        stack.extend((nodes[i], s2.advance(cur, a)) for a, i in reversed(v.children.items()))
        value = v.scheduled
        if value is None:
            continue  # beyond what the bounded tree determines
        scheduled = s2.scheduled(cur)
        if scheduled != value:
            return LemmaResult(
                5,
                False,
                f"scheduler disagrees with the annotation at {_fmt(v.trace())}",
                checked,
            )
        checked += 1
        feasible = frozenset(
            a for a in scheduled if mt.prod2.step(v.state, a) is not None
        )
        children = frozenset(v.children)
        if feasible != children:
            missing = sort_actions(feasible ^ children)
            return LemmaResult(
                5,
                False,
                f"after {_fmt(v.trace())}: scheduled extensions and image children "
                f"differ on {missing[0].label()}",
                checked,
            )
    return LemmaResult(5, True, None, checked)


def check_lemma(lemma_id: int, mt: MappedTraces, s2: Scheduler | None = None) -> LemmaResult:
    """Run one of the five bounded structural checks (see each checker)."""
    if lemma_id == 1:
        return _check_projection(mt)
    if lemma_id == 2:
        return _check_common_prefix(mt)
    if lemma_id == 3:
        return _check_unique_diagram(mt)
    if lemma_id == 4:
        return _check_common_origin(mt)
    if lemma_id == 5:
        if s2 is None:
            raise ContractViolation("the step equivalence check needs the abstract scheduler")
        return _check_step_equivalence(mt, s2)
    raise ContractViolation(f"no such check: {lemma_id}")


def check_all_lemmas(mt: MappedTraces, s2: Scheduler) -> list[LemmaResult]:
    """The five structural checks, in order."""
    return [check_lemma(i, mt, s2) for i in (1, 2, 3, 4, 5)]


# --- trace set comparison -----------------------------------------------


@dataclass(frozen=True)
class EqualityResult:
    """Outcome of a bounded trace-set comparison.

    For image equality, lhs_size counts the image nodes to the compare
    length and rhs_size the nodes of S2's walk; for projection equality
    both count distinct projections.  counterexample names the smallest
    trace (by length, then canonical order) on one side only.
    """

    ok: bool
    compare_length: int | None  # None means unbounded (both sides saturated)
    counterexample: str | None = None
    lhs_size: int = 0
    rhs_size: int = 0


def _smallest(traces: Iterable[Trace]) -> Trace:
    """First trace by length, then canonical action order."""
    return min(traces, key=lambda t: (len(t), tuple(a.key() for a in t)))


def _image_equality(image: TracePrefixTree, walked: list[TraceNode], depth2: int) -> EqualityResult:
    """The image tree cut at depth2 against the tree of a walk along it.

    walked lists the walk's nodes, parents first: image nodes, and new
    nodes where a step the image lacks leaves it.  The differences are the
    new nodes whose parent is an image node (only scheduled) and the image
    children of walked image nodes that the walk does not take (only an
    image prefix).  Each lies one step below a node both trees share, so
    the smallest lies at the least depth with any.
    """
    lhs_size = sum(1 for v in image.node_list if v.depth <= depth2)
    off: set[TraceNode] = set()
    found: list[tuple[TraceNode, bool]] = []
    for c in walked[1:]:
        parent = c.parent
        if parent in off:
            off.add(c)
        elif c.action not in parent.children:  # type: ignore[union-attr]
            off.add(c)
            found.append((c, True))
    if len(walked) - len(off) < lhs_size:  # some image node is not walked
        on = set(walked) - off
        found.extend(
            (d, False)
            for v in on
            if v.depth < depth2
            for i in v.children.values()
            if (d := image.node_list[i]) not in on
        )
    if not found:
        return EqualityResult(True, depth2, None, lhs_size, len(walked))
    first = min(node.depth for node, _ in found)
    side = {node.trace(): in_rhs for node, in_rhs in found if node.depth == first}
    diff = _smallest(side)
    kind = "only scheduled" if side[diff] else "only an image prefix"
    return EqualityResult(False, depth2, f"{_fmt(diff)} is {kind}", lhs_size, len(walked))


def _saturated_states(prod: Lts, sigma_p: frozenset[Action]) -> set[int]:
    """States from which no program action is reachable any more: those
    depth_first does not reach backwards from the program edges' sources."""
    pred: list[list[tuple[Action, int]]] = [[] for _ in range(prod.num_states)]
    starts = []
    for s, a, t in prod.edges():
        pred[t].append((a, s))
        if a in sigma_p:
            starts.append(s)
    _, can = depth_first(starts, pred.__getitem__)
    return set(range(prod.num_states)).difference(can)


def _complete_projection_length(
    nodes: list[TraceNode], depth: int, prod: Lts, proj: _Projections
) -> int | None:
    """Largest projection length the bounded traces are guaranteed to cover.

    nodes are a tree's nodes, or a walk's, cut at depth, so a node at
    depth is a leaf of the frontier.  A frontier leaf that can still
    reach a program action caps the guarantee at the program actions
    already on its path; None means no cap (every frontier leaf is
    saturated).  proj must have numbered nodes.
    """
    saturated = _saturated_states(prod, proj.sigma)
    caps = [
        proj.length[proj[leaf]]
        for leaf in nodes
        if leaf.depth >= depth and leaf.state not in saturated
    ]
    return min(caps) if caps else None


def _projection_equality(mt: MappedTraces, walked: list[TraceNode], depth2: int, depth: int) -> EqualityResult:
    proj = _Projections(mt.prod1.alphabet.program)  # one trie, so equal projections get equal ids
    lhs = set(proj.number(mt.concrete.node_list))
    rhs = set(proj.number(walked))
    lhs_cap = _complete_projection_length(mt.concrete.node_list, mt.depth, mt.prod1, proj)
    rhs_cap = _complete_projection_length(walked, depth2, mt.prod2, proj)
    caps = [c for c in (lhs_cap, rhs_cap, depth) if c is not None]
    bound = min(caps) if caps else None
    if bound is not None:
        lhs = {i for i in lhs if proj.length[i] <= bound}
        rhs = {i for i in rhs if proj.length[i] <= bound}
    if lhs == rhs:
        return EqualityResult(True, bound, None, len(lhs), len(rhs))
    shortest = min(proj.length[i] for i in lhs ^ rhs)
    side = {proj.trace(i): i in rhs for i in lhs ^ rhs if proj.length[i] == shortest}
    diff = _smallest(side)
    kind = "abstract-only" if side[diff] else "concrete-only"
    return EqualityResult(False, bound, f"{kind} projection {_fmt(diff)}", len(lhs), len(rhs))


# --- all checks of the abstract scheduler ---------------------------------


class S2Checks(NamedTuple):
    """The four checks of a derived scheduler, and the settled image length."""

    settled: int | None
    admitted: SchedulerCheck
    deterministic: SchedulerCheck
    images: EqualityResult
    projections: EqualityResult

    @property
    def ok(self) -> bool:
        return self.admitted.ok and self.deterministic.ok and self.images.ok and self.projections.ok


def check_s2(mt: MappedTraces, s2: Scheduler, depth: int, budget: int | None = None) -> S2Checks:
    """Admission, determinism, image and projection equality of s2, from one walk.

    With L the settled image length, s2's traces of mt.prod2 are walked
    once, to L, along mt.image: a step the image tree has reuses its
    node, and only a step that leaves the image makes a node, which
    stays out of mt.image.  The walk gives what check_admitted and
    check_deterministic_scheduler give to L - 1 (admitted, deterministic).
    Its traces must be those of the image tree cut at L (images), and
    their projections onto mt.prod1's program actions the concrete
    tree's (projections), compared up to the longest projection both
    sides are sure to cover, capped by depth.  When the concrete tree
    closed before mt.depth, L is the image tree's depth and the first two
    checks run to mt.depth.
    An error of the walk, such as a spent budget, is raised; the budget
    counts the walk's nodes, reused or not.
    """
    settled = mt.settled_image_length()
    if settled is None:
        depth2, check_depth = max(v.depth for v in mt.image.node_list), mt.depth
    else:
        depth2, check_depth = settled, settled - 1
    walked, adm, det = check_scheduler_tree(
        s2, mt.prod2, check_depth, depth2, budget=budget, along=mt.image
    )
    images = _image_equality(mt.image, walked, depth2)
    projections = _projection_equality(mt, walked, depth2, depth)
    return S2Checks(settled, adm, det, images, projections)
