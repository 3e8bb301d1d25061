"""Forward simulation checking between deterministic LTSs.

A relation F relates concrete to abstract states; each concrete step
s1 -a-> s1' from a related pair must be matched by an abstract action
sequence alpha with the same projection onto an observation alphabet
gamma, landing back in F.  The progressive variant additionally demands
a well-founded order that strictly decreases on every stuttering match
(alpha empty), here realized as a natural-number rank.

The checker computes the greatest such F over all state pairs by
counter-based worklist refinement (Henzinger, Henzinger and Kopke,
FOCS 1995).  Actions and pairs are coded as integers; per concrete edge
and abstract state a counter holds how many distinct landings of the
step's matches are still related.  Pairs with a step that has no match
at all die first and the counters are counted over the rest; each later
death decrements the counters that counted it, and a pair dies when one
of its counters reaches zero.  The cost is
one match search per (concrete action, abstract state), one counter per
(concrete edge, abstract state), and work per dead pair proportional to
the matches landing on it: O(|E1|*|S2| + |S1|*|S2|) up to the number
of landings per match, against one pass over all pairs per round for
a plain sweep.  The deletions come back as a read-only sequence of
(s1, s2, failing action) in deletion order, decoded on access.

complete is False when the alpha bound cut short a search that a sweep
refinement (pairs in product order, each pair's steps in canonical
order until one fails) would consult; such a sweep consults every
search in its first round, so that round is replayed when any search
was cut.  A missing certificate is then inconclusive.

The choice of alpha per (pair, step) prefers non-empty matches, so a
step gets alpha = empty only when nothing else lands in F within the
length bound: the stuttering edges are exactly the forced ones, which
makes the acyclicity test for ranks sharp rather than heuristic.
"""

from __future__ import annotations

import json
from array import array
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress

from .errors import BudgetExceeded, ContractViolation, ParseError
from .lts import Action, Lts, Trace, find_cycle, project

SCHEMA_VERSION = 1


# --- result types -------------------------------------------------------


@dataclass(frozen=True)
class ChoiceEntry:
    """Matching move for one (concrete pair, concrete action): alpha and its landing."""

    alpha: Trace
    target: int


@dataclass(frozen=True)
class SimulationCertificate:
    """A forward simulation presented so a validator can replay every clause."""

    relation: frozenset[tuple[int, int]]
    choice: dict[tuple[int, Action, int], ChoiceEntry]
    gamma: frozenset[Action]
    alpha_bound: int

    def partners(self, s1: int) -> list[int]:
        return sorted(s2 for (c, s2) in self.relation if c == s1)


@dataclass(frozen=True)
class ProgressWitness:
    """Natural-number rank per concrete state; stutter steps must descend."""

    rank: dict[int, int]

    def of(self, s: int) -> int:
        return self.rank.get(s, 0)


@dataclass(frozen=True)
class StutterEdge:
    """One concrete step that only the empty abstract sequence can match."""

    source: int
    action: Action
    target: int
    partners: tuple[int, ...]  # abstract states for which the step is forced


@dataclass(frozen=True)
class StutterCycle:
    """A cycle of forced stuttering steps; no rank can decrease around it."""

    edges: tuple[StutterEdge, ...]

    def states(self) -> list[int]:
        return [e.source for e in self.edges]


@dataclass(frozen=True)
class ForwardResult:
    """Outcome of the greatest-fixpoint computation."""

    certificate: SimulationCertificate | None
    relation: frozenset[tuple[int, int]]
    complete: bool  # False when the alpha length bound may have hidden matches
    deletions: Sequence[tuple[int, int, Action]]  # (s1, s2, failing action), in deletion order


@dataclass(frozen=True)
class ProgressiveResult:
    """Outcome of the progressive check: yes, no, unknown, or no-forward."""

    verdict: str  # "yes" | "no" | "unknown" | "no-forward"
    certificate: SimulationCertificate | None = None
    witness: ProgressWitness | None = None
    cycle: StutterCycle | None = None
    complete: bool = True
    note: str | None = None
    relation: frozenset[tuple[int, int]] = frozenset()  # the greatest forward simulation


def sufficient_alpha_bound(a2: Lts) -> int:
    """Bound making the per-step match search exhaustive.

    A shortest match never revisits an (abstract state, progress bit)
    pair, so its length is at most twice the abstract state count.
    """
    return 2 * a2.num_states


# --- match search -------------------------------------------------------


class MatchTable:
    """Per (concrete action, abstract state) candidate matches, cached.

    Candidates are (alpha, landing) pairs with alpha's projection onto
    gamma equal to the action's, one entry per reachable landing, in
    shortest-then-canonical order; the empty alpha comes last so that
    consumers prefer progress over stuttering.
    """

    def __init__(self, a2: Lts, gamma: frozenset[Action], alpha_bound: int):
        if alpha_bound < 1:
            raise ContractViolation("alpha bound must be at least 1")
        self.a2 = a2
        self.gamma = gamma
        self.alpha_bound = alpha_bound
        self.cut: set[tuple[Action, int]] = set()  # keys whose search the bound cut short
        self._cache: dict[tuple[Action, int], tuple[tuple[Trace, int], ...]] = {}

    def candidates(self, a: Action, s2: int) -> tuple[tuple[Trace, int], ...]:
        hit = self._cache.get((a, s2))
        if hit is None:
            hit = self._search(a, s2)
            self._cache[(a, s2)] = hit
        return hit

    def _search(self, a: Action, s2: int) -> tuple[tuple[Trace, int], ...]:
        observable = a in self.gamma
        # nodes are (abstract state, progress); progress flips on emitting a
        start = (s2, 0)
        best: dict[tuple[int, int], Trace] = {start: ()}
        queue: deque[tuple[int, int]] = deque([start])
        found: list[tuple[Trace, int]] = []
        looped = False  # non-empty silent path back to s2 recorded
        while queue:
            t, progress = queue.popleft()
            alpha = best[(t, progress)]
            if len(alpha) >= self.alpha_bound:
                if any(
                    ((u, progress) not in best and b not in self.gamma)
                    or (not observable and not looped and u == s2 and b not in self.gamma)
                    or (observable and progress == 0 and b == a and (u, 1) not in best)
                    for b, u in self.a2.out_edges(t)
                ):
                    self.cut.add((a, s2))
                continue
            for b, u in self.a2.out_edges(t):
                if b in self.gamma:
                    if not (observable and progress == 0 and b == a):
                        continue
                    node = (u, 1)
                else:
                    node = (u, progress)
                if node in best:
                    # the start node holds the empty sequence, so a real
                    # silent loop back to it is a distinct candidate
                    if node == start and not observable and not looped:
                        looped = True
                        found.append((alpha + (b,), s2))
                    continue
                best[node] = alpha + (b,)
                queue.append(node)
                if node[1] == (1 if observable else 0) and best[node]:
                    found.append((best[node], node[0]))
        if not observable:
            found.append(((), s2))  # stuttering match, deliberately last
        return tuple(found)


def _run_from(lts: Lts, s: int, seq: Sequence[Action]) -> int | None:
    for a in seq:
        nxt = lts.step(s, a)
        if nxt is None:
            return None
        s = nxt
    return s


# --- greatest fixpoint --------------------------------------------------


class DeletionLog(Sequence):
    """Deleted pairs in deletion order, each with the concrete action it failed on.

    Entries are stored as edge * |S2| + s2 codes and decoded on access,
    so a fixpoint that deletes millions of pairs builds no tuple for them.
    """

    def __init__(self, codes: array, width: int, edges: Sequence[tuple[int, Action, int]]):
        self._codes = codes
        self._width = width
        self._edges = edges  # concrete (s1, a, s1') by edge index

    def _decode(self, code: int) -> tuple[int, int, Action]:
        e, s2 = divmod(code, self._width)
        s1, a, _ = self._edges[e]
        return (s1, s2, a)

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._decode(c) for c in self._codes[i]]
        return self._decode(self._codes[i])

    def __iter__(self) -> Iterator[tuple[int, int, Action]]:
        return map(self._decode, self._codes)

    def __contains__(self, item: object) -> bool:
        if not (isinstance(item, tuple) and len(item) == 3):
            return False
        s1, s2, a = item
        if not (isinstance(s2, int) and 0 <= s2 < self._width):
            return False
        for e, (x, b, _) in enumerate(self._edges):
            if x == s1 and b == a:
                return e * self._width + s2 in self._codes
        return False

    def __repr__(self) -> str:
        return f"DeletionLog({len(self)} deletions)"


def _greatest_relation(
    a1: Lts, a2: Lts, table: MatchTable
) -> tuple[set[tuple[int, int]], DeletionLog, bool]:
    """Greatest relation over all pairs, its deletion log, and completeness.

    Counter-based worklist refinement over integer codes: count[e * |S2| + s2]
    holds, for the concrete edge e = (s1, a, s1') and abstract state s2, how
    many distinct landings t of a's matches at s2 still have (s1', t)
    related.  A pair dies when one of its counters reaches zero; the log of
    dead pairs is also the FIFO worklist, and each death after the counters
    were counted decrements the counters that counted it.
    """
    n1, n2 = a1.num_states, a2.num_states
    edges = list(a1.edges())
    code = {a: k for k, a in enumerate(dict.fromkeys(a for _, a, _ in edges))}
    src = [s for s, _, _ in edges]
    dst = [t for _, _, t in edges]
    kind = [code[a] for _, a, _ in edges]
    # distinct landings per (action code, s2), and (code, t) -> [s2] inverted
    landings = [
        [tuple(dict.fromkeys(t for _, t in table.candidates(a, s2))) for s2 in range(n2)]
        for a in code
    ]
    inverse: list[list[list[int]]] = [[[] for _ in range(n2)] for _ in code]
    for k, rows in enumerate(landings):
        for s2, ts in enumerate(rows):
            for t in ts:
                inverse[k][t].append(s2)
    # per concrete state u, the edges into it as (source row, counter row, inverse)
    into: list[list[tuple[int, int, list[list[int]]]]] = [[] for _ in range(n1)]
    for e, (s, t, k) in enumerate(zip(src, dst, kind)):
        into[t].append((s * n2, e * n2, inverse[k]))

    related = bytearray(b"\x01") * (n1 * n2)
    log = array("q")  # dead pairs as edge * n2 + s2, e the step they failed on
    # pairs with a step that has no landing at all die up front, a row at a time
    unmatched = [int.from_bytes(bytes(not ts for ts in rows), "little") for rows in landings]
    for e, k in enumerate(kind):
        row = src[e] * n2
        live = int.from_bytes(related[row : row + n2], "little")
        dead = live & unmatched[k]
        if dead:
            related[row : row + n2] = (live ^ dead).to_bytes(n2, "little")
            log.extend(compress(range(e * n2, e * n2 + n2), dead.to_bytes(n2, "little")))
    # count the related landings of every surviving pair's steps; pairs
    # found dead here stay related until all counting is done, so that
    # their deaths are subtracted once, by the worklist
    count = array("I", bytes(4 * len(edges) * n2))
    dying: list[int] = []
    for e, k in enumerate(kind):
        row, base, rows = src[e] * n2, dst[e] * n2, landings[k]
        for s2 in compress(range(n2), related[row : row + n2]):
            c = 0
            for t in rows[s2]:
                c += related[base + t]
            if c:
                count[e * n2 + s2] = c
            else:
                dying.append(e * n2 + s2)
    head = len(log)  # the counters already exclude the up-front deaths
    for i in dying:
        p = src[i // n2] * n2 + i % n2
        if related[p]:
            related[p] = 0
            log.append(i)
    while head < len(log):
        e, t = divmod(log[head], n2)
        head += 1
        for row, base, inv in into[src[e]]:
            for s2 in inv[t]:
                if related[row + s2]:
                    i = base + s2
                    c = count[i] - 1
                    count[i] = c
                    if not c:
                        related[row + s2] = 0
                        log.append(i)

    complete = not table.cut or not _first_sweep_meets_cut(
        n1, n2, src, dst, kind, landings, [(code[a], s2) for a, s2 in table.cut]
    )
    relation = {divmod(p, n2) for p in compress(range(n1 * n2), related)}
    return relation, DeletionLog(log, n2, edges), complete


def _first_sweep_meets_cut(
    n1: int,
    n2: int,
    src: list[int],
    dst: list[int],
    kind: list[int],
    landings: list[list[tuple[int, ...]]],
    cut: list[tuple[int, int]],
) -> bool:
    """Does a sweep-until-stable refinement consult a search the bound cut?

    Such a refinement visits pairs in product order and checks each
    pair's steps in canonical order until one has no landing left in the
    shrinking relation.  Every search it ever consults, it consults in its
    first sweep, since a pair surviving that sweep had all its steps
    checked there; so replaying the first sweep decides it exactly.
    """
    is_cut = [bytearray(n2) for _ in landings]
    for k, s2 in cut:
        is_cut[k][s2] = 1
    steps: list[list[int]] = [[] for _ in range(n1)]
    for e, s in enumerate(src):
        steps[s].append(e)
    related = bytearray(b"\x01") * (n1 * n2)
    for s1 in range(n1):
        for s2 in range(n2):
            for e in steps[s1]:
                k = kind[e]
                if is_cut[k][s2]:
                    return True
                row = dst[e] * n2
                if not any(related[row + t] for t in landings[k][s2]):
                    related[s1 * n2 + s2] = 0
                    break
    return False


def _greedy_choice(
    a1: Lts, relation: set[tuple[int, int]], table: MatchTable
) -> dict[tuple[int, Action, int], ChoiceEntry]:
    choice: dict[tuple[int, Action, int], ChoiceEntry] = {}
    for s1, s2 in sorted(relation):
        for a, s1n in a1.out_edges(s1):
            for alpha, t in table.candidates(a, s2):
                if (s1n, t) in relation:
                    choice[(s1, a, s2)] = ChoiceEntry(alpha, t)
                    break
    return choice


def check_forward(
    a1: Lts, a2: Lts, gamma: Iterable[Action], alpha_bound: int = 4
) -> ForwardResult:
    """Greatest forward simulation between a1 and a2 for the given gamma.

    Starts from the full product of state sets and deletes pairs with an
    unmatchable step until stable.  A certificate is returned iff the
    initial pair survives; it is valid by construction, and complete is
    False only when the alpha bound cut off some search, in which case a
    missing certificate is inconclusive.
    """
    gamma = frozenset(gamma)
    table = MatchTable(a2, gamma, alpha_bound)
    relation, deletions, complete = _greatest_relation(a1, a2, table)
    if (a1.initial, a2.initial) not in relation:
        return ForwardResult(None, frozenset(relation), complete, deletions)
    cert = SimulationCertificate(
        relation=frozenset(relation),
        choice=_greedy_choice(a1, relation, table),
        gamma=gamma,
        alpha_bound=alpha_bound,
    )
    return ForwardResult(cert, cert.relation, complete, deletions)


# --- progressive check --------------------------------------------------


def _stutter_cycle(edges: Iterable[StutterEdge]) -> tuple[StutterEdge, ...] | None:
    """One cycle of stutter edges, sources tried in ascending order."""
    succ: dict[int, list[tuple[StutterEdge, int]]] = {}
    for e in edges:
        succ.setdefault(e.source, []).append((e, e.target))
    found = find_cycle(sorted(succ), lambda s: succ.get(s, ()))
    return None if found is None else found[1]


def _ranks_from_edges(edges: Iterable[StutterEdge], num_states: int) -> ProgressWitness:
    """Longest-path ranks over the stutter DAG: every edge strictly descends.

    States are ranked in reverse topological order (sinks first), so a
    deep DAG needs no recursion; acyclicity is established by the caller.
    """
    preds: dict[int, list[int]] = {}
    pending = [0] * num_states  # successors per state not ranked yet
    for e in edges:
        preds.setdefault(e.target, []).append(e.source)
        pending[e.source] += 1
    rank = [0] * num_states
    ready = [s for s in range(num_states) if not pending[s]]
    while ready:
        t = ready.pop()
        for s in preds.get(t, ()):
            rank[s] = max(rank[s], rank[t] + 1)
            pending[s] -= 1
            if not pending[s]:
                ready.append(s)
    return ProgressWitness(dict(enumerate(rank)))


def _forced_everywhere_edges(
    a1: Lts, relation: set[tuple[int, int]], table: MatchTable
) -> list[StutterEdge]:
    """Steps that stutter for every abstract partner of their source.

    Any simulation pairs each reachable concrete state with at least one
    partner, and shrinking the relation only removes landing options, so
    a cycle of such steps defeats every rank under any simulation.
    """
    partners: dict[int, list[int]] = {}
    for s1, s2 in relation:
        partners.setdefault(s1, []).append(s2)
    out: list[StutterEdge] = []
    for s1 in a1.reachable():
        mine = partners.get(s1)
        if not mine:
            continue
        for a, s1n in a1.out_edges(s1):
            if all(
                not any(alpha and (s1n, t) in relation for alpha, t in table.candidates(a, s2))
                for s2 in mine
            ):
                out.append(StutterEdge(s1, a, s1n, tuple(sorted(mine))))
    return out


def _backtrack(
    a1: Lts,
    a2: Lts,
    relation: set[tuple[int, int]],
    table: MatchTable,
    budget: int,
) -> dict[tuple[int, Action, int], ChoiceEntry] | None:
    """Complete search for a choice assignment with an acyclic stutter graph.

    Explores only pairs reached from the initial pair through the chosen
    landings, so the certificate relation is the reached set.  Raises
    BudgetExceeded when the tried-assignment count passes the budget.
    The search is depth-first over choice points (obligation, step), one
    suspended generator per open choice point, so its depth is bounded by
    memory rather than by the recursion limit.
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
        for alpha, t in table.candidates(a, s2):
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
            choice[(s1, a, s2)] = ChoiceEntry(alpha, t)
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
            return choice
        frames.append((i, j, attempts(i, j)))
        # resume the newest choice point that has a landing left to try
        while not next(frames[-1][2], False):
            frames.pop()
            if not frames:
                return None
        i, j = frames[-1][0], frames[-1][1] + 1


def check_progressive(
    a1: Lts,
    a2: Lts,
    gamma: Iterable[Action],
    alpha_bound: int = 4,
    backtrack_budget: int = 1_000_000,
) -> ProgressiveResult:
    """Forward simulation with a rank decreasing on every stuttering step.

    The greedy assignment stutters only where forced, so its stutter
    graph acyclic settles yes immediately.  A cycle of steps forced for
    every partner settles no.  Between the two, a budgeted complete
    backtracking over landings decides; running out of budget is an
    unknown carrying the best cycle found.
    """
    gamma = frozenset(gamma)
    table = MatchTable(a2, gamma, alpha_bound)
    relation, _deletions, complete = _greatest_relation(a1, a2, table)
    frozen = frozenset(relation)
    if (a1.initial, a2.initial) not in relation:
        return ProgressiveResult(verdict="no-forward", complete=complete, relation=frozen)

    choice = _greedy_choice(a1, relation, table)
    greedy_edges = [
        StutterEdge(s1, a, a1.step(s1, a), (s2,))
        for (s1, a, s2), entry in sorted(
            choice.items(), key=lambda kv: (kv[0][0], kv[0][1].key(), kv[0][2])
        )
        if not entry.alpha
    ]
    cycle = _stutter_cycle(greedy_edges)
    if cycle is None:
        cert = SimulationCertificate(frozenset(relation), choice, gamma, alpha_bound)
        witness = _ranks_from_edges(greedy_edges, a1.num_states)
        return ProgressiveResult(
            verdict="yes", certificate=cert, witness=witness, complete=complete,
            relation=frozen,
        )

    forced = _forced_everywhere_edges(a1, relation, table)
    forced_cycle = _stutter_cycle(forced)
    if forced_cycle is not None:
        return ProgressiveResult(
            verdict="no",
            cycle=StutterCycle(forced_cycle),
            complete=complete,
            note="every abstract partner stutters on each cycle step",
            relation=frozen,
        )

    try:
        solved = _backtrack(a1, a2, relation, table, backtrack_budget)
    except BudgetExceeded:
        return ProgressiveResult(
            verdict="unknown",
            cycle=StutterCycle(cycle),
            complete=complete,
            note=f"backtracking budget {backtrack_budget} exceeded",
            relation=frozen,
        )
    if solved is None:
        return ProgressiveResult(
            verdict="no",
            cycle=StutterCycle(cycle),
            complete=complete,
            note="no landing assignment admits a rank (complete search)",
            relation=frozen,
        )
    used = {(s1, s2) for (s1, _a, s2) in solved} | {(a1.initial, a2.initial)}
    landing_pairs = {(a1.step(s1, a), e.target) for (s1, a, _s2), e in solved.items()}
    cert_relation = frozenset(used | landing_pairs)
    edges = [
        StutterEdge(s1, a, a1.step(s1, a), (s2,))
        for (s1, a, s2), e in solved.items()
        if not e.alpha
    ]
    cert = SimulationCertificate(cert_relation, solved, gamma, alpha_bound)
    witness = _ranks_from_edges(edges, a1.num_states)
    return ProgressiveResult(
        verdict="yes", certificate=cert, witness=witness, complete=complete,
        relation=frozen,
    )


# --- validation ---------------------------------------------------------


def validate_certificate(
    cert: SimulationCertificate,
    witness: ProgressWitness | None,
    a1: Lts,
    a2: Lts,
    max_diagnostics: int = 20,
) -> tuple[bool, list[str]]:
    """Replay every certificate clause; the trusted core of the package.

    Checks the initial pair, and for each related pair and concrete step:
    a recorded choice, equal gamma projections, abstract replay to the
    recorded landing, landing membership, and rank descent on stutters.
    """
    problems: list[str] = []

    def report(msg: str) -> None:
        if len(problems) < max_diagnostics:
            problems.append(msg)

    if (a1.initial, a2.initial) not in cert.relation:
        report("initial pair not in relation")
    for s1, s2 in sorted(cert.relation):
        for a, s1n in a1.out_edges(s1):
            entry = cert.choice.get((s1, a, s2))
            if entry is None:
                report(f"no choice for ({s1}, {a.label()}, {s2})")
                continue
            if project((a,), cert.gamma) != project(entry.alpha, cert.gamma):
                report(f"projection mismatch at ({s1}, {a.label()}, {s2})")
            landed = _run_from(a2, s2, entry.alpha)
            if landed is None:
                report(f"alpha does not replay at ({s1}, {a.label()}, {s2})")
                continue
            if landed != entry.target:
                report(
                    f"alpha lands in {landed}, recorded target {entry.target} "
                    f"at ({s1}, {a.label()}, {s2})"
                )
            if (s1n, entry.target) not in cert.relation:
                report(f"landing ({s1n}, {entry.target}) not in relation")
            if witness is not None and not entry.alpha:
                if witness.of(s1n) >= witness.of(s1):
                    report(
                        f"rank does not descend on stutter ({s1}, {a.label()}, {s1n}): "
                        f"{witness.of(s1)} -> {witness.of(s1n)}"
                    )
    return (not problems, problems)


def validate_stutter_cycle(
    cycle: StutterCycle,
    a1: Lts,
    a2: Lts,
    gamma: Iterable[Action],
    alpha_bound: int,
    relation: frozenset[tuple[int, int]],
) -> tuple[bool, list[str]]:
    """Replay a stutter cycle: real steps, closed, and stuttering is forced.

    Forced means: for each recorded partner, no non-empty alpha within
    the bound lands the step back in the relation.
    """
    problems: list[str] = []
    table = MatchTable(a2, frozenset(gamma), alpha_bound)
    edges = cycle.edges
    if not edges:
        return False, ["empty cycle"]
    for i, e in enumerate(edges):
        if a1.step(e.source, e.action) != e.target:
            problems.append(f"edge {i} is not a transition of the concrete LTS")
        nxt = edges[(i + 1) % len(edges)]
        if e.target != nxt.source:
            problems.append(f"edge {i} does not chain into edge {(i + 1) % len(edges)}")
        if not e.partners:
            problems.append(f"edge {i} records no abstract partner")
        for s2 in e.partners:
            if (e.source, s2) not in relation:
                problems.append(f"edge {i}: partner {s2} not related to {e.source}")
            if any(
                alpha and (e.target, t) in relation
                for alpha, t in table.candidates(e.action, s2)
            ):
                problems.append(
                    f"edge {i}: partner {s2} has a non-stuttering match"
                )
    return (not problems, problems)


# --- serialization ------------------------------------------------------


def certificate_to_dict(
    cert: SimulationCertificate, witness: ProgressWitness | None = None
) -> dict:
    data: dict = {
        "schema_version": SCHEMA_VERSION,
        "gamma": sorted(a.label() for a in cert.gamma),
        "alpha_bound": cert.alpha_bound,
        "relation": sorted([s1, s2] for s1, s2 in cert.relation),
        "choices": [
            {
                "s1": s1,
                "action": a.label(),
                "s2": s2,
                "alpha": [b.label() for b in entry.alpha],
                "target": entry.target,
            }
            for (s1, a, s2), entry in sorted(
                cert.choice.items(), key=lambda kv: (kv[0][0], kv[0][1].key(), kv[0][2])
            )
        ],
    }
    if witness is not None:
        data["ranks"] = {str(s): r for s, r in sorted(witness.rank.items())}
    return data


def certificate_from_dict(
    data: dict, a1: Lts, a2: Lts
) -> tuple[SimulationCertificate, ProgressWitness | None]:
    by_label: dict[str, Action] = {}
    for action in sorted(a1.alphabet.all_actions | a2.alphabet.all_actions, key=Action.key):
        by_label.setdefault(action.label(), action)

    def resolve(label: str) -> Action:
        action = by_label.get(label)
        if action is None:
            raise ParseError(f"unknown action {label!r} in certificate")
        return action

    try:
        gamma = frozenset(resolve(x) for x in data["gamma"])
        relation = frozenset((int(p[0]), int(p[1])) for p in data["relation"])
        choice = {
            (int(c["s1"]), resolve(c["action"]), int(c["s2"])): ChoiceEntry(
                tuple(resolve(x) for x in c["alpha"]), int(c["target"])
            )
            for c in data["choices"]
        }
        cert = SimulationCertificate(
            relation=relation,
            choice=choice,
            gamma=gamma,
            alpha_bound=int(data["alpha_bound"]),
        )
        witness = None
        if "ranks" in data:
            ranks = data["ranks"]
            if not isinstance(ranks, dict) or not all(type(v) is int for v in ranks.values()):
                raise ValueError("ranks must map state numbers to integers")
            witness = ProgressWitness({int(k): v for k, v in ranks.items()})
    except (KeyError, TypeError, IndexError, ValueError) as e:
        raise ParseError(f"malformed certificate: {e}") from None
    return cert, witness


def stutter_cycle_to_dict(cycle: StutterCycle) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "edges": [
            {
                "source": e.source,
                "action": e.action.label(),
                "target": e.target,
                "partners": list(e.partners),
            }
            for e in cycle.edges
        ],
    }


def dumps_certificate(
    cert: SimulationCertificate, witness: ProgressWitness | None = None
) -> str:
    return json.dumps(certificate_to_dict(cert, witness), indent=2, sort_keys=True) + "\n"
