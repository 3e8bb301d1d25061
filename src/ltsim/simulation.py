"""Forward simulation checking between deterministic LTSs.

A relation F relates concrete to abstract states; each concrete step
s1 -a-> s1' from a related pair must be matched by an abstract action
sequence alpha with the same projection onto an observation alphabet
gamma, landing back in F.  The progressive variant additionally demands
a well-founded order that strictly decreases on every stuttering match
(alpha empty), here realized as a natural-number rank.

The checker computes the greatest such F over all state pairs by row
refinement over bitsets.  Each concrete state has one Python int whose
bit s2 is set iff abstract state s2 is related, so every row, image and
mask is an |S2|-bit int; one helper decodes a row's set bits, clearing
the lowest set bit in turn when the row is sparse and reading bin()'s
digits when it is dense.  A step s1 -a-> t keeps exactly the abstract
states whose a-matches land in t's row, the predecessor image of that
row, so checking a row is one AND per step.  Rows start
full; a worklist of concrete states re-checks a row whenever a successor
row shrank, so a state's first check drops the partners with a step
that has no match at all.  The worklist starts in the postorder of
lts.depth_first, the package's one depth-first search, successors
first, so most rows are checked once, against final successor rows.
Rows take few distinct values (728 over 4-thread FAA's refinement), so
the fixpoint keeps one object per distinct row value, with its bits,
decoded once when its first image is asked for, and its image under
each search key, computed once as an OR per abstract state in the row;
a full row's image under a key is every abstract state where that key
has a match, read off the match table, so the full row is never
decoded.  The result is a Relation, a Set over the final rows that
decodes each distinct row value once, when its partners are first asked
for.  One breadth-first search per abstract state, run before
refinement starts, finds the matches of every concrete action, each a
ChoiceEntry built in C; after that the match table is only read, one
search key at every abstract state, with the states where the bound cut
that key's search short.  The fixpoint reads each step's search code
from a dict filled once per action.  In the worst case every row
shrinks one partner at a time and every image is new, O(|E1|*|S2|^2)
ORs of |S2|-bit ints; on the case studies the rows shrink fast and few
images are computed.

complete is False when the alpha bound cut short a search that a sweep
refinement (pairs in product order, each pair's steps in canonical
order until one fails) would consult; such a sweep consults every
search in its first round, so that round is replayed when the search
of any key a concrete step uses was cut.  A missing certificate is then
inconclusive.

The choice of alpha per (pair, step) prefers non-empty matches, so a
step gets alpha = empty only when nothing else lands in F within the
length bound: the stuttering edges are exactly the forced ones, which
makes the acyclicity test for ranks sharp rather than heuristic, and a
step is forced for every partner iff all its choices stutter.  A choice
is the MatchTable's own candidate entry, shared by every pair that
picks it.  Choices are kept per concrete state: each step s1 -a-> t
has a block, the choices of all of s1's partners, which depends only on
a's search key and the rows of s1 and t.  As in the coarsest-partition
algorithms, where states with equal rows form one block (Gentilini,
Piazza and Policriti, 2003), each distinct block is computed once and
shared: 2,470 blocks for the 8,901 steps of 4-thread FAA.

check_progressive builds the greedy stutter graph once: one depth_first
gives its cycle or, when there is none, the postorder of its ranks.
When the greedy choices settle neither yes nor no, check_progressive
drops them and searches depth-first over (obligation, step) choice
points for landings whose stutter graph stays acyclic, testing each
stuttering candidate with an early-exit reachability search of its own.
The search keeps an explicit undo stack, one int per open choice point
naming the candidate chosen there, and a stutter multigraph, one edge per
stuttering choice.  The undo stack is its only record of the choices, so
its memory is the obligations, the pairs they reached, the stutter graph
and a list slot per open choice point (8,677 on 4-thread plain FAA).

validate_certificate reads nothing the checker built.  It is the
per-clause loop, in pair order, plus a skip: whether a step's block is
clean reads only the step's search key, the rows of s1 and t and the
block, so a concrete state is skipped when each of its steps' blocks is
known clean and each stuttering step descends in rank.  A known clean
block is compared by identity, then by value, so each distinct block is
checked once (239 for 3-thread FAA), and every other state runs the
loop.  Each distinct (search key, s2, choice) value is replayed once:
3,485 replays for the 22,112 clauses of the blocks on 4-thread FAA.  The
clean-block check reads the replay memo itself and replays only on a
miss.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Callable, ItemsView, Iterable, Iterator, KeysView, Mapping, Sequence, Set
from dataclasses import dataclass
from functools import cache, partial
from itertools import compress
from operator import itemgetter
from typing import NamedTuple

from .errors import BudgetExceeded, ContractViolation, ParseError
from .lts import Action, Lts, Trace, depth_first, label_resolver
from .modelio import json_block, json_document, json_object, json_string

SCHEMA_VERSION = 1
MAX_DIAGNOSTICS = 20  # problems validate_certificate lists before it stops recording


# --- result types -------------------------------------------------------


class ChoiceEntry(NamedTuple):
    """Matching move for one (concrete pair, concrete action): alpha and its landing.

    A tuple, so it equals the plain (alpha, target) pair; MatchTable builds
    one per candidate and every choice that picks the candidate shares it.
    """

    alpha: Trace
    target: int


# builds a ChoiceEntry from an (alpha, target) pair in C, and reads its alpha in C
_choice_entry = partial(tuple.__new__, ChoiceEntry)
_alpha = itemgetter(0)


_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(row: int) -> Iterable[int]:
    """The positions of the set bits of row, a non-negative int, ascending.

    Clearing the lowest set bit costs a pass over the int per set bit, and
    decoding the reversed digits of bin(row) one pass in all plus a step per
    position, so a sparse row takes the first way and a dense one the second.
    The two cost about the same where the count of set bits squared is 4 *
    width (timed at widths from 64 to 46,000 bits); the first way is
    quadratic on a full row.
    """
    width = row.bit_length()
    if row.bit_count() ** 2 >= 4 * width:
        return compress(range(width), bin(row)[:1:-1].encode().translate(_BINARY_DIGITS))
    found = []
    while row:
        low = row & -row
        found.append(low.bit_length() - 1)
        row ^= low
    return found


class Relation(Set):
    """A set of (concrete state, abstract state) pairs held as bitset rows.

    Bit s2 of row s1 is set iff (s1, s2) is in the relation.  Rows take
    few distinct values, so partners decodes each distinct row value once.
    Membership is one shift, the size a sum of bit counts, and iteration
    yields the pairs in ascending order.  Elements are pairs of
    non-negative ints: building one from anything else raises.
    """

    __slots__ = ("_rows", "_decoded")

    def __init__(self, rows: list[int]):
        self._rows = rows
        # row value -> its abstract states, ascending, as dict keys
        self._decoded: dict[int, dict[int, None]] = {}

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> Relation:
        rows: list[int] = []
        for s1, s2 in pairs:
            if s1 < 0 or s2 < 0:
                raise ValueError(f"pair ({s1}, {s2}) is not a pair of state numbers")
            if s1 >= len(rows):
                rows.extend([0] * (s1 + 1 - len(rows)))
            rows[s1] |= 1 << s2
        return cls(rows)

    _from_iterable = from_pairs  # what the Set operators build their results with

    def partners(self, s1: int) -> KeysView[int]:
        """The abstract states related to s1, ascending, with O(1) membership."""
        if not 0 <= s1 < len(self._rows):
            return {}.keys()
        row = self._rows[s1]
        found = self._decoded.get(row)
        if found is None:
            found = self._decoded[row] = dict.fromkeys(_bits(row))
        return found.keys()

    def __contains__(self, pair: object) -> bool:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        s1, s2 = pair
        rows = self._rows
        return (
            isinstance(s1, int) and isinstance(s2, int) and 0 <= s1 < len(rows) and s2 >= 0
            and rows[s1] >> s2 & 1 == 1
        )

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for s1 in range(len(self._rows)):
            for s2 in self.partners(s1):
                yield s1, s2

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self._rows)

    def __hash__(self) -> int:
        return self._hash()  # frozenset's hash, so that equal sets hash alike

    def __repr__(self) -> str:
        return f"Relation({list(self)!r})"

    def row_classes(self, n: int) -> list[int]:
        """A number per state in range(n), equal iff the two rows are equal."""
        rows = self._rows[:n] + [0] * (n - len(self._rows))
        ids: dict[int, int] = {}
        return [ids.setdefault(row, len(ids)) for row in rows]


BlockRow = dict[Action, dict[int, ChoiceEntry]]  # action -> block: s2 -> its choice


class Choices(Mapping):
    """The chosen matching move per (concrete state, action, abstract state).

    Row s1 maps each action of s1 to a block, a dict from s2 to its
    ChoiceEntry.  A block depends only on the step's rows, so states
    whose steps see equal rows share one block object.  Rows and blocks
    are never empty; iteration is in (s1, Action.key, s2) order, and a
    lookup is three dict reads.
    """

    __slots__ = ("_rows", "_len")

    def __init__(self, rows: dict[int, BlockRow]):
        self._rows = rows  # s1 ascending, actions in key order, s2 ascending
        self._len = sum(len(block) for row in rows.values() for block in row.values())

    @classmethod
    def from_items(cls, items: Iterable[tuple[tuple[int, Action, int], ChoiceEntry]]) -> Choices:
        """Choices of ((s1, action, s2), entry) items; a key given twice raises ValueError."""
        rows: dict[int, BlockRow] = {}
        for (s1, a, s2), entry in items:
            block = rows.setdefault(s1, {}).setdefault(a, {})
            if s2 in block:
                raise ValueError(f"choice ({s1}, {a.label()}, {s2}) is given twice")
            block[s2] = entry
        return cls.from_rows(rows)

    @classmethod
    def from_rows(cls, rows: dict[int, BlockRow]) -> Choices:
        """Choices over rows of non-empty blocks, put in iteration order.

        rows is taken over: a row or block out of order is rebuilt in its
        place, and one already in order, as a certificate file's items
        come, is kept as it is.
        """
        for s1, row in rows.items():
            keys = [a.key() for a in row]
            if keys != sorted(keys):
                row = rows[s1] = {a: row[a] for a in sorted(row, key=Action.key)}
            for a, block in row.items():
                if list(block) != sorted(block):
                    row[a] = dict(sorted(block.items()))
        if list(rows) != sorted(rows):
            rows = dict(sorted(rows.items()))
        return cls(rows)

    def get(self, key: object, default: ChoiceEntry | None = None) -> ChoiceEntry | None:
        try:
            s1, a, s2 = key  # type: ignore[misc]
            return self._rows[s1][a][s2]
        except (KeyError, TypeError, ValueError):
            return default

    def __getitem__(self, key: tuple[int, Action, int]) -> ChoiceEntry:
        entry = self.get(key)
        if entry is None:
            raise KeyError(key)
        return entry

    def __contains__(self, key: object) -> bool:
        return self.get(key) is not None

    def __iter__(self) -> Iterator[tuple[int, Action, int]]:
        for s1, row in self._rows.items():
            for a, block in row.items():
                for s2 in block:
                    yield s1, a, s2

    def __len__(self) -> int:
        return self._len

    def items(self) -> ItemsView:
        return _ChoiceItems(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Choices):
            return self._rows == other._rows
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"Choices({dict(self.items())!r})"


class _ChoiceItems(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[tuple[int, Action, int], ChoiceEntry]]:
        for s1, row in self._mapping._rows.items():
            for a, block in row.items():
                for s2, entry in block.items():
                    yield (s1, a, s2), entry


@dataclass(frozen=True)
class SimulationCertificate:
    """A forward simulation presented so a validator can replay every clause.

    Any iterable of pairs given as the relation is stored as a Relation,
    and any other mapping given as the choices is stored as Choices.
    """

    relation: Relation
    choice: Choices
    gamma: frozenset[Action]
    alpha_bound: int

    def __post_init__(self) -> None:
        if not isinstance(self.relation, Relation):
            object.__setattr__(self, "relation", Relation.from_pairs(self.relation))
        if not isinstance(self.choice, Choices):
            object.__setattr__(self, "choice", Choices.from_items(self.choice.items()))


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
    relation: Relation
    complete: bool  # False when the alpha length bound may have hidden matches
    deleted: int  # pairs outside the relation: |S1| * |S2| - |relation|


@dataclass(frozen=True)
class ProgressiveResult:
    """Outcome of the progressive check: yes, no, unknown, or no-forward."""

    verdict: str  # "yes" | "no" | "unknown" | "no-forward"
    certificate: SimulationCertificate | None = None
    witness: ProgressWitness | None = None
    cycle: StutterCycle | None = None
    complete: bool = True
    note: str | None = None
    relation: Relation = Relation([])  # the greatest forward simulation


def sufficient_alpha_bound(a2: Lts) -> int:
    """Bound making the per-step match search exhaustive.

    A shortest match never revisits an (abstract state, progress bit)
    pair, so its length is at most twice the abstract state count.
    """
    return 2 * a2.num_states


# --- match search -------------------------------------------------------


class MatchTable:
    """Per (concrete action, abstract state) candidate matches, found once.

    Candidates are ChoiceEntry (alpha, landing) pairs with alpha's
    projection onto gamma equal to the action's, one entry per reachable
    landing, in shortest-then-canonical order; the empty alpha comes last
    so that consumers prefer progress over stuttering.  The search reads the
    action only when it is in gamma, so its key is a for an observable
    action and None for every action gamma hides.

    One breadth-first search from each abstract state s2, run when the
    table is built, serves every key at s2.  Its nodes are (u, None)
    before any observable action, shared by all keys, and (u, b) after
    emitting the observable action b; restricted to one key's nodes it
    visits them in the order a search for that key alone would, so each
    key gets the same candidates and the same cut status.

    column(key) is a key's candidates at every s2, indexed by s2, built
    once per key; cut(key) is the abstract states where the bound cut that
    key's search short.  No call changes what a later one returns.
    """

    def __init__(self, a2: Lts, gamma: frozenset[Action], alpha_bound: int):
        if alpha_bound < 1:
            raise ContractViolation("alpha bound must be at least 1")
        self.a2 = a2
        self.gamma = gamma
        self.alpha_bound = alpha_bound
        # s2 -> (the bound cut every key, the keys it cut), for the s2 where it cut any
        self._cut_at: dict[int, tuple[bool, set[Action | None]]] = {}
        self._found = [self._search(s2) for s2 in range(a2.num_states)]
        self._columns: dict[Action | None, list[tuple[ChoiceEntry, ...]]] = {}

    def key(self, a: Action) -> Action | None:
        """a's search key: a itself if observable, else None."""
        return a if a in self.gamma else None

    def column(self, key: Action | None) -> list[tuple[ChoiceEntry, ...]]:
        """The candidates of every action whose key is key, indexed by abstract state."""
        column = self._columns.get(key)
        if column is None:
            column = self._columns[key] = [found.get(key, ()) for found in self._found]
        return column

    def cut(self, key: Action | None) -> list[int]:
        """The abstract states, ascending, where the bound cut key's search short."""
        return [s2 for s2, (every, keys) in self._cut_at.items() if every or key in keys]

    def _search(self, s2: int) -> dict[Action | None, tuple[ChoiceEntry, ...]]:
        gamma = self.gamma
        # nodes are (abstract state, the observable action emitted or None)
        start: tuple[int, Action | None] = (s2, None)
        best: dict[tuple[int, Action | None], Trace] = {start: ()}
        queue = deque([start])
        found: defaultdict[Action | None, list[ChoiceEntry]] = defaultdict(list)
        every, cut = False, set()  # the bound cut every key; the keys it cut
        looped = False  # non-empty silent path back to s2 recorded
        while queue:
            node = queue.popleft()
            t, emitted = node
            alpha = best[node]
            if len(alpha) >= self.alpha_bound:
                # an edge to an unseen node cuts the keys that node serves:
                # every key for (u, None), b for (u, b); an edge back to s2
                # cuts the hidden key while its silent loop is unrecorded
                for b, u in self.a2.out_edges(t):
                    if b in gamma:
                        if emitted is None and (u, b) not in best:
                            cut.add(b)
                    elif (u, emitted) not in best:
                        if emitted is None:
                            every = True
                        else:
                            cut.add(emitted)
                    elif emitted is None and u == s2 and not looped:
                        cut.add(None)
                continue
            for b, u in self.a2.out_edges(t):
                if b not in gamma:
                    nxt = (u, emitted)
                elif emitted is None:
                    nxt = (u, b)
                else:
                    continue
                if nxt in best:
                    # the start node holds the empty sequence, so a real
                    # silent loop back to it is a distinct candidate
                    if nxt == start and not looped:
                        looped = True
                        found[None].append(_choice_entry((alpha + (b,), s2)))
                    continue
                best[nxt] = path = alpha + (b,)
                queue.append(nxt)
                found[nxt[1]].append(_choice_entry((path, u)))
        found[None].append(_choice_entry(((), s2)))  # stuttering match, deliberately last
        if every or cut:
            self._cut_at[s2] = (every, cut)
        return {key: tuple(c) for key, c in found.items()}


def _run_from(lts: Lts, s: int, seq: Sequence[Action]) -> int | None:
    out = lts._out
    for a in seq:
        s = out[s].get(a)
        if s is None:
            return None
    return s


# --- greatest fixpoint --------------------------------------------------


def _greatest_relation(a1: Lts, a2: Lts, table: MatchTable) -> tuple[Relation, bool]:
    """Greatest relation over all pairs, and completeness.

    Row refinement over bitsets: row[s1] has bit s2 set while (s1, s2) is
    related, and into[k][t] has bit s2 set for each s2 where a match of
    search code k lands in t, so every row, mask and image is an |S2|-bit
    int; building into skips the s2 with no match.  A step's code is that
    of its action's MatchTable key, looked up in a dict filled once per
    action, so all actions gamma hides share one code.  A step s1 -k-> t
    keeps exactly the partners in the predecessor image of row[t], the OR
    of into[k][t2] over the bits t2 of row[t] (decoded by _bits), so a row
    check is one AND per step.  States with equal rows have equal images,
    so each distinct row value is one object, numbered in order of first
    appearance, whose bits are decoded at most once and whose image under
    each code is computed at most once, all kept until the fixpoint ends.
    Rows start full, and a full row's image under k is every s2 with a
    k-match, read off the match table without decoding the row.  A
    worklist of concrete states, seeded in DFS postorder so that most rows
    are checked against successor rows that are already final, re-checks
    a row whenever a successor row shrank.
    The final rows are the returned Relation's rows.
    """
    n1, n2 = a1.num_states, a2.num_states
    gamma = table.gamma
    code: dict[Action | None, int] = {}  # per MatchTable key, numbered in order of first use
    code_of: dict[Action, int] = {}  # per action, its key's code
    # (code, successor) per step of s1, in canonical order
    steps: list[list[tuple[int, int]]] = [[] for _ in range(n1)]
    preds: list[list[int]] = [[] for _ in range(n1)]  # sources of the edges into s1
    for s, out in enumerate(a1._out):
        for a, t in out.items():
            k = code_of.get(a)
            if k is None:
                k = code_of[a] = code.setdefault(a if a in gamma else None, len(code))
            steps[s].append((k, t))
            preds[t].append(s)
    columns = [table.column(key) for key in code]  # columns[k][s2]: the matches of code k at s2
    into = []
    full = (1 << n2) - 1
    matched = []  # matched[k]: every s2 where code k has a match, the image of the full row
    for column in columns:
        masks, has = [0] * n2, 0
        for s2, cands in enumerate(column):
            if cands:
                bit = 1 << s2
                has |= bit
                for _, t in cands:
                    masks[t] |= bit
        into.append(masks)
        matched.append(has)
    # distinct row values, numbered in order of first appearance, one object each
    values, number = [full], {full: 0}
    decoded: list[list[int] | None] = [None]  # number -> the value's set bits, decoded once
    images: list[list[int | None]] = [matched]  # number -> its image per code, None until asked
    row = [0] * n1  # s1 -> the number of its row value; every pair related at first
    queue, queued = deque(depth_first(range(n1), steps.__getitem__)[1]), bytearray(b"\x01") * n1
    while queue:
        s1 = queue.popleft()
        queued[s1] = 0
        kept = old = values[row[s1]]
        for k, t in steps[s1]:  # a self-loop reads the stored row; s1 is then re-queued
            v = row[t]
            image = images[v][k]
            if image is None:
                bits = decoded[v]
                if bits is None:
                    bits = decoded[v] = list(_bits(values[v]))
                image, masks = 0, into[k]
                for t2 in bits:
                    image |= masks[t2]
                images[v][k] = image
            kept &= image
        if kept != old:
            v = number.get(kept)
            if v is None:
                v = number[kept] = len(values)
                values.append(kept)
                decoded.append(None)
                images.append([None] * len(into))
            row[s1] = v
            for p in preds[s1]:
                if not queued[p]:
                    queued[p] = 1
                    queue.append(p)

    cut = [(k, s2) for key, k in code.items() for s2 in table.cut(key)]
    complete = not cut or not _first_sweep_meets_cut(columns, steps, cut)
    return Relation([values[v] for v in row]), complete


def _first_sweep_meets_cut(
    columns: list[list[tuple[ChoiceEntry, ...]]],
    steps: list[list[tuple[int, int]]],
    cut: list[tuple[int, int]],
) -> bool:
    """Does a sweep-until-stable refinement consult a search the bound cut?

    Such a refinement visits pairs in product order and checks each
    pair's steps in canonical order until one has no landing left in the
    shrinking relation.  Every search it ever consults, it consults in its
    first sweep, since a pair surviving that sweep had all its steps
    checked there; so replaying the first sweep decides it exactly.
    columns[k][s2] are the matches of code k at s2, and cut the (code, s2)
    pairs whose search the bound cut short.
    """
    n2 = len(columns[0])
    is_cut = [bytearray(n2) for _ in columns]
    for k, s2 in cut:
        is_cut[k][s2] = 1
    row = [(1 << n2) - 1] * len(steps)
    for s1, es in enumerate(steps):
        for s2 in range(n2):
            for k, t in es:
                if is_cut[k][s2]:
                    return True
                if not any(row[t] >> t2 & 1 for _, t2 in columns[k][s2]):
                    row[s1] ^= 1 << s2
                    break
    return False


def _greedy_choice(a1: Lts, relation: Relation, table: MatchTable) -> Choices:
    """The first candidate landing in the relation, per related pair and step.

    The block of a step s1 -a-> s1n, its choice for every partner of s1,
    depends only on a's MatchTable key and the rows of s1n and s1, so it
    is computed once per distinct (key, successor row, own row) and shared.
    """
    gamma = table.gamma
    cls = relation.row_classes(a1.num_states)
    blocks: dict[tuple[Action | None, int, int], dict[int, ChoiceEntry]] = {}
    rows: dict[int, BlockRow] = {}
    for s1 in range(a1.num_states):
        mine = relation.partners(s1)
        if not mine:
            continue
        row: BlockRow = {}
        for a, s1n in a1.out_edges(s1):
            shape = (a if a in gamma else None, cls[s1n], cls[s1])
            block = blocks.get(shape)
            if block is None:
                landing = relation.partners(s1n)
                cands = table.column(shape[0])
                block = blocks[shape] = {}
                for s2 in mine:
                    for entry in cands[s2]:
                        if entry.target in landing:
                            block[s2] = entry
                            break
            row[a] = block
        if row:
            rows[s1] = row
    return Choices(rows)


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
    relation, complete = _greatest_relation(a1, a2, table)
    deleted = a1.num_states * a2.num_states - len(relation)
    if (a1.initial, a2.initial) not in relation:
        return ForwardResult(None, relation, complete, deleted)
    cert = SimulationCertificate(
        relation=relation,
        choice=_greedy_choice(a1, relation, table),
        gamma=gamma,
        alpha_bound=alpha_bound,
    )
    return ForwardResult(cert, relation, complete, deleted)


# --- progressive check --------------------------------------------------


def _stutter_edges(a1: Lts, choice: Choices) -> list[StutterEdge]:
    """One edge per stuttering step, in choice's order, naming the step's
    first stuttering partner.  A step's stuttering choices are parallel
    edges to one successor, of which depth_first follows only the first,
    so one edge gives the same cycles and ranks as one per choice."""
    out: list[StutterEdge] = []
    for s1, row in choice._rows.items():
        for a, block in row.items():
            s2 = next((s2 for s2, entry in block.items() if not entry.alpha), None)
            if s2 is not None:
                out.append(StutterEdge(s1, a, a1.step(s1, a), (s2,)))
    return out


def _stutter_ranks(
    edges: Iterable[StutterEdge], num_states: int
) -> tuple[tuple[StutterEdge, ...] | None, ProgressWitness | None]:
    """One cycle of stutter edges, or longest-path ranks when there is none.

    One depth_first over the stutter graph, sources tried in ascending
    order, gives both: its first cycle, or else a postorder in which each
    state is ranked after the states its edges reach, so every edge
    strictly descends and a deep graph needs no recursion.
    """
    succ: dict[int, list[tuple[StutterEdge, int]]] = {}
    for e in edges:
        succ.setdefault(e.source, []).append((e, e.target))
    found, order = depth_first(sorted(succ), lambda s: succ.get(s, ()))
    if found is not None:
        return found[1], None
    rank = [0] * num_states
    for s in order:
        rank[s] = max((rank[t] + 1 for _, t in succ.get(s, ())), default=0)
    return None, ProgressWitness(dict(enumerate(rank)))


def _forced_everywhere_edges(a1: Lts, choice: Choices) -> list[StutterEdge]:
    """Steps that stutter for every abstract partner of their source.

    The empty match is every step's last candidate, so greedy picks it for
    a partner only when no other match lands in the relation: these are
    the reachable steps whose greedy block is all stutters.  Any
    simulation pairs each reachable concrete state with at least one
    partner, and shrinking the relation only removes landing options, so
    a cycle of such steps defeats every rank under any simulation.
    """
    out: list[StutterEdge] = []
    for s1 in a1.reachable():
        for a, block in choice._rows.get(s1, {}).items():
            if not any(entry.alpha for entry in block.values()):
                out.append(StutterEdge(s1, a, a1.step(s1, a), tuple(block)))
    return out


def _backtrack(
    a1: Lts,
    a2: Lts,
    relation: Relation,
    table: MatchTable,
    budget: int,
) -> tuple[Choices, Relation] | None:
    """Complete search for a choice assignment with an acyclic stutter graph.

    Explores only pairs reached from the initial pair through the chosen
    landings, and returns the choices with the reached set, which is the
    certificate relation.  Raises BudgetExceeded when the tried-assignment
    count passes the budget.  The search is depth-first over choice points
    (obligation, step), in the order obligations are reached and steps and
    candidates are listed.  Every step of every obligation before the one
    being tried is an open choice point, so an explicit undo stack holds
    one int per open choice point, its obligation and step implied by its
    depth: the position after its chosen candidate, and whether that
    choice added its landing pair.  So an open choice point costs a list
    slot, not a Python frame, and the depth is bounded by memory rather
    than by the recursion limit.  The stutter graph has one edge per
    stuttering choice, and a retract removes its own copy.  On success the
    choices are read off the undo stack in Choices order, and blocks of
    equal content are made one object as _greedy_choice shares them.
    """
    init = (a1.initial, a2.initial)
    spent = 0
    obligations: list[tuple[int, int]] = [init]
    supported: set[tuple[int, int]] = {init}
    stutter_succ: dict[int, list[int]] = {}  # one entry per stuttering choice

    @cache
    def actions_of(s1: int) -> list[Action]:  # s1's steps' actions, in canonical order
        return [a for a, _ in a1.out_edges(s1)]

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

    undo: list[int] = []  # per open choice point: next position << 1 | added pair
    i = j = pos = 0  # the choice point to try, and its next candidate's position
    while True:
        while i < len(obligations) and j == len(actions_of(obligations[i][0])):
            i, j = i + 1, 0
        if i == len(obligations):
            reached = Relation.from_pairs(supported)
            del supported  # the search is over: free its own state before the rows are built
            stutter_succ.clear()
            # every (obligation, step) is an open choice point now, so the
            # d-th undo record names the candidate chosen at the d-th one
            partners: dict[int, list[tuple[int, int]]] = defaultdict(list)  # s1 -> (s2, depth)
            depth = 0
            for s1, s2 in obligations:
                partners[s1].append((s2, depth))
                depth += len(actions_of(s1))
            shared: dict[tuple, dict[int, ChoiceEntry]] = {}  # equal blocks become one
            rows: dict[int, BlockRow] = {}  # a state with no steps gets no row
            for s1, mine in sorted(partners.items()):
                mine.sort()
                for k, a in enumerate(actions_of(s1)):
                    column = table.column(table.key(a))
                    block = {s2: column[s2][(undo[d + k] >> 1) - 1] for s2, d in mine}
                    rows.setdefault(s1, {})[a] = shared.setdefault(tuple(block.items()), block)
            return Choices(rows), reached
        s1, s2 = obligations[i]
        a = actions_of(s1)[j]
        s1n = a1.step(s1, a)
        cands = table.column(table.key(a))[s2]
        for pos in range(pos, len(cands)):
            alpha, t = cands[pos]
            if (s1n, t) not in relation:
                continue
            spent += 1
            if spent > budget:
                raise BudgetExceeded(budget)
            if not alpha:
                if s1 == s1n or stutter_reaches(s1n, s1):
                    continue  # would close a stutter cycle
                stutter_succ.setdefault(s1, []).append(s1n)
            added_pair = (s1n, t) not in supported
            if added_pair:
                supported.add((s1n, t))
                obligations.append((s1n, t))
            undo.append((pos + 1) << 1 | added_pair)
            j, pos = j + 1, 0
            break
        else:
            # no landing left here: retract the newest open choice point, the
            # step before this one, which then tries its next candidate
            if not undo:
                return None
            record = undo.pop()
            pos = record >> 1
            j -= 1
            while j < 0:
                i -= 1
                j = len(actions_of(obligations[i][0])) - 1
            s1, s2 = obligations[i]
            a = actions_of(s1)[j]
            s1n = a1.step(s1, a)
            alpha, t = table.column(table.key(a))[s2][pos - 1]
            if not alpha:
                stutter_succ[s1].remove(s1n)
            if record & 1:
                supported.discard((s1n, t))
                obligations.pop()


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
    every partner settles no.  Between the two, the greedy choices are
    freed and a budgeted complete backtracking over landings decides,
    holding only the relation, the match table and the greedy cycle
    besides its own undo stack; running out of budget is an unknown
    carrying that cycle.  A "no", like a "no-forward", is over the
    relation within the alpha bound: with complete False, a longer match
    the bound hid might admit a rank, so it refutes nothing, and its note
    names the bound.
    """
    gamma = frozenset(gamma)
    table = MatchTable(a2, gamma, alpha_bound)
    relation, complete = _greatest_relation(a1, a2, table)
    result = partial(ProgressiveResult, complete=complete, relation=relation)
    if (a1.initial, a2.initial) not in relation:
        return result(verdict="no-forward")

    choice = _greedy_choice(a1, relation, table)
    cert_relation = relation
    cycle, witness = _stutter_ranks(_stutter_edges(a1, choice), a1.num_states)
    if cycle is not None:
        within = "" if complete else f" within the alpha bound {alpha_bound}"
        forced_cycle = _stutter_ranks(_forced_everywhere_edges(a1, choice), a1.num_states)[0]
        if forced_cycle is not None:
            note = "every abstract partner stutters on each cycle step" + within
            return result(verdict="no", cycle=StutterCycle(forced_cycle), note=note)
        del choice  # free the greedy choices before the search
        try:
            solved = _backtrack(a1, a2, relation, table, backtrack_budget)
        except BudgetExceeded:
            note = f"backtracking budget {backtrack_budget} exceeded"
            return result(verdict="unknown", cycle=StutterCycle(cycle), note=note)
        if solved is None:
            note = (
                "no landing assignment admits a rank (complete search)" if complete
                else f"no landing assignment{within} admits a rank"
            )
            return result(verdict="no", cycle=StutterCycle(cycle), note=note)
        choice, cert_relation = solved
        witness = _stutter_ranks(_stutter_edges(a1, choice), a1.num_states)[1]
    cert = SimulationCertificate(cert_relation, choice, gamma, alpha_bound)
    return result(verdict="yes", certificate=cert, witness=witness)


# --- validation ---------------------------------------------------------


def validate_certificate(
    cert: SimulationCertificate,
    witness: ProgressWitness | None,
    a1: Lts,
    a2: Lts,
) -> tuple[bool, list[str]]:
    """Replay every certificate clause; the trusted core of the package.

    Checks the initial pair and an alpha bound of at least 1, that every
    related pair is a pair of states of a1 and a2, and for each related
    pair and concrete step: a recorded choice, an alpha within the bound,
    equal gamma projections, abstract replay to the recorded landing,
    landing membership, and rank descent on stutters.

    Every state runs that per-clause loop, in pair order, except one whose
    steps' blocks are each known clean and whose stuttering steps descend
    in rank.  Whether a block is clean reads only the step's search key
    (its action if gamma observes it, else None), the rows of s1 and of
    its successor, and the block, so the last clean block under (search
    key, own row, landing row) is kept and compared by identity, then
    by value.  Each distinct (search key, s2, choice) value is replayed
    once per call: the memo is read inline, and replay runs on a miss.
    A step or state the certificate has no block for reads one shared
    empty block.
    """
    problems: list[str] = []

    def report(msg: str) -> None:
        if len(problems) < MAX_DIAGNOSTICS:
            problems.append(msg)

    relation, gamma, bound = cert.relation, cert.gamma, cert.alpha_bound
    if (a1.initial, a2.initial) not in relation:
        report("initial pair not in relation")
    if bound < 1:
        report(f"alpha bound {bound} is below 1")
    replayed: dict[tuple[Action | None, int, ChoiceEntry], tuple[int | None, bool]] = {}

    def replay(key: Action | None, s2: int, entry: ChoiceEntry) -> tuple[int | None, bool]:
        """Where entry's alpha lands from s2, and whether the clause passes
        every check but landing membership and rank descent."""
        found = replayed.get((key, s2, entry))
        if found is None:
            alpha, target = entry
            landed = _run_from(a2, s2, alpha)
            found = replayed[key, s2, entry] = (
                landed,
                landed == target and len(alpha) <= bound
                and tuple(filter(gamma.__contains__, alpha)) == (() if key is None else (key,)),
            )
        return found

    n1, n2 = a1.num_states, a2.num_states
    cls = relation.row_classes(n1)
    empty: dict = {}  # the block of a step or state the certificate has none for
    # (search key, own row class, landing row class) -> the last clean block
    # under it, and whether any of its choices stutters
    clean: dict[tuple[Action | None, int, int], tuple[dict, bool]] = {}
    for s1, row in enumerate(relation._rows):
        if not row:
            continue
        mine = relation.partners(s1)
        blocks = cert.choice._rows.get(s1, empty)
        if s1 < n1 and not row >> n2:
            for a, s1n in a1.out_edges(s1):
                shape = (a if a in gamma else None, cls[s1], cls[s1n])
                block = blocks.get(a, empty)
                known = clean.get(shape)
                if known is None or (known[0] is not block and known[0] != block):
                    landing = relation.partners(s1n)
                    if not _block_is_clean(shape[0], block, mine, landing, replayed, replay):
                        break
                    known = clean[shape] = (block, not all(map(_alpha, block.values())))
                if known[1] and witness is not None and witness.of(s1n) >= witness.of(s1):
                    break
            else:
                continue  # every block is clean and every stutter descends
        for s2 in mine:
            if s1 >= n1 or s2 >= n2:
                report(f"pair ({s1}, {s2}) is outside the state ranges")
                continue
            for a, s1n in a1.out_edges(s1):
                entry = blocks.get(a, empty).get(s2)
                if entry is None:
                    report(f"no choice for ({s1}, {a.label()}, {s2})")
                    continue
                alpha, target = entry
                key = a if a in gamma else None
                if len(alpha) > bound:
                    report(
                        f"alpha of length {len(alpha)} exceeds the bound {bound} "
                        f"at ({s1}, {a.label()}, {s2})"
                    )
                if tuple(filter(gamma.__contains__, alpha)) != (() if key is None else (key,)):
                    report(f"projection mismatch at ({s1}, {a.label()}, {s2})")
                landed = replay(key, s2, entry)[0]
                if landed is None:
                    report(f"alpha does not replay at ({s1}, {a.label()}, {s2})")
                    continue
                if landed != target:
                    report(
                        f"alpha lands in {landed}, recorded target {target} "
                        f"at ({s1}, {a.label()}, {s2})"
                    )
                if (s1n, target) not in relation:
                    report(f"landing ({s1n}, {target}) not in relation")
                if witness is not None and not alpha and witness.of(s1n) >= witness.of(s1):
                    report(
                        f"rank does not descend on stutter ({s1}, {a.label()}, {s1n}): "
                        f"{witness.of(s1)} -> {witness.of(s1n)}"
                    )
    return (not problems, problems)


def _block_is_clean(
    key: Action | None,
    block: dict[int, ChoiceEntry],
    mine: KeysView[int],
    landing: KeysView[int],
    replayed: Mapping[tuple[Action | None, int, ChoiceEntry], tuple[int | None, bool]],
    replay: Callable[[Action | None, int, ChoiceEntry], tuple[int | None, bool]],
) -> bool:
    """Whether one step's block of choices passes every check but rank
    descent at each state whose partners are mine and whose successor's
    partners are landing; key is the step's search key.  A choice's
    replay is read from the memo replayed, and replay runs only on a miss."""
    for s2 in mine:
        entry = block.get(s2)
        if entry is None or entry.target not in landing:
            return False
        if not (replayed.get((key, s2, entry)) or replay(key, s2, entry))[1]:
            return False
    return True


def validate_stutter_cycle(
    cycle: StutterCycle,
    a1: Lts,
    a2: Lts,
    gamma: Iterable[Action],
    alpha_bound: int,
    relation: Set[tuple[int, int]],
) -> tuple[bool, list[str]]:
    """Replay a stutter cycle: real steps, closed, and stuttering is forced.

    Forced means: for each recorded partner, no non-empty alpha within
    the bound lands the step back in the relation.  A state outside its
    LTS is a problem, and such a partner's match is not searched; nor is
    any match when the bound is below 1, which is a problem too.
    """
    problems: list[str] = []
    edges = cycle.edges
    if not edges:
        return False, ["empty cycle"]
    n1, n2 = a1.num_states, a2.num_states
    table = None
    if alpha_bound < 1:
        problems.append(f"alpha bound {alpha_bound} is below 1")
    else:
        table = MatchTable(a2, frozenset(gamma), alpha_bound)
    for i, e in enumerate(edges):
        outside = [(end, s) for end, s in (("source", e.source), ("target", e.target)) if not 0 <= s < n1]
        for end, s in outside:
            problems.append(f"edge {i}: {end} {s} is outside the concrete states")
        if not outside and a1.step(e.source, e.action) != e.target:
            problems.append(f"edge {i} is not a transition of the concrete LTS")
        nxt = edges[(i + 1) % len(edges)]
        if e.target != nxt.source:
            problems.append(f"edge {i} does not chain into edge {(i + 1) % len(edges)}")
        if not e.partners:
            problems.append(f"edge {i} records no abstract partner")
        column = None if table is None else table.column(table.key(e.action))
        for s2 in e.partners:
            if not 0 <= s2 < n2:
                problems.append(f"edge {i}: partner {s2} is outside the abstract states")
                continue
            if (e.source, s2) not in relation:
                problems.append(f"edge {i}: partner {s2} not related to {e.source}")
            if column is not None and any(alpha and (e.target, t) in relation for alpha, t in column[s2]):
                problems.append(f"edge {i}: partner {s2} has a non-stuttering match")
    return (not problems, problems)


# --- serialization ------------------------------------------------------


def certificate_to_dict(
    cert: SimulationCertificate, witness: ProgressWitness | None = None
) -> dict:
    data: dict = {
        "schema_version": SCHEMA_VERSION,
        "gamma": sorted(a.label() for a in cert.gamma),
        "alpha_bound": cert.alpha_bound,
        "relation": [[s1, s2] for s1, s2 in cert.relation],
        "choices": [
            {
                "s1": s1,
                "action": a.label(),
                "s2": s2,
                "alpha": [b.label() for b in entry.alpha],
                "target": entry.target,
            }
            for (s1, a, s2), entry in cert.choice.items()
        ],
    }
    if witness is not None:
        data["ranks"] = {str(s): r for s, r in sorted(witness.rank.items())}
    return data


def certificate_from_dict(
    data: dict, a1: Lts, a2: Lts
) -> tuple[SimulationCertificate, ProgressWitness | None]:
    n1, n2 = a1.num_states, a2.num_states
    resolve = label_resolver((a1, a2), "certificate")

    def number(x: object, limit: float = float("inf")) -> int:
        if type(x) is not int or not 0 <= x < limit:  # a bool or a float is no state number
            raise ValueError(f"expected an integer in [0, {limit}), got {x!r}")
        return x

    def state_key(k: str) -> int:
        # only the canonical decimal form, so that no two keys name one state
        s = number(int(k), n1)
        if str(s) != k:
            raise ValueError(f"expected a state number as a rank key, got {k!r}")
        return s

    def actions(labels: object) -> tuple[Action, ...]:
        if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise ValueError(f"expected a list of action labels, got {labels!r}")
        return tuple(map(resolve, labels))

    try:
        choice = Choices.from_items(
            (
                (number(c["s1"], n1), resolve(c["action"]), number(c["s2"], n2)),
                ChoiceEntry(actions(c["alpha"]), number(c["target"], n2)),
            )
            for c in data["choices"]
        )
        cert = SimulationCertificate(
            # unpacking rejects an entry that is not a pair
            relation=Relation.from_pairs(
                (number(x, n1), number(y, n2)) for x, y in data["relation"]
            ),
            choice=choice,
            gamma=frozenset(actions(data["gamma"])),
            alpha_bound=number(data["alpha_bound"]),
        )
        witness = None
        if "ranks" in data:
            ranks = data["ranks"]
            if not isinstance(ranks, dict):
                raise ValueError("ranks must map state numbers to natural numbers")
            witness = ProgressWitness({state_key(k): number(v) for k, v in ranks.items()})
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


def certificate_chunks(
    cert: SimulationCertificate, witness: ProgressWitness | None = None
) -> Iterator[str]:
    """The text of dumps_certificate in chunks, made as they are read.

    Reads the certificate directly, with no dict per choice: a choice is
    one row template filled in, and each action label and each distinct
    alpha is escaped once.
    """
    pair = json_block(("%s", "%s"), 2)
    choice = json_object(dict.fromkeys(("action", "alpha", "s1", "s2", "target"), "%s"), 2)
    alphas: dict[Trace, str] = {}

    def choices() -> Iterator[str]:
        for s1, row in cert.choice._rows.items():
            for a, block in row.items():
                label = json_string(a.label())
                for s2, entry in block.items():
                    alpha = alphas.get(entry.alpha)
                    if alpha is None:
                        alpha = alphas[entry.alpha] = json_block(
                            [json_string(b.label()) for b in entry.alpha], 3
                        )
                    yield choice % (label, alpha, s1, s2, entry.target)

    fields: dict[str, str | Iterable[str]] = {
        "schema_version": str(SCHEMA_VERSION),
        "gamma": json_block(map(json_string, sorted(a.label() for a in cert.gamma)), 1),
        "alpha_bound": str(cert.alpha_bound),
        "relation": map(pair.__mod__, cert.relation),
        "choices": choices(),
    }
    if witness is not None:
        fields["ranks"] = json_object({str(s): str(r) for s, r in witness.rank.items()}, 1)
    return json_document(fields)


def dumps_certificate(
    cert: SimulationCertificate, witness: ProgressWitness | None = None
) -> str:
    """The JSON form: json.dumps(certificate_to_dict(cert, witness), indent=2,
    sort_keys=True) + "\n"."""
    return "".join(certificate_chunks(cert, witness))
