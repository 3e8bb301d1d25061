"""Finite deterministic labelled transition systems.

States are dense integer indices with an optional side table of
human-readable labels.  Actions carry their classification (program,
call, return, internal, idle) so alphabet membership is a field lookup,
and argument/return values are part of action identity, which keeps the
transition function single-valued.  An action is a tuple of its fields,
hashed in C by tuple's slot with the value a dataclass over the same
fields gives (see ``Action``).  Its order key and label are computed
once, when it is built; pickling and copying rebuild it from the fields,
because str hashes differ between processes.  ``action`` and
``parse_action`` hand out one shared object per field tuple, so the
models a process builds or loads meet their actions by identity.  An
alphabet's derived sets are computed once too.  There is one idle
action, ``IDLE``: every alphabet holds it, and every reader of idle
(the rows' check, idle completion, the product, the strategies, the
divergence search and the trace mapping) names it directly.

Every LTS is built by one path from per-state rows (``Lts._fill``): it
validates each transition once, sorts each row once into canonical
action order and keeps the row dicts.  ``Lts(...)`` buckets its
(state, action) -> state mapping into rows and takes that path; the
model reader, the product, ``idle_complete``, ``LtsBuilder`` and the
case-study builders hand rows to it through ``Lts._from_rows``.

``depth_first`` is the package's one depth-first search: one pass gives
its first cycle and the postorder of every node it reached.  The
progressive backtracking's ``stutter_reaches`` keeps an early exit, as it
runs per candidate on a graph that changes with every choice, and the
breadth-first searches (``Lts.reachable``, the strategy graph,
``MatchTable``'s search, the sink check) keep their own loops, as their
order is public or shows in report bytes.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable, ClassVar, Hashable, Iterable, Iterator, Mapping, NoReturn, Sequence, TypeVar

from .errors import ModelError, ParseError, StepNotEnabled


class ActionKind(str, Enum):
    PROGRAM = "program"
    CALL = "call"
    RETURN = "return"
    INTERNAL = "internal"
    IDLE = "idle"


@dataclass(frozen=True, eq=False, init=False)
class Action(tuple):
    """A named event; equality is (name, kind, thread, payload).

    Actions key the dicts and sets of every layer, so hashing one must not
    be a Python call.  An Action is therefore a tuple of its four fields
    and uses tuple's C hash: hash(a) == hash((name, kind, thread,
    payload)), the value a dataclass over the same fields gives, so set
    and dict orders are those of a dataclass.  Equality stays strict: an
    Action equals only Actions, never its plain field tuple.  Being a
    tuple, an Action has a len, can be indexed and iterated, and
    json.dumps writes it as a list.  The order key and the label are
    computed once, in ``__new__``.
    """

    name: str
    kind: ActionKind
    thread: int | None = None
    payload: int | None = None

    def __new__(cls, name: str, kind: ActionKind, thread: int | None = None, payload: int | None = None):
        self = tuple.__new__(cls, (name, kind, thread, payload))
        label = name
        if thread is not None:
            label += f"@{thread}"
        if payload is not None:
            label += f"#{payload}"
        key = (name, kind.value, -1 if thread is None else thread, float("-inf") if payload is None else payload)
        vars(self).update(name=name, kind=kind, thread=thread, payload=payload, _key=key, _label=label)
        return self

    __hash__ = tuple.__hash__  # a class defining __eq__ would otherwise get None

    # both overridden: tuple's own would equate an Action with its field tuple
    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    def __reduce__(self):
        # rebuild through __new__, which takes the fields, not one tuple
        return (type(self), tuple(self))

    def label(self) -> str:
        """Canonical string form: name[@thread][#payload]."""
        return self._label

    def key(self) -> tuple:
        """Total order used wherever canonical action order matters."""
        return self._key

    def __repr__(self) -> str:
        return f"Action({self.label()}:{self.kind.value})"


_ACTION_RE = re.compile(r"(?P<name>[^@#\s,]+)(@(?P<thread>\d+))?(#(?P<payload>-?\d+))?")


# The one table of shared actions, keyed by the field tuple: lru_cache
# keys a call by its arguments as given, so every call passes all four,
# by position (through ``action``), or equal fields would map to two keys.
_interned = lru_cache(maxsize=1 << 16)(Action)


def action(name: str, kind: ActionKind, thread: int | None = None, payload: int | None = None) -> Action:
    """The shared Action with these fields.

    Actions made here or parsed by ``parse_action`` are one object per
    field tuple, so the models built or loaded in one process compare
    their actions by identity, never by a Python ``__eq__``.
    """
    return _interned(name, kind, thread, payload)


@lru_cache(maxsize=1 << 16)  # the parse of each label, done once; the action is shared
def parse_action(text: str, kind: ActionKind) -> Action:
    """Parse the canonical label form, name[@thread][#payload] and nothing
    around it, back into the shared Action of a given kind.  The numbers
    must be in canonical decimal form, so that the label read is the
    action's own label and no two labels name one action."""
    m = _ACTION_RE.fullmatch(text)
    if m is None:
        raise ParseError(f"malformed action {text!r}")
    thread = m.group("thread")
    payload = m.group("payload")
    parsed = _interned(
        m.group("name"),
        kind,
        None if thread is None else int(thread),
        None if payload is None else int(payload),
    )
    if parsed.label() != text:  # a number not in canonical form: go@01, go#-0, go@\u0661
        raise ParseError(f"malformed action {text!r}: its canonical form is {parsed.label()!r}")
    return parsed


_KEY = attrgetter("_key")  # Action.key, read in C


def sort_actions(actions: Iterable[Action]) -> list[Action]:
    return sorted(actions, key=_KEY)


IDLE = action("idle", ActionKind.IDLE)

Trace = tuple[Action, ...]


@dataclass(frozen=True)
class Alphabet:
    """Partition of an LTS alphabet into program, call, return, internal, idle.

    Every alphabet has the one idle action ``IDLE``, which ``idle``
    names; no section may hold an action labelled like it.  The derived
    sets gamma_p, cr and all_actions are computed once, at construction.
    """

    program: frozenset[Action]
    calls: frozenset[Action]
    returns: frozenset[Action]
    internal: frozenset[Action]
    idle: ClassVar[Action] = IDLE

    def __post_init__(self) -> None:
        parts = {
            ActionKind.PROGRAM: self.program,
            ActionKind.CALL: self.calls,
            ActionKind.RETURN: self.returns,
            ActionKind.INTERNAL: self.internal,
        }
        seen: dict[str, ActionKind] = {}
        for kind, group in parts.items():
            for a in group:
                if a.kind is not kind:
                    raise ModelError(f"{a} listed under {kind.value} but has kind {a.kind.value}")
                if a.label() in seen:
                    raise ModelError(
                        f"action {a.label()} appears in both {seen[a.label()].value} and {kind.value}"
                    )
                seen[a.label()] = kind
        clash = seen.get(IDLE.label())
        if clash is not None:
            raise ModelError(f"action {IDLE.label()} appears in both {clash.value} and idle")
        cr = self.calls | self.returns
        gamma_p = cr | self.program
        object.__setattr__(self, "_cr", cr)
        object.__setattr__(self, "_gamma_p", gamma_p)
        object.__setattr__(self, "_all_actions", gamma_p | self.internal | {IDLE})

    @property
    def gamma_p(self) -> frozenset[Action]:
        """Externally visible actions: program plus calls plus returns."""
        return self._gamma_p

    @property
    def cr(self) -> frozenset[Action]:
        return self._cr

    @property
    def all_actions(self) -> frozenset[Action]:
        return self._all_actions

    def non_idle(self) -> frozenset[Action]:
        return self.program | self.calls | self.returns | self.internal


@dataclass(frozen=True)
class Lasso:
    """Finite representation of an infinite trace: stem then repeated cycle."""

    stem: Trace
    cycle: Trace

    def __post_init__(self) -> None:
        if not self.cycle:
            raise ModelError("lasso cycle must be non-empty")

    def unroll(self, repeats: int) -> Trace:
        return self.stem + self.cycle * repeats


def _reject(
    num_states: int,
    initial: int,
    labels: Sequence[Any] | None,
    known: frozenset[Action],
    edges: Iterable[tuple[tuple[int, Action], int]],
) -> NoReturn:
    """Raise the first construction fault: the initial state, the label
    count, then each ((state, action), successor) in the given order."""
    if not (0 <= initial < num_states):
        raise ModelError(f"initial state {initial} out of range 0..{num_states - 1}")
    if labels is not None and len(labels) != num_states:
        raise ModelError(f"{len(labels)} labels for {num_states} states")
    for (s, a), t in edges:
        if not (0 <= s < num_states) or not (0 <= t < num_states):
            raise ModelError(f"transition ({s}, {a.label()}, {t}) has a dangling state index")
        if a not in known:
            raise ModelError(f"transition on {a.label()} not in the declared alphabet")
        if a.kind is ActionKind.IDLE and t != s:  # a is known: it is the alphabet's idle
            raise ModelError(f"idle transition {s} -> {t} must be a self-loop")
    raise AssertionError("no construction fault found")


def _bucket(
    alphabet: Alphabet,
    num_states: int,
    initial: int,
    transitions: Mapping[tuple[int, Action], int],
    labels: Sequence[Any] | None,
) -> list[dict[Action, int]]:
    """The rows of a (state, action) -> state mapping; a source state out
    of range is reported as the first fault in the mapping's order."""
    if num_states < 0:
        _reject(num_states, initial, labels, alphabet.all_actions, ())
    rows: list[dict[Action, int]] = [{} for _ in range(num_states)]
    for (s, a), t in transitions.items():
        if not (0 <= s < num_states):
            _reject(num_states, initial, labels, alphabet.all_actions, transitions.items())
        rows[s][a] = t
    return rows


def _canonical(row: dict[Action, int]) -> dict[Action, int]:
    """The row in canonical action order; a row already in order is kept."""
    keys = list(map(_KEY, row))
    if keys == sorted(keys):
        return row
    return {a: row[a] for a in sorted(row, key=_KEY)}


class Lts:
    """Deterministic LTS over dense integer states.

    The transition function is a partial map (state, action) -> state,
    which makes per-edge determinism structural.  It is held as one row
    per state, a dict from each enabled action to its successor in
    canonical action order.  Every construction goes through ``_fill``;
    ``Lts(...)`` first buckets its mapping into rows.  Instances are
    immutable after construction and safe to share.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        num_states: int,
        initial: int,
        transitions: Mapping[tuple[int, Action], int],
        labels: Sequence[Any] | None = None,
    ):
        rows = _bucket(alphabet, num_states, initial, transitions, labels)
        self._fill(alphabet, initial, rows, labels, transitions.items())

    @classmethod
    def _from_rows(
        cls,
        alphabet: Alphabet,
        initial: int,
        rows: list[dict[Action, int]],
        labels: Sequence[Any] | None = None,
        order: Iterable[tuple[tuple[int, Action], int]] | None = None,
    ):
        """An LTS built from rows: rows[s] maps each action enabled at
        state s to its successor.  The new LTS owns the row dicts, so
        the caller must not change them afterwards.  A fault is reported
        as the first one met in order, ((state, action), successor)
        pairs, which defaults to the rows' own order."""
        lts = cls.__new__(cls)
        lts._fill(alphabet, initial, rows, labels, order)
        return lts

    def _fill(
        self,
        alphabet: Alphabet,
        initial: int,
        rows: list[dict[Action, int]],
        labels: Sequence[Any] | None,
        order: Iterable[tuple[tuple[int, Action], int]] | None = None,
    ) -> None:
        # One pass over the rows checks every successor and collects the
        # actions used (set.update reuses a dict's stored hashes), and
        # puts each row in canonical order.  Only a faulty construction
        # walks its edges one by one, in the caller's order, to report
        # the first fault.
        num_states = len(rows)
        known = alphabet.all_actions
        used: set[Action] = set()
        in_range = True
        out: list[dict[Action, int]] = []
        for row in rows:
            if row:
                used.update(row)
                in_range = in_range and 0 <= min(row.values()) and max(row.values()) < num_states
                if len(row) > 1:
                    row = _canonical(row)
            out.append(row)
        if (
            not (0 <= initial < num_states)
            or (labels is not None and len(labels) != num_states)
            or not in_range
            or not known.issuperset(used)
            or (IDLE in used and not all(row.get(IDLE, s) == s for s, row in enumerate(rows)))
        ):
            if order is None:
                order = (((s, a), t) for s, row in enumerate(rows) for a, t in row.items())
            _reject(num_states, initial, labels, known, order)
        self.alphabet = alphabet
        self.num_states = num_states
        self.initial = initial
        self.labels = tuple(labels) if labels is not None else None
        self._out: tuple[dict[Action, int], ...] = tuple(out)

    def label_of(self, s: int) -> str:
        if self.labels is not None:
            return str(self.labels[s])
        return f"s{s}"

    def out_edges(self, s: int) -> Iterator[tuple[Action, int]]:
        """Outgoing (action, successor) pairs of s in canonical action order."""
        return iter(self._out[s].items())

    def edges(self) -> Iterator[tuple[int, Action, int]]:
        for s in range(self.num_states):
            for a, t in self._out[s].items():
                yield (s, a, t)

    def enabled(self, s: int) -> frozenset[Action]:
        """Exactly the actions with a transition out of s."""
        if not (0 <= s < self.num_states):
            raise ModelError(f"state index {s} out of range")
        return frozenset(self._out[s])

    def step(self, s: int, a: Action) -> int | None:
        """Successor of s under a, or None when a is not enabled."""
        return self._out[s].get(a)

    def run(self, sigma: Sequence[Action]) -> int:
        """State reached from the initial state after sigma; run(()) is initial."""
        s = self.initial
        for i, a in enumerate(sigma):
            t = self._out[s].get(a)
            if t is None:
                raise StepNotEnabled(i, a, s)
            s = t
        return s

    def accepts(self, sigma: Sequence[Action]) -> bool:
        """True when sigma replays from the initial state."""
        try:
            self.run(sigma)
        except StepNotEnabled:
            return False
        return True

    def reachable(self) -> list[int]:
        """States reachable from the initial state, in BFS order."""
        seen = {self.initial}
        order = [self.initial]
        queue = deque([self.initial])
        while queue:
            s = queue.popleft()
            for _, t in self._out[s].items():
                if t not in seen:
                    seen.add(t)
                    order.append(t)
                    queue.append(t)
        return order


_Node = TypeVar("_Node", bound=Hashable)
_Label = TypeVar("_Label")


def depth_first(
    starts: Iterable[_Node], succ: Callable[[_Node], Iterable[tuple[_Label, _Node]]]
) -> tuple[tuple[_Node, tuple[_Label, ...]] | None, list[_Node]]:
    """The package's one depth-first search: its first cycle and its postorder.

    An iterative DFS that classifies back edges (Tarjan, 1972).  Starts are
    tried in the given order and successors in the order succ yields its
    (label, node) pairs, and the search always runs to the end.  The cycle
    is the first back edge's: the node the edge closes on and the labels
    around the cycle from that node back to itself, or None when no cycle
    is reachable from the starts.  The postorder lists every node reached
    once, each after the nodes its edges reach first.  Depth is bounded by
    memory, not by the recursion limit.
    """
    on_path: dict[_Node, bool] = {}  # every node reached; True while it is on the DFS path
    order: list[_Node] = []
    cycle: tuple[_Node, tuple[_Label, ...]] | None = None
    for start in starts:
        if start in on_path:
            continue
        on_path[start] = True
        # per entry: a node, its unread successors, the label of the edge into it
        stack = [(start, iter(succ(start)), None)]
        while stack:
            node, it, _ = stack[-1]
            for label, nxt in it:
                mark = on_path.get(nxt)
                if mark is None:
                    on_path[nxt] = True
                    stack.append((nxt, iter(succ(nxt)), label))
                    break
                if mark and cycle is None:
                    i = next(i for i, entry in enumerate(stack) if entry[0] == nxt)
                    cycle = nxt, tuple(entry[2] for entry in stack[i + 1:]) + (label,)
            else:
                stack.pop()
                on_path[node] = False
                order.append(node)
    return cycle, order


def project(tau: Sequence[Action], gamma: Iterable[Action]) -> Trace:
    """Order-preserving restriction of tau to actions in gamma."""
    g = frozenset(gamma)
    return tuple(a for a in tau if a in g)


def project_lasso(lasso: Lasso, gamma: Iterable[Action]) -> Lasso | Trace:
    """Project stem and cycle separately; an all-filtered cycle leaves a finite trace."""
    g = frozenset(gamma)
    stem = project(lasso.stem, g)
    cycle = project(lasso.cycle, g)
    if not cycle:
        return stem
    return Lasso(stem, cycle)


def label_resolver(ltss: Iterable[Lts], where: str) -> Callable[[str], Action]:
    """The action a label names in the alphabets of ltss, for labels read
    from where.  Resolving a label that names no action, or two (of one
    kind in one alphabet and another in the other), raises ParseError."""
    by_label: dict[str, Action] = {}
    clashes: dict[str, str] = {}  # label -> the kinds of the two actions it names
    for lts in ltss:
        for a in lts.alphabet.all_actions:
            first = by_label.setdefault(a.label(), a)
            if first != a:
                clashes[a.label()] = f"{first.kind.value} and {a.kind.value}"

    def resolve(label: str) -> Action:
        if label in clashes:
            raise ParseError(
                f"action label {label!r} in {where} names two actions, of kinds {clashes[label]}"
            )
        action = by_label.get(label)
        if action is None:
            raise ParseError(f"unknown action label {label!r} in {where}")
        return action

    return resolve


def idle_complete(lts: Lts) -> Lts:
    """Add an idle self-loop to exactly the states with no other enabled action."""
    rows = _idle_completed(lts._out)
    return Lts._from_rows(lts.alphabet, lts.initial, rows, lts.labels)


def _idle_completed(rows: Sequence[dict[Action, int]]) -> list[dict[Action, int]]:
    """The rows with an idle self-loop at each state that enables nothing.

    A state whose row holds only idle keeps it: a validated idle edge is
    already a self-loop.  The other rows are shared, not copied.
    """
    return [row or {IDLE: s} for s, row in enumerate(rows)]


def validate_lasso(lts: Lts, lasso: Lasso) -> None:
    """Replay the lasso and require the cycle to return to its start state."""
    anchor = lts.run(lasso.stem)
    s = anchor
    for i, a in enumerate(lasso.cycle):
        t = lts.step(s, a)
        if t is None:
            raise StepNotEnabled(len(lasso.stem) + i, a, s)
        s = t
    if s != anchor:
        raise ModelError(
            f"lasso cycle ends in state {s}, expected to return to {anchor}"
        )


class LtsBuilder:
    """Incremental construction with states interned by label."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._index: dict[Any, int] = {}
        self._labels: list[Any] = []
        self._transitions: dict[tuple[int, Action], int] = {}
        self._initial: int | None = None
        # one instance per action, however many edges carry it
        self._actions = {a: a for a in alphabet.all_actions}

    def state(self, label: Any) -> int:
        idx = self._index.get(label)
        if idx is None:
            idx = len(self._labels)
            self._index[label] = idx
            self._labels.append(label)
        return idx

    def set_initial(self, label: Any) -> int:
        idx = self.state(label)
        self._initial = idx
        return idx

    def add(self, src: Any, action: Action, dst: Any) -> None:
        s, t = self.state(src), self.state(dst)
        action = self._actions.get(action, action)
        prev = self._transitions.get((s, action))
        if prev is not None and prev != t:
            raise ModelError(
                f"duplicate transition ({src!r}, {action.label()}) with two successors"
            )
        self._transitions[(s, action)] = t

    def build(self, complete: bool = True) -> Lts:
        if self._initial is None:
            raise ModelError("no initial state set")
        alphabet, labels, transitions = self.alphabet, self._labels, self._transitions
        rows = _bucket(alphabet, len(labels), self._initial, transitions, labels)
        if complete:  # as idle_complete does, in the same construction
            rows = _idle_completed(rows)
        return Lts._from_rows(alphabet, self._initial, rows, labels, transitions.items())
