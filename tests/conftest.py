"""Shared fixtures: tiny hand models, random instance corpora, oracles.

The oracles here recompute results by definition, independently of the
library's algorithms: the simulation oracle enumerates whole relations
and checks every clause by brute sequence search, and the trace oracles
walk transitions directly.  Tests freeze oracle outputs where noted.
"""

from __future__ import annotations

import random
from itertools import product as iproduct

import pytest

from ltsim import (
    Action,
    ActionKind,
    Alphabet,
    Lts,
    LtsBuilder,
    Scheduler,
    project,
)

# --- acceptance bookkeeping ------------------------------------------------

ACCEPTANCE: dict[int, bool] = {}


def record_criterion(number: int, ok: bool) -> None:
    ACCEPTANCE[number] = ACCEPTANCE.get(number, True) and ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE):
        verdict = "PASS" if ACCEPTANCE[number] else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict}")


# --- tiny hand models ------------------------------------------------------


def internal(name: str) -> Action:
    return Action(name, ActionKind.INTERNAL)


def prog_action(name: str) -> Action:
    return Action(name, ActionKind.PROGRAM)


def make_lts(
    edges: list[tuple[int, Action, int]],
    num_states: int,
    alphabet: Alphabet,
    initial: int = 0,
) -> Lts:
    return Lts(alphabet, num_states, initial, {(s, a): t for s, a, t in edges})


@pytest.fixture
def toggle() -> Lts:
    """Two states flipping on one internal action."""
    t = internal("t")
    alpha = Alphabet(frozenset(), frozenset(), frozenset(), frozenset({t}))
    return make_lts([(0, t, 1), (1, t, 0)], 2, alpha)


# --- schedulers through the cursor protocol ----------------------------------


class PinnedScheduler(Scheduler):
    """Defines only schedule(): wraps a scheduler, overriding one trace."""

    def __init__(self, base, at, value):
        self.base = base
        self.at = tuple(at)
        self.value = value

    def schedule(self, trace):
        if tuple(trace) == self.at:
            return self.value
        return self.base.schedule(trace)


def folded(s, trace, cur=None):
    """Scheduled set after trace, advancing a cursor (from the start by default)."""
    cur = s.cursor() if cur is None else cur
    for a in trace:
        cur = s.advance(cur, a)
    return s.scheduled(cur)


# --- brute-force simulation oracle -----------------------------------------


def oracle_matches(
    a2: Lts, s2: int, a: Action, gamma: frozenset[Action], bound: int
) -> set[tuple[tuple[Action, ...], int]]:
    """All (alpha, landing) with equal gamma projections, by plain recursion."""
    want = project((a,), gamma)
    out: set[tuple[tuple[Action, ...], int]] = set()

    def rec(state: int, seq: tuple[Action, ...]) -> None:
        if project(seq, gamma) == want:
            out.add((seq, state))
        if len(seq) == bound:
            return
        for b, t in a2.out_edges(state):
            head = project(seq + (b,), gamma)
            if head == want[: len(head)]:
                rec(t, seq + (b,))

    rec(s2, ())
    return out


def oracle_is_simulation(
    relation: set[tuple[int, int]],
    a1: Lts,
    a2: Lts,
    gamma: frozenset[Action],
    bound: int,
) -> bool:
    """Definition check for one candidate relation, initial pair included."""
    if (a1.initial, a2.initial) not in relation:
        return False
    for s1, s2 in relation:
        for a, s1n in a1.out_edges(s1):
            if not any(
                (s1n, t) in relation
                for _alpha, t in oracle_matches(a2, s2, a, gamma, bound)
            ):
                return False
    return True


def oracle_union(
    a1: Lts, a2: Lts, gamma: frozenset[Action], bound: int
) -> frozenset[tuple[int, int]]:
    """Union of every relation that passes the definition check.

    Exponential in the pair count, so callers keep the state spaces at
    four or fewer states each.
    """
    pairs = list(iproduct(range(a1.num_states), range(a2.num_states)))
    # precompute, per pair and edge, the set of landing pairs
    landings: dict[tuple[int, int], list[set[tuple[int, int]]]] = {}
    for s1, s2 in pairs:
        per_edge = []
        for a, s1n in a1.out_edges(s1):
            per_edge.append(
                {(s1n, t) for _alpha, t in oracle_matches(a2, s2, a, gamma, bound)}
            )
        landings[(s1, s2)] = per_edge
    init = (a1.initial, a2.initial)
    union: set[tuple[int, int]] = set()
    for mask in range(1 << len(pairs)):
        rel = {pairs[i] for i in range(len(pairs)) if mask >> i & 1}
        if init not in rel:
            continue
        if rel <= union:
            continue  # cannot add anything new
        if all(all(options & rel for options in landings[p]) for p in rel):
            union |= rel
    return frozenset(union)


# --- random instance generators --------------------------------------------


def random_lts(
    rng: random.Random,
    num_states: int,
    actions: list[Action],
    density: float = 0.7,
) -> Lts:
    alpha = Alphabet(frozenset(), frozenset(), frozenset(), frozenset(actions))
    transitions = {}
    for s in range(num_states):
        for a in actions:
            if rng.random() < density:
                transitions[(s, a)] = rng.randrange(num_states)
    return Lts(alpha, num_states, 0, transitions)


CALL_OP = Action("op", ActionKind.CALL)
RET_0 = Action("ret", ActionKind.RETURN, payload=0)
RET_1 = Action("ret", ActionKind.RETURN, payload=1)
TICK_A = Action("tick-a", ActionKind.PROGRAM)
TICK_B = Action("tick-b", ActionKind.PROGRAM)
TICK_C = Action("tick-c", ActionKind.PROGRAM)


def make_universal_client(max_calls: int = 2) -> Lts:
    """Client that accepts any return, calls a bounded number of times,
    and always has a program action enabled (so products never idle)."""
    alpha = Alphabet(
        program=frozenset({TICK_A, TICK_B, TICK_C}),
        calls=frozenset({CALL_OP}),
        returns=frozenset({RET_0, RET_1}),
        internal=frozenset(),
    )
    b = LtsBuilder(alpha)
    b.set_initial(("A", max_calls))
    for phase in ("A", "B"):
        for left in range(max_calls + 1):
            st = (phase, left)
            if phase == "A":
                b.add(st, TICK_A, ("B", left))
                b.add(st, TICK_B, ("B", left))
            else:
                b.add(st, TICK_C, ("A", left))
            if left > 0:
                b.add(st, CALL_OP, (phase, left - 1))
            b.add(st, RET_0, st)
            b.add(st, RET_1, st)
    return b.build(complete=True)


def random_object(rng: random.Random, with_internal: bool) -> Lts:
    """Random method automaton: call, optional internal work, one return.

    Ready states accept the call; each call runs a short acyclic chain
    of internal steps, then returns (payload and successor ready state
    both random).  Returns only ever follow a pending call, so a
    scheduler that drains object work always gets back to the program.
    """
    lin = internal("lin")
    n_ready = rng.randint(1, 2)
    chains = [rng.randint(0, 1) if with_internal else 0 for _ in range(n_ready)]
    alpha = Alphabet(
        program=frozenset(),
        calls=frozenset({CALL_OP}),
        returns=frozenset({RET_0, RET_1}),
        internal=frozenset({lin}) if any(chains) else frozenset(),
    )
    transitions = {}
    nxt = n_ready
    for ready in range(n_ready):
        transitions[(ready, CALL_OP)] = nxt
        for _ in range(chains[ready]):
            transitions[(nxt, lin)] = nxt + 1
            nxt += 1
        ret = RET_0 if rng.random() < 0.5 else RET_1
        transitions[(nxt, ret)] = rng.randrange(n_ready)
        nxt += 1
    return Lts(alpha, nxt, 0, transitions)


def split_internal_chains(o2: Lts, rng: random.Random, max_splits: int = 2) -> Lts:
    """Concrete variant of o2: some steps take a detour through a fresh
    internal action and a fresh midpoint state."""
    edges = sorted(o2.edges(), key=lambda e: (e[0], e[1].key(), e[2]))
    edges = [e for e in edges if e[1] != o2.alphabet.idle]
    n_splits = min(max_splits, len(edges))
    chosen = rng.sample(range(len(edges)), n_splits) if n_splits else []
    fresh = [internal(f"u{i}") for i in range(n_splits)]
    alpha = Alphabet(
        program=o2.alphabet.program,
        calls=o2.alphabet.calls,
        returns=o2.alphabet.returns,
        internal=o2.alphabet.internal | frozenset(fresh),
    )
    transitions = {}
    next_state = o2.num_states
    for i, (s, a, t) in enumerate(edges):
        if i in chosen:
            k = chosen.index(i)
            mid = next_state
            next_state += 1
            transitions[(s, a)] = mid
            transitions[(mid, fresh[k])] = t
        else:
            transitions[(s, a)] = t
    return Lts(alpha, next_state, o2.initial, transitions)


def derived_object_pair(rng: random.Random) -> tuple[Lts, Lts]:
    """(concrete, abstract) object pair that simulates progressively.

    The concrete side stretches some steps of the abstract one through
    fresh internal detours; both stay within six states.
    """
    o2 = random_object(rng, with_internal=rng.random() < 0.5)
    room = 6 - o2.num_states
    o1 = split_internal_chains(o2, rng, max_splits=min(rng.randint(0, 2), room))
    return o1, o2
