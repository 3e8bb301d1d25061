"""The shared walker against the walks as they were (reference_walks.py).

_walk asks a strategy once per distinct cursor and computes a node's
steps and test verdicts once per distinct (state, scheduled set); the
trees, checks and errors must be those of the separate walks at every
budget, for every kind of scheduler.
"""

from collections import Counter

import pytest

from reference_walks import (
    reference_check_admitted,
    reference_check_deterministic_scheduler,
    reference_enumerate_traces,
)
from ltsim import (
    FifoStrategy,
    MaximalStrategy,
    ObjectFirstStrategy,
    Scheduler,
    check_admitted,
    check_deterministic_scheduler,
    enumerate_traces,
    product,
    sort_actions,
)
from ltsim.casestudies import FaaConfig, build_faa_impl, build_faa_spec, build_program
from ltsim.scheduler import _not_admitted, _not_deterministic, _walk, check_scheduler_tree

from helpers import TableScheduler


@pytest.fixture(scope="module")
def prods():
    cfg = FaaConfig(variant="plain")
    prog = build_program(cfg)
    return product(prog, build_faa_impl(cfg)), product(prog, build_faa_spec(cfg))


class Opaque(Scheduler):
    """The cursor protocol of s, never seen as a strategy."""

    def __init__(self, s):
        self.w = s

    def schedule(self, trace):
        return self.w.schedule(trace)

    def cursor(self):
        return self.w.cursor()

    def advance(self, cur, a):
        return self.w.advance(cur, a)

    def scheduled(self, cur):
        return self.w.scheduled(cur)


class BareSet(Scheduler):
    """Defines only schedule(), and returns a plain set: every enabled
    action, plus a disabled one after two steps."""

    def __init__(self, lts):
        self.lts, self.maximal = lts, MaximalStrategy(lts)
        self.disabled = next(a for a in sort_actions(lts.alphabet.all_actions) if lts.step(lts.initial, a) is None)

    def schedule(self, trace):
        out = set(self.maximal.schedule(trace))
        if len(trace) == 2:
            out.add(self.disabled)
        return out


class FrozenBareSet(BareSet):
    """BareSet's sets, as frozensets."""

    def schedule(self, trace):
        return frozenset(super().schedule(trace))


class PlainSetStrategy(MaximalStrategy):
    """MaximalStrategy, but decide() returns a plain set."""

    def decide(self, state, mem):
        return set(super().decide(state, mem))


def schedulers(prod1, prod2):
    of = ObjectFirstStrategy(prod1)
    table = TableScheduler({t: of.schedule(t) for t in list(enumerate_traces(prod1, of, 5).traces())[::2]})
    return {
        "object-first": of,
        "maximal": MaximalStrategy(prod1),
        "fifo": FifoStrategy(prod1),
        "object-first-over-abstract": ObjectFirstStrategy(prod2),
        "fifo-over-abstract": FifoStrategy(prod2),
        "table": table,
        "bare-set": BareSet(prod1),
    }


def shape(tree):
    """Every node, preorder: depth, action, state and children in order."""
    return tuple(
        (v.depth, v.action, v.state, tuple(v.children)) for v in tree.nodes()
    )


def outcome(run):
    try:
        return run()
    except Exception as e:  # the error is part of the result compared
        return ("raises", type(e).__name__, str(e))


@pytest.mark.parametrize("name", ["object-first", "maximal", "fifo", "object-first-over-abstract",
                                  "fifo-over-abstract", "table", "bare-set"])
@pytest.mark.parametrize("depth, check_depth", [(5, 4), (3, 6), (4, -1), (6, None)])
def test_walk_agrees_with_the_separate_walks(prods, name, depth, check_depth):
    prod1, prod2 = prods
    s = schedulers(prod1, prod2)[name]
    seen = Counter()
    for budget in (None, *range(14)):
        if check_depth is None:  # no tests: the tree alone
            got = outcome(lambda: shape(_walk(prod1, s, depth, budget)[0]))
            want = outcome(lambda: shape(reference_enumerate_traces(prod1, Opaque(s), depth, budget)))
        else:
            def walked():
                tree, checks = _walk(prod1, s, depth, budget, [_not_admitted, _not_deterministic], check_depth)
                return (*checks, shape(tree))

            got = outcome(walked)
            want = outcome(lambda: (
                reference_check_admitted(Opaque(s), prod1, check_depth, budget),
                reference_check_deterministic_scheduler(Opaque(s), prod1, check_depth, budget),
                shape(reference_enumerate_traces(prod1, Opaque(s), depth, budget)),
            ))
        assert got == want, (budget, got, want)
        seen[got[0] == "raises"] += 1
    assert seen[True] and seen[False], seen


@pytest.mark.parametrize("plain, frozen", [(PlainSetStrategy, MaximalStrategy), (BareSet, FrozenBareSet)])
def test_a_plain_set_walks_as_its_frozenset_twin(prods, plain, frozen):
    """scheduled() makes a frozenset of what decide() or schedule() returns,
    which the walk's memo of a node's steps is keyed by."""
    prod1, _ = prods

    def results(s):
        tree, adm, det = check_scheduler_tree(s, prod1, 4, 5)
        return (
            shape(tree), adm, det,
            check_admitted(s, prod1, 4),
            check_deterministic_scheduler(s, prod1, 4),
            shape(enumerate_traces(prod1, s, 6)),
        )

    assert results(plain(prod1)) == results(frozen(prod1))


def test_walk_asks_a_strategy_once_per_cursor(prods):
    prod1, _ = prods
    asked, moved = Counter(), Counter()

    class Counting(FifoStrategy):
        def decide(self, state, mem):
            asked[state, mem] += 1
            return super().decide(state, mem)

        def update_memory(self, mem, state, action):
            moved[state, mem, action] += 1
            return super().update_memory(mem, state, action)

    tree = enumerate_traces(prod1, Counting(prod1), 40)  # idles once the client is done
    assert tree.size > 2 * len(asked)
    assert set(asked.values()) == {1} and set(moved.values()) == {1}


def test_node_list_holds_every_node_parents_first(prods):
    prod1, _ = prods
    tree = enumerate_traces(prod1, MaximalStrategy(prod1), 5)
    listed = tree.node_list
    assert tree.size == len(listed) == len(set(map(id, listed)))
    assert set(map(id, listed)) == set(map(id, tree.nodes()))
    position = {id(v): i for i, v in enumerate(listed)}
    assert all(position[id(v.parent)] < position[id(v)] for v in listed[1:])
