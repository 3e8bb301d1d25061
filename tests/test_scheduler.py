import pytest

from ltsim import (
    Action,
    ActionKind,
    Alphabet,
    BudgetExceeded,
    FifoStrategy,
    IDLE,
    Lasso,
    MaximalStrategy,
    ModelError,
    ObjectFirstStrategy,
    Scheduler,
    check_admitted,
    check_deterministic_scheduler,
    enumerate_traces,
    find_divergence,
    idle_complete,
    is_consistent,
    make_scheduler,
    product,
    register_strategy,
    validate_lasso,
)
from ltsim.casestudies import FaaConfig, build_faa_impl, build_program

from conftest import PinnedScheduler, folded, internal, make_lts, prog_action
from helpers import TableScheduler

I = internal("i")
J = internal("j")
TICK = prog_action("tick")
TOCK = prog_action("tock")
AL = Alphabet(frozenset({TICK, TOCK}), frozenset(), frozenset(), frozenset({I, J}))


def loopy():
    # silent 2-cycle next to an always-available program action
    return make_lts([(0, I, 1), (1, J, 0), (0, TICK, 0), (1, TICK, 1)], 2, AL)


# --- scheduler basics ---------------------------------------------------------


def test_table_scheduler_defaults_to_empty():
    s = TableScheduler({(): {TICK}, (TICK,): {I}})
    assert s.schedule(()) == {TICK}
    assert s.schedule((TICK,)) == {I}
    assert s.schedule((I,)) == frozenset()


def test_is_consistent():
    s = TableScheduler({(): {TICK}, (TICK,): {I, J}})
    assert is_consistent((), s)
    assert is_consistent((TICK, J), s)
    assert not is_consistent((I,), s)
    assert not is_consistent((TICK, J, TICK), s)  # past the table


def test_strategy_schedule_replays_the_trace():
    m = loopy()
    s = ObjectFirstStrategy(m)
    assert s.schedule(()) == {I}
    assert s.schedule((I,)) == {J}
    # inconsistent or infeasible histories schedule nothing
    assert s.schedule((J,)) == frozenset()


def test_maximal_strategy_schedules_enabled():
    m = loopy()
    s = MaximalStrategy(m)
    assert s.schedule(()) == {I, TICK}


def test_object_first_prefers_internal_then_cr_then_program():
    c = Action("c", ActionKind.CALL)
    al = Alphabet(frozenset({TICK}), frozenset({c}), frozenset(), frozenset({I}))
    m = make_lts([(0, TICK, 0), (0, c, 1), (0, I, 2), (1, TICK, 1), (2, c, 3), (3, TICK, 3)], 4, al)
    s = ObjectFirstStrategy(m)
    assert s.schedule(()) == {I}
    assert s.schedule((I,)) == {c}
    assert s.schedule((I, c)) == {TICK}
    done = ObjectFirstStrategy(idle_complete(make_lts([], 1, al)))
    assert done.schedule(()) == {IDLE}


def test_fifo_rotates_thread_tags():
    a1 = Action("a", ActionKind.PROGRAM, thread=1)
    a2 = Action("a", ActionKind.PROGRAM, thread=2)
    al = Alphabet(frozenset({a1, a2}), frozenset(), frozenset(), frozenset())
    m = make_lts([(0, a1, 0), (0, a2, 0)], 1, al)
    s = FifoStrategy(m)
    assert s.schedule(()) == {a1}
    assert s.schedule((a1,)) == {a2}
    assert s.schedule((a1, a2)) == {a1}
    check = check_deterministic_scheduler(s, m, depth=10)
    assert check.ok and check.complete


def test_make_scheduler_registry():
    m = loopy()
    assert isinstance(make_scheduler("maximal", m), MaximalStrategy)
    with pytest.raises(ModelError, match="unknown strategy"):
        make_scheduler("nope", m)
    register_strategy("loud", MaximalStrategy)
    assert isinstance(make_scheduler("loud", m), MaximalStrategy)


# --- trace enumeration --------------------------------------------------------


def test_enumerate_traces_matches_hand_tree():
    m = loopy()
    tree = enumerate_traces(m, MaximalStrategy(m), depth=2)
    got = sorted(tree.traces(), key=lambda t: (len(t), tuple(a.key() for a in t)))
    assert got == [
        (),
        (I,),
        (TICK,),
        (I, J),
        (I, TICK),
        (TICK, I),
        (TICK, TICK),
    ]
    node = tree.find((I, TICK))
    assert node is not None and node.state == 1
    assert tree.find((J,)) is None
    assert {leaf.depth for leaf in tree.leaves()} == {2}


def test_enumerate_traces_respects_budget():
    m = loopy()
    with pytest.raises(BudgetExceeded):
        enumerate_traces(m, MaximalStrategy(m), depth=12, budget=20)


# --- admissibility and determinism ----------------------------------------------


def test_check_admitted_exact_for_strategies():
    m = loopy()
    res = check_admitted(ObjectFirstStrategy(m), m, depth=4)
    assert res.ok and res.complete


def test_check_admitted_flags_empty_and_disabled():
    m = loopy()
    empty = TableScheduler({(): {I}})  # nothing scheduled after (i,)
    res = check_admitted(empty, m, depth=4)
    assert not res.ok and not res.complete
    assert res.witness == (I,)
    assert "empty" in res.detail

    wrong = TableScheduler({(): {J}})  # j is not enabled at the start
    res = check_admitted(wrong, m, depth=4)
    assert not res.ok
    assert res.witness == ()
    assert "j is not enabled" in res.detail


def test_check_deterministic_scheduler_allows_program_sets():
    m = make_lts([(0, TICK, 0), (0, TOCK, 0), (0, I, 1), (1, J, 0)], 2, AL)
    ok_table = TableScheduler({(): {TICK, TOCK}})
    assert check_deterministic_scheduler(ok_table, m, depth=1).ok
    mixed = TableScheduler({(): {TICK, I}})
    res = check_deterministic_scheduler(mixed, m, depth=1)
    assert not res.ok
    assert "neither program-only nor a singleton" in res.detail
    assert check_deterministic_scheduler(MaximalStrategy(m), m, depth=4).ok is False


# --- divergence -----------------------------------------------------------------


def test_find_divergence_exact_on_silent_cycle():
    m = loopy()
    s = ObjectFirstStrategy(m)
    lasso = find_divergence(m, s, m.alphabet.gamma_p)
    assert lasso is not None
    validate_lasso(m, lasso)
    assert sorted(a.label() for a in lasso.cycle) == ["i", "j"]
    assert all(a not in m.alphabet.gamma_p for a in lasso.cycle)
    assert is_consistent(lasso.unroll(3), s)


def test_find_divergence_absence_is_a_proof_for_strategies():
    m = make_lts([(0, I, 1), (1, TICK, 1)], 2, AL)
    assert find_divergence(m, ObjectFirstStrategy(m), m.alphabet.gamma_p) is None


def test_find_divergence_counts_observables_as_progress():
    m = loopy()
    s = ObjectFirstStrategy(m)
    # declaring the loop actions observable removes the divergence
    assert find_divergence(m, s, frozenset({I, J})) is None


def test_find_divergence_gives_up_on_opaque_schedulers():
    m = loopy()
    t = TableScheduler({(): {I}, (I,): {J}})
    assert find_divergence(m, t, m.alphabet.gamma_p) is None


def test_find_divergence_takes_its_budget_by_keyword_only():
    m = loopy()
    s = ObjectFirstStrategy(m)
    # a depth passed where it used to go must not become a node budget
    with pytest.raises(TypeError):
        find_divergence(m, s, m.alphabet.gamma_p, 8)
    assert find_divergence(m, s, m.alphabet.gamma_p, budget=None) is not None


# --- the cursor protocol --------------------------------------------------------


def cursor_battery(prod):
    """Every scheduler kind over prod, and traces on and off the LTS."""
    every = sorted(enumerate_traces(prod, MaximalStrategy(prod), depth=7).traces(), key=len)
    actions = sorted(prod.alphabet.all_actions, key=lambda a: a.key())
    off = [t + (a,) for t in every[:40] for a in actions if not prod.accepts(t + (a,))]
    off += [t + (actions[0],) for t in off[:20]]  # keep going once off the LTS
    assert off
    obj_first = make_scheduler("object-first", prod)
    schedulers = [make_scheduler(n, prod) for n in ("maximal", "fifo", "ll-alternator")]
    schedulers += [
        obj_first,
        TableScheduler({t: obj_first.schedule(t) for t in every[::3]}),
        PinnedScheduler(obj_first, every[5], frozenset({actions[0]})),
    ]
    return schedulers, every + off


def test_cursor_fold_agrees_with_schedule():
    cfg = FaaConfig(variant="plain")
    prod = product(build_program(cfg), build_faa_impl(cfg))
    schedulers, traces = cursor_battery(prod)
    for s in schedulers:
        for t in traces:
            assert folded(s, t) == s.schedule(t), (type(s).__name__, t)
        tree = enumerate_traces(prod, s, depth=12)
        for t in tree.traces():
            assert folded(s, t) == s.schedule(t), (type(s).__name__, t)


def test_is_consistent_agrees_with_scheduling_every_prefix():
    cfg = FaaConfig(variant="plain")
    prod = product(build_program(cfg), build_faa_impl(cfg))
    schedulers, traces = cursor_battery(prod)
    for s in schedulers:
        seen = set()
        for t in traces:
            expected = all(t[n] in s.schedule(t[:n]) for n in range(len(t)))
            assert is_consistent(t, s) == expected, (type(s).__name__, t)
            seen.add(expected)
        assert seen == {True, False}


def test_schedule_only_objects_keep_working():
    class Bare(Scheduler):
        def schedule(self, trace):
            return frozenset({TICK}) if len(trace) < 2 else frozenset()

    m = loopy()
    assert [len(t) for t in enumerate_traces(m, Bare(), depth=4).traces()] == [0, 1, 2]
    assert is_consistent((TICK, TICK), Bare()) and not is_consistent((TICK, TICK, TICK), Bare())
    res = check_admitted(Bare(), m, depth=4)
    assert not res.ok and res.witness == (TICK, TICK)
