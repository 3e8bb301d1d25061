import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import ltsim

from ltsim import (
    IDLE,
    Action,
    ActionKind,
    Alphabet,
    Lasso,
    Lts,
    LtsBuilder,
    ModelError,
    ParseError,
    StepNotEnabled,
    idle_complete,
    parse_action,
    project,
    project_lasso,
    sort_actions,
    validate_lasso,
)

from ltsim.casestudies import FaaConfig, build_faa_impl, build_faa_spec, build_program
from ltsim.lts import depth_first

from conftest import internal, make_lts, prog_action
from helpers import is_idle_complete


# --- actions ----------------------------------------------------------------


def test_parse_action_round_trips():
    for text in ("call@1#2", "ll@2", "ret#-1", "tick"):
        a = parse_action(text, ActionKind.CALL)
        assert a.label() == text
        assert a.kind is ActionKind.CALL


def test_parse_action_fields():
    a = parse_action("sc-ok@3#7", ActionKind.INTERNAL)
    assert (a.name, a.thread, a.payload) == ("sc-ok", 3, 7)
    b = parse_action("step", ActionKind.PROGRAM)
    assert (b.thread, b.payload) == (None, None)


@pytest.mark.parametrize("bad", ["", "a b", "x@", "x#", "x@1#", "a,b"])
def test_parse_action_rejects(bad):
    with pytest.raises(ParseError):
        parse_action(bad, ActionKind.CALL)


def test_sort_actions_is_total_and_stable():
    acts = [
        Action("b", ActionKind.CALL),
        Action("a", ActionKind.CALL, thread=2),
        Action("a", ActionKind.CALL, thread=1),
        Action("a", ActionKind.CALL),
        Action("a", ActionKind.CALL, thread=1, payload=5),
    ]
    ordered = sort_actions(acts)
    assert [a.label() for a in ordered] == ["a", "a@1", "a@1#5", "a@2", "b"]
    assert sort_actions(reversed(ordered)) == ordered


def old_key(a):
    """The order key as a formula on the fields, before it was stored."""
    return (
        a.name,
        a.kind.value,
        -1 if a.thread is None else a.thread,
        float("-inf") if a.payload is None else a.payload,
    )


def faa_actions(configs=(((1, 2), (1, 2)), ((1, 2, 3), (1, 1, 1)))):
    """Every action of the FAA case-study models, both variants, at each
    (threads, addends) of configs."""
    out = set()
    for threads, addends in configs:
        for variant in ("invalidating", "plain"):
            cfg = FaaConfig(threads, addends, variant)
            for lts in (build_faa_impl(cfg), build_faa_spec(cfg), build_program(cfg)):
                out |= lts.alphabet.all_actions
    return sort_actions(out)


def test_action_key_is_the_field_formula_over_the_faa_alphabets():
    actions = faa_actions()
    assert len(actions) > 20
    for a in actions:
        assert a.key() == old_key(a)
    assert sort_actions(reversed(actions)) == sorted(actions, key=old_key)


def test_equal_actions_have_equal_hashes_and_keys():
    for a in faa_actions():
        twin = Action(a.name, a.kind, a.thread, a.payload)
        assert twin == a and twin is not a
        assert hash(twin) == hash(a) and twin.key() == a.key()
    assert Action("x", ActionKind.CALL, 1) != Action("x", ActionKind.RETURN, 1)


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, dataclasses.replace, lambda a: pickle.loads(pickle.dumps(a))],
    ids=["copy", "deepcopy", "replace", "pickle"],
)
def test_a_copied_action_is_equal_with_an_equal_hash(clone):
    for a in (Action("sc-ok", ActionKind.INTERNAL, 2), Action("ret", ActionKind.RETURN, 1, -3), IDLE):
        b = clone(a)
        assert b == a and hash(b) == hash(a) and b.key() == a.key()
        assert b in {a} and {b: 1}[a] == 1
        assert type(b) is Action and (b.name, b.kind, b.thread, b.payload) == (a.name, a.kind, a.thread, a.payload)
        assert b.label() == a.label() and repr(b) == repr(a)


def test_an_action_hashes_as_its_field_tuple():
    actions = faa_actions([(tuple(range(1, n + 1)), (1,) * n) for n in (2, 3, 4)])
    assert len(actions) > 60
    for a in actions:
        fields = (a.name, a.kind, a.thread, a.payload)
        assert hash(a) == hash(fields)
        assert a != fields and not a == fields and fields != a
        assert a not in {fields} and fields not in {a}
    assert hash(IDLE) == hash(("idle", ActionKind.IDLE, None, None))


def test_an_action_hashes_in_c():
    assert not isinstance(Action.__hash__, types.FunctionType)


def test_an_action_is_frozen_and_replace_changes_one_field():
    a = Action("call", ActionKind.CALL, 2, 5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.thread = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        del a.name
    b = dataclasses.replace(a, payload=7)
    assert (b.name, b.kind, b.thread, b.payload) == ("call", ActionKind.CALL, 2, 7)
    assert b.label() == "call@2#7" and b.key() == old_key(b) and hash(b) == hash(("call", ActionKind.CALL, 2, 7))
    assert b != a and a.payload == 5
    assert [f.name for f in dataclasses.fields(a)] == ["name", "kind", "thread", "payload"]
    assert Action(name="x", kind=ActionKind.CALL) == Action("x", ActionKind.CALL, None, None)
    assert repr(a) == "Action(call@2#5:call)"


def test_an_action_pickled_under_another_hash_seed_is_found_in_a_local_set():
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    child = (
        "import pickle, sys\n"
        "from ltsim import Action, ActionKind\n"
        "acts = [Action('ll', ActionKind.INTERNAL, 1), Action('call', ActionKind.CALL, 2, 5)]\n"
        "sys.stdout.buffer.write(pickle.dumps((acts, hash(acts[0]))))\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(Path(ltsim.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, check=True, timeout=60
    )
    actions, child_hash = pickle.loads(done.stdout)
    local = {Action("ll", ActionKind.INTERNAL, 1), Action("call", ActionKind.CALL, 2, 5)}
    assert child_hash != hash(Action("ll", ActionKind.INTERNAL, 1))  # the seeds really differ
    assert all(a in local for a in actions)
    assert set(actions) == local


# --- alphabets ----------------------------------------------------------------


def test_alphabet_rejects_misfiled_action():
    with pytest.raises(ModelError, match="listed under"):
        Alphabet(
            program=frozenset({internal("x")}),
            calls=frozenset(),
            returns=frozenset(),
            internal=frozenset(),
        )


def test_alphabet_rejects_duplicate_label():
    # same label in two sections, even with different kinds
    with pytest.raises(ModelError, match="appears in both"):
        Alphabet(
            program=frozenset({prog_action("x")}),
            calls=frozenset(),
            returns=frozenset(),
            internal=frozenset({internal("x")}),
        )


def test_alphabet_reserves_idle_label():
    with pytest.raises(ModelError):
        Alphabet(
            program=frozenset({prog_action("idle")}),
            calls=frozenset(),
            returns=frozenset(),
            internal=frozenset(),
        )


def test_gamma_p_is_program_calls_returns():
    c = Action("c", ActionKind.CALL)
    r = Action("r", ActionKind.RETURN)
    p = prog_action("p")
    i = internal("i")
    al = Alphabet(frozenset({p}), frozenset({c}), frozenset({r}), frozenset({i}))
    assert al.gamma_p == {p, c, r}
    assert al.cr == {c, r}
    assert al.non_idle() == {p, c, r, i}
    assert IDLE in al.all_actions


# --- the LTS itself -----------------------------------------------------------


T = internal("t")
U = internal("u")
AL = Alphabet(frozenset(), frozenset(), frozenset(), frozenset({T, U}))


def test_lts_validates_indices_and_alphabet():
    with pytest.raises(ModelError, match="initial state"):
        make_lts([], 0, AL)
    with pytest.raises(ModelError, match="dangling"):
        make_lts([(0, T, 5)], 2, AL)
    with pytest.raises(ModelError, match="not in the declared alphabet"):
        make_lts([(0, internal("z"), 0)], 1, AL)
    with pytest.raises(ModelError, match="self-loop"):
        make_lts([(0, IDLE, 1)], 2, AL)


def test_step_run_enabled():
    m = make_lts([(0, T, 1), (1, T, 0), (1, U, 1)], 2, AL)
    assert m.enabled(0) == {T}
    assert m.enabled(1) == {T, U}
    assert m.step(0, T) == 1
    assert m.step(0, U) is None
    assert m.run((T, U, T)) == 0
    assert m.accepts((T, T, T))
    assert not m.accepts((U,))
    with pytest.raises(StepNotEnabled) as e:
        m.run((T, T, T, T, U))
    assert e.value.position == 4  # fifth step starts in state 0, where u is off


def test_out_edges_are_canonically_ordered():
    m = make_lts([(0, U, 0), (0, T, 0)], 1, AL)
    assert [a.label() for a, _ in m.out_edges(0)] == ["t", "u"]


def test_reachable_ignores_disconnected_states():
    m = make_lts([(0, T, 1), (2, T, 2)], 3, AL)
    assert m.reachable() == [0, 1]


# --- projections ----------------------------------------------------------------


def test_project_keeps_order():
    a, b, c = internal("a"), internal("b"), internal("c")
    assert project((a, b, c, a), {a, c}) == (a, c, a)
    assert project((), {a}) == ()


@given(st.lists(st.sampled_from("abc"), max_size=12), st.sets(st.sampled_from("abc")))
def test_project_is_a_monoid_morphism(names, gamma_names):
    tau = tuple(internal(n) for n in names)
    gamma = {internal(n) for n in gamma_names}
    cut = len(tau) // 2
    assert project(tau, gamma) == project(tau[:cut], gamma) + project(tau[cut:], gamma)
    assert project(project(tau, gamma), gamma) == project(tau, gamma)


def test_project_lasso_drops_fully_silent_cycle():
    a, b = internal("a"), internal("b")
    lasso = Lasso(stem=(a, b), cycle=(b,))
    assert project_lasso(lasso, {a}) == (a,)
    kept = project_lasso(lasso, {b})
    assert isinstance(kept, Lasso)
    assert kept == Lasso((b,), (b,))


def test_lasso_requires_cycle():
    with pytest.raises(ModelError):
        Lasso(stem=(), cycle=())


# --- idle completion ----------------------------------------------------------------


def test_idle_complete_only_touches_sinks():
    m = make_lts([(0, T, 1)], 2, AL)
    assert not is_idle_complete(m)
    done = idle_complete(m)
    assert is_idle_complete(done)
    assert done.enabled(0) == {T}
    assert done.enabled(1) == {IDLE}
    assert done.step(1, IDLE) == 1
    # applying it again changes nothing
    again = idle_complete(done)
    assert sorted(again.edges(), key=lambda e: (e[0], e[1].key())) == sorted(
        done.edges(), key=lambda e: (e[0], e[1].key())
    )


# --- lassos -------------------------------------------------------------------------


def test_validate_lasso():
    m = make_lts([(0, T, 1), (1, U, 1), (1, T, 0)], 2, AL)
    validate_lasso(m, Lasso((T,), (U,)))
    validate_lasso(m, Lasso((), (T, T)))
    with pytest.raises(ModelError, match="expected to return"):
        validate_lasso(m, Lasso((), (T, U)))
    with pytest.raises(StepNotEnabled):
        validate_lasso(m, Lasso((U,), (T,)))


# --- cycle finding ------------------------------------------------------------------


def succ_of(graph):
    return lambda node: graph.get(node, [])


def test_find_cycle_on_a_self_loop():
    assert depth_first([0], succ_of({0: [("a", 0)]}))[0] == (0, ("a",))


def test_find_cycle_reachable_only_from_the_second_start():
    graph = {0: [("a", 1)], 2: [("b", 3)], 3: [("c", 4)], 4: [("d", 3)]}
    assert depth_first([0, 2], succ_of(graph))[0] == (3, ("c", "d"))
    assert depth_first([0], succ_of(graph))[0] is None


def test_find_cycle_on_a_dag_is_none():
    graph = {0: [("a", 1), ("b", 2)], 1: [("c", 3)], 2: [("d", 3)], 3: [("e", 4)]}
    assert depth_first(range(5), succ_of(graph))[0] is None


def test_find_cycle_start_order_decides_the_cycle():
    graph = {0: [("a", 1)], 1: [("b", 0)], 5: [("c", 6)], 6: [("d", 5)]}
    assert depth_first([0, 5], succ_of(graph))[0] == (0, ("a", "b"))
    assert depth_first([5, 0], succ_of(graph))[0] == (5, ("c", "d"))


def test_find_cycle_on_a_long_chain_needs_no_recursion():
    n = 20_000
    assert n > sys.getrecursionlimit()
    graph = {i: [(i, i + 1)] for i in range(n - 1)}
    graph[n - 1] = [(n - 1, 0)]
    node, labels = depth_first([0], succ_of(graph))[0]
    assert node == 0
    assert labels == tuple(range(n))


# --- builder ----------------------------------------------------------------


def test_builder_interns_by_label_and_completes():
    b = LtsBuilder(AL)
    b.set_initial("p")
    b.add("p", T, "q")
    m = b.build()
    assert m.num_states == 2
    assert m.label_of(0) == "p"
    assert is_idle_complete(m)
    raw = LtsBuilder(AL)
    raw.set_initial("p")
    raw.add("p", T, "q")
    assert not is_idle_complete(raw.build(complete=False))


def test_builder_rejects_conflicting_edge():
    b = LtsBuilder(AL)
    b.set_initial("p")
    b.add("p", T, "q")
    with pytest.raises(ModelError, match="duplicate transition"):
        b.add("p", T, "r")


def test_builder_needs_initial():
    with pytest.raises(ModelError, match="initial"):
        LtsBuilder(AL).build()
