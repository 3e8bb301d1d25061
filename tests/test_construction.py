"""Every way of building an LTS against the checks and rows of the
reference constructor (tests/reference_lts.py), plus the value semantics
of the alphabets and LTSs built.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ltsim import (
    IDLE,
    Action,
    ActionKind,
    Alphabet,
    Lts,
    LtsBuilder,
    ModelError,
    ParseError,
    idle_complete,
    parse_lts_text,
    product,
)
from ltsim.casestudies import FaaConfig, build_faa_impl, build_program

from conftest import internal, prog_action
from reference_lts import ReferenceLts

T, U, P = internal("t"), internal("u"), prog_action("p")
STRANGER = internal("z")  # outside the alphabet
OTHER_IDLE = Action("rest", ActionKind.IDLE)  # idle kind, but not the alphabet's idle
ALPHA = Alphabet(frozenset({P}), frozenset(), frozenset(), frozenset({T, U}))
ACTIONS = (T, U, P, IDLE, STRANGER, OTHER_IDLE)


def outcome(build):
    """('error', type, message) or ('ok', num_states, initial, labels, rows)."""
    try:
        lts = build()
    except ModelError as e:
        return ("error", type(e), str(e))
    if isinstance(lts, ReferenceLts):
        rows = lts.rows()
    else:
        rows = [list(lts.out_edges(s)) for s in range(lts.num_states)]
    return ("ok", lts.num_states, lts.initial, lts.labels, rows)


edge_lists = st.lists(
    st.tuples(st.integers(-1, 5), st.sampled_from(ACTIONS), st.integers(-1, 5)), max_size=12
)


@settings(max_examples=400, deadline=None)
@given(
    num_states=st.integers(-1, 4),
    initial=st.integers(-1, 4),
    label_shift=st.sampled_from([None, 0, 0, 0, 1, -1]),
    edges=edge_lists,
)
def test_a_mapping_reports_the_reference_first_fault_or_builds_its_rows(
    num_states, initial, label_shift, edges
):
    transitions = {(s, a): t for s, a, t in edges}
    labels = None
    if label_shift is not None:
        labels = [f"q{i}" for i in range(max(0, num_states + label_shift))]
    want = outcome(lambda: ReferenceLts(ALPHA, num_states, initial, transitions, labels))
    assert outcome(lambda: Lts(ALPHA, num_states, initial, transitions, labels)) == want


def test_the_first_fault_follows_the_mapping_order_not_the_state_order():
    transitions = {(3, T): 9, (0, STRANGER): 0, (1, IDLE): 0}
    for order in ([0, 1, 2], [1, 2, 0], [2, 0, 1]):
        mapping = dict(list(transitions.items())[i] for i in order)
        with pytest.raises(ModelError) as got:
            Lts(ALPHA, 4, 0, mapping)
        with pytest.raises(ModelError) as want:
            ReferenceLts(ALPHA, 4, 0, mapping)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("size", [2, 3])
def test_distinct_actions_with_equal_keys_keep_the_reference_row_order(size):
    # thread None and thread -1 share an order key, so only a stable
    # sort keeps these rows in insertion order
    tied = [Action("t", ActionKind.INTERNAL, thread) for thread in (None, -1)]
    alpha = Alphabet(frozenset(), frozenset(), frozenset(), frozenset(tied + [T]))
    for actions in (tied, tied[::-1], [T, *tied], [*tied[::-1], T]):
        transitions = {(0, a): 0 for a in actions[:size]}
        want = outcome(lambda: ReferenceLts(alpha, 1, 0, transitions))
        assert outcome(lambda: Lts(alpha, 1, 0, transitions)) == want


def builder_from(adds):
    b = LtsBuilder(ALPHA)
    b.set_initial("q0")
    for src, a, dst in adds:
        b.add(f"q{src}", a, f"q{dst}")
    return b


@settings(max_examples=300, deadline=None)
@given(
    adds=st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from(ACTIONS), st.integers(0, 4)),
        max_size=10,
        unique_by=lambda e: (e[0], e[1]),
    )
)
def test_a_completed_build_is_idle_complete_of_the_plain_build(adds):
    b = builder_from(adds)
    mapping = dict(b._transitions)
    want = outcome(lambda: ReferenceLts(ALPHA, len(b._labels), 0, mapping, b._labels))
    assert outcome(lambda: b.build(complete=False)) == want
    completed = outcome(lambda: b.build(complete=True))
    if want[0] == "error":
        assert completed == want
        return
    plain = b.build(complete=False)
    assert completed == outcome(lambda: idle_complete(plain))
    # the completed rows gain exactly the sinks' idle self-loops
    idled = dict(mapping)
    for s in range(plain.num_states):
        if not any(a != IDLE for a in plain.enabled(s)):
            idled[(s, IDLE)] = s
    assert completed == outcome(lambda: ReferenceLts(ALPHA, plain.num_states, 0, idled, b._labels))


def test_idle_complete_of_a_product_is_a_plain_lts_with_the_same_edges():
    prod = product(build_program(FaaConfig()), build_faa_impl(FaaConfig()))
    done = idle_complete(prod)
    assert type(done) is Lts
    assert list(done.edges()) == list(prod.edges())
    assert done.labels == prod.labels


def test_the_model_reader_reports_the_first_bad_idle_row_in_file_order():
    # state numbers follow first appearance: s=0, a=1, b=2, c=3
    text = "internal: t\ninitial: s\ns -- t -> a\na -- t -> b\nb -- idle -> c\na -- idle -> s\n"
    with pytest.raises(ParseError) as got:
        parse_lts_text(text)
    mapping = {(0, T): 1, (1, T): 2, (2, IDLE): 3, (1, IDLE): 0}
    alpha = Alphabet(frozenset(), frozenset(), frozenset(), frozenset({T}))
    with pytest.raises(ModelError) as want:
        ReferenceLts(alpha, 4, 0, mapping, ["s", "a", "b", "c"])
    assert str(got.value) == str(want.value) == "idle transition 2 -> 3 must be a self-loop"


# --- values of alphabets and LTSs -------------------------------------------------

CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
def test_a_cloned_alphabet_is_equal_with_its_derived_sets(clone):
    twin = clone(ALPHA)
    assert twin == ALPHA and hash(twin) == hash(ALPHA)
    assert (twin.gamma_p, twin.cr, twin.all_actions) == (ALPHA.gamma_p, ALPHA.cr, ALPHA.all_actions)


def test_alphabet_fields_equality_and_replace_ignore_the_derived_sets():
    assert [f.name for f in dataclasses.fields(Alphabet)] == [
        "program", "calls", "returns", "internal",
    ]
    rebuilt = Alphabet(ALPHA.program, ALPHA.calls, ALPHA.returns, ALPHA.internal)
    assert rebuilt == ALPHA and hash(rebuilt) == hash(ALPHA)
    assert repr(ALPHA) == (
        f"Alphabet(program={ALPHA.program!r}, calls=frozenset(), returns=frozenset(), "
        f"internal={ALPHA.internal!r})"
    )
    narrowed = dataclasses.replace(ALPHA, internal=frozenset({T}))
    assert narrowed.all_actions == {P, T, IDLE} and narrowed != ALPHA
    with pytest.raises(ModelError, match="appears in both"):
        dataclasses.replace(ALPHA, internal=frozenset({internal("p")}))


def test_every_alphabet_has_the_one_idle_action():
    assert Alphabet.idle is IDLE and ALPHA.idle is IDLE
    with pytest.raises(TypeError, match="idle"):
        Alphabet(ALPHA.program, ALPHA.calls, ALPHA.returns, ALPHA.internal, idle=OTHER_IDLE)
    with pytest.raises(ModelError, match="action idle appears in both internal and idle"):
        Alphabet(frozenset(), frozenset(), frozenset(), frozenset({internal("idle")}))


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
def test_a_cloned_lts_is_a_distinct_lts_with_the_same_edges(clone):
    prod = product(build_program(FaaConfig()), build_faa_impl(FaaConfig()))
    twin = clone(prod)
    assert twin is not prod and twin != prod  # LTSs compare by identity
    assert type(twin) is type(prod)
    assert list(twin.edges()) == list(prod.edges())
    assert (twin.labels, twin.parts, twin.alphabet) == (prod.labels, prod.parts, prod.alphabet)
    a = next(a for _, a, _ in prod.edges())
    assert twin.step(prod.initial, a) == prod.step(prod.initial, a)


def test_an_lts_pickled_under_another_hash_seed_steps_locally():
    code = (
        "import pickle, sys\n"
        "from ltsim import product\n"
        "from ltsim.casestudies import FaaConfig, build_faa_impl, build_program\n"
        "sys.stdout.buffer.write(pickle.dumps("
        "product(build_program(FaaConfig()), build_faa_impl(FaaConfig()))))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONHASHSEED="123", PYTHONPATH=str(src))
    blob = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60
    ).stdout
    theirs = pickle.loads(blob)
    ours = product(build_program(FaaConfig()), build_faa_impl(FaaConfig()))
    assert list(theirs.edges()) == list(ours.edges())
    for s, a, t in ours.edges():
        assert theirs.step(s, a) == t
        assert a in theirs.alphabet.all_actions
    assert theirs.alphabet.gamma_p == ours.alphabet.gamma_p
