import pytest

from ltsim import (
    Action,
    ActionKind,
    Alphabet,
    AlphabetMismatch,
    IDLE,
    LtsBuilder,
    ProductState,
    product,
)

from conftest import internal, make_lts, prog_action
from helpers import is_idle_complete

C = Action("c", ActionKind.CALL)
R = Action("r", ActionKind.RETURN, payload=0)
I = internal("i")
TICK = prog_action("tick")

PROG_AL = Alphabet(frozenset({TICK}), frozenset({C}), frozenset({R}), frozenset())
OBJ_AL = Alphabet(frozenset(), frozenset({C}), frozenset({R}), frozenset({I}))


def simple_program():
    # p0 --c--> p1 --r#0--> p2, plus a tick self-loop on p0
    return make_lts([(0, TICK, 0), (0, C, 1), (1, R, 2)], 3, PROG_AL)


def simple_object():
    # o0 --c--> o1 --i--> o2 --r#0--> o0
    return make_lts([(0, C, 1), (1, I, 2), (2, R, 0)], 3, OBJ_AL)


def test_product_matches_hand_enumeration():
    """Expected product worked out by hand.

    (p0,o0) has tick and c; the call moves both sides; i moves only the
    object; r#0 synchronizes again; (p2,o0) is a total sink and gets the
    product idle loop.  No other pair is reachable.
    """
    prod = product(simple_program(), simple_object())
    assert prod.num_states == 4
    assert [prod.part(s) for s in range(4)] == [
        ProductState(0, 0),
        ProductState(1, 1),
        ProductState(1, 2),
        ProductState(2, 0),
    ]
    expected = {
        (0, TICK, 0),
        (0, C, 1),
        (1, I, 2),
        (2, R, 3),
        (3, prod.alphabet.idle, 3),
    }
    assert set(prod.edges()) == expected
    assert prod.label_of(1) == "s1|s1"


def test_product_alphabet_partition():
    prod = product(simple_program(), simple_object())
    a = prod.alphabet
    assert a.program == {TICK}
    assert a.calls == {C}
    assert a.returns == {R}
    assert a.internal == {I}


def test_product_is_deterministic_and_idle_complete():
    prod = product(simple_program(), simple_object())
    assert is_idle_complete(prod)
    # idle only where nothing else is enabled
    for s in range(prod.num_states):
        en = prod.enabled(s)
        assert (IDLE in en) == (en == {IDLE})


def test_component_idle_loops_are_dropped():
    b = LtsBuilder(OBJ_AL)
    b.set_initial("o0")
    b.add("o0", C, "o1")  # o1 is a sink, so build(complete=True) idles it
    obj = b.build()
    assert IDLE in obj.enabled(1)
    prog = make_lts([(0, TICK, 0), (0, C, 1), (1, TICK, 1)], 2, PROG_AL)
    prod = product(prog, obj)
    # the program side still ticks, so the pair must not inherit the idle
    for s in range(prod.num_states):
        assert prod.enabled(s) != {IDLE}
        assert IDLE not in prod.enabled(s)


def test_call_waits_for_the_object():
    # object only accepts the call after its internal warm-up step
    obj = make_lts([(0, I, 1), (1, C, 2), (2, R, 1)], 3, OBJ_AL)
    prog = make_lts([(0, C, 1), (1, R, 0)], 2, PROG_AL)
    prod = product(prog, obj)
    assert prod.step(0, C) is None
    assert prod.step(0, I) is not None


def test_interface_mismatches():
    prog, obj = simple_program(), simple_object()

    leaky = Alphabet(frozenset({TICK}), frozenset({C}), frozenset({R}), frozenset({I}))
    with pytest.raises(AlphabetMismatch, match="internal"):
        product(make_lts([(0, TICK, 0)], 1, leaky), obj)

    pushy = Alphabet(frozenset({TICK}), frozenset({C}), frozenset({R}), frozenset())
    with pytest.raises(AlphabetMismatch, match="program"):
        product(prog, make_lts([(0, TICK, 0)], 1, pushy))

    extra_call = Action("c2", ActionKind.CALL)
    wide = Alphabet(frozenset({TICK}), frozenset({C, extra_call}), frozenset({R}), frozenset())
    with pytest.raises(AlphabetMismatch, match="calls declared only on the program side"):
        product(make_lts([(0, C, 0)], 1, wide), obj)

    clash_prog = Alphabet(frozenset({prog_action("i")}), frozenset({C}), frozenset({R}), frozenset())
    with pytest.raises(AlphabetMismatch, match="both a program and an internal"):
        product(make_lts([(0, C, 0)], 1, clash_prog), obj)
