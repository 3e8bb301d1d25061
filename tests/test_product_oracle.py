"""product against the reference copy of the search it replaced.

The two must agree on everything a report or certificate can see: the
state numbering, the component pair of each state, the labels, the
alphabet and every state's edges in order.
"""

import importlib.util
import random
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ltsim import Action, ActionKind, Alphabet, LtsBuilder, load_model, product
from ltsim.casestudies import FaaConfig, build_faa_impl, build_faa_spec, build_program

from conftest import internal, prog_action
from reference_product import reference_product
from test_simulation import differential_cases

ROOT = Path(__file__).resolve().parent.parent


def assert_same_product(prog, obj):
    got, want = product(prog, obj), reference_product(prog, obj)
    assert got.num_states == want.num_states
    assert got.initial == want.initial == 0
    assert got.parts == want.parts
    assert got.labels == want.labels
    assert got.alphabet == want.alphabet
    for s in range(want.num_states):
        assert list(got.out_edges(s)) == list(want.out_edges(s)), s
    return got


TICK, TOCK = prog_action("tick"), prog_action("tock")
TICKS = Alphabet(frozenset({TICK, TOCK}), frozenset(), frozenset(), frozenset())


def ticking_client(sink: bool):
    """Program-only client: tick/tock forever, or one tick into a sink."""
    b = LtsBuilder(TICKS)
    b.set_initial("p0")
    b.add("p0", TICK, "p1")
    if not sink:
        b.add("p1", TOCK, "p0")
    return b.build(complete=True)


def test_product_matches_the_reference_on_the_differential_objects():
    clients = (ticking_client(sink=False), ticking_client(sink=True))
    cases = 0
    for a1, a2, _gamma, _bound in differential_cases():
        for client in clients:
            for obj in (a1, a2):
                assert_same_product(client, obj)
        cases += 1
    assert cases == 1200


def _perfbench_workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:  # dataclasses look their module up there
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def test_product_matches_the_reference_on_the_many_small_shapes():
    workloads = _perfbench_workloads()
    for seed in (1, 2):
        models = {
            name: load_model(text)
            for name, text in workloads.many_small(seed, tiny=False).models().items()
        }
        client = models.pop("client.json")
        assert len(models) == 2 * workloads.PAIRS
        for obj in models.values():
            assert_same_product(client, obj)


def test_product_matches_the_reference_on_faa():
    for threads in (2, 3):
        for variant in ("invalidating", "plain"):
            for addends in ((1,) * threads, tuple(range(1, threads + 1))):
                cfg = FaaConfig(tuple(range(1, threads + 1)), addends, variant)
                prog = build_program(cfg)
                for obj in (build_faa_impl(cfg), build_faa_spec(cfg)):
                    assert assert_same_product(prog, obj).num_states > 20


CALLS = (Action("c", ActionKind.CALL), Action("d", ActionKind.CALL, 1))
RETS = (Action("r", ActionKind.RETURN, payload=0), Action("r", ActionKind.RETURN, payload=1))
PROGRAM = (prog_action("p"), prog_action("q"), Action("q", ActionKind.PROGRAM, 2))
INTERNAL = (internal("i"), internal("j"), Action("k", ActionKind.INTERNAL, 1))


def random_side(rng, num_states, program, internal, complete):
    """A random component over the shared calls and returns."""
    alphabet = Alphabet(frozenset(program), frozenset(CALLS), frozenset(RETS), frozenset(internal))
    b = LtsBuilder(alphabet)
    b.set_initial(0)
    for s in range(num_states):
        b.state(s)
        for a in (*CALLS, *RETS, *program, *internal):
            if rng.random() < 0.4:
                b.add(s, a, rng.randrange(num_states))
    return b.build(complete=complete)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    complete=st.tuples(st.booleans(), st.booleans()),
)
def test_product_matches_the_reference_on_random_pairs(seed, sizes, complete):
    rng = random.Random(seed)
    prog = random_side(rng, sizes[0], PROGRAM, (), complete[0])
    obj = random_side(rng, sizes[1], (), INTERNAL, complete[1])
    assert_same_product(prog, obj)
