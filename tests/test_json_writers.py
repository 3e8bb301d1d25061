"""The JSON writers against json.dumps, byte for byte.

modelio.dumps(m) must be json.dumps(lts_to_dict(m), indent=2,
sort_keys=True) + "\\n", and dumps_certificate(c, w) the same over
certificate_to_dict(c, w): both *_to_dict functions are the oracles.
"""

import json
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from conftest import derived_object_pair, make_universal_client
from test_simulation import differential_cases
from ltsim import (
    Action,
    ActionKind,
    Alphabet,
    ChoiceEntry,
    Choices,
    Lts,
    ModelError,
    ProgressWitness,
    Relation,
    SimulationCertificate,
    certificate_to_dict,
    check_forward,
    check_progressive,
    dumps,
    dumps_certificate,
    lts_to_dict,
    sufficient_alpha_bound,
)
from ltsim.casestudies import FaaConfig, build_faa_impl, build_faa_spec, build_program


def oracle(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def assert_model_bytes(m):
    assert dumps(m) == oracle(lts_to_dict(m))


def assert_certificate_bytes(cert, witness=None):
    assert dumps_certificate(cert, witness) == oracle(certificate_to_dict(cert, witness))


@pytest.mark.parametrize("threads", [2, 3, 4])
@pytest.mark.parametrize("variant", ["invalidating", "plain"])
def test_faa_models_and_certificates(threads, variant):
    cfg = FaaConfig(tuple(range(1, threads + 1)), (1,) * threads, variant)
    impl, spec = build_faa_impl(cfg), build_faa_spec(cfg)
    for m in (impl, spec, build_program(cfg)):
        assert_model_bytes(m)
    assert_certificate_bytes(check_forward(impl, spec, impl.alphabet.cr, alpha_bound=4).certificate)
    if variant == "plain" and threads < 4:  # with ranks, over more than ten states
        res = check_progressive(impl, spec, impl.alphabet.cr, alpha_bound=4)
        assert len(res.witness.rank) > 10
        assert_certificate_bytes(res.certificate, res.witness)


def test_the_acceptance_corpus():
    client = make_universal_client()
    assert_model_bytes(client)
    for seed in range(1, 101):
        o1, o2 = derived_object_pair(random.Random(seed))
        assert_model_bytes(o1)
        assert_model_bytes(o2)
        res = check_progressive(o1, o2, o1.alphabet.cr | o2.alphabet.cr, alpha_bound=sufficient_alpha_bound(o2))
        if res.certificate is not None:
            assert_certificate_bytes(res.certificate)
            assert_certificate_bytes(res.certificate, res.witness)


def test_the_differential_corpus():
    empty_gamma = 0
    for a1, a2, gamma, bound in differential_cases():
        if bound == 1:  # each pair comes once per bound
            assert_model_bytes(a1)
            assert_model_bytes(a2)
        cert = check_forward(a1, a2, gamma, alpha_bound=bound).certificate
        if cert is not None:
            assert_certificate_bytes(cert)
            empty_gamma += not gamma
    assert empty_gamma


# labels that json.dumps escapes: quotes, backslashes, non-ASCII (one
# outside the BMP), control characters, and a % that a row template must
# not read as a directive
AWKWARD = ['"', "\\", 'a"b\\c', "é", "中文", "\U0001f600", "\x00", "\x01\x1f", "\x7f", "\n\t\r",
           " ", "100%s %d %%"]


def awkward_model(state_labels, action_names):
    actions = [Action(name, ActionKind.PROGRAM) for name in action_names]
    alphabet = Alphabet(frozenset(actions), frozenset(), frozenset(), frozenset())
    n = len(state_labels)
    transitions = {(s, actions[s % len(actions)]): (s + 1) % n for s in range(n)} if actions else {}
    return Lts(alphabet, n, 0, transitions, state_labels)


def test_labels_that_need_escaping():
    assert_model_bytes(awkward_model(AWKWARD, AWKWARD))
    a = [Action(name, ActionKind.CALL, thread=1, payload=-2) for name in AWKWARD]
    choices = Choices.from_items(((s, a[s], 0), ChoiceEntry((a[s], a[-1 - s]), s)) for s in range(len(a)))
    cert = SimulationCertificate(Relation.from_pairs([(0, 0), (3, 1)]), choices, frozenset(a), 2)
    assert_certificate_bytes(cert)


@given(
    st.lists(st.text(), min_size=1, max_size=6),
    st.lists(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1), max_size=4, unique=True),
)
def test_any_labels(state_labels, action_names):
    m = awkward_model(state_labels, action_names)
    if len(set(state_labels)) < len(state_labels):  # the two states would read back as one
        with pytest.raises(ModelError, match="share the label"):
            dumps(m)
    else:
        assert_model_bytes(m)


def test_empty_sections_and_no_transitions():
    empty = Alphabet(frozenset(), frozenset(), frozenset(), frozenset())
    assert_model_bytes(Lts(empty, 1, 0, {}))
    assert_model_bytes(Lts(empty, 3, 2, {}, ("x", "y", "z")))


def test_certificates_with_empty_parts_and_ranks():
    a = Action("op", ActionKind.CALL)
    silent = Choices.from_items([((0, a, 0), ChoiceEntry((), 0))])  # an empty alpha
    nothing = SimulationCertificate(Relation([]), Choices({}), frozenset(), 0)
    one = SimulationCertificate(Relation.from_pairs([(0, 0)]), silent, frozenset(), 1)  # an empty gamma
    for cert in (nothing, one):
        assert_certificate_bytes(cert)
        assert_certificate_bytes(cert, ProgressWitness({}))
        # rank keys sort as strings: "10" before "2"
        assert_certificate_bytes(cert, ProgressWitness({s: s % 3 for s in range(12)}))


def test_writing_the_four_thread_counter_stays_under_3_2_mb():
    """Each label is escaped once, and the rows are laid out a state at a
    time: no row list of the whole model is held.

    Above the held model this writer peaks at about 2.83 MB (tracemalloc,
    Python 3.11), the one that sorted one [src, action, dst] list per
    transition at about 3.19 MB, and one that sorted 6-tuples and kept
    every escaped label at about 3.66 MB.
    """
    m = build_faa_impl(FaaConfig((1, 2, 3, 4), (1, 1, 1, 1), "invalidating"))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        dumps(m)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 3_200_000
