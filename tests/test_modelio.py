import json

import pytest
from hypothesis import given, reject, strategies as st

from ltsim import (
    Action,
    ActionKind,
    Alphabet,
    Lts,
    ModelError,
    ParseError,
    dumps,
    format_lts_text,
    load_model,
    loads,
    lts_from_dict,
    lts_to_dict,
    parse_lts_text,
    product,
    to_dot,
)

SAMPLE = """
// a one-cell register
calls: rd@1, wr@1#5
returns: ret@1#0, ret@1#5
internal: commit
initial: empty

empty -- wr@1#5 -> pending
pending -- commit -> full   // takes effect here
full -- ret@1#5 -> full
empty -- rd@1 -> reading
reading -- ret@1#0 -> empty
"""


def edge_labels(m: Lts) -> set[tuple[str, str, str]]:
    return {(m.label_of(s), a.label(), m.label_of(t)) for s, a, t in m.edges()}


def test_parse_text_basics():
    m = parse_lts_text(SAMPLE)
    assert m.label_of(m.initial) == "empty"
    assert m.num_states == 4
    assert ("pending", "commit", "full") in edge_labels(m)
    labels = {a.label() for a in m.alphabet.calls}
    assert labels == {"rd@1", "wr@1#5"}


@pytest.mark.parametrize(
    "text, fragment, line",
    [
        ("calls: a\ncalls: b\ninitial: s\n", "declared twice", 2),
        ("initial: s\ns -- zap -> s\n", "undeclared action", 2),
        ("calls: c\ninitial: s\ns -- c -> a\ns -- c -> b\n", "nondeterministic", 4),
        ("initial: s\ns --  -> t\n", "malformed transition", 2),
        ("initial: s\nwhat is this\n", "unrecognized line", 2),
        ("internal: idle\ninitial: s\n", "reserved", 1),
        ("calls: x\nreturns: x\ninitial: s\n", "declared in both", 2),
        ("calls: a\n", "no initial state", None),
        ("initial:\n", "empty", 1),
        # an equal row before the faulty one, and one after it
        ("internal: c\ninitial: s\ns -- c -> a\ns -- c -> a\n\ns -- c -> b\n", "nondeterministic", 6),
        ("initial: s\ncalls: c\ns -- c -> s\n\ns -- zap -> t\ns -- zap -> t\n", "undeclared action", 5),
    ],
)
def test_parse_text_errors_carry_positions(text, fragment, line):
    with pytest.raises(ParseError) as e:
        parse_lts_text(text)
    assert fragment in str(e.value)
    assert e.value.line == line


def test_text_round_trip_is_canonical():
    m = parse_lts_text(SAMPLE)
    text = format_lts_text(m)
    again = parse_lts_text(text)
    assert edge_labels(again) == edge_labels(m)
    assert again.label_of(again.initial) == "empty"
    # the writer is a fixpoint
    assert format_lts_text(again) == text


def test_json_round_trip_and_stability():
    m = parse_lts_text(SAMPLE)
    payload = dumps(m)
    again = loads(payload)
    assert edge_labels(again) == edge_labels(m)
    assert dumps(again) == payload
    assert json.loads(payload)["initial"] == "empty"


def test_lts_from_dict_rejects_garbage():
    with pytest.raises(ParseError, match="missing model field"):
        lts_from_dict({"alphabet": {}})
    base = lts_to_dict(parse_lts_text(SAMPLE))
    bad = dict(base, transitions=[["a", "b"]])
    with pytest.raises(ParseError, match="not \\[src, action, dst\\]"):
        lts_from_dict(bad)


@pytest.mark.parametrize(
    "alphabet, transitions",
    [
        ([], []),
        ({"calls": "ab"}, []),
        ({"calls": [5]}, []),
        ({"calls": ["c"]}, 3),
        ({"calls": ["c"]}, [7]),
    ],
    ids=["alphabet-list", "section-string", "section-number", "transitions-number", "row-number"],
)
def test_loads_rejects_malformed_json_shapes(alphabet, transitions):
    payload = {"alphabet": alphabet, "initial": "s", "transitions": transitions}
    with pytest.raises(ParseError):
        loads(json.dumps(payload))


REPEATED_KEY_MODELS = {
    # json.loads alone keeps the last of each: a one-state model without edges
    "top-level": '{"alphabet": {"internal": ["x"]}, "initial": "a", '
    '"transitions": [["a", "x", "b"]], "transitions": [], "initial": "b"}',
    "alphabet-section": '{"alphabet": {"internal": ["x"], "internal": []}, '
    '"initial": "a", "transitions": [["a", "x", "b"]]}',
}


@pytest.mark.parametrize("name", sorted(REPEATED_KEY_MODELS))
def test_a_json_model_that_repeats_a_key_is_a_parse_error(name):
    for read in (loads, load_model):
        with pytest.raises(ParseError) as e:
            read(REPEATED_KEY_MODELS[name])
        assert str(e.value) == "malformed model: a JSON object repeats a key"


@pytest.mark.parametrize(
    "text, calls, rows",
    [
        ("initial: s\ns -- zap -> t\n", [], [["s", "zap", "t"]]),
        (
            "calls: c\ninitial: s\ns -- c -> a\ns -- c -> b\n",
            ["c"],
            [["s", "c", "a"], ["s", "c", "b"]],
        ),
        ("initial: s\ncalls: op, op\n", ["op", "op"], []),
    ],
    ids=["undeclared", "nondeterministic", "declared-twice"],
)
def test_both_syntaxes_report_a_defect_the_same_way(text, calls, rows):
    with pytest.raises(ParseError) as from_text:
        parse_lts_text(text)
    with pytest.raises(ParseError) as from_json:
        lts_from_dict({"alphabet": {"calls": calls}, "initial": "s", "transitions": rows})
    assert str(from_text.value) == f"{from_json.value} (line {from_text.value.line})"


@pytest.mark.parametrize(
    "rows, message",
    [
        ([["s", "zap", "t"], ["s"]], "undeclared action 'zap'"),
        ([["s"], ["s", "zap", "t"]], "transition row ['s'] is not [src, action, dst]"),
        (
            [["s", "c", "a"], ["s", "c", "b"], [0, "c", "t"]],
            "nondeterministic: ('s', 'c') already maps to 'a'",
        ),
        # states s=0, a=1, b=2, t=3: the first bad idle row in file order is
        # not the first in state order
        (
            [["s", "c", "a"], ["a", "idle", "b"], ["s", "idle", "t"]],
            "idle transition 1 -> 2 must be a self-loop",
        ),
    ],
    ids=["undeclared-first", "shape-first", "nondeterministic-first", "idle-in-file-order"],
)
def test_the_json_reader_reports_the_first_faulty_row(rows, message):
    with pytest.raises(ParseError) as e:
        lts_from_dict({"alphabet": {"calls": ["c"]}, "initial": "s", "transitions": rows})
    assert str(e.value) == message


def test_both_syntaxes_number_states_alike():
    m = parse_lts_text(SAMPLE)
    from_text = parse_lts_text(format_lts_text(m))
    from_json = loads(dumps(m))
    assert from_text.labels == from_json.labels
    assert list(from_text.edges()) == list(from_json.edges())
    assert from_text.initial == from_json.initial == 0


def test_two_loaded_models_share_their_action_objects():
    text_model, json_model = parse_lts_text(SAMPLE), loads(dumps(parse_lts_text(SAMPLE)))
    for a in text_model.alphabet.all_actions:
        twin = next(b for b in json_model.alphabet.all_actions if b == a)
        assert twin is a


def test_lts_from_dict_accepts_tuples():
    m = lts_from_dict(
        {"alphabet": {"calls": ("c",)}, "initial": "s", "transitions": (("s", "c", "t"),)}
    )
    assert edge_labels(m) == {("s", "c", "t")}


def test_loads_reports_json_position():
    with pytest.raises(ParseError) as e:
        loads("{\n  broken\n}")
    assert e.value.line == 2


def test_load_model_sniffs_format():
    m = parse_lts_text(SAMPLE)
    assert edge_labels(load_model(dumps(m))) == edge_labels(m)
    assert edge_labels(load_model(format_lts_text(m))) == edge_labels(m)


def test_to_dot_marks_initial_and_quotes():
    m = parse_lts_text(SAMPLE)
    dot = to_dot(m, name='x"y')
    assert '__start -> "empty";' in dot
    assert 'digraph "x\\"y"' in dot
    assert '"pending" -> "full" [label="commit",color=gray40];' in dot


def test_to_dot_refuses_states_that_share_a_label():
    # the product labels (a, b|c) and (a|b, c) alike; Graphviz would draw one node
    program = parse_lts_text("program: t\ninitial: a\na -- t -> a|b\n")
    obj = parse_lts_text("internal: u\ninitial: b|c\nb|c -- u -> c\n")
    m = product(program, obj)
    with pytest.raises(ModelError, match=r"states 0 and 3 share the label 'a\|b\|c'"):
        to_dot(m)


@pytest.mark.parametrize("label", ["go ", " q", "\x01\x1f", "go\n"])
def test_a_json_action_label_is_read_as_written(label):
    # stripped, each of these read as another action; the text form strips
    # its comma-list entries before they are parsed, so only JSON could carry one
    data = {"alphabet": {"program": ["go", label]}, "initial": "s", "transitions": []}
    with pytest.raises(ParseError) as e:
        loads(json.dumps(data))
    assert str(e.value) == f"malformed action {label!r}"


@pytest.mark.parametrize(
    "label, canonical", [("go@01", "go@1"), ("go#-0", "go#0"), ("go@\u0661", "go@1")]
)
def test_an_action_label_must_be_its_actions_own_label(label, canonical):
    # read as the action with label canonical, so an edge naming either label matched it
    message = f"malformed action {label!r}: its canonical form is {canonical!r}"
    data = {"alphabet": {"program": [label]}, "initial": "a", "transitions": [["a", canonical, "a"]]}
    with pytest.raises(ParseError) as e:
        loads(json.dumps(data))
    assert str(e.value) == message
    with pytest.raises(ParseError) as e:
        parse_lts_text(f"program: {label}\ninitial: a\na -- {canonical} -> a\n")
    assert str(e.value) == f"{message} (line 1)"


# --- property: parse inverts format for arbitrary small models ---------------


@st.composite
def small_lts(draw):
    n = draw(st.integers(1, 4))
    c = Action("c", ActionKind.CALL)
    r = Action("r", ActionKind.RETURN, payload=0)
    i = Action("i", ActionKind.INTERNAL)
    alpha = Alphabet(frozenset(), frozenset({c}), frozenset({r}), frozenset({i}))
    transitions = {}
    for s in range(n):
        for a in (c, r, i):
            if draw(st.booleans()):
                transitions[(s, a)] = draw(st.integers(0, n - 1))
    return Lts(alpha, n, draw(st.integers(0, n - 1)), transitions)


@given(small_lts())
def test_text_and_json_round_trips(m):
    for reread in (parse_lts_text(format_lts_text(m)), loads(dumps(m))):
        assert edge_labels(reread) == edge_labels(m)
        assert reread.label_of(reread.initial) == m.label_of(m.initial)
        assert {a.label() for a in reread.alphabet.non_idle()} == {
            a.label() for a in m.alphabet.non_idle()
        }


def test_a_label_listed_twice_in_one_section_says_so():
    with pytest.raises(ParseError) as e:
        parse_lts_text("initial: s\ncalls: op, c, op\n")
    assert str(e.value) == "action 'op' declared twice in 'calls' (line 2)"
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        lts_from_dict({"alphabet": {"internal": ["t", "t"]}, "initial": "s", "transitions": []})
    assert str(e.value) == "action 't' declared twice in 'internal'"


@pytest.mark.parametrize(
    "row",
    [
        [0, "c", "t"],
        ["s", "c", None],
        ["s", "c", ["x"]],
        ["s", 5, "t"],
        ["", "c", "t"],
        ["s", "", "t"],
    ],
    ids=["int-src", "null-dst", "list-dst", "int-action", "empty-src", "empty-action"],
)
def test_a_json_row_field_that_is_not_a_non_empty_string_is_a_parse_error(row):
    payload = {"alphabet": {"calls": ["c"]}, "initial": "s", "transitions": [row]}
    with pytest.raises(ParseError, match="not a non-empty string"):
        loads(json.dumps(payload))


# --- property: a writer refuses what would read back as another model --------


# labels near the text form's separators, and any text at all
LABEL_TEXT = st.one_of(
    st.text(max_size=6),
    st.text(alphabet="ab -/>:#@,\n\r\x1c\u2028", max_size=8),
    st.sampled_from(["q", " q", "initial: q", "Calls:x", "INITIAL :q", "idle", "a->b", "x//y"]),
)


# action names the loaders read back, so that only a state label can fault
READABLE_NAMES = st.one_of(
    st.from_regex(r"[^@#\s,]+", fullmatch=True), st.sampled_from(["a->b", "x//y", "c:d", "e--"])
)


@st.composite
def labelled_models(draw, names=LABEL_TEXT.filter(bool), threads=st.integers(-1, 12)):
    state_labels = draw(st.lists(LABEL_TEXT, min_size=1, max_size=5))
    n = len(state_labels)
    actions = draw(st.lists(
        st.builds(
            Action,
            names,
            st.sampled_from([k for k in ActionKind if k is not ActionKind.IDLE]),
            st.none() | threads,
            st.none() | st.integers(-3, 12),
        ),
        max_size=4,
    ))
    try:
        alphabet = Alphabet(*(frozenset(a for a in actions if a.kind is k) for k in (
            ActionKind.PROGRAM, ActionKind.CALL, ActionKind.RETURN, ActionKind.INTERNAL
        )))
    except ModelError:  # a label used twice, or the idle action's
        reject()
    transitions = {
        (s, a): s if a == alphabet.idle else draw(st.integers(0, n - 1))
        for s in range(n)
        for a in sorted(alphabet.all_actions, key=Action.label)
        if draw(st.booleans())
    }
    return Lts(alphabet, n, draw(st.integers(0, n - 1)), transitions, state_labels)


def assert_reads_back(m, back):
    assert back.label_of(back.initial) == m.label_of(m.initial)
    assert edge_labels(back) == edge_labels(m)
    assert back.alphabet == m.alphabet


def refused(write, m):
    """Write m; None when the writer refuses it, naming one of its labels."""
    try:
        return write(m)
    except ModelError as e:
        labels = [m.label_of(s) for s in range(m.num_states)]
        labels += [a.label() for a in m.alphabet.all_actions]
        assert any(repr(x) in str(e) for x in labels), e
        return None


@given(labelled_models())
def test_the_text_writer_writes_only_what_reads_back_as_the_model(m):
    text = refused(format_lts_text, m)
    if text is not None:
        assert_reads_back(m, parse_lts_text(text))


@given(labelled_models(READABLE_NAMES, st.integers(0, 12)))
def test_the_json_writer_writes_only_what_reads_back_as_the_model(m):
    labels = [m.label_of(s) for s in range(m.num_states)]
    text = refused(dumps, m)
    if text is None:
        assert len(set(labels)) < len(labels)
        return
    try:
        back = loads(text)
    except ParseError:  # no model at all: JSON names no state by ""
        assert "" in labels
        return
    assert_reads_back(m, back)


@pytest.mark.parametrize(
    "state_labels, act, bad",
    [
        (("a--b", "z"), "go", "state label 'a--b'"),
        (("x // y", "z"), "go", "state label 'x // y'"),
        (("initial: q", "z"), "go", "state label 'initial: q'"),
        (("a", "z"), "a->b", "action label 'a->b'"),
        (("a", "z"), "x//y", "action label 'x//y'"),
        ((" q", "q"), "go", "state label ' q'"),
        (("q", "q"), "go", "states 0 and 1 share the label 'q'"),
    ],
)
def test_the_text_writer_names_the_label_it_cannot_carry(state_labels, act, bad):
    a = Action(act, ActionKind.PROGRAM)
    m = Lts(Alphabet(frozenset({a}), frozenset(), frozenset(), frozenset()), 2, 0, {(0, a): 1}, state_labels)
    with pytest.raises(ModelError) as e:
        format_lts_text(m)
    assert str(e.value).startswith(bad)
