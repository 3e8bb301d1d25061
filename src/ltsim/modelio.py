"""Reading and writing LTS models.

Two interchangeable surface syntaxes, a line-oriented text form and a
JSON form, plus a Graphviz export.  Both writers are canonical: the
same model always serializes to the same bytes.  The JSON layout
helpers here also write certificates (``simulation``).
"""

from __future__ import annotations

import json
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping
from itertools import islice
from json.encoder import encode_basestring_ascii as json_string  # the C one, if built
from typing import Any

from .errors import ModelError, ParseError
from .lts import (
    Action,
    ActionKind,
    Alphabet,
    IDLE,
    Lts,
    parse_action,
    sort_actions,
)

_SECTION_KINDS = {
    "program": ActionKind.PROGRAM,
    "calls": ActionKind.CALL,
    "returns": ActionKind.RETURN,
    "internal": ActionKind.INTERNAL,
}


def _build_alphabet(
    groups: dict[str, list[Action]], where: dict[str, int] | None = None
) -> Alphabet:
    """The alphabet of parsed sections; a label fault is reported here,
    in declaration order, with the section's line."""
    reserved = IDLE.label()
    seen: dict[str, str] = {}
    for section, actions in groups.items():
        for a in actions:
            label = a.label()
            if label == reserved:
                problem = "is reserved"
            elif label not in seen:
                seen[label] = section
                continue
            elif seen[label] == section:
                problem = f"declared twice in {section!r}"
            else:
                problem = f"declared in both {seen[label]!r} and {section!r}"
            raise ParseError(
                f"action {label!r} {problem}",
                line=None if where is None else where.get(section),
            )
    return Alphabet(**{section: frozenset(actions) for section, actions in groups.items()})


def _assemble(
    alphabet: Alphabet,
    initial: str,
    rows: Iterable[tuple[str, str, str, int | None]],
) -> Lts:
    """Build a model from rows (src, action label, dst, line or None).

    The one assembly path of both syntaxes.  States are numbered in
    order of first appearance, the initial state first and src before
    dst; certificates and reports name states by these numbers.
    """
    by_label = {a.label(): a for a in alphabet.all_actions}
    idle = alphabet.idle
    states: dict[str, int] = {initial: 0}
    out: defaultdict[int, dict[Action, int]] = defaultdict(dict)
    # the first idle row that is not a self-loop, in file order: the
    # fault the model reports, as when the rows were one mapping
    bad_idle: list[tuple[tuple[int, Action], int]] = []
    for src, act, dst, line in rows:
        action = by_label.get(act)
        if action is None:
            raise ParseError(f"undeclared action {act!r}", line=line)
        s = states.setdefault(src, len(states))
        t = states.setdefault(dst, len(states))
        prev = out[s].setdefault(action, t)
        if prev != t:
            raise ParseError(
                f"nondeterministic: ({src!r}, {act!r}) already maps to {list(states)[prev]!r}",
                line=line,
            )
        if action is idle and t != s and not bad_idle:
            bad_idle.append(((s, action), t))
    table = [out[s] for s in range(len(states))]
    try:
        return Lts._from_rows(alphabet, 0, table, tuple(states), bad_idle or None)
    except ModelError as e:
        raise ParseError(str(e)) from None


# --- text format -------------------------------------------------------


def parse_lts_text(text: str) -> Lts:
    """Parse the line-oriented model format.

    Sections `program:`, `calls:`, `returns:`, `internal:` list actions
    (comma separated, `name[@thread][#payload]`), `initial:` names the
    start state, and each remaining line is `SRC -- action -> DST`.
    """
    groups: dict[str, list[Action]] = {k: [] for k in _SECTION_KINDS}
    where: dict[str, int] = {}
    initial: str | None = None
    rows: list[tuple[str, str, str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        # `#` marks payloads, so comments use `//` (inline or whole-line)
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        key = head.strip().lower()
        if sep and key in _SECTION_KINDS:
            if key in where:
                raise ParseError(f"section {key!r} declared twice", line=lineno)
            where[key] = lineno
            kind = _SECTION_KINDS[key]
            for part in rest.split(","):
                part = part.strip()
                if part:
                    try:
                        groups[key].append(parse_action(part, kind))
                    except ParseError as e:
                        raise ParseError(str(e), line=lineno) from None
            continue
        if sep and key == "initial":
            if initial is not None:
                raise ParseError("initial state declared twice", line=lineno)
            initial = rest.strip()
            if not initial:
                raise ParseError("initial state name is empty", line=lineno)
            continue
        if "--" in line and "->" in line:
            src, _, tail = line.partition("--")
            act, _, dst = tail.partition("->")
            src, act, dst = src.strip(), act.strip(), dst.strip()
            if not src or not act or not dst:
                raise ParseError(f"malformed transition {line!r}", line=lineno)
            rows.append((src, act, dst, lineno))
            continue
        raise ParseError(f"unrecognized line {line!r}", line=lineno)

    alphabet = _build_alphabet(groups, where)
    if initial is None:
        raise ParseError("no initial state declared")
    return _assemble(alphabet, initial, rows)


def _state_labels(lts: Lts) -> tuple[list[str], list[int]]:
    """Each state's label, and the states in label order.

    A label that two states share raises ModelError: both writers name
    states by label, so the two would read back as one.
    """
    labels = [lts.label_of(s) for s in range(lts.num_states)]
    order = sorted(range(len(labels)), key=labels.__getitem__)
    for s, t in zip(order, order[1:]):
        if labels[s] == labels[t]:
            raise ModelError(f"states {min(s, t)} and {max(s, t)} share the label {labels[s]!r}")
    return labels, order


def _text_fault(label: str) -> bool:
    """Would a state label not read back from a transition line as itself?"""
    head, colon, _ = label.partition(":")
    return (
        label != label.strip()
        or label.splitlines() != [label]  # also when empty
        or "//" in label
        or "--" in label
        or (colon != "" and head.strip().lower() in (*_SECTION_KINDS, "initial"))
    )


def _text_action_fault(a: Action) -> bool:
    """Would an action's label not read back in its section, or on a
    transition line, as the same action?"""
    label = a.label()
    try:
        back = parse_action(label, a.kind)
    except ParseError:
        return True
    return back != a or "//" in label or "->" in label


def format_lts_text(lts: Lts) -> str:
    """Canonical text form; parse(format(m)) reproduces m up to state order.

    Raises ModelError, naming the label, for a model the text form cannot
    carry: an action label that does not read back as its action or holds
    `//` or `->`, or a state label that is empty, shared by two states,
    padded with whitespace, broken over lines, holds `//` or `--`, or
    begins like a section line (`calls:`, `initial:`).
    """
    bad = next((a for a in sort_actions(lts.alphabet.all_actions) if _text_action_fault(a)), None)
    if bad is not None:
        raise ModelError(f"action label {bad.label()!r} cannot be written in the text form")
    state, _ = _state_labels(lts)
    bad_state = next((x for x in state if _text_fault(x)), None)
    if bad_state is not None:
        raise ModelError(f"state label {bad_state!r} cannot be written in the text form")
    lines = [
        f"{section}: " + ", ".join(x.label() for x in sort_actions(getattr(lts.alphabet, section)))
        for section in _SECTION_KINDS
    ]
    lines.append(f"initial: {state[lts.initial]}")
    rows = sorted((state[s], action.label(), state[t]) for s, action, t in lts.edges())
    for src, act, dst in rows:
        lines.append(f"{src} -- {act} -> {dst}")
    return "\n".join(lines) + "\n"


# --- JSON layout -------------------------------------------------------
#
# The JSON writers (models here, certificates in simulation) produce the
# bytes of json.dumps(data, indent=2, sort_keys=True) + "\n" without it:
# with an indent, json.dumps always runs its pure-Python encoder, one
# generator step per value.  Here each row of a large array (a transition,
# a choice, a pair) is one %-format of a template laid out once, its
# strings escaped by the C escaper json.dumps uses.

_ROW_SEP = ",\n    "  # between the rows of an array at nesting level 1


def json_block(items: Iterable[str], level: int, brackets: str = "[]") -> str:
    """A JSON array at nesting level (or, with brackets "{}", an object
    whose "key: value" members are the items), each item already laid
    out for level + 1; empty, it is the bare brackets."""
    pad = "\n" + "  " * (level + 1)
    body = ("," + pad).join(items)
    if not body:
        return brackets
    return f"{brackets[0]}{pad}{body}\n{'  ' * level}{brackets[1]}"


def json_object(fields: Mapping[str, str], level: int) -> str:
    """A JSON object at nesting level, keys sorted, each value already
    laid out for level + 1."""
    return json_block((f"{json_string(k)}: {fields[k]}" for k in sorted(fields)), level, "{}")


def json_document(fields: Mapping[str, str | Iterable[str]]) -> Iterator[str]:
    """A top-level JSON object and its final newline, in chunks, keys sorted.

    A str value is already laid out for level 1; any other value is the
    rows of an array, each laid out for level 2, which are read and
    joined a batch at a time.
    """
    head = "{\n  "
    for key in sorted(fields):
        value = fields[key]
        yield f"{head}{json_string(key)}: "
        head = ",\n  "
        if isinstance(value, str):
            yield value
            continue
        rows = iter(value)
        lead = "[\n    "
        while batch := _ROW_SEP.join(islice(rows, 4096)):
            yield lead
            yield batch
            lead = _ROW_SEP
        yield "\n  ]" if lead == _ROW_SEP else "[]"
    yield "\n}\n"


# --- JSON format -------------------------------------------------------


def lts_to_dict(lts: Lts) -> dict[str, Any]:
    state = [lts.label_of(s) for s in range(lts.num_states)]
    label = {a: a.label() for a in lts.alphabet.all_actions}
    return {
        "alphabet": {
            section: [x.label() for x in sort_actions(getattr(lts.alphabet, section))]
            for section in _SECTION_KINDS
        },
        "initial": state[lts.initial],
        "transitions": sorted(
            [state[s], label[a], state[t]]
            for s in range(lts.num_states)
            for a, t in lts.out_edges(s)
        ),
    }


def _json_rows(raw_rows: Iterable[Any]) -> Iterator[tuple[str, str, str, None]]:
    for row in raw_rows:
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise ParseError(f"transition row {row!r} is not [src, action, dst]")
        src, act, dst = row
        strings = isinstance(src, str) and isinstance(act, str) and isinstance(dst, str)
        if not (strings and src and act and dst):
            raise ParseError(f"transition row {row!r} has a field that is not a non-empty string")
        yield src, act, dst, None


def lts_from_dict(data: Mapping[str, Any]) -> Lts:
    """Read the JSON form; a missing alphabet section is empty."""
    try:
        raw_alpha = data["alphabet"]
        raw_initial = data["initial"]
        raw_rows = data["transitions"]
    except (KeyError, TypeError) as e:
        raise ParseError(f"missing model field: {e}") from None
    if not isinstance(raw_alpha, Mapping):
        raise ParseError("model field 'alphabet' is not an object of sections")
    groups: dict[str, list[Action]] = {}
    for section, kind in _SECTION_KINDS.items():
        labels = raw_alpha.get(section, [])
        if not isinstance(labels, (list, tuple)) or not all(isinstance(x, str) for x in labels):
            raise ParseError(f"alphabet section {section!r} is not a list of action labels")
        groups[section] = [parse_action(x, kind) for x in labels]
    alphabet = _build_alphabet(groups)
    if not isinstance(raw_initial, str) or not raw_initial:
        raise ParseError("model field 'initial' is not a non-empty state name")
    if not isinstance(raw_rows, (list, tuple)):
        raise ParseError("model field 'transitions' is not a list of rows")
    return _assemble(alphabet, raw_initial, _json_rows(raw_rows))


def dumps(lts: Lts) -> str:
    """The JSON form: json.dumps(lts_to_dict(lts), indent=2, sort_keys=True) + "\n".

    Raises ModelError when two states share a label, which would read
    back as one state.  Each label is escaped once.  As labels are then
    distinct, the sorted rows are each state's, states in label order,
    and within a state in action-label order (an alphabet's labels are
    distinct too); they are laid out one state at a time.
    """
    labels, order = _state_labels(lts)
    escaped = list(map(json_string, labels))
    alphabet = lts.alphabet
    by_label = sorted(alphabet.all_actions, key=Action.label)
    action = {a: json_string(a.label()) for a in by_label}
    rank = {a: i for i, a in enumerate(by_label)}.__getitem__
    row = json_block(("%s",) * 3, 2)  # a [src, action, dst] row, to fill in

    def rows() -> Iterator[str]:
        for s in order:
            src, out = escaped[s], lts._out[s]  # the row itself, not an iterator over it
            for a in sorted(out, key=rank) if len(out) > 1 else out:
                yield row % (src, action[a], escaped[out[a]])

    sections = {
        k: json_block([action[a] for a in sort_actions(getattr(alphabet, k))], 2)
        for k in _SECTION_KINDS
    }
    return "".join(json_document({
        "alphabet": json_object(sections, 1),
        "initial": escaped[lts.initial],
        "transitions": rows(),
    }))


def unique_keys(what: str) -> Callable[[list[tuple[str, Any]]], dict]:
    """object_pairs_hook for json.loads that raises ParseError on a
    repeated key, where json.loads would silently keep the last value."""

    def hook(pairs: list[tuple[str, Any]]) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            raise ParseError(f"malformed {what}: a JSON object repeats a key")
        return obj

    return hook


def loads(text: str) -> Lts:
    try:
        data = json.loads(text, object_pairs_hook=unique_keys("model"))
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno, column=e.colno) from None
    return lts_from_dict(data)


def load_model(text: str) -> Lts:
    """Accept either surface syntax; JSON when the payload looks like JSON."""
    if text.lstrip().startswith("{"):
        return loads(text)
    return parse_lts_text(text)


# --- Graphviz ----------------------------------------------------------

_KIND_STYLE = {
    ActionKind.PROGRAM: "color=black",
    ActionKind.CALL: "color=blue",
    ActionKind.RETURN: "color=blue,style=dashed",
    ActionKind.INTERNAL: "color=gray40",
    ActionKind.IDLE: "color=gray70,style=dotted",
}


def to_dot(lts: Lts, name: str = "lts") -> str:
    """Graphviz digraph; the initial state is marked with an incoming arrow."""

    def q(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = [f"digraph {q(name)} {{", "  rankdir=LR;", "  node [shape=ellipse];"]
    lines.append('  __start [shape=point,label=""];')
    lines.append(f"  __start -> {q(lts.label_of(lts.initial))};")
    for s in range(lts.num_states):
        lines.append(f"  {q(lts.label_of(s))};")
    rows = sorted(
        ((lts.label_of(s), action, lts.label_of(t)) for s, action, t in lts.edges()),
        key=lambda r: (r[0], r[1].key(), r[2]),
    )
    for src, action, dst in rows:
        style = _KIND_STYLE[action.kind]
        lines.append(f"  {q(src)} -> {q(dst)} [label={q(action.label())},{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
