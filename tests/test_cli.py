"""End-to-end drives of the command line front end, in process.

Each invocation goes through ltsim.cli.main with argv; stdout carries
exactly one JSON report when a verdict is reached and nothing otherwise
(export-dot without -o is the exception), diagnostics go to stderr, and
the exit code grades the verdict: 0 holds, 1 refuted, 2 unknown,
3 unusable input, 4 internal error.
"""

import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ltsim
from ltsim import Action, ActionKind, Alphabet, Lts, Scheduler, TraceNode
from ltsim.casestudies import FaaConfig, build_faa_impl, build_faa_spec, build_program
from ltsim.cli import _build_parser, main
from ltsim.modelio import dumps, load_model
from ltsim.scheduler import STRATEGIES, register_strategy
from ltsim.simulation import ChoiceEntry, certificate_chunks, check_forward, dumps_certificate

from helpers import is_idle_complete

REPORT_KEYS = {"schema_version", "command", "seed", "verdict", "data"}

LASSO_CYCLE = {"ll@1", "sc-fail@1", "ll@2", "sc-fail@2"}


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """Case-study model files shared by the command tests, written once."""
    root = tmp_path_factory.mktemp("models")
    cfg = FaaConfig()
    paths = {}
    for name, lts in (
        ("impl", build_faa_impl(cfg)),
        ("spec", build_faa_spec(cfg)),
        ("prog", build_program(cfg)),
        ("plain", build_faa_impl(FaaConfig(variant="plain"))),
    ):
        p = root / f"{name}.json"
        p.write_text(dumps(lts))
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(out):
    rep = json.loads(out)
    assert set(rep) == REPORT_KEYS
    return rep


# --- plumbing ---------------------------------------------------------------


def test_no_command_prints_help_and_flags_input(capsys):
    code, out, err = run(capsys, [])
    assert code == 3
    assert out == ""
    assert "usage:" in err


def test_seed_is_recorded_in_the_report(models, capsys):
    code, out, _ = run(capsys, ["check-det", models["impl"], "--seed", "7"])
    assert code == 0
    assert report(out)["seed"] == 7


def test_timing_goes_to_stderr_only(models, capsys):
    _, plain_out, plain_err = run(capsys, ["check-det", models["impl"]])
    assert plain_err == ""
    _, timed_out, timed_err = run(capsys, ["check-det", models["impl"], "--timing"])
    assert timed_out == plain_out
    assert "ltsim: check-det:" in timed_err


def exits(capsys, argv):
    """Run argv through main where argparse itself ends the call."""
    with pytest.raises(SystemExit) as ei:
        main(argv)
    captured = capsys.readouterr()
    return ei.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, code", [(["--help"], 0), (["check-det"], 3)], ids=["help", "usage-error"]
)
def test_the_cached_parser_answers_alike_twice(capsys, argv, code):
    first = exits(capsys, argv)
    assert first[0] == code
    assert exits(capsys, argv) == first


STRATEGY_TEXT_ARGVS = (
    ["--help"],
    ["simulate", "--help"],
    ["find-divergence", "--help"],
    ["transform-scheduler", "--help"],
    ["check-lemmas", "--help"],
    ["check-admitted", "--help"],
    ["simulate", "model.json", "--strategy", "nope"],
    ["transform-scheduler", "p.json", "c.json", "a.json", "--strategy", "nope"],
)


def test_the_strategy_choices_read_alike_in_help_and_errors(capsys, monkeypatch):
    """Every text that lists the --strategy choices, pinned byte for byte
    at a fixed terminal width: the registered names in sorted order."""
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in STRATEGY_TEXT_ARGVS:
        code, out, err = exits(capsys, argv)
        assert code == (0 if argv[-1] == "--help" else 3), argv
        digest.update(f"{argv} {code}\n{out}\n{err}\n".encode())
    assert "'fifo', 'll-alternator', 'maximal', 'object-first'" in err
    assert digest.hexdigest() == STRATEGY_TEXT_DIGEST[sys.version_info[:2]]


# per interpreter: from 3.13 argparse keeps the top-level usage's "..." on
# the subcommand line instead of wrapping it to a line of its own
STRATEGY_TEXT_DIGEST = {
    (3, 11): "d48894ceb6924d633e370bc08f344311a75292d161d149e87f8e96fe21c1e773",
    (3, 12): "d48894ceb6924d633e370bc08f344311a75292d161d149e87f8e96fe21c1e773",
    (3, 13): "7a31f3de14cf0cf05d18f3697edf1af5c9131a841d6bda61199ef077b2d8deda",
}


def test_a_seed_does_not_carry_over_to_the_next_call(models, capsys):
    _, seeded, _ = run(capsys, ["check-det", models["impl"], "--seed", "7"])
    _, plain, _ = run(capsys, ["check-det", models["impl"]])
    assert (report(seeded)["seed"], report(plain)["seed"]) == (7, 0)


def test_a_second_call_builds_no_parser(models, capsys, monkeypatch):
    run(capsys, ["check-det", models["impl"]])
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    code, _, _ = run(capsys, ["check-det", models["impl"]])
    assert code == 0
    assert added == []


def test_missing_file_is_an_input_error(capsys):
    code, out, err = run(capsys, ["check-det", "/nonexistent/model.json"])
    assert code == 3
    assert out == ""
    assert "cannot read" in err


def test_a_binary_file_is_an_input_error(tmp_path, capsys):
    binary = tmp_path / "model.json"
    binary.write_bytes(b"\xa4\x00\xff")
    code, out, err = run(capsys, ["check-det", str(binary)])
    assert (code, out) == (3, "")
    assert "not UTF-8 text" in err


def test_files_are_utf8_whatever_the_locale(tmp_path):
    """Under the C locale, whose preferred encoding is ASCII, a UTF-8 model
    still reads, and a model written with -o still holds its label."""
    model = tmp_path / "m.txt"
    model.write_text("internal: caf\u00e9\ninitial: a\na -- caf\u00e9 -> b\n", encoding="utf-8")
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(ltsim.__file__).parents[1]),
        "PYTHONUTF8": "0",
        "PYTHONCOERCECLOCALE": "0",
        "LC_ALL": "C",
    }

    def child(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)

    encoding = child("-c", "import locale; print(locale.getpreferredencoding(False))").stdout.strip()
    assert encoding.replace("-", "").lower() != "utf8"  # else this test proves nothing
    done = child("-m", "ltsim.cli", "check-det", str(model))
    assert done.returncode == 0, done.stderr
    out = tmp_path / "out.txt"
    done = child("-m", "ltsim.cli", "idle-complete", str(model), "-o", str(out))
    assert done.returncode == 0, done.stderr
    written = load_model(out.read_text(encoding="utf-8"))
    assert [a.label() for a in written.alphabet.internal] == ["caf\u00e9"]


def test_unparseable_model_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("what even\n")
    code, _, err = run(capsys, ["check-det", str(bad)])
    assert code == 3
    assert "unrecognized line" in err


def test_bad_strategy_choice_exits_3_via_argparse(models, capsys):
    # argparse handles choice validation itself and raises SystemExit
    with pytest.raises(SystemExit) as ei:
        main(["simulate", models["impl"], "--strategy", "nope"])
    assert ei.value.code == 3
    assert "invalid choice" in capsys.readouterr().err


def test_an_internal_error_exits_4_not_refuted(models, capsys, monkeypatch):
    def broken(lts):
        raise RuntimeError("boom")

    monkeypatch.setattr("ltsim.cli.load_model", broken)
    code, out, err = run(capsys, ["check-det", models["impl"]])
    assert code == 4
    assert out == ""
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_an_empty_path_reads_as_the_current_directory(models, capsys):
    assert run(capsys, ["check-det", ""]) == (3, "", "ltsim: cannot read : Is a directory\n")
    assert run(capsys, ["validate-cert", models["plain"], models["spec"], ""]) == (
        3, "", "ltsim: cannot read : Is a directory\n"
    )


@pytest.mark.parametrize("suffix", ["/", "/."])
def test_a_file_path_with_a_trailing_slash_reads_the_file(models, tmp_path, capsys, suffix):
    cert = str(tmp_path / "cert.json")
    argv = ["check-fwd", models["plain"], models["spec"], "--gamma", "cr"]
    assert run(capsys, argv + ["--cert-out", cert])[0] == 0
    check = ["validate-cert", models["plain"], models["spec"], cert]
    for command in (argv, check):
        code, out, err = run(capsys, [p + suffix if p.endswith(".json") else p for p in command])
        assert (code, out, err) == run(capsys, command)
        assert (code, err) == (0, "")


@pytest.mark.parametrize("command", ["validate-cert", "transform-scheduler"])
def test_unusable_certificate_files_are_input_errors(models, tmp_path, capsys, command):
    def argv(cert):
        if command == "validate-cert":
            return [command, models["plain"], models["spec"], cert]
        return [command, models["prog"], models["plain"], models["spec"], "--cert", cert]

    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, argv(missing))
    assert (code, out) == (3, "")
    assert f"cannot read {missing}" in err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, out, err = run(capsys, argv(str(garbled)))
    assert (code, out) == (3, "")
    assert "certificate is not JSON" in err


def test_a_malformed_json_model_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alphabet": {"calls": "ab"}, "initial": "s", "transitions": []}))
    code, out, err = run(capsys, ["check-det", str(bad)])
    assert (code, out) == (3, "")
    assert "alphabet section 'calls'" in err


@pytest.mark.parametrize("initial", [None, "", 5], ids=["null", "empty", "number"])
def test_a_json_model_must_name_its_initial_state(tmp_path, capsys, initial):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alphabet": {}, "initial": initial, "transitions": []}))
    code, out, err = run(capsys, ["check-det", str(bad)])
    assert (code, out) == (3, "")
    assert "model field 'initial'" in err


def test_a_json_model_that_repeats_a_key_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"alphabet": {"internal": ["x"]}, "initial": "a", '
        '"transitions": [["a", "x", "b"]], "transitions": []}'
    )
    code, out, err = run(capsys, ["check-det", str(bad)])
    assert (code, out, err) == (3, "", "ltsim: malformed model: a JSON object repeats a key\n")


@pytest.mark.parametrize("label", ["go@01", "go#-0", "go@\u0661"])
def test_an_action_label_out_of_canonical_form_is_an_input_error(label, tmp_path, capsys):
    canonical = "go#0" if "#" in label else "go@1"
    bad = tmp_path / "bad.txt"
    bad.write_text(f"program: {label}\ninitial: a\na -- {canonical} -> a\n", encoding="utf-8")
    code, out, err = run(capsys, ["check-det", str(bad)])
    assert (code, out) == (3, "")
    assert err == f"ltsim: malformed action {label!r}: its canonical form is {canonical!r} (line 1)\n"


@pytest.fixture
def ambiguous_x(tmp_path):
    """Two objects where the label x names an internal action of the first
    and a return of the second, and the forward simulation certificate
    between them under their calls and returns (check-fwd's default gamma),
    written by the library: check-fwd --cert-out refuses the pair."""
    c = tmp_path / "c.txt"
    c.write_text("calls: op\nreturns: r\ninternal: x\ninitial: a\na -- op -> b\nb -- x -> c\nc -- r -> a\n")
    s = tmp_path / "s.txt"
    s.write_text("calls: op\nreturns: r, x\ninitial: p\np -- op -> q\nq -- r -> p\nz -- x -> p\n")
    a1, a2 = load_model(c.read_text()), load_model(s.read_text())
    cert = tmp_path / "cert.json"
    cert.write_text(dumps_certificate(check_forward(a1, a2, a1.alphabet.cr | a2.alphabet.cr).certificate))
    return str(c), str(s), str(cert)


def test_a_certificate_label_naming_two_actions_is_an_input_error(ambiguous_x, capsys):
    capsys.readouterr()
    code, out, err = run(capsys, ["validate-cert", *ambiguous_x])
    assert (code, out) == (3, "")
    assert err == "ltsim: action label 'x' in certificate names two actions, of kinds internal and return\n"


@pytest.mark.parametrize("command", ["check-fwd", "check-prog-fwd"])
def test_no_certificate_is_written_where_a_label_names_two_actions(
    ambiguous_x, tmp_path, capsys, command
):
    dst = tmp_path / "out.json"
    code, out, err = run(capsys, [command, *ambiguous_x[:2], "--cert-out", str(dst)])
    assert (code, out) == (3, "")
    assert err == "ltsim: action label 'x' in certificate names two actions, of kinds internal and return\n"
    assert not dst.exists()
    code, out, _ = run(capsys, [command, *ambiguous_x[:2]])
    assert code == 0 and report(out)["verdict"] == "holds"


def test_a_gamma_label_naming_two_actions_is_an_input_error(ambiguous_x, capsys):
    capsys.readouterr()
    code, out, err = run(capsys, ["check-fwd", *ambiguous_x[:2], "--gamma", "labels:op,x"])
    assert (code, out) == (3, "")
    assert err == "ltsim: action label 'x' in --gamma names two actions, of kinds internal and return\n"
    code, out, _ = run(capsys, ["check-fwd", *ambiguous_x[:2], "--gamma", "labels:op,r"])
    assert code == 0 and report(out)["verdict"] == "holds"


def test_a_json_action_label_padded_with_whitespace_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alphabet": {"program": ["go", " q"]}, "initial": "s", "transitions": []}))
    code, out, err = run(capsys, ["check-det", str(bad)])
    assert (code, out, err) == (3, "", "ltsim: malformed action ' q'\n")


MALFORMED_RANKS = {
    "list": [1, 2],
    "non-integer-key": {"x": 1},
    # the dicts below are merged into the certificate's own ranks
    "negative-key": {"-1": 0},
    "key-past-the-end": {"99999": 0},
    "underscored-key": {"1_0": 0},
    "spaced-key": {" 3": 0},  # would overwrite the rank of state 3
    "arabic-indic-key": {"\u0665": 0},  # would overwrite the rank of state 5
    "zero-padded-key": {"03": 0},
    "negative-rank": {"0": -1},
    "bool-rank": {"0": True},
}


@pytest.mark.parametrize("shape", MALFORMED_RANKS)
@pytest.mark.parametrize("command", ["validate-cert", "transform-scheduler"])
def test_malformed_certificate_ranks_are_input_errors(
    models, prog_cert, tmp_path, capsys, command, shape
):
    with open(prog_cert) as f:
        payload = json.load(f)
    ranks = MALFORMED_RANKS[shape]
    payload["ranks"] = {**payload["ranks"], **ranks} if isinstance(ranks, dict) else ranks
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(payload))
    if command == "validate-cert":
        argv = [command, models["plain"], models["spec"], str(cert)]
    else:
        argv = [command, models["prog"], models["plain"], models["spec"], "--cert", str(cert)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert "malformed certificate" in err


@pytest.mark.parametrize("command", ["validate-cert", "transform-scheduler"])
def test_a_certificate_key_given_twice_is_an_input_error(
    models, prog_cert, tmp_path, capsys, command
):
    with open(prog_cert) as f:
        text = f.read()
    assert '"ranks": {' in text and '"0": ' in text
    cert = tmp_path / "cert.json"
    cert.write_text(text.replace('"ranks": {', '"ranks": {"0": 7,', 1))  # state 0 ranked twice
    if command == "validate-cert":
        argv = [command, models["plain"], models["spec"], str(cert)]
    else:
        argv = [command, models["prog"], models["plain"], models["spec"], "--cert", str(cert)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert "repeats a key" in err


def _float_pair(payload):
    s1, s2 = payload["relation"][0]
    payload["relation"][0] = [s1 + 0.4, s2]


def _true_state(payload):
    entry = next(p for p in payload["relation"] if p[0] == 1)
    entry[0] = True


def _as_object(key):
    def edit(payload):
        holder = payload if key == "gamma" else payload["choices"][0]
        holder[key] = {label: 1 for label in holder[key]}

    return edit


MALFORMED_CERTIFICATES = {
    "relation-triple": lambda p: p["relation"][0].append(99),
    "relation-float": _float_pair,
    "choice-s1-string": lambda p: p["choices"][0].update(s1=str(p["choices"][0]["s1"])),
    "target-float": lambda p: p["choices"][0].update(target=p["choices"][0]["target"] + 0.5),
    "alpha-bound-string": lambda p: p.update(alpha_bound=str(p["alpha_bound"])),
    "alpha-bound-bool": lambda p: p.update(alpha_bound=True),
    "state-bool": _true_state,
    "state-past-the-end": lambda p: p["relation"].append([99999, 0]),
    "target-negative": lambda p: p["choices"][0].update(target=-1),
    "gamma-object": _as_object("gamma"),
    "alpha-object": _as_object("alpha"),
    "schema-version-2": lambda p: p.update(schema_version=2),
    "schema-version-missing": lambda p: p.pop("schema_version"),
    "schema-version-string": lambda p: p.update(schema_version=str(p["schema_version"])),
    "choices-object": lambda p: p.update(choices={}),
    "choices-string": lambda p: p.update(choices=""),
    "relation-object": lambda p: p.update(relation={}),
    "relation-string": lambda p: p.update(relation=""),
}


@pytest.mark.parametrize("shape", MALFORMED_CERTIFICATES)
@pytest.mark.parametrize("command", ["validate-cert", "transform-scheduler"])
def test_a_malformed_certificate_never_validates(
    models, prog_cert, tmp_path, capsys, command, shape
):
    with open(prog_cert) as f:
        payload = json.load(f)
    assert payload["choices"][0]["alpha"], "the edits below need a non-empty alpha"
    MALFORMED_CERTIFICATES[shape](payload)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(payload))
    if command == "validate-cert":
        argv = [command, models["plain"], models["spec"], str(cert)]
    else:
        argv = [command, models["prog"], models["plain"], models["spec"], "--cert", str(cert)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert "malformed certificate" in err


@pytest.mark.parametrize("command", ["validate-cert", "transform-scheduler"])
def test_a_certificate_that_is_not_an_object_is_an_input_error(
    models, prog_cert, tmp_path, capsys, command
):
    with open(prog_cert) as f:
        payload = json.load(f)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps([payload]))
    if command == "validate-cert":
        argv = [command, models["plain"], models["spec"], str(cert)]
    else:
        argv = [command, models["prog"], models["plain"], models["spec"], "--cert", str(cert)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err == "ltsim: malformed certificate: expected an object, got list\n"


@pytest.fixture(scope="module")
def fwd_cert(models, tmp_path_factory):
    """Forward certificate for plain vs spec at the default alpha bound."""
    path = tmp_path_factory.mktemp("fwd") / "cert.json"
    assert main(["check-fwd", models["plain"], models["spec"], "--cert-out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("bound", [0, 1])
@pytest.mark.parametrize("command", ["validate-cert", "transform-scheduler"])
def test_a_certificate_must_respect_its_alpha_bound(
    models, fwd_cert, tmp_path, capsys, command, bound
):
    capsys.readouterr()  # drop the fixture's report
    with open(fwd_cert) as f:
        payload = json.load(f)
    assert max(len(c["alpha"]) for c in payload["choices"]) == 3
    payload["alpha_bound"] = bound
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(payload))
    if command == "validate-cert":
        code, out, _ = run(capsys, [command, models["plain"], models["spec"], str(cert)])
        problems = report(out)["data"]["problems"]
        assert code == 1
        assert ("alpha bound 0 is below 1" in problems) == (bound == 0)
        assert any(f"exceeds the bound {bound}" in p for p in problems)
    else:
        argv = [command, models["prog"], models["plain"], models["spec"], "--cert", str(cert)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert "supplied certificate is invalid" in err


def test_transform_scheduler_validates_the_certificate_it_computes(models, monkeypatch, capsys):
    real = ltsim.cli.check_forward

    def corrupted(a1, a2, *args, **kwargs):
        res = real(a1, a2, *args, **kwargs)
        choice = dict(res.certificate.choice)
        key, entry = next(iter(choice.items()))
        choice[key] = ChoiceEntry(entry.alpha, (entry.target + 1) % a2.num_states)
        return replace(res, certificate=replace(res.certificate, choice=choice))

    monkeypatch.setattr(ltsim.cli, "check_forward", corrupted)
    argv = ["transform-scheduler", models["prog"], models["plain"], models["spec"]]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("ltsim: computed certificate is invalid: ")


COUNT_OPTIONS = ("--depth", "--budget", "--max-traces", "--backtrack-budget")


def _subcommands():
    """(name, parser, one "x" per positional argument) for every subcommand."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        yield name, p, ["x"] * sum(1 for a in p._actions if not a.option_strings)


def _bad_option_values():
    """A -1 for every count option each subcommand declares and for
    --budget everywhere (a subcommand that reads no budget rejects the
    option itself), plus bad integer lists."""
    for name, p, positionals in _subcommands():
        declared = {s for action in p._actions for s in action.option_strings}
        for option in COUNT_OPTIONS:
            if option in declared or option == "--budget":
                yield [name, *positionals, option, "-1"]
    yield ["run-casestudy", "--threads", "a,b"]
    yield ["run-casestudy", "--addends", "1,x"]


@pytest.mark.parametrize("argv", list(_bad_option_values()), ids=" ".join)
def test_bad_option_values_exit_3_via_argparse(capsys, argv):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    captured = capsys.readouterr()
    assert ei.value.code == 3
    assert captured.out == ""
    assert "usage:" in captured.err


# the subcommands that read no budget, with model files for their positionals
UNBUDGETED = {
    "check-det": ["impl"], "idle-complete": ["impl"], "product": ["prog", "impl"],
    "check-fwd": ["impl", "spec"], "check-prog-fwd": ["plain", "spec"],
    "validate-cert": ["impl", "spec", "impl"], "export-dot": ["impl"],
}


def test_budget_is_declared_only_where_a_budget_is_read():
    declared = {
        name for name, p, _ in _subcommands()
        if any("--budget" in action.option_strings for action in p._actions)
    }
    assert declared == {name for name, _, _ in _subcommands()} - set(UNBUDGETED)


@pytest.mark.parametrize("command", list(UNBUDGETED))
def test_a_budget_nothing_reads_is_a_usage_error(models, capsys, command):
    with pytest.raises(SystemExit) as ei:
        main([command, *(models[f] for f in UNBUDGETED[command]), "--budget", "5"])
    captured = capsys.readouterr()
    assert ei.value.code == 3
    assert captured.out == ""
    assert "usage:" in captured.err and "--budget" in captured.err


# --- model commands ---------------------------------------------------------


def test_check_det_holds_on_a_loadable_model(models, capsys):
    code, out, _ = run(capsys, ["check-det", models["impl"]])
    rep = report(out)
    assert code == 0
    assert rep["command"] == "check-det"
    assert rep["verdict"] == "holds"
    assert rep["data"] == {"states": 33}


@pytest.mark.parametrize(
    "name, text, where",
    [
        ("nd.txt", "calls: c\ninitial: s\ns -- c -> a\ns -- c -> b\n", " (line 4)"),
        ("nd.json", json.dumps({
            "alphabet": {"calls": ["c"]}, "initial": "s",
            "transitions": [["s", "c", "a"], ["s", "c", "b"]],
        }), ""),
    ],
    ids=["text", "json"],
)
def test_check_det_refuses_a_nondeterministic_model_as_input(tmp_path, capsys, name, text, where):
    # the model reader refuses it, so check-det never gets to refute
    model = tmp_path / name
    model.write_text(text)
    code, out, err = run(capsys, ["check-det", str(model)])
    assert (code, out) == (3, "")
    assert err == f"ltsim: nondeterministic: ('s', 'c') already maps to 'a'{where}\n"


def incomplete_model():
    t = Action("step", ActionKind.PROGRAM)
    alphabet = Alphabet(frozenset({t}), frozenset(), frozenset(), frozenset())
    return Lts(alphabet, 2, 0, {(0, t): 1}, ("s0", "s1"))


def test_idle_complete_check_refutes_a_bare_sink(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(dumps(incomplete_model()))
    code, out, _ = run(capsys, ["idle-complete", str(path)])
    rep = report(out)
    assert code == 1
    assert rep["verdict"] == "refuted"
    assert rep["data"] == {"already_complete": False, "stuck_state": "s1"}


@pytest.mark.parametrize("suffix", ["json", "txt"])
def test_idle_complete_writes_a_completed_model(tmp_path, capsys, suffix):
    src = tmp_path / "tiny.json"
    src.write_text(dumps(incomplete_model()))
    dst = tmp_path / f"full.{suffix}"
    code, out, _ = run(capsys, ["idle-complete", str(src), "-o", str(dst)])
    rep = report(out)
    assert code == 0
    assert rep["verdict"] == "holds"
    assert rep["data"]["written"] == str(dst)
    completed = load_model(dst.read_text())
    assert is_idle_complete(completed)
    # and the check now passes on the written file
    code, out, _ = run(capsys, ["idle-complete", str(dst)])
    assert code == 0
    assert report(out)["data"]["already_complete"] is True


@pytest.mark.parametrize(
    "state, act, bad",
    [("a--b", "go", "state label 'a--b'"), ("a", "a->b", "action label 'a->b'")],
)
def test_idle_complete_writes_no_text_file_it_cannot_carry(tmp_path, capsys, state, act, bad):
    # each loads from JSON, and its text form did not read back as the
    # model (tests/test_modelio.py has every case)
    src, dst = tmp_path / "model.json", tmp_path / "out.txt"
    src.write_text(json.dumps(
        {"alphabet": {"program": [act]}, "initial": state, "transitions": [[state, act, "z"]]}
    ))
    code, out, err = run(capsys, ["idle-complete", str(src), "-o", str(dst)])
    assert (code, out) == (3, "")
    assert err == f"ltsim: {bad} cannot be written in the text form\n"
    assert not dst.exists()


def test_product_writes_no_file_that_merges_two_states(tmp_path, capsys):
    prog, obj, dst = tmp_path / "prog.txt", tmp_path / "obj.txt", tmp_path / "prod.json"
    prog.write_text("program: go\ninitial: a\na -- go -> a|b\n")
    obj.write_text("internal: tick\ninitial: b|c\nb|c -- tick -> c\n")
    code, out, err = run(capsys, ["product", str(prog), str(obj), "--out", str(dst)])
    assert (code, out) == (3, "")
    assert err == "ltsim: states 0 and 3 share the label 'a|b|c'\n"
    assert not dst.exists()


def test_product_reports_sizes_and_writes(models, tmp_path, capsys):
    out_path = tmp_path / "prod.json"
    code, out, _ = run(capsys, ["product", models["prog"], models["impl"], "-o", str(out_path)])
    rep = report(out)
    assert code == 0
    assert rep["data"] == {
        "states": 51,
        "edges": 85,
        "program_states": 49,
        "object_states": 33,
        "written": str(out_path),
    }
    assert load_model(out_path.read_text()).num_states == 51


def test_product_rejects_mismatched_interfaces(models, capsys):
    # an object on the program side leaks internal actions
    code, _, err = run(capsys, ["product", models["impl"], models["spec"]])
    assert code == 3
    assert "program side declares internal actions" in err


def test_export_dot_to_stdout_is_raw_graphviz(models, capsys):
    code, out, _ = run(capsys, ["export-dot", models["impl"]])
    assert code == 0
    assert out.startswith('digraph "impl" {')


def test_export_dot_to_file_reports_the_path(models, tmp_path, capsys):
    dot = tmp_path / "impl.dot"
    code, out, _ = run(capsys, ["export-dot", models["impl"], "-o", str(dot)])
    rep = report(out)
    assert code == 0
    assert rep["data"] == {"written": str(dot)}
    assert dot.read_text().startswith('digraph "impl" {')


# --- scheduling commands ----------------------------------------------------


def test_simulate_lists_the_scheduled_traces(models, capsys):
    code, out, _ = run(capsys, ["simulate", models["impl"], "--depth", "2"])
    rep = report(out)
    assert code == 0
    data = rep["data"]
    assert data["strategy"] == "maximal"
    assert data["tree_size"] == 7
    assert data["truncated_listing"] is False
    assert data["traces"] == [
        [],
        ["call@1#1"],
        ["call@1#1", "call@2#2"],
        ["call@1#1", "ll@1"],
        ["call@2#2"],
        ["call@2#2", "call@1#1"],
        ["call@2#2", "ll@2"],
    ]


def test_simulate_truncates_the_listing_not_the_tree(models, capsys):
    code, out, _ = run(capsys, ["simulate", models["impl"], "--depth", "2", "--max-traces", "3"])
    data = report(out)["data"]
    assert code == 0
    assert data["tree_size"] == 7
    assert len(data["traces"]) == 3
    assert data["truncated_listing"] is True


def test_simulate_spells_out_only_the_traces_it_lists(models, capsys, monkeypatch):
    argv = ["simulate", models["impl"], "--depth", "6", "--max-traces"]
    _, out, _ = run(capsys, argv + ["100000"])
    full = report(out)["data"]
    size = full["tree_size"]
    assert len(full["traces"]) == size > 5 and full["truncated_listing"] is False
    spelled = []
    trace = TraceNode.trace

    def counting(node):
        spelled.append(node)
        return trace(node)

    monkeypatch.setattr(TraceNode, "trace", counting)
    for listed in (5, size - 1, size):
        spelled.clear()
        code, out, _ = run(capsys, argv + [str(listed)])
        data = report(out)["data"]
        assert code == 0 and len(spelled) == listed
        assert data == {**full, "traces": full["traces"][:listed], "truncated_listing": listed < size}


def test_simulate_budget_exhaustion_is_unknown(models, capsys):
    code, out, err = run(capsys, ["simulate", models["impl"], "--depth", "8", "--budget", "3"])
    assert code == 2
    assert out == ""
    assert "bound exhausted" in err


def test_check_admitted_is_exact_for_strategies(models, capsys):
    code, out, _ = run(capsys, ["check-admitted", models["impl"], "--depth", "6"])
    rep = report(out)
    assert code == 0
    assert rep["verdict"] == "holds"
    assert rep["data"] == {"strategy": "maximal", "complete": True}


def test_check_admitted_refutes_with_the_trace_to_a_state_that_enables_nothing(tmp_path, capsys):
    model = tmp_path / "stuck.txt"
    model.write_text("program: p\ninitial: s\ns -- p -> t\n")
    code, out, _ = run(capsys, ["check-admitted", str(model)])
    rep = report(out)
    assert (code, rep["verdict"]) == (1, "refuted")
    assert rep["data"] == {
        "strategy": "maximal", "complete": True,
        "witness": ["p"], "detail": "scheduled set is empty",
    }


# --- simulation commands ----------------------------------------------------


def test_check_fwd_holds_and_validate_cert_round_trips(models, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        ["check-fwd", models["impl"], models["spec"], "--alpha-bound", "38",
         "--cert-out", str(cert)],
    )
    rep = report(out)
    assert code == 0
    assert rep["verdict"] == "holds"
    assert rep["data"]["relation_size"] == 115
    assert rep["data"]["complete"] is True
    assert rep["data"]["certificate_valid"] is True
    assert rep["data"]["problems"] == []
    assert rep["data"]["certificate_written"] == str(cert)

    code, out, _ = run(capsys, ["validate-cert", models["impl"], models["spec"], str(cert)])
    rep = report(out)
    assert code == 0
    assert rep["verdict"] == "holds"
    assert rep["data"] == {"relation_size": 115, "has_ranks": False, "problems": []}


def test_check_fwd_unknown_gamma_label_is_an_input_error(models, capsys):
    code, _, err = run(
        capsys, ["check-fwd", models["impl"], models["spec"], "--gamma", "labels:flib"]
    )
    assert code == 3
    assert "unknown action label 'flib'" in err


def test_check_fwd_malformed_gamma_is_an_input_error(models, capsys):
    code, _, err = run(
        capsys, ["check-fwd", models["impl"], models["spec"], "--gamma", "whatever"]
    )
    assert code == 3
    assert "bad --gamma" in err


def write_models(root, **texts):
    paths = []
    for name, text in texts.items():
        (root / f"{name}.txt").write_text(text)
        paths.append(str(root / f"{name}.txt"))
    return paths


def test_check_fwd_refutes_when_the_observable_actions_differ(tmp_path, capsys):
    models = write_models(
        tmp_path,
        calls_a="calls: a\ninitial: s\ns -- a -> t\n",
        calls_b="calls: b\ninitial: s\ns -- b -> t\n",
    )
    code, out, _ = run(capsys, ["check-fwd", *models])
    rep = report(out)
    assert (code, rep["verdict"]) == (1, "refuted")
    assert rep["data"] == {"alpha_bound": 4, "complete": True, "deletions": 2, "relation_size": 2}


def test_check_fwd_is_unknown_when_the_only_match_is_beyond_the_alpha_bound(tmp_path, capsys):
    # the abstract object reaches a only after three silent steps
    models = write_models(
        tmp_path,
        concrete="calls: a\ninitial: s\ns -- a -> t\n",
        abstract="calls: a\ninternal: i\ninitial: s\n"
        "s -- i -> u\nu -- i -> v\nv -- i -> w\nw -- a -> t\n",
    )
    code, out, _ = run(capsys, ["check-fwd", *models, "--alpha-bound", "3"])
    rep = report(out)
    assert (code, rep["verdict"]) == (2, "unknown")
    assert rep["data"] == {"alpha_bound": 3, "complete": False, "deletions": 2, "relation_size": 8}
    code, out, _ = run(capsys, ["check-fwd", *models, "--alpha-bound", "4"])
    assert (code, report(out)["verdict"]) == (0, "holds")


def test_check_prog_fwd_refutes_the_invalidating_object(models, capsys):
    code, out, _ = run(
        capsys,
        ["check-prog-fwd", models["impl"], models["spec"], "--alpha-bound", "38"],
    )
    rep = report(out)
    assert code == 1
    assert rep["verdict"] == "refuted"
    data = rep["data"]
    assert data["verdict"] == "no"
    assert data["complete"] is True
    assert data["note"] == "every abstract partner stutters on each cycle step"
    edges = data["stutter_cycle"]["edges"]
    assert len(edges) == 4
    assert {e["action"] for e in edges} == LASSO_CYCLE
    # the edges chain: each target is the next edge's source
    for e, nxt in zip(edges, edges[1:] + edges[:1]):
        assert e["target"] == nxt["source"]


def test_check_prog_fwd_holds_on_the_plain_object(models, tmp_path, capsys):
    cert = tmp_path / "pcert.json"
    code, out, _ = run(
        capsys,
        ["check-prog-fwd", models["plain"], models["spec"], "--alpha-bound", "38",
         "--cert-out", str(cert)],
    )
    rep = report(out)
    assert code == 0
    assert rep["verdict"] == "holds"
    assert rep["data"]["verdict"] == "yes"
    assert rep["data"]["certificate_valid"] is True
    assert rep["data"]["relation_size"] == 114

    # the stored certificate carries its ranks and replays green
    code, out, _ = run(capsys, ["validate-cert", models["plain"], models["spec"], str(cert)])
    rep = report(out)
    assert code == 0
    assert rep["data"]["has_ranks"] is True
    assert rep["data"]["problems"] == []


def test_check_prog_fwd_budget_zero_is_unknown(models, capsys):
    code, out, _ = run(
        capsys,
        ["check-prog-fwd", models["plain"], models["spec"], "--alpha-bound", "38",
         "--backtrack-budget", "0"],
    )
    rep = report(out)
    assert code == 2
    assert rep["verdict"] == "unknown"
    assert rep["data"]["verdict"] == "unknown"
    assert "budget 0 exceeded" in rep["data"]["note"]


# the abstract side runs a nine-step internal cycle after its call, so at
# alpha bound 4 the concrete u·v loop can only stutter, and only a bound
# of 10 or more finds the match that ranks it
CUT_LOOP_MODELS = {
    "concrete": "calls: op\nreturns: ret#0\ninternal: u, v\ninitial: s0\n"
    "s0 -- op -> s1\ns1 -- u -> s2\ns2 -- v -> s1\ns1 -- ret#0 -> s0\ns2 -- ret#0 -> s0\n",
    "abstract": "calls: op\nreturns: ret#0\ninternal: " + ", ".join(f"a{i}" for i in range(1, 10))
    + "\ninitial: t0\nt0 -- op -> t1\nt1 -- ret#0 -> t0\n"
    + "".join(f"t{i} -- a{i} -> t{i % 9 + 1}\n" for i in range(1, 10)),
}


def test_check_prog_fwd_reads_a_no_the_alpha_bound_cut_as_unknown(tmp_path, capsys):
    models = write_models(tmp_path, **CUT_LOOP_MODELS)
    code, out, _ = run(capsys, ["check-prog-fwd", *models])
    rep = report(out)
    assert (code, rep["verdict"]) == (2, "unknown")
    data = rep["data"]
    assert (data["verdict"], data["complete"]) == ("no", False)
    assert data["note"] == "no landing assignment within the alpha bound 4 admits a rank"
    assert [e["action"] for e in data["stutter_cycle"]["edges"]] == ["u", "v"]
    code, out, _ = run(capsys, ["check-prog-fwd", *models, "--alpha-bound", "20"])
    rep = report(out)
    assert (code, rep["verdict"], rep["data"]["verdict"]) == (0, "holds", "yes")


@pytest.fixture(scope="module")
def faa3_models(tmp_path_factory):
    """3-thread FAA model files (addends all 1), both variants and the spec."""
    root = tmp_path_factory.mktemp("faa3")
    cfg = {v: FaaConfig((1, 2, 3), (1, 1, 1), v) for v in ("invalidating", "plain")}
    paths = {"spec": root / "spec.json"}
    paths["spec"].write_text(dumps(build_faa_spec(cfg["plain"])))
    for variant, c in cfg.items():
        paths[variant] = root / f"{variant}.json"
        paths[variant].write_text(dumps(build_faa_impl(c)))
    return {k: str(p) for k, p in paths.items()}


PROG_NO_CYCLE = [
    {"action": "sc-fail@2", "partners": [1], "source": 31, "target": 23},
    {"action": "ll@2", "partners": [1], "source": 23, "target": 24},
    {"action": "sc-fail@1", "partners": [1], "source": 24, "target": 42},
    {"action": "ll@1", "partners": [1], "source": 42, "target": 31},
]

SIMULATION_REPORTS = {
    ("check-fwd", "invalidating"): (0, "holds", {
        "relation_size": 1496, "complete": True, "deletions": 28312, "alpha_bound": 4,
        "certificate_valid": True, "problems": [],
    }),
    ("check-fwd", "plain"): (0, "holds", {
        "relation_size": 1473, "complete": True, "deletions": 26823, "alpha_bound": 4,
        "certificate_valid": True, "problems": [],
    }),
    ("check-prog-fwd", "invalidating"): (1, "refuted", {
        "verdict": "no", "complete": True, "relation_size": 1496,
        "note": "every abstract partner stutters on each cycle step",
        "stutter_cycle": {"schema_version": 1, "edges": PROG_NO_CYCLE},
    }),
    ("check-prog-fwd", "plain"): (0, "holds", {
        "verdict": "yes", "complete": True, "relation_size": 1473, "note": None,
        "certificate_valid": True, "problems": [],
    }),
}


@pytest.mark.parametrize("command, variant", SIMULATION_REPORTS)
def test_simulation_reports_on_three_thread_faa_are_pinned(
    faa3_models, capsys, command, variant
):
    code, out, _ = run(
        capsys,
        [command, faa3_models[variant], faa3_models["spec"], "--gamma", "cr",
         "--alpha-bound", "4"],
    )
    rep = report(out)
    assert (code, rep["verdict"], rep["data"]) == SIMULATION_REPORTS[(command, variant)]


# sha256 of the stdout report and of the --cert-out file on 3-thread FAA
# (gamma cr, alpha bound 4); None where no certificate is written
SIMULATION_DIGESTS = {
    ("check-fwd", "invalidating"): (
        "41ae732fe708167e56c132f6b92a680fe297fad5b012f6c9ce695828fe49c318",
        "b40321d2c737ffeffbf49a8df2b700d27f9b78efacba4d82fb13be07517df650",
    ),
    ("check-fwd", "plain"): (
        "f73dbe4731d6ac92897a6944458bd6959fd1d940a9b83fa5075aa3888a1e3020",
        "70ec1e3bcc3b327dd9b9c658d883ed36ed0d80ea240e6e1876b5276c27e56a20",
    ),
    ("check-prog-fwd", "invalidating"): (
        "0686dcd6233ec41fa7e6f7d00440f9115b0d5c874e93d3029928b841b0dccc67",
        None,
    ),
    ("check-prog-fwd", "plain"): (
        "7805602a8c095a49cc0c6043fc887c85ec0a6907ed89b1a6ced52f57335a99ab",
        "61c97ad121dc94f947223e61884a84800a9a1c211860b1105f463a11ff395c33",
    ),
}


@pytest.mark.parametrize("command, variant", SIMULATION_DIGESTS)
def test_simulation_report_and_certificate_bytes_are_pinned(
    faa3_models, tmp_path, capsys, command, variant
):
    argv = [command, faa3_models[variant], faa3_models["spec"], "--gamma", "cr",
            "--alpha-bound", "4"]
    _, out, _ = run(capsys, argv)
    cert = tmp_path / "cert.json"
    run(capsys, argv + ["--cert-out", str(cert)])
    got = (
        hashlib.sha256(out.encode()).hexdigest(),
        hashlib.sha256(cert.read_bytes()).hexdigest() if cert.exists() else None,
    )
    assert got == SIMULATION_DIGESTS[(command, variant)]


# sha256 of the check-prog-fwd stdout report and --cert-out file on 4-thread
# plain FAA (addends all 1, gamma cr, alpha bound 4), the one FAA case whose
# progressive "yes" comes from the backtracking search
FOUR_THREAD_PROGRESSIVE_DIGESTS = (
    "c2523d65f49a252805272fe3f256c9686f17b018e4243ab00716d4aa0bf762f4",
    "ff37b5b264e3866d18b99c3e5acbd515f0b1b3ffcac35d82633a35887c075dcd",
)


def test_four_thread_plain_progressive_bytes_are_pinned(tmp_path, capsys):
    cfg = FaaConfig((1, 2, 3, 4), (1, 1, 1, 1), "plain")
    impl, spec, cert = tmp_path / "plain.json", tmp_path / "spec.json", tmp_path / "cert.json"
    impl.write_text(dumps(build_faa_impl(cfg)))
    spec.write_text(dumps(build_faa_spec(cfg)))
    argv = ["check-prog-fwd", str(impl), str(spec), "--gamma", "cr", "--alpha-bound", "4"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and report(out)["data"]["verdict"] == "yes"
    assert run(capsys, argv + ["--cert-out", str(cert)])[0] == 0
    got = (hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(cert.read_bytes()).hexdigest())
    assert got == FOUR_THREAD_PROGRESSIVE_DIGESTS


# sha256 of the model files of 3-thread FAA and of what idle-complete -o and
# product --out write from them, recorded when json.dumps wrote them; the
# check-fwd --cert-out bytes are pinned in SIMULATION_DIGESTS
WRITTEN_DIGESTS = {
    "spec": "8f5028a41b22db895c6787791052ecc26850b834b03490a65fee44b9f198b9ae",
    "invalidating": "84e2e2a81b73b9c0ec5abce6f4ababa39c406e6f60a91a023ff66abb8320f661",
    "plain": "22a6fef308fd2b85d05397d75c70e38b8a99c752d6c4b6032e152d7c41804967",
    "prog": "1943fca6636b90d9150ed5bc731c79e97e8808d257c4f4572a35be077f9e3c82",
    "idle-complete": "84e2e2a81b73b9c0ec5abce6f4ababa39c406e6f60a91a023ff66abb8320f661",
    "product": "8e49203e3e45f463d8724b939d8196f126f39ad731a28e29d03b03b1c949f0b6",
}


# sha256 of the model files of 4-thread FAA (addends all 1), recorded when
# the builders were each a search over semantic state tuples
FOUR_THREAD_WRITTEN_DIGESTS = {
    "invalidating": "4cc8788207e342e199011ac8369ab72285873863f77615f0a9c0afca30f01afc",
    "plain": "099de4a1f097458d6a123b7e2680462c4e014eb1aa434f64eb5643746a7168fa",
    "spec": "cac659acc8df7ffbcdb002244b1ca558a3dfd8ea14fdb13a6bc8f060446c1155",
    "prog": "ef43621098f648bbf1f5e6677f18d46a164084e72571ab5ee63226982eb6ff0f",
}


def test_four_thread_model_bytes_are_pinned():
    cfg = {v: FaaConfig((1, 2, 3, 4), (1, 1, 1, 1), v) for v in ("invalidating", "plain")}
    built = {
        "invalidating": build_faa_impl(cfg["invalidating"]),
        "plain": build_faa_impl(cfg["plain"]),
        "spec": build_faa_spec(cfg["plain"]),
        "prog": build_program(cfg["plain"]),
    }
    got = {name: hashlib.sha256(dumps(m).encode()).hexdigest() for name, m in built.items()}
    assert got == FOUR_THREAD_WRITTEN_DIGESTS


def test_written_model_bytes_are_pinned(faa3_models, tmp_path, capsys):
    files = {**faa3_models, "prog": tmp_path / "prog.json"}
    files["prog"].write_text(dumps(build_program(FaaConfig((1, 2, 3), (1, 1, 1)))))
    files["idle-complete"] = tmp_path / "x.json"
    files["product"] = tmp_path / "prod.json"
    assert run(capsys, ["idle-complete", files["invalidating"], "-o", str(files["idle-complete"])])[0] == 0
    assert run(capsys, ["product", str(files["prog"]), files["invalidating"], "--out", str(files["product"])])[0] == 0
    got = {name: hashlib.sha256(Path(path).read_bytes()).hexdigest() for name, path in files.items()}
    assert got == WRITTEN_DIGESTS


@pytest.mark.parametrize("wrong_first", [True, False], ids=["wrong-first", "wrong-last"])
def test_a_choice_given_twice_is_an_input_error(faa3_models, tmp_path, capsys, wrong_first):
    # a duplicate used to be accepted, the later entry silently winning
    models = [faa3_models["invalidating"], faa3_models["spec"]]
    cert = tmp_path / "cert.json"
    run(capsys, ["check-fwd", *models, "--gamma", "cr", "--alpha-bound", "4",
                 "--cert-out", str(cert)])
    payload = json.loads(cert.read_text())
    first = payload["choices"][0]
    wrong = {**first, "target": first["target"] + 1}
    payload["choices"] = [wrong, *payload["choices"]] if wrong_first else [*payload["choices"], wrong]
    cert.write_text(json.dumps(payload))
    code, out, err = run(capsys, ["validate-cert", *models, str(cert)])
    assert (code, out) == (3, "")
    assert "malformed certificate" in err and "is given twice" in err


# --- transform commands -----------------------------------------------------


@pytest.fixture(scope="module")
def prog_cert(models, tmp_path_factory):
    """Progressive certificate for plain vs spec, as the CLI stores it."""
    path = tmp_path_factory.mktemp("certs") / "pcert.json"
    code = main(
        ["check-prog-fwd", models["plain"], models["spec"], "--alpha-bound", "38",
         "--cert-out", str(path)]
    )
    assert code == 0
    return str(path)


def test_transform_scheduler_with_a_supplied_certificate(
    models, prog_cert, tmp_path, capsys
):
    capsys.readouterr()  # drop the fixture's report
    table = tmp_path / "table.json"
    code, out, _ = run(
        capsys,
        ["transform-scheduler", models["prog"], models["plain"], models["spec"],
         "--depth", "14", "--cert", prog_cert, "--table-out", str(table)],
    )
    rep = report(out)
    assert code == 0
    assert rep["verdict"] == "holds"
    data = rep["data"]
    assert data["certificate"] == "supplied"
    assert data["strategy"] == "object-first"
    assert data["concrete_tree_size"] == 21
    assert data["image_tree_size"] == 19
    assert data["settled_image_length"] == 12
    assert data["admitted"] is True
    assert data["deterministic"] is True
    assert data["image_equality"] is True
    assert data["projection_equality"] is True
    assert data["projection_compare_length"] == 14
    assert data["conflicts"] == []

    payload = json.loads(table.read_text())
    rows = payload["scheduler"]
    assert len(rows) == 17
    assert rows[0] == {"trace": [], "scheduled": ["call@1#1"]}
    assert rows[1] == {"trace": ["call@1#1"], "scheduled": ["lin@1#0"]}
    # rows are listed shallow-first and carry only determined nodes
    assert all(len(a["trace"]) <= len(b["trace"]) for a, b in zip(rows, rows[1:]))
    assert all(row["scheduled"] for row in rows)


def test_transform_scheduler_computes_the_certificate_when_absent(models, capsys):
    code, out, _ = run(
        capsys,
        ["transform-scheduler", models["prog"], models["plain"], models["spec"],
         "--depth", "14", "--alpha-bound", "38"],
    )
    rep = report(out)
    assert code == 0
    data = rep["data"]
    assert data["certificate"] == "computed"
    assert data["admitted"] and data["deterministic"]
    assert data["image_equality"] and data["projection_equality"]


def test_transform_scheduler_rejects_a_non_simulating_pair(models, tmp_path, capsys):
    # swapped addends change the call payloads, so the concrete calls
    # can never be matched and the relation empties out
    other = tmp_path / "spec21.json"
    other.write_text(dumps(build_faa_spec(FaaConfig(addends=(2, 1)))))
    code, _, err = run(
        capsys,
        ["transform-scheduler", models["prog"], models["spec"], str(other),
         "--alpha-bound", "38"],
    )
    assert code == 3
    assert "no forward simulation" in err


@pytest.mark.parametrize("command", ["transform-scheduler", "check-lemmas"])
def test_transform_commands_stop_as_on_a_spent_bound_when_the_alpha_bound_cut_the_search(
    tmp_path, capsys, command
):
    """The abstract object returns only after nine internal steps, so at
    alpha bound 4 check_forward finds no certificate and cannot rule one
    out: exit 2 with stdout empty, as check-fwd says unknown, not the
    unusable input (3) of a pair with no simulation at all."""
    models = write_models(
        tmp_path,
        client="program: tick\ncalls: op\nreturns: ret#0\ninitial: c0\n"
        "c0 -- op -> c1\nc1 -- ret#0 -> c2\nc2 -- tick -> c0\n",
        concrete="calls: op\nreturns: ret#0\ninitial: s0\ns0 -- op -> s1\ns1 -- ret#0 -> s0\n",
        abstract="calls: op\nreturns: ret#0\ninternal: " + ", ".join(f"a{i}" for i in range(1, 10))
        + "\ninitial: t0\nt0 -- op -> t1\n"
        + "".join(f"t{i} -- a{i} -> t{i + 1}\n" for i in range(1, 10)) + "t10 -- ret#0 -> t0\n",
    )
    code, out, _ = run(capsys, ["check-fwd", *models[1:]])
    assert (code, report(out)["verdict"]) == (2, "unknown")
    code, out, err = run(capsys, [command, *models])
    assert (code, out) == (2, "")
    assert err == "ltsim: bound exhausted: no forward simulation found within the alpha bound 4\n"
    code, out, _ = run(capsys, [command, *models, "--alpha-bound", "20"])
    assert (code, report(out)["verdict"]) == (0, "holds")


def test_an_image_tree_over_the_budget_is_unknown(tmp_path, capsys):
    """The concrete object returns right after the call and the abstract one
    needs lin before ret, so the image tree outgrows the concrete tree:
    a budget between their sizes is spent in build_f (exit 2), not an
    unusable input (exit 3)."""
    texts = {
        "prog": "calls: op\nreturns: ret\ninitial: p0\np0 -- op -> p1\np1 -- ret -> p2\n",
        "concrete": "calls: op\nreturns: ret\ninitial: a\na -- op -> b\nb -- ret -> a\n",
        "abstract": "calls: op\nreturns: ret\ninternal: lin\ninitial: a\n"
        "a -- op -> b\nb -- lin -> c\nc -- ret -> a\n",
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.txt").write_text(text)
    argv = ["transform-scheduler", *(str(tmp_path / f"{name}.txt") for name in texts), "--depth", "4"]
    code, out, _ = run(capsys, argv)
    data = report(out)["data"]
    assert code == 0
    budget = data["concrete_tree_size"]
    assert budget < data["image_tree_size"]
    code, out, err = run(capsys, [*argv, "--budget", str(budget)])
    assert (code, out) == (2, "")
    assert err == f"ltsim: bound exhausted: image tree exceeded the node budget {budget}\n"


def test_check_lemmas_cli_reports_every_check(models, prog_cert, capsys):
    capsys.readouterr()
    code, out, _ = run(
        capsys,
        ["check-lemmas", models["prog"], models["plain"], models["spec"],
         "--depth", "14", "--cert", prog_cert],
    )
    rep = report(out)
    assert code == 0
    assert rep["verdict"] == "holds"
    results = rep["data"]["results"]
    assert [r["lemma"] for r in results] == [1, 2, 3, 4, 5]
    assert all(r["ok"] for r in results)
    assert [r["checked"] for r in results] == [21, 12, 21, 19, 17]
    assert all(r["counterexample"] is None for r in results)


@pytest.mark.parametrize("command", ["transform-scheduler", "check-lemmas"])
def test_a_supplied_certificate_leaves_gamma_and_alpha_bound_unread(
    models, prog_cert, capsys, command
):
    """The file's own gamma and alpha bound are used: a --gamma that names
    no action, or an alpha bound of 0, changes no byte and no exit code."""
    capsys.readouterr()
    argv = [command, models["prog"], models["plain"], models["spec"], "--cert", prog_cert]
    supplied = run(capsys, argv)
    assert supplied[0] == 0
    assert run(capsys, [*argv, "--gamma", "labels:nope"]) == supplied
    assert run(capsys, [*argv, "--gamma", "bogus", "--alpha-bound", "0"]) == supplied


# --- divergence and the case study ------------------------------------------


def test_find_divergence_refutes_the_invalidating_object(models, capsys):
    code, out, _ = run(capsys, ["find-divergence", models["prog"], models["impl"]])
    rep = report(out)
    assert code == 1
    assert rep["verdict"] == "refuted"
    data = rep["data"]
    assert data["strategy"] == "ll-alternator"
    assert data["stem"] == ["call@1#1", "call@2#2", "ll@1"]
    assert set(data["cycle"]) == LASSO_CYCLE
    assert len(data["cycle"]) == 4
    assert data["cycle_is_silent"] is True


def test_find_divergence_clears_the_plain_object(models, capsys):
    code, out, _ = run(capsys, ["find-divergence", models["prog"], models["plain"]])
    rep = report(out)
    assert code == 0
    assert rep["verdict"] == "holds"
    assert rep["data"] == {"strategy": "ll-alternator"}


LOOP_PROGRAM = """program:
calls: call@1#1
returns: ret@1#0
internal:
initial: p0
p0 -- call@1#1 -> p1
p1 -- ret@1#0 -> p2
"""

# after the call, the internal u·v loop can run forever
LOOP_OBJECT = """program:
calls: call@1#1
returns: ret@1#0
internal: u, v
initial: o0
o0 -- call@1#1 -> o1
o1 -- u -> o2
o2 -- v -> o1
o1 -- ret@1#0 -> o3
"""


class EveryAction(Scheduler):
    """A plain scheduler, not a strategy: every action after every trace."""

    def __init__(self, lts):
        self.lts = lts

    def schedule(self, trace):
        return self.lts.alphabet.all_actions


@pytest.fixture
def every_action(monkeypatch):
    monkeypatch.setitem(STRATEGIES, "every-action", EveryAction)


def test_find_divergence_is_unknown_for_a_scheduler_that_is_no_strategy(tmp_path, capsys, every_action):
    prog, obj = tmp_path / "prog.txt", tmp_path / "obj.txt"
    prog.write_text(LOOP_PROGRAM)
    obj.write_text(LOOP_OBJECT)
    code, out, _ = run(capsys, ["find-divergence", str(prog), str(obj), "--strategy", "maximal"])
    assert (code, report(out)["data"]["cycle"]) == (1, ["u", "v"])
    code, out, err = run(capsys, ["find-divergence", str(prog), str(obj), "--strategy", "every-action"])
    rep = report(out)
    assert (code, rep["verdict"], err) == (2, "unknown", "")
    assert rep["data"] == {"strategy": "every-action", "note": "not a strategy over the product"}


def test_a_strategy_registered_after_the_first_call_is_offered(models, capsys):
    run(capsys, ["check-det", models["impl"]])  # the parser is built here
    register_strategy("every-action-late", EveryAction)
    try:
        code, out, err = run(
            capsys, ["simulate", models["impl"], "--strategy", "every-action-late", "--depth", "2"]
        )
    finally:
        del STRATEGIES["every-action-late"]
    assert (code, err) == (0, "")
    assert report(out)["data"]["strategy"] == "every-action-late"
    with pytest.raises(SystemExit):  # and it is gone again once unregistered
        main(["simulate", models["impl"], "--strategy", "every-action-late"])
    assert "invalid choice" in capsys.readouterr().err


def test_run_casestudy_cli(capsys):
    code, out, _ = run(capsys, ["run-casestudy"])
    rep = report(out)
    assert code == 0
    assert rep["verdict"] == "holds"
    data = rep["data"]
    assert data["ok"] is True
    assert data["config"] == {"threads": [1, 2], "addends": [1, 2]}
    assert [s["name"] for s in data["steps"]] == [
        "forward-simulation-invalidating",
        "progressive-refuted-invalidating",
        "divergence-invalidating",
        "atomic-completion",
        "transform-terminating-variant",
    ]


@pytest.mark.parametrize("depth, code", [(0, 2), (11, 2), (12, 0)])
def test_run_casestudy_reads_a_short_comparison_as_unknown(capsys, depth, code):
    got, out, _ = run(capsys, ["run-casestudy", "--depth", str(depth)])
    rep = report(out)
    assert got == code
    assert rep["verdict"] == {0: "holds", 2: "unknown"}[code]
    transform = rep["data"]["steps"][-1]
    assert transform["name"] == "transform-terminating-variant"
    checks = {k: v for k, v in transform["detail"].items() if isinstance(v, bool)}
    assert all(checks.values()) and all(transform["detail"]["lemmas"].values())
    assert ("note" in transform["detail"]) == (code == 2)
    assert all(s["ok"] for s in rep["data"]["steps"][:-1])


FOUR_THREAD_CASESTUDY = ["run-casestudy", "--threads", "1,2,3,4", "--addends", "1,1,1,1"]


def test_run_casestudy_holds_at_four_threads(capsys):
    code, out, _ = run(capsys, FOUR_THREAD_CASESTUDY + ["--depth", "60"])
    assert (code, report(out)["verdict"]) == (0, "holds")


def test_run_casestudy_at_four_threads_runs_short_only_on_the_projection_depth(capsys):
    """The suite's matches are exhaustive, so at 4 threads steps (a)-(d)
    decide, step (b) with a valid stutter cycle, and a depth too small for
    the projections is all that leaves the verdict unknown."""
    code, out, _ = run(capsys, FOUR_THREAD_CASESTUDY + ["--depth", "14"])
    rep = report(out)
    assert (code, rep["verdict"]) == (2, "unknown")
    *decided, transform = rep["data"]["steps"]
    assert all(s["ok"] for s in decided)
    fwd, prog = decided[:2]
    assert fwd["detail"]["certificate_valid"] and fwd["detail"]["complete"]
    assert prog["detail"]["verdict"] == "no" and prog["detail"]["cycle_valid"]
    assert not transform["ok"]
    assert transform["detail"]["note"] == (
        "projections compared over 0 of the 8 steps needed; raise --depth"
    )


def test_run_casestudy_rejects_bad_configs(capsys):
    code, _, err = run(capsys, ["run-casestudy", "--threads", "1,1"])
    assert code == 3
    assert "distinct" in err


def test_run_casestudy_rejects_thread_id_0(capsys):
    # link 0 means "no holder": thread 0's store used to land on a link
    # another thread took, and the suite read "refuted"
    code, out, err = run(capsys, ["run-casestudy", "--threads", "0,1", "--addends", "1,1"])
    assert (code, out) == (3, "")
    assert err == "ltsim: thread ids must be positive\n"


# --- reproducibility --------------------------------------------------------


@pytest.mark.parametrize(
    "argv_tail",
    [
        ["run-casestudy"],
        ["check-prog-fwd", "impl", "spec", "--alpha-bound", "38"],
        ["transform-scheduler", "prog", "plain", "spec", "--depth", "14",
         "--alpha-bound", "38"],
    ],
    ids=["casestudy", "prog-fwd", "transform"],
)
def test_reports_are_byte_identical_across_runs(models, capsys, argv_tail):
    argv = [models.get(tok, tok) for tok in argv_tail]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second
    assert first[1] != ""


# sha256 of the transform-scheduler stdout report (run without --table-out,
# whose path the report names) and of the --table-out file, with the exit
# code, on 2-thread plain FAA; the run-casestudy report below it
TRANSFORM_DIGESTS = {
    ("object-first", "0"): (
        0,
        "dadbca41ac14b57ba3194567369393a640f5b10ad5edd8de76d70e07f6bfb3ef",
        "80badd161aa2f550bdfa0117e43fdecc4300000edc3ce388c8797d50dbf18ad0",
    ),
    ("object-first", "14"): (
        0,
        "569562f87ecdf4517709d6a51efb39d82e2e55c04a6bc8609afe67e5263f7649",
        "d403eaa2b8a2ed3d8f1bb0f7c2606b43f23ccb6a0f482cc833c02e0e4a789e9a",
    ),
    ("object-first", "200"): (
        0,
        "82f18736693122a51f60f577cd6571bdaaa8b7f0fb197244a247fa700b361306",
        "6a84dbd2330964ac79d9f93f3f2a045326dbcd9987d9cec00155801be457da61",
    ),
    ("object-first", "2000"): (
        0,
        "7fcc944c7dcff602dda107b36541e692b12f23f856af1c64f2e3e480596adf77",
        "cbaeec678e58c634c3cdeddde68cdf0405e6e88a1c3965ae7aec057c7be0aa57",
    ),
    ("fifo", "14"): (
        0,
        "4c7e538405c74971e136f6c31c141f6ee9d3b8817e1d74245f03c009bf97dfdb",
        "e1139f38f1830b9c54f283415e2f3b5deea96dff82cc07b7f5940fc658f88302",
    ),
}


@pytest.mark.parametrize("strategy, depth", TRANSFORM_DIGESTS)
def test_transform_report_and_table_bytes_are_pinned(models, tmp_path, capsys, strategy, depth):
    argv = ["transform-scheduler", models["prog"], models["plain"], models["spec"],
            "--strategy", strategy, "--depth", depth]
    code, out, _ = run(capsys, argv)
    table = tmp_path / "table.json"
    run(capsys, argv + ["--table-out", str(table)])
    got = (
        code,
        hashlib.sha256(out.encode()).hexdigest(),
        hashlib.sha256(table.read_bytes()).hexdigest(),
    )
    assert got == TRANSFORM_DIGESTS[(strategy, depth)]


# sha256 of the check-lemmas stdout report, with the exit code, on 2-thread
# plain FAA; the checked counts depend on the order the checks walk the trees
LEMMAS_DIGESTS = {
    ("object-first", "14"): (0, "594099ae73ec968bd4f6fa70ec9e63092cecc09fac4136af699c9977fa842b48"),
    ("object-first", "200"): (0, "cc322718b40973a6c710ce6f1edda79189edfc9754d71c73e9f4be303ae497bd"),
    ("object-first", "2000"): (0, "4989dfbeb1a8893d12e8f6e2423919d82c5283b9030c5d254daaeae8052d1ccc"),
    ("fifo", "14"): (0, "84458ac8cbc7c6c1943effb460108aa7f65b615a4a4294fce0a363b57e403cab"),
}


@pytest.mark.parametrize("strategy, depth", LEMMAS_DIGESTS)
def test_check_lemmas_report_bytes_are_pinned(models, capsys, strategy, depth):
    code, out, _ = run(
        capsys,
        ["check-lemmas", models["prog"], models["plain"], models["spec"],
         "--strategy", strategy, "--depth", depth],
    )
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == LEMMAS_DIGESTS[(strategy, depth)]


CASESTUDY_DIGEST = (0, "668758e61326dabb751d40c6c016f91e4b5d356c1d285a2ef9ed9ab4e3cbec06")


def test_casestudy_report_bytes_are_pinned(capsys):
    code, out, _ = run(capsys, ["run-casestudy"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CASESTUDY_DIGEST


@pytest.mark.parametrize(
    "row", [[0, "op", None], ["a", "op", ["x"]], ["a", "", "b"]], ids=["int-null", "list", "empty"]
)
def test_a_json_row_field_that_is_not_a_non_empty_string_exits_3(tmp_path, capsys, row):
    model = tmp_path / "bad.json"
    payload = {"alphabet": {"calls": ["op"]}, "initial": "a", "transitions": [row]}
    model.write_text(json.dumps(payload))
    code, out, err = run(capsys, ["check-det", str(model)])
    assert (code, out) == (3, "")
    assert "not a non-empty string" in err


# --- the collector pause ----------------------------------------------------


@pytest.fixture(scope="module")
def faa_sizes(tmp_path_factory):
    """FAA model files at 2 and 3 threads (addends all 1): program, both
    object variants, spec, and a check-fwd certificate of the invalidating
    object."""
    root = tmp_path_factory.mktemp("faa_sizes")
    sizes = {}
    for n in (2, 3):
        threads = tuple(range(1, n + 1))
        cfg = FaaConfig(threads, (1,) * n)
        ltss = {
            "prog": build_program(cfg),
            "impl": build_faa_impl(cfg),
            "plain": build_faa_impl(FaaConfig(threads, (1,) * n, "plain")),
            "spec": build_faa_spec(cfg),
        }
        paths = {}
        for name, lts in ltss.items():
            paths[name] = root / f"{name}{n}.json"
            paths[name].write_text(dumps(lts))
        impl, spec = ltss["impl"], ltss["spec"]
        res = check_forward(impl, spec, impl.alphabet.cr | spec.alphabet.cr, alpha_bound=4)
        paths["cert"] = root / f"cert{n}.json"
        paths["cert"].write_text("".join(certificate_chunks(res.certificate, None)))
        sizes[n] = {k: str(p) for k, p in paths.items()}
    return sizes


def _on_faa(command, *files):
    return lambda m, n: [command, *(m[n][f] for f in files)]


def _at_depth(command, *files):
    return lambda m, n: [command, *(m[2][f] for f in files), "--depth", str(n)]


# every subcommand, with its arguments at a size, and a small and a larger size
GROWING = {
    "check-det": (_on_faa("check-det", "impl"), (2, 3)),
    "idle-complete": (_on_faa("idle-complete", "impl"), (2, 3)),
    "product": (_on_faa("product", "prog", "impl"), (2, 3)),
    "export-dot": (_on_faa("export-dot", "impl"), (2, 3)),
    "check-fwd": (_on_faa("check-fwd", "impl", "spec"), (2, 3)),
    "check-prog-fwd": (_on_faa("check-prog-fwd", "impl", "spec"), (2, 3)),
    "validate-cert": (_on_faa("validate-cert", "impl", "spec", "cert"), (2, 3)),
    "find-divergence": (_on_faa("find-divergence", "prog", "impl"), (2, 3)),
    "simulate": (_at_depth("simulate", "prog"), (8, 20)),
    "check-admitted": (_at_depth("check-admitted", "prog"), (8, 20)),
    "transform-scheduler": (_at_depth("transform-scheduler", "prog", "plain", "spec"), (20, 200)),
    "check-lemmas": (_at_depth("check-lemmas", "prog", "plain", "spec"), (20, 200)),
    "run-casestudy": (lambda m, n: ["run-casestudy", "--depth", "12", "--addends", n], ("1,1", "1,2")),
}


def _cyclic_garbage(capsys, argv):
    """Objects that only the cyclic collector frees after main(argv) ran
    with the collector off, and the exit code."""
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = main(argv)
        return gc.collect(), code
    finally:
        if collecting:
            gc.enable()
        capsys.readouterr()


def test_every_subcommand_is_checked_for_growing_garbage():
    assert set(GROWING) == {name for name, _, _ in _subcommands()}


@pytest.mark.parametrize("command", GROWING)
def test_no_command_leaves_cyclic_garbage_that_grows_with_its_input(faa_sizes, capsys, command):
    """main runs a command with the collector paused, which is safe only
    while what a command leaves to the collector does not grow with its
    input."""
    argv, (small, large) = GROWING[command]
    main(argv(faa_sizes, small))  # a first call may fill caches
    capsys.readouterr()
    garbage = {}
    for size in (small, large):
        garbage[size], code = _cyclic_garbage(capsys, argv(faa_sizes, size))
        assert code in (0, 1)
    assert garbage[small] == garbage[large]


# tree-walking commands at depth 200 with a --budget that runs out in the
# walk, and a small and a larger budget
EXHAUSTED = {
    "simulate": (_at_depth("simulate", "prog"), (200, 392)),
    "transform-scheduler": (_at_depth("transform-scheduler", "prog", "plain", "spec"), (200, 392)),
    "check-lemmas": (_at_depth("check-lemmas", "prog", "plain", "spec"), (200, 392)),
}


@pytest.mark.parametrize("command", EXHAUSTED)
def test_a_spent_budget_leaves_no_cyclic_garbage_that_grows_with_it(faa_sizes, capsys, command):
    """A walk that runs out of budget drops the tree it was building (exit
    2); reference counting must free that tree as well."""
    argv, budgets = EXHAUSTED[command]
    main(argv(faa_sizes, 20))  # a first call may fill caches
    capsys.readouterr()
    garbage = {}
    for budget in budgets:
        garbage[budget], code = _cyclic_garbage(capsys, [*argv(faa_sizes, 200), "--budget", str(budget)])
        assert code == 2
    assert garbage[budgets[0]] == garbage[budgets[1]]


def _fail_to_load(text):
    raise RuntimeError("boom")


# exit path -> (argv from the shared model files, the code or argparse exit,
# load_model replaced with one that fails)
EXIT_PATHS = {
    "holds": (lambda m: ["check-det", m["impl"]], 0, False),
    "refuted": (lambda m: ["find-divergence", m["prog"], m["impl"]], 1, False),
    "bound-exhausted": (lambda m: ["simulate", m["impl"], "--depth", "8", "--budget", "3"], 2, False),
    "unusable-input": (lambda m: ["check-det", "/nonexistent/model.json"], 3, False),
    "internal-error": (lambda m: ["check-det", m["impl"]], 4, True),
    "argparse": (lambda m: ["simulate", m["impl"], "--strategy", "nope"], SystemExit, False),
}


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("path", EXIT_PATHS)
def test_main_restores_the_collector_state_it_found(models, capsys, monkeypatch, path, collecting):
    argv, expected, broken = EXIT_PATHS[path]
    seen = []

    def recording(text, load=_fail_to_load if broken else load_model):
        seen.append(gc.isenabled())
        return load(text)

    monkeypatch.setattr("ltsim.cli.load_model", recording)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if expected is SystemExit:
            with pytest.raises(SystemExit):
                main(argv(models))
        else:
            assert main(argv(models)) == expected
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert after is collecting
    assert True not in seen  # each model was loaded with the collector paused
    assert bool(seen) == (path not in ("unusable-input", "argparse"))
