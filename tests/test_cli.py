"""End-to-end drives of the command line front end, in process.

Each invocation goes through ltsim.cli.main with argv; stdout carries
exactly one JSON report when a verdict is reached and nothing otherwise
(export-dot without -o is the exception), diagnostics go to stderr, and
the exit code grades the verdict: 0 holds, 1 refuted, 2 unknown,
3 unusable input, 4 internal error.
"""

import argparse
import json

import pytest

from ltsim import Action, ActionKind, Alphabet, Lts, is_idle_complete
from ltsim.casestudies import FaaConfig, build_faa_impl, build_faa_spec, build_program
from ltsim.cli import _build_parser, main
from ltsim.modelio import dumps, load_model

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

    monkeypatch.setattr("ltsim.cli.check_deterministic", broken)
    code, out, err = run(capsys, ["check-det", models["impl"]])
    assert code == 4
    assert out == ""
    assert "Traceback" in err and "RuntimeError: boom" in err


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


@pytest.mark.parametrize("ranks", [[1, 2], {"x": 1}], ids=["list", "non-integer-key"])
@pytest.mark.parametrize("command", ["validate-cert", "transform-scheduler"])
def test_malformed_certificate_ranks_are_input_errors(
    models, prog_cert, tmp_path, capsys, command, ranks
):
    with open(prog_cert) as f:
        payload = json.load(f)
    payload["ranks"] = ranks
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(payload))
    if command == "validate-cert":
        argv = [command, models["plain"], models["spec"], str(cert)]
    else:
        argv = [command, models["prog"], models["plain"], models["spec"], "--cert", str(cert)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert "malformed certificate" in err


COUNT_OPTIONS = ("--depth", "--budget", "--max-traces", "--backtrack-budget")


def _bad_option_values():
    """A -1 for every count option each subcommand declares, plus bad integer lists."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        positionals = ["x"] * sum(1 for a in p._actions if not a.option_strings)
        for action in p._actions:
            for option in COUNT_OPTIONS:
                if option in action.option_strings:
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


# --- model commands ---------------------------------------------------------


def test_check_det_holds_on_a_loadable_model(models, capsys):
    code, out, _ = run(capsys, ["check-det", models["impl"]])
    rep = report(out)
    assert code == 0
    assert rep["command"] == "check-det"
    assert rep["verdict"] == "holds"
    assert rep["data"] == {"states": 33}


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
    assert rep["data"] == {"already_complete": False}


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


def test_run_casestudy_rejects_bad_configs(capsys):
    code, _, err = run(capsys, ["run-casestudy", "--threads", "1,1"])
    assert code == 3
    assert "distinct" in err


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
