"""Command line front end.

A command that reaches a verdict prints one JSON report to stdout,
reproducible byte for byte for identical inputs; wall-clock timing,
when requested, goes to stderr so it never perturbs the report.  Exit
codes: 0 the checked property holds (or the requested artifact was
produced), 1 it is refuted, 2 the verdict is unknown because a bound or
budget ran out, 3 the inputs were unusable, 4 an internal error (a bug;
the traceback goes to stderr).  A refutation carries a witness in the
report from check-admitted, find-divergence, check-lemmas and
validate-cert, a stutter cycle from check-prog-fwd's "no" and the first
stuck state from idle-complete; it carries none yet from check-fwd's
"refuted" or check-prog-fwd's "no-forward".  check-det never refutes:
the loader refuses a nondeterministic model as unusable input (3).
A raised depth or node bound (2), unusable input (3) and an internal
error (4) leave stdout empty and say why on stderr.  find-divergence
reports "unknown" (2) for a registered scheduler that is not a strategy
over the product, whose reachable behaviour it cannot enumerate.

main runs the command with Python's cyclic garbage collector paused and
restores the state it found when the command returns, however it
returns.  A command's data holds no reference cycles (a trace tree
links a child to its parent, and a parent to its children only by
position), so reference counting frees it, and the collector would
only rescan a large live heap and find nothing.
The pause is process-wide, so main is not meant to be called from
concurrent threads.

Each command handler returns its verdict ("holds", "refuted" or
"unknown") and the report's data, after writing any file it was asked
for; export-dot without -o, which prints plain graphviz, returns None.
main alone prints the report and maps the verdict to its exit code
through EXITS.  A search that the alpha bound may have cut short
refutes nothing: check-fwd and check-prog-fwd then report "unknown",
and transform-scheduler and check-lemmas, left without a certificate to
work from, stop as on a spent bound (2, stdout empty).  Those two
read --gamma and --alpha-bound only to compute that certificate: a
--cert file carries its own, and the flags are then not read.  Either
certificate passes the validator before the transformation acts on it.
run-casestudy takes no alpha bound: its suite matches exhaustively.

Files are read and written as UTF-8 whatever the locale; stdout keeps
the terminal's encoding, which matters only for export-dot without -o,
as every JSON report is ASCII.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Iterable, Sequence

from .casestudies import FaaConfig, run_counterexample_suite
from .composition import product
from .errors import BudgetExceeded, ContractViolation, DepthExhausted, LtsimError, ParseError
from .lts import (
    Action,
    Lts,
    idle_complete,
    label_resolver,
    project_lasso,
    sort_actions,
    validate_lasso,
)
from .modelio import dumps, format_lts_text, load_model, to_dot, unique_keys
from .scheduler import (
    STRATEGIES,
    Strategy,
    check_admitted,
    enumerate_traces,
    find_divergence,
    make_scheduler,
)
from .simulation import (
    DEFAULT_ALPHA_BOUND,
    DEFAULT_BACKTRACK_BUDGET,
    SCHEMA_VERSION,
    ProgressWitness,
    SimulationCertificate,
    certificate_chunks,
    certificate_from_dict,
    check_forward,
    check_progressive,
    stutter_cycle_to_dict,
    validate_certificate,
)
from .transform import (
    build_f,
    check_all_lemmas,
    check_s2,
    construct_s2,
)

EXIT_HOLDS = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4
EXITS = {"holds": EXIT_HOLDS, "refuted": EXIT_REFUTED, "unknown": EXIT_UNKNOWN}

# what a handler returns: the report's verdict and data
Report = tuple[str, dict[str, Any]]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with the input-error exit code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """argparse type of depths, budgets and limits: a non-negative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type of a comma list of integers."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of integers") from None


def _read_text(path: str) -> str:
    try:
        try:
            with open(path, encoding="utf-8") as f:
                return f.read()
        except OSError:
            # open fails on "" and on a trailing slash, which Path reads as
            # "." and as the file itself; retrying keeps what Path gives
            return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({e.reason})") from None


def _read(path: str) -> Lts:
    return load_model(_read_text(path))


def _read_certificate(path: str, a1: Lts, a2: Lts):
    try:
        payload = json.loads(_read_text(path), object_pairs_hook=unique_keys("certificate"))
    except json.JSONDecodeError as e:
        raise ParseError(f"certificate is not JSON: {e.msg}", line=e.lineno, column=e.colno) from None
    return certificate_from_dict(payload, a1, a2)


def _write(path: str, text: str | Iterable[str]) -> None:
    """Write a text, or the chunks of one as they come, to path."""
    try:
        with Path(path).open("w", encoding="utf-8") as f:
            f.writelines((text,) if isinstance(text, str) else text)
    except OSError as e:
        raise ParseError(f"cannot write {path}: {e.strerror}") from None


def _resolve_gamma(spec_text: str, *ltss: Lts) -> frozenset[Action]:
    if spec_text == "cr":
        return frozenset().union(*(lts.alphabet.cr for lts in ltss))
    if spec_text == "gamma-p":
        return frozenset().union(*(lts.alphabet.gamma_p for lts in ltss))
    if spec_text == "none":
        return frozenset()
    if spec_text.startswith("labels:"):
        resolve = label_resolver(ltss, "--gamma")
        labels = spec_text[len("labels:"):].split(",")
        return frozenset(resolve(x.strip()) for x in labels if x.strip())
    raise ParseError(
        f"bad --gamma {spec_text!r}: use cr, gamma-p, none, or labels:a,b,c"
    )


def _trace_labels(trace: Sequence[Action]) -> list[str]:
    return [a.label() for a in trace]


# --- command handlers -----------------------------------------------------


def _cmd_check_det(args: argparse.Namespace) -> Report:
    lts = _read(args.model)  # the loader refuses a nondeterministic model as unusable input
    return "holds", {"states": lts.num_states}


def _cmd_idle_complete(args: argparse.Namespace) -> Report:
    lts = _read(args.model)
    stuck = next((s for s in range(lts.num_states) if not lts.enabled(s)), None)
    data: dict[str, Any] = {"already_complete": stuck is None}
    if args.out:
        completed = lts if stuck is None else idle_complete(lts)
        text = dumps(completed) if args.out.endswith(".json") else format_lts_text(completed)
        _write(args.out, text)
        data["written"] = args.out
        return "holds", data
    if stuck is not None:
        data["stuck_state"] = lts.label_of(stuck)
    return ("holds" if stuck is None else "refuted"), data


def _cmd_product(args: argparse.Namespace) -> Report:
    prog = _read(args.program)
    obj = _read(args.object)
    prod = product(prog, obj)
    data = {
        "states": prod.num_states,
        "edges": sum(1 for _ in prod.edges()),
        "program_states": prog.num_states,
        "object_states": obj.num_states,
    }
    if args.out:
        _write(args.out, dumps(prod))
        data["written"] = args.out
    return "holds", data


def _cmd_simulate(args: argparse.Namespace) -> Report:
    lts = _read(args.model)
    sched = make_scheduler(args.strategy, lts)
    tree = enumerate_traces(lts, sched, args.depth, budget=args.budget)
    listed = itertools.islice(tree.nodes(), args.max_traces)
    data = {
        "strategy": args.strategy,
        "depth": args.depth,
        "tree_size": tree.size,
        "traces": [_trace_labels(v.trace()) for v in listed],
        "truncated_listing": tree.size > args.max_traces,
    }
    return "holds", data


def _cmd_check_admitted(args: argparse.Namespace) -> Report:
    lts = _read(args.model)
    sched = make_scheduler(args.strategy, lts)
    res = check_admitted(sched, lts, args.depth, budget=args.budget)
    data: dict[str, Any] = {"strategy": args.strategy, "complete": res.complete}
    if res.witness is not None:
        data["witness"] = _trace_labels(res.witness)
        data["detail"] = res.detail
    return ("holds" if res.ok else "refuted"), data


def _certified(
    args: argparse.Namespace, data: dict[str, Any], cert: SimulationCertificate,
    witness: ProgressWitness | None, a1: Lts, a2: Lts,
) -> Report:
    """The verdict on a found certificate: holds iff it validates; written to --cert-out if given."""
    ok, problems = validate_certificate(cert, witness, a1, a2)
    data["certificate_valid"] = ok
    data["problems"] = problems
    if args.cert_out:
        _write(args.cert_out, certificate_chunks(cert, witness))
        data["certificate_written"] = args.cert_out
    return ("holds" if ok else "refuted"), data


def _simulation_inputs(args: argparse.Namespace) -> tuple[Lts, Lts, frozenset[Action]]:
    """The two models and gamma of check-fwd and check-prog-fwd.  With
    --cert-out, a pair in which one label names two actions is refused, as
    validate-cert would refuse the certificate written for it."""
    a1 = _read(args.concrete)
    a2 = _read(args.abstract)
    if args.cert_out:
        resolve = label_resolver((a1, a2), "certificate")
        for label in sorted({a.label() for lts in (a1, a2) for a in lts.alphabet.all_actions}):
            resolve(label)
    return a1, a2, _resolve_gamma(args.gamma, a1, a2)


def _cmd_check_fwd(args: argparse.Namespace) -> Report:
    a1, a2, gamma = _simulation_inputs(args)
    res = check_forward(a1, a2, gamma, alpha_bound=args.alpha_bound)
    data: dict[str, Any] = {
        "relation_size": len(res.relation),
        "complete": res.complete,
        "deletions": res.deleted,
        "alpha_bound": args.alpha_bound,
    }
    if res.certificate is not None:
        return _certified(args, data, res.certificate, None, a1, a2)
    return ("refuted" if res.complete else "unknown"), data


def _cmd_check_prog_fwd(args: argparse.Namespace) -> Report:
    a1, a2, gamma = _simulation_inputs(args)
    res = check_progressive(
        a1, a2, gamma, alpha_bound=args.alpha_bound, backtrack_budget=args.backtrack_budget
    )
    data: dict[str, Any] = {
        "verdict": res.verdict,
        "complete": res.complete,
        "relation_size": len(res.relation),
        "note": res.note,
    }
    if res.cycle is not None:
        data["stutter_cycle"] = stutter_cycle_to_dict(res.cycle)
    if res.verdict == "yes":
        return _certified(args, data, res.certificate, res.witness, a1, a2)
    # a "no" or "no-forward" that the alpha bound may have caused proves nothing
    return ("refuted" if res.complete and res.verdict != "unknown" else "unknown"), data


def _cmd_validate_cert(args: argparse.Namespace) -> Report:
    a1 = _read(args.concrete)
    a2 = _read(args.abstract)
    cert, witness = _read_certificate(args.certificate, a1, a2)
    ok, problems = validate_certificate(cert, witness, a1, a2)
    data = {
        "relation_size": len(cert.relation),
        "has_ranks": witness is not None,
        "problems": problems,
    }
    return ("holds" if ok else "refuted"), data


def _load_transform(args: argparse.Namespace):
    prog = _read(args.program)
    obj1 = _read(args.concrete)
    obj2 = _read(args.abstract)
    if args.cert:  # the file carries its gamma and alpha bound: the flags are not read
        cert, _witness = _read_certificate(args.cert, obj1, obj2)
        cert_source = "supplied"
    else:
        gamma = _resolve_gamma(args.gamma, obj1, obj2)
        res = check_forward(obj1, obj2, gamma, alpha_bound=args.alpha_bound)
        if res.certificate is None and not res.complete:  # the bound may hide one: unknown
            raise BudgetExceeded(
                args.alpha_bound,
                f"no forward simulation found within the alpha bound {args.alpha_bound}",
            )
        if res.certificate is None:
            raise ContractViolation("no forward simulation between the objects")
        cert = res.certificate
        cert_source = "computed"
    ok, problems = validate_certificate(cert, None, obj1, obj2)
    if not ok:
        raise ContractViolation(f"{cert_source} certificate is invalid: {problems[0]}")
    prod1 = product(prog, obj1)
    prod2 = product(prog, obj2)
    s1 = make_scheduler(args.strategy, prod1)
    mt = build_f(prod1, s1, prod2, cert, args.depth, budget=args.budget)
    return mt, construct_s2(mt), cert_source


def _cmd_transform_scheduler(args: argparse.Namespace) -> Report:
    mt, s2, cert_source = _load_transform(args)
    checks = check_s2(mt, s2, args.depth, budget=args.budget)
    data: dict[str, Any] = {
        "certificate": cert_source,
        "strategy": args.strategy,
        "depth": args.depth,
        "concrete_tree_size": mt.concrete.size,
        "image_tree_size": mt.image.size,
        "settled_image_length": checks.settled,
        "admitted": checks.admitted.ok,
        "deterministic": checks.deterministic.ok,
        "image_equality": checks.images.ok,
        "projection_equality": checks.projections.ok,
        "projection_compare_length": checks.projections.compare_length,
        "conflicts": mt.conflicts,
    }
    for name, check in (("images", checks.images), ("projections", checks.projections)):
        if check.counterexample:
            data[f"{name}_counterexample"] = check.counterexample
    if args.table_out:
        rows = [
            {
                "trace": _trace_labels(v.trace()),
                "scheduled": [a.label() for a in sort_actions(v.scheduled)],
            }
            for v in mt.image.nodes()
            if v.scheduled is not None
        ]
        rows.sort(key=lambda r: (len(r["trace"]), r["trace"]))
        _write(
            args.table_out,
            json.dumps(
                {"schema_version": SCHEMA_VERSION, "scheduler": rows}, indent=2, sort_keys=True
            )
            + "\n",
        )
        data["table_written"] = args.table_out
    return ("holds" if checks.ok else "refuted"), data


def _cmd_check_lemmas(args: argparse.Namespace) -> Report:
    mt, s2, cert_source = _load_transform(args)
    results = check_all_lemmas(mt, s2)
    data = {
        "certificate": cert_source,
        "results": [
            {
                "lemma": r.lemma,
                "ok": r.ok,
                "checked": r.checked,
                "counterexample": r.counterexample,
            }
            for r in results
        ],
    }
    return ("holds" if all(r.ok for r in results) else "refuted"), data


def _cmd_find_divergence(args: argparse.Namespace) -> Report:
    prog = _read(args.program)
    obj = _read(args.object)
    prod = product(prog, obj)
    sched = make_scheduler(args.strategy, prod)
    gamma = _resolve_gamma(args.gamma, prod)
    if not (isinstance(sched, Strategy) and sched.lts is prod):  # find_divergence checks nothing
        return "unknown", {"strategy": args.strategy, "note": "not a strategy over the product"}
    lasso = find_divergence(prod, sched, gamma, budget=args.budget)
    if lasso is None:
        return "holds", {"strategy": args.strategy}
    validate_lasso(prod, lasso)
    projected = project_lasso(lasso, gamma)
    data = {
        "strategy": args.strategy,
        "stem": _trace_labels(lasso.stem),
        "cycle": _trace_labels(lasso.cycle),
        "cycle_is_silent": not isinstance(projected, type(lasso)),
    }
    return "refuted", data


def _cmd_run_casestudy(args: argparse.Namespace) -> Report:
    cfg = FaaConfig(threads=args.threads, addends=args.addends)
    report = run_counterexample_suite(cfg, depth=args.depth, budget=args.budget)
    return report.verdict, report.to_dict()


def _cmd_export_dot(args: argparse.Namespace) -> Report | None:
    lts = _read(args.model)
    name = Path(args.model).stem.replace("-", "_") or "lts"
    text = to_dot(lts, name=name)
    if not args.out:
        sys.stdout.write(text)  # plain graphviz, not a report
        return None
    _write(args.out, text)
    return "holds", {"written": args.out}


# --- parser ---------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    # --help gives the docstring up to its notes on the handlers
    parser = _Parser(prog="ltsim", description=__doc__.partition("\n\nEach command handler")[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="recorded in the report")
    common.add_argument("--timing", action="store_true", help="print wall-clock to stderr")
    # only for the commands that pass a node budget on
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=_count, default=None, help="node budget override")

    sub = parser.add_subparsers(dest="cmd")

    def cmd(name: str, handler, help_text: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common, *parents], help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = cmd("check-det", _cmd_check_det, "per-edge determinism of a model")
    p.add_argument("model")

    p = cmd("idle-complete", _cmd_idle_complete, "check or add the idle self-loops")
    p.add_argument("model")
    p.add_argument("-o", "--out", default=None)

    p = cmd("product", _cmd_product, "synchronized product of a program and an object")
    p.add_argument("program")
    p.add_argument("object")
    p.add_argument("-o", "--out", default=None)

    p = cmd("simulate", _cmd_simulate, "enumerate scheduled traces", budget)
    p.add_argument("model")
    p.add_argument("--strategy", default="maximal", choices=STRATEGIES)
    p.add_argument("--depth", type=_count, default=8)
    p.add_argument("--max-traces", type=_count, default=50)

    p = cmd("check-admitted", _cmd_check_admitted, "non-empty, all-enabled scheduling", budget)
    p.add_argument("model")
    p.add_argument("--strategy", default="maximal", choices=STRATEGIES)
    p.add_argument("--depth", type=_count, default=8)

    p = cmd("check-fwd", _cmd_check_fwd, "greatest forward simulation")
    p.add_argument("concrete")
    p.add_argument("abstract")
    p.add_argument("--gamma", default="cr")
    p.add_argument("--alpha-bound", type=int, default=DEFAULT_ALPHA_BOUND)
    p.add_argument("--cert-out", default=None)

    p = cmd("check-prog-fwd", _cmd_check_prog_fwd, "forward simulation with ranks")
    p.add_argument("concrete")
    p.add_argument("abstract")
    p.add_argument("--gamma", default="cr")
    p.add_argument("--alpha-bound", type=int, default=DEFAULT_ALPHA_BOUND)
    p.add_argument("--backtrack-budget", type=_count, default=DEFAULT_BACKTRACK_BUDGET)
    p.add_argument("--cert-out", default=None)

    p = cmd("validate-cert", _cmd_validate_cert, "replay a stored certificate")
    p.add_argument("concrete")
    p.add_argument("abstract")
    p.add_argument("certificate")

    for name, handler, help_text in (
        ("transform-scheduler", _cmd_transform_scheduler, "derive the abstract scheduler"),
        ("check-lemmas", _cmd_check_lemmas, "structural checks of the trace mapping"),
    ):
        p = cmd(name, handler, help_text, budget)
        p.add_argument("program")
        p.add_argument("concrete")
        p.add_argument("abstract")
        p.add_argument("--strategy", default="object-first", choices=STRATEGIES)
        p.add_argument("--depth", type=_count, default=12)
        with_cert = "unread with --cert: the file gives its own"
        p.add_argument("--gamma", default="cr", help=with_cert)
        p.add_argument("--alpha-bound", type=int, default=DEFAULT_ALPHA_BOUND, help=with_cert)
        p.add_argument("--cert", default=None, help="certificate file (computed when absent)")
        if name == "transform-scheduler":
            p.add_argument("--table-out", default=None)

    p = cmd("find-divergence", _cmd_find_divergence, "silent cycle under a strategy", budget)
    p.add_argument("program")
    p.add_argument("object")
    p.add_argument("--strategy", default="ll-alternator", choices=STRATEGIES)
    p.add_argument("--gamma", default="gamma-p")

    p = cmd("run-casestudy", _cmd_run_casestudy, "the counter contrast, end to end", budget)
    p.add_argument("--threads", type=_int_list, default=(1, 2))
    p.add_argument("--addends", type=_int_list, default=(1, 2))
    p.add_argument("--depth", type=_count, default=14)

    p = cmd("export-dot", _cmd_export_dot, "model as graphviz")
    p.add_argument("model")
    p.add_argument("-o", "--out", default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command, print its report, and return its exit code.

    The handler runs with the cyclic garbage collector paused, as what
    it builds holds no reference cycle (see the module docstring); the
    collector's state is restored when it returns or raises.  The pause
    is process-wide, so main is not meant for concurrent threads.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cmd", None) is None:
        parser.print_help(sys.stderr)
        return EXIT_INPUT
    start = time.monotonic()
    collecting = gc.isenabled()
    gc.disable()
    try:
        result = args.handler(args)
        code = EXIT_HOLDS
        if result is not None:
            verdict, data = result
            code = EXITS[verdict]
            report = {"schema_version": SCHEMA_VERSION, "command": args.cmd, "seed": args.seed,
                      "verdict": verdict, "data": data}
            sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    except (BudgetExceeded, DepthExhausted) as e:
        print(f"ltsim: bound exhausted: {e}", file=sys.stderr)
        code = EXIT_UNKNOWN
    except LtsimError as e:
        print(f"ltsim: {e}", file=sys.stderr)
        code = EXIT_INPUT
    except Exception:
        print("ltsim: internal error", file=sys.stderr)
        traceback.print_exc()
        code = EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()
    if args.timing:
        print(f"ltsim: {args.cmd}: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
