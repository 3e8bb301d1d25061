"""Command line front end.

A command that reaches a verdict prints one JSON report to stdout,
reproducible byte for byte for identical inputs; wall-clock timing,
when requested, goes to stderr so it never perturbs the report.  Exit
codes: 0 the checked property holds (or the requested artifact was
produced), 1 it is refuted, 2 the verdict is unknown because a bound or
budget ran out, 3 the inputs were unusable, 4 an internal error (a bug;
the traceback goes to stderr).  A refutation carries a witness in the
report from check-admitted, find-divergence, check-lemmas and
validate-cert, and a stutter cycle from check-prog-fwd's "no"; it
carries none yet from check-fwd's "refuted", check-prog-fwd's
"no-forward" or idle-complete.  check-det never refutes: the loader
refuses a nondeterministic model as unusable input (3).
A raised depth or node bound (2), unusable input (3) and an internal
error (4) leave stdout empty and say why on stderr.
"""

from __future__ import annotations

import argparse
import functools
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
    is_idle_complete,
    project_lasso,
    sort_actions,
    validate_lasso,
)
from .modelio import dumps, format_lts_text, load_model, to_dot, unique_keys
from .scheduler import (
    STRATEGIES,
    check_admitted,
    enumerate_traces,
    find_divergence,
    make_scheduler,
)
from .simulation import (
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
    unlink_trees,
)

EXIT_HOLDS = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


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
        return Path(path).read_text()
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
        with Path(path).open("w") as f:
            f.writelines((text,) if isinstance(text, str) else text)
    except OSError as e:
        raise ParseError(f"cannot write {path}: {e.strerror}") from None


def _emit(args: argparse.Namespace, verdict: str, data: dict[str, Any]) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.cmd,
        "seed": args.seed,
        "verdict": verdict,
        "data": data,
    }
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _verdict(args: argparse.Namespace, ok: bool, data: dict[str, Any]) -> int:
    """Report a decided check: holds (exit 0) when ok, refuted (exit 1) otherwise."""
    _emit(args, "holds" if ok else "refuted", data)
    return EXIT_HOLDS if ok else EXIT_REFUTED


def _resolve_gamma(spec_text: str, *ltss: Lts) -> frozenset[Action]:
    if spec_text == "cr":
        out: frozenset[Action] = frozenset()
        for lts in ltss:
            out |= lts.alphabet.cr
        return out
    if spec_text == "gamma-p":
        out = frozenset()
        for lts in ltss:
            out |= lts.alphabet.gamma_p
        return out
    if spec_text == "none":
        return frozenset()
    if spec_text.startswith("labels:"):
        by_label = {}
        for lts in ltss:
            for a in sort_actions(lts.alphabet.all_actions):
                by_label.setdefault(a.label(), a)
        wanted = [x.strip() for x in spec_text[len("labels:"):].split(",") if x.strip()]
        missing = [x for x in wanted if x not in by_label]
        if missing:
            raise ParseError(f"unknown action label {missing[0]!r} in --gamma")
        return frozenset(by_label[x] for x in wanted)
    raise ParseError(
        f"bad --gamma {spec_text!r}: use cr, gamma-p, none, or labels:a,b,c"
    )


def _trace_labels(trace: Sequence[Action]) -> list[str]:
    return [a.label() for a in trace]


# --- command handlers -----------------------------------------------------


def _cmd_check_det(args: argparse.Namespace) -> int:
    lts = _read(args.model)  # the loader refuses a nondeterministic model as unusable input
    return _verdict(args, True, {"states": lts.num_states})


def _cmd_idle_complete(args: argparse.Namespace) -> int:
    lts = _read(args.model)
    already = is_idle_complete(lts)
    data: dict[str, Any] = {"already_complete": already}
    if args.out:
        completed = lts if already else idle_complete(lts)
        text = dumps(completed) if args.out.endswith(".json") else format_lts_text(completed)
        _write(args.out, text)
        data["written"] = args.out
        _emit(args, "holds", data)
        return EXIT_HOLDS
    return _verdict(args, already, data)


def _cmd_product(args: argparse.Namespace) -> int:
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
    _emit(args, "holds", data)
    return EXIT_HOLDS


def _cmd_simulate(args: argparse.Namespace) -> int:
    lts = _read(args.model)
    sched = make_scheduler(args.strategy, lts)
    tree = enumerate_traces(lts, sched, args.depth, budget=args.budget)
    traces = [_trace_labels(t) for t in tree.traces()]
    data = {
        "strategy": args.strategy,
        "depth": args.depth,
        "tree_size": tree.size,
        "traces": traces[: args.max_traces],
        "truncated_listing": len(traces) > args.max_traces,
    }
    _emit(args, "holds", data)
    return EXIT_HOLDS


def _cmd_check_admitted(args: argparse.Namespace) -> int:
    lts = _read(args.model)
    sched = make_scheduler(args.strategy, lts)
    res = check_admitted(sched, lts, args.depth, budget=args.budget)
    data: dict[str, Any] = {"strategy": args.strategy, "complete": res.complete}
    if res.witness is not None:
        data["witness"] = _trace_labels(res.witness)
        data["detail"] = res.detail
    return _verdict(args, res.ok, data)


def _certified(
    args: argparse.Namespace, data: dict[str, Any], cert: SimulationCertificate,
    witness: ProgressWitness | None, a1: Lts, a2: Lts,
) -> int:
    """Report a found certificate: holds iff it validates; written to --cert-out if given."""
    ok, problems = validate_certificate(cert, witness, a1, a2)
    data["certificate_valid"] = ok
    data["problems"] = problems
    if args.cert_out:
        _write(args.cert_out, certificate_chunks(cert, witness))
        data["certificate_written"] = args.cert_out
    return _verdict(args, ok, data)


def _cmd_check_fwd(args: argparse.Namespace) -> int:
    a1 = _read(args.concrete)
    a2 = _read(args.abstract)
    gamma = _resolve_gamma(args.gamma, a1, a2)
    res = check_forward(a1, a2, gamma, alpha_bound=args.alpha_bound)
    data: dict[str, Any] = {
        "relation_size": len(res.relation),
        "complete": res.complete,
        "deletions": res.deleted,
        "alpha_bound": args.alpha_bound,
    }
    if res.certificate is not None:
        return _certified(args, data, res.certificate, None, a1, a2)
    verdict = "refuted" if res.complete else "unknown"
    _emit(args, verdict, data)
    return EXIT_REFUTED if res.complete else EXIT_UNKNOWN


def _cmd_check_prog_fwd(args: argparse.Namespace) -> int:
    a1 = _read(args.concrete)
    a2 = _read(args.abstract)
    gamma = _resolve_gamma(args.gamma, a1, a2)
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
    if res.verdict == "unknown" or (res.verdict == "no-forward" and not res.complete):
        _emit(args, "unknown", data)
        return EXIT_UNKNOWN
    _emit(args, "refuted", data)
    return EXIT_REFUTED


def _cmd_validate_cert(args: argparse.Namespace) -> int:
    a1 = _read(args.concrete)
    a2 = _read(args.abstract)
    cert, witness = _read_certificate(args.certificate, a1, a2)
    ok, problems = validate_certificate(cert, witness, a1, a2)
    data = {
        "relation_size": len(cert.relation),
        "has_ranks": witness is not None,
        "problems": problems,
    }
    return _verdict(args, ok, data)


def _load_transform(args: argparse.Namespace):
    prog = _read(args.program)
    obj1 = _read(args.concrete)
    obj2 = _read(args.abstract)
    gamma = _resolve_gamma(args.gamma, obj1, obj2)
    if args.cert:
        cert, _witness = _read_certificate(args.cert, obj1, obj2)
        ok, problems = validate_certificate(cert, None, obj1, obj2)
        if not ok:
            raise ContractViolation(f"supplied certificate is invalid: {problems[0]}")
        cert_source = "supplied"
    else:
        res = check_forward(obj1, obj2, gamma, alpha_bound=args.alpha_bound)
        if res.certificate is None:
            raise ContractViolation(
                "no forward simulation between the objects"
                if res.complete
                else "no forward simulation found within the alpha bound"
            )
        cert = res.certificate
        cert_source = "computed"
    prod1 = product(prog, obj1)
    prod2 = product(prog, obj2)
    s1 = make_scheduler(args.strategy, prod1)
    mt = build_f(prod1, s1, prod2, cert, args.depth, budget=args.budget)
    s2 = construct_s2(mt, budget=args.budget)
    return prod1, mt, s2, cert_source


def _cmd_transform_scheduler(args: argparse.Namespace) -> int:
    prod1, mt, s2, cert_source = _load_transform(args)
    checks = check_s2(mt, s2, prod1.alphabet.program, args.depth, budget=args.budget)
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
    unlink_trees(mt, s2)
    return _verdict(args, checks.ok, data)


def _cmd_check_lemmas(args: argparse.Namespace) -> int:
    _prod1, mt, s2, cert_source = _load_transform(args)
    results = check_all_lemmas(mt, s2)
    unlink_trees(mt, s2)
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
    ok = all(r.ok for r in results)
    return _verdict(args, ok, data)


def _cmd_find_divergence(args: argparse.Namespace) -> int:
    prog = _read(args.program)
    obj = _read(args.object)
    prod = product(prog, obj)
    sched = make_scheduler(args.strategy, prod)
    gamma = _resolve_gamma(args.gamma, prod)
    lasso = find_divergence(prod, sched, gamma, budget=args.budget)
    if lasso is None:
        _emit(args, "holds", {"strategy": args.strategy})
        return EXIT_HOLDS
    validate_lasso(prod, lasso)
    projected = project_lasso(lasso, gamma)
    data = {
        "strategy": args.strategy,
        "stem": _trace_labels(lasso.stem),
        "cycle": _trace_labels(lasso.cycle),
        "cycle_is_silent": not isinstance(projected, type(lasso)),
    }
    _emit(args, "refuted", data)
    return EXIT_REFUTED


def _cmd_run_casestudy(args: argparse.Namespace) -> int:
    cfg = FaaConfig(threads=args.threads, addends=args.addends)
    report = run_counterexample_suite(cfg, depth=args.depth, budget=args.budget)
    if report.verdict == "unknown":
        _emit(args, "unknown", report.to_dict())
        return EXIT_UNKNOWN
    return _verdict(args, report.ok, report.to_dict())


def _cmd_export_dot(args: argparse.Namespace) -> int:
    lts = _read(args.model)
    name = Path(args.model).stem.replace("-", "_") or "lts"
    text = to_dot(lts, name=name)
    if args.out:
        _write(args.out, text)
        _emit(args, "holds", {"written": args.out})
    else:
        sys.stdout.write(text)
    return EXIT_HOLDS


# --- parser ---------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="ltsim", description=__doc__)
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
    p.add_argument("--strategy", default="maximal", choices=sorted(STRATEGIES))
    p.add_argument("--depth", type=_count, default=8)
    p.add_argument("--max-traces", type=_count, default=50)

    p = cmd("check-admitted", _cmd_check_admitted, "non-empty, all-enabled scheduling", budget)
    p.add_argument("model")
    p.add_argument("--strategy", default="maximal", choices=sorted(STRATEGIES))
    p.add_argument("--depth", type=_count, default=8)

    p = cmd("check-fwd", _cmd_check_fwd, "greatest forward simulation")
    p.add_argument("concrete")
    p.add_argument("abstract")
    p.add_argument("--gamma", default="cr")
    p.add_argument("--alpha-bound", type=int, default=4)
    p.add_argument("--cert-out", default=None)

    p = cmd("check-prog-fwd", _cmd_check_prog_fwd, "forward simulation with ranks")
    p.add_argument("concrete")
    p.add_argument("abstract")
    p.add_argument("--gamma", default="cr")
    p.add_argument("--alpha-bound", type=int, default=4)
    p.add_argument("--backtrack-budget", type=_count, default=1_000_000)
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
        p.add_argument("--strategy", default="object-first", choices=sorted(STRATEGIES))
        p.add_argument("--depth", type=_count, default=12)
        p.add_argument("--gamma", default="cr")
        p.add_argument("--alpha-bound", type=int, default=4)
        p.add_argument("--cert", default=None, help="certificate file (computed when absent)")
        if name == "transform-scheduler":
            p.add_argument("--table-out", default=None)

    p = cmd("find-divergence", _cmd_find_divergence, "silent cycle under a strategy", budget)
    p.add_argument("program")
    p.add_argument("object")
    p.add_argument("--strategy", default="ll-alternator", choices=sorted(STRATEGIES))
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cmd", None) is None:
        parser.print_help(sys.stderr)
        return EXIT_INPUT
    start = time.monotonic()
    try:
        code = args.handler(args)
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
    if args.timing:
        print(f"ltsim: {args.cmd}: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
