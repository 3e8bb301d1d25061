"""Closed-loop benchmark of the ltsim command line, end to end and per layer.

One run builds a workload's models (timed several times: ``setup_s``),
writes them, then runs rounds of its jobs until ``--seconds`` have passed, at least one
round.  Every job calls ``ltsim.cli.main`` in this process and thread,
with stdout and stderr captured, and is timed from outside.  Each job is
checked: its exit code, report fields, and the sha256 of its stdout
against the committed reference (reference.json) where one exists.  An
exception escaping ``cli.main`` is a failed job, recorded with its type
and the span it escaped from; it never counts as a verdict.

Times are taken by the clock and then adjusted to a fixed host speed,
which is sampled throughout the run (hostspeed.py); wall times are
printed and saved beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced round and reports the per-layer metrics of the
traced rounds plus ``trace.overhead_frac``, the traced round's job time
over the untraced one's, minus 1.  End-to-end numbers come only from
untraced rounds.

The last stdout line is one JSON object: correct, attempted, failed and
the metrics.  Everything else (per-command times, failures, host drift)
is printed above it and saved under .perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import ltsim.cli

import hostspeed
import tracing
import workloads

DEFAULT_SEED = 1
# The host alternates between a fast and a slow regime (about 1.8x) every
# fraction of a second, so set-up is timed in batches long enough to mix
# both; setup_s is the median of the batches' mean set-up times.
SETUP_BATCHES = 5
SETUP_BATCH_SECONDS = 0.4
REF_LOOP_ITERATIONS = 2_000_000
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# per-command metric of each ltsim command the workloads run
COMMAND_METRICS = {
    "check-fwd": "check_fwd_s",
    "check-prog-fwd": "check_prog_fwd_s",
    "validate-cert": "validate_cert_s",
    "find-divergence": "find_divergence_s",
    "transform-scheduler": "transform_s",
    "check-lemmas": "check_lemmas_s",
    "run-casestudy": "casestudy_s",
}
UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "ratio" if metric.endswith(("_ratio", "_frac")) else "count"


@dataclass
class JobResult:
    job: workloads.Job
    start: float
    seconds: float
    crash: str | None = None  # "<exception type> in <span>"
    mismatch: str | None = None  # a verdict, field or digest that is wrong
    digest: str | None = None

    @property
    def ok(self) -> bool:
        return self.crash is None and self.mismatch is None


def judge(job: workloads.Job, code: object, stdout: str, digest: str, reference: str | None) -> str | None:
    """What is wrong with a job's exit code and report, or None."""
    if code != job.exit_code:
        return f"exit code {code}, expected {job.exit_code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON report"
    if report.get("verdict") != workloads.VERDICTS[job.exit_code]:
        return f"verdict {report.get('verdict')!r} with exit code {code}"
    problem = job.check(report.get("data", {}))
    if problem is not None:
        return problem
    if reference is not None and digest != reference:
        return "stdout sha256 differs from the reference"
    return None


def run_job(job: workloads.Job, reference: str | None) -> JobResult:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = ltsim.cli.main(list(job.argv))
    except SystemExit as e:  # argparse exits on unusable arguments
        code = e.code
    except Exception as e:  # a crash is a failed job, never a verdict
        seconds = time.perf_counter() - start
        return JobResult(job, start, seconds, crash=f"{type(e).__name__} in {tracing.escaped_from(e.__traceback__)}")
    seconds = time.perf_counter() - start
    stdout = out.getvalue()
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    return JobResult(job, start, seconds, mismatch=judge(job, code, stdout, digest, reference), digest=digest)


def run_round(wl: workloads.Workload, refs: dict[str, str], tracer: tracing.Tracer | None = None) -> list[JobResult]:
    results = []
    for job in wl.jobs:
        if tracer is not None:
            tracer.job = job.id
        results.append(run_job(job, refs.get(job.id)))
    return results


@contextmanager
def fresh_workdir(root: Path, name: str):
    """An empty .perfbench/work/<name>, current directory while open
    (reports carry relative paths, so their bytes repeat) and removed on
    exit, so that the next run does not time the disk freeing it."""
    work = root / ".perfbench" / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        yield work
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def remove_outputs(work: Path, models: dict[str, str]) -> None:
    """Delete what the previous round wrote, so that every round writes new
    files as the first one does: on ext4, rewriting a file in place flushes
    it to disk at close, which costs far more, and far more erratically,
    than writing a new file."""
    for path in work.iterdir():
        if path.name not in models:
            path.unlink()


def ref_loop() -> float:
    """A fixed pure-Python loop; its time shows how fast the host ran."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOP_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_references(wl: workloads.Workload, seed: int, tiny: bool) -> dict[str, str]:
    if tiny or not REFERENCE.is_file():
        return {}
    ref = json.loads(REFERENCE.read_text())
    if wl.seeded and seed != ref["seed"]:
        return {}
    return ref["workloads"].get(wl.name, {})


# --- metrics ----------------------------------------------------------------


def write_models(work: Path, models: dict[str, str]) -> None:
    for name, text in models.items():
        (work / name).write_text(text)


def time_setups(wl: workloads.Workload) -> list[list[tuple[float, float]]]:
    """Start and end of each set-up (building and serializing the models),
    in batches.  A first, untimed set-up warms the caches.
    Writing the files is left out: on a shared virtual disk (ext4 on
    virtio) the 301 small files of many-small took from 15 to 300 ms to
    write, which would drown the build."""
    wl.models()
    batches = []
    for _ in range(SETUP_BATCHES):
        spans: list[tuple[float, float]] = []
        while sum(end - start for start, end in spans) < SETUP_BATCH_SECONDS:
            start = time.perf_counter()
            wl.models()
            spans.append((start, time.perf_counter()))
        batches.append(spans)
    return batches


def end_to_end(
    rounds: list[list[JobResult]],
    setups: list[list[tuple[float, float]]],
    peak_mb: float,
    speed: hostspeed.HostSpeed | None,
) -> dict[str, tuple[float, str]]:
    """End-to-end metric -> (value, sample description); times adjusted to
    the reference host speed, or wall times when speed is None."""

    def seconds(start: float, end: float) -> float:
        return end - start if speed is None else speed.adjusted(start, end)

    per_round = [sum(seconds(r.start, r.start + r.seconds) for r in rnd if r.job.timed) for rnd in rounds]
    setup = statistics.median(statistics.mean(seconds(*s) for s in batch) for batch in setups)
    return {
        "verdict_s": (statistics.median(per_round), f"median of {len(rounds)} rounds"),
        "peak_rss_mb": (peak_mb, "process peak after set-up and the first round"),
        "setup_s": (setup, f"median of {len(setups)} batch means, {sum(map(len, setups))} set-ups"),
    }


def latency(rounds: list[list[JobResult]]) -> dict[str, tuple[float, str]]:
    """Per-job latency percentiles of the timed jobs (nearest rank)."""
    ms = [r.seconds * 1000 for rnd in rounds for r in rnd if r.job.timed]
    return {f"job_p{q}_ms": (nearest_rank(ms, q / 100), f"n={len(ms)} jobs") for q in (50, 90)}


def per_command(rounds: list[list[JobResult]]) -> dict[str, tuple[float | None, str]]:
    """Seconds per round in each command's jobs; None unless all succeeded."""
    out: dict[str, tuple[float | None, str]] = {}
    for command in dict.fromkeys(j.command for j in (r.job for r in rounds[0])):
        mine = [[r for r in rnd if r.job.command == command] for rnd in rounds]
        failed = sum(not r.ok for rnd in mine for r in rnd)
        metric = COMMAND_METRICS[command]
        if failed:
            out[metric] = (None, f"absent: {failed} of {sum(map(len, mine))} jobs failed")
        else:
            totals = [sum(r.seconds for r in rnd) for rnd in mine]
            out[metric] = (statistics.median(totals), f"median of {len(rounds)} rounds, {len(mine[0])} jobs each")
    return out


def node_cost_ratio(results: list[JobResult], tracer: tracing.Tracer) -> float:
    """Self time per concrete tree node in transform and scheduler spans of
    the deepest transform-scheduler jobs over that of the shallowest; 0 when
    all of them have one depth."""
    seconds: dict[int, float] = {}
    nodes: dict[int, float] = {}
    for r in results:
        if r.job.command == "transform-scheduler" and r.ok:
            depth = int(r.job.argv[r.job.argv.index("--depth") + 1])
            own = tracer.self_seconds(job=r.job.id, layers=("transform", "scheduler"))
            seconds[depth] = seconds.get(depth, 0.0) + sum(own.values())
            nodes[depth] = nodes.get(depth, 0.0) + tracer.counts[r.job.id]["transform.concrete_nodes"]
    if len(seconds) < 2:
        return 0.0
    deep, shallow = max(seconds), min(seconds)
    return (seconds[deep] / nodes[deep]) / (seconds[shallow] / nodes[shallow])


# --- one run ----------------------------------------------------------------


def run_workload(args: argparse.Namespace, root: Path) -> int:
    wl = workloads.make(args.workload, args.seed, args.tiny)
    refs = load_references(wl, args.seed, args.tiny)
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)

    untraced: list[list[JobResult]] = []
    traced: list[list[JobResult]] = []
    layer_runs: list[dict[str, float]] = []
    tracers: list[tracing.Tracer] = []
    ref_before = ref_loop()
    with fresh_workdir(root, wl.name) as work, hostspeed.HostSpeed() as speed:
        setups = time_setups(wl)
        models = wl.models()
        write_models(work, models)
        start = time.perf_counter()
        while True:
            remove_outputs(work, models)
            untraced.append(run_round(wl, refs))
            if len(untraced) == 1:
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if args.trace:
                with tracing.Tracer() as tracer:
                    tracer.job = "setup"
                    wl.models()
                    remove_outputs(work, models)
                    traced.append(run_round(wl, refs, tracer))
                metrics = tracer.metrics()
                metrics["transform.node_cost_ratio"] = node_cost_ratio(traced[-1], tracer)
                untraced_s = sum(r.seconds for r in untraced[-1])
                metrics["trace.overhead_frac"] = sum(r.seconds for r in traced[-1]) / untraced_s - 1
                layer_runs.append(metrics)
                tracers.append(tracer)
            if time.perf_counter() - start >= args.seconds and (args.trace or len(untraced) >= wl.min_rounds):
                break
    ref_after = ref_loop()

    everything = [r for rnd in untraced + traced for r in rnd]
    failures = [r for r in everything if not r.ok]
    wrong = [r for r in failures if r.mismatch is not None or r.job.timed]
    correct = not wrong

    e2e = end_to_end(untraced, setups, peak_mb, speed)
    wall = end_to_end(untraced, setups, peak_mb, None)
    latencies = latency(untraced)
    commands = per_command(untraced)
    layers = {m: statistics.median(run[m] for run in layer_runs) for m in layer_runs[0]} if layer_runs else {}
    host_info = {
        "ref_loop_s": [ref_before, ref_after],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "probe_share": speed.probe_share(),
        "speed_vs_reference": statistics.median(speed.factors),
    }

    # human-readable report
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  rounds {len(untraced)}"
          f"{'+' + str(len(traced)) + ' traced' if traced else ''}  ({wl.why})")
    print(f"  params {json.dumps(wl.params, sort_keys=True)}")
    print(f"  jobs attempted {len(everything)}  failed {len(failures)}  "
          f"error_rate {len(failures) / len(everything):.4f}  correct {correct}")
    for r in {r.job.id: r for r in failures}.values():
        print(f"  FAILED {r.job.id}: {r.crash or r.mismatch}" + ("" if r.job.timed else "  (untimed)"))
    if not args.trace:
        for name, (value, samples) in {**e2e, **latencies}.items():
            print(f"  e2e {name:<32} {value:>14.6f} {unit_of(name):<5} {samples}")
        for name in ("verdict_s", "setup_s"):
            print(f"  wall {name:<31} {wall[name][0]:>14.6f} s     unadjusted wall time")
    for name, (value, samples) in commands.items():
        shown = "-" if value is None else f"{value:.6f}"
        print(f"  cmd {name:<32} {shown:>14} {'s':<5} {samples}")
    for name, value in layers.items():
        print(f"  layer {name:<30} {value:>14.6f} {unit_of(name):<5} median of {len(layer_runs)} traced rounds")
    print(f"  host ref_loop_s before {ref_before:.4f} after {ref_after:.4f}  "
          f"speed vs reference {host_info['speed_vs_reference']:.3f} (median; probes took "
          f"{host_info['probe_share']:.2%})  python {host_info['python']}  nproc {host_info['nproc']}")

    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (results_dir / f"{stem}.json").write_text(json.dumps({
        "workload": wl.name, "why": wl.why, "params": wl.params, "seed": args.seed,
        "trace": args.trace, "rounds": len(untraced), "traced_rounds": len(traced),
        "attempted": len(everything), "failed": len(failures), "correct": correct,
        "failures": sorted({f"{r.job.id}: {r.crash or r.mismatch}" for r in failures}),
        "end_to_end": {k: {"value": v, "unit": unit_of(k), "samples": s} for k, (v, s) in {**e2e, **latencies}.items()},
        "wall": {k: wall[k][0] for k in ("verdict_s", "setup_s")},
        "per_command": {k: {"value": v, "unit": "s", "samples": s} for k, (v, s) in commands.items()},
        "per_layer": {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()},
        "host": host_info,
        "jobs": [{"id": r.job.id, "seconds": r.seconds, "adjusted_s": speed.adjusted(r.start, r.start + r.seconds),
                  "ok": r.ok, "digest": r.digest} for r in everything],
    }, indent=1) + "\n")
    if tracers:
        with open(results_dir / f"{stem}-spans.jsonl", "w") as f:
            for tracer in tracers:
                for span in tracer.dump():
                    f.write(json.dumps(span) + "\n")

    chosen = layers if args.trace else {k: v for k, (v, _s) in e2e.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": len(everything),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in chosen.items()},
    }))
    if not correct:
        for r in wrong:
            print(f"perfbench: {wl.name}: job {r.job.id}: {r.crash or r.mismatch}", file=sys.stderr)
        return 1
    return 0


def write_reference(root: Path) -> int:
    """Record the stdout digests of every job that passes, at the default seed."""
    digests = {}
    for name in workloads.NAMES:
        wl = workloads.make(name, DEFAULT_SEED)
        with fresh_workdir(root, name) as work:
            write_models(work, wl.models())
            results = run_round(wl, {})
        digests[name] = {r.job.id: r.digest for r in results if r.ok}
        print(f"{name}: {len(digests[name])} of {len(results)} jobs have a reference")
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": digests}, indent=1, sort_keys=True) + "\n")
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload untraced then traced, each in its own process so that
    peak memory never carries over from one workload to the next."""
    status = 0
    for name in workloads.NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            status |= subprocess.run(cmd).returncode
    return status


def main(root: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.NAMES, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--write-reference", action="store_true",
                        help="record stdout digests at the default seed into reference.json")
    args = parser.parse_args()
    if args.write_reference:
        return write_reference(root)
    if args.workload is None:
        return run_all(args)
    return run_workload(args, root)
