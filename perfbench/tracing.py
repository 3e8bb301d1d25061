"""Per-layer spans for the traced run.

The traced run replaces every public ltsim function that ``ltsim.cli``,
``ltsim.transform`` and ``ltsim.casestudies`` import (and their own
public functions) with a wrapper that records a span: name, job, start,
end and the enclosing span.  Names are ``<module>.<function>``, except
that ``check_lemma`` spans are named after their lemma.  A span's self
time is its duration minus that of its child spans.

``lts`` gets no span: its ``step`` and ``out_edges`` run millions of
times and a wrapper would measure itself.  Their cost shows in the self
time of their callers.
"""

from __future__ import annotations

import functools
import inspect
import time
import traceback
from collections import defaultdict
from types import TracebackType

import ltsim.casestudies
import ltsim.cli
import ltsim.transform

LAYERS = ("cli", "modelio", "composition", "scheduler", "simulation", "transform", "casestudies")
NAMESPACES = (ltsim.cli, ltsim.transform, ltsim.casestudies)

# per-layer time metrics: the summed self time of these spans
TIME_METRICS = {
    "cli.self_s": ("cli.main",),
    "modelio.load_s": ("modelio.load_model",),
    "composition.product_s": ("composition.product",),
    "simulation.check_forward_s": ("simulation.check_forward",),
    "simulation.check_progressive_s": ("simulation.check_progressive",),
    "simulation.validate_certificate_s": ("simulation.validate_certificate",),
    "simulation.certificate_io_s": ("simulation.certificate_to_dict", "simulation.certificate_from_dict"),
    "scheduler.enumerate_traces_s": ("scheduler.enumerate_traces",),
    "scheduler.check_admitted_s": ("scheduler.check_admitted",),
    "scheduler.check_deterministic_s": ("scheduler.check_deterministic_scheduler",),
    "scheduler.find_divergence_s": ("scheduler.find_divergence",),
    "transform.build_f_s": ("transform.build_f", "transform.mapping_m"),
    **{f"transform.lemma{i}_s": (f"transform.lemma{i}",) for i in range(1, 6)},
    "transform.image_equality_s": ("transform.check_image_equality",),
    "transform.projection_equality_s": ("transform.check_projection_equality",),
    "casestudies.build_s": (
        "casestudies.build_faa_impl", "casestudies.build_faa_spec", "casestudies.build_program",
    ),
    "casestudies.suite_s": ("casestudies.run_counterexample_suite",),
}
COUNT_METRICS = (
    "modelio.models_loaded",
    "composition.product_states",
    "simulation.pairs",
    "simulation.relation_size",
    "simulation.errors",
    "scheduler.tree_nodes",
    "transform.build_f_calls",
    "transform.concrete_nodes",
    "transform.image_nodes",
    "transform.errors",
)


def _traceable() -> dict[tuple[object, str], object]:
    """(namespace, attribute) -> public ltsim function bound there."""
    found = {}
    for ns in NAMESPACES:
        for attr, obj in vars(ns).items():
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__.startswith("ltsim.")
                and obj.__module__.split(".", 1)[1] in LAYERS
            ):
                found[(ns, attr)] = obj
    return found


TRACEABLE = _traceable()
_NAME_OF_CODE = {
    f.__code__: f"{f.__module__.split('.', 1)[1]}.{f.__name__}" for f in TRACEABLE.values()
}
_CHECK_LEMMA = ltsim.transform.check_lemma


def _span_name(base: str, func, args: tuple, kwargs: dict) -> str:
    if func is _CHECK_LEMMA:
        return f"transform.lemma{kwargs.get('lemma_id', args[0] if args else '?')}"
    return base


def escaped_from(tb: TracebackType | None) -> str:
    """Name of the innermost span an exception passed through."""
    name = "harness"
    for frame, _ in traceback.walk_tb(tb):
        base = _NAME_OF_CODE.get(frame.f_code)
        if base == "transform.check_lemma":
            base = f"transform.lemma{frame.f_locals.get('lemma_id', '?')}"
        if base is not None:
            name = base
    return name


def _count(name: str, args: tuple, result, counts: dict[str, float]) -> None:
    """Exact work counts taken from a span's arguments and result."""
    if name == "modelio.load_model":
        counts["modelio.models_loaded"] += 1
    elif name == "composition.product":
        counts["composition.product_states"] += result.num_states
    elif name in ("simulation.check_forward", "simulation.check_progressive"):
        counts["simulation.pairs"] += args[0].num_states * args[1].num_states
        counts["simulation.relation_size"] += len(result.relation)
    elif name == "scheduler.enumerate_traces":
        counts["scheduler.tree_nodes"] += result.size
    elif name == "transform.build_f":
        counts["transform.build_f_calls"] += 1
        counts["transform.concrete_nodes"] += result.concrete.size
        counts["transform.image_nodes"] += result.image.size


class Tracer:
    """Installs the span wrappers while active; spans stay in memory.

    Each span is [name, job, start, end, parent index, child seconds];
    counts are kept per job.
    """

    def __init__(self) -> None:
        self.job = ""
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []

    def __enter__(self) -> "Tracer":
        for (ns, attr), func in TRACEABLE.items():
            setattr(ns, attr, self._wrap(func))
        return self

    def __exit__(self, *exc) -> None:
        for (ns, attr), func in TRACEABLE.items():
            setattr(ns, attr, func)

    def _wrap(self, func):
        base = _NAME_OF_CODE[func.__code__]
        layer = base.split(".", 1)[0]
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            name = _span_name(base, func, args, kwargs)
            record = [name, self.job, 0.0, 0.0, stack[-1] if stack else None, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as e:
                if not hasattr(e, "perfbench_span"):  # count the innermost span only
                    e.perfbench_span = name
                    self.counts[self.job][f"{layer}.errors"] += 1
                raise
            finally:
                record[3] = time.perf_counter()
                stack.pop()
                if record[4] is not None:
                    spans[record[4]][5] += record[3] - record[2]
            _count(name, args, result, self.counts[self.job])
            return result

        return wrapper

    def self_seconds(self, job: str | None = None, layers: tuple[str, ...] | None = None) -> dict[str, float]:
        """Self time per span name, optionally for one job and some layers."""
        out: dict[str, float] = defaultdict(float)
        for name, span_job, start, end, _parent, child in self.spans:
            if (job is None or span_job == job) and (layers is None or name.split(".", 1)[0] in layers):
                out[name] += end - start - child
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        own = self.self_seconds()
        out = {metric: sum(own.get(n, 0.0) for n in names) for metric, names in TIME_METRICS.items()}
        out.update({name: sum(c.get(name, 0) for c in self.counts.values()) for name in COUNT_METRICS})
        pairs = out["simulation.pairs"]
        out["simulation.deletions"] = pairs - out["simulation.relation_size"]
        out["simulation.kept_ratio"] = out["simulation.relation_size"] / pairs if pairs else 0.0
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "job": j, "start": s, "end": e, "parent": p}
            for n, j, s, e, p, _child in self.spans
        ]
