"""The benchmark's workloads: models, job lists and expected verdicts.

Every workload is closed-loop: one round runs its jobs in a fixed order,
each job starting when the previous one has returned.  A job is one
``ltsim`` command line, run in the workload's directory so that every
path in a report is relative and its bytes repeat.

Why these three workloads:

* ``sim-faa`` is dominated by the simulation fixpoint and its memory:
  the fetch-and-add (FAA) counter at 3 threads, both variants, and at
  4 threads, where the fixpoint runs over about two million state pairs.
  It is the workload a faster fixpoint (worklist refinement with support
  counters) should move.
* ``transform-deep`` is one deep, narrow trace tree (2-thread plain FAA
  under ``object-first``) at depths 200 and 2000, where per-node replay
  cost grows with depth and the simulation layer does almost nothing.
* ``many-small`` is hundreds of tiny jobs, so fixed per-call cost
  dominates (argument parsing, model loading, products, shallow trees).
  It shows any change that adds per-call set-up to help big instances.

Two jobs of ``sim-faa`` and one of ``transform-deep`` raise
RecursionError inside the library when this benchmark was written.  They
still run and count as failed jobs; they are marked ``timed=False`` so
that fixing the crash never adds their time to ``verdict_s``, which would
read as a slowdown.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from ltsim import casestudies
from ltsim.lts import Action, ActionKind, Alphabet, Lts, LtsBuilder
from ltsim.modelio import dumps

# exit codes of the ltsim command line and the verdict each one reports
VERDICTS = {0: "holds", 1: "refuted", 2: "unknown"}

Check = Callable[[dict], "str | None"]


@dataclass(frozen=True)
class Job:
    """One command line, the exit code it must return and a report check."""

    id: str
    argv: tuple[str, ...]
    exit_code: int
    check: Check
    timed: bool = True

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    why: str
    seeded: bool  # inputs depend on --seed, so references hold for one seed only
    params: dict
    models: Callable[[], dict[str, str]]  # file name -> model text
    jobs: list[Job] = field(default_factory=list)
    min_rounds: int = 1


# --- report checks ----------------------------------------------------------


def fields(**expected) -> Check:
    """The report's data fields have exactly these values."""

    def check(data: dict) -> str | None:
        for key, want in expected.items():
            if data.get(key) != want:
                return f"data.{key} is {data.get(key)!r}, expected {want!r}"
        return None

    return check


def all_lemmas_ok(data: dict) -> str | None:
    results = data.get("results", [])
    bad = [r["lemma"] for r in results if not r["ok"]]
    if len(results) != 5 or bad:
        return f"lemmas not all ok: failed {bad}, {len(results)} reported"
    return None


def all_steps_ok(data: dict) -> str | None:
    bad = [s["name"] for s in data.get("steps", []) if not s["ok"]]
    return f"case-study steps failed: {bad}" if bad or not data.get("ok") else None


def refuted_by_cycle(data: dict) -> str | None:
    if data.get("verdict") != "no" or "stutter_cycle" not in data:
        return f"expected a stutter cycle, got verdict {data.get('verdict')!r}"
    return None


CERT_VALID = fields(certificate_valid=True, problems=[])
TRANSFORM_OK = fields(
    admitted=True, deterministic=True, image_equality=True, projection_equality=True, conflicts=[]
)


# --- sim-faa ----------------------------------------------------------------


def _faa_config(threads: int, variant: str = "invalidating") -> casestudies.FaaConfig:
    return casestudies.FaaConfig(tuple(range(1, threads + 1)), (1,) * threads, variant)


def sim_faa(tiny: bool) -> Workload:
    small, large = (2, 3) if tiny else (3, 4)

    def build() -> dict[str, str]:
        out = {}
        for n in (small, large):
            for variant in ("invalidating", "plain"):
                out[f"impl-{n}t-{variant}.json"] = dumps(casestudies.build_faa_impl(_faa_config(n, variant)))
            out[f"spec-{n}t.json"] = dumps(casestudies.build_faa_spec(_faa_config(n)))
        return out

    def models(n: int, variant: str) -> tuple[str, str]:
        return f"impl-{n}t-{variant}.json", f"spec-{n}t.json"

    n = small
    jobs = [
        Job(f"fwd-{n}t-invalidating", ("check-fwd", *models(n, "invalidating")), 0, CERT_VALID),
        Job(f"prog-{n}t-invalidating", ("check-prog-fwd", *models(n, "invalidating")), 1, refuted_by_cycle),
        Job(f"fwd-{n}t-plain", ("check-fwd", *models(n, "plain")), 0, CERT_VALID),
        # RecursionError in _backtrack at the default recursion limit
        Job(f"prog-{n}t-plain", ("check-prog-fwd", *models(n, "plain")), 0, CERT_VALID, timed=False),
    ]
    n = large
    jobs += [
        Job(f"fwd-{n}t-invalidating", ("check-fwd", *models(n, "invalidating")), 0, CERT_VALID),
        Job(f"prog-{n}t-plain", ("check-prog-fwd", *models(n, "plain")), 0, CERT_VALID, timed=False),
    ]
    return Workload(
        "sim-faa",
        "simulation fixpoint and its memory dominate: FAA counter at 3 and 4 threads",
        False,
        {"threads": [small, large], "addends": "1 per thread", "alpha_bound": 4},
        build,
        jobs,
    )


# --- transform-deep ---------------------------------------------------------


def transform_deep(tiny: bool) -> Workload:
    depths = (20, 200) if tiny else (200, 2000)
    cfg = casestudies.FaaConfig(variant="plain")

    def build() -> dict[str, str]:
        return {
            "program.json": dumps(casestudies.build_program(cfg)),
            "concrete.json": dumps(casestudies.build_faa_impl(cfg)),
            "abstract.json": dumps(casestudies.build_faa_spec(cfg)),
        }

    models = ("program.json", "concrete.json", "abstract.json")
    jobs = []
    for depth in depths:
        opts = ("--strategy", "object-first", "--depth", str(depth))
        jobs.append(Job(f"transform-d{depth}", ("transform-scheduler", *models, *opts), 0, TRANSFORM_OK))
        # lemma 4 raises RecursionError at depth 2000
        jobs.append(
            Job(f"lemmas-d{depth}", ("check-lemmas", *models, *opts), 0, all_lemmas_ok, timed=depth < 2000)
        )
    return Workload(
        "transform-deep",
        "one deep narrow trace tree whose per-node replay cost grows with depth",
        False,
        {"threads": list(cfg.threads), "addends": list(cfg.addends), "variant": cfg.variant,
         "strategy": "object-first", "depths": list(depths)},
        build,
        jobs,
        # a round's timed work is one 10-s job; the host's speed swings by
        # about 12% between such jobs, so a run takes the median of two
        min_rounds=2,
    )


# --- many-small -------------------------------------------------------------
#
# Random object pairs in the shape of the library's own acceptance corpus:
# the abstract object is a method automaton (each ready state takes the
# call, may take one internal step, then returns a random payload to a
# random ready state); the concrete one stretches some of its steps through
# fresh internal detours.  Internal steps never form a cycle, so by
# construction the concrete object forward- and progressively simulates
# the abstract one, and no strategy over it can diverge silently: every
# job's verdict is "holds" for every seed.
#
# Pair i has shape SHAPES[i % len(SHAPES)]: (ready states, internal steps,
# detours).  The seed draws everything else (payloads, return targets,
# which states and steps).  So every seed runs the same mix of sizes, and
# the time of a round varies with the host rather than with the seed.

PAIRS = 150
CASESTUDY_EVERY = 20
MAX_STATES = 6
SHAPES = tuple(
    (ready, lins, detours)
    for ready in (1, 2)
    for lins in range(ready + 1)
    for detours in (0, 1, 2)
    if 2 * ready + lins + detours <= MAX_STATES
)
CLIENT_MAX_CALLS = 2

OP = Action("op", ActionKind.CALL)
RETS = (Action("ret", ActionKind.RETURN, payload=0), Action("ret", ActionKind.RETURN, payload=1))
LIN = Action("lin", ActionKind.INTERNAL)
TICKS = tuple(Action(f"tick-{x}", ActionKind.PROGRAM) for x in "abc")


def universal_client(max_calls: int = CLIENT_MAX_CALLS) -> Lts:
    """Client that calls at most max_calls times, accepts any return and
    always has a program action enabled."""
    alphabet = Alphabet(frozenset(TICKS), frozenset({OP}), frozenset(RETS), frozenset())
    b = LtsBuilder(alphabet)
    b.set_initial(("A", max_calls))
    for left in range(max_calls + 1):
        for phase, moves in (("A", {TICKS[0]: "B", TICKS[1]: "B"}), ("B", {TICKS[2]: "A"})):
            st = (phase, left)
            for tick, nxt in moves.items():
                b.add(st, tick, (nxt, left))
            if left:
                b.add(st, OP, (phase, left - 1))
            for ret in RETS:
                b.add(st, ret, st)
    return b.build(complete=True)


def random_abstract(rng: random.Random, ready: int, lins: int) -> Lts:
    with_lin = set(rng.sample(range(ready), lins))
    transitions: dict[tuple[int, Action], int] = {}
    nxt = ready
    for state in range(ready):
        transitions[(state, OP)] = nxt
        if state in with_lin:
            transitions[(nxt, LIN)] = nxt + 1
            nxt += 1
        transitions[(nxt, rng.choice(RETS))] = rng.randrange(ready)
        nxt += 1
    internal = frozenset({LIN}) if lins else frozenset()
    return Lts(Alphabet(frozenset(), frozenset({OP}), frozenset(RETS), internal), nxt, 0, transitions)


def stretched(abstract: Lts, rng: random.Random, detours: int) -> Lts:
    """Concrete object: some abstract steps detour through a fresh internal
    action and a fresh midpoint state."""
    edges = [e for e in abstract.edges() if e[1] != abstract.alphabet.idle]
    chosen = rng.sample(range(len(edges)), detours)
    fresh = [Action(f"u{k}", ActionKind.INTERNAL) for k in range(len(chosen))]
    transitions: dict[tuple[int, Action], int] = {}
    mid = abstract.num_states
    for i, (s, a, t) in enumerate(edges):
        if i in chosen:
            transitions[(s, a)] = mid
            transitions[(mid, fresh[chosen.index(i)])] = t
            mid += 1
        else:
            transitions[(s, a)] = t
    a = abstract.alphabet
    alphabet = Alphabet(a.program, a.calls, a.returns, a.internal | frozenset(fresh))
    return Lts(alphabet, mid, abstract.initial, transitions)


def many_small(seed: int, tiny: bool) -> Workload:
    pairs = 3 if tiny else PAIRS

    def build() -> dict[str, str]:
        rng = random.Random(seed)
        out = {"client.json": dumps(universal_client())}
        for i in range(pairs):
            ready, lins, detours = SHAPES[i % len(SHAPES)]
            abstract = random_abstract(rng, ready, lins)
            out[f"p{i:03d}-abstract.json"] = dumps(abstract)
            out[f"p{i:03d}-concrete.json"] = dumps(stretched(abstract, rng, detours))
        return out

    jobs = []
    for i in range(pairs):
        p = f"p{i:03d}"
        objects = (f"{p}-concrete.json", f"{p}-abstract.json")
        if i % CASESTUDY_EVERY == 0:
            jobs.append(Job(f"casestudy-{i // CASESTUDY_EVERY}", ("run-casestudy",), 0, all_steps_ok))
        jobs += [
            Job(f"{p}-fwd", ("check-fwd", *objects, "--cert-out", f"{p}.cert.json"), 0, CERT_VALID),
            Job(f"{p}-validate", ("validate-cert", *objects, f"{p}.cert.json"), 0, fields(problems=[])),
            Job(f"{p}-prog", ("check-prog-fwd", *objects), 0, CERT_VALID),
            Job(f"{p}-divergence",
                ("find-divergence", "client.json", objects[0], "--strategy", "object-first"), 0, fields()),
            Job(f"{p}-transform", ("transform-scheduler", "client.json", *objects, "--depth", "14"),
                0, TRANSFORM_OK),
            Job(f"{p}-lemmas",
                ("check-lemmas", "client.json", *objects, "--strategy", "fifo", "--depth", "14"),
                0, all_lemmas_ok),
        ]
    return Workload(
        "many-small",
        "hundreds of tiny jobs, so fixed per-call cost dominates",
        True,
        {"pairs": pairs, "casestudy_every": CASESTUDY_EVERY, "max_states": MAX_STATES,
         "shapes (ready, internal steps, detours)": [list(x) for x in SHAPES],
         "client_max_calls": CLIENT_MAX_CALLS},
        build,
        jobs,
    )


NAMES = ("sim-faa", "transform-deep", "many-small")


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    if name == "sim-faa":
        return sim_faa(tiny)
    if name == "transform-deep":
        return transform_deep(tiny)
    if name == "many-small":
        return many_small(seed, tiny)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(NAMES)})")
