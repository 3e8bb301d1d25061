"""Fetch-and-add over load-link/store-conditional, two ways.

Two implementations of a shared counter are modeled against one atomic
reference object.  The invalidating variant lets each load-link steal
the link, so two threads can invalidate each other forever; the plain
variant only fails a store-conditional when the counter actually
changed, so every retry makes progress.  Both refine the reference
object by a plain forward simulation, but only the plain variant
refines it progressively, and only the invalidating variant lets a
scheduler starve the program of its assignments.  The suite at the
bottom runs that contrast end to end, including the scheduler
transformation on the terminating variant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator

from .composition import product
from .errors import ModelError
from .lts import Action, ActionKind, Alphabet, Lts, LtsBuilder, find_cycle, sort_actions, validate_lasso
from .scheduler import (
    Strategy,
    check_scheduler_tree,
    find_divergence,
    is_consistent,
    register_strategy,
)
from .simulation import (
    check_forward,
    check_progressive,
    validate_certificate,
    validate_stutter_cycle,
)
from .transform import (
    build_f,
    check_all_lemmas,
    check_s2,
    construct_s2,
    unlink_trees,
)

VARIANTS = ("invalidating", "plain")

# Step (e) compares projected traces up to this length; a shorter
# comparison leaves the step unknown.
PROJECTION_STEPS = 8


@dataclass(frozen=True)
class FaaConfig:
    """Workload shape: one fetch-and-add per thread, with these addends."""

    threads: tuple[int, ...] = (1, 2)
    addends: tuple[int, ...] = (1, 2)
    variant: str = "invalidating"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ModelError(
                f"unknown variant {self.variant!r} (known: {', '.join(VARIANTS)})"
            )
        if len(self.threads) != len(self.addends):
            raise ModelError("each thread needs exactly one addend")
        if len(set(self.threads)) != len(self.threads):
            raise ModelError("thread ids must be distinct")
        if any(k < 1 for k in self.addends):
            raise ModelError("addends must be positive")

    @property
    def total(self) -> int:
        return sum(self.addends)


# --- shared action sets ---------------------------------------------------


def _calls(cfg: FaaConfig) -> frozenset[Action]:
    return frozenset(
        Action("call", ActionKind.CALL, thread=t, payload=k)
        for t, k in zip(cfg.threads, cfg.addends)
    )


def _returns(cfg: FaaConfig) -> frozenset[Action]:
    # every value the counter can pass through may come back
    return frozenset(
        Action("ret", ActionKind.RETURN, thread=t, payload=v)
        for t in cfg.threads
        for v in range(cfg.total + 1)
    )


def _assigns(cfg: FaaConfig) -> frozenset[Action]:
    return frozenset(
        Action("assign", ActionKind.PROGRAM, thread=t, payload=v)
        for t in cfg.threads
        for v in range(cfg.total + 1)
    )


def _points(cfg: FaaConfig, points: tuple[tuple, ...]) -> str:
    """State-label part per thread: `t<id>:<point>`, then `(<value>)` if any."""
    return " ".join(
        f"t{t}:{p[0]}" + (f"({p[1]})" if len(p) > 1 else "")
        for t, p in zip(cfg.threads, points)
    )


def _closure(
    alphabet: Alphabet,
    initial: Hashable,
    steps: Callable[[Hashable], Iterator[tuple[Action, Hashable]]],
    label: Callable[[Hashable], str],
) -> Lts:
    """Breadth-first build from a semantic initial state, labelling each
    state once."""
    builder = LtsBuilder(alphabet)
    names = {initial: label(initial)}
    builder.set_initial(names[initial])
    queue = deque([initial])
    while queue:
        st = queue.popleft()
        src = names[st]
        for action, nxt in steps(st):
            dst = names.get(nxt)
            if dst is None:
                dst = names[nxt] = label(nxt)
                queue.append(nxt)
            builder.add(src, action, dst)
    return builder.build(complete=True)


# --- the two counter implementations --------------------------------------


def build_faa_impl(cfg: FaaConfig) -> Lts:
    """Counter looping load-link / store-conditional until the store lands.

    Thread control points: pre (not called), f2 (about to load-link),
    f3(n) (loaded n, about to try the store), f4(n) (store landed, will
    return n), done.  The invalidating variant gives the link to the
    most recent load-link and fails any store by a non-holder; the
    plain variant fails a store only when the counter moved since the
    load.
    """
    invalidating = cfg.variant == "invalidating"
    alphabet = Alphabet(
        program=frozenset(),
        calls=_calls(cfg),
        returns=_returns(cfg),
        internal=frozenset(
            Action(name, ActionKind.INTERNAL, thread=t)
            for t in cfg.threads
            for name in ("ll", "sc-ok", "sc-fail")
        ),
    )

    def steps(st: tuple) -> Iterator[tuple[Action, tuple]]:
        counter, link, pcs = st
        for i, (t, k) in enumerate(zip(cfg.threads, cfg.addends)):
            pc = pcs[i]

            def at(new_pc: tuple, new_counter: int = counter, new_link: int = link) -> tuple:
                return (new_counter, new_link, pcs[:i] + (new_pc,) + pcs[i + 1:])

            if pc == ("pre",):
                yield Action("call", ActionKind.CALL, t, k), at(("f2",))
            elif pc == ("f2",):
                yield (
                    Action("ll", ActionKind.INTERNAL, t),
                    at(("f3", counter), new_link=t if invalidating else link),
                )
            elif pc[0] == "f3":
                n = pc[1]
                if (link == t) if invalidating else (counter == n):
                    yield (
                        Action("sc-ok", ActionKind.INTERNAL, t),
                        at(("f4", n), new_counter=n + k, new_link=0 if invalidating else link),
                    )
                else:
                    yield Action("sc-fail", ActionKind.INTERNAL, t), at(("f2",))
            elif pc[0] == "f4":
                yield Action("ret", ActionKind.RETURN, t, pc[1]), at(("done",))

    def label(st: tuple) -> str:
        counter, link, pcs = st
        owner = f" link={link}" if invalidating else ""
        return f"n={counter}{owner} {_points(cfg, pcs)}"

    initial = (0, 0, tuple(("pre",) for _ in cfg.threads))
    return _closure(alphabet, initial, steps, label)


def build_faa_spec(cfg: FaaConfig) -> Lts:
    """Atomic counter: each operation takes effect in one internal step.

    The internal action carries the value the operation fetched, which
    the later return repeats.
    """
    alphabet = Alphabet(
        program=frozenset(),
        calls=_calls(cfg),
        returns=_returns(cfg),
        internal=frozenset(
            Action("lin", ActionKind.INTERNAL, thread=t, payload=v)
            for t in cfg.threads
            for v in range(cfg.total + 1)
        ),
    )

    def steps(st: tuple) -> Iterator[tuple[Action, tuple]]:
        counter, sts = st
        for i, (t, k) in enumerate(zip(cfg.threads, cfg.addends)):
            here = sts[i]

            def at(new_st: tuple, new_counter: int = counter) -> tuple:
                return (new_counter, sts[:i] + (new_st,) + sts[i + 1:])

            if here == ("pre",):
                yield Action("call", ActionKind.CALL, t, k), at(("called",))
            elif here == ("called",):
                yield (
                    Action("lin", ActionKind.INTERNAL, t, counter),
                    at(("lin", counter), new_counter=counter + k),
                )
            elif here[0] == "lin":
                yield Action("ret", ActionKind.RETURN, t, here[1]), at(("done",))

    def label(st: tuple) -> str:
        counter, sts = st
        return f"n={counter} {_points(cfg, sts)}"

    initial = (0, tuple(("pre",) for _ in cfg.threads))
    return _closure(alphabet, initial, steps, label)


def build_program(cfg: FaaConfig) -> Lts:
    """Client that calls once per thread and assigns the fetched value.

    Per thread: call, wait for the return, assign the returned value to
    a thread-local, stop.  Threads interleave freely.
    """
    alphabet = Alphabet(
        program=_assigns(cfg),
        calls=_calls(cfg),
        returns=_returns(cfg),
        internal=frozenset(),
    )

    def steps(st: tuple) -> Iterator[tuple[Action, tuple]]:
        for i, (t, k) in enumerate(zip(cfg.threads, cfg.addends)):
            here = st[i]

            def at(new_st: tuple) -> tuple:
                return st[:i] + (new_st,) + st[i + 1:]

            if here == ("ready",):
                yield Action("call", ActionKind.CALL, t, k), at(("wait",))
            elif here == ("wait",):
                for v in range(cfg.total + 1):
                    yield Action("ret", ActionKind.RETURN, t, v), at(("got", v))
            elif here[0] == "got":
                yield Action("assign", ActionKind.PROGRAM, t, here[1]), at(("done",))

    initial = tuple(("ready",) for _ in cfg.threads)
    return _closure(alphabet, initial, steps, lambda st: _points(cfg, st))


# --- the starving scheduler ------------------------------------------------


class LlAlternatorStrategy(Strategy):
    """Keeps every thread's load fresh and every store stale.

    Priority: calls, then failing stores, then load-links, then any
    other object action, then the enabled program actions, then idle;
    non-program picks are canonical-first singletons.  On the
    invalidating counter this alternates the two threads' load-links
    forever; on the plain counter the same order terminates.
    """

    _preferred = ("call", "sc-fail", "ll")

    def decide(self, state: int, mem: Hashable) -> frozenset[Action]:
        enabled = sort_actions(self.lts.enabled(state))
        non_idle = [a for a in enabled if a.kind is not ActionKind.IDLE]
        for name in self._preferred:
            hits = [a for a in non_idle if a.name == name]
            if hits:
                return frozenset(hits[:1])
        other = [a for a in non_idle if a.kind is not ActionKind.PROGRAM]
        if other:
            return frozenset(other[:1])
        if non_idle:
            return frozenset(non_idle)  # all program actions
        idle = self.lts.alphabet.idle
        return frozenset({idle}) if idle in enabled else frozenset()


register_strategy("ll-alternator", LlAlternatorStrategy)


# --- the suite -------------------------------------------------------------


@dataclass(frozen=True)
class StepReport:
    """One suite step: what was checked and what came out.

    `ran_short` marks a step that is not ok only because a bound ran out
    before the step could be shown: every check it made held.
    """

    name: str
    ok: bool
    detail: dict[str, Any]
    ran_short: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class CaseStudyReport:
    config: FaaConfig
    steps: tuple[StepReport, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.steps)

    @property
    def verdict(self) -> str:
        """holds when every step is ok; unknown when each step that is not only ran short."""
        if self.ok:
            return "holds"
        return "unknown" if all(s.ok or s.ran_short for s in self.steps) else "refuted"

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": {
                "threads": list(self.config.threads),
                "addends": list(self.config.addends),
            },
            "ok": self.ok,
            "steps": [s.to_dict() for s in self.steps],
        }


def _labels(actions: Iterator[Action]) -> list[str]:
    return [a.label() for a in actions]


def _non_idle_acyclic(prod: Lts) -> tuple[bool, str | None]:
    idle = prod.alphabet.idle
    found = find_cycle(
        range(prod.num_states), lambda s: [(a, t) for a, t in prod.out_edges(s) if a != idle]
    )
    if found is None:
        return True, None
    return False, f"cycle through {prod.label_of(found[0])}"


def _sinks_need_all_assigns(prod: Lts, cfg: FaaConfig) -> tuple[bool, str | None]:
    """No quiescent state is reachable with an assignment still missing.

    Walks (state, set of threads that assigned); a state whose only
    move is idle must have the full set.
    """
    idle = prod.alphabet.idle
    full = frozenset(cfg.threads)
    start = (prod.initial, frozenset())
    seen = {start}
    queue = deque([start])
    while queue:
        state, done = queue.popleft()
        moves = [(a, t) for a, t in prod.out_edges(state) if a != idle]
        if not moves and done != full:
            missing = sorted(full - done)
            return False, (
                f"{prod.label_of(state)} is quiescent without the assignment of "
                f"thread {missing[0]}"
            )
        for a, t in moves:
            nxt_done = done | {a.thread} if a in prod.alphabet.program else done
            nxt = (t, nxt_done)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True, None


def run_counterexample_suite(
    cfg: FaaConfig | None = None, depth: int = 14, budget: int | None = None
) -> CaseStudyReport:
    """The whole contrast, as checkable steps.

    (a) the invalidating counter forward-simulates the atomic one;
    (b) no progressive simulation exists, witnessed by a stutter cycle;
    (c) a concrete scheduler starves the client of both assignments;
    (d) under the atomic object every admissible scheduler completes;
    (e) on the plain (terminating) variant the whole transformation
        goes through: derived abstract scheduler, structural checks,
        equal projected traces.  Step (e) exercises termination, an
        extension beyond the divergence contrast of (a)-(d).
    """
    cfg = cfg or FaaConfig()
    steps: list[StepReport] = []

    impl = build_faa_impl(FaaConfig(cfg.threads, cfg.addends, "invalidating"))
    spec = build_faa_spec(cfg)
    prog = build_program(cfg)
    gamma = impl.alphabet.cr

    # (a) plain forward simulation holds
    fwd = check_forward(impl, spec, gamma, alpha_bound=4)
    cert_ok, problems = (False, ["no certificate"])
    if fwd.certificate is not None:
        cert_ok, problems = validate_certificate(fwd.certificate, None, impl, spec)
    steps.append(
        StepReport(
            "forward-simulation-invalidating",
            fwd.certificate is not None and cert_ok and fwd.complete,
            {
                "relation_size": len(fwd.relation),
                "complete": fwd.complete,
                "certificate_valid": cert_ok,
                "problems": problems[:3],
            },
        )
    )

    # (b) progressive simulation refuted with a stutter cycle
    prog_res = check_progressive(impl, spec, gamma, alpha_bound=4)
    cycle_ok = False
    cycle_actions: list[str] = []
    if prog_res.cycle is not None:
        cycle_actions = _labels(e.action for e in prog_res.cycle.edges)
        cycle_ok, _ = validate_stutter_cycle(
            prog_res.cycle, impl, spec, gamma, 4, prog_res.relation
        )
    steps.append(
        StepReport(
            "progressive-refuted-invalidating",
            prog_res.verdict == "no" and cycle_ok,
            {
                "verdict": prog_res.verdict,
                "cycle": cycle_actions,
                "cycle_valid": cycle_ok,
                "note": prog_res.note,
            },
        )
    )

    # (c) the starving scheduler diverges without assignments
    prod_impl = product(prog, impl)
    alternator = LlAlternatorStrategy(prod_impl)
    lasso = find_divergence(prod_impl, alternator, prod_impl.alphabet.gamma_p, budget=budget)
    lasso_ok = False
    lasso_detail: dict[str, Any] = {}
    if lasso is not None:
        validate_lasso(prod_impl, lasso)
        assign_free = all(a.name != "assign" for a in lasso.cycle)
        consistent = is_consistent(lasso.unroll(2), alternator)
        lasso_ok = assign_free and consistent
        lasso_detail = {
            "stem": _labels(iter(lasso.stem)),
            "cycle": _labels(iter(lasso.cycle)),
            "assign_free": assign_free,
            "consistent": consistent,
        }
    steps.append(StepReport("divergence-invalidating", lasso is not None and lasso_ok, lasso_detail))

    # (d) with the atomic object, every admissible scheduler completes
    prod_spec = product(prog, spec)
    acyclic, acyclic_why = _non_idle_acyclic(prod_spec)
    sinks_ok, sinks_why = _sinks_need_all_assigns(prod_spec, cfg)
    steps.append(
        StepReport(
            "atomic-completion",
            acyclic and sinks_ok,
            {
                "non_idle_acyclic": acyclic,
                "quiescent_states_complete": sinks_ok,
                "problem": acyclic_why or sinks_why,
            },
        )
    )

    # (e) terminating variant: the full scheduler transformation
    plain = build_faa_impl(FaaConfig(cfg.threads, cfg.addends, "plain"))
    plain_prog = check_progressive(plain, spec, gamma, alpha_bound=4)
    detail: dict[str, Any] = {
        "variant": "plain",
        "extension": True,
        "progressive_verdict": plain_prog.verdict,
    }
    ok_e = plain_prog.verdict == "yes" and plain_prog.certificate is not None
    short = False
    if ok_e:
        prod_plain = product(prog, plain)
        s1 = LlAlternatorStrategy(prod_plain)
        _, adm1, det1 = check_scheduler_tree(s1, prod_plain, depth, 0, budget=budget)
        mt = build_f(prod_plain, s1, prod_spec, plain_prog.certificate, depth, budget=budget)
        s2 = construct_s2(mt, budget=budget)
        lemmas = check_all_lemmas(mt, s2)
        s2_checks = check_s2(
            mt, s2, prod_plain.alphabet.program, PROJECTION_STEPS, budget=budget
        )
        unlink_trees(mt, s2)
        checks_ok = adm1.ok and det1.ok and all(l.ok for l in lemmas) and s2_checks.ok
        projections = s2_checks.projections
        compared = projections.compare_length
        short = checks_ok and compared is not None and compared < PROJECTION_STEPS
        ok_e = checks_ok and not short
        detail.update(
            {
                "concrete_admitted": adm1.ok,
                "concrete_deterministic": det1.ok,
                "lemmas": {str(l.lemma): l.ok for l in lemmas},
                "lemma_problems": [l.counterexample for l in lemmas if not l.ok],
                "abstract_admitted": s2_checks.admitted.ok,
                "abstract_deterministic": s2_checks.deterministic.ok,
                "image_equality": s2_checks.images.ok,
                "projection_equality": projections.ok,
                "projection_compare_length": projections.compare_length,
                "concrete_tree_size": mt.concrete.size,
                "image_tree_size": mt.image.size,
            }
        )
        if short:
            detail["note"] = (
                f"projections compared over {compared} of the {PROJECTION_STEPS} steps"
                " needed; raise --depth"
            )
    steps.append(StepReport("transform-terminating-variant", ok_e, detail, ran_short=short))

    return CaseStudyReport(cfg, tuple(steps))
