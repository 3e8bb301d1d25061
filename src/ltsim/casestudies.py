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

One interleaving engine, `_interleave`, builds the three models.  A
state is a shared part and one control point per thread; the shared
part is the counter and its link in the implementations, the counter
in the reference object, and nothing in the client.  Each builder
gives only how one thread moves from its point, given the shared part.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator

from .composition import product
from .errors import ModelError
from .lts import (
    Action,
    ActionKind,
    Alphabet,
    Lts,
    _idle_completed,
    action,
    depth_first,
    sort_actions,
    validate_lasso,
)
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
)

# enum members read as globals: ActionKind.X costs a slow class lookup each time
_CALL, _RETURN, _PROGRAM, _INTERNAL, _IDLE = (
    ActionKind.CALL, ActionKind.RETURN, ActionKind.PROGRAM, ActionKind.INTERNAL, ActionKind.IDLE
)

VARIANTS = ("invalidating", "plain")

# Step (e) compares projected traces up to this length; a shorter
# comparison leaves the step unknown.
PROJECTION_STEPS = 8


@dataclass(frozen=True)
class FaaConfig:
    """Workload shape: one fetch-and-add per thread, with these addends.

    Thread ids start at 1: the invalidating counter's link 0 means "no
    holder", so a thread 0 could store on a link another thread took.
    """

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
        if any(t < 1 for t in self.threads):
            raise ModelError("thread ids must be positive")
        if any(k < 1 for k in self.addends):
            raise ModelError("addends must be positive")

    @property
    def total(self) -> int:
        return sum(self.addends)


# --- shared action sets ---------------------------------------------------


def _calls(cfg: FaaConfig) -> frozenset[Action]:
    return frozenset(
        action("call", _CALL, thread=t, payload=k)
        for t, k in zip(cfg.threads, cfg.addends)
    )


def _returns(cfg: FaaConfig) -> frozenset[Action]:
    # every value the counter can pass through may come back
    return frozenset(
        action("ret", _RETURN, thread=t, payload=v)
        for t in cfg.threads
        for v in range(cfg.total + 1)
    )


def _assigns(cfg: FaaConfig) -> frozenset[Action]:
    return frozenset(
        action("assign", _PROGRAM, thread=t, payload=v)
        for t in cfg.threads
        for v in range(cfg.total + 1)
    )


def _interleave(
    cfg: FaaConfig,
    alphabet: Alphabet,
    shared: Hashable,
    start: tuple,
    move: Callable[[int, tuple, Hashable], Iterable[tuple[Action, tuple, Hashable]]],
    prefix: Callable[[Hashable], str],
) -> Lts:
    """Breadth-first build of cfg's threads interleaved over a shared part.

    A state is a shared part and one control point per thread, first
    `shared` and `start`.  move(i, point, shared) lists thread i's
    (action, point, shared) moves; it is asked once per distinct
    argument triple.  Moves are taken thread by thread, then in move's
    order; states are numbered as found, and one with no move gets an
    idle self-loop.  A label is prefix(shared), unless empty, then per
    thread `t<id>:<name>` and `(<value>)` if any, each part made once.
    """
    # shared parts (thread None) and points are numbered as they appear,
    # so that a state is a flat tuple of ints: (shared, each thread's point)
    numbers: dict[tuple[int | None, Hashable], int] = {}
    values: list[Hashable] = []
    texts: list[str] = []  # each number's label part

    def number(i: int | None, x: Hashable) -> int:
        n = numbers.get((i, x))
        if n is None:
            n = numbers[i, x] = len(values)
            values.append(x)
            texts.append(
                prefix(x) if i is None
                else f"t{cfg.threads[i]}:{x[0]}" + (f"({x[1]})" if len(x) > 1 else "")
            )
        return n

    def label(st: tuple[int, ...]) -> str:
        return " ".join(filter(None, map(texts.__getitem__, st)))

    initial = (number(None, shared), *(number(i, start) for i in range(len(cfg.threads))))
    index = {initial: 0}
    states = [initial]
    # (point, shared) -> moves, each (action, (point,), (shared,)): the
    # 1-tuples make a successor four concatenations
    memo: dict[tuple[int, int], list[tuple[Action, tuple[int], tuple[int]]]] = {}
    rows: list[dict[Action, int]] = []
    for st in states:  # grows as the search discovers states
        row: dict[Action, int] = {}
        for i in range(1, len(st)):  # st[i] is thread i - 1's point
            moves = memo.get((st[i], st[0]))
            if moves is None:
                moves = memo[st[i], st[0]] = [
                    (a, (number(i - 1, p),), (number(None, x),))
                    for a, p, x in move(i - 1, values[st[i]], values[st[0]])
                ]
            if moves:
                head, tail = st[1:i], st[i + 1:]
            for a, p, x in moves:
                nxt = x + head + p + tail
                t = index.get(nxt)
                if t is None:
                    t = index[nxt] = len(states)
                    states.append(nxt)
                if row.setdefault(a, t) != t:
                    raise ModelError(
                        f"duplicate transition ({label(st)!r}, {a.label()}) with two successors"
                    )
        rows.append(row)
    labels = list(map(label, states))
    return Lts._from_rows(alphabet, 0, _idle_completed(rows, alphabet.idle), labels)


# --- the two counter implementations --------------------------------------


def build_faa_impl(cfg: FaaConfig) -> Lts:
    """Counter looping load-link / store-conditional until the store lands.

    The shared part is (counter, link holder), 0 holding none.  Thread
    control points: pre (not called), f2 (about to load-link), f3(n)
    (loaded n, about to try the store), f4(n) (store landed, will return
    n), done.  The invalidating variant gives the link to the most
    recent load-link and fails any store by a non-holder; the plain
    variant fails a store only when the counter moved since the load.
    """
    invalidating = cfg.variant == "invalidating"
    alphabet = Alphabet(
        program=frozenset(),
        calls=_calls(cfg),
        returns=_returns(cfg),
        internal=frozenset(
            action(name, _INTERNAL, thread=t)
            for t in cfg.threads
            for name in ("ll", "sc-ok", "sc-fail")
        ),
    )

    def move(i: int, pc: tuple, shared: tuple[int, int]) -> Iterator[tuple]:
        counter, link = shared
        t, k = cfg.threads[i], cfg.addends[i]
        if pc == ("pre",):
            yield action("call", _CALL, t, k), ("f2",), shared
        elif pc == ("f2",):
            yield action("ll", _INTERNAL, t), ("f3", counter), (counter, t if invalidating else link)
        elif pc[0] == "f3":
            n = pc[1]
            if (link == t) if invalidating else (counter == n):
                yield action("sc-ok", _INTERNAL, t), ("f4", n), (n + k, 0 if invalidating else link)
            else:
                yield action("sc-fail", _INTERNAL, t), ("f2",), shared
        elif pc[0] == "f4":
            yield action("ret", _RETURN, t, pc[1]), ("done",), shared

    def prefix(shared: tuple[int, int]) -> str:
        return f"n={shared[0]} link={shared[1]}" if invalidating else f"n={shared[0]}"

    return _interleave(cfg, alphabet, (0, 0), ("pre",), move, prefix)


def build_faa_spec(cfg: FaaConfig) -> Lts:
    """Atomic counter: each operation takes effect in one internal step.

    The shared part is the counter.  The internal action carries the
    value the operation fetched, which the later return repeats.
    """
    alphabet = Alphabet(
        program=frozenset(),
        calls=_calls(cfg),
        returns=_returns(cfg),
        internal=frozenset(
            action("lin", _INTERNAL, thread=t, payload=v)
            for t in cfg.threads
            for v in range(cfg.total + 1)
        ),
    )

    def move(i: int, here: tuple, counter: int) -> Iterator[tuple]:
        t, k = cfg.threads[i], cfg.addends[i]
        if here == ("pre",):
            yield action("call", _CALL, t, k), ("called",), counter
        elif here == ("called",):
            yield action("lin", _INTERNAL, t, counter), ("lin", counter), counter + k
        elif here[0] == "lin":
            yield action("ret", _RETURN, t, here[1]), ("done",), counter

    return _interleave(cfg, alphabet, 0, ("pre",), move, lambda counter: f"n={counter}")


def build_program(cfg: FaaConfig) -> Lts:
    """Client that calls once per thread and assigns the fetched value.

    Per thread: call, wait for the return, assign the returned value to
    a thread-local, stop.  Threads interleave freely; the shared part is
    None.
    """
    alphabet = Alphabet(
        program=_assigns(cfg),
        calls=_calls(cfg),
        returns=_returns(cfg),
        internal=frozenset(),
    )

    def move(i: int, here: tuple, shared: None) -> Iterator[tuple]:
        t = cfg.threads[i]
        if here == ("ready",):
            yield action("call", _CALL, t, cfg.addends[i]), ("wait",), None
        elif here == ("wait",):
            for v in range(cfg.total + 1):
                yield action("ret", _RETURN, t, v), ("got", v), None
        elif here[0] == "got":
            yield action("assign", _PROGRAM, t, here[1]), ("done",), None

    return _interleave(cfg, alphabet, None, ("ready",), move, lambda _: "")


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
        non_idle = [a for a in enabled if a.kind is not _IDLE]
        for name in self._preferred:
            hits = [a for a in non_idle if a.name == name]
            if hits:
                return frozenset(hits[:1])
        other = [a for a in non_idle if a.kind is not _PROGRAM]
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
    found, _ = depth_first(
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
        s2 = construct_s2(mt)
        lemmas = check_all_lemmas(mt, s2)
        s2_checks = check_s2(mt, s2, PROJECTION_STEPS, budget=budget)
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
