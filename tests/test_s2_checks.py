"""check_s2: the four checks of a derived scheduler from one walk.

check_s2 must give what the four separate checks of reference_walks.py
give when run one after the other, the way the command line once ran
them, error included, while asking the scheduler once per node of its
tree.
"""

import gc
import hashlib
import json
import random
from collections import Counter

import pytest

from conftest import PinnedScheduler, derived_object_pair, make_universal_client
from helpers import TableScheduler
from reference_walks import (
    ReferenceS2,
    reference_check_admitted,
    reference_check_deterministic_scheduler,
    reference_check_image_equality,
    reference_check_projection_equality,
)
from ltsim import (
    DepthExhausted,
    MaximalStrategy,
    ObjectFirstStrategy,
    S2Scheduler,
    Scheduler,
    TraceNode,
    build_f,
    check_all_lemmas,
    check_progressive,
    check_s2,
    construct_s2,
    enumerate_traces,
    find_divergence,
    make_scheduler,
    product,
    sort_actions,
    sufficient_alpha_bound,
)
from ltsim.casestudies import (
    FaaConfig,
    build_faa_impl,
    build_faa_spec,
    build_program,
    run_counterexample_suite,
)
from ltsim.cli import main
from ltsim.modelio import dumps

STRATEGIES = ("maximal", "object-first", "fifo")


def outcome(run):
    try:
        return run()
    except Exception as e:  # the error is part of the result compared
        return ("raises", type(e).__name__, str(e))


def separately(mt, s2, sigma_p, depth, budget, checks):
    """The four checks in turn, as the command line used to run them."""
    admitted, deterministic, images, projections = checks
    settled = mt.settled_image_length()
    walk = settled - 1 if settled is not None else mt.depth
    return outcome(lambda: (
        settled,
        admitted(s2, mt.prod2, walk, budget=budget),
        deterministic(s2, mt.prod2, walk, budget=budget),
        images(mt, s2, budget=budget),
        projections(mt, s2, sigma_p, depth, budget=budget),
    ))


REFERENCE = (
    reference_check_admitted,
    reference_check_deterministic_scheduler,
    reference_check_image_equality,
    reference_check_projection_equality,
)


def at_once(mt, s2, depth, budget=None):
    return outcome(lambda: tuple(check_s2(mt, s2, depth, budget=budget)))


def assert_agree(mt, make_s2, sigma_p, depth, budget=None):
    """Both ways, each on a fresh scheduler (S2 rebuilds itself deeper
    when asked past its tree); results compare field by field."""
    want = separately(mt, make_s2(), sigma_p, depth, budget, REFERENCE)
    got = at_once(mt, make_s2(), depth, budget)
    assert got == want, (budget, got, want)
    return got


# --- the rigs -------------------------------------------------------------------


@pytest.fixture(scope="module")
def plain():
    """2-thread plain FAA against the atomic counter, with its certificate."""
    cfg = FaaConfig(variant="plain")
    impl, spec, prog = build_faa_impl(cfg), build_faa_spec(cfg), build_program(cfg)
    res = check_progressive(impl, spec, impl.alphabet.cr, alpha_bound=sufficient_alpha_bound(spec))
    return product(prog, impl), product(prog, spec), res.certificate


def random_pairs():
    """The hundred seeded pairs of the acceptance corpus, built the same way."""
    client = make_universal_client()
    pairs, seed = [], 0
    while len(pairs) < 100:
        seed += 1
        o1, o2 = derived_object_pair(random.Random(seed))
        gamma = o1.alphabet.cr | o2.alphabet.cr
        res = check_progressive(o1, o2, gamma, alpha_bound=sufficient_alpha_bound(o2))
        if res.verdict != "yes":
            continue
        prod1 = product(client, o1)
        if find_divergence(prod1, make_scheduler("object-first", prod1), prod1.alphabet.gamma_p):
            continue
        pairs.append((seed, prod1, product(client, o2), res.certificate))
    return pairs


# --- agreement with the separate checks -----------------------------------------


def test_one_walk_agrees_on_the_random_corpus():
    kinds = Counter()
    for seed, prod1, prod2, cert in random_pairs():
        for strategy in STRATEGIES:
            s1 = make_scheduler(strategy, prod1)
            mt = build_f(prod1, s1, prod2, cert, 6 if strategy == "maximal" else 12)
            got = assert_agree(mt, lambda: construct_s2(mt), prod1.alphabet.program, 8)
            kinds[(strategy, got[0] == "raises" or all(c.ok for c in got[1:]))] += 1
    assert sum(kinds.values()) == 300
    assert kinds[("object-first", True)] == 100


@pytest.mark.parametrize("depth", [0, 1, 14])
def test_one_walk_agrees_on_every_budget(plain, depth):
    prod1, prod2, cert = plain
    mt = build_f(prod1, ObjectFirstStrategy(prod1), prod2, cert, depth)
    if depth == 0:  # the root alone is tested, and asking it rebuilds S2 deeper
        assert mt.settled_image_length() == 0
    for budget in (None, *range(0, 40)):
        assert_agree(mt, lambda: construct_s2(mt), prod1.alphabet.program, 8, budget)


def planted(prod2):
    """Schedulers that break S2 at one trace, each aimed at one check."""
    label = {a.label(): a for a in prod2.alphabet.all_actions}
    call1, lin1, call2 = label["call@1#1"], label["lin@1#0"], label["call@2#2"]
    return {
        "empty": ((), frozenset()),
        "disabled": ((call1,), frozenset({call1})),
        "mixed": ((call1,), frozenset({lin1, call2})),
        "contradicts": ((), frozenset({prod2.alphabet.idle})),
        "mixed-deep": ((call1, lin1), frozenset({lin1, call2})),
        "off-image": ((call1,), frozenset({call2})),  # enabled, but the image takes lin1
    }


@pytest.mark.parametrize("name", ["empty", "disabled", "mixed", "contradicts", "mixed-deep", "off-image"])
def test_one_walk_agrees_on_planted_mutants(plain, name):
    prod1, prod2, cert = plain
    at, value = planted(prod2)[name]
    mt = build_f(prod1, ObjectFirstStrategy(prod1), prod2, cert, 14)
    for budget in (None, *range(0, 30)):
        got = assert_agree(
            mt, lambda: PinnedScheduler(construct_s2(mt), at, value), prod1.alphabet.program, 8, budget
        )
        if budget is None:
            assert not all(check.ok for check in got[1:])


@pytest.mark.parametrize("strategy", [MaximalStrategy, ObjectFirstStrategy])
def test_one_walk_agrees_for_a_strategy_over_the_abstract_product(plain, strategy):
    """Checked exactly over its (state, memory) graph, and walked along
    the image tree like S2."""
    prod1, prod2, cert = plain
    mt = build_f(prod1, ObjectFirstStrategy(prod1), prod2, cert, 14)
    for budget in (None, *range(0, 30)):
        got = assert_agree(mt, lambda: strategy(prod2), prod1.alphabet.program, 8, budget)
        if budget is None:
            assert got[1].complete and got[2].complete


class OpaqueMaximal(Scheduler):
    """Every enabled action of lts, plus extra, seen only through
    schedule() (never as a strategy); fails at the trace fails_at."""

    def __init__(self, lts, fails_at=None, extra=frozenset()):
        self.s, self.fails_at, self.extra = MaximalStrategy(lts), fails_at, extra

    def schedule(self, trace):
        if tuple(trace) == self.fails_at:
            raise LookupError(f"no schedule after {len(trace)} steps")
        return self.s.schedule(trace) | self.extra


@pytest.mark.parametrize("tested", [True, False], ids=["tested", "untested"])
@pytest.mark.parametrize("where", [1, 2, 5, 9, 30])
def test_one_walk_fails_where_the_separate_checks_fail(plain, where, tested):
    """A scheduler that fails at the where-th trace, breadth first: the
    traces tested, or the tree, reach it first, or the tree outgrows the
    budget first.  Untested, it already fails both tests at the root."""
    prod1, prod2, cert = plain
    nodes = sorted(enumerate_traces(prod2, MaximalStrategy(prod2), 4).nodes(), key=lambda v: v.depth)
    trace = nodes[where].trace()  # the sort is stable: breadth first, in canonical order
    disabled = next(a for a in sort_actions(prod2.alphabet.all_actions) if prod2.step(prod2.initial, a) is None)
    extra = frozenset() if tested else frozenset({disabled})
    mt = build_f(prod1, ObjectFirstStrategy(prod1), prod2, cert, 14)
    seen = set()
    for budget in (None, *range(0, 40)):
        got = assert_agree(mt, lambda: OpaqueMaximal(prod2, trace, extra), prod1.alphabet.program, 8, budget)
        seen.add(got[1])
    assert seen == {"BudgetExceeded", "LookupError"}


# --- the concrete tree closing before the depth ---------------------------------


def closing_tables(prod1):
    """Object-first schedules cut off after k steps, for k = 0 to 4."""
    of = ObjectFirstStrategy(prod1)
    full = enumerate_traces(prod1, of, 5)
    return {
        k: TableScheduler({v.trace(): of.schedule(v.trace()) for v in full.nodes() if v.depth < k})
        for k in range(5)
    }


def no_frontier_cases(plain):
    """(case, mt, make_s2): every concrete trace ends before the depth."""
    prod1, prod2, cert = plain
    for k, s1 in closing_tables(prod1).items():
        for depth in (k + 1, 8):
            mt = build_f(prod1, s1, prod2, cert, depth)
            assert mt.settled_image_length() is None
            yield (k, depth, "s2"), mt, lambda: construct_s2(mt)
            # opaque, so walked to the depth like S2, and defined past the image tree
            yield (k, depth, "maximal"), mt, lambda: OpaqueMaximal(prod2)


def test_no_frontier_results_are_pinned(plain):
    """Frozen at the four separate checks: S2 is asked past its image
    tree, where nothing is determined, and gives up."""
    prod1 = plain[0]
    lines = []
    for case, mt, make_s2 in no_frontier_cases(plain):
        for budget in (None, 0, 1, 2, 3, 5, 8, 13):
            lines.append(repr((case, budget, assert_agree(mt, make_s2, prod1.alphabet.program, 8, budget))))
    first = lines[0]
    assert first == repr(
        ((0, 1, "s2"), None, ("raises", "DepthExhausted", "query needs construction depth >= 1, built to 109"))
    )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == NO_FRONTIER_DIGEST


NO_FRONTIER_DIGEST = "c0c6540284ba3287b5aeda3b9e147da321e71eb5bafab4eb2df0c0775d011c68"


def test_no_frontier_s2_gives_up_without_rebuilding(plain, monkeypatch):
    """A concrete tree that closed early is the tree at every depth, so S2
    raises at the first query past it, naming its cap, and builds no
    deeper tree."""
    import ltsim.transform as transform

    rebuilds = []
    build = transform.build_f

    def counting(*args, **kwargs):
        rebuilds.append(args[4])
        return build(*args, **kwargs)

    monkeypatch.setattr(transform, "build_f", counting)
    asked = 0
    for case, mt, make_s2 in no_frontier_cases(plain):
        if case[2] != "s2":
            continue
        s2 = make_s2()
        with pytest.raises(DepthExhausted) as e:
            check_s2(mt, s2, 8)
        assert e.value.have == s2.max_depth, case
        asked += 1
    assert (asked, rebuilds) == (10, [])


# --- when S2 rebuilds its trees ---------------------------------------------------


@pytest.fixture
def rebuilds(monkeypatch):
    """The depths S2Scheduler and ReferenceS2 rebuild their mapped trees
    to, listed apart under "s2" and "reference"."""
    import ltsim.transform as transform
    import reference_walks

    seen = {"s2": [], "reference": []}
    for module, name in ((transform, "s2"), (reference_walks, "reference")):

        def counting(*args, _build=module.build_f, _seen=seen[name], **kwargs):
            _seen.append(args[4])
            return _build(*args, **kwargs)

        monkeypatch.setattr(module, "build_f", counting)
    return seen


def random_queries(mt, rng, n, length):
    """n traces of mt.prod2, each of fewer than length actions: mostly a
    step of the image tree, else an action enabled after the trace, and
    now and then any action, so that some leave the image or its tree."""
    prod2, nodes = mt.prod2, mt.image.node_list
    actions = sort_actions(prod2.alphabet.all_actions)
    for _ in range(n):
        v, state, trace = mt.image.root, prod2.initial, []
        for _ in range(rng.randrange(length)):
            steps = list(v.children.items()) if v is not None else []
            if steps and rng.random() < 0.8:
                a, i = rng.choice(steps)
            else:
                enabled = sort_actions(prod2.enabled(state)) if state is not None else ()
                a = rng.choice(enabled if enabled and rng.random() < 0.9 else actions)
                i = v.children.get(a) if v is not None else None
            v = None if i is None else nodes[i]
            state = None if state is None else prod2.step(state, a)
            trace.append(a)
        yield tuple(trace)


class StopsOnOneBranch(Scheduler):
    """Object-first, except that it schedules both calls first, and on the
    branch where thread 2 calls first schedules the other call and then
    nothing: the concrete trace ends after two steps, well above the
    settled image length."""

    def __init__(self, lts):
        self.of = ObjectFirstStrategy(lts)
        self.calls = lts.alphabet.calls

    def schedule(self, trace):
        if not trace:
            return self.calls & self.of.lts.enabled(self.of.lts.initial)
        if trace[0].thread != 2:
            return self.of.schedule(trace)
        called = {a.thread for a in trace if a in self.calls}
        return frozenset(a for a in self.calls if a.thread not in called)


def test_s2_answers_like_the_rebuild_loop_with_no_more_rebuilds(plain, rebuilds):
    """Random queries on FAA and the seeded corpus, for every registered
    strategy and one that stops on a branch: the same value or the same
    error as the loop that rebuilt whenever its tree left a query open,
    and S2's rebuilds are the first of the loop's."""
    rigs = [plain] + [(prod1, prod2, cert) for _, prod1, prod2, cert in random_pairs()[:12]]
    rng = random.Random(2021)
    kinds = Counter()
    for prod1, prod2, cert in rigs:
        for strategy in ("fifo", "ll-alternator", "maximal", "object-first", StopsOnOneBranch):
            s1 = strategy(prod1) if callable(strategy) else make_scheduler(strategy, prod1)
            for depth in (0, 1, 3, 6):
                mt = build_f(prod1, s1, prod2, cert, depth, budget=2_000)
                for trace in random_queries(mt, rng, 3, depth + 12):
                    for done in rebuilds.values():
                        done.clear()
                    got = outcome(lambda: construct_s2(mt).schedule(trace))
                    want = outcome(lambda: ReferenceS2(mt).schedule(trace))
                    assert got == want, (strategy, depth, trace)
                    assert rebuilds["s2"] == rebuilds["reference"][: len(rebuilds["s2"])]
                    fewer = len(rebuilds["s2"]) < len(rebuilds["reference"])
                    kinds[got[1] if isinstance(got, tuple) else "value", fewer] += 1
    assert sum(kinds.values()) == 13 * 5 * 4 * 3
    # only a query no depth answers is refused before the cap
    assert set(kinds) == {("value", False), ("BudgetExceeded", False), ("DepthExhausted", True)}


def test_s2_refuses_a_dead_end_above_the_settled_length_without_rebuilding(plain, rebuilds):
    """Asked at the image of the trace that stopped, S2 raises what the
    rebuild loop raised after rebuilding 27 times to its cap."""
    prod1, prod2, cert = plain
    mt = build_f(prod1, StopsOnOneBranch(prod1), prod2, cert, 14)
    (stopped,) = (v for v in mt.image.node_list if v.scheduled is None and v.depth < 12)
    assert mt.settled_image_length() == 12 and stopped.depth == 2
    errors = []
    for make_s2 in (construct_s2, ReferenceS2):
        with pytest.raises(DepthExhausted) as e:
            check_s2(mt, make_s2(mt), 14)
        errors.append(str(e.value))
    assert errors == ["query needs construction depth >= 3, built to 122"] * 2
    assert rebuilds["s2"] == []
    assert rebuilds["reference"] == list(range(18, 122, 4)) + [122]


@pytest.mark.parametrize("strategy", ["fifo", "ll-alternator", "maximal", "object-first"])
def test_transform_scheduler_at_depth_0_rebuilds_once_to_answer_the_root(
    model_files, capsys, rebuilds, strategy
):
    """The root alone is walked at depth 0, and no tree of depth 0
    annotates it, so S2 rebuilds once, 4 deeper; from depth 1 on, no
    registered strategy rebuilds."""
    verdicts = []
    for depth in ("0", "1"):
        code = main(["transform-scheduler", *model_files, "--depth", depth, "--strategy", strategy])
        verdicts.append((code, json.loads(capsys.readouterr().out)["verdict"]))
        assert rebuilds["s2"] == ([4] if depth == "0" else []), depth
        rebuilds["s2"].clear()
    assert verdicts == [(1, "refuted")] * 2 if strategy == "maximal" else [(0, "holds")] * 2


def test_run_casestudy_at_depth_0_rebuilds_once(capsys, rebuilds):
    assert main(["run-casestudy", "--depth", "0"]) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "unknown"
    assert rebuilds["s2"] == [4]


# --- one walk -------------------------------------------------------------------


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("plain")
    cfg = FaaConfig(variant="plain")
    files = []
    for name, lts in (("prog", build_program(cfg)), ("plain", build_faa_impl(cfg)), ("spec", build_faa_spec(cfg))):
        path = root / f"{name}.json"
        path.write_text(dumps(lts))
        files.append(str(path))
    return files


@pytest.mark.parametrize("depth", [0, 14, 200])
def test_transform_scheduler_asks_s2_once_per_expanded_node(plain, model_files, monkeypatch, capsys, depth):
    prod1, prod2, cert = plain

    asked = Counter()
    scheduled = S2Scheduler.scheduled

    def counting(self, cur):
        asked[id(self)] += 1
        return scheduled(self, cur)

    monkeypatch.setattr(S2Scheduler, "scheduled", counting)
    assert main(["transform-scheduler", *model_files, "--depth", str(depth)]) == 0
    capsys.readouterr()
    (calls,) = asked.values()

    mt = build_f(prod1, ObjectFirstStrategy(prod1), prod2, cert, depth)
    depth2 = mt.settled_image_length()
    tree = enumerate_traces(prod2, construct_s2(mt), depth2)
    expanded = sum(1 for v in tree.nodes() if v.depth < depth2) or 1  # the root is tested alone
    assert calls == expanded


def test_transform_scheduler_budget_sweep_is_pinned(model_files, capsys):
    """Exit code, stdout and stderr at every budget that runs out somewhere."""
    digest = hashlib.sha256()
    for depth in ("6", "14"):
        for budget in range(260):
            code = main(["transform-scheduler", *model_files, "--depth", depth, "--budget", str(budget)])
            out, err = capsys.readouterr()
            digest.update(f"{depth} {budget} {code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == BUDGET_SWEEP_DIGEST


BUDGET_SWEEP_DIGEST = "d82a5aafed033c84be8fec6426991ea94ec4585815b4432802ed8dc6ece3f325"


def test_check_s2_on_an_agreeing_s2_makes_no_node_and_no_garbage(plain, monkeypatch):
    """S2 walks the image tree itself: where its moves are the image
    children, no node is made, and nothing is left for the cyclic
    collector (the next command would otherwise run on top of it)."""
    prod1, prod2, cert = plain
    mt = build_f(prod1, ObjectFirstStrategy(prod1), prod2, cert, 200)
    before = [(v, dict(v.children)) for v in mt.image.node_list]
    made = []
    init = TraceNode.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TraceNode, "__init__", counting)
    gc.collect()
    gc.disable()
    try:
        checks = check_s2(mt, construct_s2(mt), 8)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert checks.ok and checks.images.rhs_size == checks.images.lhs_size > 200
    assert made == [] and garbage == 0
    assert [(v, v.children) for v in mt.image.node_list] == before


# --- trees without reference cycles ---------------------------------------------


def assert_positions_hold(tree):
    """The node at each child position has that node as parent, the key as
    its action and is one deeper, and find() reaches every node."""
    nodes = tree.node_list
    for node in nodes:
        for a, i in node.children.items():
            child = nodes[i]
            assert (child.parent, child.action, child.depth) == (node, a, node.depth + 1)
        assert tree.find(node.trace()) is node


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_children_are_positions_in_their_own_tree(plain, strategy):
    prod1, prod2, cert = plain
    s1 = make_scheduler(strategy, prod1)
    assert_positions_hold(enumerate_traces(prod1, s1, 10))
    mt = build_f(prod1, s1, prod2, cert, 10)
    assert_positions_hold(mt.concrete)
    assert_positions_hold(mt.image)
    before = [(v, dict(v.children)) for v in mt.image.node_list]
    check_s2(mt, construct_s2(mt), 10)
    assert [(v, v.children) for v in mt.image.node_list] == before
    assert_positions_hold(mt.image)


@pytest.mark.parametrize("depth", [0, 20, 200])
def test_library_tree_calls_leave_no_cyclic_garbage(plain, depth):
    """A trace tree holds no reference cycle, so no call that builds one
    leaves anything to the cyclic collector, and no clean-up call exists."""
    prod1, prod2, cert = plain
    s1 = ObjectFirstStrategy(prod1)

    def transform():
        mt = build_f(prod1, s1, prod2, cert, depth)
        s2 = construct_s2(mt)
        check_s2(mt, s2, depth)
        check_all_lemmas(mt, s2)

    calls = {
        "enumerate_traces": lambda: enumerate_traces(prod1, s1, depth),
        "build_f": lambda: build_f(prod1, s1, prod2, cert, depth),
        "check_s2 and check_all_lemmas": transform,
        "run_counterexample_suite": lambda: run_counterexample_suite(depth=depth),
    }
    garbage = {}
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            garbage[name] = gc.collect()
    finally:
        gc.enable()
    assert garbage == dict.fromkeys(calls, 0)
