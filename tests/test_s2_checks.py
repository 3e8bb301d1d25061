"""check_s2: the four checks of a derived scheduler from one walk.

check_s2 must give what the four separate checks of reference_walks.py
give when run one after the other, the way the command line once ran
them, error included, while asking the scheduler once per node of its
tree.
"""

import gc
import hashlib
import random
import weakref
from collections import Counter

import pytest

from conftest import PinnedScheduler, derived_object_pair, make_universal_client
from reference_walks import (
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
    TableScheduler,
    build_f,
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
from ltsim.casestudies import FaaConfig, build_faa_impl, build_faa_spec, build_program
from ltsim.cli import main
from ltsim.modelio import dumps
from ltsim.scheduler import check_scheduler_tree

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


def at_once(mt, s2, sigma_p, depth, budget=None):
    return outcome(lambda: tuple(check_s2(mt, s2, sigma_p, depth, budget=budget)))


def assert_agree(mt, make_s2, sigma_p, depth, budget=None):
    """Both ways, each on a fresh scheduler (S2 rebuilds itself deeper
    when asked past its tree); results compare field by field."""
    want = separately(mt, make_s2(), sigma_p, depth, budget, REFERENCE)
    got = at_once(mt, make_s2(), sigma_p, depth, budget)
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
    }


@pytest.mark.parametrize("name", ["empty", "disabled", "mixed", "contradicts", "mixed-deep"])
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
            yield (k, depth, "frozen"), mt, lambda: construct_s2(mt, auto_deepen=False)
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


NO_FRONTIER_DIGEST = "aa3b94c9f1bf48765d7fdda89f46893195b52198f7ab55ee9abfb7c7a847b4b7"


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
            check_s2(mt, s2, plain[0].alphabet.program, 8)
        assert e.value.have == s2.max_depth, case
        asked += 1
    assert (asked, rebuilds) == (10, [])


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


def test_check_s2_frees_its_tree_on_return(plain, monkeypatch):
    """No cyclic garbage left for the collector: the next command would
    otherwise run on top of it (peak memory of a round of commands)."""
    import ltsim.transform as transform

    prod1, prod2, cert = plain
    mt = build_f(prod1, ObjectFirstStrategy(prod1), prod2, cert, 200)
    roots = []

    def keeping(*args, **kwargs):
        tree, adm, det = check_scheduler_tree(*args, **kwargs)
        roots.append(weakref.ref(tree.root))
        return tree, adm, det

    monkeypatch.setattr(transform, "check_scheduler_tree", keeping)
    gc.disable()
    try:
        assert check_s2(mt, construct_s2(mt), prod1.alphabet.program, 8).images.ok
        assert roots and roots[0]() is None
    finally:
        gc.enable()
