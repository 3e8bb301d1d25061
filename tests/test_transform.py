import random
import sys
import time
from collections import Counter

import pytest

from ltsim import (
    Action,
    ActionKind,
    Alphabet,
    ContractViolation,
    IDLE,
    Lts,
    MappedTraces,
    ObjectFirstStrategy,
    Scheduler,
    Strategy,
    TraceNode,
    TracePrefixTree,
    build_f,
    check_admitted,
    check_all_lemmas,
    check_deterministic_scheduler,
    check_forward,
    check_lemma,
    check_progressive,
    check_s2,
    construct_s2,
    enumerate_traces,
    mapping_m,
    product,
    sufficient_alpha_bound,
)
from ltsim.casestudies import FaaConfig, build_faa_impl, build_faa_spec, build_program
from ltsim.scheduler import check_scheduler_tree

from conftest import PinnedScheduler, folded, internal, make_lts
from helpers import TableScheduler


@pytest.fixture(scope="module")
def plain():
    """The terminating register variant, transformed end to end."""
    cfg = FaaConfig(variant="plain")
    impl, spec, prog = build_faa_impl(cfg), build_faa_spec(cfg), build_program(cfg)
    res = check_progressive(
        impl, spec, impl.alphabet.cr, alpha_bound=sufficient_alpha_bound(spec)
    )
    assert res.verdict == "yes"
    prod1, prod2 = product(prog, impl), product(prog, spec)
    s1 = ObjectFirstStrategy(prod1)
    mt = build_f(prod1, s1, prod2, res.certificate, depth=14)
    return mt, construct_s2(mt)


# --- the action mapping -------------------------------------------------------


def test_mapping_m_program_actions_map_to_themselves(plain):
    mt, _ = plain
    tick = next(iter(mt.prod1.alphabet.program))
    assert mapping_m(0, tick, 0, mt.cert) == (tick,)


def test_mapping_m_object_actions_follow_the_certificate(plain):
    mt, _ = plain
    (cs, a, as_), entry = next(iter(mt.cert.choice.items()))
    assert mapping_m(cs, a, as_, mt.cert) == entry.alpha


def test_mapping_m_rejects_idle_and_unrelated(plain):
    mt, _ = plain
    with pytest.raises(ContractViolation, match="idle"):
        mapping_m(0, IDLE, 0, mt.cert)
    related = mt.cert.relation
    unrelated = next(
        (c, a)
        for c in range(mt.prod1.num_states)
        for a in range(mt.prod2.num_states)
        if (c, a) not in related
    )
    some_call = next(iter(mt.prod1.alphabet.calls))
    with pytest.raises(ContractViolation, match="not related"):
        mapping_m(unrelated[0], some_call, unrelated[1], mt.cert)


def test_mapping_m_requires_a_choice(plain):
    mt, _ = plain
    cs, as_ = next(iter(mt.cert.relation))
    ghost = Action("never", ActionKind.CALL, thread=9)
    with pytest.raises(ContractViolation, match="no choice"):
        mapping_m(cs, ghost, as_, mt.cert)


# --- the trace map --------------------------------------------------------------


def test_build_f_links_every_node(plain):
    mt, _ = plain
    nodes = list(mt.concrete.nodes())
    assert all(u.image is not None for u in nodes)
    assert mt.concrete.root.image is mt.image.root
    assert mt.conflicts == []


def test_each_annotation_lives_on_its_own_tree(plain):
    """image only on concrete nodes and scheduled only on image nodes;
    the trees of a scheduler walk carry neither, and no node has a
    __dict__ to hold anything else."""
    mt, s2 = plain
    assert all(u.image is not None and u.scheduled is None for u in mt.concrete.node_list)
    assert all(v.image is None for v in mt.image.node_list)
    assert any(v.scheduled is not None for v in mt.image.node_list)
    walked, _, _ = check_scheduler_tree(s2, mt.prod2, 4, 4)
    enumerated = enumerate_traces(mt.prod1, mt.s1, 4)
    for tree in (walked, enumerated):
        assert tree.size > 1
        assert all(n.image is None and n.scheduled is None for n in tree.node_list)
    for node in (mt.concrete.root, mt.image.root, walked.root, enumerated.root):
        assert not hasattr(node, "__dict__")


def test_build_f_frozen_shape(plain):
    """Sizes pinned after hand inspection of the depth-14 run."""
    mt, _ = plain
    assert mt.concrete.size == 21
    assert mt.image.size == 19
    assert mt.settled_image_length() == 12


def test_build_f_requires_products(plain):
    mt, _ = plain
    cfg = FaaConfig(variant="plain")
    impl = build_faa_impl(cfg)
    with pytest.raises(ContractViolation, match="not a product"):
        build_f(impl, mt.s1, mt.prod2, mt.cert, depth=4)


def test_image_projections_replay_on_the_abstract_product(plain):
    mt, _ = plain
    for _, v in mt.linked():
        assert mt.prod2.accepts(v.trace())


# --- the five structural checks ---------------------------------------------------


def test_all_lemma_checks_pass(plain):
    mt, s2 = plain
    results = check_all_lemmas(mt, s2)
    assert [r.lemma for r in results] == [1, 2, 3, 4, 5]
    assert all(r.ok for r in results), [r.counterexample for r in results]
    assert [r.checked for r in results] == [21, 12, 21, 19, 17]


def test_lemma_5_needs_the_scheduler(plain):
    mt, _ = plain
    with pytest.raises(ContractViolation, match="needs the abstract scheduler"):
        check_lemma(5, mt)
    with pytest.raises(ContractViolation, match="no such check"):
        check_lemma(6, mt)


def test_conflicting_diagrams_surface_in_check_3():
    """A scheduler that mixes an internal action into a call set violates
    determinism; two expansions then annotate one image node with
    different sets, and the uniqueness check reports it."""
    c = Action("c", ActionKind.CALL)
    r = Action("r", ActionKind.RETURN, payload=0)
    x = internal("x")
    obj_al = Alphabet(frozenset(), frozenset({c}), frozenset({r}), frozenset({x}))
    o1 = make_lts([(0, x, 1), (0, c, 2), (1, c, 2), (2, r, 3)], 4, obj_al)
    o2_al = Alphabet(frozenset(), frozenset({c}), frozenset({r}), frozenset())
    o2 = make_lts([(0, c, 1), (1, r, 2)], 3, o2_al)
    prog_al = Alphabet(frozenset(), frozenset({c}), frozenset({r}), frozenset())
    prog = make_lts([(0, c, 1), (1, r, 2)], 3, prog_al)

    cert = check_forward(o1, o2, o1.alphabet.cr, alpha_bound=6).certificate
    assert cert is not None
    prod1, prod2 = product(prog, o1), product(prog, o2)
    s1 = TableScheduler(
        {
            (): {x, c},  # mixed set: not program-only, not a singleton
            (x,): {c},
            (c,): {r},
            (x, c): {r},
            (c, r): {IDLE},
            (x, c, r): {IDLE},
        }
    )
    mt = build_f(prod1, s1, prod2, cert, depth=3)
    assert mt.conflicts
    res = check_lemma(3, mt)
    assert not res.ok
    assert "scheduled as" in res.counterexample


def chain_mapping(depth: int) -> MappedTraces:
    """A concrete chain linked node for node to an image chain; only the
    two trees are filled in, which is all the common-origin check reads."""
    x = internal("x")
    concrete, image = TracePrefixTree(0), TracePrefixTree(0)
    u, v = concrete.root, image.root
    u.image = v
    for _ in range(depth):
        u, v = concrete.extend(u, x, 0), image.extend(v, x, 0)
        u.image = v
    return MappedTraces(concrete, image, None, None, None, None, depth)


def test_common_origin_check_on_a_tree_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 200
    mt = chain_mapping(depth)
    start = time.perf_counter()
    res = check_lemma(4, mt)
    assert time.perf_counter() - start < 2.0
    assert res.ok and res.checked == depth + 1


def test_common_origin_check_reports_unrelated_preimages():
    x, y = internal("x"), internal("y")
    mt = chain_mapping(0)
    root, w = mt.concrete.root, mt.image.extend(mt.image.root, x, 0)
    for a in (x, y):
        mt.concrete.extend(root, a, 0).image = w
    res = check_lemma(4, mt)
    assert not res.ok and res.checked == 2
    assert res.counterexample == (
        "image prefix x is shared by x and y, which share no governing concrete prefix"
    )


# --- the derived scheduler ----------------------------------------------------


def test_s2_schedules_image_annotations(plain):
    mt, s2 = plain
    for v in mt.image.nodes():
        value = v.scheduled
        if value is not None:
            assert s2.schedule(v.trace()) == value


def test_s2_idles_off_image(plain):
    mt, s2 = plain
    idle2 = mt.prod2.alphabet.idle
    ghost = Action("never", ActionKind.CALL, thread=9)
    assert s2.schedule((ghost,)) == {idle2}
    # a real prefix continued by a non-scheduled action is also off-image
    root_value = mt.image.root.scheduled
    off = next(
        a
        for a, _ in mt.prod2.out_edges(mt.prod2.initial)
        if a not in root_value
    )
    assert s2.schedule((off,)) == {idle2}


def test_s2_deterministic_and_admitted_bounded(plain):
    mt, s2 = plain
    depth = mt.settled_image_length() - 1
    det = check_deterministic_scheduler(s2, mt.prod2, depth=depth)
    adm = check_admitted(s2, mt.prod2, depth=depth)
    assert det.ok and adm.ok
    assert not det.complete  # bounded: s2 is not a strategy over prod2


def test_s2_auto_deepens_and_exhausts():
    cfg = FaaConfig(variant="plain")
    impl, spec, prog = build_faa_impl(cfg), build_faa_spec(cfg), build_program(cfg)
    res = check_progressive(
        impl, spec, impl.alphabet.cr, alpha_bound=sufficient_alpha_bound(spec)
    )
    prod1, prod2 = product(prog, impl), product(prog, spec)
    shallow = build_f(prod1, ObjectFirstStrategy(prod1), prod2, res.certificate, depth=4)
    deep = build_f(prod1, ObjectFirstStrategy(prod1), prod2, res.certificate, depth=14)
    target = next(v for v in deep.image.nodes() if v.depth == 8 and v.scheduled)

    s2 = construct_s2(shallow)
    assert s2.schedule(target.trace()) == target.scheduled
    assert s2.mt.depth > 4  # the tree was rebuilt deeper


# --- trace set comparisons -------------------------------------------------------


def test_image_equality_frozen(plain):
    mt, s2 = plain
    eq = check_s2(mt, s2, depth=8).images
    assert eq.ok, eq.counterexample
    assert eq.compare_length == 12
    assert eq.lhs_size == eq.rhs_size == 19


def test_projection_equality_frozen(plain):
    mt, s2 = plain
    eq = check_s2(mt, s2, depth=8).projections
    assert eq.ok, eq.counterexample
    assert eq.compare_length == 8
    assert eq.lhs_size == eq.rhs_size == 5


def test_projection_equality_catches_a_wrong_scheduler(plain):
    """An abstract scheduler that refuses all work after the first call
    produces a different projected language."""
    mt, _ = plain
    idle2 = mt.prod2.alphabet.idle

    class LazyS2(Scheduler):
        def schedule(self, trace):
            if len(trace) == 0:
                return mt.image.root.scheduled
            return frozenset({idle2}) if mt.prod2.alphabet.idle else frozenset()

    eq = check_s2(mt, LazyS2(), depth=8).projections
    assert not eq.ok
    assert "projection" in eq.counterexample


# --- walks that carry their state ----------------------------------------------


@pytest.fixture(scope="module")
def plain_parts():
    cfg = FaaConfig(variant="plain")
    impl, spec, prog = build_faa_impl(cfg), build_faa_spec(cfg), build_program(cfg)
    res = check_progressive(
        impl, spec, impl.alphabet.cr, alpha_bound=sufficient_alpha_bound(spec)
    )
    return product(prog, impl), product(prog, spec), res.certificate


def test_s2_cursor_fold_agrees_with_schedule(plain):
    mt, _ = plain
    s2 = construct_s2(mt)
    idle2 = mt.prod2.alphabet.idle
    actions = sorted(mt.prod2.alphabet.all_actions, key=lambda a: a.key())
    on, off = [], []
    for v in mt.image.nodes():
        trace = v.trace()
        value = v.scheduled
        if value is not None:
            on.append(trace)
            for a in actions:
                if a not in v.children and (a not in value or mt.prod2.step(v.state, a) is None):
                    off.append(trace + (a,))
                    off.append(trace + (a, actions[0]))  # off the image for good
    assert on and off
    pinned = PinnedScheduler(s2, on[3], frozenset({idle2}))
    for s in (s2, pinned):
        for t in on + off:
            assert folded(s, t) == s.schedule(t), t
    assert all(s2.schedule(t) == {idle2} for t in off)
    for t in on:
        assert folded(s2, t) == mt.image.find(t).scheduled


def test_s2_cursors_survive_auto_deepening(plain_parts):
    prod1, prod2, cert = plain_parts
    deep = build_f(prod1, ObjectFirstStrategy(prod1), prod2, cert, depth=14)
    reference = construct_s2(deep)
    target = next(v for v in deep.image.nodes() if v.depth == 8 and v.scheduled)
    trace = target.trace()

    s2 = construct_s2(build_f(prod1, ObjectFirstStrategy(prod1), prod2, cert, depth=4))
    built = s2.mt
    early = s2.cursor()
    for a in trace[:2]:
        early = s2.advance(early, a)  # a node of the shallow tree
    fringe = early
    for a in trace[2:]:
        fringe = s2.advance(fringe, a)  # past the shallow tree
    assert s2.mt is built
    assert s2.scheduled(fringe) == target.scheduled
    assert s2.mt is not built and s2.mt.depth > 4  # the tree was rebuilt deeper
    # the cursor from before the rebuild still answers, and still advances
    assert s2.scheduled(early) == reference.schedule(trace[:2])
    assert folded(s2, trace[2:], early) == target.scheduled
    for v in deep.image.nodes():
        if v.scheduled is not None and v.depth <= 8:
            assert folded(s2, v.trace()) == s2.schedule(v.trace()) == v.scheduled


def replay_counts(monkeypatch, parts, depth):
    """Calls that rebuild or replay a trace from the root, over every tree walk."""
    prod1, prod2, cert = parts
    calls = Counter()

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as m:
        m.setattr(TraceNode, "trace", counting("trace", TraceNode.trace))
        m.setattr(Strategy, "schedule", counting("schedule", Strategy.schedule))
        s1 = ObjectFirstStrategy(prod1)
        mt = build_f(prod1, s1, prod2, cert, depth)
        s2 = construct_s2(mt)
        walk = mt.settled_image_length() - 1
        s2_checks = check_s2(mt, s2, depth)
        results = [
            check_admitted(s1, prod1, depth).ok,
            check_deterministic_scheduler(s1, prod1, depth).ok,
            check_admitted(s2, prod2, walk).ok,
            check_deterministic_scheduler(s2, prod2, walk).ok,
            s2_checks.images.ok,
            s2_checks.projections.ok,
            *(r.ok for r in check_all_lemmas(mt, s2)),
        ]
    assert all(results), results
    return mt.concrete.size, dict(calls)


def test_tree_walks_do_not_replay_traces_per_node(monkeypatch, plain_parts):
    small, at_20 = replay_counts(monkeypatch, plain_parts, 20)
    large, at_60 = replay_counts(monkeypatch, plain_parts, 60)
    assert large > 2 * small
    assert at_60 == at_20


def common_origin_reference(mt):
    """Lemma 4 as first written: every user listed under every image ancestor."""
    through = {}
    for u, v in mt.linked():
        node = v
        while node is not None:
            through.setdefault(node, []).append(u)
            node = node.parent
    checked = 0
    for v, users in through.items():
        checked += 1
        shallowest = min(users, key=lambda n: n.depth)
        for u in users:
            if u.trace()[: shallowest.depth] != shallowest.trace():
                return False, checked, (v.trace(), shallowest.trace(), u.trace())
    return True, checked, None


def test_common_origin_check_matches_the_reference_on_scrambled_links(plain_parts):
    prod1, prod2, cert = plain_parts
    outcomes = Counter()
    for seed in range(60):
        rng = random.Random(seed)
        mt = build_f(prod1, ObjectFirstStrategy(prod1), prod2, cert, depth=16)
        concrete, image = list(mt.concrete.nodes()), list(mt.image.nodes())
        for u in rng.sample(concrete, rng.randint(1, 4)):
            u.image = rng.choice(image)
        ok, checked, where = common_origin_reference(mt)
        res = check_lemma(4, mt)
        assert (res.ok, res.checked) == (ok, checked), seed
        if not ok:
            v, first, other = where
            fmt = lambda t: "·".join(a.label() for a in t) if t else "ε"
            assert res.counterexample == (
                f"image prefix {fmt(v)} is shared by {fmt(first)} and {fmt(other)}, "
                "which share no governing concrete prefix"
            )
        outcomes[ok, checked > 3] += 1
    assert outcomes[False, True] >= 10 and outcomes[True, True] >= 5, outcomes
