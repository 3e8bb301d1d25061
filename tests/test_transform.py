import sys
import time

import pytest

from ltsim import (
    Action,
    ActionKind,
    Alphabet,
    ContractViolation,
    DepthExhausted,
    IDLE,
    Lts,
    MappedTraces,
    ObjectFirstStrategy,
    TableScheduler,
    TracePrefixTree,
    build_f,
    check_admitted,
    check_all_lemmas,
    check_deterministic_scheduler,
    check_forward,
    check_image_equality,
    check_lemma,
    check_progressive,
    check_projection_equality,
    construct_s2,
    mapping_m,
    product,
    sufficient_alpha_bound,
)
from ltsim.casestudies import FaaConfig, build_faa_impl, build_faa_spec, build_program

from conftest import internal, make_lts


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
    assert all("image" in u.meta for u in nodes)
    assert mt.link(mt.concrete.root) is mt.image.root
    assert mt.conflicts == []


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
    concrete, image = TracePrefixTree(0, depth), TracePrefixTree(0, depth)
    u, v = concrete.root, image.root
    u.meta["image"] = v
    for _ in range(depth):
        u, v = concrete.extend(u, x, 0), image.extend(v, x, 0)
        u.meta["image"] = v
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
        mt.concrete.extend(root, a, 0).meta["image"] = w
    res = check_lemma(4, mt)
    assert not res.ok and res.checked == 2
    assert res.counterexample == (
        "image prefix x is shared by x and y, which share no governing concrete prefix"
    )


# --- the derived scheduler ----------------------------------------------------


def test_s2_schedules_image_annotations(plain):
    mt, s2 = plain
    for v in mt.image.nodes():
        value = v.meta.get("s2")
        if value is not None:
            assert s2.schedule(v.trace()) == value


def test_s2_idles_off_image(plain):
    mt, s2 = plain
    idle2 = mt.prod2.alphabet.idle
    ghost = Action("never", ActionKind.CALL, thread=9)
    assert s2.schedule((ghost,)) == {idle2}
    # a real prefix continued by a non-scheduled action is also off-image
    root_value = mt.image.root.meta["s2"]
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
    target = next(v for v in deep.image.nodes() if v.depth == 8 and v.meta.get("s2"))

    s2 = construct_s2(shallow)
    assert s2.schedule(target.trace()) == target.meta["s2"]
    assert s2.mt.depth > 4  # the tree was rebuilt deeper

    frozen = construct_s2(
        build_f(prod1, ObjectFirstStrategy(prod1), prod2, res.certificate, depth=4),
        auto_deepen=False,
    )
    with pytest.raises(DepthExhausted):
        frozen.schedule(target.trace())


def test_construct_s2_rejects_foreign_scheduler(plain):
    mt, _ = plain
    with pytest.raises(ContractViolation, match="does not match"):
        construct_s2(mt, s1=TableScheduler({}))


# --- trace set comparisons -------------------------------------------------------


def test_image_equality_frozen(plain):
    mt, s2 = plain
    eq = check_image_equality(mt, s2)
    assert eq.ok, eq.counterexample
    assert eq.compare_length == 12
    assert eq.lhs_size == eq.rhs_size == 19


def test_projection_equality_frozen(plain):
    mt, s2 = plain
    eq = check_projection_equality(mt, s2, mt.prod1.alphabet.program, depth=8)
    assert eq.ok, eq.counterexample
    assert eq.compare_length == 8
    assert eq.lhs_size == eq.rhs_size == 5


def test_projection_equality_catches_a_wrong_scheduler(plain):
    """An abstract scheduler that refuses all work after the first call
    produces a different projected language."""
    mt, _ = plain
    idle2 = mt.prod2.alphabet.idle

    class LazyS2:
        def schedule(self, trace):
            if len(trace) == 0:
                return mt.image.root.meta["s2"]
            return frozenset({idle2}) if mt.prod2.alphabet.idle else frozenset()

    eq = check_projection_equality(mt, LazyS2(), mt.prod1.alphabet.program, depth=8)
    assert not eq.ok
    assert "projection" in eq.counterexample
