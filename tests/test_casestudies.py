import json
from collections import Counter
from dataclasses import replace

import pytest

from ltsim import (
    IDLE,
    Action,
    ActionKind,
    ModelError,
    ObjectFirstStrategy,
    ProgressWitness,
    check_admitted,
    check_deterministic_scheduler,
    check_forward,
    check_progressive,
    find_divergence,
    is_consistent,
    product,
    project_lasso,
    sufficient_alpha_bound,
    validate_certificate,
    validate_lasso,
    validate_stutter_cycle,
)
from ltsim import casestudies
from ltsim.casestudies import (
    FaaConfig,
    LlAlternatorStrategy,
    _interleave,
    build_faa_impl,
    build_faa_spec,
    build_program,
    run_counterexample_suite,
)
from ltsim.lts import Alphabet, action
from ltsim.modelio import dumps
from helpers import is_idle_complete
from reference_casestudies import (
    reference_build_faa_impl,
    reference_build_faa_spec,
    reference_build_program,
)


def rotations(seq):
    seq = list(seq)
    return [tuple(seq[k:] + seq[:k]) for k in range(len(seq))]


@pytest.fixture(scope="module")
def models():
    cfg = FaaConfig()
    return cfg, build_faa_impl(cfg), build_faa_spec(cfg), build_program(cfg)


# --- configuration ----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ModelError, match="unknown variant"):
        FaaConfig(variant="magic")
    with pytest.raises(ModelError, match="exactly one addend"):
        FaaConfig(threads=(1, 2), addends=(1,))
    with pytest.raises(ModelError, match="distinct"):
        FaaConfig(threads=(1, 1), addends=(1, 2))
    with pytest.raises(ModelError, match="positive"):
        FaaConfig(threads=(1,), addends=(0,))
    with pytest.raises(ModelError, match="thread ids must be positive"):
        FaaConfig(threads=(0, 1), addends=(1, 1))
    with pytest.raises(ModelError, match="thread ids must be positive"):
        FaaConfig(threads=(2, -1), addends=(1, 1))
    assert FaaConfig().total == 3


# --- model shapes, pinned ------------------------------------------------------


def test_frozen_state_counts(models):
    cfg, impl, spec, prog = models
    assert impl.num_states == 33
    assert spec.num_states == 19
    assert prog.num_states == 49
    assert build_faa_impl(FaaConfig(variant="plain")).num_states == 32
    assert product(prog, impl).num_states == 51
    assert product(prog, spec).num_states == 33


def test_models_are_deterministic_and_idle_complete(models):
    _, impl, spec, prog = models
    for m in (impl, spec, prog):
        assert is_idle_complete(m)


def test_impl_alphabet(models):
    cfg, impl, _, _ = models
    labels = {a.label() for a in impl.alphabet.calls}
    assert labels == {"call@1#1", "call@2#2"}
    assert {a.label() for a in impl.alphabet.returns} == {
        f"ret@{t}#{v}" for t in (1, 2) for v in range(4)
    }
    internal = {a.name for a in impl.alphabet.internal}
    assert internal == {"ll", "sc-ok", "sc-fail"}
    # the atomic side linearizes internally instead
    _, _, spec, _ = models
    assert {a.name for a in spec.alphabet.internal} == {"lin"}


def test_the_models_of_one_config_share_their_actions():
    """Every action of the impls, spec and program of one config, in the
    alphabets and on the edges, is one object per field tuple."""
    cfg = FaaConfig((1, 2, 3), (1, 1, 1))
    built = [
        build_faa_impl(cfg),
        build_faa_impl(FaaConfig(cfg.threads, cfg.addends, "plain")),
        build_faa_spec(cfg),
        build_program(cfg),
    ]
    shared = {}
    for m in built:
        for a in (*m.alphabet.all_actions, *(a for _, a, _ in m.edges())):
            assert shared.setdefault(tuple(a), a) is a, a
    assert len(shared) == 1 + 3 + 3 * 4 + 3 * 3 + 3 * 4 + 3 * 4  # idle, call, ret, ll/sc, lin, assign


def test_the_check_path_makes_no_python_action_comparison(monkeypatch):
    """check_forward and validate_certificate on builder-built 4-thread
    invalidating FAA compare no two actions by Action.__eq__ or __ne__:
    every lookup meets the very object it stored."""
    cfg = FaaConfig((1, 2, 3, 4), (1, 1, 1, 1))
    impl, spec = build_faa_impl(cfg), build_faa_spec(cfg)
    calls = []
    for name in ("__eq__", "__ne__"):
        original = getattr(Action, name)

        def counted(self, other, original=original, name=name):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(Action, name, counted)
    assert Action("x", ActionKind.IDLE) != IDLE and calls  # the counters are in place
    calls.clear()
    cert = check_forward(impl, spec, impl.alphabet.cr, alpha_bound=4).certificate
    assert validate_certificate(cert, None, impl, spec) == (True, [])
    assert calls == []


# --- the interleaving engine ------------------------------------------------------

ENGINE_CONFIGS = [
    ((1,), (1,)),
    ((1, 2), (2, 1)),
    ((3, 1), (1, 3)),
    ((1, 2, 3), (2, 1, 1)),
    ((2, 5, 7), (1, 3, 2)),
    ((1, 2, 3, 4), (1, 2, 1, 3)),
]


@pytest.mark.parametrize("threads, addends", ENGINE_CONFIGS)
def test_the_builders_write_what_the_per_state_searches_wrote(threads, addends):
    pairs = [
        (build_faa_impl, reference_build_faa_impl, "invalidating"),
        (build_faa_impl, reference_build_faa_impl, "plain"),
        (build_faa_spec, reference_build_faa_spec, "invalidating"),
        (build_program, reference_build_program, "invalidating"),
    ]
    for build, reference, variant in pairs:
        cfg = FaaConfig(threads, addends, variant)
        got, want = build(cfg), reference(cfg)
        assert got.labels == want.labels
        assert dumps(got) == dumps(want)


def test_each_thread_move_is_asked_once(monkeypatch):
    """Per build, move is asked once per distinct (thread, point, shared):
    380 times for 4-thread invalidating FAA, where asking each thread at
    each state would take 2,841 x 4."""
    asked = Counter()

    def counting(cfg, alphabet, shared, start, move, prefix):
        def counted(i, point, now):
            asked[i, point, now] += 1
            return move(i, point, now)

        return _interleave(cfg, alphabet, shared, start, counted, prefix)

    monkeypatch.setattr(casestudies, "_interleave", counting)
    cfg = FaaConfig((1, 2, 3, 4), (1, 1, 1, 1))
    for build, variant, distinct in (
        (build_faa_impl, "invalidating", 380),
        (build_faa_impl, "plain", 128),
        (build_faa_spec, "invalidating", 88),
        (build_program, "invalidating", 32),  # 4,096 states
    ):
        asked.clear()
        build(FaaConfig(cfg.threads, cfg.addends, variant))
        assert set(asked.values()) == {1}
        assert len(asked) == distinct


@pytest.mark.parametrize(
    "shared, prefix, label", [(None, lambda _: "", "t1:pre"), (7, str, "7 t1:pre")], ids=["bare", "prefixed"]
)
def test_a_move_with_two_successors_for_one_action_is_refused(shared, prefix, label):
    go = action("go", ActionKind.INTERNAL, 1)
    alphabet = Alphabet(frozenset(), frozenset(), frozenset(), frozenset({go}))

    def move(i, point, now):
        if point == ("pre",):
            yield go, ("left",), now
            yield go, ("right",), now

    with pytest.raises(ModelError) as e:
        _interleave(FaaConfig((1,), (1,)), alphabet, shared, ("pre",), move, prefix)
    assert str(e.value) == f"duplicate transition ({label!r}, go@1) with two successors"


# --- plain forward simulation holds ----------------------------------------------


def test_forward_simulation_holds(models):
    _, impl, spec, _ = models
    res = check_forward(
        impl, spec, impl.alphabet.cr, alpha_bound=sufficient_alpha_bound(spec)
    )
    assert res.certificate is not None and res.complete
    assert len(res.relation) == 115
    ok, problems = validate_certificate(res.certificate, None, impl, spec)
    assert ok, problems


# --- but not progressively ---------------------------------------------------------


def test_progressive_simulation_refuted(models):
    _, impl, spec, _ = models
    res = check_progressive(
        impl, spec, impl.alphabet.cr, alpha_bound=sufficient_alpha_bound(spec)
    )
    assert res.verdict == "no"
    assert res.note == "every abstract partner stutters on each cycle step"
    actions = tuple(e.action.label() for e in res.cycle.edges)
    assert actions in rotations(["ll@2", "sc-fail@1", "ll@1", "sc-fail@2"])
    ok, problems = validate_stutter_cycle(
        res.cycle, impl, spec, impl.alphabet.cr,
        sufficient_alpha_bound(spec), res.relation,
    )
    assert ok, problems
    # the cycle lives in the contended window: counter untouched, both pending
    sources = {impl.label_of(e.source) for e in res.cycle.edges}
    assert sources == {
        "n=0 link=1 t1:f3(0) t2:f2",
        "n=0 link=2 t1:f3(0) t2:f3(0)",
        "n=0 link=2 t1:f2 t2:f3(0)",
        "n=0 link=1 t1:f3(0) t2:f3(0)",
    }


def test_plain_variant_is_progressive():
    cfg = FaaConfig(variant="plain")
    impl, spec = build_faa_impl(cfg), build_faa_spec(cfg)
    res = check_progressive(
        impl, spec, impl.alphabet.cr, alpha_bound=sufficient_alpha_bound(spec)
    )
    assert res.verdict == "yes" and res.complete
    ok, problems = validate_certificate(res.certificate, res.witness, impl, spec)
    assert ok, problems


# --- the diverging scheduler ----------------------------------------------------


def test_ll_alternator_diverges(models):
    cfg, impl, _, prog = models
    prod = product(prog, impl)
    s = LlAlternatorStrategy(prod)
    assert check_admitted(s, prod, depth=8).ok
    assert check_deterministic_scheduler(s, prod, depth=8).ok

    lasso = find_divergence(prod, s, prod.alphabet.gamma_p)
    assert lasso is not None
    validate_lasso(prod, lasso)
    assert [a.label() for a in lasso.stem] == ["call@1#1", "call@2#2", "ll@1"]
    assert tuple(a.label() for a in lasso.cycle) in rotations(
        ["ll@2", "sc-fail@1", "ll@1", "sc-fail@2"]
    )
    # the cycle is observably silent: the infinite run has a finite projection
    proj = project_lasso(lasso, prod.alphabet.gamma_p)
    assert [a.label() for a in proj] == ["call@1#1", "call@2#2"]
    assert is_consistent(lasso.unroll(3), s)


def test_plain_variant_does_not_diverge():
    cfg = FaaConfig(variant="plain")
    prod = product(build_program(cfg), build_faa_impl(cfg))
    s = LlAlternatorStrategy(prod)
    assert find_divergence(prod, s, prod.alphabet.gamma_p) is None


def test_object_first_keeps_the_invalidating_counter_live(models):
    """The divergence needs the adversarial alternation; a drain-first
    scheduler finishes both operations."""
    cfg, impl, _, prog = models
    prod = product(prog, impl)
    s = ObjectFirstStrategy(prod)
    assert find_divergence(prod, s, prod.alphabet.gamma_p) is None


# --- the reporting suite ----------------------------------------------------------


def test_suite_passes_and_is_reproducible():
    rep1 = run_counterexample_suite()
    assert [s.name for s in rep1.steps] == [
        "forward-simulation-invalidating",
        "progressive-refuted-invalidating",
        "divergence-invalidating",
        "atomic-completion",
        "transform-terminating-variant",
    ]
    assert rep1.ok and all(s.ok for s in rep1.steps)
    transform = rep1.steps[-1].detail
    assert transform["variant"] == "plain"
    assert transform["extension"] is True

    rep2 = run_counterexample_suite()
    blob1 = json.dumps(rep1.to_dict(), sort_keys=True)
    blob2 = json.dumps(rep2.to_dict(), sort_keys=True)
    assert blob1 == blob2


def test_suite_transforms_only_on_a_valid_progressive_certificate(monkeypatch):
    """Step (e) validates the plain variant's certificate before building the
    derived scheduler on it: all-zero ranks descend on no stutter step."""
    real = casestudies.check_progressive

    def zero_ranks(a1, *args, **kwargs):
        res = real(a1, *args, **kwargs)
        if res.verdict != "yes":
            return res
        return replace(res, witness=ProgressWitness(dict.fromkeys(range(a1.num_states), 0)))

    monkeypatch.setattr(casestudies, "check_progressive", zero_ranks)
    rep = run_counterexample_suite()
    *decided, transform = rep.steps
    assert all(s.ok for s in decided)
    assert (transform.ok, transform.ran_short, rep.verdict) == (False, False, "refuted")
    assert transform.detail["progressive_verdict"] == "yes"
    assert transform.detail["certificate_problems"]
