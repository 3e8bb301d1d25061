"""build_f against the per-step mapping it replaced (reference_build_f.py).

build_f maps and replays each distinct (state, action, image state) once
and shares the result; the trees, annotations, conflicts and errors must
be those of mapping every step on its own.
"""

import random
from collections import Counter

import pytest

from conftest import derived_object_pair, make_universal_client
from reference_build_f import reference_build_f
from ltsim import (
    SimulationCertificate,
    build_f,
    check_progressive,
    make_scheduler,
    product,
    sort_actions,
    sufficient_alpha_bound,
)
from ltsim.casestudies import FaaConfig, build_faa_impl, build_faa_spec, build_program


@pytest.fixture(scope="module")
def plain():
    cfg = FaaConfig(variant="plain")
    impl, spec, prog = build_faa_impl(cfg), build_faa_spec(cfg), build_program(cfg)
    res = check_progressive(impl, spec, impl.alphabet.cr, alpha_bound=sufficient_alpha_bound(spec))
    return product(prog, impl), product(prog, spec), res.certificate


def mapped(mt):
    """Both trees, preorder, with every link and annotation spelled out."""
    concrete = tuple(
        (u.trace(), u.state, tuple(u.children), u.image.trace()) for u in mt.concrete.nodes()
    )
    image = tuple(
        (v.trace(), v.state, tuple(v.children), v.scheduled) for v in mt.image.nodes()
    )
    return concrete, image, tuple(mt.conflicts)


def outcome(run):
    try:
        return mapped(run())
    except Exception as e:  # the error is part of the result compared
        return ("raises", type(e).__name__, str(e))


def assert_agree(prod1, s1, prod2, cert, depth, budgets=(None,)):
    outcomes = []
    for budget in budgets:
        want = outcome(lambda: reference_build_f(prod1, s1, prod2, cert, depth, budget))
        got = outcome(lambda: build_f(prod1, s1, prod2, cert, depth, budget))
        assert got == want, (budget, got, want)
        outcomes.append(got)
    return outcomes


def tampered(cert, relation=None, choices=None):
    return SimulationCertificate(
        cert.relation if relation is None else relation,
        cert.choice if choices is None else choices,
        cert.gamma,
        cert.alpha_bound,
    )


def object_steps(prod1, prod2, mt):
    """(concrete object state, action, abstract object state) of each mapped
    object step, preorder, first occurrences only."""
    keys = {}
    for u in mt.concrete.nodes():
        for a in u.children:
            if a in prod1.alphabet.cr or a in prod1.alphabet.internal:
                keys.setdefault((prod1.part(u.state).obj, a, prod2.part(u.image.state).obj), None)
    return list(keys)


@pytest.mark.parametrize("strategy, depth", [("object-first", 14), ("fifo", 14), ("maximal", 6)])
def test_build_f_agrees_on_the_case_study(plain, strategy, depth):
    prod1, prod2, cert = plain
    s1 = make_scheduler(strategy, prod1)
    (got,) = assert_agree(prod1, s1, prod2, cert, depth)
    if strategy == "maximal":  # a nondeterministic scheduler: diagrams disagree
        assert got[2]


def test_build_f_agrees_on_random_pairs():
    client = make_universal_client()
    kinds = Counter()
    for seed in range(1, 40):
        o1, o2 = derived_object_pair(random.Random(seed))
        res = check_progressive(o1, o2, o1.alphabet.cr | o2.alphabet.cr, alpha_bound=sufficient_alpha_bound(o2))
        if res.certificate is None:
            continue
        prod1, prod2 = product(client, o1), product(client, o2)
        for strategy in ("maximal", "object-first", "fifo"):
            s1 = make_scheduler(strategy, prod1)
            (got,) = assert_agree(prod1, s1, prod2, res.certificate, 5 if strategy == "maximal" else 10)
            kinds[strategy, got[0] == "raises" or bool(got[2])] += 1
    assert kinds["maximal", True] and kinds["object-first", False], kinds


def test_build_f_raises_the_same_error_for_an_unrelated_pair(plain):
    prod1, prod2, cert = plain
    s1 = make_scheduler("object-first", prod1)
    keys = object_steps(prod1, prod2, build_f(prod1, s1, prod2, cert, 8))
    for cs, _, as_ in keys[:: max(1, len(keys) // 4)]:
        broken = tampered(cert, relation=[p for p in cert.relation if p != (cs, as_)])
        (got,) = assert_agree(prod1, s1, prod2, broken, 8)
        assert got == ("raises", "ContractViolation", f"object states ({cs}, {as_}) are not related")


def test_build_f_raises_the_same_error_for_a_missing_choice(plain):
    prod1, prod2, cert = plain
    s1 = make_scheduler("object-first", prod1)
    keys = object_steps(prod1, prod2, build_f(prod1, s1, prod2, cert, 8))
    assert len(keys) > 4
    for key in keys[1:: max(1, len(keys) // 4)]:
        broken = tampered(cert, choices={k: e for k, e in cert.choice.items() if k != key})
        (got,) = assert_agree(prod1, s1, prod2, broken, 8)
        assert got[:2] == ("raises", "ContractViolation") and "has no choice" in got[2]


def long_detour(prod2, state, length):
    """length actions prod2 can take from state (idle once nothing else is
    enabled), then one it cannot."""
    moves = [*sort_actions(prod2.alphabet.non_idle()), prod2.alphabet.idle]
    path = []
    for _ in range(length):
        a = next(a for a in moves if prod2.step(state, a) is not None)
        path.append(a)
        state = prod2.step(state, a)
    return (*path, next(a for a in sort_actions(prod2.alphabet.all_actions) if prod2.step(state, a) is None))


@pytest.mark.parametrize("at", [0, 3])
def test_build_f_raises_the_same_error_when_an_image_does_not_replay(plain, at):
    """A choice whose alpha replays a while, then gets stuck, on a tree
    cut just below the step: over the budgets, the concrete tree outgrows
    the budget, or the image outgrows it before it reaches the stuck
    action, or the image reaches it and fails to replay."""
    prod1, prod2, cert = plain
    s1 = make_scheduler("object-first", prod1)
    good = build_f(prod1, s1, prod2, cert, 6)
    key = object_steps(prod1, prod2, good)[at]
    # the concrete node where the step is first mapped
    u = next(u for u in good.concrete.nodes() for a in u.children
             if (prod1.part(u.state).obj, a, prod2.part(u.image.state).obj) == key)
    choices = dict(cert.choice.items())
    choices[key] = choices[key]._replace(alpha=long_detour(prod2, u.image.state, 8))
    broken = tampered(cert, choices=choices)
    outcomes = assert_agree(prod1, s1, prod2, broken, u.depth + 1, (None, *range(0, 30)))
    kinds = {got[2].split(" ")[0] + " " + got[2].split(" ")[1] for got in outcomes if got[0] == "raises"}
    assert kinds == {"node budget", "image tree", "image of"}, kinds
