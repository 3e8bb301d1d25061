"""End-to-end acceptance battery.

Five numbered claims, each recorded through record_criterion so the
terminal summary prints one PASS/FAIL line per criterion:

1. the shipped counter models separate plain forward simulation from
   the progressive variant, with validated artifacts on both sides;
2. the constructed abstract scheduler passes admission, determinism
   and trace-set comparison on the terminating counter variant and on
   a hundred seeded random object pairs;
3. the structural checks pass on every instance of criterion 2, and
   each deliberately planted defect is caught by exactly the check
   aimed at it;
4. the computed greatest simulation relation agrees with a brute-force
   union over all candidate relations on small state spaces;
5. rerunning the command-line battery with a fixed seed reproduces
   every report byte for byte.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import pytest

from conftest import (
    PinnedScheduler,
    derived_object_pair,
    internal,
    make_lts,
    make_universal_client,
    oracle_union,
    random_lts,
    record_criterion,
)
from ltsim import (
    Alphabet,
    ChoiceEntry,
    FaaConfig,
    Lasso,
    MappedTraces,
    ProgressWitness,
    StepNotEnabled,
    StutterCycle,
    StutterEdge,
    TracePrefixTree,
    build_f,
    build_faa_impl,
    build_faa_spec,
    build_program,
    check_admitted,
    check_all_lemmas,
    check_deterministic_scheduler,
    check_forward,
    check_progressive,
    check_s2,
    construct_s2,
    dumps,
    find_divergence,
    make_scheduler,
    product,
    project,
    run_counterexample_suite,
    sufficient_alpha_bound,
    validate_certificate,
    validate_lasso,
    validate_stutter_cycle,
)
from ltsim.casestudies import _non_idle_acyclic
from ltsim.cli import main as cli_main


@contextmanager
def records(criterion: int):
    """Record PASS for the criterion only if the body runs clean."""
    try:
        yield
    except BaseException:
        record_criterion(criterion, False)
        raise
    else:
        record_criterion(criterion, True)


# --- shared model rigs ----------------------------------------------------


@pytest.fixture(scope="module")
def faa():
    cfg = FaaConfig()
    impl = build_faa_impl(cfg)
    spec = build_faa_spec(cfg)
    return SimpleNamespace(
        cfg=cfg,
        impl=impl,
        spec=spec,
        plain=build_faa_impl(FaaConfig(variant="plain")),
        prog=build_program(cfg),
        gamma=impl.alphabet.cr | spec.alphabet.cr,
        bound=sufficient_alpha_bound(spec),
    )


@pytest.fixture(scope="module")
def fwd(faa):
    """Forward simulation from the retrying counter to the atomic one."""
    return check_forward(faa.impl, faa.spec, faa.gamma, alpha_bound=faa.bound)


@pytest.fixture(scope="module")
def refuted(faa):
    """Progressive check on the pair that only simulates plainly."""
    return check_progressive(faa.impl, faa.spec, faa.gamma, alpha_bound=faa.bound)


@pytest.fixture(scope="module")
def plain_rig(faa):
    """Products and certificate for the terminating counter variant."""
    res = check_forward(faa.plain, faa.spec, faa.gamma, alpha_bound=faa.bound)
    assert res.certificate is not None
    prod1 = product(faa.prog, faa.plain)
    prod2 = product(faa.prog, faa.spec)
    return SimpleNamespace(
        cert=res.certificate,
        prod1=prod1,
        prod2=prod2,
        s1=make_scheduler("object-first", prod1),
    )


def fresh_transform(rig, depth: int = 14):
    mt = build_f(rig.prod1, rig.s1, rig.prod2, rig.cert, depth)
    return mt, construct_s2(mt)


def by_label(prod, label: str):
    return next(a for a in prod.alphabet.all_actions if a.label() == label)


# --- criterion 1: the counterexample models ------------------------------


def test_counterexample_models_separate_the_two_simulations(faa, fwd, refuted):
    with records(1):
        # a plain forward simulation exists and replays clause by clause
        assert fwd.complete and fwd.certificate is not None
        assert len(fwd.relation) == 115
        valid, problems = validate_certificate(fwd.certificate, None, faa.impl, faa.spec)
        assert valid and problems == []

        # no progressive one does: a forced stutter cycle, exactly refuted
        assert refuted.verdict == "no" and refuted.complete
        assert refuted.note == "every abstract partner stutters on each cycle step"
        cyc = refuted.cycle
        assert cyc is not None
        assert [e.action.label() for e in cyc.edges] == [
            "ll@2", "sc-fail@1", "ll@1", "sc-fail@2",
        ]
        # one forced partner, the same abstract state all the way around
        assert len({e.partners for e in cyc.edges}) == 1
        assert all(len(e.partners) == 1 for e in cyc.edges)
        valid, problems = validate_stutter_cycle(
            cyc, faa.impl, faa.spec, faa.gamma, faa.bound, refuted.relation
        )
        assert valid and problems == []

        # the alternating strategy starves both assignments forever
        prod = product(faa.prog, faa.impl)
        lasso = find_divergence(
            prod, make_scheduler("ll-alternator", prod), prod.alphabet.gamma_p
        )
        assert lasso is not None
        validate_lasso(prod, lasso)
        assert [a.label() for a in lasso.stem] == ["call@1#1", "call@2#2", "ll@1"]
        assert len(lasso.cycle) == 4
        assert {a.label() for a in lasso.cycle} == {
            "ll@1", "sc-fail@1", "ll@2", "sc-fail@2"
        }
        assert not any(a in prod.alphabet.program for a in lasso.cycle)

        # while the atomic object leaves no silent cycle to schedule
        acyclic, witness = _non_idle_acyclic(product(faa.prog, faa.spec))
        assert acyclic and witness is None
        assert _non_idle_acyclic(prod)[0] is False

        # and the packaged walkthrough agrees with all of the above
        report = run_counterexample_suite()
        assert report.ok and all(step.ok for step in report.steps)


# --- criteria 2 and 3: the scheduler transformation ----------------------


def test_terminating_variant_scheduler_transform(plain_rig):
    transform_ok = checks_ok = False
    try:
        mt, s2 = fresh_transform(plain_rig, depth=14)
        assert mt.concrete.size == 21
        assert mt.image.size == 19
        assert mt.settled_image_length() == 12
        assert mt.conflicts == []

        walk = mt.settled_image_length() - 1
        adm = check_admitted(s2, plain_rig.prod2, walk)
        det = check_deterministic_scheduler(s2, plain_rig.prod2, walk)
        assert adm.ok, adm.detail
        assert det.ok, det.detail
        s2_checks = check_s2(mt, s2, 8)
        images = s2_checks.images
        assert images.ok, images.counterexample
        proj = s2_checks.projections
        assert proj.ok and proj.counterexample is None
        assert proj.compare_length == 8
        transform_ok = True

        results = check_all_lemmas(mt, s2)
        assert [r.lemma for r in results] == [1, 2, 3, 4, 5]
        assert all(r.ok for r in results), [r.counterexample for r in results]
        assert [r.checked for r in results] == [21, 12, 21, 19, 17]
        checks_ok = True
    finally:
        record_criterion(2, transform_ok)
        record_criterion(3, checks_ok)


def test_random_object_pair_corpus():
    """A hundred seeded pairs: transform, scheduler checks, trace equality."""
    client = make_universal_client()
    transform_ok = checks_ok = False
    transform_failures: list = []
    check_failures: list = []
    accepted = 0
    try:
        seed = 0
        while accepted < 100:
            seed += 1
            assert seed <= 400, "generator produced too few usable pairs"
            rng = random.Random(seed)
            o1, o2 = derived_object_pair(rng)
            assert o1.num_states <= 6 and o2.num_states <= 6
            gamma = o1.alphabet.cr | o2.alphabet.cr
            res = check_progressive(
                o1, o2, gamma, alpha_bound=sufficient_alpha_bound(o2)
            )
            if res.verdict != "yes":
                continue
            prod1 = product(client, o1)
            s1 = make_scheduler("object-first", prod1)
            if find_divergence(prod1, s1, prod1.alphabet.gamma_p) is not None:
                continue  # keep to scheduler-terminating concrete systems
            accepted += 1
            prod2 = product(client, o2)
            for depth in (16, 22, 30):
                mt = build_f(prod1, s1, prod2, res.certificate, depth)
                s2 = construct_s2(mt)
                s2_checks = check_s2(mt, s2, 8)
                proj = s2_checks.projections
                if proj.compare_length == 8:
                    break

            settled = mt.settled_image_length()
            walk = settled - 1 if settled is not None else mt.depth
            adm = check_admitted(s2, prod2, walk)
            det = check_deterministic_scheduler(s2, prod2, walk)
            images = s2_checks.images
            good = (
                adm.ok
                and det.ok
                and images.ok
                and proj.ok
                and proj.compare_length == 8
                and not mt.conflicts
            )
            if not good:
                transform_failures.append(
                    (seed, adm.detail, det.detail, images.counterexample,
                     proj.compare_length, proj.counterexample, mt.conflicts[:1])
                )
            bad = [r for r in check_all_lemmas(mt, s2) if not r.ok]
            if bad:
                check_failures.append(
                    (seed, [(r.lemma, r.counterexample) for r in bad])
                )
        transform_ok = not transform_failures
        checks_ok = not check_failures
        assert not transform_failures, transform_failures[:5]
        assert not check_failures, check_failures[:5]
    finally:
        record_criterion(2, transform_ok and accepted == 100)
        record_criterion(3, checks_ok and accepted == 100)


# --- criterion 3: planted defects, each caught by its own check -----------


def test_mutation_missing_initial_pair(faa, fwd):
    with records(3):
        cert = fwd.certificate
        bad = replace(cert, relation=cert.relation - {(faa.impl.initial, faa.spec.initial)})
        valid, problems = validate_certificate(bad, None, faa.impl, faa.spec)
        assert not valid
        assert problems == ["initial pair not in relation"]


def test_mutation_silent_choice_for_observable_step(faa, fwd):
    with records(3):
        cert = fwd.certificate
        hit = None
        for (s1, a, s2), entry in sorted(
            cert.choice.items(), key=lambda kv: (kv[0][0], kv[0][1].label(), kv[0][2])
        ):
            # the empty alpha must replay cleanly and land related, so the
            # projection clause is the only one that can complain
            if project((a,), cert.gamma) and (faa.impl.step(s1, a), s2) in cert.relation:
                hit = (s1, a, s2)
                break
        assert hit is not None
        choice = dict(cert.choice)
        choice[hit] = ChoiceEntry((), hit[2])
        valid, problems = validate_certificate(
            replace(cert, choice=choice), None, faa.impl, faa.spec
        )
        assert not valid
        assert len(problems) == 1 and problems[0].startswith("projection mismatch")


def test_mutation_retargeted_choice(faa, fwd):
    with records(3):
        cert = fwd.certificate
        hit = None
        for (s1, a, s2), entry in sorted(
            cert.choice.items(), key=lambda kv: (kv[0][0], kv[0][1].label(), kv[0][2])
        ):
            if not entry.alpha:
                continue
            s1n = faa.impl.step(s1, a)
            other = next(
                (
                    t
                    for t in range(faa.spec.num_states)
                    if t != entry.target and (s1n, t) in cert.relation
                ),
                None,
            )
            if other is not None:
                hit = ((s1, a, s2), entry, other)
                break
        assert hit is not None
        key, entry, other = hit
        choice = dict(cert.choice)
        choice[key] = ChoiceEntry(entry.alpha, other)
        valid, problems = validate_certificate(
            replace(cert, choice=choice), None, faa.impl, faa.spec
        )
        assert not valid
        assert len(problems) == 1 and "alpha lands in" in problems[0]


def test_mutation_deleted_choice_entry(faa, fwd):
    with records(3):
        cert = fwd.certificate
        key = sorted(cert.choice, key=lambda k: (k[0], k[1].label(), k[2]))[7]
        choice = dict(cert.choice)
        del choice[key]
        valid, problems = validate_certificate(
            replace(cert, choice=choice), None, faa.impl, faa.spec
        )
        assert not valid
        assert len(problems) == 1 and problems[0].startswith("no choice for")


def test_mutation_deleted_landing_pair(faa, fwd):
    with records(3):
        cert = fwd.certificate
        landings = set()
        for s1, s2 in cert.relation:
            for a, s1n in faa.impl.out_edges(s1):
                landings.add((s1n, cert.choice[(s1, a, s2)].target))
        victim = sorted(
            p
            for p in landings
            if p != (faa.impl.initial, faa.spec.initial) and p in cert.relation
        )[0]
        valid, problems = validate_certificate(
            replace(cert, relation=cert.relation - {victim}), None, faa.impl, faa.spec
        )
        assert not valid
        assert problems
        assert all("not in relation" in p and "initial" not in p for p in problems)


def test_mutation_raised_rank_on_stutter(faa, plain_rig):
    with records(3):
        res = check_progressive(faa.plain, faa.spec, faa.gamma, alpha_bound=faa.bound)
        assert res.verdict == "yes" and res.witness is not None
        cert = res.certificate
        assert validate_certificate(cert, res.witness, faa.plain, faa.spec)[0]
        hit = None
        for (s1, a, s2), entry in sorted(
            cert.choice.items(), key=lambda kv: (kv[0][0], kv[0][1].label(), kv[0][2])
        ):
            if not entry.alpha:
                s1n = faa.plain.step(s1, a)
                if res.witness.of(s1n) < res.witness.of(s1):
                    hit = (s1, s1n)
                    break
        assert hit is not None
        rank = dict(res.witness.rank)
        rank[hit[1]] = res.witness.of(hit[0])
        valid, problems = validate_certificate(
            cert, ProgressWitness(rank), faa.plain, faa.spec
        )
        assert not valid
        assert problems and all("rank does not descend" in p for p in problems)
        # the forward half of the certificate is untouched
        assert validate_certificate(cert, None, faa.plain, faa.spec) == (True, [])


def test_mutation_unrelated_cycle_partner(faa, refuted):
    with records(3):
        cyc = refuted.cycle
        e0 = cyc.edges[0]
        hit = None
        for q in range(faa.spec.num_states):
            if (e0.source, q) in refuted.relation:
                continue
            mutant = StutterCycle((replace(e0, partners=(q,)),) + cyc.edges[1:])
            valid, problems = validate_stutter_cycle(
                mutant, faa.impl, faa.spec, faa.gamma, faa.bound, refuted.relation
            )
            if not valid and problems == [
                f"edge 0: partner {q} not related to {e0.source}"
            ]:
                hit = q
                break
        assert hit is not None


def test_mutation_broken_cycle_chain(faa, refuted):
    with records(3):
        edges = list(refuted.cycle.edges)
        edges[1], edges[2] = edges[2], edges[1]
        valid, problems = validate_stutter_cycle(
            StutterCycle(tuple(edges)),
            faa.impl,
            faa.spec,
            faa.gamma,
            faa.bound,
            refuted.relation,
        )
        assert not valid
        assert problems and all("does not chain" in p for p in problems)


def test_mutation_partner_with_silent_escape():
    with records(3):
        i, j, esc = internal("i"), internal("j"), internal("escape")
        silent = lambda acts: Alphabet(  # noqa: E731 - three throwaway alphabets
            frozenset(), frozenset(), frozenset(), frozenset(acts)
        )
        concrete = make_lts([(0, i, 1), (1, j, 0)], 2, silent({i, j}))
        abstract = make_lts([(0, esc, 1)], 2, silent({esc}))
        cycle = StutterCycle(
            (StutterEdge(0, i, 1, (0,)), StutterEdge(1, j, 0, (1,)))
        )
        relation = frozenset({(0, 0), (1, 1)})
        valid, problems = validate_stutter_cycle(
            cycle, concrete, abstract, frozenset(), 4, relation
        )
        assert not valid
        assert problems == ["edge 0: partner 0 has a non-stuttering match"]


def test_mutation_corrupted_lasso_cycle(faa):
    with records(3):
        prod = product(faa.prog, faa.impl)
        lasso = find_divergence(
            prod, make_scheduler("ll-alternator", prod), prod.alphabet.gamma_p
        )
        validate_lasso(prod, lasso)
        with pytest.raises(StepNotEnabled):
            validate_lasso(prod, Lasso(lasso.stem, lasso.cycle[1:]))


def test_mutation_scheduler_goes_empty(plain_rig):
    with records(3):
        _, s2 = fresh_transform(plain_rig)
        mutant = PinnedScheduler(s2, (), frozenset())
        adm = check_admitted(mutant, plain_rig.prod2, 1)
        assert not adm.ok and adm.detail == "scheduled set is empty"
        assert check_deterministic_scheduler(mutant, plain_rig.prod2, 1).ok


def test_mutation_scheduler_picks_disabled_action(plain_rig):
    with records(3):
        _, s2 = fresh_transform(plain_rig)
        call1 = by_label(plain_rig.prod2, "call@1#1")
        assert plain_rig.prod2.step(plain_rig.prod2.step(plain_rig.prod2.initial, call1), call1) is None
        mutant = PinnedScheduler(s2, (call1,), frozenset({call1}))
        adm = check_admitted(mutant, plain_rig.prod2, 1)
        assert not adm.ok and adm.detail == "scheduled action call@1#1 is not enabled"
        assert check_deterministic_scheduler(mutant, plain_rig.prod2, 1).ok


def test_mutation_scheduler_mixes_object_actions(plain_rig):
    with records(3):
        _, s2 = fresh_transform(plain_rig)
        prod2 = plain_rig.prod2
        call1 = by_label(prod2, "call@1#1")
        lin1 = by_label(prod2, "lin@1#0")
        call2 = by_label(prod2, "call@2#2")
        after = prod2.step(prod2.initial, call1)
        assert prod2.step(after, lin1) is not None
        assert prod2.step(after, call2) is not None
        mutant = PinnedScheduler(s2, (call1,), frozenset({lin1, call2}))
        det = check_deterministic_scheduler(mutant, prod2, 1)
        assert not det.ok
        assert det.detail == (
            "scheduled set {call@2#2, lin@1#0} is neither program-only nor a singleton"
        )
        assert check_admitted(mutant, prod2, 1).ok


def expect_exactly(results, failing, fragment):
    assert [r.ok for r in results] == [i != failing for i in (1, 2, 3, 4, 5)], [
        (r.lemma, r.counterexample) for r in results
    ]
    assert fragment in results[failing - 1].counterexample


def test_mutation_link_map_overshoots(plain_rig):
    with records(3):
        mt, s2 = fresh_transform(plain_rig)
        taken = {project(v.trace(), mt.gamma_p) for _, v in mt.linked()}
        hit = None
        for u in mt.concrete.leaves():
            v = u.image
            if v.scheduled is not None:
                continue  # an annotated image node would also trip check 5
            for g in sorted(plain_rig.prod1.alphabet.program, key=lambda a: a.label()):
                if project(v.trace(), mt.gamma_p) + (g,) not in taken:
                    hit = (u, v, g)
                    break
            if hit:
                break
        assert hit is not None
        u, v, g = hit
        u.image = mt.image.extend(v, g, v.state)
        expect_exactly(check_all_lemmas(mt, s2), 1, "projections differ")


def test_mutation_phantom_sibling_branches(plain_rig):
    with records(3):
        mt, s2 = fresh_transform(plain_rig)
        root = mt.concrete.root
        for name in ("phantom-a", "phantom-b"):
            node = mt.concrete.extend(root, internal(name), root.state)
            node.image = root.image
        expect_exactly(check_all_lemmas(mt, s2), 2, "neither extends the other")


def test_mutation_link_map_shrinks(plain_rig):
    with records(3):
        mt, s2 = fresh_transform(plain_rig)
        idle2 = plain_rig.prod2.alphabet.idle
        hit = None
        for u in mt.concrete.leaves():
            v = u.image
            if v.depth >= 2 and v.action == idle2 and v.parent.action == idle2:
                hit = (u, v)
                break
        assert hit is not None
        u, v = hit
        u.image = v.parent.parent
        expect_exactly(check_all_lemmas(mt, s2), 3, "image shrinks on step")


def test_mutation_shared_image_without_common_prefix(plain_rig):
    with records(3):
        _, s2 = fresh_transform(plain_rig)
        prod1, prod2 = plain_rig.prod1, plain_rig.prod2
        a, b = sorted(prod1.alphabet.program, key=lambda x: x.label())[:2]
        concrete = TracePrefixTree(prod1.initial)
        left = concrete.extend(concrete.root, a, prod1.initial)
        right = concrete.extend(concrete.root, b, prod1.initial)
        image = TracePrefixTree(prod2.initial)
        mid = image.extend(image.root, prod2.alphabet.idle, prod2.initial)
        mt = MappedTraces(concrete, image, prod1, prod2, plain_rig.cert, plain_rig.s1, 3)
        concrete.root.image = image.root
        left.image = image.extend(mid, a, prod2.initial)
        right.image = image.extend(mid, b, prod2.initial)
        results = check_all_lemmas(mt, s2)
        expect_exactly(results, 4, "share no governing concrete prefix")
        assert results[4].checked == 0  # nothing annotated, nothing to disagree with


def test_mutation_scheduler_contradicts_annotations(plain_rig):
    with records(3):
        mt, s2 = fresh_transform(plain_rig)
        liar = PinnedScheduler(s2, (), frozenset({plain_rig.prod2.alphabet.idle}))
        expect_exactly(
            check_all_lemmas(mt, liar), 5, "scheduler disagrees with the annotation"
        )


# --- criterion 4: agreement with the brute-force union --------------------


def test_greatest_simulation_matches_brute_force_union():
    with records(4):
        letters = [internal(x) for x in "abc"]
        total = nonempty = 0
        mismatches = []
        for n1 in (1, 2, 3, 4):
            for n2 in (1, 2, 3, 4):
                for k in (1, 2, 3):
                    for rep in (0, 1):
                        rng = random.Random(1000 * n1 + 100 * n2 + 10 * k + rep)
                        acts = letters[:k]
                        a1 = random_lts(rng, n1, acts)
                        a2 = random_lts(rng, n2, acts)
                        gamma = frozenset(acts[: (k + 1) // 2])
                        bound = sufficient_alpha_bound(a2)
                        expected = oracle_union(a1, a2, gamma, bound)
                        res = check_forward(a1, a2, gamma, alpha_bound=bound)
                        assert res.complete
                        got = (
                            res.relation
                            if res.certificate is not None
                            else frozenset()
                        )
                        total += 1
                        nonempty += bool(expected)
                        if got != expected:
                            mismatches.append(
                                (n1, n2, k, rep, sorted(got), sorted(expected))
                            )
        assert total == 96 and not mismatches, mismatches[:3]
        # both verdicts are well represented across the grid
        assert nonempty >= 40 and total - nonempty >= 10


# --- criterion 5: byte-identical reruns -----------------------------------


@pytest.fixture(scope="module")
def model_files(tmp_path_factory, faa):
    directory = tmp_path_factory.mktemp("acceptance-models")
    paths = {}
    for name, lts in (
        ("impl", faa.impl),
        ("spec", faa.spec),
        ("plain", faa.plain),
        ("prog", faa.prog),
    ):
        path = directory / f"{name}.json"
        path.write_text(dumps(lts))
        paths[name] = str(path)
    return paths


def test_reports_are_reproducible_byte_for_byte(model_files, tmp_path, capsys):
    with records(5):
        out = tmp_path / "out"
        out.mkdir()
        cert_path = str(out / "fwd-cert.json")
        table_path = str(out / "table.json")
        m = model_files
        battery = [
            ["run-casestudy", "--depth", "14"],
            ["check-fwd", m["impl"], m["spec"], "--gamma", "cr",
             "--alpha-bound", "38", "--cert-out", cert_path],
            ["check-prog-fwd", m["impl"], m["spec"], "--gamma", "cr",
             "--alpha-bound", "38"],
            ["check-prog-fwd", m["plain"], m["spec"], "--gamma", "cr",
             "--alpha-bound", "38"],
            ["transform-scheduler", m["prog"], m["plain"], m["spec"],
             "--depth", "14", "--alpha-bound", "38", "--table-out", table_path],
            ["check-lemmas", m["prog"], m["plain"], m["spec"],
             "--depth", "14", "--alpha-bound", "38"],
            ["find-divergence", m["prog"], m["impl"], "--strategy", "ll-alternator"],
        ]
        runs = []
        for _ in (1, 2):
            outcome = []
            for argv in battery:
                code = cli_main(argv + ["--seed", "11"])
                captured = capsys.readouterr()
                assert captured.err == ""
                outcome.append((argv[0], code, captured.out))
            outcome.append(("cert-bytes", 0, (out / "fwd-cert.json").read_bytes()))
            outcome.append(("table-bytes", 0, (out / "table.json").read_bytes()))
            runs.append(outcome)
        assert runs[0] == runs[1]
        # the battery exercised both holding and refuted verdicts
        assert [code for _, code, _ in runs[0][:7]] == [0, 0, 1, 0, 0, 0, 1]


# the whole result list of each structural-check mutation above: which checks
# fail, how many items each check examined, and every counterexample; the
# counts and the first counterexample found depend on the traversal order
MUTATION_RESULTS = {
    "link_map_overshoots": [
        (1, False, 15, "projections differ at call@1#1·ll@1·sc-ok@1·call@2#2·ll@2·sc-ok@2"
         "·ret@1#0·ret@2#1·assign@1#0·assign@2#1·idle·idle·idle·idle"),
        (2, True, 11, None),
        (3, True, 21, None),
        (4, True, 20, None),
        (5, True, 17, None),
    ],
    "phantom_sibling_branches": [
        (1, True, 23, None),
        (2, False, 2, "phantom-a and phantom-b share image projections but neither extends the other"),
        (3, True, 23, None),
        (4, True, 19, None),
        (5, True, 17, None),
    ],
    "link_map_shrinks": [
        (1, True, 21, None),
        (2, True, 12, None),
        (3, False, 16, "image shrinks on step idle after call@1#1·ll@1·sc-ok@1·call@2#2·ll@2·sc-ok@2"
         "·ret@1#0·ret@2#1·assign@1#0·assign@2#1·idle·idle·idle"),
        (4, True, 18, None),
        (5, True, 17, None),
    ],
    "shared_image_without_common_prefix": [
        (1, True, 3, None),
        (2, True, 0, None),
        (3, True, 3, None),
        (4, False, 3, "image prefix idle is shared by assign@1#0 and assign@1#1, "
         "which share no governing concrete prefix"),
        (5, True, 0, None),
    ],
    "scheduler_contradicts_annotations": [
        (1, True, 21, None),
        (2, True, 12, None),
        (3, True, 21, None),
        (4, True, 19, None),
        (5, False, 0, "scheduler disagrees with the annotation at ε"),
    ],
}


@pytest.mark.parametrize("case", MUTATION_RESULTS)
def test_mutation_results_are_pinned(plain_rig, monkeypatch, case):
    seen = []
    monkeypatch.setitem(globals(), "expect_exactly", lambda results, *_: seen.append(results))
    globals()[f"test_mutation_{case}"](plain_rig)
    assert [(r.lemma, r.ok, r.checked, r.counterexample) for r in seen[0]] == MUTATION_RESULTS[case]
