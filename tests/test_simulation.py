import collections
import hashlib
import itertools
import os
import random
import sys
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from ltsim import (
    Action,
    ActionKind,
    Alphabet,
    ChoiceEntry,
    Choices,
    ProgressWitness,
    Relation,
    SimulationCertificate,
    certificate_from_dict,
    certificate_to_dict,
    check_forward,
    check_progressive,
    dumps_certificate,
    stutter_cycle_to_dict,
    sufficient_alpha_bound,
    validate_certificate,
    validate_stutter_cycle,
)
from ltsim.casestudies import FaaConfig, build_faa_impl, build_faa_spec
import ltsim.simulation
from ltsim.errors import BudgetExceeded, ParseError
from ltsim.simulation import (
    MatchTable,
    StutterCycle,
    StutterEdge,
    _backtrack,
    _forced_everywhere_edges,
    _greatest_relation,
    _stutter_ranks,
)

from conftest import internal, make_lts, oracle_union, random_lts
from reference_backtrack import reference_backtrack
from reference_greedy import reference_forced_everywhere_edges, reference_greedy_choice
from reference_validator import reference_validate_certificate

A = Action("a", ActionKind.INTERNAL)
B = Action("b", ActionKind.INTERNAL)
I = internal("i")
J = internal("j")

AL2 = Alphabet(frozenset(), frozenset(), frozenset(), frozenset({A, B}))
AL4 = Alphabet(frozenset(), frozenset(), frozenset(), frozenset({A, B, I, J}))
GAMMA = frozenset({A, B})


def obs_chain(*actions):
    """Straight-line LTS over AL4 taking the given actions in order."""
    edges = [(k, a, k + 1) for k, a in enumerate(actions)]
    return make_lts(edges, len(actions) + 1, AL4)


# --- the match table ------------------------------------------------------


def candidates(table, a, s2):
    """a's candidates at s2, read off its search key's column."""
    return table.column(table.key(a))[s2]


def test_candidates_shape_and_order():
    # b0 --i--> b1 --a--> b2, looking for matches of a at b0
    m = obs_chain(I, A)
    table = MatchTable(m, GAMMA, alpha_bound=4)
    cands = candidates(table, A, 0)
    assert cands == (((I, A), 2),)
    # a silent step has the stutter candidate, last
    silent = candidates(table, I, 0)
    assert silent[-1] == ((), 0)
    assert ((I,), 1) in silent


def test_candidates_include_silent_loop_back_to_start():
    """A non-empty silent path returning to the start state is a real
    candidate, distinct from the empty match; dropping it would force a
    stutter on every terminal idle loop."""
    m = make_lts([(0, I, 1), (1, J, 0)], 2, AL4)
    table = MatchTable(m, GAMMA, alpha_bound=4)
    cands = candidates(table, I, 0)
    assert ((I, J), 0) in cands
    assert cands[-1] == ((), 0)


def test_candidates_one_entry_per_landing():
    m = make_lts([(0, I, 1), (0, J, 1), (1, A, 2)], 3, AL4)
    table = MatchTable(m, GAMMA, alpha_bound=4)
    cands = candidates(table, A, 0)
    # two silent routes, one landing: only the first (canonical) survives
    assert cands == (((I, A), 2),)


def test_alpha_bound_truncation_is_reported():
    concrete = obs_chain(A)
    abstract = obs_chain(I, J, I, J, I, A)
    res = check_forward(concrete, abstract, GAMMA, alpha_bound=4)
    assert res.certificate is None and not res.complete  # inconclusive
    enough = check_forward(
        concrete, abstract, GAMMA, alpha_bound=sufficient_alpha_bound(abstract)
    )
    assert enough.certificate is not None and enough.complete


# --- forward simulation on hand pairs ---------------------------------------


def test_identity_simulation():
    m = make_lts([(0, A, 1), (1, B, 0)], 2, AL2)
    res = check_forward(m, m, GAMMA, alpha_bound=4)
    assert res.certificate is not None
    assert {(s, s) for s in range(2)} <= res.relation
    ok, problems = validate_certificate(res.certificate, None, m, m)
    assert ok, problems


def test_stutter_chain_simulates():
    concrete = obs_chain(I, A)
    abstract = obs_chain(A)
    res = check_forward(concrete, abstract, GAMMA, alpha_bound=4)
    assert res.certificate is not None
    assert {(0, 0), (1, 0), (2, 1)} <= res.relation
    entry = res.certificate.choice[(0, I, 0)]
    assert entry.alpha == ()  # the internal step stutters
    ok, problems = validate_certificate(res.certificate, None, concrete, abstract)
    assert ok, problems


def test_mismatched_observable_refutes():
    concrete = obs_chain(A)
    abstract = obs_chain(B)
    res = check_forward(concrete, abstract, GAMMA, alpha_bound=4)
    assert res.certificate is None and res.complete
    assert (0, 0) not in res.relation
    # no landing of a at abstract state 0 is related to the concrete successor
    table = MatchTable(abstract, GAMMA, alpha_bound=4)
    assert all((1, t) not in res.relation for _, t in candidates(table, A, 0))


def test_deletion_cascades_to_predecessors():
    concrete = obs_chain(A, B)
    abstract = obs_chain(A, A)
    res = check_forward(concrete, abstract, GAMMA, alpha_bound=4)
    assert res.certificate is None and res.complete
    # (1,1) dies on the b step, which kills (0,0) in turn
    assert (1, 1) not in res.relation and (0, 0) not in res.relation


def test_a_step_with_over_255_landings_keeps_an_exact_count():
    # abstract: 0 --i_k--> 1+k --a--> 1+n+k --b--> 1+2n+k, and only the
    # last branch can take a second b
    n = 300
    hops = [internal(f"i{k}") for k in range(n)]
    edges = [(0, h, 1 + k) for k, h in enumerate(hops)]
    edges += [(1 + k, A, 1 + n + k) for k in range(n)]
    edges += [(1 + n + k, B, 1 + 2 * n + k) for k in range(n)] + [(3 * n, B, 3 * n + 1)]
    alphabet = Alphabet(frozenset(), frozenset(), frozenset(), frozenset({A, B, *hops}))
    abstract = make_lts(edges, 3 * n + 2, alphabet)
    concrete = obs_chain(A, B, B)
    res = check_forward(concrete, abstract, GAMMA, alpha_bound=2)
    # all 300 landings of a at 0 are counted; 299 die later, on the second b
    assert all((1, 1 + n + k) not in res.relation for k in range(n - 1))
    assert (1, 2 * n) in res.relation
    assert res.certificate is not None
    assert validate_certificate(res.certificate, None, concrete, abstract) == (True, [])


# --- progressive verdicts ----------------------------------------------------


def test_progressive_yes_when_stutters_drain():
    concrete = obs_chain(I, A)
    abstract = obs_chain(A)
    res = check_progressive(concrete, abstract, GAMMA, alpha_bound=4)
    assert res.verdict == "yes"
    assert res.witness is not None
    assert res.witness.of(0) > res.witness.of(1)  # rank drops on the stutter
    ok, problems = validate_certificate(res.certificate, res.witness, concrete, abstract)
    assert ok, problems


def test_progressive_no_when_every_partner_stutters():
    """Concrete silent loop against a silent-free abstract system: every
    step of the loop is forced to stutter for every partner, the fast
    refutation path."""
    concrete = make_lts([(0, I, 1), (1, J, 0)], 2, AL4)
    abstract = make_lts([(0, A, 1)], 2, AL4)
    res = check_progressive(concrete, abstract, GAMMA, alpha_bound=4)
    assert res.verdict == "no"
    assert res.note == "every abstract partner stutters on each cycle step"
    assert res.cycle is not None
    ok, problems = validate_stutter_cycle(
        res.cycle, concrete, abstract, GAMMA, 4, res.relation
    )
    assert ok, problems
    assert sorted(res.cycle.states()) == [0, 1]


def test_a_cycle_that_stutters_on_an_observable_step_is_rejected():
    """An observable step's matches are searched under its own key: a
    emitted once lands back in the relation, so its stutter is not forced."""
    concrete = make_lts([(0, A, 1), (1, J, 0)], 2, AL4)
    abstract = make_lts([(0, A, 1)], 2, AL4)
    cycle = StutterCycle((StutterEdge(0, A, 1, (0,)), StutterEdge(1, J, 0, (1,))))
    ok, problems = validate_stutter_cycle(cycle, concrete, abstract, GAMMA, 4, {(0, 0), (1, 1)})
    assert not ok
    assert problems == ["edge 0: partner 0 has a non-stuttering match"]


@pytest.mark.parametrize(
    "edges, relation, expected",
    [
        # partner -1 would index the match column from its end, at the
        # sink state 1 that has no match, and the cycle would validate
        (
            ((0, I, 1, (-1,)), (1, J, 0, (-1,))),
            {(0, -1), (1, -1)},
            ["edge 0: partner -1 is outside the abstract states",
             "edge 1: partner -1 is outside the abstract states"],
        ),
        # partner 2 is past the end of the match column
        (
            ((0, I, 1, (0, 2)), (1, J, 0, (1,))),
            {(0, 0), (0, 2), (1, 1)},
            ["edge 0: partner 2 is outside the abstract states"],
        ),
        # source -1 would read state 1, whose step j does reach 0
        (
            ((-1, J, 0, (1,)), (0, I, -1, (1,))),
            {(-1, 1), (0, 1)},
            ["edge 0: source -1 is outside the concrete states",
             "edge 1: target -1 is outside the concrete states"],
        ),
    ],
    ids=["partner-below", "partner-past", "source-and-target"],
)
def test_a_cycle_state_outside_its_lts_is_a_problem(edges, relation, expected):
    concrete = make_lts([(0, I, 1), (1, J, 0)], 2, AL4)
    abstract = make_lts([(0, A, 1)], 2, AL4)
    cycle = StutterCycle(tuple(StutterEdge(*e) for e in edges))
    assert validate_stutter_cycle(cycle, concrete, abstract, GAMMA, 4, relation) == (False, expected)


@pytest.mark.parametrize("bound", [0, -1])
def test_a_cycle_under_a_bound_below_one_is_a_problem(bound):
    """Reported as validate_certificate reports it, not raised; the other
    checks still run, and no match is searched."""
    a1, a2, gamma, _ = faa_case("invalidating", threads=2)
    res = check_progressive(a1, a2, gamma, alpha_bound=4)
    assert res.verdict == "no"
    assert validate_stutter_cycle(res.cycle, a1, a2, gamma, 4, res.relation) == (True, [])
    below = f"alpha bound {bound} is below 1"
    assert validate_stutter_cycle(res.cycle, a1, a2, gamma, bound, res.relation) == (False, [below])
    # a partner that is not related, and one with a non-stuttering match at bound 4
    concrete = make_lts([(0, A, 1), (1, J, 0)], 2, AL4)
    abstract = make_lts([(0, A, 1)], 2, AL4)
    cycle = StutterCycle((StutterEdge(0, A, 1, (0,)), StutterEdge(1, J, 0, (1,))))
    assert validate_stutter_cycle(cycle, concrete, abstract, GAMMA, bound, {(0, 0)}) == (
        False, [below, "edge 1: partner 1 not related to 1"]
    )


def test_progressive_no_via_complete_search():
    """Concrete silent loop against a finite silent chain: each single
    pair has an escape, but every landing assignment ends up cycling, so
    only the exhaustive search can refute."""
    concrete = make_lts([(0, I, 1), (1, J, 0)], 2, AL4)
    abstract = obs_chain(I)
    res = check_progressive(concrete, abstract, frozenset({A, B}), alpha_bound=4)
    assert res.verdict == "no"
    assert res.note == "no landing assignment admits a rank (complete search)"
    ok, problems = validate_stutter_cycle(
        res.cycle, concrete, abstract, frozenset({A, B}), 4, res.relation
    )
    assert ok, problems


def test_progressive_yes_via_backtracking():
    """The greedy assignment trips over pairs with a dead abstract
    partner, but steering every landing toward the looping partner
    yields a stutter-free assignment."""
    concrete = make_lts([(0, I, 1), (1, J, 0)], 2, AL4)
    abstract = make_lts([(0, I, 0)], 2, AL4)  # state 1 is a dead partner
    res = check_progressive(concrete, abstract, GAMMA, alpha_bound=4)
    assert res.verdict == "yes"
    assert res.certificate is not None
    assert {(0, 1), (1, 1)} & res.certificate.relation == set()
    ok, problems = validate_certificate(res.certificate, res.witness, concrete, abstract)
    assert ok, problems


def test_progressive_unknown_when_budget_runs_out():
    concrete = make_lts([(0, I, 1), (1, J, 0)], 2, AL4)
    abstract = make_lts([(0, I, 0)], 2, AL4)
    res = check_progressive(concrete, abstract, GAMMA, alpha_bound=4, backtrack_budget=0)
    assert res.verdict == "unknown"
    assert "budget 0 exceeded" in res.note
    assert res.cycle is not None  # best cycle found so far, for diagnosis


def test_progressive_no_forward():
    res = check_progressive(obs_chain(A), obs_chain(B), GAMMA, alpha_bound=4)
    assert res.verdict == "no-forward"
    assert res.certificate is None and res.cycle is None


def test_terminal_idle_loops_do_not_refute():
    """Regression: both sides end in an idle self-loop; the idle steps
    must match through the abstract idle loop instead of stuttering
    forever."""
    idle = Alphabet(frozenset(), frozenset(), frozenset(), frozenset({A})).idle
    concrete = make_lts([(0, A, 1), (1, idle, 1)], 2, AL2)
    abstract = make_lts([(0, A, 1), (1, idle, 1)], 2, AL2)
    res = check_progressive(concrete, abstract, GAMMA, alpha_bound=4)
    assert res.verdict == "yes"
    entry = res.certificate.choice[(1, idle, 1)]
    assert entry.alpha == (idle,)


# --- agreement with the brute-force oracle -----------------------------------


def brute_expectation(a1, a2, gamma):
    bound = sufficient_alpha_bound(a2)
    res = check_forward(a1, a2, gamma, alpha_bound=bound)
    assert res.complete
    got = res.relation if res.certificate is not None else frozenset()
    want = oracle_union(a1, a2, gamma, bound)
    assert got == want
    if res.certificate is not None:
        ok, problems = validate_certificate(res.certificate, None, a1, a2)
        assert ok, problems
    return got


def test_oracle_agreement_on_hand_pairs():
    brute_expectation(obs_chain(I, A), obs_chain(A), GAMMA)
    brute_expectation(obs_chain(A), obs_chain(B), GAMMA)
    brute_expectation(obs_chain(A, B), obs_chain(A, A), GAMMA)
    loop = make_lts([(0, I, 1), (1, J, 0)], 2, AL4)
    brute_expectation(loop, obs_chain(I), frozenset({A, B}))


def test_oracle_agreement_on_random_pairs():
    rng = random.Random(2024)
    acts = [A, B, I]
    for _ in range(12):
        a1 = random_lts(rng, rng.randint(1, 3), acts)
        a2 = random_lts(rng, rng.randint(1, 3), acts)
        gamma = frozenset(x for x in acts if rng.random() < 0.5)
        brute_expectation(a1, a2, gamma)


# --- certificates as data ------------------------------------------------------


@pytest.mark.parametrize("returns", ["i", "j"])
def test_a_certificate_label_is_read_as_the_one_action_it_names(returns):
    """A label internal in the concrete object and a return in the abstract
    one is refused when the certificate names it, here as a step's action,
    and not otherwise."""
    concrete = make_lts([(0, A, 1), (1, I, 0)], 2, AL4)
    ret = Action(returns, ActionKind.RETURN)
    abstract = make_lts([(0, A, 0)], 1, Alphabet(frozenset(), frozenset(), frozenset({ret}), frozenset({A})))
    res = check_forward(concrete, abstract, {A}, alpha_bound=2)
    data = certificate_to_dict(res.certificate)
    if returns == "j":  # j names two actions too, but the certificate never names j
        assert certificate_from_dict(data, concrete, abstract)[0] == res.certificate
    else:
        with pytest.raises(ParseError) as e:
            certificate_from_dict(data, concrete, abstract)
        assert str(e.value) == (
            "action label 'i' in certificate names two actions, of kinds internal and return"
        )


def test_certificate_round_trip():
    concrete = obs_chain(I, A)
    abstract = obs_chain(A)
    res = check_progressive(concrete, abstract, GAMMA, alpha_bound=4)
    data = certificate_to_dict(res.certificate, res.witness)
    cert, witness = certificate_from_dict(data, concrete, abstract)
    assert cert.relation == res.certificate.relation
    assert cert.choice == res.certificate.choice
    assert cert.gamma == res.certificate.gamma
    assert witness.rank == res.witness.rank
    assert dumps_certificate(cert, witness) == dumps_certificate(res.certificate, res.witness)


def test_validate_certificate_rejects_a_broken_one():
    concrete = obs_chain(I, A)
    abstract = obs_chain(A)
    cert = check_forward(concrete, abstract, GAMMA, alpha_bound=4).certificate
    broken = SimulationCertificate(
        relation=cert.relation,
        choice={**cert.choice, (0, I, 0): ChoiceEntry((A,), 1)},
        gamma=cert.gamma,
        alpha_bound=cert.alpha_bound,
    )
    ok, problems = validate_certificate(broken, None, concrete, abstract)
    assert not ok
    assert any("projection mismatch" in p for p in problems)


def test_stutter_cycle_to_dict_is_plain_data():
    concrete = make_lts([(0, I, 1), (1, J, 0)], 2, AL4)
    abstract = make_lts([(0, A, 1)], 2, AL4)
    res = check_progressive(concrete, abstract, GAMMA, alpha_bound=4)
    data = stutter_cycle_to_dict(res.cycle)
    assert [e["action"] for e in data["edges"]] == [
        e.action.label() for e in res.cycle.edges
    ]


# --- agreement with the plain sweep ------------------------------------------


def sweep_oracle(a1, a2, gamma, alpha_bound):
    """Sweep-until-stable refinement: the reference for the worklist.

    Sweeps all pairs in product order until none is deleted.  Returns the
    relation, the deletion count, complete and the greedy choices;
    complete is False when a search it consulted was cut.  Candidates and
    cut status come from per_action_search, not from MatchTable.
    """
    searched = {}  # (a, s2) -> (candidates, cut), for each pair consulted

    def cands(a, s2):
        if (a, s2) not in searched:
            searched[(a, s2)] = per_action_search(a2, gamma, alpha_bound, a, s2)
        return searched[(a, s2)][0]

    relation = {
        (s1, s2)
        for s1 in range(a1.num_states)
        for s2 in range(a2.num_states)
    }
    deletions = []
    changed = True
    while changed:
        changed = False
        for s1, s2 in itertools.product(range(a1.num_states), range(a2.num_states)):
            if (s1, s2) not in relation:
                continue
            for a, s1n in a1.out_edges(s1):
                if not any(
                    (s1n, t) in relation for _, t in cands(a, s2)
                ):
                    relation.discard((s1, s2))
                    deletions.append((s1, s2, a))
                    changed = True
                    break
    complete = not any(cut for _, cut in searched.values())
    choice = {}
    if (a1.initial, a2.initial) in relation:
        for s1, s2 in sorted(relation):
            for a, s1n in a1.out_edges(s1):
                for alpha, t in cands(a, s2):
                    if (s1n, t) in relation:
                        choice[(s1, a, s2)] = (alpha, t)
                        break
    return frozenset(relation), len(deletions), complete, choice


def differential_cases(seed=7, instances=400):
    rng = random.Random(seed)
    for _ in range(instances):
        acts = [A, B, I, J][: rng.randint(2, 4)]
        density = rng.choice([0.3, 0.5, 0.7, 0.9])
        a1 = random_lts(rng, rng.randint(1, 7), acts, density)
        a2 = random_lts(rng, rng.randint(1, 7), acts, density)
        gamma = frozenset(x for x in acts if rng.random() < 0.5)
        for bound in (1, 2, 3):
            yield a1, a2, gamma, bound


def test_worklist_agrees_with_the_sweep():
    cases = incomplete = 0
    for a1, a2, gamma, bound in differential_cases():
        relation, deleted, complete, choice = sweep_oracle(a1, a2, gamma, bound)
        res = check_forward(a1, a2, gamma, alpha_bound=bound)
        assert res.relation == relation
        assert res.deleted == deleted
        assert res.complete == complete
        got = {} if res.certificate is None else {
            key: (entry.alpha, entry.target) for key, entry in res.certificate.choice.items()
        }
        assert got == choice
        # the fixpoint is shared; a zero budget skips the backtracking search
        prog = check_progressive(a1, a2, gamma, alpha_bound=bound, backtrack_budget=0)
        assert prog.relation == relation and prog.complete == complete
        cases += 1
        incomplete += not complete
    assert cases >= 1000
    assert incomplete > 0  # the bound matters in some cases


def faa_case(variant, threads=3):
    cfg = FaaConfig(tuple(range(1, threads + 1)), (1,) * threads, variant)
    impl = build_faa_impl(cfg)
    return impl, build_faa_spec(cfg), impl.alphabet.cr, 4


@pytest.mark.parametrize("variant", ["invalidating", "plain"])
def test_faa_three_threads_agrees_with_the_sweep(variant):
    a1, a2, gamma, bound = faa_case(variant)
    relation, deleted, complete, choice = sweep_oracle(a1, a2, gamma, bound)
    res = check_forward(a1, a2, gamma, alpha_bound=bound)
    assert res.relation == relation
    assert res.deleted == deleted
    assert res.complete == complete
    assert res.certificate is not None
    assert {k: (e.alpha, e.target) for k, e in res.certificate.choice.items()} == choice


def choice_digest(choice):
    """sha256 of the (s1, action label, s2, alpha labels, target) stream, one
    line per choice in iteration order."""
    h = hashlib.sha256()
    for (s1, a, s2), entry in choice.items():
        alpha = " ".join(b.label() for b in entry.alpha)
        h.update(f"{s1} {a.label()} {s2} {alpha} {entry.target}\n".encode())
    return h.hexdigest()


def relation_digest(relation):
    """sha256 of the (s1, s2) stream, one line per pair in iteration order."""
    h = hashlib.sha256()
    for s1, s2 in relation:
        h.update(f"{s1} {s2}\n".encode())
    return h.hexdigest()


# choice count and choice_digest per variant, recorded before choices were
# kept per step block
FOUR_THREAD_CHOICES = {
    "invalidating": (54_845, "87fa8e75d5a15b66446d2c4f181c9358328581bd587919e3c55ca7a761a8f654"),
    "plain": (53_313, "2f7677f60e07365b63e63bb5597917c8ad854d19ebdb50499fc28a77944a6181"),
}


# relation_digest per variant, recorded while rows kept abstract state s2
# at bit 8 * s2
FOUR_THREAD_RELATIONS = {
    "invalidating": "5e8a6cb08e40ce3107ef02e6383fe5485e6fc1c1adacf473d313e36533a0a9b1",
    "plain": "67e9b294f81cf85b49117d0c57551523ed6f77df686d19a180e77d6393e1b96f",
}


@pytest.mark.parametrize(
    "variant, size, deleted",
    [("invalidating", 23_501, 2_047_588), ("plain", 23_022, 1_921_950)],
)
def test_faa_four_threads_forward_pins(variant, size, deleted):
    # the only FAA case where the alpha bound cuts searches (none at 3 threads)
    # and the only one with more than 255 abstract states
    a1, a2, gamma, bound = faa_case(variant, threads=4)
    res = check_forward(a1, a2, gamma, alpha_bound=bound)
    assert (len(res.relation), res.complete, res.deleted) == (size, False, deleted)
    assert relation_digest(res.relation) == FOUR_THREAD_RELATIONS[variant]
    assert res.certificate is not None
    cert = res.certificate
    assert (len(cert.choice), choice_digest(cert.choice)) == FOUR_THREAD_CHOICES[variant]


def test_faa_five_threads_relation_pin():
    # recorded before the fixpoint decoded each row value once; the
    # 5-thread fixpoint makes 23,425 images over 6,058 row values
    a1, a2, gamma, bound = faa_case("invalidating", threads=5)
    relation, complete = _greatest_relation(a1, a2, MatchTable(a2, gamma, bound))
    assert (len(relation), complete) == (433_680, False)
    assert relation_digest(relation) == (
        "85cbfde4c9e4fdc786670757a28a48611ba78bd153cf18bd73d433125e4c1a6e"
    )


@pytest.mark.parametrize("variant", ["invalidating", "plain"])
def test_fixpoint_decodes_each_row_value_once(variant, monkeypatch):
    a1, a2, gamma, bound = faa_case(variant, threads=4)
    table = MatchTable(a2, gamma, bound)
    decoded = []
    bits = ltsim.simulation._bits

    def counted(row):
        decoded.append(row)
        return bits(row)

    monkeypatch.setattr(ltsim.simulation, "_bits", counted)
    _greatest_relation(a1, a2, table)
    assert decoded
    assert len(set(decoded)) == len(decoded)  # no row value decoded twice
    assert (1 << a2.num_states) - 1 not in decoded  # the full row's images come from the table


def per_action_search(a2, gamma, alpha_bound, a, s2):
    """The reference search for one action alone: its candidates, and
    whether the bound cut it short."""
    observable = a in gamma
    # nodes are (abstract state, progress); progress flips on emitting a
    start = (s2, 0)
    best = {start: ()}
    queue = collections.deque([start])
    found = []
    cut = False
    looped = False  # non-empty silent path back to s2 recorded
    while queue:
        t, progress = queue.popleft()
        alpha = best[(t, progress)]
        if len(alpha) >= alpha_bound:
            if any(
                ((u, progress) not in best and b not in gamma)
                or (not observable and not looped and u == s2 and b not in gamma)
                or (observable and progress == 0 and b == a and (u, 1) not in best)
                for b, u in a2.out_edges(t)
            ):
                cut = True
            continue
        for b, u in a2.out_edges(t):
            if b in gamma:
                if not (observable and progress == 0 and b == a):
                    continue
                node = (u, 1)
            else:
                node = (u, progress)
            if node in best:
                # the start node holds the empty sequence, so a real
                # silent loop back to it is a distinct candidate
                if node == start and not observable and not looped:
                    looped = True
                    found.append((alpha + (b,), s2))
                continue
            best[node] = alpha + (b,)
            queue.append(node)
            if node[1] == (1 if observable else 0) and best[node]:
                found.append((best[node], node[0]))
    if not observable:
        found.append(((), s2))  # stuttering match, deliberately last
    return tuple(found), cut


def assert_table_matches_per_action_searches(a1, a2, gamma, bound):
    table = MatchTable(a2, gamma, bound)
    actions = sorted(a1.alphabet.all_actions | a2.alphabet.all_actions, key=Action.key)
    for a in actions:
        key = table.key(a)
        found, cut = zip(*(per_action_search(a2, gamma, bound, a, s2) for s2 in range(a2.num_states)))
        assert table.column(key) == list(found)
        assert table.cut(key) == [s2 for s2, c in enumerate(cut) if c]


def test_shared_searches_equal_unshared_ones():
    """One search per abstract state serves every action; each action's
    candidates and cut status must be what a search for it alone reports."""
    for a1, a2, gamma, bound in differential_cases():
        assert_table_matches_per_action_searches(a1, a2, gamma, bound)
    for variant in ("invalidating", "plain"):
        a1, a2, gamma, _ = faa_case(variant)
        for bound in (1, 2, 3, 4):
            assert_table_matches_per_action_searches(a1, a2, gamma, bound)


def column_cases():
    """differential_cases(), then 3-thread FAA, both variants, at bounds 1-4."""
    yield from differential_cases()
    for variant in ("invalidating", "plain"):
        a1, a2, gamma, _ = faa_case(variant)
        for bound in (1, 2, 3, 4):
            yield a1, a2, gamma, bound


def search_keys(table, a1, a2):
    """Each search key of a1's and a2's actions, with one action it serves."""
    actions = sorted(a1.alphabet.all_actions | a2.alphabet.all_actions, key=Action.key)
    return {table.key(a): a for a in reversed(actions)}


def test_a_column_holds_each_match_and_records_the_same_cut():
    for a1, a2, gamma, bound in column_cases():
        table = MatchTable(a2, gamma, bound)
        for key, a in search_keys(table, a1, a2).items():
            column = table.column(key)
            assert len(column) == a2.num_states
            searches = [per_action_search(a2, gamma, bound, a, s2) for s2 in range(a2.num_states)]
            assert column == [found for found, _ in searches]
            assert table.cut(key) == [s2 for s2, (_, cut) in enumerate(searches) if cut]
            assert table.column(key) is column


def test_columns_and_cuts_do_not_depend_on_the_order_they_are_read():
    for a1, a2, gamma, bound in column_cases():
        one, other = MatchTable(a2, gamma, bound), MatchTable(a2, gamma, bound)
        keys = list(search_keys(one, a1, a2))
        first = {key: (one.column(key), one.cut(key)) for key in keys}  # column, then cut
        cuts = {key: other.cut(key) for key in reversed(keys)}  # every cut before any column
        for key in reversed(keys):
            assert other.column(key) == first[key][0]
            assert cuts[key] == first[key][1] == one.cut(key) == other.cut(key)


def test_the_match_table_hands_out_choice_entries():
    # the greedy choice, mapping_m and the certificate writer read a
    # candidate's .alpha and .target
    a1, a2, gamma, bound = faa_case("invalidating")
    table = MatchTable(a2, gamma, bound)
    keys = search_keys(table, a1, a2)
    assert None in keys and len(keys) > 1
    entries = [e for key in keys for cands in table.column(key) for e in cands]
    assert entries
    for e in entries:
        assert type(e) is ChoiceEntry and e == (e.alpha, e.target)


# (case count, incomplete count, sha256 of the "1"/"0" complete flags of
# check_forward over column_cases()), recorded before columns were read
COMPLETE_FLAGS = (1208, 406, "be5f4e81bc004d92f5c6a0ae4ebe67008bc5f293dd5853a7d10298146d225060")


def test_complete_flags_are_pinned():
    flags = "".join(
        "1" if check_forward(a1, a2, gamma, alpha_bound=bound).complete else "0"
        for a1, a2, gamma, bound in column_cases()
    )
    assert (len(flags), flags.count("0"), hashlib.sha256(flags.encode()).hexdigest()) == COMPLETE_FLAGS


@pytest.mark.parametrize("variant", ["invalidating", "plain"])
def test_check_forward_makes_no_per_lookup_python_calls(variant):
    """check_forward and validate_certificate on 3-thread FAA call no
    __hash__ written in ltsim, and read MatchTable columns."""
    a1, a2, gamma, bound = faa_case(variant)
    package = os.path.dirname(ltsim.simulation.__file__)
    column = MatchTable.column.__code__
    hashes = collections.Counter()
    columns = set()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_name == "__hash__" and code.co_filename.startswith(package):
            hashes[code.co_qualname] += 1
        elif code is column:
            columns.add(frame.f_locals["key"])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        cert = check_forward(a1, a2, gamma, alpha_bound=bound).certificate
        ok = validate_certificate(cert, None, a1, a2)
    finally:
        sys.setprofile(previous)
    assert ok == (True, [])
    assert hashes == {}
    assert columns  # the fixpoint and greedy read columns


# --- recursion-free checks ----------------------------------------------------


def test_long_cycle_gets_the_forward_relation_without_recursion():
    # a b a b ... around 20,000 states, closed by one back edge; the
    # abstract side alternates a and b, so state s pairs with s % 2 only
    n = 20_000
    concrete = make_lts(
        [(k, (A, B)[k % 2], (k + 1) % n) for k in range(n)], n, AL4
    )
    abstract = make_lts([(0, A, 1), (1, B, 0)], 2, AL4)
    res = check_forward(concrete, abstract, GAMMA, alpha_bound=1)
    assert res.relation == {(s, s % 2) for s in range(n)}
    assert res.complete and res.certificate is not None


def test_long_stutter_chain_gets_ranks_without_recursion():
    n = 5000
    concrete = make_lts([(k, I, k + 1) for k in range(n - 1)], n, AL4)
    abstract = make_lts([], 1, AL4)
    res = check_progressive(concrete, abstract, GAMMA, alpha_bound=1)
    assert res.verdict == "yes"
    assert [res.witness.of(s) for s in range(n)] == list(range(n - 1, -1, -1))
    ok, problems = validate_certificate(res.certificate, res.witness, concrete, abstract)
    assert ok, problems


def test_faa_three_threads_plain_progressive_at_default_recursion_limit():
    cfg = FaaConfig((1, 2, 3), (1, 1, 1), "plain")
    impl, spec = build_faa_impl(cfg), build_faa_spec(cfg)
    gamma = impl.alphabet.cr
    res = check_progressive(impl, spec, gamma, alpha_bound=4)
    assert res.verdict == "yes"
    ok, problems = validate_certificate(res.certificate, res.witness, impl, spec)
    assert ok, problems


# --- the backtracking search -------------------------------------------------


def search_outcome(search, a1, a2, relation, table, budget):
    """What a search answers: "budget" when it runs out, None for no, else its
    choices as (key, entry) items in Choices order and its reached pairs."""
    try:
        found = search(a1, a2, relation, table, budget)
    except BudgetExceeded:
        return "budget"
    if found is None:
        return None
    choice, reached = found
    return list(Choices.from_items(choice.items()).items()), set(reached)


def test_backtrack_agrees_with_the_generator_search():
    """The undo stack explores in the generator search's order and spends
    what it spends, so at every budget both give the same answer."""
    seen = collections.Counter()
    for a1, a2, gamma, bound in [*differential_cases(), faa_case("plain")]:
        table = MatchTable(a2, gamma, bound)
        relation, _ = _greatest_relation(a1, a2, table)
        if (a1.initial, a2.initial) not in relation:
            continue
        for budget in (0, 50, 2_000):
            got = search_outcome(_backtrack, a1, a2, relation, table, budget)
            assert got == search_outcome(reference_backtrack, a1, a2, relation, table, budget)
            seen[budget, "yes" if got and got != "budget" else got] += 1
    for budget in (50, 2_000):
        assert seen[budget, "yes"] and seen[budget, None] and seen[budget, "budget"]


def test_backtrack_spends_what_the_generator_search_spends_on_faa():
    a1, a2, gamma, bound = faa_case("plain")
    table = MatchTable(a2, gamma, bound)
    relation, _ = _greatest_relation(a1, a2, table)
    for search in (_backtrack, reference_backtrack):
        with pytest.raises(BudgetExceeded):
            search(a1, a2, relation, table, 654)
        assert search(a1, a2, relation, table, 655) is not None


def test_backtrack_answers_equal_blocks_with_one_object():
    a1, a2, gamma, bound = faa_case("plain")
    table = MatchTable(a2, gamma, bound)
    relation, _ = _greatest_relation(a1, a2, table)
    choice, _ = _backtrack(a1, a2, relation, table, 1_000_000)
    blocks = [block for row in choice._rows.values() for block in row.values()]
    distinct = {tuple(block.items()) for block in blocks}
    assert len(set(map(id, blocks))) == len(distinct) < len(blocks)


def test_backtrack_retracts_one_copy_of_a_shared_stutter_edge():
    """Two choices stutter on the step 0 -b-> 1, and the later is retracted.

    Once its landing on (1, 1) fails, (0, 0) stutters to (1, 0), which moves
    on to (0, 1); (0, 1) stutters on the same step, to (1, 1), whose only
    landing would close a cycle.  So (0, 1)'s choice is retracted, and
    (1, 0) then tries its stutter back to (0, 0): the copy of 0 -> 1 that
    (0, 0) still holds must reject it, and the complete search answers no.
    A retract that dropped every copy of the edge would accept it and
    answer a cyclic stutter graph.
    """
    a1 = make_lts([(0, B, 1), (1, B, 0)], 2, AL4)
    a2 = make_lts([(0, I, 1)], 2, AL4)
    table = MatchTable(a2, frozenset({A}), 1)
    relation, _ = _greatest_relation(a1, a2, table)
    got = search_outcome(_backtrack, a1, a2, relation, table, 1_000)
    assert got == search_outcome(reference_backtrack, a1, a2, relation, table, 1_000)
    assert got is None


def test_four_thread_plain_progressive_stays_under_8_mb():
    """An open choice point costs one undo slot, not a suspended frame.

    The generator search peaked at about 12 MB here, the undo stack at
    about 6 MB (tracemalloc, Python 3.11).  Every choice of the certificate was
    an open choice point at once, more of them than the recursion limit
    allows frames.
    """
    a1, a2, gamma, bound = faa_case("plain", threads=4)
    tracemalloc.start()
    try:
        res = check_progressive(a1, a2, gamma, alpha_bound=bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.verdict == "yes"
    assert len(res.certificate.choice) > sys.getrecursionlimit()
    assert peak < 8_000_000


# --- the row-backed relation ------------------------------------------------


pair_sets = st.frozensets(st.tuples(st.integers(0, 9), st.integers(0, 40)), max_size=40)


@st.composite
def wide_pair_sets(draw):
    """Pairs whose rows reach past bits 63, 255 and 729: sparse rows, and full
    rows with a few gaps, so that both ways of decoding a row run.  Concrete
    states draw from a few rows, so that equal rows occur."""
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        width = draw(st.sampled_from([1, 63, 64, 65, 255, 256, 257, 729, 730, 1500]))
        if draw(st.booleans()):
            gaps = draw(st.frozensets(st.integers(0, width - 1), max_size=4))
            rows.append(frozenset(range(width)) - gaps)
        else:
            rows.append(draw(st.frozensets(st.integers(0, width - 1), max_size=8)))
    picks = draw(st.lists(st.sampled_from([frozenset(), *rows]), max_size=8))
    return frozenset((s1, s2) for s1, row in enumerate(picks) for s2 in row)


wide_probes = st.tuples(
    st.integers(-1, 9), st.sampled_from([-1, 0, 62, 63, 64, 254, 255, 256, 728, 729, 1499, 1500])
)


@given(
    st.one_of(pair_sets, wide_pair_sets()),
    st.one_of(pair_sets, wide_pair_sets()),
    st.one_of(st.tuples(st.integers(-3, 12), st.integers(-3, 45)), wide_probes),
)
def test_relation_behaves_like_a_frozenset_of_its_pairs(pairs, other, probe):
    rel = Relation.from_pairs(pairs)
    assert len(rel) == len(pairs)
    assert (probe in rel) == (probe in pairs)
    assert all(p in rel for p in pairs)
    assert list(rel) == sorted(pairs)
    assert rel == pairs and pairs == rel
    assert (rel == other) == (pairs == other) and (other == rel) == (other == pairs)
    for got, want in (
        (rel - other, pairs - other),
        (rel & other, pairs & other),
        (rel | other, pairs | other),
        (other - rel, other - pairs),
    ):
        assert isinstance(got, Relation) and got == want and list(got) == sorted(want)
    assert (rel <= other) == (pairs <= other) and (other <= rel) == (other <= pairs)
    assert hash(rel) == hash(pairs)
    assert all(tuple(rel.partners(s1)) == tuple(sorted(s2 for x, s2 in pairs if x == s1))
               for s1 in range(-1, 11))
    classes = rel.row_classes(12)
    rows = [frozenset(s2 for x, s2 in pairs if x == s1) for s1 in range(12)]
    assert all(
        (classes[x] == classes[y]) == (rows[x] == rows[y]) for x in range(12) for y in range(12)
    )


def test_relation_holds_only_pairs_of_state_numbers():
    rel = Relation.from_pairs([(0, 1)])
    assert (0, 1) in rel
    assert all(x not in rel for x in [(0, 1, 2), (0,), "01", (0, 1.0), (-1, 1), None])
    with pytest.raises(ValueError):
        Relation.from_pairs([(-1, 0)])
    with pytest.raises(ValueError):
        rel | {(0, -1)}


def test_a_certificate_stores_any_pairs_as_a_relation():
    cert = SimulationCertificate(frozenset({(1, 0), (0, 0)}), {}, GAMMA, 1)
    assert isinstance(cert.relation, Relation) and list(cert.relation) == [(0, 0), (1, 0)]
    with pytest.raises(ValueError):
        SimulationCertificate(frozenset({(-1, 0)}), {}, GAMMA, 1)


# --- validation by clause value -------------------------------------------------


def mutants(cert, a1, a2):
    """Broken copies of cert: a dropped choice, a wrong target, an
    over-long alpha, a projection mismatch and a missing landing pair,
    each at the first clause (in pair order) where it applies."""
    clauses = [
        (s1, a, s2, s1n)
        for s1, s2 in cert.relation
        for a, s1n in a1.out_edges(s1)
    ]
    if not clauses:
        return
    s1, a, s2, s1n = clauses[0]
    key = (s1, a, s2)
    entry = cert.choice[key]

    def with_entry(new):
        return replace(cert, choice={**cert.choice, key: new})

    yield replace(cert, choice={k: e for k, e in cert.choice.items() if k != key})
    if a2.num_states > 1:
        yield with_entry(ChoiceEntry(entry.alpha, (entry.target + 1) % a2.num_states))
    some = min(a2.alphabet.all_actions | a1.alphabet.all_actions, key=Action.key)
    yield with_entry(ChoiceEntry((some,) * (cert.alpha_bound + 1), entry.target))
    if a in cert.gamma:
        yield with_entry(ChoiceEntry((), entry.target))
    elif cert.gamma:
        yield with_entry(ChoiceEntry(entry.alpha + (min(cert.gamma, key=Action.key),), entry.target))
    landing = (s1n, entry.target)
    if landing not in ((a1.initial, a2.initial), (s1, s2)):
        yield replace(cert, relation=cert.relation - {landing})


def test_validation_by_clause_value_agrees_with_the_reference():
    """Byte-identical (ok, problems) with the per-clause replay, on every
    certificate of differential_cases() and of 3-thread FAA, and on broken
    copies of each."""
    checked = broken = 0

    def compare(cert, witness, a1, a2):
        got = validate_certificate(cert, witness, a1, a2)
        assert got == reference_validate_certificate(cert, witness, a1, a2)
        return got[0]

    cases = list(differential_cases())
    for variant in ("invalidating", "plain"):
        cases.append(faa_case(variant))
    for a1, a2, gamma, bound in cases:
        found = []
        res = check_forward(a1, a2, gamma, alpha_bound=bound)
        if res.certificate is not None:
            found.append((res.certificate, None))
        prog = check_progressive(a1, a2, gamma, alpha_bound=bound, backtrack_budget=0)
        if prog.verdict == "yes":
            found.append((prog.certificate, prog.witness))
        for cert, witness in found:
            assert compare(cert, witness, a1, a2)
            checked += 1
            for bad in mutants(cert, a1, a2):
                assert not compare(bad, witness, a1, a2)
                broken += 1
    assert checked >= 500 and broken >= 2000


@pytest.mark.parametrize("largest", [True, False], ids=["over-the-cap", "under-the-cap"])
def test_a_bad_clause_shared_by_many_pairs_is_reported_at_each(largest):
    a1, a2, gamma, bound = faa_case("invalidating")
    cert = check_forward(a1, a2, gamma, alpha_bound=bound).certificate
    where = collections.defaultdict(list)  # clause value -> its (s1, a, s2) keys
    for (s1, a, s2), entry in cert.choice.items():
        where[(a, s2, entry)].append((s1, a, s2))
    shared = max(
        (clause for clause, keys in where.items() if largest or len(keys) <= 10),
        key=lambda c: (len(where[c]), c[0].key(), c[1], [b.key() for b in c[2].alpha]),
    )
    a, s2, entry = shared
    wrong = ChoiceEntry(entry.alpha, (entry.target + 1) % a2.num_states)
    choice = dict(cert.choice)
    expected = []
    for s1, _, _ in sorted(where[shared]):
        choice[(s1, a, s2)] = wrong
        expected.append(
            f"alpha lands in {entry.target}, recorded target {wrong.target} "
            f"at ({s1}, {a.label()}, {s2})"
        )
        if (a1.step(s1, a), wrong.target) not in cert.relation:
            expected.append(f"landing ({a1.step(s1, a)}, {wrong.target}) not in relation")
    assert (len(expected) > 20) == largest
    bad = replace(cert, choice=choice)
    ok, problems = validate_certificate(bad, None, a1, a2)
    assert not ok and problems == expected[:20]
    assert (ok, problems) == reference_validate_certificate(bad, None, a1, a2)


@pytest.mark.parametrize("pair", [(None, 0), (0, None)], ids=["s1", "s2"])
def test_a_pair_outside_the_state_ranges_is_a_problem(pair):
    a1, a2, gamma, bound = faa_case("invalidating")
    cert = check_forward(a1, a2, gamma, alpha_bound=bound).certificate
    s1 = a1.num_states if pair[0] is None else pair[0]
    s2 = a2.num_states if pair[1] is None else pair[1]
    ok, problems = validate_certificate(
        replace(cert, relation=cert.relation | {(s1, s2)}), None, a1, a2
    )
    assert not ok
    assert problems == [f"pair ({s1}, {s2}) is outside the state ranges"]


# --- choices per step block ---------------------------------------------------


def canonical(choice):
    """A choice dict's items in (s1, Action.key, s2) order."""
    return sorted(choice.items(), key=lambda kv: (kv[0][0], kv[0][1].key(), kv[0][2]))


def test_greedy_by_block_agrees_with_the_reference():
    """Equal choices, in canonical order, with the per-pair greedy search on
    every differential case (forward, and progressive at budget 0), on
    3-thread FAA and on 4-thread invalidating FAA."""
    cases = [(case, True) for case in differential_cases()]
    cases += [(faa_case(variant), False) for variant in ("invalidating", "plain")]
    cases.append((faa_case("invalidating", threads=4), False))
    compared = cycles = 0
    for (a1, a2, gamma, bound), progressive in cases:
        res = check_forward(a1, a2, gamma, alpha_bound=bound)
        if res.certificate is None:
            continue
        want = canonical(reference_greedy_choice(a1, res.relation, MatchTable(a2, gamma, bound)))
        assert list(res.certificate.choice.items()) == want
        compared += 1
        if not progressive:
            continue
        prog = check_progressive(a1, a2, gamma, alpha_bound=bound, backtrack_budget=0)
        # one edge per stuttering choice, where the checker keeps one per step
        stutters = [
            StutterEdge(s1, a, a1.step(s1, a), (s2,)) for (s1, a, s2), e in want if not e.alpha
        ]
        if prog.verdict == "yes" and prog.certificate.relation == prog.relation:
            assert list(prog.certificate.choice.items()) == want  # the greedy certificate
            assert prog.witness == _stutter_ranks(stutters, a1.num_states)[1]
        elif prog.verdict == "unknown":  # reports the greedy assignment's stutter cycle
            assert prog.cycle.edges == _stutter_ranks(stutters, a1.num_states)[0]
            cycles += 1
    assert compared >= 750 and cycles >= 100


choice_keys = st.tuples(st.integers(0, 5), st.sampled_from([A, B, I, J]), st.integers(0, 6))
choice_entries = st.builds(
    ChoiceEntry, st.lists(st.sampled_from([A, B, I]), max_size=2).map(tuple), st.integers(0, 6)
)
UNKNOWN = internal("unknown")


@given(
    st.dictionaries(choice_keys, choice_entries, max_size=30),
    st.lists(st.tuples(st.integers(-2, 8), st.sampled_from([A, B, I, J, UNKNOWN]),
                       st.integers(-1, 8)), max_size=10),
    choice_keys,
    choice_entries,
)
def test_choices_behave_like_a_dict_of_their_items(d, probes, key, entry):
    c = Choices.from_items(d.items())
    assert len(c) == len(d)
    for k in [*d, *probes, (0, A), "abc", None]:
        assert c.get(k) == d.get(k) and c.get(k, 7) == d.get(k, 7)
        assert (k in c) == (k in d)
        if k in d:
            assert c[k] == d[k]
        else:
            with pytest.raises(KeyError):
                c[k]
    assert list(c) == [k for k, _ in canonical(d)]
    assert list(c.items()) == canonical(d)
    assert c == d and d == c and c == Choices.from_items(reversed(list(d.items())))
    other = {**d, key: entry}
    assert (c == other) == (d == other) and (other == c) == (other == d)
    assert (c == Choices.from_items(other.items())) == (d == other)
    assert dict(c) == d and {**c, key: entry} == other
    cert = SimulationCertificate(Relation([]), other, GAMMA, 1)
    assert isinstance(cert.choice, Choices) and cert.choice == other
    if d:
        k, e = next(iter(d.items()))
        with pytest.raises(ValueError):
            Choices.from_items([*d.items(), (k, e)])


def test_choices_from_items_in_any_order_iterate_alike():
    a1, a2, gamma, bound = faa_case("plain")
    items = list(check_progressive(a1, a2, gamma, alpha_bound=bound).certificate.choice.items())
    shuffled = items[:]
    random.Random(5).shuffle(shuffled)
    built = [Choices.from_items(order) for order in (items, shuffled, items[::-1])]
    assert built[0] == built[1] == built[2]
    assert [list(c.items()) for c in built] == [items] * 3


def test_choices_from_rows_rebuilds_only_what_is_out_of_order():
    first, second = sorted([A, B], key=Action.key)
    e = ChoiceEntry((), 0)
    ordered, reversed_block, late = {0: e, 2: e}, {5: e, 1: e}, {3: e}
    row0 = {first: ordered, second: reversed_block}
    row1 = {second: late, first: ordered}
    c = Choices.from_rows({1: row1, 0: row0})
    assert list(c._rows) == [0, 1]
    assert c._rows[0] is row0 and c._rows[0][first] is ordered
    assert list(c._rows[0][second]) == [1, 5]
    assert list(c._rows[1]) == [first, second] and c._rows[1][second] is late


def shared_blocks(cert, a1):
    """Steps grouped by the validator's memo value, (action, own row, landing
    row, block): a list of (s1, action) per group with two or more states."""
    rows = cert.relation._rows
    groups = collections.defaultdict(list)
    for s1, row in cert.choice._rows.items():
        for a, block in row.items():
            s1n = a1.step(s1, a)
            groups[(a, rows[s1], rows[s1n], tuple(block.items()))].append((s1, a))
    return [steps for steps in groups.values() if len(steps) > 1]


def with_block(cert, s1, a, block):
    """cert with state s1's block for a replaced, every other block object kept."""
    rows = {x: dict(row) for x, row in cert.choice._rows.items()}
    rows[s1][a] = block
    return replace(cert, choice=Choices(rows))


def test_block_mutants_agree_with_the_reference():
    """A block changed at one of the states that share it, a block short of
    one partner, a block with an extra s2 (no problem), a rank failure at
    one state of a shared stutter block, and over 20 problems: the block
    validator and the per-clause reference give identical (ok, problems)."""

    def compare(cert, witness, a1, a2):
        got = validate_certificate(cert, witness, a1, a2)
        assert got == reference_validate_certificate(cert, witness, a1, a2)
        return got

    a1, a2, gamma, bound = faa_case("invalidating")
    cert = check_forward(a1, a2, gamma, alpha_bound=bound).certificate
    groups = shared_blocks(cert, a1)
    assert groups
    for steps in groups[:10]:
        for s1, a in (steps[0], steps[len(steps) // 2], steps[-1]):
            block = cert.choice._rows[s1][a]
            s2, entry = next(iter(block.items()))
            wrong = ChoiceEntry(entry.alpha, (entry.target + 1) % a2.num_states)
            ok, problems = compare(with_block(cert, s1, a, {**block, s2: wrong}), None, a1, a2)
            assert not ok and f"recorded target {wrong.target} at ({s1}, {a.label()}, {s2})" \
                in problems[0]
            short = {x: e for x, e in block.items() if x != s2}
            ok, problems = compare(with_block(cert, s1, a, short), None, a1, a2)
            assert (ok, problems) == (False, [f"no choice for ({s1}, {a.label()}, {s2})"])
            extra = {**block, a2.num_states - 1: entry}
            if extra != block:
                assert compare(with_block(cert, s1, a, extra), None, a1, a2) == (True, [])
    # one action's blocks all broken: far over the cap, interleaved with other steps
    a = next(iter(cert.choice._rows[a1.initial]))
    rows = {
        x: {b: {y: ChoiceEntry(e.alpha, (e.target + 1) % a2.num_states) for y, e in block.items()}
            if b == a else block for b, block in row.items()}
        for x, row in cert.choice._rows.items()
    }
    ok, problems = compare(replace(cert, choice=Choices(rows)), None, a1, a2)
    assert not ok and len(problems) == 20

    a1, a2, gamma, bound = faa_case("plain")
    prog = check_progressive(a1, a2, gamma, alpha_bound=bound)
    cert, witness = prog.certificate, prog.witness
    stuttering = [
        steps for steps in shared_blocks(cert, a1)
        if any(not e.alpha for e in cert.choice._rows[steps[0][0]][steps[0][1]].values())
    ]
    assert stuttering
    for steps in stuttering:
        s1, a = steps[-1]
        s1n = a1.step(s1, a)
        raised = ProgressWitness({**witness.rank, s1n: witness.of(s1)})
        ok, problems = compare(cert, raised, a1, a2)
        assert not ok and any(
            p.startswith(f"rank does not descend on stutter ({s1}, {a.label()}, {s1n})")
            for p in problems
        )


# --- forced edges, ranks and block checks from what greedy holds ----------------


def test_forced_edges_from_greedy_blocks_agree_with_the_candidate_scan():
    """The steps whose greedy block is all stutters equal, in order, the steps
    a rescan of every partner's candidates finds forced: on every
    differential case whose initial pair is related, and on FAA at 2, 3 and
    4 threads."""
    compared = edges = 0
    for a1, a2, gamma, bound in differential_cases():
        res = check_forward(a1, a2, gamma, alpha_bound=bound)
        if res.certificate is None:
            continue
        want = reference_forced_everywhere_edges(a1, res.relation, MatchTable(a2, gamma, bound))
        assert _forced_everywhere_edges(a1, res.certificate.choice) == want
        compared += 1
        edges += len(want)
    assert (compared, edges) == (770, 90)
    counts = {}
    for threads in (2, 3, 4):
        for variant in ("invalidating", "plain"):
            a1, a2, gamma, bound = faa_case(variant, threads)
            res = check_forward(a1, a2, gamma, alpha_bound=bound)
            want = reference_forced_everywhere_edges(a1, res.relation, MatchTable(a2, gamma, bound))
            assert _forced_everywhere_edges(a1, res.certificate.choice) == want
            counts[(threads, variant)] = len(want)
    assert counts == {
        (2, "invalidating"): 8, (2, "plain"): 6,
        (3, "invalidating"): 48, (3, "plain"): 27,
        (4, "invalidating"): 248, (4, "plain"): 108,
    }


def test_ranks_of_a_chain_deeper_than_the_recursion_limit():
    n = 20_000
    edges = [StutterEdge(k, I, k + 1, (0,)) for k in range(n - 1)]
    witness = _stutter_ranks(edges, n)[1]
    assert witness.rank == {s: n - 1 - s for s in range(n)}


def test_ranks_of_a_diamond_take_the_longer_branch():
    # 0 -> 4 -> 5 is the short branch, listed first; 0 -> 1 -> 2 -> 3 -> 5 the
    # long one; 5 -> 6 below both, and 7 has no edge
    pairs = [(0, 4), (4, 5), (0, 1), (1, 2), (2, 3), (3, 5), (5, 6)]
    witness = _stutter_ranks([StutterEdge(s, I, t, (0,)) for s, t in pairs], 8)[1]
    assert witness.rank == {0: 5, 1: 4, 2: 3, 3: 2, 4: 2, 5: 1, 6: 0, 7: 0}


@pytest.mark.parametrize("variant", ["invalidating", "plain"])
def test_each_distinct_block_is_checked_once(variant, monkeypatch):
    calls = []
    checked = ltsim.simulation._block_is_clean

    def counted(*args):
        calls.append(args[1])
        return checked(*args)

    monkeypatch.setattr(ltsim.simulation, "_block_is_clean", counted)
    a1, a2, gamma, bound = faa_case(variant)
    cert = check_forward(a1, a2, gamma, alpha_bound=bound).certificate
    assert validate_certificate(cert, None, a1, a2) == (True, [])
    blocks = {id(block) for row in cert.choice._rows.values() for block in row.values()}
    assert len(calls) == len({id(block) for block in calls}) == len(blocks) == 239


def count_replays(monkeypatch):
    """A Counter of the (s2, alpha) of every _run_from call from now on."""
    calls = collections.Counter()
    run = ltsim.simulation._run_from

    def counted(lts, s, seq):
        calls[(s, tuple(seq))] += 1
        return run(lts, s, seq)

    monkeypatch.setattr(ltsim.simulation, "_run_from", counted)
    return calls


@pytest.mark.parametrize(
    "shared, expected",
    [
        (
            ChoiceEntry((A,), 1),
            [
                "projection mismatch at (0, i, 0)",
                "landing (4, 1) not in relation",
                "projection mismatch at (3, i, 0)",
            ],
        ),
        (
            ChoiceEntry((A,), 2),
            [
                "alpha lands in 1, recorded target 2 at (0, a, 0)",
                "landing (1, 2) not in relation",
                "projection mismatch at (0, i, 0)",
                "alpha lands in 1, recorded target 2 at (0, i, 0)",
                "alpha lands in 1, recorded target 2 at (3, a, 0)",
                "landing (4, 2) not in relation",
                "projection mismatch at (3, i, 0)",
                "alpha lands in 1, recorded target 2 at (3, i, 0)",
                "landing (5, 2) not in relation",
            ],
        ),
        (
            ChoiceEntry((I, A), 1),
            [
                "alpha does not replay at (0, a, 0)",
                "projection mismatch at (0, i, 0)",
                "alpha does not replay at (0, i, 0)",
                "alpha does not replay at (3, a, 0)",
                "projection mismatch at (3, i, 0)",
                "alpha does not replay at (3, i, 0)",
            ],
        ),
    ],
    ids=["projection-under-one-key", "wrong-target", "no-replay"],
)
def test_a_choice_shared_under_two_search_keys_is_replayed_once_per_key(
    shared, expected, monkeypatch
):
    """One choice value in the blocks of an observed and a hidden step at
    two concrete states with equal rows but different landing rows: four
    blocks, each checked, and two replays, one per search key.  The
    problems are the per-clause reference's, byte for byte."""
    abstract = make_lts([(0, A, 1), (0, I, 2)], 3, AL4)
    concrete = make_lts([(0, A, 1), (0, I, 2), (3, A, 4), (3, I, 5)], 6, AL4)
    relation = {(0, 0), (3, 0), (1, 1), (2, 1), (2, 2), (5, 1)}
    choice = {(s1, a, 0): shared for s1 in (0, 3) for a in (A, I)}
    cert = SimulationCertificate(relation, choice, GAMMA, 2)
    calls = count_replays(monkeypatch)
    got = validate_certificate(cert, None, concrete, abstract)
    assert calls == {(0, shared.alpha): 2}
    assert got == (False, expected)
    assert got == reference_validate_certificate(cert, None, concrete, abstract)


@pytest.mark.parametrize("variant", ["invalidating", "plain"])
def test_each_distinct_choice_is_replayed_once(variant, monkeypatch):
    """One replay per distinct (search key, s2, choice) value, for the
    checker's certificate and for the same certificate read back from its
    dict, whose entries are new objects."""
    a1, a2, gamma, bound = faa_case(variant)
    cert = check_forward(a1, a2, gamma, alpha_bound=bound).certificate
    distinct = {(a if a in gamma else None, s2, e) for (_, a, s2), e in cert.choice.items()}
    want = collections.Counter((s2, e.alpha) for _, s2, e in distinct)
    parsed, _ = certificate_from_dict(certificate_to_dict(cert), a1, a2)
    calls = count_replays(monkeypatch)
    for checked in (cert, parsed):
        calls.clear()
        assert validate_certificate(checked, None, a1, a2) == (True, [])
        assert calls == want
    assert len(distinct) < len(cert.choice)


def test_hidden_actions_sharing_a_memo_slot_keep_their_own_blocks():
    """Two hidden actions whose steps have equal rows share one memo slot;
    when one of their blocks is broken, the problems still agree with the
    per-clause reference, whichever of the two is broken."""
    a1, a2, gamma, bound = faa_case("invalidating")
    cert = check_forward(a1, a2, gamma, alpha_bound=bound).certificate
    rows = cert.relation._rows
    slots = collections.defaultdict(list)  # (own row, landing row) -> hidden steps
    for s1, row in cert.choice._rows.items():
        for a in row:
            if a not in gamma:
                slots[(rows[s1], rows[a1.step(s1, a)])].append((s1, a))
    steps = next(
        steps for steps in slots.values() if len({a for _, a in steps}) > 1
    )
    first = steps[0]
    other = next(step for step in steps if step[1] != first[1])
    for s1, a in (first, other):
        block = cert.choice._rows[s1][a]
        s2, entry = next(iter(block.items()))
        wrong = ChoiceEntry(entry.alpha, (entry.target + 1) % a2.num_states)
        bad = with_block(cert, s1, a, {**block, s2: wrong})
        ok, problems = validate_certificate(bad, None, a1, a2)
        assert not ok and f"recorded target {wrong.target} at ({s1}, {a.label()}, {s2})" \
            in problems[0]
        assert (ok, problems) == reference_validate_certificate(bad, None, a1, a2)
