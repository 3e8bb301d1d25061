"""Trace prefix trees: the node contract, and the two tree comparisons of
transform checked against brute force over the trees' trace sets.

_first_divergence walks two trees level by level and scans a right-hand
node's children only when some went unmatched; _Projections numbers a
whole tree in one parents-first pass.  Both are compared here with what
they stand for, on seeded random tree pairs.
"""

import random
import weakref
from collections import Counter

import pytest

from conftest import internal, prog_action
from ltsim import ModelError, TraceNode, TracePrefixTree
from ltsim.transform import _first_divergence, _Projections

ACTIONS = [internal(n) for n in "abc"] + [prog_action(n) for n in "xyz"]


# --- the node contract ------------------------------------------------------


def test_a_node_is_slotted_and_weakly_referable():
    node = TraceNode(None, 0, 0)
    assert not hasattr(node, "__dict__")
    assert weakref.ref(node)() is node
    with pytest.raises(AttributeError):
        node.extra = 1


def test_a_node_builds_by_keyword_and_by_position():
    root = TraceNode(action=None, state=0, depth=0)
    a = ACTIONS[0]
    child = TraceNode(a, 3, 1, root)
    assert (root.action, root.state, root.depth, root.parent) == (None, 0, 0, None)
    assert (child.action, child.state, child.depth, child.parent) == (a, 3, 1, root)
    assert root.children == {} and root.image is None and root.scheduled is None
    assert child.children is not root.children and child.image is child.scheduled is None
    assert child.trace() == (a,)


def test_nodes_compare_by_identity():
    a = ACTIONS[0]
    one, two = TraceNode(a, 1, 1), TraceNode(a, 1, 1)
    assert one != two and one == one
    assert len({one, two}) == 2


def test_a_duplicate_extend_raises_and_changes_nothing():
    tree = TracePrefixTree(0)
    a, b = ACTIONS[0], ACTIONS[3]
    first = tree.extend(tree.root, a, 1)
    tree.extend(tree.root, b, 2)
    children, listed = dict(tree.root.children), list(tree.node_list)
    with pytest.raises(ModelError, match=r"^duplicate child a in prefix tree$"):
        tree.extend(tree.root, a, 5)
    assert tree.root.children == children and list(tree.root.children) == [a, b]
    assert tree.root.children[a] is first and first.state == 1
    assert tree.node_list == listed and tree.size == 3


# --- seeded random tree pairs ---------------------------------------------


def random_tree(rng, depth, width):
    """A tree to the given depth, each node with up to width children."""
    tree = TracePrefixTree(0)
    i = 0
    while i < len(tree.node_list):
        node = tree.node_list[i]
        if node.depth < depth:
            for a in rng.sample(ACTIONS, rng.randint(0, width)):
                tree.extend(node, a, rng.randrange(4))
        i += 1
    return tree


def perturbed_copy(rng, tree, depth, rate):
    """tree with children in another order, some subtrees dropped
    (left-only) and some children added, with subtrees of their own
    (right-only)."""
    out = TracePrefixTree(tree.root.state)
    pairs = [(tree.root, out.root)]
    while pairs:
        x, y = pairs.pop()
        kids = list(x.children.items())
        rng.shuffle(kids)
        for a, c in kids:
            if rng.random() >= rate:
                pairs.append((c, out.extend(y, a, c.state)))
        extra = [a for a in ACTIONS if a not in x.children]
        if extra and rng.random() < rate:
            grown = random_tree(rng, rng.randint(0, depth), 2)
            stack = [(grown.root, out.extend(y, rng.choice(extra), 0))]
            while stack:
                g, h = stack.pop()
                for a, c in g.children.items():
                    stack.append((c, out.extend(h, a, c.state)))
    return out


def tree_pairs(count):
    for seed in range(count):
        rng = random.Random(seed)
        depth = rng.randint(0, 6)
        lhs = random_tree(rng, depth, rng.randint(1, 3))
        rhs = perturbed_copy(rng, lhs, depth, rng.choice([0.0, 0.02, 0.1, 0.3]))
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        yield seed, rng, lhs, rhs


def canonical(trace):
    return (len(trace), tuple(a.key() for a in trace))


def brute_divergence(lhs, rhs, depth):
    """Smallest trace of length at most depth in exactly one of the trees."""
    left = {t for t in lhs.traces() if len(t) <= depth}
    right = {t for t in rhs.traces() if len(t) <= depth}
    if left == right:
        return None
    diff = min(left ^ right, key=canonical)
    return diff, diff in right


def test_first_divergence_matches_the_trace_set_difference():
    outcomes = Counter()
    for seed, rng, lhs, rhs in tree_pairs(400):
        deepest = max(v.depth for v in lhs.node_list + rhs.node_list)
        for depth in {0, rng.randint(0, deepest + 1), deepest + 1}:
            got = _first_divergence(lhs.root, rhs.root, depth)
            assert got == brute_divergence(lhs, rhs, depth), (seed, depth)
            outcomes[None if got is None else got[1]] += 1
    assert min(outcomes[None], outcomes[True], outcomes[False]) >= 50, outcomes


def project(trace, sigma):
    return tuple(a for a in trace if a in sigma)


def test_one_pass_numbering_gives_the_partition_of_the_projections():
    sizes = Counter()
    for seed, rng, lhs, rhs in tree_pairs(200):
        sigma = frozenset(rng.sample(ACTIONS, rng.randint(0, len(ACTIONS))))  # empty at times
        nodes = lhs.node_list + rhs.node_list
        passed = _Projections(sigma)
        ids = passed.number(lhs.node_list) + passed.number(rhs.node_list)
        walked = _Projections(sigma)  # each tree in preorder, the rhs tree first
        walked.number(rhs.nodes())
        walked.number(lhs.nodes())
        trace_of: dict[int, tuple] = {}
        walked_of: dict[int, int] = {}
        for node, i in zip(nodes, ids):
            want = project(node.trace(), sigma)
            assert trace_of.setdefault(i, want) == want, seed  # equal ids, equal projections
            assert walked_of.setdefault(i, walked[node]) == walked[node], seed
            assert passed.length[i] == len(want) == walked.length[walked[node]], seed
            assert passed[node] == i and passed.trace(i) == want, seed
        # distinct ids, distinct projections, in both numberings
        assert len(set(trace_of.values())) == len(trace_of) == len(set(walked_of.values())), seed
        sizes[len(trace_of) > 3] += 1
    assert sizes[True] >= 20, sizes  # a tenth of the pairs have more than three
