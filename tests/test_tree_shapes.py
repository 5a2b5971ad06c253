"""Closed-form tree shapes against the node-by-node walks they replaced.

``TreeSpec.levels()`` and ``TreeSpec.dots()`` compute the shape of a
tree with NOT markers by filtering the unmarked closed forms by reach;
they must equal the breadth-first and depth-first walks of
:mod:`reference_walks` bit for bit: the same nodes, slot positions,
masks, dtypes and values, the dots in ascending id order.
"""

import numpy as np
import pytest

from nandtree import TreeSpec, build_tree, ideal_parameters
from nandtree.layout import build_hfractal, chain_below, expand_to_tree

import reference_walks as walks
from test_layout_reference import assert_same_arrays, assert_same_levels


def marked(depth, markers, seed=0):
    bits = np.random.default_rng(seed).integers(0, 2, 2**depth)
    return TreeSpec(depth, tuple(bits.tolist()), frozenset(markers))


def random_marked_trees():
    rng = np.random.default_rng(31)
    for depth in range(1, 13):
        n = 2**depth
        for _ in range(3):
            count = int(rng.integers(1, min(n - 1, 2 * depth) + 1))
            yield marked(depth, rng.choice(np.arange(1, n), count, replace=False).tolist(), depth)


SHAPES = {
    **{f"random-d{t.depth}-{i % 3}": t for i, t in enumerate(random_marked_trees())},
    **{f"root-d{d}": marked(d, {1}) for d in (1, 2, 5, 9)},
    **{f"chain-d{d}": marked(d, range(1, 2**d)) for d in (1, 2, 4, 7, 10)},
    # A marker below a marked node, a marker on a dropped node, and a
    # marked left spine.
    "nested-below": marked(6, {3, 6, 12, 25}),
    "nested-dropped": marked(6, {1, 3, 7, 15}),
    "nested-spine": marked(8, {1, 2, 4, 8, 16, 33}),
    "d16-few": marked(16, {2, 13, 700, 40000}, seed=16),
}


@pytest.mark.parametrize("tree", SHAPES.values(), ids=SHAPES.keys())
def test_marked_levels_match_breadth_first_walk(tree):
    assert tree.not_markers
    assert_same_levels(tree.levels(), walks.levels(tree))


@pytest.mark.parametrize("tree", SHAPES.values(), ids=SHAPES.keys())
def test_marked_postorder_arrays_match_depth_first_walk(tree):
    # The walk's postorder arrays, put in ascending id order, are dots().
    assert_same_arrays(tree.dots(), walks.dots(tree))


def test_all_marked_tree_is_a_chain():
    tree = SHAPES["chain-d7"]
    assert [level.nodes.tolist() for level in tree.levels()] == [[2**k] for k in range(7, -1, -1)]
    ids, parents, _ = tree.dots()
    assert ids.tolist() == [2**k for k in range(8)]
    assert parents.tolist() == [-1] + [2**k for k in range(7)]


def listed_trees():
    rng = np.random.default_rng(8)
    yield build_tree(4, rng.integers(0, 2, 16))
    yield SHAPES["nested-below"]
    for k in (0, 1, 4):
        yield chain_below(build_tree(3, rng.integers(0, 2, 8)), k)
        yield chain_below(SHAPES["nested-dropped"], k)
    for tree in (build_tree(5, rng.integers(0, 2, 32)), SHAPES["random-d5-0"]):
        yield expand_to_tree(build_hfractal(tree), tree)


@pytest.mark.parametrize("tree", listed_trees(), ids=lambda t: type(t).__name__)
def test_postorder_and_links_match_walks(tree):
    # The ideal tables hold the walks' nodes and links, in ascending order.
    params = ideal_parameters(tree, 10.0, 1e-6)
    assert params.epsilon.keys_array.tolist() == sorted(walks.postorder(tree))
    assert list(map(tuple, params.coupling.keys_array.tolist())) == sorted(walks.links(tree))
    assert_same_arrays(walks.by_id(tree.dots()), walks.dots(tree))
