"""The array-built H-fractal and chained trees against the code they replaced.

``reference_build_hfractal`` (the recursive ``place``) and
``reference_expand_to_tree`` (the adjacency walk) are kept verbatim
from the dot-by-dot implementation, with their results as plain tuples
and dicts, and ``ReferenceChainedTree`` is the ``child_map`` tree they
produced.  The array versions must give the same dots, links and roles
in the same order, and chained trees whose evaluation schedule
(``levels()``) and dots (``dots()``, in ascending id order) are those of
the reference breadth-first and depth-first walks over ``children()``, so
the Green's-function engine and the parameter tables see the same arrays.
"""

import io
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import pytest

from nandtree import StructureError, TreeSpec, build_tree
from nandtree.cli import parse_config, run
from nandtree.layout import LayoutGraph, build_hfractal, chain_below, expand_to_tree, \
    inverter_counts

import reference_walks as walks
from reference_walks import WalkedTree


def reference_build_hfractal(tree: TreeSpec):
    """(dots, links, role, binding) of the H-fractal, dot by dot."""
    counts = inverter_counts(tree.depth)
    children = walks.children_of(tree)

    dots: list[tuple[int, int, int]] = []
    links: list[tuple[int, int]] = []
    role: dict[int, str] = {}
    binding: dict[int, int] = {}
    next_id = 2 * tree.n_leaves  # inverter ids start past the tree nodes

    def place(node: int, x: int, y: int) -> None:
        nonlocal next_id
        level = node.bit_length() - 1
        dots.append((node, x, y))
        role[node] = f"level-{level}"
        binding[node] = node
        kids = children(node)
        if not kids:
            return
        m = counts[tree.depth - 1 - level]
        d = m + 1
        axis_x = level % 2 == 0
        for child, sign in zip(kids, (-1, +1)):
            dx, dy = (sign, 0) if axis_x else (0, sign)
            prev = node
            for step in range(1, m + 1):
                inv = next_id
                next_id += 1
                dots.append((inv, x + dx * step, y + dy * step))
                role[inv] = "inverter"
                links.append((prev, inv))
                prev = inv
            links.append((prev, child))
            place(child, x + dx * d, y + dy * d)

    place(tree.root, 0, 0)
    del place
    return tuple(dots), tuple(links), role, binding


@dataclass(frozen=True)
class ReferenceChainedTree(WalkedTree):
    tree: TreeSpec
    root: int
    child_map: Mapping[int, tuple[int, ...]]

    def children(self, node: int) -> tuple[int, ...]:
        return self.child_map.get(node, ())


def reference_expand_to_tree(links, role, binding, tree: TreeSpec) -> ReferenceChainedTree:
    adjacency: dict[int, list[int]] = {}
    for a, b in links:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    tree_dots = {binding[n]: n for n in walks.postorder(tree)}
    if any(dot != n for dot, n in tree_dots.items()):
        raise StructureError("tree nodes must keep their ids as dot ids")

    child_map: dict[int, tuple[int, ...]] = {}
    root_dot = binding[tree.root]
    stack = [(root_dot, None)]
    while stack:
        dot, parent_dot = stack.pop()
        node = tree_dots[dot]
        kids: list[tuple[int, tuple[int, ...]]] = []
        for nb in adjacency.get(dot, ()):
            if nb == parent_dot:
                continue
            chain: list[int] = []
            prev, cur = dot, nb
            while role[cur] == "inverter":
                chain.append(cur)
                nxt = [x for x in adjacency[cur] if x != prev]
                if len(nxt) != 1:
                    raise StructureError(f"inverter dot {cur} must have exactly 2 links")
                prev, cur = cur, nxt[0]
            if len(chain) % 2 and node not in tree.not_markers:
                raise StructureError(
                    f"odd inverter chain ({len(chain)} dots) below unmarked node {node}"
                )
            kids.append((cur, tuple(chain)))
            stack.append((cur, prev))
        # Children in canonical (tree-index) order for reproducible traversal.
        kids.sort(key=lambda item: tree_dots[item[0]])
        if kids:
            heads = []
            for child_dot, chain in kids:
                if chain:
                    heads.append(chain[0])
                    for a, b in zip(chain, chain[1:]):
                        child_map[a] = (b,)
                    child_map[chain[-1]] = (child_dot,)
                else:
                    heads.append(child_dot)
            child_map[dot] = tuple(heads)

    return ReferenceChainedTree(tree=tree, root=root_dot, child_map=child_map)


def reference_chain_below(tree: TreeSpec, n_inverters: int) -> ReferenceChainedTree:
    children = walks.children_of(tree)
    child_map: dict[int, tuple[int, ...]] = {
        n: children(n) for n in walks.postorder(tree) if children(n)
    }
    base = 2 * tree.n_leaves
    prev = tree.root
    for i in range(n_inverters):
        child_map[base + i] = (prev,)
        prev = base + i
    return ReferenceChainedTree(tree=tree, root=prev, child_map=child_map)


def random_tree(rng, depth: int, markers=None) -> TreeSpec:
    if markers is None:
        markers = {int(m) for m in rng.integers(1, 2**depth, rng.integers(0, depth + 1))}
    return TreeSpec(depth, tuple(rng.integers(0, 2, 2**depth)), frozenset(markers))


def layout_trees():
    """Every NOT-marker subset at depth 2, random markers at depths 1 and 3-8."""
    rng = np.random.default_rng(11)
    for subset in range(8):
        markers = {node for i, node in enumerate((1, 2, 3)) if subset >> i & 1}
        yield random_tree(rng, 2, markers)
    yield random_tree(rng, 1, set())
    yield random_tree(rng, 1, {1})
    for depth in range(3, 9):
        yield random_tree(rng, depth)
        yield random_tree(rng, depth, set())


LAYOUT_TREES = list(layout_trees())
TREE_IDS = [f"d{t.depth}-m{'-'.join(map(str, sorted(t.not_markers)))}" for t in LAYOUT_TREES]


@pytest.mark.parametrize("tree", LAYOUT_TREES, ids=TREE_IDS)
def test_build_matches_reference(tree):
    dots, links, role, binding = reference_build_hfractal(tree)
    graph = build_hfractal(tree)
    assert graph.dots.tolist() == [list(d) for d in dots]
    assert graph.links.tolist() == [list(link) for link in links]
    # The reference lists its roles in the dots' order.
    assert list(role) == [dot for dot, _, _ in dots]
    assert graph.level.tolist() == role_levels(role)
    tree_dots = graph.dots[graph.level >= 0, 0].tolist()
    assert dict(zip(tree_dots, tree_dots)) == binding
    assert graph.n_inverters == sum(r == "inverter" for r in role.values())
    # links[i] is the link into dots[i + 1].
    assert np.array_equal(graph.links[:, 1], graph.dots[1:, 0])


def role_levels(role: dict[int, str]) -> list[int]:
    """The reference's roles as :attr:`LayoutGraph.level`: a tree dot's
    level, -1 for an inverter."""
    return [-1 if r == "inverter" else int(r.removeprefix("level-")) for r in role.values()]


def assert_same_levels(got, want):
    got, want = walks.expanded(got), walks.expanded(want)
    assert len(got) == len(want)
    below = None
    for a, b in zip(got, want):
        assert a.nodes.dtype == b.nodes.dtype
        assert np.array_equal(a.nodes, b.nodes)
        assert len(a.slots) == len(b.slots)
        for (ia, ma), (ib, mb) in zip(a.slots, b.slots):
            assert type(ia) is type(ib)
            positions = np.arange(len(below))
            assert np.array_equal(positions[ia], positions[ib])
            assert (ma is None) == (mb is None)
            if ma is not None:
                assert np.array_equal(ma, mb)
        below = a.nodes


def assert_same_arrays(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def assert_same_chained(chained, reference):
    assert chained.root == reference.root
    assert_same_levels(chained.levels(), walks.levels(reference))
    assert_same_levels(chained.levels(), walks.levels(chained))
    assert_same_arrays(walks.by_id(chained.dots()), walks.dots(reference))
    assert_same_arrays(walks.by_id(chained.dots()), walks.dots(chained))


@pytest.mark.parametrize("tree", LAYOUT_TREES, ids=TREE_IDS)
def test_expand_matches_reference(tree):
    dots, links, role, binding = reference_build_hfractal(tree)
    reference = reference_expand_to_tree(links, role, binding, tree)
    assert_same_chained(expand_to_tree(build_hfractal(tree), tree), reference)
    # Hand-built layouts take the same path.
    graph = LayoutGraph(dots=dots, links=links, level=role_levels(role))
    assert_same_chained(expand_to_tree(graph, tree), reference)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 3000])
def test_chain_below_matches_reference(k):
    rng = np.random.default_rng(k)
    for tree in (random_tree(rng, 3, {2}), random_tree(rng, 1, set()),
                 random_tree(rng, 5)):
        assert_same_chained(chain_below(tree, k), reference_chain_below(tree, k))


def test_cli_layout_matches_reference(tmp_path):
    bits = "".join(map(str, np.random.default_rng(12).integers(0, 2, 4096)))
    path = tmp_path / "layout.csv"
    config = f"command = layout\ntree.depth = 12\ntree.bits = {bits}\noutput.path = {path}\n"
    run(parse_config(config), out=io.StringIO())
    dots, _, role, binding = reference_build_hfractal(build_tree(12, bits))
    rows = ["id,x,y,role,tree_node"]
    rows += [f"{dot},{x},{y},{role[dot]},{dot if dot in binding else ''}" for dot, x, y in dots]
    assert path.read_text() == "\n".join(rows) + "\n"


BASE_LINKS = ((1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7))


def hand_built(links, inverters=()):
    """A layout of the depth-2 tree 1..7; dots 8 and up are extra."""
    dots = sorted({d for link in links for d in link} | set(inverters) | set(range(1, 8)))
    level = [-1 if d in inverters else d.bit_length() - 1 for d in dots]
    return LayoutGraph(dots=[(d, d, 0) for d in dots], links=links, level=level)


@pytest.mark.parametrize("graph, message", [
    (hand_built(BASE_LINKS + ((1, 8),), inverters=(8,)), "inverter dot 8 must have exactly 2"),
    (hand_built(BASE_LINKS + ((8, 9), (9, 8)), inverters=(8, 9)), "is on no chain"),
    (hand_built(BASE_LINKS + ((3, 5),)), "dot 5 has more than one parent"),
    (hand_built(BASE_LINKS + ((4, 9),)), "tree dot 4 has 1 child links for 0"),
    (hand_built(BASE_LINKS[:5] + ((3, 8), (8, 9)), inverters=(8,)), "dot 8 is on no chain"),
    (hand_built(BASE_LINKS[:3] + ((2, 6), (3, 5), (3, 7))), "tree dot 5 does not hang"),
    (hand_built(BASE_LINKS + ((9, 1),)), "tree dot 1 does not hang"),
])
def test_expand_rejects_layouts_that_do_not_realize_the_tree(graph, message):
    expand_to_tree(hand_built(BASE_LINKS), build_tree(2, (1, 0, 1, 1)))  # the unbroken layout
    with pytest.raises(StructureError, match=message):
        expand_to_tree(graph, build_tree(2, (1, 0, 1, 1)))
