"""Pinned digests of the ideal and disordered parameters of four trees.

Each digest is the SHA-256 of every (key, value bits) entry of a table,
taken in ascending key order (links by (parent, child)), so it pins the
keys and the bits of the values whatever order a table stores them in.
"""

import hashlib

import numpy as np
import pytest

from nandtree import build_tree, ideal_parameters, sample_disorder_many
from nandtree.layout import build_hfractal, chain_below, expand_to_tree
from nandtree.model import DisorderSpec, TreeSpec

BITS = tuple(np.random.default_rng(6).integers(0, 2, 64).tolist())

TREES = {
    "unmarked": lambda: build_tree(6, BITS),
    "marked": lambda: TreeSpec(6, BITS, frozenset({3, 6, 12, 25})),
    "chain": lambda: chain_below(build_tree(6, BITS), 5),
    "hfractal": lambda: expand_to_tree(build_hfractal(build_tree(6, BITS)), build_tree(6, BITS)),
}

SPECS = [DisorderSpec(0.05, 0.05, seed) for seed in (1, 2, 3)]

DIGESTS = {
    "unmarked": ("5dfb990d8acfec6fc951d69460377b8aa1fadf11a1291fa1b6afd15201ebf807",
                 "c40f7aa5c3d997514f6dacabd099905f64171372f4efded912d8028be1cf7422"),
    "marked": ("014599d1b1240f30ab17b4a3bfe34ed325f6c09d3993adab59aa298c03f47890",
               "5ebe83c3d06b8b185385131284109fdc9c104c6e014550fb727fa91eda5fccdc"),
    "chain": ("fe188bcb8369342417cde6f68eceda7b193fdc2570eaf16ac3484ab9ac54417f",
              "9aec086fce65808d2f669f8b802072c95ca94394f4459be7360200f17443a274"),
    "hfractal": ("0715461e81c91f43a4aac436dd5b14adf40a706d159211773bc5c37d27f286b1",
                 "cbf32cdada936451644ed8422cc501ddfd6225e5419dfbd4a499a28710327198"),
}


def digest(params) -> str:
    """SHA-256 over both tables' (key, value bits) entries in ascending key order."""
    h = hashlib.sha256()
    for table in (params.epsilon, params.coupling):
        keys = table.keys_array.reshape(len(table), -1)
        order = np.lexsort(keys.T[::-1])
        h.update(np.ascontiguousarray(keys[order], dtype="<i8").tobytes())
        values = table.values_array[..., order]
        h.update(np.ascontiguousarray(values, dtype="<f8").view("<u8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", TREES)
def test_parameter_digests_are_pinned(name):
    tree = TREES[name]()
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    many = sample_disorder_many(tree, ideal, SPECS)
    assert (digest(ideal), digest(many)) == DIGESTS[name]
