"""Tree construction in linear time, checked against the code it replaced.

``TreeSpec`` checks its bits once, a list or tuple of ints in one C-level
pass; ``greens._worst_bits`` builds the worst-case bits by
doubling; ``transport`` imports the quadrature rule only when kT > 0
first needs it.  Each test below keeps the replaced code verbatim (the
``*_before`` functions) and checks the new code against it.
"""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import nandtree
from nandtree import StructureError, TreeSpec, build_tree, eval_nand, worst_case_tree
from nandtree.classical import _nand, _with_bits
from nandtree.greens import _worst_bits
from nandtree.model import _as_bits


def _as_bits_before(bits) -> tuple[int, ...]:
    if isinstance(bits, str):
        if set(bits) - {"0", "1"}:
            raise StructureError(f"input bits must be 0/1 characters, got {bits!r}")
        bits = [int(c) for c in bits]
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise StructureError(f"input bits must be 0/1, got {out!r}")
    return out


def _worst_bits_before(depth: int, value: int) -> tuple[int, ...]:
    # Most dangerous subtrees: a "1" is NAND("1", "0"), a "0" is
    # NAND("1", "1"), so slope growth compounds at every other level.
    if depth == 0:
        return (value,)
    if value == 1:
        return _worst_bits_before(depth - 1, 1) + _worst_bits_before(depth - 1, 0)
    return _worst_bits_before(depth - 1, 1) + _worst_bits_before(depth - 1, 1)


def eval_nand_before(tree: TreeSpec, bits=None) -> int:
    leaves = np.asarray(_with_bits(tree, bits).input_bits, dtype=np.uint8)
    return int(_nand(tree, leaves))


def leaf_values_before(tree: TreeSpec, ids: np.ndarray) -> np.ndarray:
    n = tree.n_leaves
    table = np.zeros(2 * n + 1, np.int64)
    table[n:2 * n] = np.frombuffer(bytes(tree.input_bits), np.uint8)
    table[n + 1:2 * n:2] *= -1
    return table[np.clip(ids, -1, 2 * n)]


def _accepted_inputs():
    """Bits in every form accepted before and after, 8 of them each."""
    rng = np.random.default_rng(22)
    base = rng.integers(0, 2, 8)
    ints = base.tolist()
    yield "list of ints", ints
    yield "tuple of ints", tuple(ints)
    yield "list of bools", [bool(b) for b in ints]
    yield "tuple of bools", tuple(bool(b) for b in ints)
    yield "list of numpy int64", list(base)
    yield "list of numpy uint8", list(base.astype(np.uint8))
    yield "list of numpy bools", list(base.astype(bool))
    yield "mixed ints", [ints[0], bool(ints[1]), np.int8(ints[2])] + ints[3:]
    # Arrays: bytes() of these would read their raw memory, 8 bytes per
    # int64 bit, so they are read as the list of their Python values.
    yield "int64 array", base
    yield "int32 array", base.astype(np.int32)
    yield "uint8 array", base.astype(np.uint8)
    yield "bool array", base.astype(bool)
    yield "strided int64 array", np.repeat(base, 2)[::2]
    yield "float array", base.astype(float)
    yield "string", "".join(map(str, ints))
    yield "tuple of characters", tuple("".join(map(str, ints)))
    yield "bytes", bytes(ints)
    yield "bytearray", bytearray(ints)
    yield "floats 0.0/1.0", [float(b) for b in ints]
    yield "numpy floats", list(base.astype(float))
    yield "all zeros", [0] * 8
    yield "all ones", np.ones(8, np.int64)


@pytest.mark.parametrize("name, bits", list(_accepted_inputs()))
def test_bits_match_the_replaced_check(name, bits):
    # The same tuple of Python ints from the old check and from the tree.
    want = _as_bits_before(bits)
    tree = TreeSpec(3, bits)
    assert tree.input_bits == want
    assert all(type(b) is int for b in tree.input_bits)
    assert tuple(_as_bits(bits)) == want
    assert build_tree(3, bits) == TreeSpec(3, want)
    assert hash(build_tree(3, bits)) == hash(TreeSpec(3, want))
    # An iterator is read once, by the one check.
    assert TreeSpec(3, iter(want)).input_bits == want


@pytest.mark.parametrize("bits", [
    "0120", "01 1", "1\n", [0, 2], (0, 1, 3), [-1, 0], [256, 0], [0, 1 << 40],
    np.array([0, 2]), np.array([-1, 1], np.int8), np.array([0, 300], np.int64),
    np.array([7, 1], np.uint8), bytes([0, 2]), b"01",
    # int() read these as ints, and the message named them so.
    [True, 2], [np.int64(2), 0], (np.uint8(7), np.True_), [2.0, 1], ["2", "0"],
    np.array([1.0, 3.0]),
])
def test_rejections_match_the_replaced_check(bits):
    # Inputs the old check rejected are rejected with the same message.
    with pytest.raises(StructureError) as before:
        _as_bits_before(bits)
    with pytest.raises(StructureError) as after:
        _as_bits(bits)
    assert str(after.value) == str(before.value)


@pytest.mark.parametrize("bits", [None, 5, [None, 0], ["a", "1"], [[0, 1], [1, 0]],
                                  np.array([[0, 1], [1, 0]]), np.array(1), [object()]])
def test_values_that_raised_other_errors_raise_structure_errors(bits):
    with pytest.raises((TypeError, ValueError)):
        _as_bits_before(bits)
    with pytest.raises(StructureError, match="input bits must be 0/1"):
        TreeSpec(1, bits)


def test_wrong_lengths_are_counted_after_the_check():
    for bits in ([0, 1, 1], np.zeros(3, np.int64), "011", (True,) * 5):
        with pytest.raises(StructureError, match=f"need 2\\*\\*1 = 2 input bits, got {len(bits)}"):
            TreeSpec(1, bits)
    # Four int64 bits count as 4, not as the 32 bytes of their raw memory.
    with pytest.raises(StructureError, match="got 4$"):
        TreeSpec(3, np.ones(4, np.int64))


@pytest.mark.parametrize("bits", [[0.9, 1.7], [0.5, 0], [1, 1.0000001], [np.float64(0.99), 1],
                                  np.array([0.99, 0.0]), [1, np.nan], [True, 2.0],
                                  [Fraction(1, 2), 0], ["00", "1"], ["1", "01"], [1 + 1j, 0]])
def test_values_other_than_0_and_1_are_not_truncated(bits):
    # These were truncated by int(): build_tree(1, [0.9, 1.7]) had bits
    # (0, 1), and eval_nand on bits [0.99, 0.99] returned 1.
    with pytest.raises(StructureError, match="input bits must be 0/1"):
        build_tree(1, bits)
    with pytest.raises(StructureError, match="input bits must be 0/1"):
        eval_nand(build_tree(1, "00"), bits=bits)


def test_values_int_read_as_bits_are_named_as_given():
    # The message names the values themselves where int() would have read
    # them all as 0 or 1: (0, 1) would not say what was wrong.
    for bits, shown in (([0.9, 1.7], "(0.9, 1.7)"), (["00", "1"], "('00', '1')"),
                        ([np.float64(0.99), True], "(np.float64(0.99), True)")):
        with pytest.raises(StructureError, match=f"input bits must be 0/1, got {re.escape(shown)}$"):
            build_tree(1, bits)


def test_values_equal_to_0_or_1_are_accepted():
    for one, zero in ((1.0, 0.0), (np.float32(1), np.float64(-0.0)), (np.True_, np.False_),
                      (Fraction(1), Fraction(0)), (1 + 0j, 0j), ("1", "0")):
        tree = build_tree(1, [one, zero])
        assert tree.input_bits == (1, 0) and all(type(b) is int for b in tree.input_bits)
        assert eval_nand(build_tree(1, "11"), bits=[one, zero]) == 1


@pytest.mark.parametrize("value", [0, 1])
def test_worst_bits_by_doubling_match_the_recursion(value):
    for depth in range(15):
        got = _worst_bits(depth, value)
        assert type(got) is tuple and got == _worst_bits_before(depth, value)


def test_worst_case_tree_keeps_its_bits():
    for depth in range(1, 13):
        assert worst_case_tree(depth).input_bits == _worst_bits_before(depth, 1)


def _trees():
    rng = np.random.default_rng(7)
    for depth in (1, 2, 5, 9, 12):
        yield build_tree(depth, rng.integers(0, 2, 2**depth))
    yield worst_case_tree(10)
    yield TreeSpec(3, (1, 0, 1, 1, 0, 0, 1, 0), frozenset({3}))
    yield TreeSpec(4, rng.integers(0, 2, 16), frozenset({3, 4}))


@pytest.mark.parametrize("tree", list(_trees()), ids=lambda t: f"depth{t.depth}")
def test_eval_nand_and_leaf_values_match_the_old_reads(tree):
    rng = np.random.default_rng(tree.depth)
    assert eval_nand(tree) == eval_nand_before(tree)
    for _ in range(5):
        bits = rng.integers(0, 2, tree.n_leaves)
        for given in (bits, bits.tolist(), "".join(map(str, bits.tolist()))):
            assert eval_nand(tree, bits=given) == eval_nand_before(tree, bits=given)
    n = tree.n_leaves
    ids = np.concatenate([np.arange(-3, 2 * n + 3), rng.integers(-10, 4 * n, 50)])
    got, want = tree.leaf_values(ids), leaf_values_before(tree, ids)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_quadrature_rule_is_imported_on_first_use():
    # A fresh interpreter: importing the package leaves numpy.polynomial
    # out, and the deferred rule equals leggauss(16) bit for bit.
    code = (
        "import json, sys\n"
        "import nandtree\n"
        "from nandtree import transport\n"
        "before = 'numpy.polynomial' in sys.modules\n"
        "x, w = transport._gauss_legendre()\n"
        "from numpy.polynomial.legendre import leggauss\n"
        "rx, rw = leggauss(16)\n"
        "print(json.dumps([before, x.tobytes() == rx.tobytes(), w.tobytes() == rw.tobytes(),\n"
        "                  x.dtype == rx.dtype and w.dtype == rw.dtype, transport._ORDER]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=_env())
    assert json.loads(out.stdout) == [False, True, True, True, 16]


def _env():
    """This interpreter's environment, with the package's source on the path."""
    src = os.path.dirname(os.path.dirname(nandtree.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
