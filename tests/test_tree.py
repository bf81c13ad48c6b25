import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecell import tree as T
from treecell.genetic import random_genome
from treecell.grammar import serialize
from treecell.tree import (
    NodeTree,
    StructureError,
    TreeNode,
    build_tree,
    canonical_text,
    canonicalize,
    height,
    seed_tree,
    size,
    validate,
)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_seed_tree_is_valid_and_height_six():
    t = seed_tree()
    assert validate(t) == []
    assert height(t) == 6
    assert size(t) == 20
    leaves = sorted(n.kind for n in t.nodes.values() if T.is_leaf(n.kind))
    assert leaves == sorted(list(T.BASE_INPUTS) + list(T.MEMORY_LEAVES))


def test_height_and_size_small_tree():
    t = build_tree(("add", "x0", "x1"))
    assert height(t) == 2
    assert size(t) == 3


def test_consecutive_nonlinearity_reported():
    t = build_tree(("tanh", ("sigmoid", "x0")))
    report = validate(t)
    assert any(v.rule == "consecutive-nonlinearity" for v in report)
    offender = next(v for v in report if v.rule == "consecutive-nonlinearity")
    assert offender.node_id == t.root


def test_height_bound_violations():
    # chain of alternating add levels, 16 on the longest path
    expr = "x0"
    for i in range(15):
        expr = ("add", expr, f"x{i % 8}")
    t = build_tree(expr)
    assert height(t) == 16
    assert any(v.rule == "height-max" for v in validate(t))
    small = build_tree(("tanh", ("add", "x0", "x1")))
    assert any(v.rule == "height-min" for v in validate(small))


def test_tap_requires_memory_path():
    t = build_tree(("tanh", ("add@c", "x0", "x1")))
    assert any(v.rule == "tap-without-memory" for v in validate(t))
    ok = build_tree(("tanh", ("add@c", "x0", "cprev")))
    assert not any(v.rule == "tap-without-memory" for v in validate(ok))


def test_tap_on_root_rejected():
    t = build_tree(("add@c", "x0", "cprev"))
    assert any(v.rule == "tap-on-root" for v in validate(t))


def test_structural_errors_raise():
    nodes = {0: TreeNode(0, "add", (1, 2)), 1: TreeNode(1, "x0")}
    with pytest.raises(StructureError):
        NodeTree(0, nodes)
    bad_arity = {0: TreeNode(0, "tanh", (1, 2)),
                 1: TreeNode(1, "x0"), 2: TreeNode(2, "x1")}
    with pytest.raises(StructureError):
        NodeTree(0, bad_arity)


def test_has_memory_path():
    t = build_tree(("add", "x0", ("mul", "cprev", "x1")))
    assert t.reaches_memory(t.root)
    x0 = next(n for n in t.preorder() if t.nodes[n].kind == "x0")
    assert not t.reaches_memory(x0)
    c = next(n for n in t.preorder() if t.nodes[n].kind == "cprev")
    assert t.reaches_memory(c)
    with pytest.raises(KeyError):
        t.reaches_memory(999)


def test_memory_leaf_alone_has_memory_path():
    t = build_tree(("add", "cprev", "x0"))
    leaf = next(n for n in t.preorder() if t.nodes[n].kind == "cprev")
    assert t.reaches_memory(leaf)


def test_canonicalize_orders_commutative_children():
    a = build_tree(("add", "x0", "x1"))
    b = build_tree(("add", "x1", "x0"))
    assert T.canonical_text(a) == T.canonical_text(b)


def test_canonicalize_mirror_image():
    # full mirror: every add/mul child pair swapped
    left = build_tree(("mul", ("add", "x0", ("tanh", "x1")), ("sigmoid", "x2")))
    right = build_tree(("mul", ("sigmoid", "x2"), ("add", ("tanh", "x1"), "x0")))
    assert T.canonical_text(left) == T.canonical_text(right)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_canonicalize_idempotent_and_preserving(seed):
    t = random_genome(rng_for(seed))
    c1 = canonicalize(t)
    c2 = canonicalize(c1)
    assert T.node_text(c1, c1.root) == T.node_text(c2, c2.root)
    assert canonical_text(t) == serialize(c1)
    assert validate(c1) == []
    assert size(c1) == size(t)
    assert height(c1) == height(t)
    assert (sorted(n.kind for n in c1.nodes.values() if T.is_leaf(n.kind))
            == sorted(n.kind for n in t.nodes.values() if T.is_leaf(n.kind)))


def test_untagged_output_is_passthrough_by_construction():
    t = seed_tree()
    taps = [n for n in t.preorder() if t.nodes[n].tap is not None]
    assert taps == []
