import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecell import tree as T
from treecell.genetic import (
    crossover_homologous,
    mutate_insert,
    mutate_replace,
    mutate_shrink,
    random_genome,
    shared_region,
    tree_distance,
)
from treecell.grammar import parse, serialize
from treecell.tree import build_tree, canonical_text, height, seed_tree, size, validate


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


# --- distance ----------------------------------------------------------------


def test_distance_zero_on_identical():
    t = seed_tree()
    assert tree_distance(t, t) == 0.0


def test_distance_worked_example():
    # n_i=7, d_i=4, n_j=5, d_j=4; shared pairs n_S=5 at depth d_S=4:
    # delta = 0.5*(12-10)/(12-2) + 0.5*(8-8)/(8-2) = 0.1
    a = parse("(add (mul x0 x1) (tanh (tanh x2)))")
    b = parse("(add x4 (tanh (tanh x5)))")
    region = shared_region(a, b)
    assert (T.size(a), T.height(a)) == (7, 4)
    assert (T.size(b), T.height(b)) == (5, 4)
    assert (region.n_shared, region.depth_shared) == (5, 4)
    assert tree_distance(a, b) == pytest.approx(0.1, abs=1e-15)


def test_distance_mirror_pair_is_zero():
    left = parse("(mul (add x0 (tanh x1)) (sigmoid x2))")
    right = parse("(mul (sigmoid x2) (add (tanh x1) x0))")
    assert tree_distance(left, right) == 0.0


def test_distance_arity_mismatch_at_root():
    # only the root pair matches; both terms saturate at 1
    a = parse("(add x0 x1)")
    b = parse("(tanh x0)")
    region = shared_region(a, b)
    assert region.n_shared == 1 and region.depth_shared == 1
    assert tree_distance(a, b) == 1.0


def test_distance_099_fixture_for_archive_threshold():
    # n_i=10, d_i=8 fully embedded in n_j=17, d_j=14: n_S=10, d_S=8
    # delta = 0.5*(27-20)/25 + 0.5*(22-16)/20 = 0.14 + 0.15 = 0.29
    a = parse("(add x0 (tanh (sigmoid (add x1 (relu (tanh (sigmoid x2)))))))")
    b = parse(
        "(add (tanh x3) (sigmoid (relu (add x4 (tanh (sigmoid (relu (tanh "
        "(sigmoid (relu (tanh (sigmoid (relu x5)))))))))))))")
    region = shared_region(a, b)
    assert (T.size(a), T.height(a), T.size(b), T.height(b)) == (10, 8, 17, 14)
    assert (region.n_shared, region.depth_shared) == (10, 8)
    assert tree_distance(a, b) == pytest.approx(0.29, abs=1e-12)


def test_distance_degenerate_single_nodes():
    a = parse("x0")
    b = parse("cprev")
    assert tree_distance(a, b) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=10_000))
def test_distance_symmetric_bounded(sa, sb):
    a = random_genome(rng_for(sa))
    b = random_genome(rng_for(sb))
    d_ab = tree_distance(a, b)
    d_ba = tree_distance(b, a)
    assert d_ab == pytest.approx(d_ba, abs=1e-15)
    assert 0.0 <= d_ab <= 1.0


RELABEL = {"add": "mul", "mul": "add", "tanh": "relu", "sigmoid": "tanh", "relu": "sigmoid"}


def relabel(tree):
    expr = T.tree_to_expr(tree)

    def walk(e):
        kind, tap, children = e
        return (RELABEL.get(kind, kind), tap, tuple(walk(c) for c in children))

    return T.expr_to_tree(walk(expr))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=10_000))
def test_distance_ignores_element_kinds(sa, sb):
    a = random_genome(rng_for(sa))
    b = random_genome(rng_for(sb))
    assert tree_distance(a, b) == pytest.approx(
        tree_distance(relabel(a), relabel(b)), abs=1e-15)


def test_shared_region_identical_trees_is_whole_tree():
    t = seed_tree()
    region = shared_region(t, t)
    assert region.n_shared == size(t)
    assert region.depth_shared == height(t)


# --- mutations ---------------------------------------------------------------


def test_replace_only_legal_swap():
    # the lone element is add; the sole same-category alternative is mul
    t = build_tree(("add", "x0", "x1"))
    out = mutate_replace(t, rng_for(0))
    assert out.nodes[out.root].kind == "mul"
    assert size(out) == 3


def test_replace_conflict_tree_never_gets_worse():
    # a nonlinear chain cannot be fixed by same-category replacement: the
    # operator stays total and never adds violations
    t = build_tree(("tanh", ("sigmoid", "x0")))
    before = len(validate(t))
    out = mutate_replace(t, rng_for(1))
    assert len(validate(out)) <= before
    assert size(out) == size(t)


def test_replace_preserves_shape_on_valid_trees():
    rng = rng_for(7)
    t = seed_tree()
    for _ in range(1000):
        out = mutate_replace(t, rng)
        assert size(out) == size(t)
        assert height(out) == height(t)
        assert validate(out) == []
        t = out


def test_insert_grows_by_inserted_subtree_size():
    t = seed_tree()
    linear_case = False
    for seed in range(200):
        out = mutate_insert(t, rng_for(seed))
        grown = size(out) - size(t)
        # nonlinear insertion adds 1 node, linear adds the element + a leaf
        assert grown in (0, 1, 2)
        assert validate(out) == []
        if grown == 2:
            linear_case = True
    assert linear_case


def test_insert_at_leaf_smallest_case():
    # find a deterministic seed where a linear element lands on a leaf: the
    # displaced leaf becomes one child, a fresh leaf the other
    t = seed_tree()
    leaf_count = sum(1 for n in t.preorder() if t.nodes[n].kind in T.LEAVES)
    for seed in range(500):
        out = mutate_insert(t, rng_for(seed))
        if size(out) - size(t) != 2:
            continue
        new_linear = [
            out.nodes[n] for n in out.preorder()
            if out.nodes[n].kind in T.LINEAR
            and all(out.nodes[c].kind in T.LEAVES for c in out.nodes[n].children)
        ]
        extra_leaves = sum(1 for n in out.preorder() if out.nodes[n].kind in T.LEAVES)
        if new_linear and extra_leaves == leaf_count + 1:
            return
    pytest.fail("no linear-insert-at-leaf case found in 500 seeded trials")


def test_insert_modi_rate_zero_never_tags():
    rng = rng_for(3)
    t = seed_tree()
    for _ in range(1000):
        t = mutate_insert(t, rng, memory_tap_rate=0.0)
        assert all(t.nodes[n].tap is None for n in t.preorder())
        if size(t) > 120:
            t = seed_tree()


def test_insert_tap_requires_memory_path():
    # no memory leaf anywhere: a tap may appear only if the fresh leaf is
    # itself cprev/dprev, so every tapped node must still have a memory path
    base = build_tree(
        ("tanh", ("add", ("add", ("add", ("add", "x0", "x1"), ("add", "x2", "x3")),
                          ("add", ("add", "x4", "x5"), ("add", "x6", "x7"))), "x0")))
    assert validate(base) == []
    rng = rng_for(11)
    tagged_without_memory = 0
    for _ in range(500):
        out = mutate_insert(base, rng, memory_tap_rate=1.0)
        for nid in out.preorder():
            if out.nodes[nid].tap is not None and not out.reaches_memory(nid):
                tagged_without_memory += 1
    assert tagged_without_memory == 0


def test_shrink_hoists_child():
    # shrinking the tanh branch hoists its add argument into place
    t = build_tree(
        ("tanh", ("add", ("add", ("add", ("add", "x0", "x1"), ("add", "x2", "x3")),
                          ("add", ("add", "x4", "x5"), ("add", "x6", "x7"))),
          ("add", "cprev", "dprev"))))
    assert validate(t) == []
    grown = mutate_insert(t, rng_for(5))
    assert size(grown) > size(t) or serialize(grown) == serialize(t)
    rng = rng_for(9)
    shrunk = 0
    cur = grown
    for _ in range(200):
        out = mutate_shrink(cur, rng)
        if serialize(out) != serialize(cur):
            assert size(out) < size(cur)
            shrunk += 1
        assert validate(out) == []
        cur = out
    assert shrunk > 0


def test_shrink_respects_height_floor():
    rng = rng_for(13)
    t = seed_tree()
    for _ in range(300):
        t = mutate_shrink(t, rng)
        assert height(t) >= T.MIN_HEIGHT
        assert validate(t) == []


def test_operators_deterministic_given_seed():
    t = random_genome(rng_for(42), steps=6)
    a = mutate_insert(t, rng_for(99), 0.3)
    b = mutate_insert(t, rng_for(99), 0.3)
    assert serialize(a) == serialize(b)
    ca = crossover_homologous(t, seed_tree(), rng_for(7))
    cb = crossover_homologous(t, seed_tree(), rng_for(7))
    assert [serialize(x) for x in ca] == [serialize(x) for x in cb]


# --- crossover ---------------------------------------------------------------


def test_crossover_identical_parents():
    t = seed_tree()
    a, b = crossover_homologous(t, t, rng_for(0))
    assert canonical_text(a) == canonical_text(t)
    assert canonical_text(b) == canonical_text(t)


def test_crossover_mirror_parents_exchange_subtrees():
    # mirror images share the whole tree, so offspring stay in the family
    pa = random_genome(rng_for(21), steps=5)
    expr = T.tree_to_expr(pa)

    def mirror(e):
        kind, tap, children = e
        return (kind, tap, tuple(mirror(c) for c in reversed(children)))

    pb = T.expr_to_tree(mirror(expr))
    assert tree_distance(pa, pb) == 0.0
    a, b = crossover_homologous(pa, pb, rng_for(2))
    assert validate(a) == [] and validate(b) == []


def test_crossover_validity_over_random_pairs():
    rng = rng_for(17)
    for trial in range(300):
        pa = random_genome(rng_for(trial), steps=5)
        pb = random_genome(rng_for(trial + 50_000), steps=5)
        a, b = crossover_homologous(pa, pb, rng)
        assert validate(a) == []
        assert validate(b) == []


def test_crossover_point_excludes_root_when_possible():
    # with more than one shared pair, children differ from straight swaps
    # of whole trees in at least some trials
    pa = random_genome(rng_for(1), steps=5)
    pb = random_genome(rng_for(2), steps=5)
    whole_swap = {canonical_text(pa), canonical_text(pb)}
    changed = 0
    for s in range(50):
        a, b = crossover_homologous(pa, pb, rng_for(s))
        if {canonical_text(a), canonical_text(b)} != whole_swap:
            changed += 1
    assert changed > 0
