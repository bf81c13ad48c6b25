"""Genetic operators: the three mutations, rotation-aware homologous
crossover, and the structural tree distance used for speciation.

Every operator takes valid trees and returns valid trees: an edit that
breaks a rule is retried a bounded number of times, and then the input is
returned unchanged.  All randomness comes from an explicit
numpy.random.Generator, so applications replay exactly given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tree as T
from .tree import NodeTree

RETRY_BUDGET = 20
DISTANCE_BETA = 0.5  # weight of the size term against the depth term: equal


@dataclass(frozen=True)
class SharedRegion:
    """Top-down matched region between two rotation-sorted trees.

    ``pairs`` holds (node id in tree_a, node id in tree_b), root pair
    first; matched pairs form a connected subtree of both trees.  The
    rotated trees are carried along so callers can graft at pair points.
    """

    pairs: tuple[tuple[int, int], ...]
    n_shared: int
    depth_shared: int
    tree_a: NodeTree = field(repr=False)
    tree_b: NodeTree = field(repr=False)


def rotate_by_shape(tree: NodeTree) -> NodeTree:
    """Sort add/mul children into a label-independent canonical rotation.

    Children are ordered by (size, height, kind-blind shape), so the
    ordering is invariant under element relabeling, which keeps the
    distance purely structural.  Add and mul are commutative, so the
    rotated tree computes the same values; mirror-image trees rotate to the
    same shape and therefore align position by position during matching.
    """
    return T.expr_to_tree(T.sort_commutative(tree, T.shape_label)[0])


def shared_region(ta: NodeTree, tb: NodeTree) -> SharedRegion:
    """Greedy top-down match after canonical rotation of both trees.

    The root pair always matches.  A matched pair descends into its
    children (pairwise, in rotated order) only when both nodes have the
    same arity; nodes paired across an arity mismatch still count but end
    the descent there.
    """
    ra = rotate_by_shape(ta)
    rb = rotate_by_shape(tb)
    pairs: list[tuple[int, int]] = []
    depth_shared = 0
    stack = [(ra.root, rb.root, 1)]
    while stack:
        na, nb, depth = stack.pop()
        pairs.append((na, nb))
        depth_shared = max(depth_shared, depth)
        ca = ra.nodes[na].children
        cb = rb.nodes[nb].children
        if len(ca) == len(cb):
            for a, b in zip(reversed(ca), reversed(cb)):
                stack.append((a, b, depth + 1))
    return SharedRegion(tuple(pairs), len(pairs), depth_shared, ra, rb)


def tree_distance(ta: NodeTree, tb: NodeTree) -> float:
    """Structural distance in [0, 1]; 0 iff the shapes match under rotation.

    delta = beta * (N - 2 n_S) / (N - 2) + (1 - beta) * (D - 2 d_S) / (D - 2)
    with beta = DISTANCE_BETA, N/D the summed sizes/depths of both trees
    and n_S/d_S those of the shared region.  A degenerate denominator
    (both trees minimal in that dimension) contributes 0: there is no
    difference left to measure.
    """
    region = shared_region(ta, tb)
    n = T.size(ta) + T.size(tb)
    d = T.height(ta) + T.height(tb)
    size_term = (n - 2 * region.n_shared) / (n - 2) if n > 2 else 0.0
    depth_term = (d - 2 * region.depth_shared) / (d - 2) if d > 2 else 0.0
    return DISTANCE_BETA * size_term + (1.0 - DISTANCE_BETA) * depth_term


# --- mutations --------------------------------------------------------------


def _finish(tree: NodeTree, target: int, replacement) -> NodeTree | None:
    """Put ``replacement`` (an Expr) in at node ``target``; None if that breaks a rule."""

    def walk(nid: int):
        if nid == target:
            return replacement
        node = tree.nodes[nid]
        return (node.kind, node.tap, tuple(walk(c) for c in node.children))

    candidate = T.strip_invalid_taps(T.expr_to_tree(walk(tree.root)))
    return None if T.validate(candidate) else candidate


def mutate_replace(tree: NodeTree, rng: np.random.Generator) -> NodeTree:
    """Swap one element for a different kind of the same category.

    Linear swaps with linear (add <-> mul) and nonlinear with nonlinear,
    so arity never changes; leaves are not targets.  If a swap would break
    a rule the target is resampled up to the retry budget, after which the
    input is returned unchanged.
    """
    targets = [nid for nid in tree.preorder() if tree.nodes[nid].kind in T.ELEMENTS]
    if not targets:
        return tree
    for _ in range(RETRY_BUDGET):
        nid = targets[rng.integers(len(targets))]
        node = tree.nodes[nid]
        pool = T.LINEAR if node.kind in T.LINEAR else T.NONLINEAR
        options = [k for k in pool if k != node.kind]
        new_kind = options[rng.integers(len(options))]
        _, tap, children = T.tree_to_expr(tree, nid)
        candidate = _finish(tree, nid, (new_kind, tap, children))
        if candidate is not None:
            return candidate
    return tree


def mutate_insert(tree: NodeTree, rng: np.random.Generator,
                  memory_tap_rate: float = 0.0) -> NodeTree:
    """Insert a new element above a random position.

    The displaced subtree becomes a child of the new node; a linear
    insertion additionally gains a fresh random leaf on the other side.
    The new node is tapped to c or d (uniformly) with probability
    ``memory_tap_rate``, and only when its subtree reaches a memory leaf.
    Positions whose path is already at the height cap are never chosen; if
    none qualify the input is returned unchanged.
    """
    positions = [
        nid for nid in tree.preorder()
        if tree.depth_of(nid) + tree.height_of(nid) <= T.MAX_HEIGHT
    ]
    if not positions:
        return tree
    for _ in range(RETRY_BUDGET):
        nid = positions[rng.integers(len(positions))]
        new_kind = T.ELEMENTS[rng.integers(len(T.ELEMENTS))]
        children = [T.tree_to_expr(tree, nid)]
        if new_kind in T.LINEAR:
            children.append((T.LEAVES[rng.integers(len(T.LEAVES))], None, ()))
            if rng.integers(2):
                children.reverse()
        memory = tree.reaches_memory(nid) or any(c[0] in T.MEMORY_LEAVES for c in children)
        tap = None
        if nid != tree.root and rng.random() < memory_tap_rate and memory:
            tap = T.TAPS[rng.integers(len(T.TAPS))]
        candidate = _finish(tree, nid, (new_kind, tap, tuple(children)))
        if candidate is not None:
            return candidate
    return tree


def mutate_shrink(tree: NodeTree, rng: np.random.Generator) -> NodeTree:
    """Replace a random non-root element by one of its children.

    Shrinks that would drop below the height floor (or otherwise break a
    rule) are resampled up to the retry budget, then the input is returned
    unchanged.
    """
    targets = [nid for nid in tree.preorder()[1:] if tree.nodes[nid].kind in T.ELEMENTS]
    if not targets:
        return tree
    for _ in range(RETRY_BUDGET):
        nid = targets[rng.integers(len(targets))]
        node = tree.nodes[nid]
        keep = int(rng.integers(len(node.children)))
        candidate = _finish(tree, nid, T.tree_to_expr(tree, node.children[keep]))
        if candidate is not None:
            return candidate
    return tree


def crossover_homologous(pa: NodeTree, pb: NodeTree,
                         rng: np.random.Generator) -> tuple[NodeTree, NodeTree]:
    """One-point crossover restricted to the shared region.

    A pair is drawn uniformly from the shared region (the root pair is
    excluded whenever any other pair exists) and the subtrees below the
    paired points are exchanged.  Children failing validation resample the
    point up to the retry budget; the final fallback returns the parents.
    """
    region = shared_region(pa, pb)
    candidates = region.pairs[1:] if len(region.pairs) > 1 else region.pairs
    ta, tb = region.tree_a, region.tree_b
    for _ in range(RETRY_BUDGET):
        na, nb = candidates[rng.integers(len(candidates))]
        child_a = _finish(ta, na, T.tree_to_expr(tb, nb))
        child_b = _finish(tb, nb, T.tree_to_expr(ta, na))
        if child_a is not None and child_b is not None:
            return child_a, child_b
    return pa, pb


def mutate_pipeline(tree: NodeTree, rng: np.random.Generator, insert_rate: float,
                    shrink_rate: float, memory_tap_rate: float) -> NodeTree:
    """Apply insert and shrink independently, falling back to replace.

    Insert fires with probability ``insert_rate`` and shrink with
    ``shrink_rate``; when neither fires, a replace mutation runs so every
    call changes something when a change is possible.
    """
    applied = False
    if rng.random() < insert_rate:
        tree = mutate_insert(tree, rng, memory_tap_rate)
        applied = True
    if rng.random() < shrink_rate:
        tree = mutate_shrink(tree, rng)
        applied = True
    if not applied:
        tree = mutate_replace(tree, rng)
    return tree


def random_genome(rng: np.random.Generator, steps: int = 8,
                  memory_tap_rate: float = 0.3) -> NodeTree:
    """Random valid genome: a random operator walk away from the seed tree."""
    genome = T.seed_tree()
    for _ in range(steps):
        r = rng.random()
        if r < 0.55:
            genome = mutate_insert(genome, rng, memory_tap_rate)
        elif r < 0.8:
            genome = mutate_replace(genome, rng)
        else:
            genome = mutate_shrink(genome, rng)
    return genome
