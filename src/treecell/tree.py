"""Tree genome for gated recurrent cells.

A genome is a rooted tree whose internal nodes are arithmetic elements
(add/mul with two children, tanh/sigmoid/relu with one) and whose leaves
are the eight base inputs x0..x7 or the previous-step memory values
cprev/dprev.  The root's value is the cell's main output h; non-root
nodes may additionally be tapped into the auxiliary memory outputs c or d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

ADD = "add"
MUL = "mul"
TANH = "tanh"
SIGMOID = "sigmoid"
RELU = "relu"

LINEAR = (ADD, MUL)                 # arity 2
NONLINEAR = (TANH, SIGMOID, RELU)   # arity 1
ELEMENTS = LINEAR + NONLINEAR

N_BASE_INPUTS = 8
BASE_INPUTS = tuple(f"x{k}" for k in range(N_BASE_INPUTS))
MEMORY_C = "cprev"
MEMORY_D = "dprev"
MEMORY_LEAVES = (MEMORY_C, MEMORY_D)
LEAVES = BASE_INPUTS + MEMORY_LEAVES

TAPS = ("c", "d")  # auxiliary outputs a non-root node may feed

MIN_HEIGHT = 6
MAX_HEIGHT = 15

ARITY = {k: 2 for k in LINEAR}
ARITY.update({k: 1 for k in NONLINEAR})
ARITY.update({k: 0 for k in LEAVES})


class StructureError(ValueError):
    """Tree is not structurally well-formed (dangling id, arity mismatch, cycle)."""


@dataclass(frozen=True)
class TreeNode:
    id: int
    kind: str
    children: tuple[int, ...] = ()
    tap: Optional[str] = None  # "c" or "d"; value also feeds that memory output


@dataclass(frozen=True)
class Violation:
    rule: str
    node_id: Optional[int]
    message: str

    def __str__(self) -> str:
        return self.message


class NodeTree:
    """Immutable genome: root id plus an id -> TreeNode map.

    Structure is checked at construction; rule conformance is checked by
    :func:`validate`.  All operations over trees are pure.
    """

    __slots__ = ("root", "nodes", "_order", "_depths", "_heights", "_memory", "_report")

    def __init__(self, root: int, nodes: dict[int, TreeNode]):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "nodes", dict(nodes))
        object.__setattr__(self, "_order", None)
        object.__setattr__(self, "_depths", None)
        object.__setattr__(self, "_heights", None)
        object.__setattr__(self, "_memory", None)
        object.__setattr__(self, "_report", None)
        _check_structure(self)

    def __setattr__(self, name, value):
        raise AttributeError("NodeTree is immutable")

    def preorder(self) -> list[int]:
        """Node ids in depth-first preorder (children in stored order)."""
        out: list[int] = []
        stack = [self.root]
        while stack:
            nid = stack.pop()
            out.append(nid)
            stack.extend(reversed(self.nodes[nid].children))
        return out

    def postorder(self) -> list[int]:
        if self._order is None:
            order = self.preorder()
            order.reverse()
            object.__setattr__(self, "_order", order)
        return list(self._order)

    def depth_of(self, node_id: int) -> int:
        """Nodes on the path root..node inclusive; the root has depth 1."""
        if self._depths is None:
            depths = {self.root: 1}
            for nid in self.preorder():
                for c in self.nodes[nid].children:
                    depths[c] = depths[nid] + 1
            object.__setattr__(self, "_depths", depths)
        return self._depths[node_id]

    def height_of(self, node_id: int) -> int:
        """Nodes on the longest node..leaf path; a leaf has height 1."""
        if self._heights is None:
            heights: dict[int, int] = {}
            for nid in self.postorder():
                ch = self.nodes[nid].children
                heights[nid] = 1 + max((heights[c] for c in ch), default=0)
            object.__setattr__(self, "_heights", heights)
        return self._heights[node_id]

    def reaches_memory(self, node_id: int) -> bool:
        """True iff the subtree at node_id contains a cprev or dprev leaf."""
        if self._memory is None:
            memory: dict[int, bool] = {}
            for nid in self.postorder():
                node = self.nodes[nid]
                memory[nid] = node.kind in MEMORY_LEAVES or any(memory[c] for c in node.children)
            object.__setattr__(self, "_memory", memory)
        return self._memory[node_id]

    def __repr__(self) -> str:
        return f"NodeTree({node_text(self, self.root)!r})"


def _check_structure(tree: NodeTree) -> None:
    if tree.root not in tree.nodes:
        raise StructureError(f"root id {tree.root} not in node map")
    seen: set[int] = set()
    stack = [tree.root]
    while stack:
        nid = stack.pop()
        if nid in seen:
            raise StructureError(f"node {nid} reachable by two paths (cycle or shared child)")
        seen.add(nid)
        node = tree.nodes.get(nid)
        if node is None:
            raise StructureError(f"dangling child id {nid}")
        if node.id != nid:
            raise StructureError(f"node keyed {nid} carries id {node.id}")
        if node.kind not in ARITY:
            raise StructureError(f"unknown kind {node.kind!r} at node {nid}")
        if len(node.children) != ARITY[node.kind]:
            raise StructureError(
                f"arity mismatch at node {nid}: {node.kind} takes "
                f"{ARITY[node.kind]} children, has {len(node.children)}"
            )
        if node.tap is not None and node.tap not in TAPS:
            raise StructureError(f"unknown tap {node.tap!r} at node {nid}")
        stack.extend(node.children)
    if seen != set(tree.nodes):
        extra = sorted(set(tree.nodes) - seen)
        raise StructureError(f"unreachable nodes in map: {extra}")


def height(tree: NodeTree) -> int:
    """Nodes on the longest root-to-leaf path (a lone root counts 1)."""
    return tree.height_of(tree.root)


def size(tree: NodeTree) -> int:
    """Total node count."""
    return len(tree.nodes)


def validate(tree: NodeTree) -> list[Violation]:
    """Check every genome rule; an empty list means the tree is valid.

    Structural defects are a different failure class from rule violations:
    they raise :class:`StructureError` when the tree is built.  The report
    is computed once per tree and kept on it.
    """
    if tree._report is None:
        object.__setattr__(tree, "_report", tuple(_violations(tree)))
    return list(tree._report)


def _violations(tree: NodeTree) -> list[Violation]:
    report: list[Violation] = []
    h = height(tree)
    if h < MIN_HEIGHT:
        report.append(Violation("height-min", None, f"height {h} below minimum {MIN_HEIGHT}"))
    if h > MAX_HEIGHT:
        report.append(Violation("height-max", None, f"height {h} above maximum {MAX_HEIGHT}"))
    for nid in tree.preorder():
        node = tree.nodes[nid]
        if node.kind in NONLINEAR:
            for c in node.children:
                if tree.nodes[c].kind in NONLINEAR:
                    report.append(Violation(
                        "consecutive-nonlinearity", nid,
                        f"consecutive nonlinearity at node {nid} ({node.kind} over "
                        f"{tree.nodes[c].kind})"))
        if node.tap is not None:
            if nid == tree.root:
                report.append(Violation("tap-on-root", nid, f"root node {nid} carries tap {node.tap}"))
            elif not tree.reaches_memory(nid):
                report.append(Violation(
                    "tap-without-memory", nid,
                    f"node {nid} tapped to {node.tap} but its subtree has no memory leaf"))
    return report


# --- construction helpers -------------------------------------------------

Expr = tuple  # (kind, tap, (child Expr, ...)) produced by tree_to_expr


def tree_to_expr(tree: NodeTree, node_id: Optional[int] = None) -> Expr:
    nid = tree.root if node_id is None else node_id
    node = tree.nodes[nid]
    return (node.kind, node.tap, tuple(tree_to_expr(tree, c) for c in node.children))


def expr_to_tree(expr: Expr) -> NodeTree:
    nodes: dict[int, TreeNode] = {}
    counter = [0]

    def build(e: Expr) -> int:
        kind, tap, children = e
        nid = counter[0]
        counter[0] += 1
        child_ids = tuple(build(c) for c in children)
        nodes[nid] = TreeNode(nid, kind, child_ids, tap)
        return nid

    root = build(expr)
    return NodeTree(root, nodes)


def build_tree(spec) -> NodeTree:
    """Build a tree from nested tuples, e.g. ("tanh", ("add", "x0", "x1")).

    A kind may carry a tap suffix, e.g. "add@c".
    """

    def to_expr(s) -> Expr:
        head, children = (s, ()) if isinstance(s, str) else (s[0], s[1:])
        kind, at, tap = head.partition("@")
        return (kind, tap if at else None, tuple(to_expr(c) for c in children))

    return expr_to_tree(to_expr(spec))


def node_text(tree: NodeTree, node_id: int) -> str:
    """Render a subtree in the genome grammar (parenthesized prefix form)."""
    node = tree.nodes[node_id]
    return text_label(node, [node_text(tree, c) for c in node.children])


def text_label(node: TreeNode, children: list[str]) -> str:
    """One node in the genome grammar, given its children's renderings."""
    name = node.kind if node.tap is None else f"{node.kind}@{node.tap}"
    return "(" + name + " " + " ".join(children) + ")" if children else name


def shape_label(node: TreeNode, children: list[str]) -> str:
    """Kind-blind shape: leaves 'o', unary '(u..)', binary '(b..)'."""
    if not children:
        return "o"
    return "(" + ("u" if len(children) == 1 else "b") + "".join(children) + ")"


def strip_invalid_taps(tree: NodeTree) -> NodeTree:
    """Repair pass: drop taps on the root or on nodes without a memory path."""
    changed = False
    nodes: dict[int, TreeNode] = {}
    for nid, node in tree.nodes.items():
        if node.tap is not None and (nid == tree.root or not tree.reaches_memory(nid)):
            nodes[nid] = TreeNode(nid, node.kind, node.children, None)
            changed = True
        else:
            nodes[nid] = node
    if not changed:
        return tree
    return NodeTree(tree.root, nodes)


def sort_commutative(tree: NodeTree,
                     label: Callable[[TreeNode, list[str]], str]) -> tuple[Expr, str]:
    """Order every add/mul node's children by (subtree size, height, label).

    One postorder pass; ``label(node, child_labels)`` renders a node from
    its children's labels, already in sorted order.  Returns the reordered
    expression and the root's label.  This is the one commutative ordering:
    the text label gives the canonical key, the shape label the rotation
    used for homologous matching.
    """
    done: dict[int, tuple[Expr, int, int, str]] = {}
    for nid in tree.postorder():
        node = tree.nodes[nid]
        kids = [done.pop(c) for c in node.children]
        if node.kind in LINEAR:
            kids.sort(key=lambda k: k[1:])
        done[nid] = ((node.kind, node.tap, tuple(k[0] for k in kids)),
                     1 + sum(k[1] for k in kids), 1 + max((k[2] for k in kids), default=0),
                     label(node, [k[3] for k in kids]))
    expr, _, _, text = done[tree.root]
    return expr, text


def canonicalize(tree: NodeTree) -> NodeTree:
    """Sort commutative children by (size, height, text).

    The result is isomorphic under child swaps to the input, idempotent,
    and identical for mirror-image trees.
    """
    return expr_to_tree(sort_commutative(tree, text_label)[0])


def canonical_text(tree: NodeTree) -> str:
    """Serialization of the canonical form; the genome identity key."""
    return sort_commutative(tree, text_label)[1]


def seed_tree() -> NodeTree:
    """The minimal fully connected starting genome (height 6).

    All eight base inputs are pairwise summed over three add levels, that
    total is added to cprev + dprev, and a single tanh tops the tree.  No
    node is tapped, so c and d start as pure pass-throughs.
    """
    pairs = [("add", f"x{2 * k}", f"x{2 * k + 1}") for k in range(4)]
    quads = [("add", pairs[0], pairs[1]), ("add", pairs[2], pairs[3])]
    base_sum = ("add", quads[0], quads[1])
    mem_sum = ("add", MEMORY_C, MEMORY_D)
    return build_tree(("tanh", ("add", base_sum, mem_sum)))

