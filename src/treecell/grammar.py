"""Genome text grammar: parenthesized prefix notation.

    tree  := leaf | "(" elem tree+ ")"
    elem  := ("add"|"mul"|"tanh"|"sigmoid"|"relu") [ "@" ("c"|"d") ]
    leaf  := "x0".."x7" | "cprev" | "dprev"

Arity is fixed by the element (add/mul take two subtrees, the
nonlinearities one).  Population files hold one genome per line.
"""

from __future__ import annotations

import re

from .data import read_text
from .tree import ARITY, LEAVES, NodeTree, TAPS, expr_to_tree, node_text


class ParseError(ValueError):
    """Syntax error with 1-based line/column of the offending token."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


# one token: a bracket, or a run of anything but brackets and whitespace
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _error(message: str, text: str, offset: int) -> ParseError:
    """A :class:`ParseError` at ``offset``, its line and column counted from it."""
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset))


def serialize(tree: NodeTree) -> str:
    """Render a genome; inverse of :func:`parse` on valid trees."""
    return node_text(tree, tree.root)


def parse(text: str) -> NodeTree:
    """Parse genome text; raises :class:`ParseError` at the first defect.

    Parsing checks only the grammar (names, arities, bracketing); rule
    conformance is the validator's job.
    """
    tokens = ((m.group(), m.start()) for m in _TOKEN.finditer(text))
    open_nodes = []  # (kind, tap, offset of its "(", children so far), innermost last
    for tok, offset in tokens:
        if tok == "(":
            head, head_offset = next(tokens, (None, offset + 1))
            if head is None:
                raise _error("unexpected end of input", text, head_offset)
            if head in "()":
                raise _error("expected element name after '('", text, head_offset)
            kind, _, tap = head.partition("@")
            if kind not in ARITY or kind in LEAVES:
                raise _error(f"unknown element name {kind!r}", text, head_offset)
            if head.count("@") > 1 or (tap and tap not in TAPS):
                raise _error(f"unknown output tag {tap!r}", text, head_offset)
            open_nodes.append((kind, tap or None, offset, []))
            continue
        if tok == ")":
            if not open_nodes:
                raise _error("unexpected ')'", text, offset)
            kind, tap, open_offset, children = open_nodes.pop()
            if len(children) != ARITY[kind]:
                raise _error(f"arity mismatch: {kind} takes {ARITY[kind]} subtrees, "
                             f"found {len(children)}", text, open_offset)
            expr = (kind, tap, tuple(children))
        elif tok in LEAVES:
            expr = (tok, None, ())
        else:
            raise _error(f"unknown leaf name {tok!r}", text, offset)
        if open_nodes:
            open_nodes[-1][3].append(expr)
            continue
        trailing = next(tokens, None)
        if trailing is not None:
            raise _error(f"trailing input {trailing[0]!r}", text, trailing[1])
        return expr_to_tree(expr)
    if open_nodes:
        raise _error("missing ')'", text, open_nodes[-1][2])
    raise ParseError("empty genome text", 1, 1)


def read_population(path) -> list[NodeTree]:
    """Read one genome per non-empty line; a :class:`ParseError` gives the
    file's line and the column in that line, as read."""
    genomes = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            genomes.append(parse(line))
        except ParseError as exc:
            raise ParseError(exc.message, lineno, exc.column) from exc
    return genomes
