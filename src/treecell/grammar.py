"""Genome text grammar: parenthesized prefix notation.

    tree  := leaf | "(" elem tree+ ")"
    elem  := ("add"|"mul"|"tanh"|"sigmoid"|"relu") [ "@" ("c"|"d") ]
    leaf  := "x0".."x7" | "cprev" | "dprev"

Arity is fixed by the element (add/mul take two subtrees, the
nonlinearities one).  Population files hold one genome per line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tree import ARITY, LEAVES, NodeTree, TAPS, expr_to_tree, node_text


class ParseError(ValueError):
    """Syntax error with 1-based line/column of the offending token."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch in "()":
            tokens.append(_Token(ch, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append(_Token(text[i:j], line, col))
            col += j - i
            i = j
    return tokens


def serialize(tree: NodeTree) -> str:
    """Render a genome; inverse of :func:`parse` on valid trees."""
    return node_text(tree, tree.root)


def parse(text: str, generation_born: int = 0) -> NodeTree:
    """Parse genome text; raises :class:`ParseError` at the first defect.

    Parsing checks only the grammar (names, arities, bracketing); rule
    conformance is the validator's job.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty genome text", 1, 1)
    pos = [0]

    def peek() -> _Token | None:
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take() -> _Token:
        tok = peek()
        if tok is None:
            last = tokens[-1]
            raise ParseError("unexpected end of input", last.line, last.column + len(last.text))
        pos[0] += 1
        return tok

    def parse_node():
        tok = take()
        if tok.text == ")":
            raise ParseError("unexpected ')'", tok.line, tok.column)
        if tok.text == "(":
            head = take()
            if head.text in "()":
                raise ParseError("expected element name after '('", head.line, head.column)
            kind, _, tap = head.text.partition("@")
            if kind not in ARITY or kind in LEAVES:
                raise ParseError(f"unknown element name {kind!r}", head.line, head.column)
            if head.text.count("@") > 1 or (tap and tap not in TAPS):
                raise ParseError(f"unknown output tag {tap!r}", head.line, head.column)
            children = []
            while True:
                nxt = peek()
                if nxt is None:
                    raise ParseError("missing ')'", tok.line, tok.column)
                if nxt.text == ")":
                    take()
                    break
                children.append(parse_node())
            if len(children) != ARITY[kind]:
                raise ParseError(
                    f"arity mismatch: {kind} takes {ARITY[kind]} subtrees, found {len(children)}",
                    tok.line, tok.column)
            return (kind, tap or None, tuple(children))
        if tok.text not in LEAVES:
            raise ParseError(f"unknown leaf name {tok.text!r}", tok.line, tok.column)
        return (tok.text, None, ())

    expr = parse_node()
    trailing = peek()
    if trailing is not None:
        raise ParseError(f"trailing input {trailing.text!r}", trailing.line, trailing.column)
    return expr_to_tree(expr, generation_born)


def read_population(path) -> list[NodeTree]:
    """Read one genome per non-empty line."""
    genomes = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                genomes.append(parse(stripped))
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}", lineno, exc.column) from exc
    return genomes
