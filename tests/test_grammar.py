import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecell.genetic import random_genome
from treecell.grammar import (MAX_NESTING, ParseError, parse, read_genome,
                              read_population, serialize)
from treecell.tree import build_tree, size, validate


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_parse_simple():
    t = parse("(tanh (add x0 x1))")
    assert size(t) == 4
    assert all(t.nodes[n].tap is None for n in t.preorder())


def test_parse_tap_suffix():
    t = parse("(add@c (mul x0 cprev) x3)")
    assert t.nodes[t.root].tap == "c"


def test_round_trip_handmade():
    text = "(mul (sigmoid x3) (tanh (add@c (mul (sigmoid x1) cprev) (mul (sigmoid x0) (tanh x2)))))"
    assert serialize(parse(text)) == text


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_random(seed):
    t = random_genome(rng_for(seed))
    assert serialize(parse(serialize(t))) == serialize(t)


def test_parser_accepts_grammar_validator_owns_semantics():
    t = parse("(tanh (sigmoid x0))")
    assert any(v.rule == "consecutive-nonlinearity" for v in validate(t))


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as err:
        parse("(add x0)")
    assert err.value.line == 1 and err.value.column == 1
    with pytest.raises(ParseError) as err:
        parse("(add x0\n  (frob x1 x2))")
    assert err.value.line == 2 and err.value.column == 4
    with pytest.raises(ParseError) as err:
        parse("(add x0 x9)")
    assert "x9" in str(err.value)
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("(add x0 x1) x2")
    with pytest.raises(ParseError):
        parse("(add x0 x1")
    with pytest.raises(ParseError):
        parse("(add@q x0 x1)")


@pytest.mark.parametrize("text, message, line, column", [
    ("", "empty genome text", 1, 1),
    (" \n\t", "empty genome text", 1, 1),
    ("(", "unexpected end of input", 1, 2),
    ("\n  (", "unexpected end of input", 2, 4),
    ("(add x0 x1", "missing ')'", 1, 1),
    ("(add x0\n\t(tanh x1)", "missing ')'", 1, 1),
    ("\n\n  (tanh\n", "missing ')'", 3, 3),
    (")", "unexpected ')'", 1, 1),
    ("(add x0 x1))", "trailing input ')'", 1, 12),
    ("(()", "expected element name after '('", 1, 2),
    ("(add () x1)", "expected element name after '('", 1, 7),
    ("(frob x0 x1)", "unknown element name 'frob'", 1, 2),
    ("(x0 x1)", "unknown element name 'x0'", 1, 2),
    ("(add x0 x9)", "unknown leaf name 'x9'", 1, 9),
    ("q", "unknown leaf name 'q'", 1, 1),
    ("(add@q x0 x1)", "unknown output tag 'q'", 1, 2),
    ("(add@c@d x0 x1)", "unknown output tag 'c@d'", 1, 2),
    ("(add x0)", "arity mismatch: add takes 2 subtrees, found 1", 1, 1),
    ("(tanh x0 x1)", "arity mismatch: tanh takes 1 subtrees, found 2", 1, 1),
    ("(add x0 x1) x2", "trailing input 'x2'", 1, 13),
    ("(add x0 x1)(tanh x2)", "trailing input '('", 1, 12),
    ("(add x0 x1)\n)", "trailing input ')'", 2, 1),
    ("(add x0\n  (frob x1 x2))", "unknown element name 'frob'", 2, 4),
    ("(add\tx0\n\t(mul x1\n\t\t(tanh x2) x3 x4))",
     "arity mismatch: mul takes 2 subtrees, found 4", 2, 2),
    ("(add x0\r\n (tanh\tcprev) dprev\n  )  ",
     "arity mismatch: add takes 2 subtrees, found 3", 1, 1),
    ("(sigmoid (add x0 x1) \n\t x9)", "unknown leaf name 'x9'", 2, 3),
])
def test_malformed_text_reports_message_line_and_column(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.column) == (
        f"{line}:{column}: {message}", line, column)


@pytest.mark.parametrize("text, message, line, column", [
    ("(add x0 x1)\n   (add x0 x9)\n", "unknown leaf name 'x9'", 2, 12),
    ("(tanh x0)\n\n\t(add x0\n", "missing ')'", 3, 2),
])
def test_population_errors_give_file_line_and_column(tmp_path, text, message, line, column):
    path = tmp_path / "pool.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        read_population(path)
    assert (str(err.value), err.value.message, err.value.line, err.value.column) == (
        f"{path}:{line}:{column}: {message}", message, line, column)


def test_nesting_deeper_than_the_bound_stops_at_its_bracket():
    def chain(depth):
        return "(tanh " * depth + "x0" + ")" * depth

    assert validate(parse(chain(MAX_NESTING)))[0].message == (
        f"height {MAX_NESTING + 1} above maximum 15")
    for depth in (MAX_NESTING + 1, 5000):
        with pytest.raises(ParseError) as err:
            parse(chain(depth))
        assert str(err.value) == (
            f"1:{6 * MAX_NESTING + 1}: brackets nested deeper than {MAX_NESTING}")


@pytest.mark.parametrize("text, message", [
    ("", "1:1: expected one genome, found 0"),
    ("(tanh x0)\n\n(tanh x1)\n", "1:1: expected one genome, found 2"),
])
def test_a_genome_file_holds_one_genome(tmp_path, text, message):
    path = tmp_path / "g.genome"
    path.write_text(text)
    with pytest.raises(ParseError, match="^" + re.escape(f"{path}:{message}") + "$"):
        read_genome(path)


def test_serialize_matches_build_order():
    t = build_tree(("add", ("mul", "x0", "cprev"), "x3"))
    assert serialize(t) == "(add (mul x0 cprev) x3)"
