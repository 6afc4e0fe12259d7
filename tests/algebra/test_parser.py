"""The concrete dependency syntax."""

import pytest

from repro.algebra.expressions import Atom, Choice, Conj, Seq, TOP, ZERO
from repro.algebra.parser import ParseError, parse
from repro.algebra.symbols import Event, Variable


class TestBasics:
    def test_atom(self):
        assert parse("e") == Atom(Event("e"))

    def test_complement(self):
        assert parse("~e") == Atom(~Event("e"))

    def test_double_complement(self):
        assert parse("~~e") == Atom(Event("e"))

    def test_constants(self):
        assert parse("0") == ZERO
        assert parse("T") == TOP

    def test_whitespace_insensitive(self):
        assert parse(" ~e+f ") == parse("~e + f")


class TestPrecedence:
    def test_dot_binds_tighter_than_bar(self):
        expr = parse("e . f | g")
        assert isinstance(expr, Conj)

    def test_bar_binds_tighter_than_plus(self):
        expr = parse("e | f + g")
        assert isinstance(expr, Choice)

    def test_parentheses_override(self):
        assert parse("(e + f) . g") == parse("e.g + f.g") or isinstance(
            parse("(e + f) . g"), Seq
        )

    def test_klein_precedes_shape(self):
        expr = parse("~e + ~f + e . f")
        assert isinstance(expr, Choice)
        assert len(expr.parts) == 3

    def test_unicode_dot(self):
        assert parse("e · f") == parse("e . f")


class TestParameters:
    def test_variable_parameter(self):
        expr = parse("e[cid]")
        assert expr == Atom(Event("e", params=(Variable("cid"),)))

    def test_literal_parameters(self):
        assert parse("e[3]") == Atom(Event("e", params=(3,)))
        assert parse("e['k1']") == Atom(Event("e", params=("k1",)))
        assert parse('e["k2"]') == Atom(Event("e", params=("k2",)))

    def test_multiple_parameters(self):
        expr = parse("e[x, 1, 'a']")
        assert expr == Atom(Event("e", params=(Variable("x"), 1, "a")))

    def test_empty_brackets(self):
        assert parse("e[]") == Atom(Event("e"))

    def test_complement_of_parametrized(self):
        expr = parse("~e[x]")
        assert expr == Atom(~Event("e", params=(Variable("x"),)))


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "e +",
            "+ e",
            "e | ",
            "(e",
            "e)",
            "e [",
            "~(e + f)",  # complement applies to atoms only
            "~0",
            "e f",
            "e ? f",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse(text)

    @pytest.mark.parametrize(
        "text", ["", "a +", "~", "a . (b", "e[x,", "e[", "e[x", "e | "]
    )
    def test_input_that_ends_early_says_so(self, text):
        with pytest.raises(ParseError, match="^unexpected end of input$"):
            parse(text)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "~e + f",
            "~e + ~f + e . f",
            "e | f",
            "(e + f) . g",
            "e . f . g",
            "~s_buy + s_book",
            "b2[y] . b1[x] + ~e1[x] + ~b2[y] + e1[x] . b2[y]",
        ],
    )
    def test_repr_reparses_to_same_expression(self, text):
        expr = parse(text)
        assert parse(repr(expr)) == expr
