"""Seeded property checks of the ordinal arithmetic and of the literal
parsers: printing then parsing gives the same interned value back, also for
terms whose subscripts go past {0, 1}, and addition and left subtraction
obey their laws."""

from functools import reduce

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from finehier.ordinals import (from_int, left_subtract, omega_power, ord_add,
                               ord_cmp, ord_to_str, parse_ordinal)
from finehier.terms import Const, Fo, Fq, Shift, parse_term, term_to_str

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200)


def _sums(exponents):
    """Sums of w^e*c over drawn exponents e, in any order: ord_add absorbs
    what Cantor normal form drops."""
    parts = st.lists(st.tuples(exponents, st.integers(1, 3)), min_size=1,
                     max_size=3)
    return parts.map(lambda ps: reduce(ord_add, (omega_power(e, c)
                                                 for e, c in ps)))


def _branches(kids):
    children = st.lists(kids, min_size=1, max_size=3).map(tuple)
    return st.one_of(st.builds(Shift, ordinals, kids),
                     st.builds(Fq, st.integers(0, 2), children),
                     st.builds(Fo, ordinals, children))


ordinals = st.recursive(st.integers(0, 4).map(from_int), _sums, max_leaves=6)
terms = st.recursive(st.integers(0, 2).map(Const), _branches, max_leaves=6)


@seed(2019)
@PROPERTY
@given(ordinals)
def test_ordinal_literals_round_trip(a):
    assert parse_ordinal(ord_to_str(a)) is a


@seed(2019)
@PROPERTY
@given(terms)
def test_term_literals_round_trip(u):
    assert parse_term(term_to_str(u)) is u


def test_term_literals_round_trip_past_natural_subscripts():
    text = "Fo[w^(w+1)*2+3](s[w^w^2](1),Fq[2](0))"
    assert term_to_str(parse_term(text)) == text


@seed(2019)
@PROPERTY
@given(ordinals, ordinals, ordinals)
def test_ord_add_is_associative(a, b, c):
    assert ord_add(ord_add(a, b), c) is ord_add(a, ord_add(b, c))


@seed(2019)
@PROPERTY
@given(ordinals, ordinals)
def test_left_subtract_inverts_ord_add(a, b):
    if ord_cmp(b, a) > 0:
        a, b = b, a
    assert ord_add(b, left_subtract(b, a)) is a
