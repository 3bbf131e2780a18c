"""Seeded random differential checks past the exhaustive bounds of the
acceptance criteria: the level engine against family enumeration (4- and
5-point posets, terms of 3 to 5 nodes, 2 and 3 labels), and the term order
against the tree-map matcher (terms of 5 and 6 nodes over antichains,
chains and the V-poset)."""

import string

from hypothesis import HealthCheck, given, reject, seed, settings
from hypothesis import strategies as st

from finehier.hierarchy import borel, level_set, level_set_enum, member
from finehier.labeled_trees import hom_leq
from finehier.ordinals import ZERO, from_int
from finehier.quasiorder import Quasiorder, antichain, chain
from finehier.spaces import FinSpace, QPartition
from finehier.terms import Const, Fo, Fq, Shift, TermOrder, term_tree

SUBS = (ZERO, from_int(1))
BUDGET = 5_000  # families the oracle may enumerate per example
DIFFERENTIAL = settings(derandomize=True, database=None, deadline=None,
                        max_examples=100,
                        suppress_health_check=[HealthCheck.filter_too_much,
                                               HealthCheck.too_slow])


@st.composite
def posets(draw, sizes):
    n = draw(st.sampled_from(sizes))
    names = string.ascii_lowercase[:n]
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return FinSpace.from_pairs(names, chosen)


@st.composite
def terms(draw, k, nodes):
    if nodes == 1:
        return Const(draw(st.integers(0, k - 1)))
    kind = draw(st.sampled_from(("Shift", "Fq", "Fo")))
    if kind == "Shift":
        return Shift(draw(st.sampled_from(SUBS)), draw(terms(k, nodes - 1)))
    sizes, rest = [], nodes - 1
    while rest:
        sizes.append(draw(st.integers(1, rest)))
        rest -= sizes[-1]
    kids = tuple(draw(terms(k, size)) for size in sizes)
    if kind == "Fq":
        return Fq(draw(st.integers(0, k - 1)), kids)
    return Fo(draw(st.sampled_from(SUBS)), kids)


@st.composite
def instances(draw, sizes):
    """A space, a label count k and a term over k labels."""
    k = draw(st.sampled_from((2, 3)))
    return draw(posets(sizes)), k, draw(terms(k, draw(st.integers(3, 5))))


def _oracle(space, qo, u, base):
    try:
        return level_set_enum(space, qo, u, base, max_families=BUDGET)
    except RuntimeError:
        reject()


@seed(2019)
@DIFFERENTIAL
@given(instances((4, 5)))
def test_level_set_matches_family_enumeration(inst):
    space, k, u = inst
    qo = antichain(k)
    slow = _oracle(space, qo, u, borel(space))
    assert {A.values for A in level_set(space, qo, u)} == slow


@seed(2019)
@DIFFERENTIAL
@given(instances((3, 4, 5)), st.data())
def test_member_on_a_partial_carrier_matches_family_enumeration(inst, data):
    # a base whose carrier is a proper subset: the partition is None outside
    space, k, u = inst
    qo = antichain(k)
    carrier = data.draw(st.integers(0, space.full - 1))
    base = borel(space).restrict(carrier)
    slow = _oracle(space, qo, u, base)
    fast = [A.values for A in level_set(space, qo, u, base)]
    assert len(fast) == len(slow) and set(fast) == slow
    values = tuple(data.draw(st.integers(0, k - 1)) if carrier >> p & 1
                   else None for p in range(space.n))
    assert member(QPartition(space, qo, values), u, base) == (values in slow)


QUASIORDERS = (antichain(2), antichain(3), chain(2), chain(3),
               Quasiorder.from_pairs(3, [(0, 1), (0, 2)]))


def _tree_order(qo):
    """The term order re-decided by the tree-map matcher on the flattened
    trees.  Their labels, constants and shift terms, compare by the
    constant and shift clauses, which recurse into the matcher for shift
    bodies."""
    memo = {}

    def leq(u, v):
        if (u, v) not in memo:
            memo[u, v] = hom_leq(term_tree(u), term_tree(v), label_leq)
        return memo[u, v]

    def label_leq(a, b):
        if isinstance(a, Const):
            return qo.leq(a.q, b.q) if isinstance(b, Const) else leq(a, b.body)
        if isinstance(b, Const) or a.alpha < b.alpha:
            return leq(a.body, b)
        if a.alpha == b.alpha:
            return leq(a.body, b.body)
        return leq(a, b.body)

    return leq


@seed(2019)
@DIFFERENTIAL
@given(st.sampled_from(QUASIORDERS), st.data())
def test_term_order_matches_the_tree_map_matcher(qo, data):
    pool = [data.draw(terms(qo.size, data.draw(st.integers(5, 6))))
            for _ in range(4)]
    order = TermOrder(qo, pool)
    oracle = _tree_order(qo)
    for u in pool:
        for v in pool:
            expect = oracle(u, v)
            assert order.leq(u, v) == expect
            assert TermOrder(qo).leq(u, v) == expect  # a throwaway table
    # the rows of subterms and branch roots too
    for v in order.index:
        assert order.leq(pool[0], v) == oracle(pool[0], v)
        assert order.leq(v, pool[1]) == oracle(v, pool[1])
