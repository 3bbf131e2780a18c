"""Seeded round trips load -> dump -> load through JSON text for every
document type the command line reads: space, quasiorder, partition, point
map, labeled tree, base and family.  The loaders check the shape of their
documents, and these tests keep them accepting every document the dumpers
write."""

import itertools
import json
import string

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from finehier.hierarchy import (Base, borel, enumerate_families,
                                family_from_json, family_to_json)
from finehier.labeled_trees import LabeledTree
from finehier.ordinals import from_int
from finehier.quasiorder import Quasiorder
from finehier.spaces import ContMap, FinSpace, QPartition, monotone_maps
from finehier.terms import enumerate_terms

ROUND_TRIP = settings(derandomize=True, database=None, deadline=None,
                      max_examples=60,
                      suppress_health_check=[HealthCheck.too_slow])


def _via_text(doc):
    return json.loads(json.dumps(doc))


@st.composite
def posets(draw, max_points=4):
    n = draw(st.integers(1, max_points))
    names = draw(st.sampled_from((string.ascii_lowercase[:n],
                                  [f"p{i}" for i in range(n)])))
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return FinSpace.from_pairs(names, chosen)


@st.composite
def quasiorders(draw):
    k = draw(st.integers(1, 4))
    pairs = draw(st.lists(st.tuples(st.integers(0, k - 1),
                                    st.integers(0, k - 1))))
    names = draw(st.none() | st.just([f"q{i}" for i in range(k)]))
    return Quasiorder.from_pairs(k, pairs, names)


@seed(2019)
@ROUND_TRIP
@given(posets())
def test_space_round_trip(space):
    doc = _via_text(space.to_json())
    again = FinSpace.from_json(doc)
    assert again == space and again.names == space.names
    assert again.to_json() == doc


@seed(2019)
@ROUND_TRIP
@given(quasiorders())
def test_quasiorder_round_trip(qo):
    doc = _via_text(qo.to_json())
    again = Quasiorder.from_json(doc)
    assert again == qo and again.names == qo.names
    assert again.to_json() == doc


@seed(2019)
@ROUND_TRIP
@given(posets(), quasiorders(), st.data())
def test_partition_round_trip(space, qo, data):
    label = st.none() | st.integers(0, qo.size - 1)
    A = QPartition(space, qo, [data.draw(label) for _ in range(space.n)])
    doc = _via_text(A.to_json())
    again = QPartition.from_json(space, qo, doc)
    assert again == A and again.to_json() == doc


@seed(2019)
@ROUND_TRIP
@given(posets(3), posets(3), st.data())
def test_point_map_round_trip(X, Y, data):
    f = ContMap(X, Y, data.draw(st.sampled_from(monotone_maps(X, Y))))
    doc = _via_text(f.to_json())
    again = ContMap.from_json(X, Y, doc)
    assert again == f and again.to_json() == doc


@st.composite
def labeled_trees(draw):
    nodes, frontier = [()], [()]
    while frontier and len(nodes) < 8:
        node = frontier.pop(0)
        for i in range(draw(st.integers(0, 3))):
            nodes.append(node + (i,))
            frontier.append(node + (i,))
    labels = draw(st.lists(st.integers(0, 3), min_size=len(nodes),
                           max_size=len(nodes)))
    return LabeledTree(nodes, dict(zip(nodes, labels)))


@seed(2019)
@ROUND_TRIP
@given(labeled_trees())
def test_labeled_tree_round_trip(tree):
    doc = _via_text(tree.to_json())
    again = LabeledTree.from_json(doc)
    assert (again.nodes, again.labels) == (tree.nodes, tree.labels)
    assert again.to_json() == doc


@st.composite
def bases(draw):
    space = draw(posets(3))
    base = borel(space).shift(from_int(draw(st.integers(0, 2))))
    return base.restrict(draw(st.integers(0, space.full)))


@seed(2019)
@ROUND_TRIP
@given(bases())
def test_base_round_trip(base):
    doc = _via_text(base.to_json())
    assert Base.from_json(base.space, doc) is base  # bases are interned


TERMS = enumerate_terms(2, 3, (from_int(0), from_int(1)))


@seed(2019)
@ROUND_TRIP
@given(posets(3), st.sampled_from(TERMS), st.data())
def test_family_round_trip(space, u, data):
    families = list(itertools.islice(enumerate_families(u, borel(space)), 50))
    F = data.draw(st.sampled_from(families))
    doc = _via_text(family_to_json(space, F, u))
    again = family_from_json(space, doc)
    assert again == F and family_to_json(space, again, u) == doc
