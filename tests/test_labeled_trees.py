import itertools
from types import SimpleNamespace

import pytest

from finehier.labeled_trees import (LabeledTree, hom_leq, hom_leq_exhaustive,
                                    hom_rows, tree_to_dot)


def _anti(a, b):
    return a == b


def _tree(*pairs):
    return LabeledTree([n for n, _ in pairs], dict(pairs))


SINGLE0 = _tree(((), 0))
SINGLE1 = _tree(((), 1))
ROOT1_CHILD0 = _tree(((), 1), ((0,), 0))
ROOT0_CHILD1 = _tree(((), 0), ((0,), 1))


def test_hom_examples():
    # map the singleton onto the matching child
    assert hom_leq(SINGLE0, ROOT1_CHILD0, _anti)
    assert not hom_leq(ROOT0_CHILD1, ROOT1_CHILD0, _anti)
    assert hom_leq(ROOT0_CHILD1, ROOT0_CHILD1, _anti)


def test_validation():
    with pytest.raises(ValueError):
        LabeledTree([(0,)], {(0,): 1})  # missing the root
    with pytest.raises(ValueError):
        LabeledTree([(), (0, 0)], {(): 1, (0, 0): 1})  # not prefix-closed
    with pytest.raises(ValueError):
        LabeledTree([(), (0,)], {(): 1})  # partial labeling


def _shapes(n):
    """All rooted tree shapes with exactly n nodes, as node lists."""
    if n == 1:
        return [[()]]
    out = []
    for split in _compositions(n - 1):
        parts = [_shapes(k) for k in split]
        for combo in itertools.product(*parts):
            nodes = [()]
            for i, sub in enumerate(combo):
                nodes.extend((i,) + m for m in sub)
            out.append(nodes)
    return out


def _compositions(total):
    if total == 0:
        return []
    out = [[total]]
    for first in range(1, total):
        for rest in _compositions(total - first):
            out.append([first] + rest)
    return out


def _all_trees(max_nodes, labels=(0, 1)):
    trees = []
    for n in range(1, max_nodes + 1):
        for nodes in _shapes(n):
            for lab in itertools.product(labels, repeat=n):
                trees.append(LabeledTree(nodes, dict(zip(nodes, lab))))
    return trees


def test_matches_exhaustive_map_search():
    trees = _all_trees(4)
    assert len(trees) == 102
    for t in trees:
        for v in trees:
            assert hom_leq(t, v, _anti) == hom_leq_exhaustive(t, v, _anti)


def label_rows(trees, label_leq):
    """The label table `hom_rows` reads, built from a ``label_leq`` callable
    over the labels of ``trees``."""
    index = {l: i for i, l in enumerate(dict.fromkeys(
        t.labels[n] for t in trees for n in t.nodes))}
    rows = [sum(1 << index[m] for m in index if label_leq(l, m))
            for l in index]
    return SimpleNamespace(index=index, rows=rows)


def _one_class(a, b):
    return True  # every label equivalent to every other: one shared row


@pytest.mark.parametrize("label_leq", [_anti, lambda a, b: a <= b,
                                       _one_class])
def test_rows_match_pairwise_hom_leq(label_leq):
    trees = _all_trees(4)
    # a tree listed twice holds two bits, and both copies get one row; with
    # only the 4-node trees listed, the nodes below their roots hold bits of
    # their own past the roots'
    for listed in (trees, trees[:40] + trees[30:40],
                   [t for t in trees if len(t.nodes) == 4]):
        assert hom_rows(listed, label_rows(listed, label_leq)) == [
            sum(1 << j for j, v in enumerate(listed)
                if hom_leq(t, v, label_leq))
            for t in listed]


def test_hom_is_a_quasiorder():
    trees = _all_trees(3)
    rel = [[hom_leq(t, v, _anti) for v in trees] for t in trees]
    for i in range(len(trees)):
        assert rel[i][i]
        for j in range(len(trees)):
            if rel[i][j]:
                for k in range(len(trees)):
                    if rel[j][k]:
                        assert rel[i][k]


def test_ordered_labels():
    le = lambda a, b: a <= b
    assert hom_leq(SINGLE1, SINGLE0, le) is False
    assert hom_leq(SINGLE0, SINGLE1, le) is True


def test_json_round_trip():
    doc = ROOT0_CHILD1.to_json()
    assert doc == {"nodes": ["", "0"], "labels": {"": 0, "0": 1}}
    again = LabeledTree.from_json(doc)
    assert again.nodes == ROOT0_CHILD1.nodes
    assert again.labels == ROOT0_CHILD1.labels


def test_json_refuses_a_child_index_a_digit_cannot_hold():
    # the key of node (10,) would read back as the node (1, 0)
    nine = _tree(((), 0), *(((i,), 1) for i in range(10)))
    assert LabeledTree.from_json(nine.to_json()).nodes == nine.nodes
    eleven = _tree(((), 0), *(((i,), 1) for i in range(11)))
    with pytest.raises(ValueError, match="child index above 9"):
        eleven.to_json()


def test_dot_output():
    dot = tree_to_dot(ROOT0_CHILD1)
    assert dot.startswith("digraph")
    assert "root -> n0;" in dot
