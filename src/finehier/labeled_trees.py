"""Finite labeled trees with the monotone-map quasiorder.

A tree is a finite prefix-closed set of index tuples (the empty tuple is
the root) with a total labeling.  ``hom_leq(T, V, label_leq)`` decides
whether some order-preserving map from T into V dominates labels pointwise;
the map need not be injective, level-preserving or root-preserving.
``hom_rows(trees, labels)`` decides it over a whole list of trees set at
a time, with labels ordered by a `TermOrder`'s rows; the suites check the
structural term comparison against it, and `hom_leq`, with
`hom_leq_exhaustive` behind it, is the oracle the rows are checked against.

JSON format: ``{"nodes": ["", "0", "1", "00", ...], "labels": {"": l, ...}}``
with nodes written as digit strings, one digit per index: a node has at
most 10 children there (indices 0 to 9), and `node_key` refuses any other.
"""

from __future__ import annotations

import itertools

from ._memo import PairMemo
from .quasiorder import json_list, json_node, json_object
from .spaces import close_bits

__all__ = [
    "LabeledTree", "hom_leq", "hom_rows", "hom_leq_exhaustive",
    "tree_to_dot", "node_key",
]


def node_key(node):
    """The digit-string form of a node, as in the JSON documents."""
    if any(i > 9 for i in node):
        raise ValueError(f"node {node} has a child index above 9")
    return "".join(str(i) for i in node)


class LabeledTree:
    __slots__ = ("nodes", "labels", "_kids", "_tnode")

    def __init__(self, nodes, labels):
        nodes = tuple(sorted(tuple(n) for n in nodes))
        if () not in nodes:
            raise ValueError("a tree contains the empty node")
        nodeset = set(nodes)
        if len(nodeset) != len(nodes):
            raise ValueError("duplicate nodes")
        for n in nodes:
            if n and n[:-1] not in nodeset:
                raise ValueError(f"nodes must be prefix-closed, missing {n[:-1]}")
        labels = dict(labels)
        if set(labels) != nodeset:
            raise ValueError("labeling must be total")
        self.nodes = nodes
        self.labels = labels
        self._kids = None
        self._tnode = None

    def children(self, node):
        if self._kids is None:
            kids = {n: [] for n in self.nodes}
            for n in self.nodes:
                if n:
                    kids[n[:-1]].append(n)
            self._kids = {n: tuple(sorted(c)) for n, c in kids.items()}
        return self._kids[node]

    def __len__(self):
        return len(self.nodes)

    def __repr__(self):
        return f"LabeledTree({len(self.nodes)} nodes)"

    @classmethod
    def from_json(cls, doc):
        doc = json_object(doc, "a labeled tree", "nodes", "labels")
        nodes = [json_node(s, "tree node")
                 for s in json_list(doc["nodes"], "tree nodes", str)]
        labels = {json_node(s, "tree label key"): l for s, l in
                  json_object(doc["labels"], "tree labels").items()}
        return cls(nodes, labels)

    def to_json(self):
        return {"nodes": [node_key(n) for n in self.nodes],
                "labels": {node_key(n): self.labels[n] for n in self.nodes}}


# Interned immutable view used by the matchers: `hom_rows` gives a subtree
# shared by several trees one set of bits, and a `PairMemo` passed to
# `hom_leq` across calls reuses its entries between overlapping subtrees.
class _TNode:
    __slots__ = ("label", "kids", "_sub")
    _table = {}

    @classmethod
    def intern(cls, label, kids):
        key = (label, kids)
        hit = cls._table.get(key)
        if hit is None:
            hit = object.__new__(cls)
            hit.label = label
            hit.kids = kids
            hit._sub = None
            cls._table[key] = hit
        return hit

    def subnodes(self):
        if self._sub is None:
            out = [self]
            for k in self.kids:
                out.extend(k.subnodes())
            self._sub = tuple(out)
        return self._sub


def _tnode(tree):
    if tree._tnode is None:
        def build(node):
            kids = tuple(build(c) for c in tree.children(node))
            return _TNode.intern(tree.labels[node], kids)
        tree._tnode = build(())
    return tree._tnode


def _emb(a, b, label_leq, memo):
    # Can the subtree at `a` map into the subtree at `b` with the root of
    # `a` landing exactly on `b`?  Children of `a` may land anywhere at or
    # below `b`; siblings are unconstrained against each other.
    got = memo.get(a, b)
    if got is not None:
        return got
    val = False
    if label_leq(a.label, b.label):
        val = all(any(_emb(c, w, label_leq, memo) for w in b.subnodes())
                  for c in a.kids)
    return memo.put(a, b, val)


def hom_leq(T, V, label_leq, cache=None):
    """Does an order-preserving, label-dominating map from T into V exist?

    ``label_leq`` must be a quasiorder on the labels.  A shared ``cache``
    (a `PairMemo`) may be passed across calls that use the same label
    comparison; results are then reused between overlapping subtrees.
    """
    a, b = _tnode(T), _tnode(V)
    memo = cache if cache is not None else PairMemo()
    return any(_emb(a, w, label_leq, memo) for w in b.subnodes())


def hom_rows(trees, labels):
    """`hom_leq` over every pair of ``trees``, set at a time: per tree T an
    int whose bit j is ``hom_leq(T, trees[j], label_leq)``, where the
    quasiorder ``label_leq`` comes as a table with a `TermOrder`'s fields:
    ``labels.index`` gives every label a bit, and ``labels.rows[i]`` holds
    the bits of the labels at or above bit i's label.  Labels sharing a
    row are equivalent, so the nodes above them are gathered once per row.

    Every subnode of the trees is interned once and holds bits: the root of
    ``trees[j]`` holds bit j, any other node a bit after those.  Bottom-up,
    a node a lands on the nodes ``E(a)`` whose label dominates a's and that
    lie in the reach ``W(c)`` of every child c of a; ``W(a)``, the nodes at
    or above some node of ``E(a)``, is the reach of a.  This is `_emb`'s
    definition, evaluated a node at a time instead of a pair at a time.
    Many nodes share a landing set, so each distinct ``E(a)`` is closed
    upward once.
    """
    roots = [_tnode(t) for t in trees]
    at = list(roots)         # bit -> the node that holds it
    bits = {}                # node -> the bits it holds
    for j, r in enumerate(roots):
        bits[r] = bits.get(r, 0) | 1 << j
    # children before parents: a reversed pre-order puts every node after
    # its subtree, and a node met again keeps its first place
    order = {}
    for r in roots:
        order.update(dict.fromkeys(reversed(r.subnodes())))
    for x in order:
        if x not in bits:
            bits[x] = 1 << len(at)
            at.append(x)
    up = dict(bits)          # node -> the bits of the nodes at or above it
    for x in reversed(order):
        for c in x.kids:
            up[c] |= up[x]
    up = [up[x] for x in at]
    by_label = {}
    for x, b in bits.items():
        by_label[x.label] = by_label.get(x.label, 0) | b
    by_row = {}              # row -> (its labels' bits, their nodes' bits)
    for l, b in by_label.items():
        i = labels.index[l]
        m, n = by_row.get(labels.rows[i], (0, 0))
        by_row[labels.rows[i]] = m | 1 << i, n | b
    lifted = {r: sum(n for m, n in by_row.values() if r & m) for r in by_row}
    above = {l: lifted[labels.rows[labels.index[l]]] for l in by_label}
    reach = {}
    closed = {}              # landing set -> the bits at or above it
    for a in order:
        land = above[a.label]
        for c in a.kids:
            land &= reach[c]
        w = closed.get(land)
        if w is None:
            w = closed[land] = close_bits(land, up)
        reach[a] = w
    whole = (1 << len(roots)) - 1
    return [reach[r] & whole for r in roots]


def hom_leq_exhaustive(T, V, label_leq):
    """Brute-force reference: try every node map and test order preservation
    plus label domination.  Only for tiny trees."""
    tn, vn = T.nodes, V.nodes
    for img in itertools.product(range(len(vn)), repeat=len(tn)):
        phi = {tn[i]: vn[img[i]] for i in range(len(tn))}
        ok = True
        for x in tn:
            if x:
                p = phi[x[:-1]]
                if phi[x][:len(p)] != p:
                    ok = False
                    break
            if not label_leq(T.labels[x], V.labels[phi[x]]):
                ok = False
                break
        if ok:
            return True
    return False


def tree_to_dot(tree, label_str=str):
    key = lambda n: "n" + "_".join(str(i) for i in n) if n else "root"
    lines = ["digraph tree {"]
    for n in tree.nodes:
        lines.append(f'  {key(n)} [label="{label_str(tree.labels[n])}"];')
    for n in tree.nodes:
        if n:
            lines.append(f"  {key(n[:-1])} -> {key(n)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
