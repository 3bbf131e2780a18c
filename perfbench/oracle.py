"""Expected values computed apart from the engines the benchmark times.

Counts that the sweeps' reports must reach are derived here from the suite
bounds alone: posets up to isomorphism by brute force over relations, term
counts by a counting recursion, continuous open surjections by trying every
point map.  The term order is re-decided by the tree-map matcher
(`hom_leq`), and families are evaluated straight from their JSON documents.
"""

from __future__ import annotations

import itertools

from finehier.labeled_trees import hom_leq
from finehier.ordinals import ord_cmp
from finehier.terms import (Const, is_singleton, singleton_value,
                            term_decompose, term_tree)
from finehier._memo import PairMemo

POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16}


def posets(n):
    """One order matrix per isomorphism class of partial orders on n
    points, found by trying every relation on the off-diagonal pairs."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    perms = list(itertools.permutations(range(n)))
    seen, out = set(), []
    for bits in range(1 << len(pairs)):
        le = [[i == j for j in range(n)] for i in range(n)]
        for b, (i, j) in enumerate(pairs):
            if bits >> b & 1:
                le[i][j] = True
        if any(le[i][j] and le[j][i] for i, j in pairs):
            continue
        if any(le[i][j] and le[j][k] and not le[i][k]
               for i in range(n) for j in range(n) for k in range(n)):
            continue
        canon = min(tuple(le[p[i]][p[j]] for i in range(n) for j in range(n))
                    for p in perms)
        if canon not in seen:
            seen.add(canon)
            out.append(le)
    if n in POSET_COUNTS and len(out) != POSET_COUNTS[n]:
        raise AssertionError(f"{len(out)} posets on {n} points, "
                             f"expected {POSET_COUNTS[n]}")
    return out


def _upsets(le):
    n = len(le)
    return [m for m in range(1 << n)
            if all(not (m >> i & 1) or m >> j & 1
                   for i in range(n) for j in range(n) if le[i][j])]


def cos_count(X, Y):
    """Point maps X -> Y that are monotone, onto, and send every up-set to
    an up-set."""
    ups_x, ups_y = _upsets(X), set(_upsets(Y))
    nx, ny = len(X), len(Y)
    count = 0
    for f in itertools.product(range(ny), repeat=nx):
        if len(set(f)) != ny:
            continue
        if any(X[i][j] and not Y[f[i]][f[j]]
               for i in range(nx) for j in range(nx)):
            continue
        if all(sum(1 << y for y in {f[p] for p in range(nx) if u >> p & 1})
               in ups_y for u in ups_x):
            count += 1
    return count


def term_count(num_labels, max_nodes, num_subscripts, max_children=None):
    """Number of terms with at most ``max_nodes`` syntactic nodes."""
    by_size = {1: num_labels}
    seq_memo = {}

    def seqs(total, remaining):
        # ordered child tuples with the given node total and arity bound
        if remaining == 0:
            return 0
        key = (total, remaining)
        if key not in seq_memo:
            rest = None if remaining is None else remaining - 1
            seq_memo[key] = sum(
                by_size[first] * (1 if first == total else seqs(total - first, rest))
                for first in range(1, total + 1))
        return seq_memo[key]

    for n in range(2, max_nodes + 1):
        # shifts, then Fq and Fo branches over every child tuple
        by_size[n] = (num_subscripts * by_size[n - 1]
                      + (num_labels + num_subscripts) * seqs(n - 1, max_children))
    return sum(by_size.values())


class TreeOrder:
    """The term order re-decided by the tree-map matcher.

    Terms flatten to labeled trees whose labels are constants and shift
    terms; ``hom_leq`` searches for a label-dominating monotone map, and
    labels compare by the constant and shift clauses, which recurse into
    this same matcher for shift bodies.
    """

    def __init__(self, qo):
        self.qo = qo
        self._memo = {}
        self._trees = PairMemo()

    def leq(self, u, v):
        key = (u, v)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = hom_leq(term_tree(u), term_tree(v),
                                            self._label_leq, cache=self._trees)
        return hit

    def _label_leq(self, a, b):
        if isinstance(a, Const):
            if isinstance(b, Const):
                return self.qo.leq(a.q, b.q)
            return self.leq(a, b.body)
        if isinstance(b, Const):
            return self.leq(a.body, b)
        c = ord_cmp(a.alpha, b.alpha)
        if c < 0:
            return self.leq(a.body, b)
        if c == 0:
            return self.leq(a.body, b.body)
        return self.leq(a, b.body)


def _node_key(node):
    return "".join(str(i) for i in node)


def _pieces(doc, u, carrier, out):
    if is_singleton(u):
        out.append((carrier, singleton_value(u)))
        return
    tree = term_tree(term_decompose(u).core)
    sets = {key: frozenset(names) for key, names in doc["sets"].items()}
    for node in tree.nodes:
        key = _node_key(node)
        deeper = set()
        for other, s in sets.items():
            if len(other) > len(key) and other.startswith(key):
                deeper |= s
        comp = sets[key] - deeper
        label = tree.labels[node]
        if is_singleton(label):
            out.append((comp, singleton_value(label)))
        else:
            _pieces(doc["children"][key], label, comp, out)


def evaluate_family(points, doc, u):
    """Mind-change evaluation of a family document for the term ``u``.

    A whole-carrier document covers all of ``points``.  Returns
    ``{"values": {point: label}}`` when the terminating components
    cover the carrier without clashes, else ``{"undetermined": {"point":
    p, "labels": [...]}}`` for the first clashing point in ``points``
    order.
    """
    whole = doc.get("whole") or "sets" not in doc
    carrier = frozenset(points if whole else doc["carrier"])
    pieces = []
    _pieces(doc, u, carrier, pieces)
    labels = {p: set() for p in carrier}
    for comp, q in pieces:
        for p in comp:
            labels[p].add(q)
    for p in points:
        if p in carrier and len(labels[p]) > 1:
            return {"undetermined": {"point": p, "labels": sorted(labels[p])}}
    if any(not qs for qs in labels.values()):
        raise ValueError("terminating components do not cover the carrier")
    return {"values": {p: next(iter(labels[p])) for p in points if p in carrier}}
