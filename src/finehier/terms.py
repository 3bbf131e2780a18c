"""The term algebra over a finite quasiorder of constants.

Terms are built from four constructors:

* ``Const(q)`` -- a constant from the label quasiorder;
* ``Shift(alpha, body)`` -- a unary level-shift with an ordinal subscript;
* ``Fq(q, children)`` -- a branch whose root carries a constant;
* ``Fo(alpha, children)`` -- a branch whose root carries the shifted first
  child, ``Shift(alpha, children[0])``; the remaining children hang below.

Child lists are finite and nonempty.  Every term flattens to a labeled tree
(`term_tree`): constants and shift-terms flatten to singleton trees labeled
by themselves, branches put their root label at the root and the flattened
children below.  The comparison relation `term_leq` is defined by structural
recursion with one clause per constructor pair (16 in all); it is exactly
the existence of a monotone label-dominating map between the flattened
trees, and the tree-morphism engine in `labeled_trees` serves as an
independent oracle for it.  Three clauses involving branch terms are
normalized to the tree-morphism semantics where their bound variable would
otherwise be ambiguous; the cross-check suite adjudicates the reading.

`TermOrder` decides the clauses set at a time: one walk numbers a pool
and its subterms bottom-up, and the rows are then built, per term u, as
big ints holding every v with u <= v, so a comparison is a bit lookup.

Terms are immutable and interned: structurally equal terms are the same
object, so they hash by identity and index the rows cheaply.  Each keeps
its leading shift chain's ordinal sum and the term below it as ``shift``
and ``core`` (0 and itself when it is no shift).  A branch also keeps its
root label and the children below the root as ``head`` and ``below``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .labeled_trees import LabeledTree
from .ordinals import (Ordinal, ZERO, OrdinalParser, ord_add, ord_cmp,
                       omega_power, ord_to_str)
from .spaces import close_bits, mask_points

__all__ = [
    "Const", "Shift", "Fq", "Fo", "Term", "Decomposition",
    "SingletonTermError", "NotAutomorphismError", "TermParseError",
    "SubscriptBoundError",
    "term_rank", "is_singleton", "singleton_value",
    "term_decompose", "term_leq", "TermOrder", "term_tree", "term_paths",
    "term_apply_aut", "check_subscripts", "check_constants",
    "parse_term", "term_to_str", "enumerate_terms", "syntax_tree",
]


class SingletonTermError(ValueError):
    pass


class NotAutomorphismError(ValueError):
    pass


class TermParseError(ValueError):
    pass


class SubscriptBoundError(ValueError):
    """An ordinal subscript exceeds the configured signature bound."""


class Const:
    __slots__ = ("q", "nodes", "maxq", "shift", "core")
    _table = {}

    def __new__(cls, q):
        # checked before the lookup: True would find the constant 1
        if type(q) is not int or q < 0:
            raise ValueError("constants are non-negative integers")
        hit = cls._table.get(q)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.q = q
        self.nodes = 1
        self.maxq = q
        self.shift, self.core = ZERO, self
        cls._table[q] = self
        return self

    def __repr__(self):
        return term_to_str(self)


class Shift:
    __slots__ = ("alpha", "body", "nodes", "maxq", "shift", "core")
    _table = {}

    def __new__(cls, alpha, body):
        key = (alpha, body)
        hit = cls._table.get(key)
        if hit is not None:
            return hit
        if not isinstance(alpha, Ordinal):
            raise TypeError("subscript must be an Ordinal")
        _check_term(body)
        self = object.__new__(cls)
        self.alpha = alpha
        self.body = body
        self.nodes = 1 + body.nodes
        self.maxq = body.maxq
        self.shift = ord_add(omega_power(alpha), body.shift)
        self.core = body.core
        cls._table[key] = self
        return self

    def __repr__(self):
        return term_to_str(self)


class _Branch:
    __slots__ = ()

    def __repr__(self):
        return term_to_str(self)


class Fq(_Branch):
    __slots__ = ("q", "children", "nodes", "maxq", "shift", "core", "head",
                 "below")
    _table = {}

    def __new__(cls, q, children):
        if type(q) is not int or q < 0:
            raise ValueError("constants are non-negative integers")
        children = tuple(children)
        key = (q, children)
        hit = cls._table.get(key)
        if hit is not None:
            return hit
        if not children:
            raise ValueError("child lists must be nonempty")
        for c in children:
            _check_term(c)
        self = object.__new__(cls)
        self.q = q
        self.children = children
        self.nodes = 1 + sum(c.nodes for c in children)
        self.maxq = max(q, *(c.maxq for c in children))
        self.shift, self.core = ZERO, self
        self.head, self.below = Const(q), children
        cls._table[key] = self
        return self


class Fo(_Branch):
    __slots__ = ("alpha", "children", "nodes", "maxq", "shift", "core",
                 "head", "below")
    _table = {}

    def __new__(cls, alpha, children):
        children = tuple(children)
        key = (alpha, children)
        hit = cls._table.get(key)
        if hit is not None:
            return hit
        if not isinstance(alpha, Ordinal):
            raise TypeError("subscript must be an Ordinal")
        if not children:
            raise ValueError("child lists must be nonempty")
        for c in children:
            _check_term(c)
        self = object.__new__(cls)
        self.alpha = alpha
        self.children = children
        self.nodes = 1 + sum(c.nodes for c in children)
        self.maxq = max(c.maxq for c in children)
        self.shift, self.core = ZERO, self
        self.head, self.below = Shift(alpha, children[0]), children[1:]
        cls._table[key] = self
        return self


Term = (Const, Shift, Fq, Fo)


def _check_term(t):
    if not isinstance(t, Term):
        raise TypeError(f"not a term: {t!r}")


def term_rank(u):
    """Height of the syntactic tree; leaves have rank 0."""
    if isinstance(u, Const):
        return 0
    if isinstance(u, Shift):
        return 1 + term_rank(u.body)
    return 1 + max(term_rank(c) for c in u.children)


def is_singleton(u):
    """True for constants and shift-chains ending in a constant."""
    return isinstance(u.core, Const)


def singleton_value(u):
    if not is_singleton(u):
        raise SingletonTermError(f"{u!r} is not a singleton term")
    return u.core.q


@dataclass(frozen=True)
class Decomposition:
    shift: Ordinal
    core: object  # a Term that is not a Shift


def term_decompose(u):
    """Strip the maximal leading chain of shift constructors.

    The ``shift`` is the ordinal sum of w^alpha over the stripped chain in
    order; the ``core`` is the residue and is never a Shift.
    """
    return Decomposition(u.shift, u.core)


def check_subscripts(u, gamma):
    """Enforce the signature bound: every ordinal subscript must be < gamma."""
    if gamma is None:
        return
    if isinstance(u, Const):
        return
    if isinstance(u, Shift):
        if ord_cmp(u.alpha, gamma) >= 0:
            raise SubscriptBoundError(f"subscript {u.alpha} not below {gamma}")
        check_subscripts(u.body, gamma)
        return
    if isinstance(u, Fo) and ord_cmp(u.alpha, gamma) >= 0:
        raise SubscriptBoundError(f"subscript {u.alpha} not below {gamma}")
    for c in u.children:
        check_subscripts(c, gamma)


# --- the comparison relation -------------------------------------------------


def check_constants(u, qo):
    """Every constant of ``u`` must be an element of the label quasiorder."""
    if u.maxq >= qo.size:
        raise ValueError(f"constant {u.maxq} is not an element of the label "
                         f"quasiorder of size {qo.size}")


def _ancestors(succ):
    """Per bit x, the mask of the bits that reach x along the successor
    lists ``succ`` (which point to earlier bits), x included."""
    anc = [1 << x for x in range(len(succ))]
    for p in range(len(succ) - 1, -1, -1):
        for s in succ[p]:
            anc[s] |= anc[p]
    return anc


def _rows(qo, terms):
    """The comparison over the closure of ``terms`` under subterms and
    branch roots, set at a time: the bit positions and, per position, the
    row of every v with u <= v.

    One iterative walk gives every term its bit after those of its body,
    root and children, and records its successors as it goes.  Each clause
    on u reads only the rows of u's body, root and children, which come
    earlier.  The clauses that recurse on v -- sink into a child of v, into
    v's root, or into the body of a shift with a smaller subscript -- make
    the row the union of the ancestor masks, in the successor graph for u's
    kind, of a base set decided by u's own clause.  Many terms share a
    base: a shift's depends only on its subscript and body row, and a
    branch's root part only on its root row, so each is worked out once,
    and the branches close each distinct base once.
    """
    index, order = {}, []
    by_label = [0] * qo.size  # Const(q) and Fq(q, ...) per label q
    consts = branches = 0
    kids, below = [], []      # per bit: all children, children below the root
    root = {}                 # branch bit -> root bit
    with_root = {}            # root bit -> branches with that root
    stack = [(t, False) for t in terms]
    while stack:
        t, ready = stack.pop()
        if t in index:
            continue
        if not ready:
            stack.append((t, True))
            if isinstance(t, Shift):
                stack.append((t.body, False))
            elif not isinstance(t, Const):
                stack.append((t.head, False))
                stack.extend((c, False) for c in t.below)
            continue
        i = index[t] = len(order)
        order.append(t)
        if isinstance(t, Const):
            # every constant of the closure is met here, Fq root labels too
            check_constants(t, qo)
            by_label[t.q] |= 1 << i
            consts |= 1 << i
            kids.append(())
            below.append(())
        elif isinstance(t, Shift):
            kids.append((index[t.body],))
            below.append(())
        else:
            if isinstance(t, Fq):
                by_label[t.q] |= 1 << i
            r = root[i] = index[t.head]
            with_root[r] = with_root.get(r, 0) | 1 << i
            branches |= 1 << i
            kids.append(tuple(index[c] for c in t.children))
            below.append(tuple(index[c] for c in t.below))
    # constants read no other row, so their rows come first and their
    # ancestor table is gone before the others are built
    up = [0] * len(order)
    anc = _ancestors(kids)
    for i in mask_points(consts):
        base = 0
        for q in range(qo.size):
            if qo.leq(order[i].q, q):
                base |= by_label[q]
        up[i] = close_bits(base, anc)
    del anc
    roots = sum(1 << r for r in with_root)
    branch_anc, closed = _ancestors(below), {}  # closed: base -> its row
    shift_rules = {}

    def shift_rule(a):
        # u = Shift(a, b) sinks into roots, into children below roots and
        # into the bodies of shifts with a smaller subscript
        succ, plain, shift_of = [], consts, {}
        for i, t in enumerate(order):
            if i in root:
                succ.append((root[i],) + below[i])
            elif isinstance(t, Shift) and t.alpha < a:
                succ.append(kids[i])
            else:
                succ.append(())
                if isinstance(t, Shift):
                    if t.alpha is a:
                        shift_of[kids[i][0]] = i
                    else:
                        plain |= 1 << i
        # the last entry maps each body row met to the row of a shift over it
        return (_ancestors(succ), plain, sum(1 << y for y in shift_of),
                shift_of, {})

    root_part = {}            # root row -> a branch's base before its children
    for i, u in enumerate(order):
        if isinstance(u, Const):
            continue
        if isinstance(u, Shift):
            rule = shift_rules.get(u.alpha)
            if rule is None:
                rule = shift_rules[u.alpha] = shift_rule(u.alpha)
            anc, plain, has_shift, shift_of, lifted = rule
            body = up[kids[i][0]]
            row = lifted.get(body)
            if row is None:
                base = body & plain
                for y in mask_points(body & has_shift):
                    base |= 1 << shift_of[y]
                row = lifted[body] = close_bits(base, anc)
            up[i] = row
        else:
            r = up[root[i]]
            base = root_part.get(r)
            if base is None:
                base = r & ~branches
                for x in mask_points(r & roots):
                    base |= with_root[x]
                root_part[r] = base
            for c in below[i]:
                base &= up[c]
            row = closed.get(base)
            if row is None:
                row = closed[base] = close_bits(base, branch_anc)
            up[i] = row
    return index, up


class TermOrder:
    """The term comparison over one label quasiorder, as a table of rows.

    ``TermOrder(qo, terms)`` builds, for every term u of the closure of
    ``terms`` under subterms and branch roots, the row of every v with
    u <= v: ``rows[index[u]]`` is a big int over the bit positions in
    ``index``.  The rows follow the 16 clauses, one per constructor pair: a
    branch root behaves like its root label followed by the flattened
    children, so mapping root to root compares labels and sends every child
    into the whole right tree; otherwise the whole left tree sinks into one
    right subtree.  `leq` reads a bit; a pair outside the table is decided
    by a throwaway table over the closure of the pair.
    """

    __slots__ = ("qo", "index", "rows")

    def __init__(self, qo, terms=()):
        self.qo = qo
        self.index, self.rows = _rows(qo, terms)

    def leq(self, u, v):
        i, j = self.index.get(u), self.index.get(v)
        if i is None or j is None:
            return term_leq(self.qo, u, v)
        return bool(self.rows[i] >> j & 1)


def term_leq(qo, u, v):
    """Decide the comparison relation for one pair, by a table over the
    closure of the pair."""
    return TermOrder(qo, (u, v)).leq(u, v)


# --- flattening to labeled trees ---------------------------------------------

_TREES = {}


def term_tree(u):
    """The labeled tree of a term; labels are constants and shift-terms.

    Constants and shift-terms give singleton trees labeled by the term
    itself.  ``Fq(q, cs)`` gives a root labeled ``Const(q)`` with the trees
    of all children below; ``Fo(alpha, cs)`` gives a root labeled
    ``Shift(alpha, cs[0])`` with the trees of the remaining children below.
    """
    hit = _TREES.get(u)
    if hit is not None:
        return hit
    if isinstance(u, (Const, Shift)):
        tree = _graft(u, ())
    else:
        tree = _graft(u.head, [term_tree(c) for c in u.below])
    _TREES[u] = tree
    return tree


def _graft(root, subtrees):
    """The tree with a root labeled ``root`` and the subtrees below it, in
    order."""
    nodes, labels = [()], {(): root}
    for i, sub in enumerate(subtrees):
        for n in sub.nodes:
            nodes.append((i,) + n)
            labels[(i,) + n] = sub.labels[n]
    return LabeledTree(nodes, labels)


def term_paths(u):
    """All finite descent sequences of a non-singleton term.

    A sequence starts at a node of the tree of the decomposed core; at a
    singleton label it stops, otherwise it recurses into the tree of the
    label's own core.  Each sequence maps to the constant of its final
    singleton label.
    """
    if is_singleton(u):
        raise SingletonTermError(f"{u!r} has no descent sequences")
    out = {}

    def walk(prefix, t):
        tree = term_tree(t.core)
        for node in tree.nodes:
            lab = tree.labels[node]
            seq = prefix + (node,)
            if is_singleton(lab):
                out[seq] = singleton_value(lab)
            else:
                walk(seq, lab)

    walk((), u)
    return out


def term_apply_aut(qo, g, u):
    """Relabel the constants of a term by an automorphism of the label
    quasiorder; subscripts are unchanged."""
    g = tuple(g)
    if g not in qo.automorphisms():
        raise NotAutomorphismError(f"{g} is not an automorphism")

    def go(t):
        if isinstance(t, Const):
            return Const(g[t.q])
        if isinstance(t, Shift):
            return Shift(t.alpha, go(t.body))
        if isinstance(t, Fq):
            return Fq(g[t.q], tuple(go(c) for c in t.children))
        return Fo(t.alpha, tuple(go(c) for c in t.children))

    return go(u)


# --- concrete syntax ----------------------------------------------------------


class _TermParser(OrdinalParser):
    TOKEN = re.compile(r"\s*(\d+|Fq|Fo|s|w|[\[\](),^*+])")
    Error = TermParseError

    def subscript(self):
        self.take("[")
        alpha = self.sum()
        self.take("]")
        return alpha

    def term(self):
        t = self.peek()
        if t == "s":
            self.take("s")
            alpha = self.subscript()
            self.take("(")
            body = self.nested(self.term)
            self.take(")")
            return Shift(alpha, body)
        if t in ("Fq", "Fo"):
            kind = self.take()
            sub = self.subscript()
            self.take("(")
            children = [self.nested(self.term)]
            while self.peek() == ",":
                self.take(",")
                children.append(self.nested(self.term))
            self.take(")")
            if kind == "Fq":
                if not sub.is_natural():
                    raise TermParseError("Fq takes a constant subscript")
                return Fq(sub.as_natural(), tuple(children))
            return Fo(sub, tuple(children))
        if t is not None and t.isdigit():
            return Const(int(self.take()))
        raise TermParseError(f"unexpected token {t!r}")


def parse_term(text, gamma=None):
    p = _TermParser(text)
    u = p.parse(p.term)
    check_subscripts(u, gamma)
    return u


def term_to_str(u):
    if isinstance(u, Const):
        return str(u.q)
    if isinstance(u, Shift):
        return f"s[{ord_to_str(u.alpha)}]({term_to_str(u.body)})"
    inner = ",".join(term_to_str(c) for c in u.children)
    if isinstance(u, Fq):
        return f"Fq[{u.q}]({inner})"
    return f"Fo[{ord_to_str(u.alpha)}]({inner})"


def syntax_tree(u):
    """The syntactic tree as a labeled tree (constructor tags at nodes)."""
    if isinstance(u, Const):
        return _graft(str(u.q), ())
    if isinstance(u, Shift):
        kids = [u.body]
        tag = f"s[{ord_to_str(u.alpha)}]"
    elif isinstance(u, Fq):
        kids = u.children
        tag = f"Fq[{u.q}]"
    else:
        kids = u.children
        tag = f"Fo[{ord_to_str(u.alpha)}]"
    return _graft(tag, [syntax_tree(c) for c in kids])


# --- enumeration --------------------------------------------------------------


def enumerate_terms(num_labels, max_nodes, subscripts=(), max_children=None):
    """All terms with at most ``max_nodes`` syntactic nodes, deterministically
    ordered by size.  ``subscripts`` is the pool of ordinal subscripts (with
    none, only constants and ``Fq`` branches are built); ``max_children``
    bounds branch arity (None: bounded by the node budget only)."""
    subscripts = tuple(subscripts)
    by_size = {1: [Const(q) for q in range(num_labels)]}

    def seqs(total, remaining):
        # ordered child tuples with the given total node count
        if remaining is not None and remaining == 0:
            return
        for first in range(1, total + 1):
            for head in by_size.get(first, ()):
                if first == total:
                    yield (head,)
                else:
                    rest = None if remaining is None else remaining - 1
                    for tail in seqs(total - first, rest):
                        yield (head,) + tail

    for n in range(2, max_nodes + 1):
        by_size[n] = (
            [Shift(a, t) for a in subscripts for t in by_size[n - 1]]
            + [Fq(q, cs) for q in range(num_labels)
               for cs in seqs(n - 1, max_children)]
            + [Fo(a, cs) for a in subscripts
               for cs in seqs(n - 1, max_children)])

    result = []
    for n in range(1, max_nodes + 1):
        result.extend(by_size.get(n, ()))
    return tuple(result)
