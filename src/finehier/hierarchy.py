"""Set-side of the fine hierarchy over a finite space.

A *base* grades the subsets of a carrier by ordinal thresholds: level(a) is
the family attached to the greatest threshold <= a.  Every level is a
lattice of sets containing the empty set and the carrier, each level plus
its complements sits inside every later level, and the last level is the
full power set (so arbitrary ordinal shifts stay total).  The stock example
grades a finite T0 space by (opens, everything).

A *T-family* is a finite tree labeled by sets; its *components*
subtract everything at strictly deeper nodes.  A *u-family* nests
T-families along the flattened tree of a term: nodes with singleton labels
terminate and carry that label's constant, nodes with shift labels carry a
nested family over the node's component, one level up in the base.
Evaluating a family assigns to each point the constants of the terminating
components containing it -- at most one partition arises, and reduced
families (pairwise disjoint siblings everywhere) always determine one.

The *level* of a term over a base is the set of partitions some family
determines.  ``level_mask`` computes it in one pass, as an int over all
labelings by k labels in ``itertools.product(range(k), repeat=n)`` order
(point 0 the most significant digit): a shift chain reads its core's
level over the base shifted by the chain's sum, and a branch runs a DP
over the unions of its children's level-0 sets, then needs the root
constant or the shifted head's level on the residue; the DP does not read
the root, so the branches over one child tuple share it.  ``member`` is a
bit lookup; ``level_set_enum``, which evaluates every family, is the
cross-oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import terms
from .labeled_trees import LabeledTree, node_key
from .ordinals import ZERO, ONE, ord_cmp, left_subtract, parse_ordinal, ord_to_str
from .quasiorder import json_list, json_node, json_object
from .spaces import (QPartition, mask_points, points_mask, submasks,
                     cat_quantifier, is_cos, NotOpenSurjectionError,
                     DifferentSpacesError)
from .terms import (Const, Shift, is_singleton, singleton_value, term_tree,
                    term_to_str, check_constants)

__all__ = [
    "Base", "borel",
    "TFamily", "components", "reduce_tfamily", "level_has_reduction",
    "UFamily", "WHOLE", "NotDetermined",
    "InvalidFamilyError", "NoReductError",
    "validate_family", "family_eval", "family_restrict", "family_reduct",
    "family_pullback", "family_pushforward",
    "member", "enumerate_families", "level_mask", "level_set",
    "level_set_enum",
    "family_from_json", "family_to_json", "clear_caches",
]


class InvalidFamilyError(ValueError):
    pass


class NoReductError(ValueError):
    """The sets at the children of ``node`` have no pairwise-disjoint
    refinement with the same union inside the working level.  Sets print
    by point names when the space is given, else by point indices."""

    def __init__(self, node, sets, space=None):
        self.node, self.sets = node, tuple(sets)
        names = space.set_of_names if space else mask_points
        shown = " ".join("{" + ",".join(map(str, names(m))) + "}"
                         for m in self.sets)
        super().__init__(f"no reduct for {shown} at the children of node "
                         f"{node_key(node) or 'root'}: the working level "
                         "lacks the reduction property")


# --- bases -------------------------------------------------------------------


class Base:
    """Interned threshold-graded family of set lattices over a carrier;
    equal bases are one object, so they compare and hash by identity."""

    __slots__ = ("space", "carrier", "steps", "_shifts")
    _table = {}

    def __new__(cls, space, carrier, steps):
        steps = tuple((t, tuple(sorted(set(lvl)))) for t, lvl in steps)
        key = (space, carrier, steps)
        hit = cls._table.get(key)
        if hit is not None:
            return hit
        if not steps or not steps[0][0].is_zero:
            raise ValueError("the first threshold must be 0")
        for (t1, _), (t2, _) in zip(steps, steps[1:]):
            if ord_cmp(t1, t2) >= 0:
                raise ValueError("thresholds must strictly increase")
        for _, lvl in steps:
            lvls = set(lvl)
            if 0 not in lvls or carrier not in lvls:
                raise ValueError("levels contain the empty set and the carrier")
            for a in lvl:
                if a & ~carrier:
                    raise ValueError("level sets must lie inside the carrier")
                for b in lvl:
                    if (a | b) not in lvls or (a & b) not in lvls:
                        raise ValueError("levels are lattices of sets")
        for (_, l1), (_, l2) in zip(steps, steps[1:]):
            l2s = set(l2)
            for a in l1:
                if a not in l2s or (carrier & ~a) not in l2s:
                    raise ValueError("each level and its complements sit in "
                                     "every later level")
        if steps[-1][1] != submasks(carrier):
            raise ValueError("the final level must be the full power set")
        self = object.__new__(cls)
        self.space = space
        self.carrier = carrier
        self.steps = steps
        self._shifts = {ZERO: self}
        cls._table[key] = self
        return self

    def level(self, alpha):
        """The level at threshold ``alpha``: greatest step threshold <= it."""
        lvl = self.steps[0][1]
        for t, l in self.steps:
            if ord_cmp(t, alpha) <= 0:
                lvl = l
            else:
                break
        return lvl

    @property
    def level0(self):
        return self.steps[0][1]

    def shift(self, beta):
        """Re-index so the new level(a) is the old level(beta + a).  Each
        shift is built once, then kept in the base's `_shifts`."""
        hit = self._shifts.get(beta)
        if hit is None:
            steps = [(ZERO, self.level(beta))]
            for t, lvl in self.steps:
                if ord_cmp(t, beta) > 0:
                    steps.append((left_subtract(beta, t), lvl))
            hit = self._shifts[beta] = Base(self.space, self.carrier, steps)
        return hit

    def restrict(self, mask):
        """Trace every level on a sub-carrier."""
        mask &= self.carrier
        if mask == self.carrier:
            return self
        return Base(self.space, mask,
                    [(t, {a & mask for a in lvl}) for t, lvl in self.steps])

    def __repr__(self):
        pts = self.space.set_of_names(self.carrier)
        return f"Base(carrier={pts}, {len(self.steps)} steps)"

    @classmethod
    def from_json(cls, space, doc):
        doc = json_object(doc, "a base", "steps")
        steps = []
        for step in json_list(doc["steps"], "base steps", dict):
            json_object(step, "a base step", "threshold", "sets")
            t = parse_ordinal(step["threshold"])
            lvl = tuple(map(space.mask_of_names,
                            json_list(step["sets"], "base step sets", list)))
            steps.append((t, lvl))
        carrier = (space.mask_of_names(json_list(doc["carrier"], "base carrier"))
                   if "carrier" in doc else space.full)
        return cls(space, carrier, steps)

    def to_json(self):
        return {
            "carrier": list(self.space.set_of_names(self.carrier)),
            "steps": [{"threshold": ord_to_str(t),
                       "sets": [list(self.space.set_of_names(m)) for m in lvl]}
                      for t, lvl in self.steps],
        }


_BORELS = {}  # space -> its stock base


def borel(space):
    """The stock base on a finite T0 space: opens at 0, everything from 1
    on (every subset of a finite T0 space is a difference of opens)."""
    hit = _BORELS.get(space)
    if hit is None:
        hit = _BORELS[space] = Base(
            space, space.full,
            ((ZERO, space.opens()), (ONE, submasks(space.full))))
    return hit


# --- tree-indexed families ----------------------------------------------------


class TFamily(LabeledTree):
    """Sets indexed by the nodes of a finite normal tree: a tree labeled by
    sets."""

    __slots__ = ()

    def __init__(self, nodes, sets):
        super().__init__(nodes, sets)
        for n in self.nodes:
            if n and n[-1] and n[:-1] + (n[-1] - 1,) not in self.labels:
                raise ValueError("tree nodes must be normal (no sibling gaps)")

    @property
    def sets(self):
        return self.labels

    def is_monotone(self):
        return all(self.sets[n] & ~self.sets[n[:-1]] == 0
                   for n in self.nodes if n)

    def __eq__(self, other):
        return (isinstance(other, TFamily) and self.nodes == other.nodes
                and self.sets == other.sets)

    def __repr__(self):
        return f"TFamily({len(self.nodes)} nodes)"


def components(fam):
    """The set at each node minus everything at strictly deeper nodes, for
    a T-family or the top tree of a u-family."""
    sets = fam.sets
    deeper = dict.fromkeys(sets, 0)
    # deepest first, so a node's union is complete before its parent reads it
    for n in sorted(sets, key=len, reverse=True):
        if n:
            deeper[n[:-1]] |= sets[n] | deeper[n]
    return {n: s & ~deeper[n] for n, s in sets.items()}


def _reduce_sequence(sets, level):
    """A pairwise-disjoint refinement of ``sets`` inside ``level`` with the
    same union, each member below the original, or None if there is none;
    earliest positions prefer the largest candidates, so the result is
    deterministic."""
    k = len(sets)
    total = 0
    for s in sets:
        total |= s
    cands = [sorted((m for m in level if m & ~s == 0),
                    key=lambda m: (-m.bit_count(), m)) for s in sets]
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        acc = 0
        for m in cands[i]:
            acc |= m
        suffix[i] = suffix[i + 1] | acc
    out = [0] * k

    def bt(i, used):
        if total & ~(used | suffix[i]):
            return False
        if i == k:
            return used == total
        for m in cands[i]:
            if m & used:
                continue
            out[i] = m
            if bt(i + 1, used | m):
                return True
        return False

    return tuple(out) if bt(0, 0) else None


def reduce_tfamily(fam, level):
    """Top-down sibling reduction of a monotone T-family: reduce the sets at
    each node's children, intersect everything deeper with the choice, and
    recurse.  Components only shrink."""
    if not fam.is_monotone():
        raise ValueError("reduction applies to monotone families")
    level = tuple(sorted(set(level)))
    sets = dict(fam.sets)

    def go(node):
        kids = fam.children(node)
        if kids:
            old = [sets[k] for k in kids]
            vs = _reduce_sequence(old, level)
            if vs is None:
                raise NoReductError(node, old)
            for k, v in zip(kids, vs):
                for m in fam.nodes:
                    if m[:len(k)] == k:
                        sets[m] &= v
            for k in kids:
                go(k)

    go(())
    return TFamily(fam.nodes, sets)


def level_has_reduction(level):
    """Bounded check that every sequence of at most three sets from the
    level admits a pairwise-disjoint refinement with the same union inside
    the level (existence of a refinement is permutation-invariant, so
    unordered selections suffice)."""
    level = tuple(sorted(set(level)))
    for k in range(1, 4):
        for seq in itertools.combinations_with_replacement(level, k):
            if _reduce_sequence(seq, level) is None:
                return False
    return True


# --- iterated families --------------------------------------------------------


class _Whole:
    __slots__ = ()

    def __repr__(self):
        return "Whole"


WHOLE = _Whole()


class UFamily:
    """A nested family: a monotone T-family over the flattened tree of the
    term's core, plus one nested family per shift-labeled node, living on
    that node's component.  Families compare by their fields and are not
    hashable."""

    __slots__ = ("carrier", "sets", "children")

    def __init__(self, carrier, sets, children=()):
        self.carrier = carrier
        self.sets = dict(sets)
        self.children = dict(children)

    def __eq__(self, other):
        return (isinstance(other, UFamily) and self.carrier == other.carrier
                and self.sets == other.sets
                and self.children == other.children)

    def __repr__(self):
        return f"UFamily(carrier={self.carrier:b}, {len(self.sets)} nodes)"


@dataclass(frozen=True)
class NotDetermined:
    """Evaluation found a point inside terminating components that carry
    different constants."""
    point: int
    labels: tuple

    def to_json(self, space):
        return {"undetermined": {"point": space.names[self.point],
                                 "labels": list(self.labels)}}


def validate_family(F, u, base):
    """Structural and level-membership validation of a family for a term
    over a base (whose carrier is the family's carrier).  Returns the
    terminating pieces (component mask, constant) across all nesting
    levels."""
    if is_singleton(u):
        if F is not WHOLE:
            raise InvalidFamilyError(
                f"a singleton term takes the whole-carrier marker, got {F!r}")
        return [(base.carrier, singleton_value(u))]
    if F is WHOLE:
        raise InvalidFamilyError(f"{term_to_str(u)} needs an explicit family")
    b2, tree = base.shift(u.shift), term_tree(u.core)
    if F.carrier != base.carrier:
        raise InvalidFamilyError("family carrier differs from the base carrier")
    if set(F.sets) != set(tree.nodes):
        raise InvalidFamilyError("sets must be indexed by the flattened tree")
    for node in F.children:
        if node not in F.sets:
            raise InvalidFamilyError(f"family children key {node_key(node)!r} "
                                     "is not a node of the flattened tree")
    lvl = set(b2.level0)
    for node in tree.nodes:
        m = F.sets[node]
        if m not in lvl:
            raise InvalidFamilyError(f"set at {node} is outside the working level")
        if node and m & ~F.sets[node[:-1]]:
            raise InvalidFamilyError(f"family is not monotone at {node}")
    if F.sets[()] != base.carrier:
        raise InvalidFamilyError("the root set must be the whole carrier")
    comps = components(F)
    pieces = []
    for node in tree.nodes:
        lab = tree.labels[node]
        child = F.children.get(node)
        if is_singleton(lab):
            if child is not None and child is not WHOLE:
                raise InvalidFamilyError(
                    f"node {node} has a singleton label and takes no nested family")
            pieces.append((comps[node], singleton_value(lab)))
        else:
            if child is None:
                raise InvalidFamilyError(f"missing nested family at {node}")
            pieces += validate_family(child, lab, b2.restrict(comps[node]))
    return pieces


def _eval_pieces(pieces, base, qo):
    """The partition the terminating pieces assign to the base's carrier,
    or a `NotDetermined` witness."""
    space = base.space
    values = [None] * space.n
    conflicts = {}
    for m, q in pieces:
        for p in mask_points(m):
            if values[p] is None:
                values[p] = q
            elif values[p] != q:
                conflicts.setdefault(p, {values[p]}).add(q)
    if conflicts:
        p = min(conflicts)
        return NotDetermined(p, tuple(sorted(conflicts[p])))
    if base.carrier & ~points_mask(
            p for p in range(space.n) if values[p] is not None):
        raise RuntimeError("terminating components must cover the carrier")
    return QPartition(space, qo, values)


def family_eval(F, u, base, qo):
    """Run the mind-change evaluation.  Returns the determined partition of
    the carrier, or a `NotDetermined` witness (one point and its clashing
    constants)."""
    return _eval_pieces(validate_family(F, u, base), base, qo)


def _family_map_masks(F, fn, carrier):
    """Move a family along a map of sets: each set m becomes
    ``fn(m) & carrier``, whose root must be ``carrier``, and each nested
    family moves onto its node's new component."""
    if F is WHOLE:
        return WHOLE
    G = UFamily(carrier, {n: fn(m) & carrier for n, m in F.sets.items()})
    if G.sets.get(()) != carrier:
        raise RuntimeError("the image of the root must be the new carrier")
    comps = components(G)
    G.children = {n: _family_map_masks(c, fn, comps[n])
                  for n, c in F.children.items()}
    return G


def family_restrict(F, mask):
    """Trace a family on a subset: intersect every carrier and set."""
    if F is WHOLE:
        return WHOLE
    return _family_map_masks(F, lambda m: m & mask, F.carrier & mask)


def family_reduct(F, u, base):
    """A reduced family whose terminating components sit inside the
    originals; if the input determined a partition, so does the reduct,
    and reduced families always determine one.

    Precondition: every working level met on the way has the reduction
    property (see `level_has_reduction`).  Otherwise sibling sets may have
    no disjoint refinement inside their level, and `NoReductError` names
    the node and the sets."""
    validate_family(F, u, base)

    def go(F, u, base):
        if F is WHOLE:
            return WHOLE
        b2, tree = base.shift(u.shift), term_tree(u.core)
        try:
            rtf = reduce_tfamily(TFamily(tree.nodes, F.sets), b2.level0)
        except NoReductError as exc:
            raise NoReductError(exc.node, exc.sets, base.space) from None
        comps = components(rtf)
        children = {}
        for node in tree.nodes:
            lab = tree.labels[node]
            if not is_singleton(lab):
                sub = family_restrict(F.children[node], comps[node])
                children[node] = go(sub, lab, b2.restrict(comps[node]))
        return UFamily(F.carrier, rtf.sets, children)

    return go(F, u, base)


def family_pullback(f, F, u, base_target):
    """Replace every set by its preimage under a continuous map.  The result
    is a family over the stock base of the source (restricted to the
    preimage of the carrier); evaluation commutes with precomposition."""
    if f.dst != base_target.space:
        raise DifferentSpacesError("map target differs from the base space")
    validate_family(F, u, base_target)
    carrier = f.preimage_mask(base_target.carrier)
    G = _family_map_masks(F, f.preimage_mask, carrier)
    validate_family(G, u, borel(f.src).restrict(carrier))
    return G


def family_pushforward(f, F, u, base_source):
    """Push a full-carrier family through a continuous open surjection by
    applying the category quantifier to every set, clipping nested levels to
    the new components.  If the input determined A o f, the image determines
    A."""
    if not is_cos(f):
        raise NotOpenSurjectionError("pushforward needs a continuous open surjection")
    if f.src != base_source.space:
        raise DifferentSpacesError("map source differs from the base space")
    if base_source.carrier != f.src.full:
        raise ValueError("pushforward applies to full-carrier families")
    validate_family(F, u, base_source)
    G = _family_map_masks(F, lambda m: cat_quantifier(f, m), f.dst.full)
    validate_family(G, u, borel(f.dst))
    return G


# --- level sets ---------------------------------------------------------------

_LEVELS = {}  # (base, carrier, term, label count) -> labeling mask
_REACHES = {}  # (base, carrier, child tuple, label count) -> reach table
_REACH_TABLES = {}  # reach table -> itself, so equal tables are one object


def clear_caches():
    """Empty every memo (levels, reach tables, stock bases and term trees);
    intern tables stay, so values keep their identity."""
    for memo in (_LEVELS, _REACHES, _REACH_TABLES, _BORELS, terms._TREES):
        memo.clear()


def _index(values, k):
    """The bit of a labeling in a level mask; None reads as label 0."""
    i = 0
    for v in values:
        i = i * k + (v or 0)
    return i


def _level(base, carrier, u, k):
    """The level of ``u`` over k labels (see `level_mask`) over ``base``
    traced on the mask ``carrier``; tracing commutes with shifts, so the DP
    reads every restricted level off ``base`` and its shifts.  A shift
    chain reads its core's level over the base shifted by the chain's sum.
    A branch takes its children's union DP from `_reach`, shared by every
    branch over the same children, and ORs each reached set of labelings
    with the root label's level on the residue of the union."""
    key = (base, carrier, u, k)
    if key in _LEVELS:
        return _LEVELS[key]
    n = base.space.n
    r = (1 << k ** n) - 1
    if isinstance(u, Shift):
        # a forwarding entry, for Fo heads and shift-headed children: 754,869
        # _level calls at the criterion-03 bounds with it, 885,103 without
        r = _level(base.shift(u.shift), carrier, u.core, k)
    elif isinstance(u, Const):
        if carrier & carrier - 1:
            for p in mask_points(carrier):
                r &= _level(base, 1 << p, u, k)
        elif carrier:
            # p's digit has weight w; the q-th w of each k * w labelings are q
            w = k ** (n - carrier.bit_length())
            r = r // ((1 << k * w) - 1) * ((1 << w) - 1 << u.q * w)
    else:
        # the residue takes the level of the head, the branch's root label
        r = 0
        for un, s in _reach(base, carrier, u.below, k):
            r |= s & _level(base, carrier & ~un, u.head, k)
    _LEVELS[key] = r
    return r


def _reach(base, carrier, kids, k):
    """The union DP of a branch's children ``kids`` on ``carrier``: sorted
    pairs (union of the sets chosen for the children, labelings whose
    restriction to every chosen set lies in that child's level there).
    Each entry extends the one of ``kids[:-1]`` by the last child, and
    equal tables are one object."""
    key = (base, carrier, kids, k)
    hit = _REACHES.get(key)
    if hit is not None:
        return hit
    if kids:
        new = {}
        prev = _reach(base, carrier, kids[:-1], k)
        for m in {m & carrier for m in base.level0}:
            lv = _level(base, m, kids[-1], k)
            for un, s in prev:
                if s & lv:
                    new[un | m] = new.get(un | m, 0) | s & lv
        hit = tuple(sorted(new.items()))
    else:
        hit = ((0, (1 << k ** base.space.n) - 1),)
    hit = _REACHES[key] = _REACH_TABLES.setdefault(hit, hit)
    return hit


def level_mask(space, qo, u, base=None):
    """The level of ``u`` over ``base`` (the stock base by default) as an
    int: bit i is set when the i-th labeling, in the order of
    ``itertools.product(range(qo.size), repeat=space.n)``, lies in the
    level.  Labels of points outside the base's carrier never matter."""
    if base is None:
        base = borel(space)
    if space != base.space:
        raise DifferentSpacesError("the base lives on a different space")
    check_constants(u, qo)
    return _level(base, base.carrier, u, qo.size)


def member(A, u, base):
    """Does some family for ``u`` over ``base`` determine ``A`` (restricted
    to the carrier)?  A bit lookup in the level DP's mask (see `level_mask`),
    with points outside A's carrier read as label 0."""
    if A.space != base.space:
        raise DifferentSpacesError("partition and base live on different spaces")
    if base.carrier & ~A.carrier:
        raise ValueError("the partition must label the whole carrier")
    mask = level_mask(A.space, A.qo, u, base)
    return bool(mask >> _index(A.values, A.qo.size) & 1)


def enumerate_families(u, base):
    """All structurally valid families for a term over a base, depth-first,
    deterministic."""
    if is_singleton(u):
        yield WHOLE
        return
    b2, tree = base.shift(u.shift), term_tree(u.core)
    nodes = tree.nodes
    snodes = [n for n in nodes if not is_singleton(tree.labels[n])]

    def assign(i, sets):
        if i == len(nodes):
            yield dict(sets)
            return
        node = nodes[i]
        pm = sets[node[:-1]]
        for m in b2.level0:
            if m & ~pm:
                continue
            sets[node] = m
            yield from assign(i + 1, sets)
            del sets[node]

    # the sorted nodes put the root, which holds the carrier, first
    for sets in assign(1, {(): base.carrier}):
        # only nested families need the components
        comps = components(TFamily(nodes, sets)) if snodes else {}

        def rec(j, acc):
            if j == len(snodes):
                yield UFamily(base.carrier, sets, dict(acc))
                return
            n = snodes[j]
            for sub in enumerate_families(tree.labels[n],
                                          b2.restrict(comps[n])):
                acc[n] = sub
                yield from rec(j + 1, acc)
            acc.pop(n, None)

        yield from rec(0, {})


def level_set(space, qo, u, base=None):
    """All partitions of the base's carrier that some family for the term
    determines, in `level_mask` order; the stock base by default."""
    if base is None:
        base = borel(space)
    mask = level_mask(space, qo, u, base)
    choices = [range(qo.size) if base.carrier >> p & 1 else (None,)
               for p in range(space.n)]
    return tuple(QPartition(space, qo, values)
                 for values in itertools.product(*choices)
                 if mask >> _index(values, qo.size) & 1)


def level_set_enum(space, qo, u, base=None, max_families=None):
    """The level computed the slow way: validate and evaluate every family
    and collect the determined partitions.  Cross-oracle for
    `level_set`/`member`; ``max_families`` aborts oversized searches."""
    if base is None:
        base = borel(space)
    seen = set()
    count = 0
    for F in enumerate_families(u, base):
        count += 1
        if max_families is not None and count > max_families:
            raise RuntimeError("enumeration budget exceeded")
        res = family_eval(F, u, base, qo)
        if isinstance(res, QPartition):
            seen.add(res.values)
    return seen


# --- JSON ----------------------------------------------------------------------


def family_from_json(space, doc):
    doc = json_object(doc, "a family")
    if "sets" not in doc or doc.get("whole"):
        return WHOLE
    json_object(doc, "a family", "carrier")
    carrier = space.mask_of_names(json_list(doc["carrier"], "family carrier"))
    sets = {json_node(k, "family set key"):
            space.mask_of_names(json_list(v, f"family set {k!r}"))
            for k, v in json_object(doc["sets"], "family sets").items()}
    children = {json_node(k, "family child key"): family_from_json(space, sub)
                for k, sub in json_object(doc.get("children", {}),
                                          "family children").items()}
    return UFamily(carrier, sets, children)


def family_to_json(space, F, u):
    doc = {"term": term_to_str(u)}
    if F is WHOLE:
        doc["whole"] = True
        return doc
    tree = term_tree(u.core)
    doc["carrier"] = list(space.set_of_names(F.carrier))
    doc["sets"] = {node_key(n): list(space.set_of_names(m))
                   for n, m in sorted(F.sets.items())}
    if F.children:
        doc["children"] = {node_key(n): family_to_json(space, c, tree.labels[n])
                           for n, c in sorted(F.children.items())}
    return doc
