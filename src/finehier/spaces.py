"""Finite T0 spaces as posets, with the point-set machinery on bitmasks.

Opens are exactly the up-sets of the specialization order, so continuity of
a point map is monotonicity and every topological notion below reduces to
order combinatorics.  Subsets of a space are passed around as integer
bitmasks; helpers convert to and from frozensets of point indices at the
API boundary.
"""

from __future__ import annotations

import itertools

from .quasiorder import (check_preorder, json_object, json_list, json_pairs,
                         preorder_closure)

__all__ = [
    "FinSpace", "ContMap", "QPartition",
    "NotContinuousError", "NotOpenSurjectionError",
    "DifferentSpacesError", "DifferentQError",
    "mask_points", "points_mask",
    "sierpinski", "discrete", "product",
    "is_cos", "is_meager", "is_meager_bruteforce", "cat_quantifier",
    "wadge_leq", "monotone_maps", "monotone_selfmaps", "enum_cos",
    "enumerate_posets",
]


class NotContinuousError(ValueError):
    pass


class NotOpenSurjectionError(ValueError):
    pass


class DifferentSpacesError(ValueError):
    pass


class DifferentQError(ValueError):
    pass


def mask_points(mask):
    """Indices of the set bits, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def submasks(mask):
    """Every subset of ``mask`` as a bitmask, ascending."""
    out = [0]
    while out[-1] != mask:
        out.append((out[-1] - mask) & mask)
    return tuple(out)


def close_bits(bits, up):
    """The union of the masks ``up[i]`` over the set bits i of ``bits``,
    where each ``up[i]`` holds bit i and the masks are transitive (the mask
    of a bit in ``up[i]`` lies inside ``up[i]``).  A bit already in the
    union brings nothing new, so it is skipped."""
    out = 0
    while bits:
        out |= up[(bits & -bits).bit_length() - 1]
        bits &= ~out
    return out


def points_mask(points):
    m = 0
    for p in points:
        m |= 1 << p
    return m


class FinSpace:
    """A finite partial order; points are 0..n-1, opens are up-sets."""

    __slots__ = ("n", "le", "names", "ups", "downs", "full",
                 "_hash", "_opens", "_selfmaps")

    def __init__(self, le, names=None):
        le = check_preorder(le)
        n = len(le)
        if any(le[i][j] and le[j][i] for i in range(n) for j in range(i)):
            raise ValueError("order must be antisymmetric (T0)")
        self.n = n
        self.le = le
        self.names = tuple(names) if names else _default_names(n)
        if len(self.names) != n or len(set(self.names)) != n:
            raise ValueError("need distinct names, one per point")
        self.ups = tuple(points_mask(j for j in range(n) if le[i][j])
                         for i in range(n))
        self.downs = tuple(points_mask(j for j in range(n) if le[j][i])
                           for i in range(n))
        self.full = (1 << n) - 1
        self._hash = hash(le)
        self._opens = None
        self._selfmaps = None

    def leq(self, i, j):
        return self.le[i][j]

    def is_upset(self, mask):
        up = 0
        for p in mask_points(mask):
            up |= self.ups[p]
        return up == mask

    def opens(self):
        """All up-sets, ascending as bitmasks (deterministic)."""
        if self._opens is None:
            self._opens = tuple(m for m in range(self.full + 1)
                                if self.is_upset(m))
        return self._opens

    def closure(self, mask, within=None):
        """Topological closure (downward closure), in an optional subspace."""
        if within is None:
            within = self.full
        out = 0
        for p in mask_points(mask):
            out |= self.downs[p]
        return out & within

    def interior(self, mask, within=None):
        """Largest relatively open subset of ``mask`` in the subspace."""
        if within is None:
            within = self.full
        out = 0
        for p in mask_points(mask & within):
            if self.ups[p] & within & ~mask == 0:
                out |= 1 << p
        return out

    def index_of(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown point {name!r}") from None

    def set_of_names(self, mask):
        return tuple(self.names[p] for p in mask_points(mask))

    def mask_of_names(self, names):
        return points_mask(self.index_of(x) for x in names)

    def __eq__(self, other):
        return isinstance(other, FinSpace) and self.le == other.le

    def __hash__(self):
        return self._hash

    def __repr__(self):
        rel = [(self.names[i], self.names[j]) for i in range(self.n)
               for j in range(self.n) if i != j and self.le[i][j]]
        return f"FinSpace({list(self.names)}, le={rel})"

    @classmethod
    def from_pairs(cls, names, pairs):
        names = tuple(names)
        idx = {x: i for i, x in enumerate(names)}
        try:
            pairs = [(idx[a], idx[b]) for a, b in pairs]
        except KeyError as exc:
            raise ValueError(f"unknown point {exc.args[0]!r}") from None
        return cls(preorder_closure(len(names), pairs), names)

    @classmethod
    def from_json(cls, doc):
        doc = json_object(doc, "a space", "points", "le")
        return cls.from_pairs(json_list(doc["points"], "space points", str),
                              json_pairs(doc["le"], "space order pairs"))

    def to_json(self):
        pairs = [[self.names[i], self.names[j]] for i in range(self.n)
                 for j in range(self.n) if i != j and self.le[i][j]]
        return {"points": list(self.names), "le": pairs}


def _default_names(n):
    base = "abcdefghijklmnopqrstuvwxyz"
    if n <= len(base):
        return tuple(base[:n])
    return tuple(f"p{i}" for i in range(n))


def sierpinski():
    """Two points a < b; opens are {}, {b}, {a,b}."""
    return FinSpace.from_pairs("ab", [("a", "b")])


def discrete(n, names=None):
    return FinSpace([[i == j for j in range(n)] for i in range(n)], names)


def product(X, Y):
    """Componentwise-order product; returns (space, first projection,
    second projection).  Point (x, y) gets index x*Y.n + y."""
    n = X.n * Y.n
    names = tuple(f"{X.names[i]}{Y.names[j]}"
                  for i in range(X.n) for j in range(Y.n))
    le = [[X.le[i1][i2] and Y.le[j1][j2]
           for i2 in range(X.n) for j2 in range(Y.n)]
          for i1 in range(X.n) for j1 in range(Y.n)]
    Z = FinSpace(le, names)
    p1 = ContMap(Z, X, tuple(i for i in range(X.n) for _ in range(Y.n)))
    p2 = ContMap(Z, Y, tuple(j for _ in range(X.n) for j in range(Y.n)))
    return Z, p1, p2


class ContMap:
    """A monotone (= continuous) total point map between finite spaces."""

    __slots__ = ("src", "dst", "values", "_hash", "_cos")

    def __init__(self, src, dst, values):
        values = tuple(values)
        if len(values) != src.n or any(not 0 <= v < dst.n for v in values):
            raise ValueError("need one target point per source point")
        for i in range(src.n):
            for j in range(src.n):
                if src.le[i][j] and not dst.le[values[i]][values[j]]:
                    raise NotContinuousError(
                        f"map is not monotone at {src.names[i]} <= {src.names[j]}")
        self.src = src
        self.dst = dst
        self.values = values
        self._hash = hash((src, dst, values))
        self._cos = None

    def __call__(self, p):
        return self.values[p]

    def image_mask(self, mask):
        out = 0
        for p in mask_points(mask):
            out |= 1 << self.values[p]
        return out

    def preimage_mask(self, mask):
        out = 0
        for p in range(self.src.n):
            if mask >> self.values[p] & 1:
                out |= 1 << p
        return out

    def fiber_mask(self, y):
        return self.preimage_mask(1 << y)

    def is_surjective(self):
        return self.image_mask(self.src.full) == self.dst.full

    def __eq__(self, other):
        return (isinstance(other, ContMap) and self.src == other.src
                and self.dst == other.dst and self.values == other.values)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        pairs = ", ".join(f"{self.src.names[i]}->{self.dst.names[v]}"
                          for i, v in enumerate(self.values))
        return f"ContMap({pairs})"

    @classmethod
    def from_json(cls, src, dst, doc):
        doc = json_object(doc, "a point map")
        vals = json_object(doc.get("values", doc), "point map values")
        for x in src.names:
            if x not in vals:
                raise ValueError(f"point map leaves out source point {x!r}")
        return cls(src, dst, tuple(dst.index_of(vals[x]) for x in src.names))

    def to_json(self):
        return {"values": {self.src.names[i]: self.dst.names[v]
                           for i, v in enumerate(self.values)}}


def is_cos(f):
    """Continuous open surjection test.  Openness is checked on principal
    up-sets; images of arbitrary up-sets are unions of these.  The answer
    is kept on the map."""
    if f._cos is None:
        f._cos = f.is_surjective() and all(
            f.dst.is_upset(f.image_mask(f.src.ups[p])) for p in range(f.src.n))
    return f._cos


def is_meager(space, mask, within=None):
    """Meagerness via the singleton criterion: a set is meager in the
    subspace iff the closure of each of its points has empty relative
    interior."""
    if within is None:
        within = space.full
    for p in mask_points(mask & within):
        if space.interior(space.closure(1 << p, within), within):
            return False
    return True


def is_meager_bruteforce(space, mask, within=None):
    """Validation oracle: search for a decomposition into nowhere-dense
    sets.  A cover of ``mask`` by nowhere-dense subsets exists iff the
    union of all its nowhere-dense subsets is ``mask`` itself, so the
    search enumerates every subset."""
    if within is None:
        within = space.full
    mask &= within
    covered = 0
    for sub in submasks(mask):
        if not space.interior(space.closure(sub, within), within):
            covered |= sub
    return covered == mask


def cat_quantifier(f, mask):
    """Points of the target whose fiber meets ``mask`` non-meagerly (in the
    fiber's subspace topology).  Defined for continuous open surjections."""
    if not is_cos(f):
        raise NotOpenSurjectionError("map is not a continuous open surjection")
    out = 0
    for y in range(f.dst.n):
        fib = f.fiber_mask(y)
        if not is_meager(f.src, mask & fib, within=fib):
            out |= 1 << y
    return out


class QPartition:
    """A labeling of (part of) a space by elements of a quasiorder.

    ``values[p]`` is the label of point p, or None for points outside the
    carrier; the default carrier is the whole space.
    """

    __slots__ = ("space", "qo", "values", "carrier", "_hash")

    def __init__(self, space, qo, values):
        values = tuple(values)
        if len(values) != space.n:
            raise ValueError("need one entry per point")
        carrier = 0
        for p, v in enumerate(values):
            if v is not None:
                qo.check_label(v)
                carrier |= 1 << p
        self.space = space
        self.qo = qo
        self.values = values
        self.carrier = carrier
        self._hash = hash((space, qo, values))

    def is_total(self):
        return self.carrier == self.space.full

    def __call__(self, p):
        return self.values[p]

    def restrict(self, mask):
        return QPartition(self.space, self.qo,
                          tuple(v if mask >> p & 1 else None
                                for p, v in enumerate(self.values)))

    def precompose(self, f):
        """The partition x -> self(f(x)) on the source of ``f``."""
        if f.dst != self.space:
            raise DifferentSpacesError("map target differs from the carrier space")
        return QPartition(f.src, self.qo,
                          tuple(self.values[f.values[p]]
                                for p in range(f.src.n)))

    def __eq__(self, other):
        return (isinstance(other, QPartition) and self.space == other.space
                and self.qo == other.qo and self.values == other.values)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        vals = ", ".join(f"{self.space.names[p]}:{v}"
                         for p, v in enumerate(self.values) if v is not None)
        return f"QPartition({vals})"

    @classmethod
    def from_json(cls, space, qo, doc):
        doc = json_object(doc, "a partition")
        vals = json_object(doc.get("values", doc), "partition values")
        values = [None] * space.n
        for name, v in vals.items():
            values[space.index_of(name)] = v
        return cls(space, qo, values)

    def to_json(self):
        return {"values": {self.space.names[p]: v
                           for p, v in enumerate(self.values) if v is not None}}


def monotone_maps(X, Y):
    """All monotone maps X -> Y, in lexicographic order of value tuples."""
    out = []
    for values in itertools.product(range(Y.n), repeat=X.n):
        if all(Y.le[values[i]][values[j]]
               for i in range(X.n) for j in range(X.n) if X.le[i][j]):
            out.append(values)
    return tuple(out)


def monotone_selfmaps(X):
    if X._selfmaps is None:
        X._selfmaps = monotone_maps(X, X)
    return X._selfmaps


def wadge_leq(A, B):
    """Does a continuous self-map f witness A(x) <= B(f(x)) pointwise?
    Decided by exhausting all monotone self-maps."""
    if A.space != B.space:
        raise DifferentSpacesError("partitions live on different spaces")
    if A.qo != B.qo:
        raise DifferentQError("partitions use different label quasiorders")
    if not (A.is_total() and B.is_total()):
        raise ValueError("reducibility needs total partitions")
    qo = A.qo
    for g in monotone_selfmaps(A.space):
        if all(qo.leq(A.values[x], B.values[g[x]]) for x in range(A.space.n)):
            return True
    return False


def enum_cos(X, Y):
    """All continuous open surjections from X onto Y, deterministic order."""
    out = []
    for values in monotone_maps(X, Y):
        f = ContMap(X, Y, values)
        if is_cos(f):
            out.append(f)
    return tuple(out)


def enumerate_posets(n):
    """One partial order on n points per isomorphism class: the first
    reading of the class, reading each pair i < j as incomparable, i below
    j or i above j, lexicographically; classes in the order of their
    readings.  Each is an order on n - 1 points plus a maximal point above
    a down-set."""
    if n == 0:
        return (FinSpace(()),)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    first = {}
    for P in enumerate_posets(n - 1):
        for up in P.opens():
            le = [row + (not up >> i & 1,) for i, row in enumerate(P.le)]
            le.append((False,) * (n - 1) + (True,))
            reading, perm = min(
                (tuple(le[p[i]][p[j]] + 2 * le[p[j]][p[i]] for i, j in pairs),
                 p) for p in itertools.permutations(range(n)))
            first[reading] = [[le[a][b] for b in perm] for a in perm]
    return tuple(FinSpace(first[r]) for r in sorted(first))
