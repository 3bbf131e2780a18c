"""Finite quasiorders: the label alphabets of the term algebra.

Elements are the integers 0..k-1; JSON documents may attach display names.
The checks the other modules share live here too: preorder closure and
validation, and the shape of a JSON document.
"""

from __future__ import annotations

import itertools
import json

__all__ = ["Quasiorder", "antichain", "chain", "preorder_closure",
           "check_preorder", "json_object", "json_list", "json_pairs",
           "json_node"]


def json_parse(text):
    """The document in a JSON text; a ValueError when it nests too deeply."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("the JSON document is nested too deeply") from None


def json_object(doc, what, *required):
    """A JSON document, given as text or parsed, as a dict holding the
    fields ``required``; a ValueError naming ``what`` when it is not an
    object or lacks one of them."""
    if isinstance(doc, str):
        doc = json_parse(doc)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in required:
        if key not in doc:
            raise ValueError(f"{what} has no {key!r} field")
    return doc


def json_list(doc, what, item=object):
    """A field of a JSON document as a list whose members are of type
    ``item``; a ValueError naming ``what`` when it has another shape."""
    if not isinstance(doc, list) or not all(isinstance(x, item) for x in doc):
        kind = {object: "", list: " of arrays", dict: " of objects",
                str: " of strings"}[item]
        raise ValueError(f"{what} must be a JSON array{kind}")
    return doc


def json_pairs(doc, what):
    """A field of a JSON document as a list of pairs (tuples); a ValueError
    naming ``what`` when it has another shape."""
    for p in json_list(doc, what, list):
        if len(p) != 2:
            raise ValueError(f"{what} must have two members each, got {p}")
    return [tuple(p) for p in doc]


def json_node(key, what):
    """A tree node from its digit-string key in a JSON document (one digit
    per index); a ValueError naming ``what`` for any other key."""
    if not all(ch in "0123456789" for ch in key):
        raise ValueError(f"{what} {key!r} is not a string of digits")
    return tuple(int(ch) for ch in key)


def preorder_closure(size, pairs):
    """The reflexive-transitive closure of index pairs on {0, .., size-1},
    as a boolean matrix (Warshall's algorithm)."""
    le = [[i == j for j in range(size)] for i in range(size)]
    for i, j in pairs:
        if not all(type(x) is int and 0 <= x < size for x in (i, j)):
            raise ValueError(f"pair {[i, j]} is not two elements of "
                             f"0..{size - 1}")
        le[i][j] = True
    for m in range(size):
        for row in le:
            if row[m]:
                for j in range(size):
                    row[j] = row[j] or le[m][j]
    return le


def check_preorder(le):
    """The relation matrix as tuples of bools, after checking that it is
    square, reflexive and transitive."""
    le = tuple(tuple(bool(x) for x in row) for row in le)
    k = len(le)
    if any(len(row) != k for row in le):
        raise ValueError("relation matrix must be square")
    if not all(le[i][i] for i in range(k)):
        raise ValueError("relation must be reflexive")
    for i in range(k):
        for j in range(k):
            if le[i][j] and any(le[j][l] and not le[i][l] for l in range(k)):
                raise ValueError("relation must be transitive")
    return le


class Quasiorder:
    """A reflexive transitive relation on {0, .., size-1}."""

    __slots__ = ("size", "le", "names", "_hash", "_auts")

    def __init__(self, le, names=None):
        le = check_preorder(le)
        k = len(le)
        self.size = k
        self.le = le
        self.names = tuple(names) if names else tuple(str(i) for i in range(k))
        if len(self.names) != k:
            raise ValueError("need one name per element")
        self._hash = hash(le)
        self._auts = None

    def leq(self, i, j):
        return self.le[i][j]

    def check_label(self, v):
        """Raise unless ``v`` is an element."""
        if type(v) is not int:  # bool is an int subclass, not a label
            raise ValueError(f"label {v!r} is not an integer")
        if not 0 <= v < self.size:
            raise ValueError(f"label {v} outside the quasiorder")

    def automorphisms(self):
        """All permutations g with le[i][j] <=> le[g(i)][g(j)]."""
        if self._auts is None:
            k, le = self.size, self.le
            auts = []
            for g in itertools.permutations(range(k)):
                if all(le[i][j] == le[g[i]][g[j]]
                       for i in range(k) for j in range(k)):
                    auts.append(g)
            self._auts = tuple(auts)
        return self._auts

    def __eq__(self, other):
        return isinstance(other, Quasiorder) and self.le == other.le

    def __hash__(self):
        return self._hash

    def __repr__(self):
        pairs = [(i, j) for i in range(self.size)
                 for j in range(self.size) if i != j and self.le[i][j]]
        return f"Quasiorder(size={self.size}, le={pairs})"

    @classmethod
    def from_pairs(cls, size, pairs, names=None):
        """Build from generating pairs; the reflexive-transitive closure is
        applied before the invariants are re-checked."""
        return cls(preorder_closure(size, pairs), names)

    @classmethod
    def from_json(cls, doc):
        doc = json_object(doc, "a quasiorder", "size")
        size = doc["size"]
        if type(size) is not int or size < 0:
            raise ValueError(f"quasiorder size {size!r} is not a natural number")
        names = None
        if "names" in doc:
            names = json_object(doc["names"], "quasiorder names")
            keys = [str(i) for i in range(size)]
            for key, name in names.items():
                if key not in keys or type(name) is not str:
                    raise ValueError(f"quasiorder names must map 0..{size-1}"
                                     f" to strings, got {key!r}: {name!r}")
            names = [names.get(key, key) for key in keys]
        return cls.from_pairs(
            size, json_pairs(doc.get("le", []), "quasiorder pairs"), names)

    def to_json(self):
        pairs = [[i, j] for i in range(self.size)
                 for j in range(self.size) if i != j and self.le[i][j]]
        doc = {"size": self.size, "le": pairs}
        if self.names != tuple(str(i) for i in range(self.size)):
            doc["names"] = {str(i): n for i, n in enumerate(self.names)}
        return doc


def antichain(k):
    """The discrete quasiorder on k elements."""
    return Quasiorder([[i == j for j in range(k)] for i in range(k)])


def chain(k):
    """The linear order 0 <= 1 <= ... <= k-1."""
    return Quasiorder([[i <= j for j in range(k)] for i in range(k)])
