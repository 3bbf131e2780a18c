"""Cantor normal form ordinal arithmetic below epsilon_0.

An ordinal is a finite formal sum ``w^e0*c0 + ... + w^ek*ck`` with strictly
decreasing exponents (ordinals of the same kind) and positive integer
coefficients; the empty sum is 0.  Values are immutable and interned, so
structural equality coincides with object identity and hashing is O(1).

The module also houses the level-translation map into base-omega_1
expressions: it sends 0 to 0 and ``w^a1*k1 + w^a2*k2 + ...`` to
``w1^(f(a1))*k1 + w1^(f(a2))*k2 + ...`` recursively.  Image values are
compared structurally, by the same rule as plain CNF values.

Literal grammar (both for input and normalized output)::

    ord  := prod ("+" prod)*
    prod := "w" ("^" atom)? ("*" nat)? | nat
    atom := nat | "(" ord ")" | "w" ("^" atom)?

Examples: ``0``, ``w``, ``w^2*3+w+1``, ``w^(w)``, ``w^w^2``.
"""

from __future__ import annotations

import re

__all__ = [
    "Ordinal", "WadgeOrdinal", "OrdinalParseError", "ZeroOrdinalError",
    "ZERO", "ONE", "OMEGA",
    "ord_cmp", "ord_add", "ord_star", "omega_power", "from_int",
    "left_subtract", "parse_ordinal", "ord_to_str",
    "f_map", "wadge_cmp", "wadge_from_int", "wadge_to_str",
]


class OrdinalParseError(ValueError):
    pass


class ZeroOrdinalError(ValueError):
    """Raised where a positive ordinal is required."""


def _cnf_cmp(a, b):
    # Lexicographic comparison of CNF term lists: at the first differing
    # position the larger (exponent, coefficient) wins, because the tail of
    # a CNF sum is strictly below one extra unit of the current term.
    if a is b:
        return 0
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = _cnf_cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


class _CNF:
    """Shared behaviour of interned CNF-style values.  Each subclass has its
    own intern table ``_interned`` and print ``_symbol``; exponents must be
    of the subclass itself."""

    __slots__ = ("terms",)

    def __new__(cls, terms=()):
        terms = tuple(terms)
        hit = cls._interned.get(terms)
        if hit is not None:
            return hit
        for exp, coeff in terms:
            if not isinstance(exp, cls):
                raise TypeError(f"exponents must be {cls.__name__} values")
            if not isinstance(coeff, int) or coeff < 1:
                raise ValueError("coefficients must be positive integers")
        for (e1, _), (e2, _) in zip(terms, terms[1:]):
            if _cnf_cmp(e1, e2) <= 0:
                raise ValueError("exponents must be strictly decreasing")
        self = object.__new__(cls)
        self.terms = terms
        cls._interned[terms] = self
        return self

    def __str__(self):
        return _to_str(self, self._symbol)

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"

    def __lt__(self, other):
        return _cnf_cmp(self, other) < 0

    def __le__(self, other):
        return _cnf_cmp(self, other) <= 0

    def __gt__(self, other):
        return _cnf_cmp(self, other) > 0

    def __ge__(self, other):
        return _cnf_cmp(self, other) >= 0

    @property
    def is_zero(self):
        return not self.terms

    def is_natural(self):
        t = self.terms
        return not t or (len(t) == 1 and t[0][0].is_zero)

    def as_natural(self):
        if not self.terms:
            return 0
        if not self.is_natural():
            raise ValueError(f"{self} is not a natural number")
        return self.terms[0][1]


class Ordinal(_CNF):
    __slots__ = ()
    _interned = {}
    _symbol = "w"


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def ord_cmp(a, b):
    """Three-way comparison of ordinals: -1, 0 or 1."""
    return _cnf_cmp(a, b)


def from_int(n):
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return ZERO if n == 0 else Ordinal(((ZERO, n),))


def omega_power(exp, coeff=1):
    """The ordinal w^exp * coeff."""
    return Ordinal(((exp, coeff),))


def ord_add(a, b):
    """Ordinal addition: terms of ``a`` below the leading exponent of ``b``
    are absorbed."""
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    eb = b.terms[0][0]
    i = 0
    while i < len(a.terms) and _cnf_cmp(a.terms[i][0], eb) > 0:
        i += 1
    head = a.terms[:i]
    if i < len(a.terms) and a.terms[i][0] is eb:
        merged = ((eb, a.terms[i][1] + b.terms[0][1]),) + b.terms[1:]
        return Ordinal(head + merged)
    return Ordinal(head + b.terms)


def ord_star(a):
    """The leading term w^e0 of a positive ordinal."""
    if a.is_zero:
        raise ZeroOrdinalError("the leading term of 0 is undefined")
    return omega_power(a.terms[0][0])


def left_subtract(beta, alpha):
    """The unique delta with beta + delta == alpha (requires beta <= alpha)."""
    i = 0
    while i < len(beta.terms):
        if i >= len(alpha.terms):
            raise ValueError("left_subtract requires beta <= alpha")
        bt, at = beta.terms[i], alpha.terms[i]
        if bt == at:
            i += 1
            continue
        (be, bc), (ae, ac) = bt, at
        c = _cnf_cmp(be, ae)
        if c == 0 and bc < ac:
            return Ordinal(((ae, ac - bc),) + alpha.terms[i + 1:])
        if c < 0:
            return Ordinal(alpha.terms[i:])
        raise ValueError("left_subtract requires beta <= alpha")
    return Ordinal(alpha.terms[i:])


# --- literal parsing and printing -------------------------------------------


class OrdinalParser:
    """Tokenizer, token cursor and the grammar rules of ordinal literals.
    The term parser extends it with its own token regex ``TOKEN`` (one
    group per token), error class ``Error`` and rules, and reads ordinal
    subscripts with the rule `sum`.  Rules recurse through `nested`, so
    that a deep literal raises ``Error`` instead of overflowing the
    stack."""

    TOKEN = re.compile(r"\s*(\d+|[w^*+()])")
    Error = OrdinalParseError
    MAX_DEPTH = 100

    def __init__(self, text):
        if not isinstance(text, str):
            raise self.Error(f"a literal must be a string, got {text!r}")
        self.toks, self.i, self.depth, pos = [], 0, 0, 0
        while pos < len(text):
            m = self.TOKEN.match(text, pos)
            if not m:
                raise self.Error(f"bad character at {text[pos:]!r}")
            self.toks.append(m.group(1))
            pos = m.end()

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, tok=None):
        t = self.peek()
        if t is None or (tok is not None and t != tok):
            raise self.Error(f"expected {tok or 'token'}, got {t!r}")
        self.i += 1
        return t

    def nested(self, rule):
        """Run a grammar rule one nesting level deeper."""
        if self.depth >= self.MAX_DEPTH:
            raise self.Error(f"literal nests over {self.MAX_DEPTH} levels")
        self.depth += 1
        v = rule()
        self.depth -= 1
        return v

    def parse(self, rule):
        """Run one grammar rule over the whole input."""
        v = rule()
        if self.peek() is not None:
            raise self.Error(f"trailing input at {self.peek()!r}")
        return v

    def nat(self):
        t = self.take()
        if not t.isdigit():
            raise self.Error(f"expected a natural number, got {t!r}")
        return int(t)

    def sum(self):
        v = self.prod()
        while self.peek() == "+":
            self.take("+")
            v = ord_add(v, self.prod())
        return v

    def prod(self):
        t = self.peek()
        if t == "w":
            self.take("w")
            exp = ONE
            if self.peek() == "^":
                self.take("^")
                exp = self.nested(self.atom)
            coeff = 1
            if self.peek() == "*":
                self.take("*")
                coeff = self.nat()
                if coeff < 1:
                    raise self.Error("coefficients must be positive")
            return omega_power(exp, coeff)
        return from_int(self.nat())

    def atom(self):
        t = self.peek()
        if t == "(":
            self.take("(")
            v = self.sum()
            self.take(")")
            return v
        if t == "w":
            self.take("w")
            if self.peek() == "^":
                self.take("^")
                return omega_power(self.nested(self.atom))
            return OMEGA
        return from_int(self.nat())


def parse_ordinal(text):
    p = OrdinalParser(text)
    return p.parse(p.sum)


def _to_str(a, symbol):
    if not a.terms:
        return "0"
    parts = []
    for e, c in a.terms:
        if e.is_zero:
            parts.append(str(c))
            continue
        if e.is_natural() and e.as_natural() == 1:
            s = symbol
        else:
            s = symbol + "^" + _atom_str(e, symbol)
        if c > 1:
            s += f"*{c}"
        parts.append(s)
    return "+".join(parts)


def _atom_str(e, symbol):
    # An exponent prints bare when the grammar's atom rule covers it:
    # a natural, the symbol itself, or a right-nested power chain.
    if e.is_natural():
        return str(e.as_natural())
    if len(e.terms) == 1 and e.terms[0][1] == 1:
        inner = e.terms[0][0]
        if inner.is_natural() and inner.as_natural() == 1:
            return symbol
        return symbol + "^" + _atom_str(inner, symbol)
    return "(" + _to_str(e, symbol) + ")"


def ord_to_str(a):
    return _to_str(a, "w")


# --- base-omega_1 expressions and the level-translation map -----------------


class WadgeOrdinal(_CNF):
    """Formal base-omega_1 sum with the same shape constraints as CNF."""

    __slots__ = ()
    _interned = {}
    _symbol = "w1"


WADGE_ZERO = WadgeOrdinal()


def wadge_from_int(n):
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return WADGE_ZERO if n == 0 else WadgeOrdinal(((WADGE_ZERO, n),))


def wadge_cmp(a, b):
    return _cnf_cmp(a, b)


def wadge_to_str(a):
    return _to_str(a, "w1")


def f_map(a):
    """Translate a CNF ordinal into its base-omega_1 image, exponent-wise."""
    return WadgeOrdinal(tuple((f_map(e), c) for e, c in a.terms))
