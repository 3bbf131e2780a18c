"""Exhaustive property suites over desk-scale instances.

Each suite enumerates every instance inside its configured bounds, with no
sampling, evaluates one theorem-shaped invariant, and reports counts plus
any counterexample verbatim.  Reports are byte-identical across runs with
equal configuration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cmp_to_key, reduce

from . import hierarchy
from .hierarchy import (borel, level_mask, level_masks, family_eval,
                        family_reduct, enumerate_families, NotDetermined)
from .labeled_trees import hom_rows
from .ordinals import (Ordinal, ZERO, from_int, omega_power, ord_cmp,
                       ord_to_str, f_map, wadge_cmp, wadge_from_int,
                       wadge_to_str, OMEGA)
from .quasiorder import antichain
from .spaces import (FinSpace, enum_cos, enumerate_posets, discrete,
                     sierpinski, product, is_meager, is_meager_bruteforce,
                     mask_points, monotone_selfmaps)
from .terms import (Shift, TermOrder, enumerate_terms, term_tree,
                    term_to_str, parse_term)

__all__ = ["SuiteConfig", "SuiteReport", "UnknownSuiteError", "run_suite",
           "SUITE_NAMES"]


class UnknownSuiteError(ValueError):
    pass


# the least value of each bounded field (max_children None is unbounded)
_LEAST = {"max_nodes": 1, "max_subscript": 0, "max_points": 1, "max_q": 1,
          "max_children": 0}
# the suites that sweep the label counts 2 .. max_q, so check nothing below 2
_LABEL_SWEEPS = frozenset({"inclusion", "wadge-closure", "preservation", "hk"})


@dataclass
class SuiteConfig:
    suite: str
    max_nodes: int = 4
    max_subscript: int = 1
    max_points: int = 3
    max_q: int = 3
    max_children: int | None = None

    def __post_init__(self):
        for name, least in _LEAST.items():
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be at least {least}")
        if self.suite in _LABEL_SWEEPS and self.max_q < 2:
            raise ValueError(f"max_q must be at least 2 for {self.suite}")


@dataclass
class SuiteReport:
    suite: str
    params: dict
    checked: int = 0
    violations: int = 0
    counterexamples: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.violations == 0

    def fail(self, message):
        self.violations += 1
        self.counterexamples.append(message)

    def text(self):
        lines = [f"suite: {self.suite}"]
        lines.append("params: " + " ".join(f"{k}={v}"
                                           for k, v in sorted(self.params.items())))
        lines.append(f"checked: {self.checked}")
        lines.append(f"violations: {self.violations}")
        for c in self.counterexamples:
            lines.append(f"counterexample: {c}")
        for n in self.notes:
            lines.append(f"note: {n}")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"

    def to_json(self):
        return {"suite": self.suite, "params": self.params,
                "checked": self.checked, "violations": self.violations,
                "counterexamples": list(self.counterexamples),
                "notes": list(self.notes),
                "result": "PASS" if self.passed else "FAIL"}


def _subscripts(cfg):
    return tuple(from_int(i) for i in range(cfg.max_subscript + 1))


def _terms(cfg, k):
    """The configured term pool over k labels."""
    return enumerate_terms(k, cfg.max_nodes, _subscripts(cfg),
                           cfg.max_children)


def _label_pools(cfg):
    """(k, the k-antichain, the term pool) for k = 2 .. max_q."""
    for k in range(2, cfg.max_q + 1):
        yield k, antichain(k), _terms(cfg, k)


def _spaces(cfg, max_points=None):
    n = max_points if max_points is not None else cfg.max_points
    out = []
    for k in range(1, n + 1):
        out.extend(enumerate_posets(k))
    return tuple(out)


def _space_tag(space):
    rel = ",".join(f"{space.names[i]}<{space.names[j]}"
                   for i in range(space.n) for j in range(space.n)
                   if i != j and space.le[i][j])
    return f"[{' '.join(space.names)};{rel}]"


def _partitions(space, qo):
    return tuple(itertools.product(range(qo.size), repeat=space.n))


def _in_pool(order, terms, mask):
    """The terms of the pool ``terms`` whose bits in ``order`` are set in
    ``mask``, in pool order."""
    return [t for t in terms if mask >> order.index[t] & 1] if mask else []


def _part_tag(space, values):
    return "{" + ",".join(f"{space.names[p]}:{v}"
                          for p, v in enumerate(values)) + "}"


# --- individual suites ---------------------------------------------------------


def _suite_qo_axioms(cfg, rep):
    qo = antichain(cfg.max_q)
    terms = _terms(cfg, cfg.max_q)
    order = TermOrder(qo, terms)
    pool = sum(1 << order.index[u] for u in terms)
    rows = [row & pool for row in order.rows]
    pairs = 0
    for u in terms:
        i = order.index[u]
        rep.checked += 1
        if not rows[i] >> i & 1:
            rep.fail(f"not reflexive at {term_to_str(u)}")
        # u <= v <= w gives u <= w for every w of the pool exactly when
        # v's row lies inside u's; the w outside it break transitivity
        pairs += rows[i].bit_count()
        outside = ~rows[i]
        broken = {j: ws for j in mask_points(rows[i])
                  if (ws := rows[j] & outside)}
        for v in _in_pool(order, terms, sum(1 << j for j in broken)):
            for w in _in_pool(order, terms, broken[order.index[v]]):
                rep.fail(f"not transitive at {term_to_str(u)} / "
                         f"{term_to_str(v)} / {term_to_str(w)}")
    rep.checked += pairs * len(terms)
    rep.notes.append(f"terms={len(terms)} comparable_pairs={pairs}")


def _suite_hom_oracle(cfg, rep):
    qo = antichain(cfg.max_q)
    terms = _terms(cfg, cfg.max_q)
    order = TermOrder(qo, terms)
    # the matcher's rows over the trees of the order's closure, with the
    # order's rows as label order, so both tables share their bit positions
    tree_rows = hom_rows([term_tree(t) for t in order.index], order)
    pool = sum(1 << order.index[u] for u in terms)
    rep.checked += len(terms) ** 2
    for u in terms:
        i = order.index[u]
        for v in _in_pool(order, terms, (order.rows[i] ^ tree_rows[i]) & pool):
            a = bool(order.rows[i] >> order.index[v] & 1)
            rep.fail(f"structural={a} tree-map={not a} at "
                     f"{term_to_str(u)} vs {term_to_str(v)}")
    rep.notes.append(f"terms={len(terms)}")


def _suite_inclusion(cfg, rep):
    spaces = _spaces(cfg)
    for k, qo, terms in _label_pools(cfg):
        order = TermOrder(qo, terms)
        pool = sum(1 << order.index[u] for u in terms)
        rep.checked += len(spaces) * sum(
            (order.rows[order.index[u]] & pool).bit_count() for u in terms)
        misses = [_misses(order, level_masks(space, qo, terms))
                  for space in spaces]
        failing = set().union(*misses)
        # counterexamples in the order of a pairwise scan: u in pool order,
        # then v, then space
        for u, v in itertools.product([u for u in terms if u in failing],
                                      terms):
            for m, space in zip(misses, spaces):
                if m.get(u, 0) >> order.index[v] & 1:
                    rep.fail(f"k={k} {_space_tag(space)} {term_to_str(u)} "
                             f"below {term_to_str(v)} but level sets are "
                             "not nested")
        rep.notes.append(f"k={k} terms={len(terms)} spaces={len(spaces)}")


def _misses(order, masks):
    """Per term u whose level is not nested in those above it, the bits of
    the terms v >= u whose level misses a labeling that u's level holds.
    ``masks`` maps each term of the pool to its level; the levels are
    compared as values, once per pair of distinct levels."""
    holders = {}  # level -> the bits of the terms that have it (disjoint)
    for u, m in masks.items():
        holders[m] = holders.get(m, 0) | 1 << order.index[u]
    missing = {a: sum(s for b, s in holders.items() if a & ~b)
               for a in holders}
    return {u: bad for u, m in masks.items()
            if (bad := order.rows[order.index[u]] & missing[m])}


def _suite_shift_law(cfg, rep):
    qo = antichain(2)
    terms = enumerate_terms(2, max(cfg.max_nodes - 1, 1), _subscripts(cfg),
                            cfg.max_children)
    for space in _spaces(cfg):
        base = borel(space)
        for alpha in _subscripts(cfg):
            shifted = base.shift(omega_power(alpha))
            for u in terms:
                rep.checked += 1
                if (level_mask(space, qo, Shift(alpha, u), base)
                        != level_mask(space, qo, u, shifted)):
                    rep.fail(f"{_space_tag(space)} alpha={ord_to_str(alpha)} "
                             f"{term_to_str(u)}: wrapped level set differs "
                             "from the shifted-base level set")


def _suite_wadge_closure(cfg, rep):
    spaces = _spaces(cfg)
    for k, qo, terms in _label_pools(cfg):
        for space in spaces:
            parts = _partitions(space, qo)
            below = _wadge_rows(space, qo)
            masks = level_masks(space, qo, terms)
            # per distinct level, its first labeling i (ascending) with a
            # reduct outside the level, and the highest such reduct j
            escape = {ls: next(((i, bad.bit_length() - 1)
                                for i in mask_points(ls)
                                if (bad := below[i] & ~ls)), None)
                      for ls in set(masks.values())}
            rep.checked += len(terms)
            for u in terms:
                if e := escape[masks[u]]:
                    i, j = e
                    rep.fail(f"k={k} {_space_tag(space)} {term_to_str(u)}: "
                             f"{_part_tag(space, parts[j])} reduces to "
                             f"{_part_tag(space, parts[i])} but is outside")


def _wadge_rows(space, qo):
    """Per labeling B (`_partitions` order), the mask of the labelings A
    with A(x) <= B(g(x)) at every point x for some monotone self-map g: an
    OR over g of ANDs over x of the labelings whose label at x is below."""
    parts = _partitions(space, qo)
    down = [[sum(1 << i for i, a in enumerate(parts) if qo.leq(a[x], q))
             for q in range(qo.size)] for x in range(space.n)]
    return [reduce(int.__or__,
                   (reduce(int.__and__, (d[b[y]] for d, y in zip(down, g)))
                    for g in monotone_selfmaps(space)))
            for b in parts]


def _unpreserved(f, qo, xmasks, ymasks, terms):
    """The pairs (term u, labeling A of the target of ``f``) where A's bit
    in u's level on the target differs from the bit of A o f in u's level
    on the source, in term and then labeling order; ``xmasks`` and
    ``ymasks`` map each term to its level on the source and on the target.
    Each distinct source level is pulled back along ``f`` once, each
    distinct pair of levels is compared once, and the terms are scanned
    only when some pair differs."""
    parts = _partitions(f.dst, qo)
    pulled = [hierarchy._index([vals[y] for y in f.values], qo.size)
              for vals in parts]
    back = {m: sum(1 << i for i, p in enumerate(pulled) if m >> p & 1)
            for m in set(xmasks.values())}
    diff = {pair: pair[1] ^ back[pair[0]]
            for pair in {(xmasks[u], ymasks[u]) for u in terms}}
    if not any(diff.values()):
        return []
    return [(u, parts[i]) for u in terms
            for i in mask_points(diff[xmasks[u], ymasks[u]])]


def _suite_preservation(cfg, rep):
    ys = _spaces(cfg, max_points=min(2, cfg.max_points))
    # every continuous open surjection onto a space of at most 2 points,
    # then the 4-point product projecting onto its first factor
    maps = [(repr(f), f) for X in _spaces(cfg) for Y in ys
            for f in enum_cos(X, Y)]
    maps.append(("product projection",
                 product(sierpinski(), discrete(2, names=("0", "1")))[1]))
    for k, qo, terms in _label_pools(cfg):
        masks = {}  # space -> its levels, computed on first use
        for name, f in maps:
            for space in (f.src, f.dst):
                if space not in masks:
                    masks[space] = level_masks(space, qo, terms)
            rep.checked += len(terms) * k ** f.dst.n
            for u, vals in _unpreserved(f, qo, masks[f.src], masks[f.dst],
                                        terms):
                rep.fail(f"k={k} {name} {term_to_str(u)} "
                         f"{_part_tag(f.dst, vals)}: membership is not "
                         "preserved")
        rep.notes.append(f"k={k} terms={len(terms)}")


def _suite_reduct(cfg, rep):
    qo = antichain(3)
    spaces = (discrete(2), sierpinski(), discrete(3),
              FinSpace.from_pairs("abc", [("a", "b"), ("b", "c")]))
    pool = ["Fq[0](1)", "Fq[0](1,0)", "Fq[0](Fq[1](0))", "Fq[1](0,2)",
            "Fo[1](0,1)", "s[1](Fq[0](1,0))", "Fq[0](s[0](Fq[1](0)),2)",
            "Fq[0](1,2)", "Fq[2](0,1)", "Fq[1](0,0)", "Fo[0](1,0)",
            "Fq[0](Fq[1](0),2)", "Fq[2](Fq[0](1),0)", "Fo[1](0,1,2)",
            "Fq[0](1,0,2)", "s[0](Fq[1](2,0))"]
    for space in spaces:
        base = borel(space)
        for text in pool:
            u = parse_term(text)
            for F in enumerate_families(u, base):
                res = family_eval(F, u, base, qo)
                if isinstance(res, NotDetermined):
                    continue
                rep.checked += 1
                G = family_reduct(F, u, base)
                res2 = family_eval(G, u, base, qo)
                if isinstance(res2, NotDetermined):
                    rep.fail(f"{_space_tag(space)} {text}: reduct of a "
                             "determining family is undetermined")
                elif res2.values != res.values:
                    rep.fail(f"{_space_tag(space)} {text}: reduct determines "
                             f"{_part_tag(space, res2.values)} instead of "
                             f"{_part_tag(space, res.values)}")
    rep.notes.append(f"determining_families={rep.checked}")


def _suite_hk(cfg, rep):
    spaces = _spaces(cfg)
    for k in range(2, cfg.max_q + 1):
        qo = antichain(k)
        terms = enumerate_terms(k, cfg.max_nodes, ())
        for space in spaces:
            base = borel(space)
            parts = _partitions(space, qo)
            remaining = (1 << len(parts)) - 1  # labelings without a witness
            witnesses = {}
            for u in terms:
                if not remaining:
                    break
                found = level_mask(space, qo, u, base) & remaining
                for i in mask_points(found):
                    witnesses[i] = u
                remaining &= ~found
            rep.checked += len(parts)
            for i in mask_points(remaining):
                rep.fail(f"k={k} {_space_tag(space)} "
                         f"{_part_tag(space, parts[i])}: "
                         f"no witness term within {cfg.max_nodes} nodes")
            for i, u in sorted(witnesses.items()):
                rep.notes.append(f"k={k} {_space_tag(space)} "
                                 f"{_part_tag(space, parts[i])} <- "
                                 f"{term_to_str(u)}")


def _suite_meager_oracle(cfg, rep):
    for space in _spaces(cfg):
        for mask in range(space.full + 1):
            rep.checked += 1
            a = is_meager(space, mask)
            b = is_meager_bruteforce(space, mask)
            if a != b:
                rep.fail(f"{_space_tag(space)} set="
                         f"{space.set_of_names(mask)}: singleton criterion "
                         f"{a} vs decomposition search {b}")


def _cnf_pool(exponents, coeffs, max_terms):
    desc = sorted(exponents, key=cmp_to_key(ord_cmp), reverse=True)
    pool = [ZERO]
    for k in range(1, max_terms + 1):
        for exps in itertools.combinations(desc, k):
            for cs in itertools.product(coeffs, repeat=k):
                pool.append(Ordinal(tuple(zip(exps, cs))))
    return pool


def _suite_fmap(cfg, rep):
    rep.checked += 1
    if not f_map(ZERO).is_zero:
        rep.fail("image of 0 is not 0")
    for n in range(50):
        rep.checked += 1
        img = f_map(from_int(n))
        if img != wadge_from_int(n):
            rep.fail(f"image of {n} is {wadge_to_str(img)}")
    rep.checked += 2
    w1 = wadge_from_int(1)
    if f_map(OMEGA).terms != ((w1, 1),):
        rep.fail("image of w is not the first-power base term")
    expected = ((f_map(OMEGA), 1),)
    if f_map(omega_power(OMEGA)).terms != expected:
        rep.fail("image of w^w is not the iterated power")
    two = from_int(2)
    pool = _cnf_pool([ZERO, from_int(1), two, OMEGA,
                      Ordinal(((from_int(1), 1), (ZERO, 1))),  # w+1
                      omega_power(from_int(1), 2),             # w*2
                      omega_power(two)],                       # w^2
                     (1, 2), 3)
    images = [f_map(a) for a in pool]
    rep.checked += len(pool) ** 2
    for a, fa in zip(pool, images):
        for b, fb in zip(pool, images):
            if ord_cmp(a, b) < 0 and wadge_cmp(fa, fb) >= 0:
                rep.fail(f"not strictly increasing at {ord_to_str(a)} vs "
                         f"{ord_to_str(b)}")
    rep.notes.append(f"ordinal_pool={len(pool)}")


_SUITES = {
    "qo-axioms": _suite_qo_axioms,
    "hom-oracle": _suite_hom_oracle,
    "inclusion": _suite_inclusion,
    "shift-law": _suite_shift_law,
    "wadge-closure": _suite_wadge_closure,
    "preservation": _suite_preservation,
    "reduct": _suite_reduct,
    "hk": _suite_hk,
    "meager-oracle": _suite_meager_oracle,
    "fmap": _suite_fmap,
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(cfg):
    """Run one suite; deterministic given the configuration."""
    fn = _SUITES.get(cfg.suite)
    if fn is None:
        raise UnknownSuiteError(f"unknown suite {cfg.suite!r}; "
                                f"choose from {', '.join(SUITE_NAMES)}")
    hierarchy.clear_caches()
    params = {k: v for k, v in vars(cfg).items()
              if k != "suite" and v is not None}
    rep = SuiteReport(cfg.suite, params)
    fn(cfg, rep)
    return rep
