"""The benchmark's workloads: their operations, inputs and checks.

An operation is one `run_suite` call on a sweep, or one question on
`queries`.  Operations run in a child forked from a process that has only
imported finehier, so each one starts from empty memos, as a fresh
`finehier` process would.  Each function here that answers an operation
makes the library calls the matching `finehier` subcommand makes, through
module attributes, so that a `Tracer` installed in the child sees them.
"""

from __future__ import annotations

import random

import finehier.hierarchy as hierarchy
import finehier.spaces as spaces
import finehier.suites as suites
import finehier.terms as terms
from finehier.ordinals import from_int
from finehier.quasiorder import Quasiorder, antichain

import oracle

# --- sweeps -----------------------------------------------------------------

# Bounds per sweep and size.  `levels-sweep` is membership decision through
# the suites' level masks; `order-sweep` is all-pairs term comparison, the
# tree-map matcher and the nesting loop over few, tiny spaces.
SWEEPS = {
    "levels-sweep": {
        "full": (
            dict(suite="preservation", max_points=3, max_q=2, max_nodes=4,
                 max_subscript=1),
            dict(suite="wadge-closure", max_points=3, max_q=3, max_nodes=3,
                 max_subscript=1),
        ),
        "smoke": (
            dict(suite="preservation", max_points=2, max_q=2, max_nodes=3,
                 max_subscript=1),
            dict(suite="wadge-closure", max_points=2, max_q=3, max_nodes=2,
                 max_subscript=1),
        ),
    },
    "order-sweep": {
        "full": (
            dict(suite="inclusion", max_points=2, max_q=2, max_nodes=4,
                 max_subscript=1, max_children=2),
            dict(suite="hom-oracle", max_q=2, max_nodes=4, max_subscript=1,
                 max_children=2),
        ),
        "smoke": (
            dict(suite="inclusion", max_points=1, max_q=2, max_nodes=3,
                 max_subscript=1, max_children=2),
            dict(suite="hom-oracle", max_q=2, max_nodes=3, max_subscript=1,
                 max_children=2),
        ),
    },
}

# per suite and label count, after the timed phase
LEVEL_SAMPLE = 20     # swept level sets re-derived by family enumeration
PAIR_SAMPLE = 1000    # term pairs re-decided by the tree-map matcher


def run_sweep(cfg, tracer=None):
    run = suites.run_suite
    if tracer is not None:
        run = tracer.wrap("suites." + cfg["suite"], run)
    rep = run(suites.SuiteConfig(**cfg))
    return {"checked": rep.checked, "violations": rep.violations,
            "counterexamples": rep.counterexamples[:3]}


def _subscripts(cfg):
    return tuple(from_int(i) for i in range(cfg.get("max_subscript", 1) + 1))


def _pool(cfg, k):
    return terms.enumerate_terms(k, cfg.get("max_nodes", 4), _subscripts(cfg),
                                 cfg.get("max_children"))


def expected_checked(cfg):
    """The report's `checked` count, derived from the bounds alone."""
    subs = cfg.get("max_subscript", 1) + 1
    counts = {k: oracle.term_count(k, cfg.get("max_nodes", 4), subs,
                                   cfg.get("max_children"))
              for k in range(2, cfg.get("max_q", 3) + 1)}
    npts = cfg.get("max_points", 3)
    xs = [le for n in range(1, npts + 1) for le in oracle.posets(n)]
    suite = cfg["suite"]
    if suite == "hom-oracle":
        return counts[cfg.get("max_q", 3)] ** 2
    if suite == "wadge-closure":
        return sum(counts.values()) * len(xs)
    if suite == "preservation":
        ys = [le for n in range(1, min(2, npts) + 1) for le in oracle.posets(n)]
        return sum(t * (sum(oracle.cos_count(X, Y) * k ** len(Y)
                            for X in xs for Y in ys) + k ** 2)
                   for k, t in counts.items())
    if suite == "inclusion":
        total = 0
        for k in counts:
            pool = _pool(cfg, k)
            order = oracle.TreeOrder(antichain(k))
            total += sum(order.leq(u, v) for u in pool for v in pool)
        return total * len(xs)
    raise ValueError(f"no derived count for suite {suite!r}")


def verify_sweep(cfgs, reports, seed):
    """Problems found in one round's reports; empty when all is well."""
    problems = []
    for cfg, rep in zip(cfgs, reports):
        if rep["violations"]:
            problems.append(f"{cfg['suite']}: {rep['violations']} violations, "
                            f"first {rep['counterexamples'][:1]}")
        want = expected_checked(cfg)
        if rep["checked"] != want:
            problems.append(f"{cfg['suite']}: checked {rep['checked']}, "
                            f"derived {want}")
    rng = random.Random(seed)
    for cfg in cfgs:
        # hom-oracle sweeps no spaces
        npts = cfg.get("max_points", 0)
        space_pool = [s for n in range(1, npts + 1)
                      for s in spaces.enumerate_posets(n)]
        for k in range(2, cfg.get("max_q", 3) + 1):
            qo, pool = antichain(k), _pool(cfg, k)
            for _ in range(LEVEL_SAMPLE if space_pool else 0):
                space, u = rng.choice(space_pool), rng.choice(pool)
                fast = {A.values for A in hierarchy.level_set(space, qo, u)}
                if fast != hierarchy.level_set_enum(space, qo, u):
                    problems.append(f"{cfg['suite']}: level set of "
                                    f"{terms.term_to_str(u)} on {space!r} "
                                    "differs from family enumeration")
            order, tree = terms.TermOrder(qo), oracle.TreeOrder(qo)
            for _ in range(PAIR_SAMPLE):
                u, v = rng.choice(pool), rng.choice(pool)
                if order.leq(u, v) != tree.leq(u, v):
                    problems.append(f"{cfg['suite']}: {terms.term_to_str(u)} "
                                    f"vs {terms.term_to_str(v)} differs from "
                                    "the tree-map matcher")
    return problems


# --- queries ----------------------------------------------------------------

# Questions per round and size.  The counts weight the mix by time so that
# no kind takes most of a round (see README.md for the measured shares).
QUERY_COUNTS = {
    "full": {"member": 72, "levelset": 18, "term-cmp": 150,
             "family-eval": 90, "family-push": 72},
    "smoke": {"member": 3, "levelset": 2, "term-cmp": 3,
              "family-eval": 3, "family-push": 2},
}
FAMILY_LIMIT = 20_000   # bound on the families the enumeration oracle tries
# (points, labels) of the spaces behind `member` and `levelset` questions,
# taken in turn: a round then holds the same number of partitions to decide
# whatever the seed.  A level over 5 points and 3 labels costs ten times the
# others, so `levelset` leaves it out.
LEVEL_CLASSES = {"member": ((4, 2), (5, 2), (4, 3), (5, 3)),
                 "levelset": ((4, 2), (5, 2), (4, 3))}
SUBSCRIPTS = (from_int(0), from_int(1))


def _random_term(rng, nodes, k):
    if nodes == 1:
        return terms.Const(rng.randrange(k))
    kind = rng.choice(("Shift", "Fq", "Fo"))
    if kind == "Shift":
        return terms.Shift(rng.choice(SUBSCRIPTS), _random_term(rng, nodes - 1, k))
    sizes, rest = [], nodes - 1
    while rest:
        sizes.append(rng.randint(1, rest))
        rest -= sizes[-1]
    kids = tuple(_random_term(rng, n, k) for n in sizes)
    if kind == "Fq":
        return terms.Fq(rng.randrange(k), kids)
    return terms.Fo(rng.choice(SUBSCRIPTS), kids)


def _random_space(rng, n):
    le = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            le[i][j] = rng.random() < 0.4
    for m in range(n):
        for i in range(n):
            for j in range(n):
                if le[i][m] and le[m][j]:
                    le[i][j] = True
    return spaces.FinSpace(le)


def _random_family(rng, u, base, reduced):
    """A random structurally valid family for ``u`` over ``base``; with
    ``reduced`` siblings are pairwise disjoint, so it determines a
    partition."""
    if terms.is_singleton(u):
        return hierarchy.WHOLE
    dec = terms.term_decompose(u)
    b2 = base.shift(dec.shift)
    tree = terms.term_tree(dec.core)
    sets = {(): base.carrier}
    for node in tree.nodes[1:]:
        used = 0
        if reduced:
            for j in range(node[-1]):
                used |= sets[node[:-1] + (j,)]
        parent = sets[node[:-1]]
        sets[node] = rng.choice([m for m in b2.level0
                                 if not m & ~parent and not m & used])
    comps = hierarchy.components(hierarchy.TFamily(tree.nodes, sets))
    children = {n: _random_family(rng, lab, b2.restrict(comps[n]), reduced)
                for n, lab in tree.labels.items() if not terms.is_singleton(lab)}
    return hierarchy.UFamily(base.carrier, sets, children)


def _family_bound(u, base):
    """An upper bound on the families `enumerate_families` yields."""
    if terms.is_singleton(u):
        return 1
    dec = terms.term_decompose(u)
    b2 = base.shift(dec.shift)
    tree = terms.term_tree(dec.core)
    memo = {}

    def ways(node, parent):
        key = (node, parent)
        if key not in memo:
            total = 0
            for m in b2.level0:
                if not m & ~parent:
                    prod = 1
                    for c in tree.children(node):
                        prod *= ways(c, m)
                    total += prod
            memo[key] = total
        return memo[key]

    bound = 1
    for c in tree.children(()):
        bound *= ways(c, base.carrier)
    for lab in tree.labels.values():
        if not terms.is_singleton(lab):
            bound *= _family_bound(lab, b2)
    return bound


def _level_instance(rng, n, k):
    """A space and a term whose level the enumeration oracle can afford."""
    while True:
        space = _random_space(rng, n)
        u = _random_term(rng, rng.choice((5, 6)), k)
        if _family_bound(u, hierarchy.borel(space)) <= FAMILY_LIMIT:
            return space, u


def _values_doc(space, values):
    return {"values": {space.names[p]: v for p, v in enumerate(values)}}


def _question(rng, kind, i):
    if kind in ("member", "levelset"):
        classes = LEVEL_CLASSES[kind]
        n, k = classes[i % len(classes)]
        space, u = _level_instance(rng, n, k)
        q = {"kind": kind, "space": space.to_json(), "q": antichain(k).to_json(),
             "term": terms.term_to_str(u)}
        if kind == "member":
            if rng.random() < 0.5:
                values = [rng.randrange(k) for _ in range(space.n)]
            else:
                # a partition the level holds: one some reduced family determines
                F = _random_family(rng, u, hierarchy.borel(space), True)
                doc = hierarchy.family_to_json(space, F, u)
                got = oracle.evaluate_family(space.names, doc, u)["values"]
                values = [got[x] for x in space.names]
            q["partition"] = _values_doc(space, values)
        return q
    if kind == "term-cmp":
        k = rng.choice((2, 3))
        return {"kind": kind, "q": antichain(k).to_json(),
                "left": terms.term_to_str(_random_term(rng, rng.choice((5, 6)), k)),
                "right": terms.term_to_str(_random_term(rng, rng.choice((5, 6)), k))}
    k = rng.choice((2, 3))
    u = _random_term(rng, rng.choice((5, 6)), k)
    while terms.is_singleton(u):
        u = _random_term(rng, rng.choice((5, 6)), k)
    if kind == "family-eval":
        space = _random_space(rng, rng.choice((4, 5)))
        F = _random_family(rng, u, hierarchy.borel(space), rng.random() < 0.5)
        return {"kind": kind, "space": space.to_json(), "q": antichain(k).to_json(),
                "family": hierarchy.family_to_json(space, F, u)}
    # family-push: a reduced family on the target, pulled back to the source,
    # so the pushed family has a partition to determine
    while True:
        X = _random_space(rng, rng.choice((4, 5)))
        Y = _random_space(rng, rng.choice((2, 3)))
        maps = spaces.enum_cos(X, Y)
        if maps:
            break
    f = rng.choice(maps)
    G = _random_family(rng, u, hierarchy.borel(Y), True)
    F = hierarchy.family_pullback(f, G, u, hierarchy.borel(Y))
    return {"kind": kind, "space": X.to_json(), "target": Y.to_json(),
            "map": f.to_json(), "q": antichain(k).to_json(),
            "family": hierarchy.family_to_json(X, F, u)}


def make_questions(seed, size):
    rng = random.Random(seed)
    out = [_question(rng, kind, i)
           for kind, n in QUERY_COUNTS[size].items() for i in range(n)]
    rng.shuffle(out)
    return out


def answer(q, tracer=None):
    """Answer one question as the matching subcommand would."""
    kind = q["kind"]
    if kind == "term-cmp":
        u, v = terms.parse_term(q["left"]), terms.parse_term(q["right"])
        return terms.term_leq(Quasiorder.from_json(q["q"]), u, v)
    space = spaces.FinSpace.from_json(q["space"])
    qo = Quasiorder.from_json(q["q"])
    base = hierarchy.borel(space)
    if kind == "member":
        u = terms.parse_term(q["term"])
        A = spaces.QPartition.from_json(space, qo, q["partition"])
        return hierarchy.member(A, u, base)
    if kind == "levelset":
        u = terms.parse_term(q["term"])
        out = hierarchy.level_set(space, qo, u, base)
        if tracer is not None:
            tracer.count("level_set.tried", qo.size ** space.n)
            tracer.count("level_set.hits", len(out))
        return [A.to_json()["values"] for A in out]
    doc = q["family"]
    u = terms.parse_term(doc["term"])
    F = hierarchy.family_from_json(space, doc)
    if kind == "family-eval":
        res = hierarchy.family_eval(F, u, base, qo)
        if isinstance(res, hierarchy.NotDetermined):
            return res.to_json(space)
        return res.to_json()
    target = spaces.FinSpace.from_json(q["target"])
    f = spaces.ContMap.from_json(space, target, q["map"])
    G = hierarchy.family_pushforward(f, F, u, base)
    return hierarchy.family_to_json(target, G, u)


def verify_answer(q, ans):
    """None when the answer agrees with the oracles, else a message."""
    kind = q["kind"]
    qo = Quasiorder.from_json(q["q"])
    if kind == "term-cmp":
        u, v = terms.parse_term(q["left"]), terms.parse_term(q["right"])
        want = oracle.TreeOrder(qo).leq(u, v)
        return None if ans == want else f"term cmp {q['left']} {q['right']}: {ans}"
    space = spaces.FinSpace.from_json(q["space"])
    if kind in ("member", "levelset"):
        u = terms.parse_term(q["term"])
        level = hierarchy.level_set_enum(space, qo, u,
                                         max_families=FAMILY_LIMIT)
        if kind == "member":
            vals = tuple(q["partition"]["values"][x] for x in space.names)
            want = vals in level
        else:
            want = sorted(level)
            ans = sorted(tuple(a[x] for x in space.names) for a in ans)
        return None if ans == want else f"{kind} {q['term']} on {q['space']}"
    doc = q["family"]
    u = terms.parse_term(doc["term"])
    if kind == "family-eval":
        want = oracle.evaluate_family(space.names, doc, u)
        return None if ans == want else f"family eval of {doc}: {ans}, want {want}"
    target = spaces.FinSpace.from_json(q["target"])
    before = oracle.evaluate_family(space.names, doc, u).get("values")
    after = oracle.evaluate_family(target.names, ans, u).get("values")
    if before is None or after is None or any(
            before[x] != after[y] for x, y in q["map"]["values"].items()):
        return f"pushforward of {doc} determines {after}, input {before}"
    return None
