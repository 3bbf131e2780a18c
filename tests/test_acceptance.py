"""Acceptance gate: one test per exhaustive desk-scale criterion.

Every criterion is exact (zero violations at the stated bounds); each test
prints a single pass/fail line (run pytest with -s to see them live).
"""

import itertools
import time

from finehier.hierarchy import (borel, member, level_set, level_set_enum,
                                clear_caches)
from finehier.ordinals import ZERO, from_int
from finehier.quasiorder import antichain
from finehier.spaces import (QPartition, discrete, sierpinski, product,
                             enum_cos, enumerate_posets, cat_quantifier,
                             is_meager, mask_points)
from finehier.suites import SuiteConfig, run_suite
from finehier.terms import parse_term, enumerate_terms

SUBS = (ZERO, from_int(1))


def _verdict(num, ok, desc, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}{detail}")
    assert ok, f"criterion {num}: {desc}{detail}"


def _run(num, desc, **cfg):
    t0 = time.time()
    rep = run_suite(SuiteConfig(**cfg))
    detail = f" (checked={rep.checked}, {time.time() - t0:.1f}s)"
    if rep.counterexamples:
        detail += " first: " + rep.counterexamples[0]
    _verdict(num, rep.passed, desc, detail)
    return rep


def test_c01_oracle_equivalence():
    # structural comparison == tree-morphism search, all pairs of the 2,325
    # terms with <= 4 nodes over a three-element antichain, of the 7,990
    # terms with <= 5 nodes over a two-element one, and of the 28,293 terms
    # with <= 5 nodes over the three-element one; subscripts in {0,1}
    rep = _run(1, "structural comparison matches the tree-morphism oracle",
               suite="hom-oracle", max_q=3, max_nodes=4, max_subscript=1)
    assert rep.checked == 5_405_625
    rep = _run(1, "structural comparison matches the tree-morphism oracle",
               suite="hom-oracle", max_q=2, max_nodes=5, max_subscript=1)
    assert rep.checked == 63_840_100
    rep = _run(1, "structural comparison matches the tree-morphism oracle",
               suite="hom-oracle", max_q=3, max_nodes=5, max_subscript=1)
    assert rep.checked == 800_493_849


def test_c02_quasiorder_axioms():
    # reflexivity on every enumerated term; transitivity on every triple
    rep = _run(2, "term comparison is reflexive and transitive",
               suite="qo-axioms", max_q=2, max_nodes=4, max_subscript=1,
               max_children=2)
    assert rep.checked == 277_706_946


def test_c03_inclusion_theorem():
    # comparable terms have nested level sets: all posets <= 5 points,
    # antichains of 2 and 3, terms <= 4 nodes
    rep = _run(3, "comparable terms give nested level sets",
               suite="inclusion", max_q=3, max_nodes=4, max_subscript=1,
               max_points=5)
    assert rep.checked == 154_375_671


def test_c04_preservation():
    # membership transfers both ways along every continuous open surjection
    # within bounds, plus the 4-point product projection
    rep = _run(4, "continuous open surjections preserve level membership",
               suite="preservation", max_q=3, max_nodes=4, max_subscript=1,
               max_points=4)
    assert rep.checked == 2_423_423


def test_c05_hk_exhaustion():
    # every 2- and 3-partition of every poset <= 5 points has a witness term
    # over constants and constant-branches with <= 6 nodes
    rep = _run(5, "every small partition receives a branch-term witness",
               suite="hk", max_q=3, max_nodes=6, max_points=5)
    assert rep.checked == 19_083
    assert all("<-" in n for n in rep.notes)  # witnesses reported


def test_c06_member_cross_oracle():
    # decision procedure == family enumeration on every instance of the
    # inclusion/preservation/witness criteria that fits the enumeration
    # budget: full term pool <= 3 nodes on all posets <= 4 points, branch
    # terms <= 4 nodes on posets <= 2 points, and <= 2-node terms on the
    # 4-point product space
    t0 = time.time()
    clear_caches()
    budget = 200_000
    checked = mismatches = 0
    spaces4 = [s for n in (1, 2, 3, 4) for s in enumerate_posets(n)]
    spaces2 = [s for n in (1, 2) for s in enumerate_posets(n)]
    prod_space, _, _ = product(sierpinski(), discrete(2, names=("0", "1")))
    jobs = []
    for k in (2, 3):
        jobs += [(space, antichain(k), enumerate_terms(k, 3, SUBS))
                 for space in spaces4]
        jobs += [(space, antichain(k),
                  enumerate_terms(k, 4, ()))
                 for space in spaces2]
        jobs.append((prod_space, antichain(k), enumerate_terms(k, 2, SUBS)))
    for space, qo, terms in jobs:
        for u in terms:
            fast = {A.values for A in level_set(space, qo, u)}
            slow = level_set_enum(space, qo, u, max_families=budget)
            checked += qo.size ** space.n
            if fast != slow:
                mismatches += 1
    _verdict(6, mismatches == 0,
             "membership decision matches family enumeration",
             f" (checked={checked}, {time.time() - t0:.1f}s)")
    assert checked == 357_923


def test_c07_reduct_correctness():
    rep = _run(7, "reducts of determining families determine the same partition",
               suite="reduct")
    assert rep.checked == 1_087


def test_c08_category_quantifier_laws():
    t0 = time.time()
    bad = []
    checked = 0
    xs = [s for n in (1, 2, 3) for s in enumerate_posets(n)]
    ys = [s for n in (1, 2) for s in enumerate_posets(n)]
    prod_space, proj, _ = product(sierpinski(), discrete(2, names=("0", "1")))
    maps = [proj]
    for X in xs:
        for Y in ys:
            maps.extend(enum_cos(X, Y))
    for f in maps:
        X, Y = f.src, f.dst
        if cat_quantifier(f, 0) != 0:
            bad.append(f"{f!r}: image of the empty set")
        if cat_quantifier(f, X.full) != Y.full:
            bad.append(f"{f!r}: image of the whole space")
        quant = {a: cat_quantifier(f, a) for a in range(X.full + 1)}
        for a in range(X.full + 1):
            checked += 1
            if quant[a] & ~f.image_mask(a):
                bad.append(f"{f!r}: quantifier escapes the plain image")
            for b in range(X.full + 1):
                if quant[a | b] != quant[a] | quant[b]:
                    bad.append(f"{f!r}: unions not preserved")
        for m in X.opens():
            if not Y.is_upset(quant[m]):
                bad.append(f"{f!r}: image of an open set is not open")
        for y in range(Y.n):
            fib = f.fiber_mask(y)
            if is_meager(X, fib, within=fib):
                bad.append(f"{f!r}: fiber over {Y.names[y]} is meager in itself")
    _verdict(8, not bad, "category-quantifier laws hold on all enumerated maps",
             f" (maps={len(maps)}, checked={checked}, "
             f"{time.time() - t0:.1f}s)" + (" first: " + bad[0] if bad else ""))
    assert len(maps) == 27 and checked == 198


def test_c09_level_translation():
    rep = _run(9, "level-translation spot values and strict monotonicity",
               suite="fmap")
    assert rep.checked == 143_694


def test_c10_non_collapse():
    S = sierpinski()
    q2 = antichain(2)
    lo = {A.values for A in level_set(S, q2, parse_term("Fq[0](1)"))}
    hi = {A.values for A in level_set(S, q2, parse_term("Fq[1](0)"))}
    ok = ((0, 1) in lo and (0, 1) not in hi
          and lo - hi == {(0, 1)} and hi - lo == {(1, 0)})
    _verdict(10, ok, "the dual bottom levels separate exactly one "
                     "partition each", f" (sizes {len(lo)}/{len(hi)})")


def test_c11_meager_oracle():
    rep = _run(11, "singleton criterion matches the decomposition search",
               suite="meager-oracle", max_points=4)
    assert rep.checked == 306


def test_c12_wadge_closure():
    # every labeling continuously reducible to a member of a level is a
    # member: all posets <= 4 points, antichains of 2 and 3, terms <= 4 nodes
    rep = _run(12, "levels are closed under continuous reducibility",
               suite="wadge-closure", max_q=3, max_nodes=4, max_subscript=1,
               max_points=4)
    assert rep.checked == 76_296


def test_c13_shift_law():
    # s[alpha](u) over the stock base has the level of u over the base
    # shifted by w^alpha: all posets <= 5 points, terms <= 3 nodes
    rep = _run(13, "a shift-wrapped term has the shifted base's level",
               suite="shift-law", max_points=5)
    assert rep.checked == 17_748
