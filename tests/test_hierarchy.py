import hashlib
import itertools

import pytest

from finehier.ordinals import (ZERO, ONE, OMEGA, from_int, parse_ordinal,
                               omega_power)
from finehier.quasiorder import antichain
from finehier.spaces import (FinSpace, ContMap, QPartition, sierpinski,
                             discrete, product, cat_quantifier, enum_cos,
                             enumerate_posets)
from finehier.terms import (Const, Shift, parse_term, enumerate_terms,
                            term_apply_aut, term_decompose, term_to_str)
from finehier.hierarchy import (Base, borel, TFamily, components,
                                reduce_tfamily, level_has_reduction,
                                UFamily, WHOLE, NotDetermined,
                                validate_family, family_eval,
                                family_restrict, family_reduct,
                                family_pullback, family_pushforward, member,
                                enumerate_families, level_set,
                                level_set_enum, family_from_json,
                                family_to_json, InvalidFamilyError,
                                NoReductError, clear_caches, level_mask)
from finehier import hierarchy, terms

S = sierpinski()
D2 = discrete(2, names=("x", "y"))
Q2 = antichain(2)
Q3 = antichain(3)
LAMBDA = FinSpace.from_pairs("abc", [("a", "b"), ("c", "b")])
CHAIN3 = FinSpace.from_pairs("abc", [("a", "b"), ("b", "c")])
CHAIN4 = FinSpace.from_pairs("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
SUBS = (ZERO, from_int(1))


def T(text):
    return parse_term(text)


# --- bases ---------------------------------------------------------------------


def test_borel_examples():
    L = borel(S)
    assert L.level0 == S.opens()
    assert len(L.level(ONE)) == 4
    assert borel(D2).level0 == borel(D2).level(ONE)  # discrete: opens are all
    pt = discrete(1)
    assert borel(pt).level0 == (0, 1)


def test_shift_examples():
    L = borel(S)
    assert len(L.shift(ONE).level0) == 4
    assert L.shift(ZERO) is L
    w = parse_ordinal("w")
    assert L.shift(ONE).shift(w) is L.shift(w)  # 1 + w == w
    assert L.shift(parse_ordinal("w^2")).level0 == L.level(ONE)


def test_restrict_examples():
    L = borel(S)
    b = S.mask_of_names(["b"])
    assert L.restrict(b).level0 == (0, b)
    empty = L.restrict(0)
    assert all(lvl == (0,) for _, lvl in empty.steps)
    assert L.restrict(S.full) is L


def test_base_validation():
    # each malformed base raises its own message; the levels that are not
    # the power set keep their checks
    D3 = discrete(3)
    power = tuple(range(8))
    cases = [
        (S, S.full, ((ONE, (0, S.full)),), "the first threshold must be 0"),
        (S, S.full, ((ZERO, (0, S.full)), (ONE, power[:4]), (ONE, power[:4])),
         "thresholds must strictly increase"),
        (S, S.full, ((ZERO, (0,)), (ONE, power[:4])),
         "levels contain the empty set and the carrier"),
        (S, 1, ((ZERO, (0, 1, 2, 3)),),
         "level sets must lie inside the carrier"),
        # {a} | {b} is missing, so the first level is not a lattice
        (D3, D3.full, ((ZERO, (0, 1, 2, D3.full)), (ONE, power)),
         "levels are lattices of sets"),
        # {a} is missing from the next level, a lattice but no power set
        (D3, D3.full, ((ZERO, (0, 1, D3.full)), (ONE, (0, 2, D3.full)),
                       (from_int(2), power)),
         "each level and its complements sit in every later level"),
        (S, S.full, ((ZERO, (0, 2, S.full)),),
         "the final level must be the full power set"),
    ]
    for space, carrier, steps, message in cases:
        with pytest.raises(ValueError, match=message):
            Base(space, carrier, steps)


def test_base_json_round_trip():
    L = borel(S)
    again = Base.from_json(S, L.to_json())
    assert again is L


def test_level_reduction_examples():
    assert level_has_reduction(borel(S).level0)
    assert not level_has_reduction(borel(LAMBDA).level0)
    assert level_has_reduction(borel(LAMBDA).level(ONE))


# --- tree families ---------------------------------------------------------------


def test_components_examples():
    f = TFamily([(), (0,)], {(): S.full, (0,): 2})
    assert components(f) == {(): 1, (0,): 2}
    f = TFamily([(), (0,), (1,)], {(): 3, (0,): 3, (1,): 3})
    assert components(f) == {(): 0, (0,): 3, (1,): 3}
    f = TFamily([(), (0,)], {(): 0, (0,): 0})
    assert components(f) == {(): 0, (0,): 0}


@pytest.mark.parametrize("nodes, sets, message", [
    ([(0,)], {(0,): 1}, "empty node"),
    ([(), (1,)], {(): 3, (1,): 1}, "no sibling gaps"),
    ([(), (0,), (0, 0, 0)], {(): 3, (0,): 1, (0, 0, 0): 1}, "prefix-closed"),
    ([(), (0,)], {(): 3}, "labeling must be total"),
])
def test_tfamily_rejects_invalid_trees(nodes, sets, message):
    with pytest.raises(ValueError, match=message):
        TFamily(nodes, sets)


def _normal_trees(max_nodes):
    """Every normal tree of at most ``max_nodes`` nodes, as sorted nodes,
    grown by giving some node its next child."""
    trees = frontier = {((),)}
    for _ in range(max_nodes - 1):
        grown = set()
        for t in frontier:
            for n in t:
                kids = sum(1 for m in t if m and m[:-1] == n)
                grown.add(tuple(sorted(t + (n + (kids,),))))
        trees = trees | grown
        frontier = grown
    return sorted(trees)


def test_components_match_subtracting_everything_deeper():
    trees = _normal_trees(4)
    assert len(trees) == 9
    for nodes in trees:
        for sets in itertools.product(range(4), repeat=len(nodes)):
            fam = TFamily(nodes, dict(zip(nodes, sets)))
            want = {}
            for n, s in fam.sets.items():
                for m, t in fam.sets.items():
                    if len(m) > len(n) and m[:len(n)] == n:
                        s &= ~t
                want[n] = s
            assert components(fam) == want


def test_component_identities():
    # union preserved, nested components disjoint
    nodes = [(), (0,), (1,), (0, 0)]
    for sets in itertools.product(range(4), repeat=4):
        fam = TFamily(nodes, dict(zip(nodes, sets)))
        comp = components(fam)
        total = 0
        for m in sets:
            total |= m
        union_comp = 0
        for m in comp.values():
            union_comp |= m
        if fam.is_monotone():
            assert union_comp == total
        for a in nodes:
            for b in nodes:
                if len(b) > len(a) and b[:len(a)] == a:
                    assert comp[a] & comp[b] == 0


def test_union_bound():
    nodes = [(), (0,), (1,)]
    mono = [TFamily(nodes, dict(zip(nodes, sets)))
            for sets in itertools.product(range(4), repeat=3)
            if TFamily(nodes, dict(zip(nodes, sets))).is_monotone()]
    for f1 in mono[:20]:
        for f2 in mono[:20]:
            joined = TFamily(nodes, {n: f1.sets[n] | f2.sets[n] for n in nodes})
            assert joined.is_monotone()
            cj, c1, c2 = components(joined), components(f1), components(f2)
            for n in nodes:
                assert cj[n] & ~(c1[n] | c2[n]) == 0


def test_reduce_examples():
    r = reduce_tfamily(TFamily([(), (0,), (1,)],
                               {(): D2.full, (0,): D2.full, (1,): D2.full}),
                       borel(D2).level0)
    assert (r.sets[(0,)], r.sets[(1,)]) == (D2.full, 0)
    r = reduce_tfamily(TFamily([(), (0,), (1,)],
                               {(): S.full, (0,): 2, (1,): S.full}),
                       borel(S).level0)
    assert (r.sets[(0,)], r.sets[(1,)]) == (0, S.full)
    with pytest.raises(NoReductError):
        reduce_tfamily(TFamily([(), (0,), (1,)],
                               {(): LAMBDA.full,
                                (0,): LAMBDA.mask_of_names(["a", "b"]),
                                (1,): LAMBDA.mask_of_names(["b", "c"])}),
                       borel(LAMBDA).level0)


def test_reduce_component_shrinkage():
    nodes = [(), (0,), (1,)]
    level = borel(D2).level0
    for sets in itertools.product(level, repeat=2):
        fam = TFamily(nodes, {(): D2.full, (0,): sets[0], (1,): sets[1]})
        if not fam.is_monotone():
            continue
        red = reduce_tfamily(fam, level)
        assert red.is_monotone() and red.sets[(0,)] & red.sets[(1,)] == 0
        before, after = components(fam), components(red)
        for n in nodes:
            assert after[n] & ~before[n] == 0
        total_b = fam.sets[(0,)] | fam.sets[(1,)]
        total_a = red.sets[(0,)] | red.sets[(1,)]
        assert total_a == total_b


# --- iterated families ------------------------------------------------------------


def fam_b():
    return UFamily(S.full, {(): S.full, (0,): S.mask_of_names(["b"])})


def test_eval_examples():
    res = family_eval(fam_b(), T("Fq[0](1)"), borel(S), Q2)
    assert res.values == (0, 1)
    res = family_eval(WHOLE, Const(0), borel(S), Q2)
    assert res.values == (0, 0)
    xm = D2.mask_of_names(["x"])
    clash = UFamily(D2.full, {(): D2.full, (0,): xm, (1,): xm})
    res = family_eval(clash, T("Fq[0](1,0)"), borel(D2), Q2)
    assert res == NotDetermined(point=0, labels=(0, 1))


def test_validation_errors():
    with pytest.raises(InvalidFamilyError):
        family_eval(WHOLE, T("Fq[0](1)"), borel(S), Q2)
    with pytest.raises(InvalidFamilyError):
        family_eval(fam_b(), Const(0), borel(S), Q2)
    with pytest.raises(InvalidFamilyError):
        # {a} is not open, so it is outside the working level
        family_eval(UFamily(S.full, {(): S.full, (0,): 1}),
                    T("Fq[0](1)"), borel(S), Q2)
    with pytest.raises(InvalidFamilyError):
        # root set must be the carrier
        family_eval(UFamily(S.full, {(): 2, (0,): 2}),
                    T("Fq[0](1)"), borel(S), Q2)
    with pytest.raises(InvalidFamilyError):
        # missing nested family under a shift label
        family_eval(UFamily(S.full, {(): S.full, (0,): 2}),
                    T("Fq[0](s[1](Fq[1](0)))"), borel(S), Q2)


def test_invariants_raise_without_assert():
    # pieces that miss b leave b uncovered
    with pytest.raises(RuntimeError):
        hierarchy._eval_pieces([(1, 0)], borel(S), Q2)


def test_shift_labels_use_shifted_level():
    # nested sets live one level up: {a} is fine inside a shifted family
    u = T("Fq[0](s[0](Fq[1](0)))")
    inner = UFamily(2, {(): 2, (0,): 2})
    F = UFamily(S.full, {(): S.full, (0,): 2},
                {(0,): inner})
    res = family_eval(F, u, borel(S), Q2)
    assert res.values == (0, 0)


def test_reduct_examples():
    xm = D2.mask_of_names(["x"])
    clash = UFamily(D2.full, {(): D2.full, (0,): xm, (1,): xm})
    u = T("Fq[0](1,0)")
    red = family_reduct(clash, u, borel(D2))
    assert red.sets == {(): D2.full, (0,): xm, (1,): 0}
    assert family_eval(red, u, borel(D2), Q2).values == (1, 0)
    assert family_reduct(red, u, borel(D2)) == red  # already in normal form
    assert family_reduct(WHOLE, Const(1), borel(S)) is WHOLE
    with pytest.raises(NoReductError):
        family_reduct(
            UFamily(LAMBDA.full, {(): LAMBDA.full,
                                  (0,): LAMBDA.mask_of_names(["a", "b"]),
                                  (1,): LAMBDA.mask_of_names(["b", "c"])}),
            T("Fq[0](1,1)"), borel(LAMBDA))


def test_reduct_needs_the_reduction_property():
    # a<c, b<c: every open holding a or b holds c, so {a,c} and {b,c} have
    # no disjoint open refinement, although the family determines 0
    V = FinSpace.from_pairs("abc", [("a", "c"), ("b", "c")])
    u = T("Fq[0](0,0)")
    F = UFamily(V.full, {(): V.full, (0,): V.mask_of_names("ac"),
                         (1,): V.mask_of_names("bc")})
    assert family_eval(F, u, borel(V), Q2).values == (0, 0, 0)
    assert not level_has_reduction(borel(V).level0)
    with pytest.raises(NoReductError) as exc:
        family_reduct(F, u, borel(V))
    assert str(exc.value).startswith(
        "no reduct for {a,c} {b,c} at the children of node root")
    assert exc.value.node == () and exc.value.sets == (5, 6)


def test_clear_caches_empties_every_memo():
    u = T("Fq[0](s[1](Fq[1](0)))")
    member(QPartition(S, Q2, (0, 1)), u, borel(S))
    terms.term_tree(u)
    memos = (hierarchy._TABLES, hierarchy._CONSTS, hierarchy._REACH_TABLES,
             hierarchy._BORELS, terms._TREES)
    assert all(memos)
    clear_caches()
    assert not any(memos)
    assert Const(0) is Const(0)  # intern tables stay


def test_constant_levels_match_brute_force():
    # a constant's level holds the labelings that are q on every carrier
    # point, in itertools.product order; every carrier, empty one included
    clear_caches()
    for n in range(5):
        for space in enumerate_posets(n):
            for k in (1, 2, 3):
                rows = list(itertools.product(range(k), repeat=n))
                for carrier in range(space.full + 1):
                    base = borel(space).restrict(carrier)
                    points = [p for p in range(n) if carrier >> p & 1]
                    for q in range(k):
                        want = sum(1 << i for i, row in enumerate(rows)
                                   if all(row[p] == q for p in points))
                        got = level_mask(space, antichain(k), Const(q), base)
                        assert got == want, (space, carrier, k, q)


def test_a_constant_fills_only_the_carriers_it_is_asked_for():
    # constant rows are filled per carrier, never for every one of the
    # 2^16 carriers of the space
    D16 = discrete(16)
    clear_caches()
    point = 1 << 5
    base = Base(D16, point, ((ZERO, (0, point)),))
    mask = level_mask(D16, Q2, Const(1), base)
    # point 5's digit has weight 2^10 in itertools.product order
    assert mask == sum(1 << i for i in range(2 ** 16) if i >> 10 & 1)
    consts = hierarchy._CONSTS[16, 2]
    assert sum(map(len, consts.values())) <= 2
    # every base of a 16-point space reads the same constant levels
    other = Base(D16, 1, ((ZERO, (0, 1)),))
    assert hierarchy._table(other, 2).consts is consts


def _omega_base(space):
    """Opens at 0 and every subset from w on, so that 1 + w = w."""
    return Base(space, space.full, ((ZERO, space.opens()),
                                    (OMEGA, tuple(range(space.full + 1)))))


def test_level_dp_interns_no_restricted_base():
    # the DP reads restricted levels as traces on a carrier mask, so every
    # base it meets is the given one or a shift of it; the second base puts
    # its last threshold at w, which no other test restricts, so a
    # restricted copy of it would be new to the intern table whatever ran
    # before
    before = set(Base._table)
    clear_caches()
    for base in (borel(CHAIN4), _omega_base(CHAIN4)):
        for text in ("Fq[0](s[1](Fq[1](0)),Fo[0](1,0))",
                     "s[0](Fq[1](Fq[0](1),0))", "Fo[1](Fq[0](1,0),1)"):
            level_mask(CHAIN4, Q2, T(text), base)
    new = [Base._table[key] for key in set(Base._table) - before]
    assert all(b.carrier == CHAIN4.full for b in new)
    # interned, so identity is equality and the hash is the default one
    assert Base.__hash__ is object.__hash__
    assert Base.__eq__ is object.__eq__


def _entries(memo):
    """(table, carrier, key) for every entry of the given memo
    (``"levels"`` or ``"reaches"``) of every level table."""
    return [(table, carrier, key)
            for table in hierarchy._TABLES.values()
            for carrier, row in getattr(table, memo).items()
            for key in row]


def _shift_pool_levels(monkeypatch):
    """Fill the level tables for criterion 13's terms and their s[0] and
    s[1] wrappers on the 3-chain; return the (table, memo, carrier, term)
    of every `_level` call."""
    pool = list(enumerate_terms(2, 3, SUBS))
    pool += [Shift(a, u) for a in SUBS for u in pool]
    real, runs = hierarchy._level, []

    def level(table, memo, carrier, u):
        runs.append((table, memo, carrier, u))
        return real(table, memo, carrier, u)

    monkeypatch.setattr(hierarchy, "_level", level)
    clear_caches()
    hierarchy.level_masks(CHAIN3, Q2, pool)
    return runs


def test_level_dp_splits_each_branch_entry_once(monkeypatch):
    # hits are read inline, so `_level` runs once per entry it makes; a
    # shift chain reads its core's entry, so the union DP runs once per
    # entry of a branch term, and no entry is keyed by a shift chain or a
    # constant, whose levels live in the shared constant memo
    runs = _shift_pool_levels(monkeypatch)
    assert len({(id(memo), carrier, u)
                for _, memo, carrier, u in runs}) == len(runs)
    runs = [(table, carrier, u) for table, _, carrier, u in runs
            if isinstance(u, (terms.Fq, terms.Fo))]
    assert len(runs) == len(set(runs)) == len(_entries("levels"))
    assert set(runs) == set(_entries("levels"))


def test_level_dp_extends_each_child_prefix_once(monkeypatch):
    # the branches over one child tuple share its union DP, whatever their
    # root label, and each table extends the one of its prefix by one child
    real, extended = hierarchy._reach, []

    def reach(table, carrier, kids):
        if kids:
            extended.append((table, carrier, kids))
        return real(table, carrier, kids)

    monkeypatch.setattr(hierarchy, "_reach", reach)
    clear_caches()
    pool = list(enumerate_terms(2, 4, SUBS))
    for space in enumerate_posets(3):
        hierarchy.level_masks(space, Q2, pool)
    reaches = _entries("reaches")
    assert len(extended) == len(set(extended))
    assert set(extended) == {key for key in reaches if key[2]}
    branches = [(table, carrier, u.below)
                for table, carrier, u in _entries("levels")
                if isinstance(u, (terms.Fq, terms.Fo))]
    assert set(branches) <= set(reaches)
    # a branch miss used to extend its own table by every child
    assert len(extended) < sum(len(key[2]) for key in branches)
    # equal tables are one object
    tables = [table.reaches[carrier][kids] for table, carrier, kids in reaches]
    assert len({id(t) for t in tables}) == len(set(tables))


def test_pool_levels_are_the_per_term_levels():
    pool = list(enumerate_terms(3, 3, SUBS))
    for space in (S, CHAIN3, LAMBDA):
        for base in (borel(space), borel(space).restrict(3),
                     borel(space).shift(OMEGA)):
            clear_caches()
            masks = hierarchy.level_masks(space, Q3, pool, base)
            assert list(masks) == pool
            clear_caches()
            assert masks == {u: level_mask(space, Q3, u, base) for u in pool}
    # the pool form raises what the first failing term raises alone
    for space, qo, pool in ((S, Q2, [T("0"), T("Fq[0](2)"), T("s[0](3)")]),
                            (D2, Q2, [T("0")])):
        errors = []
        for form in (lambda: hierarchy.level_masks(space, qo, pool, borel(S)),
                     lambda: [level_mask(space, qo, u, borel(S))
                              for u in pool]):
            with pytest.raises(ValueError) as exc:
                form()
            errors.append((type(exc.value), str(exc.value)))
        assert errors[0] == errors[1]


def test_level_masks_match_their_pinned_digest():
    # every level of the 2-label pool of at most 4 nodes, subscripts 0 and
    # 1, on every poset of at most 4 points, as computed by the per-miss
    # union DP before branches shared their children's tables
    clear_caches()
    digest = hashlib.sha256()
    pool = list(enumerate_terms(2, 4, SUBS))
    for n in range(5):
        for space in enumerate_posets(n):
            for u in pool:
                digest.update(b"%x\n" % level_mask(space, Q2, u))
    assert digest.hexdigest() == ("b6b74dcb9917b2d526a647d559b52bb2"
                                  "ab0c93ee2cfbd6dd99ddd01c9e61ff69")


def test_level_dp_shift_entry_is_its_core_over_the_shifted_base(monkeypatch):
    # the pool's shift chains, each read from its core's entry in the
    # shifted base's table, filled by the pool itself
    runs = _shift_pool_levels(monkeypatch)
    shifts = [Shift(a, u) for a in SUBS for u in enumerate_terms(2, 3, SUBS)]
    base, calls = borel(CHAIN3), len(runs)
    for u in shifts:
        r = level_mask(CHAIN3, Q2, u)
        dec = term_decompose(u)
        table = hierarchy._TABLES[base.shift(dec.shift), 2]
        memo = table.consts if isinstance(dec.core, Const) else table.levels
        assert memo[CHAIN3.full][dec.core] == r, u
    assert len(runs) == calls  # every level was in the tables already


def test_shift_headed_terms_are_read_without_a_decomposition(monkeypatch):
    # every reader takes the chain's sum and core from the term itself
    def refuse(*args):
        raise AssertionError("a shift chain was decomposed")

    monkeypatch.setattr(terms, "Decomposition", refuse)
    clear_caches()
    base = borel(S)
    for text in ("s[0](Fq[0](1))", "s[1](s[0](Fo[0](s[1](Fq[1](0)),1)))"):
        u = T(text)
        assert terms.term_paths(u)
        seen = level_set_enum(S, Q2, u)
        assert {A.values for A in level_set(S, Q2, u)} == seen
        assert level_mask(S, Q2, u)
        for F in enumerate_families(u, base):
            family_eval(F, u, base, Q2)
            family_to_json(S, family_reduct(F, u, base), u)


def test_level_set_enum_cross_oracle_on_shift_chains():
    # the w-base absorbs 1 + w = w, so the chains exercise shift composition
    bases = (_omega_base(CHAIN4), borel(CHAIN4),
             borel(CHAIN4).restrict(CHAIN4.mask_of_names("abd")))
    for text in ("s[0](s[1](Fq[0](1)))", "s[1](s[0](Fq[0](1)))",
                 "Fo[1](s[0](Fq[1](0)),1)", "s[0](s[0](Fq[0](1)))",
                 "Fo[0](s[0](Fq[1](0)),1)", "Fq[1](s[0](Fq[0](1)),0)"):
        for base in bases:
            fast = {A.values for A in level_set(CHAIN4, Q2, T(text), base)}
            assert fast == level_set_enum(CHAIN4, Q2, T(text), base), text


def test_base_builds_each_shift_once(monkeypatch):
    # the threshold w lies past the shift 1, so building the shift calls
    # left_subtract; asking again must return the kept shift unbuilt
    base = Base(S, S.full, ((ZERO, S.opens()), (OMEGA, tuple(range(4)))))
    shifted = base.shift(ONE)
    assert shifted.steps == ((ZERO, S.opens()), (OMEGA, (0, 1, 2, 3)))

    def rebuilt(*args):
        raise AssertionError("the shift was built again")

    monkeypatch.setattr(hierarchy, "left_subtract", rebuilt)
    assert base.shift(ONE) is shifted
    assert base.shift(ZERO) is base


def test_borel_builds_each_stock_base_once(monkeypatch):
    base = borel(S)

    def rebuilt(*args):
        raise AssertionError("the stock base was built again")

    monkeypatch.setattr(hierarchy, "Base", rebuilt)
    assert borel(S) is base
    # an equal space with other names has the same stock base, as it has
    # the same intern key
    assert borel(FinSpace.from_pairs("xy", [("x", "y")])) is base


def test_families_compare_by_fields_whatever_the_insertion_order():
    inner = UFamily(2, {(): 2, (0,): 2})
    sets = [((), S.full), ((0,), 2), ((1,), 2)]
    a = UFamily(S.full, dict(sets), {(0,): inner, (1,): inner})
    b = UFamily(S.full, dict(reversed(sets)), {(1,): inner, (0,): inner})
    assert list(a.sets) != list(b.sets) and a == b
    assert a != UFamily(S.full, dict(sets), {(0,): inner})
    assert UFamily.__hash__ is None


def _identity(space):
    return ContMap(space, space, tuple(range(space.n)))


def test_pullback_examples():
    XY, proj, _ = product(S, discrete(2, names=("0", "1")))
    u = T("Fq[0](1)")
    ident_pull = family_pullback(_identity(S), fam_b(), u, borel(S))
    assert ident_pull == fam_b()
    G = family_pullback(proj, fam_b(), u, borel(S))
    assert G.sets[(0,)] == XY.mask_of_names(["b0", "b1"])
    left = family_eval(G, u, borel(XY), Q2)
    right = family_eval(fam_b(), u, borel(S), Q2).precompose(proj)
    assert left.values == right.values


def test_pushforward_examples():
    XY, proj, _ = product(S, discrete(2, names=("0", "1")))
    u = T("Fq[0](1)")
    same = family_pushforward(_identity(S), fam_b(), u, borel(S))
    assert same == fam_b()
    G = family_pullback(proj, fam_b(), u, borel(S))
    H = family_pushforward(proj, G, u, borel(XY))
    assert family_eval(H, u, borel(S), Q2).values == (0, 1)
    # empty sets stay empty under the category quantifier
    assert cat_quantifier(proj, 0) == 0
    E = UFamily(XY.full, {(): XY.full, (0,): 0})
    HE = family_pushforward(proj, E, u, borel(XY))
    assert HE.sets[(0,)] == 0


def test_pull_and_push_keep_an_explicit_whole_child():
    # a singleton-labeled node may carry the whole-carrier marker; both maps
    # move it like any nested family
    XY, proj, _ = product(S, discrete(2, names=("0", "1")))
    u = T("Fq[0](1)")
    F = UFamily(S.full, {(): S.full, (0,): 2}, {(0,): WHOLE})
    G = family_pullback(proj, F, u, borel(S))
    assert G.children == {(0,): WHOLE}
    assert family_pushforward(proj, G, u, borel(XY)) == F


def test_nested_families_along_open_surjections():
    # families with nested levels, along every open surjection from a poset
    # of at most 3 points onto one of at most 2 points and the product
    # projection: pulling back commutes with precomposition, and pushing the
    # pullback forward determines the original partition again
    small = [X for n in (1, 2, 3) for X in enumerate_posets(n)]
    maps = [f for X in small for Y in small if Y.n <= 2
            for f in enum_cos(X, Y)]
    maps.append(product(S, discrete(2, names=("0", "1")))[1])
    # terms of at most 4 nodes with a shift-labeled node, one per orbit of
    # the label swap (which relabels the families and partitions alike)
    pool = [u for u in enumerate_terms(2, 4, SUBS)
            if any(not terms.is_singleton(lab) for lab in
                   terms.term_tree(terms.term_decompose(u).core).labels.values())
            and term_to_str(u) <= term_to_str(term_apply_aut(Q2, (1, 0), u))]
    families = {}
    nested = 0
    for j, f in enumerate(maps):
        base = borel(f.dst)
        for i, u in enumerate(pool):
            if (f.dst, u) not in families:
                families[f.dst, u] = list(enumerate_families(u, base))
            # one family per map and term: the maps onto a space take turns
            # through each term's families
            fams = families[f.dst, u]
            F = fams[(i + j) % len(fams)]
            nested += any(c.carrier for c in F.children.values())
            A = family_eval(F, u, base, Q2)
            G = family_pullback(f, F, u, base)
            pulled = family_eval(G, u, borel(f.src), Q2)
            if isinstance(A, NotDetermined):
                assert isinstance(pulled, NotDetermined)
                continue
            assert pulled == A.precompose(f)
            H = family_pushforward(f, G, u, borel(f.src))
            assert family_eval(H, u, base, Q2) == A
    assert len(pool) == 152 and nested > len(maps) * len(pool) // 2


def test_member_examples():
    L = borel(S)
    assert member(QPartition(S, Q2, (0, 1)), T("Fq[0](1)"), L)
    assert not member(QPartition(S, Q2, (1, 0)), T("Fq[0](1)"), L)
    assert member(QPartition(S, Q2, (1, 0)), T("s[1](Fq[0](1))"), L)


def test_member_enum_examples():
    # membership decision against the family-enumeration oracle
    L = borel(S)
    for text in ("Fq[0](1)", "Fq[1](0)", "s[1](Fq[0](1))", "0", "1",
                 "Fo[1](0,1)", "Fq[0](1,0)"):
        u = T(text)
        level = level_set_enum(S, Q2, u)
        for vals in itertools.product(range(2), repeat=2):
            assert member(QPartition(S, Q2, vals), u, L) == (vals in level)
    assert level_set_enum(S, Q2, Const(1)) == {(1, 1)}


def test_level_set_examples():
    assert [A.values for A in level_set(S, Q2, Const(0))] == [(0, 0)]
    ls = level_set(S, Q2, T("Fq[0](1)"))
    assert [A.values for A in ls] == [(0, 0), (0, 1), (1, 1)]
    assert len(level_set(D2, Q2, T("Fq[0](1)"))) == 4


def test_level_set_enum_cross_oracle():
    for space in (S, D2, CHAIN3):
        for u in enumerate_terms(2, 3, SUBS):
            fast = {A.values for A in level_set(space, Q2, u)}
            slow = level_set_enum(space, Q2, u)
            assert fast == slow, (space, u)


def _is_reduced(F):
    """Are siblings pairwise disjoint at every nesting level?"""
    if F is WHOLE:
        return True
    return (all(F.sets[n] & F.sets[n[:-1] + (j,)] == 0
                for n in F.sets if n for j in range(n[-1]))
            and all(map(_is_reduced, F.children.values())))


def _reduced_families(u, base):
    return [F for F in enumerate_families(u, base) if _is_reduced(F)]


def test_reduced_families_always_determine():
    for space in (S, D2):
        base = borel(space)
        for text in ("Fq[0](1,0)", "Fq[1](0)", "Fo[1](0,1)", "s[1](Fq[0](1,0))"):
            u = T(text)
            families = _reduced_families(u, base)
            assert families
            for F in families:
                res = family_eval(F, u, base, Q2)
                assert not isinstance(res, NotDetermined)


def test_reduced_enumeration_matches_full_on_reducible_bases():
    for space in (S, D2, CHAIN3):
        base = borel(space)
        for u in enumerate_terms(2, 3, SUBS):
            reduced = {res.values for res in (family_eval(F, u, base, Q2)
                                              for F in _reduced_families(u, base))
                       if isinstance(res, QPartition)}
            assert level_set_enum(space, Q2, u) == reduced


def test_shift_law_small():
    w_alpha = omega_power(ONE)
    for space in (S, D2):
        shifted = borel(space).shift(w_alpha)
        for u in enumerate_terms(2, 3, SUBS):
            left = {A.values for A in level_set(space, Q2, Shift(ONE, u))}
            right = {A.values for A in level_set(space, Q2, u, shifted)}
            assert left == right


def test_restriction_law():
    # membership restricts: evaluation of the restricted family restricts
    u = T("Fq[0](1)")
    F = fam_b()
    b = S.mask_of_names(["b"])
    sub = family_restrict(F, b)
    res = family_eval(sub, u, borel(S).restrict(b), Q2)
    assert res.values == (None, 1)


def test_component_interchange():
    # pushing a monotone family of opens forward can only grow components
    XY, proj, _ = product(S, discrete(2, names=("0", "1")))
    nodes = [(), (0,), (1,)]
    for s0 in XY.opens():
        for s1 in XY.opens():
            fam = TFamily(nodes, {(): XY.full, (0,): s0, (1,): s1})
            pushed = TFamily(nodes, {n: cat_quantifier(proj, m)
                                     for n, m in fam.sets.items()})
            cp, cf = components(pushed), components(fam)
            for n in nodes:
                assert cp[n] & ~cat_quantifier(proj, cf[n]) == 0


def test_family_json_round_trip():
    u = T("Fq[0](s[1](Fq[1](0)))")
    base = borel(S)
    for F in enumerate_families(u, base):
        doc = family_to_json(S, F, u)
        again = family_from_json(S, doc)
        assert again == F
        break
    assert family_from_json(S, family_to_json(S, WHOLE, Const(0))) is WHOLE


def test_preservation_instance():
    # membership transfers both ways along the product projection, for
    # antichain labels and for a genuinely ordered label set alike
    from finehier.quasiorder import chain
    XY, proj, _ = product(S, discrete(2, names=("0", "1")))
    for qo in (Q2, chain(2)):
        for vals in itertools.product(range(2), repeat=2):
            A = QPartition(S, qo, vals)
            Af = A.precompose(proj)
            for text in ("Fq[0](1)", "Fq[1](0)", "s[1](Fq[0](1))", "Fo[1](0,1)"):
                u = T(text)
                assert member(A, u, borel(S)) == member(Af, u, borel(XY))
