import itertools

import pytest

from finehier.quasiorder import antichain, chain
from finehier.spaces import (FinSpace, ContMap, QPartition, sierpinski,
                             discrete, product, is_cos,
                             is_meager, is_meager_bruteforce, cat_quantifier,
                             wadge_leq, monotone_maps, monotone_selfmaps,
                             enum_cos, enumerate_posets, mask_points,
                             NotContinuousError, NotOpenSurjectionError,
                             DifferentSpacesError, DifferentQError)

S = sierpinski()
D2 = discrete(2, names=("x", "y"))
Q2 = antichain(2)
CHAIN3 = FinSpace.from_pairs("abc", [("a", "b"), ("b", "c")])


def test_space_validation():
    with pytest.raises(ValueError):
        FinSpace([[True, True], [True, True]])  # not antisymmetric
    with pytest.raises(ValueError):
        FinSpace([[False, False], [False, True]])  # not reflexive
    with pytest.raises(ValueError):
        FinSpace.from_pairs("ab", [("a", "b"), ("b", "a")])  # closure breaks T0


def test_opens_are_upsets():
    assert [S.set_of_names(m) for m in S.opens()] == [(), ("b",), ("a", "b")]
    assert len(discrete(3).opens()) == 8
    assert len(CHAIN3.opens()) == 4


def test_is_cos_examples():
    ident = ContMap(S, S, (0, 1))
    assert is_cos(ident)
    XY, proj, _ = product(S, discrete(2, names=("0", "1")))
    # derived check: the product has 9 up-sets and the projection sends
    # each one to an up-set
    ups = [m for m in range(XY.full + 1) if XY.is_upset(m)]
    assert len(ups) == 9
    assert all(S.is_upset(proj.image_mask(m)) for m in ups)
    assert is_cos(proj)
    const_b = ContMap(D2, S, (1, 1))
    assert not is_cos(const_b)  # not surjective


def test_monotonicity_enforced():
    with pytest.raises(NotContinuousError):
        ContMap(S, S, (1, 0))


def test_meager_examples():
    a, b = S.mask_of_names(["a"]), S.mask_of_names(["b"])
    assert is_meager(S, a)
    assert not is_meager(S, b)
    assert is_meager(S, 0)
    assert is_meager_bruteforce(S, a)
    assert not is_meager_bruteforce(S, b)


def test_meager_oracle_agreement_small():
    for n in range(1, 4):
        for space in enumerate_posets(n):
            for mask in range(space.full + 1):
                assert is_meager(space, mask) == is_meager_bruteforce(space, mask)
                # and relative to an arbitrary subspace
                for within in range(space.full + 1):
                    assert (is_meager(space, mask & within, within)
                            == is_meager_bruteforce(space, mask & within, within))


def test_cat_quantifier_examples():
    XY, proj, _ = product(S, discrete(2, names=("0", "1")))
    assert cat_quantifier(proj, 0) == 0
    assert cat_quantifier(proj, XY.full) == S.full
    assert S.set_of_names(cat_quantifier(proj, XY.mask_of_names(["b0"]))) == ("b",)
    with pytest.raises(NotOpenSurjectionError):
        cat_quantifier(ContMap(D2, S, (1, 1)), 0)


def test_a_map_is_tested_for_openness_once(monkeypatch):
    XY, proj, _ = product(S, discrete(2, names=("0", "1")))
    bad = ContMap(D2, S, (1, 1))
    assert is_cos(proj) and not is_cos(bad)

    def retested(self):
        raise AssertionError("the map was tested again")

    monkeypatch.setattr(ContMap, "is_surjective", retested)
    assert cat_quantifier(proj, XY.full) == S.full
    with pytest.raises(NotOpenSurjectionError):
        cat_quantifier(bad, 0)


def test_cat_quantifier_laws():
    XY, proj, _ = product(S, discrete(2, names=("0", "1")))
    for a in range(XY.full + 1):
        fa = cat_quantifier(proj, a)
        assert fa & ~proj.image_mask(a) == 0  # inside the plain image
        for b in range(XY.full + 1):
            assert cat_quantifier(proj, a | b) == fa | cat_quantifier(proj, b)
    for m in XY.opens():
        assert S.is_upset(cat_quantifier(proj, m))
    for y in range(S.n):
        fib = proj.fiber_mask(y)
        assert not is_meager(XY, fib, within=fib)


def test_wadge_examples():
    A = QPartition(S, Q2, (1, 0))
    B = QPartition(S, Q2, (0, 1))
    assert wadge_leq(A, A)
    assert not wadge_leq(A, B)
    assert wadge_leq(QPartition(S, Q2, (0, 0)), B)  # constant hits a 0 of B
    with pytest.raises(DifferentSpacesError):
        wadge_leq(A, QPartition(D2, Q2, (0, 1)))
    with pytest.raises(DifferentQError):
        wadge_leq(A, QPartition(S, antichain(3), (0, 1)))


def test_wadge_is_a_quasiorder():
    space = CHAIN3
    parts = [QPartition(space, Q2, vals)
             for vals in itertools.product(range(2), repeat=3)]
    rel = [[wadge_leq(a, b) for b in parts] for a in parts]
    for i in range(len(parts)):
        assert rel[i][i]
        for j in range(len(parts)):
            if rel[i][j]:
                for k in range(len(parts)):
                    if rel[j][k]:
                        assert rel[i][k]


def test_enum_cos_examples():
    assert any(f.values == (0, 1) for f in enum_cos(S, S))
    assert enum_cos(D2, S) == ()
    # exhaustive cross-check: every monotone surjection fails openness
    surjective = [v for v in monotone_maps(D2, S) if set(v) == {0, 1}]
    assert len(surjective) == 2
    for v in surjective:
        assert not is_cos(ContMap(D2, S, v))
    XY, proj, _ = product(S, discrete(2, names=("0", "1")))
    assert any(f.values == proj.values for f in enum_cos(XY, S))


def test_product_order():
    XY, p1, p2 = product(S, D2)
    assert XY.n == 4
    assert XY.leq(XY.index_of("ax"), XY.index_of("bx"))
    assert not XY.leq(XY.index_of("ax"), XY.index_of("by"))
    assert is_cos(p1) and is_cos(p2)


def test_enumerate_posets_counts():
    # a reading takes each pair i < j, in order, as incomparable (0), i
    # below j (1) or i above j (2); every poset is the least reading of its
    # class under relabeling, so the classes are distinct, and the list
    # ascends by reading
    def reading(le, p):
        n = len(le)
        return tuple(le[p[i]][p[j]] + 2 * le[p[j]][p[i]]
                     for i in range(n) for j in range(i + 1, n))

    assert enumerate_posets(0) == (FinSpace(()),)
    for n, count in enumerate((1, 1, 2, 5, 16, 63)):
        spaces = enumerate_posets(n)
        readings = [reading(X.le, range(n)) for X in spaces]
        assert len(spaces) == count and readings == sorted(set(readings))
        for X, r in zip(spaces, readings):
            assert r == min(reading(X.le, p)
                            for p in itertools.permutations(range(n)))


def test_partition_helpers():
    A = QPartition(S, Q2, (0, 1))
    assert A.restrict(S.mask_of_names(["b"])).values == (None, 1)
    XY, p1, _ = product(S, discrete(2, names=("0", "1")))
    assert A.precompose(p1).values == (0, 0, 1, 1)
    doc = A.to_json()
    assert QPartition.from_json(S, Q2, doc) == A


def test_labels_and_names_checked():
    for bad in ("0", True, 1.0):
        with pytest.raises(ValueError, match="not an integer"):
            QPartition(S, Q2, (0, bad))
    with pytest.raises(ValueError, match="unknown point 'z'"):
        S.index_of("z")
    with pytest.raises(ValueError, match="unknown point 'z'"):
        FinSpace.from_json({"points": ["a"], "le": [["a", "z"]]})
    with pytest.raises(ValueError, match="unknown point 'z'"):
        QPartition.from_json(S, Q2, {"values": {"z": 0}})
    with pytest.raises(ValueError,
                       match="point map leaves out source point 'b'"):
        ContMap.from_json(S, S, {"values": {"a": "a"}})


def test_space_json_round_trip():
    doc = S.to_json()
    assert FinSpace.from_json(doc) == S
    assert mask_points(S.mask_of_names(["a", "b"])) == (0, 1)


def test_selfmaps_cached():
    assert monotone_selfmaps(S) is monotone_selfmaps(S)
    assert (0, 0) in monotone_selfmaps(S) and (1, 0) not in monotone_selfmaps(S)
