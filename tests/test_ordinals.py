import itertools

import pytest

from finehier.ordinals import (Ordinal, ZERO, ONE, OMEGA, ord_cmp, ord_add,
                               ord_star, omega_power, from_int, left_subtract,
                               parse_ordinal, ord_to_str, f_map, wadge_cmp,
                               wadge_from_int, wadge_to_str, ZeroOrdinalError,
                               OrdinalParseError, WadgeOrdinal, WADGE_ZERO)
from finehier.terms import Shift, Fo, Const


def O(text):
    return parse_ordinal(text)


def test_cmp_examples():
    assert ord_cmp(O("w+1"), O("w")) == 1
    assert ord_cmp(O("w^w"), O("w*5")) == 1
    assert ord_cmp(O("w^2+w"), O("w^2+w")) == 0
    assert ord_cmp(O("0"), O("1")) == -1
    assert ord_cmp(O("w^2*2"), O("w^2+w*9+5")) == 1


def test_add_examples():
    assert ord_add(O("1"), O("w")) is O("w")
    assert ord_add(O("w"), O("1")) is O("w+1")
    assert ord_add(O("w^2+w"), O("w^2")) is O("w^2*2")
    assert ord_add(ZERO, O("w")) is O("w")
    assert ord_add(O("w"), ZERO) is O("w")


def test_star_examples():
    assert ord_star(O("w^2+w+1")) is O("w^2")
    assert ord_star(O("5")) is O("1")
    assert ord_star(O("w^w*3+w")) is O("w^w")
    with pytest.raises(ZeroOrdinalError):
        ord_star(ZERO)


def test_parse_normalizes():
    # sums are folded left to right, so non-CNF input normalizes
    assert O("1+w") is O("w")
    assert O("w+w") is O("w*2")
    assert O("w+w^2") is O("w^2")
    assert O("w^(w)") is omega_power(OMEGA)
    assert O("w^w^2") is omega_power(omega_power(from_int(2)))
    assert O("w^0") is ONE


def test_parse_errors():
    for bad in ("", "w^", "w*0", "w**2", "(w", "w)", "+w", "w^2*", "x",
                "w^" * 3000 + "1", "w^(" * 3000 + "1" + ")" * 3000):
        with pytest.raises(OrdinalParseError):
            parse_ordinal(bad)


def test_invalid_construction():
    with pytest.raises(ValueError):
        Ordinal(((ZERO, 0),))
    with pytest.raises(ValueError):
        Ordinal(((ZERO, 1), (ONE, 1)))  # exponents must decrease
    with pytest.raises(TypeError):
        Ordinal(((WADGE_ZERO, 1),))  # exponents of the same kind only


def test_plain_and_base_omega1_values_stay_apart():
    assert ZERO is not WADGE_ZERO and ZERO is Ordinal()
    w1 = f_map(OMEGA)
    assert isinstance(w1, WadgeOrdinal) and w1 is WadgeOrdinal(w1.terms)
    assert (str(OMEGA), repr(OMEGA)) == ("w", "Ordinal('w')")
    assert (str(w1), repr(w1)) == ("w1", "WadgeOrdinal('w1')")
    for bad in (WADGE_ZERO, w1):
        with pytest.raises(TypeError):
            Shift(bad, Const(0))
        with pytest.raises(TypeError):
            Fo(bad, (Const(0),))


def _pool(exponents, coeffs, max_terms):
    from functools import cmp_to_key
    desc = sorted(exponents, key=cmp_to_key(ord_cmp), reverse=True)
    out = [ZERO]
    for k in range(1, max_terms + 1):
        for exps in itertools.combinations(desc, k):
            for cs in itertools.product(coeffs, repeat=k):
                out.append(Ordinal(tuple(zip(exps, cs))))
    return out


def test_round_trip_on_pool():
    pool = _pool([ZERO, ONE, from_int(2), OMEGA, O("w+1"), O("w^2")], (1, 2, 3), 3)
    for a in pool:
        assert parse_ordinal(ord_to_str(a)) is a


def test_add_associative_on_pool():
    pool = _pool([ZERO, ONE, OMEGA, O("w^2")], (1, 2), 3)
    for a in pool:
        for b in pool:
            ab = ord_add(a, b)
            for c in pool:
                assert ord_add(ab, c) is ord_add(a, ord_add(b, c))


def test_left_absorption():
    # when the leading power of a is below that of b, a is absorbed
    pool = _pool([ZERO, ONE, from_int(2), OMEGA, O("w+1"), O("w^2")], (1, 2), 2)
    for a in pool:
        for b in pool:
            if a.is_zero or b.is_zero:
                continue
            if ord_cmp(ord_star(a), ord_star(b)) < 0:
                assert ord_add(a, b) is b


def test_add_consistent_with_order():
    pool = _pool([ZERO, ONE, OMEGA], (1, 2), 2)
    for a in pool:
        for b in pool:
            if not b.is_zero:
                assert ord_cmp(ord_add(a, b), a) == 1  # strictly increasing on the right


def test_left_subtract():
    pool = _pool([ZERO, ONE, from_int(2), OMEGA, O("w^2")], (1, 2), 2)
    for a in pool:
        for b in pool:
            if ord_cmp(a, b) <= 0:
                assert ord_add(a, left_subtract(a, b)) is b
            else:
                with pytest.raises(ValueError):
                    left_subtract(a, b)


def test_fmap_spot_values():
    assert f_map(ZERO).is_zero
    assert f_map(from_int(2)) == wadge_from_int(2)
    assert wadge_to_str(f_map(from_int(2))) == "2"
    for n in range(50):
        assert f_map(from_int(n)) == wadge_from_int(n)
    # w maps to the first-power base term, written w1
    assert wadge_to_str(f_map(OMEGA)) == "w1"
    assert wadge_to_str(f_map(O("w^w"))) == "w1^w1"
    assert wadge_to_str(f_map(O("w^w*2+3"))) == "w1^w1*2+3"


def test_fmap_strictly_monotone_small():
    pool = _pool([ZERO, ONE, from_int(2), OMEGA, O("w^2")], (1, 2), 2)
    for a in pool:
        for b in pool:
            c = ord_cmp(a, b)
            assert wadge_cmp(f_map(a), f_map(b)) == c
