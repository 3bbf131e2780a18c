import itertools

import pytest

from finehier.quasiorder import Quasiorder, antichain, chain
from finehier.spaces import FinSpace


def test_automorphism_examples():
    assert len(antichain(3).automorphisms()) == 6
    assert chain(3).automorphisms() == ((0, 1, 2),)
    assert set(antichain(2).automorphisms()) == {(0, 1), (1, 0)}


def test_invariants_rejected():
    with pytest.raises(ValueError):
        Quasiorder([[False, False], [False, True]])  # not reflexive
    with pytest.raises(ValueError):
        Quasiorder([[True, True, False],
                    [False, True, True],
                    [False, False, True]])  # not transitive
    for bad in ([0, 2], [0, -1], [0, "1"], [0, True]):
        with pytest.raises(ValueError, match="not two elements"):
            Quasiorder.from_json({"size": 2, "le": [bad]})


def test_loaders_reject_text_nested_past_the_recursion_limit():
    text = "[" * 200_000 + "]" * 200_000
    for load in (FinSpace.from_json, Quasiorder.from_json):
        with pytest.raises(ValueError, match="nested too deeply"):
            load(text)


def _all_preorders(k):
    cells = [(i, j) for i in range(k) for j in range(k) if i != j]
    for bits in itertools.product((False, True), repeat=len(cells)):
        le = [[i == j for j in range(k)] for i in range(k)]
        for (i, j), b in zip(cells, bits):
            le[i][j] = b
        ok = all(not (le[i][j] and le[j][l]) or le[i][l]
                 for i in range(k) for j in range(k) for l in range(k))
        if ok:
            yield Quasiorder(le)


def test_automorphisms_form_a_group():
    for k in range(1, 5):
        for qo in _all_preorders(k):
            auts = set(qo.automorphisms())
            assert tuple(range(k)) in auts
            for g in auts:
                inv = tuple(sorted(range(k), key=lambda i: g[i]))
                assert inv in auts
                for h in auts:
                    assert tuple(g[h[i]] for i in range(k)) in auts


def test_json_round_trip_and_closure():
    qo = Quasiorder.from_json({"size": 3, "le": [[0, 1], [1, 2]],
                               "names": {"0": "lo", "1": "mid", "2": "hi"}})
    assert qo.leq(0, 2)  # transitive closure applied on load
    again = Quasiorder.from_json(qo.to_json())
    assert again == qo and again.names == qo.names
