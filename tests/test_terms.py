import hashlib
from collections import Counter

import pytest

import finehier.labeled_trees as labeled_trees
import finehier.terms as terms_module
from finehier.labeled_trees import hom_leq, hom_rows
from finehier.ordinals import (ZERO, ONE, OMEGA, from_int, omega_power,
                               ord_add, parse_ordinal)
from finehier.quasiorder import antichain, chain
from finehier.terms import (Const, Shift, Fq, Fo, term_rank,
                            term_decompose, term_leq, TermOrder, term_tree,
                            term_paths, term_apply_aut, parse_term,
                            term_to_str, enumerate_terms, is_singleton,
                            singleton_value, check_subscripts, syntax_tree,
                            check_constants, SingletonTermError,
                            NotAutomorphismError, TermParseError,
                            SubscriptBoundError)

Q2 = antichain(2)
SUBS = (ZERO, from_int(1))


def T(text):
    return parse_term(text)


def tree_leq(order, u, v):
    """The tree-map oracle: a monotone label-dominating map between the
    flattened trees, with labels compared by the term order itself."""
    return hom_leq(term_tree(u), term_tree(v), order.leq)


def test_decompose_examples():
    d = term_decompose(Const(0))
    assert d.shift is ZERO and d.core is Const(0)
    d = term_decompose(T("s[2](s[1](Fq[0](1)))"))
    assert d.shift is parse_ordinal("w^2+w") and d.core is T("Fq[0](1)")
    d = term_decompose(T("s[0](1)"))
    assert d.shift is parse_ordinal("1") and d.core is Const(1)


def _walk_chain(u):
    """The chain's ordinal sum and core, by walking the chain."""
    shift = ZERO
    while isinstance(u, Shift):
        shift = ord_add(shift, omega_power(u.alpha))
        u = u.body
    return shift, u


def test_each_term_keeps_its_chain_sum_and_core():
    pool = enumerate_terms(2, 5, (ZERO, ONE, OMEGA))
    assert len(pool) == 19_342
    # 1 + w = w, so the sum absorbs a smaller summand before a larger one
    chains = [T(text) for text in (
        "s[0](s[1](Fq[0](1)))", "s[1](s[0](Fq[0](1)))", "s[0](s[w](1))",
        "s[w](s[1](s[0](0)))", "s[1](s[1](s[0](Fo[w](1,0))))",
        "Fo[1](s[0](s[1](0)),1)")]
    assert chains[0].shift is OMEGA and chains[2].shift is parse_ordinal("w^w")
    for u in pool + tuple(chains):
        shift, core = _walk_chain(u)
        assert u.shift is shift and u.core is core, u
        assert is_singleton(u) == isinstance(core, Const), u
        if isinstance(core, Const):
            assert singleton_value(u) == core.q
        else:
            with pytest.raises(SingletonTermError):
                singleton_value(u)


def test_decomposition_laws():
    for u in enumerate_terms(2, 4, SUBS):
        d = term_decompose(u)
        assert not isinstance(d.core, Shift)
        # rewrapping the stripped chain restores the term
        rebuilt, t = d.core, u
        chain_alphas = []
        while isinstance(t, Shift):
            chain_alphas.append(t.alpha)
            t = t.body
        for a in reversed(chain_alphas):
            rebuilt = Shift(a, rebuilt)
        assert rebuilt is u
        assert term_rank(d.core) <= term_rank(u)
        if not d.shift.is_zero:
            assert term_rank(d.core) < term_rank(u)


def test_rank_examples():
    assert term_rank(Const(0)) == 0
    assert term_rank(T("Fq[0](1,1)")) == 1
    # longest-path oracle over the syntactic tree
    u = T("s[1](Fq[0](s[2](0)))")
    tree = syntax_tree(u)
    assert max(len(n) for n in tree.nodes) == 3
    assert term_rank(u) == 3


def test_leq_examples_with_oracle():
    cases = [
        (Const(0), Const(0), True),
        (Const(0), T("Fq[1](0)"), True),
        (T("Fq[0](1)"), T("Fq[1](0)"), False),
        (T("s[1](0)"), Const(0), True),
    ]
    for u, v, expect in cases:
        assert term_leq(Q2, u, v) is expect
        assert tree_leq(TermOrder(Q2), u, v) is expect


def test_leq_over_nontrivial_quasiorder():
    c2 = chain(2)
    assert term_leq(c2, Const(0), Const(1))
    assert not term_leq(c2, Const(1), Const(0))
    assert term_leq(c2, T("Fq[0](0)"), Const(1))


def test_tree_examples():
    t = term_tree(T("Fq[0](1)"))
    assert t.nodes == ((), (0,))
    assert t.labels[()] is Const(0) and t.labels[(0,)] is Const(1)
    u = T("s[1](Fq[0](1))")
    t = term_tree(u)
    assert t.nodes == ((),) and t.labels[()] is u
    t = term_tree(T("Fo[1](0,1)"))
    assert t.nodes == ((), (0,))
    assert t.labels[()] is T("s[1](0)") and t.labels[(0,)] is Const(1)


def test_paths_examples():
    assert term_paths(T("Fq[0](1)")) == {((),): 0, ((0,),): 1}
    with pytest.raises(SingletonTermError):
        term_paths(Const(0))
    with pytest.raises(SingletonTermError):
        term_paths(T("s[1](s[0](1))"))
    got = term_paths(T("Fq[0](s[1](Fq[1](0)))"))
    assert got == {((),): 0, ((0,), ()): 1, ((0,), (0,)): 0}


def test_paths_end_at_singletons():
    for u in enumerate_terms(2, 4, SUBS):
        if is_singleton(u):
            continue
        for seq, q in term_paths(u).items():
            assert len(seq) >= 1
            assert q in (0, 1)


def test_apply_aut_examples():
    swap = (1, 0)
    assert term_apply_aut(Q2, swap, T("Fq[0](1)")) is T("Fq[1](0)")
    assert term_apply_aut(Q2, swap, T("s[1](0)")) is T("s[1](1)")
    u = T("Fo[1](0,Fq[1](0))")
    assert term_apply_aut(Q2, (0, 1), u) is u
    with pytest.raises(NotAutomorphismError):
        term_apply_aut(chain(2), swap, Const(0))


def _leq_matrix(qo, terms):
    order = TermOrder(qo, terms)
    idx = {u: i for i, u in enumerate(terms)}
    rows = []
    for u in terms:
        row = 0
        for v in terms:
            if order.leq(u, v):
                row |= 1 << idx[v]
        rows.append(row)
    return rows


def test_leq_is_a_quasiorder_small():
    terms = enumerate_terms(2, 3, SUBS)
    rows = _leq_matrix(Q2, terms)
    for i, u in enumerate(terms):
        assert rows[i] >> i & 1, f"not reflexive at {u}"
        r = rows[i]
        j = 0
        while r >> j:
            if r >> j & 1:
                assert rows[j] & ~rows[i] == 0, "not transitive"
            j += 1


def test_leq_invariant_under_automorphisms():
    terms = enumerate_terms(2, 3, SUBS)
    swap = (1, 0)
    images = [term_apply_aut(Q2, swap, u) for u in terms]
    order = TermOrder(Q2, terms)
    for i, u in enumerate(terms):
        assert term_apply_aut(Q2, swap, images[i]) is u  # involution
        for j, v in enumerate(terms):
            assert order.leq(u, v) == order.leq(images[i], images[j])


def test_oracle_equivalence_small():
    terms = enumerate_terms(2, 3, SUBS, max_children=2)
    order = TermOrder(Q2, terms)
    for u in terms:
        for v in terms:
            assert order.leq(u, v) == tree_leq(order, u, v)


def test_rows_are_the_pairwise_order():
    # a table row holds exactly the terms above; a pair outside the table
    # gets a throwaway table of its own
    terms = enumerate_terms(2, 3, SUBS)
    order = TermOrder(Q2, terms)
    assert set(terms) <= set(order.index)
    u = T("Fq[0](1)")
    row = order.rows[order.index[u]]
    assert {v for v in terms if row >> order.index[v] & 1} \
        == {v for v in terms if tree_leq(order, u, v)}
    big = T("Fo[1](Fq[0](1),s[0](1),0)")
    assert big not in order.index
    assert order.leq(u, big) == tree_leq(order, u, big)
    assert order.leq(big, big)


def test_each_table_closes_each_base_once(monkeypatch):
    # the term order and the tree-map matcher over the order-sweep pool
    # (2 labels, at most 4 nodes, subscripts {0, 1}, at most 2 children)
    # close no base twice under one ancestor table; the order walks the
    # bits of each distinct (subscript, body row) and of each distinct
    # root row once, and the matcher reads the order's rows, never `leq`
    closed, tables, walks = {}, [], []

    def recorder(module):
        real = module.close_bits
        seen = closed[module.__name__] = Counter()

        def close_bits(bits, up):
            tables.append(up)  # kept alive, so no two tables share an id
            seen[id(up), bits] += 1
            return real(bits, up)
        monkeypatch.setattr(module, "close_bits", close_bits)

    def no_leq(order, u, v):
        raise AssertionError("hom_rows compared two labels by TermOrder.leq")

    def mask_points(mask, real=terms_module.mask_points):
        walks.append(mask)
        return real(mask)

    recorder(terms_module)
    recorder(labeled_trees)
    monkeypatch.setattr(terms_module, "mask_points", mask_points)
    terms = enumerate_terms(2, 4, SUBS, max_children=2)
    order = TermOrder(Q2, terms)
    monkeypatch.setattr(TermOrder, "leq", no_leq)
    hom_rows([term_tree(t) for t in order.index], order)
    assert len(terms) == 822
    for name, seen in closed.items():
        assert seen, name
        twice = [key for key, n in seen.items() if n > 1]
        assert not twice, (name, len(twice))
    row = {t: order.rows[order.index[t]] for t in order.index}
    bodies = {(t.alpha, row[t.body]) for t in order.index
              if isinstance(t, Shift)}
    roots = {row[Const(t.q) if isinstance(t, Fq) else
                 Shift(t.alpha, t.children[0])]
             for t in order.index if isinstance(t, (Fq, Fo))}
    # 204 shift terms with 10 distinct body rows per subscript, and 206
    # branch roots with 16 distinct rows; one more walk lists the constants
    assert sum(isinstance(t, Shift) for t in order.index) == 204
    assert Counter(a for a, _ in bodies) == {ZERO: 10, ONE: 10}
    assert len(roots) == 16
    assert len(walks) == 1 + len(bodies) + len(roots)


def test_tables_are_pinned_byte_for_byte():
    # SHA-256 over each term's string and its row's bytes, in index order,
    # for the term order and for the tree-map matcher's rows over the same
    # closure; the digests were taken before either table kept its walks
    # per distinct row
    want = {
        (2, 4, 2): "0a68f6c114d4a3f30276b0f701cda4dd"
                   "134ee23fcba01fe4eee9a6d8167ba58c",
        (3, 4, None): "debf1f91fe7a6849098483aeee52c79c"
                      "2b2920698ce877ed4f634d0b2f623de9",
        (2, 5, None): "9a9175265bb295bb492ccc34195974c3"
                      "e6ba52ce41ccb006d929087f8b4d0111",
    }
    for (k, nodes, children), digest in want.items():
        order = TermOrder(antichain(k),
                          enumerate_terms(k, nodes, SUBS, children))
        trees = hom_rows([term_tree(t) for t in order.index], order)
        width = (len(order.rows) + 7) // 8
        for rows in (order.rows, trees):
            h = hashlib.sha256()
            for t, r in zip(order.index, rows):
                h.update(term_to_str(t).encode() + b":"
                         + r.to_bytes(width, "little"))
            assert h.hexdigest() == digest, (k, nodes, children)
    assert len(order.index) == 7_990


def test_branches_keep_their_root_label_and_lower_children():
    for u in enumerate_terms(2, 4, SUBS):
        if isinstance(u, Fq):
            assert u.head is Const(u.q) and u.below is u.children
        elif isinstance(u, Fo):
            assert u.head is Shift(u.alpha, u.children[0])
            assert u.below == u.children[1:]
        else:
            continue
        tree = term_tree(u)
        assert tree.labels[()] is u.head
        assert sum(len(n) == 1 for n in tree.nodes) == len(u.below)


def test_a_chain_past_the_recursion_limit_builds_a_table():
    # the walk that numbers the closure is iterative
    u = Const(0)
    for _ in range(3000):
        u = Shift(ZERO, u)
    v = Fq(1, (u,))
    order = TermOrder(Q2, [u, v])
    assert order.leq(u, v) and not order.leq(v, u)


def test_constants_outside_the_quasiorder():
    check_constants(T("Fq[1](0)"), Q2)
    for text in ("2", "Fq[2](0)", "s[0](Fo[1](0,3))"):
        with pytest.raises(ValueError, match="of size 2"):
            check_constants(T(text), Q2)
    with pytest.raises(ValueError, match="constant 5 .* of size 2"):
        TermOrder(Q2, [T("Fq[0](5)")])
    with pytest.raises(ValueError, match="constant 2 .* of size 2"):
        term_leq(Q2, T("Fq[0](1)"), T("Fq[0](2)"))


def test_parser_round_trip():
    for u in enumerate_terms(3, 4, SUBS):
        assert parse_term(term_to_str(u)) is u
    for bad in ("", "s[", "Fq[0]()", "Fq()", "s[1]", "Fq[w](0)", "2,",
                "Fq[0](" * 3000 + "0" + ")" * 3000):
        with pytest.raises(TermParseError):
            parse_term(bad)


def test_subscript_bound():
    gamma = parse_ordinal("2")
    check_subscripts(T("s[1](Fo[0](1,0))"), gamma)
    with pytest.raises(SubscriptBoundError):
        parse_term("s[2](0)", gamma)
    with pytest.raises(SubscriptBoundError):
        parse_term("Fo[w](0)", gamma)
    parse_term("s[w](0)")  # unbounded by default


def test_enumeration_counts():
    # 2 constants; 2 subscripts each for the unary and ordinal-branch forms
    assert len(enumerate_terms(2, 1, SUBS)) == 2
    assert len(enumerate_terms(2, 2, SUBS)) == 2 + 12
    assert len(enumerate_terms(2, 2, ())) == 2 + 4
    two = enumerate_terms(2, 2, SUBS)
    assert len(set(two)) == len(two)


def test_term_interning_and_size():
    assert Fq(0, (Const(1),)) is Fq(0, (Const(1),))
    assert T("Fo[1](0,Fq[1](0))").nodes == 4
    assert singleton_value(T("s[1](s[0](1))")) == 1
    with pytest.raises(ValueError):
        Fq(0, ())


@pytest.mark.parametrize("make", [Const, lambda q: Fq(q, (Const(0),))])
@pytest.mark.parametrize("q", [True, False, 1.0])
def test_constants_are_plain_integers(make, q):
    # True, False and 1.0 equal a label, under which they would be interned
    with pytest.raises(ValueError, match="non-negative integers"):
        make(q)
    assert term_to_str(Const(1)) == "1" and type(Const(1).q) is int
