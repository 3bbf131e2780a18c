import ast
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from finehier import labeled_trees, suites
from finehier.cli import build_parser, main
from finehier.labeled_trees import hom_leq
from finehier.quasiorder import Quasiorder, antichain, chain
from finehier.spaces import (QPartition, discrete, enum_cos,
                             enumerate_posets, product, sierpinski, wadge_leq)
from finehier.suites import SuiteConfig, SuiteReport, run_suite, \
    UnknownSuiteError, SUITE_NAMES
from finehier.terms import TermOrder, parse_term, term_to_str, term_tree

TINY = dict(max_nodes=2, max_subscript=1, max_points=2, max_q=2)
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_passes_at_tiny_bounds(suite):
    kw = dict(TINY)
    if suite == "hk":
        kw["max_nodes"] = 4
    rep = run_suite(SuiteConfig(suite=suite, **kw))
    assert rep.passed, rep.counterexamples[:3]
    assert rep.checked > 0
    # tests/golden holds the reports revision 5c4106a wrote at these
    # bounds, less the sampling and family-budget parameters, with the
    # qo-axioms and reduct counts of their exhaustive checks; refactors
    # must keep them byte for byte
    golden = (GOLDEN / f"{suite}.txt").read_text(encoding="utf-8")
    assert rep.text() == golden


def test_reports_deterministic():
    cfg = dict(suite="qo-axioms", max_nodes=3)
    a = run_suite(SuiteConfig(**cfg)).text()
    b = run_suite(SuiteConfig(**cfg)).text()
    assert a == b


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite(SuiteConfig(suite="nope"))


def test_report_shape():
    rep = SuiteReport("demo", {"k": 1})
    rep.checked = 3
    rep.fail("boom")
    assert not rep.passed
    assert "counterexample: boom" in rep.text()
    assert rep.to_json()["result"] == "FAIL"


def test_inclusion_reports_a_planted_violation_like_a_pairwise_scan(
        monkeypatch):
    # drop one labeling from the level of one term on one space; the
    # up-set check must then report exactly what a scan over every
    # comparable pair (decided by the tree-map matcher) reports
    cfg = SuiteConfig(suite="inclusion", max_nodes=3, max_points=2, max_q=2)
    target, dropped = parse_term("Fq[0](1)"), 1  # the labeling a:0 b:0
    real = suites.level_masks

    def planted(space, qo, terms):
        masks = real(space, qo, terms)
        if space.n == 2 and space.le[0][1]:
            assert masks[target] & dropped
            masks[target] &= ~dropped
        return masks

    monkeypatch.setattr(suites, "level_masks", planted)
    rep = run_suite(cfg)
    qo, terms = antichain(2), suites._terms(cfg, 2)
    spaces = suites._spaces(cfg)
    masks = [planted(space, qo, terms) for space in spaces]
    order = TermOrder(qo, terms)
    expect, pairs = [], 0
    for u in terms:
        for v in terms:
            if not hom_leq(term_tree(u), term_tree(v), order.leq):
                continue
            pairs += 1
            for si, space in enumerate(spaces):
                if masks[si][u] & ~masks[si][v]:
                    expect.append(f"k=2 {suites._space_tag(space)} "
                                  f"{term_to_str(u)} below {term_to_str(v)} "
                                  "but level sets are not nested")
    assert expect and rep.violations == len(expect)
    assert rep.counterexamples == expect
    assert rep.checked == pairs * len(spaces)


def _plant(monkeypatch):
    """Drop the labelings a:0 b:0 and a:1 b:1 from every level on the
    2-point chain a<b, for the suites and for the scans that check them;
    returns the planted `level_masks`."""
    real = suites.level_masks

    def planted(space, qo, terms):
        masks = real(space, qo, terms)
        if space.n == 2 and space.le[0][1]:
            dropped = 1 | 1 << qo.size + 1
            masks = {u: m & ~dropped for u, m in masks.items()}
        return masks

    monkeypatch.setattr(suites, "level_masks", planted)
    return planted


def test_wadge_closure_reports_a_planted_violation_like_a_pairwise_scan(
        monkeypatch):
    # per term, the first member labeling (ascending) with a reduct outside
    # the level, and the last such reduct, found by wadge_leq on every pair
    cfg = SuiteConfig(suite="wadge-closure", max_nodes=3, max_points=2,
                      max_q=3)
    planted = _plant(monkeypatch)
    rep = run_suite(cfg)
    expect, checked = [], 0
    for k in (2, 3):
        qo, terms = antichain(k), suites._terms(cfg, k)
        for space in suites._spaces(cfg):
            values = suites._partitions(space, qo)
            tags = [suites._part_tag(space, v) for v in values]
            parts = [QPartition(space, qo, v) for v in values]
            reducts = [[j for j, a in enumerate(parts) if wadge_leq(a, b)]
                       for b in parts]
            masks = planted(space, qo, terms)
            for u in terms:
                checked += 1
                for i in range(len(parts)):
                    outside = [j for j in reducts[i] if not masks[u] >> j & 1]
                    if masks[u] >> i & 1 and outside:
                        expect.append(f"k={k} {suites._space_tag(space)} "
                                      f"{term_to_str(u)}: {tags[outside[-1]]} "
                                      f"reduces to {tags[i]} but is outside")
                        break
    assert expect and rep.violations == len(expect)
    assert rep.counterexamples == expect
    assert rep.checked == checked


def test_preservation_reports_a_planted_violation_like_a_pairwise_scan(
        monkeypatch):
    # per map, term and target labeling A, A's bit on the target against the
    # bit of A o f (QPartition.precompose) on the source
    cfg = SuiteConfig(suite="preservation", max_nodes=3, max_points=2,
                      max_q=2)
    planted = _plant(monkeypatch)
    rep = run_suite(cfg)
    qo, terms = antichain(2), suites._terms(cfg, 2)
    _, proj, _ = product(sierpinski(), discrete(2, names=("0", "1")))
    maps = [(f, repr(f)) for X in suites._spaces(cfg)
            for Y in suites._spaces(cfg) for f in enum_cos(X, Y)]
    expect, checked = [], 0
    for f, name in maps + [(proj, "product projection")]:
        xparts = suites._partitions(f.src, qo)
        xmasks, ymasks = planted(f.src, qo, terms), planted(f.dst, qo, terms)
        for u in terms:
            for i, values in enumerate(suites._partitions(f.dst, qo)):
                checked += 1
                pulled = QPartition(f.dst, qo, values).precompose(f)
                if (ymasks[u] >> i & 1
                        != xmasks[u] >> xparts.index(pulled.values) & 1):
                    expect.append(f"k=2 {name} {term_to_str(u)} "
                                  f"{suites._part_tag(f.dst, values)}: "
                                  "membership is not preserved")
    assert expect and rep.violations == len(expect)
    assert rep.counterexamples == expect
    assert rep.checked == checked


def test_preservation_computes_each_space_and_map_once(monkeypatch):
    # each space's levels once per label count, whether the space is a
    # source, a target or the product projection's target; the maps once
    # per pair of spaces in the whole run
    levels, maps = Counter(), Counter()
    real_levels, real_maps = suites.level_masks, suites.enum_cos

    def counted_levels(space, qo, terms):
        levels[space, qo.size] += 1
        return real_levels(space, qo, terms)

    def counted_maps(X, Y):
        maps[X, Y] += 1
        return real_maps(X, Y)

    monkeypatch.setattr(suites, "level_masks", counted_levels)
    monkeypatch.setattr(suites, "enum_cos", counted_maps)
    cfg = SuiteConfig(suite="preservation", max_nodes=2, max_points=3,
                      max_q=3)
    assert run_suite(cfg).passed
    xs = suites._spaces(cfg)
    assert set(maps) == {(X, Y) for X in xs for Y in xs if Y.n <= 2}
    assert set(maps.values()) == {1}
    X4 = product(sierpinski(), discrete(2))[0]
    assert set(levels) == {(X, k) for X in xs + (X4,) for k in (2, 3)}
    assert set(levels.values()) == {1}


def test_qo_axioms_reports_every_broken_triple(monkeypatch):
    # drop one bit, 0 <= Fq[1](0), from one row of the term order; every
    # triple u <= v <= w with u not below w must then be reported
    cfg = SuiteConfig(suite="qo-axioms", **TINY)
    low, high = parse_term("0"), parse_term("Fq[1](0)")
    real = suites.TermOrder

    def dropped(qo, terms):
        order = real(qo, terms)
        assert order.leq(low, high)
        order.rows[order.index[low]] &= ~(1 << order.index[high])
        return order

    monkeypatch.setattr(suites, "TermOrder", dropped)
    rep = run_suite(cfg)
    terms = suites._terms(cfg, 2)
    leq = dropped(antichain(2), terms).leq
    expect = [f"not transitive at {term_to_str(u)} / {term_to_str(v)} / "
              f"{term_to_str(w)}" for u in terms for v in terms for w in terms
              if leq(u, v) and leq(v, w) and not leq(u, w)]
    assert expect and rep.counterexamples == expect


def test_hom_oracle_reports_a_planted_mismatch_like_a_pairwise_scan(
        monkeypatch):
    # flip two bits of one row of the term order, one true pair and one
    # false; the report must list what a scan over every pair with
    # `hom_leq` lists, in the same order
    cfg = SuiteConfig(suite="hom-oracle", max_q=2, max_nodes=3)
    u, yes, no = (parse_term(t) for t in ("Fq[0](1)", "Fq[1](Fq[0](1))", "1"))
    real = suites.TermOrder

    def planted(qo, terms):
        order = real(qo, terms)
        assert order.leq(u, yes) and not order.leq(u, no)
        order.rows[order.index[u]] ^= (1 << order.index[yes]
                                       | 1 << order.index[no])
        return order

    monkeypatch.setattr(suites, "TermOrder", planted)
    rep = run_suite(cfg)
    terms = suites._terms(cfg, 2)
    order = planted(antichain(2), terms)
    expect = []
    for a in terms:
        for b in terms:
            s = order.leq(a, b)
            t = hom_leq(term_tree(a), term_tree(b), order.leq)
            if s != t:
                expect.append(f"structural={s} tree-map={t} at "
                              f"{term_to_str(a)} vs {term_to_str(b)}")
    assert len(expect) == 2
    assert rep.counterexamples == expect
    assert rep.checked == len(terms) ** 2


def test_hom_oracle_runs_no_pairwise_matcher(monkeypatch):
    # the suite decides whole rows; the pair-at-a-time matcher is only the
    # oracle that the rows are tested against
    def refuse(*args):
        raise AssertionError("pairwise matcher called")

    monkeypatch.setattr(labeled_trees, "_emb", refuse)
    rep = run_suite(SuiteConfig(suite="hom-oracle", max_q=2, max_nodes=4,
                                max_subscript=1, max_children=2))
    assert rep.passed and rep.checked == 822 ** 2


def test_every_bound_is_read_by_a_suite():
    # a configuration field that no suite reads is a dead knob
    tree = ast.parse(Path(suites.__file__).read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"}
    bounds = {f.name for f in fields(SuiteConfig)} - {"suite"}
    assert bounds <= read, bounds - read


# --- command line ----------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_ord(capsys):
    code, out, _ = run_cli(capsys, "ord", "w+w^2*3+1")
    assert code == 0 and out.strip() == "w^2*3+1"
    code, out, _ = run_cli(capsys, "ord", "w^2+w", "--add", "w^2")
    assert out.strip() == "w^2*2"
    code, out, _ = run_cli(capsys, "ord", "w+1", "--cmp", "w")
    assert out.strip() == "greater"
    code, out, _ = run_cli(capsys, "ord", "w^2+w+1", "--star")
    assert out.strip() == "w^2"
    code, out, _ = run_cli(capsys, "ord", "5", "--json")
    assert json.loads(out) == {"result": "5"}
    code, _, err = run_cli(capsys, "ord", "bogus(")
    assert code == 2 and "error" in err


def test_cli_fmap(capsys):
    code, out, _ = run_cli(capsys, "fmap", "w^w*2+3")
    assert code == 0 and out.strip() == "w1^w1*2+3"
    code, out, _ = run_cli(capsys, "fmap", "0")
    assert out.strip() == "0"


def test_cli_term(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "term", "rank", "s[1](Fq[0](s[2](0)))")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run_cli(capsys, "term", "decompose", "s[2](s[1](Fq[0](1)))")
    assert "shift: w^2+w" in out and "core: Fq[0](1)" in out
    code, out, _ = run_cli(capsys, "term", "paths", "Fq[0](s[1](Fq[1](0)))")
    assert "e -> 0" in out and "0;0 -> 0" in out and "0;e -> 1" in out
    code, out, _ = run_cli(capsys, "term", "cmp", "s[1](0)", "0")
    assert out.strip() == "true"
    code, out, _ = run_cli(capsys, "term", "cmp", "Fq[0](1)", "Fq[1](0)")
    assert out.strip() == "false"
    dot = tmp_path / "t.dot"
    code, out, _ = run_cli(capsys, "term", "tree", "Fo[1](0,1)",
                           "--dot", str(dot))
    assert code == 0 and dot.read_text().startswith("digraph")
    code, out, _ = run_cli(capsys, "term", "tree", "Fo[1](0,1)", "--json")
    doc = json.loads(out)
    assert doc["labels"][""] == "s[1](0)"
    code, _, err = run_cli(capsys, "term", "rank", "s[2](0)", "--gamma", "2")
    assert code == 2


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_homcmp(capsys, tmp_path):
    t1 = _write(tmp_path, "t1.json", {"nodes": [""], "labels": {"": 0}})
    t2 = _write(tmp_path, "t2.json",
                {"nodes": ["", "0"], "labels": {"": 1, "0": 0}})
    q = _write(tmp_path, "q.json", {"size": 2, "le": []})
    code, out, _ = run_cli(capsys, "homcmp", t1, t2, "--q", q)
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "homcmp", t2, t1, "--q", q)
    assert out.strip() == "false"


@pytest.fixture
def sierp(tmp_path):
    return _write(tmp_path, "s.json",
                  {"points": ["a", "b"], "le": [["a", "b"]]})


def test_cli_space(capsys, tmp_path, sierp):
    code, out, _ = run_cli(capsys, "space", "check", "--space", sierp)
    assert code == 0 and "opens: 3" in out
    code, out, _ = run_cli(capsys, "space", "meager", "--space", sierp,
                           "--set", "a")
    assert out.strip() == "true"
    code, out, _ = run_cli(capsys, "space", "meager", "--space", sierp,
                           "--set", "b")
    assert out.strip() == "false"
    prod = _write(tmp_path, "p.json", {
        "points": ["a0", "a1", "b0", "b1"],
        "le": [["a0", "b0"], ["a1", "b1"]]})
    mp = _write(tmp_path, "m.json", {"values": {"a0": "a", "a1": "a",
                                                "b0": "b", "b1": "b"}})
    code, out, _ = run_cli(capsys, "space", "catq", "--space", prod,
                           "--target", sierp, "--map", mp, "--set", "b0")
    assert code == 0 and out.strip() == "b"
    a = _write(tmp_path, "A.json", {"values": {"a": 1, "b": 0}})
    b = _write(tmp_path, "B.json", {"values": {"a": 0, "b": 1}})
    code, out, _ = run_cli(capsys, "space", "wadge", a, b, "--space", sierp)
    assert out.strip() == "false"


def test_cli_family_member_levelset(capsys, tmp_path, sierp):
    fam = _write(tmp_path, "f.json", {
        "term": "Fq[0](1)", "carrier": ["a", "b"],
        "sets": {"": ["a", "b"], "0": ["b"]}})
    code, out, _ = run_cli(capsys, "family", "eval", fam, "--space", sierp,
                           "--term", "Fq[0](1)")
    assert code == 0 and out.strip() == "a:0 b:1"
    bad = _write(tmp_path, "g.json", {
        "term": "Fq[0](1,0)", "carrier": ["a", "b"],
        "sets": {"": ["a", "b"], "0": ["b"], "1": ["b"]}})
    code, out, _ = run_cli(capsys, "family", "eval", bad, "--space", sierp,
                           "--term", "Fq[0](1,0)", "--json")
    assert json.loads(out) == {"undetermined": {"point": "b", "labels": [0, 1]}}
    code, out, _ = run_cli(capsys, "family", "reduct", bad, "--space", sierp,
                           "--term", "Fq[0](1,0)", "--json")
    doc = json.loads(out)
    assert doc["sets"]["1"] == []
    part = _write(tmp_path, "a01.json", {"values": {"a": 0, "b": 1}})
    code, out, _ = run_cli(capsys, "member", part, "--space", sierp,
                           "--term", "Fq[0](1)")
    assert out.strip() == "true"
    code, out, _ = run_cli(capsys, "member", part, "--space", sierp,
                           "--term", "Fq[1](0)")
    assert out.strip() == "false"
    code, out, _ = run_cli(capsys, "levelset", "--space", sierp,
                           "--term", "Fq[0](1)")
    assert "count: 3" in out


def test_cli_reduct_without_reduction_property(capsys, tmp_path):
    # a<c, b<c: the family determines 0 everywhere, but {a,c} and {b,c}
    # have no disjoint open refinement
    vee = _write(tmp_path, "v.json",
                 {"points": ["a", "b", "c"], "le": [["a", "c"], ["b", "c"]]})
    fam = _write(tmp_path, "f.json", {
        "term": "Fq[0](0,0)", "carrier": ["a", "b", "c"],
        "sets": {"": ["a", "b", "c"], "0": ["a", "c"], "1": ["b", "c"]}})
    code, out, _ = run_cli(capsys, "family", "eval", fam, "--space", vee)
    assert code == 0 and out.strip() == "a:0 b:0 c:0"
    code, out, err = run_cli(capsys, "family", "reduct", fam, "--space", vee)
    assert code == 2 and out == ""
    assert err.startswith("error: no reduct for {a,c} {b,c} at the children "
                          "of node root")


def _assert_usage_error(*argv):
    """The CLI, run in a child process so that a traceback would show,
    exits 2 with one ``error:`` line; returns that line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run([sys.executable, "-m", "finehier.cli", *argv],
                         capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr
    return res.stderr


@pytest.mark.parametrize("values", [{"a": "0"}, {"a": True}, {"z": 0}])
def test_cli_rejects_bad_partition(tmp_path, sierp, values):
    part = _write(tmp_path, "p.json", {"values": dict({"b": 1}, **values)})
    _assert_usage_error("member", part, "--space", sierp, "--term", "Fq[0](1)")


@pytest.mark.parametrize("argv", [
    ("term", "rank", "s[0](" * 3000 + "0" + ")" * 3000),
    ("ord", "w^" * 3000 + "1"),
    ("term", "rank", "s[" + "w^(" * 3000 + "1" + ")" * 3000 + "](0)"),
])
def test_cli_rejects_deep_literals(argv):
    assert "nests over 100 levels" in _assert_usage_error(*argv)


@pytest.mark.parametrize("action", ["tree", "paths"])
def test_cli_rejects_node_keys_past_nine(action):
    # the eleventh child of the root has index 10, two digits in a key
    term = "Fq[0](0,0,0,0,0,0,0,0,0,0,Fq[1](0))"
    assert "child index above 9" in _assert_usage_error("term", action, term)


def test_cli_needs_a_space():
    assert (_assert_usage_error("space", "check")
            == "error: --space <file> is required here\n")


def test_cli_needs_a_term_for_a_family(tmp_path, sierp):
    family = _write(tmp_path, "f.json", {"carrier": ["a", "b"],
                                         "sets": {"": ["a", "b"]}})
    assert (_assert_usage_error("family", "eval", family, "--space", sierp)
            == "error: give --term or a 'term' field in the family file\n")


def test_cli_rejects_partial_point_map(tmp_path, sierp):
    mp = _write(tmp_path, "m.json", {"values": {"a": "a"}})
    err = _assert_usage_error("space", "catq", "--space", sierp, "--target",
                              sierp, "--map", mp, "--set", "a")
    assert err == "error: point map leaves out source point 'b'\n"


@pytest.mark.parametrize("argv", [
    ("term", "cmp", "Fq[0](1)", "Fq[0](2)"),
    ("term", "cmp", "5", "1"),
    ("levelset", "--term", "Fq[5](0)"),
    ("member", "PARTITION", "--term", "Fq[5](0)"),
])
def test_cli_rejects_constants_outside_the_quasiorder(tmp_path, sierp, argv):
    q2 = _write(tmp_path, "q.json", {"size": 2, "le": []})
    part = _write(tmp_path, "p.json", {"values": {"a": 0, "b": 1}})
    argv = [part if a == "PARTITION" else a for a in argv] + ["--q", q2]
    if argv[0] != "term":
        argv += ["--space", sierp]
    err = _assert_usage_error(*argv)
    assert err.startswith("error: constant ")
    assert err.endswith("is not an element of the label quasiorder of "
                        "size 2\n")


@pytest.mark.parametrize("argv, message", [
    (("member", "[1, 2]", "--term", "0"), "a partition must be"),
    (("member", '{"values": [0, 1]}', "--term", "0"),
     "partition values must be"),
    (("space", "wadge", "[1, 2]", "[1, 2]"), "a partition must be"),
    (("space", "wadge", '{"values": [0, 1]}', '{"values": [0, 1]}'),
     "partition values must be"),
    (("member", '{"values": {"a": 0}}', "--term", "0",
      "--q", '{"size": "x"}'), "quasiorder size 'x' is not a natural number"),
    (("family", "eval", '{"term": "Fq[0](1)", "carrier": ["a", "b"], '
      '"sets": {"": ["a", "b"], "0": ["b"]}, "children": []}'),
     "family children must be"),
    (("family", "eval", "[1, 2]"), "a family must be"),
    (("space", "check", "--space", "[1, 2]"), "a space must be"),
    (("family", "eval", '{"term": "Fq[0](1)", "carrier": ["a", "b"], '
      '"sets": {"": ["a", "b"], "0": ["b"]}, '
      '"children": {"5": {"term": "0"}}}'),
     "family children key '5' is not a node of the flattened tree"),
])
def test_cli_rejects_malformed_documents(tmp_path, sierp, argv, message):
    # every JSON argument goes to a file; --space defaults to the
    # Sierpinski space
    argv = [_write(tmp_path, f"d{i}.json", json.loads(a)) if a[0] in "[{"
            else a for i, a in enumerate(argv)]
    if "--space" not in argv:
        argv += ["--space", sierp]
    assert _assert_usage_error(*argv).startswith(f"error: {message}")


@pytest.mark.parametrize("argv, message", [
    (("space", "check", "--space", '{"points": 5, "le": []}'),
     "space points must be a JSON array"),
    (("space", "check", "--space", '{"points": ["a"], "le": [5]}'),
     "space order pairs must be a JSON array of arrays"),
    (("homcmp", '{"nodes": [0], "labels": {"": 0}}',
      '{"nodes": [""], "labels": {"": 0}}'),
     "tree nodes must be a JSON array of strings"),
    (("levelset", "--term", "Fq[0](1)", "--base", '{"steps": 5}'),
     "base steps must be a JSON array of objects"),
    (("levelset", "--term", "Fq[0](1)", "--base",
      '{"steps": [{"threshold": "0", "sets": 3}]}'),
     "base step sets must be a JSON array of arrays"),
    (("term", "cmp", "Fq[0](1)", "1", "--q", '{"size": 2, "le": 5}'),
     "quasiorder pairs must be a JSON array of arrays"),
    (("family", "eval", '{"term": "Fq[0](1)", "carrier": ["a", "b"], '
      '"sets": {"": ["a", "b"], "0": 5}}'), "family set '0' must be"),
    (("family", "eval", '{"term": "Fq[0](1)", "carrier": 5, '
      '"sets": {"": ["a", "b"], "0": ["b"]}}'), "family carrier must be"),
    (("family", "eval", '{"term": 5, "carrier": ["a", "b"], '
      '"sets": {"": ["a", "b"], "0": ["b"]}}'), "a literal must be a string"),
    (("levelset", "--term", "Fq[0](1)", "--base",
      '{"steps": [{"threshold": 0, "sets": [[]]}]}'),
     "a literal must be a string"),
    (("space", "check", "--space",
      '{"points": ["a", "b"], "le": [["a", "b", "c"]]}'),
     "space order pairs must have two members each, got ['a', 'b', 'c']"),
    (("term", "cmp", "0", "1", "--q", '{"size": 2, "le": [[0, 1, 1]]}'),
     "quasiorder pairs must have two members each, got [0, 1, 1]"),
    (("homcmp", '{"nodes": ["", "0a"], "labels": {"": 0, "0a": 0}}',
      '{"nodes": [""], "labels": {"": 0}}'),
     "tree node '0a' is not a string of digits"),
    (("family", "eval", '{"term": "Fq[0](1)", "carrier": ["a", "b"], '
      '"sets": {"": ["a", "b"], "x": ["b"]}}'),
     "family set key 'x' is not a string of digits"),
    (("space", "check", "--space", '{"points": [1, [2]], "le": []}'),
     "space points must be a JSON array of strings"),
    (("space", "check", "--space", '{"points": ["a", "b"]}'),
     "a space has no 'le' field"),
    (("term", "cmp", "0", "1", "--q", '{"le": []}'),
     "a quasiorder has no 'size' field"),
    (("family", "eval", '{"term": "Fq[0](1)", '
      '"sets": {"": ["a", "b"], "0": ["b"]}}'),
     "a family has no 'carrier' field"),
    (("levelset", "--term", "Fq[0](1)", "--base",
      '{"steps": [{"sets": [["a"]]}]}'),
     "a base step has no 'threshold' field"),
    (("term", "cmp", "0", "1", "--q", '{"size": 2, "names": {"0": 5}}'),
     "quasiorder names must map 0..1 to strings, got '0': 5"),
    (("term", "cmp", "0", "1", "--q", '{"size": 2, "names": {"7": "x"}}'),
     "quasiorder names must map 0..1 to strings, got '7': 'x'"),
])
def test_cli_rejects_fields_of_the_wrong_type(tmp_path, sierp, argv, message):
    argv = [_write(tmp_path, f"d{i}.json", json.loads(a)) if a[0] in "[{"
            else a for i, a in enumerate(argv)]
    if argv[0] in ("levelset", "family"):
        argv += ["--space", sierp]
    assert _assert_usage_error(*argv).startswith(f"error: {message}")


@pytest.mark.parametrize("flag", ["--max-children"])
def test_cli_rejects_negative_bounds(flag):
    name = flag[2:].replace("-", "_")
    assert (_assert_usage_error("check", "reduct", flag, "-1")
            == f"error: {name} must be at least 0\n")
    with pytest.raises(ValueError):
        SuiteConfig(suite="reduct", **{name: -1})


@pytest.mark.parametrize("suite", ["inclusion", "wadge-closure",
                                   "preservation", "hk"])
def test_cli_rejects_label_sweeps_without_two_labels(suite):
    # these suites sweep the label counts 2 .. max_q; below 2 they would
    # check nothing and still pass
    assert (_assert_usage_error("check", suite, "--max-q", "1")
            == f"error: max_q must be at least 2 for {suite}\n")
    with pytest.raises(ValueError):
        SuiteConfig(suite=suite, max_q=1)


def test_cli_check_hk_reports_the_labelings_no_small_term_reaches(capsys):
    # one-node terms are constants, whose levels hold only the constant
    # labelings, so every 2-point labeling with two labels lacks a witness
    code, out, _ = run_cli(capsys, "check", "hk", "--max-nodes", "1",
                           "--max-points", "2", "--max-q", "2")
    assert code == 1
    assert "checked: 10\nviolations: 4\n" in out
    assert [line for line in out.splitlines()
            if line.startswith("counterexample: ")] == [
        f"counterexample: k=2 {space} {labels}: no witness term within 1 "
        "nodes" for space in ("[a b;]", "[a b;a<b]")
        for labels in ("{a:0,b:1}", "{a:1,b:0}")]
    assert out.endswith("result: FAIL\n")


def test_cli_check_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["check", "fmap"])
    cfg = SuiteConfig(suite="fmap")
    assert {name: getattr(args, name) for name in vars(cfg)} == vars(cfg)


def test_cli_homcmp_default_quasiorder_covers_the_labels(capsys, tmp_path):
    t5 = _write(tmp_path, "t5.json", {"nodes": [""], "labels": {"": 5}})
    t50 = _write(tmp_path, "t50.json",
                 {"nodes": ["", "0"], "labels": {"": 0, "0": 5}})
    code, out, _ = run_cli(capsys, "homcmp", t5, t50)
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "homcmp", t50, t5)
    assert code == 0 and out.strip() == "false"


@pytest.mark.parametrize("label, q, message", [
    ("x", None, "label 'x' is not an integer"),
    (True, None, "label True is not an integer"),
    (-1, None, "label -1 outside the quasiorder"),
    (5, {"size": 2, "le": []}, "label 5 outside the quasiorder"),
])
def test_cli_homcmp_rejects_bad_labels(tmp_path, label, q, message):
    bad = _write(tmp_path, "bad.json",
                 {"nodes": ["", "0"], "labels": {"": 0, "0": label}})
    good = _write(tmp_path, "good.json", {"nodes": [""], "labels": {"": 1}})
    argv = ["homcmp", good, bad]
    if q is not None:
        argv += ["--q", _write(tmp_path, "q.json", q)]
    assert _assert_usage_error(*argv) == f"error: {message}\n"


def test_cli_family_pull_push(capsys, tmp_path, sierp):
    prod = _write(tmp_path, "p.json", {
        "points": ["a0", "a1", "b0", "b1"],
        "le": [["a0", "b0"], ["a1", "b1"]]})
    mp = _write(tmp_path, "m.json", {"values": {"a0": "a", "a1": "a",
                                                "b0": "b", "b1": "b"}})
    fam = _write(tmp_path, "f.json", {
        "term": "Fq[0](1)", "carrier": ["a", "b"],
        "sets": {"": ["a", "b"], "0": ["b"]}})
    code, out, _ = run_cli(capsys, "family", "pull", fam, "--space", sierp,
                           "--target", prod, "--map", mp, "--json")
    doc = json.loads(out)
    assert doc["sets"]["0"] == ["b0", "b1"]
    pulled = _write(tmp_path, "pulled.json", doc)
    code, out, _ = run_cli(capsys, "family", "push", pulled, "--space", prod,
                           "--target", sierp, "--map", mp, "--json")
    doc = json.loads(out)
    assert doc["sets"]["0"] == ["b"]


def test_cli_check(capsys, tmp_path):
    out_path = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "check", "fmap", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == out
    assert out.endswith("result: PASS\n")
    code, out, _ = run_cli(capsys, "check", "meager-oracle", "--max-points",
                           "2", "--json")
    assert code == 0 and json.loads(out)["result"] == "PASS"
    with pytest.raises(SystemExit) as exc:
        main(["check", "not-a-suite"])
    assert exc.value.code == 2


@pytest.mark.parametrize("content", [b"{not json", b'{"points": ["\xff"]}'])
def test_cli_rejects_documents_that_are_not_json_text(tmp_path, content):
    path = tmp_path / "space.json"
    path.write_bytes(content)
    _assert_usage_error("space", "check", "--space", str(path))


@pytest.mark.parametrize("argv", [
    ("space", "check", "--space", "DEEP"),
    ("family", "eval", "FAMILY"),
    ("member", "DEEP", "--term", "0"),
    ("levelset", "--term", "0", "--base", "DEEP"),
    ("homcmp", "DEEP", "DEEP"),
    ("term", "cmp", "0", "1", "--q", "DEEP"),
])
def test_cli_rejects_documents_nested_past_the_recursion_limit(
        tmp_path, sierp, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    # a family nested 1,500 levels down, written as text because json.dumps
    # would itself overflow
    sets = '"carrier": ["a", "b"], "sets": {"": ["a", "b"]}'
    family = tmp_path / "family.json"
    family.write_text('{"term": "Fo[0](0)", ' + sets
                      + (', "children": {"": {' + sets) * 1_500
                      + "}}" * 1_500 + "}")
    argv = [{"DEEP": str(deep), "FAMILY": str(family)}.get(a, a)
            for a in argv]
    if argv[0] in ("member", "levelset", "family"):
        argv += ["--space", sierp]
    assert (_assert_usage_error(*argv)
            == "error: the JSON document is nested too deeply\n")


def test_cli_missing_file(capsys):
    code, _, err = run_cli(capsys, "space", "check", "--space", "/nope.json")
    assert code == 2 and "error" in err


def test_wadge_closure_medium_bounds():
    # downward closure under continuous reducibility for antichain labels
    rep = run_suite(SuiteConfig(suite="wadge-closure", max_nodes=3,
                                max_points=3, max_q=3))
    assert rep.passed, rep.counterexamples[:3]
    assert rep.checked > 1000


@pytest.mark.parametrize("qo", [
    antichain(2), antichain(3), chain(2), chain(3),
    Quasiorder.from_pairs(3, [(0, 1), (0, 2)]),
], ids=["antichain2", "antichain3", "chain2", "chain3", "V"])
def test_wadge_rows_match_the_pairwise_oracle(qo):
    # the row of B holds exactly the labelings A with A <=_W B
    for space in [s for n in (1, 2, 3) for s in enumerate_posets(n)]:
        parts = [QPartition(space, qo, values)
                 for values in suites._partitions(space, qo)]
        for b, row in zip(parts, suites._wadge_rows(space, qo)):
            assert row == sum(1 << i for i, a in enumerate(parts)
                              if wadge_leq(a, b))
