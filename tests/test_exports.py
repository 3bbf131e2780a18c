"""Every exported name resolves, and so does every finehier name the
benchmark in ``perfbench/`` reaches, so that retiring a name cannot leave
a dangling export or break the benchmark's calls."""

import ast
import importlib
import pkgutil
from pathlib import Path

import finehier
from finehier._memo import PairMemo
from finehier.hierarchy import TFamily, components, level_set_enum
from finehier.quasiorder import antichain
from finehier.spaces import sierpinski
from finehier.terms import TermOrder, parse_term, term_leq

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_export_resolves():
    for info in pkgutil.iter_modules(finehier.__path__):
        mod = importlib.import_module(f"finehier.{info.name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, (info.name, missing)
    # the package re-exports only names its modules export
    tree = ast.parse(Path(finehier.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            mod = importlib.import_module(f"finehier.{node.module}")
            for alias in node.names:
                assert alias.name in mod.__all__, (node.module, alias.name)
                assert hasattr(finehier, alias.name)


def _perfbench_names():
    """(module, name) for every ``from finehier.x import name`` and every
    ``alias.name`` read through ``import finehier.x as alias``."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("finehier")):
                for alias in node.names:
                    yield node.module, alias.name
            elif isinstance(node, ast.Import):
                aliases.update((a.asname, a.name) for a in node.names
                               if a.asname and a.name.startswith("finehier"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                yield aliases[node.value.id], node.attr


def test_benchmark_names_resolve():
    names = set(_perfbench_names())
    assert ("finehier.terms", "term_leq") in names
    for module, name in sorted(names):
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_benchmark_calls_keep_their_shape():
    S, qo = sierpinski(), antichain(2)
    fam = TFamily([(), (0,)], {(): S.full, (0,): 2})
    assert components(fam) == {(): 1, (0,): 2}
    u, v = parse_term("Fq[0](1)"), parse_term("Fq[1](0)")
    assert not TermOrder(qo).leq(u, v)  # a pair outside the table
    assert term_leq(qo, u, u) and not term_leq(qo, u, v)
    memo = PairMemo()
    memo.put(u, v, True)
    assert memo.get(u, v) is True and memo.get(v, u) is None
    assert level_set_enum(S, qo, u, max_families=100) == {(0, 0), (0, 1),
                                                          (1, 1)}
