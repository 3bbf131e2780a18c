"""Command-line front-end: thin wrappers over the library plus the suite
runner.

Exit codes: 0 all good, 1 a suite found a violation, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .hierarchy import (borel, Base, member, level_set, family_eval,
                        family_reduct, family_pullback, family_pushforward,
                        family_from_json, family_to_json, NotDetermined)
from .labeled_trees import LabeledTree, hom_leq, tree_to_dot, node_key
from .ordinals import parse_ordinal, ord_to_str, ord_add, ord_cmp, ord_star, f_map, wadge_to_str
from .quasiorder import Quasiorder, antichain, json_parse
from .spaces import (FinSpace, ContMap, QPartition, is_meager, cat_quantifier,
                     wadge_leq)
from .suites import SuiteConfig, run_suite, SUITE_NAMES
from .terms import (parse_term, term_to_str, term_rank, term_decompose,
                    term_paths, term_leq, term_tree, syntax_tree)


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json_parse(fh.read())


def _emit(args, doc, text):
    if getattr(args, "json", False):
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(text)


def _space_of(args):
    if not getattr(args, "space", None):
        raise ValueError("--space <file> is required here")
    return FinSpace.from_json(_load_json(args.space))


def _qo_of(args, *labels):
    """The quasiorder of --q, else the antichain on 0 .. the largest label
    in use (on 0 and 1 when no label is given)."""
    if getattr(args, "q", None):
        return Quasiorder.from_json(_load_json(args.q))
    return antichain(max(labels, default=1) + 1)


def _gamma_of(args):
    g = getattr(args, "gamma", None)
    return parse_ordinal(g) if g else None


def _base_of(args, space):
    name = getattr(args, "base", None) or "borel"
    if name == "borel":
        return borel(space)
    return Base.from_json(space, _load_json(name))


def _term_of(args, text=None):
    return parse_term(text if text is not None else args.term, _gamma_of(args))


def _names_list(text):
    return [x for x in text.split(",") if x] if text else []


# --- command handlers -----------------------------------------------------------


def _cmd_ord(args):
    a = parse_ordinal(args.expr)
    if args.add is not None:
        r = ord_add(a, parse_ordinal(args.add))
        _emit(args, {"result": ord_to_str(r)}, ord_to_str(r))
    elif args.cmp is not None:
        c = ord_cmp(a, parse_ordinal(args.cmp))
        word = {-1: "less", 0: "equal", 1: "greater"}[c]
        _emit(args, {"result": word}, word)
    elif args.star:
        r = ord_star(a)
        _emit(args, {"result": ord_to_str(r)}, ord_to_str(r))
    else:
        _emit(args, {"result": ord_to_str(a)}, ord_to_str(a))
    return 0


def _cmd_fmap(args):
    img = f_map(parse_ordinal(args.expr))
    _emit(args, {"result": wadge_to_str(img)}, wadge_to_str(img))
    return 0


def _path_key(seq):
    return ";".join(node_key(node) or "e" for node in seq)


def _cmd_term(args):
    if args.action == "cmp":
        u, v = _term_of(args, args.left), _term_of(args, args.right)
        qo = _qo_of(args, u.maxq, v.maxq)
        r = term_leq(qo, u, v)
        _emit(args, {"result": r}, "true" if r else "false")
        return 0
    u = _term_of(args, args.literal)
    if args.action == "rank":
        r = term_rank(u)
        _emit(args, {"result": r}, str(r))
    elif args.action == "decompose":
        d = term_decompose(u)
        doc = {"shift": ord_to_str(d.shift), "core": term_to_str(d.core)}
        _emit(args, doc, f"shift: {doc['shift']}\ncore: {doc['core']}")
    elif args.action == "paths":
        paths = term_paths(u)
        doc = {_path_key(k): v for k, v in sorted(paths.items())}
        text = "\n".join(f"{k} -> {v}" for k, v in sorted(doc.items()))
        _emit(args, {"paths": doc}, text)
    elif args.action == "tree":
        tree = syntax_tree(u) if args.syntax else term_tree(u)
        label = (lambda t: t) if args.syntax else term_to_str
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(tree_to_dot(tree, label_str=label))
            print(f"wrote {args.dot}")
        else:
            doc = tree.to_json()
            doc["labels"] = {k: label(l) for k, l in doc["labels"].items()}
            _emit(args, doc, json.dumps(doc, sort_keys=True))
    return 0


def _cmd_homcmp(args):
    T = LabeledTree.from_json(_load_json(args.left))
    V = LabeledTree.from_json(_load_json(args.right))
    labels = [*T.labels.values(), *V.labels.values()]
    qo = _qo_of(args, *(l for l in labels if type(l) is int))
    for l in labels:
        qo.check_label(l)
    r = hom_leq(T, V, qo.leq)
    _emit(args, {"result": r}, "true" if r else "false")
    return 0


def _cmd_space(args):
    space = _space_of(args)
    if args.action == "check":
        doc = {"points": list(space.names),
               "opens": [list(space.set_of_names(m)) for m in space.opens()]}
        _emit(args, doc,
              f"points: {' '.join(space.names)}\nopens: {len(space.opens())}")
    elif args.action == "meager":
        mask = space.mask_of_names(_names_list(args.set))
        within = (space.mask_of_names(_names_list(args.within))
                  if args.within else None)
        r = is_meager(space, mask, within)
        _emit(args, {"result": r}, "true" if r else "false")
    elif args.action == "catq":
        target = FinSpace.from_json(_load_json(args.target))
        f = ContMap.from_json(space, target, _load_json(args.map))
        out = cat_quantifier(f, space.mask_of_names(_names_list(args.set)))
        names = list(target.set_of_names(out))
        _emit(args, {"result": names}, ",".join(names) if names else "(empty)")
    elif args.action == "wadge":
        qo = _qo_of(args)
        A = QPartition.from_json(space, qo, _load_json(args.left))
        B = QPartition.from_json(space, qo, _load_json(args.right))
        r = wadge_leq(A, B)
        _emit(args, {"result": r}, "true" if r else "false")
    return 0


def _partition_text(space, A):
    return " ".join(f"{space.names[p]}:{v}"
                    for p, v in enumerate(A.values) if v is not None)


def _cmd_family(args):
    space = _space_of(args)
    doc = _load_json(args.family)
    F = family_from_json(space, doc)
    text = args.term if args.term else doc.get("term")
    if not text:
        raise ValueError("give --term or a 'term' field in the family file")
    u = _term_of(args, text)
    base = _base_of(args, space)
    if args.action == "eval":
        qo = _qo_of(args, u.maxq)
        res = family_eval(F, u, base, qo)
        if isinstance(res, NotDetermined):
            doc = res.to_json(space)
            _emit(args, doc,
                  f"undetermined at {space.names[res.point]}: "
                  f"labels {list(res.labels)}")
        else:
            _emit(args, res.to_json(), _partition_text(space, res))
        return 0
    if args.action == "reduct":
        G = family_reduct(F, u, base)
        doc = family_to_json(space, G, u)
        _emit(args, doc, json.dumps(doc, sort_keys=True))
        return 0
    target = FinSpace.from_json(_load_json(args.target))
    if args.action == "pull":
        # the family lives over the map's target; sets pull back to the source
        f = ContMap.from_json(target, space, _load_json(args.map))
        G = family_pullback(f, F, u, base)
        doc = family_to_json(target, G, u)
    else:
        f = ContMap.from_json(space, target, _load_json(args.map))
        G = family_pushforward(f, F, u, base)
        doc = family_to_json(target, G, u)
    _emit(args, doc, json.dumps(doc, sort_keys=True))
    return 0


def _cmd_member(args):
    space = _space_of(args)
    u = _term_of(args)
    qo = _qo_of(args, u.maxq)
    base = _base_of(args, space)
    A = QPartition.from_json(space, qo, _load_json(args.partition))
    r = member(A, u, base)
    _emit(args, {"result": r}, "true" if r else "false")
    return 0


def _cmd_levelset(args):
    space = _space_of(args)
    u = _term_of(args)
    qo = _qo_of(args, u.maxq)
    base = _base_of(args, space)
    out = level_set(space, qo, u, base)
    doc = {"count": len(out), "partitions": [A.to_json()["values"] for A in out]}
    text = "\n".join([f"count: {len(out)}"]
                     + [_partition_text(space, A) for A in out])
    _emit(args, doc, text)
    return 0


def _cmd_check(args):
    cfg = SuiteConfig(**{f.name: getattr(args, f.name)
                         for f in fields(SuiteConfig)})
    rep = run_suite(cfg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rep.text())
    if args.json:
        print(json.dumps(rep.to_json(), sort_keys=True, indent=2))
    else:
        sys.stdout.write(rep.text())
    return 0 if rep.passed else 1


# --- parser ----------------------------------------------------------------------


def _add_common(p, *flags):
    if "q" in flags:
        p.add_argument("--q", metavar="FILE", help="label quasiorder JSON")
    if "space" in flags:
        p.add_argument("--space", metavar="FILE", help="space JSON")
    if "base" in flags:
        p.add_argument("--base", default="borel", metavar="borel|FILE")
    if "term" in flags:
        p.add_argument("--term", required=True, metavar="LITERAL")
    if "term-opt" in flags:
        p.add_argument("--term", metavar="LITERAL",
                       help="defaults to the family document's term")
    if "gamma" in flags:
        p.add_argument("--gamma", metavar="ORD",
                       help="signature bound on subscripts")
    p.add_argument("--json", action="store_true", help="machine output")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="finehier",
        description="iterated difference hierarchies of Q-partitions on "
                    "finite T0 spaces")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("ord", help="normalize or combine ordinal literals")
    p.add_argument("expr")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--add", metavar="ORD")
    g.add_argument("--cmp", metavar="ORD")
    g.add_argument("--star", action="store_true",
                   help="leading power of a positive ordinal")
    _add_common(p)
    p.set_defaults(fn=_cmd_ord)

    p = sub.add_parser("fmap", help="translate an ordinal into its "
                                    "base-omega_1 image")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(fn=_cmd_fmap)

    p = sub.add_parser("term", help="term-algebra queries")
    tsub = p.add_subparsers(dest="action", required=True)
    for name in ("rank", "decompose", "paths"):
        tp = tsub.add_parser(name)
        tp.add_argument("literal")
        _add_common(tp, "gamma")
        tp.set_defaults(fn=_cmd_term)
    tp = tsub.add_parser("tree")
    tp.add_argument("literal")
    tp.add_argument("--syntax", action="store_true",
                    help="syntactic tree instead of the flattened tree")
    tp.add_argument("--dot", metavar="PATH")
    _add_common(tp, "gamma")
    tp.set_defaults(fn=_cmd_term)
    tp = tsub.add_parser("cmp")
    tp.add_argument("left")
    tp.add_argument("right")
    _add_common(tp, "q", "gamma")
    tp.set_defaults(fn=_cmd_term)

    p = sub.add_parser("homcmp", help="tree-map comparison of labeled trees")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p, "q")
    p.set_defaults(fn=_cmd_homcmp)

    p = sub.add_parser("space", help="finite-space queries")
    ssub = p.add_subparsers(dest="action", required=True)
    sp = ssub.add_parser("check")
    _add_common(sp, "space")
    sp.set_defaults(fn=_cmd_space)
    sp = ssub.add_parser("meager")
    sp.add_argument("--set", required=True, metavar="a,b")
    sp.add_argument("--within", metavar="a,b")
    _add_common(sp, "space")
    sp.set_defaults(fn=_cmd_space)
    sp = ssub.add_parser("catq")
    sp.add_argument("--target", required=True, metavar="FILE")
    sp.add_argument("--map", required=True, metavar="FILE")
    sp.add_argument("--set", required=True, metavar="a,b")
    _add_common(sp, "space")
    sp.set_defaults(fn=_cmd_space)
    sp = ssub.add_parser("wadge")
    sp.add_argument("left")
    sp.add_argument("right")
    _add_common(sp, "space", "q")
    sp.set_defaults(fn=_cmd_space)

    p = sub.add_parser("family", help="iterated-family operations")
    fsub = p.add_subparsers(dest="action", required=True)
    for name in ("eval", "reduct"):
        fp = fsub.add_parser(name)
        fp.add_argument("family")
        _add_common(fp, "space", "q", "base", "term-opt", "gamma")
        fp.set_defaults(fn=_cmd_family)
    for name in ("pull", "push"):
        fp = fsub.add_parser(name)
        fp.add_argument("family")
        fp.add_argument("--target", required=True, metavar="FILE")
        fp.add_argument("--map", required=True, metavar="FILE")
        _add_common(fp, "space", "q", "base", "term-opt", "gamma")
        fp.set_defaults(fn=_cmd_family)

    p = sub.add_parser("member", help="does the partition sit in the term's level")
    p.add_argument("partition")
    _add_common(p, "space", "q", "base", "term", "gamma")
    p.set_defaults(fn=_cmd_member)

    p = sub.add_parser("levelset", help="all partitions in the term's level")
    _add_common(p, "space", "q", "base", "term", "gamma")
    p.set_defaults(fn=_cmd_levelset)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    # one option per bound, the fields after the suite name, with the
    # field's default
    for f in fields(SuiteConfig)[1:]:
        p.add_argument("--" + f.name.replace("_", "-"), type=int,
                       default=f.default)
    p.add_argument("--out", metavar="PATH", help="also write the text report")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_check)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
