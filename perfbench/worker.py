"""One workload in one process: build the inputs, run whole rounds of
operations for the given time, verify, and print the result as JSON.

Started by run.py with finehier on the path.  It writes ``ready`` on its
own line once its inputs are built, which is where run.py stops the
set-up clock.  With ``--setup-only`` it exits there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import statistics
import sys
import time
from collections import namedtuple
from pathlib import Path

import finehier  # noqa: F401  (imported before the set-up clock stops)

import workloads
from spans import Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"

# One operation's outcome.  ``answer`` is None and ``error`` set when the
# operation raised; ``spans`` and ``counts`` are empty when untraced.
Result = namedtuple("Result", "seconds answer error spans counts rss_kib")


def _read_all(fd):
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def in_child(fn, arg, traced):
    """Run ``fn(arg, tracer)`` in a forked child of this process and
    return its `Result`.  Only the call itself is timed."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        status = 0
        try:
            tracer = None
            if traced:
                tracer = Tracer()
                tracer.install()
            t0 = time.perf_counter()
            try:
                res, err = fn(arg, tracer), None
            except Exception as exc:  # an operation that fails is counted
                res, err = None, f"{type(exc).__name__}: {exc}"
            dur = time.perf_counter() - t0
            payload = pickle.dumps((dur, res, err,
                                    tracer.spans if tracer else {},
                                    tracer.counts if tracer else {},
                                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
            view = memoryview(payload)
            while view:
                view = view[os.write(wfd, view):]
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    os.close(wfd)
    try:
        data = _read_all(rfd)
    finally:
        os.close(rfd)
        _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"operation child exited with status {status}")
    return Result(*pickle.loads(data))


def _ops(workload, seed, size):
    """The round's operations: (label, function, argument)."""
    if workload in workloads.SWEEPS:
        return [(cfg["suite"], workloads.run_sweep, cfg)
                for cfg in workloads.SWEEPS[workload][size]]
    if workload == "queries":
        # built in a child so that this process's memos stay empty
        made = in_child(lambda s, _t: workloads.make_questions(s, size),
                        seed, False)
        if made.error:
            raise RuntimeError(f"question generation failed: {made.error}")
        return [(q["kind"], workloads.answer, q) for q in made.answer]
    raise SystemExit(f"unknown workload {workload!r}")


def _round_time(per_op):
    """One round's wall time: each operation at its median over rounds."""
    return sum(statistics.median(ts) for ts in per_op)


def measure(ops, seconds, trace):
    """Whole rounds until ``seconds`` have passed.  With ``trace`` rounds
    alternate untraced and traced, so the two can be compared."""
    rounds = {False: [], True: []}      # traced? -> list of per-op results
    start = time.perf_counter()
    traced = False
    while True:
        rounds[traced].append([in_child(fn, arg, traced) for _, fn, arg in ops])
        if time.perf_counter() - start >= seconds and (
                not trace or rounds[True]):
            return rounds
        traced = trace and not traced


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _per_op(rounds, n_ops):
    return [[r[i].seconds for r in rounds] for i in range(n_ops)]


def end_to_end(workload, ops, rounds):
    verdict = _round_time(_per_op(rounds, len(ops)))
    if workload == "queries":
        checks = len(ops)
    else:
        checks = sum(res.answer["checked"] for res in rounds[0] if res.answer)
    rss = max(res.rss_kib for r in rounds for res in r)
    return {"verdict_s": _metric(verdict, "s"),
            "checks_per_s": _metric(checks / verdict, "1/s"),
            "peak_rss_mb": _metric(rss / 1024, "MB")}


def per_layer(workload, ops, plain, traced):
    """Per-round means of the traced rounds' spans, plus the untraced
    rounds' time per question kind and the tracing overhead."""
    spans, counts = {}, {}
    for r in traced:
        for res in r:
            for key, rec in res.spans.items():
                acc = spans.setdefault(key, [0, 0.0, 0.0])
                for i, x in enumerate(rec):
                    acc[i] += x
            for name, n in res.counts.items():
                counts[name] = counts.get(name, 0) + n
    _write_trace(workload, spans, counts, len(traced))
    values = {}
    for (name, _), (calls, _, self_s) in spans.items():
        values[name + ".calls"] = values.get(name + ".calls", 0) + calls
        values[name + ".s"] = values.get(name + ".s", 0.0) + self_s
    values["suites.self_s"] = sum(v for k, v in values.items()
                                  if k.startswith("suites.") and k.endswith(".s"))
    values = {k: v / len(traced) for k, v in values.items()}
    tried = counts.get("level_set.tried", 0)
    values["hierarchy.level_set.hit_ratio"] = (
        counts.get("level_set.hits", 0) / tried if tried else 0.0)
    per_op = _per_op(plain, len(ops))
    for i, (kind, _, _) in enumerate(ops):
        if workload == "queries":
            key = f"queries.{kind}.s"
            values[key] = values.get(key, 0.0) + statistics.median(per_op[i])
    untraced = _round_time(per_op)
    values["trace.verdict_s"] = _round_time(_per_op(traced, len(ops)))
    values["trace.untraced_verdict_s"] = untraced
    values["trace.overhead"] = values["trace.verdict_s"] / untraced - 1
    return {name: _metric(values.get(name, 0.0), unit)
            for name, unit in PER_LAYER}


QUERY_KINDS = ("member", "levelset", "term-cmp", "family-eval", "family-push")
PER_LAYER = (
    ("hierarchy.member.calls", "count"), ("hierarchy.member.s", "s"),
    ("hierarchy.level_set.calls", "count"), ("hierarchy.level_set.s", "s"),
    ("hierarchy.level_set.hit_ratio", "ratio"),
    ("hierarchy.family_eval.s", "s"), ("hierarchy.family_pushforward.s", "s"),
    ("hierarchy.family_from_json.s", "s"),
    ("terms.leq.calls", "count"), ("terms.leq.s", "s"),
    ("terms.enumerate_terms.s", "s"), ("terms.parse_term.s", "s"),
    ("labeled_trees.hom_leq.calls", "count"), ("labeled_trees.hom_leq.s", "s"),
    ("spaces.enum_cos.s", "s"), ("spaces.enumerate_posets.s", "s"),
    ("spaces.cat_quantifier.calls", "count"), ("spaces.cat_quantifier.s", "s"),
    ("spaces.from_json.s", "s"),
    ("suites.preservation.s", "s"), ("suites.wadge-closure.s", "s"),
    ("suites.inclusion.s", "s"), ("suites.hom-oracle.s", "s"),
    ("suites.self_s", "s"),
) + tuple((f"queries.{k}.s", "s") for k in QUERY_KINDS) + (
    ("trace.verdict_s", "s"), ("trace.untraced_verdict_s", "s"),
    ("trace.overhead", "ratio"),
)


def _write_trace(workload, spans, counts, rounds):
    OUT_DIR.mkdir(exist_ok=True)
    doc = {"workload": workload, "traced_rounds": rounds,
           "spans": [{"name": name, "parent": parent, "calls": calls,
                      "total_s": total, "self_s": self_s}
                     for (name, parent), (calls, total, self_s)
                     in sorted(spans.items(), key=lambda kv: -kv[1][1])],
           "counts": counts}
    path = OUT_DIR / f"trace-{workload}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def verify(workload, ops, rounds, seed):
    """Problems with the answers; empty when every check passes."""
    problems = []
    all_rounds = rounds[False] + rounds[True]
    first = all_rounds[0]
    for r in all_rounds[1:]:
        for (label, _, _), a, b in zip(ops, first, r):
            if a.error is None and b.error is None and a.answer != b.answer:
                problems.append(f"{label}: answers differ between rounds")
    ok = [(op, res.answer) for op, res in zip(ops, first) if res.error is None]
    if workload in workloads.SWEEPS:
        cfgs = [arg for (_, _, arg), _ in ok]
        problems += workloads.verify_sweep(cfgs, [ans for _, ans in ok], seed)
    else:
        for (_, _, q), ans in ok:
            msg = workloads.verify_answer(q, ans)
            if msg:
                problems.append(msg)
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ops = _ops(args.workload, args.seed, args.size)
    gc.collect()
    gc.freeze()   # children then leave the shared heap alone
    print("ready", flush=True)
    if args.setup_only:
        return 0
    rounds = measure(ops, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(args.workload, ops, rounds[False], rounds[True])
    else:
        metrics = end_to_end(args.workload, ops, rounds[False])
    results = [res for r in rounds[False] + rounds[True] for res in r]
    failed = [res.error for res in results if res.error is not None]
    for err in sorted(set(failed)):
        print(f"failed: {err}", file=sys.stderr)
    problems = verify(args.workload, ops, rounds, args.seed)
    for p in problems[:20]:
        print(f"incorrect: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
