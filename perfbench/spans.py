"""Spans around the calls the benchmark makes into each finehier module.

A `Tracer` wraps public functions; every wrapped call records a span and
folds it into a per-(name, parent) aggregate of calls, total time and self
time (total minus the time of the spans it caused).  `install` rebinds the
names through which finehier's own modules reach another module's public
functions, so that calls made inside a suite are seen too.  It is meant for
a forked child that exits after one operation: the rebinding is never
undone.
"""

from __future__ import annotations

from time import perf_counter

import finehier.hierarchy as hierarchy
import finehier.labeled_trees as labeled_trees
import finehier.spaces as spaces
import finehier.suites as suites
import finehier.terms as terms

# (span name, function name, the modules whose global of that name is
# rebound -- the defining module first, then the callers the workloads use)
_FUNCTIONS = (
    ("hierarchy.member", "member", (hierarchy, suites)),
    ("hierarchy.level_set", "level_set", (hierarchy,)),
    ("hierarchy.family_eval", "family_eval", (hierarchy,)),
    ("hierarchy.family_pushforward", "family_pushforward", (hierarchy,)),
    ("hierarchy.family_from_json", "family_from_json", (hierarchy,)),
    ("terms.enumerate_terms", "enumerate_terms", (terms, suites)),
    ("terms.parse_term", "parse_term", (terms,)),
    ("labeled_trees.hom_leq", "hom_leq", (labeled_trees, suites)),
    ("spaces.enum_cos", "enum_cos", (spaces, suites)),
    ("spaces.enumerate_posets", "enumerate_posets", (spaces, suites)),
    ("spaces.cat_quantifier", "cat_quantifier", (spaces, hierarchy)),
)


class Tracer:
    def __init__(self):
        self.stack = []   # open spans: [name, time of child spans]
        self.spans = {}   # (name, parent name) -> [calls, total s, self s]
        self.counts = {}  # counter name -> value

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn):
        stack, spans = self.stack, self.spans

        def traced(*args, **kwargs):
            # a call made from inside a span of the same name is the
            # function's own recursion, not a call into the layer
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                key = (name, parent[0] if parent else None)
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]

        return traced

    def install(self):
        for name, attr, modules in _FUNCTIONS:
            traced = self.wrap(name, getattr(modules[0], attr))
            for mod in modules:
                setattr(mod, attr, traced)
        terms.TermOrder.leq = self.wrap("terms.leq", terms.TermOrder.leq)
        for cls in (spaces.FinSpace, spaces.QPartition, spaces.ContMap):
            cls.from_json = classmethod(
                self.wrap("spaces.from_json", cls.from_json.__func__))
