"""Per-layer tracing from outside the program.

Each traced function is wrapped by substituting the module or class
attribute that its callers look up (``sweeps`` holds its own reference
to ``build_all_graphs``; ``cyclespace`` reaches ``dihedral`` and ``roots``
through the modules). A wrapped call opens a span with its name, start,
end, parent span and the index of the benchmark item it serves. A
layer's self time is its span's duration minus the time its child spans
cover; counts are taken at the same boundaries.

Spans of the high-frequency leaves (interning and GF(2) reduction) are
folded into per-name totals instead of being stored one by one, so that
a traced run does not hold millions of span records. The counters
``make_triangle``/``make_square`` and ``cycle_space_dim`` are not timed
at all: their time stays in the self time of the span that called them.
"""

from __future__ import annotations

import gc
import json
import time
from collections import Counter, defaultdict

from subexpr import coxeter, cyclespace, dihedral, expressions, roots, sweeps

_clock = time.perf_counter

# (owner, attribute, span name); owners are modules or classes.
TIMED = [
    (coxeter.CoxeterSystem, "element_id", "coxeter.element_id"),
    (coxeter.CoxeterSystem, "root_id", "coxeter.root_id"),
    (expressions, "subexpr_classes", "expressions.subexpr_classes"),
    (expressions, "build_graph", "expressions.build_graph"),
    (expressions, "build_all_graphs", "expressions.build_all_graphs"),
    (sweeps, "build_all_graphs", "expressions.build_all_graphs"),
    (sweeps, "check_word", "sweeps.check_word"),
    (cyclespace, "scan_generators", "cyclespace.scan_generators"),
    (cyclespace, "fundamental_cycles", "cyclespace.fundamental_cycles"),
    (cyclespace, "enumerate_generators", "cyclespace.enumerate_generators"),
    (cyclespace, "verify_span", "cyclespace.verify_span"),
    (cyclespace, "decompose", "cyclespace.decompose"),
    (cyclespace, "check_certificate", "cyclespace.check_certificate"),
    (cyclespace, "gf2_rank", "cyclespace.gf2_rank"),
    (cyclespace.Gf2Basis, "reduce", "cyclespace.Gf2Basis.reduce"),
    (dihedral, "make_dihedral", "dihedral.make_dihedral"),
    (dihedral, "project_subexpression", "dihedral.project_subexpression"),
    (dihedral, "reduce_special_vertex", "dihedral.reduce_special_vertex"),
    (roots, "properly_situated_pair", "roots.properly_situated_pair"),
    (roots, "reflection_closure", "roots.reflection_closure"),
]
LEAVES = {"coxeter.element_id", "coxeter.root_id", "cyclespace.Gf2Basis.reduce"}
COUNTED = [(cyclespace, "make_triangle"), (cyclespace, "make_square"),
           (cyclespace, "cycle_space_dim")]


class Tracer:
    def __init__(self):
        self.request = -1                  # index of the current item
        self.spans = []                    # [name, start, end, parent, request]
        self.stack = []                    # open frames: [child_time, span index, name]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.context_keys = set()
        self._saved = []

    # -- wrapping ---------------------------------------------------------

    def _timed(self, fn, name):
        stack, spans, self_s, calls = self.stack, self.spans, self.self_s, self.calls
        leaf = name in LEAVES
        observe = {"expressions.subexpr_classes": self._count_records,
                   "expressions.build_graph": self._count_graph,
                   "expressions.build_all_graphs": self._count_graphs,
                   "cyclespace.enumerate_generators": self._count_generators,
                   "cyclespace.decompose": self._count_decompose_cycles,
                   "dihedral.make_dihedral": self._note_context}.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if leaf:
                idx = parent
            else:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, parent, self.request])
            frame = [0.0, idx, name]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                if not leaf:
                    spans[idx][1], spans[idx][2] = t0, t1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counted(self, fn, name):
        stack, counts = self.stack, self.counts
        if name == "cycle_space_dim":
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["dim"] += result
                return result

            return wrapper

        def wrapper(*args, **kwargs):
            in_scan = bool(stack) and stack[-1][2] == "cyclespace.scan_generators"
            if in_scan:
                counts["scan_attempts"] += 1
            result = fn(*args, **kwargs)
            if in_scan:
                counts["scan_hits"] += 1
            return result

        return wrapper

    # Counts taken from a traced call's arguments and result.

    def _count_records(self, args, result):
        self.counts["records"] += sum(len(v) for v in result.values())

    def _count_graph(self, args, result):
        self.counts["vertices"] += result.n_vertices
        self.counts["edges"] += result.n_edges

    def _count_graphs(self, args, result):
        for g in result:
            self._count_graph(args, g)

    def _count_generators(self, args, result):
        self.counts["generators"] += len(result)

    def _count_decompose_cycles(self, args, result):
        self.counts["decompose_cycles"] += len(result)

    def _note_context(self, args, result):
        lam, mu = args[1], args[2]
        self.context_keys.add((tuple(round(float(x), 6) for x in lam),
                               tuple(round(float(x), 6) for x in mu)))

    def install(self):
        for owner, attr, name in TIMED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._timed(original, name))
        for owner, attr in COUNTED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._counted(original, attr))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        s, n, c = self.self_s, self.calls, self.counts
        systems = [o for o in gc.get_objects() if isinstance(o, coxeter.CoxeterSystem)]

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "coxeter.intern_s": s["coxeter.element_id"] + s["coxeter.root_id"],
            "coxeter.intern_calls": n["coxeter.element_id"] + n["coxeter.root_id"],
            "coxeter.elements": sum(len(x._elems) for x in systems),
            "coxeter.roots": sum(len(x._roots) for x in systems),
            "expressions.enumerate_s": s["expressions.subexpr_classes"],
            "expressions.records": c["records"],
            "expressions.kept_ratio": ratio(c["vertices"], c["records"]),
            "expressions.assemble_s": (s["expressions.build_graph"]
                                       + s["expressions.build_all_graphs"]),
            "expressions.vertices": c["vertices"],
            "expressions.edges": c["edges"],
            "cyclespace.scan_s": s["cyclespace.scan_generators"],
            "cyclespace.scan_attempts": c["scan_attempts"],
            "cyclespace.scan_hit_ratio": ratio(c["scan_hits"], c["scan_attempts"]),
            "cyclespace.rank_s": (s["cyclespace.Gf2Basis.reduce"]
                                  + s["cyclespace.gf2_rank"]),
            "cyclespace.generators": c["generators"],
            "cyclespace.rank_useful_ratio": ratio(c["dim"], c["generators"]),
            "cyclespace.fundamental_s": s["cyclespace.fundamental_cycles"],
            "cyclespace.decompose_s": s["cyclespace.decompose"],
            "cyclespace.decompose_cycles": c["decompose_cycles"],
            "cyclespace.replay_s": s["cyclespace.check_certificate"],
            "dihedral.reduce_s": (s["dihedral.make_dihedral"]
                                  + s["dihedral.project_subexpression"]
                                  + s["dihedral.reduce_special_vertex"]),
            "dihedral.crossings": n["dihedral.reduce_special_vertex"],
            "dihedral.contexts": n["dihedral.make_dihedral"],
            "dihedral.context_distinct_ratio": ratio(len(self.context_keys),
                                                     n["dihedral.make_dihedral"]),
            "roots.pair_s": (s["roots.properly_situated_pair"]
                             + s["roots.reflection_closure"]),
            "sweeps.check_word_s": s["sweeps.check_word"],
        }

    def dump(self, path, extra: dict):
        """Write the spans and the per-name totals as one JSON document."""
        doc = dict(extra)
        doc["self_s"] = dict(self.self_s)
        doc["calls"] = dict(self.calls)
        doc["counts"] = dict(self.counts)
        doc["span_fields"] = ["name", "start", "end", "parent", "request"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)
