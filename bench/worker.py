"""One round of a benchmark workload, in a fresh interpreter.

Reads a job from standard input (written by ``run.py``), sets the
workload up, times every item, reads the peak resident memory, and then
checks the detailed outputs of the items the job names against the
oracle, outside the timed phase. Prints one JSON object.

A fresh interpreter per round keeps ``dihedral.i2_system``'s cache, the
per-system intern tables and ``ru_maxrss`` from carrying over between
rounds.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MAX_PROBLEMS = 20

sys.path.insert(0, str(SRC))
import oracle  # noqa: E402
import subexpr  # noqa: E402
from subexpr import cyclespace as cs, expressions, sweeps  # noqa: E402
from subexpr.coxeter import named_system  # noqa: E402


# -- workloads ---------------------------------------------------------------
#
# Each workload turns its inputs into items (a function and its arguments),
# summarises each item's output into plain data for run.py to check, and
# checks the detailed outputs of the named items against the oracle.

class SpanSweep:
    def __init__(self, inputs):
        self.systems = {t: named_system(t) for t in ("B2", "G2")}
        self.words = [(t, tuple(w)) for t, w in inputs["words"]]
        self.items = [(self.run, (self.systems[t], w)) for t, w in self.words]

    @staticmethod
    def run(system, letters):
        return sweeps.check_word(system, letters, "span")

    @staticmethod
    def summary(out):
        return {"ok": out["ok"], "classes": out["classes"], "lengths": out["lengths"]}

    def detail(self, problems, indices):
        for t, letters in (self.words[k] for k in indices):
            where = f"{t}{letters}"
            graphs = expressions.build_all_graphs(
                expressions.Expression(self.systems[t], letters))
            want = _oracle_classes(t, letters)
            if sum(g.n_vertices for g in graphs) != 2 ** len(letters):
                problems.append(f"{where}: class sizes do not sum to 2^L")
            if len(graphs) != len(set(map(id, want.values()))):
                problems.append(f"{where}: {len(graphs)} classes, oracle "
                                f"{len(set(map(id, want.values())))}")
                continue
            for g in graphs:
                cg = _check_graph(g, want[g.vertices[0].mask], problems, where)
                gens = cs.enumerate_generators(g)
                _check_cycles([c.vertex_masks for c in gens], cg, t, problems, where)
                rank = cs.gf2_rank(c.edges for c in gens)
                if rank != cg.dim:
                    problems.append(f"{where}: rank {rank}, oracle dim {cg.dim}")


class Decompose:
    def __init__(self, inputs):
        systems = {t: named_system(t) for t in ("B2", "G2")}
        self.words = [(t, tuple(w)) for t, w in inputs["words"]]
        by_mask = []                   # per word: mask -> graph of its class
        for t, letters in self.words:
            graphs = expressions.build_all_graphs(
                expressions.Expression(systems[t], letters))
            by_mask.append({v.mask: g for g in graphs for v in g.vertices})
        self.by_mask = by_mask
        self.cycles = {}               # item index -> the decomposition's cycles
        self.class_graphs = {}         # id(program graph) -> oracle graph
        self.items = []
        self.item_inputs = []
        self.setup_problems = []
        for k, (word_index, flat) in enumerate(inputs["items"]):
            pairs = list(zip(flat[0::2], flat[1::2]))
            g = by_mask[word_index].get(pairs[0][0])
            try:
                bits = 0
                for a, b in pairs:
                    bits |= 1 << g.edge_id(g.vertex_index[a], g.vertex_index[b])
            except (AttributeError, KeyError):
                self.setup_problems.append(f"item {k}: an input edge is not in the graph")
                bits = None
            self.items.append((self.run, (k, g, bits)))
            self.item_inputs.append((word_index, pairs))

    def run(self, k, g, bits):
        if bits is None:
            raise LookupError("the input is not an edge set of the program's graph")
        cycles = self.cycles[k] = cs.decompose(g, bits)
        return cycles, cs.check_certificate(g, cs.certificate(g, cycles), bits)

    @staticmethod
    def summary(out):
        cycles, replay = out
        return {"replay": replay, "cycles": len(cycles)}

    def detail(self, problems, indices):
        for k in indices:
            if k not in self.cycles:
                continue
            word_index, pairs = self.item_inputs[k]
            t, letters = self.words[word_index]
            g = self.by_mask[word_index][pairs[0][0]]
            if id(g) not in self.class_graphs:
                want = _oracle_classes(t, letters)[pairs[0][0]]
                self.class_graphs[id(g)] = _check_graph(g, want, problems, f"{t}{letters}")
            cycles = [c.vertex_masks for c in self.cycles[k]]
            where = f"item {k} ({t}{letters})"
            _check_cycles(cycles, self.class_graphs[id(g)], t, problems, where)
            if oracle.edge_sum(cycles) != frozenset(pairs):
                problems.append(f"{where}: the cycles do not sum to the input")


class BigBuild:
    def __init__(self, inputs):
        self.system = named_system("A2~")
        self.identity = self.system.identity()
        self.words = [tuple(w) for w in inputs["words"]]
        self.items = [(self.run, (w,)) for w in self.words]

    def build(self, letters):
        return expressions.build_graph(
            expressions.Expression(self.system, letters), self.identity)

    def run(self, letters):
        g = self.build(letters)
        return g.n_vertices, g.n_edges, expressions.is_connected(g)

    @staticmethod
    def summary(out):
        n_vertices, n_edges, connected = out
        return {"V": n_vertices, "E": n_edges, "connected": connected}

    def detail(self, problems, indices):
        for letters in (self.words[k] for k in indices):
            _check_graph(self.build(letters), _oracle_identity(letters), problems,
                         f"A2~{letters}")


class BigSpan(BigBuild):
    def run(self, letters):
        return cs.verify_span(self.build(letters))

    @staticmethod
    def summary(out):
        return {"V": out["n_vertices"], "E": out["n_edges"], "c": out["components"],
                "dim": out["dim"], "rank": out["rank"], "gens": out["n_generators"],
                "lengths": out["lengths"], "ok": out["ok"]}

    def detail(self, problems, indices):
        for letters in (self.words[k] for k in indices):
            where = f"A2~{letters}"
            g = self.build(letters)
            cg = _check_graph(g, _oracle_identity(letters), problems, where)
            gens = cs.enumerate_generators(g)
            _check_cycles([c.vertex_masks for c in gens], cg, "A2~", problems, where)


WORKLOADS = {"span-sweep": SpanSweep, "decompose": Decompose,
             "big-build": BigBuild, "big-span": BigSpan}


# -- oracle comparisons --------------------------------------------------------

def _oracle_classes(type_name, letters):
    """mask -> the oracle's class of that mask, over every subexpression."""
    out = {}
    for masks in oracle.classes(oracle.group(type_name), letters).values():
        for m in masks:
            out[m] = masks
    return out


def _oracle_identity(letters):
    return oracle.identity_class(oracle.group("A2~"), letters)


def _check_graph(g, want_masks, problems, where):
    """The program's graph against the oracle's: the same vertex masks,
    the Hamming-2 pairs as edges, one component. Returns the oracle graph."""
    cg = oracle.ClassGraph(want_masks, len(g.expr.letters))
    masks = sorted(v.mask for v in g.vertices)
    if masks != cg.masks:
        problems.append(f"{where}: {len(masks)} vertices, oracle {len(cg.masks)}")
    edges = sorted((min(g.vertices[a].mask, g.vertices[b].mask),
                    max(g.vertices[a].mask, g.vertices[b].mask)) for a, b, _ in g.edges)
    if edges != cg.edges:
        problems.append(f"{where}: {len(edges)} edges, oracle {len(cg.edges)}")
    if cg.components != 1 or g.n_components() != 1:
        problems.append(f"{where}: {g.n_components()} components, oracle {cg.components}")
    return cg


def _check_cycles(cycles, cg, type_name, problems, where):
    row = oracle.PAPER_LENGTHS[type_name]
    for vertex_masks in cycles:
        if not cg.is_closed_cycle(vertex_masks):
            problems.append(f"{where}: cycle {vertex_masks} is not closed")
            return
        if len(vertex_masks) not in row:
            problems.append(f"{where}: cycle length {len(vertex_masks)} not in {sorted(row)}")
            return


# -- the round ---------------------------------------------------------------

def main():
    job = json.load(sys.stdin)
    if Path(subexpr.__file__).resolve().parent != (SRC / "subexpr").resolve():
        sys.exit(f"worker: imported subexpr from {subexpr.__file__}, not {SRC}")
    workload = WORKLOADS[job["workload"]](job["inputs"])
    tracer = None
    if job["trace"]:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()

    clock = time.perf_counter
    summaries, item_s, errors = [], [], []
    setup_s = time.monotonic() - job["t_spawn"]
    start = clock()
    for k, (fn, args) in enumerate(workload.items):
        if tracer is not None:
            tracer.request = k
        t0 = clock()
        try:
            out = fn(*args)
        except Exception as exc:              # an item that raises is a failed operation
            item_s.append(clock() - t0)
            summaries.append(None)
            errors.append(f"item {k}: {exc!r}")
            continue
        item_s.append(clock() - t0)
        summaries.append(workload.summary(out))
    wall_s = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "wall_s": wall_s, "item_s": item_s,
              "peak_rss_mb": peak_rss_mb, "summaries": summaries, "errors": errors}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.dump(job["spans_path"], {"workload": job["workload"], "wall_s": wall_s})
    problems = list(getattr(workload, "setup_problems", ()))
    for k in job["detail"]:
        try:
            workload.detail(problems, [k])
        except Exception as exc:              # a program fault met while checking
            problems.append(f"item {k}: raised {exc!r} while its outputs were checked")
    result["problems"] = problems[:MAX_PROBLEMS]
    result["n_problems"] = len(problems)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
