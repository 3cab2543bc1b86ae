"""Benchmark of the subexpr verifier.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Makes the workload's inputs from the seed, runs rounds of it until the
time is spent (at least MIN_ROUNDS), each round in a fresh interpreter
(``worker.py``), checks every round's outputs against the exact oracle
(``oracle.py``), and prints every metric by name with its unit. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
rounds; with ``--trace 1`` they are the per-layer ones (``layers.py``).
Raw per-round results and span files go to ``bench/results/``.
See README.md for the workloads and the reference figures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
RUN_LIMIT_S = 160            # start no round that would end after this

import oracle

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms",
                    "item_p95_ms": "ms", "peak_rss_mb": "MB"}


# -- inputs and expectations ---------------------------------------------------
#
# Each maker returns (inputs for the worker, check, detail): check(summaries)
# compares one round's per-item summaries with the oracle and returns the
# problems found; detail lists the items whose full outputs (vertex and
# edge sets, every certified cycle) the first round re-checks against the
# oracle after its timed phase. Items that need the program to run again
# for that are sampled by the seed, to keep the untimed part of a run short.

def _words_up_to(max_len: int):
    """Every word in two generators of length 0..max_len."""
    return [w for n in range(max_len + 1) for w in itertools.product((0, 1), repeat=n)]


def span_sweep(seed: int):
    """Every B2 word up to length 7 and every G2 word up to length 6, in a
    seeded order, each through sweeps.check_word(..., "span")."""
    words = [("B2", w) for w in _words_up_to(7)] + [("G2", w) for w in _words_up_to(6)]
    rng = random.Random(f"span-sweep:{seed}")
    rng.shuffle(words)
    want = [len(oracle.classes(oracle.group(t), w)) for t, w in words]

    def check(summaries):
        problems = []
        for (t, w), n_classes, s in zip(words, want, summaries):
            if s is None:
                continue
            if not s["ok"]:
                problems.append(f"{t}{w}: check_word reports rank != dim")
            if s["classes"] != n_classes:
                problems.append(f"{t}{w}: {s['classes']} classes, oracle {n_classes}")
            if not set(s["lengths"]) <= oracle.PAPER_LENGTHS[t]:
                problems.append(f"{t}{w}: lengths {s['lengths']} outside the paper's row")
        return problems

    return {"words": words}, check, sorted(rng.sample(range(len(words)), len(words) // 4))


DECOMPOSE_RANDOM_ITEMS = 1000
DECOMPOSE_ALTERNATING = [("B2", 0, 9), ("B2", 1, 9), ("G2", 0, 9), ("G2", 1, 9)]


def decompose(seed: int):
    """Even subgraphs to decompose, given as oracle edge lists:
    DECOMPOSE_RANDOM_ITEMS seeded random sums of fundamental cycles of
    B2 graphs (words up to length 7, a uniform class with dim > 0, each
    fundamental cycle of the oracle's breadth-first forest taken with
    probability 1/2), plus every fundamental cycle of the alternating
    words in DECOMPOSE_ALTERNATING. The order is seeded."""
    rng = random.Random(f"decompose:{seed}")
    items = []

    def class_graphs(t, w):
        out = []
        for masks in oracle.classes(oracle.group(t), w).values():
            cg = oracle.ClassGraph(masks, len(w))
            if cg.dim > 0:
                out.append(cg)
        return out

    pool = [("B2", w, cg) for w in _words_up_to(7) for cg in class_graphs("B2", w)]
    basis = {}
    for _ in range(DECOMPOSE_RANDOM_ITEMS):
        t, w, cg = pool[rng.randrange(len(pool))]
        if id(cg) not in basis:
            basis[id(cg)] = [frozenset(c) for c in cg.spanning_forest_cycles()]
        even = frozenset()
        while not even:
            for fc in basis[id(cg)]:
                if rng.getrandbits(1):
                    even ^= fc
        items.append(((t, w), sorted(even)))
    for t, c, n in DECOMPOSE_ALTERNATING:
        w = tuple((c + z) % 2 for z in range(n))
        for cg in class_graphs(t, w):
            items.extend(((t, w), fc) for fc in cg.spanning_forest_cycles())
    rng.shuffle(items)
    word_index = {}
    for key, _ in items:
        word_index.setdefault(key, len(word_index))
    words = list(word_index)
    flat_items = [[word_index[key], [m for pair in even for m in pair]]
                  for key, even in items]

    def check(summaries):
        problems = []
        for k, s in enumerate(summaries):
            if s is None:
                continue
            if not s["replay"]:
                problems.append(f"item {k}: the certificate does not replay")
            if s["cycles"] < 1:
                problems.append(f"item {k}: a nonzero even subgraph decomposed into nothing")
        return problems

    return {"words": words, "items": flat_items}, check, list(range(len(flat_items)))


# Fixed base words: the first `count` words of a fixed random stream whose
# identity class has a size (|V| for a build, the cycle-space dimension for
# a span check) inside a band, so that one item takes seconds. A seed then
# relabels the generators of each base word by a random permutation; every
# permutation is a diagram automorphism of A2~, so the program sees other
# words but does the same work up to a relabelling of coordinates. (Cyclic
# rotations and reversals also keep the identity class up to isomorphism,
# but they change the prefix roots the program walks, and with them its
# cost by up to a quarter per word; they are left out to keep the runs
# of different seeds comparable.)
BIG_WORDS = {"big-build": (18, 3, "vertices", 8000, 11000),
             "big-span": (14, 3, "dim", 6500, 8500)}


def _base_words(name: str):
    length, count, measure, low, high = BIG_WORDS[name]
    a2t = oracle.group("A2~")
    stream = random.Random(f"{name}:base")
    out = []
    while len(out) < count:
        word = tuple(stream.randrange(3) for _ in range(length))
        masks = oracle.identity_class(a2t, word)
        size = len(masks) if measure == "vertices" else oracle.ClassGraph(masks, length).dim
        if low <= size <= high:
            out.append(word)
    return out


def _presented_words(name: str, seed: int):
    """The relabelled words and the index of the one to check in full."""
    rng = random.Random(f"{name}:{seed}")
    out = []
    for base in _base_words(name):
        perm = rng.sample(range(3), 3)
        out.append(tuple(perm[x] for x in base))
    return out, [rng.randrange(len(out))]


def _identity_graphs(words):
    a2t = oracle.group("A2~")
    return [oracle.ClassGraph(oracle.identity_class(a2t, w), len(w)) for w in words]


def big_build(seed: int):
    """The identity class of each presented L=18 A2~ word, built by
    build_graph and checked connected."""
    words, detail = _presented_words("big-build", seed)
    want = _identity_graphs(words)

    def check(summaries):
        problems = []
        for w, cg, s in zip(words, want, summaries):
            if s is None:
                continue
            if (s["V"], s["E"]) != (len(cg.masks), len(cg.edges)):
                problems.append(f"A2~{w}: |V|,|E| = {s['V']},{s['E']}, oracle "
                                f"{len(cg.masks)},{len(cg.edges)}")
            if not s["connected"] or cg.components != 1:
                problems.append(f"A2~{w}: not connected")
        return problems

    return {"words": words}, check, detail


def big_span(seed: int):
    """The identity class of each presented L=14 A2~ word through
    verify_span."""
    words, detail = _presented_words("big-span", seed)
    want = _identity_graphs(words)

    def check(summaries):
        problems = []
        for w, cg, s in zip(words, want, summaries):
            if s is None:
                continue
            got = (s["V"], s["E"], s["c"], s["dim"])
            exact = (len(cg.masks), len(cg.edges), cg.components, cg.dim)
            if got != exact:
                problems.append(f"A2~{w}: |V|,|E|,c,dim = {got}, oracle {exact}")
            if s["rank"] != cg.dim or not s["ok"]:
                problems.append(f"A2~{w}: rank {s['rank']} != dim {cg.dim}")
            if cg.components != 1:
                problems.append(f"A2~{w}: {cg.components} components")
            if not set(s["lengths"]) <= oracle.PAPER_LENGTHS["A2~"]:
                problems.append(f"A2~{w}: lengths {s['lengths']} outside the paper's row")
        return problems

    return {"words": words}, check, detail


WORKLOADS = {"span-sweep": span_sweep, "decompose": decompose,
             "big-build": big_build, "big-span": big_span}


# -- rounds ------------------------------------------------------------------

def run_round(workload, inputs, trace, detail, spans_path):
    job = {"workload": workload, "inputs": inputs, "trace": trace, "detail": detail,
           "spans_path": str(spans_path)}
    job["t_spawn"] = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def end_to_end(rounds):
    """Medians over the rounds. The time to a verdict on the whole input is
    the sum of each item's median time, which a burst of load on the
    machine during one round moves less than the median of round totals."""
    per_item = [statistics.median(times) for times in zip(*(r["item_s"] for r in rounds))]
    return {"setup_s": statistics.median(r["setup_s"] for r in rounds),
            "wall_s": sum(per_item),
            "item_p50_ms": 1e3 * statistics.median(per_item),
            "item_p95_ms": 1e3 * percentile(per_item, 95),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds)}


def layer_unit(name):
    """Per-layer metrics carry their unit in their name: *_s, *_ratio, counts."""
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def per_layer(rounds):
    """Medians over the rounds. A count repeats in every round, and
    median_low keeps it a whole number."""
    out = {}
    for name in rounds[0]["layers"]:
        values = [r["layers"][name] for r in rounds]
        count = layer_unit(name) == "count"
        out[name] = statistics.median_low(values) if count else statistics.median(values)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the round.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "subexpr" / "__init__.py").is_file():
        print(f"bench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for t, cox in oracle.COXETER_MATRICES.items():
        if not oracle.relations_hold(oracle.group(t), cox):
            print(f"bench: oracle relations fail for {t}", file=sys.stderr)
            return 2

    inputs, check, detail = WORKLOADS[args.workload](args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rounds, problems = [], []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        last = rounds[-1]["round_s"] if rounds else 0.0
        if rounds and (elapsed + last > RUN_LIMIT_S
                       or (len(rounds) >= MIN_ROUNDS and elapsed >= args.seconds)):
            break
        t0 = time.monotonic()
        try:
            r = run_round(args.workload, inputs, bool(args.trace), [] if rounds else detail,
                          RESULTS / f"{stem}-round{len(rounds)}.spans.json")
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"bench: round {len(rounds)} failed: {exc}", file=sys.stderr)
            return 1
        r["round_s"] = time.monotonic() - t0
        rounds.append(r)
        problems += [f"round {len(rounds) - 1}: {p}" for p in r["problems"]]
        if r["n_problems"] > len(r["problems"]):
            problems.append(f"round {len(rounds) - 1}: {r['n_problems']} detail problems in all")
        problems += [f"round {len(rounds) - 1}: {p}" for p in check(r["summaries"])]

    attempted = sum(len(r["summaries"]) for r in rounds)
    failed = sum(len(r["errors"]) for r in rounds)
    if args.trace:
        values = per_layer(rounds)
        units = {name: layer_unit(name) for name in values}
    else:
        values, units = end_to_end(rounds), END_TO_END_UNITS
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "rounds": rounds, "problems": problems}, fh)

    for p in problems[:20]:
        print(f"bench: {p}", file=sys.stderr)
    for r in rounds:
        for e in r["errors"][:5]:
            print(f"bench: failed {e}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{len(rounds[0]['summaries'])} items per round, "
          f"wall_s per round {[round(r['wall_s'], 3) for r in rounds]}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"attempted {attempted}")
    print(f"failed {failed}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
