"""Sweep drivers: enumerate expressions of a type up to a cap, check
connectivity and spanning across all target classes, and aggregate the
cycle lengths of minimum-length generating bases (the table rows).

Exhaustive enumeration is exponential in both rank and length, so sweeps
are exhaustive up to ``exhaustive_cap`` and continue with the alternating
two-generator words (the dihedral windows where the long cycles live) up
to ``max_len``.
"""

from __future__ import annotations

import itertools
import math
import random
from multiprocessing import get_context
from typing import List, Optional, Sequence, Tuple

from . import cyclespace as cs
from .coxeter import CoxeterSystem, coxeter_matrix_for
from .expressions import Expression, build_all_graphs, is_connected

DEFAULT_EXHAUSTIVE = {1: 10, 2: 8, 3: 5, 4: 4}


def table1_row(matrix) -> frozenset:
    """The cycle lengths of a system's row: {3, 4} plus n+2 for every finite
    order n >= 2 of a product of two reflections; rank one needs only
    triangles.

    The orders are read off the matrix as the divisors d >= 2 of its finite
    m_ij: I2(m) holds a dihedral reflection subgroup of every order d | m,
    and each finite dihedral reflection subgroup is conjugate into a finite
    standard parabolic, where (for every type this package names) no other
    order occurs.
    """
    if len(matrix) == 1:
        return frozenset({3})
    orders = {m for row in matrix for m in row if m != math.inf}
    return frozenset({3, 4} | {d + 2 for m in orders
                               for d in range(2, m + 1) if m % d == 0})


def sweep_words(matrix, max_len: int,
                exhaustive_cap: Optional[int] = None) -> List[Tuple[int, ...]]:
    """All words up to the exhaustive cap plus alternating pair words beyond."""
    rank = len(matrix)
    if exhaustive_cap is None:
        exhaustive_cap = DEFAULT_EXHAUSTIVE.get(rank, 3)
    cap = min(max_len, exhaustive_cap)
    words: List[Tuple[int, ...]] = []
    for L in range(cap + 1):
        words.extend(itertools.product(range(rank), repeat=L))
    for i in range(rank):
        for j in range(i + 1, rank):
            if matrix[i][j] == math.inf or matrix[i][j] < 3:
                continue
            for L in range(cap + 1, max_len + 1):
                words.append(tuple((i, j)[z % 2] for z in range(L)))
                words.append(tuple((j, i)[z % 2] for z in range(L)))
    return words


def random_words(rank: int, count: int, max_len: int,
                 seed: int) -> List[Tuple[int, ...]]:
    rng = random.Random(seed)
    return [tuple(rng.randrange(rank) for _ in range(rng.randrange(1, max_len + 1)))
            for _ in range(count)]


# -- per-word checks (worker-safe: build everything from the matrix) ---------

_WORKER_SYSTEM: Optional[CoxeterSystem] = None


def _init_worker(matrix):
    global _WORKER_SYSTEM
    _WORKER_SYSTEM = CoxeterSystem(matrix)


def check_word(system: CoxeterSystem, letters, mode: str) -> dict:
    """Run one sweep check; mode is connectivity, span or table1."""
    out = {"letters": list(letters), "ok": True}
    graphs = build_all_graphs(Expression(system, tuple(letters)))
    out["classes"] = len(graphs)
    if mode == "connectivity":
        bad = [g.vertices[0].bits for g in graphs if not is_connected(g)]
        out["ok"] = not bad
        if bad:
            out["witness"] = ["".join(map(str, b)) for b in bad]
        return out
    lengths = set()
    for g in graphs:
        if mode == "span":
            rep = cs.verify_span(g)
            lengths.update(rep["lengths"])
            if not rep["ok"]:
                out["ok"] = False
                out.setdefault("witness", []).append(
                    {"dim": rep["dim"], "rank": rep["rank"],
                     "split_vertices": rep["split_vertices"],
                     "vertex": "".join(map(str, g.vertices[0].bits))})
        else:                                   # table1: minimum-length basis
            lengths |= {c.length for c in cs.min_length_basis(g)}
    out["lengths"] = sorted(lengths)
    return out


def _worker(args):
    mode, letters = args
    return check_word(_WORKER_SYSTEM, letters, mode)


def run_sweep(matrix, words: Sequence[Tuple[int, ...]], mode: str,
              jobs: int = 1) -> dict:
    """Run a check over many words, optionally on a process pool."""
    if jobs > 1:
        ctx = get_context("fork")
        with ctx.Pool(jobs, initializer=_init_worker,
                      initargs=(matrix,)) as pool:
            results = pool.map(_worker, [(mode, w) for w in words],
                               chunksize=max(1, len(words) // (jobs * 8)))
    else:
        system = CoxeterSystem(matrix)
        results = [check_word(system, w, mode) for w in words]
    lengths = sorted(set().union(*(set(r.get("lengths", [])) for r in results))
                     if results else set())
    failures = [r for r in results if not r["ok"]]
    return {"mode": mode, "words": len(words), "ok": not failures,
            "lengths": lengths, "failures": failures}


def table1_report(type_name: str, rank: Optional[int] = None,
                  max_len: Optional[int] = None, jobs: int = 1) -> dict:
    """Observed minimum-basis cycle lengths of a type vs its table row."""
    matrix = coxeter_matrix_for(type_name, rank)
    expected = sorted(table1_row(matrix))
    if max_len is None:
        # a Cyc cycle of length n + 2 lives in a window of up to 2n letters
        max_len = max(10, 2 * (expected[-1] - 2))
    words = sweep_words(matrix, max_len)
    rep = run_sweep(matrix, words, "table1", jobs=jobs)
    return {"type": type_name, "rank": rank, "max_len": max_len,
            "observed": rep["lengths"], "expected": expected,
            "ok": rep["lengths"] == expected}
