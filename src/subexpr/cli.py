"""Command-line interface: build subexpression graphs, verify connectivity
and cycle-space spanning, emit and replay decomposition certificates, and
sweep a root-system type (connectivity, spanning, or the cycle-length table).

Input is a UTF-8 JSON spec file; infinite Coxeter-matrix entries are the
string "inf".  All outputs are deterministic: fixed orderings everywhere,
sorted JSON keys, and stable float formatting.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from . import coxeter, cyclespace as cs, sweeps
from .coxeter import CoxeterSystem, MalformedMatrix
from .expressions import (Expression, NotRealized, TooLarge, build_all_graphs,
                          build_graph, is_connected)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# --max-len of a connectivity or span sweep when none is given
SWEEP_MAX_LEN = {"connectivity": 10, "span": 8}


class SpecError(ValueError):
    pass


@dataclass
class JobSpec:
    """A parsed problem description."""

    matrix: list
    generators: List[str]
    expression: Tuple[int, ...]
    target: Union[str, Tuple[int, ...]]        # "all" or a word
    max_len: Optional[int] = None

    def system(self) -> CoxeterSystem:
        return CoxeterSystem(self.matrix)


def _matrix_for(type_name: str, rank: Optional[int]):
    try:
        return coxeter.coxeter_matrix_for(type_name, rank)
    except ValueError as exc:
        raise SpecError(str(exc))


def load_spec(path: str, args) -> JobSpec:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read spec {path}: {exc}")
    if "eps" in data:
        raise SpecError("spec key eps is not supported: the tolerance is fixed")
    if "coxeter_matrix" in data:
        matrix = data["coxeter_matrix"]
    elif "type" in data:
        matrix = _matrix_for(data["type"], data.get("rank"))
    else:
        raise SpecError("spec needs a coxeter_matrix or a type")
    try:
        matrix = [[math.inf if x == "inf" else int(x) for x in row]
                  for row in matrix]
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad matrix entry: {exc}")
    rank = len(matrix)
    gens = data.get("generators") or [f"s{i+1}" for i in range(rank)]
    if len(gens) != rank:
        raise SpecError("generator label count does not match the rank")
    index = {name: i for i, name in enumerate(gens)}

    def word(names):
        try:
            return tuple(index[n] for n in names)
        except KeyError as exc:
            raise SpecError(f"unknown generator {exc}")

    expression = word(data.get("expression", []))
    target = data.get("target", "all")
    if target != "all":
        target = word(target)
    spec = JobSpec(matrix, list(gens), expression, target,
                   data.get("max_len"))
    if args.max_len is not None:
        spec.max_len = args.max_len
    if spec.max_len is not None and len(spec.expression) > spec.max_len:
        raise SpecError(f"expression longer than --max-len {spec.max_len}")
    return spec


def _graphs_of(spec: JobSpec):
    system = spec.system()
    expr = Expression(system, spec.expression)
    if spec.target == "all":
        return expr, build_all_graphs(expr)
    return expr, [build_graph(expr, system.element_from_word(spec.target))]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _stats(g) -> dict:
    gens = cs.enumerate_generators(g)
    return {"n_vertices": g.n_vertices, "n_edges": g.n_edges,
            "components": g.n_components(), "dim": cs.cycle_space_dim(g),
            "lengths": sorted(c.length for c in gens)}


def cmd_graph(args) -> int:
    spec = load_spec(args.spec, args)
    _, graphs = _graphs_of(spec)
    out = Path(args.out)                # made only once the build succeeded
    out.mkdir(parents=True, exist_ok=True)
    stats = []
    for idx, g in enumerate(graphs):
        name = f"graph_{idx:03d}.dot"
        (out / name).write_text(g.to_dot(), encoding="utf-8")
        entry = {"index": idx, "dot": name}
        entry.update(_stats(g))
        stats.append(entry)
    _write_json(out / "stats.json", {"expression": list(spec.expression),
                                     "graphs": stats})
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = load_spec(args.spec, args)
    _, graphs = _graphs_of(spec)
    out = Path(args.out)                # made only once the build succeeded
    out.mkdir(parents=True, exist_ok=True)
    report = {"command": f"verify {args.what}", "classes": []}
    ok = True
    for idx, g in enumerate(graphs):
        entry = {"index": idx, "n_vertices": g.n_vertices,
                 "n_edges": g.n_edges}
        if args.what == "connectivity":
            entry["connected"] = is_connected(g)
            entry["ok"] = entry["connected"]
        elif args.what == "span":
            rep = cs.verify_span(g)
            entry.update(rep)
        else:                                           # decompose
            certs = []
            entry["ok"] = True
            for fc in cs.fundamental_cycles(g):
                pieces = cs.decompose(g, fc)
                cert = cs.certificate(g, pieces)
                if not cs.check_certificate(g, cert, fc):
                    entry["ok"] = False
                certs.append({"target_edges": format(fc, "b"),
                              "cycles": cert})
            _write_json(out / f"certificate_{idx:03d}.json", certs)
        ok = ok and entry["ok"]
        report["classes"].append(entry)
    report["ok"] = ok
    _write_json(out / "report.json", report)
    if not ok:
        first = next(e for e in report["classes"] if not e["ok"])
        print(json.dumps(first, sort_keys=True), file=sys.stderr)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_sweep(args) -> int:
    """Sweep one type; table1 compares minimum-basis lengths with its row."""
    if args.max_len is not None and args.max_len < 0:
        raise SpecError("--max-len must be >= 0")
    if args.samples is not None:
        if args.samples < 1:
            raise SpecError("--samples must be >= 1")
        if args.max_len is not None and args.max_len < 1:
            raise SpecError("--samples needs --max-len >= 1")
    if args.jobs < 1:
        raise SpecError("--jobs must be >= 1")
    matrix = _matrix_for(args.type, args.rank)     # rejects unknown types
    if args.mode == "table1":
        if args.samples is not None:
            raise SpecError("sweep table1 takes no --samples")
        rep = sweeps.table1_report(args.type, args.rank, args.max_len,
                                   jobs=args.jobs)
    else:
        max_len = args.max_len
        if max_len is None:
            max_len = SWEEP_MAX_LEN[args.mode]
        if args.samples is None:
            words = sweeps.sweep_words(matrix, max_len, exhaustive_cap=max_len)
        else:
            words = sweeps.random_words(len(matrix), args.samples, max_len,
                                        args.seed)
        rep = sweeps.run_sweep(matrix, words, args.mode, jobs=args.jobs)
        rep["type"] = args.type
    text = json.dumps(rep, sort_keys=True, indent=2)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{args.mode}.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    if args.mode == "table1" and set(rep["observed"]) < set(rep["expected"]):
        # too short a sweep to meet the whole row is not a failure
        unseen = sorted(set(rep["expected"]) - set(rep["observed"]))
        print(f"error: the sweep met no cycle of length "
              f"{', '.join(map(str, unseen))}; raise --max-len",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if rep["ok"] else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="subexpr",
        description="subexpression graphs of Coxeter groups and their cycle spaces")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="JSON problem spec")
        p.add_argument("--max-len", type=int, default=None,
                       help="expression length cap")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("graph", help="export Sub(s,w) as DOT plus stats")
    common(p)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("verify", help="run a verification")
    p.add_argument("what", choices=["connectivity", "span", "decompose"])
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="sweep the words of a root-system type")
    p.add_argument("mode", choices=["connectivity", "span", "table1"])
    p.add_argument("type", help="root system type (A1, An, B2, Bn, Dn, F4, G2, A2~)")
    p.add_argument("--rank", type=int, default=None,
                   help="rank of An, Bn or Dn")
    p.add_argument("--max-len", type=int, default=None,
                   help="longest word (default: 10 connectivity, 8 span, "
                        "max(10, 2n) for table1, n the largest order in "
                        "the row)")
    p.add_argument("--samples", type=int, default=None,
                   help="check this many random words instead of all words")
    p.add_argument("--seed", type=int, default=2024,
                   help="seed of the random words")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", default=None,
                   help="directory for <mode>.json, a copy of the report")
    p.set_defaults(fn=cmd_sweep)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SpecError, MalformedMatrix, TooLarge, NotRealized,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
