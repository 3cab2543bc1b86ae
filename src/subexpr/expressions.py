"""Expressions, subexpressions, folding operators, the order on
SubExpr(s,w), special pairs, galleries, and the graph Sub(s,w).

A subexpression of the expression s = (s_1,...,s_m) is a bit sequence
gamma; its prefixes are gamma^{<i} = s_1^{g_1} ... s_{i-1}^{g_{i-1}} and its
prefix roots gamma^{->i} = gamma^{<i}(-e_{s_i}).  Two subexpressions with
the same target at Hamming distance two differ by a double fold f_{i,j},
applicable exactly when gamma^{->i} = +-gamma^{->j}; the positive
representative of that root is the color of the resulting edge.

All indices are 0-based in code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import coxeter
from .coxeter import CoxeterSystem, Element

ENUMERATION_LIMIT = 24


class IndexOutOfRange(IndexError):
    pass


class NotApplicable(ValueError):
    pass


class DifferentTargets(ValueError):
    pass


class TooLarge(ValueError):
    pass


class NotRealized(ValueError):
    pass


@dataclass(frozen=True)
class Expression:
    """A finite word in the generators of a Coxeter system."""

    system: CoxeterSystem
    letters: Tuple[int, ...]

    def __post_init__(self):
        for g in self.letters:
            if not 0 <= g < self.system.rank:
                raise IndexOutOfRange(f"letter {g} out of range")

    def __len__(self):
        return len(self.letters)


class Subexpression:
    """A bit mask on an expression with cached prefix elements and roots.

    prefix_ids[i] is the intern id of gamma^{<i+1} (prefix_ids[0] = identity),
    roots[i] the signed root id of gamma^{->i+1}.  The bit tuple is worked
    out from the mask on first read.
    """

    __slots__ = ("expr", "_bits", "prefix_ids", "roots", "mask")

    def __init__(self, expr: Expression, bits, prefix_ids=None, roots=None):
        self.expr = expr
        self._bits = bits = tuple(int(b) for b in bits)
        if len(bits) != len(expr):
            raise ValueError("bit sequence length mismatch")
        if prefix_ids is None:
            sys_ = expr.system
            pids = [0]
            rids = []
            eid = 0
            for g, b in zip(expr.letters, bits):
                rids.append(sys_.arrow_root(eid, g))
                if b:
                    eid = sys_.multiply_gen(eid, g)
                pids.append(eid)
            prefix_ids, roots = tuple(pids), tuple(rids)
        self.prefix_ids = prefix_ids
        self.roots = roots
        self.mask = sum(b << i for i, b in enumerate(bits))

    @classmethod
    def from_record(cls, expr: Expression, mask: int, prefix_ids, roots):
        """A vertex from a subexpr_classes record, stored as given."""
        self = cls.__new__(cls)
        self.expr = expr
        self._bits = None
        self.prefix_ids = prefix_ids
        self.roots = roots
        self.mask = mask
        return self

    @property
    def bits(self) -> Tuple[int, ...]:
        bits = self._bits
        if bits is None:
            mask = self.mask
            bits = self._bits = tuple((mask >> i) & 1
                                      for i in range(len(self.expr)))
        return bits

    # -- accessors ------------------------------------------------------------

    def target_id(self) -> int:
        return self.prefix_ids[-1]

    def target(self) -> Element:
        sys_ = self.expr.system
        return Element(sys_, sys_.elem_matrix(self.target_id()))

    def prefix(self, i: int) -> Element:
        """gamma^{<i+1} as an Element (i from 0 to m)."""
        sys_ = self.expr.system
        word = tuple(g for g, b in zip(self.expr.letters[:i], self.bits[:i]) if b)
        return Element(sys_, sys_.elem_matrix(self.prefix_ids[i]), word)

    def arrow_root(self, i: int) -> np.ndarray:
        """gamma^{->i+1} as a vector."""
        return self.expr.system.root_vec(self.roots[i])

    def __eq__(self, other):
        return self.expr is other.expr and self.mask == other.mask

    def __hash__(self):
        return hash((id(self.expr), self.mask))

    def __repr__(self):
        return "Subexpression(" + "".join(map(str, self.bits)) + ")"


def subexpr_from_mask(expr: Expression, mask: int) -> Subexpression:
    bits = [(mask >> i) & 1 for i in range(len(expr))]
    return Subexpression(expr, bits)


# -- spec operations ---------------------------------------------------------

def target(gamma: Subexpression) -> Element:
    return gamma.target()


def double_fold_applicable(gamma: Subexpression, i: int, j: int) -> bool:
    """f_{i,j} is applicable iff gamma^{->i} = +-gamma^{->j}."""
    m = len(gamma.expr)
    if not (0 <= i < j < m):
        raise IndexOutOfRange(f"bad fold pair ({i},{j})")
    return abs(gamma.roots[i]) == abs(gamma.roots[j])


def double_fold(gamma: Subexpression, i: int, j: int) -> Subexpression:
    """Flip bits i and j; the target is preserved."""
    if not double_fold_applicable(gamma, i, j):
        raise NotApplicable(f"f_{{{i},{j}}} is not applicable")
    bits = list(gamma.bits)
    bits[i] ^= 1
    bits[j] ^= 1
    return Subexpression(gamma.expr, bits)


def order_compare(delta: Subexpression, gamma: Subexpression) -> int:
    """-1 if delta < gamma, 0 if equal, +1 if delta > gamma.

    The order compares at the maximal differing position i: the greater
    subexpression is the one whose prefix root at i is positive.
    """
    if delta.expr is not gamma.expr and delta.expr != gamma.expr:
        raise DifferentTargets("subexpressions of different expressions")
    if delta.target_id() != gamma.target_id():
        raise DifferentTargets("subexpressions with different targets")
    if delta.bits == gamma.bits:
        return 0
    i = max(k for k in range(len(delta.bits)) if delta.bits[k] != gamma.bits[k])
    return 1 if delta.roots[i] > 0 else -1


def descend_step(gamma: Subexpression):
    """A fold pair (i,j) with f_{i,j} gamma < gamma, or None at the minimum.

    Chooses the maximal j with gamma^{->j} > 0 admitting a partner, then the
    maximal partner i < j with gamma^{->i} = +-gamma^{->j}.
    """
    rids = gamma.roots
    for j in range(len(rids) - 1, -1, -1):
        if rids[j] <= 0:
            continue
        for i in range(j - 1, -1, -1):
            if abs(rids[i]) == abs(rids[j]):
                return (i, j)
    return None


def special_pairs(gamma: Subexpression) -> List[Tuple[int, int, int]]:
    """All special pairs (i, j, color root id), by j and then i."""
    r = gamma.roots
    return [(i, j, r[j]) for j in range(len(r)) for i in range(j)
            if is_special_pair(gamma, i, j)]


def is_special_pair(gamma: Subexpression, i: int, j: int) -> bool:
    """(i,j) is special iff gamma^{->j} = -gamma^{->i} > 0, no k < i has
    gamma^{->k} = gamma^{->j}, and no i < k < j has gamma^{->k} = gamma^{->i}.
    """
    rids = gamma.roots
    rj = rids[j]
    return (rj > 0 and rids[i] == -rj
            and not any(rids[k] == rj for k in range(i))
            and not any(rids[k] == -rj for k in range(i + 1, j)))


@dataclass
class Gallery:
    """The gallery of a subexpression: its chambers and crossed/folded walls."""

    chambers: List[Element]
    walls: List[np.ndarray]


def gallery_of(gamma: Subexpression) -> Gallery:
    sys_ = gamma.expr.system
    chambers = [gamma.prefix(i) for i in range(len(gamma.expr) + 1)]
    walls = [sys_.root_vec(abs(r)) for r in gamma.roots]
    return Gallery(chambers, walls)


# -- the graph Sub(s,w) ------------------------------------------------------

def subexpr_classes(expr: Expression,
                    target: Optional[int] = None) -> Dict[int, list]:
    """Subexpressions of expr grouped by target id.

    Returns {target eid: [(mask, prefix_ids, roots), ...]} using a DFS that
    shares prefix computations between bit sequences.  Without a target
    the DFS walks all 2^m bit sequences.  With a target eid it first builds
    the backward live sets live[i], the prefixes at position i from which
    some choice of the remaining letters reaches the target, and enters
    only live states: the cost follows the size of the class, and the
    result is {target: records} with the records of the full walk in the
    same order, or {} when no subexpression has that target.
    """
    sys_ = expr.system
    m = len(expr)
    if m > ENUMERATION_LIMIT:
        raise TooLarge(f"expression length {m} exceeds the limit "
                       f"{ENUMERATION_LIMIT}")
    live = None
    if target is not None:
        live = [{target}]
        for g in reversed(expr.letters):
            live.append(live[-1] | {sys_.multiply_gen(x, g) for x in live[-1]})
        live.reverse()
        if 0 not in live[0]:
            return {}
    classes: Dict[int, list] = {}
    pids = [0] * (m + 1)
    rids = [0] * m
    mask = [0]

    def walk(i, eid):
        if i == m:
            rec = (mask[0], tuple(pids), tuple(rids))
            classes.setdefault(eid, []).append(rec)
            return
        g = expr.letters[i]
        rids[i] = sys_.arrow_root(eid, g)
        if live is None or eid in live[i + 1]:
            pids[i + 1] = eid
            walk(i + 1, eid)
        eid2 = sys_.multiply_gen(eid, g)
        if live is None or eid2 in live[i + 1]:
            pids[i + 1] = eid2
            mask[0] |= 1 << i
            walk(i + 1, eid2)
            mask[0] &= ~(1 << i)

    walk(0, 0)
    return classes


class _BuiltOnFirstUse:
    """An attribute computed by a method on first read and then stored on
    the instance.  Unlike functools.cached_property it stores through
    setattr, which leaves the instance's attribute layout compact: once
    cached_property has written into __dict__, every attribute read on
    that instance costs about 35 ns instead of 12 (CPython 3.11), which
    decompose, reading the graph's attributes per edge, would pay."""

    def __init__(self, build):
        self.build = build
        self.name = build.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.build(obj)
        setattr(obj, self.name, value)
        return value


@dataclass
class SubexprGraph:
    """The graph Sub(s,w): vertices sorted ascending, indexed edges.

    edge_index and incident are built on first use.
    """

    expr: Expression
    target_eid: int
    vertices: List[Subexpression]
    edges: List[Tuple[int, int, int]]          # (a, b, color rid), a < b
    vertex_index: Dict[int, int]               # mask -> idx

    @_BuiltOnFirstUse
    def edge_index(self) -> Dict[Tuple[int, int], int]:
        return {(a, b): k for k, (a, b, _) in enumerate(self.edges)}

    @_BuiltOnFirstUse
    def incident(self) -> List[List[int]]:
        incident = [[] for _ in self.vertices]
        for k, (a, b, _) in enumerate(self.edges):
            incident[a].append(k)
            incident[b].append(k)
        return incident

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    def edge_id(self, a: int, b: int) -> int:
        return self.edge_index[(a, b) if a < b else (b, a)]

    def components(self) -> List[int]:
        """Component label per vertex, numbered by first vertex (union-find)."""
        parent = list(range(len(self.vertices)))
        for a, b, _ in self.edges:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
        # A link always points down, so each root is the least vertex of
        # its component and each parent precedes its child: labels are
        # handed out in vertex order, and a child copies its parent's.
        lab = [0] * len(parent)
        n_labels = 0
        for v, p in enumerate(parent):
            if p == v:
                lab[v] = n_labels
                n_labels += 1
            else:
                lab[v] = lab[p]
        return lab

    def n_components(self) -> int:
        lab = self.components()
        return (max(lab) + 1) if lab else 0

    def to_dot(self) -> str:
        sys_ = self.expr.system
        lines = ["graph sub {"]
        for i, v in enumerate(self.vertices):
            label = "".join(map(str, v.bits))
            lines.append(f'  v{i} [label="{label}"];')
        labels: Dict[int, str] = {}
        for a, b, rid in self.edges:
            label = labels.get(rid)
            if label is None:
                vec = sys_.root_vec(abs(rid))
                label = labels[rid] = ",".join(f"{round(float(c), 6):g}"
                                               for c in vec)
            lines.append(f'  v{a} -- v{b} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _graph_from_records(expr: Expression, eid: int, records) -> SubexprGraph:
    # Two vertices of a class agree after their last differing position i,
    # so their roots after i are equal and their roots at i are opposite:
    # order_compare is the comparison of the integers whose bit q is the
    # sign of the root at q, and no two vertices of a class tie.
    bit = [1 << q for q in range(len(expr))]
    keyed = []
    for rec in records:
        key = 0
        for bq, rid in zip(bit, rec[2]):
            if rid > 0:
                key |= bq
        keyed.append((key, rec))
    keyed.sort(key=lambda kr: kr[0])
    verts = [Subexpression.from_record(expr, mask, pids, rids)
             for _, (mask, pids, rids) in keyed]
    vidx = {v.mask: i for i, v in enumerate(verts)}
    # The fold at (p, q), p < q, leads to a greater vertex exactly when
    # the root at q is negative, so each edge is emitted once, from its
    # lower end, and the rows come out in ascending (a, b) order.
    edges = []
    for i, v in enumerate(verts):
        groups: Dict[int, List[int]] = {}      # |root| -> bits of its positions
        row = []
        mask = v.mask
        for bq, rid in zip(bit, v.roots):
            if rid < 0:
                rid = -rid
                seen = groups.get(rid)
                if seen is None:
                    groups[rid] = [bq]
                    continue
                mq = mask ^ bq
                row.extend([(i, vidx[mq ^ bp], rid) for bp in seen])
                seen.append(bq)
            else:
                seen = groups.get(rid)
                if seen is None:
                    groups[rid] = [bq]
                else:
                    seen.append(bq)
        row.sort()
        edges.extend(row)
    return SubexprGraph(expr, eid, verts, edges, vidx)


def build_graph(expr: Expression, w: Element) -> SubexprGraph:
    """The graph Sub(s, w); NotRealized if no subexpression has target w."""
    eid = expr.system.element_id(w.matrix)
    records = subexpr_classes(expr, eid).get(eid)
    if records is None:
        raise NotRealized("no subexpression of the expression has the target")
    return _graph_from_records(expr, eid, records)


def build_all_graphs(expr: Expression) -> List[SubexprGraph]:
    """One Sub(s,w) per realized target class, in deterministic order."""
    classes = subexpr_classes(expr)
    return [_graph_from_records(expr, eid, recs)
            for eid, recs in sorted(classes.items())]


def is_connected(g: SubexprGraph) -> bool:
    return g.n_vertices <= 1 or g.n_components() == 1
