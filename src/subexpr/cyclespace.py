"""GF(2) cycle-space algebra on subexpression graphs: the triangle and
square generators, edge moving to special pairs, dihedral-cycle images,
constructive decomposition of even subgraphs, and spanning verification.

Edge sets are integer bitmasks over the host graph's edge index, so GF(2)
addition is ``^`` and rank computations are int-based Gaussian elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import dihedral
from .expressions import Subexpression, SubexprGraph, is_special_pair


class ConditionViolated(ValueError):
    """The root conditions of a generator kind fail at the given indices."""


class NotEven(ValueError):
    """The input edge set has a vertex of odd degree."""


class DecompositionError(RuntimeError):
    """An induction step of the constructive decomposition failed."""


# -- GF(2) linear algebra on int bitmasks ------------------------------------

class Gf2Basis:
    """Incremental row basis of integer bit-vectors over GF(2)."""

    def __init__(self):
        self.pivots: Dict[int, int] = {}          # pivot bit -> reduced vector

    def reduce(self, v: int) -> int:
        pivots = self.pivots
        while v:
            p = pivots.get(v.bit_length() - 1)
            if p is None:
                break
            v ^= p
        return v

    def add(self, v: int) -> bool:
        """Insert v; returns True if it was independent of the basis."""
        v = self.reduce(v)
        if v == 0:
            return False
        self.pivots[v.bit_length() - 1] = v
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def rank(self) -> int:
        return len(self.pivots)


def gf2_rank(vectors: Iterable[int]) -> int:
    basis = Gf2Basis()
    for v in vectors:
        basis.add(v)
    return basis.rank


# -- generator cycles ---------------------------------------------------------

@dataclass(frozen=True)
class GeneratorCycle:
    """One generating cycle: a closed edge path with a strict maximal vertex."""

    kind: str                        # Tr1 Tr2 Tr3 Sq1 Sq2 Cyc1 Cyc2
    anchor_mask: int
    indices: Tuple[int, ...]
    vertex_masks: Tuple[int, ...]    # cycle order, anchor first
    edges: int                       # bitmask over the host graph edge index

    @property
    def length(self) -> int:
        return len(self.vertex_masks)

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "indices": list(self.indices),
                "vertices": [format(m, "b") for m in self.vertex_masks]}


def _cycle_from_masks(g: SubexprGraph, kind: str, indices, masks) -> GeneratorCycle:
    """Validate a closed mask path against the graph and package it."""
    try:
        vids = [g.vertex_index[m] for m in masks]
    except KeyError as exc:
        raise ConditionViolated(f"{kind}{tuple(indices)}: vertex {exc} missing")
    if len(set(vids)) != len(vids):
        raise ConditionViolated(f"{kind}{tuple(indices)}: repeated vertex")
    edges = 0
    for a, b in zip(vids, vids[1:] + vids[:1]):
        try:
            edges |= 1 << g.edge_id(a, b)
        except KeyError:
            raise ConditionViolated(f"{kind}{tuple(indices)}: missing edge")
    if max(vids) != vids[0]:
        raise ConditionViolated(f"{kind}{tuple(indices)}: anchor is not maximal")
    return GeneratorCycle(kind, masks[0], tuple(indices), tuple(masks), edges)


def make_triangle(g: SubexprGraph, gamma: Subexpression, kind: str,
                  i: int, j: int, k: int) -> GeneratorCycle:
    """Tr1/Tr2/Tr3 at the anchor gamma, per the defining root conditions."""
    r = gamma.roots
    if not (0 <= i < j < k < len(r)):
        raise ConditionViolated("indices must satisfy i < j < k")
    m = gamma.mask
    if kind in ("Tr1", "Tr3"):
        if not (r[j] == r[k] > 0 and abs(r[i]) == r[j]):
            raise ConditionViolated(f"{kind} root conditions fail")
        if kind == "Tr1":
            masks = [m, m ^ (1 << i) ^ (1 << j), m ^ (1 << i) ^ (1 << k)]
        else:
            masks = [m, m ^ (1 << i) ^ (1 << j), m ^ (1 << j) ^ (1 << k)]
    elif kind == "Tr2":
        if not (abs(r[i]) == abs(r[j]) == abs(r[k]) and r[k] > 0):
            raise ConditionViolated("Tr2 root conditions fail")
        masks = [m, m ^ (1 << j) ^ (1 << k), m ^ (1 << i) ^ (1 << k)]
    else:
        raise ConditionViolated(f"unknown triangle kind {kind}")
    return _cycle_from_masks(g, kind, (i, j, k), masks)


def make_square(g: SubexprGraph, gamma: Subexpression, kind: str,
                i: int, j: int, k: int, l: int) -> GeneratorCycle:
    """Sq1 (disjoint pairs (i,j),(k,l)) or Sq2 (nested (i,l) over (j,k))."""
    r = gamma.roots
    if not (0 <= i < j < k < l < len(r)):
        raise ConditionViolated("indices must satisfy i < j < k < l")
    m = gamma.mask
    if kind == "Sq1":
        if not (abs(r[i]) == abs(r[j]) and r[j] > 0
                and abs(r[k]) == abs(r[l]) and r[l] > 0):
            raise ConditionViolated("Sq1 root conditions fail")
        f1 = (1 << i) | (1 << j)
        f2 = (1 << k) | (1 << l)
    elif kind == "Sq2":
        if not (abs(r[i]) == abs(r[l]) and r[l] > 0
                and abs(r[j]) == abs(r[k]) and r[k] > 0):
            raise ConditionViolated("Sq2 root conditions fail")
        f1 = (1 << i) | (1 << l)
        f2 = (1 << j) | (1 << k)
    else:
        raise ConditionViolated(f"unknown square kind {kind}")
    masks = [m, m ^ f1, m ^ f1 ^ f2, m ^ f2]
    return _cycle_from_masks(g, kind, (i, j, k, l), masks)


def cycle_space_dim(g: SubexprGraph) -> int:
    """dim of the even-subgraph space: |E| - |V| + #components."""
    return g.n_edges - g.n_vertices + g.n_components()


def _edge_positions(g: SubexprGraph, eid: int) -> Tuple[int, int]:
    """The fold positions (p, q) of an edge, read from the mask difference."""
    a, b, _ = g.edges[eid]
    diff = g.vertices[a].mask ^ g.vertices[b].mask
    p = (diff & -diff).bit_length() - 1
    q = diff.bit_length() - 1
    return p, q


def move_edge(g: SubexprGraph, v: int, pq: Tuple[int, int]):
    """Move the edge {gamma, f_pq gamma} to a special pair at gamma.

    gamma = g.vertices[v] must be the greater endpoint.  Returns
    ((i, j), used): a special pair of the same color plus Tr2/Tr3/Sq1
    cycles anchored at gamma whose sum exchanges the edges; the recursion
    descends the lexicographic parameter (q, q - p).
    """
    gamma = g.vertices[v]
    rids = gamma.roots
    p, q = pq
    used: List[GeneratorCycle] = []
    while True:
        alpha = rids[q]
        if alpha <= 0:
            raise DecompositionError("anchor is not the greater endpoint")
        if rids[p] != -alpha:
            # case 1: the pair opens with +alpha
            r = max((r for r in range(p) if rids[r] == -alpha), default=None)
            if r is None:
                raise DecompositionError("no -alpha position before p (case 1)")
            used.append(make_triangle(g, gamma, "Tr3", r, p, q))
            p, q = r, p
            continue
        k2 = next((t for t in range(p) if rids[t] == alpha), None)
        if k2 is not None:
            # case 2: an earlier +alpha breaks the first-crossing condition
            r = max((r for r in range(k2) if rids[r] == -alpha), default=None)
            if r is None:
                raise DecompositionError("no -alpha position before k (case 2)")
            used.append(make_square(g, gamma, "Sq1", r, k2, p, q))
            p, q = r, k2
            continue
        k3 = next((t for t in range(p + 1, q) if rids[t] == -alpha), None)
        if k3 is not None:
            # case 3: a -alpha strictly inside the pair
            used.append(make_triangle(g, gamma, "Tr2", p, k3, q))
            p = k3
            continue
        return (p, q), used


def _resolve_special_pairs(g: SubexprGraph, v: int, pair1, pair2):
    """Cycles anchored at vertex v whose sum at v is the two special edges."""
    gamma = g.vertices[v]
    i, k = pair1
    j, l = pair2
    if (i, k) > (j, l):
        (i, k), (j, l) = (j, l), (i, k)
    if i == j:                                         # shared opening index
        return [make_triangle(g, gamma, "Tr1", i, min(k, l), max(k, l))]
    if k == l:                                         # shared closing index
        return [make_triangle(g, gamma, "Tr2", i, j, k)]
    if k < j:                                          # disjoint
        return [make_square(g, gamma, "Sq1", i, k, j, l)]
    if l < k:                                          # nested: (i,k) over (j,l)
        return [make_square(g, gamma, "Sq2", i, j, l, k)]
    # crossing: i < j < k < l -- the dihedral reduction
    return _resolve_crossing(g, v, (i, k), (j, l))


def _resolve_crossing(g: SubexprGraph, v: int, pair1, pair2):
    gamma = g.vertices[v]
    sys_ = g.expr.system
    i, k = pair1
    j, l = pair2
    # one context per system and ordered root pair (lam, mu)
    key = (abs(gamma.roots[j]), abs(gamma.roots[i]))
    ctx = sys_.dihedral_contexts.get(key)
    if ctx is None:
        ctx = dihedral.make_dihedral(sys_, sys_.root_vec(key[0]),
                                     sys_.root_vec(key[1]))
        sys_.dihedral_contexts[key] = ctx
    if ctx.order_n == math.inf:
        raise DecompositionError("crossing special pairs in an infinite dihedral")
    pi, p, morph = dihedral.project_subexpression(gamma, ctx)
    pos = {r: z for z, r in enumerate(p)}
    try:
        ii, jj, kk, ll = pos[i], pos[j], pos[k], pos[l]
    except KeyError:
        raise DecompositionError("special index outside the projected word")
    small, _resid, _cfg = dihedral.reduce_special_vertex(pi, (ii, kk), (jj, ll))
    out = []
    for kind, x, y, masks in small:
        big = [morph.apply_mask(m) for m in masks]
        out.append(_cycle_from_masks(g, kind, (i, j, k, l, x, y), big))
    return out


def decompose(g: SubexprGraph, even: int) -> List[GeneratorCycle]:
    """Write an even edge set as a GF(2) sum of generator cycles.

    Induction on the maximal incident vertex: move every residue edge
    there to a special pair, then cancel the special edges two at a time
    (single Tr/Sq for shared, disjoint or nested pairs; dihedral-cycle
    images for crossing pairs).
    """
    residue = 0
    deg = [0] * g.n_vertices               # degree of each vertex in residue
    top = g.n_vertices                     # the vertex being cleared
    positions: Dict[int, Tuple[int, int]] = {}     # edge id -> fold (p, q)
    out: List[GeneratorCycle] = []

    def toggle(bits: int):
        nonlocal residue
        b = bits
        while b:
            low = b & -b
            eid = low.bit_length() - 1
            a, c, _ = g.edges[eid]         # a < c
            if c > top:
                raise DecompositionError("maximal incident vertex did not decrease")
            d = 1 if not (residue >> eid & 1) else -1
            deg[a] += d
            deg[c] += d
            b ^= low
        residue ^= bits

    def residue_edges_at(v: int):
        found = []
        for eid in g.incident[v]:
            if residue >> eid & 1:
                pq = positions.get(eid)
                if pq is None:
                    pq = positions[eid] = _edge_positions(g, eid)
                found.append((pq, eid))
        found.sort()
        return found

    toggle(even)
    if any(d % 2 for d in deg):
        raise NotEven("input edge set has a vertex of odd degree")
    while residue:
        # toggle keeps every residue edge at or below the last top, and
        # the last top was cleared, so the next one lies strictly below
        top -= 1
        while not deg[top]:
            top -= 1
        v = top
        gamma = g.vertices[v]
        while True:
            at_v = residue_edges_at(v)
            pq = next((pq for pq, _ in at_v if not is_special_pair(gamma, *pq)),
                      None)
            if pq is None:
                break
            _, used = move_edge(g, v, pq)
            for c in used:
                out.append(c)
                toggle(c.edges)

        # the last scan found nothing to move: at_v lists the special edges
        if len(at_v) % 2:
            raise DecompositionError("odd number of special edges at the top")
        for (pq1, _), (pq2, _) in zip(at_v[0::2], at_v[1::2]):
            for c in _resolve_special_pairs(g, v, pq1, pq2):
                out.append(c)
                toggle(c.edges)
        if deg[v]:
            raise DecompositionError("top vertex still has residue edges")
    return out


# -- enumeration and spanning -------------------------------------------------

def _generator_order(c: GeneratorCycle):
    """Sort key of generator lists: short cycles first, then a fixed order.

    The order is load-bearing: fed in vertex order instead, the GF(2)
    elimination of 14-letter A2~ identity classes ran 1.3 to 2.2 times
    as long."""
    return (c.length, c.kind, c.anchor_mask, c.indices)


def scan_generators(g: SubexprGraph) -> List[GeneratorCycle]:
    """All Tr/Sq instances: every index tuple meeting a kind's root
    conditions at some vertex, in generator order.

    Each tuple the loops try meets its kind's conditions, so a
    ``ConditionViolated`` here is a fault and propagates.  An instance is
    fixed by its anchor, kind and indices, and no two share an edge set.
    """
    out: List[GeneratorCycle] = []
    for gamma in g.vertices:
        r = gamma.roots
        m = len(r)
        for i in range(m):
            for j in range(i + 1, m):
                if abs(r[i]) != abs(r[j]):
                    continue
                for k in range(j + 1, m):
                    # every kind needs r[k] > 0, and Tr1/Tr3 also r[j] > 0
                    if abs(r[k]) != abs(r[j]) or r[k] < 0:
                        continue
                    for kind in (("Tr1", "Tr2", "Tr3") if r[j] > 0
                                 else ("Tr2",)):
                        out.append(make_triangle(g, gamma, kind, i, j, k))
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)
                 if abs(r[i]) == abs(r[j]) and r[j] > 0]
        for i, j in pairs:
            for k, l in pairs:
                if j < k:
                    out.append(make_square(g, gamma, "Sq1", i, j, k, l))
                if i < k and l < j:
                    out.append(make_square(g, gamma, "Sq2", i, k, l, j))
    out.sort(key=_generator_order)
    return out


def fundamental_cycles(g: SubexprGraph) -> List[int]:
    """Edge masks of the fundamental cycles of a BFS spanning forest."""
    path = [0] * g.n_vertices              # edge mask of the tree path to root
    seen = [False] * g.n_vertices
    tree = 0
    out = []
    for root in range(g.n_vertices):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        while queue:
            v = queue.pop()
            for eid in g.incident[v]:
                a, b, _ = g.edges[eid]
                u = b if a == v else a
                if not seen[u]:
                    seen[u] = True
                    path[u] = path[v] ^ (1 << eid)
                    tree |= 1 << eid
                    queue.append(u)
    for eid, (a, b, _) in enumerate(g.edges):
        if not (tree >> eid & 1):
            out.append(path[a] ^ path[b] ^ (1 << eid))
    return out


def enumerate_generators(g: SubexprGraph,
                         basis: Optional[Gf2Basis] = None) -> List[GeneratorCycle]:
    """A generating family of the cycle space: the Tr/Sq scan, completed by
    the dihedral Cyc images from constructively decomposing the fundamental
    cycles not already in the scan's span (so they come exactly where they
    are needed).  Every Tr/Sq that ``decompose`` emits meets the root
    conditions at a vertex, so the scan already has it.

    One elimination serves the whole enumeration: every generator's edge
    set goes into ``basis`` (a fresh one when none is given; pass an
    empty one to read the generators' rank afterwards), and the completion
    stops once the rank reaches the cycle-space dimension, the number of
    fundamental cycles, since every cycle left is then in the span.
    """
    if basis is None:
        basis = Gf2Basis()
    gens = scan_generators(g)
    for c in gens:
        basis.add(c.edges)
    fcs = fundamental_cycles(g)
    dim = len(fcs)
    cyc: Dict[int, GeneratorCycle] = {}    # edge set -> first Cyc image
    for fc in fcs:
        if basis.rank == dim:
            break
        if basis.contains(fc):
            continue
        for c in decompose(g, fc):
            if c.kind in ("Cyc1", "Cyc2") and c.edges not in cyc:
                cyc[c.edges] = c
                basis.add(c.edges)
    del fcs                                # free the masks before the sort's peak
    if cyc:
        gens = sorted(gens + list(cyc.values()), key=_generator_order)
    return gens


def verify_span(g: SubexprGraph) -> dict:
    """Check that the enumerated generators span the cycle space.

    The rank is that of the basis the enumeration built, so each
    generator is eliminated once."""
    basis = Gf2Basis()
    gens = enumerate_generators(g, basis)
    dim = cycle_space_dim(g)
    rank = basis.rank
    lengths = sorted({c.length for c in gens})
    return {"n_vertices": g.n_vertices, "n_edges": g.n_edges,
            "components": g.n_components(), "dim": dim,
            "n_generators": len(gens), "rank": rank,
            "lengths": lengths, "ok": rank == dim}


def min_length_basis(g: SubexprGraph):
    """A greedy minimum-length basis of the cycle space from the generators."""
    basis = Gf2Basis()
    chosen = []
    for c in enumerate_generators(g):      # already sorted by length
        if basis.add(c.edges):
            chosen.append(c)
    return chosen


# -- certificates -------------------------------------------------------------

def certificate(g: SubexprGraph, cycles: Sequence[GeneratorCycle]) -> list:
    return [c.to_json() for c in cycles]


def check_certificate(g: SubexprGraph, cert: list, target_bits: int) -> bool:
    """Independent replay: re-sum the certified cycles from their vertex
    bit strings alone and compare with the target edge set."""
    total = 0
    for item in cert:
        masks = [int(s, 2) for s in item["vertices"]]
        try:
            vids = [g.vertex_index[m] for m in masks]
            for a, b in zip(vids, vids[1:] + vids[:1]):
                total ^= 1 << g.edge_id(a, b)
        except KeyError:
            return False
    return total == target_bits
