"""GF(2) cycle-space algebra on subexpression graphs: the triangle and
square generators, dihedral-cycle images, the per-vertex link forests,
constructive decomposition of even subgraphs along them, and spanning
verification.

Edge sets are integer bitmasks over the host graph's edge index, so GF(2)
addition is ``^`` and rank computations are int-based Gaussian elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

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


def _down_edges(g: SubexprGraph) -> List[List[Tuple[int, int]]]:
    """Each vertex's down-edges, read from the graph's edges as folds.

    An edge is a down-edge of its greater end gamma, read as its fold
    (p, q), p < q, which must flip just bits p and q and have
    |r_p| = r_q > 0 at gamma (ConditionViolated otherwise)."""
    verts = g.vertices
    downs: List[List[Tuple[int, int]]] = [[] for _ in verts]
    folds: Dict[int, Tuple[int, int]] = {}     # mask difference -> its fold
    for eid, (a, b, _) in enumerate(g.edges):
        gamma = verts[b]
        diff = verts[a].mask ^ gamma.mask
        pq = folds.get(diff)
        if pq is None:
            pq = folds[diff] = _edge_positions(g, eid)
        p, q = pq
        if (diff != 1 << p | 1 << q
                or not abs(gamma.roots[p]) == gamma.roots[q] > 0):
            raise ConditionViolated(
                f"edge {eid} is not a down-edge of vertex {b}")
        downs[b].append(pq)
    return downs


def _join(g: SubexprGraph, v: int, f1, f2) -> List[GeneratorCycle]:
    """The cycles anchored at vertex v whose sum meets v in just the two
    down-edges with folds f1 and f2: one Tr/Sq unless the folds cross,
    the dihedral Cyc images that resolve them (two special pairs) if so."""
    gamma = g.vertices[v]
    (i, k), (j, l) = sorted((f1, f2))
    if i == j:                                         # shared opening index
        return [make_triangle(g, gamma, "Tr1", i, k, l)]
    if k == l:                                         # shared closing index
        return [make_triangle(g, gamma, "Tr2", i, j, k)]
    if k == j:                                         # chained
        return [make_triangle(g, gamma, "Tr3", i, j, l)]
    if k < j:                                          # disjoint
        return [make_square(g, gamma, "Sq1", i, k, j, l)]
    if l < k:                                          # nested: (i,k) over (j,l)
        return [make_square(g, gamma, "Sq2", i, j, l, k)]
    # crossing: i < j < k < l -- the dihedral reduction
    return _resolve_crossing(g, v, (i, k), (j, l))


def _resolve_crossing(g: SubexprGraph, v: int, pair1, pair2):
    gamma = g.vertices[v]
    sys_ = g.expr.system
    (i, k), (j, l) = pair1, pair2
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


def _find(parent: List[int], x: int) -> int:
    """The union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _link_forest(g: SubexprGraph, v: int, down: List[Tuple[int, int]],
                 cyc: Dict[int, GeneratorCycle]):
    """A spanning forest of the link graph of gamma = g.vertices[v].

    The nodes of gamma's link graph are its down-edges, the folds in
    ``down``, which is sorted here by closing index.  Two folds (i, j) and
    (k, l) that do not cross (no i < k < j < l) are joined: they are the
    two edges at gamma of the one Tr/Sq that ``_join`` builds for them, a
    scan instance.  Where the link graph is still split, each two crossing
    special pairs in different parts are resolved into dihedral Cyc
    images, each added to ``cyc`` (edge set -> first image), and every
    image anchored at gamma joins its two edges there.

    If every link graph is connected, the generators span: an even edge
    set with top vertex gamma meets gamma in evenly many down-edges, and
    a link path between two of them is a sum of generators anchored at
    gamma that meets gamma in just those two and touches nothing above.
    ``decompose`` walks these paths.

    Returns (tree, parts, crossings): the tree edges (a, b, c), positions
    in ``down`` joined by a Tr/Sq (c None) or by the Cyc image c, the
    number of parts left and the number of crossing pairs.
    """
    n = len(down)
    down.sort(key=lambda pq: (pq[1], pq[0]))
    parent = list(range(n))
    tree = []
    parts = n
    crossings = 0
    for a in range(n):
        i, j = down[a]
        for b in range(a + 1, n):
            k, l = down[b]
            # down is ordered by closing index, so j <= l
            if i < k < j < l:
                crossings += 1
            elif parts > 1:
                # _find inlined: this runs for every pair of down-edges
                x, y = a, b
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                if x != y:
                    parent[y] = x
                    parts -= 1
                    tree.append((a, b, None))
    if parts == 1:
        return tree, parts, crossings
    gamma = g.vertices[v]
    specials = sorted((pq, a) for a, pq in enumerate(down)
                      if is_special_pair(gamma, *pq))
    for z, ((i, k), a) in enumerate(specials):
        for (j, l), b in specials[z + 1:]:
            if not i < j < k < l or _find(parent, a) == _find(parent, b):
                continue
            for c in _resolve_crossing(g, v, (i, k), (j, l)):
                cyc.setdefault(c.edges, c)
                if c.anchor_mask != gamma.mask:
                    continue
                # the folds of its two edges at gamma
                x, y = (down.index(((d & -d).bit_length() - 1,
                                    d.bit_length() - 1))
                        for d in (gamma.mask ^ c.vertex_masks[1],
                                  gamma.mask ^ c.vertex_masks[-1]))
                rx, ry = _find(parent, x), _find(parent, y)
                if rx != ry:
                    parent[ry] = rx
                    parts -= 1
                    tree.append((x, y, c))
    return tree, parts, crossings


def _rooted_forest(g: SubexprGraph, v: int):
    """Vertex v's link forest as ``decompose`` walks it: (folds, eids,
    parent, gens).  Per node, numbered so that a parent precedes its
    children: its fold, its edge id and its parent (-1 at a root).  gens
    maps two nodes to the cycle that joins them: the tree's Cyc images,
    and each Tr/Sq once it is built."""
    edges = g.edges
    eid_of = {_edge_positions(g, eid): eid
              for eid in g.incident[v] if edges[eid][1] == v}
    down = list(eid_of)
    tree, _, _ = _link_forest(g, v, down, {})
    near: List[list] = [[] for _ in down]      # tree neighbours
    for a, b, c in tree:
        near[a].append((b, c))
        near[b].append((a, c))
    folds: List[Tuple[int, int]] = []
    parent: List[int] = []
    gens: Dict[Tuple[int, int], GeneratorCycle] = {}
    pos = [-1] * len(down)
    for root in range(len(down)):
        stack = [] if pos[root] >= 0 else [(root, -1, None)]
        while stack:                           # depth first, in preorder
            x, p, c = stack.pop()
            pos[x] = len(folds)
            folds.append(down[x])
            parent.append(p)
            if c is not None:
                gens[pos[x], p] = c
            stack += [(y, pos[x], cy) for y, cy in near[x] if pos[y] < 0]
    return folds, [eid_of[f] for f in folds], parent, gens


def decompose(g: SubexprGraph, even: int) -> List[GeneratorCycle]:
    """Write an even edge set as a GF(2) sum of generator cycles.

    Induction on the maximal incident vertex gamma: its residue edges are
    down-edges, nodes of its link forest (``_rooted_forest``), and a walk
    clears them leaves first.  Two odd children of one node whose folds
    do not cross are joined by the one Tr/Sq of ``_join``; every other
    odd node moves onto its parent through its tree edge's generator.
    Each cycle added is anchored at gamma and meets it in just two
    down-edges, so the sum clears gamma and touches nothing above it.  A
    root left odd means a split link graph (DecompositionError).
    """
    edges = g.edges                        # a local: toggle reads it per edge
    residue = 0
    deg = [0] * g.n_vertices               # degree of each vertex in residue
    top = g.n_vertices                     # the vertex being cleared
    out: List[GeneratorCycle] = []

    def toggle(bits: int):
        nonlocal residue
        b = bits
        while b:
            low = b & -b
            eid = low.bit_length() - 1
            a, c, _ = edges[eid]           # a < c
            if c > top:
                raise DecompositionError("maximal incident vertex did not decrease")
            d = 1 if not (residue >> eid & 1) else -1
            deg[a] += d
            deg[c] += d
            b ^= low
        residue ^= bits

    def join(x: int, y: int):              # the cycle that flips nodes x, y
        c = gens.get((x, y))
        if c is None:
            c = gens[x, y] = _join(g, top, folds[x], folds[y])[0]
        out.append(c)
        toggle(c.edges)

    toggle(even)
    if any(d % 2 for d in deg):
        raise NotEven("input edge set has a vertex of odd degree")
    while residue:
        # toggle keeps every residue edge at or below the last top, and
        # the last top was cleared, so the next one lies strictly below
        top -= 1
        while not deg[top]:
            top -= 1
        if g.link_forests[top] is None:
            g.link_forests[top] = _rooted_forest(g, top)
        folds, eids, parent, gens = g.link_forests[top]
        odd = [residue >> e & 1 for e in eids]
        waiting = [-1] * len(folds)        # per node, an odd child unpaired
        for x in range(len(folds) - 1, -1, -1):    # children before parents
            if waiting[x] >= 0:            # the odd child moves onto x
                join(waiting[x], x)
                odd[x] ^= 1
            p = parent[x]
            if not odd[x] or p < 0:
                continue
            y = waiting[p]
            if y < 0:
                waiting[p] = x
                continue
            (i, k), (j, l) = sorted((folds[x], folds[y]))
            if i < j < k < l:              # crossing: x moves onto p
                join(x, p)
                odd[p] ^= 1
            else:
                join(y, x)
                waiting[p] = -1
        if deg[top]:                       # a root was left odd
            raise DecompositionError(
                f"the walk stopped at vertex {_bit_strings(g, [top])[0]}: "
                "its link graph is split")
    return out


# -- enumeration and spanning -------------------------------------------------

def _generator_order(c: GeneratorCycle):
    """Sort key of generator lists: short cycles first, then a fixed order.
    ``min_length_basis`` relies on it, as it keeps each generator that is
    independent of the shorter ones before it."""
    return (c.length, c.kind, c.anchor_mask, c.indices)


def scan_generators(g: SubexprGraph) -> List[GeneratorCycle]:
    """All Tr/Sq instances, in generator order: at every vertex, the one
    ``_join`` gives for each pair of its down-edges that do not cross.

    Each such pair meets its kind's root conditions, so a
    ``ConditionViolated`` here is a fault and propagates.  An instance is
    fixed by its anchor, kind and indices, and no two share an edge set.
    """
    out: List[GeneratorCycle] = []
    for v, down in enumerate(_down_edges(g)):
        down.sort()
        for a, (i, j) in enumerate(down):
            for k, l in down[a + 1:]:
                # down is in tuple order, so i <= k
                if not i < k < j < l:
                    out += _join(g, v, (i, j), (k, l))
    out.sort(key=_generator_order)
    return out


def fundamental_cycles(g: SubexprGraph) -> List[int]:
    """Edge masks of the fundamental cycles of a BFS spanning forest."""
    edges, incident = g.edges, g.incident
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
            for eid in incident[v]:
                a, b, _ = edges[eid]
                u = b if a == v else a
                if not seen[u]:
                    seen[u] = True
                    path[u] = path[v] ^ (1 << eid)
                    tree |= 1 << eid
                    queue.append(u)
    for eid, (a, b, _) in enumerate(edges):
        if not (tree >> eid & 1):
            out.append(path[a] ^ path[b] ^ (1 << eid))
    return out


def _bit_strings(g: SubexprGraph, vs: Iterable[int]) -> List[str]:
    return ["".join(map(str, g.vertices[v].bits)) for v in vs]


def raise_if_split(g: SubexprGraph, split: List[int]) -> None:
    """Refuse a family whose link graphs stayed split: it may not span."""
    if split:
        raise DecompositionError(
            f"link graphs split at {len(split)} of {g.n_vertices} vertices: "
            + " ".join(_bit_strings(g, split)))


def enumerate_generators(g: SubexprGraph) -> List[GeneratorCycle]:
    """The generating family that ``verify_span`` counts: the Tr/Sq scan
    plus the dihedral Cyc images that ``link_check`` resolved crossing
    special pairs into where the Tr/Sq left a link graph split, in
    generator order.  Raises DecompositionError if one stays split."""
    _, _, cyc, split, _ = link_check(g)
    raise_if_split(g, split)
    gens = scan_generators(g)
    if cyc:
        gens = sorted(gens + list(cyc.values()), key=_generator_order)
    return gens


def link_check(g: SubexprGraph):
    """Check at every vertex that its link graph (``_link_forest``) is
    connected; no forest is kept.

    The generators anchored at a vertex with d down-edges whose link
    graph has c parts have rank d - c there, and generators with
    different top vertices are independent, so the sum of d - c over the
    vertices is a lower bound on the generators' rank.  It equals the
    cycle-space dimension |E| - |V| + #components exactly when no link
    graph is split and each component has one vertex without down-edges.

    Returns (triangles, squares, cyc, split, rank): the numbers of Tr and
    Sq instances, the Cyc images the resolutions returned (edge set ->
    first image), the indices of the vertices whose link graph stayed
    split and that lower bound on the rank.
    """
    triangles = squares = rank = 0
    cyc: Dict[int, GeneratorCycle] = {}
    split: List[int] = []
    for v, down in enumerate(_down_edges(g)):
        n = len(down)
        if n < 2:
            continue
        _, parts, crossings = _link_forest(g, v, down, cyc)
        # two distinct folds share at most one index
        deg = [0] * len(g.vertices[v].roots)
        for p, q in down:
            deg[p] += 1
            deg[q] += 1
        shared = sum(d * (d - 1) // 2 for d in deg)
        triangles += shared
        squares += n * (n - 1) // 2 - crossings - shared
        if parts > 1:
            split.append(v)
        rank += n - parts
    return triangles, squares, cyc, split, rank


def verify_span(g: SubexprGraph) -> dict:
    """Check that the generators span the cycle space.

    The verdict comes from ``link_check``: ``rank`` is its lower bound on
    the generators' rank, and ``ok`` says that it reaches the dimension.
    When it does not, the report names the vertices whose link graph
    stayed split (``split_vertices``, as bit strings)."""
    components = g.n_components()
    dim = g.n_edges - g.n_vertices + components
    triangles, squares, cyc, split, rank = link_check(g)
    lengths = {c.length for c in cyc.values()}
    if triangles:
        lengths.add(3)
    if squares:
        lengths.add(4)
    report = {"n_vertices": g.n_vertices, "n_edges": g.n_edges,
              "components": components, "dim": dim,
              "n_generators": triangles + squares + len(cyc), "rank": rank,
              "lengths": sorted(lengths), "ok": rank == dim}
    if not report["ok"]:
        report["split_vertices"] = _bit_strings(g, split)
    return report


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
