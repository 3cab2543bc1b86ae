"""Exact oracle for the benchmark: target arithmetic and subexpression
graphs computed without any part of ``subexpr``.

Group elements are exact and hashable:

* the dihedral groups I2(m) (B2: m = 4, G2: m = 6) as pairs
  (flip, rotation mod m), standing for rho^rotation sigma^flip;
* A2~ through its geometric representation, whose matrices are integer
  because every m_ij is 3 and 2cos(pi/3) = 1.

Graphs follow the paper's definition: the vertices of Sub(s, w) are the
subexpressions of s (bit masks over the positions) whose product is w,
and two vertices are adjacent when they differ in exactly two positions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

# The paper's cycle-length row per type: {3, 4} plus n + 2 for every
# finite order n of a product of two reflections.
PAPER_LENGTHS = {"B2": frozenset({3, 4, 6}), "G2": frozenset({3, 4, 5, 8}),
                 "A2~": frozenset({3, 4, 5})}

COXETER_MATRICES = {"B2": ((1, 4), (4, 1)), "G2": ((1, 6), (6, 1)),
                    "A2~": ((1, 3, 3), (3, 1, 3), (3, 3, 1))}


class Dihedral:
    """I2(m) as pairs (flip, rotation); generators sigma and rho sigma."""

    def __init__(self, m: int):
        self.m = m
        self.identity = (0, 0)
        self.gens = [(1, 0), (1, 1)]

    def mul(self, x, y):
        f1, r1 = x
        f2, r2 = y
        return (f1 ^ f2, (r1 - r2 if f1 else r1 + r2) % self.m)


class IntegerReflections:
    """A Coxeter group whose m_ij all lie in {2, 3}, acting on Z^n in the
    simple-root basis. Row i of s_i is 2cos(pi/m_ij) off the diagonal and
    -1 on it; every other row is the unit row. Elements are flat tuples."""

    TWO_COS = {2: 0, 3: 1}

    def __init__(self, cox: Sequence[Sequence[int]]):
        n = len(cox)
        self.n = n
        self.identity = tuple(int(r == c) for r in range(n) for c in range(n))
        self.gens = []
        for i in range(n):
            rows = [[int(r == c) for c in range(n)] for r in range(n)]
            rows[i] = [-1 if j == i else self.TWO_COS[cox[i][j]] for j in range(n)]
            self.gens.append(tuple(x for row in rows for x in row))

    def mul(self, x, y):
        n = self.n
        return tuple(sum(x[r * n + k] * y[k * n + c] for k in range(n))
                     for r in range(n) for c in range(n))


def group(type_name: str):
    cox = COXETER_MATRICES[type_name]
    if type_name == "A2~":
        return IntegerReflections(cox)
    return Dihedral(cox[0][1])


def relations_hold(g, cox) -> bool:
    """s_i^2 = 1, s_i != 1, and (s_i s_j)^{m_ij} = 1 with m_ij minimal."""
    for i, si in enumerate(g.gens):
        if si == g.identity or g.mul(si, si) != g.identity:
            return False
        for j, sj in enumerate(g.gens):
            if j == i:
                continue
            prod = g.mul(si, sj)
            power = prod
            for k in range(1, cox[i][j]):
                if power == g.identity:
                    return False                    # order below m_ij
                power = g.mul(power, prod)
            if power != g.identity:
                return False
    return True


def _products(g, letters: Sequence[int]) -> List[Tuple[int, object]]:
    """(mask, product) for every subexpression of the word."""
    out = [(0, g.identity)]
    for i, letter in enumerate(letters):
        s = g.gens[letter]
        bit = 1 << i
        out = out + [(mask | bit, g.mul(e, s)) for mask, e in out]
    return out


def classes(g, letters: Sequence[int]) -> Dict[object, List[int]]:
    """Every subexpression of the word, grouped by product."""
    out: Dict[object, List[int]] = {}
    for mask, e in _products(g, letters):
        out.setdefault(e, []).append(mask)
    for masks in out.values():
        masks.sort()
    return out


def identity_class(g, letters: Sequence[int]) -> List[int]:
    """Masks with product 1, met in the middle: the left half's product
    must equal the inverse of the right half's, which is the product of
    the right half's letters read backwards (generators are involutions)."""
    half = len(letters) // 2
    right = letters[half:]
    inverses: Dict[object, List[int]] = {}
    for rmask, e in _products(g, tuple(reversed(right))):
        forward = int(format(rmask, f"0{len(right)}b")[::-1], 2) if right else 0
        inverses.setdefault(e, []).append(forward)
    out = []
    for lmask, e in _products(g, letters[:half]):
        for forward in inverses.get(e, ()):
            out.append(lmask | (forward << half))
    out.sort()
    return out


def hamming_edges(masks: Iterable[int], length: int) -> List[Tuple[int, int]]:
    """Pairs (a, b), a < b, of class members at Hamming distance 2."""
    members = set(masks)
    out = []
    for v in sorted(members):
        for p in range(length):
            vp = v ^ (1 << p)
            for q in range(p + 1, length):
                u = vp ^ (1 << q)
                if u > v and u in members:
                    out.append((v, u))
    out.sort()
    return out


def n_components(masks: Sequence[int], edges: Iterable[Tuple[int, int]]) -> int:
    parent = {m: m for m in masks}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = len(parent)
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


class ClassGraph:
    """Sub(s, w) for one class: vertices, Hamming-2 edges, components."""

    def __init__(self, masks: Sequence[int], length: int):
        self.masks = list(masks)
        self.members = frozenset(self.masks)
        self.edges = hamming_edges(self.masks, length)
        self.components = n_components(self.masks, self.edges)

    @property
    def dim(self) -> int:
        return len(self.edges) - len(self.masks) + self.components

    def is_closed_cycle(self, vertex_masks: Sequence[int]) -> bool:
        """A closed walk through distinct class members, one edge per step."""
        if len(vertex_masks) < 3 or len(set(vertex_masks)) != len(vertex_masks):
            return False
        if not all(v in self.members for v in vertex_masks):
            return False
        ring = list(vertex_masks[1:]) + [vertex_masks[0]]
        return all(bin(a ^ b).count("1") == 2 for a, b in zip(vertex_masks, ring))

    def spanning_forest_cycles(self) -> List[List[Tuple[int, int]]]:
        """Fundamental cycles of a breadth-first spanning forest, each as
        the sorted list of its edges; neighbours are visited in mask order."""
        adj: Dict[int, List[int]] = {m: [] for m in self.masks}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        parent: Dict[int, int] = {}
        depth: Dict[int, int] = {}
        tree = set()
        for root in self.masks:
            if root in parent:
                continue
            parent[root], depth[root] = root, 0
            queue = [root]
            for v in queue:
                for u in sorted(adj[v]):
                    if u not in parent:
                        parent[u], depth[u] = v, depth[v] + 1
                        tree.add((min(u, v), max(u, v)))
                        queue.append(u)
        out = []
        for a, b in self.edges:
            if (a, b) in tree:
                continue
            cycle = {(a, b)}
            x, y = a, b
            while x != y:
                if depth[x] < depth[y]:
                    x, y = y, x
                px = parent[x]
                cycle ^= {(min(x, px), max(x, px))}
                x = px
            out.append(sorted(cycle))
        return out


def edge_sum(cycles: Iterable[Sequence[int]]) -> frozenset:
    """GF(2) sum of closed vertex cycles as a set of (a, b) edges, a < b."""
    total = set()
    for vertex_masks in cycles:
        ring = list(vertex_masks[1:]) + [vertex_masks[0]]
        for a, b in zip(vertex_masks, ring):
            total ^= {(min(a, b), max(a, b))}
    return frozenset(total)
