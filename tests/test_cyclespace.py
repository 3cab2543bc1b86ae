import collections
import itertools
import random

import numpy as np
import pytest
from conftest import words_up_to

from subexpr import cyclespace, dihedral
from subexpr.coxeter import named_system
from subexpr.cyclespace import (ConditionViolated, DecompositionError,
                                Gf2Basis, NotEven, certificate,
                                check_certificate, cycle_space_dim, decompose,
                                enumerate_generators, fundamental_cycles,
                                gf2_rank, make_square, make_triangle,
                                min_length_basis, move_edge, scan_generators,
                                verify_span)
from subexpr.expressions import (Expression, build_all_graphs, build_graph,
                                 is_special_pair, order_compare,
                                 subexpr_from_mask)


def _np_gf2_rank(vectors, width):
    """Independent rank oracle: Gaussian elimination on a 0/1 numpy matrix."""
    m = np.array([[(v >> i) & 1 for i in range(width)] for v in vectors],
                 dtype=np.uint8)
    rank = 0
    for col in range(width):
        rows = [r for r in range(rank, len(m)) if m[r, col]]
        if not rows:
            continue
        m[[rank, rows[0]]] = m[[rows[0], rank]]
        for r in range(len(m)):
            if r != rank and m[r, col]:
                m[r] ^= m[rank]
        rank += 1
    return rank


def test_gf2_basis_unit():
    b = Gf2Basis()
    assert b.add(0b101)
    assert b.add(0b011)
    assert not b.add(0b110)          # dependent
    assert b.rank == 2
    assert b.contains(0b110)
    assert not b.contains(0b001)
    assert b.reduce(0b101) == 0


def test_gf2_rank_matches_numpy_oracle():
    rng = random.Random(5)
    for _ in range(20):
        vecs = [rng.getrandbits(12) for _ in range(rng.randint(1, 10))]
        assert gf2_rank(vecs) == _np_gf2_rank(vecs, 12)


@pytest.fixture(scope="module")
def b2_graphs(b2):
    expr = Expression(b2, (0, 1, 0, 1, 0, 1))
    return build_all_graphs(expr)


@pytest.fixture(scope="module")
def g2_graphs(g2):
    expr = Expression(g2, (0, 1, 0, 1, 0, 1, 0, 1))
    return build_all_graphs(expr)


def _is_even(g, bits):
    """Every vertex meets an even number of the edges in the mask."""
    deg = [0] * g.n_vertices
    for k, (a, b, _) in enumerate(g.edges):
        if bits >> k & 1:
            deg[a] += 1
            deg[b] += 1
    return all(d % 2 == 0 for d in deg)


def test_cycle_space_dim_against_even_subgraph_rank(b2):
    expr = Expression(b2, (0, 1, 0, 1, 0))
    for g in build_all_graphs(expr):
        dim = cycle_space_dim(g)
        fcs = fundamental_cycles(g)
        assert len(fcs) == dim
        assert gf2_rank(fcs) == dim
        # every fundamental cycle is an even edge set
        for fc in fcs:
            assert _is_even(g, fc)
        # brute force: the number of even subgraphs is 2^dim
        if g.n_edges <= 12:
            count = sum(1 for bits in range(1 << g.n_edges)
                        if _is_even(g, bits))
            assert count == 1 << dim


def test_single_vertex_graph_has_trivial_cycle_space(a2):
    g = build_graph(Expression(a2, ()), a2.identity())
    assert cycle_space_dim(g) == 0
    assert decompose(g, 0) == []


def _scan_of_kind(graphs, kind, want=1):
    out = []
    for g in graphs:
        for c in scan_generators(g):
            if c.kind == kind:
                out.append((g, c))
                if len(out) >= want:
                    return out
    return out


def test_triangle_conditions_and_shape(b2_graphs):
    for kind in ("Tr1", "Tr2", "Tr3"):
        found = _scan_of_kind(b2_graphs, kind, want=3)
        assert found, f"no {kind} instance in the sweep"
        for g, c in found:
            assert c.length == 3
            assert bin(c.edges).count("1") == 3
            # the anchor is the greatest vertex of the cycle
            vids = [g.vertex_index[m] for m in c.vertex_masks]
            assert vids[0] == max(vids)


def test_tr2_vertex_ordering(b2_graphs):
    # when gamma^{->j} = gamma^{->k} the three vertices descend strictly:
    # gamma > f_jk gamma > f_ik gamma
    checked = 0
    for g, c in _scan_of_kind(b2_graphs, "Tr2", want=50):
        anchor, second, third = (g.vertices[g.vertex_index[m]]
                                 for m in c.vertex_masks)
        assert order_compare(anchor, second) == 1
        _, j, k = c.indices
        if anchor.roots[j] == anchor.roots[k]:
            assert order_compare(second, third) == 1
            checked += 1
    assert checked > 0


def test_square_shape(b2_graphs, g2_graphs):
    for kind in ("Sq1", "Sq2"):
        found = _scan_of_kind(b2_graphs + g2_graphs, kind, want=3)
        assert found, f"no {kind} instance in the sweep"
        for g, c in found:
            assert c.length == 4
            assert bin(c.edges).count("1") == 4
            # opposite vertices of the square commute: m ^ f1 ^ f2 closes it
            m0, m1, m2, m3 = c.vertex_masks
            assert m2 == m0 ^ (m0 ^ m1) ^ (m0 ^ m3)


def test_make_triangle_rejects_bad_conditions(b2_graphs):
    g, c = _scan_of_kind(b2_graphs, "Tr1")[0]
    gamma = g.vertices[g.vertex_index[c.anchor_mask]]
    with pytest.raises(ConditionViolated):
        make_triangle(g, gamma, "Tr9", *c.indices)
    with pytest.raises(ConditionViolated):
        i, j, k = c.indices
        make_triangle(g, gamma, "Tr1", j, i, k)    # unsorted indices


def test_scan_propagates_condition_violated(b2_graphs, monkeypatch):
    # every tuple the scan tries meets its kind's root conditions, so a
    # violation is a fault: it reaches the caller, no generator is dropped
    def refuse(g, kind, indices, masks):
        raise ConditionViolated(f"{kind}{tuple(indices)}: refused")

    g = max(b2_graphs, key=cycle_space_dim)
    assert scan_generators(g)
    monkeypatch.setattr(cyclespace, "_cycle_from_masks", refuse)
    with pytest.raises(ConditionViolated, match="refused"):
        scan_generators(g)


def test_scan_triangles_match_every_kind_tried(b2_graphs, g2_graphs):
    # The scan reads the triangle kind from the root signs; trying every
    # kind on every equal-|root| triple must give the same triangles.
    for g in b2_graphs + g2_graphs:
        want = {}
        for gamma in g.vertices:
            r = gamma.roots
            for i, j, k in itertools.combinations(range(len(r)), 3):
                if not abs(r[i]) == abs(r[j]) == abs(r[k]):
                    continue
                for kind in ("Tr1", "Tr2", "Tr3"):
                    try:
                        c = make_triangle(g, gamma, kind, i, j, k)
                    except ConditionViolated:
                        continue
                    want.setdefault(c.edges, c)
        got = [c for c in scan_generators(g) if c.length == 3]
        assert sorted(got, key=lambda c: c.edges) == \
            sorted(want.values(), key=lambda c: c.edges)


def test_move_edge_exhaustive_small(b2):
    expr = Expression(b2, (0, 1, 0, 1, 0, 1))
    for g in build_all_graphs(expr):
        for eid, (a, b, _) in enumerate(g.edges):
            v = max(a, b)
            gamma = g.vertices[v]
            diff = g.vertices[a].mask ^ g.vertices[b].mask
            p = (diff & -diff).bit_length() - 1
            q = diff.bit_length() - 1
            if gamma.roots[q] <= 0:
                continue               # v is not the greater endpoint
            (i, j), used = move_edge(g, v, (p, q))
            assert is_special_pair(gamma, i, j)
            if (i, j) == (p, q):
                assert used == []
                continue
            # at v, the used cycles toggle exactly {original, special}
            at_v = 0
            for c in used:
                at_v ^= c.edges & sum(1 << e for e in g.incident[v])
            other = g.vertex_index[gamma.mask ^ (1 << i) ^ (1 << j)]
            special_eid = g.edge_id(v, other)
            assert at_v == (1 << eid) | (1 << special_eid)


def test_decompose_empty_and_not_even(b2_graphs):
    g = max(b2_graphs, key=cycle_space_dim)
    assert decompose(g, 0) == []
    if g.n_edges:
        with pytest.raises(NotEven):
            decompose(g, 1)


def test_decompose_random_even_subgraphs(b2_graphs, g2_graphs):
    rng = random.Random(13)
    for g in b2_graphs + g2_graphs:
        fcs = fundamental_cycles(g)
        if not fcs:
            continue
        for _ in range(min(20, 1 << len(fcs))):
            even = 0
            for fc in fcs:
                if rng.random() < 0.5:
                    even ^= fc
            got = decompose(g, even)
            total = 0
            top = 0
            for c in got:
                total ^= c.edges
                top = max(top, g.vertex_index[c.anchor_mask])
            assert total == even
            if even:
                touched = max(max(a, b) for eid, (a, b, _) in
                              enumerate(g.edges) if even >> eid & 1)
                assert top <= touched


def test_verify_span_and_lengths(b2_graphs, g2_graphs):
    for graphs, n in ((b2_graphs, 4), (g2_graphs, 6)):
        for g in graphs:
            rep = verify_span(g)
            assert rep["ok"], rep
            assert set(rep["lengths"]) <= {3, 4, n + 2}


def test_min_length_basis_is_a_basis(g2_graphs):
    g = max(g2_graphs, key=cycle_space_dim)
    basis = min_length_basis(g)
    assert len(basis) == cycle_space_dim(g)
    assert gf2_rank(c.edges for c in basis) == len(basis)
    lengths = [c.length for c in basis]
    assert lengths == sorted(lengths)


def _full_loop_generators(g, scan):
    """Reference enumeration without the stop at full rank: the basis of
    the scan's cycles, then a containment test for every fundamental
    cycle."""
    found = {}
    basis = Gf2Basis()
    for c in scan:
        found.setdefault(c.edges, c)
        basis.add(c.edges)
    for fc in fundamental_cycles(g):
        if basis.contains(fc):
            continue
        for c in decompose(g, fc):
            found.setdefault(c.edges, c)
            basis.add(c.edges)
    return sorted(found.values(),
                  key=lambda c: (c.length, c.kind, c.anchor_mask, c.indices))


def _full_loop_report(g, gens):
    """Reference span report of the full loop's generators: a second
    elimination from scratch."""
    dim = cycle_space_dim(g)
    rank = gf2_rank(c.edges for c in gens)
    return {"n_vertices": g.n_vertices, "n_edges": g.n_edges,
            "components": g.n_components(), "dim": dim,
            "n_generators": len(gens), "rank": rank,
            "lengths": sorted({c.length for c in gens}), "ok": rank == dim}


# one of the benchmark's 14-letter A2~ identity classes (dim 6,657)
_BIG_SPAN_WORD = (0, 0, 0, 2, 1, 1, 2, 1, 0, 2, 0, 1, 1, 1)


@pytest.mark.parametrize("type_name, max_len", [
    ("B2", 7), ("G2", 6), ("A2~", 7), ("A2~", None)],
    ids=["B2<=7", "G2<=6", "A2~<=7", "A2~-big-span"])
def test_enumeration_matches_full_loop(type_name, max_len, monkeypatch):
    # Stopping at full rank and reusing the enumeration's basis must give
    # the full loop's generators, in its order, and its span report.
    system = named_system(type_name)
    if max_len is None:
        graphs = [build_graph(Expression(system, _BIG_SPAN_WORD),
                              system.identity())]
    else:
        graphs = [g for w in words_up_to(system.rank, max_len)
                  for g in build_all_graphs(Expression(system, w))]
    scans, listed = [], []             # what verify_span's enumeration made

    def scan_recorded(graph):
        scans.append(scan_generators(graph))
        return scans[-1]

    def recorded(graph, basis=None):
        listed.append(enumerate_generators(graph, basis))
        return listed[-1]

    monkeypatch.setattr(cyclespace, "scan_generators", scan_recorded)
    monkeypatch.setattr(cyclespace, "enumerate_generators", recorded)
    for g in graphs:
        got = verify_span(g)
        # the scan is not under test: the reference reuses its result
        want = _full_loop_generators(g, scans.pop())
        assert got == _full_loop_report(g, want)
        assert [c.to_json() for c in listed.pop()] == [c.to_json() for c in want]


def _count_completion(g, monkeypatch):
    """Run enumerate_generators with decompose and Gf2Basis.contains
    counted; returns (contains calls, the cycles decompose was given)."""
    contains_calls = []
    decomposed = []
    contains, decomp = Gf2Basis.contains, cyclespace.decompose

    def counted_contains(self, v):
        contains_calls.append(v)
        return contains(self, v)

    def counted_decompose(graph, even):
        decomposed.append(even)
        return decomp(graph, even)

    with monkeypatch.context() as m:
        m.setattr(Gf2Basis, "contains", counted_contains)
        m.setattr(cyclespace, "decompose", counted_decompose)
        enumerate_generators(g)
    return contains_calls, decomposed


def _scan_rank(g):
    return gf2_rank(c.edges for c in scan_generators(g))


def test_spanning_scan_runs_no_completion(g2_graphs, monkeypatch):
    # The scan alone spans the largest class of the 8-letter G2 word
    # (dim 82): no fundamental cycle is tested or decomposed.
    g = max(g2_graphs, key=cycle_space_dim)
    assert cycle_space_dim(g) == 82 and _scan_rank(g) == 82
    assert _count_completion(g, monkeypatch) == ([], [])


def test_completion_stops_at_full_rank(b2, monkeypatch):
    # On classes that need Cyc cycles, the completion tests fundamental
    # cycles up to the one whose decomposition brings the rank to dim,
    # and no further.
    graphs = build_all_graphs(Expression(b2, (0, 1, 0, 1, 0, 1, 0)))
    skipped = 0
    for g in graphs:
        fcs = fundamental_cycles(g)
        if _scan_rank(g) == len(fcs):
            continue
        # replay the full loop to find where the rank reaches dim
        basis = Gf2Basis()
        for c in scan_generators(g):
            basis.add(c.edges)
        needed = []
        for k, fc in enumerate(fcs):
            if basis.reduce(fc):
                needed.append(fc)
                for c in decompose(g, fc):
                    basis.add(c.edges)
            if basis.rank == len(fcs):
                break
        assert basis.rank == len(fcs)
        contains_calls, decomposed = _count_completion(g, monkeypatch)
        assert contains_calls == fcs[:k + 1]
        assert decomposed == needed and decomposed[-1] == fcs[k]
        assert any(c.kind.startswith("Cyc") for c in enumerate_generators(g))
        skipped += len(fcs) - (k + 1)
    assert skipped > 0, "no class stopped before its last fundamental cycle"


def test_certificate_round_trip(b2_graphs):
    g = max(b2_graphs, key=cycle_space_dim)
    for fc in fundamental_cycles(g)[:5]:
        cycles = decompose(g, fc)
        cert = certificate(g, cycles)
        assert check_certificate(g, cert, fc)
        assert not check_certificate(g, cert, fc ^ 0b11)
        if cert:
            bad = [dict(item) for item in cert]
            bad[0] = dict(bad[0], vertices=list(reversed(bad[0]["vertices"])))
            # reversing a cycle keeps its edge set; drop a vertex instead
            bad[0]["vertices"] = bad[0]["vertices"][:-1]
            assert not check_certificate(g, bad, fc)


def _alternating_fundamental_cycles(system, length=9):
    """(graph, cycle) for every fundamental cycle of every class of the two
    alternating words of the given length."""
    out = []
    for first in (0, 1):
        expr = Expression(system, tuple((first + z) % 2 for z in range(length)))
        for g in build_all_graphs(expr):
            out.extend((g, fc) for fc in fundamental_cycles(g))
    return out


@pytest.mark.parametrize("type_name", ["B2", "G2"])
def test_dihedral_context_cache(type_name, monkeypatch):
    # The per-system table must hand out the context make_dihedral would
    # build, build each one once, and leave the decompositions unchanged.
    system = named_system(type_name)       # a fresh system: an empty table
    items = _alternating_fundamental_cycles(system)
    make = dihedral.make_dihedral
    keys = []

    def counted(sys_, lam, mu):
        keys.append((abs(sys_.root_id(lam)), abs(sys_.root_id(mu))))
        return make(sys_, lam, mu)

    monkeypatch.setattr(dihedral, "make_dihedral", counted)
    warm = [decompose(g, fc) for g, fc in items]
    table = system.dihedral_contexts
    assert table, "no crossing special pairs were resolved"
    assert collections.Counter(keys) == collections.Counter(set(table))
    for (lam, mu), ctx in table.items():
        fresh = make(system, system.root_vec(lam), system.root_vec(mu))
        assert ctx.order_n == fresh.order_n
        assert ctx.closure_rids == fresh.closure_rids
        assert ctx.xi == fresh.xi
        assert np.array_equal(ctx.pair.alpha, fresh.pair.alpha)
        assert np.array_equal(ctx.pair.beta, fresh.pair.beta)
    cold = []
    for g, fc in items:
        table.clear()                      # every decomposition starts cold
        cold.append(decompose(g, fc))
    assert cold == warm
    assert any(c.kind.startswith("Cyc") for cycles in warm for c in cycles)
