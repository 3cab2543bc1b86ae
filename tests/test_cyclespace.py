import collections
import itertools
import random

import numpy as np
import pytest
from conftest import graph_with_edges, words_up_to

from subexpr import cyclespace, dihedral, sweeps
from subexpr.coxeter import named_system
from subexpr.cyclespace import (ConditionViolated, DecompositionError,
                                Gf2Basis, NotEven, certificate,
                                check_certificate, cycle_space_dim, decompose,
                                enumerate_generators, fundamental_cycles,
                                gf2_rank, link_check, make_square,
                                make_triangle, min_length_basis,
                                scan_generators, verify_span)
from subexpr.expressions import (Expression, build_all_graphs, build_graph,
                                 is_connected, is_special_pair, order_compare,
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
    assert b.reduce(0b110) == 0
    assert b.reduce(0b001) != 0
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


@pytest.mark.parametrize("length", [6, 7])
def test_decompose_each_generator(b2, length):
    # every Tr/Sq/Cyc of the family, given to decompose, sums back to its
    # edge set, and no cycle of the sum is anchored above its own anchor
    kinds = set()
    expr = Expression(b2, tuple(z % 2 for z in range(length)))
    for g in build_all_graphs(expr):
        for c in enumerate_generators(g):
            kinds.add(c.kind)
            top = g.vertex_index[c.anchor_mask]
            total = 0
            for piece in decompose(g, c.edges):
                total ^= piece.edges
                assert g.vertex_index[piece.anchor_mask] <= top
            assert total == c.edges
    assert kinds == {"Tr1", "Tr2", "Tr3", "Sq1", "Sq2", "Cyc1", "Cyc2"}


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


def test_counts_need_no_edges_and_the_span_check_reads_them():
    # |E|, connectivity and the dimension come from the assembly's counts;
    # the span verdict reads the graph's edges
    a2t = named_system("A2~")
    expr = Expression(a2t, (1, 2, 1, 0, 1, 0, 1, 2, 1, 2, 0, 2))
    g = build_graph(expr, a2t.identity())
    assert g.n_edges > 0 and is_connected(g) and cycle_space_dim(g) > 0
    assert "edges" not in vars(g)
    rep = verify_span(g)
    assert "edges" in vars(g)
    assert rep["ok"] and rep["n_edges"] == len(g.edges)


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
        if not basis.reduce(fc):
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


def _graphs_of(type_name, max_len):
    """Every class of every word up to max_len letters, or with max_len
    None the identity class of _BIG_SPAN_WORD."""
    system = named_system(type_name)
    if max_len is None:
        return [build_graph(Expression(system, _BIG_SPAN_WORD),
                            system.identity())]
    return [g for w in words_up_to(system.rank, max_len)
            for g in build_all_graphs(Expression(system, w))]


def _basis_of(gens):
    basis = Gf2Basis()
    for c in gens:
        basis.add(c.edges)
    return basis


@pytest.mark.parametrize("type_name, max_len", [
    ("B2", 7), ("G2", 6), ("A2~", 7), ("A2~", None)],
    ids=["B2<=7", "G2<=6", "A2~<=7", "A2~-big-span"])
def test_enumeration_matches_full_loop(type_name, max_len, monkeypatch):
    # The scan plus the link check's Cyc images must span the space the
    # full loop's generators span, of rank dim, and verify_span must
    # report exactly what a second elimination over that family gives.
    scans = []                         # what the enumeration's scan made

    def scan_recorded(graph):
        scans.append(scan_generators(graph))
        return scans[-1]

    monkeypatch.setattr(cyclespace, "scan_generators", scan_recorded)
    for g in _graphs_of(type_name, max_len):
        got = enumerate_generators(g)
        # the scan is not under test: the reference reuses its result
        scan = scans.pop()
        want = _full_loop_generators(g, scan)
        got_basis, want_basis = _basis_of(got), _basis_of(want)
        assert all(got_basis.reduce(c.edges) == 0 for c in want)
        assert all(want_basis.reduce(c.edges) == 0 for c in got)
        assert got_basis.rank == want_basis.rank == cycle_space_dim(g)
        assert verify_span(g) == _full_loop_report(g, got)


def _down_edges(gamma):
    r = gamma.roots
    return [(p, q) for q in range(len(r)) for p in range(q)
            if abs(r[p]) == r[q] > 0]


def _crossing(f1, f2):
    (i, j), (k, l) = sorted((f1, f2))
    return i < k < j < l


def _nested(f1, f2):
    (i, j), (k, l) = sorted((f1, f2))
    return i < k and l < j


def _link_split(g, joined, resolve=True):
    """Reference link check: the vertices whose down-edges stay in more
    than one part under the given join rule, after (unless resolve is
    false) joining the ends at the vertex of the Cyc images that resolve
    crossing special pairs in different parts."""
    split = []
    for v, gamma in enumerate(g.vertices):
        down = _down_edges(gamma)
        part = {f: {f} for f in down}

        def join(f1, f2):
            if part[f1] is not part[f2]:
                merged = part[f1] | part[f2]
                for f in merged:
                    part[f] = merged

        for f1, f2 in itertools.combinations(down, 2):
            if joined(f1, f2):
                join(f1, f2)
        specials = sorted(f for f in down if is_special_pair(gamma, *f))
        for f1, f2 in itertools.combinations(specials, 2):
            if not resolve or not _crossing(f1, f2) or part[f1] is part[f2]:
                continue
            for c in cyclespace._resolve_crossing(g, v, f1, f2):
                if c.anchor_mask == gamma.mask:
                    ends = [gamma.mask ^ m for m in (c.vertex_masks[1],
                                                     c.vertex_masks[-1])]
                    join(*[tuple(i for i in range(len(gamma.roots))
                                 if d >> i & 1) for d in ends])
        if len({id(p) for p in part.values()}) > 1:
            split.append(v)
    return split


@pytest.mark.parametrize("type_name, max_len", [
    ("B2", 7), ("G2", 6), ("A2~", None)],
    ids=["B2<=7", "G2<=6", "A2~-big-span"])
def test_link_pairs_are_the_scan_instances(type_name, max_len):
    # At every vertex the non-crossing pairs of down-edges are the scan's
    # instances anchored there, each met once: a shared index makes a
    # triangle, disjoint or nested folds a square. The link check counts
    # the same triangles and squares. The folds the program reads from
    # the edges are the ones the roots give.
    for g in _graphs_of(type_name, max_len):
        assert [sorted(down) for down in cyclespace._down_edges(g)] == \
            [sorted(_down_edges(gamma)) for gamma in g.vertices]
        at = collections.defaultdict(list)     # anchor -> fold pairs at it
        for c in scan_generators(g):
            m = c.anchor_mask
            folds = []
            for other in (c.vertex_masks[1], c.vertex_masks[-1]):
                diff = m ^ other
                folds.append(((diff & -diff).bit_length() - 1,
                              diff.bit_length() - 1))
            assert len(set(folds[0]) | set(folds[1])) == c.length
            at[m].append((tuple(sorted(folds)), c.length))
        for gamma in g.vertices:
            want = [(pair, 3 if len(set(pair[0]) | set(pair[1])) == 3 else 4)
                    for pair in itertools.combinations(
                        sorted(_down_edges(gamma)), 2)
                    if not _crossing(*pair)]
            assert sorted(at.pop(gamma.mask, [])) == sorted(want)
        assert not at
        triangles, squares, _, split, rank = link_check(g)
        lengths = collections.Counter(c.length for c in scan_generators(g))
        assert (triangles, squares) == (lengths[3], lengths[4])
        assert split == [] and rank == cycle_space_dim(g)


@pytest.mark.parametrize("type_name, max_len, needs_crossing, without_nested", [
    ("B2", 7, 68, 648), ("G2", 6, 0, 168)], ids=["B2<=7", "G2<=6"])
def test_link_check_mutations_are_reported(type_name, max_len, needs_crossing,
                                           without_nested, monkeypatch):
    # Every link graph connects, but only with each part of the rule: with
    # no crossing resolution the classes that resolved a crossing are
    # split, and with nested folds left unjoined (no Sq2) many more are.
    graphs = _graphs_of(type_name, max_len)
    resolved = set()
    resolve = cyclespace._resolve_crossing

    def recorded(g, v, pair1, pair2):
        resolved.add(id(g))
        return resolve(g, v, pair1, pair2)

    with monkeypatch.context() as m:
        m.setattr(cyclespace, "_resolve_crossing", recorded)
        assert all(link_check(g)[3] == [] for g in graphs)
    assert len(resolved) == needs_crossing
    with monkeypatch.context() as m:
        m.setattr(cyclespace, "_resolve_crossing", lambda *args: [])
        split = {id(g): link_check(g)[3] for g in graphs}
    assert {k for k, vs in split.items() if vs} == resolved
    # the reference rule gives the same split vertices
    def rule(f1, f2):
        return not _crossing(f1, f2)

    for g in graphs:
        assert _link_split(g, rule, resolve=False) == split[id(g)]
        assert _link_split(g, rule) == []
    without = [g for g in graphs if _link_split(
        g, lambda f1, f2: not (_crossing(f1, f2) or _nested(f1, f2)))]
    assert len(without) == without_nested


def test_split_vertices_fail_the_report(b2_graphs, monkeypatch):
    # With no crossing resolved, the classes that needed one fail: the
    # rank stays below the dimension and the report names the vertices.
    monkeypatch.setattr(cyclespace, "_resolve_crossing", lambda *args: [])
    failed = 0
    for g in b2_graphs:
        rep = verify_span(g)
        split = link_check(g)[3]
        assert rep["ok"] == (split == [])
        if split:
            failed += 1
            assert rep["rank"] < rep["dim"]
            assert rep["split_vertices"] == [
                "".join(map(str, g.vertices[v].bits)) for v in split]
        else:
            assert "split_vertices" not in rep
    assert failed


def test_link_check_reads_the_graph_edges(b2_graphs):
    # The link graphs are built from the graph's edges: dropping the top
    # vertex's down-edges lowers the certified rank by their number less
    # one. An edge is refused when its vertices are more than one fold
    # apart, even if the outer two bits meet the fold condition, or when
    # it is listed from its lower end.
    g = max(b2_graphs, key=cycle_space_dim)
    top = g.n_vertices - 1
    kept = [e for e in g.edges if e[1] != top]
    h = graph_with_edges(g, kept)
    assert link_check(h)[4] == link_check(g)[4] - (g.n_edges - len(kept) - 1)

    def fold_at(a, b):
        diff = g.vertices[a].mask ^ g.vertices[b].mask
        r = g.vertices[b].roots
        p, q = (diff & -diff).bit_length() - 1, diff.bit_length() - 1
        return bin(diff).count("1") > 2 and abs(r[p]) == r[q] > 0

    far = next((a, b, 0) for b in range(g.n_vertices) for a in range(b)
               if fold_at(a, b))
    a, b, color = g.edges[0]
    for bad in (far, (b, a, color)):
        h = graph_with_edges(g, sorted(g.edges + [bad]))
        with pytest.raises(ConditionViolated):
            link_check(h)


@pytest.fixture(scope="module")
def b2_crossing_graphs(b2):
    """The classes of s t s t s t s in B2 whose link graphs need a
    crossing resolved."""
    graphs = build_all_graphs(Expression(b2, (0, 1, 0, 1, 0, 1, 0)))
    out = [g for g in graphs if link_check(g)[2]]
    assert out
    return out


def _refuse_completion(monkeypatch):
    # The family comes from the scan and the link check alone: no
    # fundamental cycle is built or decomposed.
    def refuse(*args):
        raise AssertionError("the completion ran")

    monkeypatch.setattr(cyclespace, "decompose", refuse)
    monkeypatch.setattr(cyclespace, "fundamental_cycles", refuse)


def _scan_rank(g):
    return gf2_rank(c.edges for c in scan_generators(g))


def test_spanning_scan_runs_no_completion(g2_graphs, monkeypatch):
    # The scan alone spans the largest class of the 8-letter G2 word
    # (dim 82): the link check resolves no crossing and the family is
    # the scan's.
    _refuse_completion(monkeypatch)
    g = max(g2_graphs, key=cycle_space_dim)
    assert cycle_space_dim(g) == 82 and _scan_rank(g) == 82
    triangles, squares, cyc, split, rank = link_check(g)
    assert not cyc and not split and rank == 82
    gens = enumerate_generators(g)
    assert [c.to_json() for c in gens] == [c.to_json()
                                           for c in scan_generators(g)]
    assert len(gens) == triangles + squares
    assert len(min_length_basis(g)) == 82


def test_completion_stops_at_full_rank(b2_crossing_graphs, monkeypatch):
    # On the classes whose scan falls short of dim, the Cyc images of the
    # link check's crossing resolutions bring the rank to dim, and the
    # greedy basis over that family stops there.
    _refuse_completion(monkeypatch)
    for g in b2_crossing_graphs:
        dim = cycle_space_dim(g)
        assert _scan_rank(g) < dim
        gens = enumerate_generators(g)
        assert any(c.kind.startswith("Cyc") for c in gens)
        assert gf2_rank(c.edges for c in gens) == dim
        basis = min_length_basis(g)
        assert len(basis) == dim and gf2_rank(c.edges for c in basis) == dim
        assert any(c.kind.startswith("Cyc") for c in basis)


def test_split_link_graph_raises(b2, b2_crossing_graphs, monkeypatch):
    # With no crossing resolved the Tr/Sq leave link graphs split: the
    # family is not certified to span, so no basis comes back.
    monkeypatch.setattr(cyclespace, "_resolve_crossing", lambda *args: [])
    for g in b2_crossing_graphs:
        assert link_check(g)[3]
        with pytest.raises(DecompositionError):
            enumerate_generators(g)
        with pytest.raises(DecompositionError):
            min_length_basis(g)
    with pytest.raises(DecompositionError):
        sweeps.check_word(b2, (0, 1, 0, 1, 0, 1, 0), "table1")


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
    warm_built = len(keys)
    cold = []
    for g, fc in items:
        table.clear()                      # every decomposition starts cold,
        del g.link_forests                 # with no Cyc image kept either
        cold.append(decompose(g, fc))
    assert cold == warm
    # each context the warm pass built once is built again in the cold pass
    assert len(keys) - warm_built >= warm_built
    assert any(c.kind.startswith("Cyc") for cycles in warm for c in cycles)
