import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subexpr.coxeter import elements_equal, named_system, new_system
from subexpr.expressions import (DifferentTargets, Expression, IndexOutOfRange,
                                 NotApplicable, NotRealized, Subexpression,
                                 TooLarge, build_all_graphs,
                                 build_graph,
                                 descend_step, double_fold,
                                 double_fold_applicable, gallery_of,
                                 is_connected, is_special_pair, order_compare,
                                 special_pairs, subexpr_classes,
                                 subexpr_from_mask, target)

from conftest import graph_with_edges, words_up_to


@pytest.fixture(scope="module")
def ststs(a2):
    return Expression(a2, (0, 1, 0, 1, 0))


@pytest.fixture(scope="module")
def gamma_full(ststs):
    return Subexpression(ststs, [1, 1, 1, 1, 1])


def test_target_of_full(ststs, gamma_full, a2):
    # (st)^3 = e, so ststs = t
    assert elements_equal(target(gamma_full), a2.element_from_word((1,)))


def test_arrow_roots_of_full(gamma_full, a2):
    # gamma^{->i} = prefix * e_{s_i}; for (s,t,s,t,s) all-ones the first
    # three are negative, the last two positive.
    signs = [1 if r > 0 else -1 for r in gamma_full.roots]
    assert signs == [-1, -1, -1, 1, 1]
    e = np.eye(2)
    assert np.allclose(gamma_full.arrow_root(0), -e[0])
    assert np.allclose(gamma_full.arrow_root(3), e[0])


def test_fold_applicability(gamma_full):
    assert double_fold_applicable(gamma_full, 0, 3)
    assert not double_fold_applicable(gamma_full, 0, 1)
    with pytest.raises(IndexOutOfRange):
        double_fold_applicable(gamma_full, 3, 3)
    with pytest.raises(NotApplicable):
        double_fold(gamma_full, 0, 1)


def test_fold_involution_and_target(gamma_full):
    delta = double_fold(gamma_full, 0, 3)
    assert list(delta.bits) == [0, 1, 1, 0, 1]
    assert delta.target_id() == gamma_full.target_id()
    back = double_fold(delta, 0, 3)
    assert back == gamma_full


def test_special_pairs_example(gamma_full):
    assert [(i, j) for i, j, _ in special_pairs(gamma_full)] == [(0, 3), (1, 4)]
    assert is_special_pair(gamma_full, 0, 3)
    assert not is_special_pair(gamma_full, 0, 1)


def test_order_compare_requires_same_target(ststs):
    g1 = Subexpression(ststs, [1, 1, 1, 1, 1])
    g2 = Subexpression(ststs, [0, 0, 0, 0, 0])
    with pytest.raises(DifferentTargets):
        order_compare(g1, g2)


def _class_of(expr, gamma):
    m = len(expr)
    out = []
    for mask in range(1 << m):
        d = subexpr_from_mask(expr, mask)
        if d.target_id() == gamma.target_id():
            out.append(d)
    return out


def test_order_total_on_classes(a2):
    expr = Expression(a2, (0, 1, 0, 1, 0, 1))
    seen = set()
    for mask in range(1 << 6):
        gamma = subexpr_from_mask(expr, mask)
        if gamma.target_id() in seen:
            continue
        seen.add(gamma.target_id())
        cls = _class_of(expr, gamma)
        for d, g in itertools.combinations(cls, 2):
            c = order_compare(d, g)
            assert c in (-1, 1)
            assert order_compare(g, d) == -c
        # transitivity via consistency with a sort
        ranked = sorted(cls, key=lambda v: sum(order_compare(v, u)
                                               for u in cls))
        for u, v in zip(ranked, ranked[1:]):
            assert order_compare(u, v) == -1


def test_descend_terminates_at_unique_minimum(b2):
    expr = Expression(b2, (0, 1, 0, 1, 0, 1))
    by_target = {}
    for mask in range(1 << 6):
        gamma = subexpr_from_mask(expr, mask)
        by_target.setdefault(gamma.target_id(), []).append(gamma)
    for cls in by_target.values():
        minimum = cls[0]
        for g in cls[1:]:
            if order_compare(g, minimum) < 0:
                minimum = g
        for gamma in cls:
            steps = 0
            while True:
                pq = descend_step(gamma)
                if pq is None:
                    break
                nxt = double_fold(gamma, *pq)
                assert order_compare(nxt, gamma) == -1
                gamma = nxt
                steps += 1
                assert steps <= 1 << 6
            assert gamma == minimum


def test_gallery_wall_separation(gamma_full, a2):
    gal = gallery_of(gamma_full)
    assert len(gal.chambers) == 6 and len(gal.walls) == 5
    # consecutive chambers are equal or differ by the reflection in the wall
    for i, wall in enumerate(gal.walls):
        c0, c1 = gal.chambers[i], gal.chambers[i + 1]
        moved = not elements_equal(c0, c1)
        assert moved == bool(gamma_full.bits[i])


def test_build_graph_matches_brute_force(a2, b2):
    expr = Expression(a2, (0, 1, 0, 1))
    g = build_graph(expr, a2.identity())
    masks = {v.mask for v in g.vertices}
    brute = {m for m in range(1 << 4)
             if subexpr_from_mask(expr, m).target_id() == 0}
    assert masks == brute
    # vertices ascend in the order: every class of the B2 words up to 6
    # letters, and one 12-letter affine word
    a2t = named_system("A2~")
    graphs = [g] + build_all_graphs(Expression(a2t, (0, 1, 2, 0, 2, 1) * 2))
    for word in itertools.chain.from_iterable(
            itertools.product(range(2), repeat=L) for L in range(7)):
        graphs += build_all_graphs(Expression(b2, word))
    for h in graphs:
        for u, v in zip(h.vertices, h.vertices[1:]):
            assert order_compare(u, v) == -1
    # edges are exactly the applicable folds between class members
    for a, b, color in g.edges:
        va, vb = g.vertices[a], g.vertices[b]
        diff = [i for i in range(4) if va.bits[i] != vb.bits[i]]
        assert len(diff) == 2
        assert abs(va.roots[diff[0]]) == abs(va.roots[diff[1]]) == color


def _small_expressions():
    """Every word of B2 and G2 up to 6 letters, A3 up to 4, A2~ up to 6 and
    the rank-3 universal Coxeter group up to 5."""
    inf = "inf"
    universal = new_system([[1, inf, inf], [inf, 1, inf], [inf, inf, 1]])
    for system, max_len in [(named_system("B2"), 6), (named_system("G2"), 6),
                            (named_system("A3"), 4), (named_system("A2~"), 6),
                            (universal, 5)]:
        for word in words_up_to(system.rank, max_len):
            yield Expression(system, word)


def test_pruned_walk_matches_full_walk():
    # one target's walk gives that class's records of the full walk, in the
    # same order
    n_classes = 0
    for expr in _small_expressions():
        full = subexpr_classes(expr)
        for eid, records in full.items():
            assert subexpr_classes(expr, eid) == {eid: records}
            n_classes += 1
    assert n_classes == 18355


# -- the recursive walk the grouped one replaced, kept as a reference --------

def _reference_walk(expr, target=None):
    """{target eid: [(mask, prefix_ids, roots), ...]} in walk order, by one
    recursive call per prefix state, entering only live states."""
    sys_ = expr.system
    m = len(expr)
    live = None
    if target is not None:
        live = [{target}]
        for g in reversed(expr.letters):
            live.append(live[-1] | {sys_.multiply_gen(x, g) for x in live[-1]})
        live.reverse()
        if 0 not in live[0]:
            return {}
    classes = {}
    pids = [0] * (m + 1)
    rids = [0] * m
    mask = [0]

    def walk(i, eid):
        if i == m:
            classes.setdefault(eid, []).append(
                (mask[0], tuple(pids), tuple(rids)))
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


def test_walk_keeps_the_intern_order_of_the_recursive_walk():
    # from a fresh system, elements and roots are interned in the order
    # the recursive walk interns them, for the full walk and for one
    # target per word (that of the subexpression of the even positions),
    # so class order, DOT files and certificates do not move; the records
    # are the recursive walk's, in vertex order
    n_cases = 0
    for expr in _assembly_words():
        for whole in (True, False):
            runs = []
            for walk in (_reference_walk, subexpr_classes):
                sys_ = new_system(expr.system.cox_matrix)
                e = Expression(sys_, expr.letters)
                target = None
                if not whole:
                    target = sys_.element_id(
                        sys_.element_from_word(e.letters[::2]).matrix)
                classes = walk(e, target)
                runs.append((list(sys_._elem_ids),
                             [r.tobytes() for r in sys_._roots], classes))
            (want_elems, want_roots, want), (elems, roots, got) = runs
            assert elems == want_elems and roots == want_roots
            assert sorted(got) == sorted(want)
            for eid, recs in want.items():
                recs = sorted(recs, key=lambda r: [x > 0 for x in reversed(r[2])])
                assert [(r[0], r[1]) for r in got[eid]] == [
                    (mask, rids) for mask, _, rids in recs]
            n_cases += 1
    assert n_cases == 2 * (1832 + 1)


def test_fold_edges_are_the_hamming_two_pairs():
    # Sub(s,w) joins two members of a class exactly when they differ in two
    # positions; edges ascend strictly in (a, b)
    a2t = named_system("A2~")
    exprs = itertools.chain(_small_expressions(),
                            [Expression(a2t, (0, 1, 2, 0, 2, 1) * 2)])
    for expr in exprs:
        m = len(expr)
        for g in build_all_graphs(expr):
            pairs = set()
            for a, v in enumerate(g.vertices):
                for p, q in itertools.combinations(range(m), 2):
                    b = g.vertex_index.get(v.mask ^ (1 << p) ^ (1 << q))
                    if b is not None and a < b:
                        pairs.add((a, b, abs(v.roots[p])))
            assert set(g.edges) == pairs
            ends = [e[:2] for e in g.edges]
            assert ends == sorted(set(ends))


# -- the assembly the current one replaced, kept as a reference ---------------

def _reference_assembly(expr, records):
    """Vertices, edges, vertex index, edge index and incidence as the
    eager assembly built them: each vertex rebuilt from its mask alone, a
    tuple sort key, and every index built when the graph is made."""
    verts = [subexpr_from_mask(expr, mask) for mask, _, _ in records]
    verts.sort(key=lambda v: tuple(r > 0 for r in reversed(v.roots)))
    vidx = {v.mask: i for i, v in enumerate(verts)}
    edges = []
    for i, v in enumerate(verts):
        groups = {}
        row = []
        for q, rid in enumerate(v.roots):
            poss = groups.setdefault(abs(rid), [])
            if rid < 0:
                for p in poss:
                    row.append((vidx[v.mask ^ (1 << p) ^ (1 << q)], -rid))
            poss.append(q)
        row.sort()
        edges.extend((i, j, color) for j, color in row)
    edge_index = {(a, b): k for k, (a, b, _) in enumerate(edges)}
    incident = [[] for _ in verts]
    for k, (a, b, _) in enumerate(edges):
        incident[a].append(k)
        incident[b].append(k)
    return verts, edges, vidx, edge_index, incident


def _reference_components(n, edges):
    """Component labels by BFS through the incidence lists."""
    incident = [[] for _ in range(n)]
    for k, (a, b, _) in enumerate(edges):
        incident[a].append(k)
        incident[b].append(k)
    lab = [-1] * n
    c = 0
    for s in range(n):
        if lab[s] >= 0:
            continue
        lab[s] = c
        stack = [s]
        while stack:
            v = stack.pop()
            for k in incident[v]:
                a, b, _ = edges[k]
                u = b if a == v else a
                if lab[u] < 0:
                    lab[u] = c
                    stack.append(u)
        c += 1
    return lab


def _reference_dot(expr, verts, edges):
    sys_ = expr.system
    lines = ["graph sub {"]
    for i, v in enumerate(verts):
        label = "".join(map(str, v.bits))
        lines.append(f'  v{i} [label="{label}"];')
    for a, b, rid in edges:
        vec = sys_.root_vec(abs(rid))
        label = ",".join(f"{round(float(c), 6):g}" for c in vec)
        lines.append(f'  v{a} -- v{b} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _assembly_words():
    a2t = named_system("A2~")
    return itertools.chain(_small_expressions(),
                           [Expression(a2t, (1, 2, 1, 0, 1, 0, 1, 2, 1, 2, 0, 2))])


def test_assembly_matches_reference():
    # every class of the pruned-walk words and of one 12-letter A2~ word:
    # the same vertices in the same order, edges, indices, labels and DOT
    n_classes = 0
    for expr in _assembly_words():
        classes = subexpr_classes(expr)
        graphs = build_all_graphs(expr)
        assert [g.target_eid for g in graphs] == sorted(classes)
        for g in graphs:
            verts, edges, vidx, edge_index, incident = _reference_assembly(
                expr, classes[g.target_eid])
            assert [v.mask for v in g.vertices] == [v.mask for v in verts]
            assert g.vertices == verts
            assert g.edges == edges
            assert g.vertex_index == vidx
            assert g.edge_index == edge_index
            assert g.incident == incident
            assert g.components() == _reference_components(len(verts), edges)
            # the counts taken in the assembly pass, against the edges
            assert g.n_edges == len(g.edges)
            assert g.n_components() == len(set(g.components()))
            assert g.to_dot() == _reference_dot(expr, verts, edges)
            n_classes += 1
    assert n_classes == 18355 + 72


def test_components_match_bfs_with_edges_dropped(b2):
    # disconnected graphs, isolated vertices included: union-find labels
    # equal the BFS labels, numbered by first vertex
    rng = random.Random(8)
    a2t = named_system("A2~")
    graphs = (build_all_graphs(Expression(a2t, (0, 1, 2, 0, 2, 1) * 2))
              + build_all_graphs(Expression(b2, (0, 1) * 4)))
    n_isolated = n_split = 0
    for g in graphs:
        for keep in (0.0, 0.05, 0.3, 0.7, 0.95):
            edges = [e for e in g.edges if rng.random() < keep]
            h = graph_with_edges(g, edges)
            want = _reference_components(h.n_vertices, edges)
            assert h.components() == want
            assert h.n_components() == max(want) + 1
            n_split += max(want) > 0
            ends = {x for a, b, _ in edges for x in (a, b)}
            n_isolated += len(ends) < h.n_vertices
    assert n_split > 100 and n_isolated > 100


def test_vertices_from_records_match_vertices_from_bits(b2):
    a2t = named_system("A2~")
    for expr in (Expression(a2t, (0, 1, 2, 0, 2, 1, 0, 1)),
                 Expression(b2, (0, 1) * 4)):
        m = len(expr)
        for g in build_all_graphs(expr):
            for v in g.vertices:
                u = Subexpression(expr, v.bits)
                w = subexpr_from_mask(expr, v.mask)
                assert v.bits == tuple((v.mask >> i) & 1 for i in range(m))
                for x in (u, w):
                    assert x.bits == v.bits and x.mask == v.mask
                    assert (x.prefix_ids, x.roots) == (v.prefix_ids, v.roots)
                    assert x == v and v == x and hash(x) == hash(v)
                    assert repr(x) == repr(v)
            # the last bit changes no root: equality must read the mask
            v = g.vertices[0]
            flipped = Subexpression(expr, v.bits[:-1] + (1 - v.bits[-1],))
            assert flipped.roots == v.roots and flipped != v
            if g.n_vertices > 1:
                u, v = g.vertices[:2]
                assert u != v and Subexpression(expr, u.bits) != v


def test_unrealized_target(a2):
    expr = Expression(a2, (0,))
    w = a2.element_from_word((0, 1))
    assert subexpr_classes(expr, a2.element_id(w.matrix)) == {}
    with pytest.raises(NotRealized):
        build_graph(expr, w)
    # the length limit is checked first
    with pytest.raises(TooLarge):
        subexpr_classes(Expression(a2, (0, 1) * 13), 0)


def test_empty_expression(a2):
    expr = Expression(a2, ())
    g = build_graph(expr, a2.identity())
    assert g.n_vertices == 1 and g.n_edges == 0
    assert is_connected(g)


def test_build_all_graphs_partition(b2):
    expr = Expression(b2, (0, 1, 0, 1, 0))
    graphs = build_all_graphs(expr)
    assert sum(g.n_vertices for g in graphs) == 1 << 5
    assert all(is_connected(g) for g in graphs)


def test_too_large(a2):
    with pytest.raises(TooLarge):
        build_graph(Expression(a2, (0, 1) * 13), a2.identity())


def test_to_dot_deterministic(g2):
    expr = Expression(g2, (0, 1, 0, 1))
    g1 = build_graph(expr, g2.element_from_word((0, 1)))
    g2_ = build_graph(expr, g2.element_from_word((0, 1)))
    dot = g1.to_dot()
    assert dot == g2_.to_dot()
    assert dot.startswith("graph sub {\n")
    assert 'label="' in dot and dot.endswith("}\n")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, (1 << 6) - 1), st.integers(0, 2024))
def test_random_fold_preserves_target(mask, pick):
    system = named_system("A3")
    expr = Expression(system, (0, 1, 2, 0, 1, 2))
    gamma = subexpr_from_mask(expr, mask)
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)
             if double_fold_applicable(gamma, i, j)]
    if not pairs:
        return
    i, j = pairs[pick % len(pairs)]
    delta = double_fold(gamma, i, j)
    assert delta.target_id() == gamma.target_id()
    assert double_fold(delta, i, j) == gamma
