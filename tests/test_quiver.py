"""Quiver combinatorics: vertex grids, translation arrows, the
nonzero-index partial order, DOT emission."""

from math import comb, inf

from zzqh.quiver import (build_quiver, classify_vertices, displacement,
                         export_dot, order_data, vertex_name)

GRID = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))


def test_vertex_counts_are_binomial():
    for n, w in GRID:
        q = build_quiver(n, w)
        assert len(q.vertices) == comb(w + n, n)
        assert all(len(x) == n + 1 and sum(x) == w for x in q.vertices)


def test_small_quivers():
    assert len(build_quiver(2, 2).vertices) == 6
    q = build_quiver(2, 3)
    assert len(q.vertices) == 10
    j, k = classify_vertices(q)
    assert len(k) == 4
    assert set(k) == {(0, 0, 3), (0, 1, 2), (0, 2, 1), (0, 3, 0)}
    assert all(x[0] == 0 for x in k)
    assert all(x[0] != 0 for x in j)


def test_displacements_sum_to_zero():
    for n in (1, 2, 3):
        total = [0] * (n + 1)
        for i in range(n + 1):
            d = displacement(i, n)
            total = [a + b for a, b in zip(total, d)]
        assert all(t == 0 for t in total)


def test_arrows_follow_displacements():
    q = build_quiver(2, 3)
    vset = set(q.vertices)
    for src, i in q.arrows:
        assert src in vset and q.target(src, i) in vset
    # an arrow exists exactly when the translated vertex stays on grid
    for x in q.vertices:
        labels = {i for s, i in q.arrows if s == x}
        expected = {i for i in range(q.n + 1) if q.target(x, i) in vset}
        assert labels == expected


def test_order_distance_and_incomparability():
    q = build_quiver(1, 2)
    order = order_data(q)
    assert order.distance((2, 0), (0, 2)) == 2
    assert order.distance((2, 0), (1, 1)) == 1
    assert order.distance((0, 2), (2, 0)) == inf
    assert order.leq((2, 0), (2, 0))
    assert not order.lt((2, 0), (2, 0))


def test_order_key_is_made_once_and_compares_by_value():
    order, again = order_data(build_quiver(2, 2)), order_data(build_quiver(2, 2))
    assert order.key is order.key
    assert order.key == again.key == frozenset(order.dist.items())
    assert order.key != order_data(build_quiver(1, 2)).key


def test_order_edges_use_only_nonzero_indices():
    q = build_quiver(2, 3)
    order = order_data(q)
    arrows = {(s, q.target(s, i)) for s, i in q.arrows if i != 0}
    assert {p for p, d in order.dist.items() if d == 1} == arrows
    for (x, y), d in order.dist.items():
        if x != y:
            assert 1 <= d <= q.n * q.w


def test_dot_and_json_deterministic():
    q = build_quiver(2, 2)
    dot = export_dot(q)
    assert dot == export_dot(build_quiver(2, 2))
    assert dot.startswith("digraph")
    for v in q.vertices:
        assert f'"{vertex_name(v)}"' in dot
