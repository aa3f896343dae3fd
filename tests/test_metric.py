import itertools
import math
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos import (
    Graph,
    VertexSet,
    all_pairs_distances,
    generate,
    FamilySpec,
    girth,
    interval_masks,
    is_convex,
    is_p4_inner_isometric,
    random_connected,
    simplicial_set,
)
from genpos.errors import (
    DisconnectedError,
    EmptySetError,
    NotAnEdgeError,
)
from genpos.position import _Intervals, _shadow_row


def _family(text):
    G, _ = generate(FamilySpec.parse(text))
    return G


def test_path_distances():
    D = all_pairs_distances(_family("path:4"))
    assert D.d == (
        (0, 1, 2, 3),
        (1, 0, 1, 2),
        (2, 1, 0, 1),
        (3, 2, 1, 0),
    )
    assert D.diameter == 3


def test_cycle_distances_wrap():
    D = all_pairs_distances(_family("cycle:6"))
    assert D.d[0][3] == 3 and D.d[0][4] == 2 and D.d[0][5] == 1
    assert D.diameter == 3


def test_single_vertex():
    D = all_pairs_distances(Graph(1, []))
    assert D.d == ((0,),) and D.diameter == 0


def test_distances_reject_bad_input():
    with pytest.raises(EmptySetError):
        all_pairs_distances(Graph(0, []))
    with pytest.raises(DisconnectedError):
        all_pairs_distances(Graph(4, [(0, 1), (2, 3)]))


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("complete:4", 3),
        ("cycle:5", 5),
        ("cycle:9", 9),
        ("path:6", math.inf),
        ("path:2", math.inf),
        ("star:5", math.inf),
        ("complete_bipartite:2,3", 4),
        ("theta:2,2,3", 4),
    ],
)
def test_girth_examples(spec, expected):
    G = _family(spec)
    assert girth(G, all_pairs_distances(G)) == expected


def test_girth_petersen(petersen):
    assert girth(petersen, all_pairs_distances(petersen)) == 5


def test_girth_rejects_mismatched_matrix():
    G = _family("path:3")
    D = all_pairs_distances(_family("path:4"))
    with pytest.raises(ValueError):
        girth(G, D)


def _lies_between(D, u, w, v):
    # the reference: w sits on some shortest u,v-path
    return D.d[u][w] + D.d[w][v] == D.d[u][v]


_METRIC_SPECS = (
    [
        "cycle:6",
        "path:9",
        "star:7",
        "theta:2,3,3",
        "petersen",
        "cartesian:complete:3|complete:4",
        "cartesian:cycle:5|path:3",
    ]
    + [f"random_tree:25,{s}" for s in (1, 2, 3)]
    + [f"random_connected:25,0.2,{s}" for s in (1, 2, 3)]
)


@pytest.mark.parametrize("spec", _METRIC_SPECS)
def test_interval_masks_match_strict_betweenness(spec, spec_graph):
    G = spec_graph(spec)
    n = G.n
    D = all_pairs_distances(G)
    bet = interval_masks(D)
    for u in range(n):
        assert bet[u][u] == 0
        for v in range(n):
            if u == v:
                continue
            assert bet[u][v] == bet[v][u]
            for w in range(n):
                expect = w not in (u, v) and _lies_between(D, u, w, v)
                assert bool(bet[u][v] >> w & 1) == expect


@pytest.mark.parametrize("spec", _METRIC_SPECS)
def test_shadow_rows_match_strict_betweenness(spec, spec_graph):
    # sh[a][b] holds w iff b lies strictly between a and w
    G = spec_graph(spec)
    n = G.n
    D = all_pairs_distances(G)
    for a in range(n):
        row = _shadow_row(G, D.d[a])
        for b in range(n):
            if b == a:
                continue
            for w in range(n):
                expect = w not in (a, b) and _lies_between(D, a, b, w)
                assert bool(row[b] >> w & 1) == expect


def _lazy_rows_match_the_whole_tables(G, order):
    # each row the search table builds on first read, in any order, equals
    # that row of interval_masks, and the distances of its BFS are D's row
    D = all_pairs_distances(G)
    bet = interval_masks(D)
    rows = _Intervals(G.adj)
    order = list(order)
    for a in order:
        assert rows[a] == bet[a]
        assert rows.dist[a] == list(D.d[a])
    assert sorted(rows) == sorted(set(order))


@pytest.mark.parametrize("spec", _METRIC_SPECS)
def test_lazy_interval_rows_match_interval_masks(spec, spec_graph):
    G = spec_graph(spec)
    # both directions, so that later rows share entries of earlier ones
    _lazy_rows_match_the_whole_tables(G, range(G.n))
    _lazy_rows_match_the_whole_tables(G, reversed(range(G.n)))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    p=st.floats(min_value=0.15, max_value=0.9),
    seed=st.integers(min_value=0, max_value=10**6),
    data=st.data(),
)
def test_lazy_interval_rows_match_interval_masks_random(n, p, seed, data):
    G = random_connected(n, p, seed)
    order = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    _lazy_rows_match_the_whole_tables(G, order)


def _interiors_miss_the_simplicial_vertices(G):
    # a simplicial vertex lies inside no geodesic, and every other vertex
    # is the middle of an induced path on three vertices
    bet = interval_masks(all_pairs_distances(G))
    inside = reduce(or_, itertools.chain.from_iterable(bet), 0)
    assert inside == ((1 << G.n) - 1) & ~simplicial_set(G).mask


@pytest.mark.parametrize("spec", _METRIC_SPECS)
def test_geodesic_interiors_are_the_non_simplicial_vertices(spec, spec_graph):
    _interiors_miss_the_simplicial_vertices(spec_graph(spec))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    p=st.floats(min_value=0.2, max_value=0.9),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_geodesic_interiors_are_the_non_simplicial_vertices_random(n, p, seed):
    _interiors_miss_the_simplicial_vertices(random_connected(n, p, seed))


def test_antipodal_interval_in_even_cycle():
    D = all_pairs_distances(_family("cycle:6"))
    bet = interval_masks(D)
    # both arcs between antipodes are geodesics
    assert bet[0][3] == (1 << 1) | (1 << 2) | (1 << 4) | (1 << 5)


def test_convexity_cases():
    P = _family("path:6")
    DP = all_pairs_distances(P)
    assert is_convex(P, DP, VertexSet(6, [2, 3, 4]))
    assert not is_convex(P, DP, VertexSet(6, [1, 4]))
    assert is_convex(P, DP, VertexSet(6, []))
    assert is_convex(P, DP, VertexSet(6, [3]))
    assert is_convex(P, DP, VertexSet(6, range(6)))

    C = _family("cycle:4")
    DC = all_pairs_distances(C)
    assert not is_convex(C, DC, VertexSet(4, [0, 2]))
    assert is_convex(C, DC, VertexSet(4, [0, 1]))


def test_convexity_validates_sizes():
    G = _family("path:3")
    D = all_pairs_distances(G)
    with pytest.raises(ValueError):
        is_convex(G, D, VertexSet(4, [0]))


def test_convexity_agrees_with_interval_formula():
    for seed in range(25):
        G = random_connected(7, 0.4, seed)
        D = all_pairs_distances(G)
        bet = interval_masks(D)
        for mask in range(1 << 7):
            members = [v for v in range(7) if mask >> v & 1]
            closed = all(
                bet[u][v] & ~mask == 0
                for u, v in itertools.combinations(members, 2)
            )
            assert is_convex(G, D, VertexSet.from_mask(7, mask)) == closed


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("path:5", [0, 4]),
        ("cycle:4", []),
        ("cycle:7", []),
        ("complete:5", [0, 1, 2, 3, 4]),
        ("star:4", [1, 2, 3, 4]),
        ("complete_bipartite:2,2", []),
        ("complete_bipartite:1,3", [1, 2, 3]),
    ],
)
def test_simplicial_vertices(spec, expected):
    assert sorted(simplicial_set(_family(spec))) == expected


def test_simplicial_by_pairwise_definition():
    for seed in range(30):
        G = random_connected(8, 0.35, seed)
        simp = set(simplicial_set(G))
        for v in range(8):
            nbrs = G.adj[v]
            complete = all(
                G.has_edge(a, b) for a, b in itertools.combinations(nbrs, 2)
            )
            assert (v in simp) == complete


def test_inner_edges_of_cycles():
    for n in (6, 7, 9):
        C = _family(f"cycle:{n}")
        D = all_pairs_distances(C)
        assert all(is_p4_inner_isometric(C, D, x, y) for x, y in C.edges())
    C5 = _family("cycle:5")
    D5 = all_pairs_distances(C5)
    assert not any(is_p4_inner_isometric(C5, D5, x, y) for x, y in C5.edges())


def test_inner_edge_on_path_middle_only():
    P = _family("path:4")
    D = all_pairs_distances(P)
    assert is_p4_inner_isometric(P, D, 1, 2)
    assert not is_p4_inner_isometric(P, D, 0, 1)
    with pytest.raises(NotAnEdgeError):
        is_p4_inner_isometric(P, D, 0, 2)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=9),
    p=st.floats(min_value=0.2, max_value=0.9),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_metric_axioms_hold(n, p, seed):
    G = random_connected(n, p, seed)
    D = all_pairs_distances(G)
    for u in range(n):
        assert D.d[u][u] == 0
        for v in range(n):
            assert D.d[u][v] == D.d[v][u]
            assert (D.d[u][v] == 1) == G.has_edge(u, v) if u != v else True
            for w in range(n):
                assert D.d[u][v] <= D.d[u][w] + D.d[w][v]
