import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos import (
    Graph,
    VertexSet,
    is_connected,
    maximum_clique,
    random_tree,
)
from genpos.errors import DuplicateEdgeError, LoopError
from genpos.graphs import _is_clique, bits, cut_components


def test_construction_and_adjacency():
    G = Graph(4, [(2, 3), (0, 1), (1, 2)])
    assert G.n == 4 and G.m == 3
    assert G.adj[1] == (0, 2)
    assert G.has_edge(3, 2) and not G.has_edge(0, 3)
    assert [G.degree(v) for v in range(4)] == [1, 2, 2, 1]
    assert list(G.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_loops_rejected():
    with pytest.raises(LoopError):
        Graph(3, [(1, 1)])


@pytest.mark.parametrize("edges", [[(0, 1), (0, 1)], [(0, 1), (1, 0)]])
def test_duplicate_edges_rejected(edges):
    with pytest.raises(DuplicateEdgeError):
        Graph(2, edges)


def test_out_of_range_endpoint_rejected():
    with pytest.raises(IndexError):
        Graph(3, [(0, 3)])
    with pytest.raises(IndexError):
        Graph(3, [(-1, 2)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_graph_equality_and_hash():
    G = Graph(3, [(0, 1), (1, 2)])
    H = Graph(3, [(1, 2), (0, 1)])
    assert G == H and hash(G) == hash(H)
    assert G != Graph(3, [(0, 1)])


def test_vertex_set_behaviour():
    W = VertexSet(6, [4, 1, 2])
    assert list(W) == [1, 2, 4]
    assert len(W) == 3 and 2 in W and 0 not in W
    assert list(W.complement()) == [0, 3, 5]
    assert VertexSet.from_mask(6, W.mask) == W
    with pytest.raises(IndexError):
        VertexSet(3, [3])
    for mask in (-1, 1 << 3):
        with pytest.raises(IndexError):
            VertexSet.from_mask(3, mask)


def test_connectivity():
    assert is_connected(Graph(1, []))
    assert is_connected(Graph(3, [(0, 1), (1, 2)]))
    assert not is_connected(Graph(3, [(0, 1)]))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))


@pytest.mark.parametrize(
    "n,edges,omega",
    [
        (1, [], 1),
        (4, [], 1),
        (4, list(itertools.combinations(range(4), 2)), 4),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 2),
        (6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)], 3),
    ],
)
def test_clique_number_examples(n, edges, omega):
    assert maximum_clique(Graph(n, edges))[0] == omega


def test_petersen_is_triangle_free(petersen):
    assert maximum_clique(petersen)[0] == 2


def test_maximum_clique_witness_is_lex_least():
    # two maximum triangles; {0,1,5} beats {2,3,4} lexicographically
    G = Graph(6, [(0, 1), (0, 5), (1, 5), (2, 3), (2, 4), (3, 4)])
    size, witness = maximum_clique(G)
    assert size == 3
    assert witness == (0, 1, 5)


def test_clique_number_against_subset_enumeration():
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randrange(2, 10)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        G = Graph(n, edges)
        best = 1
        for size in range(2, n + 1):
            for sub in itertools.combinations(range(n), size):
                if all(G.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                    best = max(best, size)
        assert maximum_clique(G)[0] == best, (n, edges)


def _pairwise_adjacent(G, vertices):
    return all(G.has_edge(u, v) for u, v in itertools.combinations(vertices, 2))


def _first_maximum_clique(G):
    # largest size first, then the first clique in lexicographic order
    for size in range(G.n, 0, -1):
        for sub in itertools.combinations(range(G.n), size):
            if _pairwise_adjacent(G, sub):
                return size, sub
    return 0, ()


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=12),
    density=st.floats(min_value=0.05, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10**6),
    drawn=st.integers(min_value=0, max_value=(1 << 12) - 1),
)
def test_is_clique_against_pairwise_adjacency(n, density, seed, drawn):
    rng = random.Random(seed)
    pairs = itertools.combinations(range(n), 2)
    G = Graph(n, [e for e in pairs if rng.random() < density])
    # the empty mask, every singleton, a drawn mask, and a maximum clique
    # with and without one more vertex, so both answers occur
    top = sum(1 << v for v in _first_maximum_clique(G)[1])
    masks = [0, *(1 << v for v in range(n)), drawn & ((1 << n) - 1), top]
    masks += [top | 1 << v for v in range(n)]
    for mask in masks:
        expected = _pairwise_adjacent(G, list(bits(mask)))
        assert _is_clique(G.neighbor_masks, mask) == expected, (n, list(G.edges()), mask)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=12),
    density=st.floats(min_value=0.05, max_value=0.95),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_maximum_clique_against_subset_enumeration(n, density, seed):
    rng = random.Random(seed)
    pairs = itertools.combinations(range(n), 2)
    G = Graph(n, [e for e in pairs if rng.random() < density])
    assert maximum_clique(G) == _first_maximum_clique(G)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    density=st.floats(min_value=0.05, max_value=0.95),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_maximum_clique_with_isolated_vertices_against_subset_enumeration(
    n, density, seed
):
    # isolated vertices at random labels: the search starts without them
    rng = random.Random(seed)
    isolated = set(rng.sample(range(n), rng.randrange(1, n + 1)))
    pairs = itertools.combinations(sorted(set(range(n)) - isolated), 2)
    G = Graph(n, [e for e in pairs if rng.random() < density])
    assert maximum_clique(G) == _first_maximum_clique(G)


def _complete_on(n, members):
    return Graph(n, list(itertools.combinations(members, 2)))


@pytest.mark.parametrize(
    "G,expected",
    [
        (Graph(0), (0, ())),
        (Graph(5), (1, (0,))),
        (Graph(1), (1, (0,))),
        (Graph(3), (1, (0,))),
        # vertex 0 is isolated, so the search runs on 1 and 2 only
        (Graph(3, [(1, 2)]), (2, (1, 2))),
        # the whole graph is one colour per vertex, taken without a search
        (_complete_on(5, range(5)), (5, (0, 1, 2, 3, 4))),
        # the clique is found whole below the root
        (_complete_on(8, range(2, 7)), (5, (2, 3, 4, 5, 6))),
        # C5 joined to K2: clique number 4, but greedy colouring needs 5
        (
            Graph(
                7,
                [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (5, 6)]
                + [(c, k) for c in range(5) for k in (5, 6)],
            ),
            (4, (0, 1, 5, 6)),
        ),
    ],
    ids=[
        "empty",
        "edgeless",
        "edgeless-1",
        "edgeless-3",
        "k2-after-isolated",
        "complete",
        "complete-plus-isolated",
        "c5-join-k2",
    ],
)
def test_maximum_clique_pinned(G, expected):
    assert maximum_clique(G) == expected


# ------------------------------------------------------------ cut vertices


def _components_without(G, v):
    """The components of G - v as vertex masks, by BFS on the masks."""
    left = ((1 << G.n) - 1) & ~(1 << v)
    comps = set()
    while left:
        seen = frontier = left & -left
        while frontier:
            reach = 0
            for w in bits(frontier):
                reach |= G.neighbor_masks[w]
            frontier = reach & left & ~seen
            seen |= frontier
        comps.add(seen)
        left &= ~seen
    return comps


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=14),
    extra=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_cut_vertices_against_deletion(n, extra, seed):
    # a random tree plus random chords: every block structure from a
    # tree (all inner vertices cut) to 2-connected (none)
    rng = random.Random(seed)
    edges = set(random_tree(n, seed).edges())
    edges |= {e for e in itertools.combinations(range(n), 2) if rng.random() < extra}
    G = Graph(n, sorted(edges))
    expected = {v for v in range(n) if len(_components_without(G, v)) > 1}
    parts = cut_components(G)
    assert set(parts) == expected
    for c, comps in parts.items():
        assert len(set(comps)) == len(comps)
        assert set(comps) == _components_without(G, c)


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_cut_vertices_of_a_long_path(default_recursion_limit):
    n = 3000
    parts = cut_components(Graph(n, [(v, v + 1) for v in range(n - 1)]))
    assert set(parts) == set(range(1, n - 1))
    for c, comps in parts.items():
        assert set(comps) == {(1 << c) - 1, ((1 << n) - 1) & ~((2 << c) - 1)}


def test_cut_vertices_of_a_large_star(default_recursion_limit):
    n = 1200
    parts = cut_components(Graph(n + 1, [(0, v) for v in range(1, n + 1)]))
    assert list(parts) == [0]
    assert sorted(parts[0]) == [1 << v for v in range(1, n + 1)]
