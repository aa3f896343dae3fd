import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_metric import _METRIC_SPECS

from genpos import (
    FamilySpec,
    Graph,
    all_pairs_distances,
    generate,
    maximum_clique,
    product,
    random_connected,
    random_tree,
    strong_resolving_graph,
)
from genpos.errors import DisconnectedError, EmptySetError
import genpos.srg
from genpos.srg import _maximally_distant_columns, _strong_resolving_rows


def _family(text):
    G, _ = generate(FamilySpec.parse(text))
    return G


@pytest.mark.parametrize(
    "spec,edges",
    [
        ("path:4", [(0, 3)]),
        ("path:2", [(0, 1)]),
        ("cycle:4", [(0, 2), (1, 3)]),
        ("cycle:6", [(0, 3), (1, 4), (2, 5)]),
        ("cycle:5", [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]),
        ("star:3", [(1, 2), (1, 3), (2, 3)]),
    ],
)
def test_known_strong_resolving_graphs(spec, edges):
    R = strong_resolving_graph(_family(spec))
    assert sorted(R.edges()) == edges


def test_complete_graph_is_its_own_srg():
    K5 = _family("complete:5")
    R = strong_resolving_graph(K5)
    assert set(R.edges()) == set(K5.edges())


def test_srg_keeps_vertex_set_and_may_disconnect():
    # even-cycle SRG is a perfect matching: same order, no connectivity
    R = strong_resolving_graph(_family("cycle:8"))
    assert R.n == 8 and R.m == 4
    assert all(R.degree(v) == 1 for v in range(8))


def test_srg_requires_connected_input():
    with pytest.raises(DisconnectedError):
        strong_resolving_graph(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(EmptySetError):
        strong_resolving_graph(Graph(0))


def _is_mmd(G, D, u, v):
    # the reference: no neighbour of u is farther from v than u, and no
    # neighbour of v is farther from u than v
    duv = D.d[u][v]
    dv = D.d[v]
    for w in G.adj[u]:
        if dv[w] > duv:
            return False
    du = D.d[u]
    for w in G.adj[v]:
        if du[w] > duv:
            return False
    return True


def _rows_match_is_mmd(G):
    D = all_pairs_distances(G)
    rows = _strong_resolving_rows(G)
    assert len(rows) == G.n
    for u in range(G.n):
        assert not rows[u] >> u & 1
        for v in range(G.n):
            if u != v:
                assert bool(rows[u] >> v & 1) == _is_mmd(G, D, u, v), (u, v)


# one-vertex cores, and cycles sharing cut vertices with a pendant vertex
@pytest.mark.parametrize(
    "spec", _METRIC_SPECS + ["complete:1", "path:2", "path:3", "chain_cycles:3,5"]
)
def test_srg_rows_match_is_mmd(spec, spec_graph):
    _rows_match_is_mmd(spec_graph(spec))


@pytest.mark.parametrize(
    "n,edges",
    [
        # a 5-cycle with a path of three vertices hanging at vertex 0
        (8, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (5, 6), (6, 7)]),
        # two triangles sharing vertex 0: a cut vertex of the core itself
        (5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
    ],
    ids=["cycle-with-pendant-path", "two-triangles"],
)
def test_srg_rows_match_is_mmd_with_cut_vertices(n, edges):
    _rows_match_is_mmd(Graph(n, edges))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    p=st.floats(min_value=0.2, max_value=0.9),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_srg_rows_match_is_mmd_random(n, p, seed):
    _rows_match_is_mmd(random_connected(n, p, seed))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=10**6),
    data=st.data(),
)
def test_srg_rows_match_is_mmd_tree_plus_chords(n, seed, data):
    # a random tree carries pendant trees of every depth; chords make a core
    tree = random_tree(n, seed)
    absent = [
        (u, v) for u in range(n) for v in range(u + 1, n) if not tree.has_edge(u, v)
    ]
    some = st.lists(st.sampled_from(absent), max_size=n, unique=True)
    chords = data.draw(some if absent else st.just([]))
    _rows_match_is_mmd(Graph(n, list(tree.edges()) + chords))


def test_maximally_distant_rows_need_the_transpose():
    # each leaf of a star is maximally distant from every other vertex, but
    # the centre, whose other leaves lie farther out, is so from none
    cols = _maximally_distant_columns(_family("star:3"))
    assert cols == [0, 0b1101, 0b1011, 0b0111]
    # so the centre is isolated in the strong resolving graph
    assert _strong_resolving_rows(_family("star:3")) == [0, 0b1100, 0b1010, 0b0110]


def _no_transpose(*args):
    raise AssertionError("the rows were transposed")


# every non-empty column is full: leaves, and the simplicial vertices of
# complete and block graphs, are maximally distant from every other vertex
_FULL_OR_EMPTY = {
    f"{family}:{n}": _family(f"{family}:{n}")
    for family, least in [("path", 2), ("star", 1), ("complete", 1)]
    for n in range(least, least + 5)
}
_FULL_OR_EMPTY.update(
    {f"random_tree:{n},{s}": random_tree(n, s) for n, s in [(7, 1), (12, 2), (20, 3)]}
)
_FULL_OR_EMPTY["two-triangles"] = Graph(
    5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]
)


@pytest.mark.parametrize("G", _FULL_OR_EMPTY.values(), ids=list(_FULL_OR_EMPTY))
def test_srg_rows_without_the_transpose(G, monkeypatch):
    monkeypatch.setattr(genpos.srg, "format", _no_transpose, raising=False)
    _rows_match_is_mmd(G)


def test_srg_rows_with_a_column_neither_full_nor_empty():
    # a 4-cycle with vertex 4 pendant at 0: the leaf 4 is maximally distant
    # from every other vertex, but vertex 2 only from 0 and 4
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    cols = _maximally_distant_columns(G)
    full = (1 << G.n) - 1
    assert any(col not in (0, full ^ 1 << v) for v, col in enumerate(cols))
    _rows_match_is_mmd(G)


def test_star_srg_clique_is_its_leaves():
    # the centre is isolated in the SRG and the leaves form one clique
    assert maximum_clique(strong_resolving_graph(_family("star:5"))) == (
        5,
        (1, 2, 3, 4, 5),
    )


def test_mmd_pairs_on_path():
    P = _family("path:5")
    D = all_pairs_distances(P)
    assert _is_mmd(P, D, 0, 4)
    assert not _is_mmd(P, D, 0, 3)  # 3 can still walk away to 4
    assert not _is_mmd(P, D, 1, 3)


def test_mmd_is_symmetric():
    G = _family("theta:2,3,3")
    D = all_pairs_distances(G)
    for u in range(G.n):
        for v in range(u + 1, G.n):
            assert _is_mmd(G, D, u, v) == _is_mmd(G, D, v, u)


def test_srg_edges_from_first_principles(petersen):
    # recompute mutual maximal distance straight from the distance table
    D = all_pairs_distances(petersen)
    R = strong_resolving_graph(petersen)

    def max_distant(u, v):
        return D.d[u][v] == max(D.d[w][v] for w in petersen.adj[u] + (u,))

    expected = {
        (u, v)
        for u in range(10)
        for v in range(u + 1, 10)
        if max_distant(u, v) and max_distant(v, u)
    }
    assert set(R.edges()) == expected
    # Petersen: exactly the non-adjacent pairs end up mutually maximally
    # distant, so its SRG is the complement
    assert R.m == 45 - 15
    assert all(not petersen.has_edge(u, v) for u, v in R.edges())


def test_direct_product_clique_number_is_min_of_factors():
    for a, b in [(2, 3), (3, 3), (3, 5), (4, 4)]:
        A = _family(f"complete:{a}")
        B = _family(f"complete:{b}")
        assert maximum_clique(product(A, B, "direct"))[0] == min(a, b)
