import random
import re

import pytest

from genpos import (
    FAMILIES,
    FamilySpec,
    Graph,
    generate,
    is_connected,
    join,
    product,
    random_connected,
    random_tree,
)
from genpos.errors import GenerationError, SpecError


def _gen(text):
    return generate(FamilySpec.parse(text))


def test_spec_parse_round_trip():
    spec = FamilySpec.parse("theta:2,3,3")
    assert spec.family == "theta" and spec.params == (2, 3, 3)
    assert str(spec) == "theta:2,3,3"
    assert FamilySpec.parse(str(spec)) == spec
    # no parameters, and a negative one, which generate rejects by its least value
    assert FamilySpec.parse("theta").params == FamilySpec.parse("theta:").params == ()
    assert FamilySpec.parse("path:-1").params == (-1,)


# the last five hold an empty entry, or an underscore, a '+' or another
# script's digit, which int() accepts
@pytest.mark.parametrize(
    "text",
    ["nosuch:3", "path:x", "theta:2,a", "theta:2,,3,3", "theta:2,3,3,", "path:3_0",
     "path:+3", "path:\u0663"],
)
def test_spec_parse_failures(text):
    with pytest.raises(SpecError):
        FamilySpec.parse(text)


@pytest.mark.parametrize(
    "text,n,m",
    [
        ("path:1", 1, 0),
        ("path:6", 6, 5),
        ("cycle:3", 3, 3),
        ("cycle:8", 8, 8),
        ("complete:5", 5, 10),
        ("complete_bipartite:2,3", 5, 6),
        ("edgeless:4", 4, 0),
        ("star:5", 6, 5),
        ("theta:2,2,2", 5, 6),
        ("theta:1,2,2", 4, 5),
        ("theta:3,4,5", 11, 12),
        ("gm_join:5", 7, 14),
        ("chain_cycles:1,4", 5, 5),
        ("chain_cycles:2,4", 8, 9),
        ("chain_cycles:3,5", 14, 16),
    ],
)
def test_family_orders_and_sizes(text, n, m):
    G, _ = _gen(text)
    assert (G.n, G.m) == (n, m)


def test_theta_vertex_count_formula():
    for lengths in [(1, 2), (2, 3, 4), (1, 5, 5, 5)]:
        G, labels = generate(FamilySpec("theta", lengths))
        assert G.n == 2 + sum(l - 1 for l in lengths)
        assert G.m == sum(lengths)
        assert labels == {"a": 0, "b": 1}
        assert G.degree(0) == len(lengths) == G.degree(1)


def test_theta_222_is_complete_bipartite_23():
    T, _ = _gen("theta:2,2,2")
    B, _ = _gen("complete_bipartite:2,3")
    # same labelling: branch vertices first, middles after
    assert set(T.edges()) == set(B.edges())


@pytest.mark.parametrize(
    "params",
    [(3,), (2, 1), (3, 2), (0, 2, 2), (1, 1, 2)],
)
def test_theta_rejects_bad_lengths(params):
    with pytest.raises(SpecError):
        generate(FamilySpec("theta", params))


def test_gm_join_shape():
    G, labels = _gen("gm_join:6")
    assert G.n == 8
    x, xp = labels["x"], labels["x'"]
    assert not G.has_edge(x, xp)
    assert G.degree(x) == 6 and G.degree(xp) == 6
    assert labels["p1"] == 0 and labels["pm"] == 5
    # the path survives inside the join
    assert all(G.has_edge(i, i + 1) for i in range(5))


def test_chain_cycles_shape():
    G, labels = _gen("chain_cycles:2,5")
    assert G.n == 10 and G.m == 11
    u, v = labels["u"], labels["v"]
    assert G.degree(u) == 1
    assert G.has_edge(min(u, v), max(u, v))
    # cut vertices: shared ring vertex has degree 4
    assert sorted(G.degree(w) for w in range(G.n)).count(4) == 1


@pytest.mark.parametrize("params", [(0, 4), (1, 3), (2, 2)])
def test_chain_cycles_rejects_bad_params(params):
    with pytest.raises(SpecError):
        generate(FamilySpec("chain_cycles", params))


@pytest.mark.parametrize(
    "row",
    [
        ("path", (1,), [(3, 4)]),
        ("cycle", (3,), []),
        ("complete", (1,), []),
        ("complete_bipartite", (1, 1), []),
        ("edgeless", (1,), []),
        ("star", (1,), []),
        ("gm_join", (1,), [()]),
        ("chain_cycles", (1, 4), []),
    ],
    ids=lambda row: row[0],
)
def test_family_least_parameters(row):
    family, least, rejected = row
    G, _ = generate(FamilySpec(family, least))
    assert G.n >= 1
    message = re.escape(f"{family} needs parameters >= {least}")
    for i in range(len(least)):
        below = least[:i] + (least[i] - 1,) + least[i + 1 :]
        with pytest.raises(SpecError, match=message):
            generate(FamilySpec(family, below))
    # one parameter too few or too many, and the cases listed
    for params in [least[:-1], least + least[:1]] + rejected:
        with pytest.raises(SpecError):
            generate(FamilySpec(family, params))


def test_cartesian_product_of_edges_is_square():
    K2, _ = _gen("complete:2")
    P = product(K2, K2, "cartesian")
    assert sorted(P.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_direct_product_of_edges_is_disconnected():
    K2, _ = _gen("complete:2")
    P = product(K2, K2, "direct")
    assert sorted(P.edges()) == [(0, 3), (1, 2)]
    assert not is_connected(P)


def test_strong_product_of_edges_is_complete():
    K2, _ = _gen("complete:2")
    P = product(K2, K2, "strong")
    assert P.n == 4 and P.m == 6


def test_product_row_major_coordinates():
    P3, _ = _gen("path:3")
    C4, _ = _gen("cycle:4")
    P = product(P3, C4, "cartesian")
    assert P.n == 12
    # (g,h) -> 4g + h; (1,2)-(1,3) is an H-edge, (0,2)-(1,2) a G-edge
    assert P.has_edge(6, 7) and P.has_edge(2, 6)
    assert not P.has_edge(3, 6)


def test_product_rejects_bad_kind_and_empty_factor():
    K2, _ = _gen("complete:2")
    with pytest.raises(SpecError):
        product(K2, K2, "tensorish")
    with pytest.raises(SpecError):
        product(K2, Graph(0, []), "cartesian")


def test_join_wheel_counts():
    C4, _ = _gen("cycle:4")
    hub, _ = _gen("edgeless:1")
    W = join(C4, hub)
    assert W.n == 5 and W.m == 8
    assert sorted(W.degree(v) for v in range(5)) == [3, 3, 3, 3, 4]


def test_join_is_gm_join_building_block():
    P5, _ = _gen("path:5")
    two, _ = _gen("edgeless:2")
    J = join(P5, two)
    Gm, _ = _gen("gm_join:5")
    assert set(J.edges()) == set(Gm.edges())


def test_random_connected_is_deterministic_and_connected():
    A = random_connected(9, 0.3, 42)
    B = random_connected(9, 0.3, 42)
    assert A == B
    assert is_connected(A)
    assert random_connected(9, 0.3, 43) != A  # different seed, different draw


def test_random_connected_full_density_is_complete():
    G = random_connected(6, 1.0, 0)
    assert G.m == 15


def test_random_connected_rejects_bad_params():
    with pytest.raises(SpecError):
        random_connected(0, 0.5, 1)
    with pytest.raises(SpecError):
        random_connected(5, 0.0, 1)
    with pytest.raises(SpecError):
        random_connected(5, 1.5, 1)


def test_random_connected_gives_up_eventually():
    with pytest.raises(GenerationError):
        random_connected(30, 0.001, 7)


def test_random_tree_properties():
    for seed in range(20):
        n = 2 + seed % 9
        T = random_tree(n, seed)
        assert T.n == n and T.m == n - 1
        assert is_connected(T)
    assert random_tree(8, 3) == random_tree(8, 3)
    with pytest.raises(SpecError):
        random_tree(0, 1)


def _quadratic_pruefer_tree(n, seed):
    # the textbook decode: rescan for the least leaf on every step
    if n <= 2:
        return Graph(n, [(0, 1)] if n == 2 else [])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = next(u for u in range(n) if degree[u] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(u for u in range(n) if degree[u] == 1))
    return Graph(n, edges)


def test_random_tree_matches_the_quadratic_pruefer_decode():
    grid = [(n, seed) for n in range(1, 80) for seed in range(20)]
    for n, seed in grid + [(500, 1), (2000, 1)]:
        assert random_tree(n, seed) == _quadratic_pruefer_tree(n, seed), (n, seed)


def test_families_registry_is_generable():
    defaults = {
        "path": (4,),
        "cycle": (5,),
        "complete": (3,),
        "complete_bipartite": (2, 2),
        "edgeless": (3,),
        "star": (3,),
        "theta": (2, 2),
        "gm_join": (5,),
        "chain_cycles": (1, 4),
    }
    assert tuple(defaults) == FAMILIES
    for family, params in defaults.items():
        G, _ = generate(FamilySpec(family, params))
        assert G.n >= 1
    # FamilySpec.parse is not the only way to name a family
    with pytest.raises(SpecError, match="unknown family 'nosuch'"):
        generate(FamilySpec("nosuch", (3,)))
