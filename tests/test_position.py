import contextlib
import itertools
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos import (
    VARIANTS,
    Certificate,
    FamilySpec,
    Graph,
    VertexSet,
    all_pairs_distances,
    brute_force,
    generate,
    is_convex,
    is_variant_set,
    position,
    random_connected,
    random_tree,
    simplicial_set,
    solve,
    variant_feasibility,
)
from genpos.errors import (
    DisconnectedError,
    EmptySetError,
    SizeError,
)
from genpos.graphs import bits
from genpos.position import (
    _branch_and_bound,
    _dual,
    _gp,
    _gp_decisions,
    _gp_doll,
    _levels,
    _membership,
    _pair_tables,
    _Search,
)


def _family(text):
    G, _ = generate(FamilySpec.parse(text))
    return G


# ----------------------------------------------------------- basic predicates


def _is_positionable(D, X, u, v):
    # the pair-by-pair reference: no member of X besides u, v lies on a
    # shortest u,v-path; adjacent pairs have nothing between them
    d = D.d
    duv = d[u][v]
    for x in X:
        if x != u and x != v and d[u][x] + d[x][v] == duv:
            return False
    return True


def test_positionable_pairs_on_path():
    D = all_pairs_distances(_family("path:5"))
    X = VertexSet(5, [2])
    assert not _is_positionable(D, X, 0, 4)  # 2 blocks the long pair
    assert _is_positionable(D, X, 0, 1)
    assert _is_positionable(D, X, 2, 4)  # members never block their own pairs


def test_variant_set_examples_on_path():
    P = _family("path:4")
    D = all_pairs_distances(P)
    ends = VertexSet(4, [0, 3])
    assert all(is_variant_set(P, D, ends, v) for v in VARIANTS)
    mixed = VertexSet(4, [0, 1, 3])
    assert not is_variant_set(P, D, mixed, "gp")  # 1 sits between 0 and 3
    assert not is_variant_set(P, D, mixed, "outer")
    assert not is_variant_set(P, D, mixed, "total")
    assert not is_variant_set(P, D, mixed, "dual")


def test_empty_set_satisfies_every_variant():
    G = _family("cycle:6")
    D = all_pairs_distances(G)
    empty = VertexSet(6, [])
    assert all(is_variant_set(G, D, empty, v) for v in VARIANTS)


def test_singleton_conventions():
    P = _family("path:4")
    D = all_pairs_distances(P)
    for v in range(4):
        single = VertexSet(4, [v])
        assert is_variant_set(P, D, single, "gp")
        assert is_variant_set(P, D, single, "outer")
        # only simplicial vertices carry a total singleton
        assert is_variant_set(P, D, single, "total") == (v in (0, 3))


def test_dual_singletons_on_path():
    P = _family("path:5")
    D = all_pairs_distances(P)
    expected = {0: True, 1: False, 2: False, 3: False, 4: True}
    for v, want in expected.items():
        assert is_variant_set(P, D, VertexSet(5, [v]), "dual") == want


def test_variant_names_validated():
    P = _family("path:3")
    D = all_pairs_distances(P)
    with pytest.raises(ValueError):
        is_variant_set(P, D, VertexSet(3, [0]), "median")
    with pytest.raises(ValueError):
        solve(P, "median")
    # a set or a distance table of another order
    with pytest.raises(ValueError):
        is_variant_set(P, D, VertexSet(4, [0]), "gp")
    with pytest.raises(ValueError):
        is_variant_set(P, all_pairs_distances(_family("path:4")), VertexSet(3, [0]), "gp")


# ------------------------------------------------------------------- solvers


def test_single_vertex_graph():
    K1 = Graph(1, [])
    for variant in VARIANTS:
        cert = solve(K1, variant)
        assert cert.value == 1 and tuple(cert.witness) == (0,)
        oracle = brute_force(K1, variant)
        assert oracle.value == 1 and tuple(oracle.witness) == (0,)


def test_solvers_reject_degenerate_inputs():
    with pytest.raises(EmptySetError):
        solve(Graph(0, []), "gp")
    with pytest.raises(DisconnectedError):
        solve(Graph(4, [(0, 1), (2, 3)]), "gp")
    with pytest.raises(EmptySetError):
        brute_force(Graph(0, []), "total")
    with pytest.raises(DisconnectedError):
        brute_force(Graph(4, [(0, 1), (2, 3)]), "dual")


def test_brute_force_size_cap():
    P = _family("path:19")
    with pytest.raises(SizeError):
        brute_force(P, "gp")
    assert brute_force(_family("path:6"), "gp", max_n=6).value == 2
    with pytest.raises(SizeError):
        brute_force(_family("path:7"), "gp", max_n=6)


def test_feasibility_table_size_cap():
    # n = 20 is the largest table: one int of 2**20 bits
    table = variant_feasibility(all_pairs_distances(_family("path:20")), "gp")
    assert isinstance(table, int) and 0 <= table < 1 << (1 << 20)
    # the empty set, both ends, and no set with an inner vertex among them
    assert table & 1 and table >> (1 | 1 << 19) & 1
    assert not table >> (1 | 1 << 5 | 1 << 19) & 1
    assert table.bit_count() == 1 + 20 + 190
    D = all_pairs_distances(_family("path:21"))
    with pytest.raises(SizeError):
        variant_feasibility(D, "gp")


@pytest.mark.parametrize(
    "spec,quad",
    [
        # (gp, total, outer, dual)
        ("path:2", (2, 2, 2, 2)),
        ("path:7", (2, 2, 2, 2)),
        ("complete:6", (6, 6, 6, 6)),
        ("star:4", (4, 4, 4, 4)),
        ("cycle:4", (2, 0, 2, 2)),
        ("cycle:5", (3, 0, 2, 2)),
        ("cycle:6", (3, 0, 2, 0)),
        ("cycle:9", (3, 0, 2, 0)),
        ("complete_bipartite:3,3", (3, 0, 3, 0)),
    ],
)
def test_known_invariant_quadruples(spec, quad):
    G = _family(spec)
    values = tuple(solve(G, v).value for v in ("gp", "total", "outer", "dual"))
    assert values == quad


def test_certificate_fields_and_methods():
    C5 = _family("cycle:5")
    cert = solve(C5, "dual")
    assert isinstance(cert, Certificate)
    assert cert.variant == "dual"
    assert len(cert.witness) == cert.value == 2
    assert cert.method == "branch_and_bound"
    assert solve(C5, "total").method == "closed_form"
    assert solve(C5, "outer").method == "clique"
    assert solve(C5, "gp").method == "branch_and_bound"
    assert brute_force(C5, "gp").method == "exhaustive"
    with pytest.raises(ValueError):
        Certificate("dual", 3, cert.witness, "branch_and_bound")


def test_witness_is_a_variant_set_of_claimed_size():
    for seed in range(30):
        G = random_connected(8, 0.4, seed)
        D = all_pairs_distances(G)
        for variant in VARIANTS:
            cert = solve(G, variant)
            assert len(cert.witness) == cert.value
            assert is_variant_set(G, D, cert.witness, variant)
            if variant == "dual":
                assert is_convex(G, D, cert.witness.complement())


def test_solver_matches_oracle_with_witnesses(corpus):
    # values and lexicographically-least witnesses must agree exactly
    for G in corpus[:90]:
        for variant in VARIANTS:
            cert = solve(G, variant)
            oracle = brute_force(G, variant)
            assert cert.value == oracle.value, (G, variant)
            assert tuple(cert.witness) == tuple(oracle.witness), (G, variant)


def test_chain_of_inequalities(corpus):
    for G in corpus[:120]:
        vals = {v: solve(G, v).value for v in VARIANTS}
        assert vals["gp"] >= vals["outer"] >= vals["total"]
        assert vals["gp"] >= vals["dual"] >= vals["total"]


def test_gp_total_outer_are_hereditary(corpus):
    # every subset of a witness stays feasible for its variant
    for G in corpus[:40]:
        D = all_pairs_distances(G)
        for variant in ("gp", "total", "outer"):
            witness = solve(G, variant).witness
            members = tuple(witness)
            for size in range(len(members)):
                for sub in itertools.combinations(members, size):
                    assert is_variant_set(G, D, VertexSet(G.n, sub), variant)


def test_dual_is_not_hereditary_on_five_cycle():
    C5 = _family("cycle:5")
    D = all_pairs_distances(C5)
    cert = solve(C5, "dual")
    assert cert.value == 2
    u, v = tuple(cert.witness)
    assert C5.has_edge(u, v)
    assert not is_variant_set(C5, D, VertexSet(5, [u]), "dual")
    assert not is_variant_set(C5, D, VertexSet(5, [v]), "dual")


def test_total_value_counts_simplicial_vertices(corpus):
    for G in corpus[:80]:
        assert solve(G, "total").value == len(simplicial_set(G))


def test_path_dual_families_exhaustively():
    for n in range(4, 9):
        P = _family(f"path:{n}")
        D = all_pairs_distances(P)
        feas = variant_feasibility(D, "dual")
        levels = _levels(n)
        best = max(k for k, level in enumerate(levels) if feas & level)
        assert best == 2
        tops = {
            frozenset(v for v in range(n) if mask >> v & 1)
            for mask in bits(feas & levels[2])
        }
        assert tops == {
            frozenset({0, 1}),
            frozenset({0, n - 1}),
            frozenset({n - 2, n - 1}),
        }


@pytest.mark.parametrize(
    "spec",
    [
        "random_connected:7,0.45,3",
        "random_connected:7,0.45,11",
        # no vertex lies between two others: every subset is total
        "complete:5",
        "star:5",
        # n = 1 to 4: tables of 2, 4, 8 and 16 bits
        "complete:1",
        "path:2",
        "path:3",
        "cycle:4",
    ],
)
def test_feasibility_table_matches_predicate(spec, spec_graph):
    G = spec_graph(spec)
    D = all_pairs_distances(G)
    for variant in VARIANTS:
        table = variant_feasibility(D, variant)
        for mask in range(1 << G.n):
            X = VertexSet.from_mask(G.n, mask)
            assert bool(table >> mask & 1) == is_variant_set(G, D, X, variant)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    p=st.floats(min_value=0.2, max_value=0.9),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_feasibility_table_matches_predicate_random(n, p, seed):
    # the gp, outer and dual rules combine membership tables with plain
    # operators, dual through a negative int;
    # graphs with nonzero betweenness rows exercise each of them against
    # the definition
    G = random_connected(n, p, seed)
    D = all_pairs_distances(G)
    for variant in VARIANTS:
        table = variant_feasibility(D, variant)
        for mask in range(1 << G.n):
            X = VertexSet.from_mask(G.n, mask)
            assert bool(table >> mask & 1) == is_variant_set(G, D, X, variant)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    p=st.floats(min_value=0.2, max_value=0.9),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_one_pass_over_every_rule_matches_one_pass_per_rule(n, p, seed):
    # the structural laws and the maximum-sets law read all their tables
    # off one pass over the pairs; each must be what its rule alone gives,
    # and each variant's the table the oracle reads
    D = all_pairs_distances(random_connected(n, p, seed))
    member = _membership(n)
    rules = (*VARIANTS, "convex complement")
    tables = _pair_tables(D, member, *rules)
    assert tuple(tables) == rules
    for rule in rules:
        assert tables[rule] == _pair_tables(D, member, rule)[rule]
    for variant in VARIANTS:
        assert tables[variant] == variant_feasibility(D, variant)


def _named_pairs_positionable(D, X, variant):
    # the definition itself: every pair u < v that the variant names is
    # X-positionable, with no simplicial or adjacency shortcut
    x = X.mask
    for u, v in itertools.combinations(range(D.n), 2):
        a, b = x >> u & 1, x >> v & 1
        named = {"gp": a & b, "total": 1, "outer": a | b, "dual": a == b}[variant]
        if named and not _is_positionable(D, X, u, v):
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=11, max_value=24),
    p=st.floats(min_value=0.2, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10**6),
    tree=st.booleans(),
    data=st.data(),
)
def test_variant_set_matches_the_definition_past_the_oracle(n, p, seed, tree, data):
    # past the oracle's range both verdicts against the literal definition:
    # a random set, the solver's witness, and the witness with one vertex
    # flipped, which is often no longer a set of the variant
    G = random_tree(n, seed) if tree else random_connected(n, p, seed)
    D = all_pairs_distances(G)
    for variant in VARIANTS:
        witness = solve(G, variant).witness.mask
        flip = 1 << data.draw(st.integers(0, n - 1), label="flip")
        masks = (data.draw(st.integers(0, (1 << n) - 1), label="X"), witness, witness ^ flip)
        for mask in masks:
            X = VertexSet.from_mask(n, mask)
            want = _named_pairs_positionable(D, X, variant)
            assert is_variant_set(G, D, X, variant) == want, (variant, mask)


def test_level_tables():
    # bit m of _levels(n)[k] is set iff the subset with bitmask m has k members
    levels = _levels(10)
    assert len(levels) == 11
    for k, level in enumerate(levels):
        assert level == sum(1 << m for m in range(1024) if m.bit_count() == k)


# Cartesian products of small factors (each spec's parameter is its
# order) that fit under the brute_force cap of 18 vertices
_FACTORS = (
    "complete:2",
    "complete:3",
    "complete:4",
    "path:3",
    "path:4",
    "cycle:4",
    "cycle:5",
)
_SMALL_PRODUCTS = [
    f"cartesian:{a}|{b}"
    for a, b in itertools.combinations_with_replacement(_FACTORS, 2)
    if int(a.split(":")[1]) * int(b.split(":")[1]) <= 18
]


@pytest.mark.parametrize(
    "spec",
    [f"cycle:{n}" for n in range(3, 13)]
    + ["theta:2,3,3", "theta:3,4,5", "gm_join:5", "gm_join:8"]
    + ["chain_cycles:2,4", "chain_cycles:2,6"]
    + _SMALL_PRODUCTS
    # large dual sets (all of K_n, every leaf set of a star) and n = 1, 2
    + ["complete:1", "path:2", "path:12", "star:4", "star:9", "complete:6"]
    + ["complete_bipartite:2,5", "complete_bipartite:3,3"],
)
def test_solver_oracle_agreement_structured(spec, spec_graph):
    # many of these have a nonempty dual set, where the hull cut fires;
    # random dense graphs rarely have one
    G = spec_graph(spec)
    for variant in ("gp", "dual"):
        cert, oracle = solve(G, variant), brute_force(G, variant)
        assert (cert.value, tuple(cert.witness)) == (
            oracle.value,
            tuple(oracle.witness),
        )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=14),
    seed=st.integers(min_value=0, max_value=10**6),
    tree=st.booleans(),
)
def test_solver_oracle_agreement_random(n, seed, tree):
    G = random_tree(n, seed) if tree else random_connected(n, 0.45, seed)
    for variant in VARIANTS:
        cert, oracle = solve(G, variant), brute_force(G, variant)
        assert (cert.value, tuple(cert.witness)) == (
            oracle.value,
            tuple(oracle.witness),
        )


@pytest.mark.parametrize(
    "spec",
    [
        "random_connected:16,0.3,1",
        "random_connected:18,0.3,1",
        "random_tree:18,1",
        "random_tree:18,2",
    ],
)
def test_solver_oracle_agreement_at_full_size(spec, spec_graph):
    # the oracle's default cap is 18 vertices
    G = spec_graph(spec)
    for variant in VARIANTS:
        cert, oracle = solve(G, variant), brute_force(G, variant)
        assert (cert.value, tuple(cert.witness)) == (
            oracle.value,
            tuple(oracle.witness),
        )


def _glued(a, b, seed, tree_a, tree_b, data):
    # two connected graphs share one vertex, which is then a cut vertex;
    # a random labelling puts it anywhere in the search orders
    A = random_tree(a, seed) if tree_a else random_connected(a, 0.5, seed)
    B = random_tree(b, seed + 1) if tree_b else random_connected(b, 0.5, seed + 1)
    ga = data.draw(st.integers(0, a - 1), label="glued vertex of A")
    gb = data.draw(st.integers(0, b - 1), label="glued vertex of B")
    n = a + b - 1
    label = data.draw(st.permutations(range(n)), label="labelling")

    def lift(w):
        return ga if w == gb else a + w - (w > gb)

    edges = list(A.edges()) + [(lift(u), lift(v)) for u, v in B.edges()]
    return Graph(n, [(label[u], label[v]) for u, v in edges])


_GLUED = dict(
    a=st.integers(min_value=2, max_value=8),
    b=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=10**6),
    tree_a=st.booleans(),
    tree_b=st.booleans(),
    data=st.data(),
)


@settings(max_examples=40, deadline=None)
@given(**_GLUED)
def test_solver_oracle_agreement_glued_at_a_cut_vertex(
    a, b, seed, tree_a, tree_b, data
):
    G = _glued(a, b, seed, tree_a, tree_b, data)
    for variant in ("gp", "dual"):
        cert, oracle = solve(G, variant), brute_force(G, variant)
        assert (cert.value, tuple(cert.witness)) == (
            oracle.value,
            tuple(oracle.witness),
        )


def _tree_with_chords(n, seed, data):
    # a random tree, 0 to n/3 chords and a random labelling: many cut
    # vertices and blocks, and candidates both simplicial and not, where
    # the searches skip the rows that cannot drop a candidate
    tree = set(random_tree(n, seed).edges())
    others = [e for e in itertools.combinations(range(n), 2) if e not in tree]
    chords = data.draw(
        st.lists(st.sampled_from(others), max_size=n // 3, unique=True)
        if others
        else st.just([]),
        label="chords",
    )
    label = data.draw(st.permutations(range(n)), label="labelling")
    return Graph(n, [(label[u], label[v]) for u, v in [*tree, *chords]])


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=14),
    seed=st.integers(min_value=0, max_value=10**6),
    data=st.data(),
)
def test_solver_oracle_agreement_on_trees_with_chords(n, seed, data):
    G = _tree_with_chords(n, seed, data)
    for variant in ("gp", "dual"):
        cert, oracle = solve(G, variant), brute_force(G, variant)
        assert (cert.value, tuple(cert.witness)) == (
            oracle.value,
            tuple(oracle.witness),
        )


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=19, max_value=60),
    seed=st.integers(min_value=0, max_value=10**6),
    data=st.data(),
)
def test_every_variant_past_the_oracle_under_relabelling(n, seed, data):
    # past the oracle's range: a relabelling keeps each value, each
    # witness is a set of its variant on its own graph, and both chains
    # total <= outer <= gp and total <= dual <= gp hold
    G = _tree_with_chords(n, seed, data)
    label = data.draw(st.permutations(range(n)), label="relabelling")
    H = Graph(n, [(label[u], label[v]) for u, v in G.edges()])
    DG, DH = all_pairs_distances(G), all_pairs_distances(H)
    value = {}
    for variant in VARIANTS:
        cert, moved = solve(G, variant), solve(H, variant)
        assert moved.value == cert.value, variant
        assert is_variant_set(G, DG, cert.witness, variant), variant
        assert is_variant_set(H, DH, moved.witness, variant), variant
        value[variant] = cert.value
    assert value["total"] <= value["outer"] <= value["gp"]
    assert value["total"] <= value["dual"] <= value["gp"]


def _doll_against_the_oracle(G):
    # doll[v] of the gp value pass, on the search object that solve
    # builds, must be the largest gp set among the non-cut vertices at or
    # above v, read from the oracle's table, and doll[n] is 0; returns how
    # many of the non-cut vertices were filled by extending the last
    # optimum and how many by a search
    search = _Search(G)
    with mock.patch.object(
        position, "_branch_and_bound", wraps=position._branch_and_bound
    ) as runs:
        doll, first = _gp_doll(search)
    gp_sets = list(bits(variant_feasibility(all_pairs_distances(G), "gp")))
    want, inside = [0], 0
    for v in reversed(range(G.n)):
        inside |= 1 << v & ~search.cuts
        want.append(max(X.bit_count() for X in gp_sets if not X & ~inside))
    assert doll == want[::-1]
    assert first in gp_sets and first.bit_count() == doll[0]
    assert not first & search.cuts
    assert doll[0] == brute_force(G, "gp").value
    noncut = G.n - search.cuts.bit_count()
    return noncut - runs.call_count, runs.call_count


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=13),
    p=st.sampled_from([0.2, 0.35, 0.5, 0.7]),
    seed=st.integers(min_value=0, max_value=10**6),
    tree=st.booleans(),
)
def test_gp_doll_table_against_the_oracle(n, p, seed, tree):
    G = random_tree(n, seed) if tree else random_connected(n, p, seed)
    _doll_against_the_oracle(G)


@settings(max_examples=30, deadline=None)
@given(**_GLUED)
def test_gp_doll_table_against_the_oracle_glued(a, b, seed, tree_a, tree_b, data):
    _doll_against_the_oracle(_glued(a, b, seed, tree_a, tree_b, data))


@pytest.mark.parametrize(
    "spec",
    ["cycle:7", "petersen", "cartesian:cycle:4|path:3", "random_connected:12,0.3,1"],
)
def test_gp_doll_table_both_ways_against_the_oracle(spec, spec_graph):
    # the table is filled both by extending the last optimum and by search
    extended, searched = _doll_against_the_oracle(spec_graph(spec))
    assert extended and searched


def test_gp_doll_table_of_a_star_runs_no_search(spec_graph):
    # the leaves are pairwise in general position, so each one extends
    # the last optimum; a search per leaf would include every later leaf
    assert _doll_against_the_oracle(spec_graph("star:9")) == (9, 0)


@settings(max_examples=40, deadline=None)
@given(**_GLUED)
def test_gp_decisions_with_pins_against_the_oracle_table(
    a, b, seed, tree_a, tree_b, data
):
    # one prefix decision of the gp witness, from drawn pins (a subset of
    # a drawn gp set), a drawn vertex v and a drawn rejected set, built
    # as _gp builds it, on the search object that solve builds: its run
    # forbids the cut vertices that the exchange lemma frees, is bounded
    # by the Russian-doll table plus one for each cut vertex it leaves
    # free, and must still find a gp set of the value exactly when one
    # exists
    G = _glued(a, b, seed, tree_a, tree_b, data)
    n = G.n
    search = _Search(G)
    doll, _ = _gp_doll(search)
    table = variant_feasibility(all_pairs_distances(G), "gp")
    levels = _levels(n)
    value = max(k for k, level in enumerate(levels) if table & level)
    assert doll[0] == value
    gp_sets = list(bits(table))
    for _ in range(4):
        base = gp_sets[data.draw(st.integers(0, len(gp_sets) - 1))]
        pins = [u for u in range(n) if base >> u & 1 and data.draw(st.booleans())]
        rest = [u for u in range(n) if u not in pins]
        if not rest or len(pins) >= value:
            continue
        v = data.draw(st.sampled_from(rest), label="v")
        rejected = sum(1 << u for u in rest if u != v and data.draw(st.booleans()))
        need = sum(1 << u for u in pins) | 1 << v
        want = [
            X
            for X in bits(table & levels[value])
            if X & need == need and not X & rejected
        ]
        decide = _gp_decisions(search, doll)
        found = decide(v, pins, rejected)
        assert bool(found) == bool(want), (pins, v, rejected)
        if found:
            assert table >> found & 1 and found.bit_count() == value
            assert found & need == need and not found & rejected


@settings(max_examples=40, deadline=None)
@given(**_GLUED)
def test_kernel_on_a_candidate_mask_against_the_oracle_table(
    a, b, seed, tree_a, tree_b, data
):
    # one gp run of the kernel from a drawn candidate mask, which need not
    # be the vertices above any vertex, drawn pins (a subset of a drawn gp
    # set), a drawn forbidden mask and a drawn floor: it must return the
    # lexicographically least of the largest gp sets that hold the pins
    # and lie inside cand & ~forb besides them, whenever that beats the
    # floor, read from the oracle's table
    G = _glued(a, b, seed, tree_a, tree_b, data)
    n = G.n
    search = _Search(G)
    gp_sets = list(bits(variant_feasibility(all_pairs_distances(G), "gp")))
    for _ in range(4):
        base = gp_sets[data.draw(st.integers(0, len(gp_sets) - 1))]
        pins = [u for u in bits(base) if data.draw(st.booleans())]
        held = sum(1 << u for u in pins)
        cand = data.draw(st.integers(0, (1 << n) - 1), label="cand") & ~held
        forb = data.draw(st.integers(0, (1 << n) - 1), label="forb")
        floor = data.draw(st.integers(0, n), label="floor")
        links = 0  # the kernel needs the conflict links of the pins' pairs
        for k, u in enumerate(pins):
            links |= search.links(u, pins[:k], held & ((1 << u) - 1))
        room = held | cand & ~forb
        fits = [X for X in gp_sets if X & held == held and not X & ~room]
        top = max(X.bit_count() for X in fits)
        size, members = _branch_and_bound(
            search, cand & ~(forb | links), False, floor, n, pins
        )
        if top > floor:
            least = min(tuple(bits(X)) for X in fits if X.bit_count() == top)
            assert (size, tuple(sorted(members))) == (top, least)
        else:
            assert (size, members) == (floor, ())


@pytest.mark.parametrize(
    "spec", ["random_connected:30,0.15,2", "cartesian:path:7|path:7"]
)
@pytest.mark.parametrize("variant", ["gp", "dual"])
def test_gp_and_dual_build_each_table_once(spec, variant, spec_graph):
    # one search object per solve builds the tables that every kernel
    # run, the Russian-doll pass and the witness decisions read: the
    # simplicial set and the cut vertices once, each interval row on
    # first read from one BFS of its source, and no whole distance or
    # interval table at all
    G = spec_graph(spec)
    builders = (
        "all_pairs_distances",
        "interval_masks",
        "simplicial_set",
        "cut_components",
    )
    bfs = Counter()
    build_row = position._Intervals.__missing__

    def counted(rows, a):
        bfs[a] += 1
        return build_row(rows, a)

    with contextlib.ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(position._Intervals, "__missing__", counted)
        )
        calls = {
            name: stack.enter_context(
                mock.patch.object(position, name, wraps=getattr(position, name))
            )
            for name in builders
        }
        solve(G, variant)
    assert {name: spy.call_count for name, spy in calls.items()} == {
        "all_pairs_distances": 0,
        "interval_masks": 0,
        "simplicial_set": 1,
        "cut_components": 1,
    }
    assert bfs and set(bfs.values()) == {1}


def test_gp_on_a_long_path_reads_two_rows(spec_graph):
    # the two ends are the only non-cut vertices, and the conflict link
    # of the adjacent pair 0, 1 is every other vertex, so the value pass
    # and the witness decisions read two interval rows and one half row
    search = _Search(spec_graph("path:200"))
    assert _gp(search) == (2, (0, 1))
    assert len(search.bet) == 2 and len(search) == 1


@pytest.mark.parametrize("spec", ["path:200", "star:200"])
def test_dual_on_a_path_or_a_star_reads_no_row(spec, spec_graph):
    # the candidates are the leaves, all simplicial, so an include reads no
    # row; every hull vertex is the first one or steps through a cut
    # vertex already in the hull, so the hull reads none either
    search = _Search(spec_graph(spec))
    value, _ = _dual(search)
    assert value == {"path:200": 2, "star:200": 200}[spec]
    assert len(search.bet) == 0 and len(search) == 0


def test_gp_on_a_star_reads_two_rows(spec_graph):
    # every leaf extends the last optimum with no link test, and only the
    # witness decision on the centre reads rows: two interval rows and
    # two half rows
    search = _Search(spec_graph("star:200"))
    assert _gp(search) == (200, tuple(range(1, 201)))
    assert len(search.bet) == 2 and len(search) == 2


def test_gp_on_a_tree_builds_fewer_rows_than_vertices(spec_graph):
    # gp of a tree is its leaf count; the value pass takes up only the
    # leaves, the non-cut vertices, and the witness decisions only the cut
    # vertices they leave free, so some rows are never read
    G = spec_graph("random_tree:40,3")
    search = _Search(G)
    assert _gp(search)[0] == sum(G.degree(v) == 1 for v in range(G.n)) == 17
    assert len(search.bet) < G.n


@pytest.mark.parametrize(
    "spec,leaves",
    [("random_tree:100,1", 35), ("random_tree:150,3", 60), ("random_tree:200,2", 73)],
)
def test_large_trees_give_the_leaf_count_for_every_variant(spec, leaves, spec_graph):
    # on a tree all four values are the leaf count; gp used to run past
    # ten seconds on the first of these
    G = spec_graph(spec)
    assert sum(G.degree(v) == 1 for v in range(G.n)) == leaves
    certs = {variant: solve(G, variant) for variant in VARIANTS}
    assert {k: c.value for k, c in certs.items()} == dict.fromkeys(VARIANTS, leaves)
    assert is_variant_set(G, all_pairs_distances(G), certs["gp"].witness, "gp")


@pytest.mark.parametrize(
    "spec,witness",
    [
        (
            "random_connected:80,0.3,1",
            (7, 10, 13, 14, 17, 23, 37, 38, 47, 50, 51, 54, 65, 71, 79),
        ),
        (
            "random_connected:80,0.3,2",
            (21, 27, 33, 43, 44, 46, 52, 59, 60, 66, 68, 73, 77),
        ),
    ],
)
def test_outer_on_dense_strong_resolving_graphs(spec, witness, spec_graph):
    # the clique witness by prefix decisions, pinned to the answers of
    # the include-first witness search it replaced
    cert = solve(spec_graph(spec), "outer")
    assert (cert.value, tuple(cert.witness)) == (len(witness), witness)


@pytest.mark.parametrize(
    "spec,variant,value,witness",
    [
        # the conflict link of two adjacent vertices is every other vertex
        ("path:200", "gp", 2, (0, 1)),
        ("path:200", "dual", 2, (0, 1)),
        # every leaf; pairs of leaves, both simplicial, need no shadow rows
        ("star:200", "gp", 200, tuple(range(1, 201))),
        ("star:200", "dual", 200, tuple(range(1, 201))),
        # m + n - 2 for K_m x K_n, with no simplicial vertex at all
        ("cartesian:complete:4|complete:8", "gp", 10, None),
    ],
)
def test_easy_large_instances(spec, variant, value, witness, spec_graph):
    G = spec_graph(spec)
    cert = solve(G, variant)
    assert cert.value == value
    if witness is not None:
        assert tuple(cert.witness) == witness
    assert is_variant_set(G, all_pairs_distances(G), cert.witness, variant)


@pytest.mark.parametrize(
    "spec,value,witness",
    [
        ("star:200", 200, tuple(range(1, 201))),
        ("path:200", 2, (0, 199)),
        ("random_tree:500,1", None, None),
    ],
)
def test_easy_large_outer_instances(spec, value, witness, spec_graph):
    # outer on a tree is its set of leaves, the mutually maximally
    # distant clique, so the witness is compared to the leaves directly
    G = spec_graph(spec)
    leaves = tuple(v for v in range(G.n) if G.degree(v) == 1)
    cert = solve(G, "outer")
    assert (cert.value, tuple(cert.witness)) == (len(leaves), leaves)
    if value is not None:
        assert (cert.value, tuple(cert.witness)) == (value, witness)
