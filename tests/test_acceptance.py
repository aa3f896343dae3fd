"""Acceptance criteria for the whole package.

Twelve checks, each printing one PASS line (visible with -s; pytest -v
shows one PASSED/FAILED row per criterion either way).  All values are
integers and compared exactly; every check also asserts its wall-clock
budget, with wide margins at desk scale.
"""

import itertools
import time

import pytest

from genpos import (
    VARIANTS,
    FamilySpec,
    VertexSet,
    all_pairs_distances,
    brute_force,
    check_dual_not_hereditary,
    generate,
    interval_masks,
    is_convex,
    is_variant_set,
    maximum_clique,
    product,
    random_tree,
    simplicial_set,
    solve,
    strong_resolving_graph,
    variant_feasibility,
)
from genpos.graphs import bits
from genpos.laws import _theta_length_vectors, theta_dual_vanishes
from genpos.position import _levels


def _family(text):
    G, _ = generate(FamilySpec.parse(text))
    return G


def _report(number, elapsed, budget, text):
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"PASS criterion {number}: {text} ({elapsed:.2f}s)")


def _max_sets(feas, n):
    levels = _levels(n)
    best = max(k for k, level in enumerate(levels) if feas & level)
    return best, {
        frozenset(v for v in range(n) if mask >> v & 1)
        for mask in bits(feas & levels[best])
    }


def test_criterion_01_path_facts():
    start = time.perf_counter()
    for n in range(2, 13):
        P = _family(f"path:{n}")
        for variant in VARIANTS:
            assert solve(P, variant).value == 2, (n, variant)
        feas = variant_feasibility(all_pairs_distances(P), "dual")
        best, tops = _max_sets(feas, n)
        assert best == 2
        assert tops == {
            frozenset({0, 1}),
            frozenset({0, n - 1}),
            frozenset({n - 2, n - 1}),
        }, n
    _report(1, time.perf_counter() - start, 1.0,
            "paths have all four invariants 2 and exactly the three known dual sets")


def test_criterion_02_total_characterization(corpus):
    start = time.perf_counter()
    for G in corpus:
        D = all_pairs_distances(G)
        n = G.n
        simp = simplicial_set(G)
        expected = sum(1 << mask for mask in range(1 << n) if not mask & ~simp.mask)
        assert variant_feasibility(D, "total") == expected
        assert solve(G, "total").value == len(simp)
    _report(2, time.perf_counter() - start, 30.0,
            "total sets are exactly the subsets of the simplicial vertices on "
            f"{len(corpus)} random graphs")


def test_criterion_03_outer_characterization(corpus):
    start = time.perf_counter()
    for G in corpus:
        cert = solve(G, "outer")
        assert cert.value == maximum_clique(strong_resolving_graph(G))[0]
        assert cert.value == brute_force(G, "outer").value
        assert solve(G, "gp").value >= cert.value >= 2
    _report(3, time.perf_counter() - start, 30.0,
            "outer value equals the SRG clique number and the exhaustive oracle")


def test_criterion_04_dual_characterization(corpus):
    start = time.perf_counter()
    for G in corpus:
        D = all_pairs_distances(G)
        n = G.n
        bet = interval_masks(D)
        convex_co = 0
        for mask in range(1 << n):
            out = [u for u in range(n) if not mask >> u & 1]
            if not any(bet[u][v] & mask for u, v in itertools.combinations(out, 2)):
                convex_co |= 1 << mask
        dual = variant_feasibility(D, "dual")
        assert dual == variant_feasibility(D, "gp") & convex_co
        # spot-check the table against the one-subset predicates
        for mask in range(0, 1 << n, max(1, (1 << n) // 32)):
            X = VertexSet.from_mask(n, mask)
            lhs = is_variant_set(G, D, X, "dual")
            rhs = is_variant_set(G, D, X, "gp") and is_convex(G, D, X.complement())
            assert lhs == rhs == bool(dual >> mask & 1)
    _report(4, time.perf_counter() - start, 60.0,
            "a set is dual exactly when it is a gp set with convex complement, "
            "for every subset of every corpus graph")


def test_criterion_05_theta_dual_cases():
    start = time.perf_counter()
    for lengths in _theta_length_vectors(14):
        T, _ = generate(FamilySpec("theta", lengths))
        value = solve(T, "dual").value
        assert (value == 0) == theta_dual_vanishes(lengths), lengths
    assert solve(_family("theta:2,2,2"), "dual").value == 0
    assert solve(_family("theta:1,2,2"), "dual").value >= 1
    assert solve(_family("cycle:4"), "dual").value == 2
    assert solve(_family("cycle:5"), "dual").value == 2
    for n in range(6, 13):
        assert solve(_family(f"cycle:{n}"), "dual").value == 0, n
    _report(5, time.perf_counter() - start, 30.0,
            "generalized theta graphs lose all dual sets exactly in the four "
            "listed cases")


def test_criterion_06_path_join_two_points():
    start = time.perf_counter()
    for m in range(5, 10):
        assert solve(_family(f"gm_join:{m}"), "dual").value == 0, m
    for m in (3, 4):
        G = _family(f"gm_join:{m}")
        assert solve(G, "dual").value == brute_force(G, "dual").value, m
    _report(6, time.perf_counter() - start, 10.0,
            "joining a path with two isolated vertices kills the dual invariant "
            "from length 5 on")


def test_criterion_07_cycle_chains():
    start = time.perf_counter()
    expected = {4: 2, 5: 3, 6: 1, 7: 1}
    for k in (1, 2, 3):
        for length, value in expected.items():
            G = _family(f"chain_cycles:{k},{length}")
            assert solve(G, "dual").value == value, (k, length)
    _report(7, time.perf_counter() - start, 60.0,
            "chains of cycles with a pendant have dual value 2, 3, 1 for cycle "
            "lengths 4, 5, >= 6")


_FACTORS = ("path:2", "path:3", "path:4", "cycle:4", "cycle:5",
            "complete:3", "complete:4")


def test_criterion_08_cartesian_products():
    start = time.perf_counter()
    for a, b in itertools.combinations_with_replacement(_FACTORS, 2):
        A, B = _family(a), _family(b)
        if A.n * B.n > 36:
            continue
        P = product(A, B, "cartesian")
        assert solve(P, "total").value == 0, (a, b)
        assert solve(P, "outer").value == min(
            solve(A, "outer").value, solve(B, "outer").value
        ), (a, b)
    for n, m in itertools.product(range(2, 6), repeat=2):
        P = product(_family(f"complete:{n}"), _family(f"complete:{m}"), "cartesian")
        assert solve(P, "dual").value == max(n, m), (n, m)
        assert solve(P, "gp").value == n + m - 2, (n, m)
    assert solve(product(_family("complete:3"), _family("path:3"), "cartesian"),
                 "dual").value == 3
    assert solve(product(_family("path:3"), _family("path:3"), "cartesian"),
                 "dual").value == 0
    K3K6 = product(_family("complete:3"), _family("complete:6"), "cartesian")
    quad = tuple(solve(K3K6, v).value for v in ("gp", "dual", "outer", "total"))
    assert quad == (7, 6, 3, 0)
    _report(8, time.perf_counter() - start, 60.0,
            "box products: total 0, outer is the factor minimum, complete-factor "
            "dual and gp values all exact")


def test_criterion_09_srg_product_identity():
    start = time.perf_counter()
    for a, b in itertools.combinations_with_replacement(_FACTORS, 2):
        A, B = _family(a), _family(b)
        if A.n * B.n > 36:
            continue
        lhs = strong_resolving_graph(product(A, B, "cartesian"))
        rhs = product(
            strong_resolving_graph(A), strong_resolving_graph(B), "direct"
        )
        assert set(lhs.edges()) == set(rhs.edges()), (a, b)
    _report(9, time.perf_counter() - start, 10.0,
            "the SRG of a box product is the direct product of the factor SRGs")


def test_criterion_10_trees():
    start = time.perf_counter()
    for i in range(50):
        n = 2 + i % 11
        T = random_tree(n, 1000 + i)
        leaves = sum(1 for v in range(n) if T.degree(v) == 1)
        for variant in VARIANTS:
            assert solve(T, variant).value == leaves, (i, variant)
    _report(10, time.perf_counter() - start, 10.0,
            "on 50 random trees all four invariants count the leaves")


def test_criterion_11_strong_product_outer():
    start = time.perf_counter()
    for r1, t1, r2, t2 in ((2, 1, 2, 1), (3, 2, 2, 1), (3, 1, 3, 2)):
        A = _family(f"complete_bipartite:{r1},{t1}")
        B = _family(f"complete_bipartite:{r2},{t2}")
        S = product(A, B, "strong")
        assert solve(S, "outer").value == r1 * r2, (r1, t1, r2, t2)
    _report(11, time.perf_counter() - start, 10.0,
            "strong products of complete bipartite graphs hit the outer value "
            "r1*r2")


def test_criterion_12_non_heredity_report():
    start = time.perf_counter()
    report = check_dual_not_hereditary()
    assert report.passed
    assert report.law == "dual-not-hereditary-on-c5"
    # the exhibit is replayable from the report text alone
    assert "witness=" in report.actual and "singleton dual: False" in report.actual
    _report(12, time.perf_counter() - start, 1.0,
            "the five-cycle carries a dual pair with a non-dual singleton subset, "
            "recorded in a law report")
