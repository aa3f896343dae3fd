import re
from collections import Counter
from types import SimpleNamespace

import pytest

import genpos.laws
from genpos import (
    FamilySpec,
    Graph,
    VertexSet,
    all_pairs_distances,
    check_families,
    check_products,
    check_structural,
    check_sufficient,
    generate,
    interval_masks,
    is_convex,
    product,
    random_tree,
    run_suite,
    simplicial_set,
    solve,
)
from genpos.errors import DisconnectedError, SizeError, SpecError
from genpos.laws import (
    LawReport,
    _same_family,
    _theta_length_vectors,
    chain_cycles_dual_value,
    theta_dual_vanishes,
)


def _family(text):
    G, _ = generate(FamilySpec.parse(text))
    return G


def _by_law(reports):
    out = {}
    for r in reports:
        out.setdefault(r.law, []).append(r)
    return out


STRUCTURAL_LAWS = {
    "total-sets-simplicial-subsets",
    "outer-sets-mmd-cliques",
    "dual-iff-gp-convex-complement",
    "adjacent-pair-three-way",
    "nonadjacent-pair-simplicial",
    "dual-one-forces-single-simplicial",
}


@pytest.mark.parametrize(
    "spec",
    ["path:1", "path:2", "path:6", "cycle:5", "cycle:6", "complete:4", "star:4",
     "theta:2,3,3", "gm_join:5", "chain_cycles:1,4", "complete_bipartite:2,3"],
)
def test_structural_laws_hold(spec):
    reports = check_structural(_family(spec), spec)
    assert {r.law for r in reports} == STRUCTURAL_LAWS
    failed = [r for r in reports if not r.passed]
    assert failed == []
    assert all(r.counterexample is None for r in reports)


def test_structural_laws_never_call_the_solver(monkeypatch):
    def no_solve(G, variant):
        raise AssertionError(f"solve({variant}) called")

    monkeypatch.setattr(genpos.laws, "solve", no_solve)
    for spec in genpos.laws._STRUCTURAL_SPECS:
        assert all(r.passed for r in check_structural(_family(spec), spec)), spec


def test_structural_size_cap():
    with pytest.raises(SizeError):
        check_structural(_family("path:13"))


def test_sufficient_laws_on_named_instances():
    # every edge of a long cycle is a middle edge of an isometric P4
    reports = check_sufficient(_family("cycle:8"), "cycle:8")
    by_law = _by_law(reports)
    assert by_law["all-edges-p4-inner-dual-zero"][0].passed
    assert "dual=0" in by_law["all-edges-p4-inner-dual-zero"][0].actual
    # a tree has infinite girth and leaves, so dual > 0 and min degree 1
    tree = Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    reports = check_sufficient(tree, "tree")
    by_law = _by_law(reports)
    assert by_law["girth6-dual-zero-iff-mindeg2"][0].passed


def test_sufficient_laws_solve_dual_once_and_only_when_one_applies(monkeypatch):
    calls = []

    def counted_solve(G, variant):
        calls.append(variant)
        return solve(G, variant)

    monkeypatch.setattr(genpos.laws, "solve", counted_solve)
    # cycle:8 has girth 8 and every edge inner: both laws apply
    assert all(r.passed for r in check_sufficient(_family("cycle:8")))
    assert calls == ["dual"]
    # complete:4 has girth 3 and no inner edge: both laws are vacuous
    calls.clear()
    assert all(r.passed for r in check_sufficient(_family("complete:4")))
    assert calls == []


@pytest.mark.parametrize(
    "spec,inner,girth6",
    [
        ("cycle:8", "dual=0", "girth=8, min_degree=2, dual=0"),
        ("path:4", "all_inner=False", "girth=inf, min_degree=1, dual=2"),
        ("complete:4", "all_inner=False", "girth=3"),
    ],
)
def test_sufficient_law_reports_name_their_measures(spec, inner, girth6):
    # a law whose premise fails passes and names the failed premise
    reports = check_sufficient(_family(spec), spec)
    assert [(r.law, r.passed, r.actual) for r in reports] == [
        ("all-edges-p4-inner-dual-zero", True, inner),
        ("girth6-dual-zero-iff-mindeg2", True, girth6),
    ]


def test_value_laws_build_one_distance_table_per_graph(monkeypatch):
    built = []

    def counted(G):
        built.append(G)
        return all_pairs_distances(G)

    monkeypatch.setattr(genpos.laws, "all_pairs_distances", counted)
    check_sufficient(_family("cycle:8"))
    assert len(built) == 1
    # a join row measures dual, diameter and inner_edge of one graph
    built.clear()
    reports = genpos.laws._value_reports(
        [("law", "gm_join:5", _family("gm_join:5"), "text",
          dict(dual=0, diameter=2, inner_edge=False))]
    )
    assert reports[0].passed and len(built) == 1


def test_product_value_laws_solve_each_graph_and_variant_once(monkeypatch):
    calls = []

    def counted_solve(G, variant):
        calls.append((G, variant))
        return solve(G, variant)

    monkeypatch.setattr(genpos.laws, "solve", counted_solve)
    G, H = _family("complete:3"), _family("path:3")
    assert all(r.passed for r in check_products(G, H))
    names = {"P": product(G, H, "cartesian"), "G": G, "H": H}
    solved = Counter(
        (next(name for name, A in names.items() if A == B), variant)
        for B, variant in calls
    )
    assert solved == Counter(
        [("P", "total"), ("P", "outer"), ("P", "dual"), ("G", "outer"), ("H", "outer")]
    )


def test_sufficient_size_cap():
    with pytest.raises(SizeError):
        check_sufficient(_family("cycle:19"))


@pytest.mark.parametrize(
    "a,b,dual",
    [
        ("complete:3", "complete:5", 5),
        ("complete:3", "path:3", 3),
        ("path:3", "complete:3", 3),
        ("path:3", "path:3", 0),
    ],
)
def test_product_laws_on_named_pairs(a, b, dual):
    A, B = _family(a), _family(b)
    reports = check_products(A, B, f"{a} x {b}")
    assert all(r.passed for r in reports), [r.law for r in reports if not r.passed]
    by_law = _by_law(reports)
    assert by_law["cartesian-dual-characterization"][0].actual == f"dual={dual}"


def test_srg_product_identity_failure_replays(monkeypatch):
    # with the SRG taken as the graph itself the identity compares the
    # cartesian and the direct product, whose edge sets are disjoint
    monkeypatch.setattr(genpos.laws, "strong_resolving_graph", lambda G: G)
    A, B = _family("path:3"), _family("complete:2")
    (report,) = [
        r
        for r in check_products(A, B, "path:3 x complete:2")
        if r.law == "cartesian-srg-direct-identity"
    ]
    assert not report.passed and report.actual == "edge sets differ"
    ce = report.counterexample
    P = product(A, B, "cartesian")
    assert Graph(ce["n"], [tuple(e) for e in ce["edges"]]) == P
    direct = set(product(A, B, "direct").edges())
    assert ce["only_in_product_srg"] == sorted(set(P.edges()) - direct)
    assert ce["only_in_direct"] == sorted(direct - set(P.edges()))
    assert ce["only_in_product_srg"] and ce["only_in_direct"]


def test_convex_boxes_failure_replays(monkeypatch):
    # every nonempty set is called no box, so the first convex sample the
    # law meets past the empty one disagrees
    box_of_convex = genpos.laws._box_of_convex
    monkeypatch.setattr(genpos.laws, "_box_of_convex", lambda bG, bH, nh, W: not W)
    A, B = _family("path:3"), _family("complete:2")
    (report,) = [
        r
        for r in check_products(A, B, "path:3 x complete:2")
        if r.law == "cartesian-convex-boxes"
    ]
    assert not report.passed and report.actual == "disagreement"
    ce = report.counterexample
    P = product(A, B, "cartesian")
    assert Graph(ce["n"], [tuple(e) for e in ce["edges"]]) == P
    W = VertexSet(P.n, ce["offending_set"])
    assert W and is_convex(P, all_pairs_distances(P), W)
    bet = [interval_masks(all_pairs_distances(G)) for G in (A, B)]
    assert box_of_convex(*bet, B.n, W.mask)


def test_convex_boxes_law_samples_every_box(monkeypatch):
    # a wrong sample is still a valid subset for the law, so only the
    # recorded samples show that every box of convex factor sets is tried
    seen = set()
    box_of_convex = genpos.laws._box_of_convex

    def record(betG, betH, nh, W):
        seen.add(W)
        return box_of_convex(betG, betH, nh, W)

    monkeypatch.setattr(genpos.laws, "_box_of_convex", record)
    A = B = _family("path:3")
    assert all(r.passed for r in check_products(A, B, "path:3 x path:3"))
    D = all_pairs_distances(A)
    convex = [
        list(W)
        for W in (VertexSet.from_mask(A.n, mask) for mask in range(1 << A.n))
        if is_convex(A, D, W)
    ]
    # vertex (g, h) of the product is g * n(B) + h
    boxes = {
        VertexSet(A.n * B.n, [g * B.n + h for g in a for h in b]).mask
        for a in convex
        for b in convex
    }
    assert len(boxes) == 37
    assert boxes <= seen


def test_product_laws_validate_factors():
    K1 = Graph(1, [])
    K2 = _family("complete:2")
    with pytest.raises(SpecError):
        check_products(K1, K2)
    with pytest.raises(DisconnectedError):
        check_products(Graph(2, []), K2)
    with pytest.raises(SizeError):
        check_products(_family("cycle:7"), _family("cycle:7"))


def test_family_laws_all_pass():
    reports = check_families(tree_count=10)
    failed = [(r.law, r.instance, r.actual) for r in reports if not r.passed]
    assert failed == []
    laws = {r.law for r in reports}
    assert "dual-not-hereditary-on-c5" in laws
    assert "theta-dual-zero-cases" in laws
    assert "cycle-chain-dual-values" in laws


def test_dual_value_one_implies_one_simplicial_but_not_conversely():
    # a square with a pendant has a single simplicial vertex yet dual 2
    G = _family("chain_cycles:1,4")
    assert len(simplicial_set(G)) == 1
    assert solve(G, "dual").value == 2


@pytest.mark.parametrize(
    "lengths,vanishes",
    [
        ((2, 4), True),
        ((2, 3), False),
        ((1, 4), False),
        ((1, 5, 5), True),
        ((1, 4, 4), False),
        ((2, 2, 2), True),
        ((2, 3, 4), False),
        ((2, 4, 4), True),
        ((3, 3, 3), True),
        ((3, 4, 7), True),
    ],
)
def test_theta_case_analysis_table(lengths, vanishes):
    assert theta_dual_vanishes(lengths) == vanishes
    G, _ = generate(FamilySpec("theta", lengths))
    assert (solve(G, "dual").value == 0) == vanishes


def _theta_length_vectors_reference(max_order):
    # the recursion with an explicit prefix list, a ``continue`` for a
    # second length of 1 and a ``break`` at the vertex budget
    budget = max_order - 2
    out = []

    def rec(prefix, used):
        if len(prefix) >= 2:
            out.append(tuple(prefix))
        start = prefix[-1] if prefix else 1
        for length in range(start, budget + 2):
            if len(prefix) == 1 and length < 2:
                continue
            if used + (length - 1) > budget:
                break
            prefix.append(length)
            rec(prefix, used + (length - 1))
            prefix.pop()

    rec([], 0)
    return out


def test_theta_length_vectors_match_the_reference():
    for max_order in range(21):
        vectors = _theta_length_vectors(max_order)
        assert vectors == _theta_length_vectors_reference(max_order), max_order
    assert len(_theta_length_vectors(14)) == 530
    assert len(_theta_length_vectors(19)) == 2405


def test_chain_cycles_closed_form_helper():
    assert chain_cycles_dual_value(4) == 2
    assert chain_cycles_dual_value(5) == 3
    assert all(chain_cycles_dual_value(l) == 1 for l in (6, 7, 11))


def test_law_report_serialization():
    r = LawReport("some-law", "path:3", False, "x", "y", {"n": 3, "edges": []})
    d = r.to_dict()
    assert d["law"] == "some-law" and d["passed"] is False
    assert d["counterexample"] == {"n": 3, "edges": []}
    ok = LawReport("some-law", "path:3", True, "x", "x")
    assert "counterexample" not in ok.to_dict()


def test_run_suite_grids_are_green():
    total = 0
    for suite in ("structural", "sufficient", "products", "families"):
        reports = run_suite(suite, seed=0)
        assert reports, suite
        assert all(r.passed for r in reports), suite
        total += len(reports)
    assert len(run_suite("all", seed=0)) == total
    with pytest.raises(SpecError):
        run_suite("everything")


# report counts per law at seed 0; a dropped or duplicated grid row shows here
SUITE_LAW_COUNTS = {
    "structural": dict.fromkeys(STRUCTURAL_LAWS, 70),
    "sufficient": {
        "all-edges-p4-inner-dual-zero": 29,
        "girth6-dual-zero-iff-mindeg2": 29,
    },
    "products": {
        "cartesian-total-zero": 16,
        "cartesian-outer-min": 16,
        "cartesian-dual-characterization": 16,
        "cartesian-srg-direct-identity": 16,
        "cartesian-convex-boxes": 16,
    },
    "families": {
        "path-invariants-two": 11,
        "path-variant-set-families": 11,
        "cycle-dual-values": 9,
        "theta-dual-zero-cases": 530,
        "join-two-isolated-dual-zero": 5,
        "cycle-chain-dual-values": 12,
        "block-graph-four-equal": 57,
        "bipartite-strong-product-outer": 7,
        "dual-not-hereditary-on-c5": 1,
    },
}


@pytest.mark.parametrize("suite", sorted(SUITE_LAW_COUNTS))
def test_run_suite_report_counts(suite):
    assert Counter(r.law for r in run_suite(suite, 0)) == SUITE_LAW_COUNTS[suite]


def _instance_graph(instance):
    tree = re.fullmatch(r"tree\(seed=(\d+),n=(\d+)\)", instance)
    if tree:
        return random_tree(int(tree[2]), int(tree[1]))
    strong = re.fullmatch(r"K\((\d+),(\d+)\) strong K\((\d+),(\d+)\)", instance)
    if strong:
        r1, t1, r2, t2 = strong.groups()
        A = _family(f"complete_bipartite:{r1},{t1}")
        B = _family(f"complete_bipartite:{r2},{t2}")
        return product(A, B, "strong")
    return _family(instance)


def test_same_family_names_the_lowest_differing_mask_where_allowed():
    # tables over the 8 subsets of 3 vertices: they differ at the masks
    # 0b011, 0b101 and 0b110, and ``where`` leaves out 0b011
    G = Graph(3, [(0, 1), (1, 2)])
    lhs = 1 << 0b011 | 1 << 0b101 | 1 << 0b110 | 1 << 0b111
    rhs = 1 << 0b111
    where = 0xFF & ~(1 << 0b011)
    report = _same_family("law", "path:3", G, "equal", lhs, rhs, where=where)
    assert not report.passed and report.actual == "families differ"
    assert report.counterexample["offending_set"] == [0, 2]
    assert _same_family("law", "path:3", G, "equal", lhs, rhs).counterexample[
        "offending_set"
    ] == [0, 1]
    assert _same_family("law", "path:3", G, "equal", lhs, rhs, where=rhs).passed
    # a third table: the lowest mask where either of the others differs
    # from the first, whichever of them it is
    high = rhs | 1 << 0b110
    low = rhs | 1 << 0b101
    three = _same_family("law", "path:3", G, "equal", rhs, high, low)
    assert three.counterexample["offending_set"] == [0, 2]
    three = _same_family("law", "path:3", G, "equal", rhs, rhs, high)
    assert three.counterexample["offending_set"] == [1, 2]
    assert _same_family("law", "path:3", G, "equal", rhs, rhs, rhs).passed


@pytest.mark.parametrize(
    "target,replacement,law,offending",
    [
        # {0, 1} is a dual edge of path:5, so the condition must hold there
        ("_adjacent_pair_literal", lambda G, D, x, y: False,
         "adjacent-pair-three-way", [0, 1]),
        # {0, 4}, the two ends, is the one dual non-edge of path:5
        ("simplicial_set", lambda G: VertexSet(G.n, ()),
         "nonadjacent-pair-simplicial", [0, 4]),
    ],
    ids=["adjacent", "nonadjacent"],
)
def test_pair_laws_fail_with_a_replayable_pair(
    monkeypatch, target, replacement, law, offending
):
    monkeypatch.setattr(genpos.laws, target, replacement)
    G = _family("path:5")
    (report,) = [r for r in check_structural(G, "path:5") if r.law == law]
    assert not report.passed and report.actual == "families differ"
    ce = report.counterexample
    assert ce["offending_set"] == offending
    assert Graph(ce["n"], [tuple(e) for e in ce["edges"]]) == G


def test_family_laws_fail_on_wrong_values(monkeypatch):
    def wrong_solve(G, variant):
        # 0 where the value is positive, 1 where it is 0: wrong for every law
        value = 0 if solve(G, variant).value else 1
        return SimpleNamespace(value=value, witness=VertexSet(G.n, range(value)))

    monkeypatch.setattr(genpos.laws, "solve", wrong_solve)
    reports = check_families(tree_count=2)
    # the maximum-set law reads the feasibility tables, not the solver
    value_reports = [r for r in reports if r.law != "path-variant-set-families"]
    assert len(value_reports) == len(reports) - 11
    assert not any(r.passed for r in value_reports)
    for r in value_reports:
        ce = r.counterexample
        rebuilt = Graph(ce["n"], [tuple(e) for e in ce["edges"]])
        assert rebuilt == _instance_graph(r.instance), r.instance
