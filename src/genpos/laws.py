"""Machine-checkable laws tying the four invariants together.

Each check evaluates one statement on one instance and returns a
LawReport.  The structural laws read only subset tables of a small
graph: all but the last compare tables, the pair laws on tables of
2-subsets, and the last reads the dual value off the dual table.  Every
value law (family, sufficient-condition, product) is a row of expected
values that one loop, ``_value_reports``, measures and reports.  Every
failing report carries a replayable payload: the vertex count and edge
list of the graph, and the offending sets.  A family of subsets is a
table over all 2**n subset masks, one Python int with bit X set iff the
subset with bitmask X is in the family.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import combinations
from operator import or_

from .errors import SizeError, SpecError
from .families import FamilySpec, generate, product, random_connected, random_tree
from .graphs import Graph, VertexSet, _is_clique, _require_connected, bits
from .metric import (
    DistMatrix,
    all_pairs_distances,
    girth,
    interval_masks,
    is_p4_inner_isometric,
    simplicial_set,
)
from .position import (
    VARIANTS,
    _largest,
    _levels,
    _meets,
    _membership,
    _pair_tables,
    is_variant_set,
    solve,
)
from .srg import strong_resolving_graph


@dataclass
class LawReport:
    """Outcome of one law on one instance."""

    law: str
    instance: str
    passed: bool
    expected: str
    actual: str
    counterexample: dict | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.counterexample is None:
            del out["counterexample"]
        return out


def _payload(G: Graph, **sets) -> dict:
    data = {"n": G.n, "edges": [list(e) for e in G.edges()]}
    for name, value in sets.items():
        data[name] = sorted(value)
    return data


def _report(law, instance, ok, expected, actual, G: Graph, **sets) -> LawReport:
    """A report whose counterexample, on failure, replays G with the sets."""
    return LawReport(
        law, instance, ok, expected, actual, None if ok else _payload(G, **sets)
    )


def _same_family(law, instance, G, expected, first, *others, where=-1, **sets):
    """Compare tables over all subset masks of G, each of ``others`` with
    ``first``, restricted to the table ``where`` (-1 allows every mask);
    on failure the payload names the lowest mask where any differs."""
    differ = reduce(or_, (first ^ other for other in others), 0) & where
    ok = not differ
    actual = "families equal" if ok else "families differ"
    bad = (differ & -differ).bit_length() - 1 if differ else 0
    return _report(
        law, instance, ok, expected, actual, G, offending_set=bits(bad), **sets
    )


# ---------------------------------------------------------------- value laws


def _measure(G: Graph, key: str, memo: dict):
    """One observed quantity of G: a variant's value, ``diameter``,
    ``girth``, ``min_degree``, ``inner_edge`` (some edge is the middle of
    an isometric P4), ``all_inner`` (G has edges and every one is) or
    ``maximum_sets``.  ``memo`` keeps G's distance table between keys."""
    if key in VARIANTS:
        return solve(G, key).value
    if key == "min_degree":
        return min(map(len, G.adj), default=0)
    if "distances" not in memo:
        memo["distances"] = all_pairs_distances(G)
    D = memo["distances"]
    if key == "diameter":
        return D.diameter
    if key == "girth":
        return girth(G, D)
    if key == "inner_edge":
        return any(is_p4_inner_isometric(G, D, x, y) for x, y in G.edges())
    if key == "all_inner":
        return G.m > 0 and all(is_p4_inner_isometric(G, D, x, y) for x, y in G.edges())
    # maximum_sets: per variant, the maximum size and the sets of that size
    member, levels = _membership(G.n), _levels(G.n)
    found = {}
    for variant, table in _pair_tables(D, member, *VARIANTS).items():
        best, tops = _largest(table, levels)
        found[variant] = (best, {frozenset(bits(mask)) for mask in bits(tops)})
    return found


def _shown(actual: dict, ok: bool) -> str:
    """The report's actual text: all four values print as one dict."""
    if "maximum_sets" in actual:
        return "families as expected" if ok else str(actual["maximum_sets"])
    if tuple(actual) == VARIANTS:
        return str(actual)
    return ", ".join([f"{key}={value}" for key, value in actual.items()])


def _value_reports(rows) -> list[LawReport]:
    """One report per row (law, instance, graph, expected text, expected).

    ``expected`` maps each key that ``_measure`` observes to its expected
    value, and a range accepts any of its members.  It may instead be a
    function that builds that map from ``look``, which measures a key of
    the row's graph, so that a premise decides what is measured.
    Consecutive rows of one graph measure each key once.
    """
    reports, graph, memo = [], None, {}

    def look(key):
        if key not in memo:
            memo[key] = _measure(graph, key, memo)
        return memo[key]

    for law, instance, G, text, expected in rows:
        if G is not graph:
            graph = G
            memo.clear()
        if callable(expected):
            expected = expected(look)
        actual, ok = {}, True
        for key, want in expected.items():
            value = actual[key] = look(key)
            ok = ok and (value in want if isinstance(want, range) else value == want)
        reports.append(_report(law, instance, ok, text, _shown(actual, ok), G))
    return reports


# ---------------------------------------------------------------- structural


def check_structural(G: Graph, name: str | None = None) -> list[LawReport]:
    """Exhaustive per-subset laws on one connected graph with n <= 12.

    Covers: total sets are exactly the subsets of the simplicial set;
    outer sets of size >= 2 are exactly the cliques of the strong
    resolving graph; dual sets are exactly the gp sets with convex
    complement; the three-way equivalence for adjacent pairs; the
    simplicial characterization for nonadjacent pairs; and value 1 of the
    dual invariant forcing a unique simplicial vertex.  All but the last
    compare subset tables, the pair laws on the tables of 2-subsets; the
    last reads the dual value off the dual table, so no solver runs.
    """
    if G.n > 12:
        raise SizeError(f"structural checks capped at n <= 12, got {G.n}")
    D = all_pairs_distances(G)
    n = G.n
    name = name or f"graph(n={G.n},m={G.m})"
    full = (1 << n) - 1
    every = (1 << (1 << n)) - 1
    member = _membership(n)
    fam = _pair_tables(D, member, *VARIANTS, "convex complement")

    simp = simplicial_set(G)
    R = strong_resolving_graph(G)
    outside = _meets(member, full & ~simp.mask)
    # apart: the subsets holding a pair that is not mutually maximally
    # distant; edges, literal and others: tables of 2-subsets
    apart = edges = literal = others = 0
    for u, v in combinations(range(n), 2):
        if not R.has_edge(u, v):
            apart |= member[u] & member[v]
        pair = 1 << (1 << u | 1 << v)
        if not G.has_edge(u, v):
            others |= pair
        else:
            edges |= pair
            if _adjacent_pair_literal(G, D, u, v):
                literal |= pair
    levels = _levels(n)
    reports = [
        _same_family(
            "total-sets-simplicial-subsets", name, G,
            "total sets == subsets of the simplicial set",
            fam["total"], every & ~outside, simplicial=simp,
        ),
        _same_family(
            "outer-sets-mmd-cliques", name, G,
            "outer sets of size >= 2 == mutually-maximally-distant cliques",
            fam["outer"], every & ~apart, where=every & ~(levels[0] | levels[1]),
        ),
        _same_family(
            "dual-iff-gp-convex-complement", name, G,
            "dual sets == gp sets with convex complement",
            fam["dual"], fam["gp"] & fam["convex complement"],
        ),
        _same_family(
            "adjacent-pair-three-way", name, G,
            "adjacent {x,y}: dual iff complement convex iff neighborhood condition",
            fam["dual"], fam["convex complement"], literal, where=edges,
        ),
        _same_family(
            "nonadjacent-pair-simplicial", name, G,
            "nonadjacent {x,y} dual iff both vertices simplicial",
            fam["dual"], every & ~outside, where=others,
        ),
    ]

    dual_value = _largest(fam["dual"], levels)[0]
    ok = dual_value != 1 or len(simp) == 1
    reports.append(
        _report(
            "dual-one-forces-single-simplicial", name, ok,
            "dual value 1 implies exactly one simplicial vertex",
            f"dual={dual_value}, simplicial={len(simp)}",
            G, simplicial=simp,
        )
    )
    return reports


def _adjacent_pair_literal(G: Graph, D: DistMatrix, x: int, y: int) -> bool:
    """Neighborhood condition for an adjacent pair {x,y}:

    every two vertices of N(x) united with N(y) are at distance <= 2, and
    both N(x) minus y and N(y) minus x induce complete graphs.
    """
    union = sorted(set(G.adj[x]) | set(G.adj[y]))
    d = D.d
    for i, u in enumerate(union):
        du = d[u]
        for v in union[i + 1 :]:
            if du[v] > 2:
                return False
    nbr = G.neighbor_masks
    return _is_clique(nbr, nbr[x] & ~(1 << y)) and _is_clique(nbr, nbr[y] & ~(1 << x))


# ---------------------------------------------------------------- sufficient


def check_sufficient(G: Graph, name: str | None = None) -> list[LawReport]:
    """Sufficient conditions for a vanishing dual invariant, n <= 18.

    If every edge is the middle edge of an isometric 4-vertex path the
    dual invariant is 0; and for girth >= 6 (a forest counts) the dual
    invariant is 0 exactly when the minimum degree is at least 2.
    """
    if G.n > 18:
        raise SizeError(f"sufficient-condition checks capped at n <= 18, got {G.n}")
    name = name or f"graph(n={G.n},m={G.m})"

    # where a premise fails, the law expects only the failed premise, so
    # it holds vacuously and the dual invariant is not solved for it
    def all_inner(look):
        return dict(dual=0) if look("all_inner") else dict(all_inner=False)

    def girth6(look):
        g = look("girth")
        if g < 6:
            return dict(girth=g)
        low = look("min_degree")
        dual = 0 if low >= 2 else range(1, G.n + 1)
        return dict(girth=g, min_degree=low, dual=dual)

    return _value_reports([
        ("all-edges-p4-inner-dual-zero", name, G,
         "every edge on an isometric P4 middle implies dual 0", all_inner),
        ("girth6-dual-zero-iff-mindeg2", name, G,
         "girth >= 6: dual 0 iff minimum degree >= 2", girth6),
    ])


# ------------------------------------------------------------------ products


def _is_convex_mask(bet, mask: int) -> bool:
    """W is convex iff no interval between two members leaves W: O(|W|^2)
    ORs over an interval_masks table."""
    members = list(bits(mask))
    for u in members:
        row = bet[u]
        for w in members:
            if row[w] & ~mask:
                return False
    return True


def _box_of_convex(betG, betH, nh: int, W_mask: int) -> bool:
    """Is W a product A x B of convex factor sets (empty W counts)?"""
    A = 0
    B = 0
    for idx in bits(W_mask):
        g, h = divmod(idx, nh)
        A |= 1 << g
        B |= 1 << h
    # the cells of W are distinct pairs in A x B, so W is the whole box
    # iff it has as many
    if W_mask.bit_count() != A.bit_count() * B.bit_count():
        return False
    return _is_convex_mask(betG, A) and _is_convex_mask(betH, B)


def check_products(G: Graph, H: Graph, name: str | None = None) -> list[LawReport]:
    """Cartesian product laws for connected factors of order >= 2.

    Total invariant vanishes; outer invariant is the minimum over the
    factors; the dual invariant is positive exactly when one factor is
    complete and the other has a simplicial vertex (with the known
    values); the strong resolving graph of the product is the direct
    product of the factor strong resolving graphs, as an edge-set
    identity; and convex sets of the product are exactly boxes of convex
    factor sets (checked on sampled subsets).
    """
    if G.n < 2 or H.n < 2:
        raise SpecError("product laws need both factors of order >= 2")
    _require_connected(G, "each product factor")
    _require_connected(H, "each product factor")
    if G.n * H.n > 36:
        raise SizeError(f"product checks capped at order 36, got {G.n * H.n}")
    name = name or f"product({G.n} x {H.n})"
    P = product(G, H, "cartesian")
    expected_outer = min(solve(G, "outer").value, solve(H, "outer").value)
    # dual is the largest order of a complete factor whose partner has a
    # simplicial vertex, and 0 without one
    expected_dual = max(
        (
            A.n
            for A, B in ((G, H), (H, G))
            if _is_clique(A.neighbor_masks, (1 << A.n) - 1) and len(simplicial_set(B))
        ),
        default=0,
    )
    reports = _value_reports([
        ("cartesian-total-zero", name, P,
         "total invariant of a product is 0", dict(total=0)),
        ("cartesian-outer-min", name, P,
         f"outer == min over factors == {expected_outer}", dict(outer=expected_outer)),
        ("cartesian-dual-characterization", name, P,
         "dual positive iff complete factor with simplicial partner; "
         f"value {expected_dual}", dict(dual=expected_dual)),
    ])

    in_product = set(strong_resolving_graph(P).edges())
    direct = product(strong_resolving_graph(G), strong_resolving_graph(H), "direct")
    in_direct = set(direct.edges())
    ok = in_product == in_direct
    reports.append(
        _report(
            "cartesian-srg-direct-identity", name, ok,
            "SRG of product == direct product of factor SRGs (edge sets)",
            "edge sets equal" if ok else "edge sets differ", P,
            only_in_product_srg=in_product - in_direct,
            only_in_direct=in_direct - in_product,
        )
    )

    betP = interval_masks(all_pairs_distances(P))
    betG = interval_masks(all_pairs_distances(G))
    betH = interval_masks(all_pairs_distances(H))
    samples = set()
    if G.n <= 12 and H.n <= 12:
        convex_g = [m for m in range(1 << G.n) if _is_convex_mask(betG, m)]
        convex_h = [m for m in range(1 << H.n) if _is_convex_mask(betH, m)]
        rng = random.Random(G.n * 1009 + H.n)
        boxes = [(a, b) for a in convex_g for b in convex_h]
        if len(boxes) > 300:
            boxes = rng.sample(boxes, 300)
        for a, b in boxes:
            samples.add(sum(b << g * H.n for g in bits(a)))
    rng = random.Random(G.n * 7919 + H.n)
    for _ in range(200):
        samples.add(rng.randrange(1 << P.n))
    bad = None
    for mask in samples:
        lhs = _is_convex_mask(betP, mask)
        rhs = _box_of_convex(betG, betH, H.n, mask)
        if lhs != rhs:
            bad = mask
            break
    reports.append(
        _report(
            "cartesian-convex-boxes", name, bad is None,
            "convex in product iff box of convex factor sets (sampled)",
            f"{len(samples)} subsets agree" if bad is None else "disagreement", P,
            offending_set=bits(bad or 0),
        )
    )
    return reports


# ------------------------------------------------------------------ families


def _theta_length_vectors(max_order: int):
    """All valid theta length vectors with total order <= max_order, in
    lexicographic order of their nondecreasing lengths."""

    def extend(prefix: tuple, room: int):
        if len(prefix) >= 2:
            yield prefix
        # only the first length may be 1, and a path of length l adds
        # l - 1 vertices to the two ends, at most ``room`` of them
        for length in range(max(prefix[-1], 2) if prefix else 1, room + 2):
            yield from extend(prefix + (length,), room - (length - 1))

    return list(extend((), max_order - 2))


def theta_dual_vanishes(lengths) -> bool:
    """Case analysis: which theta graphs have dual invariant 0."""
    k = len(lengths)
    if k == 2:
        return lengths[0] + lengths[1] >= 6
    if lengths[0] == 1:
        return lengths[1] >= 5
    if lengths[0] == 2:
        return all(length != 3 for length in lengths[1:])
    return True


def chain_cycles_dual_value(length: int) -> int:
    """Expected dual invariant of a chain of cycles with a pendant."""
    if length == 4:
        return 2
    if length == 5:
        return 3
    return 1


def _family(spec: str) -> Graph:
    return generate(FamilySpec.parse(spec))[0]


_TREE_SEED = 0  # seed of the family suite's first random tree


def _family_rows(tree_count: int):
    """Yield the rows of ``_value_reports`` for the family laws, one at a
    time, so only one graph is alive at once."""
    for n in range(2, 13):
        P = _family(f"path:{n}")
        text = "gp = total = outer = dual = 2"
        yield "path-invariants-two", f"path:{n}", P, text, dict.fromkeys(VARIANTS, 2)
        text = (
            "maximum sets: all pairs / both ends / both ends / two ends or an end edge"
        )
        ends = {frozenset((0, n - 1))}
        sets = {
            "gp": (2, {frozenset(pair) for pair in combinations(range(n), 2)}),
            "total": (2, ends),
            "outer": (2, ends),
            "dual": (2, ends | {frozenset((0, 1)), frozenset((n - 2, n - 1))}),
        }
        yield "path-variant-set-families", f"path:{n}", P, text, dict(maximum_sets=sets)
    for n in range(4, 13):
        value = 2 if n in (4, 5) else 0
        G = _family(f"cycle:{n}")
        yield "cycle-dual-values", f"cycle:{n}", G, f"dual = {value}", dict(dual=value)
    for lengths in _theta_length_vectors(14):
        spec = str(FamilySpec("theta", lengths))
        G = _family(spec)
        zero = theta_dual_vanishes(lengths)
        text = "dual vanishes exactly in the four listed cases" + (
            " (expected 0)" if zero else " (expected > 0)"
        )
        dual = 0 if zero else range(1, G.n + 1)
        yield "theta-dual-zero-cases", spec, G, text, dict(dual=dual)
    for m in range(5, 10):
        G = _family(f"gm_join:{m}")
        text = "diameter 2, no edge on an isometric P4 middle, dual = 0"
        expected = dict(dual=0, diameter=2, inner_edge=False)
        yield "join-two-isolated-dual-zero", f"gm_join:{m}", G, text, expected
    for k in (1, 2, 3):
        for length in (4, 5, 6, 7):
            spec = f"chain_cycles:{k},{length}"
            value = chain_cycles_dual_value(length)
            text = f"dual = {value}"
            yield "cycle-chain-dual-values", spec, _family(spec), text, dict(dual=value)
    for i in range(tree_count):
        n = 2 + (i % 11)
        G = random_tree(n, _TREE_SEED + i)
        leaves = sum(1 for v in range(n) if G.degree(v) == 1)
        instance = f"tree(seed={_TREE_SEED + i},n={n})"
        text = f"all four equal leaf count {leaves}"
        expected = dict.fromkeys(VARIANTS, leaves)
        yield "block-graph-four-equal", instance, G, text, expected
    for n in range(2, 9):
        G = _family(f"complete:{n}")
        text = f"all four equal {n}"
        expected = dict.fromkeys(VARIANTS, n)
        yield "block-graph-four-equal", f"complete:{n}", G, text, expected
    # sides r >= t >= 1 and order >= 3; a K2 factor makes the product
    # complete-ish and the clique formula below does not apply
    for r1, t1, r2, t2 in (
        (2, 1, 2, 1),
        (2, 2, 2, 1),
        (3, 2, 2, 1),
        (3, 1, 3, 2),
        (3, 3, 2, 1),
        (4, 1, 2, 1),
        (4, 2, 2, 2),
    ):
        A = _family(f"complete_bipartite:{r1},{t1}")
        B = _family(f"complete_bipartite:{r2},{t2}")
        S = product(A, B, "strong")
        # gp has the same value; it is checked where its search stays cheap
        checked = ("outer", "gp") if S.n <= 15 else ("outer",)
        instance = f"K({r1},{t1}) strong K({r2},{t2})"
        text = f"outer = {r1 * r2}"
        expected = dict.fromkeys(checked, r1 * r2)
        yield "bipartite-strong-product-outer", instance, S, text, expected


def check_families(tree_count: int = 50) -> list[LawReport]:
    """Closed-form expectations on the named families.

    Paths, cycles, theta graphs, joins of a path with two isolated
    vertices, chains of cycles, block graphs (trees and complete graphs),
    and outer values of strong products of complete bipartite graphs.
    """
    reports = _value_reports(_family_rows(tree_count))
    reports.append(check_dual_not_hereditary())
    return reports


def check_dual_not_hereditary() -> LawReport:
    """The five-cycle exhibit: a dual pair whose singletons are not dual."""
    C5 = _family("cycle:5")
    cert = solve(C5, "dual")
    D5 = all_pairs_distances(C5)
    pair = tuple(cert.witness)
    singles_not_dual = all(
        not is_variant_set(C5, D5, VertexSet(5, (x,)), "dual") for x in pair
    )
    ok = (
        cert.value == 2
        and len(pair) == 2
        and C5.has_edge(*pair)
        and singles_not_dual
    )
    return _report(
        "dual-not-hereditary-on-c5", "cycle:5", ok,
        "an adjacent dual pair whose singletons are not dual",
        f"dual={cert.value}, witness={sorted(pair)}, "
        f"singleton dual: {not singles_not_dual}", C5,
        dual_pair=pair,
    )


# -------------------------------------------------------------------- suites


_STRUCTURAL_SPECS = (
    "path:5", "cycle:4", "cycle:5", "cycle:6", "complete:4", "complete_bipartite:2,3",
    "star:4", "gm_join:5", "theta:2,2,3", "chain_cycles:2,4",
)
_SUFFICIENT_SPECS = (
    [f"cycle:{n}" for n in range(6, 13)]
    + [f"gm_join:{m}" for m in range(5, 10)]
    + ["chain_cycles:1,6", "chain_cycles:2,6", "chain_cycles:1,7", "chain_cycles:2,7"]
    + ["theta:3,3,3", "theta:2,4,4", "theta:3,4,5"]
)
_PRODUCT_PAIRS = [
    (f"complete:{a}", f"complete:{b}") for a in range(2, 6) for b in range(a, 6)
] + [
    ("complete:3", "path:3"),
    ("path:3", "path:3"),
    ("complete:3", "complete:6"),
    ("complete:2", "path:4"),
    ("complete:3", "cycle:4"),
    ("path:3", "cycle:5"),
]


SUITES = ("structural", "sufficient", "products", "families")


def run_suite(suite: str, seed: int = 0) -> list[LawReport]:
    """Assemble the default instance grid for one suite and run it.

    Suites: each name in ``SUITES``, or all, which runs them in turn.
    The seed offsets the random instances of the structural and
    sufficient grids; family grids are fixed.
    """
    reports = []
    if suite == "all":
        for name in SUITES:
            reports += run_suite(name, seed)
    elif suite == "structural":
        for spec in _STRUCTURAL_SPECS:
            reports += check_structural(_family(spec), spec)
        for i in range(60):
            G = random_connected(8, 0.35, seed * 1000 + i)
            reports += check_structural(G, f"random(n=8,p=0.35,seed={seed * 1000 + i})")
    elif suite == "sufficient":
        for spec in _SUFFICIENT_SPECS:
            reports += check_sufficient(_family(spec), spec)
        for i in range(10):
            T = random_tree(3 + (i % 9), seed * 500 + i)
            reports += check_sufficient(T, f"tree(seed={seed * 500 + i})")
    elif suite == "products":
        for left, right in _PRODUCT_PAIRS:
            G, H = _family(left), _family(right)
            reports += check_products(G, H, f"{left} x {right}")
    elif suite == "families":
        reports = check_families()
    else:
        raise SpecError(f"unknown suite {suite!r}")
    return reports
