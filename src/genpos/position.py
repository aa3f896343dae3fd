"""General position variants: predicates, exact solvers, exhaustive oracles.

A pair u, v is X-positionable when no member of X other than u, v lies on
a shortest u,v-path.  The four variants quantify that condition over
different pair sets:

    gp     pairs inside X
    total  all pairs of the graph
    outer  pairs meeting X
    dual   pairs inside X and pairs inside the complement of X

``solve`` produces certificates by the cheapest exact route per variant;
``brute_force`` is the independent definition-level oracle that simply
tries every subset.  Diagonal pairs u = u are excluded throughout, the
empty set satisfies every variant, and a value of 0 for the dual variant
means no nonempty dual set exists.

Everything works on Python ints as bitmasks.  The oracle's table over
all 2**n subsets is one int too, with bit X set iff the subset with
bitmask X qualifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import or_

from .errors import SizeError
from .graphs import (
    Graph,
    VertexSet,
    _is_clique,
    _lex_least,
    _maximum_clique,
    _require_connected,
    bits,
    cut_components,
)
from .metric import DistMatrix, all_pairs_distances, interval_masks, simplicial_set
from .srg import _strong_resolving_rows

VARIANTS = ("gp", "total", "outer", "dual")

_FEASIBILITY_CAP = 20  # 2**20 masks; beyond this the table does not fit sanely


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


@dataclass(frozen=True)
class Certificate:
    """Solver answer: variant, optimal value, witness set, method tag."""

    variant: str
    value: int
    witness: VertexSet
    method: str

    def __post_init__(self):
        _check_variant(self.variant)
        if len(self.witness) != self.value:
            raise ValueError("witness cardinality must equal the value")


def is_variant_set(G: Graph, D: DistMatrix, X: VertexSet, variant: str) -> bool:
    """Definition-level check that X satisfies the given variant.

    X may be empty; every variant holds vacuously then (for dual the
    complement pairs still get checked, and pass because X blocks
    nothing).

    One loop over the pairs the variant names, on the distances ``D.d``
    alone: for each vertex u, the partners v that u must keep unblocked,
    which the oracle's rule table ``_PAIR_RULES`` gives, each pair once
    from its lower end, are tested against the members y of X besides u
    and v with ``d[u][y] + d[y][v] == d[u][v]``.  An edge has nothing
    between its ends, and a simplicial vertex lies inside no geodesic, so
    it blocks no pair; only the members that are not simplicial are
    tested, and the simplicial set is found once, up front.  Cost
    O(n**2) per member that is not simplicial.
    """
    _check_variant(variant)
    if X.n != G.n or D.n != G.n:
        raise ValueError("vertex set or distance matrix does not match the graph")
    n, nbr, d = G.n, G.neighbor_masks, D.d
    x = X.mask
    full = (1 << n) - 1
    inner = x & ~simplicial_set(G).mask  # the members that can block a pair
    rule = _PAIR_RULES[variant]
    for u in range(n):
        bit = 1 << u
        partners = rule(-(x >> u & 1), x) & full & ~((bit << 1) - 1) & ~nbr[u]
        others = inner & ~bit
        if not (partners and others):
            continue
        du = d[u]
        for v in bits(partners):
            for y in bits(others & ~(1 << v)):
                if du[y] + d[y][v] == du[v]:
                    return False
    return True


class _Intervals(dict):
    """The rows of ``metric.interval_masks`` for a connected graph, each
    built on first read: ``self[a][v]`` holds w iff w lies strictly
    between a and v.  ``bfs[a]`` keeps the BFS behind row a in the shape
    ``graphs._bfs`` returns: the distances from a, and the vertices in
    the order the search reached them.  Each row keeps that order for
    the shadow pass of ``_Search``, which walks it backwards.

    Row a takes one BFS from a, which fills the row as it goes, by the
    recurrence of ``interval_masks``: a vertex v is scanned only after
    every vertex closer to a, so its neighbours one step closer already
    have their entries, and the interior of I(a, v) is the OR of those
    neighbours and their interiors.  O(n + m) per row, and a solve
    builds only the rows its search reads.
    """

    def __init__(self, adj):
        self.adj = adj
        self.bfs = {}

    def __missing__(self, a: int) -> list:
        adj = self.adj
        dist = [-1] * len(adj)
        dist[a] = 0
        row = [0] * len(adj)
        order = [a]
        for v in order:  # the BFS queue, appended to as it is read
            up = dist[v] - 1
            r = 0
            for w in adj[v]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = up + 2
                    order.append(w)
                elif dw == up and up:  # a is no interior
                    r |= row[w] | 1 << w
            row[v] = r
        self.bfs[a] = dist, order
        self[a] = row
        return row


class _Search(dict):
    """Every table a gp or dual solve of G reads, each built once:
    ``bet``, the interval table, whose rows are built on first read
    (``_Intervals``), the ``simplicial`` mask, ``parts`` (from
    ``graphs.cut_components``), ``cuts``, their mask, and ``full``, the
    mask of every vertex.  Its items are the half links, each row built
    on first read from the BFS of its source: ``half[a][b] = bet[a][b] |
    sh[a][b]``, the vertices w such that a is an end of a geodesic
    through all of a, b and w.  No whole distance or interval table is
    built, and the searches skip three kinds of read that cannot drop a
    candidate (``_branch_and_bound``, ``_gp_doll``).  ``links`` reads no
    row for an empty set, ``link_up`` keeps the OR of the links of a
    growing gp set, and ``behind_a_cut`` tells the dual hull which of its
    vertices need none."""

    def __init__(self, G: Graph):
        self.G = G
        self.bet = _Intervals(G.adj)
        self.simplicial = simplicial_set(G).mask
        self.parts = cut_components(G)
        self.cuts = sum(1 << c for c in self.parts)
        self.full = (1 << G.n) - 1

    def __missing__(self, a: int) -> list:
        # sh[a][b] holds w iff b lies strictly between a and w: the
        # neighbours of b one step farther from a and their own sh
        # entries, so the BFS order of a, walked backwards, fills them
        inside = self.bet[a]  # runs the BFS from a, which fills bfs[a]
        da, order = self.bet.bfs[a]
        adj = self.G.adj
        sh = [0] * len(adj)
        for b in reversed(order):
            down = da[b] + 1
            r = 0
            for w in adj[b]:
                if da[w] == down:
                    r |= sh[w] | 1 << w
            sh[b] = r
        row = self[a] = list(map(or_, sh, inside))
        return row

    def links(self, v: int, xs, xmask: int) -> int:
        """The OR over u in ``xs``, whose mask is ``xmask``, of the
        conflict link ``half[v][u] | half[u][v]``, with the shortcuts of
        the kernel's include: ``half[a][b]`` is ``bet[a][b]`` for a
        simplicial b, and that lies in ``half[b][a]``.  So a simplicial v
        needs no ``half[u][v]``, and ``bet[v]`` serves for ``half[v]``
        when every u is simplicial."""
        if not xmask:
            return 0
        hv = self[v] if xmask & ~self.simplicial else self.bet[v]
        out = 0
        if self.simplicial >> v & 1:
            for u in xs:
                out |= hv[u]
        else:
            for u in xs:
                out |= hv[u] | self[u][v]
        return out

    def link_up(self, xs, mask: int, links: int):
        """Extends ``links``, the OR of the conflict links of the pairs
        of the first members of ``xs``, whose mask is ``mask``, to the
        whole list; returns its mask and its links.  A growing set calls
        it each time it needs its links, and so links each member once."""
        for k in range(mask.bit_count(), len(xs)):
            links |= self.links(xs[k], xs[:k], mask)
            mask |= 1 << xs[k]
        return mask, links

    def behind_a_cut(self, w: int, closed: int) -> bool:
        """True iff w has a neighbour p in ``closed`` that is a cut vertex
        and w's component of G - p holds no vertex of ``closed``.  Then a
        geodesic from w to any u in ``closed`` runs through p, so the
        interior of I(w, u) lies in {p} and the interior of I(p, u)."""
        parts = self.parts
        for p in bits(self.G.neighbor_masks[w] & closed & self.cuts):
            for comp in parts[p]:
                if comp >> w & 1:
                    if not comp & closed:
                        return True
                    break
        return False


def _branch_and_bound(
    search: _Search,
    cand: int,
    dual: bool,
    floor: int,
    ceiling: int,
    pins=(),
    doll=(),
):
    """Include-first branch and bound over the downward-closed gp sets.

    Feasibility is a 3-uniform conflict system on the tables of
    ``search``: the triples (u, x, v) with x strictly between u and v
    (bet[u][v] holds x).  A set is feasible iff it contains no full
    triple.  When v joins the chosen set, the search drops from the
    candidates, for each chosen u, the whole conflict link ``half[v][u]
    | half[u][v]`` of the pair: the vertices between u and v, the
    vertices w with u between v and w, and those with v between u and w.
    Every candidate left can then be added without a conflict, so no
    conflict test runs, and the bound, the number of candidates, is
    exact.  A simplicial vertex lies inside no geodesic, so
    ``half[a][b]`` is just ``bet[a][b]`` for b in the ``simplicial``
    mask; pairs of simplicial vertices build no half rows.  Every row of
    ``bet`` and ``half`` is built the first time the search reads it,
    from one BFS of its source, so a run costs only the rows of the
    vertices it includes and, with ``dual``, of those its hull takes.
    An include whose vertex, chosen set and remaining candidates are all
    simplicial reads no row at all: the link of two simplicial vertices
    is the interior of their interval, which holds no simplicial vertex,
    so the child's candidates are the parent's.  That test sits inside
    the simplicial branch, so graphs without simplicial vertices never
    make it.

    The dual sets are exactly the gp sets with a convex complement.
    Every vertex the search excludes, dropped as a candidate or passed
    over after its include branch, lies in the complement of every set
    below that point, and so does the convex hull of those vertices.
    With ``dual``, before each candidate every vertex below it outside
    the chosen set joins that hull, grown by betweenness closure, and the
    hull leaves the candidates, so the bound counts it too; that repeats
    until the hull takes no more candidates.  A frame that the candidate
    count ends anyway skips that step.  A hull that meets the chosen set
    ends the frame: every later sibling excludes the same vertices.  The
    closure takes its new vertices one at a time, and ORs the row of
    each with the vertices closed before it, so the interior of every
    pair of closed vertices is in the hull.  A vertex w is closed without
    its row when it is the first, or, in a graph with cut vertices, when
    ``search.behind_a_cut(w, closed)``: every geodesic from w to a closed
    u then runs through a closed cut vertex p next to w, so the interior
    of I(w, u) lies in {p} and the interior of I(p, u), already in the
    hull.

    A set counts only where its frame has run out of candidates and was
    never cut.  With ``dual`` the complement is then the hull, which is
    convex.  Returns ``(size, members)`` for the largest counted set
    larger than ``floor``, or ``(floor, ())``.  No set grows past
    ``ceiling``, and the search stops once a set reaches it.

    The candidates are taken lowest vertex first, so include-first order
    reaches the sets of one size in lexicographic order.  From
    ``floor=0`` a set counts only if it is larger than every set counted
    before it, so of the sets of the final size only the first one
    reached counts.  The bound cuts only subtrees that cannot beat the
    best so far, and the hull cut only subtrees without a dual set, so
    that set is the lexicographically least optimum.  The dual search is
    that one run.

    A gp run may pass ``doll``, n + 1 entries indexed by vertex:
    ``doll[v]`` bounds the size of any gp set among the candidates at or
    above v, and ``doll[n]`` is 0.  gp sets are hereditary, so a frame
    whose lowest candidate is v also ends when ``size + doll[v] <=
    best``, tested after the candidate count at both of its sites; an
    empty mask reads index -1, the entry at n.  Without it the search is
    unchanged; dual sets are not hereditary, so the dual search has none.

    The search may start from a state instead of the empty set:
    ``pins`` are chosen from the start, and ``cand`` must hold no pin and
    no vertex of the conflict link of two pins.  Both variants start
    without the cut vertices, and each prefix decision of the gp witness
    starts from its pins (see ``_gp`` and ``_dual``).

    One loop on an explicit stack runs the search, so the recursion
    limit does not bound its depth.  A frame is ``(cand, xmask, hull,
    size)``: the candidates left, the chosen mask, the dual hull and the
    number chosen; ``xs`` lists the chosen vertices.  Including v pushes
    the running frame, without v among its candidates, and appends v;
    when the child ends, the frame is popped and goes on with ``xs.pop()``
    excluded.
    """
    bet, half, simplicial, full = search.bet, search, search.simplicial, search.full
    cuts, behind_a_cut = search.cuts, search.behind_a_cut
    best = floor
    best_members = ()
    xs, stack = list(pins), []
    xmask = sum(1 << p for p in pins)
    size = len(xs)
    hull = 0
    while True:
        low = cand & -cand
        if dual and size + cand.bit_count() > best:
            # the excluded vertices below the lowest candidate join the
            # hull, closed under betweenness: only pairs with a vertex new
            # to the hull can add more.  A hull meeting xmask ends the frame.
            fresh = (low - 1 if cand else full) & ~(xmask | hull)
            while fresh:
                members, closed = list(bits(hull)), hull
                hull |= fresh
                while fresh:
                    bit = fresh & -fresh
                    fresh ^= bit
                    w = bit.bit_length() - 1
                    if closed and not (cuts and behind_a_cut(w, closed)):
                        row, add = bet[w], 0
                        for u in members:
                            add |= row[u]
                        add &= ~hull
                        if add:
                            hull |= add
                            if hull & xmask:
                                break
                            fresh |= add
                    members.append(w)
                    closed |= bit
                if hull & xmask:
                    cand = low = 0
                    break
                if hull & cand:
                    cand &= ~hull
                    low = cand & -cand
                    fresh = (low - 1 if cand else full) & ~(xmask | hull)
        v = low.bit_length() - 1
        if (
            low
            and size + cand.bit_count() > best
            and (not doll or size + doll[v] > best)
        ):
            cand ^= low
            if size < ceiling:
                grown = 0
                if low & simplicial:
                    # between two simplicial ends lies no simplicial vertex
                    if (xmask | cand) & ~simplicial:
                        hv = half[v] if xmask & ~simplicial else bet[v]
                        for u in xs:
                            grown |= hv[u]
                else:
                    hv = half[v] if xmask & ~simplicial else bet[v]
                    for u in xs:
                        grown |= hv[u] | half[u][v]
                child = cand & ~grown
                # the child's first bound test, made before it starts
                if size + 1 + child.bit_count() > best and (
                    not doll
                    or size + 1 + doll[(child & -child).bit_length() - 1] > best
                ):
                    stack.append((cand, xmask, hull, size))
                    xs.append(v)
                    xmask |= low
                    cand = child
                    size += 1
        else:
            # the frame ends, and counts only if it ran out of candidates
            if not cand and size > best and not hull & xmask:
                best = size
                best_members = tuple(xs)
            if not stack or best == ceiling:
                return best, best_members
            cand, xmask, hull, size = stack.pop()
            xs.pop()


def solve(G: Graph, variant: str) -> Certificate:
    """Exact certificate for one variant of a connected graph.

    total uses the simplicial set directly and outer takes a maximum
    clique of the strong resolving graph; outer works on that graph's
    neighbour masks alone, from one bit-parallel BFS over the 2-core,
    and builds no distance table and no Graph.  It skips the
    transpose of that table when every vertex is maximally distant from
    all others or from none, and its clique search starts on the
    vertices with a neighbour.  gp and dual run the same
    branch and bound over the betweenness conflicts, on tables held in
    one object per solve (``_Search``) and shared by every run.  No
    whole distance or interval table is built: a row of intervals is
    built on first read, from one BFS of its source, and the shadow row
    of the same source from that BFS's distances.  Each chosen pair
    forbids its whole conflict link, so every vertex not forbidden is
    addable, and pairs of simplicial vertices need no shadow rows.
    Both start with the cut vertices forbidden, found by one
    Hopcroft-Tarjan pass.  For gp that is the exchange lemma (``_gp``):
    some optimum holds no cut vertex.  Every search takes its candidates
    as a bitmask, lowest vertex first.  A search skips each row read
    that cannot drop a candidate: an include among simplicial vertices
    only, a Russian-doll step from a simplicial optimum to a simplicial
    vertex, and a dual hull vertex that is the first or steps in through
    a cut vertex of the hull (``_branch_and_bound``, ``_gp_doll``), so
    dual on a path or a star builds no row.  The gp value pass is a
    Russian-doll search over the other vertices.  From the highest
    vertex down it fills a table, indexed by vertex, of the largest gp
    set among the vertices at or above each one: it first extends the
    last optimum by the new vertex, with a few ORs, and only when that
    fails runs the search with the vertex pinned, bounded by the table,
    for a set one larger.  Its lexicographically least witness comes
    from prefix decisions in ascending vertex order, each a run of the
    same search from the vertices pinned so far, bounded by the same
    table plus one for each cut vertex above the entry that the run
    leaves free; a successful run returns a whole optimum, whose later
    members are pinned without a search.  For dual a set holding a cut
    vertex has a fixed shape that is checked apart (``_dual``).  The
    dual search also forbids the convex hull of the vertices it has
    excluded, which no dual set below that point can meet, and a set
    counts once that hull is its whole complement.  It runs once, and
    the first set it counts at the final size is the witness.  Every
    cut removes only subtrees without a better set, so witnesses are
    lexicographically least among the optima.  Every search here, the
    clique searches too, runs on an explicit stack, so no answer depends
    on the recursion limit.
    """
    _check_variant(variant)
    _require_connected(G, "solve")
    if variant == "outer":
        size, witness = _maximum_clique(_strong_resolving_rows(G))
        return Certificate("outer", size, VertexSet(G.n, witness), "clique")
    if variant == "total":
        simp = simplicial_set(G)
        return Certificate("total", len(simp), simp, "closed_form")
    value, witness = (_gp if variant == "gp" else _dual)(_Search(G))
    return Certificate(variant, value, VertexSet(G.n, witness), "branch_and_bound")


def _gp(search: _Search):
    """gp value and lexicographically least witness.

    Exchange lemma: a gp set S holding a cut vertex c meets only one
    component of G - c, since c lies on every path between two of them.
    Swapping c for a vertex w of another component keeps S a gp set:
    each geodesic from S - c to w passes through c, so a member of S
    inside it would already lie between its end and c.  Every component
    holds a vertex that is not a cut vertex, so the value pass runs over
    the non-cut vertices alone, in ascending vertex order.

    The value pass is a Russian-doll search (Verfaillie, Lemaitre and
    Schiex, AAAI 1996; Ostergard's maximum clique, Discrete Appl. Math.
    2002).  gp sets are hereditary, so ``doll[v]``, the size of the
    largest gp set among the non-cut vertices at or above v, is
    ``doll[v + 1]`` or one more, and bounds every frame of the searches
    that follow whose lowest candidate is v.  It is filled from the
    highest vertex down.  At each non-cut v the last optimum found is
    first extended by v.  With the OR of the conflict links of its pairs
    at hand, that succeeds iff v is outside it: a triple is a conflict
    whichever of its three pairs is taken, so no link from v to a member
    then holds another member.  Only when that fails does a search run,
    with v pinned over the non-cut vertices above it, bounded by the
    table, for a set one larger.  The optimum at v = 0 is the first one
    for the witness, which comes from prefix decisions
    (``graphs._lex_least``), each a pinned run of the same search
    bounded by the same table (``_gp_decisions``).
    """
    doll, first = _gp_doll(search)
    decide = _gp_decisions(search, doll)
    return doll[0], _lex_least(search.G.n, doll[0], first, decide)


def _gp_doll(search: _Search):
    """The Russian-doll table of ``_gp`` and the mask of one optimum:
    ``doll[v]`` is the largest size of a gp set among the non-cut
    vertices at or above v, and ``doll[n]`` is 0.  A cut vertex copies
    the entry above it.

    The links of the last optimum are brought up to date by
    ``_Search.link_up`` only when a test needs them, so each member is
    linked once per optimum.  Simplicial vertices lie inside no
    geodesic, so any set of them is a gp set: while v and every member
    are simplicial, v extends the optimum with no test, and a star or a
    tree builds no row here."""
    n, cuts, full, simplicial = search.G.n, search.cuts, search.full, search.simplicial
    doll = [0] * (n + 1)
    best, held = [], 0  # the last optimum and its mask
    linked, links = 0, 0  # the mask of its members linked so far, their links
    for v in range(n - 1, -1, -1):
        if cuts >> v & 1:
            doll[v] = doll[v + 1]
            continue
        new = (v,)  # the vertices that join the last optimum
        if not simplicial >> v & 1 or held & ~simplicial:
            linked, links = search.link_up(best, linked, links)
            if links >> v & 1:
                # v does not extend it: search for a set one larger holding
                # v, which replaces it when found
                c, above = doll[v + 1], full & ~((2 << v) - 1)
                _, new = _branch_and_bound(
                    search, above & ~cuts, False, c, c + 1, new, doll
                )
                if new:
                    best, held, linked, links = [], 0, 0, 0
        best.extend(new)
        held |= sum(1 << u for u in new)
        doll[v] = len(best)
    return doll, held


def _gp_decisions(search: _Search, doll):
    """The decision of ``_lex_least`` for gp: ``decide(v, pins,
    rejected)`` returns the mask of a gp set of size ``doll[0]``, the
    value, that holds the pins and v and no rejected vertex, or 0.
    ``pins`` must be a gp set and ``doll`` is the table of ``_gp_doll``.

    Each call is a run of the value search started from the pins and v,
    over every vertex that is none of them, is not rejected and lies in
    no conflict link of theirs.  It still drops a cut vertex c when two
    or more components of G - c hold a non-cut vertex outside the
    rejected set: one of them misses the set, and the exchange lemma of
    ``_gp`` swaps c for that vertex.  The other cut vertices stay free
    (``loose``); the table does not cover them, so the run is bounded at
    lowest candidate p by ``doll[p]`` plus the loose cut vertices at or
    above p, and by ``doll`` itself when there are none.  The pins list
    is only ever extended, so ``_Search.link_up`` brings the OR of their
    conflict links up to date at each call, linking each pin once.
    """
    parts, cuts, full = search.parts, search.cuts, search.full
    value = doll[0]
    linked = [0, 0]  # the mask of the pins linked so far, their links
    ruled = {}  # rejected non-cut vertices -> cut vertices a swap frees

    def decide(v, pins, rejected):
        held, forb = linked[:] = search.link_up(pins, *linked)
        if forb >> v & 1:
            return 0
        forb |= search.links(v, pins, held)
        held |= 1 << v
        gone = rejected & ~cuts
        if gone not in ruled:
            free = ~cuts & ~gone
            ruled[gone] = sum(
                1 << c
                for c, comps in parts.items()
                if sum(1 for comp in comps if comp & free) > 1
            )
        cand = full & ~(forb | held | rejected | ruled[gone])
        loose = cand & cuts
        cap = doll
        if loose:
            cap = [d + (loose >> p).bit_count() for p, d in enumerate(doll)]
        size, members = _branch_and_bound(
            search, cand, False, value - 1, value, pins + [v], doll=cap
        )
        return sum(1 << u for u in members) if size == value else 0

    return decide


def _dual(search: _Search):
    """dual value and lexicographically least witness.

    A dual set S holding a cut vertex c meets one component C of G - c
    besides c, as a gp set does, and its complement holds every other
    component.  Two of those would have c between them, and so would one
    of them and a vertex of C outside S.  So G - c has exactly two
    components and S is C + c, a set whose geodesics stay inside it, so
    a gp set only if it is a clique.  Its complement, the other
    component, is convex iff c lies between no two of its neighbours
    there, that is, iff they form a clique.  So the search runs with
    every cut vertex forbidden, and the sets C + c are weighed apart.
    The exchange lemma of ``_gp`` does not hold for dual: the swap can
    break the convexity of the complement.
    """
    n, nbr, parts = search.G.n, search.G.neighbor_masks, search.parts
    apart = [
        comp | 1 << c
        for c, comps in parts.items()
        if len(comps) == 2
        for comp, other in (comps, comps[::-1])
        if _is_clique(nbr, comp | 1 << c) and _is_clique(nbr, nbr[c] & other)
    ]
    value, witness = _branch_and_bound(search, search.full & ~search.cuts, True, 0, n)
    top = max([value, *map(int.bit_count, apart)])
    candidates = [tuple(bits(S)) for S in apart if S.bit_count() == top]
    if value == top:
        candidates.append(witness)
    return top, min(candidates)


# A table over all 2**n subsets X of the vertices is one int with bit X
# set iff X qualifies, so a rule over all subsets is a few big-int
# operations (Knuth, TAOCP 4A, 7.1.3).


def _membership(n: int) -> list:
    """``IN[w]`` for w < n: the table of the subsets that hold w.  One
    period, 2**w zeros then 2**w ones, doubled up to 2**n bits.  Every
    table starts here, so here the size is capped."""
    if n > _FEASIBILITY_CAP:
        raise SizeError(f"feasibility table limited to n <= {_FEASIBILITY_CAP}")
    size = 1 << n
    member = []
    for w in range(n):
        width = 1 << w
        table, length = ((1 << width) - 1) << width, 2 * width
        while length < size:
            table |= table << length
            length *= 2
        member.append(table)
    return member


def _meets(member, b: int) -> int:
    """The table of the subsets that hold a vertex of the mask ``b``,
    with ``member = _membership(n)``."""
    out = 0
    for w in bits(b):
        out |= member[w]
    return out


def _levels(n: int) -> list:
    """``L[k]`` for k <= n: the table of the subsets of size k.  Vertex
    m moves each subset X without it to X + m, 2**m bits up, one size up."""
    levels = [1] + [0] * n
    for m in range(n):
        for k in range(m + 1, 0, -1):
            levels[k] |= levels[k - 1] << (1 << m)
    return levels


def _largest(table: int, levels) -> tuple:
    """The largest size k of a subset in ``table``, and the table of the
    subsets of that size.  The empty set is in every variant's table."""
    value = max(k for k, level in enumerate(levels) if table & level)
    return value, table & levels[value]


# Which pairs u, v of the graph a subset X must keep free of its own
# members, by whether u and v lie in X: one rule per variant, and one for
# the subsets with a convex complement.  The oracle passes membership
# tables over all subsets; ``is_variant_set`` passes -1 or 0 for u and
# the mask of X for v, and gets u's partners.  The result is ANDed with
# a table or a vertex mask, so a negative int here stands for its low
# bits.  ``_pair_tables`` does not call total's rule: every pair counts,
# so its table is still built in one pass, from the union of all
# interiors.
_PAIR_RULES = {
    "gp": lambda in_u, in_v: in_u & in_v,
    "total": lambda in_u, in_v: -1,
    "outer": lambda in_u, in_v: in_u | in_v,
    "dual": lambda in_u, in_v: ~(in_u ^ in_v),
    "convex complement": lambda in_u, in_v: ~(in_u | in_v),
}


def _pair_tables(D: DistMatrix, member, *rules) -> dict:
    """Tables over all 2**n subsets X of the vertices of the distance
    table ``D``, with ``member = _membership(n)``, keyed by rule in the
    order given: X is in a rule's table iff no pair u, v the rule selects
    has a member of X strictly between u and v.  A rule is a variant name
    or "convex complement", which holds exactly for the subsets whose
    complement is convex.  One pass over the pairs of D's interval table
    serves every rule, so each interval becomes a table once.
    """
    bet = interval_masks(D)
    full = (1 << (1 << len(bet))) - 1
    bad = dict.fromkeys(rules, 0)
    if "total" in bad:
        # every pair counts, so X must avoid the union of all interiors
        bad["total"] = _meets(member, reduce(or_, chain.from_iterable(bet), 0))
    combines = [(rule, _PAIR_RULES[rule]) for rule in bad if rule != "total"]
    if combines:
        for u, row in enumerate(bet):
            in_u = member[u]
            for v in range(u + 1, len(bet)):
                if row[v]:
                    inside, in_v = _meets(member, row[v]), member[v]
                    for rule, combine in combines:
                        bad[rule] |= inside & combine(in_u, in_v)
    for rule in bad:
        bad[rule] = full & ~bad[rule]
    return bad


def variant_feasibility(D: DistMatrix, variant: str) -> int:
    """Table over all 2**n subsets as one int: subset X, read as a
    bitmask, satisfies the variant iff ``table >> X & 1``.

    Pure quantifier evaluation over the betweenness structure, no
    characterizations involved; ``brute_force`` reads its answer off this
    table.
    """
    _check_variant(variant)
    return _pair_tables(D, _membership(D.n), variant)[variant]


def brute_force(G: Graph, variant: str, max_n: int = 18) -> Certificate:
    """Exhaustive oracle: try every subset, straight from the definitions.

    Returns the maximum cardinality subset satisfying the variant, with
    the lexicographically least witness among ties.  The table over all
    2**n subsets is one Python int, as ``variant_feasibility`` returns
    it.  The witness comes from ascending decisions on the ties of that
    size: each vertex that some remaining tie holds is kept, and the
    ties without it are dropped.
    """
    _check_variant(variant)
    if G.n > max_n:
        raise SizeError(f"brute force capped at n <= {max_n}, got n = {G.n}")
    _require_connected(G, "brute force")
    table = variant_feasibility(all_pairs_distances(G), variant)
    value, ties = _largest(table, _levels(G.n))
    witness = []
    for v, in_v in enumerate(_membership(G.n)):
        if ties & in_v:
            ties &= in_v
            witness.append(v)
    return Certificate(variant, value, VertexSet(G.n, witness), "exhaustive")
