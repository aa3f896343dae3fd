"""Shortest-path metric machinery.

All-pairs BFS distances, geodesic betweenness, convexity of vertex sets,
girth, simplicial vertices, and the inner-edge test used by the
sufficient conditions for a vanishing dual invariant.
"""

from __future__ import annotations

import math

from .errors import NotAnEdgeError
from .graphs import Graph, VertexSet, _bfs, _require_connected, bits


class DistMatrix:
    """Immutable all-pairs distance table with its diameter."""

    __slots__ = ("n", "d", "diameter")

    def __init__(self, n: int, d, diameter: int):
        self.n = n
        self.d = d
        self.diameter = diameter

    def __repr__(self):
        return f"DistMatrix(n={self.n}, diameter={self.diameter})"


def all_pairs_distances(G: Graph) -> DistMatrix:
    """BFS from every vertex.  Requires a connected graph on >= 1 vertices."""
    _require_connected(G, "a distance matrix")
    rows = tuple(tuple(_bfs(G.adj, s)[0]) for s in range(G.n))
    return DistMatrix(G.n, rows, max(map(max, rows)))


def girth(G: Graph, D: DistMatrix):
    """Length of a shortest cycle, or math.inf when the graph is a forest.

    Read from the rows of D.  From a source s, each edge xy with
    d(s, x) = d(s, y) closes a walk of length 2 d(s, x) + 1 through s,
    and each vertex x with two neighbours at d(s, x) - 1 closes one of
    length 2 d(s, x); either walk holds a cycle no longer than itself.
    A shortest cycle through s gives its own length as one of these, at
    its far edge or its far vertex, so the minimum over all sources is
    exactly the girth.
    """
    if D.n != G.n:
        raise ValueError("distance matrix does not match the graph")
    best = math.inf
    for du in D.d:
        for x, nx in enumerate(G.adj):
            dx = du[x]
            if 2 * dx >= best:
                continue
            below = 0
            for y in nx:
                dy = du[y]
                if dy == dx:
                    best = min(best, 2 * dx + 1)
                elif dy < dx:
                    below += 1
            if below > 1:
                best = 2 * dx
    return best


def interval_masks(D: DistMatrix):
    """Strict geodesic interiors as bitmasks.

    interval_masks(D)[u][v] holds w iff w != u, w != v and w lies on a
    shortest u,v-path.  Symmetric; the diagonal rows are zero.

    Built from the BFS DAG of each source u: the interior of I(u,v) is
    the union of w and the interior of I(u,w) over the neighbours w of v
    one step closer to u.  Visiting the vertices v > u by distance from u,
    with the entries for v < u already filled in by symmetry, makes that
    O(n*m) bitmask ORs in all, after one O(n^2) pass for the neighbours.
    """
    n, d = D.n, D.d
    nbrs = [[w for w, dw in enumerate(row) if dw == 1] for row in d]
    out = [[0] * n for _ in range(n)]
    for u in range(n):
        du = d[u]
        row = out[u]
        for v in sorted(range(u + 1, n), key=du.__getitem__):
            up = du[v] - 1
            if up:  # adjacent pairs have an empty interior
                r = 0
                for w in nbrs[v]:
                    if du[w] == up:
                        r |= row[w] | 1 << w
                row[v] = out[v][u] = r
    return out


def is_convex(G: Graph, D: DistMatrix, W: VertexSet) -> bool:
    """True iff every shortest path between vertices of W stays inside W.

    Empty and singleton sets are convex.
    """
    if W.n != G.n or D.n != G.n:
        raise ValueError("vertex set or distance matrix does not match the graph")
    members = list(W)
    d = D.d
    for i, u in enumerate(members):
        du = d[u]
        for v in members[i + 1 :]:
            dv = d[v]
            duv = du[v]
            for w in range(G.n):
                if w not in W and du[w] + dv[w] == duv:
                    return False
    return True


def simplicial_set(G: Graph) -> VertexSet:
    """Vertices whose open neighborhood induces a complete graph."""
    mask = 0
    nbr = G.neighbor_masks
    for v in range(G.n):
        ok = True
        for u in G.adj[v]:
            # u must be adjacent to every other neighbor of v
            if nbr[v] & ~nbr[u] & ~(1 << u):
                ok = False
                break
        if ok:
            mask |= 1 << v
    return VertexSet.from_mask(G.n, mask)


def is_p4_inner_isometric(G: Graph, D: DistMatrix, x: int, y: int) -> bool:
    """True iff edge xy is the middle edge of an isometric 4-vertex path.

    That is, there are neighbors x' of x and y' of y, avoiding the edge,
    with d(x',y) = 2, d(x,y') = 2 and d(x',y') = 3.
    """
    if not G.has_edge(x, y):
        raise NotAnEdgeError(f"({x},{y}) is not an edge")
    d = D.d
    xs = [a for a in G.adj[x] if a != y and d[a][y] == 2]
    ys = [b for b in G.adj[y] if b != x and d[x][b] == 2]
    for a in xs:
        da = d[a]
        for b in ys:
            if da[b] == 3:
                return True
    return False


def _all_edges_inner(G: Graph) -> bool:
    """True iff G has an edge and every edge is the middle edge of an
    isometric 4-vertex path, read off the neighbour masks alone: no
    distance table is built, and the test stops at the first edge that
    is not inner.

    Edge xy is inner iff some a in N(x) - N[y] and b in N(y) - N[x] have
    b outside N(a) and no common neighbour.  Then d(a, y) = d(x, b) = 2,
    and d(a, b) = 3, since a-x-y-b is a walk of length 3.

    On a connected graph the premise makes dual 0 (the paper's
    sufficient condition).  Let S be a nonempty dual set and C its
    complement, which is convex.
    1. No edge xy has both ends in S.  Take an isometric P4 a-x-y-b.  If
       a were in S, x would lie inside the geodesic a-x-y between members
       of S, so a is not in S, and likewise b is not.  Then x lies in
       I(a, b) outside C.
    2. So C is not empty, and G being connected, some edge xy has x in S
       and y in C.  For its P4 a-x-y-b, a in C would put x in I(a, y)
       outside C.  So a is in S, and the edge ax contradicts step 1.
    K1 has no edge and dual 1, so the premise needs an edge.
    """
    nbr = G.neighbor_masks
    for x, y in G.edges():
        nx, ny = nbr[x], nbr[y]
        ends = list(bits(ny & ~nx & ~(1 << x)))
        if not any(
            not nbr[a] & (nbr[b] | 1 << b)
            for a in bits(nx & ~ny & ~(1 << y))
            for b in ends
        ):
            return False
    return G.m > 0
