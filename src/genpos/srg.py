"""Mutual maximal distance and the strong resolving graph."""

from __future__ import annotations

from .graphs import Graph, _require_connected, bits


def _maximally_distant_columns(G: Graph) -> list:
    """Column u, as a mask, marks the sources s != u from which u is
    maximally distant: those s from which no neighbour of u is farther.

    One level-synchronous BFS from all sources at once, on the 2-core, in
    three steps.

    1. Peel the pendant trees: remove degree-1 vertices until none is left.
       A geodesic enters a pendant tree only through its root, so what
       remains, the 2-core, keeps every distance.  A vertex of degree 1 is
       maximally distant from every other vertex: its one neighbour lies on
       each geodesic to it.  Every other tree vertex, and every core vertex
       with a tree hanging from it, is a cut vertex; a cut vertex has a
       neighbour farther from s in a component of G - c that misses s, so
       its column is empty.
    2. Grow balls on the core, one level per round.  With ball[u] the
       sources within distance k of u, ball[u] & ~AND(ball[w], w in N(u))
       holds exactly the sources at distance k from u with a neighbour of u
       at distance k + 1, the sources u is not maximally distant from.
       Then ball[u] |= OR(ball[w]), until every ball is the whole core.
       Rounds start at k = 1: at k = 0 the only source in ball[u] is u,
       which column u never holds.  Each round is one loop over the core
       vertices, each over its neighbours in the core.  The balls are a
       list indexed by vertex, whose entry off the core is never read and
       holds the whole core, so one count tells when every ball is full.
    3. Expand.  A core vertex u with no tree hanging from it, and each of
       its neighbours, reach a vertex of the tree hanging at c only through
       c, so u is maximally distant from that vertex iff it is from c.
    """
    n, adj = G.n, G.adj
    full = (1 << n) - 1
    cols = [full ^ 1 << v if len(a) == 1 else 0 for v, a in enumerate(adj)]
    # a tree: every vertex is a leaf or a cut vertex.  It must stop here,
    # since the peel below hangs each pendant tree from a core vertex, and
    # a tree has none: the last peeled vertex would find no root.
    if G.m < n:
        return cols
    deg = list(map(len, adj))
    peeled = [v for v in range(n) if deg[v] == 1]
    root = {}
    for v in peeled:
        deg[v] = 0
        for w in adj[v]:
            if deg[w]:
                root[v] = w
                deg[w] -= 1
                if deg[w] == 1:
                    peeled.append(w)
    hang = {}
    for v in reversed(peeled):
        p = root[v]
        c = root[v] = root.get(p, p)
        hang[c] = hang.get(c, 0) | 1 << v
    core = [v for v in range(n) if deg[v]]
    inner = sum(1 << v for v in core)
    nbrs = [[w for w in adj[v] if deg[w]] for v in core]
    ball = [G.neighbor_masks[v] & inner | 1 << v if deg[v] else inner for v in range(n)]
    bad = [0] * n
    while True:
        grown = ball[:]
        for v, ws in zip(core, nbrs):
            low = out = ball[v]
            for w in ws:
                b = ball[w]
                low &= b
                out |= b
            bad[v] |= ball[v] & ~low
            grown[v] = out
        if grown.count(inner) == n:
            break
        ball = grown
    attach = sum(1 << c for c in hang)
    for v in core:
        if v not in hang:
            col = inner ^ bad[v] ^ 1 << v
            for c in bits(col & attach):
                col |= hang[c]
            cols[v] = col
    return cols


def _strong_resolving_rows(G: Graph) -> list:
    """Neighbour masks of the strong resolving graph of a connected graph.

    u and v are adjacent iff u is maximally distant from v and v from u,
    that is, column v of the maximally distant table ANDed with row v.

    A column is full when its vertex is maximally distant from every
    other vertex, as every simplicial vertex is.  When every non-empty
    column is full, the table is already symmetric: the full vertices,
    the ends, are pairwise adjacent and every other vertex is isolated.
    Complete graphs and block graphs take that exit; ``solve`` sends no
    tree here.  The exit stays for the block graphs: without it, outer on
    ``star:1200`` with one edge added between two leaves took 23 ms
    instead of 2.5 ms, and on 200 copies of K5 sharing one vertex 12 ms
    instead of 2.5 ms (in-process, min of 5, 2 shared vCPUs).  Otherwise,
    read from the last column up, row v of the columns written in binary
    is the row mask in binary, so ``zip`` transposes the whole table at
    once.
    """
    cols = _maximally_distant_columns(G)
    full = (1 << G.n) - 1
    if not any(col and col != full ^ 1 << v for v, col in enumerate(cols)):
        ends = sum(1 << v for v, col in enumerate(cols) if col)
        return [ends ^ 1 << v if col else 0 for v, col in enumerate(cols)]
    width = f"0{G.n}b"
    digits = [format(col, width).encode() for col in reversed(cols)]
    rows = [int(bytes(row), 2) for row in zip(*digits)]
    rows.reverse()
    return [col & row for col, row in zip(cols, rows)]


def strong_resolving_graph(G: Graph) -> Graph:
    """Graph on the same vertices whose edges are the mutually maximally
    distant pairs of G.

    The input must be connected; the result often is not, and may have
    isolated vertices.  The neighbour masks are symmetric and loop-free
    by construction, so the Graph is built from them without per-edge
    validation.
    """
    _require_connected(G, "the strong resolving graph")
    return Graph._from_masks(_strong_resolving_rows(G))
