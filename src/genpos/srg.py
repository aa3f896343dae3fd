"""Mutual maximal distance and the strong resolving graph."""

from __future__ import annotations

from .errors import DegeneratePairError, DisconnectedError, EmptySetError
from .graphs import Graph, bits, build_graph, is_connected
from .metric import DistMatrix


def is_mmd(G: Graph, D: DistMatrix, u: int, v: int) -> bool:
    """True iff u and v are mutually maximally distant.

    u is maximally distant from v when no neighbor of u is farther from v
    than u itself; the relation must hold in both directions.
    """
    if u == v:
        raise DegeneratePairError("mutual maximal distance needs distinct vertices")
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


def _maximally_distant_rows(G: Graph) -> list:
    """Row s, as a binary string of n digits (vertex n-1 first), marks the
    vertices u != s maximally distant from s: those with no neighbour
    farther from s.

    One BFS per source; while it reads the neighbours of u it also notes
    whether any of them lies one step farther out.
    """
    n, adj = G.n, G.adj
    last = n - 1
    zeros = b"0" * n
    rows = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        row = bytearray(zeros)
        queue = [s]
        for u in queue:
            du = dist[u]
            far = False
            for w in adj[u]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = du + 1
                    queue.append(w)
                    far = True
                elif dw > du:
                    far = True
            if not far and du:
                row[last - u] = 49  # ord("1")
        rows.append(row)
    return rows


def _strong_resolving_rows(G: Graph) -> list:
    """Neighbour masks of the strong resolving graph of a connected graph.

    u and v are adjacent iff u is maximally distant from v and v from u,
    that is, row v of the maximally distant table ANDed with column v.
    Read from the last row up, column v of the binary rows is the column
    mask in binary, so ``zip`` transposes the whole table at once.
    """
    rows = _maximally_distant_rows(G)
    cols = [int(bytes(col), 2) for col in zip(*reversed(rows))]
    cols.reverse()
    return [int(row, 2) & col for row, col in zip(rows, cols)]


def strong_resolving_graph(G: Graph) -> Graph:
    """Graph on the same vertices whose edges are the mutually maximally
    distant pairs of G.

    The input must be connected; the result often is not, and may have
    isolated vertices.
    """
    if G.n == 0:
        raise EmptySetError("strong resolving graph needs at least one vertex")
    if not is_connected(G):
        raise DisconnectedError("strong resolving graph needs a connected graph")
    edges = [
        (u, v)
        for u, row in enumerate(_strong_resolving_rows(G))
        for v in bits(row >> (u + 1) << (u + 1))
    ]
    return build_graph(G.n, edges)
