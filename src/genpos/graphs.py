"""Immutable simple graphs, vertex subsets, cut vertices, exact maximum
clique search, and the prefix decisions behind lexicographically least
witnesses.

Vertices are always 0..n-1.  Graphs and vertex sets are value objects:
equality and hashing work, and nothing mutates after construction.
Adjacency is kept both as sorted tuples and as bitmasks; the bitmasks are
what the exact solvers in the rest of the package run on.
"""

from __future__ import annotations

from .errors import DisconnectedError, DuplicateEdgeError, EmptySetError, LoopError


def bits(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph on vertices 0..n-1 with sorted adjacency
    lists, validated as it is built.

    Raises IndexError for out-of-range endpoints, LoopError for loops,
    DuplicateEdgeError when an unordered edge repeats (in either
    orientation), ValueError for n < 0.  n = 0 is accepted here; higher
    layers reject it.
    """

    __slots__ = ("n", "m", "adj", "neighbor_masks")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise IndexError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise LoopError(f"loop at vertex {u}")
            if (masks[u] >> v) & 1:
                raise DuplicateEdgeError(f"edge ({u},{v}) given twice")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._set_masks(masks)

    @classmethod
    def _from_masks(cls, masks) -> "Graph":
        """Graph with these neighbour masks, taken as given: they must be
        symmetric and have no bit v in mask v."""
        G = cls.__new__(cls)
        G._set_masks(masks)
        return G

    def _set_masks(self, masks) -> None:
        self.n = len(masks)
        self.m = sum(mk.bit_count() for mk in masks) >> 1
        self.neighbor_masks = tuple(masks)
        self.adj = tuple(tuple(bits(mk)) for mk in masks)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and (self.neighbor_masks[u] >> v) & 1 == 1

    def edges(self):
        """Iterate edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.neighbor_masks == other.neighbor_masks
        )

    def __hash__(self):
        return hash((self.n, self.neighbor_masks))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class VertexSet:
    """Subset of the vertices of a graph of known order, bitmask backed."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, members=()):
        mask = 0
        for v in members:
            if not 0 <= v < n:
                raise IndexError(f"vertex {v} out of range for n={n}")
            mask |= 1 << v
        self.n = n
        self.mask = mask

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "VertexSet":
        if mask < 0 or mask >> n:
            raise IndexError(f"mask {mask:#x} out of range for n={n}")
        out = cls.__new__(cls)
        out.n = n
        out.mask = mask
        return out

    def complement(self) -> "VertexSet":
        return VertexSet.from_mask(self.n, ((1 << self.n) - 1) & ~self.mask)

    def __contains__(self, v) -> bool:
        return 0 <= v < self.n and (self.mask >> v) & 1 == 1

    def __iter__(self):
        return bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other):
        return (
            isinstance(other, VertexSet)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.n, self.mask))

    def __repr__(self):
        return f"VertexSet(n={self.n}, members={tuple(self)})"


def _bfs(adj, a: int):
    """Breadth-first search from a over the adjacency lists ``adj``:
    ``(dist, order)``, the distances from a, -1 where a does not reach,
    and the vertices a reaches in the order the search reached them."""
    dist = [-1] * len(adj)
    dist[a] = 0
    order = [a]
    for v in order:  # the queue, appended to as it is read
        down = dist[v] + 1
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = down
                order.append(w)
    return dist, order


def is_connected(G: Graph) -> bool:
    """BFS reachability from vertex 0; graphs with n <= 1 count as connected."""
    return G.n <= 1 or len(_bfs(G.adj, 0)[1]) == G.n


def _require_connected(G: Graph, what: str) -> None:
    """The input contract of every solver, oracle and table: a connected
    graph with at least one vertex.  ``what`` names the caller in the
    message."""
    if G.n == 0:
        raise EmptySetError(f"{what} needs at least one vertex")
    if not is_connected(G):
        raise DisconnectedError(f"{what} needs a connected graph")


def _is_clique(nbr, mask: int) -> bool:
    """True iff the vertices of ``mask`` are pairwise adjacent in the graph
    with neighbour masks ``nbr``; the empty set and singletons are."""
    return all(mask & ~nbr[v] == 1 << v for v in bits(mask))


def cut_components(G: Graph) -> dict:
    """The cut vertices of G, a connected graph with at least one vertex,
    each mapped to the components of G - c.

    A cut vertex is one whose removal leaves G in more than one piece.
    Each value is a tuple of vertex masks, one per component of G - c.
    One depth-first pass from vertex 0 (Hopcroft and Tarjan, CACM 1973)
    on an explicit stack finds them: a child w of c in the DFS tree
    splits off with its whole subtree when no back edge from that
    subtree reaches above c, that is, when ``low[w] >= disc[c]``.  The
    rest of G - c, outside the subtrees that split off, is one more
    component when it is not empty, and c is a cut vertex iff that gives
    two or more components.  The rest of the root is always empty, so
    the root is one when it has two or more children.
    """
    n, adj = G.n, G.adj
    disc = [-1] * n
    low = [0] * n
    sub = [0] * n  # DFS subtree of each vertex, as a mask
    disc[0] = 0
    sub[0] = 1
    t = 1
    splits = {}
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        v, parent, it = stack[-1]
        for w in it:
            if disc[w] < 0:
                disc[w] = low[w] = t
                t += 1
                sub[w] = 1 << w
                stack.append((w, v, iter(adj[w])))
                break
            if w != parent and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                sub[p] |= sub[v]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    splits.setdefault(p, []).append(sub[v])
    out = {}
    for c, parts in splits.items():
        rest = sub[0] ^ 1 << c ^ sum(parts)
        comps = (*parts, rest) if rest else tuple(parts)
        if len(comps) > 1:
            out[c] = comps
    return out


def _lex_least(n: int, k: int, first: int, decide) -> tuple:
    """Lexicographically least optimum of size k, by prefix decisions.

    Among sets of one size, the least sorted tuple is the one that takes
    the lowest vertex where they differ.  So the vertices are decided in
    ascending order: v is pinned if some optimum holds every pin, v and
    no rejected vertex, else it is rejected.  ``decide(v, pins,
    rejected)`` answers with the mask of such an optimum, or 0 if there
    is none; ``pins`` is the ascending list of pinned vertices.

    ``first`` is the mask of one optimum.  The last optimum found holds
    every pin and no rejected vertex, so its own members are pinned
    without asking.
    """
    pins = []
    rejected = 0
    held = first
    for v in range(n):
        if len(pins) == k:
            break
        if not held >> v & 1:
            found = decide(v, pins, rejected)
            if not found:
                rejected |= 1 << v
                continue
            held = found
        pins.append(v)
    return tuple(pins)


def maximum_clique(G: Graph):
    """Exact maximum clique: (size, lexicographically least witness tuple).

    Size comes from a branch and bound bounded by greedy sequential
    colouring (Tomita and Seki's MCQ); a graph with no edge answers at
    once, with its least vertex.  The witness then comes from
    prefix decisions in ascending vertex order: v is pinned if the later
    common neighbours of the pins and v, less the rejected vertices,
    still hold a clique that completes the size, which the same
    colour-bounded search decides.  So ties always resolve to the least
    vertex tuple.  Every search keeps an explicit stack, so no input
    depends on the recursion limit.
    """
    return _maximum_clique(G.neighbor_masks)


def _maximum_clique(nbr):
    """maximum_clique on the neighbour masks of a graph on 0..len(nbr)-1."""
    n = len(nbr)
    if not any(nbr):  # no edge: every clique is one vertex or none
        return min(n, 1), tuple(range(min(n, 1)))
    size, first = _clique_search(nbr, (1 << n) - 1, 1, n)
    # pins counted so far, their mask and their common neighbours
    pinned = [0, 0, (1 << n) - 1]

    def decide(v, pins, rejected):
        count, held, common = pinned
        for p in pins[count:]:
            held |= 1 << p
            common &= nbr[p]
        pinned[:] = len(pins), held, common
        if not common >> v & 1:
            return 0
        need = size - len(pins) - 1
        if not need:
            return held | 1 << v
        # every vertex below v is a pin or rejected, so Q lies after v
        Q = common & nbr[v] & ~rejected
        _, found = _clique_search(nbr, Q, need - 1, need)
        return found and held | 1 << v | found

    return size, _lex_least(n, size, first, decide)


def _colour_classes(nbr, P: int):
    """Greedy sequential colouring of the vertices in P, lowest vertex
    first.  Returns the vertices in order of colour and their colours
    1, 2, ...; each colour class is independent, so a clique of P meets
    at most as many classes as the colour of its last vertex.
    """
    verts, cols = [], []
    k = 0
    while P:
        k += 1
        Q = P
        while Q:
            low = Q & -Q
            v = low.bit_length() - 1
            P ^= low
            Q &= ~(nbr[v] | low)
            verts.append(v)
            cols.append(k)
    return verts, cols


def _clique_search(nbr, P: int, floor: int, ceiling: int):
    """Largest clique inside the vertex mask P, by colour-bounded branch
    and bound on a stack.

    A frame holds the clique chosen so far (its size and mask), its
    candidates in colour order and the index of the next candidate,
    taken from the highest colour down.  Candidate i, together with
    everything before it, needs at most its colour in further vertices,
    so the first candidate whose colour cannot beat the best ends the
    frame.  A child's candidate set whose colouring uses one colour per
    vertex is itself a clique and is taken whole, without a frame.

    Returns ``(size, mask)`` of the largest clique larger than
    ``floor``, or ``(floor, 0)``; the search stops once a clique reaches
    ``ceiling``.
    """
    verts, cols = _colour_classes(nbr, P)
    best, found = floor, 0
    size = chosen = 0
    i = len(verts)
    stack = []
    while True:
        if i and size + cols[i - 1] > best:
            i -= 1
            v = verts[i]
            bit = 1 << v
            P ^= bit
            Q = P & nbr[v]
            if Q:
                qverts, qcols = _colour_classes(nbr, Q)
                if qcols[-1] != len(qverts):
                    stack.append((size, chosen, verts, cols, P, i))
                    size, chosen = size + 1, chosen | bit
                    verts, cols, P, i = qverts, qcols, Q, len(qverts)
                    continue
            if size + 1 + Q.bit_count() > best:
                best, found = size + 1 + Q.bit_count(), chosen | bit | Q
                if best >= ceiling:
                    return best, found
        elif stack:
            size, chosen, verts, cols, P, i = stack.pop()
        else:
            return best, found

