"""Immutable simple graphs, vertex subsets, and exact maximum clique search.

Vertices are always 0..n-1.  Graphs and vertex sets are value objects:
equality and hashing work, and nothing mutates after construction.
Adjacency is kept both as sorted tuples and as bitmasks; the bitmasks are
what the exact solvers in the rest of the package run on.
"""

from __future__ import annotations

from .errors import DuplicateEdgeError, EmptySetError, LoopError


def bits(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph with sorted adjacency lists.

    No loops, no duplicate edges, adjacency symmetric by construction.
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


def build_graph(n: int, edges=()) -> Graph:
    """Validate and build a simple graph on vertices 0..n-1.

    Raises IndexError for out-of-range endpoints, LoopError for loops,
    DuplicateEdgeError when an unordered edge repeats (in either
    orientation).  n = 0 is accepted here; higher layers reject it.
    """
    return Graph(n, edges)


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


def induced_subgraph(G: Graph, W: VertexSet):
    """Induced subgraph on W plus the relabeling map old -> new.

    W must be nonempty; vertices are relabeled 0..|W|-1 in ascending order.
    """
    if len(W) == 0:
        raise EmptySetError("induced subgraph needs a nonempty vertex set")
    old = list(W)
    relabel = {v: i for i, v in enumerate(old)}
    edges = [
        (relabel[u], relabel[v])
        for u in old
        for v in G.adj[u]
        if v > u and v in W
    ]
    return Graph(len(old), edges), relabel


def is_connected(G: Graph) -> bool:
    """BFS reachability from vertex 0; graphs with n <= 1 count as connected."""
    if G.n <= 1:
        return True
    seen = 1
    frontier = 1
    nbr = G.neighbor_masks
    while frontier:
        reach = 0
        for v in bits(frontier):
            reach |= nbr[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << G.n) - 1


def maximum_clique(G: Graph):
    """Exact maximum clique: (size, lexicographically least witness tuple).

    Size comes from a branch and bound bounded by greedy sequential
    colouring (Tomita and Seki's MCQ).  The witness is then recovered by
    a separate include-first search in ascending vertex order for the
    first clique of that size, so ties always resolve to the least vertex
    tuple.  Both passes keep explicit stacks, so no input depends on the
    recursion limit.
    """
    return _maximum_clique(G.neighbor_masks)


def _maximum_clique(nbr):
    """maximum_clique on the neighbour masks of a graph on 0..len(nbr)-1."""
    size = _clique_size(nbr)
    return size, _first_clique(nbr, size)


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


def _clique_size(nbr) -> int:
    """Clique number by colour-bounded branch and bound on a stack.

    A frame holds the clique size so far, its candidates P in colour
    order and the index of the next candidate, taken from the highest
    colour down.  Candidate i, together with everything before it, needs
    at most its colour in further vertices, so the first candidate whose
    colour cannot beat the best ends the frame.  A candidate set whose
    colouring uses one colour per vertex is itself a clique and is taken
    whole, without a child frame.
    """
    n = len(nbr)
    P = (1 << n) - 1
    verts, cols = _colour_classes(nbr, P)
    if not verts or cols[-1] == n:
        return n
    best = size = 0
    i = n
    stack = []
    while True:
        if i and size + cols[i - 1] > best:
            i -= 1
            v = verts[i]
            P ^= 1 << v
            Q = P & nbr[v]
            if not Q:
                best = max(best, size + 1)
                continue
            qverts, qcols = _colour_classes(nbr, Q)
            if qcols[-1] == len(qverts):
                best = max(best, size + 1 + len(qverts))
                continue
            stack.append((size, verts, cols, P, i))
            size, verts, cols, P, i = size + 1, qverts, qcols, Q, len(qverts)
        elif stack:
            size, verts, cols, P, i = stack.pop()
        else:
            return best


def _first_clique(nbr, k: int):
    """First k-clique in lexicographic order of sorted vertex tuples.

    Include-first search in ascending vertex order on a stack of
    candidate masks.  A vertex is taken only if enough of its later
    neighbours remain to complete the clique.
    """
    if k == 0:
        return ()
    chosen, stack = [], []
    cand, need = (1 << len(nbr)) - 1, k
    while True:
        if cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            rest = cand & nbr[v]
            if rest.bit_count() >= need - 1:
                chosen.append(v)
                if need == 1:
                    return tuple(chosen)
                stack.append(cand)
                cand, need = rest, need - 1
        else:
            assert stack, "witness search must succeed at the clique size"
            chosen.pop()
            cand = stack.pop()
            need += 1


def clique_number(G: Graph) -> int:
    """Exact clique number; 0 for the empty graph, 1 for edgeless graphs."""
    return maximum_clique(G)[0]
