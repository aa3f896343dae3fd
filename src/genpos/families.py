"""Constructors for named graph families, products, joins, and random graphs.

Every family has a FamilySpec with a textual form ``family:p1,p2,...``
so the command line can name instances, e.g. ``theta:2,3,3``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import GenerationError, SpecError
from .graphs import Graph, is_connected

PRODUCT_KINDS = ("cartesian", "direct", "strong")

_MAX_TRIES = 200  # draws random_connected makes before it gives up


def integer(token: str) -> int:
    """An ASCII decimal integer with an optional leading '-', between
    optional spaces.  ``int`` alone also takes underscores, a '+' and other
    scripts' digits; this raises ValueError for them, and for a token with
    no digit.  As an argparse type it reads "invalid integer value" in a
    usage error, since argparse names the function."""
    digits = token.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


@dataclass(frozen=True)
class FamilySpec:
    """A family tag plus its integer parameters."""

    family: str
    params: tuple[int, ...]

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        """``family:p1,p2,...``; each parameter is an ASCII decimal integer,
        none may be empty, and ``family`` or ``family:`` has none."""
        name, _, rest = text.partition(":")
        name = name.strip()
        if name not in FAMILIES:
            raise SpecError(f"unknown family {name!r}")
        try:
            params = tuple(map(integer, rest.split(","))) if rest.strip() else ()
        except ValueError as exc:
            raise SpecError(f"bad parameters in {text!r}") from exc
        return cls(name, params)

    def __str__(self):
        return f"{self.family}:{','.join(str(p) for p in self.params)}"


def generate(spec: FamilySpec):
    """Build the graph for spec.  Returns (Graph, label map).

    The label map names construction-specific vertices: the two branch
    vertices a, b of a theta graph, the pendant u and its neighbor v of a
    chain of cycles, and x, x', p1, pm for the join of a path with two
    isolated vertices.
    """
    if spec.family not in _FAMILIES:
        raise SpecError(f"unknown family {spec.family!r}")
    least, build = _FAMILIES[spec.family]
    if least is not None:
        if len(spec.params) != len(least):
            raise SpecError(
                f"{spec.family} takes {len(least)} parameter(s), got {len(spec.params)}"
            )
        if any(p < low for p, low in zip(spec.params, least)):
            raise SpecError(f"{spec.family} needs parameters >= {least}")
    return build(*spec.params)


def _path(n: int):
    return Graph(n, [(i, i + 1) for i in range(n - 1)]), {}


def _gm_join(m: int):
    path, _ = _path(m)
    labels = {"p1": 0, "pm": m - 1, "x": m, "x'": m + 1}
    return join(path, Graph(2, [])), labels


def _theta(*lengths):
    """Two branch vertices a, b joined by internally disjoint paths.

    Path lengths must be sorted ascending with the second one >= 2, so at
    most one direct a-b edge exists and the graph stays simple.
    """
    if len(lengths) < 2:
        raise SpecError("theta needs at least two path lengths")
    if list(lengths) != sorted(lengths):
        raise SpecError("theta lengths must be sorted ascending")
    if lengths[0] < 1:
        raise SpecError("theta lengths must be >= 1")
    if lengths[1] < 2:
        raise SpecError("theta allows at most one length-1 path")
    a, b = 0, 1
    nxt = 2
    edges = []
    for length in lengths:
        if length == 1:
            edges.append((a, b))
            continue
        prev = a
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, b))
    return Graph(nxt, edges), {"a": a, "b": b}


def _chain_cycles(k: int, length: int):
    """Chain of k cycles of length ``length`` plus one pendant vertex.

    Consecutive cycles share a single vertex; on every intermediate cycle
    the two shared vertices sit floor(length/2) apart along the ring.  The
    pendant hangs from the vertex of the last cycle floor(length/2) steps
    from that cycle's entry, the same diametral position the chain itself
    uses.
    """
    half = length // 2
    ring = list(range(length))
    edges = [(ring[i], ring[(i + 1) % length]) for i in range(length)]
    nxt = length
    exit_vertex = ring[half]
    for _ in range(1, k):
        ring = [exit_vertex] + list(range(nxt, nxt + length - 1))
        nxt += length - 1
        edges += [(ring[i], ring[(i + 1) % length]) for i in range(length)]
        exit_vertex = ring[half]
    attach = exit_vertex
    pendant = nxt
    edges.append((attach, pendant))
    labels = {"u": pendant, "v": attach}
    return Graph(nxt + 1, edges), labels


# family -> (least value of each parameter, builder of (Graph, label map));
# theta takes any number of lengths, so its builder checks them itself
_FAMILIES = {
    "path": ((1,), _path),
    "cycle": ((3,), lambda n: (Graph(n, [(i, (i + 1) % n) for i in range(n)]), {})),
    "complete": (
        (1,),
        lambda n: (Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)]), {}),
    ),
    "complete_bipartite": (
        (1, 1),
        lambda r, t: (
            Graph(r + t, [(u, w) for u in range(r) for w in range(r, r + t)]),
            {},
        ),
    ),
    "edgeless": ((1,), lambda n: (Graph(n, []), {})),
    "star": (
        (1,),
        lambda k: (Graph(k + 1, [(0, i) for i in range(1, k + 1)]), {"center": 0}),
    ),
    "theta": (None, _theta),
    "gm_join": ((1,), _gm_join),
    "chain_cycles": ((1, 4), _chain_cycles),
}

FAMILIES = tuple(_FAMILIES)


def product(G: Graph, H: Graph, kind: str) -> Graph:
    """Cartesian, direct, or strong product with row-major vertex order.

    Vertex (g, h) becomes g * n(H) + h.  The result may be disconnected
    (e.g. direct products of bipartite graphs).
    """
    if kind not in PRODUCT_KINDS:
        raise SpecError(f"unknown product kind {kind!r}")
    if G.n < 1 or H.n < 1:
        raise SpecError("product factors need at least one vertex")
    nh = H.n
    edges = []
    if kind in ("cartesian", "strong"):
        for g, g2 in G.edges():
            for h in range(nh):
                edges.append((g * nh + h, g2 * nh + h))
        for g in range(G.n):
            for h, h2 in H.edges():
                edges.append((g * nh + h, g * nh + h2))
    if kind in ("direct", "strong"):
        for g, g2 in G.edges():
            for h, h2 in H.edges():
                edges.append((g * nh + h, g2 * nh + h2))
                edges.append((g * nh + h2, g2 * nh + h))
    return Graph(G.n * nh, edges)


def join(G: Graph, H: Graph) -> Graph:
    """Disjoint union of G and H plus all edges between them."""
    off = G.n
    edges = list(G.edges())
    edges += [(u + off, v + off) for u, v in H.edges()]
    edges += [(g, off + h) for g in range(G.n) for h in range(H.n)]
    return Graph(G.n + H.n, edges)


def random_connected(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) resampled until connected.

    Deterministic for a fixed (n, p, seed).  Raises GenerationError after
    ``_MAX_TRIES`` draws with none connected.
    """
    if n < 1:
        raise SpecError("random_connected needs n >= 1")
    if not 0.0 < p <= 1.0:
        raise SpecError("random_connected needs 0 < p <= 1")
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(_MAX_TRIES):
        edges = [e for e in pairs if rng.random() < p]
        candidate = Graph(n, edges)
        if is_connected(candidate):
            return candidate
    raise GenerationError(
        f"no connected graph in {_MAX_TRIES} draws for n={n}, p={p}, seed={seed}"
    )


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree via a Pruefer sequence."""
    if n < 1:
        raise SpecError("random_tree needs n >= 1")
    if n == 1:
        return Graph(1, [])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    # each step joins the least leaf to the next entry; no unused leaf lies
    # below ptr, so the least one is the vertex just freed when it is
    # below ptr, else the first leaf past it
    edges = []
    leaf = ptr = degree.index(1)
    for v in seq:
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = ptr = degree.index(1, ptr + 1)
    # n - 1 is never the least leaf, so it is the other vertex left
    edges.append((leaf, n - 1))
    return Graph(n, edges)
