import pytest

from genpos import (
    FamilySpec,
    Graph,
    generate,
    product,
    random_connected,
    random_tree,
)


@pytest.fixture(scope="session")
def petersen():
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    inner = [(5, 7), (7, 9), (6, 9), (6, 8), (5, 8)]
    return Graph(10, outer + spokes + inner)


@pytest.fixture(scope="session")
def spec_graph(petersen):
    """Graph builder for test ids: a family spec such as ``theta:2,3,3``,
    ``petersen``, ``cartesian:A|B`` (Cartesian product of two family
    specs), ``random_tree:n,seed`` or ``random_connected:n,p,seed``."""

    def build(text):
        kind, _, rest = text.partition(":")
        if kind == "petersen":
            return petersen
        if kind == "cartesian":
            a, b = (generate(FamilySpec.parse(t))[0] for t in rest.split("|"))
            return product(a, b, "cartesian")
        if kind == "random_tree":
            n, seed = rest.split(",")
            return random_tree(int(n), int(seed))
        if kind == "random_connected":
            n, p, seed = rest.split(",")
            return random_connected(int(n), float(p), int(seed))
        return generate(FamilySpec.parse(text))[0]

    return build


@pytest.fixture(scope="session")
def corpus():
    # 300 seeded connected graphs, orders 4..10, three densities
    graphs = []
    for seed in range(300):
        n = 4 + seed % 7
        p = (0.3, 0.45, 0.6)[seed % 3]
        graphs.append(random_connected(n, p, seed))
    return graphs
