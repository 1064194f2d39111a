"""Seeded random network generators for property suites and conjecture scans."""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import OutOfRangeError
from .netgraph import PhyloNetwork
from .rational import Value


def _random_tree(n: int, rng: random.Random, spread: float = 0.35):
    """Random leaf-labeled tree, internal degrees >= 3.

    Grown by leaf insertion: subdividing an edge keeps nodes at degree 3,
    attaching to an existing internal node raises its degree.
    """
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"v{counter[0]}"

    leaves = {1: "x1", 2: "x2"}
    edges: list[tuple[str, str]] = [("x1", "x2")]
    internal: list[str] = []
    for lab in range(3, n + 1):
        node = f"x{lab}"
        leaves[lab] = node
        if internal and rng.random() < spread:
            host = rng.choice(internal)
        else:
            k = rng.randrange(len(edges))
            u, v = edges.pop(k)
            host = fresh()
            internal.append(host)
            edges.append((u, host))
            edges.append((host, v))
        edges.append((host, node))
    return leaves, edges, internal


def _random_weight(rng: random.Random, rationals: bool) -> Value:
    if rationals:
        return Fraction(rng.randint(1, 10), rng.choice((1, 1, 2, 3, 4)))
    return Fraction(rng.randint(1, 10))


def random_one_nested(
    n: int,
    rng: random.Random,
    binary: bool = False,
    cycle_prob: float = 0.8,
    rational_weights: bool = True,
) -> PhyloNetwork:
    """Random weighted 1-nested network with n leaves.

    High-degree tree nodes are expanded into cycles (all of them when
    ``binary``, independently with ``cycle_prob`` otherwise).  Weights are
    positive, exact rationals by default.  Raises OutOfRange for n < 2.
    """
    if n < 2:
        raise OutOfRangeError(f"a network needs at least 2 leaves, got n={n}")
    leaves, plain_edges, internal = _random_tree(n, rng)
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"c{counter[0]}"

    edges: list[tuple[str, str]] = list(plain_edges)
    for node in internal:
        incident = [(u, v) for u, v in edges if node in (u, v)]
        if len(incident) < 4:
            continue
        if not binary and rng.random() > cycle_prob:
            continue
        nbrs = [u if v == node else v for u, v in incident]
        rng.shuffle(nbrs)
        ring = [fresh() for _ in nbrs]
        edges = [(u, v) for u, v in edges if node not in (u, v)]
        for k, nb in enumerate(nbrs):
            edges.append((ring[k], nb))
            edges.append((ring[k], ring[(k + 1) % len(ring)]))
    weighted = [(u, v, _random_weight(rng, rational_weights)) for u, v in edges]
    return PhyloNetwork.build(leaves, weighted, strict=True)


def random_corpus(
    count: int,
    seed: int,
    n_range: tuple[int, int] = (4, 8),
    binary: bool = False,
    rational_weights: bool = True,
) -> list[PhyloNetwork]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(*n_range)
        out.append(
            random_one_nested(
                n, rng, binary=binary, rational_weights=rational_weights
            )
        )
    return out
