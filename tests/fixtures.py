"""Networks used across the test modules."""

import random
from fractions import Fraction

from phylocircuit.metrics import DistanceVector, min_path_vector, resistance_vector
from phylocircuit.netgraph import (
    CYCLE,
    CircularOrder,
    PhyloNetwork,
    canonical_order,
    classify,
    cycle_node_sequence,
    validate,
)
from phylocircuit.randomnet import random_one_nested

F = Fraction


def quartet_tree(w_inner=F(1), pend=F(1)) -> PhyloNetwork:
    """Binary tree with the nontrivial split {1,2}|{3,4}."""
    return validate(
        {1: "x1", 2: "x2", 3: "x3", 4: "x4"},
        [
            ("x1", "a", pend),
            ("x2", "a", pend),
            ("x3", "b", pend),
            ("x4", "b", pend),
            ("a", "b", w_inner),
        ],
    )


def star(n: int, weights=None) -> PhyloNetwork:
    ws = weights or [F(1)] * n
    return validate(
        {i: f"x{i}" for i in range(1, n + 1)},
        [(f"x{i}", "hub", ws[i - 1]) for i in range(1, n + 1)],
    )


def square_with_pendants(cycle_weights=None, pendant_weights=None) -> PhyloNetwork:
    """4-cycle with one leaf at each corner, ring order 1,2,3,4."""
    cw = cycle_weights or [F(1)] * 4
    pw = pendant_weights or [F(1)] * 4
    corners = ["c1", "c2", "c3", "c4"]
    edges = [(f"x{i}", corners[i - 1], pw[i - 1]) for i in range(1, 5)]
    for k in range(4):
        edges.append((corners[k], corners[(k + 1) % 4], cw[k]))
    return validate({i: f"x{i}" for i in range(1, 5)}, edges)


def ring_with_pendants(n: int, cycle_weights=None, pendant_weights=None) -> PhyloNetwork:
    cw = cycle_weights or [F(1)] * n
    pw = pendant_weights or [F(1)] * n
    corners = [f"c{i}" for i in range(1, n + 1)]
    edges = [(f"x{i}", corners[i - 1], pw[i - 1]) for i in range(1, n + 1)]
    for k in range(n):
        edges.append((corners[k], corners[(k + 1) % n], cw[k]))
    return validate({i: f"x{i}" for i in range(1, n + 1)}, edges)


def k33_with_leaves() -> PhyloNetwork:
    """Complete bipartite 3+3 core, one unit pendant leaf per core node."""
    reds = ["r1", "r2", "r3"]
    blues = ["b1", "b2", "b3"]
    edges = [(r, b, F(1)) for r in reds for b in blues]
    for i, r in enumerate(reds, start=1):
        edges.append((f"x{i}", r, F(1)))
    for i, b in enumerate(blues, start=4):
        edges.append((f"x{i}", b, F(1)))
    return validate({i: f"x{i}" for i in range(1, 7)}, edges)


def k5_with_leaves() -> PhyloNetwork:
    core = [f"k{i}" for i in range(5)]
    edges = [
        (core[i], core[j], F(1)) for i in range(5) for j in range(i + 1, 5)
    ]
    for i in range(5):
        edges.append((f"x{i + 1}", core[i], F(1)))
    return validate({i: f"x{i}" for i in range(1, 6)}, edges)


def triangle_with_leaves(tri=None, pend=None) -> PhyloNetwork:
    """3-cycle with leaves 1 and 4 on corner t1, 2 on t2, 3 on t3."""
    tw = tri or [F(3), F(3), F(3)]
    pw = pend or [F(1)] * 4
    edges = [
        ("t1", "t2", tw[0]),
        ("t2", "t3", tw[1]),
        ("t3", "t1", tw[2]),
        ("x1", "t1", pw[0]),
        ("x2", "t2", pw[1]),
        ("x3", "t3", pw[2]),
        ("x4", "t1", pw[3]),
    ]
    return validate({1: "x1", 2: "x2", 3: "x3", 4: "x4"}, edges)


def two_cycles_with_bridge() -> PhyloNetwork:
    """7 leaves, a 6-cycle and a 4-cycle joined by one internal bridge."""
    edges = []
    hexe = [f"h{i}" for i in range(6)]
    quad = [f"q{i}" for i in range(4)]
    for k in range(6):
        edges.append((hexe[k], hexe[(k + 1) % 6], F(1)))
    for k in range(4):
        edges.append((quad[k], quad[(k + 1) % 4], F(1)))
    edges.append((hexe[0], quad[0], F(1)))
    labels = {}
    for i, h in enumerate(hexe[1:], start=1):
        labels[i] = f"x{i}"
        edges.append((f"x{i}", h, F(1)))
    for i, q in enumerate(quad[1:], start=6):
        labels[i] = f"x{i}"
        edges.append((f"x{i}", q, F(1)))
    return validate(labels, edges)


def two_leaf_edge(w=F(5)) -> PhyloNetwork:
    return validate({1: "x1", 2: "x2"}, [("x1", "x2", w)])


def with_chord(net: PhyloNetwork, rng: random.Random) -> PhyloNetwork | None:
    """Level-2 network: ``net`` plus one chord across one of its cycles of
    four or more nodes (None when it has none)."""
    rings = [
        cycle_node_sequence(block)
        for block in classify(net).blocks.of_kind(CYCLE)
    ]
    rings = [ring for ring in rings if len(ring) >= 4]
    if not rings:
        return None
    ring = rng.choice(rings)
    a = rng.randrange(len(ring))
    b = (a + rng.randrange(2, len(ring) - 1)) % len(ring)
    edges = list(net.edge_items) + [(ring[a], ring[b], F(rng.randint(1, 10)))]
    return PhyloNetwork.build(net.leaves, edges, strict=True)


def shuffled_order(n: int, rng: random.Random) -> CircularOrder:
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return CircularOrder(labels)


def scan_corpus(seed: int, count: int, n_range=(4, 16)):
    """(vector, order) pairs for checking the Kalmanson scan.

    Resistance and min-path vectors of seeded level-1 networks and of
    their chorded level-2 versions, exact and as floats scaled by 1e-3, 1
    and 1e4, each on the level-1 network's canonical order and on two
    shuffled orders; then random rational vectors that need not be metrics.
    """
    rng = random.Random(seed)
    for _ in range(count):
        base = random_one_nested(rng.randint(*n_range), rng, binary=rng.random() < 0.5)
        orders = [canonical_order(base)]
        orders += [shuffled_order(base.n, rng) for _ in range(2)]
        nets = [base]
        chorded = with_chord(base, rng)
        if chorded is not None:
            nets.append(chorded)
        for net in nets:
            for exact in (resistance_vector(net), min_path_vector(net)):
                vectors = [exact] + [
                    DistanceVector(
                        exact.n, tuple(float(v) * scale for v in exact.values)
                    )
                    for scale in (1e-3, 1.0, 1e4)
                ]
                for d in vectors:
                    for order in orders:
                        yield d, order
    for _ in range(count):
        n = rng.randint(4, 9)
        d = DistanceVector(
            n,
            tuple(
                F(rng.randint(0, 20), rng.randint(1, 6))
                for _ in range(n * (n - 1) // 2)
            ),
        )
        yield d, CircularOrder(tuple(range(1, n + 1)))
        yield d, shuffled_order(n, rng)
