"""Networks used across the test modules."""

import heapq
import itertools
import random
from fractions import Fraction

from phylocircuit import linalg
from phylocircuit.errors import NotOneNestedError
from phylocircuit.metrics import (
    DistanceVector,
    min_path_vector,
    pair_iter,
    resistance_vector,
)
from phylocircuit.netgraph import (
    BRIDGE,
    CYCLE,
    CircularOrder,
    PhyloNetwork,
    canonical_order,
    classify,
    cycle_node_sequence,
    edge_key,
    validate,
)
from phylocircuit.randomnet import random_one_nested
from phylocircuit.reconstruct import circular_decomposition
from phylocircuit.splits import Split

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


def two_squares_on_one_node() -> PhyloNetwork:
    """9 leaves, two 4-cycles meeting at the leafless node h; ring nodes
    a1, a3 and b2 carry two leaves each."""
    edges = [
        ("h", "a1", F(1)), ("a1", "a2", F(1)), ("a2", "a3", F(1)),
        ("a3", "h", F(1)), ("h", "b1", F(1)), ("b1", "b2", F(1)),
        ("b2", "b3", F(1)), ("b3", "h", F(1)),
    ]
    hosts = ["a1", "a1", "a2", "a3", "a3", "b1", "b2", "b2", "b3"]
    for i, host in enumerate(hosts, start=1):
        edges.append((f"x{i}", host, F(1)))
    return validate({i: f"x{i}" for i in range(1, 10)}, edges)


def two_leaf_edge(w=F(5)) -> PhyloNetwork:
    return validate({1: "x1", 2: "x2"}, [("x1", "x2", w)])


def _dense_inverse_columns(net: PhyloNetwork, targets) -> dict:
    """Columns of the inverse of (Laplacian + J/m) over all m nodes of the
    network, for the target nodes."""
    nodes = net.nodes
    idx = {v: i for i, v in enumerate(nodes)}
    m = len(nodes)
    exact = net.is_exact
    one_over = Fraction(1, m) if exact else 1.0 / m
    zero = Fraction(0) if exact else 0.0
    gamma = [[one_over for _ in range(m)] for _ in range(m)]
    for u, v, w in net.edge_items:
        c = (Fraction(1) / w) if exact else 1.0 / float(w)
        iu, iv = idx[u], idx[v]
        gamma[iu][iu] += c
        gamma[iv][iv] += c
        gamma[iu][iv] -= c
        gamma[iv][iu] -= c
    cols = []
    for t in targets:
        e = [zero] * m
        e[idx[t]] = Fraction(1) if exact else 1.0
        cols.append(e)
    solve = linalg.solve_exact if exact else linalg.solve_float
    sols = solve(gamma, cols)
    return {t: {v: sols[c][idx[v]] for v in nodes} for c, t in enumerate(targets)}


def resistance_between_nodes(net: PhyloNetwork, pairs) -> dict:
    """Effective resistance between arbitrary node pairs by one dense solve
    over every node of the network."""
    pairs = list(pairs)
    cols = _dense_inverse_columns(net, sorted({x for p in pairs for x in p}))
    return {(u, v): cols[u][u] + cols[v][v] - 2 * cols[u][v] for u, v in pairs}


def resistance_by_dense_solve(net: PhyloNetwork) -> DistanceVector:
    """Resistance vector by one dense solve of (Laplacian + J/m) over every
    node: the oracle for the block-by-block route of ``resistance_vector``."""
    leaves = net.leaves
    pairs = [(leaves[i], leaves[j]) for i, j in pair_iter(net.n)]
    r = resistance_between_nodes(net, pairs)
    return DistanceVector(net.n, tuple(r[p] for p in pairs))


def min_path_by_dijkstra(net: PhyloNetwork) -> DistanceVector:
    """Min-path vector by one heap Dijkstra over the whole network from
    every leaf: the oracle for the block-by-block route of
    ``min_path_vector``."""
    adj = net.adjacency
    leaves = net.leaves
    rows = {}
    for lab in sorted(leaves):
        src = leaves[lab]
        dist = {src: Fraction(0)}
        heap = [(Fraction(0), src)]
        seen = set()
        while heap:
            d, v = heapq.heappop(heap)
            if v in seen:
                continue
            seen.add(v)
            for w, wt in adj[v].items():
                nd = d + wt
                if w not in dist or nd < dist[w]:
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        rows[lab] = dist
    return DistanceVector(net.n, tuple(rows[i][leaves[j]] for i, j in pair_iter(net.n)))


def decomposed_resistance_splits(net: PhyloNetwork):
    """Resistance split system by solving for the vector and decomposing it
    along the canonical order: the oracle for the direct reading."""
    d = resistance_vector(net)
    return circular_decomposition(d, canonical_order(net)).system


def _split_from_cut(net: PhyloNetwork, removed: frozenset) -> Split | None:
    """Split displayed by deleting the given edges, if both sides hold leaves."""
    start = next(iter(next(iter(removed))))
    leaf_of = net.leaf_of_node
    seen, stack, side = {start}, [start], set()
    while stack:
        v = stack.pop()
        if v in leaf_of:
            side.add(leaf_of[v])
        for w in net.adjacency[v]:
            if w not in seen and edge_key(v, w) not in removed:
                seen.add(w)
                stack.append(w)
    if not side or len(side) == net.n:
        return None
    return Split(side, net.n)


def cut_catalog(net: PhyloNetwork) -> dict:
    """Every display of every split, found by deleting each bridge and each
    pair of edges of one cycle and searching the whole network for the leaves
    on one side: the oracle for ``splits.display_catalog``."""
    cls = classify(net)
    if cls.level is None or cls.level > 1:
        raise NotOneNestedError(f"level {cls.level_name} network")
    catalog: dict = {}
    for block in cls.blocks.blocks:
        if block.kind == BRIDGE:
            (e,) = block.edges
            cuts = [((e,), ("bridge", e))]
        else:
            pairs = itertools.combinations(sorted(block.edges, key=sorted), 2)
            cuts = [((e, f), ("pair", block, e, f)) for e, f in pairs]
        for removed, display in cuts:
            s = _split_from_cut(net, frozenset(removed))
            if s is not None:
                catalog.setdefault(s, []).append(display)
    return catalog


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


def with_leaf_chord(net: PhyloNetwork, rng: random.Random) -> PhyloNetwork | None:
    """Level-2 network with a leaf on each of the three paths of its theta:
    a chord across one of the cycles of four or more nodes of ``net``,
    through a new node that carries leaf n + 1 (None when there is no such
    cycle).  No outer-planar drawing shows every leaf, so the vectors of
    such networks often pass the Kalmanson check on no order."""
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
    edges = list(net.edge_items) + [
        (ring[a], "chord", F(rng.randint(1, 10))),
        ("chord", ring[b], F(rng.randint(1, 10))),
        ("chord", "chord_leaf", F(rng.randint(1, 3))),
    ]
    return PhyloNetwork.build({**net.leaves, net.n + 1: "chord_leaf"}, edges, strict=True)


def shuffled_order(n: int, rng: random.Random) -> CircularOrder:
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return CircularOrder(labels)


def _scan_draws(rng: random.Random, count: int, n_range):
    """(networks, orders) per draw: a seeded level-1 network and, when it has
    a cycle of four or more nodes, its chorded level-2 version; the level-1
    network's canonical order and two shuffled orders."""
    for _ in range(count):
        base = random_one_nested(rng.randint(*n_range), rng, binary=rng.random() < 0.5)
        orders = [canonical_order(base)]
        orders += [shuffled_order(base.n, rng) for _ in range(2)]
        nets = [base]
        chorded = with_chord(base, rng)
        if chorded is not None:
            nets.append(chorded)
        yield nets, orders


def scan_networks(seed: int, count: int, n_range=(4, 16)):
    """The networks :func:`scan_corpus` draws its vectors from."""
    for nets, _ in _scan_draws(random.Random(seed), count, n_range):
        yield from nets


def scan_corpus(seed: int, count: int, n_range=(4, 16)):
    """(vector, order) pairs for checking the Kalmanson scan.

    Resistance and min-path vectors of seeded level-1 networks and of
    their chorded level-2 versions, exact and as floats scaled by 1e-3, 1
    and 1e4, each on the level-1 network's canonical order and on two
    shuffled orders; then random rational vectors that need not be metrics.
    """
    rng = random.Random(seed)
    for nets, orders in _scan_draws(rng, count, n_range):
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
