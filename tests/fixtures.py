"""Networks used across the test modules."""

import heapq
import itertools
import random
from fractions import Fraction
from math import lcm

import numpy as np

from phylocircuit import metrics
from phylocircuit.errors import (
    NegativeSplitWeightError,
    NotKalmansonError,
    NotOneNestedError,
    TooLargeForExactError,
)
from phylocircuit.metrics import (
    DistanceVector,
    OrderSearchResult,
    _canonical_labels,
    _label_table,
    _ring_positions,
    is_kalmanson,
    min_path_vector,
    pair_iter,
    resistance_vector,
)
from phylocircuit.netgraph import (
    BRIDGE,
    CYCLE,
    OTHER,
    THETA,
    Block,
    BlockDecomposition,
    CircularOrder,
    PhyloNetwork,
    block_decomposition,
    canonical_order,
    classify,
    cycle_node_sequence,
    edge_key,
    validate,
)
from phylocircuit.randomnet import random_one_nested
from phylocircuit.rational import format_value, tolerance
from phylocircuit.reconstruct import DecompositionResult, circular_decomposition
from phylocircuit.splits import (
    CircularSplitSystem,
    Split,
    network_from_splits,
    split_metric,
)

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


def caterpillar(n: int) -> PhyloNetwork:
    """Tree whose n - 2 internal nodes form a path, one leaf on each and one
    more at both ends: its nontrivial splits nest n - 3 deep."""
    spine = [f"u{k}" for k in range(1, n - 1)]
    hosts = [spine[0], *spine, spine[-1]]
    edges = [(a, b, F(1 + k % 3)) for k, (a, b) in enumerate(zip(spine, spine[1:]))]
    edges += [(hosts[i - 1], f"x{i}", F(i % 4 + 1, 2)) for i in range(1, n + 1)]
    return validate({i: f"x{i}" for i in range(1, n + 1)}, edges)


def square_chain(k: int) -> PhyloNetwork:
    """k 4-cycles in a row joined by bridges between opposite corners; the
    two free corners of each cycle carry leaves, and so do the first and
    last cycle's ends, 2k + 2 leaves in all."""
    edges, hosts = [], []
    for i in range(k):
        a, b, c, d = (f"{t}{i}" for t in "abcd")
        edges += [(a, b, F(1)), (b, c, F(2)), (c, d, F(1, 2)), (d, a, F(3))]
        if i:
            edges.append((f"c{i - 1}", a, F(1 + i % 2)))
        hosts += ([a] if i == 0 else []) + [b, d] + ([c] if i == k - 1 else [])
    edges += [(h, f"x{i}", F(1)) for i, h in enumerate(hosts, start=1)]
    return validate({i: f"x{i}" for i in range(1, len(hosts) + 1)}, edges)


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


def _solve_exact(
    matrix: list[list[Fraction]], rhs: list[list[Fraction]]
) -> list[list[Fraction]]:
    """Solve A X = B exactly, ``rhs`` holding the columns of B: clear the
    denominators, run Bareiss elimination (each division is exact over the
    integers), then back-substitute in rationals."""
    m = len(matrix)
    r = len(rhs)
    denoms = [x.denominator for row in matrix for x in row]
    denoms += [x.denominator for col in rhs for x in col]
    scale = lcm(*denoms) if denoms else 1
    a = [
        [int(matrix[i][j] * scale) for j in range(m)]
        + [int(rhs[c][i] * scale) for c in range(r)]
        for i in range(m)
    ]
    width = m + r
    prev = 1
    for k in range(m):
        piv = next((i for i in range(k, m) if a[i][k] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix: zero pivot column")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
        for i in range(k + 1, m):
            aik = a[i][k]
            akk = a[k][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, width):
                row_i[j] = (akk * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = a[k][k]
    columns = []
    for c in range(r):
        x = [Fraction(0)] * m
        for i in range(m - 1, -1, -1):
            s = Fraction(a[i][m + c])
            for j in range(i + 1, m):
                s -= a[i][j] * x[j]
            x[i] = s / a[i][i]
        columns.append(x)
    return columns


def _solve_float(
    matrix: list[list[float]], rhs: list[list[float]]
) -> list[list[float]]:
    """Solve A X = B in floats by numpy's LAPACK solver, ``rhs`` holding
    the columns of B."""
    a = np.asarray(matrix, dtype=float)
    x = np.linalg.solve(a, np.asarray(rhs, dtype=float).T)
    return [list(map(float, x[:, c])) for c in range(x.shape[1])]


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
    solve = _solve_exact if exact else _solve_float
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


def distance_text_by_pairs(d: DistanceVector, precision: int = 6) -> str:
    """The pair format written one f-string per pair, each value tested for
    float on its own: the oracle for ``metrics.distance_vector_to_text``,
    which fills one template per vector."""
    spec = f".{precision}g"
    lines = [f"n {d.n}"]
    lines += [
        f"{i} {j} {format(v, spec) if type(v) is float else format_value(v, precision)}"
        for (i, j), v in zip(pair_iter(d.n), d.values)
    ]
    return "\n".join(lines) + "\n"


def series_sweep_by_pairs(net: PhyloNetwork, on_cycle, on_other) -> DistanceVector:
    """The block-cut sweep of ``metrics._series_sweep`` with the sum
    d_i + d_pq + d_j formed in full for every pair and the vector read out
    of the square table pair by pair: the oracle for its read-out by row
    slices.  ``on_cycle`` and ``on_other`` are the metric's block rules."""
    decomp = block_decomposition(net)
    exact = net.is_exact
    leaf_nodes = net.leaf_of_node
    portals = decomp.cut_vertices.union(leaf_nodes)
    links = []
    for block in decomp.blocks:
        ends = block.nodes & portals
        link: dict = {p: {} for p in ends}
        if len(ends) < 2:
            pass
        elif block.kind == BRIDGE:
            u, v = ends
            w = net.weight(u, v)
            link[u][v] = link[v][u] = w if exact else float(w)
        elif block.kind == CYCLE:
            ring, z = _ring_positions(net, block, ends)
            for a, (p, x) in enumerate(ring):
                for q, y in ring[:a]:
                    link[p][q] = link[q][p] = on_cycle(x - y, z)
        else:
            link = on_other(net, block, sorted(ends))
        links.append(link)
    zero = Fraction(0) if exact else 0.0
    n, leaves = net.n, net.leaves
    below = {leaves[1]: [(1, zero)]}
    order = []
    stack = [(leaves[1], -1)]
    while stack:
        v, came = stack.pop()
        for bi in decomp.blocks_at[v]:
            if bi != came:
                order.append((bi, v))
                for p in links[bi][v]:
                    below[p] = [(leaf_nodes[p], zero)] if p in leaf_nodes else []
                    stack.append((p, bi))
    full = [[zero] * (n + 1) for _ in range(n + 1)]
    for bi, r in reversed(order):
        link = links[bi]
        met = [(r, below[r])]
        for p in link[r]:
            hang = below.pop(p)
            for q, other in met:
                d_pq = link[p][q]
                for i, d_i in hang:
                    for j, d_j in other:
                        full[i][j] = full[j][i] = d_i + d_pq + d_j
            met.append((p, hang))
        for p, hang in met[1:]:
            d_pr = link[p][r]
            below[r] += [(i, d + d_pr) for i, d in hang]
    return DistanceVector(n, tuple(full[i][j] for i, j in pair_iter(n)))


def decomposed_resistance_splits(net: PhyloNetwork):
    """Resistance split system by solving for the vector and decomposing it
    along the canonical order: the oracle for the direct reading."""
    d = resistance_vector(net)
    return circular_decomposition(d, canonical_order(net)).system


def biconnected_by_sorted_dfs(net: PhyloNetwork) -> tuple[list[frozenset], frozenset]:
    """Iterative Hopcroft-Tarjan over sorted nodes and sorted neighbour
    lists: the oracle for ``netgraph._biconnected``, which follows
    adjacency order.  Returns (edge sets of blocks, cut vertices)."""
    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    parent: dict[str, str | None] = {}
    cuts: set[str] = set()
    components: list[frozenset] = []
    counter = itertools.count()
    edge_stack: list[tuple[str, str]] = []
    for root in net.nodes:
        if root in disc:
            continue
        parent[root] = None
        stack = [(root, iter(net.neighbors(root)))]
        disc[root] = low[root] = next(counter)
        root_children = 0
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w not in disc:
                    parent[w] = v
                    if v == root:
                        root_children += 1
                    edge_stack.append((v, w))
                    disc[w] = low[w] = next(counter)
                    stack.append((w, iter(net.neighbors(w))))
                    advanced = True
                    break
                elif w != parent[v] and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    comp = []
                    while edge_stack:
                        e = edge_stack.pop()
                        comp.append(edge_key(*e))
                        if e == (u, v):
                            break
                    components.append(frozenset(comp))
                    if parent[u] is not None or root_children > 1:
                        cuts.add(u)
    return components, frozenset(cuts)


def _block_by_degree_lists(edges: frozenset) -> Block:
    nodes = frozenset(x for e in edges for x in e)
    deg: dict[str, int] = {v: 0 for v in nodes}
    for e in edges:
        for x in e:
            deg[x] += 1
    if len(edges) == 1:
        kind = BRIDGE
    elif all(d == 2 for d in deg.values()) and len(edges) == len(nodes):
        kind = CYCLE
    elif (
        len(edges) == len(nodes) + 1
        and sorted(deg.values()).count(3) == 2
        and sorted(deg.values()).count(2) == len(nodes) - 2
    ):
        kind = THETA
    else:
        kind = OTHER
    return Block(kind=kind, nodes=nodes, edges=edges)


def blocks_by_edge_lists(net: PhyloNetwork) -> BlockDecomposition:
    """Blocks of the sorted-order search, classified by sorted degree lists
    and ordered by their whole sorted edge lists: the oracle for
    ``netgraph.block_decomposition``, which orders them by least edge."""
    comps, cuts = biconnected_by_sorted_dfs(net)
    blocks = tuple(
        sorted(
            (_block_by_degree_lists(c) for c in comps),
            key=lambda b: sorted(tuple(sorted(e)) for e in b.edges),
        )
    )
    blocks_at: dict[str, list[int]] = {}
    for bi, b in enumerate(blocks):
        for v in b.nodes:
            blocks_at.setdefault(v, []).append(bi)
    return BlockDecomposition(blocks, cuts, blocks_at)


def ring_walk_sorting_each_step(block: Block, start: str | None = None) -> list[str]:
    """Nodes of a cycle block in ring order, choosing the least unvisited
    neighbour at every step: the oracle for ``cycle_node_sequence``."""
    adj: dict[str, list[str]] = {}
    for e in block.edges:
        u, v = sorted(e)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    first = start if start is not None else min(adj)
    seq = [first]
    prev = None
    while True:
        nxt = [x for x in sorted(adj[seq[-1]]) if x != prev]
        prev = seq[-1]
        seq.append(nxt[0])
        if seq[-1] == first:
            seq.pop()
            return seq


def shape_code_reading_every_root(net: PhyloNetwork) -> str:
    """The canonical shape code, every part read again from every leaf
    root: the oracle for ``enum2._shape_code``, which reads each part once."""
    decomp = classify(net).blocks
    blocks, blocks_at = decomp.blocks, decomp.blocks_at

    def read(v: str, entry: int | None) -> str:
        parts = []
        for bi in blocks_at[v]:
            if bi == entry:
                continue
            if blocks[bi].kind == CYCLE:
                walk = ring_walk_sorting_each_step(blocks[bi], start=v)[1:]
                codes = [read(u, bi) for u in walk]
                parts.append("[" + min("".join(codes), "".join(codes[::-1])) + "]")
            else:
                (u,) = blocks[bi].nodes - {v}
                parts.append("b" + read(u, bi))
        return "(" + "".join(sorted(parts)) + ")"

    return min(read(v, None) for v in net.leaf_of_node)


def block_oracle_networks() -> list[PhyloNetwork]:
    """Seeded level-1 networks at n = 4..64, binary and not, the level-2
    networks made from them by a chord or a leaf chord, and K3,3 and K5
    with pendant leaves."""
    nets = []
    for s, n in enumerate([*range(4, 28), *range(28, 65, 4)]):
        rng = random.Random(7000 + s)
        net = random_one_nested(n, rng, binary=s % 2 == 0)
        nets.append(net)
        for grow in (with_chord, with_leaf_chord):
            grown = grow(net, rng)
            if grown is not None:
                nets.append(grown)
    return nets + [k33_with_leaves(), k5_with_leaves()]


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


def canonical_orders(n: int):
    """Every canonical circular order on n labels, lexicographically: the
    orders the exhaustive search walks."""
    return map(CircularOrder, _canonical_labels(n))


def neighbor_net_by_rebuilding(d: DistanceVector) -> CircularOrder:
    """The circular order of NeighborNet's agglomeration (Bryant & Moulton
    2004), with ties going to the first minimum, rebuilding every table
    each round: the oracle for ``metrics._neighbor_net_order``.

    Active nodes form clusters of one or two.  Each round picks the pair
    of clusters minimising Q = (m-2) d(Ci, Cj) - R_i - R_j over cluster
    means, then the node pair x in Ci, y in Cj minimising the same form
    with Ci and Cj split into singletons (m^ = m + |Ci| + |Cj| - 2).  A node
    with two neighbours x-y-z is reduced to u = 2/3 x + 1/3 y and
    v = 1/3 y + 2/3 z, with d(u, v) = (d_xy + d_yz + d_xz) / 3.  Once three
    nodes are left the reductions are undone in reverse, each u, v giving
    back x, y, z in their place.

    Exact input runs on the ints of _label_table; a reduction triples every
    active entry first, so the thirds stay integral.  Cluster means are
    taken times 4 and node sums times 2, again to stay in ints.
    """
    n = d.n
    full, _ = _label_table(d)
    if d.is_exact:
        grow, heavy, light, mean = 3, 2, 1, 1
    else:
        grow, heavy, light, mean = 1, 2 / 3, 1 / 3, 1 / 3
    nodes = list(range(1, n + 1))  # ids of the active rows; a leaf's is its label
    dist = [row[1:] for row in full[1:]]
    partner: dict[int, int] = {}
    reductions = []

    def reduce_three(x: int, y: int, z: int) -> tuple[int, int]:
        nonlocal nodes, dist
        u = n + 2 * len(reductions) + 1
        v = u + 1
        slot = {w: k for k, w in enumerate(nodes)}
        row_x, row_y, row_z = dist[slot[x]], dist[slot[y]], dist[slot[z]]
        keep = [k for k, w in enumerate(nodes) if w not in (x, y, z)]
        to_u = [heavy * row_x[k] + light * row_y[k] for k in keep]
        to_v = [light * row_y[k] + heavy * row_z[k] for k in keep]
        d_uv = mean * (row_x[slot[y]] + row_y[slot[z]] + row_x[slot[z]])
        dist = [
            [grow * dist[k][l] for l in keep] + [to_u[a], to_v[a]]
            for a, k in enumerate(keep)
        ] + [to_u + [0, d_uv], to_v + [d_uv, 0]]
        nodes = [nodes[k] for k in keep] + [u, v]
        for w in (x, y, z):
            partner.pop(w, None)
        reductions.append((x, y, z, u, v))
        return u, v

    while len(nodes) > 3:
        slot = {w: k for k, w in enumerate(nodes)}
        # each cluster as the slots of its two ends, one slot twice for a
        # singleton, so that summing over the ends doubles the mean
        ends = []
        for k, w in enumerate(nodes):
            mate = slot[partner[w]] if w in partner else k
            if mate >= k:
                ends.append((k, mate))
        m = len(ends)
        half = [[row[k] + row[l] for k, l in ends] for row in dist]
        bar = [[a + b for a, b in zip(half[k], half[l])] for k, l in ends]
        r = [sum(row) - row[i] for i, row in enumerate(bar)]
        best = None
        for i in range(m - 1):
            row = bar[i]
            q = [(m - 2) * row[j] - r[j] for j in range(i + 1, m)]
            low = min(q)
            if best is None or low - r[i] < best[0]:
                best = (low - r[i], i, i + 1 + q.index(low))
        _, i, j = best
        members = [sorted(set(ends[c])) for c in (i, j)]
        joined = members[0] + members[1]
        r_hat = {
            x: sum(half[x]) - half[x][i] - half[x][j]
            + 2 * sum(dist[x][z] for z in joined)
            for x in joined
        }
        factor = 2 * (m + len(joined) - 4)
        x, y = min(
            ((x, y) for x in members[0] for y in members[1]),
            key=lambda p: factor * dist[p[0]][p[1]] - r_hat[p[0]] - r_hat[p[1]],
        )
        x, y = nodes[x], nodes[y]
        path = [w for w in (partner.get(x), x, y, partner.get(y)) if w is not None]
        while len(path) > 2:
            path = [*reduce_three(*path[:3]), *path[3:]]
        a, b = path
        partner[a], partner[b] = b, a
    order = nodes
    for x, y, z, u, v in reversed(reductions):
        k = order.index(u)
        order = order[k:] + order[:k]
        if order[1] == v:
            order = [x, y, z] + order[2:]
        else:  # v sits just before u
            order = [x] + order[1:-1] + [z, y]
    return CircularOrder(order)


def smooth_degree_two(net: PhyloNetwork) -> PhyloNetwork:
    """Merge series edges at unlabeled degree-2 nodes."""
    adj = {v: dict(nbrs) for v, nbrs in net.adjacency.items()}
    leaf_nodes = set(net.leaf_of_node)
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if v in leaf_nodes or len(adj[v]) != 2:
                continue
            (a, wa), (b, wb) = sorted(adj[v].items())
            if a == b:
                continue
            del adj[v]
            del adj[a][v]
            del adj[b][v]
            if b in adj[a]:
                # parallel with an existing edge: combine conductances
                old = adj[a][b]
                w = wa + wb
                merged = old * w / (old + w)
                adj[a][b] = merged
                adj[b][a] = merged
            else:
                adj[a][b] = wa + wb
                adj[b][a] = wa + wb
            changed = True
    edges = []
    for u in adj:
        for v, w in adj[u].items():
            if u < v:
                edges.append((u, v, w))
    return PhyloNetwork.build(net.leaves, edges, strict=False)


def without_edge(net: PhyloNetwork, u: str, v: str, smooth: bool = True) -> PhyloNetwork:
    """Delete an edge; optionally merge the degree-2 junctions left behind."""
    key = edge_key(u, v)
    edges = [(a, b, w) for a, b, w in net.edge_items if edge_key(a, b) != key]
    net = PhyloNetwork.build(net.leaves, edges, strict=False)
    return smooth_degree_two(net) if smooth else net


def crossing_classes_by_pairs(spans) -> list[list[int]]:
    """The oracle for ``splits._crossing_classes``: every pair of spans is
    tested, and crossing ones (overlapping, neither holding the other) are
    united, in O(S^2)."""
    parent = list(range(len(spans)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in itertools.combinations(range(len(spans)), 2):
        (lo1, hi1), (lo2, hi2) = spans[i], spans[j]
        overlap = not (hi1 < lo2 or hi2 < lo1)
        nested = (lo1 <= lo2 and hi2 <= hi1) or (lo2 <= lo1 and hi1 <= hi2)
        if overlap and not nested:
            parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(spans)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def kalmanson_order_by_routes(d: DistanceVector, mode: str = "exact", tol=None):
    """``find_kalmanson_order`` with the verdict routed by number kind, the
    oracle for its arc bound: the NeighborNet order is checked by the signs
    of its arc indexes on exact input and by the quadruple scan on float
    input, and exact mode runs NeighborNet on exact input only."""
    exact = d.is_exact
    eps, _ = metrics._tolerance(d, tol, exact)
    n = d.n
    if n <= 3:
        order = CircularOrder(tuple(range(1, n + 1)))
        return OrderSearchResult(order, order, Fraction(0), 1)
    full, scale = _label_table(d)
    order = None
    if mode == "heuristic" or exact:
        order = metrics._neighbor_net_order(d, full, exact)
    arcs = metrics._arc_indices(full, order.labels) if exact else ()
    if exact and all(index >= 0 for p, q, index in arcs if p < q < p + n - 2):
        if mode == "heuristic":
            return OrderSearchResult(order, order, Fraction(0), 1)
        kept = {
            Split(order.labels[p : q + 1], n): None
            for p, q, index in metrics._arc_indices(full, order.labels)
            if index > 0 or not p < q < p + n - 2
        }
        system = CircularSplitSystem.of_order(n, kept, order)
        order = canonical_order(network_from_splits(system))
        rank = metrics._canonical_rank(order.labels)
        return OrderSearchResult(order, order, Fraction(0), rank)
    if mode == "heuristic" and (n > 9 or not exact):
        worst = metrics._worst_excess(full, order.labels, eps)
        if worst is None:
            return OrderSearchResult(order, order, Fraction(0), 1)
        if n > 9:
            worst = Fraction(worst, scale) if exact else worst
            return OrderSearchResult(None, order, worst, 1)
    if n > 9:
        raise TooLargeForExactError(f"n={n} exceeds the exhaustive cap of 9")
    best_labels, best_excess = None, None
    for checked, labels in enumerate(_canonical_labels(n), start=1):
        worst = metrics._worst_excess(full, labels, eps)
        if worst is None:
            order = CircularOrder(labels)
            return OrderSearchResult(order, order, Fraction(0), checked)
        if best_excess is None or worst < best_excess:
            best_labels, best_excess = labels, worst
    if exact:
        best_excess = Fraction(best_excess, scale)
    return OrderSearchResult(None, CircularOrder(best_labels), best_excess, checked)


def decomposition_by_routes(d: DistanceVector, order: CircularOrder, tol=None):
    """``circular_decomposition`` with the verdict routed by number kind,
    the oracle for its arc bound: float input is scanned before the arcs
    are read, and on exact input a negative nontrivial index stops the arc
    loop to name the scan's first violation."""
    exact = d.is_exact
    eps, _ = metrics._tolerance(d, tol, exact)
    metrics._check_order(d, order)
    if not exact:
        violations = is_kalmanson(d, order, tol).violations
        if violations:
            raise NotKalmansonError(*violations[0])
    full, scale = _label_table(d)
    labels = order.labels
    n = d.n
    floor = 0 if exact else tolerance(d.values)
    kept = {}
    negative = None
    for p, q, index in metrics._arc_indices(full, labels):
        w = Fraction(index, 2 * scale) if exact else 0.5 * index
        if w < -eps:
            if not p < q < p + n - 2:
                negative = negative or (Split(labels[p : q + 1], n), w)
            elif exact:
                raise NotKalmansonError(*is_kalmanson(d, order).violations[0])
        elif w > floor:
            kept[Split(labels[p : q + 1], n)] = w
    if negative:
        raise NegativeSplitWeightError(*negative)
    system = CircularSplitSystem.of_order(n, kept, order)
    residual = Fraction(0)
    if not exact:
        residual = max(
            (abs(a - b) for a, b in zip(split_metric(system).values, d.values)),
            default=residual,
        )
    return DecompositionResult(system=system, residual=residual)
