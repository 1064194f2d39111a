"""Leaf distance computations and circular-inequality (Kalmanson) checks.

Two metrics are supported: effective resistance (edge weights as resistors)
and minimum path length.  Both add in series across a cut vertex, so both
come from one sweep of the network's block-cut tree.  Each block gives the
distances between its portals, the nodes that are cut vertices or leaves,
and a leaf pair's distance is the sum along the tree path.  A bridge gives
its weight and a cycle a closed form of its arc lengths; any other block
is grown edge by edge in series and rank-one steps (resistance) or
searched by a Dijkstra confined to it (minimum path).  No routine solves a
linear system, and Fractions and floats take the same code.  An
independent series/parallel/wye-delta reduction serves as a cross-check
oracle for resistance.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .errors import (
    ReductionStuckError,
    SizeMismatchError,
    TooLargeForExactError,
    ValidationError,
    ZeroWeightEdgeError,
    line_errors,
)
from .netgraph import (
    BRIDGE,
    CYCLE,
    Block,
    CircularOrder,
    PhyloNetwork,
    block_decomposition,
    block_path,
    cycle_node_sequence,
    edge_key,
)
from .rational import Value, format_value, parse_value, tolerance, values_close


def pair_index(i: int, j: int, n: int) -> int:
    if i > j:
        i, j = j, i
    return (i - 1) * (2 * n - i) // 2 + (j - i - 1)


def pair_iter(n: int) -> Iterator[tuple[int, int]]:
    return itertools.combinations(range(1, n + 1), 2)


@dataclass(frozen=True)
class DistanceVector:
    """Pairwise leaf distances in lexicographic pair order (1,2),(1,3),..."""

    n: int
    values: tuple[Value, ...]

    def __post_init__(self):
        if self.n < 1:
            raise SizeMismatchError(f"a distance vector needs a leaf, got n={self.n}")
        expect = self.n * (self.n - 1) // 2
        if len(self.values) != expect:
            raise SizeMismatchError(
                f"{len(self.values)} entries for n={self.n}, expected {expect}"
            )

    def value(self, i: int, j: int) -> Value:
        if i == j:
            return Fraction(0)
        return self.values[pair_index(i, j, self.n)]

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.values)

    def as_floats(self) -> "DistanceVector":
        return DistanceVector(self.n, tuple(float(v) for v in self.values))


# ---------------------------------------------------------------------------
# distances by blocks


def _check_positive(net: PhyloNetwork) -> None:
    for u, v, w in net.edge_items:
        if w == 0:
            raise ZeroWeightEdgeError(f"edge {u}-{v} has zero weight")


def _block_adjacency(
    net: PhyloNetwork, block: Block, exact: bool
) -> dict[str, list[tuple[str, Value]]]:
    """Each node of a block with its neighbours in the block and the edge
    weights, in sorted order, so that a float sum never follows the hash
    order of ``block.edges``."""
    adj: dict[str, list[tuple[str, Value]]] = {}
    for u, v in sorted(tuple(sorted(e)) for e in block.edges):
        w = net.weight(u, v)
        w = w if exact else float(w)
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    return adj


def _portal_resistances(
    net: PhyloNetwork, block: Block, portals: list[str], exact: bool
) -> dict[str, dict[str, Value]]:
    """Effective resistance between every two portals of one block.

    The block is grown edge by edge in BFS order from its first portal,
    with the resistance between every two nodes placed so far.  An edge
    u-w to a new node w adds in series: R(w, y) = R(u, y) + r.  An edge
    u-v between two placed nodes changes the Laplacian by rank one
    (Sherman & Morrison 1950): with g(x) = R(x, u) - R(x, v), every
    R(x, y) falls by (g(x) - g(y))^2 / (4 (r + R(u, v))).  A block of N
    nodes and cyclomatic number c costs O((c + 1) N^2), the same on
    Fractions and floats.
    """
    adj = _block_adjacency(net, block, exact)
    zero = Fraction(0) if exact else 0.0
    slot = {portals[0]: 0}
    # rows[a][b]: resistance between the nodes placed a-th and b-th; the
    # nodes are placed in the order the BFS visits them
    rows = [[zero]]
    visit = [portals[0]]
    for a, u in enumerate(visit):
        for v, r in adj[u]:
            b = slot.get(v)
            if b is None:
                slot[v] = len(rows)
                row = [x + r for x in rows[a]]
                for old, x in zip(rows, row):
                    old.append(x)
                row.append(zero)
                rows.append(row)
                visit.append(v)
            elif b > a:  # when b < a, v was visited first and took this edge
                k = 4 * (r + rows[a][b])
                g = [x - y for x, y in zip(rows[a], rows[b])]
                for x, gx in enumerate(g):
                    row = rows[x]
                    for y in range(x):
                        row[y] = rows[y][x] = row[y] - (gx - g[y]) ** 2 / k
    out: dict[str, dict[str, Value]] = {p: {} for p in portals}
    for a, p in enumerate(portals):
        row = rows[slot[p]]
        for q in portals[:a]:
            out[p][q] = out[q][p] = row[slot[q]]
    return out


def _ring_positions(
    net: PhyloNetwork, block: Block, portals: frozenset, exact: bool
) -> tuple[list[tuple[str, Value]], Value]:
    """The portals of a cycle block in ring order, each with its arc length
    from the ring's first node, and the length z of the whole ring."""
    ring = cycle_node_sequence(block)
    at = Fraction(0) if exact else 0.0
    placed = []
    for u, v in zip(ring, ring[1:] + ring[:1]):
        if u in portals:
            placed.append((u, at))
        w = net.weight(u, v)
        at += w if exact else float(w)
    return placed, at


def _series_sweep(
    net: PhyloNetwork,
    on_cycle: Callable[[Value, Value], Value],
    on_other: Callable[..., dict[str, dict[str, Value]]],
) -> DistanceVector:
    """Leaf distances of a metric that adds in series across cut vertices.

    The portals are the cut vertices and the leaves.  Each block of the
    cached block-cut tree gives the distances between its own portals: a
    bridge its weight, a cycle ``on_cycle(a, z)`` for two portals an arc a
    apart on a ring of length z, any other block
    ``on_other(net, block, portals, exact)``, which grows the block edge
    by edge (resistance) or searches it from each portal (min-path).  A
    leaf pair's distance is the sum of those along the tree path between
    the two leaves.  Values are Fractions when every weight is and floats
    otherwise, from the same code.
    """
    decomp = block_decomposition(net)
    exact = net.is_exact
    leaf_nodes = net.leaf_of_node
    portals = decomp.cut_vertices.union(leaf_nodes)
    # per block: portal -> other portal -> distance between them
    links = []
    for block in decomp.blocks:
        ends = block.nodes & portals
        link: dict[str, dict[str, Value]] = {p: {} for p in ends}
        if len(ends) < 2:
            pass  # no pair to join
        elif block.kind == BRIDGE:
            u, v = ends
            w = net.weight(u, v)
            link[u][v] = link[v][u] = w if exact else float(w)
        elif block.kind == CYCLE:
            ring, z = _ring_positions(net, block, ends, exact)
            for a, (p, x) in enumerate(ring):
                for q, y in ring[:a]:
                    link[p][q] = link[q][p] = on_cycle(x - y, z)
        else:
            link = on_other(net, block, sorted(ends), exact)
        links.append(link)
    zero = Fraction(0) if exact else 0.0
    n, leaves = net.n, net.leaves
    # root the tree at leaf 1 and list each block with its parent portal,
    # parents first; below[p] collects (label, distance to p) of the
    # leaves hanging below portal p
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
    # children first: a pair is written at the block where its leaves'
    # branches meet, then the block's leaves move up to its parent portal
    full = [[zero] * (n + 1) for _ in range(n + 1)]
    for bi, r in reversed(order):
        link = links[bi]
        met = [(r, below[r])]
        for p in link[r]:
            hang = below.pop(p)
            for q, other in met:
                d_pq = link[p][q]
                for i, d_i in hang:
                    row = full[i]
                    for j, d_j in other:
                        row[j] = full[j][i] = d_i + d_pq + d_j
            met.append((p, hang))
        for p, hang in met[1:]:
            d_pr = link[p][r]
            below[r] += [(i, d + d_pr) for i, d in hang]
    values = [full[i][j] for i, j in pair_iter(n)]
    return DistanceVector(net.n, tuple(values))


def _ring_resistance(a: Value, z: Value) -> Value:
    # the two arcs, a and z - a, in parallel
    return a * (z - a) / z


def resistance_vector(net: PhyloNetwork) -> DistanceVector:
    """Effective resistance between every leaf pair.

    Resistance adds in series across a cut vertex (Klein & Randic 1993),
    so it comes from the block-cut-tree sweep: a bridge gives its weight,
    two portals an arc a apart on a cycle of length z give a (z - a) / z,
    the two arcs in parallel, and any other block is grown edge by edge,
    each edge a series step or a rank-one update (_portal_resistances).
    """
    _check_positive(net)
    return _series_sweep(net, _ring_resistance, _portal_resistances)


# ---------------------------------------------------------------------------
# resistance via circuit reduction (independent oracle)


def resistance_by_reduction(net: PhyloNetwork, i: int, j: int) -> Value:
    """Effective resistance between leaves i and j by circuit reduction.

    Works on the pairwise circuit with series merges, parallel merges,
    dangling-branch pruning, and wye-delta steps.  Raises ReductionStuck
    when no rule applies (possible beyond level-2 circuits).
    """
    _check_positive(net)
    sub = pairwise_circuit(net, i, j)
    s, t = sub.leaves[i], sub.leaves[j]
    edges: list[list] = [[u, v, w] for u, v, w in sub.edge_items]

    def degrees() -> dict[str, int]:
        deg: dict[str, int] = {}
        for u, v, _ in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        return deg

    for _ in range(100000):
        if len(edges) == 1 and {edges[0][0], edges[0][1]} == {s, t}:
            return edges[0][2]
        # self loops carry no current
        loops = [e for e in edges if e[0] == e[1]]
        if loops:
            edges = [e for e in edges if e[0] != e[1]]
            continue
        deg = degrees()
        dangling = sorted(
            v for v, d in deg.items() if d <= 1 and v not in (s, t)
        )
        if dangling:
            v = dangling[0]
            edges = [e for e in edges if v not in (e[0], e[1])]
            continue
        # parallel pair
        by_pair: dict[frozenset, list[int]] = {}
        for k, (u, v, _) in enumerate(edges):
            by_pair.setdefault(edge_key(u, v), []).append(k)
        par = sorted(
            (sorted(key_), ks) for key_, ks in by_pair.items() if len(ks) > 1
        )
        if par:
            _, ks = par[0]
            a, b = ks[0], ks[1]
            w1, w2 = edges[a][2], edges[b][2]
            edges[a][2] = w1 * w2 / (w1 + w2)
            edges.pop(b)
            continue
        # series node
        series = sorted(
            v for v, d in deg.items() if d == 2 and v not in (s, t)
        )
        if series:
            v = series[0]
            inc = [e for e in edges if v in (e[0], e[1])]
            (e1, e2) = inc
            a = e1[0] if e1[1] == v else e1[1]
            b = e2[0] if e2[1] == v else e2[1]
            edges = [e for e in edges if v not in (e[0], e[1])]
            edges.append([a, b, e1[2] + e2[2]])
            continue
        # wye -> delta at a degree-3 junction
        tri = sorted(v for v, d in deg.items() if d == 3 and v not in (s, t))
        if tri:
            v = tri[0]
            inc = [e for e in edges if v in (e[0], e[1])]
            arms = [(e[0] if e[1] == v else e[1], e[2]) for e in inc]
            (na, ra), (nb, rb), (nc, rc) = sorted(arms)
            p = ra * rb + rb * rc + rc * ra
            edges = [e for e in edges if v not in (e[0], e[1])]
            edges.append([na, nb, p / rc])
            edges.append([nb, nc, p / ra])
            edges.append([na, nc, p / rb])
            continue
        raise ReductionStuckError(
            f"no rule applies between {i} and {j} ({len(edges)} edges left)"
        )
    raise ReductionStuckError("reduction did not terminate")


# ---------------------------------------------------------------------------
# minimum path distance


def _ring_min_path(a: Value, z: Value) -> Value:
    return min(a, z - a)


def _portal_min_paths(
    net: PhyloNetwork, block: Block, portals: list[str], exact: bool
) -> dict[str, dict[str, Value]]:
    """Shortest path between every two portals of one block, by a Dijkstra
    from each portal that stays inside the block: a path that leaves it
    through a cut vertex has to come back through the same one."""
    adj = _block_adjacency(net, block, exact)
    zero = Fraction(0) if exact else 0.0
    out: dict[str, dict[str, Value]] = {p: {} for p in portals}
    for a, src in enumerate(portals[:-1]):
        dist = {src: zero}
        heap = [(zero, src)]
        seen = set()
        while heap:
            d, v = heapq.heappop(heap)
            if v in seen:
                continue
            seen.add(v)
            for x, w in adj[v]:
                nd = d + w
                if x not in dist or nd < dist[x]:
                    dist[x] = nd
                    heapq.heappush(heap, (nd, x))
        for q in portals[a + 1 :]:
            out[src][q] = out[q][src] = dist[q]
    return out


def min_path_vector(net: PhyloNetwork) -> DistanceVector:
    """Shortest weighted path length between every leaf pair.

    A shortest path crosses each cut vertex at most once, so minimum path
    adds in series along the block-cut tree like resistance does, from the
    same sweep: a bridge gives its weight, two portals an arc a apart on a
    cycle of length z give min(a, z - a), and any other block a Dijkstra
    from each portal confined to the block.  Zero weights are allowed.
    """
    return _series_sweep(net, _ring_min_path, _portal_min_paths)


# ---------------------------------------------------------------------------
# pairwise circuit


def pairwise_circuit(net: PhyloNetwork, i: int, j: int) -> PhyloNetwork:
    """Union of all simple paths between leaves i and j.

    These are the edges of the blocks along the block-cut-tree path between
    the two pendant edges.
    """
    if i == j:
        raise SizeMismatchError("distinct leaves required")
    keep = set().union(*(b.edges for b in block_path(net, i, j)))
    edges = [(u, v, w) for u, v, w in net.edge_items if edge_key(u, v) in keep]
    return PhyloNetwork.build({i: net.leaves[i], j: net.leaves[j]}, edges, strict=False)


# ---------------------------------------------------------------------------
# Kalmanson condition


@dataclass(frozen=True)
class KalmansonReport:
    order: CircularOrder
    violations: tuple[tuple[tuple[int, int, int, int], Value], ...]
    equalities: int

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def max_violation(self) -> Value:
        return max((v for _, v in self.violations), default=Fraction(0))


def _label_table(d: DistanceVector) -> tuple[list[list[Value | int]], int]:
    """Distances by label: ``full[i][j]`` is d(i, j), 0 on the diagonal.

    For exact ``d`` the entries are Python ints, each distance times
    ``scale``, the lcm of the denominators, so sums and comparisons need no
    Fraction arithmetic; otherwise they are the values unchanged and
    ``scale`` is 1.
    """
    n = d.n
    values = d.values
    scale = 1
    if d.is_exact:
        scale = math.lcm(*(v.denominator for v in values))
        values = [v.numerator * (scale // v.denominator) for v in values]
    full = [[0] * (n + 1) for _ in range(n + 1)]
    for (i, j), v in zip(pair_iter(n), values):
        full[i][j] = full[j][i] = v
    return full, scale


def _scan(rows: list[list], eps: Value) -> tuple[list[tuple], int]:
    """The circular inequality on every quadruple of positions a < b < c < e.

    The excess of a quadruple is max(d_ab + d_ce, d_bc + d_ae) -
    (d_ac + d_be), in the units of ``rows``.  Returns the violations
    (a, b, c, e, excess) with excess > eps, in lexicographic order, and the
    number of equalities, |excess| <= eps.
    """
    n = len(rows)
    neg_eps = -eps
    violations = []
    equalities = 0
    for a in range(n - 3):
        row_a = rows[a]
        for b in range(a + 1, n - 2):
            row_b = rows[b]
            d_ab = row_a[b]
            for c in range(b + 1, n - 1):
                row_c = rows[c]
                d_ac = row_a[c]
                d_bc = row_b[c]
                for e in range(c + 1, n):
                    left = d_ab + row_c[e]
                    right = d_bc + row_a[e]
                    excess = (right if right > left else left) - (
                        d_ac + row_b[e]
                    )
                    if excess > eps:
                        violations.append((a, b, c, e, excess))
                    elif excess >= neg_eps:
                        equalities += 1
    return violations, equalities


def _tolerance(d: DistanceVector, tol: float | None) -> Value:
    """The absolute tolerance of a check: 0 for exact ``d``, else ``tol``
    (in the units of the distances) or ``rational.tolerance(d.values)``,
    REL_TOL times the largest |distance|.  A NaN tolerance would pass every
    comparison and a negative one would turn ties into violations, so
    ``tol`` must be finite and nonnegative; a float ``d`` must be finite
    even when ``tol`` is given."""
    if tol is not None and not 0 <= tol < math.inf:
        raise ValidationError(f"tolerance must be finite and nonnegative, got {tol}")
    if d.is_exact:
        return 0
    default = tolerance(d.values)
    return default if tol is None else tol


def _check_order(d: DistanceVector, order: CircularOrder) -> None:
    if order.n != d.n:
        raise SizeMismatchError(f"order has {order.n} labels, vector has {d.n}")
    if min(order.labels) < 1 or max(order.labels) > d.n:
        raise SizeMismatchError(f"order {order} is not a permutation of 1..{d.n}")


def is_kalmanson(
    d: DistanceVector, order: CircularOrder, tol: float | None = None
) -> KalmansonReport:
    """Check the circular inequality for every quadruple of the order.

    For consecutive labels (i, j, k, l) around the order the condition is
    max(d_ij + d_kl, d_jk + d_il) <= d_ik + d_jl.  Ties count as
    equalities, never violations.  Comparison is exact for rational input;
    float input is compared within REL_TOL times its largest |distance|,
    or within an explicit absolute ``tol``.
    """
    eps = _tolerance(d, tol)
    _check_order(d, order)
    exact = d.is_exact
    full, scale = _label_table(d)
    labels = order.labels
    found, equalities = _scan([[full[i][j] for j in labels] for i in labels], eps)
    violations = tuple(
        (
            (labels[a], labels[b], labels[c], labels[e]),
            Fraction(excess, scale) if exact else excess,
        )
        for a, b, c, e, excess in found
    )
    return KalmansonReport(order=order, violations=violations, equalities=equalities)


def _arcs_nonnegative(full: list[list[int]], labels: Sequence[int]) -> bool:
    """Whether every nontrivial arc of ``labels`` has a nonnegative
    isolation index, read from the int table ``full`` of _label_table.

    The index of the arc at positions p..q is d(p-1, q) + d(p, q+1) -
    d(p-1, q+1) - d(p, q), one side of the circular inequality on the
    quadruple (p-1, p, q, q+1), and each side of the inequality on any
    quadruple is a sum of such indices.  So on exact input this decides
    the check in O(n^2) (Christopher, Farach & Trick 1996).  Each split
    is read once, from the side that misses the last position.
    """
    n = len(labels)
    for p in range(n - 1):
        before, first = full[labels[p - 1]], full[labels[p]]
        for q in range(p + 1, n - 1 if p else n - 2):
            x, y = labels[q], labels[q + 1]
            if before[x] + first[y] < before[y] + first[x]:
                return False
    return True


@dataclass(frozen=True)
class OrderSearchResult:
    """Outcome of a circular-order search.

    ``order`` is None when no order passes; ``best_violation`` is then the
    smallest achievable maximum violation and ``best_order`` attains it.
    """

    order: CircularOrder | None
    best_order: CircularOrder | None
    best_violation: Value
    orders_checked: int

    @property
    def found(self) -> bool:
        return self.order is not None


def _canonical_labels(n: int) -> Iterator[tuple[int, ...]]:
    """Label sequences of the canonical orders, lexicographically."""
    for perm in itertools.permutations(range(2, n + 1)):
        if n < 3 or perm[0] < perm[-1]:
            yield (1,) + perm


def _neighbor_net_order(d: DistanceVector) -> CircularOrder:
    """The circular order of NeighborNet's agglomeration (Bryant & Moulton
    2004), with ties going to the first minimum.

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


def find_kalmanson_order(
    d: DistanceVector, mode: str = "exact", tol: float | None = None
) -> OrderSearchResult:
    """Search for a circular order under which ``d`` passes the check.

    Heuristic mode takes the order of NeighborNet's agglomeration
    (_neighbor_net_order) and checks only that one: by the O(n^2) sign
    test on exact input, by the quadruple scan within the tolerance on
    float input.  For a Kalmanson metric that order is a Kalmanson order
    (Bryant, Moulton & Spillner 2007, "Consistency of the Neighbor-Net
    algorithm").  The same holds for every Kalmanson vector, metric or
    not: d(x, y) += a_x + a_y changes neither NeighborNet's choices (Q and
    its node form move by one constant per round, and the reductions carry
    the terms along) nor the circular inequality, and a large enough a
    makes any vector a metric.  So on exact input a miss means that no
    order exists, decided in O(n^3) at any n.  When the order fails, n <= 9
    falls back to the exhaustive search; above that the order is reported
    with its maximum violation.

    Exact mode enumerates the (n-1)!/2 canonical orders lexicographically
    (n <= 9) and returns the first that passes, or, when none does, the
    first order with the least maximum violation.  On exact input a
    passing NeighborNet order first tells whether an order exists; if one
    does, each order is checked by the O(n^2) sign test of its arcs.
    """
    if mode not in ("exact", "heuristic"):
        raise ValidationError(
            f"unknown search mode {mode!r}; expected 'exact' or 'heuristic'"
        )
    eps = _tolerance(d, tol)
    n = d.n
    if n <= 3:
        order = CircularOrder(tuple(range(1, n + 1)))
        return OrderSearchResult(order, order, Fraction(0), 1)
    if mode == "heuristic":
        order = _neighbor_net_order(d)
        report = None
        if not (d.is_exact and _arcs_nonnegative(_label_table(d)[0], order.labels)):
            report = is_kalmanson(d, order, tol)
        if report is None or report.passed:
            return OrderSearchResult(order, order, Fraction(0), 1)
        if n <= 9:
            return find_kalmanson_order(d, "exact", tol)
        return OrderSearchResult(None, order, report.max_violation, 1)
    if n > 9:
        raise TooLargeForExactError(f"n={n} exceeds the exhaustive cap of 9")
    full, scale = _label_table(d)
    if d.is_exact and _arcs_nonnegative(full, _neighbor_net_order(d).labels):
        for checked, labels in enumerate(_canonical_labels(n), start=1):
            if _arcs_nonnegative(full, labels):
                order = CircularOrder(labels)
                return OrderSearchResult(order, order, Fraction(0), checked)
    # no order passes on exact input; float input is checked order by order
    best_labels, best_excess = None, None
    checked = 0
    for labels in _canonical_labels(n):
        checked += 1
        violations, _ = _scan([[full[i][j] for j in labels] for i in labels], eps)
        if not violations:
            order = CircularOrder(labels)
            return OrderSearchResult(order, order, Fraction(0), checked)
        worst = max(hit[4] for hit in violations)
        if best_excess is None or worst < best_excess:
            best_labels, best_excess = labels, worst
    if d.is_exact:
        best_excess = Fraction(best_excess, scale)
    return OrderSearchResult(None, CircularOrder(best_labels), best_excess, checked)


# ---------------------------------------------------------------------------
# serialization


def _parse_distance(text: str, exact: bool) -> Value:
    value = parse_value(text, exact)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite distance {text}")
    return value


def parse_distance_vector(text: str, exact: bool = False) -> DistanceVector:
    """Pair format (``n <count>`` header then ``i j value`` lines) or a
    PHYLIP-like square matrix (first line n, then n rows of n values)."""
    # lazy, so a large pair file is not also held as per-line tuples
    numbered = (
        (lineno, raw, raw.split("#", 1)[0].split())
        for lineno, raw in enumerate(text.splitlines(), start=1)
    )
    lines = (line for line in numbered if line[2])
    first = next(lines, None)
    if first is None:
        raise SizeMismatchError("empty distance file")
    head_no, head_raw, head = first
    if head[0] == "n" and len(head) == 2:
        with line_errors(head_no, head_raw):
            n = int(head[1])
        values: dict[tuple[int, int], Value] = {}
        for lineno, raw, fields in lines:
            with line_errors(lineno, raw):
                i_s, j_s, v_s = fields
                i, j = sorted((int(i_s), int(j_s)))
                value = _parse_distance(v_s, exact)
            if not 1 <= i <= j <= n:
                problem = f"label outside 1..{n}"
            elif i == j:
                problem = "self pair"
            elif (i, j) in values:
                problem = "repeated pair"
            else:
                values[(i, j)] = value
                continue
            raise ValidationError(f"line {lineno}: {problem} in {raw!r}")
        try:
            ordered = tuple(values[(i, j)] for i, j in pair_iter(n))
        except KeyError as exc:
            raise SizeMismatchError(f"missing pair {exc}") from exc
        return DistanceVector(n, ordered)
    if len(head) == 1:
        with line_errors(head_no, head_raw):
            n = int(head[0])
        rows = list(itertools.islice(lines, max(n, 0)))
        if len(rows) != n or any(len(fields) != n for _, _, fields in rows):
            raise SizeMismatchError("square matrix shape mismatch")
        extra = next(lines, None)
        if extra is not None:
            lineno, raw, _ = extra
            raise ValidationError(f"line {lineno}: extra line after the matrix in {raw!r}")

        def entry(r: int, c: int) -> Value:
            lineno, raw, fields = rows[r - 1]
            with line_errors(lineno, raw):
                return _parse_distance(fields[c - 1], exact)

        for i in range(1, n + 1):
            if entry(i, i) != 0:
                lineno, raw, _ = rows[i - 1]
                raise ValidationError(f"line {lineno}: nonzero diagonal in {raw!r}")
        vals = []
        for i, j in pair_iter(n):
            a, b = entry(i, j), entry(j, i)
            if not values_close(a, b):
                raise SizeMismatchError(f"asymmetric entries for ({i},{j})")
            vals.append(a)
        return DistanceVector(n, tuple(vals))
    raise SizeMismatchError("unrecognized distance format")


def load_distance_vector(path: str, exact: bool = False) -> DistanceVector:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_distance_vector(fh.read(), exact)


def distance_vector_to_text(d: DistanceVector, precision: int = 6) -> str:
    # format_value's rule, with the float spec built once per vector
    spec = f".{precision}g"
    lines = [f"n {d.n}"]
    lines += [
        f"{i} {j} {format(v, spec) if type(v) is float else format_value(v, precision)}"
        for (i, j), v in zip(pair_iter(d.n), d.values)
    ]
    return "\n".join(lines) + "\n"
