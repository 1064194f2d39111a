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
oracle for resistance.  No routine here chooses exact or float: a
network's weights are all one kind (``PhyloNetwork.build``), and every
kernel reads a distance vector through ``_scaled_values``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
from typing import Callable, Iterator, Sequence

from .errors import (
    MALFORMED,
    ReductionStuckError,
    SizeMismatchError,
    TooLargeForExactError,
    ValidationError,
    ZeroWeightEdgeError,
    cannot_parse,
)
from .netgraph import (
    BRIDGE,
    CYCLE,
    Block,
    CircularOrder,
    PhyloNetwork,
    block_decomposition,
    block_path,
    canonical_order,
    cycle_node_sequence,
    edge_key,
)
from .rational import Value, format_value, parse_value, tolerance, values_close


def pair_index(i: int, j: int, n: int) -> int:
    if i > j:
        i, j = j, i
    return (i - 1) * (2 * n - i) // 2 + (j - i - 1)


def _entry_index(i: int, j: int, n: int) -> int | None:
    """pair_index of two int labels in 1..n (no bool); None when i == j."""
    for label in (i, j):
        if isinstance(label, bool) or not isinstance(label, int) or not 1 <= label <= n:
            raise SizeMismatchError(f"no leaf {label!r} in a vector on 1..{n}")
    return None if i == j else pair_index(i, j, n)


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
        k = _entry_index(i, j, self.n)
        return Fraction(0) if k is None else self.values[k]

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
    net: PhyloNetwork, block: Block
) -> dict[str, list[tuple[str, Value]]]:
    """Each node of a block with its neighbours in the block and the edge
    weights, in sorted order, so that a float sum never follows the hash
    order of ``block.edges``."""
    adj: dict[str, list[tuple[str, Value]]] = {}
    for u, v in sorted(tuple(sorted(e)) for e in block.edges):
        w = net.weight(u, v)
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    return adj


def _portal_resistances(
    net: PhyloNetwork, block: Block, portals: list[str]
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
    adj = _block_adjacency(net, block)
    slot = {portals[0]: 0}
    # rows[a][b]: resistance between the nodes placed a-th and b-th; the
    # nodes are placed in the order the BFS visits them
    rows = [[0]]
    visit = [portals[0]]
    for a, u in enumerate(visit):
        for v, r in adj[u]:
            b = slot.get(v)
            if b is None:
                slot[v] = len(rows)
                row = [x + r for x in rows[a]]
                for old, x in zip(rows, row):
                    old.append(x)
                row.append(0)
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
    net: PhyloNetwork, block: Block, portals: frozenset
) -> tuple[list[tuple[str, Value]], Value]:
    """The portals of a cycle block in ring order, each with its arc length
    from the ring's first node, and the length z of the whole ring."""
    ring = cycle_node_sequence(block)
    at = 0
    placed = []
    for u, v in zip(ring, ring[1:] + ring[:1]):
        if u in portals:
            placed.append((u, at))
        at += net.weight(u, v)
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
    ``on_other(net, block, portals)``, which grows the block edge by edge
    (resistance) or searches it from each portal (min-path).  A leaf
    pair's distance is the sum of those along the tree path between the
    two leaves: the blocks are taken children first, in the order the
    block search closed them, and each passes its leaves' distances up to
    its entry, its node nearest leaf 1.  Values take the type of the
    weights, which ``PhyloNetwork.build`` makes all Fractions or all
    floats, from the same code.  Each pair is written to both halves of a
    square table, and the vector is read out as the part of each row right
    of the diagonal.
    """
    decomp = block_decomposition(net)
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
            link[u][v] = link[v][u] = net.weight(u, v)
        elif block.kind == CYCLE:
            ring, z = _ring_positions(net, block, ends)
            for a, (p, x) in enumerate(ring):
                for q, y in ring[:a]:
                    link[p][q] = link[q][p] = on_cycle(x - y, z)
        else:
            link = on_other(net, block, sorted(ends))
        links.append(link)
    n = net.n
    # below[p] collects (label, distance to p) of the leaves hanging below
    # portal p; children first, a pair is written at the block where its
    # leaves' branches meet, then the block's leaves move up to its entry r
    below = {p: [(leaf_nodes[p], 0)] if p in leaf_nodes else [] for p in portals}
    full = [[0] * (n + 1) for _ in range(n + 1)]
    for bi in decomp.children_first:
        r = decomp.entries[bi]
        link = links[bi]
        met = [(r, below[r])]
        for p in link[r]:
            hang = below.pop(p)
            for q, other in met:
                if not other:
                    continue  # a portal with no leaf below it yet
                d_pq = link[p][q]
                for i, d_i in hang:
                    row = full[i]
                    d_ipq = d_i + d_pq
                    for j, d_j in other:
                        row[j] = full[j][i] = d_ipq + d_j
            met.append((p, hang))
        for p, hang in met[1:]:
            d_pr = link[p][r]
            below[r] += [(i, d + d_pr) for i, d in hang]
    values: list[Value] = []
    for i in range(1, n):
        values += full[i][i + 1 :]
    return DistanceVector(n, tuple(values))


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
    net: PhyloNetwork, block: Block, portals: list[str]
) -> dict[str, dict[str, Value]]:
    """Shortest path between every two portals of one block, by a Dijkstra
    from each portal that stays inside the block: a path that leaves it
    through a cut vertex has to come back through the same one."""
    adj = _block_adjacency(net, block)
    out: dict[str, dict[str, Value]] = {p: {} for p in portals}
    for a, src in enumerate(portals[:-1]):
        dist = {src: 0}
        heap = [(0, src)]
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


def _scaled_values(d: DistanceVector) -> tuple[list[int] | list[float], int]:
    """The values of ``d`` as a kernel reads them, and their scale.

    For exact ``d`` they are Python ints, each distance times ``scale``,
    the lcm of the denominators, so sums and comparisons need no Fraction
    arithmetic; otherwise they are all floats, and ``scale`` is 1.
    """
    values = d.values
    if d.is_exact:
        scale = math.lcm(*(v.denominator for v in values))
        return [v.numerator * (scale // v.denominator) for v in values], scale
    return [float(v) for v in values], 1


def _label_table(d: DistanceVector) -> tuple[list[list[int | float]], int]:
    """Distances by label: ``full[i][j]`` is d(i, j), 0 on the diagonal,
    read by ``_scaled_values``, whose scale it returns."""
    n = d.n
    values, scale = _scaled_values(d)
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


def _tolerance(d: DistanceVector, tol: float | None, exact: bool) -> Value:
    """The absolute tolerance of a check: 0 for exact ``d`` (``exact`` is
    ``d.is_exact``, which every caller reads anyway), else ``tol``
    (in the units of the distances) or ``rational.tolerance(d.values)``,
    REL_TOL times the largest |distance|.  A NaN tolerance would pass every
    comparison and a negative one would turn ties into violations, so
    ``tol`` must be finite and nonnegative; a float ``d`` must be finite
    even when ``tol`` is given."""
    if tol is not None and not 0 <= tol < math.inf:
        raise ValidationError(f"tolerance must be finite and nonnegative, got {tol}")
    if exact:
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
    exact = d.is_exact
    eps = _tolerance(d, tol, exact)
    _check_order(d, order)
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


def _arc_indices(full: list[list], labels: Sequence[int]) -> Iterator[tuple]:
    """``(p, q, index)`` for each arc p..q of positions of ``labels`` that
    misses the last one; it is trivial when q == p or q - p == n - 2.  The
    index, in the units of ``full`` (_label_table), is d(p-1, q) +
    d(p, q+1) - d(p-1, q+1) - d(p, q); each side of the circular inequality
    is a sum of nontrivial ones, so on exact input their signs decide the check
    (Christopher, Farach & Trick 1996), lazily, to stop at a negative one."""
    n = len(labels)
    for p in range(n - 1):
        before, first = full[labels[p - 1]], full[labels[p]]
        for q in range(p, n - 1):
            x, y = labels[q], labels[q + 1]
            yield p, q, before[x] + first[y] - before[y] - first[x]


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


def _canonical_rank(labels: Sequence[int]) -> int:
    """Place of canonical ``labels`` in _canonical_labels, from 1, in O(n^2):
    each c < l_k left at position k skips (left - 2)! middles for each last
    label left above l_1 but c (above c at k = 1)."""
    rest, rank, low = sorted(labels[1:]), 1, 0
    for k in range(1, len(labels) - 1):
        s, i = len(rest), rest.index(labels[k])  # i: the labels left below l_k
        if k == 1:  # the last label is any one above c
            passed, low = i * (s - 1) - i * (i - 1) // 2, i
        else:  # any one above l_1 (low of those left lie below it) but c
            passed = i * (s - low) - max(0, i - low)
            low -= labels[k] < labels[1]
        rank += passed * math.factorial(s - 2)
        del rest[i]
    return rank


#: reductions between two growths of the exact NeighborNet tables; 3^16 <
#: 2^26, so a growth adds at most one 30-bit digit to CPython's ints
_GROWTH = 16


def _neighbor_net_order(
    d: DistanceVector,
    full: list[list[int | float]] | None = None,
    exact: bool | None = None,
) -> CircularOrder:
    """The circular order of NeighborNet's agglomeration (Bryant & Moulton
    2004), with ties going to the first minimum.

    Active nodes form clusters of one or two.  Each round picks the pair
    of clusters minimising Q = (m-2) d(Ci, Cj) - R_i - R_j over cluster
    means, then the node pair x in Ci, y in Cj minimising the same form
    with Ci and Cj split into singletons (m^ = m + |Ci| + |Cj| - 2).  A node
    with two neighbours x-y-z is reduced to u = 2/3 x + 1/3 y and
    v = 1/3 y + 2/3 z, with d(u, v) = (d_xy + d_yz + d_xz) / 3.  Once three
    nodes are left the reductions are undone in reverse, each u, v giving
    back x, y, z in their place.  Clusters are ordered by their first node,
    nodes by label with each new pair at the end.  Ties go to the first
    pair of clusters i < j in row-major order, then to the first node pair.

    The tables live across rounds: ``dist`` between nodes, the cluster
    order as the lists ``firsts`` and ``lasts`` of each cluster's ends, and
    ``bar``, four times the mean distance between two clusters.  A new node
    takes over the row and column of ``dist`` of a node it replaces, u
    those of x and v those of y, so a reduction writes two rows and two
    columns, O(m).  Pairing two singletons rewrites the first one's row and
    column of ``bar`` and deletes the second's; a reduction deletes the two
    clusters and appends the new pair's row and column; both O(m).  Each
    entry of ``bar`` is summed once, when its cluster appears, in the same
    association for exact and float input, so no float order depends on
    when an entry was made.  The O(m^2) steps left per round run in C: the
    row sums R (``sum``) and the pass over Q, row by row (``map``).

    Exact input runs on the ints of _label_table, and a reduction takes
    thirds.  So the first reduction, and every _GROWTH-th after it, first
    multiplies both tables by 3^_GROWTH (3^k when at most k reductions
    remain; there are at most n - 2, as a round whose path has four nodes
    runs two), and each third until the next growth is an exact ``//``.
    The ints grow with the reductions as if each tripled the table, but the
    tables are walked once per _GROWTH reductions.  Scaling every entry by
    one positive constant changes no comparison.

    ``full`` and ``exact`` are ``_label_table(d)[0]`` and ``d.is_exact``,
    for a caller that reads them anyway.
    """
    n = d.n
    if full is None:
        full, _ = _label_table(d)
        exact = d.is_exact
    # node ids index the rows of dist; a leaf's is its label
    dist = [row[:] for row in full]
    nodes = list(range(1, n + 1))
    # cluster c has the ends firsts[c] and lasts[c] in node order, a
    # singleton its one node twice, so that summing over the ends doubles
    # the mean
    firsts, lasts = nodes[:], nodes[:]
    bar = [[4 * v for v in row[1:]] for row in dist[1:]]
    partner: dict[int, int] = {}
    reductions = []
    spare = 0  # exact thirds left before the tables must grow

    def half(row: list) -> list:
        """``row[first] + row[last]`` for each cluster: twice the mean
        distance to it from the node whose row of ``dist`` is ``row``."""
        get = row.__getitem__
        return list(map(add, map(get, firsts), map(get, lasts)))

    def reduce_three(x: int, y: int, z: int) -> tuple[int, int]:
        nonlocal spare
        row_x, row_y, row_z = dist[x], dist[y], dist[z]
        if exact:
            if not spare:
                spare = min(_GROWTH, n - 2 - len(reductions))
                grow = itertools.repeat(3**spare)
                for row in itertools.chain(dist, bar):
                    row[:] = map(mul, row, grow)
            spare -= 1
            to_u = [(2 * a + b) // 3 for a, b in zip(row_x, row_y)]
            to_v = [(b + 2 * c) // 3 for b, c in zip(row_y, row_z)]
            d_uv = (row_x[y] + row_y[z] + row_x[z]) // 3
        else:
            to_u = [2 / 3 * a + 1 / 3 * b for a, b in zip(row_x, row_y)]
            to_v = [1 / 3 * b + 2 / 3 * c for b, c in zip(row_y, row_z)]
            d_uv = 1 / 3 * (row_x[y] + row_y[z] + row_x[z])
        for w in (x, y, z):
            nodes.remove(w)
            partner.pop(w, None)
        for w in nodes:
            row = dist[w]
            row[x], row[y] = to_u[w], to_v[w]
        to_u[x], to_u[y], to_v[x], to_v[y] = 0, d_uv, d_uv, 0
        dist[x], dist[y] = to_u, to_v
        nodes.extend((x, y))
        reductions.append((x, y, z))
        return x, y

    while len(nodes) > 3:
        m = len(bar)
        r = [sum(row) - row[i] for i, row in enumerate(bar)]
        times = itertools.repeat(m - 2)
        best = None
        for i in range(m - 1):
            low = min(map(sub, map(mul, times, bar[i][i + 1 :]), r[i + 1 :]))
            if best is None or low - r[i] < best[0]:
                best = (low - r[i], i, low)
        _, i, low = best
        q = list(map(sub, map(mul, times, bar[i][i + 1 :]), r[i + 1 :]))
        j = i + 1 + q.index(low)
        members = [list(dict.fromkeys((firsts[c], lasts[c]))) for c in (i, j)]
        joined = members[0] + members[1]
        if len(joined) == 2:
            # two singletons pair up where the first of them stood
            x, y = joined
            del bar[j], firsts[j], lasts[j]
            lasts[i] = y
            for row, value in zip(bar, half(list(map(add, dist[x], dist[y])))):
                del row[j]
                row[i] = value
            bar[i] = list(map(add, half(dist[x]), half(dist[y])))
            partner[x], partner[y] = y, x
            continue
        r_hat = {}
        for x in joined:
            row = dist[x]
            to_all = half(row)
            inside = sum(map(row.__getitem__, joined))
            r_hat[x] = sum(to_all) - to_all[i] - to_all[j] + 2 * inside
        factor = 2 * (m + len(joined) - 4)
        x, y = min(
            ((x, y) for x in members[0] for y in members[1]),
            key=lambda p: factor * dist[p[0]][p[1]] - r_hat[p[0]] - r_hat[p[1]],
        )
        path = [w for w in (partner.get(x), x, y, partner.get(y)) if w is not None]
        while len(path) > 2:
            path = [*reduce_three(*path[:3]), *path[3:]]
        x, y = path
        del bar[j], bar[i], firsts[j], firsts[i], lasts[j], lasts[i]
        firsts.append(x)
        lasts.append(y)
        # bar[c][new] sums the entries between the ends of c and those of
        # new, as the new row does from the other side
        for row, value in zip(bar, half(list(map(add, dist[x], dist[y])))):
            del row[j], row[i]
            row.append(value)
        bar.append(list(map(add, half(dist[x]), half(dist[y]))))
        partner[x], partner[y] = y, x
    order = nodes
    for x, y, z in reversed(reductions):
        # u took the id of x and v that of y
        k = order.index(x)
        order = order[k:] + order[:k]
        if order[1] == y:
            order = [x, y, z] + order[2:]
        else:  # v sits just before u
            order = [x] + order[1:-1] + [z, y]
    return CircularOrder(order)


def _worst_excess(full: list[list], labels: Sequence[int], eps: Value) -> Value | None:
    """The largest excess of the quadruples of ``labels`` that violate the
    circular inequality beyond ``eps``, in the units of ``full``, or None
    when none does."""
    violations, _ = _scan([[full[i][j] for j in labels] for i in labels], eps)
    return max(hit[4] for hit in violations) if violations else None


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

    Exact mode returns the least passing canonical order and, as
    ``orders_checked``, its place in their lexicographic enumeration, or,
    when none passes, the first with the least maximum violation.  On exact
    input with a passing NeighborNet order it is built at any n: there the
    nontrivial arcs of positive index are the d-splits (Bandelt & Dress
    1992), the same on every passing order, and an order passes exactly
    when each is one of its arcs; the orders that keep a circular system's
    splits contiguous are the consistent orders of its rebuild, its PC-tree
    (Hsu & McConnell 2003: junctions are P-nodes, cycles C-nodes), and
    canonical_order is the least.  The rebuild takes every trivial arc,
    whatever its sign.  Else the orders are scanned in turn (n <= 9, else
    TooLargeForExactError).

    The vector is read once: one table from _label_table serves
    NeighborNet, the sign test and the scans.
    """
    if mode not in ("exact", "heuristic"):
        raise ValidationError(
            f"unknown search mode {mode!r}; expected 'exact' or 'heuristic'"
        )
    exact = d.is_exact
    eps = _tolerance(d, tol, exact)
    n = d.n
    if n <= 3:
        order = CircularOrder(tuple(range(1, n + 1)))
        return OrderSearchResult(order, order, Fraction(0), 1)
    full, scale = _label_table(d)
    # on exact input the NeighborNet order passes exactly when some order does
    order = _neighbor_net_order(d, full, exact) if mode == "heuristic" or exact else None
    arcs = _arc_indices(full, order.labels) if exact else ()
    if exact and all(index >= 0 for p, q, index in arcs if p < q < p + n - 2):
        if mode == "heuristic":
            return OrderSearchResult(order, order, Fraction(0), 1)
        from .splits import CircularSplitSystem, Split, network_from_splits
        kept = {
            Split(order.labels[p : q + 1], n): None
            for p, q, index in _arc_indices(full, order.labels)
            if index > 0 or not p < q < p + n - 2
        }
        system = CircularSplitSystem.of_order(n, kept, order)
        order = canonical_order(network_from_splits(system))
        rank = _canonical_rank(order.labels)
        return OrderSearchResult(order, order, Fraction(0), rank)
    if mode == "heuristic" and (n > 9 or not exact):
        worst = _worst_excess(full, order.labels, eps)
        if worst is None:
            return OrderSearchResult(order, order, Fraction(0), 1)
        if n > 9:
            return OrderSearchResult(
                None, order, Fraction(worst, scale) if exact else worst, 1
            )
    if n > 9:
        raise TooLargeForExactError(f"n={n} exceeds the exhaustive cap of 9")
    # no order passes on exact input; float input is checked order by order
    best_labels, best_excess = None, None
    for checked, labels in enumerate(_canonical_labels(n), start=1):
        worst = _worst_excess(full, labels, eps)
        if worst is None:
            order = CircularOrder(labels)
            return OrderSearchResult(order, order, Fraction(0), checked)
        if best_excess is None or worst < best_excess:
            best_labels, best_excess = labels, worst
    if exact:
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
    lineno, raw, head = first
    if head[0] == "n" and len(head) == 2:
        values: dict[tuple[int, int], Value] = {}
        # one handler for the header and the whole loop; lineno and raw name
        # the line it stopped at, and the checks below raise no MALFORMED error
        try:
            n = int(head[1])
            for lineno, raw, fields in lines:
                i_s, j_s, v_s = fields
                i, j = int(i_s), int(j_s)
                value = _parse_distance(v_s, exact)
                if i > j:
                    i, j = j, i
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
        except MALFORMED as exc:
            raise cannot_parse(lineno, raw) from exc
        try:
            ordered = tuple(values[(i, j)] for i, j in pair_iter(n))
        except KeyError as exc:
            raise SizeMismatchError(f"missing pair {exc}") from exc
        return DistanceVector(n, ordered)
    if len(head) == 1:
        # one handler for the whole matrix, diagonal first, then pair by
        # pair; lineno and raw name the line it stopped at, as above
        try:
            n = int(head[0])
            rows = list(itertools.islice(lines, max(n, 0)))
            if len(rows) != n or any(len(fields) != n for _, _, fields in rows):
                raise SizeMismatchError("square matrix shape mismatch")
            extra = next(lines, None)
            if extra is not None:
                lineno, raw, _ = extra
                raise ValidationError(f"line {lineno}: extra line after the matrix in {raw!r}")
            for i, (lineno, raw, fields) in enumerate(rows):
                if _parse_distance(fields[i], exact) != 0:
                    raise ValidationError(f"line {lineno}: nonzero diagonal in {raw!r}")
            vals = []
            for i, j in pair_iter(n):
                lineno, raw, fields = rows[i - 1]
                a = _parse_distance(fields[j - 1], exact)
                lineno, raw, fields = rows[j - 1]
                b = _parse_distance(fields[i - 1], exact)
                if not values_close(a, b):
                    raise SizeMismatchError(f"asymmetric entries for ({i},{j})")
                vals.append(a)
        except MALFORMED as exc:
            raise cannot_parse(lineno, raw) from exc
        return DistanceVector(n, tuple(vals))
    raise SizeMismatchError("unrecognized distance format")


def load_distance_vector(path: str, exact: bool = False) -> DistanceVector:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_distance_vector(fh.read(), exact)


def distance_vector_to_text(d: DistanceVector, precision: int = 6) -> str:
    """The pair format that :func:`parse_distance_vector` reads.

    An ``n <count>`` header, then one ``i j value`` line per pair with
    i < j, in the vector's order (1,2), (1,3), ..., (n-1,n); every line
    ends in a newline.  Values follow ``format_value``: a float is written
    with ``precision`` significant digits (``%g``), a Fraction as p/q, or
    as an integer when q = 1, and any other number as a float.
    """
    n, values = d.n, tuple(d.values)
    if all(type(v) is float for v in values):
        # '%.Ng' % v and format(v, '.Ng') share one float formatter
        spec = f"%.{precision}g"
    else:
        values = tuple(format_value(v, precision) for v in values)
        spec = "%s"
    # one template for the whole vector, filled by one % in pair order;
    # row i is its label joined to the " j spec" of every j > i
    tail = [f" {j} {spec}" for j in range(n + 1)]
    rows = [f"n {n}"]
    rows += [f"{i}" + f"\n{i}".join(tail[i + 1 :]) for i in range(1, n)]
    return "\n".join(rows) % values + "\n"
