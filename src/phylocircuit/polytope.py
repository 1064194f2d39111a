"""Vertex vectors of the level-1 BME polytopes and exhaustive minimization.

Every 1-nested network N yields an integer vector indexed by leaf pairs:
the number of consistent circular orders in which i and j sit side by
side.  With c(v) the items at internal node v (edges on no cycle plus
cycles through v), x_ij is 0 when a cycle between i and j is entered and
left at ring nodes that are not adjacent, and otherwise

    prod over cut vertices v on the path of (c(v) - 2)!
    * prod over the other internal nodes v of (c(v) - 1)!
    * 2^(cycles off the path).

On a binary network this is 2^(k - b_ij), with k internal bridges of
which b_ij lie between i and j.  The vectors of the binary triangle-free
networks are the vertices of BME(n, k); minimizing a distance vector as
a linear functional over them recovers refinement classes exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import mul

from .errors import (
    NotOneNestedError,
    OutOfRangeError,
    SizeMismatchError,
    ValidationError,
)
from .metrics import (
    DistanceVector,
    _canonical_labels,
    min_path_vector,
    pair_index,
    resistance_vector,
)
from .netgraph import (
    CYCLE,
    PhyloNetwork,
    bridges,
    classify,
    consistent_orders,
    edge_key,
)
from .rational import Value, tolerance, values_close
from .splits import displayed_splits
from .reconstruct import min_path_split_system, resistance_split_system_direct
from .splits import weighted_network_from_splits


@dataclass(frozen=True)
class XVector:
    """Nonnegative integers in lexicographic pair order (1,2),(1,3),..."""

    n: int
    entries: tuple[int, ...]

    def value(self, i: int, j: int) -> int:
        return self.entries[pair_index(i, j, self.n)]

    def dot(self, d: DistanceVector) -> Value:
        if d.n != self.n:
            raise SizeMismatchError("vector sizes differ")
        return sum(
            (x * v for x, v in zip(self.entries, d.values)), Fraction(0)
        )

    @property
    def entry_sum(self) -> int:
        return sum(self.entries)


def vertex_vector(net: PhyloNetwork) -> XVector:
    """Polytope vertex vector of a 1-nested network, binary or not.

    The product of the module docstring, read with one outward walk per
    leaf: the product of (c(v)-1)! over every internal node and 2 per
    cycle, divided by c(v)-1 at each node the walk passes and by 2 at
    each cycle it crosses.
    """
    cls = classify(net)
    if cls.level is None or cls.level > 1:
        raise NotOneNestedError(f"level {cls.level_name} network")
    blocks, blocks_at = cls.blocks.blocks, cls.blocks.blocks_at
    adj, leaf_of_node = net.adjacency, net.leaf_of_node
    # at level <= 1 every block is a bridge or a cycle, so a node's items
    # are its blocks
    full = 2 ** len(cls.blocks.of_kind(CYCLE))
    for at in blocks_at.values():
        full *= factorial(len(at) - 1)
    n = net.n
    entries = [0] * (n * (n - 1) // 2)
    for i, start in net.leaf_items[:-1]:
        (b0,) = blocks_at[start]
        (v0,) = adj[start]
        stack = [(v0, b0, 1)]
        while stack:
            v, came, divisor = stack.pop()
            j = leaf_of_node.get(v)
            if j is not None:
                if j > i:
                    entries[pair_index(i, j, n)] = full // divisor
                continue
            divisor *= len(blocks_at[v]) - 1
            for bi in blocks_at[v]:
                if bi != came:
                    # a bridge leads to its far end; a cycle, crossed at 2,
                    # to v's two ring neighbours, the only exits that keep
                    # i and j side by side
                    b = blocks[bi]
                    step = divisor * (2 if b.kind == CYCLE else 1)
                    stack.extend(
                        (u, bi, step) for u in adj[v] if edge_key(v, u) in b.edges
                    )
    return XVector(n, tuple(entries))


def vertex_vector_by_orders(net: PhyloNetwork) -> XVector:
    """Sum of adjacency incidence vectors over all consistent orders.

    An oracle only: it enumerates every consistent order, exponential in
    the network's size, to check :func:`vertex_vector` against; no
    command reaches it.
    """
    n = net.n
    entries = [0] * (n * (n - 1) // 2)
    for order in consistent_orders(net):
        labels = order.labels
        for t in range(n):
            i, j = labels[t], labels[(t + 1) % n]
            if n == 2 and t == 1:
                break  # a 2-cycle has one adjacency, not two
            entries[pair_index(i, j, n)] += 1
    return XVector(n, tuple(entries))


# ---------------------------------------------------------------------------
# enumeration of binary triangle-free 1-nested networks


def closed_form_count(n: int, k: int) -> int:
    """Number of binary triangle-free 1-nested networks: leaves n, internal
    bridges k."""
    if k < 0 or k > n - 3:
        return 0
    double_fact = 1
    for t in range(2 * k + 2, 1, -2):
        double_fact *= t
    return comb(n - 3, k) * factorial(n + k - 1) // double_fact


def _trees_with_internal_edges(n: int):
    """All leaf-labeled trees on 1..n, internal degrees >= 3, by leaf insertion.

    Yields (edges, internal_nodes); each tree arises exactly once because
    removing the highest leaf inverts the insertion.
    """
    base_edges = [("x1", "x2")]
    stack = [(3, base_edges, [])]
    while stack:
        lab, edges, internal = stack.pop()
        if lab > n:
            yield edges, internal
            continue
        node = f"x{lab}"
        for idx in range(len(edges)):
            u, v = edges[idx]
            host = f"i{lab}_{idx}"
            new_edges = edges[:idx] + edges[idx + 1 :] + [
                (u, host),
                (host, v),
                (host, node),
            ]
            stack.append((lab + 1, new_edges, internal + [host]))
        for host in internal:
            stack.append((lab + 1, edges + [(host, node)], internal))


def _expand_tree(edges: list, internal: list):
    """Replace every node of degree >= 4 by a cycle, all possible ways.

    The cycle has one node per former neighbor; an edge between two
    expanded nodes joins the two ring nodes that face each other.
    """
    adjacency: dict[str, list[str]] = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    to_expand = [v for v in internal if len(adjacency[v]) >= 4]
    if not to_expand:
        yield edges
        return
    nbrs = {v: sorted(adjacency[v]) for v in to_expand}
    # one arrangement per necklace: the first neighbour fixed, reflections merged
    options = [list(_canonical_labels(len(nbrs[v]))) for v in to_expand]
    expanded_set = set(to_expand)
    for combo in itertools.product(*options):
        port: dict[tuple[str, str], str] = {}
        ring_edges: list[tuple[str, str]] = []
        for v, arrangement in zip(to_expand, combo):
            m = len(arrangement)
            ring = [f"{v}r{t}" for t in range(m)]
            for t, i in enumerate(arrangement):
                port[(v, nbrs[v][i - 1])] = ring[t]
                ring_edges.append((ring[t], ring[(t + 1) % m]))
        new_edges = list(ring_edges)
        for u, v in edges:
            pu = port[(u, v)] if u in expanded_set else u
            pv = port[(v, u)] if v in expanded_set else v
            new_edges.append((pu, pv))
        yield new_edges


#: the weight of every enumerated edge; Fractions are immutable, so all of
#: them share this one
UNIT = Fraction(1)


def enumerate_binary_one_nested(n: int, k: int) -> list[PhyloNetwork]:
    """All binary triangle-free 1-nested networks, n leaves, k internal
    bridges, up to label-respecting isomorphism."""
    if n < 4 or n > 7:
        raise OutOfRangeError("supported leaf counts are 4..7")
    if k < 0 or k > n - 3:
        raise OutOfRangeError(f"k must lie in 0..{n - 3}")
    leaves = {i: f"x{i}" for i in range(1, n + 1)}
    out = []
    for edges, internal in _trees_with_internal_edges(n):
        internal_set = set(internal)
        internal_edges = sum(
            1 for u, v in edges if u in internal_set and v in internal_set
        )
        if internal_edges != k:
            continue
        for expanded in _expand_tree(edges, internal):
            weighted = [(u, v, UNIT) for u, v in expanded]
            out.append(PhyloNetwork.build(leaves, weighted, strict=True))
    return out


def bme_vertices(n: int, k: int) -> set[XVector]:
    return {x for _, x in vertex_catalog(n, k)}


@lru_cache(maxsize=None)
def vertex_catalog(n: int, k: int) -> tuple[tuple[PhyloNetwork, XVector], ...]:
    return tuple(
        (net, vertex_vector(net)) for net in enumerate_binary_one_nested(n, k)
    )


@dataclass(frozen=True)
class MinimizationResult:
    value: Value
    argmin: tuple[int, ...]          # indices into the catalog
    networks: tuple[PhyloNetwork, ...]
    vectors: tuple[XVector, ...]


def minimize_over_vertices(d: DistanceVector, n: int, k: int) -> MinimizationResult:
    """Exhaustive argmin of x . d over the BME(n, k) vertex set.

    Ties are reported in full (a face, not an error).  Comparisons are
    exact for rational d; a float value ties with the minimum when
    ``values_close`` says so.  A rational d is scaled once to integers
    over the lcm of its denominators, so every dot product is an int.
    """
    if d.n != n:
        raise SizeMismatchError(f"distance vector has n={d.n}, expected {n}")
    catalog = vertex_catalog(n, k)
    if d.is_exact:
        scale = lcm(*(v.denominator for v in d.values))
        ints = [v.numerator * (scale // v.denominator) for v in d.values]
        dots = [sum(map(mul, x.entries, ints)) for _, x in catalog]
        low = min(dots)
        best = Fraction(low, scale)
        hits = [i for i, v in enumerate(dots) if v == low]
    else:
        tolerance(d.values)  # a NaN or infinite distance has no minimum
        values = [x.dot(d) for _, x in catalog]
        best = min(values)
        hits = [i for i, v in enumerate(values) if values_close(v, best)]
    return MinimizationResult(
        value=best,
        argmin=tuple(hits),
        networks=tuple(catalog[i][0] for i in hits),
        vectors=tuple(catalog[i][1] for i in hits),
    )


@dataclass(frozen=True)
class FaceReport:
    metric: str
    k: int
    value: Value
    argmin_vectors: frozenset
    expected_vectors: frozenset
    identity_lhs: Value | None
    identity_rhs: Value | None

    @property
    def argmin_matches_refinements(self) -> bool:
        return self.argmin_vectors == self.expected_vectors

    @property
    def identity_holds(self) -> bool:
        """Exact for rationals; floats, whose two sides are rounded along
        different routes, within REL_TOL of the larger side."""
        if self.identity_lhs is None:
            return True
        return values_close(self.identity_lhs, self.identity_rhs)


def face_minimization_report(net: PhyloNetwork, metric: str = "resistance") -> FaceReport:
    """Check that exhaustive minimization lands on the refinement face.

    For the resistance metric the expected argmin is every enumerated
    binary network (same n, same internal bridge count) whose splits
    refine the input's; for minimum path, refinement is relative to the
    splits surviving in the path-metric decomposition.  The resistance
    report also carries both sides of the functional identity
    x(N) . d_resistance == x(N) . d_minpath(weighted rebuild).
    """
    if metric not in ("resistance", "minpath"):
        raise ValidationError(f"unknown metric {metric!r}")
    n = net.n
    k = bridges(net).k
    if metric == "resistance":
        d = resistance_vector(net)
        target = displayed_splits(net).splits
    else:
        d = min_path_vector(net)
        target = min_path_split_system(net).splits
    result = minimize_over_vertices(d, n, k)
    expected = frozenset(
        x
        for candidate, x in vertex_catalog(n, k)
        if displayed_splits(candidate).splits >= target
    )
    lhs = rhs = None
    if metric == "resistance":
        x = vertex_vector(net)
        rebuilt = weighted_network_from_splits(resistance_split_system_direct(net))
        lhs = x.dot(d)
        rhs = x.dot(min_path_vector(rebuilt))
    return FaceReport(
        metric=metric,
        k=k,
        value=result.value,
        argmin_vectors=frozenset(result.vectors),
        expected_vectors=expected,
        identity_lhs=lhs,
        identity_rhs=rhs,
    )
