"""Vertex vectors of the level-1 BME polytopes and exhaustive minimization.

Each binary triangle-free 1-nested network N with n leaves and k internal
bridges yields an integer vector indexed by leaf pairs: 2^(k - b_ij) when
i and j can sit next to each other in some exterior reading of N (b_ij
counts internal bridges between them), 0 otherwise.  Equivalently the sum
of adjacency incidence vectors over all consistent circular orders.
These vectors are the vertices of BME(n, k); minimizing a distance vector
as a linear functional over them recovers refinement classes exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from .errors import NotBinaryError, NotOneNestedError, OutOfRangeError, SizeMismatchError
from .metrics import (
    DistanceVector,
    min_path_vector,
    pair_index,
    pair_iter,
    resistance_vector,
)
from .netgraph import (
    BRIDGE,
    CYCLE,
    PhyloNetwork,
    block_path,
    bridges,
    classify,
    consistent_orders,
    edge_key,
    is_binary,
)
from .rational import Value
from .splits import displayed_splits
from .reconstruct import resistance_split_system, min_path_split_system
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
    """Polytope vertex vector of a binary 1-nested network (closed form)."""
    cls = classify(net)
    if cls.level is None or cls.level > 1:
        raise NotOneNestedError(f"level {cls.level_name} network")
    if not is_binary(net):
        raise NotBinaryError("vertex vector formula needs a binary network")
    nontrivial = bridges(net).nontrivial
    k = len(nontrivial)
    entries = []
    for i, j in pair_iter(net.n):
        path = block_path(net, i, j)
        cuts = [next(iter(a.nodes & b.nodes)) for a, b in zip(path, path[1:])]
        stops = [net.leaves[i]] + cuts + [net.leaves[j]]
        # i and j can sit side by side unless a cycle on the way is entered
        # and left at non-adjacent corners; junctions never obstruct
        if any(
            b.kind == CYCLE and edge_key(u, v) not in b.edges
            for b, u, v in zip(path, stops, stops[1:])
        ):
            entries.append(0)
        else:
            b_ij = sum(1 for b in path if b.kind == BRIDGE and b.edges <= nontrivial)
            entries.append(2 ** (k - b_ij))
    return XVector(net.n, tuple(entries))


def vertex_vector_by_orders(net: PhyloNetwork) -> XVector:
    """Sum of adjacency incidence vectors over all consistent orders.

    Defined for any 1-nested network, binary or not; it enumerates every
    consistent order and serves as the independent oracle for
    :func:`vertex_vector`.
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


def _cyclic_arrangements(items: Sequence[str]):
    """Distinct necklaces of the items: first fixed, reflections merged."""
    first, rest = items[0], list(items[1:])
    seen = set()
    for perm in itertools.permutations(rest):
        if perm <= tuple(reversed(perm)):
            arrangement = (first,) + perm
            if arrangement not in seen:
                seen.add(arrangement)
                yield arrangement


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
    options = [list(_cyclic_arrangements(sorted(adjacency[v]))) for v in to_expand]
    expanded_set = set(to_expand)
    for combo in itertools.product(*options):
        port: dict[tuple[str, str], str] = {}
        ring_edges: list[tuple[str, str]] = []
        for v, arrangement in zip(to_expand, combo):
            m = len(arrangement)
            ring = [f"{v}r{t}" for t in range(m)]
            for t, nb in enumerate(arrangement):
                port[(v, nb)] = ring[t]
                ring_edges.append((ring[t], ring[(t + 1) % m]))
        new_edges = list(ring_edges)
        for u, v in edges:
            pu = port[(u, v)] if u in expanded_set else u
            pv = port[(v, u)] if v in expanded_set else v
            new_edges.append((pu, pv))
        yield new_edges


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
            weighted = [(u, v, Fraction(1)) for u, v in expanded]
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


def minimize_over_vertices(
    d: DistanceVector, n: int, k: int, tol: float = 1e-9
) -> MinimizationResult:
    """Exhaustive argmin of x . d over the BME(n, k) vertex set.

    Ties are reported in full (a face, not an error).  Comparisons are
    exact for rational d, within a relative tolerance otherwise.
    """
    if d.n != n:
        raise SizeMismatchError(f"distance vector has n={d.n}, expected {n}")
    catalog = vertex_catalog(n, k)
    values = [x.dot(d) for _, x in catalog]
    best = min(values)
    if d.is_exact:
        hits = [i for i, v in enumerate(values) if v == best]
    else:
        cut = float(best) + tol * max(1.0, abs(float(best)))
        hits = [i for i, v in enumerate(values) if float(v) <= cut]
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
        if self.identity_lhs is None:
            return True
        return self.identity_lhs == self.identity_rhs


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
        raise ValueError(f"unknown metric {metric!r}")
    n = net.n
    k = bridges(net).k
    if metric == "resistance":
        d = resistance_vector(net)
        target = displayed_splits(net.unit_weights()).splits
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
        x_general = vertex_vector_by_orders(net)
        rebuilt = weighted_network_from_splits(resistance_split_system(net))
        lhs = x_general.dot(d)
        rhs = x_general.dot(min_path_vector(rebuilt))
    return FaceReport(
        metric=metric,
        k=k,
        value=result.value,
        argmin_vectors=frozenset(result.vectors),
        expected_vectors=expected,
        identity_lhs=lhs,
        identity_rhs=rhs,
    )
