"""Leaf distance computations and circular-inequality (Kalmanson) checks.

Two metrics are supported: effective resistance (edge weights as resistors)
and minimum path length.  Resistance comes from one linear solve per leaf
against the full-node Laplacian; an independent series/parallel/wye-delta
reduction serves as a cross-check oracle for the same quantity.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import linalg
from .errors import (
    ReductionStuckError,
    SizeMismatchError,
    TooLargeForExactError,
    ZeroWeightEdgeError,
    line_errors,
)
from .netgraph import (
    CircularOrder,
    PhyloNetwork,
    block_path,
    edge_key,
)
from .rational import FLOAT_TOL, Value, format_value, parse_value


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

    def __iter__(self) -> Iterator[Value]:
        return iter(self.values)

    def dot(self, other: Sequence[Value]) -> Value:
        if len(other) != len(self.values):
            raise SizeMismatchError("length mismatch in dot product")
        return sum((a * b for a, b in zip(self.values, other)), Fraction(0))


# ---------------------------------------------------------------------------
# resistance via the node equations


def _check_positive(net: PhyloNetwork) -> None:
    for u, v, w in net.edge_items:
        if w == 0:
            raise ZeroWeightEdgeError(f"edge {u}-{v} has zero weight")


def gamma_inverse_columns(
    net: PhyloNetwork, targets: Sequence[str]
) -> dict[str, dict[str, Value]]:
    """Columns of the inverse of (Laplacian + J/n_total) for target nodes."""
    _check_positive(net)
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
    if exact:
        sols = linalg.solve_exact(gamma, cols)
    else:
        sols = linalg.solve_float(gamma, cols)
    return {
        t: {v: sols[c][idx[v]] for v in nodes} for c, t in enumerate(targets)
    }


def resistance_between_nodes(net: PhyloNetwork, pairs: Iterable[tuple[str, str]]) -> dict:
    """Effective resistance for arbitrary node pairs (internal tool)."""
    pairs = list(pairs)
    targets = sorted({x for p in pairs for x in p})
    cols = gamma_inverse_columns(net, targets)
    return {
        (u, v): cols[u][u] + cols[v][v] - 2 * cols[u][v] for u, v in pairs
    }


def resistance_vector(net: PhyloNetwork) -> DistanceVector:
    """Effective resistance between every leaf pair."""
    leaves = net.leaves
    targets = [leaves[lab] for lab in sorted(leaves)]
    cols = gamma_inverse_columns(net, targets)
    values = []
    for i, j in pair_iter(net.n):
        u, v = leaves[i], leaves[j]
        values.append(cols[u][u] + cols[v][v] - 2 * cols[u][v])
    return DistanceVector(net.n, tuple(values))


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


def min_path_vector(net: PhyloNetwork) -> DistanceVector:
    """Shortest weighted path length between every leaf pair."""
    adj = net.adjacency
    leaves = net.leaves
    dist_rows: dict[int, dict[str, Value]] = {}
    for lab in sorted(leaves):
        src = leaves[lab]
        dist: dict[str, Value] = {src: Fraction(0)}
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
        dist_rows[lab] = dist
    values = [dist_rows[i][leaves[j]] for i, j in pair_iter(net.n)]
    return DistanceVector(net.n, tuple(values))


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


def is_kalmanson(
    d: DistanceVector, order: CircularOrder, tol: float | None = None
) -> KalmansonReport:
    """Check the circular inequality for every quadruple of the order.

    For consecutive labels (i, j, k, l) around the order the condition is
    max(d_ij + d_kl, d_jk + d_il) <= d_ik + d_jl.  Ties count as
    equalities, never violations.  Comparison is exact for rational input
    and within an absolute tolerance otherwise.
    """
    if order.n != d.n:
        raise SizeMismatchError(f"order has {order.n} labels, vector has {d.n}")
    exact = d.is_exact
    eps = Fraction(0) if exact else (FLOAT_TOL if tol is None else tol)
    labels = order.labels
    violations = []
    equalities = 0
    for a, b, c, e in itertools.combinations(range(d.n), 4):
        i, j, k, l = labels[a], labels[b], labels[c], labels[e]
        side = max(d.value(i, j) + d.value(k, l), d.value(j, k) + d.value(i, l))
        bound = d.value(i, k) + d.value(j, l)
        excess = side - bound
        if excess > eps:
            violations.append(((i, j, k, l), excess))
        elif abs(excess) <= eps:
            equalities += 1
    return KalmansonReport(
        order=order, violations=tuple(violations), equalities=equalities
    )


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


def _canonical_orders(n: int) -> Iterator[CircularOrder]:
    rest = list(range(2, n + 1))
    for perm in itertools.permutations(rest):
        if n >= 3 and perm[0] > perm[-1]:
            continue
        yield CircularOrder((1,) + perm)


def find_kalmanson_order(
    d: DistanceVector, mode: str = "exact", tol: float | None = None
) -> OrderSearchResult:
    """Search for a circular order under which ``d`` passes the check.

    Exact mode enumerates all (n-1)!/2 canonical orders (n <= 9).
    Heuristic mode grows a chain by nearest-neighbor joins and falls back
    to the exact search when the chain fails and n allows it.
    """
    n = d.n
    if n <= 3:
        order = CircularOrder(tuple(range(1, n + 1)))
        return OrderSearchResult(order, order, Fraction(0), 1)
    if mode == "heuristic":
        order = _chain_order(d)
        report = is_kalmanson(d, order, tol)
        if report.passed:
            return OrderSearchResult(order, order, Fraction(0), 1)
        if n <= 9:
            return find_kalmanson_order(d, "exact", tol)
        return OrderSearchResult(None, order, report.max_violation, 1)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if n > 9:
        raise TooLargeForExactError(f"n={n} exceeds the exhaustive cap of 9")
    best_order = None
    best_violation: Value | None = None
    checked = 0
    for order in _canonical_orders(n):
        checked += 1
        report = is_kalmanson(d, order, tol)
        if report.passed:
            return OrderSearchResult(order, order, Fraction(0), checked)
        v = report.max_violation
        if best_violation is None or v < best_violation:
            best_order, best_violation = order, v
    return OrderSearchResult(None, best_order, best_violation, checked)


def _chain_order(d: DistanceVector) -> CircularOrder:
    """Deterministic nearest-neighbor chain agglomeration."""
    chains = [[lab] for lab in range(1, d.n + 1)]
    while len(chains) > 1:
        best = None
        for a, b in itertools.combinations(range(len(chains)), 2):
            for flip_a in (False, True):
                for flip_b in (False, True):
                    ea = chains[a][0] if flip_a else chains[a][-1]
                    eb = chains[b][-1] if flip_b else chains[b][0]
                    key = (d.value(ea, eb), ea, eb, a, b, flip_a, flip_b)
                    if best is None or key < best:
                        best = key
        _, _, _, a, b, flip_a, flip_b = best
        ca = list(reversed(chains[a])) if flip_a else chains[a]
        cb = list(reversed(chains[b])) if flip_b else chains[b]
        merged = ca + cb
        chains = [c for k, c in enumerate(chains) if k not in (a, b)]
        chains.append(merged)
    return CircularOrder(tuple(chains[0]))


# ---------------------------------------------------------------------------
# serialization


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
                i, j = int(i_s), int(j_s)
                values[(min(i, j), max(i, j))] = parse_value(v_s, exact)
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

        def entry(r: int, c: int) -> Value:
            lineno, raw, fields = rows[r - 1]
            with line_errors(lineno, raw):
                return parse_value(fields[c - 1], exact)

        vals = []
        for i, j in pair_iter(n):
            a, b = entry(i, j), entry(j, i)
            if not (a == b or abs(float(a) - float(b)) <= FLOAT_TOL):
                raise SizeMismatchError(f"asymmetric entries for ({i},{j})")
            vals.append(a)
        return DistanceVector(n, tuple(vals))
    raise SizeMismatchError("unrecognized distance format")


def load_distance_vector(path: str, exact: bool = False) -> DistanceVector:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_distance_vector(fh.read(), exact)


def distance_vector_to_text(d: DistanceVector, precision: int = 6) -> str:
    lines = [f"n {d.n}"]
    for i, j in pair_iter(d.n):
        lines.append(f"{i} {j} {format_value(d.value(i, j), precision)}")
    return "\n".join(lines) + "\n"
