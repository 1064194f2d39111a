"""Recovering weighted circular split systems from distance vectors.

A distance vector passing the circular inequality for some order
decomposes uniquely into weighted splits with both sides contiguous in
that order; the weight of each arc split is the standard isolation
quantity computed from the four distances at its boundary.  For a
1-nested network the decomposition of its resistance vector is read
directly off the circuit instead (bridges contribute their own weight, a
cycle pair with weights a and x contributes a*x/z for cycle total z); the
tests keep the solve-and-decompose route as the oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    NegativeSplitWeightError,
    NotInvertibleError,
    NotKalmansonError,
)
from .metrics import (
    DistanceVector,
    _check_positive,
    _position_table,
    find_kalmanson_order,
    is_kalmanson,
    min_path_vector,
)
from .netgraph import (
    CYCLE,
    CircularOrder,
    PhyloNetwork,
    canonical_order,
    classify,
    cycle_node_sequence,
    edge_key,
)
from .rational import FLOAT_TOL, Value, sqrt_value
from .splits import (
    CircularSplitSystem,
    Split,
    display_catalog,
    network_from_splits,
    split_metric,
)


#: float arc weights at or below this are rounding noise, not splits
DROP_BELOW = 1e-9


@dataclass(frozen=True)
class DecompositionResult:
    system: CircularSplitSystem
    residual: Value

    @property
    def splits(self):
        return self.system.splits


def circular_decomposition(
    d: DistanceVector,
    order: CircularOrder,
    tol: float | None = None,
) -> DecompositionResult:
    """Unique weighted circular split system reproducing ``d``.

    The split isolating the consecutive arc x_i..x_j gets weight
    (d(x_{i-1},x_j) + d(x_i,x_{j+1}) - d(x_{i-1},x_{j+1}) - d(x_i,x_j)) / 2,
    its isolation index.  Zero-weight splits are dropped.  Raises
    NotKalmanson (with the first violating quadruple) when the inequality
    fails for this order, and NegativeSplitWeight when a trivial split
    weighs less than zero (less than minus the tolerance for float input).
    """
    report = is_kalmanson(d, order, tol)
    if not report.passed:
        quad, amount = report.violations[0]
        raise NotKalmansonError(quad, amount)
    rows, scale = _position_table(d, order)
    labels = order.labels
    n = d.n
    exact = d.is_exact
    eps = 0 if exact else (FLOAT_TOL if tol is None else tol)
    floor = 0 if exact else DROP_BELOW
    kept: dict[Split, Value] = {}
    # each split once, from the side p..q that misses the last position
    for p in range(n - 1):
        row_before, row_first = rows[p - 1], rows[p]
        for q in range(p, n - 1):
            index = (
                row_before[q]
                + row_first[q + 1]
                - row_before[q + 1]
                - row_first[q]
            )
            w = Fraction(index, 2 * scale) if exact else 0.5 * index
            if w < -eps and (q == p or q - p == n - 2):
                raise NegativeSplitWeightError(Split(labels[p : q + 1], n), w)
            if w > floor:
                kept[Split(labels[p : q + 1], n)] = w
    system = CircularSplitSystem.of_order(n, kept, order)
    deviations = [
        abs(a - b) for a, b in zip(split_metric(system).values, d.values)
    ]
    residual = max(deviations, default=Fraction(0))
    return DecompositionResult(system=system, residual=residual)


# ---------------------------------------------------------------------------
# weighted reconstructions from a network


def _pair_share(weights: dict, cycle_totals: dict, block, e, f) -> Value:
    """a*x/z for edges e, f weighing a and x in a cycle of total z.

    ``cycle_totals`` caches each cycle's z, summed in ``block.edges`` order.
    """
    z = cycle_totals.get(block)
    if z is None:
        z = sum((weights[ed] for ed in block.edges), Fraction(0))
        cycle_totals[block] = z
    return weights[e] * weights[f] / z


def resistance_split_system_direct(net: PhyloNetwork) -> CircularSplitSystem:
    """Resistance split system of a 1-nested network, read off the circuit.

    Each displayed split gets the sum of its display weights: w(e) for a
    bridge e, a*x/z for a pair of edges weighing a and x in a cycle of
    total z.  This is the circular decomposition of the resistance vector
    along a consistent order, without solving for that vector.  Raises
    NotOneNested above level 1, then ZeroWeightEdge for a zero weight.
    """
    catalog = display_catalog(net)
    _check_positive(net)
    weights = net.edges
    if not net.is_exact:
        # one decimal weight puts the whole network in float mode
        weights = {e: float(w) for e, w in weights.items()}
    totals: dict[Split, Value] = {}
    cycle_totals: dict = {}
    for split, displays in catalog.items():
        acc = Fraction(0)
        for disp in displays:
            if disp[0] == "bridge":
                acc += weights[disp[1]]
            else:
                acc += _pair_share(weights, cycle_totals, *disp[1:])
        if acc > 0:
            totals[split] = acc
    return CircularSplitSystem.of_order(net.n, totals, canonical_order(net))


def min_path_split_system(
    net: PhyloNetwork, order: CircularOrder | None = None
) -> CircularSplitSystem:
    """Decompose the minimum path vector; accepts outer-planar level-2 input."""
    d = min_path_vector(net)
    if order is not None:
        return circular_decomposition(d, order).system
    cls = classify(net)
    if cls.level is not None and cls.level <= 1:
        # alternating leaf paths around an outer-planar drawing cross, so
        # the vector passes on every consistent order, the canonical one too
        return circular_decomposition(d, canonical_order(net)).system
    mode = "exact" if net.n <= 9 else "heuristic"
    result = find_kalmanson_order(d, mode)
    if not result.found:
        report = is_kalmanson(d, result.best_order)
        quad, amount = report.violations[0]
        raise NotKalmansonError(quad, amount)
    return circular_decomposition(d, result.order).system


# ---------------------------------------------------------------------------
# inverting a weighted circular split system back to a network


def _mul_inverse_weights(system: CircularSplitSystem) -> PhyloNetwork:
    """Core of the inversion; assumes the rebuild displays system's splits."""
    skeleton = network_from_splits(system.strip_weights())
    catalog = display_catalog(skeleton)
    pair_split = {
        frozenset(disp[2:]): split
        for split, displays in catalog.items()
        for disp in displays
        if disp[0] == "pair"
    }
    known = dict(system.entries)
    if any(w is None or w <= 0 for w in known.values()):
        raise NotInvertibleError("weights must be positive")

    cls = classify(skeleton)
    cycle_blocks = cls.blocks.of_kind(CYCLE)
    edge_weight: dict[frozenset, Value] = {}

    for block in cycle_blocks:
        ring = cycle_node_sequence(block)
        m = len(ring)
        ring_edges = [edge_key(ring[t], ring[(t + 1) % m]) for t in range(m)]
        # products u_i*u_j (u = a/sqrt(z)) from splits displayed only once;
        # shared-display splits only bound the product from above, since the
        # other displays must keep strictly positive weight
        products: dict[tuple[int, int], Value] = {}
        bounds: dict[tuple[int, int], Value] = {}
        for i, j in itertools.combinations(range(m), 2):
            split = pair_split.get(frozenset((ring_edges[i], ring_edges[j])))
            if split is None:
                continue
            if split not in known:
                raise NotInvertibleError(f"missing weight for displayed {split}")
            if len(catalog[split]) == 1:
                products[(i, j)] = known[split]
            else:
                bounds[(i, j)] = known[split]
        weights = _solve_cycle_weights(m, products, bounds)
        for t in range(m):
            if weights[t] <= 0:
                raise NotInvertibleError("nonpositive cycle weight recovered")
            edge_weight[ring_edges[t]] = weights[t]

    # bridges: split total minus the now-known cycle pair contributions
    cycle_totals: dict = {}
    for split, displays in catalog.items():
        bridge_edges = [d[1] for d in displays if d[0] == "bridge"]
        if not bridge_edges:
            continue
        if len(bridge_edges) > 1:
            raise NotInvertibleError(f"{split} displayed by two bridges")
        if split not in known:
            raise NotInvertibleError(f"missing weight for displayed {split}")
        rest = Fraction(0)
        for disp in displays:
            if disp[0] == "pair":
                rest += _pair_share(edge_weight, cycle_totals, *disp[1:])
        w = known[split] - rest
        if w <= 0:
            raise NotInvertibleError(f"nonpositive bridge weight for {split}")
        edge_weight[bridge_edges[0]] = w

    edges = []
    for a, b, _ in skeleton.edge_items:
        key = edge_key(a, b)
        if key not in edge_weight:
            raise NotInvertibleError(f"edge {a}-{b} carries no recoverable split")
        edges.append((a, b, edge_weight[key]))
    return PhyloNetwork.build(skeleton.leaves, edges, strict=True)


def _solve_cycle_weights(
    m: int,
    products: dict[tuple[int, int], Value],
    bounds: dict[tuple[int, int], Value] | None = None,
) -> list[Value]:
    """Solve a_i*a_j = z*P_ij with z = sum(a) for positive a.

    Writing u = a/sqrt(z), the products pin u within each component of the
    product graph up to one scale; an odd closure fixes the scale.  A
    bipartite component keeps one degree of freedom: the symmetric
    (side-balancing) choice is tried first and kept when it respects the
    strict upper ``bounds`` on shared-display products, otherwise a
    feasible scale assignment is found in the log domain.  Then
    a_t = u_t * sum(u).  Within one component the radicals cancel, so
    rational inputs yield rational weights; across components exactness
    survives only when each component scale has an exact square root.
    """
    bounds = bounds or {}
    adj: dict[int, list[tuple[int, Value]]] = {i: [] for i in range(m)}
    for (i, j), p in products.items():
        adj[i].append((j, p))
        adj[j].append((i, p))
    ratio: list[Value | None] = [None] * m
    sign: list[int] = [0] * m
    comp_of: list[int] = [-1] * m
    comp_members: list[list[int]] = []
    comp_scale_sq: list[Value] = []
    comp_pinned: list[bool] = []
    for root in range(m):
        if ratio[root] is not None:
            continue
        comp_idx = len(comp_members)
        members = [root]
        ratio[root] = Fraction(1)
        sign[root] = 1
        comp_of[root] = comp_idx
        queue = [root]
        scale_sq: Value | None = None
        while queue:
            v = queue.pop()
            for w, p in adj[v]:
                expected_sign = -sign[v]
                expected_ratio = p / ratio[v]
                if ratio[w] is None:
                    ratio[w] = expected_ratio
                    sign[w] = expected_sign
                    comp_of[w] = comp_idx
                    members.append(w)
                    queue.append(w)
                    continue
                if sign[w] == expected_sign:
                    if not _close(ratio[w], expected_ratio):
                        raise NotInvertibleError("inconsistent split products")
                else:
                    # odd closure: X^(2*sign) = p / (ratio_v * ratio_w)
                    cand = p / (ratio[v] * ratio[w])
                    if sign[w] == -1:
                        cand = 1 / cand
                    if cand <= 0:
                        raise NotInvertibleError("negative squared scale")
                    if scale_sq is None:
                        scale_sq = cand
                    elif not _close(scale_sq, cand):
                        raise NotInvertibleError("inconsistent split products")
        pinned = scale_sq is not None
        if scale_sq is None:
            plus = [ratio[v] for v in members if sign[v] == 1]
            minus = [ratio[v] for v in members if sign[v] == -1]
            if minus:
                scale_sq = sum(minus[1:], minus[0]) / sum(plus[1:], plus[0])
            else:
                scale_sq = Fraction(1)  # no products touch this edge
        comp_members.append(members)
        comp_scale_sq.append(scale_sq)
        comp_pinned.append(pinned)

    def u_values(scales_sq):
        roots = [sqrt_value(q) for q in scales_sq]
        return [
            ratio[t] * roots[comp_of[t]]
            if sign[t] == 1
            else ratio[t] / roots[comp_of[t]]
            for t in range(m)
        ]

    def bounds_ok(u) -> bool:
        return all(u[i] * u[j] < bound for (i, j), bound in bounds.items())

    free = [c for c in range(len(comp_members)) if not comp_pinned[c]]
    if free and not bounds_ok(u_values(comp_scale_sq)):
        comp_scale_sq = _feasible_scales(
            comp_scale_sq, free, comp_of, ratio, sign, bounds
        )

    exact_in = all(isinstance(r, Fraction) for r in ratio) and all(
        isinstance(q, Fraction) for q in comp_scale_sq
    )
    if exact_in and len(comp_members) == 1:
        q = comp_scale_sq[0]
        out = []
        for t in range(m):
            acc = Fraction(0)
            for j in range(m):
                e = (sign[t] + sign[j]) // 2  # -1, 0, or 1
                acc += ratio[t] * ratio[j] * q**e
            out.append(acc)
        return out
    u = u_values(comp_scale_sq)
    total = sum(u[1:], u[0])
    return [val * total for val in u]


def _feasible_scales(scales_sq, free, comp_of, ratio, sign, bounds):
    """Replace the free component scales by a strictly feasible choice.

    Each bound on u_i*u_j is linear in the log of the free squared scales;
    the interior point maximizing the minimum slack is found by linear
    programming (pinned components enter as constants).
    """
    import math

    from scipy.optimize import linprog

    col = {c: k for k, c in enumerate(free)}
    f = len(free)
    rows, rhs = [], []
    for (i, j), bound in bounds.items():
        coef = math.log(float(ratio[i])) + math.log(float(ratio[j]))
        exps = [0.0] * f
        for t in (i, j):
            c = comp_of[t]
            half_log = 0.5 * math.log(float(scales_sq[c]))
            if c in col:
                exps[col[c]] += float(sign[t])
            else:
                coef += sign[t] * half_log
        limit = math.log(float(bound)) - coef
        if all(e == 0.0 for e in exps):
            if limit <= 0:
                raise NotInvertibleError("shared-display bound already violated")
            continue
        norm = math.sqrt(sum(e * e for e in exps))
        rows.append(exps + [norm])
        rhs.append(limit)
    cap = 60.0
    for k in range(f):
        for direction in (1.0, -1.0):
            row = [0.0] * f + [1.0]
            row[k] = direction
            rows.append(row)
            rhs.append(cap)
    objective = [0.0] * f + [-1.0]
    result = linprog(
        objective,
        A_ub=rows,
        b_ub=rhs,
        bounds=[(None, None)] * f + [(0.0, None)],
        method="highs",
    )
    if not result.success or result.x[-1] <= 1e-12:
        raise NotInvertibleError("no feasible cycle weighting under the bounds")
    out = list(scales_sq)
    for c, k in col.items():
        out[c] = math.exp(2.0 * result.x[k])
    return out


def _close(a: Value, b: Value, rel: float = 1e-6) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= rel * max(1.0, abs(fa), abs(fb))


def invert_to_network(system: CircularSplitSystem) -> PhyloNetwork:
    """Positive-weighted network whose resistance splits equal the input.

    Raises NotInvertible when the products are inconsistent, a recovered
    weight is nonpositive, or the final direct check fails.
    """
    net = _mul_inverse_weights(system)
    check = resistance_split_system_direct(net)
    if check.splits != system.splits:
        raise NotInvertibleError("rebuilt network displays different splits")
    got = {s: Fraction(0) if w is None else w for s, w in check.entries}
    for s, w in system.entries:
        if not _close(got[s], w, rel=1e-9):
            raise NotInvertibleError(f"weight mismatch on {s}")
    return net
