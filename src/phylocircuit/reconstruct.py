"""Recovering weighted circular split systems from distance vectors.

A distance vector passing the circular inequality for some order
decomposes uniquely into weighted splits with both sides contiguous in
that order; the weight of each arc split is its isolation index, computed
from the four distances at its boundary.  The indexes are the check too:
every side of the circular inequality is a sum of nontrivial indexes
(Christopher, Farach & Trick 1996), and the n(n-1)/2 splits of an order
are a basis (Bandelt & Dress 1992), so exact input has residual 0.  For a
1-nested network the decomposition of its resistance vector is read
directly off the circuit instead (bridges contribute their own weight, a
cycle pair with weights a and x contributes a*x/z for cycle total z); the
tests keep the solve-and-decompose route as the oracle.  Inversion runs
that map backwards; the node shares a 4-cycle's splits leave free are
picked by one interval sweep, so exact input gives exact weights.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    NegativeSplitWeightError,
    NotInvertibleError,
    NotKalmansonError,
)
from .metrics import (
    DistanceVector,
    _arc_indices,
    _check_order,
    _check_positive,
    _label_table,
    _settled_by_arcs,
    _tolerance,
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
from .rational import Value, values_close
from .splits import (
    CircularSplitSystem,
    Split,
    display_catalog,
    network_from_splits,
    split_metric,
)


@dataclass(frozen=True)
class DecompositionResult:
    system: CircularSplitSystem
    residual: Value


def circular_decomposition(
    d: DistanceVector,
    order: CircularOrder,
    tol: float | None = None,
) -> DecompositionResult:
    """Unique weighted circular split system reproducing ``d``.

    The split of a consecutive arc weighs its isolation index, half the
    index of metrics._arc_indices; zero-weight splits are dropped.  The
    least nontrivial index settles the check (metrics._settled_by_arcs),
    and only an order it leaves open is scanned, within the tolerance.
    Raises NotKalmanson (with the first violating quadruple) when the
    inequality fails, else NegativeSplitWeight when a trivial split weighs
    less than zero (less than minus the tolerance for float).  The splits
    of one order form a basis, so the exact residual is 0.  Float input has
    one: it drops arc weights at or below ``rational.tolerance(d.values)``
    as rounding noise, a floor that an explicit ``tol`` does not move.
    """
    exact = d.is_exact
    eps, floor = _tolerance(d, tol, exact)
    _check_order(d, order)
    full, scale = _label_table(d)
    labels = order.labels
    n = d.n
    kept: dict[Split, Value] = {}
    negative, least = None, math.inf
    for p, q, index in _arc_indices(full, labels):
        w = Fraction(index, 2 * scale) if exact else 0.5 * index
        if p < q < p + n - 2:
            least = min(least, index)
        elif w < -eps:
            negative = negative or (Split(labels[p : q + 1], n), w)
        if w > floor:
            kept[Split(labels[p : q + 1], n)] = w
    if not _settled_by_arcs(least, n, eps, floor):
        violations = is_kalmanson(d, order, tol).violations
        if violations:
            raise NotKalmansonError(*violations[0])
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


# ---------------------------------------------------------------------------
# weighted reconstructions from a network


def _pair_share(weights: dict, cycle_totals: dict, block, e, f) -> Value:
    """a*x/z for edges e, f weighing a and x in a cycle of total z.

    ``cycle_totals`` caches each cycle's z, summed over the edges in sorted
    order (a set's order would make float sums depend on the hash seed).
    """
    z = cycle_totals.get(block)
    if z is None:
        z = sum((weights[ed] for ed in sorted(block.edges, key=sorted)), Fraction(0))
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
    totals = _display_totals(net, display_catalog(net))
    positive = {s: w for s, w in totals.items() if w > 0}
    return CircularSplitSystem.of_order(net.n, positive, canonical_order(net))


def _display_totals(net: PhyloNetwork, catalog: dict) -> dict[Split, Value]:
    """{split: sum of its display weights} for the catalog of a network
    with ``net``'s nodes and edges, read with ``net``'s weights."""
    _check_positive(net)
    weights = net.edges
    totals: dict[Split, Value] = {}
    cycle_totals: dict = {}
    for split, displays in catalog.items():
        acc = Fraction(0)
        for disp in displays:
            if disp[0] == "bridge":
                acc += weights[disp[1]]
            else:
                acc += _pair_share(weights, cycle_totals, *disp[1:])
        totals[split] = acc
    return totals


def min_path_split_system(net: PhyloNetwork) -> CircularSplitSystem:
    """Decompose the minimum path vector; accepts outer-planar level-2 input."""
    d = min_path_vector(net)
    cls = classify(net)
    if cls.level is not None and cls.level <= 1:
        # alternating leaf paths around an outer-planar drawing cross, so
        # the vector passes on every consistent order, the canonical one too
        return circular_decomposition(d, canonical_order(net)).system
    # a miss leaves the least violating order, on which the decomposition
    # raises NotKalmanson with that order's first violation
    mode = "exact" if net.n <= 9 else "heuristic"
    order = find_kalmanson_order(d, mode).best_order
    return circular_decomposition(d, order).system


# ---------------------------------------------------------------------------
# inverting a weighted circular split system back to a network


def _mul_inverse_weights(system: CircularSplitSystem) -> tuple[PhyloNetwork, dict]:
    """Core of the inversion: the network and its skeleton's catalog."""
    skeleton = network_from_splits(system)
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

    edge_weight: dict[frozenset, Value] = {}
    # 4-cycles whose products leave shares free: (ring edges, products)
    squares: list[tuple[list, dict]] = []
    for block in classify(skeleton).blocks.of_kind(CYCLE):
        ring = cycle_node_sequence(block)
        m = len(ring)
        ring_edges = [edge_key(ring[t], ring[(t + 1) % m]) for t in range(m)]
        # products u_i*u_j (u = a/sqrt(z)) from splits displayed only once;
        # a shared split also carries a bridge, whose weight takes the rest
        products: dict[tuple[int, int], tuple[Value, Split]] = {}
        for i, j in itertools.combinations(range(m), 2):
            split = pair_split[frozenset((ring_edges[i], ring_edges[j]))]
            if split not in known:
                raise NotInvertibleError(f"missing weight for displayed {split}")
            if len(catalog[split]) == 1:
                products[(i, j)] = (known[split], split)
        # two ring edges that are not ring neighbours have leaves of two ring
        # nodes on each side, so theirs is their split's only display; for
        # m >= 5 those pairs join every edge and close an odd walk, which
        # pins the weights, so only a 4-cycle can be left free
        weights = _cycle_weights(m, products)
        if weights is not None:
            edge_weight.update(zip(ring_edges, weights))
        else:
            squares.append((ring_edges, products))
    for (sq, p), share in _free_shares(squares, catalog, known, edge_weight).items():
        ring_edges, products = squares[sq]
        split = pair_split[frozenset((ring_edges[p - 1], ring_edges[p]))]
        products[_NODE_PAIRS[p]] = (share, split)
    for ring_edges, products in squares:
        edge_weight.update(zip(ring_edges, _cycle_weights(4, products)))

    # bridges (at most one per split, each a split of the system): split
    # total minus the now-known cycle pair contributions
    cycle_totals: dict = {}
    for split, displays in catalog.items():
        bridges = [d[1] for d in displays if d[0] == "bridge"]
        if bridges:
            w = known[split] - sum(
                (_pair_share(edge_weight, cycle_totals, *d[1:])
                 for d in displays if d[0] == "pair"),
                Fraction(0),
            )
            if w <= 0:
                raise NotInvertibleError(f"nonpositive bridge weight for {split}")
            edge_weight[bridges[0]] = w
    edges = [(a, b, edge_weight[edge_key(a, b)]) for a, b, _ in skeleton.edge_items]
    return PhyloNetwork.build(skeleton.leaves, edges, strict=True), catalog


def _cycle_weights(m: int, products: dict) -> list[Value] | None:
    """Solve a_i*a_j = z*P_ij with z = sum(a) for positive a, or None.

    Writing u = a/sqrt(z), a walk over the product graph from edge 0 gives
    every u_t as ratio_t * X**sign_t for one unknown X, and an odd closure
    pins X**2.  Every u_i*u_j is then rational in the products and X**2,
    so a_t = sum_j u_t*u_j takes no root: rational input gives rational
    weights.  Returns None when the products leave X free or miss an edge.
    """
    adj: dict[int, list] = {i: [] for i in range(m)}
    for (i, j), (p, split) in products.items():
        adj[i].append((j, p, split))
        adj[j].append((i, p, split))
    ratio: list[Value | None] = [Fraction(1)] + [None] * (m - 1)
    sign = [1] + [0] * (m - 1)
    scale_sq: Value | None = None
    queue = [0]
    while queue:
        v = queue.pop()
        for w, p, split in adj[v]:
            if ratio[w] is None:
                ratio[w] = p / ratio[v]
                sign[w] = -sign[v]
                queue.append(w)
            elif sign[w] != sign[v]:
                if not values_close(ratio[w], p / ratio[v]):
                    raise NotInvertibleError(f"inconsistent split products at {split}")
            else:
                # odd closure: X^(2*sign) = p / (ratio_v * ratio_w)
                cand = p / (ratio[v] * ratio[w])
                if sign[w] == -1:
                    cand = 1 / cand
                if scale_sq is None:
                    scale_sq = cand
                elif not values_close(scale_sq, cand):
                    raise NotInvertibleError(f"inconsistent split products at {split}")
    if scale_sq is None or None in ratio:
        return None
    out = []
    for t in range(m):
        acc = Fraction(0)
        for j in range(m):
            e = (sign[t] + sign[j]) // 2  # -1, 0, or 1
            acc += ratio[t] * ratio[j] * scale_sq**e
        out.append(acc)
    return out


#: the 4-cycle edges meeting at ring node k, between edges k-1 and k
_NODE_PAIRS = ((0, 3), (0, 1), (1, 2), (2, 3))


def _free_shares(squares, catalog, known, edge_weight) -> dict:
    """{(square index, p): s} for the node shares 4-cycles leave free.

    Ring node k shows its split with the share x_k = u_{k-1}*u_k, and
    opposite shares multiply to q = P02*P13, the diagonal splits' weights.
    One free s per pair of opposite nodes p and p+2 (p = 0, 1) gives
    x_p = s and x_{p+2} = q/s.  The rebuild gives each such split a
    bridge, which must keep positive weight, and at most one other free
    share, so free shares form chains linked by "sum of shares < w".  A
    forward sweep bounds each share, a backward pass picks a point of each.

    Every share is free: no node of a square shows its split alone.  The
    split of node k holds the leaves beyond that ring node.  If the system
    holds it, it crosses no other split, so the rebuild also gives it a
    bridge, a second display, and it enters no product; if not,
    ``_mul_inverse_weights`` has already raised "missing weight".
    """
    node_at, q = {}, {}
    for sq, (ring_edges, products) in enumerate(squares):
        for k in range(4):
            node_at[frozenset((ring_edges[k - 1], ring_edges[k]))] = (sq, k)
        for p in (0, 1):
            q[(sq, p)] = products[(0, 2)][0] * products[(1, 3)][0]
    # bound at end (var, 0), node p, and (var, 1), node p+2: (split, room
    # left by its displays outside the squares, the other free share in it
    # or None)
    bound = {}
    cycle_totals: dict = {}
    for split, displays in catalog.items():
        if not any(d[0] == "bridge" for d in displays):
            continue
        room = known[split]
        ends = []
        for _, block, e, f in (d for d in displays if d[0] == "pair"):
            if frozenset((e, f)) not in node_at:
                room -= _pair_share(edge_weight, cycle_totals, block, e, f)
                continue
            sq, k = node_at[frozenset((e, f))]
            ends.append(((sq, k % 2), k // 2))
        if ends and room <= 0:
            raise _no_room(split)
        for end in ends:
            bound[end] = (split, room, next((o for o in ends if o != end), None))

    chosen: dict = {}
    for start in q:
        for left in (0, 1):
            if start in chosen or bound[(start, left)][2]:
                continue
            chain = [(start, left)]
            while nxt := bound[(chain[-1][0], 1 - chain[-1][1])][2]:
                chain.append(nxt)
            # forward: the share t_i at chain[i]'s left end lies below his[i]
            his, carry = [], 0
            for var, left_end in chain:
                his.append(bound[(var, left_end)][1] - carry)
                split, room, _ = bound[(var, 1 - left_end)]
                if q[var] >= room * his[-1]:
                    raise _no_room(split)
                carry = q[var] / his[-1]
            # backward: q_i/t_i + t_{i+1} < room, with t_{L+1} = 0
            after = 0
            for (var, left_end), hi in reversed(list(zip(chain, his))):
                lo = q[var] / (bound[(var, 1 - left_end)][1] - after)
                after = _balanced_share(lo, hi, q[var])
                chosen[var] = after if left_end == 0 else q[var] / after
    return chosen


def _no_room(split: Split) -> NotInvertibleError:
    return NotInvertibleError(
        f"no cycle shares leave a positive bridge weight for {split}"
    )


def _balanced_share(lo: Value, hi: Value, q: Value) -> Value:
    """A share in the open interval (lo, hi) near sqrt(q), which balances s
    and q/s: sqrt(q) itself if rational (always, for floats), else the
    simplest rational within 2**-19 of it; if it lies outside, the middle
    of the interval."""
    if isinstance(q, Fraction):
        # sqrt(q) = sqrt(num) / den, bracketed by integers over den << shift
        num, den = q.numerator * q.denominator, q.denominator
        shift = max(0, 20 - num.bit_length() // 2)
        root = math.isqrt(num << 2 * shift)
        square = root * root == num << 2 * shift
        root_lo = Fraction(root, den << shift)
        root_hi = Fraction(root + (not square), den << shift)
    else:
        root_lo = root_hi = math.sqrt(q)
    if root_lo == root_hi:
        if lo < root_lo < hi:
            return root_lo
    elif max(lo, root_lo) < min(hi, root_hi):
        return _simplest_between(max(lo, root_lo), min(hi, root_hi))
    return (lo + hi) / 2


def _simplest_between(a: Fraction, b: Fraction | None) -> Fraction:
    """The rational of least denominator in the open interval (a, b) for
    0 <= a < b; b None means unbounded.  A continued-fraction descent."""
    whole = math.floor(a) + 1
    if b is None or whole < b:
        return Fraction(whole)
    base = whole - 1
    return base + 1 / _simplest_between(
        1 / (b - base), None if a == base else 1 / (a - base)
    )


def invert_to_network(system: CircularSplitSystem) -> PhyloNetwork:
    """Positive-weighted network whose resistance splits equal the input.

    Raises NotInvertible when the products are inconsistent, when no cycle
    shares leave a bridge positive weight (naming the split), or when the
    final check, read from the skeleton's display catalog, fails.
    """
    net, catalog = _mul_inverse_weights(system)
    got = _display_totals(net, catalog)
    for s, w in system.entries:
        if not values_close(got[s], w):
            raise NotInvertibleError(f"weight mismatch on {s}")
    return net
