import itertools
import random
import time
from fractions import Fraction

import pytest

from phylocircuit import metrics, reconstruct
from phylocircuit.errors import (
    NegativeSplitWeightError,
    NotInvertibleError,
    NotKalmansonError,
    NotOneNestedError,
    ZeroWeightEdgeError,
)
from phylocircuit.metrics import (
    DistanceVector,
    is_kalmanson,
    min_path_vector,
    resistance_vector,
)
from phylocircuit.netgraph import (
    CircularOrder,
    PhyloNetwork,
    canonical_order,
    consistent_orders,
    validate,
    wye_delta,
)
from phylocircuit.randomnet import random_one_nested
from phylocircuit.rational import tolerance
from phylocircuit.reconstruct import (
    DecompositionResult,
    circular_decomposition,
    invert_to_network,
    min_path_split_system,
    resistance_split_system_direct,
)
from phylocircuit.splits import (
    CircularSplitSystem,
    Split,
    display_catalog,
    displayed_splits,
    network_from_splits,
    split_metric,
    trivial_split,
    weighted_network_from_splits,
)

from fixtures import (
    caterpillar,
    decomposed_resistance_splits,
    k33_with_leaves,
    quartet_tree,
    ring_with_pendants,
    scan_corpus,
    shuffled_order,
    square_with_pendants,
    triangle_with_leaves,
    without_edge,
)

F = Fraction

FIG_RESISTANCE = (
    3.99, 4.96, 6.41, 6.41, 6.84, 3.99,
    2.99, 4.46, 4.46, 4.91, 3.96,
    3.49, 3.49, 3.96, 4.91,
    1, 3.49, 6.34,
    3.49, 6.34,
    6.75,
)

FIG10_VECTOR = (
    F(122, 23), F(178, 23), F(108, 23), F(198, 23), F(168, 23), F(176, 23)
)


# ---------------------------------------------------------------------------
# circular decomposition


def test_star_metric_decomposes_to_trivial_splits():
    ws = [F(1), F(2), F(3), F(5), F(8)]
    d_vals = []
    for i in range(1, 6):
        for j in range(i + 1, 6):
            d_vals.append(ws[i - 1] + ws[j - 1])
    d = DistanceVector(5, tuple(d_vals))
    result = circular_decomposition(d, CircularOrder((1, 2, 3, 4, 5)))
    assert result.residual == 0
    assert result.system.splits == {trivial_split(i, 5) for i in range(1, 6)}
    for i in range(1, 6):
        assert result.system.weight(trivial_split(i, 5)) == ws[i - 1]


def test_quartet_tree_metric_round_trip():
    net = quartet_tree(w_inner=F(7, 2), pend=F(2))
    d = resistance_vector(net)
    result = circular_decomposition(d, CircularOrder((1, 2, 3, 4)))
    assert result.residual == 0
    assert result.system.weight(Split({1, 2}, 4)) == F(7, 2)
    assert split_metric(result.system) == d


def test_decomposition_rejects_non_kalmanson():
    from fixtures import k33_with_leaves

    d = resistance_vector(k33_with_leaves())
    with pytest.raises(NotKalmansonError) as info:
        circular_decomposition(d, CircularOrder((1, 2, 3, 4, 5, 6)))
    assert info.value.amount == F(2, 9)


def _decomposition_oracle(d, order, tol=None):
    """The arc loop over d.value: every split with the weight of the first
    arc met, and the result, which drops negative weights silently and,
    for floats, weights at or below the tolerance of the distances."""
    report = is_kalmanson(d, order, tol)
    if not report.passed:
        quad, amount = report.violations[0]
        raise NotKalmansonError(quad, amount)
    labels = order.labels
    n = d.n
    exact = d.is_exact
    half = Fraction(1, 2) if exact else 0.5
    weights = {}
    for start in range(n):
        for length in range(1, n):
            arc = [labels[(start + t) % n] for t in range(length)]
            before = labels[(start - 1) % n]
            after = labels[(start + length) % n]
            first, last = arc[0], arc[-1]
            w = half * (
                d.value(before, last)
                + d.value(first, after)
                - d.value(before, after)
                - d.value(first, last)
            )
            split = Split(arc, n)
            if split not in weights:
                weights[split] = w
    floor = Fraction(0) if exact else tolerance(d.values)
    kept = {s: w for s, w in weights.items() if w > floor}
    system = CircularSplitSystem.of_order(n, kept, order)
    deviations = [
        abs(a - b) for a, b in zip(split_metric(system).values, d.values)
    ]
    residual = max(deviations, default=Fraction(0))
    return weights, DecompositionResult(system=system, residual=residual)


def _signed_circular_vectors(rng, count):
    """Sums of random circular splits on a shuffled order whose trivial
    splits may weigh less than zero: Kalmanson there, metric or not."""
    for _ in range(count):
        n = rng.randint(4, 9)
        order = shuffled_order(n, rng)
        labels = order.labels
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        d = dict.fromkeys(pairs, F(0))
        for p in range(n - 1):
            for q in range(p, n - 1):
                arc = set(labels[p : q + 1])
                low = -6 if q == p or q - p == n - 2 else 0
                w = F(rng.randint(low, 6), rng.randint(1, 3))
                for i, j in pairs:
                    if (i in arc) != (j in arc):
                        d[(i, j)] += w
        yield DistanceVector(n, tuple(d[pair] for pair in pairs)), order


def test_decomposition_matches_arc_oracle():
    outcomes = {"equal": 0, "not kalmanson": 0, "negative": 0}
    cases = itertools.chain(
        scan_corpus(seed=47, count=6),
        _signed_circular_vectors(random.Random(53), 20),
    )
    for d, order in cases:
        try:
            weights, want = _decomposition_oracle(d, order)
        except NotKalmansonError as exc:
            with pytest.raises(NotKalmansonError) as info:
                circular_decomposition(d, order)
            assert info.value.quadruple == exc.quadruple
            assert info.value.amount == exc.amount
            outcomes["not kalmanson"] += 1
            continue
        eps = 0 if d.is_exact else tolerance(d.values)
        negative = [
            (s, w) for s, w in weights.items() if s.is_trivial and w < -eps
        ]
        if negative:
            with pytest.raises(NegativeSplitWeightError) as info:
                circular_decomposition(d, order)
            assert (info.value.split, info.value.weight) == negative[0]
            outcomes["negative"] += 1
            continue
        got = circular_decomposition(d, order)
        assert got.system == want.system
        assert [repr(w) for _, w in got.system.entries] == [
            repr(w) for _, w in want.system.entries
        ]
        assert repr(got.residual) == repr(want.residual)
        outcomes["equal"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_negative_trivial_weight_raises():
    # Kalmanson on (1,2,3,4), but d13 = 10 breaks the triangle inequality
    d = DistanceVector(4, (F(1), F(10), F(1), F(1), F(1), F(1)))
    order = CircularOrder((1, 2, 3, 4))
    assert is_kalmanson(d, order).passed
    with pytest.raises(NegativeSplitWeightError, match="negative weight -4") as info:
        circular_decomposition(d, order)
    assert info.value.split == trivial_split(4, 4)
    assert info.value.weight == -4


def test_exact_decomposition_runs_no_scan_and_no_residual(monkeypatch):
    # the arcs are the check and the residual is 0 by the basis theorem,
    # so a passing exact vector is neither scanned nor re-summed
    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    for module in (reconstruct, metrics):
        for name in ("is_kalmanson", "split_metric"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    rng = random.Random(71)
    for n in (4, 9, 24):
        net = random_one_nested(n, rng)
        for d in (resistance_vector(net), min_path_vector(net)):
            result = circular_decomposition(d, canonical_order(net))
            assert result.residual == 0 and type(result.residual) is Fraction
    # a level-2 network's min-path splits, on the order the search finds
    from phylocircuit.enum2 import add_heavy_chord

    chorded = add_heavy_chord(square_with_pendants(), 0, ("c1", "c3"), F(1000))
    assert min_path_split_system(chorded).splits


def _arc_sum_vector(weights, n):
    """The exact vector of circular splits on the order 1..n, the arc
    {p..q} weighing ``weights.get((p, q), 1)``."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    d = dict.fromkeys(pairs, F(0))
    for p in range(1, n):
        for q in range(p, n):
            w = F(weights.get((p, q), 1))
            for i, j in pairs:
                if (p <= i <= q) != (p <= j <= q):
                    d[(i, j)] += w
    return DistanceVector(n, tuple(d[pair] for pair in pairs))


def test_not_kalmanson_beats_an_earlier_negative_trivial_split():
    # the arc loop meets leaf 1's negative trivial split before the
    # negative arc {2, 3}; the inequality failure is still the error, and
    # it names the scan's first violation
    order = CircularOrder((1, 2, 3, 4, 5))
    d = _arc_sum_vector({(1, 1): -3, (2, 3): F(-1, 2)}, 5)
    report = is_kalmanson(d, order)
    assert not report.passed
    with pytest.raises(NotKalmansonError) as info:
        circular_decomposition(d, order)
    assert (info.value.quadruple, info.value.amount) == report.violations[0]
    assert str(info.value) == str(NotKalmansonError(*report.violations[0]))
    # without the negative arc the trivial split is the error
    with pytest.raises(NegativeSplitWeightError) as info:
        circular_decomposition(_arc_sum_vector({(1, 1): -3}, 5), order)
    assert (info.value.split, info.value.weight) == (trivial_split(1, 5), -3)


def test_exact_splits_reproduce_the_vector():
    # the n(n-1)/2 splits of an order are a basis, so the kept splits sum
    # back to d exactly, which is why exact decomposition reports residual
    # 0 without computing it
    checked = 0
    for n in (*range(4, 17), 24, 32, 48, 64):
        for binary in (False, True):
            net = random_one_nested(n, random.Random(1000 * n + binary), binary=binary)
            for d in (resistance_vector(net), min_path_vector(net)):
                dec = circular_decomposition(d, canonical_order(net))
                assert split_metric(dec.system).values == d.values
                checked += 1
    assert checked == 4 * 17


def test_float_noise_on_zero_trivial_weight_is_dropped():
    # star metric with leaf 2 on a zero-weight edge and d13 nudged up, which
    # gives leaf 2's trivial split weight -delta/2
    ws = [1.0, 0.0, 2.0, 3.0]
    star_values = [ws[i] + ws[j] for i, j in itertools.combinations(range(4), 2)]
    order = CircularOrder((1, 2, 3, 4))

    def nudged(delta):
        values = list(star_values)
        values[1] += delta
        return DistanceVector(4, tuple(values))

    result = circular_decomposition(nudged(2e-12), order)
    assert trivial_split(2, 4) not in result.system.splits
    with pytest.raises(NegativeSplitWeightError) as info:
        circular_decomposition(nudged(2e-6), order)
    assert info.value.split == trivial_split(2, 4)


def test_published_seven_leaf_vector_contains_heavy_split():
    d = DistanceVector(7, FIG_RESISTANCE)
    result = circular_decomposition(d, CircularOrder(tuple(range(1, 8))))
    target = Split({4, 5, 6}, 7)
    assert target in result.system.splits
    assert abs(result.system.weight(target) - 0.95) <= 0.02


def test_unit_square_decomposition_weights():
    net = square_with_pendants()
    d = resistance_vector(net)
    result = circular_decomposition(d, CircularOrder((1, 2, 3, 4)))
    sys = result.system
    assert sys.weight(Split({1, 2}, 4)) == F(1, 4)
    assert sys.weight(Split({2, 3}, 4)) == F(1, 4)
    for lab in range(1, 5):
        assert sys.weight(trivial_split(lab, 4)) == F(5, 4)
    assert result.residual == 0


# ---------------------------------------------------------------------------
# resistance split systems (decomposed vs direct)


def test_tree_identity_both_routes():
    net = quartet_tree(w_inner=F(3), pend=F(2))
    via_metric = decomposed_resistance_splits(net)
    direct = resistance_split_system_direct(net)
    assert via_metric.same_weighted_splits(direct)
    assert via_metric.weight(Split({1, 2}, 4)) == F(3)


def test_six_cycle_95_fixture_direct_weight():
    # cut edges for {4,5,6} are c3-c4 and c6-c1: weights 95 and 1, total 100
    net = ring_with_pendants(
        6, cycle_weights=[F(1), F(1), F(95), F(1), F(1), F(1)]
    )
    sys = resistance_split_system_direct(net)
    target = Split({4, 5, 6}, 6)
    assert sys.weight(target) == F(95, 100)
    via_metric = decomposed_resistance_splits(net)
    assert via_metric.same_weighted_splits(sys)


def test_direct_equals_decomposed_random():
    rng = random.Random(77)
    for _ in range(15):
        net = random_one_nested(rng.randint(4, 7), rng)
        a = decomposed_resistance_splits(net)
        b = resistance_split_system_direct(net)
        assert a.same_weighted_splits(b)


def test_split_sets_match_displayed_splits():
    rng = random.Random(78)
    for _ in range(12):
        net = random_one_nested(rng.randint(4, 7), rng)
        assert decomposed_resistance_splits(net).splits == displayed_splits(net).splits


def test_rebuild_of_decomposition_recovers_class():
    rng = random.Random(79)
    for _ in range(10):
        net = random_one_nested(rng.randint(4, 7), rng)
        sys = decomposed_resistance_splits(net)
        rebuilt = network_from_splits(sys)
        assert displayed_splits(rebuilt).splits == displayed_splits(net).splits


def test_direct_equals_float_decomposition_within_rounding():
    # same splits as the float oracle after its rounding-noise splits, and
    # weights within 1e-9 of the largest; float weights throughout, also
    # when only some edge weights are floats
    rng = random.Random(84)
    for k in range(30):
        net = random_one_nested(rng.randint(3, 12), rng, binary=k % 2 == 0)
        variants = [
            [(u, v, float(w) * scale) for u, v, w in net.edge_items]
            for scale in (1e-3, 1.0)
        ]
        variants.append(
            [
                (u, v, float(w) if t % 2 else w)
                for t, (u, v, w) in enumerate(net.edge_items)
            ]
        )
        for edges in variants:
            scaled = PhyloNetwork.build(net.leaves, edges, strict=True)
            direct = resistance_split_system_direct(scaled)
            oracle = decomposed_resistance_splits(scaled)
            assert direct.splits == displayed_splits(net).splits
            assert all(isinstance(w, float) for _, w in direct.entries)
            top = max(w for _, w in direct.entries)
            for s, w in oracle.entries:
                if s in direct.splits:
                    assert abs(direct.weight(s) - w) <= 1e-9 * top
                else:
                    assert w < 1e-6 * top
            assert direct.splits <= oracle.splits


def test_direct_errors_follow_level_then_zero_weight():
    zero_pendant = square_with_pendants(pendant_weights=[F(1), F(0), F(1), F(1)])
    zero_cycle = square_with_pendants(cycle_weights=[F(0)] * 4)
    for net in (zero_pendant, zero_cycle):
        with pytest.raises(ZeroWeightEdgeError):
            resistance_split_system_direct(net)
    from phylocircuit.enum2 import add_heavy_chord

    chorded = add_heavy_chord(zero_pendant, 0, ("c1", "c3"), F(1000))
    with pytest.raises(NotOneNestedError):
        resistance_split_system_direct(chorded)


def test_decomposition_same_for_every_kalmanson_order():
    rng = random.Random(80)
    for _ in range(8):
        net = random_one_nested(rng.randint(4, 6), rng)
        d = resistance_vector(net)
        systems = []
        for order in consistent_orders(net):
            if is_kalmanson(d, order).passed:
                systems.append(circular_decomposition(d, order).system)
        first = systems[0]
        for other in systems[1:]:
            assert first.same_weighted_splits(other)


# ---------------------------------------------------------------------------
# minimum-path split systems


def test_min_path_system_tree_identity():
    net = quartet_tree(w_inner=F(3), pend=F(2))
    sys = min_path_split_system(net)
    assert sys.weight(Split({1, 2}, 4)) == F(3)
    assert split_metric(sys) == min_path_vector(net)


def test_min_path_drops_heavy_cycle_splits():
    heavy = square_with_pendants(cycle_weights=[F(50), F(1), F(1), F(1)])
    s_path = min_path_split_system(heavy)
    s_res = decomposed_resistance_splits(heavy)
    assert s_res.splits == displayed_splits(heavy).splits
    assert s_path.splits < s_res.splits


def test_min_path_system_reproduces_metric_outer_path():
    rng = random.Random(81)
    for _ in range(10):
        net = random_one_nested(rng.randint(4, 7), rng)
        sys = min_path_split_system(net)
        assert split_metric(sys) == min_path_vector(net)
        rebuilt = weighted_network_from_splits(sys)
        assert min_path_vector(rebuilt) == split_metric(sys)


def test_min_path_system_is_decomposition_on_canonical_order():
    # alternating leaf paths around an outer-planar drawing cross, so the
    # min-path vector passes on every consistent order, the least included
    rng = random.Random(83)
    for k in range(40):
        net = random_one_nested(rng.randint(3, 9), rng, binary=k % 2 == 0)
        d = min_path_vector(net)
        assert all(is_kalmanson(d, o).passed for o in consistent_orders(net))
        want = circular_decomposition(d, canonical_order(net)).system
        assert min_path_split_system(net) == want


def test_min_path_of_rebuild_is_fixed_point():
    rng = random.Random(82)
    for _ in range(10):
        net = random_one_nested(rng.randint(4, 7), rng)
        sys = min_path_split_system(net)
        again = min_path_split_system(weighted_network_from_splits(sys))
        assert sys.same_weighted_splits(again)


def test_min_path_system_rejects_k33():
    # K3,3 is level 2 and its min-path vector has no Kalmanson order
    with pytest.raises(NotKalmansonError) as info:
        min_path_split_system(k33_with_leaves())
    assert info.value.quadruple == (1, 2, 4, 5)
    assert info.value.amount == 2


def test_min_path_system_on_two_nested_input():
    from phylocircuit.enum2 import add_heavy_chord

    net = square_with_pendants()
    chorded = add_heavy_chord(net, 0, ("c1", "c3"), F(1000))
    assert min_path_split_system(chorded).same_weighted_splits(
        min_path_split_system(net)
    )


# ---------------------------------------------------------------------------
# inversion


def test_invert_tree_system():
    net = quartet_tree(w_inner=F(3), pend=F(2))
    sys = decomposed_resistance_splits(net)
    back = invert_to_network(sys)
    assert resistance_vector(back) == resistance_vector(net)


def test_invert_unit_square_recovers_weights():
    net = square_with_pendants()
    sys = decomposed_resistance_splits(net)
    back = invert_to_network(sys)
    weights = sorted(back.edge_items, key=lambda t: (t[0], t[1]))
    cycle_ws = [w for u, v, w in weights if not (u.startswith("x") or v.startswith("x"))]
    pend_ws = [w for u, v, w in weights if u.startswith("x") or v.startswith("x")]
    assert all(w == 1 for w in cycle_ws)
    assert all(w == 1 for w in pend_ws)
    assert resistance_vector(back) == resistance_vector(net)


def test_invert_six_cycle_95_exact():
    net = ring_with_pendants(
        6, cycle_weights=[F(1), F(1), F(95), F(1), F(1), F(1)]
    )
    sys = resistance_split_system_direct(net)
    back = invert_to_network(sys)
    assert back.is_exact
    assert resistance_vector(back) == resistance_vector(net)
    assert sorted(w for _, _, w in back.edge_items) == sorted(
        w for _, _, w in net.edge_items
    )


def test_invert_random_round_trip():
    rng = random.Random(83)
    done = 0
    for _ in range(20):
        net = random_one_nested(rng.randint(4, 7), rng)
        sys = decomposed_resistance_splits(net)
        back = invert_to_network(sys)
        d1, d2 = resistance_vector(net), resistance_vector(back)
        for a, b in zip(d1.values, d2.values):
            if isinstance(a, F) and isinstance(b, F):
                assert a == b
            else:
                assert abs(float(a) - float(b)) <= 1e-9 * max(1.0, float(b))
        done += 1
    assert done == 20


def test_invert_rejects_missing_weight():
    # dropping one ring split leaves a class that still rebuilds the whole
    # 5-cycle, so the skeleton displays a split carrying no weight
    sys = decomposed_resistance_splits(ring_with_pendants(5))
    smaller = [(s, w) for s, w in sys.entries if s != Split({1, 2}, 5)]
    from phylocircuit.splits import CircularSplitSystem

    broken = CircularSplitSystem.of_order(5, smaller, sys.order)
    with pytest.raises(NotInvertibleError):
        invert_to_network(broken)


def test_invert_final_check_catches_a_weight_mismatch(monkeypatch):
    # a cycle weight off by one part in a million must fail the final check,
    # which names the first split whose display weights disagree
    system = resistance_split_system_direct(
        ring_with_pendants(5, [F(1), F(2), F(3), F(4), F(5)])
    )
    solve = reconstruct._cycle_weights

    def skewed(m, products):
        weights = solve(m, products)
        if weights is not None:
            weights[0] *= 1 + F(1, 10**6)
        return weights

    monkeypatch.setattr(reconstruct, "_cycle_weights", skewed)
    with pytest.raises(NotInvertibleError) as info:
        invert_to_network(system)
    assert str(info.value) == "weight mismatch on {1,2}|{3,4,5}"


def test_invert_reads_one_display_catalog(monkeypatch):
    # the final check reuses the skeleton's catalog instead of building one
    # for the result, which has the same nodes and edges
    networks = [
        ring_with_pendants(5),
        quartet_tree(),
        random_one_nested(40, random.Random(40)),
        random_one_nested(24, random.Random(24), binary=True),
    ]
    systems = [resistance_split_system_direct(net) for net in networks]
    catalogs = []
    build = reconstruct.display_catalog

    def counted(net):
        catalogs.append(net)
        return build(net)

    monkeypatch.setattr(reconstruct, "display_catalog", counted)
    for system in systems:
        catalogs.clear()
        invert_to_network(system)
        assert len(catalogs) == 1


# ---------------------------------------------------------------------------
# indistinguishable weightings


def test_triangle_and_star_image_share_resistance_splits():
    net = triangle_with_leaves(tri=[F(2), F(3), F(4)], pend=[F(1), F(2), F(1), F(3)])
    image = wye_delta(net, ("t1", "t2", "t3"))
    assert resistance_vector(net) == resistance_vector(image)
    d = resistance_vector(net)
    r1 = circular_decomposition(d, CircularOrder((1, 2, 3, 4)))
    assert r1.residual == 0


def test_published_four_leaf_vector_decomposes_and_inverts():
    d = DistanceVector(4, FIG10_VECTOR)
    # the crossing pairs sums: 300/23? compute: the Kalmanson order exists
    found = None
    from phylocircuit.metrics import find_kalmanson_order

    result = find_kalmanson_order(d, mode="exact")
    assert result.found
    dec = circular_decomposition(d, result.order)
    assert dec.residual == 0
    net = invert_to_network(dec.system)
    assert resistance_vector(net).values == pytest.approx(
        tuple(float(v) for v in d.values), abs=1e-9
    ) or resistance_vector(net) == d


# ---------------------------------------------------------------------------
# heavy edge limit in split weights


def test_heavy_edge_split_weights_approach_deleted_network():
    heavy = square_with_pendants(
        cycle_weights=[float(1e8), 1.0, 1.0, 1.0],
        pendant_weights=[1.0, 1.0, 1.0, 1.0],
    )
    deleted = without_edge(square_with_pendants(), "c1", "c2")
    sys_heavy = decomposed_resistance_splits(heavy)
    sys_del = decomposed_resistance_splits(deleted)
    for s, w in sys_del.entries:
        wh = sys_heavy.weight(s)
        assert abs(float(wh) - float(w)) <= 1e-5 * max(1.0, float(w))
    extras = sys_heavy.splits - sys_del.splits
    for s in extras:
        assert float(sys_heavy.weight(s)) <= 1e-5


def test_double_display_sums_both_contributions():
    # one split displayed by a bridge and by a cycle pair: the direct route
    # adds w(bridge) + a*x/z and the decomposition agrees exactly
    net = validate(
        {i: f"x{i}" for i in range(1, 6)},
        [
            ("a", "b", F(1)),
            ("b", "c", F(2)),
            ("c", "d", F(3)),
            ("d", "a", F(4)),
            ("a", "t", F(5)),
            ("t", "x1", F(1)),
            ("t", "x2", F(1)),
            ("x3", "b", F(1)),
            ("x4", "c", F(1)),
            ("x5", "d", F(1)),
        ],
    )
    target = Split({1, 2}, 5)
    direct = resistance_split_system_direct(net)
    # bridge a-t carries 5; the adjacent cycle pair (d-a, a-b) adds 4*1/10
    assert direct.weight(target) == F(5) + F(4) * F(1) / F(10)
    assert decomposed_resistance_splits(net).same_weighted_splits(direct)


def test_three_leaf_search_returns_identity_order():
    from phylocircuit.metrics import find_kalmanson_order
    d = DistanceVector(3, (F(3), F(4), F(5)))
    result = find_kalmanson_order(d, mode="exact")
    assert result.order == CircularOrder((1, 2, 3))


def test_min_path_images_are_outer_path():
    from phylocircuit.splits import is_outer_path

    rng = random.Random(91)
    for _ in range(8):
        net = random_one_nested(rng.randint(4, 7), rng)
        assert is_outer_path(min_path_split_system(net))


def test_invert_asymmetric_square_uses_feasible_weighting():
    # opposite shares leave one degree of freedom per diagonal, bounded by
    # the pendant bridges; the recovered network may weigh edges differently
    # but must reproduce the splits and the resistance vector exactly
    net = square_with_pendants(
        cycle_weights=[F(1), F(7, 3), F(9), F(4)],
        pendant_weights=[F(1, 2), F(1), F(2), F(1)],
    )
    sys = decomposed_resistance_splits(net)
    back = invert_to_network(sys)
    assert back.is_exact
    assert resistance_split_system_direct(back).same_weighted_splits(sys)
    assert resistance_vector(back) == resistance_vector(net)


def test_invert_round_trip_large_leaf_counts():
    rng = random.Random(314)
    for _ in range(12):
        net = random_one_nested(rng.randint(8, 10), rng)
        sys = decomposed_resistance_splits(net)
        back = invert_to_network(sys)
        d1, d2 = resistance_vector(net), resistance_vector(back)
        for a, b in zip(d1.values, d2.values):
            if isinstance(a, F) and isinstance(b, F):
                assert a == b
            else:
                assert abs(float(a) - float(b)) <= 1e-8 * max(1.0, abs(float(b)))


def _assert_exact_inverse(system):
    back = invert_to_network(system)
    assert all(isinstance(w, F) for _, _, w in back.edge_items)
    assert resistance_split_system_direct(back).same_weighted_splits(system)
    return back


@pytest.mark.parametrize(
    "n, binary, s", [(26, True, 0), (32, False, 0), (32, False, 4)]
)
def test_invert_bridge_split_shared_by_two_free_shares(n, binary, s):
    # one bridge split of the rebuilt skeleton is also shown by a node share
    # of each of two 4-cycles: the sum of both shares, not each share on
    # its own, must stay below the split's weight
    net = random_one_nested(n, random.Random(7919 * n + s), binary=binary)
    _assert_exact_inverse(resistance_split_system_direct(net))


def test_invert_exact_on_seeded_corpus():
    for n in range(6, 31, 4):
        for binary in (True, False):
            net = random_one_nested(n, random.Random(7919 * n + 1), binary=binary)
            _assert_exact_inverse(resistance_split_system_direct(net))


def test_exact_random_suite_up_to_64_leaves():
    rng = random.Random(6464)
    for k in range(40):
        n = 4 + 60 * k // 39
        net = random_one_nested(n, rng, binary=k % 2 == 0)
        order = canonical_order(net)
        d = resistance_vector(net)
        assert is_kalmanson(d, order).passed
        direct = resistance_split_system_direct(net)
        assert circular_decomposition(d, order).system.same_weighted_splits(direct)
        assert resistance_split_system_direct(invert_to_network(direct)) == direct


def _seconds(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_rebuild_and_invert_times_at_size():
    # the caterpillar's splits nest 1,197 deep; the sweep hangs them
    # without recursion, and reads every position from one map
    system = resistance_split_system_direct(caterpillar(1200))
    assert _seconds(weighted_network_from_splits, system) < 2.0
    assert _seconds(invert_to_network, system) < 6.0
    system = resistance_split_system_direct(random_one_nested(512, random.Random(512)))
    assert min(_seconds(weighted_network_from_splits, system) for _ in range(3)) < 0.3


def _assert_float_inverse(system):
    # float weights: the rebuilt network's splits match within 1e-9 relative
    back = invert_to_network(system)
    assert not back.is_exact
    check = resistance_split_system_direct(back)
    assert check.splits == system.splits
    got = dict(check.entries)
    for s, w in system.entries:
        assert abs(got[s] - w) <= 1e-9 * abs(w)
    return back


def _scaled(system, scale):
    return CircularSplitSystem.of_order(
        system.n, [(s, float(w) * scale) for s, w in system.entries], system.order
    )


def test_invert_float_asymmetric_square_with_free_shares():
    net = square_with_pendants(
        cycle_weights=[F(1), F(7, 3), F(9), F(4)],
        pendant_weights=[F(1, 2), F(1), F(2), F(1)],
    )
    _assert_float_inverse(_scaled(decomposed_resistance_splits(net), 1.37))


def test_invert_float_on_seeded_corpus():
    for n in range(6, 31, 4):
        for binary in (True, False):
            net = random_one_nested(n, random.Random(7919 * n + 1), binary=binary)
            _assert_float_inverse(_scaled(resistance_split_system_direct(net), 1.37))


def test_invert_split_of_a_node_on_two_squares():
    # ring node h lies on both 4-cycles and carries no leaf
    net = validate(
        {i: f"x{i}" for i in range(1, 7)},
        [
            ("h", "a1", F(1)), ("a1", "a2", F(2)), ("a2", "a3", F(3)),
            ("a3", "h", F(4)), ("h", "b1", F(5)), ("b1", "b2", F(1)),
            ("b2", "b3", F(2)), ("b3", "h", F(3)),
            ("a1", "x1", F(1)), ("a2", "x2", F(1)), ("a3", "x3", F(1)),
            ("b1", "x4", F(1)), ("b2", "x5", F(1)), ("b3", "x6", F(1)),
        ],
    )
    kinds = [d[0] for d in display_catalog(net)[Split({1, 2, 3}, 6)]]
    assert kinds == ["pair", "pair"]
    back = _assert_exact_inverse(resistance_split_system_direct(net))
    assert resistance_vector(back) == resistance_vector(net)


def test_invert_infeasible_square_names_its_split():
    # leaves 1 and 3 hang off opposite ring nodes, whose shares multiply to
    # P02*P13 = 1/16; trivial weights of 1/4 each leave no room for both
    # pendant bridges, just above that they fit
    system = resistance_split_system_direct(square_with_pendants())
    weights = dict(system.entries)
    weights[trivial_split(1, 4)] = weights[trivial_split(3, 4)] = F(1, 4)
    with pytest.raises(NotInvertibleError) as info:
        invert_to_network(CircularSplitSystem.of_order(4, weights, system.order))
    assert str(info.value) == (
        "no cycle shares leave a positive bridge weight for {1,2,4}|{3}"
    )
    weights[trivial_split(3, 4)] += F(1, 10**6)
    _assert_exact_inverse(CircularSplitSystem.of_order(4, weights, system.order))
