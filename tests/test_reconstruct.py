import itertools
import random
from fractions import Fraction

import pytest

from phylocircuit.errors import (
    NegativeSplitWeightError,
    NotInvertibleError,
    NotKalmansonError,
)
from phylocircuit.metrics import (
    DistanceVector,
    is_kalmanson,
    min_path_vector,
    resistance_vector,
)
from phylocircuit.netgraph import (
    CircularOrder,
    canonical_order,
    consistent_orders,
    validate,
    wye_delta,
)
from phylocircuit.randomnet import random_one_nested
from phylocircuit.rational import FLOAT_TOL
from phylocircuit.reconstruct import (
    DecompositionResult,
    circular_decomposition,
    invert_to_network,
    min_path_split_system,
    resistance_split_system,
    resistance_split_system_direct,
)
from phylocircuit.splits import (
    CircularSplitSystem,
    Split,
    displayed_splits,
    network_from_splits,
    split_metric,
    trivial_split,
    weighted_network_from_splits,
)

from fixtures import (
    quartet_tree,
    ring_with_pendants,
    scan_corpus,
    shuffled_order,
    square_with_pendants,
    triangle_with_leaves,
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


def _decomposition_oracle(d, order, tol=None, drop_below=1e-9):
    """The arc loop over d.value: every split with the weight of the first
    arc met, and the result, which drops negative weights silently."""
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
    floor = Fraction(0) if exact else drop_below
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
        eps = 0 if d.is_exact else FLOAT_TOL
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
    via_metric = resistance_split_system(net)
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
    via_metric = resistance_split_system(net)
    assert via_metric.same_weighted_splits(sys)


def test_direct_equals_decomposed_random():
    rng = random.Random(77)
    for _ in range(15):
        net = random_one_nested(rng.randint(4, 7), rng)
        a = resistance_split_system(net)
        b = resistance_split_system_direct(net)
        assert a.same_weighted_splits(b)


def test_split_sets_match_displayed_splits():
    rng = random.Random(78)
    for _ in range(12):
        net = random_one_nested(rng.randint(4, 7), rng)
        assert resistance_split_system(net).splits == displayed_splits(net).splits


def test_rebuild_of_decomposition_recovers_class():
    rng = random.Random(79)
    for _ in range(10):
        net = random_one_nested(rng.randint(4, 7), rng)
        sys = resistance_split_system(net)
        rebuilt = network_from_splits(sys.strip_weights())
        assert displayed_splits(rebuilt).splits == displayed_splits(net).splits


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
    s_res = resistance_split_system(heavy)
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
    sys = resistance_split_system(net)
    back = invert_to_network(sys)
    assert resistance_vector(back) == resistance_vector(net)


def test_invert_unit_square_recovers_weights():
    net = square_with_pendants()
    sys = resistance_split_system(net)
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
        sys = resistance_split_system(net)
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
    sys = resistance_split_system(ring_with_pendants(5))
    smaller = [(s, w) for s, w in sys.entries if s != Split({1, 2}, 5)]
    from phylocircuit.splits import CircularSplitSystem

    broken = CircularSplitSystem.of_order(5, smaller, sys.order)
    with pytest.raises(NotInvertibleError):
        invert_to_network(broken)


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
    deleted = square_with_pendants().without_edge("c1", "c2")
    sys_heavy = resistance_split_system(heavy)
    sys_del = resistance_split_system(deleted)
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
    assert resistance_split_system(net).same_weighted_splits(direct)


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
    # opposite products leave one degree of freedom per diagonal; the
    # symmetric choice is infeasible here, so a bounded feasible scale must
    # be found (the recovered network may weigh edges differently but must
    # reproduce the resistance vector)
    net = square_with_pendants(
        cycle_weights=[F(1), F(7, 3), F(9), F(4)],
        pendant_weights=[F(1, 2), F(1), F(2), F(1)],
    )
    sys = resistance_split_system(net)
    back = invert_to_network(sys)
    d1, d2 = resistance_vector(net), resistance_vector(back)
    for a, b in zip(d1.values, d2.values):
        assert abs(float(a) - float(b)) <= 1e-8 * max(1.0, abs(float(b)))


def test_invert_round_trip_large_leaf_counts():
    rng = random.Random(314)
    for _ in range(12):
        net = random_one_nested(rng.randint(8, 10), rng)
        sys = resistance_split_system(net)
        back = invert_to_network(sys)
        d1, d2 = resistance_vector(net), resistance_vector(back)
        for a, b in zip(d1.values, d2.values):
            if isinstance(a, F) and isinstance(b, F):
                assert a == b
            else:
                assert abs(float(a) - float(b)) <= 1e-8 * max(1.0, abs(float(b)))
