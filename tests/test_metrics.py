import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phylocircuit.errors import (
    SizeMismatchError,
    TooLargeForExactError,
    ValidationError,
    ZeroWeightEdgeError,
)
from phylocircuit.metrics import (
    DistanceVector,
    KalmansonReport,
    OrderSearchResult,
    distance_vector_to_text,
    find_kalmanson_order,
    is_kalmanson,
    min_path_vector,
    pair_index,
    pairwise_circuit,
    parse_distance_vector,
    resistance_by_reduction,
    resistance_vector,
)
from phylocircuit.netgraph import CircularOrder, classify, wye_delta
from phylocircuit.randomnet import random_one_nested
from phylocircuit.rational import FLOAT_TOL

from fixtures import (
    k33_with_leaves,
    k5_with_leaves,
    quartet_tree,
    ring_with_pendants,
    scan_corpus,
    shuffled_order,
    square_with_pendants,
    star,
    triangle_with_leaves,
    two_cycles_with_bridge,
    two_leaf_edge,
)

F = Fraction

# published example vectors (7 leaves, lexicographic pair order)
FIG_MINPATH_A = (
    4, 5, 6.5, 6.5, 7, 4,
    3, 4.5, 4.5, 5, 4,
    3.5, 3.5, 4, 5,
    1, 3.5, 6.5,
    3.5, 6.5,
    7,
)
FIG_RESISTANCE = (
    3.99, 4.96, 6.41, 6.41, 6.84, 3.99,
    2.99, 4.46, 4.46, 4.91, 3.96,
    3.49, 3.49, 3.96, 4.91,
    1, 3.49, 6.34,
    3.49, 6.34,
    6.75,
)


# ---------------------------------------------------------------------------
# resistance via the node equations


def test_two_branch_circuit_closed_form():
    # branches (2,2) and (1,1) in parallel between a and b, unit taps:
    # R = (2+2)(1+1)/(2+2+1+1) + 1 + 1
    from phylocircuit.netgraph import PhyloNetwork

    net = PhyloNetwork.build(
        {1: "x1", 2: "x2"},
        [
            ("x1", "a", F(1)),
            ("a", "m", F(2)),
            ("m", "b", F(2)),
            ("a", "p", F(1)),
            ("p", "b", F(1)),
            ("b", "x2", F(1)),
        ],
        strict=False,
    )
    d = resistance_vector(net)
    assert d.value(1, 2) == F(4) * F(2) / F(6) + 2


def test_single_edge_resistance_is_weight():
    net = two_leaf_edge(F(5))
    assert resistance_vector(net).value(1, 2) == F(5)


def test_k33_resistances_exact():
    d = resistance_vector(k33_with_leaves())
    assert d.value(1, 2) == F(8, 3)
    assert d.value(1, 4) == F(23, 9)
    same = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
    for i, j in same:
        assert d.value(i, j) == F(8, 3)
    for i in (1, 2, 3):
        for j in (4, 5, 6):
            assert d.value(i, j) == F(23, 9)


def test_zero_weight_edge_rejected():
    net = square_with_pendants(cycle_weights=[F(0), F(1), F(1), F(1)])
    with pytest.raises(ZeroWeightEdgeError):
        resistance_vector(net)


def test_wye_delta_fixed_leaf_resistances():
    net = triangle_with_leaves(tri=[F(2), F(3), F(4)], pend=[F(1), F(2), F(1), F(3)])
    image = wye_delta(net, ("t1", "t2", "t3"))
    assert resistance_vector(net) == resistance_vector(image)


# ---------------------------------------------------------------------------
# reduction oracle


def test_reduction_matches_solver_on_examples():
    for net in (
        quartet_tree(),
        square_with_pendants(),
        ring_with_pendants(5),
        two_cycles_with_bridge(),
    ):
        d = resistance_vector(net)
        for i in range(1, net.n + 1):
            for j in range(i + 1, net.n + 1):
                assert resistance_by_reduction(net, i, j) == d.value(i, j)


def test_reduction_unit_square_opposite_corners():
    net = square_with_pendants()
    # opposite corners of the unit square: (1+1)(1+1)/4 plus pendants
    assert resistance_by_reduction(net, 1, 3) == F(1) + 2


def test_reduction_matches_solver_random_level2():
    rng = random.Random(5)
    for _ in range(10):
        net = random_one_nested(rng.randint(4, 7), rng)
        d = resistance_vector(net)
        for i in range(1, net.n + 1):
            for j in range(i + 1, net.n + 1):
                assert resistance_by_reduction(net, i, j) == d.value(i, j)


def test_reduction_on_theta_block():
    from phylocircuit.enum2 import enumerate_binary_two_nested

    nets = enumerate_binary_two_nested(4)[:3]
    for net in nets:
        d = resistance_vector(net)
        for i in range(1, 5):
            for j in range(i + 1, 5):
                assert resistance_by_reduction(net, i, j) == d.value(i, j)


# ---------------------------------------------------------------------------
# minimum path


def test_min_path_square_two_candidate_routes():
    net = square_with_pendants(cycle_weights=[F(1), F(2), F(4), F(8)])
    d = min_path_vector(net)
    assert d.value(1, 3) == 1 + min(F(1) + F(2), F(4) + F(8)) + 1


def test_min_path_equals_resistance_on_trees():
    rng = random.Random(9)
    for _ in range(15):
        net = random_one_nested(rng.randint(4, 8), rng, cycle_prob=0.0)
        assert classify(net).level == 0
        assert min_path_vector(net) == resistance_vector(net)


def test_fig_minpath_vector_shape_and_kalmanson():
    d = DistanceVector(7, FIG_MINPATH_A)
    assert len(d.values) == 21
    assert is_kalmanson(d, CircularOrder(tuple(range(1, 8)))).passed


# ---------------------------------------------------------------------------
# pairwise circuit


def test_pairwise_circuit_tree_is_path():
    net = quartet_tree()
    sub = pairwise_circuit(net, 1, 3)
    assert len(sub.edge_items) == 3
    assert set(sub.leaves) == {1, 3}


def test_pairwise_circuit_keeps_whole_cycles():
    net = two_cycles_with_bridge()
    sub = pairwise_circuit(net, 1, 6)  # hexagon leaf to quad leaf
    # pendant edges + both full cycles + the bridge
    assert len(sub.edge_items) == 2 + 6 + 4 + 1


def test_pairwise_circuit_adjacent_leaves_same_junction():
    net = star(4)
    sub = pairwise_circuit(net, 1, 2)
    assert len(sub.edge_items) == 2


# ---------------------------------------------------------------------------
# Kalmanson checks


def test_star_metric_all_equalities():
    d = resistance_vector(star(5))
    report = is_kalmanson(d, CircularOrder((1, 2, 3, 4, 5)))
    assert report.passed
    assert report.equalities == 5  # every quadruple ties


def test_k33_violation_amount_exact():
    d = resistance_vector(k33_with_leaves())
    result = find_kalmanson_order(d, mode="exact")
    assert not result.found
    assert result.orders_checked == 60
    assert result.best_violation == F(2, 9)


def test_k33_every_order_rejected_with_report():
    d = resistance_vector(k33_with_leaves())
    report = is_kalmanson(d, CircularOrder((1, 2, 3, 4, 5, 6)))
    assert not report.passed
    assert report.max_violation == F(2, 9)


def test_k5_unit_is_kalmanson():
    d = resistance_vector(k5_with_leaves())
    assert is_kalmanson(d, CircularOrder((1, 2, 3, 4, 5))).passed


def test_small_n_vacuous():
    d = DistanceVector(3, (F(1), F(2), F(3)))
    assert is_kalmanson(d, CircularOrder((1, 2, 3))).passed


def test_size_mismatch():
    d = DistanceVector(4, tuple(F(1) for _ in range(6)))
    with pytest.raises(SizeMismatchError):
        is_kalmanson(d, CircularOrder((1, 2, 3)))


def test_exact_search_cap():
    d = DistanceVector(10, tuple(F(1) for _ in range(45)))
    with pytest.raises(TooLargeForExactError):
        find_kalmanson_order(d, mode="exact")


def test_heuristic_search_on_resistance_metric():
    rng = random.Random(31)
    for _ in range(8):
        net = random_one_nested(rng.randint(4, 7), rng)
        d = resistance_vector(net)
        result = find_kalmanson_order(d, mode="heuristic")
        assert result.found
        assert is_kalmanson(d, result.order).passed


def test_theorem_one_on_every_consistent_order():
    from phylocircuit.netgraph import consistent_orders

    rng = random.Random(13)
    for _ in range(12):
        net = random_one_nested(rng.randint(4, 7), rng)
        d = resistance_vector(net)
        for order in consistent_orders(net):
            assert is_kalmanson(d, order).passed


def test_crossing_intersection_path_gives_equality():
    # crossing circuits through a tree path: the bound is met exactly
    d = resistance_vector(quartet_tree(w_inner=F(7, 3)))
    assert d.value(1, 3) + d.value(2, 4) == d.value(1, 4) + d.value(2, 3)


def test_series_of_cycles_case_equality():
    # crossing circuits whose shared portion spans two cycles and the bridge
    net = two_cycles_with_bridge()
    d = resistance_vector(net)
    # leaves 1,5 on the hexagon; 6,7 on the quad: i=1, j=5, k=6, l=7
    assert d.value(1, 6) + d.value(5, 7) == d.value(1, 7) + d.value(5, 6)


# ---------------------------------------------------------------------------
# the integer scan against the Fraction loop over d.value it replaced


def _kalmanson_oracle(d, order, tol=None):
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


def _search_oracle(d, tol=None):
    """Exhaustive search over the canonical orders with the oracle scan."""
    best_order, best_violation, checked = None, None, 0
    for perm in itertools.permutations(range(2, d.n + 1)):
        if perm[0] > perm[-1]:
            continue
        order = CircularOrder((1,) + perm)
        checked += 1
        report = _kalmanson_oracle(d, order, tol)
        if report.passed:
            return OrderSearchResult(order, order, F(0), checked)
        if best_violation is None or report.max_violation < best_violation:
            best_order, best_violation = order, report.max_violation
    return OrderSearchResult(None, best_order, best_violation, checked)


def _relabelled(d, rng):
    perm = list(range(1, d.n + 1))
    rng.shuffle(perm)
    values = {}
    for (i, j), v in zip(itertools.combinations(range(1, d.n + 1), 2), d.values):
        values[frozenset((perm[i - 1], perm[j - 1]))] = v
    return DistanceVector(
        d.n,
        tuple(
            values[frozenset(p)]
            for p in itertools.combinations(range(1, d.n + 1), 2)
        ),
    )


def test_scan_matches_fraction_oracle():
    seen = {"passed": 0, "violated": 0}
    for d, order in scan_corpus(seed=41, count=8):
        for tol in (None,) if d.is_exact else (None, 1e-6):
            report = is_kalmanson(d, order, tol)
            assert report == _kalmanson_oracle(d, order, tol)
            seen["passed" if report.passed else "violated"] += 1
    assert min(seen.values()) > 100


def test_exact_search_matches_oracle():
    rng = random.Random(43)
    for k, n in enumerate((4, 5, 6, 7, 8, 5, 6, 7, 8)):
        net = random_one_nested(n, rng)
        d = _relabelled((resistance_vector, min_path_vector)[k % 2](net), rng)
        for vector in (d, d.as_floats()):
            assert find_kalmanson_order(vector, "exact") == _search_oracle(vector)
    for _ in range(6):
        n = rng.randint(4, 6)
        d = DistanceVector(
            n, tuple(F(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(n * (n - 1) // 2))
        )
        assert find_kalmanson_order(d, "exact") == _search_oracle(d)


def test_scan_violation_amounts_keep_exact_type():
    d = resistance_vector(k33_with_leaves())
    report = is_kalmanson(d, shuffled_order(6, random.Random(1)))
    assert report.violations
    assert all(type(amount) is Fraction for _, amount in report.violations)


# ---------------------------------------------------------------------------
# heavy edge limit


def test_heavy_cycle_edge_approaches_deleted_network():
    heavy = square_with_pendants(
        cycle_weights=[float(1e8), 1.0, 1.0, 1.0],
        pendant_weights=[1.0, 1.0, 1.0, 1.0],
    )
    deleted = square_with_pendants().without_edge("c1", "c2")
    d_heavy = resistance_vector(heavy)
    d_del = resistance_vector(deleted)
    for a, b in zip(d_heavy.values, d_del.values):
        assert abs(float(a) - float(b)) <= 1e-5 * max(1.0, float(b))


# ---------------------------------------------------------------------------
# serialization and properties


def test_distance_roundtrip_pair_format():
    d = resistance_vector(square_with_pendants())
    text = distance_vector_to_text(d)
    again = parse_distance_vector(text, exact=True)
    assert again == d


def test_distance_square_matrix_format():
    text = "3\n0 1 2\n1 0 3\n2 3 0\n"
    d = parse_distance_vector(text, exact=True)
    assert d.values == (F(1), F(2), F(3))


def test_distance_line_with_two_fields_names_line():
    text = "n 3\n1 2 1\n# comment\n1 3\n2 3 1\n"
    with pytest.raises(ValidationError, match="line 4"):
        parse_distance_vector(text)


@pytest.mark.parametrize(
    "text",
    ["n 3\n1 2 1\n1 3 nan\n2 3 1\n", "n 3\n1 2 1\n1 3 -inf\n2 3 1\n",
     "3\n0 1 2\n1 0 inf\n2 inf 0\n"],
    ids=["pair-nan", "pair-inf", "square-inf"],
)
def test_distance_rejects_non_finite_value(text):
    with pytest.raises(ValidationError, match="line 3"):
        parse_distance_vector(text)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_pair_index_bijection(n, seed):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    idx = [pair_index(i, j, n) for i, j in pairs]
    assert sorted(idx) == list(range(len(pairs)))


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=6, max_size=6))
@settings(max_examples=50, deadline=None)
def test_kalmanson_report_invariant_under_canonical_rotation(vals):
    d = DistanceVector(4, tuple(F(v) for v in vals))
    o1 = CircularOrder((1, 2, 3, 4))
    o2 = CircularOrder((3, 4, 1, 2))  # same canonical order
    assert is_kalmanson(d, o1) == is_kalmanson(d, o2)


def test_reduction_beyond_level_two():
    # wye-delta alone happens to crack the bipartite core, and the stuck
    # error is reachable on a denser one
    net = k33_with_leaves()
    assert resistance_by_reduction(net, 1, 2) == F(8, 3)
    assert resistance_by_reduction(net, 1, 4) == F(23, 9)
    from phylocircuit.errors import ReductionStuckError

    with pytest.raises(ReductionStuckError):
        resistance_by_reduction(k5_with_leaves(), 1, 2)


def test_rw_output_byte_deterministic():
    from phylocircuit.reconstruct import resistance_split_system
    from phylocircuit.splits import split_system_to_text

    net = two_cycles_with_bridge()
    first = split_system_to_text(resistance_split_system(net))
    second = split_system_to_text(resistance_split_system(net))
    assert first == second
