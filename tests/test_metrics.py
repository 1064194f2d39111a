import importlib.util
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phylocircuit import enum2, metrics
from phylocircuit.errors import (
    PhyloCircuitError,
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
    pair_iter,
    pairwise_circuit,
    parse_distance_vector,
    resistance_by_reduction,
    resistance_vector,
)
from phylocircuit.netgraph import (
    CYCLE,
    THETA,
    CircularOrder,
    PhyloNetwork,
    block_decomposition,
    canonical_order,
    classify,
    cycle_node_sequence,
    wye_delta,
)
from phylocircuit.randomnet import random_one_nested
from phylocircuit.rational import tolerance
from phylocircuit.reconstruct import (
    circular_decomposition,
    invert_to_network,
    min_path_split_system,
    resistance_split_system_direct,
)
from phylocircuit.splits import CircularSplitSystem, Split, split_metric

from fixtures import (
    decomposed_resistance_splits,
    decomposition_by_routes,
    distance_text_by_pairs,
    k33_with_leaves,
    k5_with_leaves,
    kalmanson_order_by_routes,
    min_path_by_dijkstra,
    neighbor_net_by_rebuilding,
    quartet_tree,
    resistance_by_dense_solve,
    ring_with_pendants,
    scan_corpus,
    scan_networks,
    series_sweep_by_pairs,
    shuffled_order,
    square_with_pendants,
    star,
    triangle_with_leaves,
    two_cycles_with_bridge,
    two_leaf_edge,
    with_chord,
    with_leaf_chord,
    without_edge,
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


def _with_zero_edge(net: PhyloNetwork, k: int, exact: bool = True) -> PhyloNetwork:
    edges = [
        (u, v, 0 if e == k else (w if exact else float(w)))
        for e, (u, v, w) in enumerate(net.edge_items)
    ]
    return PhyloNetwork.build(net.leaves, edges, strict=False)


def test_zero_weight_edge_rejected():
    net = square_with_pendants(cycle_weights=[F(0), F(1), F(1), F(1)])
    with pytest.raises(ZeroWeightEdgeError):
        resistance_vector(net)


@pytest.mark.parametrize(
    "net",
    [
        # every edge of the triangle zero: the block's solve would be singular
        triangle_with_leaves(tri=[F(0), F(0), F(0)]),
        _with_zero_edge(quartet_tree(), 0),
        _with_zero_edge(k5_with_leaves(), 0),
        _with_zero_edge(two_cycles_with_bridge(), 3, exact=False),
    ],
)
def test_zero_weight_edge_rejected_in_any_block(net):
    with pytest.raises(ZeroWeightEdgeError):
        resistance_vector(net)


def test_wye_delta_fixed_leaf_resistances():
    net = triangle_with_leaves(tri=[F(2), F(3), F(4)], pend=[F(1), F(2), F(1), F(3)])
    image = wye_delta(net, ("t1", "t2", "t3"))
    assert resistance_vector(net) == resistance_vector(image)


# ---------------------------------------------------------------------------
# resistance by blocks against the whole-network dense solve


def _resistance_fixtures() -> list[PhyloNetwork]:
    from phylocircuit.enum2 import enumerate_binary_two_nested

    triangle = triangle_with_leaves(tri=[F(2), F(3), F(4)], pend=[F(1), F(2), F(1), F(3)])
    return [
        quartet_tree(w_inner=F(7, 3), pend=F(2)),
        star(5, [F(1), F(2), F(3), F(1, 2), F(5, 7)]),
        square_with_pendants([F(1), F(2), F(3, 2), F(7)], [F(2), F(1), F(1, 3), F(4)]),
        ring_with_pendants(6),
        k33_with_leaves(),
        k5_with_leaves(),
        triangle,
        triangle_with_leaves(),
        wye_delta(triangle, ("t1", "t2", "t3")),
        two_cycles_with_bridge(),
        two_leaf_edge(F(5)),
    ] + enumerate_binary_two_nested(4)[:3]


def _as_float(net: PhyloNetwork, scale: float) -> PhyloNetwork:
    edges = [(u, v, float(w) * scale) for u, v, w in net.edge_items]
    return PhyloNetwork.build(net.leaves, edges, strict=False)


def _assert_same_fractions(net: PhyloNetwork, want) -> None:
    d = resistance_vector(net)
    assert d.is_exact
    assert d == want


def test_resistance_equals_dense_solve_on_fixtures():
    for net in _resistance_fixtures():
        _assert_same_fractions(net, resistance_by_dense_solve(net))


def test_resistance_equals_dense_solve_on_seeded_level1():
    rng = random.Random(2026)
    for k in range(200):
        net = random_one_nested(rng.randint(2, 16), rng, binary=k % 2 == 0)
        _assert_same_fractions(net, resistance_by_dense_solve(net))
    # the dense solve costs about 1 s at n=32 and 10 s at n=64, so larger
    # networks are checked against it once and, up to n=64, against the
    # split metric of the paper's direct weights
    for binary in (True, False):
        net = random_one_nested(32, rng, binary=binary)
        _assert_same_fractions(net, resistance_by_dense_solve(net))
        for n in (48, 64):
            net = random_one_nested(n, rng, binary=binary)
            _assert_same_fractions(net, split_metric(resistance_split_system_direct(net)))


def _more_chords(seed: int, count: int) -> list[PhyloNetwork]:
    """Seeded level-1 networks given a leaf chord (a leaf on each path of
    the theta) or two chords: blocks that the closed forms do not cover."""
    rng = random.Random(seed)
    nets: list[PhyloNetwork] = []
    while len(nets) < count:
        base = random_one_nested(rng.randint(5, 16), rng, binary=len(nets) % 2 == 0)
        leafy = with_leaf_chord(base, rng)
        if leafy is not None:
            twice = with_chord(with_chord(base, rng), rng)
            nets += [leafy] + ([twice] if twice is not None else [])
    return nets


def test_resistance_equals_dense_solve_on_chorded_scan_networks():
    levels = set()
    for net in scan_networks(seed=61, count=30):
        levels.add(classify(net).level)
        _assert_same_fractions(net, resistance_by_dense_solve(net))
    assert {1, 2} <= levels
    thetas = 0
    for net in _more_chords(seed=62, count=20):
        thetas += len(block_decomposition(net).of_kind(THETA))
        _assert_same_fractions(net, resistance_by_dense_solve(net))
    assert thetas > 20


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1.37, 1e4])
def test_float_resistance_agrees_with_dense_solve(scale):
    nets = _resistance_fixtures() + list(scan_networks(seed=67, count=8))
    nets += _more_chords(seed=68, count=8)
    for net in nets:
        want = [float(v) * scale for v in resistance_by_dense_solve(net).values]
        got = resistance_vector(_as_float(net, scale))
        assert not got.is_exact
        bound = 1e-12 * max(abs(v) for v in want)
        assert all(abs(a - b) <= bound for a, b in zip(got.values, want))


@pytest.mark.parametrize("n", [10, 32])
def test_float_resistance_kalmanson_at_weight_scale_1e4(n):
    # one dense solve of L + J/m over every node lost the 1e-4 conductances
    # next to J/m and failed all 30 of these on their own canonical order
    for seed in range(30):
        net = _as_float(random_one_nested(n, random.Random(seed)), 1e4)
        assert is_kalmanson(resistance_vector(net), canonical_order(net)).passed


@pytest.mark.parametrize("exact", [True, False])
def test_resistance_solves_block_by_block(exact):
    # the library solves no linear system: bridges and cycles are closed
    # forms, theta blocks grow edge by edge, and the dense solve over
    # every node is the tests' oracle only
    assert importlib.util.find_spec("phylocircuit.linalg") is None
    # the exact dense solve takes 8 s at n = 64
    rng = random.Random(64)
    net = random_one_nested(24 if exact else 64, rng)
    chorded = with_chord(with_chord(net, rng), rng)
    thetas = block_decomposition(chorded).of_kind(THETA)
    assert classify(chorded).level == 2 and len(thetas) == 2
    for case in (net, chorded):
        if exact:
            _assert_same_fractions(case, resistance_by_dense_solve(case))
        else:
            case = _as_float(case, 1.0)
            want = resistance_by_dense_solve(case).values
            got = resistance_vector(case).values
            assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(got, want))


def _ring_chords(k: int, rng: random.Random) -> list[PhyloNetwork]:
    """``ring_with_pendants(k)`` with random weights, then the same ring
    with one chord (a theta block) and with two crossing chords."""
    cw = [F(rng.randint(1, 10), rng.randint(1, 4)) for _ in range(k)]
    pw = [F(rng.randint(1, 10), rng.randint(1, 4)) for _ in range(k)]
    net = ring_with_pendants(k, cw, pw)
    nets = [net]
    for ends in ([(1, k // 2 + 1)], [(1, k // 2 + 1), (2, k // 2 + 2)]):
        if k >= 6:
            chords = [(f"c{a}", f"c{b}", F(rng.randint(1, 10))) for a, b in ends]
            edges = [*net.edge_items, *chords]
            nets.append(PhyloNetwork.build(net.leaves, edges, strict=True))
    return nets


def test_resistance_equals_dense_solve_on_rings():
    # one cycle block holding every leaf, in its closed form, and the same
    # ring with chords, one block grown edge by edge
    rng = random.Random(128)
    for k in (3, 4, 5, 7, 12, 24, 32, 48, 64, 128):
        for net in _ring_chords(k, rng):
            # the exact dense solve takes seconds beyond k = 32
            if k <= 32:
                _assert_same_fractions(net, resistance_by_dense_solve(net))
            floats = _as_float(net, 1.37)
            want = resistance_by_dense_solve(floats).values
            got = resistance_vector(floats).values
            assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(got, want))


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


def _assert_min_path_matches_dijkstra(net: PhyloNetwork) -> None:
    got, want = min_path_vector(net), min_path_by_dijkstra(net)
    if net.is_exact:
        assert got.is_exact and got == want
    else:
        assert all(type(v) is float for v in got.values)
        assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(got.values, want.values))


def test_min_path_matches_dijkstra_on_seeded_level1():
    rng = random.Random(4064)
    for n in (4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64):
        for binary in (True, False):
            net = random_one_nested(n, rng, binary=binary)
            for version in (net, _as_float(net, 1.0), _as_float(net, 1.37e4)):
                _assert_min_path_matches_dijkstra(version)


def test_min_path_matches_dijkstra_on_level2():
    rng = random.Random(4065)
    seen = 0
    for k in range(40):
        base = random_one_nested(rng.randint(5, 32), rng, binary=k % 2 == 0)
        chorded = with_chord(base, rng)
        if chorded is None:
            continue
        cycles = classify(base).blocks.of_kind(CYCLE)
        index = next(c for c, b in enumerate(cycles) if len(b.nodes) >= 4)
        ring = cycle_node_sequence(cycles[index])
        heavy = enum2.add_heavy_chord(base, index, (ring[0], ring[2]), base.total_weight + 1)
        for net in (chorded, heavy):
            assert classify(net).level == 2
            _assert_min_path_matches_dijkstra(net)
            _assert_min_path_matches_dijkstra(_as_float(net, 0.37))
        seen += 1
    assert seen >= 20


def test_min_path_matches_dijkstra_beyond_level_two():
    for net in (k33_with_leaves(), k5_with_leaves()):
        _assert_min_path_matches_dijkstra(net)
        _assert_min_path_matches_dijkstra(_as_float(net, 2.5))


def test_min_path_allows_zero_weights():
    # resistance rejects a zero weight; min-path treats it as a short cut
    cw = [F(0), F(2), F(0), F(0), F(3), F(1, 2), F(0)]
    pw = [F(0), F(0), F(2), F(1, 3), F(1), F(0), F(5)]
    net = ring_with_pendants(7, cw, pw)
    with pytest.raises(ZeroWeightEdgeError):
        resistance_vector(net)
    _assert_min_path_matches_dijkstra(net)
    _assert_min_path_matches_dijkstra(_as_float(net, 1.0))
    d = min_path_vector(net)
    assert d.value(1, 2) == 0
    assert d.value(2, 6) == F(1, 2)  # the far way round, over two zeros


@pytest.mark.parametrize("metric", [resistance_vector, min_path_vector])
def test_unlabeled_pendant_block_adds_nothing(metric):
    # a non-strict network may end in an unlabeled node p; its bridge has
    # one portal, h, and joins no pair of leaves
    edges = [("x1", "h", F(1)), ("x2", "h", F(2)), ("h", "p", F(5))]
    net = PhyloNetwork.build({1: "x1", 2: "x2"}, edges, strict=False)
    assert metric(net).values == (F(3),)


def _sweep_networks():
    """Seeded level-1 networks at n = 2..128, binary and not, and their
    chorded level-2 versions, exact and with weights scaled by 1.37 and
    1e-3; and a non-strict network with a one-portal pendant bridge."""
    for s, n in enumerate([*range(2, 34), 48, 64, 96, 128]):
        rng = random.Random(2800 + s)
        base = random_one_nested(n, rng, binary=s % 2 == 0)
        for net in (base, with_chord(base, rng)):
            if net is None:
                continue
            yield net
            for scale in (1.37, 1e-3):
                edges = [(u, v, float(w) * scale) for u, v, w in net.edge_items]
                yield PhyloNetwork.build(net.leaves, edges, strict=True)
    edges = [("x1", "h", F(1)), ("x2", "h", 2.5), ("h", "p", F(5)), ("x3", "h", F(1, 3))]
    yield PhyloNetwork.build({1: "x1", 2: "x2", 3: "x3"}, edges, strict=False)


@pytest.mark.parametrize(
    "metric, on_cycle, on_other",
    [
        (resistance_vector, metrics._ring_resistance, metrics._portal_resistances),
        (min_path_vector, metrics._ring_min_path, metrics._portal_min_paths),
    ],
    ids=["resistance", "min-path"],
)
def test_sweep_equals_pair_by_pair_read_out(metric, on_cycle, on_other):
    kinds = set()
    for net in _sweep_networks():
        got = metric(net).values
        want = series_sweep_by_pairs(net, on_cycle, on_other).values
        # repr tells floats that compare equal apart, and a Fraction from an int
        assert list(map(repr, got)) == list(map(repr, want))
        kinds.add((classify(net).level, net.is_exact))
    assert kinds >= {(1, True), (1, False), (2, True), (2, False)}


def test_min_path_mixed_weights_are_all_floats():
    # a rational weight next to a decimal one makes every distance a float,
    # as resistance does; the whole-network Dijkstra gave 3/2 beside 1.25
    net = star(3, [F(1), F(1, 2), 0.25])
    assert [type(w) for _, _, w in net.edge_items] == [float] * 3
    assert not net.is_exact
    d = min_path_vector(net)
    assert all(type(v) is float for v in d.values)
    assert d.values == (1.5, 1.25, 0.75)
    assert all(type(v) is float for v in resistance_vector(net).values)


def _outcome(f, *args):
    """repr of f(*args), or its error's type and message."""
    try:
        return repr(f(*args))
    except PhyloCircuitError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_mixed_weights_give_the_all_float_twins_outputs():
    # half the weights Fractions and half floats: the network, its metrics
    # and split systems, and the inversion of a mixed split system are
    # those of the twin with every weight a float
    rng = random.Random(71)
    levels = set()
    for _ in range(12):
        base = random_one_nested(rng.randint(4, 40), rng, binary=rng.random() < 0.5)
        for net in (base, with_chord(base, rng)):
            if net is None:
                continue
            floats = set(rng.sample(range(len(net.edge_items)), len(net.edge_items) // 2))
            mixed = PhyloNetwork.build(net.leaves, [
                (u, v, float(w) if k in floats else w)
                for k, (u, v, w) in enumerate(net.edge_items)
            ])
            twin = PhyloNetwork.build(
                net.leaves, [(u, v, float(w)) for u, v, w in net.edge_items]
            )
            assert all(type(w) is float for _, _, w in mixed.edge_items)
            for f in (resistance_vector, min_path_vector, min_path_split_system):
                assert _outcome(f, mixed) == _outcome(f, twin)
            level = classify(net).level
            levels.add(level)
            if level > 1:
                continue
            assert _outcome(resistance_split_system_direct, mixed) == _outcome(
                resistance_split_system_direct, twin
            )
            exact = resistance_split_system_direct(net)
            systems = [
                CircularSplitSystem.of_order(net.n, [
                    (s, float(w) if k % 2 or every else w)
                    for k, (s, w) in enumerate(exact.entries)
                ], exact.order)
                for every in (False, True)
            ]
            assert all(type(w) is float for _, w in systems[0].entries)
            assert repr(systems[0]) == repr(systems[1])
            assert _outcome(invert_to_network, systems[0]) == _outcome(
                invert_to_network, systems[1]
            )
    assert levels >= {1, 2}


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


@pytest.mark.parametrize("fn", [pairwise_circuit, resistance_by_reduction])
def test_pair_of_an_unknown_leaf_is_a_size_mismatch(fn):
    net = two_cycles_with_bridge()
    with pytest.raises(SizeMismatchError) as info:
        fn(net, 1, 9)
    assert str(info.value) == f"no leaf 9 in a network on 1..{net.n}"


@pytest.mark.parametrize("fn", [pairwise_circuit, resistance_by_reduction])
def test_pair_of_one_leaf_is_a_size_mismatch(fn):
    with pytest.raises(SizeMismatchError, match="^distinct leaves required$"):
        fn(two_cycles_with_bridge(), 3, 3)


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
    # all ties pass on every order of the right labels, and exact
    # decomposition checks the order before its arc-sign test
    for one in (F(1), 1.0):
        d = DistanceVector(4, (one,) * 6)
        for labels in ((1, 2, 3), (1, 2, 3, 5), (0, 1, 2, 3)):
            with pytest.raises(SizeMismatchError):
                is_kalmanson(d, CircularOrder(labels))
            with pytest.raises(SizeMismatchError):
                circular_decomposition(d, CircularOrder(labels))


@pytest.mark.parametrize("one", [F(1), 1.0], ids=["exact", "float"])
@pytest.mark.parametrize("i, j, label", [(0, 2, 0), (1, 5, 5), (-1, 3, -1), (5, 5, 5)])
def test_distance_value_names_a_label_outside_the_leaves(one, i, j, label):
    # pair_index alone read d(2,3) for (0, 2) and (1, 5), and d(1,2) for (-1, 3)
    d = DistanceVector(4, tuple(one * k for k in range(1, 7)))
    with pytest.raises(SizeMismatchError) as info:
        d.value(i, j)
    assert str(info.value) == f"no leaf {label} in a vector on 1..4"
    assert [d.value(i, i) for i in (1, 4)] == [0, 0]
    assert d.value(4, 3) == d.value(3, 4) == 6 * one


@pytest.mark.parametrize("one", [F(1), 1.0], ids=["exact", "float"])
@pytest.mark.parametrize(
    "i, j, label",
    [(1.5, 2, 1.5), (1, 2.0, 2.0), ("1", 2, "1"), (True, 2, True), (2, 2.0, 2.0)],
)
def test_distance_value_names_a_label_that_is_not_an_int(one, i, j, label):
    # a float or str label raised a bare TypeError, True read leaf 1 and
    # (2, 2.0) read the diagonal
    d = DistanceVector(4, tuple(one * k for k in range(1, 7)))
    with pytest.raises(SizeMismatchError) as info:
        d.value(i, j)
    assert str(info.value) == f"no leaf {label!r} in a vector on 1..4"


def test_distance_vector_needs_a_leaf():
    for n in (0, -1):
        with pytest.raises(SizeMismatchError, match="needs a leaf"):
            DistanceVector(n, ())
    for text in ("n 0\n", "0\n"):
        with pytest.raises(SizeMismatchError, match="needs a leaf"):
            parse_distance_vector(text)
    assert DistanceVector(1, ()).values == ()


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -1e-12])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    # a NaN tolerance passes every comparison and a negative one turns
    # ties into violations; both are refused before any check, on exact
    # input too, and at n <= 3, where the search has nothing to check
    for exact in (DistanceVector(3, (F(1), F(2), F(3))), resistance_vector(quartet_tree())):
        for d in (exact, exact.as_floats()):
            order = CircularOrder(tuple(range(1, d.n + 1)))
            for check in (
                lambda: is_kalmanson(d, order, tol),
                lambda: find_kalmanson_order(d, "exact", tol),
                lambda: find_kalmanson_order(d, "heuristic", tol),
                lambda: circular_decomposition(d, order, tol),
            ):
                with pytest.raises(ValidationError, match="tolerance must be"):
                    check()


def test_zero_tolerance_is_allowed():
    d = resistance_vector(quartet_tree()).as_floats()
    order = CircularOrder((1, 2, 3, 4))
    assert is_kalmanson(d, order, 0.0).passed
    assert circular_decomposition(d, order, 0).residual <= tolerance(d.values)


def _k33_ten_leaves():
    """K3,3 with a leaf on every node and a second leaf on four of them: 10
    leaves and no Kalmanson order."""
    core = ["r1", "r2", "r3", "b1", "b2", "b3"]
    edges = [(r, b, F(1)) for r in core[:3] for b in core[3:]]
    edges += [(f"x{i}", v, F(1)) for i, v in enumerate(core + core[:4], start=1)]
    return PhyloNetwork.build({i: f"x{i}" for i in range(1, 11)}, edges)


def test_exact_search_cap():
    # the cap guards only the exhaustive scan: exact input with no order,
    # and float input; exact Kalmanson input gets its least order built
    ones = DistanceVector(10, tuple(F(1) for _ in range(45)))
    for d in (resistance_vector(_k33_ten_leaves()), ones.as_floats()):
        with pytest.raises(TooLargeForExactError):
            find_kalmanson_order(d, mode="exact")
    order = CircularOrder(tuple(range(1, 11)))
    result = find_kalmanson_order(ones, "exact")
    assert result == OrderSearchResult(order, order, F(0), 1)


def test_heuristic_search_on_resistance_metric():
    rng = random.Random(31)
    for _ in range(8):
        net = random_one_nested(rng.randint(4, 7), rng)
        d = resistance_vector(net)
        result = find_kalmanson_order(d, mode="heuristic")
        assert result.found
        assert is_kalmanson(d, result.order).passed


def test_heuristic_search_miss_above_exhaustive_cap():
    # no Kalmanson order, so the failed chain is the one order checked
    d = resistance_vector(_k33_ten_leaves())
    result = find_kalmanson_order(d, mode="heuristic")
    assert not result.found
    assert result.orders_checked == 1
    assert result.best_violation == F(2, 9)
    assert is_kalmanson(d, result.best_order).max_violation == F(2, 9)


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
    eps = Fraction(0) if exact else (tolerance(d.values) if tol is None else tol)
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


def test_float_vector_violation_amounts_are_floats():
    # one decimal puts the vector in float mode, so the amount of its one
    # violated quadruple on (1,2,3,4,5) is a float, though the quadruple
    # reads only Fraction entries: 1 + 1 - (1/3 + 1)
    d = DistanceVector(
        5, (F(1), F(1), F(1), 0.5, F(1), F(1, 3), F(1), F(1, 3), F(1), F(1, 3))
    )
    report = is_kalmanson(d, CircularOrder((1, 2, 3, 4, 5)))
    assert report.violations == (((1, 2, 3, 4), 1.0 + 1.0 - (1 / 3 + 1.0)),)
    assert type(report.max_violation) is float
    assert type(report.violations[0][1]) is float
    result = find_kalmanson_order(d, "exact")
    assert not result.found
    assert type(result.best_violation) is float


# ---------------------------------------------------------------------------
# NeighborNet order and the arc sign test


def _shifted(d, a):
    """d(x, y) + a[x] + a[y]: Kalmanson exactly when d is, on every order."""
    pairs = itertools.combinations(range(1, d.n + 1), 2)
    return DistanceVector(
        d.n, tuple(v + a[i] + a[j] for (i, j), v in zip(pairs, d.values))
    )


def _random_rational_vector(n, rng):
    values = (F(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(n * (n - 1) // 2))
    return DistanceVector(n, tuple(values))


@pytest.mark.parametrize("n", [10, 13, 16, 24, 32, 48, 64])
def test_heuristic_search_finds_every_level_one_vector(n):
    # no false negatives, exact and float, binary and not, labels shuffled
    for binary in (True, False):
        rng = random.Random(1000 * n + binary)
        net = random_one_nested(n, rng, binary=binary)
        for vector in (resistance_vector, min_path_vector):
            d = _relabelled(vector(net), rng)
            for v in (d, d.as_floats()):
                result = find_kalmanson_order(v, "heuristic")
                assert result.found, (n, binary, vector, v.is_exact)
                assert result.orders_checked == 1


def _agreement_corpus(rng):
    """Exact vectors at n <= 8, with and without a Kalmanson order."""
    for _ in range(10):
        base = random_one_nested(rng.randint(4, 7), rng, binary=rng.random() < 0.5)
        for net in (base, with_chord(base, rng), with_leaf_chord(base, rng)):
            if net is not None:
                yield _relabelled(resistance_vector(net), rng)
                yield _relabelled(min_path_vector(net), rng)
    for _ in range(40):
        yield _random_rational_vector(rng.randint(4, 7), rng)


def test_heuristic_search_agrees_with_exhaustive_search():
    # the NeighborNet order passes exactly when some order does, so the
    # heuristic checks one order and falls back only when none exists
    seen = {True: 0, False: 0}
    for d in _agreement_corpus(random.Random(53)):
        exhaustive = find_kalmanson_order(d, "exact")
        heuristic = find_kalmanson_order(d, "heuristic")
        assert heuristic.found == exhaustive.found
        assert (heuristic.orders_checked == 1) == exhaustive.found
        seen[exhaustive.found] += 1
    assert min(seen.values()) >= 20


def test_exact_search_matches_oracle_without_an_order():
    rng = random.Random(61)
    checked = 0
    while checked < 4:
        net = with_leaf_chord(random_one_nested(6, rng), rng)
        if net is None:
            continue
        d = _relabelled(resistance_vector(net), rng)
        for vector in (d, d.as_floats()):
            result = find_kalmanson_order(vector, "exact")
            assert result == _search_oracle(vector)
        assert not result.found
        checked += 1


def test_exhaustive_search_builds_no_report(monkeypatch):
    # the least maximum violation comes from the scan itself, in the
    # vector's units, with no report on the best order afterwards
    calls = []
    original = metrics.is_kalmanson

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(metrics, "is_kalmanson", counted)
    d = resistance_vector(k33_with_leaves())
    for vector in (d, d.as_floats()):
        result = find_kalmanson_order(vector, "exact")
        assert not result.found and result.orders_checked == 60
        best = original(vector, result.best_order)
        assert result.best_violation == best.max_violation
        assert type(result.best_violation) is type(best.max_violation)
    assert calls == []


def test_sign_test_matches_scan():
    seen = {True: 0, False: 0}
    for d, order in scan_corpus(seed=47, count=40):
        if not d.is_exact:
            continue
        full, _ = metrics._label_table(d)
        passed = all(
            index >= 0
            for p, q, index in metrics._arc_indices(full, order.labels)
            if p < q < p + d.n - 2
        )
        assert passed == is_kalmanson(d, order).passed
        # on exact input the arc bound is the sign test: slack 0
        assert metrics._settled_by_arcs(_least_index(d, order), d.n, 0, 0) == passed
        seen[passed] += 1
    assert min(seen.values()) >= 100


# ---------------------------------------------------------------------------
# one verdict: the arc bound settles an order, the scan decides the rest


_SCALES = (2.0**-30, 1e-3, 1.37, 1e4, 1e9)


def _least_index(d, order):
    full, _ = metrics._label_table(d)
    n = d.n
    return min(
        index
        for p, q, index in metrics._arc_indices(full, order.labels)
        if p < q < p + n - 2
    )


def _bound_corpus(rng):
    """Vectors whose least nontrivial index lies near the bound: every
    arc of the order is a split, the trivial ones weighing 1 and the
    nontrivial ones -x, with x from far below eps/r to far above eps."""
    for n in (5, 6, 9, 16, 33):
        order = CircularOrder(range(1, n + 1))
        r = (n - 1) ** 2 // 4
        arcs = [(p, q) for p in range(n - 1) for q in range(p + 1, p + n - 2)]
        # the nontrivial arcs that separate positions i < j
        apart = [
            sum((p < i <= q + 1) != (p < j <= q + 1) for p, q in arcs)
            for i, j in pair_iter(n)
        ]
        for ratio in (0.01, 0.5, 0.9, 0.99, 1.01, 1.2, 2, 10, r, 2 * r):
            x = ratio * 2e-9 / r
            scale = rng.choice(_SCALES)
            values = tuple((2 - x * k) * scale for k in apart)
            yield DistanceVector(n, values), order


def _noisy_corpus(rng):
    """Resistance and min-path vectors of seeded level-1 and ring networks,
    n = 4..64, exact and as floats at 2^-30 to 1e9, half of the floats
    moved by noise within 2 REL_TOL times their largest |value|; on the
    canonical order and on a shuffled one."""
    sizes = [*range(4, 21), 24, 32, 48, 64]
    for k, n in enumerate(sizes):
        nets = [random_one_nested(n, rng, binary=k % 2 == 0)]
        if n <= 24:
            weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
            nets.append(ring_with_pendants(n, weights, weights[::-1]))
        for net in nets:
            orders = [canonical_order(net), shuffled_order(n, rng)]
            for d in (resistance_vector(net), min_path_vector(net)):
                top = float(max(d.values))
                yield d, orders
                for j, scale in enumerate(_SCALES if n <= 24 else _SCALES[::2]):
                    values = [float(v) * scale for v in d.values]
                    if j % 2:
                        noise = 2e-9 * top * scale
                        values = [v + rng.uniform(-noise, noise) for v in values]
                    yield DistanceVector(n, tuple(values)), orders


def test_arc_bound_settles_only_orders_the_scan_passes():
    rng = random.Random(3535)
    pairs = [(d, [order]) for d, order in _bound_corpus(rng)]
    pairs += list(_noisy_corpus(rng))
    settled = {tol: 0 for tol in (None, 0, 1e-300)}
    left_open = 0
    for d, orders in pairs:
        for order in orders:
            least = _least_index(d, order)
            passed = []
            for tol in settled:
                eps, floor = metrics._tolerance(d, tol, d.is_exact)
                if metrics._settled_by_arcs(least, d.n, eps, floor):
                    settled[tol] += 1
                    passed.append(eps)
                else:
                    left_open += 1
            if passed:
                full, _ = metrics._label_table(d)
                rows = [[full[i][j] for j in order.labels] for i in order.labels]
                assert metrics._scan(rows, min(passed))[0] == []
    assert min(settled.values()) >= 40 and left_open >= 300


def _route_vectors(rng, count):
    """``count`` vectors: resistance and min-path vectors of seeded level-1
    networks and of their chorded versions, labels shuffled, exact and as
    floats at two of _SCALES, one of them moved by noise within 2 REL_TOL
    times the largest |value|.  n skips 7 to 9, where a heuristic miss
    falls back to a long exhaustive search."""
    made = 0
    while made < count:
        n = rng.choice((4, 5, 6, 10, 11, 13))
        net = random_one_nested(n, rng, binary=rng.random() < 0.5)
        chorded = with_chord(net, rng)
        for g in [net] + ([chorded] if chorded else []):
            perm = list(range(1, g.n + 1))
            rng.shuffle(perm)
            leaves = {perm[x - 1]: node for x, node in g.leaves.items()}
            g = PhyloNetwork.build(leaves, list(g.edge_items))
            for d in (resistance_vector(g), min_path_vector(g)):
                top = float(max(d.values))
                a, b = rng.sample(_SCALES, 2)
                noise = 2e-9 * top * b
                yield d
                yield DistanceVector(d.n, tuple(float(v) * a for v in d.values))
                yield DistanceVector(
                    d.n, tuple(float(v) * b + rng.uniform(-noise, noise) for v in d.values)
                )
                made += 3


def _outcome(call, *args):
    """The result of ``call(*args)``, or the type and text of what it raised."""
    try:
        return call(*args)
    except PhyloCircuitError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_one_verdict_matches_the_routes_by_number_kind():
    rng = random.Random(3536)
    vectors = list(_route_vectors(rng, 2000))
    assert len(vectors) >= 2000
    compared = raised = 0
    for d in vectors:
        cap = 6 if d.is_exact else 5
        for tol in (None,) if d.is_exact else (None, 0):
            for mode in ("heuristic", "exact") if d.n <= cap else ("heuristic",):
                got = _outcome(find_kalmanson_order, d, mode, tol)
                assert repr(got) == repr(_outcome(kalmanson_order_by_routes, d, mode, tol))
                compared += 1
                if mode == "heuristic":
                    orders = (got.best_order, CircularOrder(range(1, d.n + 1)))
            for order in orders:
                got = repr(_outcome(circular_decomposition, d, order, tol))
                assert got == repr(_outcome(decomposition_by_routes, d, order, tol))
                raised += "NotKalmanson" in got
                compared += 1
    assert compared >= 10000 and raised >= 2000


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_canonical_rank_is_the_enumeration_position(n):
    for position, labels in enumerate(metrics._canonical_labels(n), start=1):
        assert metrics._canonical_rank(labels) == position


def _relabelled_network(net, rng):
    perm = list(range(1, net.n + 1))
    rng.shuffle(perm)
    leaves = {perm[label - 1]: node for label, node in net.leaves.items()}
    return PhyloNetwork.build(leaves, list(net.edge_items))


@pytest.mark.parametrize("n", [10, 13, 24, 48, 128])
def test_exact_search_builds_the_network_order_above_nine(n):
    # the resistance splits of a level-1 network are its displayed splits,
    # so the least Kalmanson order is the network's own canonical order
    for binary in (True, False):
        rng = random.Random(100 * n + binary)
        net = _relabelled_network(random_one_nested(n, rng, binary=binary), rng)
        order = canonical_order(net)
        result = find_kalmanson_order(resistance_vector(net), "exact")
        assert result == OrderSearchResult(
            order, order, F(0), metrics._canonical_rank(order.labels)
        )


def _zero_pendant(net, rng):
    """``net`` with the pendant edge of one leaf set to weight 0."""
    node = net.leaves[rng.randint(1, net.n)]
    edges = [(u, v, F(0) if node in (u, v) else w) for u, v, w in net.edge_items]
    return PhyloNetwork.build(net.leaves, edges)


def test_exact_search_matches_oracle_on_non_metrics_and_zero_pendants():
    # negative trivial indices (d + a_x + a_y with a < 0) and zero trivial
    # splits still go into the rebuild that gives the least order
    rng = random.Random(73)
    kinds = {"shifted": 0, "zero pendant": 0}
    for k in range(16):
        net = random_one_nested(rng.randint(4, 7 if k % 4 else 8), rng)
        if k % 2:
            d = _relabelled(min_path_vector(_zero_pendant(net, rng)), rng)
            kind = "zero pendant"
        else:
            base = _relabelled(resistance_vector(net), rng)
            a = [None] + [F(-rng.randint(1, 40), 3) for _ in range(net.n)]
            d = _shifted(base, a)
            assert min(d.values) < 0
            kind = "shifted"
        result = find_kalmanson_order(d, "exact")
        assert result.found
        assert result == _search_oracle(d)
        kinds[kind] += 1
    assert min(kinds.values()) == 8


def test_neighbor_net_order_ignores_added_leaf_terms():
    rng = random.Random(67)
    for k in range(30):
        n = rng.randint(4, 16)
        if k % 3:
            d = _relabelled(resistance_vector(random_one_nested(n, rng)), rng)
        else:
            d = _random_rational_vector(n, rng)
        a = [None] + [F(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(n)]
        order = metrics._neighbor_net_order(d)
        assert metrics._neighbor_net_order(_shifted(d, a)) == order


def _neighbor_net_corpus(rng):
    """Seeded exact vectors with shuffled labels: resistance and min-path
    vectors of level-1 networks and of their chorded level-2 versions, and
    random small-int and rational vectors, full of ties; n = 4..24 and
    then one vector at each of n = 32..256."""
    sizes = [rng.randint(4, 24) for _ in range(300)] + [32, 48, 64, 96, 128, 256]
    for k, n in enumerate(sizes):
        kind = k % 4
        if kind == 3 and k % 8 == 3:
            yield DistanceVector(n, tuple(F(rng.randint(0, 5)) for _ in range(n * (n - 1) // 2)))
            continue
        if kind == 3:
            yield _random_rational_vector(n, rng)
            continue
        net = random_one_nested(n, rng, binary=rng.random() < 0.5)
        if kind == 2:
            net = with_chord(net, rng) or net
        yield _relabelled((resistance_vector, min_path_vector)[k % 2](net), rng)


def test_neighbor_net_order_equals_rebuilding_oracle():
    # the tables that live across rounds give the orders of the same
    # algorithm rebuilding them each round: exact, and bit for bit on
    # floats at two scales
    counts = {True: 0, False: 0}
    for d in _neighbor_net_corpus(random.Random(71)):
        scales = (1.37, 1e-3) if d.n <= 64 else (1.37,)
        floats = [DistanceVector(d.n, tuple(float(v) * s for v in d.values)) for s in scales]
        for vector in (d, *floats):
            assert metrics._neighbor_net_order(vector) == neighbor_net_by_rebuilding(vector)
            counts[vector.is_exact] += 1
    assert min(counts.values()) >= 300


@st.composite
def circular_split_sums(draw):
    """A shuffled circular order and a weighted system of its arcs, with
    small integer weights so that equalities abound."""
    n = draw(st.integers(min_value=4, max_value=20))
    labels = draw(st.permutations(range(1, n + 1)))
    # (first position, size) of each split's side of at most n / 2 leaves
    arcs = [
        (p, size)
        for size in range(1, n // 2 + 1)
        for p in range(n if 2 * size < n else n // 2)
    ]
    chosen = draw(
        st.lists(st.sampled_from(arcs), min_size=1, max_size=3 * n, unique=True)
    )
    weights = {}
    for p, size in chosen:
        side = [labels[(p + t) % n] for t in range(size)]
        weights[Split(side, n)] = F(draw(st.integers(min_value=1, max_value=3)))
    return CircularSplitSystem.of_order(n, weights, CircularOrder(labels))


@given(circular_split_sums())
@settings(max_examples=60, deadline=None)
def test_heuristic_search_recovers_circular_split_sums(system):
    d = split_metric(system)
    result = find_kalmanson_order(d, "heuristic")
    assert result.found
    assert split_metric(circular_decomposition(d, result.order).system) == d


@pytest.mark.parametrize("n", [2, 3, 4, 10])
def test_unknown_search_mode_is_validation_error(n):
    d = DistanceVector(n, tuple(F(1) for _ in range(n * (n - 1) // 2)))
    with pytest.raises(ValidationError, match="unknown search mode 'bogus'"):
        find_kalmanson_order(d, mode="bogus")


def test_heuristic_search_at_nine_leaves_is_fast():
    import time

    rng = random.Random(9)
    d = _relabelled(resistance_vector(random_one_nested(9, rng)), rng)
    start = time.perf_counter()
    result = find_kalmanson_order(d, "heuristic")
    assert result.found and result.orders_checked == 1
    assert time.perf_counter() - start < 0.1


# ---------------------------------------------------------------------------
# heavy edge limit


def test_heavy_cycle_edge_approaches_deleted_network():
    heavy = square_with_pendants(
        cycle_weights=[float(1e8), 1.0, 1.0, 1.0],
        pendant_weights=[1.0, 1.0, 1.0, 1.0],
    )
    deleted = without_edge(square_with_pendants(), "c1", "c2")
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


def test_distance_text_golden():
    exact = DistanceVector(3, (F(3, 2), F(2), F(-1, 3)))
    floats = DistanceVector(3, (1.5, 1234567.0, 1e-7))
    mixed = DistanceVector(3, (F(1, 2), 0.1, F(4)))
    assert distance_vector_to_text(exact) == "n 3\n1 2 3/2\n1 3 2\n2 3 -1/3\n"
    assert distance_vector_to_text(floats) == "n 3\n1 2 1.5\n1 3 1.23457e+06\n2 3 1e-07\n"
    assert distance_vector_to_text(floats, 3) == "n 3\n1 2 1.5\n1 3 1.23e+06\n2 3 1e-07\n"
    assert distance_vector_to_text(mixed) == "n 3\n1 2 1/2\n1 3 0.1\n2 3 4\n"
    assert distance_vector_to_text(DistanceVector(1, ())) == "n 1\n"


# zero, the least subnormal, a float past 2**53, one that %g writes with an
# exponent, and two on a rounding boundary at some precision
TEXT_FLOATS = (0.0, 5e-324, 1e16, 1e-5, 123456.5, 9.999995)


def _text_vectors():
    rng = random.Random(28)
    exact = tuple(F(rng.randint(0, 99), rng.randint(1, 9)) for _ in range(28))
    floats = tuple(float(v) * 1.37 for v in exact)
    return {
        "exact": DistanceVector(8, exact),
        "float": DistanceVector(8, floats),
        "mixed": DistanceVector(8, exact[:14] + floats[14:]),
        "ints": DistanceVector(4, (1, 2, 30, 4, 500, 6)),
        "numpy": DistanceVector(8, tuple(np.float64(v) for v in floats)),
        "n1": DistanceVector(1, ()),
        "n2-exact": DistanceVector(2, (F(7, 3),)),
        "n2-float": DistanceVector(2, (0.1,)),
        "special": DistanceVector(4, TEXT_FLOATS),
    }


@pytest.mark.parametrize("precision", [1, 3, 6, 12, 17])
@pytest.mark.parametrize("name", list(_text_vectors()))
def test_distance_text_equals_pair_by_pair_writer(name, precision):
    d = _text_vectors()[name]
    assert distance_vector_to_text(d, precision) == distance_text_by_pairs(d, precision)


def test_percent_g_is_the_format_g_of_floats():
    # the writer fills its template with %; format_value uses format()
    rng = random.Random(28)
    floats = [*TEXT_FLOATS, -0.0, float("inf"), float("nan"), 1e300, 2.5, 0.5]
    floats += [rng.uniform(0, 10) * 10.0 ** rng.randint(-30, 30) for _ in range(300)]
    for precision in range(1, 21):
        for v in floats:
            assert f"%.{precision}g" % v == format(v, f".{precision}g")


def test_distance_square_matrix_format():
    text = "3\n0 1 2\n1 0 3\n2 3 0\n"
    d = parse_distance_vector(text, exact=True)
    assert d.values == (F(1), F(2), F(3))
    assert parse_distance_vector(text + "\n# end\n", exact=True) == d


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("n 3\n1 2 1\n1 3 1\n2 3 1\n1 7 5\n", "line 5: label outside 1..3"),
        ("n 3\n1 2 1\n2 2 9\n1 3 1\n2 3 1\n", "line 3: self pair"),
        ("n 3\n1 2 1\n1 3 1\n2 3 1\n2 1 4\n", "line 5: repeated pair"),
        ("3\n0 1 2\n1 5 3\n2 3 0\n", "line 3: nonzero diagonal"),
        # the rows after the first n were ignored
        ("3\n0 1 2\n1 0 3\n2 3 0\nfoo bar baz\n7 7\n",
         "^line 5: extra line after the matrix in 'foo bar baz'$"),
        ("3\n0 1 2\n1 0 3\n2 3 0\n# fourth row\n3 4 5\n",
         "^line 6: extra line after the matrix in '3 4 5'$"),
    ],
    ids=["label-outside", "self-pair", "repeated-pair", "square-diagonal",
         "square-extra-line", "square-extra-row"],
)
def test_distance_rejects_bad_pair_line(text, message):
    with pytest.raises(ValidationError, match=message):
        parse_distance_vector(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("n 3\n1 2 1\n2 3 1\n", r"^missing pair \(1, 3\)$"),
        ("3\n0 1 2\n1 0 3\n", "^square matrix shape mismatch$"),
        ("3\n0 1 2\n1 0\n2 3 0\n", "^square matrix shape mismatch$"),
        ("3\n0 1 2\n1 0 3\n2 4 0\n", r"^asymmetric entries for \(2,3\)$"),
        ("size 3\n1 2 1\n", "^unrecognized distance format$"),
        ("# no data\n\n", "^empty distance file$"),
    ],
    ids=["missing-pair", "too-few-rows", "short-row", "asymmetric", "unknown-header",
         "empty"],
)
def test_distance_file_of_the_wrong_shape(text, message):
    with pytest.raises(SizeMismatchError, match=message):
        parse_distance_vector(text)


def test_distance_vector_needs_one_entry_per_pair():
    with pytest.raises(SizeMismatchError, match="^2 entries for n=3, expected 3$"):
        DistanceVector(3, (F(1), F(2)))


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
    from phylocircuit.splits import split_system_to_text

    net = two_cycles_with_bridge()
    first = split_system_to_text(decomposed_resistance_splits(net))
    second = split_system_to_text(decomposed_resistance_splits(net))
    assert first == second
