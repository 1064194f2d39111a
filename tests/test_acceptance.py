"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction

import pytest

from phylocircuit.enum2 import (
    add_heavy_chord,
    enumerate_binary_two_nested,
    skeleton_census,
    two_nested_breakdown,
)
from phylocircuit.genetics import jukes_cantor_distance, jukes_cantor_parallel_sites
from phylocircuit.metrics import (
    DistanceVector,
    find_kalmanson_order,
    is_kalmanson,
    min_path_vector,
    resistance_by_reduction,
    resistance_vector,
)
from phylocircuit.netgraph import (
    CYCLE,
    CircularOrder,
    classify,
    consistent_orders,
    cycle_node_sequence,
    edge_key,
    wye_delta,
)
from phylocircuit.polytope import (
    closed_form_count,
    enumerate_binary_one_nested,
    face_minimization_report,
    vertex_vector,
    vertex_vector_by_orders,
)
from phylocircuit.randomnet import random_corpus, random_one_nested
from phylocircuit.reconstruct import (
    circular_decomposition,
    min_path_split_system,
    resistance_split_system_direct,
)
from phylocircuit.splits import (
    CircularSplitSystem,
    Split,
    displayed_splits,
    network_from_splits,
    weighted_network_from_splits,
)

from fixtures import (
    decomposed_resistance_splits,
    k33_with_leaves,
    square_with_pendants,
    without_edge,
)

F = Fraction

CORPUS_SEED = 20260810

FIG_RESISTANCE_7 = (
    3.99, 4.96, 6.41, 6.41, 6.84, 3.99,
    2.99, 4.46, 4.46, 4.91, 3.96,
    3.49, 3.49, 3.96, 4.91,
    1, 3.49, 6.34,
    3.49, 6.34,
    6.75,
)
FIG_MINPATH_7 = (
    3.99, 4.96, 6.43, 6.43, 6.84, 3.99,
    2.99, 4.46, 4.46, 4.93, 3.96,
    3.49, 3.49, 3.96, 4.93,
    1, 3.49, 6.34,
    3.49, 6.34,
    6.75,
)


@pytest.fixture(scope="module")
def corpus():
    nets = random_corpus(200, CORPUS_SEED, n_range=(4, 8))
    return [(net, resistance_vector(net)) for net in nets]


def test_criterion_1_bipartite_counterexample():
    start = time.monotonic()
    d = resistance_vector(k33_with_leaves())
    same = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
    for i, j in same:
        assert d.value(i, j) == F(8, 3)
    for i in (1, 2, 3):
        for j in (4, 5, 6):
            assert d.value(i, j) == F(23, 9)
    result = find_kalmanson_order(d, mode="exact")
    assert not result.found
    assert result.orders_checked == 60
    assert result.best_violation == F(2, 9)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 1: bipartite core distances 8/3 and 23/9 exact,"
        f" 60-order search refused with violation 2/9 ({_fmt_elapsed(elapsed)})"
    )


def _fmt_elapsed(seconds: float) -> str:
    return f"{seconds:.2f}s"


def test_criterion_2_counting():
    start = time.monotonic()
    assert len(enumerate_binary_two_nested(4)) == 6
    assert len(enumerate_binary_two_nested(5)) == 120
    assert len(enumerate_binary_two_nested(6)) == 2790
    assert two_nested_breakdown(6).total == 2790
    assert sorted((c for _, c in two_nested_breakdown(6).rows), reverse=True) == [
        900, 720, 540, 360, 180, 90,
    ]
    assert skeleton_census(4) == 1
    assert skeleton_census(5) == 2
    assert skeleton_census(6) == 6
    for n in range(4, 8):
        for k in range(0, n - 2):
            assert len(enumerate_binary_one_nested(n, k)) == closed_form_count(n, k)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 2: 2-nested counts 6/120/2790 with skeleton census"
        f" 1/2/6, 1-nested counts match the closed form through n=7"
        f" ({_fmt_elapsed(elapsed)})"
    )


def test_criterion_3_published_seven_leaf_reconstruction():
    d_res = DistanceVector(7, FIG_RESISTANCE_7)
    d_path = DistanceVector(7, FIG_MINPATH_7)
    order = CircularOrder(tuple(range(1, 8)))
    result = circular_decomposition(d_res, order, tol=0.02)
    assert float(result.residual) <= 0.02
    target = Split({4, 5, 6}, 7)
    assert target in result.system.splits
    weight = result.system.weight(target)
    assert abs(weight - 0.95) <= 0.02
    skeleton = network_from_splits(result.system)
    assert classify(skeleton).level == 1
    x = vertex_vector(skeleton)
    lhs = x.dot(d_res)
    rhs = x.dot(d_path)
    assert abs(float(lhs) - 51.4) <= 0.2
    assert abs(float(rhs) - 51.4) <= 0.2
    assert x.value(1, 2) == 2
    assert x.value(5, 6) == 1
    print(
        f"\nPASS criterion 3: rounded 7-leaf vector yields split 4,5,6|rest at"
        f" {weight:.3f}, functional values {float(lhs):.2f} and {float(rhs):.2f}"
    )


def test_criterion_4_resistance_is_circular_on_corpus(corpus):
    start = time.monotonic()
    orders_checked = 0
    for net, d in corpus:
        assert d.is_exact
        for order in consistent_orders(net):
            report = is_kalmanson(d, order)
            assert report.passed
            orders_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        f"\nPASS criterion 4: 200 random weighted networks pass the circular"
        f" inequality exactly on {orders_checked} consistent orders"
        f" ({_fmt_elapsed(elapsed)})"
    )


def test_criterion_5_split_recovery_on_corpus(corpus):
    start = time.monotonic()
    for net, d in corpus:
        sigma = displayed_splits(net)
        via_metric = decomposed_resistance_splits(net)
        direct = resistance_split_system_direct(net)
        assert via_metric.splits == sigma.splits
        assert via_metric.same_weighted_splits(direct)
        rebuilt = network_from_splits(via_metric)
        assert displayed_splits(rebuilt).splits == sigma.splits
    elapsed = time.monotonic() - start
    print(
        f"\nPASS criterion 5: decomposed and direct split weights agree exactly"
        f" and rebuilds are split-equivalent on the corpus ({_fmt_elapsed(elapsed)})"
    )


def test_criterion_6_galois_identities(corpus):
    start = time.monotonic()
    for net, _ in corpus:
        base = displayed_splits(net)
        order = min(consistent_orders(net), key=lambda o: o.labels)
        circular = CircularSplitSystem.of_order(
            net.n, [(s, None) for s in base.splits], order
        )
        rebuilt = network_from_splits(circular)
        assert displayed_splits(rebuilt).splits == base.splits
    rng = random.Random(CORPUS_SEED + 1)
    count = 0
    while count < 100:
        net = random_one_nested(rng.randint(4, 7), rng)
        system = min_path_split_system(net)  # outer-path by construction
        again = min_path_split_system(weighted_network_from_splits(system))
        assert system.same_weighted_splits(again)
        # stripping weights before or after the rebuild commutes
        w_net = weighted_network_from_splits(system)
        u_net = network_from_splits(system)
        assert {tuple(sorted(e)) for e in w_net.edges} == {
            tuple(sorted(e)) for e in u_net.edges
        }
        assert w_net.leaves == u_net.leaves
        count += 1
    elapsed = time.monotonic() - start
    print(
        f"\nPASS criterion 6: rebuild identities hold on the corpus and on"
        f" {count} outer-path systems ({_fmt_elapsed(elapsed)})"
    )


def test_criterion_7_oracle_equivalences(corpus):
    start = time.monotonic()
    level2 = 0
    rng = random.Random(CORPUS_SEED + 2)
    for net, d in corpus[:40]:
        for i in range(1, net.n + 1):
            for j in range(i + 1, net.n + 1):
                assert resistance_by_reduction(net, i, j) == d.value(i, j)
        cycles = classify(net).blocks.of_kind(CYCLE)
        if cycles:
            ring = cycle_node_sequence(cycles[0])
            m = len(ring)
            i = rng.randrange(m)
            j = (i + rng.randint(2, m - 2)) % m
            if i != j and edge_key(ring[i], ring[j]) not in net.edges:
                chorded = add_heavy_chord(
                    net, 0, (ring[i], ring[j]), net.total_weight + 1
                )
                d2 = resistance_vector(chorded)
                for a in range(1, net.n + 1):
                    for b in range(a + 1, net.n + 1):
                        assert resistance_by_reduction(chorded, a, b) == d2.value(a, b)
                level2 += 1
    for n in range(4, 7):
        for k in range(0, n - 2):
            for candidate in enumerate_binary_one_nested(n, k):
                assert vertex_vector(candidate) == vertex_vector_by_orders(candidate)
    swapped = 0
    for net, d in corpus:
        tri = None
        for block in classify(net).blocks.of_kind(CYCLE):
            if len(block.edges) == 3:
                tri = block
                break
        if tri is None:
            continue
        image = wye_delta(net, tuple(sorted(tri.nodes)))
        assert resistance_vector(image) == d
        swapped += 1
    rng2 = random.Random(CORPUS_SEED + 3)
    while swapped < 5:
        net = random_one_nested(rng2.randint(4, 6), rng2, cycle_prob=0.0)
        hubs = [v for v in net.nodes if net.degree(v) == 3 and v not in net.leaf_of_node]
        if not hubs:
            continue
        image = wye_delta(net, hubs[0])
        assert resistance_vector(image) == resistance_vector(net)
        swapped += 1
    elapsed = time.monotonic() - start
    print(
        f"\nPASS criterion 7: reduction oracle matches the node-equation solver"
        f" (incl. {level2} chorded circuits), vertex-vector oracles agree"
        f" through n=6, wye-delta exchanges preserve leaf resistances"
        f" ({_fmt_elapsed(elapsed)})"
    )


def test_criterion_8_face_minimization():
    start = time.monotonic()
    rng = random.Random(CORPUS_SEED + 4)
    checked = 0
    while checked < 50:
        net = random_one_nested(rng.randint(4, 6), rng, binary=bool(rng.getrandbits(1)))
        report = face_minimization_report(net, "resistance")
        assert report.argmin_matches_refinements
        assert report.identity_lhs == report.identity_rhs
        checked += 1
    elapsed = time.monotonic() - start
    print(
        f"\nPASS criterion 8: 50 exhaustive minimizations return exactly the"
        f" refinement face and the functional identity holds exactly"
        f" ({_fmt_elapsed(elapsed)})"
    )


def test_criterion_9_heavy_edge_and_heavy_chord():
    heavy = square_with_pendants(
        cycle_weights=[float(1e8), 1.0, 1.0, 1.0],
        pendant_weights=[1.0, 1.0, 1.0, 1.0],
    )
    deleted = without_edge(square_with_pendants(), "c1", "c2")
    sys_heavy = decomposed_resistance_splits(heavy)
    sys_del = decomposed_resistance_splits(deleted)
    for s, w in sys_del.entries:
        got = sys_heavy.weight(s)
        assert abs(float(got) - float(w)) <= 1e-5 * max(1.0, float(w))
    for s in sys_heavy.splits - sys_del.splits:
        assert float(sys_heavy.weight(s)) <= 1e-5
    rng = random.Random(CORPUS_SEED + 5)
    checked = 0
    while checked < 20:
        net = random_one_nested(rng.randint(4, 7), rng)
        cycles = classify(net).blocks.of_kind(CYCLE)
        if not cycles:
            continue
        ring = cycle_node_sequence(cycles[0])
        m = len(ring)
        i = rng.randrange(m)
        j = (i + rng.randint(2, m - 2)) % m
        if i == j or edge_key(ring[i], ring[j]) in net.edges:
            continue
        chorded = add_heavy_chord(net, 0, (ring[i], ring[j]), net.total_weight + 1)
        assert min_path_vector(chorded) == min_path_vector(net)
        checked += 1
    print(
        "\nPASS criterion 9: split weights track the deleted-edge limit at 1e8"
        f" and {checked} heavy chords leave minimum paths exactly unchanged"
    )


def test_criterion_10_genetics():
    assert jukes_cantor_distance(100, 100) == 0.0
    rng = random.Random(CORPUS_SEED + 6)
    m = 100.0
    for _ in range(100):
        c1 = rng.uniform(m / 4 + 0.25, m - 0.25)
        c = jukes_cantor_parallel_sites(c1, m)
        assert abs(jukes_cantor_distance(c, m) - jukes_cantor_distance(c1, m) / 2) < 1e-9
        target = jukes_cantor_distance(c1, m) / 2.0
        lo, hi = m / 4.0 + 1e-9, m
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if jukes_cantor_distance(mid, m) > target:
                lo = mid
            else:
                hi = mid
        assert abs((lo + hi) / 2.0 - c) <= 1e-9 * max(1.0, c) + 1e-9
    print(
        "\nPASS criterion 10: zero distance at full agreement, half-distance"
        " identity and bisection oracle agree within 1e-9 on 100 samples"
    )
