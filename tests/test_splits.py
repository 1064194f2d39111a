import random
from fractions import Fraction

import pytest

from phylocircuit.errors import (
    MissingTrivialSplitsError,
    NotCircularError,
    NotOneNestedError,
)
from phylocircuit.metrics import min_path_vector
from phylocircuit.netgraph import CircularOrder, classify, consistent_orders, validate
from phylocircuit.randomnet import random_one_nested
from phylocircuit.splits import (
    CircularSplitSystem,
    Split,
    WeightedSplitSystem,
    crosses,
    displayed_splits,
    is_circular,
    is_faithfully_phylogenetic,
    is_outer_path,
    network_from_splits,
    parse_split_system,
    refines,
    split_metric,
    split_system_to_text,
    trivial_split,
    weighted_network_from_splits,
)

from fixtures import (
    k33_with_leaves,
    quartet_tree,
    ring_with_pendants,
    square_with_pendants,
)

F = Fraction


def full_trivial(n, w=F(1)):
    return [(trivial_split(lab, n), w) for lab in range(1, n + 1)]


# ---------------------------------------------------------------------------
# Split basics


def test_split_canonical_side_with_leaf_one_first():
    s = Split({3, 4}, 4)
    assert s.side_a == (1, 2)
    assert s.side_b == (3, 4)
    assert s == Split({1, 2}, 4)
    assert s.separates(1, 3) and not s.separates(3, 4)


def test_trivial_split_detection():
    assert trivial_split(2, 5).is_trivial
    assert not Split({1, 2}, 5).is_trivial


def test_crosses():
    a = Split({1, 2}, 4)
    b = Split({2, 3}, 4)
    c = Split({3, 4}, 4)
    assert crosses(a, b)
    assert not crosses(a, c)  # identical bipartition classes are nested


# ---------------------------------------------------------------------------
# displayed splits


def test_sigma_quartet():
    system = displayed_splits(quartet_tree())
    expected = {trivial_split(i, 4) for i in range(1, 5)} | {Split({1, 2}, 4)}
    assert system.splits == expected


def test_sigma_square():
    system = displayed_splits(square_with_pendants())
    expected = {trivial_split(i, 4) for i in range(1, 5)}
    expected |= {Split({1, 2}, 4), Split({2, 3}, 4)}
    assert system.splits == expected


def test_sigma_five_ring():
    system = displayed_splits(ring_with_pendants(5))
    nontrivial = {s for s in system.splits if not s.is_trivial}
    expected = {
        Split({1, 2}, 5),
        Split({2, 3}, 5),
        Split({3, 4}, 5),
        Split({4, 5}, 5),
        Split({5, 1}, 5),
    }
    assert nontrivial == expected
    assert len(system.splits) == 10


def test_sigma_rejects_k33():
    with pytest.raises(NotOneNestedError):
        displayed_splits(k33_with_leaves())


def test_sigma_circular_in_every_consistent_order():
    rng = random.Random(3)
    for _ in range(10):
        net = random_one_nested(rng.randint(4, 7), rng)
        system = displayed_splits(net)
        for order in consistent_orders(net):
            assert is_circular(system, order)


# ---------------------------------------------------------------------------
# split metric


def test_split_metric_trivial_only():
    n = 4
    weights = [(trivial_split(i, n), F(i)) for i in range(1, n + 1)]
    d = split_metric(WeightedSplitSystem.of(n, weights))
    assert d.value(1, 3) == F(1) + F(3)
    assert d.value(2, 4) == F(2) + F(4)


def test_split_metric_quartet_sum():
    n = 4
    weights = full_trivial(n) + [(Split({1, 2}, n), F(5))]
    d = split_metric(WeightedSplitSystem.of(n, weights))
    assert d.value(1, 3) == 1 + 1 + 5
    assert d.value(1, 2) == 2


def test_split_metric_empty_weights_zero():
    d = split_metric(WeightedSplitSystem.of(3, full_trivial(3, F(0))))
    assert all(v == 0 for v in d.values)


def test_split_metric_linear_in_weights():
    rng = random.Random(17)
    net = random_one_nested(6, rng)
    base = displayed_splits(net)
    w1 = {s: F(rng.randint(1, 9)) for s in base.splits}
    w2 = {s: F(rng.randint(1, 9)) for s in base.splits}
    s1 = WeightedSplitSystem.of(6, w1)
    s2 = WeightedSplitSystem.of(6, w2)
    s12 = WeightedSplitSystem.of(6, {s: w1[s] + w2[s] for s in base.splits})
    lhs = split_metric(s12).values
    rhs = tuple(
        a + b for a, b in zip(split_metric(s1).values, split_metric(s2).values)
    )
    assert lhs == rhs


# ---------------------------------------------------------------------------
# circularity


def test_is_circular_basic():
    sys12 = WeightedSplitSystem.unweighted(4, [Split({1, 2}, 4)])
    sys13 = WeightedSplitSystem.unweighted(4, [Split({1, 3}, 4)])
    o = CircularOrder((1, 2, 3, 4))
    assert is_circular(sys12, o)
    assert not is_circular(sys13, o)


def test_circular_system_constructor_enforces_contiguity():
    with pytest.raises(NotCircularError):
        CircularSplitSystem.of_order(
            4,
            [(Split({1, 3}, 4), F(1))],
            CircularOrder((1, 2, 3, 4)),
        )


# ---------------------------------------------------------------------------
# rebuilding networks


def _sigma_as_circular(net, order=None):
    system = displayed_splits(net)
    if order is None:
        order = min(consistent_orders(net), key=lambda o: o.labels)
    return CircularSplitSystem.of_order(
        net.n, [(s, None) for s in system.splits], order
    )


def test_rebuild_identity_on_quartet():
    net = quartet_tree()
    rebuilt = network_from_splits(_sigma_as_circular(net))
    assert displayed_splits(rebuilt).splits == displayed_splits(net).splits
    assert classify(rebuilt).level == 0


def test_rebuild_identity_on_square():
    net = square_with_pendants()
    rebuilt = network_from_splits(_sigma_as_circular(net))
    assert displayed_splits(rebuilt).splits == displayed_splits(net).splits
    assert classify(rebuilt).level == 1


def test_rebuild_requires_trivial_splits():
    with pytest.raises(MissingTrivialSplitsError):
        network_from_splits(
            CircularSplitSystem.of_order(
                4, [(Split({1, 2}, 4), None)], CircularOrder((1, 2, 3, 4))
            )
        )


def test_rebuild_round_trip_random_networks():
    rng = random.Random(71)
    for _ in range(25):
        net = random_one_nested(rng.randint(4, 8), rng)
        rebuilt = network_from_splits(_sigma_as_circular(net))
        assert displayed_splits(rebuilt).splits == displayed_splits(net).splits


def test_rebuild_displays_superset_for_generic_circular_systems():
    # a sparse crossing family: the rebuilt cycle displays extra splits
    n = 6
    order = CircularOrder(tuple(range(1, 7)))
    nontrivial = [Split({2, 3}, n), Split({3, 4}, n), Split({4, 5}, n)]
    system = CircularSplitSystem.of_order(
        n, full_trivial(n) + [(s, F(1)) for s in nontrivial], order
    )
    rebuilt = network_from_splits(system)
    sigma = displayed_splits(rebuilt)
    assert sigma.splits >= system.splits
    assert sigma.splits > system.splits
    assert not is_faithfully_phylogenetic(system)


def test_rebuild_bridge_parallel_to_cycle():
    # one split displayed twice in the source: by a bridge and by a cycle pair
    edges = [
        ("a", "b", F(1)),
        ("b", "c", F(1)),
        ("c", "d", F(1)),
        ("d", "a", F(1)),
        ("a", "t", F(1)),
        ("t", "x1", F(1)),
        ("t", "x2", F(1)),
        ("x3", "b", F(1)),
        ("x4", "c", F(1)),
        ("x5", "d", F(1)),
    ]
    net = validate({i: f"x{i}" for i in range(1, 6)}, edges)
    rebuilt = network_from_splits(_sigma_as_circular(net))
    assert displayed_splits(rebuilt).splits == displayed_splits(net).splits
    assert classify(rebuilt).level == 1


def test_faithfully_phylogenetic_on_sigma_images():
    rng = random.Random(43)
    for _ in range(10):
        net = random_one_nested(rng.randint(4, 7), rng)
        assert is_faithfully_phylogenetic(_sigma_as_circular(net))


# ---------------------------------------------------------------------------
# weighted rebuild


def test_weighted_rebuild_tree_identity():
    n = 4
    weights = full_trivial(n, F(2)) + [(Split({1, 2}, n), F(5))]
    system = CircularSplitSystem.of_order(n, weights, CircularOrder((1, 2, 3, 4)))
    net = weighted_network_from_splits(system)
    assert min_path_vector(net) == split_metric(system)
    assert classify(net).level == 0


def test_weighted_rebuild_square_distances():
    n = 4
    p, q = F(3), F(7)
    weights = full_trivial(n) + [
        (Split({1, 2}, n), p),
        (Split({2, 3}, n), q),
    ]
    system = CircularSplitSystem.of_order(n, weights, CircularOrder((1, 2, 3, 4)))
    net = weighted_network_from_splits(system)
    assert classify(net).level == 1
    assert min_path_vector(net) == split_metric(system)
    assert is_outer_path(system)


def test_weighted_rebuild_strips_to_plain_rebuild():
    rng = random.Random(57)
    for _ in range(10):
        net = random_one_nested(rng.randint(4, 7), rng)
        base = displayed_splits(net)
        order = min(consistent_orders(net), key=lambda o: o.labels)
        weights = {s: F(rng.randint(1, 9), rng.choice((1, 2))) for s in base.splits}
        system = CircularSplitSystem.of_order(net.n, weights, order)
        w_net = weighted_network_from_splits(system)
        u_net = network_from_splits(system.strip_weights())
        assert displayed_splits(w_net).splits == displayed_splits(u_net).splits
        assert {tuple(sorted(e)) for e in w_net.edges} == {
            tuple(sorted(e)) for e in u_net.edges
        }


def test_non_outer_path_witness():
    # one crossing class whose two arcs between leaves 2 and 5 each carry a
    # split that does not separate them: every exterior route pays twice
    n = 6
    order = CircularOrder((1, 2, 3, 4, 5, 6))
    weights = full_trivial(n) + [
        (Split({2, 3}, n), F(1)),
        (Split({3, 4}, n), F(1)),
        (Split({4, 5}, n), F(1)),
        (Split({2, 3, 4, 5}, n), F(1)),
        (Split({5, 6}, n), F(1)),
    ]
    system = CircularSplitSystem.of_order(n, weights, order)
    assert not is_outer_path(system)
    rebuilt = weighted_network_from_splits(system)
    d_path = min_path_vector(rebuilt)
    d_split = split_metric(system)
    assert d_path.value(2, 5) == d_split.value(2, 5) + 2


def test_refines():
    a = displayed_splits(square_with_pendants())
    b = WeightedSplitSystem.unweighted(
        4, {trivial_split(i, 4) for i in range(1, 5)}
    )
    assert refines(a, a)
    assert refines(a, b)
    assert not refines(b, a)


# ---------------------------------------------------------------------------
# serialization


def test_split_system_text_round_trip():
    net = square_with_pendants()
    system = _sigma_as_circular(net)
    text = split_system_to_text(system)
    again = parse_split_system(text)
    assert again.splits == system.splits
    assert again.order == system.order


def test_split_system_weighted_round_trip():
    n = 4
    weights = full_trivial(n, F(3, 2)) + [(Split({1, 2}, n), F(5))]
    system = CircularSplitSystem.of_order(n, weights, CircularOrder((1, 2, 3, 4)))
    text = split_system_to_text(system)
    again = parse_split_system(text, exact=True)
    assert again.same_weighted_splits(system)


def test_rebuild_superset_fuzz():
    # random interval systems: the rebuild either reports NotRealizable or
    # displays a superset of the input splits
    import random as _random
    from phylocircuit.errors import NotRealizableError

    rng = _random.Random(2024)
    built = 0
    for _ in range(60):
        n = rng.randint(5, 8)
        order = CircularOrder(tuple(range(1, n + 1)))
        count = rng.randint(1, n - 2)
        chosen = set()
        while len(chosen) < count:
            lo = rng.randint(2, n - 1)
            hi = rng.randint(lo + 1, n)
            if (lo, hi) != (2, n):
                chosen.add((lo, hi))
        entries = full_trivial(n) + [
            (Split(set(range(lo, hi + 1)), n), F(1)) for lo, hi in chosen
        ]
        system = CircularSplitSystem.of_order(n, entries, order)
        try:
            rebuilt = network_from_splits(system.strip_weights())
        except NotRealizableError:
            continue
        built += 1
        assert displayed_splits(rebuilt).splits >= system.splits
    assert built >= 40


def test_separating_splits_come_from_pairwise_circuit_displays():
    # splits separating i and j are exactly those displayed by a bridge on
    # the block path or by a circuit-parallel pair of cycle edges (one edge
    # on each branch of a traversed cycle)
    from phylocircuit.netgraph import CYCLE, BRIDGE, cycle_node_sequence, edge_key
    from phylocircuit.netgraph import block_path
    from phylocircuit.splits import display_catalog

    for net in (square_with_pendants(), quartet_tree(), ring_with_pendants(5)):
        catalog = display_catalog(net)
        for i in range(1, net.n + 1):
            for j in range(i + 1, net.n + 1):
                path = block_path(net, i, j)
                bridge_edges = set()
                parallel_pairs = set()
                for t, block in enumerate(path):
                    if block.kind == BRIDGE:
                        bridge_edges |= block.edges
                    elif block.kind == CYCLE:
                        entry = (
                            net.leaves[i]
                            if t == 0
                            else next(iter(block.nodes & path[t - 1].nodes))
                        )
                        exit_ = (
                            net.leaves[j]
                            if t == len(path) - 1
                            else next(iter(block.nodes & path[t + 1].nodes))
                        )
                        ring = cycle_node_sequence(block, start=entry)
                        cut = ring.index(exit_)
                        side_a = {
                            edge_key(ring[s], ring[s + 1]) for s in range(cut)
                        }
                        side_b = block.edges - side_a
                        for ea in side_a:
                            for eb in side_b:
                                parallel_pairs.add(frozenset((ea, eb)))
                for split, displays in catalog.items():
                    witnessed = any(
                        (d[0] == "bridge" and d[1] in bridge_edges)
                        or (
                            d[0] == "pair"
                            and frozenset((d[2], d[3])) in parallel_pairs
                        )
                        for d in displays
                    )
                    assert witnessed == split.separates(i, j)
