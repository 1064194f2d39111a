import random
from fractions import Fraction

import pytest

from phylocircuit import splits
from phylocircuit.errors import (
    MissingTrivialSplitsError,
    NotCircularError,
    NotOneNestedError,
    SizeMismatchError,
    ValidationError,
)
from phylocircuit.metrics import (
    DistanceVector,
    find_kalmanson_order,
    min_path_vector,
    pair_iter,
    resistance_vector,
)
from phylocircuit.netgraph import CircularOrder, classify, consistent_orders, validate
from phylocircuit.randomnet import random_one_nested
from phylocircuit.reconstruct import invert_to_network, resistance_split_system_direct
from phylocircuit.splits import (
    CircularSplitSystem,
    Split,
    WeightedSplitSystem,
    crosses,
    display_catalog,
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
    crossing_classes_by_pairs,
    cut_catalog,
    k33_with_leaves,
    quartet_tree,
    ring_with_pendants,
    scan_networks,
    shuffled_order,
    square_with_pendants,
    star,
    triangle_with_leaves,
    two_cycles_with_bridge,
    two_leaf_edge,
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


@pytest.mark.parametrize(
    "side, message",
    [
        (set(), "both sides of a split must be nonempty"),
        ({1, 2, 3, 4}, "both sides of a split must be nonempty"),
        ({1, 5}, r"split sides must partition 1\.\.n"),
    ],
    ids=["empty", "everything", "label-above-n"],
)
def test_split_needs_two_nonempty_sides_of_one_to_n(side, message):
    with pytest.raises(SizeMismatchError, match=f"^{message}$"):
        Split(side, 4)


def test_weight_of_a_split_not_in_the_system_is_zero():
    system = WeightedSplitSystem.of(4, [(Split({1, 2}, 4), F(3)), (Split({1, 3}, 4), None)])
    assert system.weight(Split({1, 2}, 4)) == 3
    assert system.weight(Split({1, 3}, 4)) == 0
    assert system.weight(Split({1, 4}, 4)) == 0


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


def _split_metric_by_pairs(system):
    """Every split asked about every pair: the oracle for split_metric."""
    values = []
    for i, j in pair_iter(system.n):
        total = F(0)
        for s, w in system.entries:
            if w is not None and s.separates(i, j):
                total += w
        values.append(total)
    return DistanceVector(system.n, tuple(values))


def test_split_metric_matches_pairwise_oracle_bit_for_bit():
    rng = random.Random(61)
    for k in range(40):
        exact = resistance_split_system_direct(
            random_one_nested(2 + k % 15, rng, binary=k % 2 == 0)
        )
        systems = [exact]
        for scale in (1e-3, 1.37, 1e4):
            systems.append(
                WeightedSplitSystem.of(
                    exact.n, [(s, float(w) * scale) for s, w in exact.entries]
                )
            )
        systems.append(
            WeightedSplitSystem.of(
                exact.n,
                [(s, None if t % 2 else w) for t, (s, w) in enumerate(exact.entries)],
            )
        )
        for system in systems:
            assert repr(split_metric(system)) == repr(_split_metric_by_pairs(system))


# ---------------------------------------------------------------------------
# circularity


def test_is_circular_basic():
    sys12 = WeightedSplitSystem.unweighted(4, [Split({1, 2}, 4)])
    sys13 = WeightedSplitSystem.unweighted(4, [Split({1, 3}, 4)])
    o = CircularOrder((1, 2, 3, 4))
    assert is_circular(sys12, o)
    assert not is_circular(sys13, o)


@pytest.mark.parametrize("labels", [(1, 2, 3, 5), (1, 2, 3, 0)], ids=["above-n", "zero"])
def test_order_outside_one_to_n_is_size_mismatch(labels):
    order = CircularOrder(labels)
    system = WeightedSplitSystem.of(4, full_trivial(4))
    with pytest.raises(SizeMismatchError, match=r"is not a permutation of 1\.\.4"):
        CircularSplitSystem.of_order(4, full_trivial(4), order)
    with pytest.raises(SizeMismatchError, match=r"is not a permutation of 1\.\.4"):
        is_circular(system, order)


def test_order_of_another_size_is_size_mismatch():
    system = WeightedSplitSystem.of(4, full_trivial(4))
    with pytest.raises(SizeMismatchError, match="^order size differs from system size$"):
        is_circular(system, CircularOrder((1, 2, 3, 4, 5)))


@pytest.mark.parametrize("labels", [(2, 3), (1, 1), (1, 2, 2)], ids=["no-1", "repeat", "repeat-2"])
def test_bad_circular_order_is_a_validation_error(labels):
    with pytest.raises(ValidationError, match="not a leaf permutation containing 1"):
        CircularOrder(labels)
    # the split parser still names the header line
    text = f"n 3 order {','.join(map(str, labels))}\n"
    with pytest.raises(ValidationError, match=r"^line 1: cannot parse 'n 3 order "):
        parse_split_system(text)


@pytest.mark.parametrize(
    "weights",
    [(None, 2), (2, None), (1, 2)],
    ids=["unknown-then-known", "known-then-unknown", "both-known"],
)
def test_repeated_split_is_refused(weights):
    # the weight kept or summed depended on the order of the repeats
    s = Split({1, 2}, 4)
    with pytest.raises(ValidationError, match=r"^split \{1,2\}\|\{3,4\} is given twice$"):
        WeightedSplitSystem.of(4, [(s, w) for w in weights])


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


def _random_circular_system(rng):
    """Every trivial split plus up to 12 random nontrivial arcs of a shuffled
    order on 4..12 leaves, all with positive weights."""
    n = rng.randint(4, 12)
    order = shuffled_order(n, rng)
    labels = order.labels
    weights = {trivial_split(lab, n): F(rng.randint(1, 9)) for lab in labels}
    for _ in range(rng.randint(0, 12)):
        # an arc of 2..n-2 positions that misses leaf 1's position 1
        lo = rng.randint(2, n - 1)
        hi = rng.randint(lo + 1, min(n, lo + n - 3))
        weights[Split(labels[lo - 1 : hi], n)] = F(rng.randint(1, 9), rng.randint(1, 4))
    return CircularSplitSystem.of_order(n, weights.items(), order)


def _every_identity_system(n):
    """Every trivial split plus each subset of the nontrivial arcs of the
    identity order on n leaves: 2**(n(n-3)/2) systems."""
    order = CircularOrder(tuple(range(1, n + 1)))
    arcs = [
        Split(range(lo, hi + 1), n)
        for lo in range(2, n)
        for hi in range(lo + 1, min(n, lo + n - 3) + 1)
    ]
    for mask in range(1 << len(arcs)):
        chosen = [(s, F(k + 2, 3)) for k, s in enumerate(arcs) if mask >> k & 1]
        yield CircularSplitSystem.of_order(n, full_trivial(n) + chosen, order)


def test_rebuild_any_circular_system():
    rng = random.Random(1701)
    systems = [_random_circular_system(rng) for _ in range(3000)]
    for n in (4, 5, 6):
        systems.extend(_every_identity_system(n))
    assert len(systems) == 3000 + 4 + 32 + 512
    for system in systems:
        for rebuild in (network_from_splits, weighted_network_from_splits):
            net = rebuild(system)
            shape = classify(net)
            assert shape.level is not None and shape.level <= 1
            assert shape.triangle_free
            assert displayed_splits(net).splits >= system.splits


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


def test_weighted_rebuild_needs_every_weight():
    system = CircularSplitSystem.of_order(
        4, [(s, None) for s, _ in full_trivial(4)], CircularOrder((1, 2, 3, 4))
    )
    assert network_from_splits(system).n == 4
    with pytest.raises(SizeMismatchError, match="^weighted rebuild needs weights on every split$"):
        weighted_network_from_splits(system)


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
        u_net = network_from_splits(system)
        assert displayed_splits(w_net).splits == displayed_splits(u_net).splits
        assert {tuple(sorted(e)) for e in w_net.edges} == {
            tuple(sorted(e)) for e in u_net.edges
        }


def test_unit_and_weighted_rebuilds_share_one_shape():
    rng = random.Random(59)
    for k in range(60):
        net = random_one_nested(2 + k % 19, rng, binary=k % 2 == 0)
        exact = resistance_split_system_direct(net)
        floats = CircularSplitSystem.of_order(
            net.n, [(s, float(w) * 1.37) for s, w in exact.entries], exact.order
        )
        for system in (exact, floats):
            w_net = weighted_network_from_splits(system)
            u_net = network_from_splits(system)
            assert w_net.leaf_items == u_net.leaf_items
            assert w_net.nodes == u_net.nodes
            assert [e[:2] for e in w_net.edge_items] == [e[:2] for e in u_net.edge_items]
            assert {w for _, _, w in u_net.edge_items} == {F(1)}


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


@pytest.mark.parametrize(
    "text, line",
    [
        ("n 3 order 1,2,3\n1 | 1 | 2,3\n1 | 1,2\n", "line 3"),
        ("n 3 order 1,2,3\n1 | x | 2,3\n", "line 2"),
        ("n three\n", "line 1"),
        ("# header comment\nn 3 order 1,2,z\n", "line 2"),
    ],
    ids=["two-fields", "bad-label", "bad-count", "bad-order"],
)
def test_split_system_malformed_line_names_line(text, line):
    with pytest.raises(ValidationError, match=line):
        parse_split_system(text)


@pytest.mark.parametrize(
    "line",
    ["1 | 1 | 3", "1 | 1,2 | 2,3,4", "1 | 1,2 | 3", "1 | 1,2 | 3,4,5"],
    ids=["one-label-each", "overlap", "missing-label", "label-above-n"],
)
def test_split_line_sides_must_partition(line):
    text = "n 4 order 1,2,3,4\n1 | 1,3,4 | 2\n" + line + "\n"
    with pytest.raises(ValidationError, match="line 3: sides do not partition"):
        parse_split_system(text)


@pytest.mark.parametrize(
    "line, message",
    [
        ("1 | 1 | 2,3,4", r"line 3: split \{1\}\|\{2,3,4\} repeats line 2"),
        ("-1 | 2 | 1,3,4", "line 3: negative weight in '-1 | 2 | 1,3,4'"),
        ("nan | 2 | 1,3,4", "line 3: non-finite weight in 'nan | 2 | 1,3,4'"),
        ("inf | 2 | 1,3,4", "line 3: non-finite weight in 'inf | 2 | 1,3,4'"),
    ],
    ids=["repeated-split", "negative", "nan", "inf"],
)
def test_split_line_weight_and_repeat_name_the_line(line, message):
    # a repeated split was summed into the first, a negative weight raised
    # with no line, and nan surfaced later as a non-finite edge weight
    text = "n 4 order 1,2,3,4\n1 | 1 | 2,3,4\n" + line + "\n"
    with pytest.raises(ValidationError, match=message):
        parse_split_system(text)


def test_negative_split_weight_is_a_validation_error():
    # it was a SizeMismatchError, outside the ValidationError family
    with pytest.raises(ValidationError, match=r"^negative weight for \{1,2\}\|\{3,4\}$"):
        WeightedSplitSystem.of(4, {Split({1, 2}, 4): F(-1)})


def test_split_over_other_leaves_is_refused():
    with pytest.raises(SizeMismatchError, match=r"^split \{1,2\}\|\{3,4\} is not over 1..5$"):
        WeightedSplitSystem.of(5, {Split({1, 2}, 4): F(1)})


@pytest.mark.parametrize(
    "head",
    ["n 4 ordr 1,2,3,4", "n 4 order", "n 4 foo", "n 4 order 1,2,3,4 junk", "n 4 order - -"],
    ids=["misspelt", "no-labels", "no-order-word", "trailing-field", "two-orders"],
)
def test_split_header_is_n_count_with_an_optional_order(head):
    # all but the last were read as a system with no order (the last kept
    # its order and dropped the junk); exterior and invert then asked for
    # an order header
    with pytest.raises(ValidationError, match=f"^line 1: cannot parse '{head}'$"):
        parse_split_system(head + "\n1 | 1 | 2,3,4\n")


@pytest.mark.parametrize("head", ["n", "4 order 1,2,3,4", "count 4"])
def test_split_header_without_n_and_a_count_is_size_mismatch(head):
    with pytest.raises(SizeMismatchError, match="^expected header 'n <count> order <...>'$"):
        parse_split_system(head + "\n1 | 1 | 2,3,4\n")


@pytest.mark.parametrize("head", ["n 4", "n 4 order -", "  n 4   order  -  # no order"])
def test_split_header_without_an_order(head):
    system = parse_split_system(head + "\n1 | 1 | 2,3,4\n")
    assert type(system) is WeightedSplitSystem
    assert system.entries == ((trivial_split(1, 4), F(1)),)


def test_split_system_empty_file():
    with pytest.raises(SizeMismatchError, match="empty"):
        parse_split_system("# nothing\n")


def test_rebuild_superset_fuzz():
    # random interval systems: the spans of their crossing classes nest, so
    # every one rebuilds, and the rebuild displays a superset of its splits
    import random as _random

    rng = _random.Random(2024)
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
        rebuilt = network_from_splits(system)
        assert displayed_splits(rebuilt).splits >= system.splits


def test_crossing_class_sweep_matches_the_pair_loop():
    rng = random.Random(2828)
    for _ in range(5000):
        n = rng.randint(2, 14)
        spans = [
            tuple(sorted((rng.randint(1, n), rng.randint(1, n))))
            for _ in range(rng.randint(0, 20))
        ]
        assert splits._crossing_classes(spans) == crossing_classes_by_pairs(spans)
    # every nontrivial arc of a 40-ring: one class of 740 spans
    ring = [(lo, hi) for lo in range(2, 41) for hi in range(lo + 1, 41) if hi - lo < 38]
    assert splits._crossing_classes(ring) == [list(range(len(ring)))]
    assert crossing_classes_by_pairs(ring) == [list(range(len(ring)))]


def test_every_rebuild_of_the_seeded_corpora_sweeps_as_the_pair_loop(monkeypatch):
    sweep, sizes = splits._crossing_classes, []

    def checked(spans):
        classes = sweep(spans)
        assert classes == crossing_classes_by_pairs(spans)
        sizes.append(len(spans))
        return classes

    monkeypatch.setattr(splits, "_crossing_classes", checked)
    rings = [ring_with_pendants(m) for m in (6, 12, 24)]
    for net in [*scan_networks(seed=35, count=40, n_range=(4, 24)), *rings]:
        level = classify(net).level
        if level is not None and level <= 1:
            system = resistance_split_system_direct(net)
            network_from_splits(system)
            invert_to_network(system)
        for d in (resistance_vector(net), min_path_vector(net)):
            # exact search rebuilds the order's splits when an order exists
            if find_kalmanson_order(d, "heuristic").found:
                find_kalmanson_order(d, "exact")
    assert len(sizes) >= 150 and max(sizes) >= 200


def test_separating_splits_come_from_pairwise_circuit_displays():
    # splits separating i and j are exactly those displayed by a bridge on
    # the block path or by a circuit-parallel pair of cycle edges (one edge
    # on each branch of a traversed cycle)
    from phylocircuit.netgraph import CYCLE, BRIDGE, cycle_node_sequence, edge_key
    from phylocircuit.netgraph import block_path

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


def _assert_catalog_is_cut_catalog(net):
    try:
        oracle = cut_catalog(net)
    except NotOneNestedError:
        with pytest.raises(NotOneNestedError):
            display_catalog(net)
        return
    catalog = display_catalog(net)
    assert catalog == oracle
    # same display order, which the float sums of rw and invert follow
    assert list(catalog.items()) == list(oracle.items())


@pytest.mark.parametrize(
    "net",
    [star(5), two_leaf_edge(), quartet_tree(), square_with_pendants(),
     ring_with_pendants(6), triangle_with_leaves(), two_cycles_with_bridge(),
     k33_with_leaves()],
    ids=["star", "two-leaf", "quartet", "square", "ring6", "triangle",
         "two-cycles", "k33"],
)
def test_display_catalog_is_cut_catalog_on_fixtures(net):
    _assert_catalog_is_cut_catalog(net)


def test_display_catalog_is_cut_catalog_on_scan_networks():
    for net in scan_networks(seed=47, count=12):
        _assert_catalog_is_cut_catalog(net)


def test_display_catalog_is_cut_catalog_on_seeded_networks():
    rng = random.Random(4040)
    for k in range(200):
        net = random_one_nested(rng.randint(2, 40), rng, binary=k % 2 == 0)
        _assert_catalog_is_cut_catalog(net)
