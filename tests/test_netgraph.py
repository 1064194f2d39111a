import random
from fractions import Fraction

import pytest

from phylocircuit import netgraph
from phylocircuit.errors import (
    BadLeafDegreeError,
    DegenerateWeightsError,
    DisconnectedError,
    InternalDegreeTooLowError,
    MultiEdgeError,
    NegativeWeightError,
    NotATriangleError,
    NotOneNestedError,
    ValidationError,
)
from phylocircuit.netgraph import (
    BRIDGE,
    CYCLE,
    THETA,
    CircularOrder,
    block_decomposition,
    block_path,
    bridges,
    canonical_order,
    classify,
    consistent_orders,
    is_binary,
    parse_network,
    smooth_degree_two,
    validate,
    wye_delta,
)
from phylocircuit.randomnet import random_one_nested

from fixtures import (
    k33_with_leaves,
    quartet_tree,
    ring_with_pendants,
    square_with_pendants,
    star,
    triangle_with_leaves,
    two_cycles_with_bridge,
    two_leaf_edge,
)

F = Fraction


# ---------------------------------------------------------------------------
# validation


def test_validate_star_ok():
    net = star(4)
    assert net.n == 4
    assert net.degree("hub") == 4


def test_validate_rejects_degree_two_interior():
    with pytest.raises(InternalDegreeTooLowError):
        validate(
            {1: "x1", 2: "x2"},
            [("x1", "a", F(1)), ("a", "b", F(1)), ("b", "x2", F(1))],
        )


def test_validate_square_cycle_is_one_nested():
    net = square_with_pendants()
    cls = classify(net)
    assert cls.level == 1
    assert cls.triangle_free


def test_validate_rejects_multi_edge_and_loop():
    with pytest.raises(MultiEdgeError):
        validate({1: "x1", 2: "x2"}, [("x1", "x2", F(1)), ("x2", "x1", F(2))])
    with pytest.raises(MultiEdgeError):
        validate({1: "x1", 2: "x2"}, [("x1", "x2", F(1)), ("a", "a", F(1))])


def test_validate_rejects_disconnected():
    with pytest.raises(DisconnectedError):
        validate(
            {1: "x1", 2: "x2", 3: "x3", 4: "x4"},
            [("x1", "x2", F(1)), ("x3", "x4", F(1))],
        )


def test_validate_rejects_negative_weight():
    with pytest.raises(NegativeWeightError):
        validate({1: "x1", 2: "x2"}, [("x1", "x2", F(-1))])


def test_validate_rejects_labeled_internal_node():
    with pytest.raises(BadLeafDegreeError):
        validate(
            {1: "x1", 2: "x2", 3: "a"},
            [("x1", "a", F(1)), ("x2", "a", F(1)), ("a", "b", F(1))],
        )


# ---------------------------------------------------------------------------
# classification


def test_classify_quartet_tree():
    cls = classify(quartet_tree())
    assert cls.level == 0
    assert cls.triangle_free
    assert all(b.kind == BRIDGE for b in cls.blocks.blocks)


def test_classify_k33_higher():
    cls = classify(k33_with_leaves())
    assert cls.level is None
    assert cls.level_name == "higher"


def test_classify_theta_block():
    # square cycle plus a chord through two subdivision points
    edges = [
        ("c1", "m1", F(1)),
        ("m1", "c2", F(1)),
        ("c2", "c3", F(1)),
        ("c3", "m2", F(1)),
        ("m2", "c4", F(1)),
        ("c4", "c1", F(1)),
        ("m1", "m2", F(1)),
    ]
    for i in range(1, 5):
        edges.append((f"x{i}", f"c{i}", F(1)))
    net = validate({i: f"x{i}" for i in range(1, 5)}, edges)
    cls = classify(net)
    assert cls.level == 2
    assert cls.triangle_free
    kinds = sorted(b.kind for b in cls.blocks.blocks)
    assert kinds.count(THETA) == 1


def test_classify_triangle_flagged_not_rejected():
    cls = classify(triangle_with_leaves())
    assert cls.level == 1
    assert not cls.triangle_free


def test_levels_are_monotone():
    rng = random.Random(7)
    for _ in range(20):
        net = random_one_nested(rng.randint(4, 7), rng)
        level = classify(net).level
        assert level in (0, 1)


# ---------------------------------------------------------------------------
# bridges


def test_bridges_quartet():
    b = bridges(quartet_tree())
    assert len(b.trivial) == 4
    assert len(b.nontrivial) == 1
    assert b.k == 1


def test_bridges_square():
    b = bridges(square_with_pendants())
    assert len(b.trivial) == 4
    assert len(b.nontrivial) == 0


def test_bridges_two_cycles_fixture():
    assert bridges(two_cycles_with_bridge()).k == 1


# ---------------------------------------------------------------------------
# circular orders


def test_circular_order_canonical_under_rotation_reflection():
    a = CircularOrder((3, 4, 1, 2))
    b = CircularOrder((1, 2, 3, 4))
    c = CircularOrder((1, 4, 3, 2))
    assert a == b == c
    assert b.labels[0] == 1 and b.labels[1] <= b.labels[-1]


def test_consistent_orders_quartet():
    orders = consistent_orders(quartet_tree())
    assert orders == {CircularOrder((1, 2, 3, 4)), CircularOrder((1, 2, 4, 3))}


def test_consistent_orders_square():
    assert consistent_orders(square_with_pendants()) == {CircularOrder((1, 2, 3, 4))}


def test_consistent_orders_five_star():
    assert len(consistent_orders(star(5))) == 12


def test_consistent_orders_two_leaves():
    assert consistent_orders(two_leaf_edge()) == {CircularOrder((1, 2))}


def test_consistent_orders_requires_one_nested():
    with pytest.raises(NotOneNestedError):
        consistent_orders(k33_with_leaves())


def test_consistent_orders_binary_count_is_power_of_two():
    rng = random.Random(11)
    for _ in range(10):
        net = random_one_nested(rng.randint(4, 7), rng, binary=True)
        k = bridges(net).k
        assert len(consistent_orders(net)) == 2 ** k


def test_consistent_orders_match_split_contiguity_oracle():
    # independent characterization: an order is consistent iff every
    # displayed split has contiguous sides
    from phylocircuit.splits import displayed_splits, is_circular
    from phylocircuit.metrics import _canonical_orders

    rng = random.Random(23)
    for _ in range(12):
        net = random_one_nested(rng.randint(4, 6), rng)
        sigma = displayed_splits(net)
        expected = {
            o for o in _canonical_orders(net.n) if is_circular(sigma, o)
        }
        assert consistent_orders(net) == expected


def _least_consistent_order(net):
    return min(consistent_orders(net), key=lambda o: o.labels)


def test_canonical_order_is_least_consistent_order():
    rng = random.Random(2026)
    for k in range(120):
        net = random_one_nested(2 + k % 13, rng, binary=k % 2 == 0)
        assert canonical_order(net) == _least_consistent_order(net)


@pytest.mark.parametrize(
    "net",
    [star(5), two_leaf_edge(), quartet_tree(), square_with_pendants(),
     two_cycles_with_bridge()],
    ids=["star", "two-leaf", "quartet", "square", "two-cycles"],
)
def test_canonical_order_on_fixtures(net):
    assert canonical_order(net) == _least_consistent_order(net)


def test_canonical_order_requires_one_nested():
    with pytest.raises(NotOneNestedError):
        canonical_order(k33_with_leaves())


def test_block_decomposition_is_cached():
    net = two_cycles_with_bridge()
    assert block_decomposition(net) is block_decomposition(net)


def test_block_path_runs_from_first_leaf_to_second():
    net = two_cycles_with_bridge()
    path = block_path(net, 1, 6)  # hexagon leaf to quad leaf
    assert [b.kind for b in path] == [BRIDGE, CYCLE, BRIDGE, CYCLE, BRIDGE]
    assert net.leaves[1] in path[0].nodes and net.leaves[6] in path[-1].nodes


# ---------------------------------------------------------------------------
# wye-delta


def test_triangle_to_star_unit_example():
    net = triangle_with_leaves(tri=[F(3), F(3), F(3)])
    out = wye_delta(net, ("t1", "t2", "t3"))
    center = [v for v in out.nodes if v.startswith("yd")][0]
    assert out.weight("t1", center) == 1
    assert out.weight("t2", center) == 1
    assert out.weight("t3", center) == 1


def test_star_to_triangle_unit_arms():
    net = star(3)
    out = wye_delta(net, "hub")
    assert out.weight("x1", "x2") == 3
    assert out.weight("x2", "x3") == 3
    assert out.weight("x1", "x3") == 3


def test_wye_delta_round_trip():
    net = triangle_with_leaves(tri=[F(2), F(5), F(7, 2)])
    star_image = wye_delta(net, ("t1", "t2", "t3"))
    center = [v for v in star_image.nodes if v.startswith("yd")][0]
    back = wye_delta(star_image, center)
    assert back.edges == net.edges


def test_wye_delta_rejects_non_triangle():
    with pytest.raises(NotATriangleError):
        wye_delta(quartet_tree(), ("a", "b", "x1"))


def test_wye_delta_rejects_zero_total():
    net = PhyloNetwork_with_zero_triangle()
    with pytest.raises(DegenerateWeightsError):
        wye_delta(net, ("t1", "t2", "t3"))


def PhyloNetwork_with_zero_triangle():
    from phylocircuit.netgraph import PhyloNetwork

    edges = [
        ("t1", "t2", F(0)),
        ("t2", "t3", F(0)),
        ("t3", "t1", F(0)),
        ("x1", "t1", F(1)),
        ("x2", "t2", F(1)),
        ("x3", "t3", F(1)),
    ]
    return PhyloNetwork.build({1: "x1", 2: "x2", 3: "x3"}, edges, strict=False)


def test_wye_delta_preserves_resistance_everywhere_off_site():
    from phylocircuit.metrics import resistance_between_nodes

    net = triangle_with_leaves(tri=[F(2), F(3), F(4)], pend=[F(1), F(2), F(1), F(3)])
    out = wye_delta(net, ("t1", "t2", "t3"))
    shared = sorted(set(net.nodes) & set(out.nodes))
    pairs = [(u, v) for i, u in enumerate(shared) for v in shared[i + 1 :]]
    before = resistance_between_nodes(net, pairs)
    after = resistance_between_nodes(out, pairs)
    assert before == after


# ---------------------------------------------------------------------------
# binary check, surgery, serialization


def test_is_binary():
    assert is_binary(quartet_tree())
    assert is_binary(square_with_pendants())
    assert not is_binary(star(5))


def test_smooth_degree_two_merges_series():
    net = square_with_pendants()
    opened = net.without_edge("c1", "c2", smooth=False)
    smoothed = smooth_degree_two(opened)
    assert classify(smoothed).level == 0
    assert smoothed.n == 4


def test_network_text_round_trip():
    net = square_with_pendants(cycle_weights=[F(1), F(2), F(3, 2), F(7)])
    text = netgraph.network_to_text(net)
    again = parse_network(text)
    assert again.edges == net.edges
    assert again.leaves == net.leaves


def test_network_json_round_trip():
    net = quartet_tree(w_inner=F(5, 3))
    text = netgraph.network_to_json(net)
    again = parse_network(text)
    assert again.edges == net.edges


def test_parse_decimal_weight_is_float():
    net = parse_network(
        "leaf 1 x1\nleaf 2 x2\nedge x1 x2 2.5\n"
    )
    assert isinstance(net.weight("x1", "x2"), float)
    assert not net.is_exact


def test_parse_bad_leaf_label_names_line():
    with pytest.raises(ValidationError, match="line 2"):
        parse_network("leaf 2 x2\nleaf one x1\nedge x1 x2 1\n")


@pytest.mark.parametrize(
    "text",
    [
        "leaf 1 x1\nleaf 2 x2\nedge x1 x2 nan\n",
        '{"leaves": {"1": "x1", "2": "x2"}, "edges": [["x1", "x2", NaN]]}',
    ],
    ids=["text", "json"],
)
def test_parse_rejects_nan_weight(text):
    with pytest.raises(ValidationError, match="non-finite"):
        parse_network(text)


@pytest.mark.parametrize(
    "text",
    [
        "leaf 1 x1\nleaf 2 x2\nleaf 3 x3\n"
        "edge x1 h inf\nedge x2 h 1\nedge x3 h 1\n",
        '{"leaves": {"1": "x1", "2": "x2"}, "edges": [["x1", "x2", "inf"]]}',
    ],
    ids=["text", "json"],
)
def test_parse_rejects_infinite_weight(text):
    with pytest.raises(ValidationError, match="non-finite"):
        parse_network(text)


def test_ring_with_five_pendants_orders():
    net = ring_with_pendants(5)
    assert consistent_orders(net) == {CircularOrder((1, 2, 3, 4, 5))}
