import math
import random
from fractions import Fraction

import pytest

from phylocircuit import netgraph, splits
from phylocircuit.errors import (
    BadLeafDegreeError,
    BadLeafLabelError,
    DegenerateWeightsError,
    DisconnectedError,
    InternalDegreeTooLowError,
    MultiEdgeError,
    NegativeWeightError,
    NotADegreeThreeNodeError,
    NotATriangleError,
    NotOneNestedError,
    OutOfRangeError,
    SizeMismatchError,
    ValidationError,
)
from phylocircuit.netgraph import (
    BRIDGE,
    CYCLE,
    OTHER,
    THETA,
    CircularOrder,
    PhyloNetwork,
    block_decomposition,
    block_path,
    bridges,
    canonical_order,
    classify,
    consistent_orders,
    cycle_node_sequence,
    is_binary,
    parse_network,
    validate,
    wye_delta,
)
from phylocircuit.randomnet import random_one_nested

from fixtures import (
    biconnected_by_sorted_dfs,
    block_oracle_networks,
    blocks_by_edge_lists,
    canonical_orders,
    k33_with_leaves,
    quartet_tree,
    resistance_between_nodes,
    ring_walk_sorting_each_step,
    ring_with_pendants,
    smooth_degree_two,
    square_with_pendants,
    star,
    triangle_with_leaves,
    two_cycles_with_bridge,
    two_leaf_edge,
    without_edge,
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


_PAIR = {1: "x1", 2: "x2"}


@pytest.mark.parametrize(
    "edges, error, message",
    [
        ([("a", "a", F(1)), ("x1", "x2", F(1))], MultiEdgeError, "self-loop at a"),
        ([("x1", "x2", F(-1)), ("x2", "x2", F(1))], NegativeWeightError,
         "edge x1-x2 has weight -1"),
        ([("x2", "x2", F(-1))], MultiEdgeError, "self-loop at x2"),
        ([("x1", "x2", F(1)), ("x1", "x2", F(2))], MultiEdgeError, "duplicate edge x1-x2"),
        ([("x1", "x2", F(1)), ("x2", "x1", F(-2))], MultiEdgeError, "duplicate edge x2-x1"),
        ([("x2", "x1", -3)], NegativeWeightError, "edge x2-x1 has weight -3"),
        ([("x1", "x2", F(-1, 2))], NegativeWeightError, "edge x1-x2 has weight -1/2"),
        ([("x1", "x2", -0.25)], NegativeWeightError, "edge x1-x2 has weight -0.25"),
        ([("x1", "x2", float("nan"))], ValidationError, "edge x1-x2 has non-finite weight nan"),
        ([("x1", "x2", float("inf"))], ValidationError, "edge x1-x2 has non-finite weight inf"),
        ([("x1", "x2", float("-inf"))], ValidationError,
         "edge x1-x2 has non-finite weight -inf"),
    ],
    ids=["self-loop", "negative-before-loop", "loop-before-weight", "duplicate",
         "duplicate-reversed", "negative-int", "negative-fraction", "negative-float",
         "nan", "inf", "minus-inf"],
)
def test_build_error_table(edges, error, message):
    # each edge is checked in turn: loop, duplicate, finiteness, sign
    with pytest.raises(error) as info:
        PhyloNetwork.build(_PAIR, edges)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize(
    "zero",
    [0, -0, F(0), -F(0), 0.0, -0.0],
    ids=["int", "minus-int", "fraction", "minus-fraction", "float", "minus-float"],
)
def test_build_accepts_zero_of_either_sign(zero):
    net = PhyloNetwork.build(_PAIR, [("x2", "x1", zero)])
    (u, v, w), = net.edge_items
    assert (u, v, w) == ("x1", "x2", 0)
    assert isinstance(w, float) == isinstance(zero, float)


def test_edgeless_leaf_is_a_degree_error_in_both_modes():
    # non-strict mode accepted a lone edgeless leaf as a network and called
    # an edgeless leaf among others disconnected
    with pytest.raises(BadLeafDegreeError, match="labeled node a has degree 0"):
        PhyloNetwork.build({1: "a"}, [], strict=False)
    for strict in (True, False):
        with pytest.raises(BadLeafDegreeError, match="labeled node x3 has degree 0"):
            PhyloNetwork.build({1: "x1", 2: "x2", 3: "x3"}, [("x1", "x2", F(1))], strict=strict)


@pytest.mark.parametrize(
    "leaves, edges, error, message",
    [
        ({1: "x1", 2: "x1"}, [("x1", "x2", F(1))], BadLeafLabelError, "two labels share a node"),
        ({1: "x1", 3: "x2"}, [("x1", "x2", F(1))], BadLeafLabelError,
         r"labels must be 1\.\.n with n >= 2, got \[1, 3\]"),
        ({1: "x1", 2: "x2", 3: "x3"},
         [("x1", "a", F(1)), ("x2", "a", F(1)), ("x3", "a", F(1)), ("a", "b", F(1))],
         BadLeafDegreeError, "degree-1 node b has no label"),
    ],
    ids=["shared-node", "not-one-to-n", "unlabeled-end"],
)
def test_build_rejects_bad_leaves(leaves, edges, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        PhyloNetwork.build(leaves, edges)


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


@pytest.mark.parametrize(
    "reading", [consistent_orders, netgraph.outward_reading, canonical_order],
    ids=["consistent_orders", "outward_reading", "canonical_order"],
)
def test_leaf_one_of_degree_two_is_a_bad_leaf_degree(reading):
    # a non-strict triangle: leaf 1 has two neighbours, which each reading
    # unpacked as one and raised a bare ValueError
    net = PhyloNetwork.build(
        {1: "x1", 2: "x2", 3: "x3"},
        [("x1", "x2", 1), ("x2", "x3", 1), ("x1", "x3", 1)],
        strict=False,
    )
    with pytest.raises(BadLeafDegreeError, match="^labeled node x1 has degree 2$"):
        reading(net)


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

    rng = random.Random(23)
    for _ in range(12):
        net = random_one_nested(rng.randint(4, 6), rng)
        sigma = displayed_splits(net)
        expected = {
            o for o in canonical_orders(net.n) if is_circular(sigma, o)
        }
        assert consistent_orders(net) == expected


def test_consistent_order_count_is_a_product_over_the_blocks():
    # the tails after leaf 1 permute the blocks beyond each internal node
    # and walk each ring either way; each order is counted with its mirror
    rng = random.Random(25)
    checked = 0
    while checked < 200:
        net = random_one_nested(rng.randint(3, 14), rng, binary=False)
        if is_binary(net):
            continue
        decomp = classify(net).blocks
        tails = 2 ** len(decomp.of_kind(CYCLE)) * math.prod(
            math.factorial(len(decomp.blocks_at[v]) - 1)
            for v in net.nodes
            if v not in net.leaf_of_node
        )
        assert 2 * len(consistent_orders(net)) == tails
        checked += 1


def test_consistent_orders_use_no_canonical_reading(monkeypatch):
    # the oracle must stay independent of the routines it is the oracle for
    def forbidden(*args, **kwargs):
        raise AssertionError("consistent_orders used a canonical reading")

    for name in ("outward_reading", "canonical_order"):
        monkeypatch.setattr(netgraph, name, forbidden)
    monkeypatch.setattr(splits, "display_catalog", forbidden)
    assert consistent_orders(quartet_tree()) == {
        CircularOrder((1, 2, 3, 4)), CircularOrder((1, 2, 4, 3))
    }
    assert consistent_orders(square_with_pendants()) == {CircularOrder((1, 2, 3, 4))}
    assert len(consistent_orders(two_cycles_with_bridge())) == 2
    assert consistent_orders(two_leaf_edge()) == {CircularOrder((1, 2))}


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


def test_classify_is_cached():
    net = two_cycles_with_bridge()
    assert classify(net) is classify(net)
    assert classify(net).blocks is block_decomposition(net)


@pytest.fixture(scope="module")
def oracle_networks():
    return block_oracle_networks()


def test_blocks_match_sorted_search_oracle(oracle_networks):
    kinds = set()
    for net in oracle_networks:
        got, want = block_decomposition(net), blocks_by_edge_lists(net)
        # Block equality covers kind, nodes and edges, block by block
        assert got.blocks == want.blocks
        assert got.cut_vertices == want.cut_vertices
        assert got.blocks_at == want.blocks_at
        comps, cuts = biconnected_by_sorted_dfs(net)
        assert {b.edges for b in got.blocks} == set(comps)
        assert got.cut_vertices == cuts
        kinds |= {b.kind for b in got.blocks}
    assert kinds == {BRIDGE, CYCLE, THETA, OTHER}


def test_ring_walks_match_oracle_from_every_start(oracle_networks):
    walks = 0
    for net in oracle_networks:
        for block in block_decomposition(net).of_kind(CYCLE):
            assert cycle_node_sequence(block) == ring_walk_sorting_each_step(block)
            for v in block.nodes:
                ring = cycle_node_sequence(block, start=v)
                assert ring == ring_walk_sorting_each_step(block, start=v)
                walks += 1
    assert walks > 1000


def test_block_path_runs_from_first_leaf_to_second():
    net = two_cycles_with_bridge()
    path = block_path(net, 1, 6)  # hexagon leaf to quad leaf
    assert [b.kind for b in path] == [BRIDGE, CYCLE, BRIDGE, CYCLE, BRIDGE]
    assert net.leaves[1] in path[0].nodes and net.leaves[6] in path[-1].nodes


@pytest.mark.parametrize("i, j, label", [(1, 9, 9), (0, 2, 0), (3, -1, -1)])
def test_block_path_names_a_label_outside_the_leaves(i, j, label):
    net = ring_with_pendants(6)
    with pytest.raises(SizeMismatchError) as info:
        block_path(net, i, j)
    assert str(info.value) == f"no leaf {label} in a network on 1..6"


@pytest.mark.parametrize("n", [1, 0, -3])
def test_random_network_needs_two_leaves(n):
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(OutOfRangeError) as info:
        random_one_nested(n, rng)
    assert str(info.value) == f"a network needs at least 2 leaves, got n={n}"
    assert rng.getstate() == state  # nothing drawn, so seeded streams hold
    assert random_one_nested(2, rng).n == 2


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


def test_star_to_triangle_merges_a_parallel_edge():
    # the center's neighbours a and b are already joined: the new a-b edge
    # goes in parallel with the old one, so the result stays a simple graph
    edges = [("h", "a", F(1)), ("h", "b", F(1)), ("h", "x3", F(1)),
             ("a", "b", F(1)), ("a", "x1", F(1)), ("b", "x2", F(1))]
    net = PhyloNetwork.build({1: "x1", 2: "x2", 3: "x3"}, edges, strict=False)
    out = wye_delta(net, "h")
    assert out.weight("a", "b") == F(3, 4)  # 1 in parallel with 3
    assert out.weight("a", "x3") == out.weight("b", "x3") == 3
    assert len(out.edge_items) == 5
    pairs = [("x1", "x2"), ("x1", "x3"), ("x2", "x3")]
    assert resistance_between_nodes(out, pairs) == resistance_between_nodes(net, pairs)


def test_wye_delta_rejects_non_triangle():
    with pytest.raises(NotATriangleError):
        wye_delta(quartet_tree(), ("a", "b", "x1"))


def test_wye_delta_site_of_one_node_is_its_center():
    assert wye_delta(star(3), ("hub",)) == wye_delta(star(3), "hub")


@pytest.mark.parametrize("site", [(), ("t1", "t2"), ("t1", "t2", "t3", "x1")])
def test_wye_delta_site_of_two_or_four_nodes_is_refused(site):
    net = triangle_with_leaves()
    with pytest.raises(NotATriangleError, match="^site must be 3 nodes or 1 node, got "):
        wye_delta(net, site)


def test_triangle_to_star_center_avoids_existing_names():
    # the triangle's own corner is named yd0, so the new center is yd1
    edges = [("yd0", "t2", F(3)), ("t2", "t3", F(3)), ("t3", "yd0", F(3)),
             ("x1", "yd0", F(1)), ("x2", "t2", F(1)), ("x3", "t3", F(1))]
    net = PhyloNetwork.build({1: "x1", 2: "x2", 3: "x3"}, edges, strict=False)
    out = wye_delta(net, ("yd0", "t2", "t3"))
    assert out.weight("yd0", "yd1") == out.weight("t2", "yd1") == 1


def test_star_to_triangle_needs_an_unlabeled_degree_three_node():
    path = PhyloNetwork.build(
        {1: "x1", 2: "x2"}, [("x1", "a", F(1)), ("a", "x2", F(1))], strict=False
    )
    for net, center in ((star(3), "x1"), (path, "a"), (path, "b")):
        with pytest.raises(NotADegreeThreeNodeError,
                           match=f"^{center} is not an unlabeled degree-3 node$"):
            wye_delta(net, center)


def test_star_to_triangle_refuses_a_zero_arm():
    net = star(3, [F(1), F(0), F(2)])
    with pytest.raises(DegenerateWeightsError, match="^zero arm weight$"):
        wye_delta(net, "hub")


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
    opened = without_edge(net, "c1", "c2", smooth=False)
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


def test_parse_repeated_leaf_label_names_both_lines():
    # the second line used to replace the first, then x9 failed as degree 0
    text = "leaf 1 x1\nleaf 2 x2\nedge x1 x2 1\nleaf 01 x9\n"
    with pytest.raises(ValidationError) as info:
        parse_network(text)
    assert type(info.value) is ValidationError
    assert str(info.value) == "line 4: leaf label 1 repeats line 1"


@pytest.mark.parametrize(
    "leaves, message",
    [
        ('{"1": "x1", "2": "x2", "1": "x9"}', "network JSON repeats the key '1'"),
        ('{"1": "x1", "2": "x2", "01": "x9"}', "leaf label 1 is given twice"),
    ],
    ids=["same-key", "same-label"],
)
def test_parse_json_repeated_leaf_label(leaves, message):
    text = '{"leaves": %s, "edges": [["x1", "x2", "1"]]}' % leaves
    with pytest.raises(ValidationError) as info:
        parse_network(text)
    assert type(info.value) is ValidationError
    assert str(info.value) == message


def test_parse_json_repeated_top_level_key():
    text = ('{"leaves": {"1": "x1", "2": "x2"}, "edges": [["x1", "x2", "1"]],'
            ' "edges": [["x1", "x2", "2"]]}')
    with pytest.raises(ValidationError, match="repeats the key 'edges'"):
        parse_network(text)


def test_parse_bad_leaf_label_names_line():
    with pytest.raises(ValidationError, match="line 2"):
        parse_network("leaf 2 x2\nleaf one x1\nedge x1 x2 1\n")


@pytest.mark.parametrize("line", ["node x1", "leaf 1 x1 x9", "edge x1 x2"])
def test_parse_unknown_line_names_it(line):
    with pytest.raises(ValidationError, match=f"^line 2: cannot parse '{line}'$"):
        parse_network(f"leaf 2 x2\n{line}\nleaf 1 x1\nedge x1 x2 1\n")


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


@pytest.mark.parametrize(
    "text, match",
    [
        ('{"edges": [["x1", "x2", 1]]}', "'leaves' object"),
        ('{"leaves": {"1": "x1", "2": "x2"},\n "edges": [["x1", "x2" 1]]}', "line 2"),
        ('{"leaves": {"1": "x1", "2": "x2"}, "edges": [["x1", "x2"]]}', "malformed"),
    ],
    ids=["no-leaves", "bad-syntax", "short-edge"],
)
def test_parse_malformed_json_network(text, match):
    with pytest.raises(ValidationError, match=match):
        parse_network(text)


def test_ring_with_five_pendants_orders():
    net = ring_with_pendants(5)
    assert consistent_orders(net) == {CircularOrder((1, 2, 3, 4, 5))}
