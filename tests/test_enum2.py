import hashlib
import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest

from phylocircuit.enum2 import (
    _chordable_bases,
    _shape_code,
    _unlabeled_classes,
    _valid_chord_slots,
    add_heavy_chord,
    enumerate_binary_two_nested,
    skeleton_census,
    two_nested_breakdown,
)
from phylocircuit.errors import BadChordError, NoCycleError, OutOfRangeError
from phylocircuit.metrics import min_path_vector, resistance_vector
from phylocircuit.netgraph import (
    CYCLE,
    THETA,
    PhyloNetwork,
    classify,
    cycle_node_sequence,
    is_binary,
    network_to_text,
)
from phylocircuit.randomnet import random_one_nested
from phylocircuit.reconstruct import min_path_split_system

from fixtures import (
    quartet_tree,
    ring_with_pendants,
    shape_code_reading_every_root,
    square_with_pendants,
)

F = Fraction


def test_count_four_leaves():
    nets = enumerate_binary_two_nested(4)
    assert len(nets) == 6


def test_count_five_leaves():
    assert len(enumerate_binary_two_nested(5)) == 120


def test_count_six_leaves():
    assert len(enumerate_binary_two_nested(6)) == 2790


def test_breakdown_matches_published_terms():
    bd = two_nested_breakdown(6)
    assert bd.total == 2790
    assert sorted((c for _, c in bd.rows), reverse=True) == [900, 720, 540, 360, 180, 90]
    assert two_nested_breakdown(5).total == 120
    assert sorted(c for _, c in two_nested_breakdown(5).rows) == [60, 60]
    assert two_nested_breakdown(4).total == 6


def test_skeleton_census():
    assert skeleton_census(4) == 1
    assert skeleton_census(5) == 2
    assert skeleton_census(6) == 6


def test_census_counts_breakdown_rows():
    for n in (4, 5, 6):
        assert skeleton_census(n) == len(two_nested_breakdown(n).rows)
        assert skeleton_census(n) == len(_unlabeled_classes(_chordable_bases(n)))


def test_breakdown_counts_match_chord_slot_walk():
    # the closed form per base, prod over cycles of (m(m-3)/2 + 1) - 1,
    # against walking each ring and listing its chord slots
    for n in (4, 5, 6):
        bases = _chordable_bases(n)
        rows = []
        for idx, group in enumerate(_unlabeled_classes(bases)):
            count = 0
            for i in group:
                choices = 1
                for block in classify(bases[i]).blocks.of_kind(CYCLE):
                    choices *= len(_valid_chord_slots(len(cycle_node_sequence(block)))) + 1
                count += choices - 1
            rows.append((idx, count))
        rows.sort(key=lambda t: (-t[1], t[0]))
        assert two_nested_breakdown(n).rows == tuple(rows)


# ---------------------------------------------------------------------------
# skeleton grouping, against networkx's isomorphism test


def _graph(net: PhyloNetwork) -> nx.Graph:
    g = nx.Graph()
    g.add_edges_from((u, v) for u, v, _ in net.edge_items)
    return g


def _relabeled(net: PhyloNetwork, rng: random.Random) -> PhyloNetwork:
    """The same graph with shuffled node names and leaf labels."""
    names = [f"q{i}" for i in range(len(net.nodes))]
    rng.shuffle(names)
    rename = dict(zip(net.nodes, names))
    labels = list(net.leaves)
    rng.shuffle(labels)
    leaves = {lab: rename[node] for lab, node in zip(labels, net.leaves.values())}
    edges = [(rename[u], rename[v], w) for u, v, w in net.edge_items]
    return PhyloNetwork.build(leaves, edges, strict=True)


def _seeded_networks() -> list[PhyloNetwork]:
    """Binary and non-binary level-1 networks: many at n = 4..7, so that
    some are isomorphic, and a few up to n = 16."""
    return [
        random_one_nested(4 + s % (4 if s < 24 else 13), random.Random(s), binary=s % 2 == 0)
        for s in range(48)
    ]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_unlabeled_classes_match_isomorphism(n):
    bases = _chordable_bases(n)
    graphs = [_graph(b) for b in bases]
    want: list[list[int]] = []
    for i, g in enumerate(graphs):
        for group in want:
            if nx.is_isomorphic(graphs[group[0]], g):
                group.append(i)
                break
        else:
            want.append([i])
    assert _unlabeled_classes(bases) == want


def test_shape_code_ignores_names_and_labels():
    rng = random.Random(13)
    for net in _seeded_networks():
        code = _shape_code(net)
        for _ in range(3):
            assert _shape_code(_relabeled(net, rng)) == code


def test_shape_codes_equal_exactly_when_isomorphic():
    nets = _seeded_networks()
    codes = [_shape_code(net) for net in nets]
    graphs = [_graph(net) for net in nets]
    same = 0
    for i, j in itertools.combinations(range(len(nets)), 2):
        assert (codes[i] == codes[j]) == nx.is_isomorphic(graphs[i], graphs[j]), (i, j)
        same += codes[i] == codes[j]
    assert 0 < same < len(nets) * (len(nets) - 1) // 2


def test_shape_code_matches_reading_every_root():
    nets = _seeded_networks() + [b for n in (4, 5, 6) for b in _chordable_bases(n)]
    for net in nets:
        assert _shape_code(net) == shape_code_reading_every_root(net)


def test_two_nested_enumeration_text_golden():
    # a digest of every network's text pins the enumeration's order, node
    # names and weights
    digest = hashlib.sha256()
    count = 0
    for n in range(4, 7):
        for net in enumerate_binary_two_nested(n):
            digest.update(network_to_text(net).encode())
            count += 1
    assert count == 6 + 120 + 2790
    assert digest.hexdigest() == (
        "d416fbab8fdd96c87ec844f7acb9399f83ba1033cf62a10aac4153788b0828f5"
    )


def test_enumerated_networks_classify_level_two():
    nets = enumerate_binary_two_nested(4)
    for net in nets:
        cls = classify(net)
        assert cls.level == 2
        assert cls.triangle_free
        assert is_binary(net)
        assert cls.blocks.of_kind(THETA)


def test_enumeration_out_of_range():
    with pytest.raises(OutOfRangeError):
        enumerate_binary_two_nested(7)


# ---------------------------------------------------------------------------
# heavy chords


def test_heavy_chord_preserves_min_path_exactly():
    net = square_with_pendants()
    chorded = add_heavy_chord(net, 0, ("c1", "c3"), F(100))
    assert classify(chorded).level == 2
    assert min_path_vector(chorded) == min_path_vector(net)


def test_heavy_chord_preserves_decomposition():
    net = ring_with_pendants(5, cycle_weights=[F(2), F(1), F(3), F(1), F(2)])
    chorded = add_heavy_chord(net, 0, ("c1", "c3"), F(1000))
    assert min_path_split_system(chorded).same_weighted_splits(
        min_path_split_system(net)
    )


def test_light_chord_rejected():
    net = square_with_pendants()
    with pytest.raises(BadChordError):
        add_heavy_chord(net, 0, ("c1", "c3"), F(1, 10))


def test_light_chord_would_change_distances():
    # the precondition is not vacuous: a light chord does alter the metric
    net = square_with_pendants(cycle_weights=[F(4), F(4), F(4), F(4)])
    edges = list(net.edge_items) + [("c1", "c3", F(1, 10))]
    from phylocircuit.netgraph import PhyloNetwork

    cheat = PhyloNetwork.build(net.leaves, edges, strict=True)
    assert min_path_vector(cheat) != min_path_vector(net)


def test_adjacent_chord_rejected():
    net = square_with_pendants()
    with pytest.raises(BadChordError):
        add_heavy_chord(net, 0, ("c1", "c2"), F(100))


def test_tree_input_has_no_cycle():
    with pytest.raises(NoCycleError):
        add_heavy_chord(quartet_tree(), 0, ("a", "b"), F(100))


def test_two_nested_resistance_often_kalmanson():
    # conjecture evidence, asserted only on a fixed chorded square
    from phylocircuit.metrics import find_kalmanson_order

    net = square_with_pendants()
    chorded = add_heavy_chord(net, 0, ("c1", "c3"), F(100))
    d = resistance_vector(chorded)
    result = find_kalmanson_order(d, mode="exact")
    assert result.found


def test_chorded_square_resistance_matches_some_one_nested():
    # a 1-nested network with the same resistance vector exists
    from phylocircuit.metrics import find_kalmanson_order
    from phylocircuit.reconstruct import circular_decomposition, invert_to_network

    chorded = add_heavy_chord(square_with_pendants(), 0, ("c1", "c3"), F(100))
    d = resistance_vector(chorded)
    order = find_kalmanson_order(d, mode="exact").order
    dec = circular_decomposition(d, order)
    assert dec.residual == 0
    witness = invert_to_network(dec.system)
    assert classify(witness).level in (0, 1)
    got = resistance_vector(witness)
    for a, b in zip(got.values, d.values):
        if isinstance(a, F) and isinstance(b, F):
            assert a == b
        else:
            assert abs(float(a) - float(b)) <= 1e-9
