import hashlib
import random
from fractions import Fraction

import pytest

from phylocircuit.errors import (
    NotOneNestedError,
    OutOfRangeError,
    SizeMismatchError,
    ValidationError,
)
from phylocircuit.metrics import DistanceVector, min_path_vector, resistance_vector
from phylocircuit.netgraph import (
    PhyloNetwork,
    bridges,
    classify,
    is_binary,
    network_to_text,
)
from phylocircuit.polytope import (
    XVector,
    bme_vertices,
    closed_form_count,
    enumerate_binary_one_nested,
    face_minimization_report,
    minimize_over_vertices,
    vertex_catalog,
    vertex_vector,
    vertex_vector_by_orders,
)
from phylocircuit.randomnet import random_one_nested
from phylocircuit.rational import values_close
from phylocircuit.splits import displayed_splits

from fixtures import (
    decomposed_resistance_splits,
    k33_with_leaves,
    quartet_tree,
    ring_with_pendants,
    square_with_pendants,
    star,
    triangle_with_leaves,
    two_cycles_with_bridge,
    two_leaf_edge,
    two_squares_on_one_node,
    with_chord,
)

F = Fraction


# ---------------------------------------------------------------------------
# vertex vectors


def test_quartet_vertex_vector():
    assert vertex_vector(quartet_tree()).entries == (2, 1, 1, 1, 1, 2)


def test_square_vertex_vector():
    assert vertex_vector(square_with_pendants()).entries == (1, 0, 1, 1, 0, 1)


def test_vertex_vector_on_non_binary_star():
    # each pair sits at the 5-way junction: (5-2)! arrangements keep it adjacent
    assert vertex_vector(star(5)) == vertex_vector_by_orders(star(5))
    assert vertex_vector(star(5)).entries == tuple([6] * 10)


def test_general_vector_on_stars():
    assert vertex_vector_by_orders(star(3)).entries == (1, 1, 1)
    assert vertex_vector_by_orders(star(5)).entries == tuple([6] * 10)


def test_vertex_vector_oracle_equivalence_random():
    for n in range(2, 15):
        for s in range(3):
            for binary in (True, False):
                net = random_one_nested(n, random.Random(1000 * n + s), binary=binary)
                assert vertex_vector(net) == vertex_vector_by_orders(net), (n, s, binary)


def test_vertex_vector_oracle_equivalence_fixtures():
    for net in (
        quartet_tree(),
        star(3),
        square_with_pendants(),
        ring_with_pendants(6),
        triangle_with_leaves(),
        two_cycles_with_bridge(),
        two_leaf_edge(),
    ):
        assert vertex_vector(net) == vertex_vector_by_orders(net)


def test_vertex_vector_two_squares_on_one_node():
    # h carries two cycles and nothing else; a ring node with two leaves
    # gives 2! off the path and 1! on it, a cycle 2 off the path
    net = two_squares_on_one_node()
    x = vertex_vector(net)
    assert x == vertex_vector_by_orders(net)
    assert x.value(1, 2) == 2 * 2 * 2 * 2  # a3, b2, both cycles
    assert x.value(1, 3) == 2 * 2 * 2  # a3, b2, the b cycle
    assert x.value(1, 6) == 2 * 2  # a3, b2; both cycles crossed
    assert x.value(2, 4) == 0  # a1 and a3 are not neighbours on their ring


def test_xvector_value_checks_labels_and_is_zero_on_the_diagonal():
    # pair_index alone read x(2,4) for (3, 3) and x(2,3) for (1, 5)
    x = XVector(4, (1, 2, 3, 4, 5, 6))
    assert [x.value(i, i) for i in range(1, 5)] == [0, 0, 0, 0]
    assert (x.value(2, 4), x.value(4, 2), x.value(3, 4)) == (5, 5, 6)
    for i, j, label in [(1, 5, 5), (0, 2, 0), (-1, 3, -1), (6, 6, 6)]:
        with pytest.raises(SizeMismatchError) as info:
            x.value(i, j)
        assert str(info.value) == f"no leaf {label} in a vector on 1..4"
    # nor a label that is not an int: these raised a bare TypeError, read
    # leaf 1 for True, or read the diagonal
    for i, j, label in [(1.5, 2, 1.5), ("1", 2, "1"), (True, 2, True), (2, 2.0, 2.0)]:
        with pytest.raises(SizeMismatchError) as info:
            x.value(i, j)
        assert str(info.value) == f"no leaf {label!r} in a vector on 1..4"


def test_vertex_vector_rejects_level_two():
    net = with_chord(two_cycles_with_bridge(), random.Random(3))
    assert classify(net).level == 2
    with pytest.raises(NotOneNestedError):
        vertex_vector(net)
    with pytest.raises(NotOneNestedError):
        vertex_vector(k33_with_leaves())


def test_vertex_vector_entries_powers_of_two_and_sum():
    rng = random.Random(20)
    for _ in range(15):
        net = random_one_nested(rng.randint(4, 7), rng, binary=True)
        x = vertex_vector(net)
        k = bridges(net).k
        assert x.entry_sum == net.n * 2**k
        for e in x.entries:
            assert e == 0 or (e & (e - 1)) == 0


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize(
    "n,k,count",
    [
        (4, 0, 3),
        (4, 1, 3),
        (5, 0, 12),
        (5, 1, 30),
        (5, 2, 15),
        (6, 0, 60),
        (6, 1, 270),
        (6, 2, 315),
        (6, 3, 105),
    ],
)
def test_enumeration_counts_small(n, k, count):
    assert closed_form_count(n, k) == count
    nets = enumerate_binary_one_nested(n, k)
    assert len(nets) == count


def test_enumeration_counts_seven_leaves():
    for k in range(0, 5):
        nets = enumerate_binary_one_nested(7, k)
        assert len(nets) == closed_form_count(7, k)


def test_enumeration_text_golden():
    # a digest of every network's text pins the enumeration's order, node
    # names and weights
    digest = hashlib.sha256()
    count = 0
    for n in range(4, 8):
        for k in range(n - 2):
            for net in enumerate_binary_one_nested(n, k):
                digest.update(network_to_text(net).encode())
                count += 1
    assert count == 13458
    assert digest.hexdigest() == (
        "ee701a9365b7fde3bcda79212b2f199e5f1d6f6f0ca7d46d91fdc851335d4544"
    )


def test_enumerated_networks_are_valid():
    for net in enumerate_binary_one_nested(5, 1):
        cls = classify(net)
        assert cls.level in (0, 1)
        assert cls.triangle_free
        assert is_binary(net)
        assert bridges(net).k == 1


def test_enumeration_out_of_range():
    with pytest.raises(OutOfRangeError):
        enumerate_binary_one_nested(8, 0)
    with pytest.raises(OutOfRangeError):
        enumerate_binary_one_nested(5, 3)
    # the count itself has no networks to refuse, so it is zero
    assert closed_form_count(5, -1) == closed_form_count(5, 3) == 0


def test_vertices_distinct():
    for n in (4, 5, 6):
        for k in range(0, n - 2):
            nets = enumerate_binary_one_nested(n, k)
            vecs = bme_vertices(n, k)
            assert len(vecs) == len(nets)


# ---------------------------------------------------------------------------
# minimization


def test_vector_sizes_must_agree():
    d = resistance_vector(star(5))
    with pytest.raises(SizeMismatchError, match="^distance vector has n=5, expected 4$"):
        minimize_over_vertices(d, 4, 1)
    with pytest.raises(SizeMismatchError, match="^vector sizes differ$"):
        vertex_vector(quartet_tree()).dot(d)


def _minimum_by_fraction_dots(d, n, k):
    """The minimization as ``XVector.dot`` sums it, one vertex at a time."""
    catalog = vertex_catalog(n, k)
    values = [x.dot(d) for _, x in catalog]
    best = min(values)
    hits = tuple(i for i, v in enumerate(values) if v == best)
    return best, hits, catalog


def _seeded_exact_vectors(n: int, k: int, count: int):
    rng = random.Random(900 + k)
    for t in range(count):
        net = random_one_nested(n, rng, binary=True)
        net = PhyloNetwork.build(
            net.leaves,
            [(u, v, F(rng.randint(1, 40), rng.randint(1, 12))) for u, v, _ in net.edge_items],
        )
        yield resistance_vector(net) if t % 2 else min_path_vector(net)
    # integer vectors tie more often; one with a large common denominator
    yield DistanceVector(n, tuple(F(rng.randint(1, 3)) for _ in range(n * (n - 1) // 2)))
    yield DistanceVector(
        n, tuple(F(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(n * (n - 1) // 2))
    )


@pytest.mark.parametrize("k", range(4))
def test_exact_minimum_equals_fraction_dot_minimum(k):
    n = 6
    for d in _seeded_exact_vectors(n, k, 6):
        best, hits, catalog = _minimum_by_fraction_dots(d, n, k)
        result = minimize_over_vertices(d, n, k)
        assert type(result.value) is Fraction
        assert result.value == best
        assert result.argmin == hits
        assert result.networks == tuple(catalog[i][0] for i in hits)
        assert result.vectors == tuple(catalog[i][1] for i in hits)


@pytest.mark.parametrize("k", range(4))
def test_float_minimum_equals_dot_minimum(k):
    # float vectors, and a Fraction among floats, sum as XVector.dot does
    # and tie within values_close of the least dot product
    n = 6
    for d in _seeded_exact_vectors(n, k, 6):
        for scale in (1.0, 1.37, 1e-3):
            values = [float(v) * scale for v in d.values]
            for vector in (
                DistanceVector(n, tuple(values)),
                DistanceVector(n, (d.values[0] * F(scale), *values[1:])),
            ):
                catalog = vertex_catalog(n, k)
                dots = [x.dot(DistanceVector(n, tuple(map(float, vector.values))))
                        for _, x in catalog]
                best = min(dots)
                hits = tuple(i for i, v in enumerate(dots) if values_close(v, best))
                result = minimize_over_vertices(vector, n, k)
                assert repr(result.value) == repr(best)
                assert result.argmin == hits


def test_binary_network_minimizes_itself():
    rng = random.Random(21)
    for _ in range(8):
        net = random_one_nested(rng.randint(4, 6), rng, binary=True)
        k = bridges(net).k
        d = resistance_vector(net)
        result = minimize_over_vertices(d, net.n, k)
        assert set(result.vectors) == {vertex_vector(net)}


def test_tree_metric_minimized_by_that_tree():
    net = quartet_tree(w_inner=F(2), pend=F(1))
    result = minimize_over_vertices(resistance_vector(net), 4, 1)
    assert set(result.vectors) == {vertex_vector(net)}


def test_nonbinary_argmin_is_refinement_set():
    net = star(5, weights=[F(1), F(2), F(1), F(3), F(2)])
    d = resistance_vector(net)
    result = minimize_over_vertices(d, 5, 2)
    target = displayed_splits(net).splits
    expected = {
        x
        for candidate, x in vertex_catalog(5, 2)
        if displayed_splits(candidate).splits >= target
    }
    assert set(result.vectors) == expected
    assert len(expected) == 15  # every binary tree refines a star


def test_face_report_random_binary():
    rng = random.Random(22)
    for _ in range(5):
        net = random_one_nested(rng.randint(4, 6), rng, binary=True)
        report = face_minimization_report(net, "resistance")
        assert report.argmin_matches_refinements
        assert report.identity_holds
        assert report.identity_lhs == report.identity_rhs


def test_face_report_nonbinary_resistance():
    rng = random.Random(24)
    for _ in range(5):
        net = random_one_nested(rng.randint(4, 6), rng, binary=False)
        report = face_minimization_report(net, "resistance")
        assert report.argmin_matches_refinements
        assert report.identity_holds


def test_face_report_float_identity_independent_of_scale():
    rng = random.Random(25)
    for _ in range(4):
        net = random_one_nested(rng.randint(4, 6), rng)
        for scale in (1e-3, 1.0, 1e4):
            scaled = PhyloNetwork.build(
                net.leaves,
                [(u, v, float(w) * scale) for u, v, w in net.edge_items],
                strict=True,
            )
            report = face_minimization_report(scaled, "resistance")
            assert report.argmin_matches_refinements
            assert report.identity_holds


def test_face_report_minpath_mode():
    rng = random.Random(26)
    for _ in range(4):
        net = random_one_nested(rng.randint(4, 6), rng, binary=True)
        report = face_minimization_report(net, "minpath")
        assert report.argmin_matches_refinements


def test_face_report_unknown_metric_is_a_validation_error():
    with pytest.raises(ValidationError) as info:
        face_minimization_report(quartet_tree(), "x")
    assert str(info.value) == "unknown metric 'x'"


def test_square_cycle_tie_face():
    # equalities produce a face of minimizers, reported in full
    net = square_with_pendants()
    d = resistance_vector(net)
    result = minimize_over_vertices(d, 4, 0)
    assert vertex_vector(net) in set(result.vectors)


def test_rebuilt_class_of_binary_network_is_a_vertex():
    # the unweighted rebuild of the resistance split system of a binary
    # network lands back in the enumerated vertex set for the same (n, k)
    import random as _random
    from phylocircuit.splits import network_from_splits

    rng = _random.Random(29)
    for _ in range(6):
        net = random_one_nested(rng.randint(4, 6), rng, binary=True)
        rebuilt = network_from_splits(
            decomposed_resistance_splits(net)
        )
        k = bridges(rebuilt).k
        assert vertex_vector(rebuilt) in bme_vertices(net.n, k)
        assert vertex_vector(rebuilt) == vertex_vector(net)
