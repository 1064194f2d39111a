"""One relative float tolerance: verdicts that do not depend on the units.

``rational.REL_TOL`` is the only tolerance the library sets.  Floats
compare within REL_TOL times the largest |value| in play, so scaling every
weight or distance by the same factor leaves every verdict, split set,
rebuilt network and argmin as it was.
"""

import io
import random
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

import phylocircuit
from phylocircuit.errors import PhyloCircuitError, ValidationError
from phylocircuit.metrics import (
    DistanceVector,
    find_kalmanson_order,
    is_kalmanson,
    min_path_vector,
    resistance_vector,
)
from phylocircuit.netgraph import CircularOrder, PhyloNetwork, bridges, canonical_order, classify
from phylocircuit.polytope import minimize_over_vertices
from phylocircuit.randomnet import random_one_nested
from phylocircuit.rational import REL_TOL, tolerance, values_close
from phylocircuit.reconstruct import (
    circular_decomposition,
    invert_to_network,
    resistance_split_system_direct,
)

from fixtures import k33_with_leaves, shuffled_order, with_chord

F = Fraction

SCALES = (1e-12, 1e-9, 1e-3, 1e4, 1e9, 1e12)


def _scaled_vector(d: DistanceVector, scale: float) -> DistanceVector:
    return DistanceVector(d.n, tuple(float(v) * scale for v in d.values))


def _scaled_network(net: PhyloNetwork, scale: float) -> PhyloNetwork:
    edges = [(u, v, float(w) * scale) for u, v, w in net.edge_items]
    return PhyloNetwork.build(net.leaves, edges, strict=True)


# ---------------------------------------------------------------------------
# the policy


def test_float_literals_with_negative_exponents_live_in_rational():
    # a hard-coded tolerance elsewhere would bring back a second, unit-bound
    # policy; docstrings and comments are not NUMBER tokens, so they may
    # still quote one
    found = []
    for path in sorted(Path(phylocircuit.__file__).parent.glob("*.py")):
        if path.name == "rational.py":
            continue
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        for tok in tokens:
            if tok.type == tokenize.NUMBER and "e-" in tok.string.lower():
                found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not found


def test_tolerance_is_relative_to_the_largest_magnitude():
    assert tolerance((1.0, -4.0, 2.0)) == REL_TOL * 4.0
    assert tolerance((F(3, 2), 0.5)) == REL_TOL * 1.5
    assert tolerance(()) == 0
    assert values_close(1e-12, 1e-12 * (1 + REL_TOL / 2))
    assert not values_close(1e-12, 1.001e-12)
    assert values_close(1e12, 1e12 + 1.0)
    assert not values_close(0.0, 1e-300)
    # Fractions compare exactly, and an explicit tol is absolute
    assert not values_close(F(1), F(1) + F(1, 10**30))
    assert values_close(1.0, 1.5, tol=0.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_tolerance_refuses_non_finite_values(bad):
    with pytest.raises(ValidationError, match=f"non-finite value {bad} at index 2"):
        tolerance((1.0, 2.0, bad, float("nan")))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_vectors_are_errors(bad):
    # one NaN passed the check on (1,2,3,4) and decomposed with a NaN
    # residual, and one inf sent the heuristic search to an order; under a
    # relative tolerance either would pass every comparison
    d = DistanceVector(4, (1.0, 2.0, bad, 2.0, 1.0, 1.0))
    order = CircularOrder((1, 2, 3, 4))
    for tol in (None, 0.5):
        for check in (
            lambda: is_kalmanson(d, order, tol),
            lambda: find_kalmanson_order(d, "exact", tol),
            lambda: find_kalmanson_order(d, "heuristic", tol),
            lambda: circular_decomposition(d, order, tol),
        ):
            with pytest.raises(ValidationError, match="non-finite value"):
                check()
    with pytest.raises(ValidationError, match="non-finite value"):
        minimize_over_vertices(d, 4, 0)


# ---------------------------------------------------------------------------
# cases an absolute tolerance got wrong


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e9, 1e12])
def test_k33_has_no_kalmanson_order_at_any_scale(scale):
    d = _scaled_vector(resistance_vector(k33_with_leaves()), scale)
    for mode in ("exact", "heuristic"):
        result = find_kalmanson_order(d, mode)
        assert not result.found, (mode, result.order)
        assert result.best_violation > 0


@pytest.mark.parametrize("scale", [1e5, 1e6, 1e9])
@pytest.mark.parametrize("n", [10, 32])
def test_level_one_vectors_pass_their_canonical_order_at_large_scales(scale, n):
    fails = []
    for seed in range(30):
        net = random_one_nested(n, random.Random(seed))
        d = _scaled_vector(resistance_vector(net), 1.37 * scale)
        if not is_kalmanson(d, canonical_order(net)).passed:
            fails.append(seed)
    assert fails == []


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e6, 1e12])
def test_bme_argmin_equals_exact_argmin_at_any_scale(scale):
    for seed in range(40):
        rng = random.Random(seed)
        d = resistance_vector(random_one_nested(6, rng, binary=rng.random() < 0.5))
        k = seed % 4
        want = minimize_over_vertices(d, 6, k).argmin
        assert minimize_over_vertices(_scaled_vector(d, scale), 6, k).argmin == want, seed


# ---------------------------------------------------------------------------
# scale invariance at levels 1 and 2


def _outcome(call):
    try:
        return call()
    except PhyloCircuitError as exc:
        return type(exc).__name__


def _scale_corpus():
    """Seeded level-1 networks with n = 4..32 and their chorded level-2
    versions, each with its base's canonical order and a shuffled one."""
    rng = random.Random(2024)
    for _ in range(12):
        base = random_one_nested(rng.randint(4, 32), rng, binary=rng.random() < 0.5)
        orders = (canonical_order(base), shuffled_order(base.n, rng))
        yield base, orders
        chorded = with_chord(base, rng)
        if chorded is not None:
            yield chorded, orders


def _float_answers(net, orders):
    """What the float pipeline says of ``net``: per metric the Kalmanson
    verdicts on ``orders``, the heuristic search's verdict and count, and
    the split set of the decomposition on the first order (or its error);
    for a level-1 network also the inverted network's edges."""
    answers = []
    for metric in (resistance_vector, min_path_vector):
        d = metric(net)
        search = find_kalmanson_order(d, "heuristic")
        if search.found:
            assert is_kalmanson(d, search.order).passed
        answers += [
            tuple(is_kalmanson(d, order).passed for order in orders),
            (search.found, search.orders_checked),
            _outcome(lambda: circular_decomposition(d, orders[0]).system.splits),
        ]
    inverted = None
    if classify(net).level <= 1:
        inverted = invert_to_network(resistance_split_system_direct(net)).edges
    return answers, inverted


def test_float_answers_do_not_depend_on_the_units():
    seen = {"levels": set(), "kalmanson": 0, "not kalmanson": 0}
    for net, orders in _scale_corpus():
        seen["levels"].add(classify(net).level)
        want, want_net = _float_answers(_scaled_network(net, 1.0), orders)
        seen["kalmanson" if all(want[0]) else "not kalmanson"] += 1
        for scale in SCALES:
            got, got_net = _float_answers(_scaled_network(net, scale), orders)
            assert got == want, (net.n, scale)
            if want_net is None:
                continue
            assert got_net.keys() == want_net.keys()
            top = max(want_net.values())
            for edge, w in want_net.items():
                assert abs(got_net[edge] / scale - w) <= 1e-9 * top, (net.n, scale, edge)
    assert {1, 2} <= seen["levels"]
    assert min(seen["kalmanson"], seen["not kalmanson"]) > 0


def test_exact_heuristic_orders_do_not_depend_on_the_units():
    # on exact input NeighborNet's choices are integer comparisons, which a
    # common factor cannot move; float input can break an exact tie in Q
    # either way, so there only the verdict is unit-free
    for net, _ in _scale_corpus():
        for metric in (resistance_vector, min_path_vector):
            d = metric(net)
            want = find_kalmanson_order(d, "heuristic")
            for scale in (F(1, 10**12), F(1, 1000), F(10**9)):
                scaled = DistanceVector(d.n, tuple(v * scale for v in d.values))
                assert find_kalmanson_order(scaled, "heuristic") == want


def test_bme_argmin_does_not_depend_on_the_units():
    rng = random.Random(2025)
    for _ in range(12):
        n = rng.randint(4, 6)
        net = random_one_nested(n, rng, binary=rng.random() < 0.5)
        k = min(bridges(net).k, n - 3)
        d = resistance_vector(net)
        want = minimize_over_vertices(d, n, k).argmin
        for scale in (1.0,) + SCALES:
            got = minimize_over_vertices(resistance_vector(_scaled_network(net, scale)), n, k)
            assert got.argmin == want, (n, k, scale)
