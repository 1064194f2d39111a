"""Counting binary triangle-free 2-nested networks, and heavy chords.

A chorded network is built from a binary triangle-free 1-nested network
by subdividing two cycle edges at cyclic distance >= 2 and joining the
two new nodes (the distance bound keeps every induced cycle at length 4
or more).  Each cycle may carry at most one chord and at least one chord
is present overall.  The count is validated against 6, 120, 2790 for
n = 4, 5, 6, including the published per-skeleton breakdown.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx

from .errors import BadChordError, NoCycleError, OutOfRangeError
from .netgraph import (
    CYCLE,
    PhyloNetwork,
    classify,
    cycle_node_sequence,
    edge_key,
)
from .polytope import enumerate_binary_one_nested
from .rational import Value


def _valid_chord_slots(m: int) -> list[tuple[int, int]]:
    """Pairs of cycle-edge indices at cyclic distance in [2, m-2]."""
    out = []
    for i, j in itertools.combinations(range(m), 2):
        dist = min(j - i, m - (j - i))
        if dist >= 2:
            out.append((i, j))
    return out


def _with_chords(net: PhyloNetwork, placements) -> PhyloNetwork:
    """Subdivide the chosen edge pairs and join each with a unit chord."""
    edges = {edge_key(u, v): w for u, v, w in net.edge_items}
    new_edges: list[tuple[str, str, Value]] = []
    removed: set[frozenset] = set()
    for c, (ring, (i, j)) in enumerate(placements):
        m = len(ring)
        pairs = []
        for t in (i, j):
            u, v = ring[t], ring[(t + 1) % m]
            key = edge_key(u, v)
            removed.add(key)
            mid = f"ch{c}_{t}"
            w = edges[key]
            half = w / 2
            new_edges.append((u, mid, half))
            new_edges.append((mid, v, w - half))
            pairs.append(mid)
        new_edges.append((pairs[0], pairs[1], Fraction(1)))
    for key, w in edges.items():
        if key not in removed:
            u, v = sorted(key)
            new_edges.append((u, v, w))
    return PhyloNetwork.build(net.leaves, new_edges, strict=True)


def enumerate_binary_two_nested(n: int) -> list[PhyloNetwork]:
    """All binary triangle-free strictly 2-nested networks with n leaves.

    Every cycle of a 1-nested base gets zero or one chord, with at least
    one chord in total; chord endpoints subdivide edges so the result
    stays binary.
    """
    if n < 4 or n > 6:
        raise OutOfRangeError("supported leaf counts are 4..6")
    out = []
    for k in range(0, n - 2):
        try:
            bases = enumerate_binary_one_nested(n, k)
        except OutOfRangeError:
            continue
        for base in bases:
            cycles = classify(base).blocks.of_kind(CYCLE)
            if not cycles:
                continue
            rings = [cycle_node_sequence(b) for b in cycles]
            slot_lists = [_valid_chord_slots(len(r)) for r in rings]
            choices = [[None] + slots for slots in slot_lists]
            for combo in itertools.product(*choices):
                if all(c is None for c in combo):
                    continue
                placements = [
                    (ring, slot)
                    for ring, slot in zip(rings, combo)
                    if slot is not None
                ]
                out.append(_with_chords(base, placements))
    return out


def _unlabeled_graph(net: PhyloNetwork) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(net.nodes)
    g.add_edges_from((u, v) for u, v, _ in net.edge_items)
    return g


def _unlabeled_classes(nets: list[PhyloNetwork]) -> list[list[int]]:
    """Group indexes by unlabeled graph isomorphism."""
    graphs = [_unlabeled_graph(x) for x in nets]
    # the hashes only bucket candidates for nx.is_isomorphic, so the notice
    # that networkx 3.5 changed them for unattributed graphs is moot here
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="The hashes produced", category=UserWarning
        )
        hashes = [nx.weisfeiler_lehman_graph_hash(g) for g in graphs]
    buckets: dict[str, list[int]] = {}
    for i, h in enumerate(hashes):
        buckets.setdefault(h, []).append(i)
    classes: list[list[int]] = []
    for bucket in buckets.values():
        reps: list[list[int]] = []
        for i in bucket:
            for group in reps:
                if nx.is_isomorphic(graphs[group[0]], graphs[i]):
                    group.append(i)
                    break
            else:
                reps.append([i])
        classes.extend(reps)
    return classes


def skeleton_census(n: int) -> int:
    """Unlabeled binary triangle-free 1-nested shapes carrying a cycle."""
    if n < 4 or n > 6:
        raise OutOfRangeError("supported leaf counts are 4..6")
    nets = []
    for k in range(0, n - 2):
        for base in enumerate_binary_one_nested(n, k):
            if classify(base).blocks.of_kind(CYCLE):
                nets.append(base)
    return len(_unlabeled_classes(nets))


@dataclass(frozen=True)
class TwoNestedBreakdown:
    total: int
    rows: tuple[tuple[int, int], ...]  # (skeleton index, count) sorted by count


def two_nested_breakdown(n: int) -> TwoNestedBreakdown:
    """Count per unlabeled chordable skeleton; totals match the census."""
    if n < 4 or n > 6:
        raise OutOfRangeError("supported leaf counts are 4..6")
    bases = []
    for k in range(0, n - 2):
        for base in enumerate_binary_one_nested(n, k):
            if classify(base).blocks.of_kind(CYCLE):
                bases.append(base)
    classes = _unlabeled_classes(bases)
    rows = []
    for idx, group in enumerate(classes):
        count = 0
        for i in group:
            cycles = classify(bases[i]).blocks.of_kind(CYCLE)
            per_cycle = [
                len(_valid_chord_slots(len(cycle_node_sequence(b)))) + 1
                for b in cycles
            ]
            total_choices = 1
            for c in per_cycle:
                total_choices *= c
            count += total_choices - 1  # drop the all-empty assignment
        rows.append((idx, count))
    rows.sort(key=lambda t: (-t[1], t[0]))
    return TwoNestedBreakdown(
        total=sum(c for _, c in rows), rows=tuple(rows)
    )


# ---------------------------------------------------------------------------
# heavy chords


def add_heavy_chord(
    net: PhyloNetwork,
    cycle_index: int,
    endpoints: tuple[str, str],
    weight: Value,
) -> PhyloNetwork:
    """Join two non-adjacent nodes of a cycle with a chord so heavy that
    no shortest path ever uses it; minimum path distances are unchanged.

    Requires ``weight`` above the total weight of the network.
    """
    cycles = classify(net).blocks.of_kind(CYCLE)
    if cycle_index < 0 or cycle_index >= len(cycles):
        raise NoCycleError(
            f"cycle {cycle_index} not found ({len(cycles)} cycle blocks)"
        )
    block = cycles[cycle_index]
    u, v = endpoints
    if u not in block.nodes or v not in block.nodes or u == v:
        raise BadChordError(f"{u},{v} are not distinct nodes of the cycle")
    if edge_key(u, v) in block.edges:
        raise BadChordError(f"{u} and {v} are adjacent; a chord would double the edge")
    if weight <= net.total_weight:
        raise BadChordError(
            f"chord weight {weight} not above the network total {net.total_weight}"
        )
    edges = list(net.edge_items) + [(u, v, weight)]
    return PhyloNetwork.build(net.leaves, edges, strict=True)
