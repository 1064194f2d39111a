"""Counting binary triangle-free 2-nested networks, and heavy chords.

A chorded network is built from a binary triangle-free 1-nested network
by subdividing two cycle edges at cyclic distance >= 2 and joining the
two new nodes (the distance bound keeps every induced cycle at length 4
or more).  Each cycle may carry at most one chord and at least one chord
is present overall.  The count is validated against 6, 120, 2790 for
n = 4, 5, 6, including the published per-skeleton breakdown.

Bases are grouped into unlabeled skeletons by a canonical code of their
graph (see ``_shape_code``).  Skeleton i is the i-th class to appear in
the order of the chordable bases, so its index is fixed by its first
base.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BadChordError, NoCycleError, OutOfRangeError
from .netgraph import (
    CYCLE,
    PhyloNetwork,
    classify,
    cycle_node_sequence,
    edge_key,
)
from .polytope import UNIT, enumerate_binary_one_nested
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
        new_edges.append((pairs[0], pairs[1], UNIT))
    for key, w in edges.items():
        if key not in removed:
            u, v = sorted(key)
            new_edges.append((u, v, w))
    return PhyloNetwork.build(net.leaves, new_edges, strict=True)


def _chordable_bases(n: int) -> list[PhyloNetwork]:
    """Binary triangle-free 1-nested networks with n leaves and at least
    one cycle, for every count of internal bridges."""
    if n < 4 or n > 6:
        raise OutOfRangeError("supported leaf counts are 4..6")
    return [
        base
        for k in range(n - 2)
        for base in enumerate_binary_one_nested(n, k)
        if classify(base).blocks.of_kind(CYCLE)
    ]


def enumerate_binary_two_nested(n: int) -> list[PhyloNetwork]:
    """All binary triangle-free strictly 2-nested networks with n leaves.

    Every cycle of a 1-nested base gets zero or one chord, with at least
    one chord in total; chord endpoints subdivide edges so the result
    stays binary.
    """
    out = []
    for base in _chordable_bases(n):
        cycles = classify(base).blocks.of_kind(CYCLE)
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


def _shape_code(net: PhyloNetwork) -> str:
    """Canonical code of the unlabeled graph of a level <= 1 network.

    Rooted at a leaf, a node reads as the codes of the blocks hanging
    below it, sorted, in parentheses.  A bridge reads as ``b`` and its far
    node; a cycle as its other nodes in ring order from the entry node, in
    brackets, whichever of the two walks reads smaller.  Isomorphisms map
    leaves to leaves, so the least reading over all leaf roots is equal
    for two networks exactly when their graphs are isomorphic (Aho,
    Hopcroft & Ullman 1974).  The part beyond a node, entered from one of
    its blocks, reads the same from every root, so each is read once.
    """
    decomp = classify(net).blocks
    blocks, blocks_at = decomp.blocks, decomp.blocks_at
    memo: dict[tuple[str, int | None], str] = {}

    def read(v: str, entry: int | None) -> str:
        code = memo.get((v, entry))
        if code is not None:
            return code
        parts = []
        for bi in blocks_at[v]:
            if bi == entry:
                continue
            if blocks[bi].kind == CYCLE:
                walk = cycle_node_sequence(blocks[bi], start=v)[1:]
                codes = [read(u, bi) for u in walk]
                parts.append("[" + min("".join(codes), "".join(codes[::-1])) + "]")
            else:
                (u,) = blocks[bi].nodes - {v}
                parts.append("b" + read(u, bi))
        code = memo[v, entry] = "(" + "".join(sorted(parts)) + ")"
        return code

    return min(read(v, None) for v in net.leaf_of_node)


def _unlabeled_classes(nets: list[PhyloNetwork]) -> list[list[int]]:
    """Group indexes by unlabeled graph isomorphism, each class in index
    order and the classes in order of their first member."""
    classes: dict[str, list[int]] = {}
    for i, net in enumerate(nets):
        classes.setdefault(_shape_code(net), []).append(i)
    return list(classes.values())


def skeleton_census(n: int) -> int:
    """Unlabeled binary triangle-free 1-nested shapes carrying a cycle:
    one per row of :func:`two_nested_breakdown`."""
    return len(two_nested_breakdown(n).rows)


@dataclass(frozen=True)
class TwoNestedBreakdown:
    total: int
    rows: tuple[tuple[int, int], ...]  # (skeleton index, count) sorted by count


def two_nested_breakdown(n: int) -> TwoNestedBreakdown:
    """Count per unlabeled chordable skeleton; totals match the census.

    A cycle of m edges takes no chord or one of its m(m-3)/2 slots at
    cyclic distance 2..m-2, and at least one cycle takes a chord, so a
    base has prod_c (m_c(m_c-3)/2 + 1) - 1 chordings.
    """
    bases = _chordable_bases(n)
    rows = []
    for idx, group in enumerate(_unlabeled_classes(bases)):
        count = 0
        for i in group:
            choices = 1
            for block in classify(bases[i]).blocks.of_kind(CYCLE):
                m = len(block.edges)
                choices *= m * (m - 3) // 2 + 1
            count += choices - 1
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
