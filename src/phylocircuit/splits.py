"""Split systems and the maps between them and 1-nested networks.

A split is a bipartition of the leaf set; a system pairs splits with
nonnegative weights (or no weights at all).  ``displayed_splits`` extracts
the splits a 1-nested network displays, each an arc of its canonical
order read off the outward walk from leaf 1; ``network_from_splits``
rebuilds the unique 1-nested network from a circular system by grouping
mutually crossing splits into cycles and lone splits into bridges, then
hanging every class and leaf from the innermost open class as one sorted
sweep along the circular order meets it, with positions read once per
order.  Every node the sweep makes has degree at least 3, so nothing is
smoothed.  The weighted variant gives each rebuilt edge the total weight of
the splits it carries.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .errors import (
    MALFORMED,
    MissingTrivialSplitsError,
    NegativeWeightError,
    NotCircularError,
    PhyloCircuitError,
    SizeMismatchError,
    ValidationError,
    cannot_parse,
)
from .metrics import DistanceVector, min_path_vector, pair_index
from .netgraph import (
    CYCLE,
    BRIDGE,
    CircularOrder,
    PhyloNetwork,
    block_decomposition,
    cycle_node_sequence,
    edge_key,
    outward_reading,
)
from .rational import Value, format_value, parse_value, tolerance, values_close


@dataclass(frozen=True)
class Split:
    """Bipartition of 1..n; the side containing leaf 1 is stored first."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    def __init__(self, one_side: Iterable[int], n: int):
        side = frozenset(one_side)
        rest = [x for x in range(1, n + 1) if x not in side]
        if not side or not rest:
            raise SizeMismatchError("both sides of a split must be nonempty")
        if len(side) + len(rest) != n:  # side holds a label outside 1..n
            raise SizeMismatchError("split sides must partition 1..n")
        if 1 in side:
            a, b = sorted(side), rest
        else:
            a, b = rest, sorted(side)
        object.__setattr__(self, "side_a", tuple(a))
        object.__setattr__(self, "side_b", tuple(b))

    @property
    def n(self) -> int:
        return len(self.side_a) + len(self.side_b)

    @property
    def is_trivial(self) -> bool:
        return min(len(self.side_a), len(self.side_b)) == 1

    def separates(self, i: int, j: int) -> bool:
        return (i in self.side_a) != (j in self.side_a)

    def __str__(self) -> str:
        a = ",".join(map(str, self.side_a))
        b = ",".join(map(str, self.side_b))
        return f"{{{a}}}|{{{b}}}"


def trivial_split(label: int, n: int) -> Split:
    return Split({label}, n)


def _sort_key(split: Split):
    return (
        min(len(split.side_a), len(split.side_b)),
        split.side_a,
        split.side_b,
    )


@dataclass(frozen=True)
class WeightedSplitSystem:
    """Splits with optional nonnegative weights, canonically ordered."""

    n: int
    entries: tuple[tuple[Split, Value | None], ...]

    @classmethod
    def of(
        cls,
        n: int,
        weights: Mapping[Split, Value | None] | Iterable[tuple[Split, Value | None]],
    ) -> "WeightedSplitSystem":
        """Integer weights become Fractions, and one weight of any other
        type makes every weight a float, as in ``PhyloNetwork.build``."""
        items = weights.items() if isinstance(weights, Mapping) else weights
        by_split: dict[Split, Value | None] = {}
        for s, w in items:
            if s.n != n:
                raise SizeMismatchError(f"split {s} is not over 1..{n}")
            if w is not None and w < 0:
                raise NegativeWeightError(f"negative weight for {s}")
            if s in by_split:
                raise ValidationError(f"split {s} is given twice")
            by_split[s] = Fraction(w) if isinstance(w, int) else w
        if any(not isinstance(w, (Fraction, type(None))) for w in by_split.values()):
            by_split = {s: w if w is None else float(w) for s, w in by_split.items()}
        ordered = tuple(sorted(by_split.items(), key=lambda kv: _sort_key(kv[0])))
        return cls(n=n, entries=ordered)

    @classmethod
    def unweighted(cls, n: int, splits: Iterable[Split]) -> "WeightedSplitSystem":
        return cls.of(n, [(s, None) for s in splits])

    @property
    def splits(self) -> frozenset:
        return frozenset(s for s, _ in self.entries)

    @property
    def is_weighted(self) -> bool:
        return all(w is not None for _, w in self.entries)

    def weight(self, split: Split) -> Value:
        for s, w in self.entries:
            if s == split:
                return Fraction(0) if w is None else w
        return Fraction(0)

    def same_weighted_splits(self, other: "WeightedSplitSystem") -> bool:
        return self.n == other.n and self.entries == other.entries

    def __iter__(self) -> Iterator[tuple[Split, Value | None]]:
        return iter(self.entries)


@dataclass(frozen=True)
class CircularSplitSystem(WeightedSplitSystem):
    """Split system whose splits all have contiguous sides in one order."""

    order: CircularOrder

    def __post_init__(self):
        _require_permutation(self.order, self.n)
        at = _positions(self.order)
        for s, _ in self.entries:
            if not _contiguous(s, at):
                raise NotCircularError(f"{s} not contiguous in {self.order}")

    @classmethod
    def of_order(
        cls, n: int, weights, order: CircularOrder
    ) -> "CircularSplitSystem":
        base = WeightedSplitSystem.of(n, weights)
        return cls(n=base.n, entries=base.entries, order=order)


def _require_permutation(order: CircularOrder, n: int) -> None:
    if order.n != n:
        raise SizeMismatchError("order size differs from system size")
    if min(order.labels) < 1 or max(order.labels) > n:
        raise SizeMismatchError(f"order {order} is not a permutation of 1..{n}")


def _positions(order: CircularOrder) -> dict[int, int]:
    """1-based position of every label in the order."""
    return {label: p for p, label in enumerate(order.labels, start=1)}


def _interval(split: Split, at: Mapping[int, int]) -> tuple[int, int]:
    """First and last positions of side_b, the side avoiding leaf 1."""
    positions = [at[x] for x in split.side_b]
    return min(positions), max(positions)


def _contiguous(split: Split, at: Mapping[int, int]) -> bool:
    lo, hi = _interval(split, at)
    return hi - lo == len(split.side_b) - 1


def is_circular(system: WeightedSplitSystem, order: CircularOrder) -> bool:
    """True iff both sides of every split are contiguous arcs of the order."""
    _require_permutation(order, system.n)
    at = _positions(order)
    return all(_contiguous(s, at) for s, _ in system.entries)


# ---------------------------------------------------------------------------
# splits displayed by a network


def displayed_splits(net: PhyloNetwork) -> WeightedSplitSystem:
    """All splits displayed by a 1-nested network (unweighted).

    One split per bridge, one per unordered pair of edges within a cycle
    block, duplicates merged: the keys of :func:`display_catalog`.
    """
    return WeightedSplitSystem.unweighted(net.n, display_catalog(net))


def display_catalog(net: PhyloNetwork) -> dict[Split, list[tuple]]:
    """Every display of every split: ('bridge', edge) or ('pair', block, e, f).

    Each side away from leaf 1 is read off :func:`outward_reading`: a
    bridge shows the reading of its far node, the one that is not its
    entry, and a pair of cycle edges the readings of the ring nodes between
    them on the side away from the cycle's entry, its node nearest leaf 1.
    """
    reading = outward_reading(net)
    decomp = block_decomposition(net)
    catalog: dict[Split, list[tuple]] = {}

    def add(side: Iterable[int], display: tuple) -> None:
        if side:  # a side without leaves displays no split
            catalog.setdefault(Split(side, net.n), []).append(display)

    for block, entry in zip(decomp.blocks, decomp.entries):
        if block.kind == BRIDGE:
            (e,) = block.edges
            (far,) = e - {entry}
            add(reading[far], ("bridge", e))
        elif block.kind == CYCLE:
            ring = cycle_node_sequence(block, start=entry)
            m = len(ring)
            at = {edge_key(ring[t], ring[(t + 1) % m]): t for t in range(m)}
            for e, f in itertools.combinations(sorted(block.edges, key=sorted), 2):
                s, t = sorted((at[e], at[f]))
                side = [x for u in ring[s + 1 : t + 1] for x in reading[u]]
                add(side, ("pair", block, e, f))
    return catalog


# ---------------------------------------------------------------------------
# split metric


def split_metric(system: WeightedSplitSystem) -> DistanceVector:
    """d(i,j) = total weight of the splits separating i from j.

    Each pair takes its splits' weights in entry order.
    """
    n = system.n
    totals: list[Value] = [Fraction(0)] * (n * (n - 1) // 2)
    for s, w in system.entries:
        if w is None:
            continue
        for i in s.side_a:
            for j in s.side_b:
                totals[pair_index(i, j, n)] += w
    return DistanceVector(n, tuple(totals))


def refines(finer: WeightedSplitSystem, coarser: WeightedSplitSystem) -> bool:
    """Split-set inclusion: ``finer`` displays everything ``coarser`` does."""
    return finer.n == coarser.n and finer.splits >= coarser.splits


def crosses(s1: Split, s2: Split) -> bool:
    """All four pairwise side intersections are nonempty."""
    a1, b1 = set(s1.side_a), set(s1.side_b)
    a2, b2 = set(s2.side_a), set(s2.side_b)
    return all((a1 & a2, a1 & b2, b1 & a2, b1 & b2))


# ---------------------------------------------------------------------------
# rebuilding the network


def _crossing_classes(spans: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Indices of the spans grouped into classes of transitively crossing
    arcs (overlapping, neither holding the other), each in index order.  A
    sweep over the ends (opens, outer first, before closes, inner first)
    stacks the groups with open spans.  As span i closes, the groups above its
    own hold open spans opened after i, which cross i, so they join its group."""
    parent = list(range(len(spans)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ends = [(lo, 0, -hi, i) for i, (lo, hi) in enumerate(spans)]
    ends += [(hi, 1, -lo, -i) for i, (lo, hi) in enumerate(spans)]
    stack: list[tuple[int, int]] = []
    depth = [0] * len(spans)  # a root's place in the stack
    for _, closes, _, i in sorted(ends):
        if not closes:
            depth[i] = len(stack)
            stack.append((i, 1))
            continue
        k = depth[find(-i)]
        root = stack[k][0]
        for other, _ in stack[k + 1 :]:
            parent[other] = root
        count = sum(c for _, c in stack[k:]) - 1
        stack[k:] = [(root, count)] if count else []
    groups: dict[int, list[int]] = {}
    for i in range(len(spans)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _rebuild(
    system: CircularSplitSystem,
    present: Collection[Split],
    weigh: Callable[[Iterable[Split]], Value],
) -> PhyloNetwork:
    """Build the network of the splits ``present`` of a circular system in
    one sweep over its leaves and crossing classes, each hung from the
    innermost open class as the sorted sweep meets it; ``weigh`` turns the
    splits an edge carries, in ``_sort_key`` order, into its weight."""
    if not isinstance(system, CircularSplitSystem):
        raise PhyloCircuitError(
            "split file needs an order header to rebuild a network"
        )
    n, labels = system.n, system.order.labels
    trivial = {lab: trivial_split(lab, n) for lab in range(1, n + 1)}
    missing = [lab for lab, s in trivial.items() if s not in present]
    if missing:
        raise MissingTrivialSplitsError(f"missing trivial splits for {missing}")
    leaves = {lab: f"x{lab}" for lab in labels}
    if n == 2:
        return PhyloNetwork.build(leaves, [("x1", "x2", weigh(present))], strict=True)
    at = _positions(system.order)
    splits = sorted((s for s in present if not s.is_trivial), key=_sort_key)
    spans = [_interval(s, at) for s in splits]
    # a class's gaps are the boundaries (gap g lies between positions g and
    # g+1) at which its splits start or end, so its span is
    # gaps[0] + 1 .. gaps[-1]; spans of crossing classes nest, and a
    # bridge's span holds a cycle's equal one, so sorted by (left end,
    # -right end, bridge, cycle, leaf) the sweep is a preorder of the nesting
    keyed: list[tuple[tuple[int, int, int], list[int], list[int]]] = [
        ((p, -p, 2), [], []) for p in range(1, n + 1)
    ]
    for group in _crossing_classes(spans):
        gaps = sorted({g for i in group for g in (spans[i][0] - 1, spans[i][1])})
        keyed.append(((gaps[0] + 1, -gaps[-1], int(len(group) > 1)), group, gaps))

    names = (f"v{k}" for k in itertools.count(1))
    root = next(names)
    edges: list[tuple[str, str, Value]] = []
    # open classes, innermost last: (gaps, ring) with the ring edge at
    # gaps[t] joining ring[t] and ring[t + 1]; a bridge's ring is its two ends
    stack: list[tuple[list[int], list[str]]] = []
    for (lo, _, kind), group, gaps in sorted(keyed, key=lambda kv: kv[0]):
        while stack and stack[-1][0][-1] < lo:
            stack.pop()
        node = root
        if stack:
            outer, ring = stack[-1]
            t = bisect.bisect_left(outer, lo)  # outer[t - 1] < lo <= outer[t]
            # no span passes outer[t]: it would hold this cycle and have sorted before it
            node = ring[t]
        if kind == 2:
            label = labels[lo - 1]
            edges.append((node, f"x{label}", weigh([trivial[label]])))
            continue
        ring = [node] + [next(names) for _ in gaps[1:]]
        tags: dict[int, list[Split]] = {g: [] for g in gaps}
        for i in group:
            tags[spans[i][0] - 1].append(splits[i])
            tags[spans[i][1]].append(splits[i])
        for t, g in enumerate(gaps if kind == 1 else gaps[:1]):
            edges.append((ring[t], ring[(t + 1) % len(ring)], weigh(tags[g])))
        stack.append((gaps, ring))
    return PhyloNetwork.build(leaves, edges, strict=True)


def network_from_splits(system: CircularSplitSystem) -> PhyloNetwork:
    """The unique 1-nested network displaying (at least) these splits.

    Mutually crossing splits become cycles, lone nontrivial splits become
    bridges, trivial splits become pendant edges, each hung from the
    innermost open class as one sweep, sorted by span along the order, meets
    it; every position is read once from one map of the order.  No junction
    is left with degree 2, so no smoothing is needed.  All edges get unit
    weight, whatever weights the system carries.
    """
    return _rebuild(system, system.splits, lambda tags: Fraction(1))


def weighted_network_from_splits(system: CircularSplitSystem) -> PhyloNetwork:
    """Weighted rebuild: each edge weighs the total, in split order, of the
    splits it carries: a pendant or bridge edge its one split, a cycle edge
    every split of its cycle that starts or ends at its gap.  Zero-weight
    splits are dropped first (flagged convention), so every trivial split
    must still have positive weight."""
    if not system.is_weighted:
        raise SizeMismatchError("weighted rebuild needs weights on every split")
    weights = {s: w for s, w in system.entries if w != 0}
    return _rebuild(
        system, weights.keys(), lambda tags: sum(map(weights.get, tags), Fraction(0))
    )


# ---------------------------------------------------------------------------
# predicates tying the maps together


def is_outer_path(system: CircularSplitSystem) -> bool:
    """True iff the weighted rebuild reproduces the split metric as its
    minimum path metric: equal for rationals, for floats within the
    tolerance of the split metric's values."""
    rebuilt = weighted_network_from_splits(system)
    got = min_path_vector(rebuilt)
    want = split_metric(system)
    tol = tolerance(want.values)
    return all(values_close(a, b, tol) for a, b in zip(got.values, want.values))


def is_faithfully_phylogenetic(system: CircularSplitSystem) -> bool:
    """True iff the rebuilt network displays exactly these splits."""
    rebuilt = network_from_splits(system)
    return displayed_splits(rebuilt).splits == system.splits


# ---------------------------------------------------------------------------
# serialization


def split_system_to_text(system: WeightedSplitSystem, precision: int = 6) -> str:
    order = getattr(system, "order", None)
    order_txt = ",".join(map(str, order.labels)) if order is not None else "-"
    lines = [f"n {system.n} order {order_txt}"]
    for s, w in system.entries:
        w_txt = "-" if w is None else format_value(w, precision)
        a = ",".join(map(str, s.side_a))
        b = ",".join(map(str, s.side_b))
        lines.append(f"{w_txt} | {a} | {b}")
    return "\n".join(lines) + "\n"


def parse_split_system(text: str, exact: bool = False) -> WeightedSplitSystem:
    numbered = (
        (lineno, raw, raw.split("#", 1)[0].strip())
        for lineno, raw in enumerate(text.splitlines(), start=1)
    )
    lines = [line for line in numbered if line[2]]
    if not lines:
        raise SizeMismatchError("empty split file")
    lineno, raw, head_txt = lines[0]
    head = head_txt.split()
    if len(head) < 2 or head[0] != "n":
        raise SizeMismatchError("expected header 'n <count> order <...>'")
    order = None
    entries = []
    first_line: dict[Split, int] = {}
    # one handler for the header and the whole loop; lineno and raw name the
    # line it stopped at, and the checks raise no MALFORMED error
    try:
        n = int(head[1])
        tail = head[2:]
        if tail and (len(tail) != 2 or tail[0] != "order"):
            raise ValueError("header is 'n <count>' or 'n <count> order <labels|->'")
        if tail and tail[1] != "-":
            order = CircularOrder(tuple(int(x) for x in tail[1].split(",")))
        for lineno, raw, ln in lines[1:]:
            w_txt, a_txt, b_txt = (part.strip() for part in ln.split("|"))
            weight = None if w_txt == "-" else parse_value(w_txt, exact)
            side = [int(x) for x in a_txt.split(",")]
            other = [int(x) for x in b_txt.split(",")]
            if sorted(side + other) != list(range(1, n + 1)):
                raise ValidationError(
                    f"line {lineno}: sides do not partition 1..{n} in {raw!r}"
                )
            if isinstance(weight, float) and not math.isfinite(weight):
                raise ValidationError(f"line {lineno}: non-finite weight in {raw!r}")
            if weight is not None and weight < 0:
                raise ValidationError(f"line {lineno}: negative weight in {raw!r}")
            split = Split(side, n)
            if split in first_line:
                raise ValidationError(
                    f"line {lineno}: split {split} repeats line {first_line[split]}"
                )
            first_line[split] = lineno
            entries.append((split, weight))
    except MALFORMED as exc:
        raise cannot_parse(lineno, raw) from exc
    if order is not None:
        return CircularSplitSystem.of_order(n, entries, order)
    return WeightedSplitSystem.of(n, entries)


def load_split_system(path: str, exact: bool = False) -> WeightedSplitSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_split_system(fh.read(), exact)
