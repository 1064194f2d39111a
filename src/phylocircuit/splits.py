"""Split systems and the maps between them and 1-nested networks.

A split is a bipartition of the leaf set; a system pairs splits with
nonnegative weights (or no weights at all).  ``displayed_splits`` extracts
the splits a 1-nested network displays via its minimal cuts;
``network_from_splits`` rebuilds the unique 1-nested network from a
circular system by grouping mutually crossing splits into cycles and
lone splits into bridges, then hanging everything along the circular
order.  The weighted variant sums, onto each rebuilt edge, the weights of
the splits that were smoothed into it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    MissingTrivialSplitsError,
    NotCircularError,
    NotOneNestedError,
    NotRealizableError,
    SizeMismatchError,
    line_errors,
)
from .metrics import DistanceVector, min_path_vector, pair_iter
from .netgraph import (
    CYCLE,
    BRIDGE,
    CircularOrder,
    PhyloNetwork,
    classify,
    edge_key,
    smooth_degree_two,
)
from .rational import Value, format_value, parse_value, values_close


@dataclass(frozen=True)
class Split:
    """Bipartition of 1..n; the side containing leaf 1 is stored first."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    def __init__(self, one_side: Iterable[int], n: int):
        side = frozenset(one_side)
        rest = frozenset(range(1, n + 1)) - side
        if not side or not rest:
            raise SizeMismatchError("both sides of a split must be nonempty")
        if side | rest != frozenset(range(1, n + 1)):
            raise SizeMismatchError("split sides must partition 1..n")
        if 1 in side:
            a, b = side, rest
        else:
            a, b = rest, side
        object.__setattr__(self, "side_a", tuple(sorted(a)))
        object.__setattr__(self, "side_b", tuple(sorted(b)))

    @property
    def n(self) -> int:
        return len(self.side_a) + len(self.side_b)

    @property
    def is_trivial(self) -> bool:
        return min(len(self.side_a), len(self.side_b)) == 1

    def separates(self, i: int, j: int) -> bool:
        return (i in self.side_a) != (j in self.side_a)

    def side_of(self, label: int) -> tuple[int, ...]:
        return self.side_a if label in self.side_a else self.side_b

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
        items = weights.items() if isinstance(weights, Mapping) else weights
        dedup: dict[Split, Value | None] = {}
        for s, w in items:
            if s.n != n:
                raise SizeMismatchError(f"split {s} is not over 1..{n}")
            if w is not None and w < 0:
                raise SizeMismatchError(f"negative weight for {s}")
            if s in dedup and dedup[s] is not None and w is not None:
                dedup[s] = dedup[s] + w
            else:
                dedup[s] = w
        ordered = tuple(sorted(dedup.items(), key=lambda kv: _sort_key(kv[0])))
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

    @property
    def weights(self) -> dict:
        return dict(self.entries)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(w, (Fraction, type(None))) for _, w in self.entries)

    def strip_weights(self) -> "WeightedSplitSystem":
        return WeightedSplitSystem.of(self.n, [(s, None) for s, _ in self.entries])

    def drop_zero_weights(self) -> "WeightedSplitSystem":
        kept = [(s, w) for s, w in self.entries if w is None or w != 0]
        return WeightedSplitSystem.of(self.n, kept)

    def has_all_trivial(self) -> bool:
        return all(
            trivial_split(lab, self.n) in self.splits for lab in range(1, self.n + 1)
        )

    def same_weighted_splits(self, other: "WeightedSplitSystem") -> bool:
        return self.n == other.n and self.entries == other.entries

    def __iter__(self) -> Iterator[tuple[Split, Value | None]]:
        return iter(self.entries)


@dataclass(frozen=True)
class CircularSplitSystem(WeightedSplitSystem):
    """Split system whose splits all have contiguous sides in one order."""

    order: CircularOrder

    def __post_init__(self):
        if self.order.n != self.n:
            raise SizeMismatchError("order size differs from system size")
        for s, _ in self.entries:
            if not _contiguous(s, self.order):
                raise NotCircularError(f"{s} not contiguous in {self.order}")

    @classmethod
    def of_order(
        cls, n: int, weights, order: CircularOrder
    ) -> "CircularSplitSystem":
        base = WeightedSplitSystem.of(n, weights)
        return cls(n=base.n, entries=base.entries, order=order)

    def base(self) -> WeightedSplitSystem:
        return WeightedSplitSystem(n=self.n, entries=self.entries)

    def strip_weights(self) -> "CircularSplitSystem":
        return CircularSplitSystem.of_order(
            self.n, [(s, None) for s, _ in self.entries], self.order
        )

    def drop_zero_weights(self) -> "CircularSplitSystem":
        kept = [(s, w) for s, w in self.entries if w is None or w != 0]
        return CircularSplitSystem.of_order(self.n, kept, self.order)


def _contiguous(split: Split, order: CircularOrder) -> bool:
    side = set(split.side_b if 1 in split.side_a else split.side_a)
    positions = sorted(order.position(x) for x in side)
    return positions[-1] - positions[0] == len(positions) - 1


def is_circular(system: WeightedSplitSystem, order: CircularOrder) -> bool:
    """True iff both sides of every split are contiguous arcs of the order."""
    if order.n != system.n:
        raise SizeMismatchError("order size differs from system size")
    return all(_contiguous(s, order) for s, _ in system.entries)


# ---------------------------------------------------------------------------
# splits displayed by a network


def _component_leaves(
    net: PhyloNetwork, removed: frozenset, start: str
) -> set[int]:
    leaf_of = net.leaf_of_node
    seen = {start}
    stack = [start]
    labels = set()
    while stack:
        v = stack.pop()
        if v in leaf_of:
            labels.add(leaf_of[v])
        for w in net.adjacency[v]:
            if w not in seen and edge_key(v, w) not in removed:
                seen.add(w)
                stack.append(w)
    return labels


def split_from_cut(
    net: PhyloNetwork, removed: Iterable[frozenset]
) -> Split | None:
    """Split displayed by deleting the given edges, if both sides hold leaves."""
    removed = frozenset(removed)
    anchor = next(iter(next(iter(removed))))
    side = _component_leaves(net, removed, anchor)
    rest = set(range(1, net.n + 1)) - side
    if not side or not rest:
        return None
    return Split(side, net.n)


def displayed_splits(net: PhyloNetwork) -> WeightedSplitSystem:
    """All splits displayed by a 1-nested network (unweighted).

    One split per bridge, one per unordered pair of edges within a cycle
    block, duplicates merged: the keys of :func:`display_catalog`.
    """
    return WeightedSplitSystem.unweighted(net.n, display_catalog(net))


def display_catalog(net: PhyloNetwork) -> dict[Split, list[tuple]]:
    """Every display of every split: ('bridge', edge) or ('pair', block, e, f)."""
    cls = classify(net)
    if cls.level is None or cls.level > 1:
        raise NotOneNestedError(f"level {cls.level_name} network")
    catalog: dict[Split, list[tuple]] = {}
    for block in cls.blocks.blocks:
        if block.kind == BRIDGE:
            (e,) = block.edges
            s = split_from_cut(net, [e])
            if s is not None:
                catalog.setdefault(s, []).append(("bridge", e))
        elif block.kind == CYCLE:
            for e, f in itertools.combinations(sorted(block.edges, key=sorted), 2):
                s = split_from_cut(net, [e, f])
                if s is not None:
                    catalog.setdefault(s, []).append(("pair", block, e, f))
    return catalog


# ---------------------------------------------------------------------------
# split metric


def split_metric(system: WeightedSplitSystem) -> DistanceVector:
    """d(i,j) = total weight of the splits separating i from j."""
    values = []
    for i, j in pair_iter(system.n):
        total = Fraction(0)
        for s, w in system.entries:
            if w is not None and s.separates(i, j):
                total += w
        values.append(total)
    return DistanceVector(system.n, tuple(values))


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


@dataclass
class _Object:
    kind: str  # "bridge" or "cycle"
    splits: list[Split]
    gaps: list[int]
    lo: int
    hi: int
    children: list
    corner_leaves: dict | None = None


def _interval(split: Split, order: CircularOrder) -> tuple[int, int]:
    """1-based positions of the side avoiding the order's first label."""
    first = order.labels[0]
    side = split.side_b if first in split.side_a else split.side_a
    positions = sorted(order.position(x) + 1 for x in side)
    if positions[-1] - positions[0] != len(positions) - 1:
        raise NotCircularError(f"{split} not contiguous in {order}")
    return positions[0], positions[-1]


def _crossing_classes(
    splits: Sequence[Split], intervals: Mapping[Split, tuple[int, int]]
) -> list[list[Split]]:
    parent = list(range(len(splits)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in itertools.combinations(range(len(splits)), 2):
        (lo1, hi1), (lo2, hi2) = intervals[splits[i]], intervals[splits[j]]
        overlap = not (hi1 < lo2 or hi2 < lo1)
        nested = (lo1 <= lo2 and hi2 <= hi1) or (lo2 <= lo1 and hi1 <= hi2)
        if overlap and not nested:
            parent[find(i)] = find(j)
    groups: dict[int, list[Split]] = {}
    for i, s in enumerate(splits):
        groups.setdefault(find(i), []).append(s)
    return [sorted(g, key=_sort_key) for g in groups.values()]


def _build_objects(system: CircularSplitSystem) -> list[_Object]:
    order = system.order
    nontrivial = sorted(
        (s for s, _ in system.entries if not s.is_trivial), key=_sort_key
    )
    intervals = {s: _interval(s, order) for s in nontrivial}
    objects = []
    for group in _crossing_classes(nontrivial, intervals):
        gapset: set[int] = set()
        for s in group:
            lo, hi = intervals[s]
            gapset.update((lo - 1, hi))
        kind = BRIDGE if len(group) == 1 else CYCLE
        if kind == CYCLE and len(gapset) < 4:
            raise NotRealizableError(
                f"crossing class on {len(gapset)} boundary gaps cannot form a"
                " triangle-free cycle"
            )
        lo = min(intervals[s][0] for s in group)
        hi = max(intervals[s][1] for s in group)
        objects.append(
            _Object(
                kind=kind,
                splits=group,
                gaps=sorted(gapset),
                lo=lo,
                hi=hi,
                children=[],
            )
        )
    objects.sort(key=lambda o: (o.lo, o.hi, o.kind))
    return objects


def _contains(a: _Object, b: _Object) -> bool:
    if a is b:
        return False
    if (a.lo, a.hi) == (b.lo, b.hi):
        return a.kind == BRIDGE and b.kind == CYCLE
    return a.lo <= b.lo and b.hi <= a.hi


def _host_key(o: _Object):
    # smallest span first; cycles beat an equal-span bridge for contents
    return (o.hi - o.lo, o.lo, 0 if o.kind == CYCLE else 1)


class _Assembler:
    def __init__(self, system: CircularSplitSystem):
        self.system = system
        self.order = system.order
        self.n = system.n
        self.counter = 0
        self.edges: list[tuple[str, str, set[Split]]] = []
        self.objects = _build_objects(system)

    def fresh(self) -> str:
        self.counter += 1
        return f"v{self.counter}"

    def run(self) -> tuple[dict[int, str], list[tuple[str, str, set[Split]]]]:
        roots: list[_Object] = []
        for obj in self.objects:
            hosts = [o for o in self.objects if _contains(o, obj)]
            if hosts:
                min(hosts, key=_host_key).children.append(obj)
            else:
                roots.append(obj)
        leaf_hosts: dict[int, _Object | None] = {}
        for p in range(1, self.n + 1):
            cands = [o for o in self.objects if o.lo <= p <= o.hi]
            leaf_hosts[p] = min(cands, key=_host_key) if cands else None
        for p, host in leaf_hosts.items():
            if host is not None:
                host.children.append(p)
        root_node = self.fresh()
        for p, host in leaf_hosts.items():
            if host is None:
                self.add_pendant(root_node, p)
        for obj in roots:
            self.realize(obj, root_node)
        leaves = {
            self.order.labels[p - 1]: f"x{self.order.labels[p - 1]}"
            for p in range(1, self.n + 1)
        }
        return leaves, self.edges

    def add_pendant(self, node: str, position: int) -> None:
        label = self.order.labels[position - 1]
        self.edges.append(
            (node, f"x{label}", {trivial_split(label, self.n)})
        )

    def realize(self, obj: _Object, parent_node: str) -> None:
        if obj.kind == BRIDGE:
            junction = self.fresh()
            self.edges.append((parent_node, junction, set(obj.splits)))
            for child in sorted(obj.children, key=_child_key):
                if isinstance(child, int):
                    self.add_pendant(junction, child)
                else:
                    self.realize(child, junction)
            return
        gaps = obj.gaps
        m = len(gaps)
        ring = [parent_node] + [self.fresh() for _ in range(m - 1)]
        intervals = {s: _interval(s, self.order) for s in obj.splits}
        # cycle edge for gap g_t joins ring[t-1] and ring[t mod m] (1-based t)
        for t in range(1, m + 1):
            u = ring[t - 1]
            v = ring[t % m]
            gap = gaps[t - 1]
            tags = {
                s
                for s in obj.splits
                if gap in (intervals[s][0] - 1, intervals[s][1])
            }
            self.edges.append((u, v, tags))
        for child in sorted(obj.children, key=_child_key):
            placed = False
            for t in range(1, m):
                low, high = gaps[t - 1], gaps[t]
                if isinstance(child, int):
                    ok = low < child <= high
                else:
                    ok = low < child.lo and child.hi <= high
                if ok:
                    node = ring[t]
                    if isinstance(child, int):
                        self.add_pendant(node, child)
                    else:
                        self.realize(child, node)
                    placed = True
                    break
            if not placed:
                raise NotRealizableError(
                    f"item {child} straddles the corners of a rebuilt cycle"
                )


def _child_key(child) -> tuple:
    if isinstance(child, int):
        return (child, child)
    return (child.lo, child.hi)


def _require_rebuild_ready(system: CircularSplitSystem) -> None:
    if not system.has_all_trivial():
        missing = [
            lab
            for lab in range(1, system.n + 1)
            if trivial_split(lab, system.n) not in system.splits
        ]
        raise MissingTrivialSplitsError(f"missing trivial splits for {missing}")


def network_from_splits(system: CircularSplitSystem) -> PhyloNetwork:
    """The unique 1-nested network displaying (at least) these splits.

    Mutually crossing splits become cycles, lone nontrivial splits become
    bridges, trivial splits become pendant edges; junctions left with
    degree 2 are smoothed away.  All edges get unit weight.
    """
    _require_rebuild_ready(system)
    if system.n == 2:
        return PhyloNetwork.build(
            {1: "x1", 2: "x2"}, [("x1", "x2", Fraction(1))], strict=True
        )
    leaves, tagged = _Assembler(system).run()
    edges = [(u, v, Fraction(1)) for u, v, _ in tagged]
    net = smooth_degree_two(PhyloNetwork.build(leaves, edges, strict=False))
    unit = [(u, v, Fraction(1)) for u, v, _ in net.edge_items]
    return PhyloNetwork.build(net.leaves, unit, strict=True)


def weighted_network_from_splits(system: CircularSplitSystem) -> PhyloNetwork:
    """Weighted rebuild: each edge carries the total weight of the splits
    smoothed into it.  Zero-weight splits are dropped first (flagged
    convention), so every trivial split must still have positive weight."""
    if not system.is_weighted:
        raise SizeMismatchError("weighted rebuild needs weights on every split")
    system = system.drop_zero_weights()
    _require_rebuild_ready(system)
    if system.n == 2:
        total = sum((w for _, w in system.entries), Fraction(0))
        return PhyloNetwork.build(
            {1: "x1", 2: "x2"}, [("x1", "x2", total)], strict=True
        )
    leaves, tagged = _Assembler(system).run()
    net = PhyloNetwork.build(
        leaves,
        [(u, v, Fraction(1)) for u, v, _ in tagged],
        strict=False,
    )
    # smooth with tag bookkeeping
    tags = {edge_key(u, v): set(ts) for u, v, ts in tagged}
    adj = {v: dict(nbrs) for v, nbrs in net.adjacency.items()}
    leaf_nodes = set(net.leaf_of_node)
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if v in leaf_nodes or len(adj[v]) != 2:
                continue
            (a, _), (b, _) = sorted(adj[v].items())
            if a == b or b in adj[a]:
                continue
            union = tags.pop(edge_key(v, a)) | tags.pop(edge_key(v, b))
            del adj[v]
            del adj[a][v]
            del adj[b][v]
            adj[a][b] = 1
            adj[b][a] = 1
            tags[edge_key(a, b)] = union
            changed = True
    edges = []
    for key, ts in tags.items():
        u, v = sorted(key)
        weight = sum((system.weight(s) for s in ts), Fraction(0))
        edges.append((u, v, weight))
    return PhyloNetwork.build(leaves, edges, strict=True)


# ---------------------------------------------------------------------------
# predicates tying the maps together


def is_outer_path(system: CircularSplitSystem, tol: float | None = None) -> bool:
    """True iff the weighted rebuild reproduces the split metric as its
    minimum path metric."""
    rebuilt = weighted_network_from_splits(system)
    got = min_path_vector(rebuilt)
    want = split_metric(system)
    return all(
        values_close(a, b, tol) if tol is not None else values_close(a, b)
        for a, b in zip(got.values, want.values)
    )


def is_faithfully_phylogenetic(system: CircularSplitSystem) -> bool:
    """True iff the rebuilt network displays exactly these splits."""
    base = system.strip_weights()
    rebuilt = network_from_splits(base)
    return displayed_splits(rebuilt).splits == base.splits


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
    head_no, head_raw, head_txt = lines[0]
    head = head_txt.split()
    if len(head) < 2 or head[0] != "n":
        raise SizeMismatchError("expected header 'n <count> order <...>'")
    order = None
    with line_errors(head_no, head_raw):
        n = int(head[1])
        if len(head) >= 4 and head[2] == "order" and head[3] != "-":
            order = CircularOrder(tuple(int(x) for x in head[3].split(",")))
    entries = []
    for lineno, raw, ln in lines[1:]:
        with line_errors(lineno, raw):
            w_txt, a_txt, _b_txt = (part.strip() for part in ln.split("|"))
            weight = None if w_txt == "-" else parse_value(w_txt, exact)
            side = {int(x) for x in a_txt.split(",")}
        entries.append((Split(side, n), weight))
    if order is not None:
        return CircularSplitSystem.of_order(n, entries, order)
    return WeightedSplitSystem.of(n, entries)


def load_split_system(path: str, exact: bool = False) -> WeightedSplitSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_split_system(fh.read(), exact)
