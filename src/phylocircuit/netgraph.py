"""Core graph model for unrooted weighted phylogenetic networks.

A network is a simple connected graph whose degree-1 nodes carry the leaf
labels 1..n and whose remaining nodes are anonymous junctions of degree at
least 3.  Edge weights are resistances: exact rationals when every input
weight was exact, floats otherwise.

Structural tools: biconnected blocks and their classification (bridge /
cycle / theta), the block path between two leaves, bridge sets, the
circular leaf orders realizable by outer-planar drawings and the least of
them, and the resistance-preserving wye-delta exchange.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    MALFORMED,
    BadLeafDegreeError,
    BadLeafLabelError,
    BadOrderError,
    DegenerateWeightsError,
    DisconnectedError,
    InternalDegreeTooLowError,
    MultiEdgeError,
    NegativeWeightError,
    NotADegreeThreeNodeError,
    NotATriangleError,
    NotOneNestedError,
    SizeMismatchError,
    ValidationError,
    cannot_parse,
)
from .rational import Value, format_value, parse_value

Edge = frozenset
# block kinds
BRIDGE = "bridge"
CYCLE = "cycle"
THETA = "theta"
OTHER = "other"


def edge_key(u: str, v: str) -> frozenset:
    return frozenset((u, v))


@dataclass(frozen=True)
class CircularOrder:
    """A cyclic sequence of leaf labels, canonical under rotation/reflection.

    Canonical form starts at label 1; for n >= 3 the second element is the
    smaller of label 1's two neighbors.
    """

    labels: tuple[int, ...]

    def __init__(self, labels: Sequence[int]):
        seq = tuple(labels)
        if len(set(seq)) != len(seq) or 1 not in seq:
            raise BadOrderError(f"not a leaf permutation containing 1: {seq}")
        i = seq.index(1)
        seq = seq[i:] + seq[:i]
        if len(seq) >= 3 and seq[1] > seq[-1]:
            seq = (seq[0],) + tuple(reversed(seq[1:]))
        object.__setattr__(self, "labels", seq)

    @property
    def n(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.labels) + ")"


@dataclass(frozen=True)
class PhyloNetwork:
    """Immutable leaf-labeled weighted graph.

    ``leaf_items`` maps labels to node ids; ``edge_items`` holds
    (u, v, weight) triples with u < v, sorted.  Use :func:`validate` or
    :meth:`build` to construct.
    """

    leaf_items: tuple[tuple[int, str], ...]
    edge_items: tuple[tuple[str, str, Value], ...]

    # -- construction -------------------------------------------------

    @classmethod
    def build(
        cls,
        leaves: Mapping[int, str],
        edges: Iterable[tuple[str, str, Value]],
        strict: bool = True,
    ) -> "PhyloNetwork":
        """Assemble and check a network.

        Strict mode enforces the full phylogenetic invariants; non-strict
        mode (internal constructions such as subcircuits and wye-delta
        images) only requires a simple connected graph with correctly
        labeled degree-1 leaves.  Integer weights become Fractions, and one
        weight of any other type makes every weight a float.
        """
        norm = []
        seen = set()
        floats = 0
        for u, v, w in edges:
            u, v = str(u), str(v)
            if u == v:
                raise MultiEdgeError(f"self-loop at {u}")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise MultiEdgeError(f"duplicate edge {u}-{v}")
            seen.add(pair)
            if isinstance(w, int):
                w = Fraction(w)
            if type(w) is Fraction:
                negative = w.numerator < 0  # Fraction's own < is far slower
            else:
                w = float(w)
                if not math.isfinite(w):
                    raise ValidationError(f"edge {u}-{v} has non-finite weight {w}")
                negative = w < 0
                floats += 1
            if negative:
                raise NegativeWeightError(f"edge {u}-{v} has weight {w}")
            norm.append((*pair, w))
        if 0 < floats < len(norm):
            norm = [(u, v, float(w)) for u, v, w in norm]
        norm.sort()  # the pairs are distinct, so weights are never compared
        leaf_items = tuple(sorted((int(k), str(v)) for k, v in leaves.items()))
        net = cls(leaf_items=leaf_items, edge_items=tuple(norm))
        net._check(strict)
        return net

    def _check(self, strict: bool) -> None:
        adj = self.adjacency
        labels = [lab for lab, _ in self.leaf_items]
        leaf_nodes = {node for _, node in self.leaf_items}
        if len(leaf_nodes) != len(self.leaf_items):
            raise BadLeafLabelError("two labels share a node")
        if strict and (labels != list(range(1, len(labels) + 1)) or len(labels) < 2):
            raise BadLeafLabelError(f"labels must be 1..n with n >= 2, got {labels}")
        for _, node in self.leaf_items:
            degree = len(adj[node])  # adjacency lists every leaf node
            if degree == 0 or (strict and degree != 1):
                raise BadLeafDegreeError(f"labeled node {node} has degree {degree}")
        if strict:
            for node, nbrs in adj.items():
                if len(nbrs) < 3 and node not in leaf_nodes:
                    if len(nbrs) == 1:
                        raise BadLeafDegreeError(f"degree-1 node {node} has no label")
                    if len(nbrs) == 2:
                        raise InternalDegreeTooLowError(f"node {node} has degree 2")
        # connectivity
        if adj:
            start = next(iter(adj))
            seen = {start}
            stack = [start]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != len(adj):
                raise DisconnectedError(
                    f"{len(adj) - len(seen)} nodes unreachable from {start}"
                )

    # -- cached views --------------------------------------------------

    @property
    def adjacency(self) -> dict[str, dict[str, Value]]:
        cached = self.__dict__.get("_adjacency")
        if cached is None:
            cached = {}
            for u, v, w in self.edge_items:
                if u in cached:
                    cached[u][v] = w
                else:
                    cached[u] = {v: w}
                if v in cached:
                    cached[v][u] = w
                else:
                    cached[v] = {u: w}
            for _, node in self.leaf_items:
                if node not in cached:
                    cached[node] = {}
            self.__dict__["_adjacency"] = cached
        return cached

    @property
    def leaves(self) -> dict[int, str]:
        return dict(self.leaf_items)

    @property
    def leaf_of_node(self) -> dict[str, int]:
        return {node: lab for lab, node in self.leaf_items}

    @property
    def n(self) -> int:
        return len(self.leaf_items)

    @property
    def nodes(self) -> list[str]:
        return sorted(self.adjacency)

    @property
    def edges(self) -> dict[frozenset, Value]:
        return {edge_key(u, v): w for u, v, w in self.edge_items}

    def weight(self, u: str, v: str) -> Value:
        return self.adjacency[u][v]

    def degree(self, v: str) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: str) -> list[str]:
        return sorted(self.adjacency[v])

    @property
    def is_exact(self) -> bool:
        return all(isinstance(w, Fraction) for _, _, w in self.edge_items)

    @property
    def total_weight(self) -> Value:
        return sum((w for _, _, w in self.edge_items), Fraction(0))


# ---------------------------------------------------------------------------
# validation entry point


def validate(
    leaves: Mapping[int, str],
    edges: Iterable[tuple[str, str, Value]],
) -> PhyloNetwork:
    """Build a network enforcing every structural invariant."""
    return PhyloNetwork.build(leaves, edges, strict=True)


# ---------------------------------------------------------------------------
# blocks


@dataclass(frozen=True)
class Block:
    kind: str
    nodes: frozenset
    edges: frozenset


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks and cut vertices, with the block-cut tree rooted at leaf 1's
    node as the search that found them left it."""

    blocks: tuple[Block, ...]
    cut_vertices: frozenset
    # node -> indices of the blocks holding it, in block order
    blocks_at: Mapping[str, list[int]] = field(compare=False, repr=False)
    # per block, its entry: its node nearest leaf 1's node
    entries: tuple[str, ...] = field(default=(), compare=False, repr=False)
    # block indices, every block after the blocks beyond it
    children_first: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def of_kind(self, kind: str) -> list[Block]:
        return [b for b in self.blocks if b.kind == kind]


@dataclass(frozen=True)
class Classification:
    level: int | None  # None means beyond level 2
    triangle_free: bool
    blocks: BlockDecomposition

    @property
    def level_name(self) -> str:
        return "higher" if self.level is None else str(self.level)


def _biconnected(net: PhyloNetwork) -> list[tuple[tuple, frozenset, str]]:
    """Iterative Hopcroft-Tarjan from leaf 1's node (any node when there is
    no label 1): the least edge, edge set and entry of each block.

    The network is connected, so one search reaches every node.  A block
    closes at its tree edge (u, v), and u, its node nearest the root, is its
    entry; the blocks come in the order they close, each after every block
    beyond it.  The DFS follows adjacency order; the blocks of a graph do
    not depend on the order of the search.
    """
    adj = net.adjacency
    root = net.leaves.get(1, next(iter(adj), None))
    if root is None:
        return []  # a non-strict network with no node
    disc: dict[str, int] = {root: 0}
    low: dict[str, int] = {root: 0}
    components: list[tuple[tuple, frozenset, str]] = []
    edge_stack: list[tuple[str, str]] = []  # sorted node pairs
    # node, its parent, its neighbours left, the edge stack's height at its tree edge
    stack = [(root, None, iter(adj[root]), 0)]
    while stack:
        v, u, it, mark = stack[-1]
        for w in it:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, v, iter(adj[w]), len(edge_stack)))
                edge_stack.append((v, w) if v < w else (w, v))
                break
            if w != u and disc[w] < disc[v]:
                edge_stack.append((v, w) if v < w else (w, v))
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if u is not None:
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:  # the block of tree edge (u, v) closes
                    comp = edge_stack[mark:]
                    del edge_stack[mark:]
                    components.append((min(comp), frozenset(map(frozenset, comp)), u))
    return components


def _classify_block(edges: frozenset) -> Block:
    deg: dict[str, int] = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    nodes = frozenset(deg)
    m, n = len(edges), len(nodes)
    if m == 1:
        kind = BRIDGE
    elif m == n and all(d == 2 for d in deg.values()):
        kind = CYCLE
    elif m == n + 1:
        counts = list(deg.values())
        kind = THETA if counts.count(3) == 2 and counts.count(2) == n - 2 else OTHER
    else:
        kind = OTHER
    return Block(kind=kind, nodes=nodes, edges=edges)


def block_decomposition(net: PhyloNetwork) -> BlockDecomposition:
    """Blocks and cut vertices, computed once per network and cached.

    Blocks are ordered by their least edge (as a sorted node pair); blocks
    share no edge, so this is the order of their sorted edge lists.  Each
    block keeps its entry, and ``children_first`` lists the blocks in the
    order the search from leaf 1 closed them.
    """
    cached = net.__dict__.get("_blocks")
    if cached is None:
        comps = _biconnected(net)
        by_edge = sorted(range(len(comps)), key=[c[0] for c in comps].__getitem__)
        blocks = tuple(_classify_block(comps[c][1]) for c in by_edge)
        blocks_at: dict[str, list[int]] = {}
        for bi, b in enumerate(blocks):
            for v in b.nodes:
                blocks_at.setdefault(v, []).append(bi)
        entries = tuple(comps[c][2] for c in by_edge)
        # a cut vertex is an entry that lies in a second block
        cuts = frozenset(v for v in entries if len(blocks_at[v]) > 1)
        children_first = tuple(sorted(range(len(comps)), key=by_edge.__getitem__))
        cached = BlockDecomposition(blocks, cuts, blocks_at, entries, children_first)
        net.__dict__["_blocks"] = cached
    return cached


def block_path(net: PhyloNetwork, i: int, j: int) -> list[Block]:
    """Blocks along the block-cut-tree path from leaf i's pendant to leaf j's.

    Each leaf climbs from its pendant block to the block's entry, then to
    the block holding that node as a non-entry node, and so on up to leaf
    1's node; the path runs up i's chain to the first block or cut vertex
    on j's chain, then down j's chain.  Their edges are the union of all
    simple paths between the two leaves.
    """
    leaves = net.leaves
    for label in (i, j):
        if label not in leaves:
            raise SizeMismatchError(f"no leaf {label} in a network on 1..{net.n}")
    decomp = block_decomposition(net)
    blocks, blocks_at, entries = decomp.blocks, decomp.blocks_at, decomp.entries

    def climb(bi: int) -> list:
        # block indices (ints) alternate with their entries (node ids)
        chain = [bi]
        while True:
            v = entries[chain[-1]]
            chain.append(v)
            up = next((b for b in blocks_at[v] if entries[b] != v), None)
            if up is None:
                return chain
            chain.append(up)

    up_i, up_j = climb(blocks_at[leaves[i]][0]), climb(blocks_at[leaves[j]][0])
    at_j = {x: k for k, x in enumerate(up_j)}
    meet = next(k for k, x in enumerate(up_i) if x in at_j)
    path = up_i[: meet + 1] + up_j[: at_j[up_i[meet]]][::-1]
    return [blocks[x] for x in path if isinstance(x, int)]


def _has_triangle(net: PhyloNetwork) -> bool:
    adj = net.adjacency
    for u, v, _ in net.edge_items:
        if not adj[u].keys().isdisjoint(adj[v]):
            return True
    return False


def classify(net: PhyloNetwork) -> Classification:
    """Nesting level (0 tree, 1, 2, or higher) plus triangle-freeness.

    Computed once per network and cached, like the block decomposition
    it carries.
    """
    cached = net.__dict__.get("_class")
    if cached is None:
        decomp = block_decomposition(net)
        kinds = {b.kind for b in decomp.blocks}
        if kinds <= {BRIDGE}:
            level = 0
        elif kinds <= {BRIDGE, CYCLE}:
            level = 1
        elif kinds <= {BRIDGE, CYCLE, THETA}:
            level = 2
        else:
            level = None
        cached = Classification(
            level=level, triangle_free=not _has_triangle(net), blocks=decomp
        )
        net.__dict__["_class"] = cached
    return cached


@dataclass(frozen=True)
class BridgeSets:
    trivial: frozenset
    nontrivial: frozenset

    @property
    def k(self) -> int:
        return len(self.nontrivial)


def bridges(net: PhyloNetwork) -> BridgeSets:
    """Cut edges, split into pendant (trivial) and internal (nontrivial)."""
    decomp = block_decomposition(net)
    leaf_nodes = set(net.leaf_of_node)
    trivial, nontrivial = set(), set()
    for b in decomp.blocks:
        if b.kind != BRIDGE:
            continue
        (e,) = b.edges
        if any(x in leaf_nodes for x in e):
            trivial.add(e)
        else:
            nontrivial.add(e)
    return BridgeSets(trivial=frozenset(trivial), nontrivial=frozenset(nontrivial))


def is_binary(net: PhyloNetwork) -> bool:
    leaf_nodes = set(net.leaf_of_node)
    return all(
        net.degree(v) == 3 for v in net.nodes if v not in leaf_nodes
    )


# ---------------------------------------------------------------------------
# consistent circular orders


def cycle_node_sequence(block: Block, start: str | None = None) -> list[str]:
    """Nodes of a cycle block in ring order, optionally starting at a node."""
    adj: dict[str, list[str]] = {}
    for u, v in block.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    first = start if start is not None else min(adj)
    # the first step goes to the smaller neighbour; every later one to the
    # ring neighbour that is not the node just left
    seq = [first, min(adj[first])]
    while True:
        a, b = adj[seq[-1]]
        nxt = b if a == seq[-2] else a
        if nxt == first:
            return seq
        seq.append(nxt)


def _leaf_one_neighbor(net: PhyloNetwork) -> str:
    """The node next to leaf 1, where every outward reading starts.  A
    non-strict network may give leaf 1 more than one neighbour."""
    anchor = net.leaves[1]
    nbrs = net.neighbors(anchor)
    if len(nbrs) != 1:
        raise BadLeafDegreeError(f"labeled node {anchor} has degree {len(nbrs)}")
    return nbrs[0]


def consistent_orders(net: PhyloNetwork) -> frozenset[CircularOrder]:
    """All circular leaf orders realizable by outer-planar drawings.

    An exponential enumeration, kept as an oracle (:func:`canonical_order`
    builds the least order directly).  Read outward from leaf 1 over the
    cached blocks: every permutation of the blocks hanging from a node,
    each read beyond its far end (a bridge) or along both walks of its
    ring (a cycle).  The tails are closed under reversal, so only those
    whose first label is at most their last are kept.  Requires level <= 1.
    """
    cls = classify(net)
    if cls.level is None or cls.level > 1:
        raise NotOneNestedError(f"level {cls.level_name} network")
    blocks, blocks_at = cls.blocks.blocks, cls.blocks.blocks_at
    leaf_of_node = net.leaf_of_node

    def joined(parts) -> list[tuple[int, ...]]:
        """Every reading of the parts in this order, one option each."""
        flat = itertools.chain.from_iterable
        return [tuple(flat(c)) for c in itertools.product(*parts)]

    def beyond(v: str, parent: int) -> list[tuple[int, ...]]:
        if v in leaf_of_node:
            return [(leaf_of_node[v],)]
        hanging = []
        for bi in blocks_at[v]:
            b = blocks[bi]
            if bi == parent:
                continue
            if b.kind == CYCLE:
                parts = [beyond(u, bi) for u in cycle_node_sequence(b, start=v)[1:]]
                hanging.append(joined(parts) + joined(parts[::-1]))
            else:
                (u,) = b.nodes - {v}
                hanging.append(beyond(u, bi))
        return [t for perm in itertools.permutations(hanging) for t in joined(perm)]

    anchor = net.leaves[1]
    v0 = _leaf_one_neighbor(net)
    tails = beyond(v0, blocks_at[anchor][0])
    return frozenset(CircularOrder((1,) + t) for t in tails if t[0] <= t[-1])


def outward_reading(net: PhyloNetwork) -> dict[str, tuple[int, ...]]:
    """Every node but leaf 1's -> the labels beyond it, seen from leaf 1.

    Computed once per network and cached.  Each reading is the least
    exterior reading of the part hanging beyond its node: subtrees carry
    disjoint labels, so a junction joins its blocks' least readings sorted
    by first label.  The blocks are read children first, each from its
    entry: a bridge gives the reading of its far node, and a cycle the
    smaller of its two walks.  Requires level <= 1.
    """
    cached = net.__dict__.get("_reading")
    if cached is not None:
        return cached
    cls = classify(net)
    if cls.level is None or cls.level > 1:
        raise NotOneNestedError(f"level {cls.level_name} network")
    _leaf_one_neighbor(net)  # leaf 1 hangs from one node
    decomp, leaf_of_node = cls.blocks, net.leaf_of_node
    # node -> least readings of the blocks whose entry it is
    hanging: dict[str, list[tuple[int, ...]]] = {}
    reading: dict[str, tuple[int, ...]] = {}
    for bi in decomp.children_first:
        b, r = decomp.blocks[bi], decomp.entries[bi]
        walk = [*b.nodes - {r}] if b.kind == BRIDGE else cycle_node_sequence(b, r)[1:]
        for u in walk:  # every block beyond u is read by now
            if u in leaf_of_node:
                reading[u] = (leaf_of_node[u],)
            else:
                parts = sorted(hanging.get(u, ()))
                reading[u] = tuple(x for part in parts for x in part)
        there = tuple(x for u in walk for x in reading[u])
        back = tuple(x for u in reversed(walk) for x in reading[u])
        hanging.setdefault(r, []).append(min(there, back))
    net.__dict__["_reading"] = reading
    return reading


def canonical_order(net: PhyloNetwork) -> CircularOrder:
    """The least consistent order: leaf 1, then the reading beyond it.

    Equals the least of :func:`consistent_orders` without enumerating them.
    Requires level <= 1.
    """
    reading = outward_reading(net)
    return CircularOrder((1,) + reading[_leaf_one_neighbor(net)])


# ---------------------------------------------------------------------------
# wye-delta exchange


def wye_delta(net: PhyloNetwork, site: Sequence[str] | str) -> PhyloNetwork:
    """Resistance-preserving exchange between a triangle and a 3-star.

    ``site`` is either three mutually adjacent nodes (triangle to star,
    introducing a fresh center) or one degree-3 node (star to triangle,
    removing the center).  Leaf distances, and distances among all nodes
    away from the site, are unchanged.
    """
    if isinstance(site, str):
        return _star_to_triangle(net, site)
    site = tuple(site)
    if len(site) == 1:
        return _star_to_triangle(net, site[0])
    if len(site) != 3:
        raise NotATriangleError(f"site must be 3 nodes or 1 node, got {site}")
    return _triangle_to_star(net, site)


def _fresh_node(net: PhyloNetwork) -> str:
    i = 0
    while f"yd{i}" in net.adjacency:
        i += 1
    return f"yd{i}"


def _triangle_to_star(net: PhyloNetwork, corners: tuple[str, str, str]) -> PhyloNetwork:
    a, b, c = corners
    adj = net.adjacency
    for u, v in ((a, b), (b, c), (a, c)):
        if v not in adj.get(u, {}):
            raise NotATriangleError(f"{u} and {v} are not adjacent")
    r_ab, r_bc, r_ca = adj[a][b], adj[b][c], adj[c][a]
    total = r_ab + r_bc + r_ca
    if total == 0:
        raise DegenerateWeightsError("triangle has zero total weight")
    center = _fresh_node(net)
    drop = {edge_key(a, b), edge_key(b, c), edge_key(a, c)}
    edges = [(u, v, w) for u, v, w in net.edge_items if edge_key(u, v) not in drop]
    # arm at a corner = product of its two triangle edges over the total
    edges.append((a, center, r_ab * r_ca / total))
    edges.append((b, center, r_ab * r_bc / total))
    edges.append((c, center, r_bc * r_ca / total))
    return PhyloNetwork.build(net.leaves, edges, strict=False)


def _star_to_triangle(net: PhyloNetwork, center: str) -> PhyloNetwork:
    adj = net.adjacency
    if center in net.leaf_of_node or len(adj.get(center, {})) != 3:
        raise NotADegreeThreeNodeError(f"{center} is not an unlabeled degree-3 node")
    (a, r_a), (b, r_b), (c, r_c) = sorted(adj[center].items())
    if r_a == 0 or r_b == 0 or r_c == 0:
        raise DegenerateWeightsError("zero arm weight")
    p = r_a * r_b + r_b * r_c + r_c * r_a
    edges = [
        (u, v, w)
        for u, v, w in net.edge_items
        if center not in (u, v)
    ]

    def add(u: str, v: str, w: Value) -> None:
        # merge in parallel when the triangle edge already exists
        for i, (x, y, old) in enumerate(edges):
            if edge_key(x, y) == edge_key(u, v):
                edges[i] = (x, y, old * w / (old + w))
                return
        edges.append((u, v, w))

    add(a, b, p / r_c)
    add(b, c, p / r_a)
    add(a, c, p / r_b)
    leaves = net.leaves
    return PhyloNetwork.build(leaves, edges, strict=False)


# ---------------------------------------------------------------------------
# serialization

_TEXT_HEADER = "# phylocircuit network"


def parse_network_text(text: str, exact: bool = False) -> PhyloNetwork:
    """Line format: ``leaf <label> <node>`` and ``edge <u> <v> <weight>``.
    Decimal weights are floats unless ``exact`` reads them as rationals."""
    leaves: dict[int, str] = {}
    leaf_lines: dict[int, int] = {}
    edges: list[tuple[str, str, Value]] = []
    # one handler for the whole loop; lineno and raw name the line it stopped at
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "leaf" and len(parts) == 3:
                label = int(parts[1])
                if label in leaves:
                    raise ValidationError(
                        f"line {lineno}: leaf label {label} repeats line {leaf_lines[label]}"
                    )
                leaves[label] = parts[2]
                leaf_lines[label] = lineno
            elif parts[0] == "edge" and len(parts) == 4:
                edges.append((parts[1], parts[2], parse_value(parts[3], exact)))
            else:
                raise ValueError("unknown line")
    except MALFORMED as exc:
        raise cannot_parse(lineno, raw) from exc
    return validate(leaves, edges)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is an error, not a silent
    overwrite by its last value."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"network JSON repeats the key {key!r}")
        obj[key] = value
    return obj


def parse_network_json(text: str, exact: bool = False) -> PhyloNetwork:
    """JSON object form: ``{"leaves": {"1": "a"}, "edges": [["a","b","1/2"]]}``.
    Decimal weights, quoted or not, are floats unless ``exact`` reads them
    as rationals."""
    try:
        obj = json.loads(
            text, object_pairs_hook=_unique_keys, parse_float=str if exact else float
        )
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"line {exc.lineno}: malformed JSON, {exc.msg}"
        ) from exc
    if not (
        isinstance(obj, dict)
        and isinstance(obj.get("leaves"), dict)
        and isinstance(obj.get("edges"), list)
    ):
        raise ValidationError(
            "network JSON needs a 'leaves' object and an 'edges' list"
        )
    try:
        leaves: dict[int, str] = {}
        for k, v in obj["leaves"].items():
            label = int(k)
            if label in leaves:
                raise ValidationError(f"leaf label {label} is given twice")
            leaves[label] = str(v)
        edges = []
        for u, v, w in obj["edges"]:
            value = parse_value(str(w), exact) if not isinstance(w, float) else float(w)
            edges.append((str(u), str(v), value))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"malformed network JSON: {exc}") from exc
    return validate(leaves, edges)


def parse_network(text: str, exact: bool = False) -> PhyloNetwork:
    if text.lstrip().startswith("{"):
        return parse_network_json(text, exact)
    return parse_network_text(text, exact)


def load_network(path: str, exact: bool = False) -> PhyloNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network(fh.read(), exact)


def network_to_text(net: PhyloNetwork, precision: int = 6) -> str:
    lines = [_TEXT_HEADER]
    for label, node in net.leaf_items:
        lines.append(f"leaf {label} {node}")
    for u, v, w in net.edge_items:
        lines.append(f"edge {u} {v} {format_value(w, precision)}")
    return "\n".join(lines) + "\n"


def network_to_json(net: PhyloNetwork, precision: int = 6) -> str:
    obj = {
        "leaves": {str(k): v for k, v in net.leaf_items},
        "edges": [[u, v, format_value(w, precision)] for u, v, w in net.edge_items],
    }
    return json.dumps(obj, indent=2, sort_keys=True)
