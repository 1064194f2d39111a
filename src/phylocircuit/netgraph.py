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
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
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
    ValidationError,
    line_errors,
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
            raise ValueError(f"not a leaf permutation containing 1: {seq}")
        i = seq.index(1)
        seq = seq[i:] + seq[:i]
        if len(seq) >= 3 and seq[1] > seq[-1]:
            seq = (seq[0],) + tuple(reversed(seq[1:]))
        object.__setattr__(self, "labels", seq)

    @property
    def n(self) -> int:
        return len(self.labels)

    def position(self, label: int) -> int:
        return self.labels.index(label)

    def __iter__(self) -> Iterator[int]:
        return iter(self.labels)

    def __len__(self) -> int:
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
        labeled degree-1 leaves.
        """
        norm = []
        seen = set()
        for u, v, w in edges:
            u, v = str(u), str(v)
            if u == v:
                raise MultiEdgeError(f"self-loop at {u}")
            key = edge_key(u, v)
            if key in seen:
                raise MultiEdgeError(f"duplicate edge {u}-{v}")
            seen.add(key)
            if isinstance(w, int):
                w = Fraction(w)
            if isinstance(w, float) and not math.isfinite(w):
                raise ValidationError(f"edge {u}-{v} has non-finite weight {w}")
            if w < 0:
                raise NegativeWeightError(f"edge {u}-{v} has weight {w}")
            norm.append((min(u, v), max(u, v), w))
        norm.sort(key=lambda t: (t[0], t[1]))
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
        if strict and (not labels or labels != list(range(1, len(labels) + 1)) or len(labels) < 2):
            raise BadLeafLabelError(f"labels must be 1..n with n >= 2, got {labels}")
        for _, node in self.leaf_items:
            if node not in adj:
                raise ValidationError(f"leaf node {node} has no edges")
            if strict and len(adj[node]) != 1:
                raise BadLeafDegreeError(f"labeled node {node} has degree {len(adj[node])}")
        if strict:
            for node, nbrs in adj.items():
                if node in leaf_nodes:
                    continue
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
                cached.setdefault(u, {})[v] = w
                cached.setdefault(v, {})[u] = w
            for _, node in self.leaf_items:
                cached.setdefault(node, {})
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

    # -- derived networks ----------------------------------------------

    def with_edge_weight(self, u: str, v: str, w: Value) -> "PhyloNetwork":
        key = edge_key(u, v)
        edges = [(a, b, w if edge_key(a, b) == key else x) for a, b, x in self.edge_items]
        return PhyloNetwork.build(self.leaves, edges, strict=False)

    def unit_weights(self) -> "PhyloNetwork":
        """Forget weights (every edge becomes 1)."""
        edges = [(a, b, Fraction(1)) for a, b, _ in self.edge_items]
        return PhyloNetwork.build(self.leaves, edges, strict=False)

    def without_edge(self, u: str, v: str, smooth: bool = True) -> "PhyloNetwork":
        """Delete an edge; optionally merge the degree-2 junctions left behind."""
        key = edge_key(u, v)
        edges = [(a, b, w) for a, b, w in self.edge_items if edge_key(a, b) != key]
        net = PhyloNetwork.build(self.leaves, edges, strict=False)
        return smooth_degree_two(net) if smooth else net

    def __str__(self) -> str:
        return network_to_text(self)


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

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    cut_vertices: frozenset
    # node -> indices of the blocks holding it, in block order
    blocks_at: Mapping[str, list[int]] = field(compare=False, repr=False)

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


def _biconnected(net: PhyloNetwork) -> tuple[list[frozenset], frozenset]:
    """Iterative Hopcroft-Tarjan: returns (edge sets of blocks, cut vertices)."""
    adj = net.adjacency
    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    parent: dict[str, str | None] = {}
    cuts: set[str] = set()
    components: list[frozenset] = []
    counter = itertools.count()
    edge_stack: list[tuple[str, str]] = []

    for root in net.nodes:
        if root in disc:
            continue
        parent[root] = None
        stack = [(root, iter(net.neighbors(root)))]
        disc[root] = low[root] = next(counter)
        root_children = 0
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w not in disc:
                    parent[w] = v
                    if v == root:
                        root_children += 1
                    edge_stack.append((v, w))
                    disc[w] = low[w] = next(counter)
                    stack.append((w, iter(net.neighbors(w))))
                    advanced = True
                    break
                elif w != parent[v] and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    # pop the block rooted at tree edge (u, v)
                    comp = []
                    while edge_stack:
                        e = edge_stack.pop()
                        comp.append(edge_key(*e))
                        if e == (u, v):
                            break
                    components.append(frozenset(comp))
                    if parent[u] is not None or root_children > 1:
                        cuts.add(u)
        # isolated nodes produce no blocks
    return components, frozenset(cuts)


def _classify_block(net: PhyloNetwork, edges: frozenset) -> Block:
    nodes = frozenset(x for e in edges for x in e)
    deg: dict[str, int] = {v: 0 for v in nodes}
    for e in edges:
        for x in e:
            deg[x] += 1
    if len(edges) == 1:
        kind = BRIDGE
    elif all(d == 2 for d in deg.values()) and len(edges) == len(nodes):
        kind = CYCLE
    elif (
        len(edges) == len(nodes) + 1
        and sorted(deg.values()).count(3) == 2
        and sorted(deg.values()).count(2) == len(nodes) - 2
    ):
        kind = THETA
    else:
        kind = OTHER
    return Block(kind=kind, nodes=nodes, edges=edges)


def block_decomposition(net: PhyloNetwork) -> BlockDecomposition:
    """Blocks and cut vertices, computed once per network and cached."""
    cached = net.__dict__.get("_blocks")
    if cached is None:
        comps, cuts = _biconnected(net)
        blocks = tuple(
            sorted(
                (_classify_block(net, c) for c in comps),
                key=lambda b: sorted(tuple(sorted(e)) for e in b.edges),
            )
        )
        blocks_at: dict[str, list[int]] = {}
        for bi, b in enumerate(blocks):
            for v in b.nodes:
                blocks_at.setdefault(v, []).append(bi)
        cached = BlockDecomposition(blocks, cuts, blocks_at)
        net.__dict__["_blocks"] = cached
    return cached


def block_path(net: PhyloNetwork, i: int, j: int) -> list[Block]:
    """Blocks along the block-cut-tree path from leaf i's pendant to leaf j's.

    Their edges are the union of all simple paths between the two leaves.
    """
    decomp = block_decomposition(net)
    blocks, blocks_at = decomp.blocks, decomp.blocks_at
    start, goal = blocks_at[net.leaves[i]][0], blocks_at[net.leaves[j]][0]
    # search from j's end, so the links followed back from i run i to j
    toward_j: dict[int, int | None] = {goal: None}
    queue = deque([goal])
    while start not in toward_j:
        cur = queue.popleft()
        for v in blocks[cur].nodes:
            for nb in blocks_at[v]:
                if nb not in toward_j:
                    toward_j[nb] = cur
                    queue.append(nb)
    path = [start]
    while toward_j[path[-1]] is not None:
        path.append(toward_j[path[-1]])
    return [blocks[bi] for bi in path]


def _has_triangle(net: PhyloNetwork) -> bool:
    adj = net.adjacency
    for u, v, _ in net.edge_items:
        if set(adj[u]) & set(adj[v]):
            return True
    return False


def classify(net: PhyloNetwork) -> Classification:
    """Nesting level (0 tree, 1, 2, or higher) plus triangle-freeness."""
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
    return Classification(
        level=level, triangle_free=not _has_triangle(net), blocks=decomp
    )


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
    for e in block.edges:
        u, v = sorted(e)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    first = start if start is not None else min(adj)
    seq = [first]
    prev = None
    while True:
        nxt = [x for x in sorted(adj[seq[-1]]) if x != prev]
        prev = seq[-1]
        seq.append(nxt[0])
        if seq[-1] == first:
            seq.pop()
            return seq


def consistent_orders(net: PhyloNetwork) -> frozenset[CircularOrder]:
    """All circular leaf orders realizable by outer-planar drawings.

    An exponential enumeration, kept as an oracle (:func:`canonical_order`
    builds the least order directly): every arrangement of the items at
    each junction and direction around each cycle, read around the
    exterior and deduplicated canonically.  Requires level <= 1.
    """
    cls = classify(net)
    if cls.level is None or cls.level > 1:
        raise NotOneNestedError(f"level {cls.level_name} network")
    leaf_of_node = net.leaf_of_node
    if net.n == 2:
        return frozenset({CircularOrder((1, 2))})

    cycle_blocks = cls.blocks.of_kind(CYCLE)
    cycles_at: dict[str, list[Block]] = {}
    cycle_edges: set[frozenset] = set()
    for b in cycle_blocks:
        cycle_edges |= b.edges
        for v in b.nodes:
            cycles_at.setdefault(v, []).append(b)

    def items_at(v: str) -> list:
        out: list = []
        for u in net.neighbors(v):
            e = edge_key(v, u)
            if e not in cycle_edges:
                out.append(("edge", u))
        for b in cycles_at.get(v, []):
            out.append(("cycle", b))
        return out

    def visit_vertex(v: str, excluded) -> set[tuple[int, ...]]:
        if v in leaf_of_node:
            return {(leaf_of_node[v],)}
        items = [it for it in items_at(v) if it != excluded]
        results: set[tuple[int, ...]] = set()
        per_item = [visit_item(v, it) for it in items]
        for perm in itertools.permutations(range(len(items))):
            for combo in itertools.product(*(per_item[i] for i in perm)):
                results.add(tuple(x for part in combo for x in part))
        return results

    def visit_item(v: str, item) -> set[tuple[int, ...]]:
        kind, payload = item
        if kind == "edge":
            return visit_vertex(payload, ("edge", v))
        ring = cycle_node_sequence(payload, start=v)
        rest = ring[1:]
        results: set[tuple[int, ...]] = set()
        for walk in (rest, list(reversed(rest))):
            parts = [visit_vertex(u, ("cycle", payload)) for u in walk]
            for combo in itertools.product(*parts):
                results.add(tuple(x for part in combo for x in part))
        return results

    anchor = net.leaves[1]
    (v0,) = net.neighbors(anchor)
    tails = visit_vertex(v0, ("edge", anchor))
    return frozenset(CircularOrder((1,) + t) for t in tails)


def canonical_order(net: PhyloNetwork) -> CircularOrder:
    """The least consistent order, read off the network in one traversal.

    Equals the least of :func:`consistent_orders` without enumerating them.
    Subtrees carry disjoint labels, so the least reading below a junction
    joins its items' least readings sorted by first label, and a cycle
    gives the smaller of its two walks.  Requires level <= 1.
    """
    cls = classify(net)
    if cls.level is None or cls.level > 1:
        raise NotOneNestedError(f"level {cls.level_name} network")
    blocks, leaf_of_node = cls.blocks, net.leaf_of_node
    anchor = net.leaves[1]
    (v0,) = net.neighbors(anchor)
    # Outward from leaf 1, every node lists the blocks hanging below it as
    # runs of nodes (ring order for a cycle); dict order is visit order.
    walks: dict[str, list[list[str]]] = {}
    seen, stack = {anchor, v0}, [v0]
    while stack:
        v = stack.pop()
        walks[v] = []
        for b in (blocks.blocks[bi] for bi in blocks.blocks_at[v]):
            if b.kind == CYCLE:
                walk = cycle_node_sequence(b, start=v)[1:]
            else:
                walk = list(b.nodes - {v})
            if walk[0] not in seen:
                walks[v].append(walk)
                seen.update(walk)
                stack.extend(walk)

    reading: dict[str, tuple[int, ...]] = {}

    def read(walk: list[str]) -> tuple[int, ...]:
        return tuple(x for u in walk for x in reading[u])

    for v in reversed(walks):  # every node after the nodes below it
        if v in leaf_of_node:
            reading[v] = (leaf_of_node[v],)
        else:
            parts = sorted(min(read(w), read(w[::-1])) for w in walks[v])
            reading[v] = tuple(x for part in parts for x in part)
    return CircularOrder((1,) + reading[v0])


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


def _fresh_node(net: PhyloNetwork, prefix: str = "yd") -> str:
    existing = set(net.adjacency)
    i = 0
    while f"{prefix}{i}" in existing:
        i += 1
    return f"{prefix}{i}"


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
# surgery helpers


def smooth_degree_two(net: PhyloNetwork) -> PhyloNetwork:
    """Merge series edges at unlabeled degree-2 nodes."""
    adj = {v: dict(nbrs) for v, nbrs in net.adjacency.items()}
    leaf_nodes = set(net.leaf_of_node)
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if v in leaf_nodes or len(adj[v]) != 2:
                continue
            (a, wa), (b, wb) = sorted(adj[v].items())
            if a == b:
                continue
            del adj[v]
            del adj[a][v]
            del adj[b][v]
            if b in adj[a]:
                # parallel with an existing edge: combine conductances
                old = adj[a][b]
                w = wa + wb
                merged = old * w / (old + w)
                adj[a][b] = merged
                adj[b][a] = merged
            else:
                adj[a][b] = wa + wb
                adj[b][a] = wa + wb
            changed = True
    edges = []
    for u in adj:
        for v, w in adj[u].items():
            if u < v:
                edges.append((u, v, w))
    return PhyloNetwork.build(net.leaves, edges, strict=False)


# ---------------------------------------------------------------------------
# serialization

_TEXT_HEADER = "# phylocircuit network"


def parse_network_text(text: str) -> PhyloNetwork:
    """Line format: ``leaf <label> <node>`` and ``edge <u> <v> <weight>``."""
    leaves: dict[int, str] = {}
    edges: list[tuple[str, str, Value]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        with line_errors(lineno, raw):
            if parts[0] == "leaf" and len(parts) == 3:
                leaves[int(parts[1])] = parts[2]
            elif parts[0] == "edge" and len(parts) == 4:
                edges.append((parts[1], parts[2], parse_value(parts[3])))
            else:
                raise ValueError("unknown line")
    return validate(leaves, edges)


def parse_network_json(text: str) -> PhyloNetwork:
    """JSON object form: ``{"leaves": {"1": "a"}, "edges": [["a","b","1/2"]]}``."""
    obj = json.loads(text)
    leaves = {int(k): str(v) for k, v in obj["leaves"].items()}
    edges = []
    for u, v, w in obj["edges"]:
        value = parse_value(str(w)) if not isinstance(w, float) else float(w)
        edges.append((str(u), str(v), value))
    return validate(leaves, edges)


def parse_network(text: str) -> PhyloNetwork:
    if text.lstrip().startswith("{"):
        return parse_network_json(text)
    return parse_network_text(text)


def load_network(path: str) -> PhyloNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network(fh.read())


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
