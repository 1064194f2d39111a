"""The benchmark's four workloads: seeded inputs, the op each input runs,
and the independent check of every answer.

An op receives only generated text, which it parses with
``netgraph.parse_network`` or ``metrics.parse_distance_vector``.  Inputs
cycle through the workload's size classes in a fixed order, and a run is a
whole number of cycles, so every run has the same mix.  ``cycle_seconds`` is
the nominal wall time of one cycle, checks included, on a 2-vCPU x86-64
virtual machine at the commit that added the benchmark.  Input i takes its
network shape (and its chord and label shuffle) from
``Random(f"{workload}:shape:{i}")`` and its edge weights from
``Random(f"{workload}:{seed}:{i}")``.  A seed thus fixes every
input, and runs with different seeds compare the same shapes under
different weights: much of this library's cost grows exponentially with the
shape (the number of consistent orders), so shapes drawn per seed would
make runs with different seeds measure different work.
"""

from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx

from harness import Case, NoAnswer
from phylocircuit import enum2, metrics, netgraph, polytope, reconstruct, splits
from phylocircuit.randomnet import random_one_nested

FLOAT_REL_TOL = 1e-9  # float answers, relative to max|d|
TEXT_REL_TOL = 1e-5  # floats printed with six significant digits


def _shape_rng(name: str, i: int) -> random.Random:
    return random.Random(f"{name}:shape:{i}")


def _weight_rng(name: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{i}")


def _reweighted(net, rng: random.Random):
    """``net`` with fresh weights from randomnet's rational distribution."""
    edges = [(u, v, Fraction(rng.randint(1, 10), rng.choice((1, 1, 2, 3, 4))))
             for u, v, _ in net.edge_items]
    return netgraph.PhyloNetwork.build(net.leaves, edges, strict=True)


def _canonical_order(net):
    return min(netgraph.consistent_orders(net), key=lambda o: o.labels)


def _float_text(net, factor: float) -> str:
    lines = [f"leaf {lab} {node}" for lab, node in net.leaf_items]
    lines += [f"edge {u} {v} {float(w) * factor!r}" for u, v, w in net.edge_items]
    return "\n".join(lines) + "\n"


def _with_chord(n: int, shape: random.Random, weights: random.Random,
                binary: bool, heavy: bool = False):
    """A level-1 network and the level-2 network made from it by one chord
    between two non-adjacent nodes of a cycle."""
    while True:
        base = random_one_nested(n, shape, binary=binary)
        cycles = netgraph.classify(base).blocks.of_kind("cycle")
        rings = [(k, netgraph.cycle_node_sequence(b)) for k, b in enumerate(cycles)]
        rings = [(k, r) for k, r in rings if len(r) >= 4]
        if rings:
            break
    k, ring = shape.choice(rings)
    a = shape.randrange(len(ring))
    b = (a + shape.randrange(2, len(ring) - 1)) % len(ring)
    ends = (ring[a], ring[b])
    base = _reweighted(base, weights)
    if heavy:
        return base, enum2.add_heavy_chord(base, k, ends, base.total_weight + 1)
    chord = list(base.edge_items) + [(*ends, Fraction(weights.randint(1, 10)))]
    return base, netgraph.PhyloNetwork.build(base.leaves, chord, strict=True)


def _max_abs(d) -> float:
    return max((abs(float(v)) for v in d.values), default=0.0) or 1.0


def _compare(got, want, scale: float, rel: float = FLOAT_REL_TOL) -> bool:
    """Equal Fractions when both are exact, else within rel * scale."""
    if isinstance(got, Fraction) and isinstance(want, Fraction):
        return got == want
    return abs(float(got) - float(want)) <= rel * scale


def _first_mismatch(got, want, rel: float = FLOAT_REL_TOL) -> str:
    scale = _max_abs(want)
    for (i, j), a, b in zip(metrics.pair_iter(want.n), got.values, want.values):
        if not _compare(a, b, scale, rel):
            return f"d({i},{j}) = {a} but the reference gives {b}"
    return ""


def _check_by_reduction(net, d, rng: random.Random, count: int = 3) -> str:
    pairs = list(metrics.pair_iter(net.n))
    scale = _max_abs(d)
    for i, j in rng.sample(pairs, min(count, len(pairs))):
        ref = metrics.resistance_by_reduction(net, i, j)
        if not _compare(d.value(i, j), ref, scale):
            return f"resistance d({i},{j}) = {d.value(i, j)} but reduction gives {ref}"
    return ""


def _check_by_dijkstra(net, m, rng: random.Random, sources: int = 4) -> str:
    graph = nx.Graph()
    graph.add_weighted_edges_from(net.edge_items)
    leaves = net.leaves
    scale = _max_abs(m)
    for i in rng.sample(sorted(leaves), min(sources, net.n)):
        dist = nx.single_source_dijkstra_path_length(graph, leaves[i])
        for j in leaves:
            if j != i and not _compare(m.value(i, j), dist[leaves[j]], scale):
                return f"min-path d({i},{j}) = {m.value(i, j)} but Dijkstra gives {dist[leaves[j]]}"
    return ""


class Workload:
    name = ""
    classes: tuple = ()
    cycle_seconds = 1.0

    def __init__(self, seed: int):
        self.seed = seed

    @property
    def cycle(self) -> int:
        """Inputs per cycle through the size classes."""
        return len(self.classes)

    def case(self, i: int) -> Case:
        raise NotImplementedError

    def before_op(self) -> None:
        """Untimed preparation before every op."""

    def op(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, result) -> str:
        """An empty string when the answer is right, else what is wrong."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Roundtrip(Workload):
    """The paper's pipeline on level-1 networks, exact then float."""

    name = "roundtrip"
    # (n, binary), half of them binary, ordered so that every prefix mixes
    # sizes and kinds.  Non-binary shapes stop at n = 20: at n = 24 most have
    # millions of consistent orders, and their ops measure only the time
    # limit.  n = 12 comes four times, so that the median op falls among
    # several ops of like cost, not in the gap between cheap float ops and
    # exact ones.
    classes = ((24, True), (12, False), (20, True), (16, False), (12, True),
               (16, True), (20, False), (12, False), (16, False), (12, True))
    factors = (1e-3, 1.0, 1e4)
    cycle_seconds = 9.0

    @property
    def cycle(self) -> int:
        return 2 * len(self.classes)  # each network runs exact, then float

    def case(self, i: int) -> Case:
        j, floating = divmod(i, 2)
        n, binary = self.classes[j % len(self.classes)]
        shape = random_one_nested(n, _shape_rng(self.name, j), binary=binary)
        net = _reweighted(shape, _weight_rng(self.name, self.seed, j))
        kind = "binary" if binary else "nonbinary"
        if not floating:
            text = netgraph.network_to_text(net)
            return Case(f"exact n={n} {kind}", {"text": text, "net": net, "exact": True})
        factor = self.factors[j % len(self.factors)]
        text = _float_text(net, factor)
        return Case(
            f"float n={n} {kind} scale={factor:g}",
            {"text": text, "net": netgraph.parse_network(text), "exact": False},
        )

    def op(self, case: Case):
        p = case.payload
        net = netgraph.parse_network(p["text"])
        order = _canonical_order(net)
        d = metrics.resistance_vector(net)
        report = metrics.is_kalmanson(d, order)
        if not report.passed:
            raise NoAnswer(
                f"not Kalmanson on its consistent order {order}"
                f" ({len(report.violations)} violations)"
            )
        dec = reconstruct.circular_decomposition(d, order)
        out = {"d": d, "dec": dec}
        if p["exact"]:
            out["direct"] = reconstruct.resistance_split_system_direct(net)
            out["sigma"] = splits.displayed_splits(net)
        out["rebuilt"] = splits.weighted_network_from_splits(dec.system)
        out["inverted"] = reconstruct.invert_to_network(dec.system)
        if p["exact"]:
            out["sw"] = reconstruct.min_path_split_system(net)
        out["text"] = (
            splits.split_system_to_text(dec.system)
            + netgraph.network_to_text(out["inverted"])
        )
        return out

    def check(self, case: Case, r) -> str:
        net, exact = case.payload["net"], case.payload["exact"]
        d, dec = r["d"], r["dec"]
        rng = random.Random(case.label)
        problem = _check_by_reduction(net, d, rng)
        if problem:
            return problem
        scale = _max_abs(d)
        if exact:
            if dec.residual != 0:
                return f"decomposition residual {dec.residual}"
            if not dec.system.same_weighted_splits(r["direct"]):
                return "decomposition differs from the direct split weights"
            sigma = r["sigma"].splits
        else:
            if not dec.residual <= FLOAT_REL_TOL * scale:
                return f"decomposition residual {dec.residual}"
            sigma = splits.displayed_splits(net).splits
        if splits.displayed_splits(r["rebuilt"]).splits != sigma:
            return "rebuilt network displays other splits than the input"
        # Weights on a 4-cycle whose every node carries a bridge are not
        # identifiable from the splits, so the inverted network is checked
        # by the resistance it reproduces.
        problem = _first_mismatch(metrics.resistance_vector(r["inverted"]), d)
        if problem:
            return "inverted network: " + problem
        if exact:
            problem = _first_mismatch(splits.split_metric(r["sw"]), metrics.min_path_vector(net))
            if problem:
                return "sw split metric: " + problem
        return ""


class DistLarge(Workload):
    """Resistance and min-path vectors of large networks, and their text."""

    name = "dist-large"
    cycle_seconds = 5.0
    # (n, exact, level)
    classes = tuple(
        [(n, False, level) for n in (64, 128, 256) for level in (1, 2)]
        + [(n, True, level) for n in (24, 32) for level in (1, 2)]
    )

    def case(self, i: int) -> Case:
        n, exact, level = self.classes[i % len(self.classes)]
        shape, weights = _shape_rng(self.name, i), _weight_rng(self.name, self.seed, i)
        binary = shape.random() < 0.5
        if level == 1:
            net = _reweighted(random_one_nested(n, shape, binary=binary), weights)
        else:
            net = _with_chord(n, shape, weights, binary)[1]
        if exact:
            text = netgraph.network_to_text(net)
        else:
            text = _float_text(net, 1.0)
            net = netgraph.parse_network(text)
        mode = "exact" if exact else "float"
        return Case(f"{mode} n={n} level-{level}", {"text": text, "net": net})

    def op(self, case: Case):
        net = netgraph.parse_network(case.payload["text"])
        d = metrics.resistance_vector(net)
        m = metrics.min_path_vector(net)
        text = metrics.distance_vector_to_text(d), metrics.distance_vector_to_text(m)
        return {"d": d, "m": m, "text": text}

    def check(self, case: Case, r) -> str:
        net = case.payload["net"]
        rng = random.Random(case.label)
        problem = _check_by_reduction(net, r["d"], rng) or _check_by_dijkstra(net, r["m"], rng)
        if problem:
            return problem
        for vector, text in zip((r["d"], r["m"]), r["text"]):
            back = metrics.parse_distance_vector(text)
            problem = _first_mismatch(back, vector, rel=TEXT_REL_TOL)
            if problem:
                return "text: " + problem
        return ""


class OrderSearch(Workload):
    """Kalmanson order search on exact vectors with shuffled labels."""

    name = "order-search"
    cycle_seconds = 3.0
    # (kind, n): exhaustive search at n <= 8, heuristic above; the sw cases
    # run min_path_split_system on a level-2 network
    classes = (
        ("resistance", 7), ("resistance", 10), ("min-path", 12), ("level-2", 14),
        ("sw", 10), ("min-path", 8), ("resistance", 12), ("level-2", 10),
        ("min-path", 14), ("sw", 11), ("level-2", 7), ("resistance", 14),
        ("min-path", 16), ("level-2", 12), ("resistance", 8), ("sw", 12),
        ("min-path", 10), ("resistance", 16), ("level-2", 16), ("min-path", 7),
        ("level-2", 8),
    )

    def case(self, i: int) -> Case:
        kind, n = self.classes[i % len(self.classes)]
        shape, weights = _shape_rng(self.name, i), _weight_rng(self.name, self.seed, i)
        if kind in ("sw", "level-2"):
            # whether a level-2 vector has an order depends on its weights,
            # and with it the cost of an exhaustive search: these inputs
            # take their weights from the shape stream too
            weights = shape
        # binary bases keep the consistent orders behind the witness few
        if kind == "sw":
            base, net = _with_chord(n, shape, weights, binary=True, heavy=True)
            known = self._witness(metrics.min_path_vector(base), base) is not None
            return Case(f"sw level-2 n={n}", {"text": netgraph.network_to_text(net), "net": net},
                        answer_known=known)
        if kind == "level-2":
            base, net = _with_chord(n, shape, weights, binary=True)
            d = metrics.resistance_vector(net)
        else:
            net = base = _reweighted(random_one_nested(n, shape, binary=True), weights)
            d = (metrics.resistance_vector if kind == "resistance" else metrics.min_path_vector)(net)
        witness = self._witness(d, base)
        perm = list(range(1, n + 1))
        shape.shuffle(perm)  # old label i becomes perm[i - 1]
        moved = {}
        for (i_, j_), v in zip(metrics.pair_iter(n), d.values):
            a, b = perm[i_ - 1], perm[j_ - 1]
            moved[(min(a, b), max(a, b))] = v
        d = metrics.DistanceVector(n, tuple(moved[p] for p in metrics.pair_iter(n)))
        mode = "exact" if n <= 8 else "heuristic"
        label = f"{mode} {kind} n={n}"
        return Case(label, {"text": metrics.distance_vector_to_text(d), "d": d, "mode": mode},
                    answer_known=witness is not None)

    @staticmethod
    def _witness(d, base):
        """The least consistent order of the level-1 base network, if ``d``
        passes the Kalmanson check on it."""
        order = _canonical_order(base)
        return order if metrics.is_kalmanson(d, order).passed else None

    def op(self, case: Case):
        p = case.payload
        if "net" in p:
            net = netgraph.parse_network(p["text"])
            return reconstruct.min_path_split_system(net)
        d = metrics.parse_distance_vector(p["text"], exact=True)
        result = metrics.find_kalmanson_order(d, mode=p["mode"])
        if not result.found:
            raise NoAnswer(f"no order found after {result.orders_checked} checked")
        return result

    def check(self, case: Case, r) -> str:
        p = case.payload
        if "net" in p:
            return _first_mismatch(splits.split_metric(r), metrics.min_path_vector(p["net"]))
        dec = reconstruct.circular_decomposition(p["d"], r.order)
        problem = _first_mismatch(splits.split_metric(dec.system), p["d"])
        return f"order {r.order}: {problem}" if problem else ""


class Enumerate(Workload):
    """Counting, polytope minimization and face checks at n = 6 and 7."""

    name = "enumerate"
    cycle_seconds = 7.0
    level1_n = 7
    level2_n = 6
    level2_total = 2790
    level2_census = 6
    level2_rows = [900, 720, 540, 360, 180, 90]
    face_n = 6

    @property
    def classes(self):
        jobs = [("count-1", k) for k in range(self.level1_n - 2)] + [("count-2", None)]
        return tuple(jobs + [("bme-min", "resistance"), ("bme-min", "minpath"),
                             ("verify-face", "resistance"), ("verify-face", "minpath")])

    def case(self, i: int) -> Case:
        jobs = self.classes
        job, arg = jobs[i % len(jobs)]
        if job == "count-1":
            return Case(f"count level-1 n={self.level1_n} k={arg}", {"job": job, "k": arg})
        if job == "count-2":
            return Case(f"count level-2 n={self.level2_n}", {"job": job})
        # the four network jobs of a cycle cover every internal bridge count
        n = self.face_n
        k = (i // len(jobs) + i) % (n - 2)
        shape = _shape_rng(self.name, i)
        net = random_one_nested(n, shape, binary=True)
        while netgraph.bridges(net).k != k:
            net = random_one_nested(n, shape, binary=True)
        net = _reweighted(net, _weight_rng(self.name, self.seed, i))
        payload = {"job": job, "metric": arg, "k": k, "net": net}
        if job == "bme-min":
            vector = metrics.resistance_vector if arg == "resistance" else metrics.min_path_vector
            payload["d"] = vector(net)
            payload["text"] = metrics.distance_vector_to_text(payload["d"])
        else:
            payload["text"] = netgraph.network_to_text(net)
        return Case(f"{job} {arg} n={n} k={k}", payload)

    def op(self, case: Case):
        p = case.payload
        job = p["job"]
        if job == "count-1":
            return len(polytope.enumerate_binary_one_nested(self.level1_n, p["k"]))
        if job == "count-2":
            return (
                len(enum2.enumerate_binary_two_nested(self.level2_n)),
                enum2.two_nested_breakdown(self.level2_n),
                enum2.skeleton_census(self.level2_n),
            )
        if job == "bme-min":
            d = metrics.parse_distance_vector(p["text"], exact=True)
            return polytope.minimize_over_vertices(d, self.face_n, p["k"])
        net = netgraph.parse_network(p["text"])
        return polytope.face_minimization_report(net, p["metric"])

    def check(self, case: Case, r) -> str:
        p = case.payload
        job = p["job"]
        if job == "count-1":
            want = polytope.closed_form_count(self.level1_n, p["k"])
            return "" if r == want else f"count {r}, closed form {want}"
        if job == "count-2":
            count, breakdown, census = r
            rows = sorted((c for _, c in breakdown.rows), reverse=True)
            if (count, breakdown.total, census, rows) != (
                self.level2_total, self.level2_total, self.level2_census, self.level2_rows
            ):
                return f"count {count}, breakdown {breakdown.total} {rows}, census {census}"
            return ""
        if job == "bme-min":
            # order-sum vertex vectors over a fresh enumeration
            nets = polytope.enumerate_binary_one_nested(self.face_n, p["k"])
            values = [polytope.vertex_vector_by_orders(net).dot(p["d"]) for net in nets]
            best = min(values)
            hits = tuple(i for i, v in enumerate(values) if v == best)
            if (r.value, r.argmin) != (best, hits):
                return f"minimum {r.value} at {r.argmin}, oracle {best} at {hits}"
            return ""
        if not (r.argmin_matches_refinements and r.identity_holds):
            return "argmin is not the refinement face or the identity fails"
        return ""

    def before_op(self) -> None:
        cache_clear = getattr(polytope.vertex_catalog, "cache_clear", None)
        if cache_clear is not None:
            cache_clear()


WORKLOADS = {w.name: w for w in (Roundtrip, DistLarge, OrderSearch, Enumerate)}
