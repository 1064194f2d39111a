"""Command-line front end.

Every command reads the file formats defined by the library (network,
distance vector, split system), writes deterministic text or, with
``--json``, a stable JSON document, and exits 1 with a structured message
on any domain error (2 on usage errors).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

# Each command imports the rest of the library itself, so a start loads
# only the modules that its command runs.
from . import netgraph
from .errors import PhyloCircuitError, ValidationError
from .rational import format_value

if TYPE_CHECKING:
    import random


def _fmt(value, args) -> str:
    return format_value(value, args.precision)


def _emit(args, text_lines, json_obj) -> None:
    if args.json:
        print(json.dumps(json_obj, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # argparse's wording for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _order_from_arg(text: str) -> netgraph.CircularOrder:
    try:
        return netgraph.CircularOrder(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise ValidationError(f"--order {text}: {exc}") from None


# ---------------------------------------------------------------------------
# command handlers


def cmd_validate(args) -> int:
    net = netgraph.load_network(args.network)
    _emit(
        args,
        [
            f"valid network: {net.n} leaves, {len(net.nodes)} nodes,"
            f" {len(net.edge_items)} edges"
        ],
        {
            "valid": True,
            "leaves": net.n,
            "nodes": len(net.nodes),
            "edges": len(net.edge_items),
        },
    )
    return 0


def cmd_classify(args) -> int:
    net = netgraph.load_network(args.network)
    cls = netgraph.classify(net)
    b = netgraph.bridges(net)
    kinds = {}
    for block in cls.blocks.blocks:
        kinds[block.kind] = kinds.get(block.kind, 0) + 1
    lines = [
        f"level: {cls.level_name}",
        f"triangle_free: {str(cls.triangle_free).lower()}",
        f"binary: {str(netgraph.is_binary(net)).lower()}",
        f"bridges: {len(b.trivial)} trivial, {len(b.nontrivial)} nontrivial",
        "blocks: "
        + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())),
    ]
    _emit(
        args,
        lines,
        {
            "level": cls.level_name,
            "triangle_free": cls.triangle_free,
            "binary": netgraph.is_binary(net),
            "trivial_bridges": len(b.trivial),
            "nontrivial_bridges": len(b.nontrivial),
            "blocks": kinds,
        },
    )
    return 0


def cmd_dist(args) -> int:
    from . import metrics

    net = netgraph.load_network(args.network, args.exact)
    if args.metric == "resistance":
        d = metrics.resistance_vector(net)
    else:
        d = metrics.min_path_vector(net)
    text = metrics.distance_vector_to_text(d, args.precision)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        _emit(
            args,
            [text.rstrip("\n")],
            {
                "n": d.n,
                "metric": args.metric,
                "pairs": [
                    [i, j, _fmt(d.value(i, j), args)]
                    for i, j in metrics.pair_iter(d.n)
                ],
            },
        )
    return 0


def cmd_kalmanson(args) -> int:
    from . import metrics

    d = metrics.load_distance_vector(args.distances, exact=args.exact)
    if args.order:
        order = _order_from_arg(args.order)
        report = metrics.is_kalmanson(d, order, args.tolerance)
        lines = [
            f"order: {order}",
            f"kalmanson: {str(report.passed).lower()}",
            f"equalities: {report.equalities}",
            f"violations: {len(report.violations)}",
        ]
        if report.violations:
            lines.append(f"max_violation: {_fmt(report.max_violation, args)}")
            quad, amount = report.violations[0]
            lines.append(
                f"first_violation: {quad} by {_fmt(amount, args)}"
            )
        _emit(
            args,
            lines,
            {
                "order": list(order.labels),
                "kalmanson": report.passed,
                "equalities": report.equalities,
                "violations": len(report.violations),
                "max_violation": _fmt(report.max_violation, args),
            },
        )
        return 0
    result = metrics.find_kalmanson_order(d, mode=args.search, tol=args.tolerance)
    if result.found:
        lines = [f"found order: {result.order}",
                 f"orders_checked: {result.orders_checked}"]
    else:
        lines = [
            "found order: none",
            f"orders_checked: {result.orders_checked}",
            f"best_order: {result.best_order}",
            f"best_violation: {_fmt(result.best_violation, args)}",
        ]
    _emit(
        args,
        lines,
        {
            "found": result.found,
            "order": list(result.order.labels) if result.found else None,
            "orders_checked": result.orders_checked,
            "best_violation": _fmt(result.best_violation, args),
        },
    )
    return 0


def _system_json(system, args):
    return {
        "n": system.n,
        "order": list(system.order.labels),
        "splits": [
            {
                "side_a": list(s.side_a),
                "side_b": list(s.side_b),
                "weight": None if w is None else _fmt(w, args),
            }
            for s, w in system.entries
        ],
    }


def _emit_system(args, system, residual=None) -> int:
    from . import splits

    text = splits.split_system_to_text(system, args.precision).rstrip("\n")
    lines = [text]
    if residual is not None:
        lines.append(f"# residual {_fmt(residual, args)}")
    obj = _system_json(system, args)
    if residual is not None:
        obj["residual"] = _fmt(residual, args)
    _emit(args, lines, obj)
    return 0


def cmd_decompose(args) -> int:
    from . import metrics, reconstruct

    d = metrics.load_distance_vector(args.distances, exact=args.exact)
    order = _order_from_arg(args.order)
    result = reconstruct.circular_decomposition(d, order, tol=args.tolerance)
    return _emit_system(args, result.system, result.residual)


def cmd_rw(args) -> int:
    from . import reconstruct

    net = netgraph.load_network(args.network)
    system = reconstruct.resistance_split_system_direct(net)
    return _emit_system(args, system)


def cmd_sw(args) -> int:
    from . import reconstruct

    net = netgraph.load_network(args.network)
    system = reconstruct.min_path_split_system(net)
    return _emit_system(args, system)


def cmd_sigma(args) -> int:
    from . import splits

    net = netgraph.load_network(args.network)
    system = splits.displayed_splits(net)
    order = netgraph.canonical_order(net)
    return _emit_system(args, splits.CircularSplitSystem.of_order(net.n, system, order))


def _emit_network(args, net) -> int:
    if args.json:
        print(netgraph.network_to_json(net, args.precision))
    else:
        print(netgraph.network_to_text(net, args.precision).rstrip("\n"))
    return 0


def cmd_exterior(args) -> int:
    from . import splits

    system = splits.load_split_system(args.splits, exact=args.exact)
    if system.is_weighted:
        net = splits.weighted_network_from_splits(system)
    else:
        net = splits.network_from_splits(system)
    return _emit_network(args, net)


def cmd_invert(args) -> int:
    from . import reconstruct, splits

    system = splits.load_split_system(args.splits, exact=args.exact)
    net = reconstruct.invert_to_network(system)
    return _emit_network(args, net)


def cmd_xvector(args) -> int:
    from . import metrics, polytope

    net = netgraph.load_network(args.network)
    x = polytope.vertex_vector(net)
    pairs = [
        [i, j, x.value(i, j)] for i, j in metrics.pair_iter(net.n)
    ]
    _emit(
        args,
        [" ".join(str(v) for v in x.entries)],
        {"n": x.n, "entries": list(x.entries), "pairs": pairs},
    )
    return 0


def cmd_bme_min(args) -> int:
    from . import metrics, polytope

    d = metrics.load_distance_vector(args.distances, exact=args.exact)
    result = polytope.minimize_over_vertices(d, args.n, args.k)
    ids = [f"bme-{args.n}-{args.k}-{i}" for i in result.argmin]
    lines = [
        f"value: {_fmt(result.value, args)}",
        f"count: {len(ids)}",
    ] + [f"argmin: {name}" for name in ids]
    _emit(
        args,
        lines,
        {
            "value": _fmt(result.value, args),
            "argmin": ids,
            "count": len(ids),
        },
    )
    return 0


def cmd_verify_face(args) -> int:
    from . import polytope

    net = netgraph.load_network(args.network)
    report = polytope.face_minimization_report(net, args.metric)
    ok = report.argmin_matches_refinements and report.identity_holds
    lines = [
        f"metric: {report.metric}",
        f"k: {report.k}",
        f"argmin_matches_refinements: {str(report.argmin_matches_refinements).lower()}",
        f"identity_holds: {str(report.identity_holds).lower()}",
        f"minimum: {_fmt(report.value, args)}",
    ]
    _emit(
        args,
        lines,
        {
            "metric": report.metric,
            "k": report.k,
            "argmin_matches_refinements": report.argmin_matches_refinements,
            "identity_holds": report.identity_holds,
            "minimum": _fmt(report.value, args),
        },
    )
    return 0 if ok else 1


def cmd_count(args) -> int:
    from . import enum2, polytope

    if args.level == 1:
        if args.k is not None:
            nets = polytope.enumerate_binary_one_nested(args.n, args.k)
            expected = polytope.closed_form_count(args.n, args.k)
            lines = [f"count: {len(nets)}", f"closed_form: {expected}"]
            obj = {"count": len(nets), "closed_form": expected}
        else:
            rows = []
            total = 0
            for k in range(0, args.n - 2):
                c = len(polytope.enumerate_binary_one_nested(args.n, k))
                rows.append((k, c))
                total += c
            lines = [f"k={k}: {c}" for k, c in rows] + [f"total: {total}"]
            obj = {"per_k": {str(k): c for k, c in rows}, "total": total}
        _emit(args, lines, obj)
        return 0
    breakdown = enum2.two_nested_breakdown(args.n)
    skeletons = len(breakdown.rows)  # skeleton_census(n) would enumerate again
    lines = [
        f"skeleton {idx}: {count}" for idx, count in breakdown.rows
    ] + [
        f"total: {breakdown.total}",
        f"skeletons: {skeletons}",
    ]
    _emit(
        args,
        lines,
        {
            "total": breakdown.total,
            "rows": [
                {"skeleton": idx, "count": count}
                for idx, count in breakdown.rows
            ],
            "skeletons": skeletons,
        },
    )
    return 0


def cmd_jc(args) -> int:
    from . import genetics

    if args.c is None and not args.curve:
        print("error: jc needs --c or --curve", file=sys.stderr)
        return 2
    if args.curve:
        quarter = args.m / 4.0
        print("c,D")
        for t in range(1, args.curve + 1):
            c = quarter + (args.m - quarter) * t / args.curve
            print(f"{c:.6f},{genetics.jukes_cantor_distance(c, args.m):.6f}")
        return 0
    d = genetics.jukes_cantor_distance(args.c, args.m)
    _emit(args, [f"D: {d:.{args.precision}g}"], {"D": d})
    return 0


def cmd_jc_parallel(args) -> int:
    from . import genetics

    if args.c1 is None and not args.curve:
        print("error: jc-parallel needs --c1 or --curve", file=sys.stderr)
        return 2
    if args.curve:
        quarter = args.m / 4.0
        print("c1,c")
        for t in range(0, args.curve + 1):
            c1 = quarter + (args.m - quarter) * t / args.curve
            c = genetics.jukes_cantor_parallel_sites(c1, args.m)
            print(f"{c1:.6f},{c:.6f}")
        return 0
    c = genetics.jukes_cantor_parallel_sites(args.c1, args.m)
    _emit(args, [f"c: {c:.{args.precision}g}"], {"c": c})
    return 0


def _scan_outer_planar(trials: int, rng: random.Random):
    from . import metrics
    from .randomnet import random_one_nested

    for t in range(trials):
        base = random_one_nested(rng.randint(4, 6), rng)
        cycles = netgraph.classify(base).blocks.of_kind(netgraph.CYCLE)
        if cycles:
            ring = netgraph.cycle_node_sequence(cycles[0])
            m = len(ring)
            i = rng.randrange(m)
            j = (i + 2) % m
            w = Fraction(rng.randint(1, 20), rng.choice((1, 2)))
            edges = list(base.edge_items) + [(ring[i], ring[j], w)]
            net = netgraph.PhyloNetwork.build(base.leaves, edges, strict=True)
        else:
            net = base
        d = metrics.resistance_vector(net)
        result = metrics.find_kalmanson_order(d, mode="exact")
        yield t, "kalmanson" if result.found else "VIOLATION", net


def _scan_faithful(trials: int, rng: random.Random):
    from . import reconstruct, splits
    from .randomnet import random_one_nested

    for t in range(trials):
        net = random_one_nested(rng.randint(4, 6), rng)
        base = splits.displayed_splits(net)
        order = netgraph.canonical_order(net)
        weights = {
            s: Fraction(rng.randint(1, 12), rng.choice((1, 2, 3)))
            for s in base.splits
        }
        system = splits.CircularSplitSystem.of_order(net.n, weights, order)
        try:
            reconstruct.invert_to_network(system)
            yield t, "resistance-realizable", net
        except PhyloCircuitError as exc:
            yield t, f"NOT-INVERTIBLE ({exc})", net


def _scan_two_nested(trials: int, rng: random.Random):
    from . import metrics, reconstruct
    from .randomnet import random_one_nested

    for t in range(trials):
        base = random_one_nested(rng.randint(4, 6), rng)
        cycles = netgraph.classify(base).blocks.of_kind(netgraph.CYCLE)
        if not cycles:
            yield t, "skipped (no cycle)", base
            continue
        block = cycles[rng.randrange(len(cycles))]
        ring = netgraph.cycle_node_sequence(block)
        m = len(ring)
        i = rng.randrange(m)
        # 2 <= offset <= m-2, so ring[j] is no ring neighbour of ring[i]; a
        # cycle block holds no other edge between its nodes
        j = (i + rng.randint(2, m - 2)) % m
        w = Fraction(rng.randint(1, 30), rng.choice((1, 2)))
        edges = list(base.edge_items) + [(ring[i], ring[j], w)]
        net = netgraph.PhyloNetwork.build(base.leaves, edges, strict=True)
        d = metrics.resistance_vector(net)
        result = metrics.find_kalmanson_order(d, mode="exact")
        if not result.found:
            yield t, "VIOLATION", net
            continue
        dec = reconstruct.circular_decomposition(d, result.order)
        try:
            witness = reconstruct.invert_to_network(dec.system)
            level = netgraph.classify(witness).level
            yield t, f"kalmanson, 1-nested witness (level {level})", net
        except PhyloCircuitError:
            yield t, "kalmanson, no witness recovered", net


def cmd_scan(args) -> int:
    import random

    rng = random.Random(args.seed)
    scanners = {
        "outer-planar": _scan_outer_planar,
        "faithful": _scan_faithful,
        "two-nested": _scan_two_nested,
    }
    print(f"# conjecture scan: {args.conjecture}, trials {args.trials}, seed {args.seed}")
    counts: dict[str, int] = {}
    for t, verdict, _net in scanners[args.conjecture](args.trials, rng):
        print(f"trial {t}: {verdict}")
        key = verdict.split(" (")[0].split(",")[0]
        counts[key] = counts.get(key, 0) + 1
    for key in sorted(counts):
        print(f"# {key}: {counts[key]}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phylocircuit",
        description="Phylogenetic networks as resistor circuits.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    parser.add_argument(
        "--precision", type=_positive_int, default=6, help="significant digits for floats"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network file")
    p.add_argument("network")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="nesting level and block structure")
    p.add_argument("network")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dist", help="leaf distance vector")
    p.add_argument("network")
    p.add_argument("--metric", choices=("resistance", "minpath"), default="resistance")
    p.add_argument("--exact", action="store_true",
                   help="read decimal weights as exact rationals, not floats")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("kalmanson", help="circular-inequality check or search")
    p.add_argument("distances")
    p.add_argument("--order", help="comma-separated leaf order")
    p.add_argument(
        "--search",
        choices=("exact", "heuristic"),
        default="exact",
        help="exact: the least order that passes (any n on exact input), else "
        "try every order (n <= 9) for the least maximum violation; heuristic: "
        "check NeighborNet's order, a Kalmanson order whenever one exists (any "
        "n), and fall back to exact for n <= 9 when it fails",
    )
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_kalmanson)

    p = sub.add_parser("decompose", help="unique circular split system of a vector")
    p.add_argument("distances")
    p.add_argument("--order", required=True)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("rw", help="split system of the resistance metric")
    p.add_argument("network")
    p.set_defaults(func=cmd_rw)

    p = sub.add_parser("sw", help="split system of the minimum path metric")
    p.add_argument("network")
    p.set_defaults(func=cmd_sw)

    p = sub.add_parser("sigma", help="splits displayed by a network")
    p.add_argument("network")
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("exterior", help="rebuild the network from a split system")
    p.add_argument("splits")
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_exterior)

    p = sub.add_parser("invert", help="recover edge weights from split weights")
    p.add_argument("splits")
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("xvector", help="polytope vertex vector of a network")
    p.add_argument("network")
    p.set_defaults(func=cmd_xvector)

    p = sub.add_parser("bme-min", help="minimize a vector over polytope vertices")
    p.add_argument("distances")
    p.add_argument("--n", type=int, required=True,
                   help="leaves of the polytope, 4..7; must match the vector")
    p.add_argument("--k", type=int, required=True,
                   help="internal bridges of its vertices, 0..n-3")
    p.add_argument("--exact", action="store_true",
                   help="read decimal distances as exact rationals, not floats")
    p.set_defaults(func=cmd_bme_min)

    p = sub.add_parser("verify-face", help="check the refinement-face property")
    p.add_argument("network")
    p.add_argument("--metric", choices=("resistance", "minpath"), default="resistance")
    p.set_defaults(func=cmd_verify_face)

    p = sub.add_parser("count", help="enumerate network classes")
    p.add_argument("--level", type=int, choices=(1, 2), required=True,
                   help="1: binary triangle-free 1-nested networks;"
                   " 2: their strictly 2-nested chordings")
    p.add_argument("--n", type=int, required=True,
                   help="leaves: 4..7 at level 1, 4..6 at level 2")
    p.add_argument("--k", type=int, default=None,
                   help="internal bridges, 0..n-3 (level 1 only; default: every k)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("jc", help="expected mutations from matching sites")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--c", type=float)
    p.add_argument(
        "--curve", type=_positive_int, help="emit a CSV curve with this many steps"
    )
    p.set_defaults(func=cmd_jc)

    p = sub.add_parser("jc-parallel", help="matching sites after recombination")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--c1", type=float)
    p.add_argument("--curve", type=_positive_int)
    p.set_defaults(func=cmd_jc_parallel)

    p = sub.add_parser("scan", help="seeded conjecture scans")
    p.add_argument(
        "--conjecture",
        choices=("outer-planar", "faithful", "two-nested"),
        required=True,
    )
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "count" and args.level == 2 and args.k is not None:
        parser.error("argument --k: not allowed with --level 2")
    try:
        return args.func(args)
    except PhyloCircuitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
