"""Seeded benchmark of the phylocircuit pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run builds inputs from the seed, runs one untimed warm-up op, then runs
whole cycles of the workload's inputs, as many as take about ``--seconds``
on the reference machine, in this one process with the libraries' default
threading.  Every op is checked, untimed, against an independent route; an
op that raises, gives a wrong answer, gives no answer where one is known, or
runs past the per-op time limit counts as failed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every input
traced and untraced and reports the per-layer metrics.  The report goes to
standard output, with one JSON object as its last line, and to
``perfbench/results/``.  ``--workload all`` runs every workload both ways in
child processes and prints every metric.

Workloads:
  roundtrip     the paper's pipeline on level-1 networks, n = 12..24, exact
                and float (weights scaled by 1e-3, 1 or 1e4)
  dist-large    resistance, min-path and text of level-1 and level-2
                networks, float at n = 64..256 and exact at n = 24, 32
  order-search  Kalmanson order search on shuffled exact vectors (exhaustive
                at n = 7, 8; heuristic at n = 10..16) and level-2 sw
  enumerate     counting at n = 6, 7, bme-min and verify-face at n = 6
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness

UNITS = dict(harness.END_TO_END) | dict(harness.per_layer_units())
WORKLOAD_NAMES = ("roundtrip", "dist-large", "order-search", "enumerate")


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result the benchmark prints."""
    harness.import_library()
    from workloads import WORKLOADS

    env = harness.environment()
    setup_s, starts = (None, []) if trace else harness.measure_setup()
    m = harness.measure(WORKLOADS[name](seed), seconds, trace)
    facts = {}
    if trace:
        metrics = harness.per_layer(m)
    else:
        metrics, facts = harness.end_to_end(m, setup_s)
    failures = [r for r in m.records if r.status != "ok"]
    print(f"workload {name} seed {seed} trace {int(trace)}")
    for key, value in env.items():
        print(f"env {key}: {value}")
    print(f"ops attempted {len(m.records)}, failed {len(failures)}")
    for key, value in facts.items():
        print(f"{key}: {_format(value)}")
    if starts:
        print("setup starts: " + " ".join(f"{t:.4f}" for t in starts))
    for key, value in metrics.items():
        print(f"{key} {_format(value)} {UNITS[key]}")
    for r in failures:
        print(f"failed op {r.op_id} [{r.label}] {r.status}: {r.detail}")
    result = {
        "correct": not any(r.status == "wrong" for r in m.records),
        "attempted": len(m.records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    harness.RESULTS.mkdir(parents=True, exist_ok=True)
    report = dict(result, workload=name, seed=seed, env=env, facts=facts,
                  setup_starts=starts, ops=[vars(r) for r in m.records],
                  traced_ops=[vars(r) for r in m.traced])
    (harness.RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if m.tracer is not None:
        m.tracer.write(harness.RESULTS / f"{stem}.spans.jsonl")
    return result


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in a child process."""
    out = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"== {name} trace {trace}: correct {result['correct']},"
                  f" attempted {result['attempted']}, failed {result['failed']}")
            for line in proc.stdout.splitlines():
                if line.startswith("failed op"):
                    print("  " + line)
            for key, metric in result["metrics"].items():
                print(f"  {key} {_format(metric['value'])} {metric['unit']}")
            out.setdefault(name, {})[f"trace{trace}"] = result
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
