"""Measurement machinery for the phylocircuit benchmark.

Runs ops under a per-op time limit, checks each one outside its timed
span, records spans around the library's public functions in traced runs,
and turns the records into the metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

#: an op still running after this many seconds is stopped and counted failed
OP_LIMIT_S = 10.0

#: no op starts after this many seconds of a run, so a run that finds the
#: program far slower than its nominal cycle time still ends in time
RUN_LIMIT_S = 120.0

#: cold starts per run for setup_s; the median is reported
SETUP_STARTS = 5

# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10

# (layer, module, function): every call of the function, from the benchmark
# or from inside the library, becomes one span of the layer.
LAYER_FUNCTIONS = (
    ("netgraph.parse", "netgraph", "parse_network"),
    ("metrics.parse", "metrics", "parse_distance_vector"),
    ("netgraph.classify", "netgraph", "classify"),
    ("netgraph.consistent_orders", "netgraph", "consistent_orders"),
    ("metrics.resistance", "metrics", "resistance_vector"),
    ("metrics.min_path", "metrics", "min_path_vector"),
    ("metrics.is_kalmanson", "metrics", "is_kalmanson"),
    ("metrics.find_kalmanson_order", "metrics", "find_kalmanson_order"),
    ("reconstruct.decompose", "reconstruct", "circular_decomposition"),
    ("reconstruct.direct_weights", "reconstruct", "resistance_split_system_direct"),
    ("reconstruct.invert", "reconstruct", "invert_to_network"),
    ("reconstruct.min_path_splits", "reconstruct", "min_path_split_system"),
    ("splits.displayed", "splits", "displayed_splits"),
    ("splits.rebuild", "splits", "weighted_network_from_splits"),
    ("splits.rebuild", "splits", "network_from_splits"),
    ("polytope.enumerate", "polytope", "enumerate_binary_one_nested"),
    ("polytope.vertex_vector", "polytope", "vertex_vector"),
    ("polytope.vertex_vector", "polytope", "vertex_vector_by_orders"),
    ("polytope.minimize", "polytope", "minimize_over_vertices"),
    ("polytope.face_report", "polytope", "face_minimization_report"),
    ("enum2.enumerate", "enum2", "enumerate_binary_two_nested"),
    ("enum2.breakdown", "enum2", "two_nested_breakdown"),
    ("enum2.census", "enum2", "skeleton_census"),
    ("io.to_text", "metrics", "distance_vector_to_text"),
    ("io.to_text", "splits", "split_system_to_text"),
    ("io.to_text", "netgraph", "network_to_text"),
)

# resistance_vector is reported as two layers, by the arithmetic it runs
_SPLIT_BY_ARITHMETIC = "metrics.resistance"

LAYERS = tuple(
    sorted(
        {name for name, _, _ in LAYER_FUNCTIONS if name != _SPLIT_BY_ARITHMETIC}
        | {"metrics.resistance_exact", "metrics.resistance_float"}
    )
)

# (metric name, unit) of the counters recorded next to the spans
COUNTERS = (
    ("netgraph.consistent_orders.orders", "count"),
    ("netgraph.consistent_orders.orders_used", "count"),
    ("metrics.resistance_exact.out_bits", "bits"),
    ("metrics.is_kalmanson.quads", "count"),
    ("metrics.find_kalmanson_order.orders_checked", "count"),
    ("metrics.find_kalmanson_order.found_ratio", "ratio"),
)

TRACE_METRICS = (
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.layer_share", "ratio"),
)

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units() -> list[tuple[str, str]]:
    """Every per-layer metric of a traced run, with its unit."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.busy_s", "s"),
                (f"{layer}.fail", "count")]
    return out + list(COUNTERS) + list(TRACE_METRICS)


# ---------------------------------------------------------------------------
# source path


def import_library():
    """Put the checkout's ``src`` first on the path and import the library.

    ``scipy.optimize`` is imported too: the library imports it lazily on one
    inversion path (about 40 MB), and whether a run takes that path depends
    on the weights, so importing it up front keeps it out of op latencies
    and in every run's peak memory.
    """
    if not (SRC / "phylocircuit" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no library source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import phylocircuit
    import scipy.optimize  # noqa: F401

    return phylocircuit


# ---------------------------------------------------------------------------
# op outcomes


class OpTimeout(BaseException):
    """Raised inside an op that runs past the per-op time limit.

    A BaseException, so that no ``except Exception`` in the library can
    swallow it.
    """


class NoAnswer(Exception):
    """An op found that the program gave no answer (no order found, or an
    input reported as not Kalmanson)."""


@dataclass(frozen=True)
class Case:
    """One generated input and what the benchmark knows about it."""

    label: str
    payload: dict
    answer_known: bool = True


@dataclass
class OpRecord:
    op_id: int
    label: str
    seconds: float
    status: str  # ok, wrong, miss, error, timeout
    detail: str = ""


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans around the library's public functions, kept in memory.

    ``install`` rebinds each function of ``LAYER_FUNCTIONS`` to a wrapper in
    every library module that holds it, so calls made inside the library
    are recorded too; ``uninstall`` restores the originals.  A span is
    ``[name, start, end, parent index, op id]``.
    """

    def __init__(self, modules: dict):
        self.spans: list[list] = []
        self.fails: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patches = []
        for layer, mod_name, fn_name in LAYER_FUNCTIONS:
            orig = getattr(modules[f"phylocircuit.{mod_name}"], fn_name, None)
            if orig is None:
                continue
            wrapped = self._wrap(layer, orig)
            for mod in modules.values():
                for attr, value in vars(mod).items():
                    if value is orig:
                        self._patches.append((mod, attr, orig, wrapped))

    def install(self) -> None:
        for mod, attr, _, wrapped in self._patches:
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> float:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        while self._stack and self._stack.pop() != idx:
            pass
        return end - span[1]

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer
            if layer == _SPLIT_BY_ARITHMETIC:
                net = args[0] if args else next(iter(kwargs.values()))
                name = f"{layer}_{'exact' if net.is_exact else 'float'}"
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                tracer.fails[name] += 1
                raise
            tracer.close(idx)
            tracer.count(name, args, result)
            return result

        return traced

    def count(self, name: str, args, result) -> None:
        c = self.counts
        if name == "netgraph.consistent_orders":
            c["netgraph.consistent_orders.orders"] += len(result)
            # every caller reduces the set to one order (the least)
            c["netgraph.consistent_orders.orders_used"] += 1
        elif name == "metrics.resistance_exact":
            bits = max(
                (max(v.numerator.bit_length(), v.denominator.bit_length())
                 for v in result.values),
                default=0,
            )
            c["metrics.resistance_exact.out_bits"] = max(
                c["metrics.resistance_exact.out_bits"], bits
            )
        elif name == "metrics.is_kalmanson":
            c["metrics.is_kalmanson.quads"] += math.comb(args[0].n, 4)
        elif name == "metrics.find_kalmanson_order":
            c["metrics.find_kalmanson_order.orders_checked"] += result.orders_checked
            c["metrics.find_kalmanson_order.found"] += int(result.found)

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per-layer calls, self time (``busy_s``) and failed calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        table = {layer: {"calls": 0, "busy_s": 0.0, "fail": 0} for layer in LAYERS}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            if name in table and end is not None:
                table[name]["calls"] += 1
                table[name]["busy_s"] += end - start - child_time[idx]
        for name, n in self.fails.items():
            table[name]["fail"] = n
        return table

    def write(self, path: Path) -> None:
        """Write the spans as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, op_id]) + "\n")


# ---------------------------------------------------------------------------
# running ops


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(workload, case: Case, op_id: int, limit: float, tracer=None) -> OpRecord:
    """Run one op, timed and under the time limit, then check it untimed."""
    workload.before_op()
    # each op starts from a collected heap, so it pays for its own garbage
    gc.collect()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    result = error = None
    if tracer is not None:
        tracer.op_id = op_id
        tracer.install()
        root = tracer.open("op")
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        result = workload.op(case)
    except (OpTimeout, Exception) as exc:  # classified below; the run goes on
        error = exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        if tracer is not None:
            seconds = tracer.close(root)
            tracer.uninstall()
        signal.signal(signal.SIGALRM, previous)
    status, detail = classify_outcome(workload, case, result, error, limit)
    return OpRecord(op_id, case.label, seconds, status, detail)


def classify_outcome(workload, case: Case, result, error, limit: float) -> tuple[str, str]:
    from phylocircuit.errors import PhyloCircuitError

    if isinstance(error, OpTimeout):
        return "timeout", f"ran past the {limit:g} s limit"
    if isinstance(error, (NoAnswer, PhyloCircuitError)):
        if case.answer_known:
            return "miss", f"{type(error).__name__}: {error}"
        return "ok", "no answer, none known"
    if error is not None:
        return "error", f"{type(error).__name__}: {error}"
    try:
        problem = workload.check(case, result)
    except Exception as exc:  # a check that cannot run is a wrong answer
        problem = f"check raised {type(exc).__name__}: {exc}"
    return ("wrong", problem) if problem else ("ok", "")


@dataclass
class Measurement:
    records: list[OpRecord] = field(default_factory=list)
    traced: list[OpRecord] = field(default_factory=list)
    tracer: Tracer | None = None


def measure(workload, seconds: float, trace: bool) -> Measurement:
    """Run whole cycles of the workload's inputs after one untimed warm-up op.

    The number of cycles is ``seconds`` over the workload's nominal cycle
    time, rounded and at least one, so a run lasts about ``seconds`` on the
    reference machine and every run of a workload has the same inputs count
    and mix, whatever its speed.  In a traced run every input runs twice,
    once traced and once not, in alternating order, so both latencies come
    from the same inputs.  No op starts after ``RUN_LIMIT_S``.
    """
    modules = {
        name: mod for name, mod in sys.modules.items()
        if name == "phylocircuit" or name.startswith("phylocircuit.")
    }
    tracer = Tracer(modules) if trace else None
    run_op(workload, workload.case(0), -1, OP_LIMIT_S)
    out = Measurement(tracer=tracer)
    cycles = max(1, round(seconds / workload.cycle_seconds))
    stop = time.perf_counter() + RUN_LIMIT_S
    for op_id in range(cycles * workload.cycle):
        if time.perf_counter() > stop:
            break
        case = workload.case(op_id)
        if tracer is None:
            out.records.append(run_op(workload, case, op_id, OP_LIMIT_S))
        else:
            first_traced = op_id % 2 == 1
            if first_traced:
                out.traced.append(run_op(workload, case, op_id, OP_LIMIT_S, tracer))
            out.records.append(run_op(workload, case, op_id, OP_LIMIT_S))
            if not first_traced:
                out.traced.append(run_op(workload, case, op_id, OP_LIMIT_S, tracer))
    return out


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count).  With too few samples the
    maximum is returned at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(m: Measurement, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics and the facts the report states beside them."""
    lat = [r.seconds for r in m.records]
    ok = sum(r.status == "ok" for r in m.records)
    tail_value, tail_pct, samples = tail(lat)
    metrics = {
        "ops_per_s": ok / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
        "ok_ratio": ok / len(lat),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    facts = {
        "tail_percentile": tail_pct,
        "samples": samples,
        "fail_ratio": 1.0 - ok / len(lat),
        "timed_seconds": sum(lat),
    }
    return metrics, facts


def per_layer(m: Measurement) -> dict:
    table = m.tracer.layer_table()
    metrics = {}
    for layer, row in table.items():
        for key, value in row.items():
            metrics[f"{layer}.{key}"] = value
    counts = m.tracer.counts
    for name, _ in COUNTERS:
        metrics[name] = counts.get(name, 0)
    searches = table["metrics.find_kalmanson_order"]["calls"]
    metrics["metrics.find_kalmanson_order.found_ratio"] = (
        counts.get("metrics.find_kalmanson_order.found", 0) / searches if searches else 0.0
    )
    traced = sum(r.seconds for r in m.traced)
    untraced = sum(r.seconds for r in m.records)
    metrics["trace.ops_per_s"] = len(m.traced) / traced
    metrics["trace.untraced_ops_per_s"] = len(m.records) / untraced
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["trace.layer_share"] = sum(row["busy_s"] for row in table.values()) / traced
    return metrics


# ---------------------------------------------------------------------------
# set-up time and environment

SETUP_NETWORK = """\
leaf 1 x1
leaf 2 x2
leaf 3 x3
leaf 4 x4
edge x1 a 1
edge x2 b 1
edge x3 c 1
edge x4 d 1
edge a b 1
edge b c 1
edge c d 2
edge d a 1
"""


def measure_setup(starts: int = SETUP_STARTS) -> tuple[float, list[float]]:
    """Median wall time of fresh ``python -m phylocircuit.cli validate`` runs."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / "setup_network.txt"
    path.write_text(SETUP_NETWORK, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    times = []
    for _ in range(starts):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "phylocircuit.cli", "validate", str(path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or "valid network: 4 leaves" not in proc.stdout:
            raise RuntimeError(f"validate failed: {proc.stdout}{proc.stderr}")
    return statistics.median(times), times


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import networkx
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "phylocircuit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }
