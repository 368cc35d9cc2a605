"""Layer benchmark of the emulator: one command for every workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload wordcount --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics with tracing off; its rates
and set-up time are normalized by a host-speed probe (``perfbench/probe.py``).  ``--trace 1``
alternates untraced and traced episodes and reports the per-layer metrics of
the traced ones (see ``perfbench/README.md``).  ``--workload all`` runs every
workload in both modes, each in a fresh process.  Episodes repeat until
``--seconds`` of wall time have passed; every metric is a median over them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every correctness, sustainability and determinism check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
#: Fewest episodes of each kind a run measures, however long they take.
MIN_EPISODES = 3
#: p99 is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10

#: End-to-end metrics reported in the result (and bounded in BENCHMARK.json).
E2E_UNITS = {
    "records_per_s_norm": "1/s",
    "records_per_cpu_s_norm": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_latency_p50_ms": "ms",
    "sim_latency_p99_ms": "ms",
    "passed_frac": "ratio",
}
#: Raw rates and set-up time, printed beside the others.  Host-speed drift
#: spreads them too widely across runs to bound (see perfbench/README.md).
RAW_UNITS = {"records_per_s": "1/s", "records_per_cpu_s": "1/s", "setup_raw_s": "s"}

OPERATORS = ("flat_map", "map_pairs", "reduce_by_key", "update_state_by_key")

LAYER_UNITS = {
    "simulation.events_per_record": "count",
    "simulation.self_s": "s",
    "network.packets_per_record": "count",
    "network.bytes_per_record": "B",
    "network.self_s": "s",
    "transport.requests_per_record": "count",
    "transport.retries": "count",
    "transport.failed": "count",
    "producer.self_s": "s",
    "producer.records_per_request": "count",
    "broker.self_s": "s",
    "broker.produce.self_s": "s",
    "broker.fetch.self_s": "s",
    "broker.replica_fetch.self_s": "s",
    "broker.fetch.empty_ratio": "ratio",
    "broker.replica_fetch.empty_ratio": "ratio",
    "log.self_s": "s",
    "log.append.self_s": "s",
    "log.read.self_s": "s",
    "log.records_per_read": "count",
    "consumer.self_s": "s",
    "consumer.fetches_per_record": "count",
    "coordinator.requests": "count",
    "coordinator.self_s": "s",
    "coordinator.elections": "count",
    "engine.self_s": "s",
    **{f"engine.{op}.self_s": "s" for op in OPERATORS},
    "engine.sink.self_s": "s",
    "engine.records_in": "count",
    "engine.records_out": "count",
    "engine.sched_delay_p99_ms": "ms",
    "workloads.generate_s": "s",
    "loadgen.self_s": "s",
    **{f"{layer}.share": "ratio" for layer in (
        "simulation", "network", "producer", "broker", "log",
        "consumer", "coordinator", "engine", "loadgen", "trace",
    )},
    "trace.overhead_ratio": "ratio",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import the program from this checkout's ``src`` (and nowhere else)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        _fail(f"imported repro from {repro.__file__}, not from {SRC}")


def _percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))
    return ordered[rank - 1]


def _spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def _code_hash() -> str:
    digest = hashlib.sha256()
    for base in (SRC / "repro", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _digest(outcome, p50: float, p99: float) -> str:
    counts = outcome.counts
    fingerprint = [
        counts["events"], counts["packets"], counts["delivered"], repr(p50), repr(p99),
    ]
    return hashlib.sha256(json.dumps(fingerprint).encode()).hexdigest()[:16]


def _check_digest_store(key: str, digest: str) -> str:
    """Compare with earlier runs of the same code and seed; '' when consistent."""
    path = STATE_DIR / "digests.json"
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    known = store.get(key)
    if known is not None and known != digest:
        return f"digest {digest} differs from {known} of an earlier run of the same code and seed"
    if known is None:
        store[key] = digest
        STATE_DIR.mkdir(exist_ok=True)
        pending = path.with_suffix(".tmp")
        pending.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(pending, path)
    return ""


def run_episode(workload, inputs, tracer=None) -> dict:
    """Set up, run and check one episode; returns its timings and outcome."""
    from perfbench import trace
    from perfbench.probe import probe

    # Collect the previous episode's garbage before this one is timed.
    gc.collect()
    uninstall = trace.install(tracer) if tracer is not None else None
    try:
        probe_setup = probe()
        started = time.perf_counter()
        episode = workload.episode(inputs)
        episode.warm_up()
        set_up = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        probe_before = probe()
        cpu_started = time.process_time()
        wall_started = time.perf_counter()
        episode.run()
        wall = time.perf_counter() - wall_started
        cpu = time.process_time() - cpu_started
    finally:
        if uninstall is not None:
            uninstall()
    probe_after = probe()
    outcome = episode.check()
    ordered = sorted(outcome.latencies)
    problems = list(outcome.problems)
    if len(ordered) * 0.01 < TAIL_SAMPLES:
        problems.append(f"only {len(ordered)} latency samples: p99 needs {TAIL_SAMPLES * 100}")
    p50 = _percentile(ordered, 0.50) if ordered else 0.0
    p99 = _percentile(ordered, 0.99) if ordered else 0.0
    batches = getattr(getattr(episode, "ctx", None), "batch_metrics", [])
    delays = sorted(m.scheduling_delay for m in batches)
    # Keep only the counts: holding whole emulations would inflate peak_rss_mb.
    outcome.latencies = None
    return {
        "setup_s": set_up - started,
        "probe_setup_s": (probe_setup[0] + probe_before[0]) / 2,
        "wall_s": wall,
        "cpu_s": cpu,
        "probe_wall_s": (probe_before[0] + probe_after[0]) / 2,
        "probe_cpu_s": (probe_before[1] + probe_after[1]) / 2,
        "outcome": outcome,
        "problems": problems,
        "p50": p50,
        "p99": p99,
        "digest": _digest(outcome, p50, p99),
        "sched_delay_p99": _percentile(delays, 0.99) if delays else 0.0,
    }


def end_to_end(runs) -> dict:
    """Per-episode values of every end-to-end metric and raw rate."""
    from perfbench.probe import REFERENCE_S

    values = {name: [] for name in {**E2E_UNITS, **RAW_UNITS}}
    for run in runs:
        outcome = run["outcome"]
        passed = outcome.attempted - outcome.failed
        values["records_per_s"].append(passed / run["wall_s"])
        values["records_per_cpu_s"].append(passed / run["cpu_s"])
        values["records_per_s_norm"].append(passed / run["wall_s"] * run["probe_wall_s"] / REFERENCE_S)
        values["records_per_cpu_s_norm"].append(passed / run["cpu_s"] * run["probe_cpu_s"] / REFERENCE_S)
        values["setup_raw_s"].append(run["setup_s"])
        values["setup_s"].append(run["setup_s"] * REFERENCE_S / run["probe_setup_s"])
        values["sim_latency_p50_ms"].append(run["p50"] * 1e3)
        values["sim_latency_p99_ms"].append(run["p99"] * 1e3)
        values["passed_frac"].append(passed / outcome.attempted)
    values["peak_rss_mb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return values


def per_layer(run, tracer, generate_s: float) -> dict:
    """Per-layer metrics of one traced episode (all but ``trace.overhead_ratio``)."""
    from perfbench.trace import LAYERS

    outcome = run["outcome"]
    counts = outcome.counts
    n = outcome.attempted
    traced = defaultdict(int, tracer.counts)
    layer_self = {layer: tracer.self_seconds(prefixes) for layer, prefixes in LAYERS.items()}
    span = tracer.span_seconds

    def ratio(numerator, denominator) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {
        "simulation.events_per_record": counts["events"] / n,
        "simulation.self_s": layer_self["simulation"],
        "network.packets_per_record": counts["packets"] / n,
        "network.bytes_per_record": counts["bytes"] / n,
        "network.self_s": layer_self["network"],
        "transport.requests_per_record": counts["requests"] / n,
        "transport.retries": counts["retries"],
        "transport.failed": counts["request_failures"],
        "producer.self_s": layer_self["producer"],
        "producer.records_per_request": ratio(traced["produce.records"], traced["broker.produce.requests"]),
        "broker.self_s": layer_self["broker"],
        "broker.produce.self_s": span("broker.produce"),
        "broker.fetch.self_s": span("broker.fetch"),
        "broker.replica_fetch.self_s": span("broker.replica_fetch"),
        "broker.fetch.empty_ratio": ratio(traced["broker.fetch.empty"], traced["broker.fetch.requests"]),
        "broker.replica_fetch.empty_ratio": ratio(
            traced["broker.replica_fetch.empty"], traced["broker.replica_fetch.requests"]
        ),
        "log.self_s": layer_self["log"],
        "log.append.self_s": span("log.append"),
        "log.read.self_s": span("log.read"),
        "log.records_per_read": ratio(traced["log.records_read"], traced["log.reads"]),
        "consumer.self_s": layer_self["consumer"],
        "consumer.fetches_per_record": traced["broker.fetch.requests"] / n,
        "coordinator.requests": sum(
            value for name, value in traced.items()
            if name.startswith("coordinator.") and name.endswith(".requests")
        ),
        "coordinator.self_s": layer_self["coordinator"],
        "coordinator.elections": counts["elections"],
        "engine.self_s": layer_self["engine"],
        **{f"engine.{op}.self_s": span(f"engine.{op}") for op in OPERATORS},
        "engine.sink.self_s": span("engine.sink"),
        "engine.records_in": counts.get("engine_records_in", 0),
        "engine.records_out": counts.get("engine_records_out", 0),
        "engine.sched_delay_p99_ms": run["sched_delay_p99"] * 1e3,
        "workloads.generate_s": generate_s,
        "loadgen.self_s": layer_self["loadgen"],
    }
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.share"] = seconds / run["wall_s"]
    metrics["trace.share"] = run["tracer_overhead_ns"] / 1e9 / run["wall_s"]
    return metrics


def run_all(workloads, seed: int, seconds: float) -> int:
    """Run every workload untraced and then traced, each in a fresh process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE,
                text=True,
            )
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"CHECK FAILED: {name} (trace {trace}) printed no result")
                correct = False
                continue
            correct = correct and child.returncode == 0 and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                metrics[f"{name}:{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from perfbench.trace import Tracer, calibrate
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(WORKLOADS, args.seed, args.seconds)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    generate_started = time.perf_counter()
    inputs = workload.generate(args.seed)
    generate_s = time.perf_counter() - generate_started

    untraced, traced, layer_samples = [], [], []
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        calibrate(tracer)
    deadline = time.perf_counter() + args.seconds
    while True:
        untraced.append(run_episode(workload, inputs))
        if tracer is not None:
            traced.append(run_episode(workload, inputs, tracer))
            traced[-1]["tracer_overhead_ns"] = tracer.overhead_ns
            layer_samples.append(per_layer(traced[-1], tracer, generate_s))
        enough = len(untraced) >= MIN_EPISODES
        if enough and time.perf_counter() >= deadline:
            break

    problems = []
    for run in untraced + traced:
        problems += run["problems"]
    digests = {run["digest"] for run in untraced}
    if len(digests) != 1:
        problems.append(f"untraced episodes of one seed gave different digests: {sorted(digests)}")
    traced_digests = {run["digest"] for run in traced}
    if traced and traced_digests != digests:
        problems.append(f"traced digests {sorted(traced_digests)} differ from untraced {sorted(digests)}")
    digest = untraced[0]["digest"]
    stored = _check_digest_store(f"{_code_hash()}:{args.workload}:{args.seed}", digest)
    if stored:
        problems.append(stored)

    attempted = sum(run["outcome"].attempted for run in untraced + traced)
    failed = sum(run["outcome"].failed for run in untraced + traced)

    print(f"workload {args.workload}  seed {args.seed}  digest {digest}  "
          f"episodes {len(untraced)} untraced, {len(traced)} traced  "
          f"generate {generate_s:.3f} s")
    if args.trace:
        metrics = {
            name: statistics.median([sample[name] for sample in layer_samples])
            for name in LAYER_UNITS if name != "trace.overhead_ratio"
        }
        traced_wall = statistics.median(run["wall_s"] for run in traced)
        metrics["trace.overhead_ratio"] = traced_wall / statistics.median(run["wall_s"] for run in untraced)
        units = LAYER_UNITS
        stem = STATE_DIR / f"trace-{args.workload}-seed{args.seed}"
        tracer.write(str(stem))
        print(f"spans of the last traced episode: {stem}.spans / {stem}.json")
        print("wrapper costs taken off self times, ns inside / in the parent: " + ", ".join(
            f"{kind} {inner}/{outer}" for kind, (inner, outer) in tracer.costs.items()))
        for name in LAYER_UNITS:
            print(f"  {name:36s} {metrics[name]:14.6g} {units[name]}")
    else:
        values = end_to_end(untraced)
        metrics = {name: statistics.median(values[name]) for name in E2E_UNITS}
        units = E2E_UNITS
        print(f"  {'metric':24s} {'median':>14s} {'unit':6s} {'IQR/median':>10s} {'n':>4s}")
        for name, unit in {**RAW_UNITS, **E2E_UNITS}.items():
            print(f"  {name:24s} {statistics.median(values[name]):14.6g} {unit:6s} "
                  f"{_spread(values[name]):10.4f} {len(values[name]):4d}")
        probes = [run["probe_wall_s"] * 1e3 for run in untraced]
        print(f"  host probe {statistics.median(probes):.2f} ms median, {min(probes):.2f}-{max(probes):.2f} ms")
        print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} records)")
    for problem in dict.fromkeys(problems):
        print(f"CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
