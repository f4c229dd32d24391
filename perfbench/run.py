"""The PASS end-to-end benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {ingest,query,remote_mixed} \\
        --seed N --seconds S --trace {0,1}

The run builds its inputs from ``--seed``, sets the program up, warms
it up, measures whole rounds of its op mix for ``--seconds`` seconds,
checks every answer against the oracles and prints a human-readable
report followed, on the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` installs the per-layer accumulators of
:mod:`perfbench.layers` and reports the per-layer metrics (its report
lines also give the traced run's own end-to-end figures, so the tracing
overhead is their gap to an untraced run).  Scratch files live under
``.perfbench_work/`` in the working directory and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    # measure the checkout's own program, never one installed elsewhere
    raise SystemExit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import LayerClock, install  # noqa: E402
from perfbench.workloads import WORKLOADS, DAEMON_FLAGS, Workload, run_workload  # noqa: E402

#: The per-layer metrics of a traced run (name -> unit), BENCHMARK.json order.
PER_LAYER_UNITS = {
    "api.facade_us_per_op": "us",
    "obs.record_op_us_per_op": "us",
    "protocol.encode_ms_per_publish": "ms",
    "protocol.wire_bytes_per_reading": "B",
    "protocol.decode_ms_per_op": "ms",
    "daemon.server_ms_per_op": "ms",
    "daemon.transit_ms_per_op": "ms",
    "codec.encode_ms_per_1k_readings": "ms",
    "provenance.to_json_ms_per_1k_records": "ms",
    "provenance.from_json_calls_per_row_returned": "ratio",
    "provenance.from_json_ms_per_query": "ms",
    "planner.plan_ms_per_query": "ms",
    "planner.plan_cache_hit_ratio": "ratio",
    "executor.ms_per_query": "ms",
    "executor.rows_scanned_per_row_returned": "ratio",
    "feedback.misestimate_ratio": "ratio",
    "feedback.stats_refreshes": "count",
    "feedback.refresh_ms_total": "ms",
    "feedback.result_cache_hit_ratio": "ratio",
    "feedback.result_cache_invalidations": "count",
    "index.probe_ms_per_query": "ms",
    "index.maintain_ms_per_1k_records": "ms",
    "closure.query_ms_per_call": "ms",
    "closure.maintain_ms_per_1k_records": "ms",
    "closure.switches": "count",
    "closure.rebuild_ms": "ms",
    "storage.commit_ms_per_batch": "ms",
    "storage.fetch_ms_per_query": "ms",
    "storage.reopen_ms": "ms",
    "stream.dispatch_us_per_record": "us",
    "stream.deliveries": "count",
    "trace.unattributed_share": "ratio",
    "trace.ops_per_s": "1/s",
    "query.repeat_share": "ratio",
}

#: Client-side ops every workload times (the façade's verbs plus open/close).
TIMED_OPS = ("publish", "query", "lineage", "locate", "open", "close", "reopen")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(workload: Workload, clock: LayerClock) -> dict:
    """Derive the per-layer metrics from a traced run's accumulators."""
    remote = workload.name == "remote_mixed"
    # the store's layers run in the daemon on pass://, in-process otherwise
    core = "daemon/" if remote else ""
    samples = workload.rec.samples
    n = {op: len(samples.get(op, [])) for op in TIMED_OPS}
    n["publish"] = len(workload.publish_log)
    facade_ops = n["publish"] + n["query"] + n["lineage"] + n["locate"]
    published_sets = workload.published_sets
    readings = workload.published_readings
    deltas = workload.stat_deltas

    def own(layer, op=None):
        return clock.self_seconds(core + layer, op)

    def timed(layer):
        return sum(clock.self_seconds(layer, op) for op in TIMED_OPS)

    def per(value, count, scale):
        return _ratio(value, count) * scale

    queries = deltas[("store", "queries")]
    metrics = {
        "api.facade_us_per_op": per(timed("api"), facade_ops, 1e6),
        "obs.record_op_us_per_op": per(timed("obs"), facade_ops, 1e6),
        "protocol.encode_ms_per_publish": per(
            clock.self_seconds("protocol.encode", "publish"), n["publish"], 1e3),
        "protocol.wire_bytes_per_reading": _ratio(
            clock.counters.get(("publish", "wire_bytes"), 0.0), readings) if remote else 0.0,
        "protocol.decode_ms_per_op": per(timed("protocol.decode"), facade_ops, 1e3),
        "codec.encode_ms_per_1k_readings": per(own("codec", "publish"), readings, 1e6),
        "provenance.to_json_ms_per_1k_records": per(
            own("provenance.to_json", "publish"), published_sets, 1e6),
        "provenance.from_json_calls_per_row_returned": _ratio(
            clock.calls(core + "provenance.from_json", "query"), workload.rows_returned),
        "provenance.from_json_ms_per_query": per(
            own("provenance.from_json", "query"), n["query"], 1e3),
        "planner.plan_ms_per_query": per(own("planner", "query"), n["query"], 1e3),
        "planner.plan_cache_hit_ratio": _ratio(
            deltas[("store", "plan_cache_hits")], queries),
        "executor.ms_per_query": per(own("executor", "query"), n["query"], 1e3),
        "executor.rows_scanned_per_row_returned": _ratio(
            deltas[("store", "records_scanned")], workload.rows_returned),
        "feedback.misestimate_ratio": _ratio(
            deltas[("planner", "feedback", "misestimates")],
            deltas[("planner", "feedback", "queries_observed")]),
        "feedback.stats_refreshes": deltas[("planner", "feedback", "stats_refreshes")],
        "feedback.refresh_ms_total": sum(
            clock.inclusive_seconds(core + "feedback.refresh", op) for op in TIMED_OPS) * 1e3,
        "feedback.result_cache_hit_ratio": _ratio(
            deltas[("planner", "feedback", "result_cache", "hits")],
            deltas[("planner", "feedback", "result_cache", "hits")]
            + deltas[("planner", "feedback", "result_cache", "misses")]),
        "feedback.result_cache_invalidations": deltas[("planner", "feedback", "result_cache", "invalidations")],
        "index.probe_ms_per_query": per(own("index.probe", "query"), n["query"], 1e3),
        "index.maintain_ms_per_1k_records": per(
            own("index.maintain", "publish"), published_sets, 1e6),
        "closure.query_ms_per_call": per(own("closure.query", "lineage"), n["lineage"], 1e3),
        "closure.maintain_ms_per_1k_records": per(
            own("closure.maintain", "publish"), published_sets, 1e6),
        "closure.switches": deltas[("planner", "feedback", "closure_switches")],
        "closure.rebuild_ms": sum(
            clock.inclusive_seconds(core + "closure.rebuild", op) for op in TIMED_OPS) * 1e3,
        "storage.commit_ms_per_batch": per(own("storage", "publish"), n["publish"], 1e3),
        "storage.fetch_ms_per_query": per(own("storage", "query"), n["query"], 1e3),
        "storage.reopen_ms": per(
            clock.self_seconds("storage", "reopen"), len(workload.reopen_times), 1e3),
        "stream.dispatch_us_per_record": per(
            own("stream", "publish"), clock.calls(core + "stream", "publish"), 1e6),
        "stream.deliveries": float(len(workload.timed_deliveries())),
        "trace.ops_per_s": workload.rec.ops_per_s(),
        "query.repeat_share": workload.repeat_share(),
    }
    server = {op: 0.0 for op in TIMED_OPS}
    if remote:
        for op in TIMED_OPS:
            server[op] = (clock.inclusive_seconds("daemon/daemon.dispatch", op)
                          + clock.self_seconds("daemon/daemon.frame", op))
        rpc = sum(clock.self_seconds("rpc", op) for op in TIMED_OPS)
        metrics["daemon.server_ms_per_op"] = per(sum(server.values()), facade_ops, 1e3)
        metrics["daemon.transit_ms_per_op"] = per(rpc - sum(server.values()), facade_ops, 1e3)
    else:
        metrics["daemon.server_ms_per_op"] = 0.0
        metrics["daemon.transit_ms_per_op"] = 0.0
    wall = {op: sum(samples[op]) for op in TIMED_OPS if op in samples}
    attributed = {
        op: sum(cell[1] for (o, layer), cell in clock.cells.items()
                if o == op and not layer.startswith("daemon/"))
        for op in wall
    }
    metrics["trace.unattributed_share"] = _ratio(
        sum(wall.values()) - sum(attributed.values()), sum(wall.values()))
    workload.unattributed = {op: (wall[op] - attributed[op], wall[op]) for op in wall}
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def _print_report(workload: Workload, e2e: dict, layer: dict, trace: bool) -> None:
    print(f"workload {workload.name}  seed {workload.seed}  "
          f"attempted {workload.rec.attempted}  failed {workload.rec.failed}  "
          f"correct {workload.correct}")
    if workload.name == "remote_mixed":
        print(f"daemon flags: {' '.join(DAEMON_FLAGS)} (plus --store sqlite:///...)")
    print(f"ops by type: " + ", ".join(
        f"{op} {len(values)}" for op, values in sorted(workload.rec.samples.items())))
    print(f"query key repeat share: {workload.repeat_share():.4f}")
    title = "end-to-end (traced run)" if trace else "end-to-end"
    print(title + ":")
    for name, (value, unit) in {**e2e, **workload.extra_metrics()}.items():
        print(f"  {name:<24} {value:>14.4f} {unit}")
    if trace:
        print("per-layer:")
        for name, value in layer.items():
            print(f"  {name:<44} {value:>14.4f} {PER_LAYER_UNITS[name]}")
        print("unattributed remainder (outside every wrapped entry point):")
        for op, (rest, wall) in workload.unattributed.items():
            print(f"  {op:<8} {rest * 1e3:>10.2f} ms of {wall * 1e3:>10.2f} ms"
                  f" ({_ratio(rest, wall):.1%})")
    for text in workload.rec.failures + workload.problems:
        print(f"  ! {text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrink the data (the benchmark's own tests use it)")
    args = parser.parse_args(argv)

    workdir = Path.cwd() / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    clock = LayerClock() if args.trace else None
    if clock is not None:
        install(clock)
    try:
        workload = run_workload(args.workload, args.seed, args.seconds, workdir,
                                small=args.small, clock=clock)
        layer = {}
        if clock is not None:
            dump = getattr(workload, "dump_path", None)
            if dump is not None and dump.exists():
                clock.merge(json.loads(dump.read_text(encoding="utf-8")), prefix="daemon/")
            layer = per_layer_metrics(workload, clock)
    finally:
        if clock is not None:
            clock.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    e2e = workload.end_to_end()
    _print_report(workload, e2e, layer, bool(args.trace))
    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                   for name, value in layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    correct = workload.correct and workload.rec.attempted > 0
    print(json.dumps({"correct": correct, "attempted": workload.rec.attempted,
                      "failed": workload.rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
