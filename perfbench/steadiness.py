"""Check that the benchmark is steady: two sets of runs of one commit.

Usage (from the repository root)::

    python3 perfbench/steadiness.py [--workload W ...] [--seed 5000]
        [--seconds S] [--trace 0]

For each workload it makes two sets of ten runs of ``perfbench/run.py``,
alternating which set runs first (A B, then B A, ...), each run with its
own seed: set ``k``'s run ``i`` uses seed ``--seed + 10 * k + i``.  Pass
a ``--seed`` that was not used while the benchmark was tuned.

It prints, per workload and end-to-end metric, each set's median,
quartiles and spread -- the distance between the quartiles as a share
of the median, as ``statistics.quantiles(values, n=4)`` gives them --
next to the metric's bound from ``BENCHMARK.json``, and the drift of
the second set's median from the first in the metric's worse direction.
The two sets agree when every spread except ``setup_s``'s stays within
its bound, every drift within its bound, and the failed share of ops is
the same in both sets; the exit code says whether they do.  A spread of
a third of its bound or more is flagged ``margin``: the bound then holds
with less than the room a comparison of two commits needs.  With ``--trace 1`` it
reports the traced runs' per-layer medians instead, and the tracing
overhead as the gap between the traced end-to-end figures and the
untraced ones it also runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Two sets of ten runs each: the comparison a commit's runs must pass.
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in its own process; returns its JSON result line."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if trace:
        result["report"] = lines[:-1]
    return result


def summary(values):
    """``(median, q1, q3, spread)`` of a set of runs' values."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, ((q3 - q1) / median if median else float("inf"))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=5000)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    agree = True
    for workload in workloads:
        sets = [[] for _ in range(SETS)]
        for index in range(RUNS):
            for which in ((0, 1) if index % 2 == 0 else (1, 0)):
                seed = args.seed + which * RUNS + index
                result = run_once(workload, seed, args.seconds, args.trace)
                sets[which].append(result)
                print(f"{workload} set {which} seed {seed}: attempted {result['attempted']}"
                      f" failed {result['failed']} correct {result['correct']}", flush=True)
        print(f"\n== {workload}: {SETS} sets x {RUNS} runs,"
              f" {args.seconds} s each, trace {args.trace}")
        shares = {round(r["failed"] / r["attempted"], 12) for runs in sets for r in runs}
        if len(shares) != 1 or not all(r["correct"] for runs in sets for r in runs):
            agree = False
            print(f"  failed shares differ or a run was incorrect: {sorted(shares)}")
        for metric in metrics:
            name, bound = metric["name"], metric.get("bound")
            rows = []
            medians = []
            for runs in sets:
                median, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
                medians.append(median)
                rows.append(f"med {median:12.4f} q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:6.3f}")
            line = f"  {name:<44} " + " | ".join(rows)
            if bound is not None and args.trace == 0:
                worse = -1.0 if metric["better"] == "higher" else 1.0
                drift = worse * (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
                spread = 0.0 if name == "setup_s" else max(
                    summary([r["metrics"][name]["value"] for r in runs])[3] for runs in sets)
                ok = drift <= bound and spread <= bound
                agree &= ok
                verdict = "ok" if spread < bound / 3.0 else "ok, margin"
                line += (f" | bound {bound:.3f} drift {drift:+.3f}"
                         f" {verdict if ok else 'DISAGREE'}")
            print(line)
        if args.trace:
            traced = sets[0]
            untraced = [run_once(workload, args.seed + i, args.seconds, 0)
                        for i in range(len(traced))]
            traced_ops = [float(next(line.split()[1] for line in r["report"]
                                     if line.strip().startswith("ops_per_s"))) for r in traced]
            plain_ops = [r["metrics"]["ops_per_s"]["value"] for r in untraced]
            overhead = 1.0 - statistics.median(traced_ops) / statistics.median(plain_ops)
            print(f"  tracing overhead: ops_per_s {statistics.median(plain_ops):.1f} untraced,"
                  f" {statistics.median(traced_ops):.1f} traced ({overhead:.1%} slower)")
        print(flush=True)
    print("AGREE" if agree else "DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    raise SystemExit(main())
