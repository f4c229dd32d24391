"""Run ``repro serve`` with the benchmark's layer accumulators installed.

Usage: ``python perfbench/traced_daemon.py --dump FILE serve [serve flags]``

The daemon is the same :class:`~repro.server.PassDaemon` that ``repro
serve`` starts -- this launcher calls the CLI's own entry point -- with
:func:`perfbench.layers.install` wrapping the server-side request path
and every store layer.  On shutdown (SIGINT, as for ``repro serve``) it
writes the accumulators to ``FILE`` as JSON.

Requests are charged to the benchmark op they serve.  The benchmark
reads ``stats`` exactly once right before its timed phase and once
right after it; the launcher counts those reads, so only requests made
between them are charged to their op and everything else to
``untimed``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import LayerClock, install  # noqa: E402

#: wire op -> the benchmark op it serves
WIRE_OPS = {
    "publish_many": "publish",
    "query": "query",
    "ancestors": "lineage",
    "descendants": "lineage",
    "locate": "locate",
}


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--dump":
        print(__doc__, file=sys.stderr)
        return 2
    dump_path, serve_args = Path(argv[1]), argv[2:]

    from repro import cli
    from repro.server import protocol

    clock = LayerClock()
    install(clock, daemon=True)
    stats_reads = 0
    decode_body = protocol.decode_body

    def timed_decode_body(body):
        # the request's op is known only once its frame is decoded
        nonlocal stats_reads
        started = perf_counter()
        payload = decode_body(body)
        elapsed = perf_counter() - started
        op = payload.get("op") if isinstance(payload, dict) else None
        if op == "stats":
            stats_reads += 1
        timed = stats_reads == 1 and op in WIRE_OPS
        clock.op = WIRE_OPS[op] if timed else "untimed"
        clock.charge("daemon.frame", elapsed)
        return payload

    protocol.decode_body = timed_decode_body
    try:
        return cli.main(serve_args)
    finally:
        protocol.decode_body = decode_body
        dump_path.write_text(json.dumps(clock.dump()), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
