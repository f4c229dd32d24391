"""Per-layer self-time accounting for traced benchmark runs.

A traced run wraps the public entry points of each module of the
program with ``perf_counter`` accumulators owned by this file.  Time is
charged as *self time*: a wrapped call's duration minus the time spent
in wrapped calls it made, so the layers of one operation add up to at
most its wall time, and what they leave is the unattributed remainder.

Every charge is keyed by ``(op, layer)``.  The benchmark names the op
around each timed call (``clock.op = "query"``); the daemon launcher
names it from each request frame.  One stack of open calls is kept per
thread, so a reader thread decoding frames never steals time from the
caller it serves.

Nothing here is imported by the program: untraced runs never install it.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

__all__ = ["LayerClock", "install"]


class LayerClock:
    """``(op, layer) -> [calls, self seconds, inclusive seconds]`` accumulators."""

    def __init__(self) -> None:
        self.op = "setup"
        self.cells: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def charge(self, layer: str, seconds: float) -> None:
        """Charge one call timed by the caller (no wrapped calls inside it)."""
        self._charge(layer, seconds, 0.0)

    def _charge(self, layer: str, elapsed: float, child: float) -> None:
        cell = self.cells[(self.op, layer)]
        cell[0] += 1
        cell[1] += elapsed - child
        cell[2] += elapsed

    def timed(self, fn: Callable, layer: str, sized: str = None) -> Callable:
        """``fn`` wrapped so each call charges its self time to ``layer``.

        ``sized`` names a counter that also sums ``len()`` of each result.
        """
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = clock._stack()
            frame = [0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                clock._charge(layer, elapsed, frame[0])
            if sized is not None:
                clock.counters[(clock.op, sized)] += len(result)
            return result

        return wrapper

    def timed_generator(self, fn: Callable, layer: str) -> Callable:
        """Like :meth:`timed` for a generator: each ``next`` is one charge."""
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                stack = clock._stack()
                frame = [0.0]
                stack.append(frame)
                started = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - started
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                    clock._charge(layer, elapsed, frame[0])
                yield item

        return wrapper

    def patch(
        self, owner, name: str, layer: str, generator: bool = False, sized: str = None
    ) -> None:
        """Replace ``owner.name`` by its timed wrapper (undone by :meth:`uninstall`)."""
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(raw, staticmethod):
            function, rewrap = raw.__func__, staticmethod
        elif isinstance(raw, classmethod):
            function, rewrap = raw.__func__, classmethod
        else:
            function, rewrap = raw, (lambda wrapped: wrapped)
        if generator:
            wrapped = self.timed_generator(function, layer)
        else:
            wrapped = self.timed(function, layer, sized)
        setattr(owner, name, rewrap(wrapped))
        self._undo.append(lambda: setattr(owner, name, raw))

    def uninstall(self) -> None:
        """Put every patched entry point back."""
        while self._undo:
            self._undo.pop()()

    # -- reading the accumulators ----------------------------------------
    def self_seconds(self, layer: str, op: str = None) -> float:
        return sum(c[1] for (o, l), c in self.cells.items() if l == layer and op in (None, o))

    def inclusive_seconds(self, layer: str, op: str = None) -> float:
        return sum(c[2] for (o, l), c in self.cells.items() if l == layer and op in (None, o))

    def calls(self, layer: str, op: str = None) -> int:
        return int(sum(c[0] for (o, l), c in self.cells.items() if l == layer and op in (None, o)))

    def dump(self) -> dict:
        """The accumulators as JSON-ready data (the daemon launcher writes it)."""
        return {
            "cells": [[op, layer, *cell] for (op, layer), cell in self.cells.items()],
            "counters": [[op, name, value] for (op, name), value in self.counters.items()],
        }

    def merge(self, dumped: dict, prefix: str = "") -> None:
        """Fold in another process's :meth:`dump`, its layers renamed ``prefix + layer``."""
        for op, layer, calls, self_s, incl_s in dumped["cells"]:
            cell = self.cells[(op, prefix + layer)]
            cell[0] += calls
            cell[1] += self_s
            cell[2] += incl_s
        for op, name, value in dumped["counters"]:
            self.counters[(op, prefix + name)] += value


def install(clock: LayerClock, daemon: bool = False) -> None:
    """Wrap the entry points of every module a benchmark op crosses.

    ``daemon`` adds the server-side request path (frame decode, dispatch,
    frame encode in the writer task) for the traced daemon launcher.
    """
    from repro.api.client import LocalClient
    from repro.core import closure as closure_module
    from repro.core import pass_store as store_module
    from repro.core.pass_store import PassStore
    from repro.core.provenance import ProvenanceRecord
    from repro.index.attribute_index import AttributeIndex
    from repro.index.spatial_index import SpatialIndex
    from repro.index.temporal_index import TemporalIndex
    from repro.lineage.interval import IntervalClosure
    from repro.lineage.stats import GraphStatistics
    from repro.obs.metrics import MetricsRegistry
    from repro.query import paths as paths_module
    from repro.query.feedback import FeedbackCollector
    from repro.query.planner import QueryPlanner
    from repro.query.statistics import Statistics
    from repro.server import daemon as daemon_module
    from repro.server import protocol
    from repro.server.remote import RemoteClient
    from repro.storage.backend import StorageBackend
    from repro.storage.sqlite import SQLiteBackend
    from repro.stream.engine import StreamEngine

    facade_ops = ("publish_many", "query", "ancestors", "descendants", "locate")
    for client_class in (LocalClient, RemoteClient):
        for name in facade_ops:
            clock.patch(client_class, name, "api")
    clock.patch(MetricsRegistry, "record_op", "obs")

    if daemon:
        # the server side of the wire: frame decode in the read loop,
        # dispatch, and frame encode in the per-connection writer task
        clock.patch(daemon_module.PassDaemon, "_dispatch", "daemon.dispatch")
        # frame decode is charged by the launcher, which learns the op from it
        clock.patch(daemon_module, "encode_frame", "daemon.frame")
        clock.patch(daemon_module, "event_to_wire", "daemon.protocol")
        for name in ("tuple_set_from_wire", "query_from_wire", "result_to_wire",
                     "pname_from_wire"):
            clock.patch(protocol, name, "daemon.protocol")
    else:
        clock.patch(RemoteClient, "_call", "rpc")
        for name in ("tuple_set_to_wire", "query_to_wire"):
            clock.patch(protocol, name, "protocol.encode")
        clock.patch(protocol, "encode_frame", "protocol.encode", sized="wire_bytes")
        for name in ("decode_body", "result_from_wire", "event_from_wire"):
            clock.patch(protocol, name, "protocol.decode")

    # the store and its layers
    for name in ("__init__", "ingest_many", "query_explain", "ancestors", "descendants",
                 "__contains__", "is_removed", "get_readings"):
        clock.patch(PassStore, name, "store")
    clock.patch(PassStore, "refresh_statistics", "feedback.refresh")
    clock.patch(PassStore, "rebuild_closure_index", "closure.rebuild")
    clock.patch(PassStore, "_encode_readings", "codec")
    clock.patch(PassStore, "_decode_readings", "codec")
    clock.patch(ProvenanceRecord, "to_json", "provenance.to_json")
    clock.patch(ProvenanceRecord, "from_json", "provenance.from_json")
    clock.patch(store_module, "_execute_plan", "executor")
    clock.patch(QueryPlanner, "plan", "planner")
    for name in ("result_key", "cached_result", "maybe_admit", "observe_execution", "on_ingest"):
        clock.patch(FeedbackCollector, name, "feedback")
    for path_class in vars(paths_module).values():
        if isinstance(path_class, type) and "probe" in vars(path_class):
            if path_class.__name__ != "FullScanPath":
                clock.patch(path_class, "probe", "index.probe")
    for index_class in (AttributeIndex, TemporalIndex, SpatialIndex):
        clock.patch(index_class, "add", "index.maintain")
    clock.patch(Statistics, "observe", "index.maintain")
    clock.patch(GraphStatistics, "observe", "index.maintain")
    for closure_class in list(vars(closure_module).values()) + [IntervalClosure]:
        if isinstance(closure_class, type) and issubclass(closure_class, closure_module.ClosureStrategy):
            for name in ("ancestors", "descendants", "reachable"):
                if name in vars(closure_class):
                    clock.patch(closure_class, name, "closure.query")
            for name in ("add_node", "add_edge"):
                if name in vars(closure_class):
                    clock.patch(closure_class, name, "closure.maintain")
            if "rebuild" in vars(closure_class):
                clock.patch(closure_class, "rebuild", "closure.rebuild")
    for name in ("__init__", "put_batch", "get_record", "get_records", "has_record",
                 "record_count", "get_payload", "is_removed", "close",
                 "get_index_blob", "put_index_blob"):
        clock.patch(SQLiteBackend, name, "storage")
    clock.patch(SQLiteBackend, "iter_records", "storage", generator=True)
    clock.patch(StorageBackend, "scan_all", "storage")
    clock.patch(StreamEngine, "on_ingest", "stream")

