"""The benchmark's three workloads, each a closed loop of one client.

* ``ingest`` -- ``sqlite://``.  Every round opens a copy of the loaded
  base store, ``publish_many``s the following hours in city-hour
  batches, closes the store, reopens it, reads back what it published
  (one query and one lineage walk per city, a locate of every set) and
  closes it again.  Rounds start from the same base, so each round does
  the same amount of work whatever the program's speed.
* ``query`` -- a read-only ``sqlite://`` store loaded in set-up.  Rounds
  are a seeded shuffle of attribute+time-range, ``Q.near`` and
  time-window queries with fresh constants, deep ``ancestors`` and
  ``descendants`` walks, and locates of known and never-published
  PNames.
* ``remote_mixed`` -- ``pass://`` to a ``repro serve`` subprocess over a
  ``sqlite://`` store.  Rounds interleave one small live-feed
  ``publish_many`` with Zipf-skewed repeats of a fixed dashboard query
  catalogue, two lineage walks and a locate, while two standing
  subscriptions receive the feed.

Only calls into the program are timed; data generation and the oracle
checks run between them.  Every figure is over the whole timed phase:
a rate is its total over the time spent inside program calls, a latency
the mean of its calls.  Every op answer is checked against
:mod:`perfbench.oracle` after the timed phase; a mismatch counts the op
as failed.
"""

from __future__ import annotations

import gc
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro import api
from repro.core.provenance import PName

from perfbench.data import TrafficData, never_published
from perfbench.oracle import Oracle, QuerySpec

__all__ = ["WORKLOADS", "Sizes", "run_workload"]

HOUR = 3600.0
#: Page size of every lineage answer; ``Result.total`` still reports the
#: whole closure, which the oracle checks.
LINEAGE_PAGE = 50
#: Daemon flags, recorded in every remote run's report.
DAEMON_FLAGS = ["--port", "0", "--log-level", "warning"]
#: Set-up repetitions; ``setup_s`` is their median.
SETUPS = 5


class Sizes:
    """Data sizes of one run (``small`` shrinks them for the tests)."""

    def __init__(self, small: bool = False) -> None:
        self.ingest_cities = ("london", "boston", "seattle")
        self.ingest_stations = 2 if small else 4
        self.ingest_base_hours = 2 if small else 6
        self.ingest_round_hours = 1 if small else 2
        self.query_cities = ("london", "tokyo")
        self.query_stations = 1
        self.query_hours = 8 if small else 128
        self.remote_cities = ("london", "boston", "seattle")
        self.remote_stations = 1 if small else 2
        self.remote_base_hours = 3 if small else 24


class Recorder:
    """Times program calls and counts attempted and failed ops."""

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self.samples: Dict[str, List[float]] = {}
        #: (op, kind) -> [seconds]
        self.kinds: Dict[tuple, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.recording = False

    def call(self, op: str, fn: Callable, *args, kind: str = "", **kwargs):
        """Run one op of one kind; returns its result, or None when it raised."""
        if self.clock is not None:
            self.clock.op = op if self.recording else "warmup"
        started = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as error:  # an op that raises is a failed op, not a crash
            result = None
            if self.recording:
                self.fail(f"{op} raised {type(error).__name__}: {error}")
        elapsed = perf_counter() - started
        if self.clock is not None:
            self.clock.op = "check"
        if self.recording:
            self.attempted += 1
            self.samples.setdefault(op, []).append(elapsed)
            self.kinds.setdefault((op, kind), []).append(elapsed)
        return result

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def ops_per_s(self) -> float:
        """Ops over the time spent inside program calls, whole run."""
        busy = sum(sum(values) for values in self.samples.values())
        return self.attempted / busy if busy else 0.0


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _percentile(values: Sequence[float], share: float) -> Optional[float]:
    """The ``share`` quantile, or None unless ten samples lie beyond it."""
    if len(values) * (1.0 - share) < 10:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _sqlite_url(path: Path) -> str:
    return "sqlite:///" + str(path.resolve())


def _remove_db(path: Path) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        candidate = Path(str(path) + suffix)
        if candidate.exists():
            candidate.unlink()


#: ``client.stats()`` counters a traced run reports as timed-phase deltas
STAT_PATHS = (
    ("store", "queries"),
    ("store", "plan_cache_hits"),
    ("store", "records_scanned"),
    ("planner", "feedback", "queries_observed"),
    ("planner", "feedback", "misestimates"),
    ("planner", "feedback", "stats_refreshes"),
    ("planner", "feedback", "closure_switches"),
    ("planner", "feedback", "result_cache", "hits"),
    ("planner", "feedback", "result_cache", "misses"),
    ("planner", "feedback", "result_cache", "invalidations"),
)


def _stat(stats: dict, path: tuple) -> float:
    for key in path:
        stats = stats.get(key, {}) if isinstance(stats, dict) else {}
    return float(stats) if isinstance(stats, (int, float)) else 0.0


def _same_readings(stored, generated) -> bool:
    def key(reading):
        location = None if reading.location is None else (
            reading.location.latitude, reading.location.longitude)
        return (reading.sensor_id, reading.timestamp.seconds, dict(reading.values), location)

    return [key(r) for r in stored] == [key(r) for r in generated]


class Workload:
    """Shared run skeleton: set-up, warm-up, timed rounds, checks, report."""

    name = "?"

    def __init__(self, seed: int, workdir: Path, sizes: Sizes, clock=None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes
        self.clock = clock
        self.rec = Recorder(clock)
        self.rng = random.Random(f"{self.name}-{seed}")
        self.setup_times: List[float] = []
        self.reopen_times: List[float] = []
        #: [(readings, seconds)] of every timed publish
        self.publish_log: List[tuple] = []
        self.published_readings = 0
        self.published_sets = 0
        self.rows_returned = 0
        self.query_keys: Counter = Counter()
        self.bytes_per_reading: List[float] = []
        self.checks: List[Callable[[], None]] = []
        self.correct = True
        self.problems: List[str] = []
        #: program counters summed over the timed phase (see STAT_PATHS)
        self.stat_deltas: Counter = Counter()
        #: peak memory (MB) of what holds the store; set by ``finish``
        self.peak_mem = 0.0

    # -- hooks ---------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def round(self, rng: random.Random) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Close what the run opened and run the whole-run checks."""

    def add_stat_deltas(self, before: dict, after: dict) -> None:
        for path in STAT_PATHS:
            self.stat_deltas[path] += _stat(after, path) - _stat(before, path)

    @staticmethod
    def traced_peak_mb(calls: Callable[[], None]) -> float:
        """Peak Python heap (MB) that ``calls`` allocate, by ``tracemalloc``.

        Tracing starts after the benchmark has made its inputs, so the
        figure is the store's memory from open to close plus what the
        calls allocate on the way, and none of the benchmark's own data.
        Run it outside the timed phase: tracing slows every allocation.
        """
        gc.collect()
        tracemalloc.start()
        try:
            calls()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    # -- helpers -------------------------------------------------------------
    def problem(self, text: str) -> None:
        self.correct = False
        if len(self.problems) < 20:
            self.problems.append(text)

    def timed_publish(self, client, batch) -> None:
        """Publish one batch as a timed op; its PNames are checked later."""
        result = self.rec.call("publish", client.publish_many, batch)
        if not self.rec.recording:
            return
        readings = sum(len(ts.readings) for ts in batch)
        self.publish_log.append((readings, self.rec.samples["publish"][-1]))
        self.published_readings += readings
        self.published_sets += len(batch)
        expected = [ts.pname.digest for ts in batch]
        if result is not None:
            got = [pname.digest for pname in result.records]
            if got != expected:
                self.rec.fail("publish_many returned other PNames than it was given")

    def timed_query(self, client, spec: QuerySpec, expected: Callable[[], List[str]]) -> None:
        result = self.rec.call("query", client.query, spec.to_query(), kind=spec.kind)
        if not self.rec.recording or result is None:
            return
        self.query_keys[spec.key()] += 1
        self.rows_returned += len(result.records)
        got = [pname.digest for pname in result.records]
        total = result.total

        def check() -> None:
            want = expected()
            if total != len(want) or sorted(got) != sorted(want):
                self.rec.fail(
                    f"{spec.kind} query: got {len(got)} rows (total {total}),"
                    f" expected {len(want)}"
                )

        self.checks.append(check)

    def timed_lineage(self, client, direction: str, digest: str, expected) -> None:
        call = client.ancestors if direction == "ancestors" else client.descendants
        result = self.rec.call("lineage", call, PName(digest), kind=direction, limit=LINEAGE_PAGE)
        if not self.rec.recording or result is None:
            return
        got = [pname.digest for pname in result.records]
        total = result.total

        def check() -> None:
            want = sorted(expected())
            if total != len(want) or got != want[:LINEAGE_PAGE]:
                self.rec.fail(f"{direction}: total {total}, expected {len(want)}")

        self.checks.append(check)

    def timed_locate(self, client, digest: str, known: bool) -> None:
        result = self.rec.call(
            "locate", client.locate, PName(digest), kind="known" if known else "unknown")
        if not self.rec.recording or result is None:
            return
        found = [pname.digest for pname in result.records] == [digest]
        if known != found:
            self.rec.fail(f"locate of a {'published' if known else 'never-published'} PName")

    # -- the run -------------------------------------------------------------
    def run(self, seconds: float) -> None:
        gc.collect()
        self.setup()
        warm = random.Random(f"warmup-{self.name}-{self.seed}")
        for _ in range(3):
            self.round(warm)
        client = getattr(self, "client", None)
        before = client.stats() if client is not None else {}
        gc.collect()
        # GC stays on, but the benchmark's long-lived inputs and oracle are
        # frozen out of it: a full collection that lands inside a timed call
        # then scans what was made since, not the benchmark's whole heap.
        gc.freeze()
        self.rec.recording = True
        started = time.monotonic()
        while time.monotonic() - started < seconds:
            self.round(self.rng)
        self.rec.recording = False
        gc.unfreeze()
        if client is not None:
            self.add_stat_deltas(before, client.stats())
        if self.clock is not None:
            self.clock.op = "check"
        for check in self.checks:
            check()
        self.finish()

    # -- metrics -------------------------------------------------------------
    def end_to_end(self) -> Dict[str, tuple]:
        """The gated metrics of ``BENCHMARK.json``: every workload has each."""
        return {
            "setup_s": (_median(self.setup_times), "s"),
            "ops_per_s": (self.rec.ops_per_s(), "1/s"),
            "ingest_readings_per_s": (self.ingest_rate(), "1/s"),
            "publish_mean_ms": (self.kind_latency("publish") * 1e3, "ms"),
            "query_mean_ms": (self.kind_latency("query") * 1e3, "ms"),
            "lineage_mean_ms": (self.kind_latency("lineage") * 1e3, "ms"),
            "db_bytes_per_reading": (_median(self.bytes_per_reading), "B"),
            "peak_mem_mb": (self.peak_mem, "MB"),
        }

    def ingest_rate(self) -> float:
        """Readings published over the time spent inside ``publish_many``."""
        busy = sum(seconds for _, seconds in self.publish_log)
        return sum(readings for readings, _ in self.publish_log) / busy if busy else 0.0

    def kind_latency(self, op: str) -> float:
        """Geometric mean over ``op``'s kinds of each kind's mean latency.

        Kinds of one op cost differently (a locate of an unknown PName
        skips the removal lookup; a near query scans more than a range
        query), so one figure over the mixed samples moves with the
        seed's mix of kinds.  Each kind's figure is steady, and so is
        their geometric mean.
        """
        latencies = [_mean(v) for (o, _), v in self.rec.kinds.items() if o == op]
        return statistics.geometric_mean(latencies) if latencies else 0.0

    def extra_metrics(self) -> Dict[str, tuple]:
        """Figures printed by name but not gated (too noisy, or not on every workload)."""
        extra = {
            "locate_mean_us": (self.kind_latency("locate") * 1e6, "us"),
            "reopen_s": (_median(self.reopen_times), "s"),
        }
        p99 = _percentile(self.rec.samples.get("query", []), 0.99)
        if p99 is not None and len(self.rec.samples.get("query", [])) >= 1000:
            extra["query_p99_ms"] = (p99 * 1e3, "ms")
        return extra

    def timed_deliveries(self) -> List[float]:
        """Publish-to-callback delays (ms) of sets published while timed."""
        return []

    def repeat_share(self) -> float:
        queries = sum(self.query_keys.values())
        return (queries - len(self.query_keys)) / queries if queries else 0.0


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
class IngestWorkload(Workload):
    name = "ingest"

    def setup(self) -> None:
        sizes = self.sizes
        self.base = TrafficData(
            self.seed, sizes.ingest_cities, sizes.ingest_stations, sizes.ingest_base_hours
        )
        self.base_path = self.workdir / "base.db"
        for attempt in range(SETUPS):
            _remove_db(self.base_path)
            gc.collect()
            started = perf_counter()
            client = api.connect(_sqlite_url(self.base_path))
            for batch in self.base.batches:
                client.publish_many(batch)
            client.close()
            self.setup_times.append(perf_counter() - started)
        self.unknown = iter(never_published(self.seed, 10**6))

    def round(self, rng: random.Random) -> None:
        data, oracle = self._round_data(rng)
        self._round_calls(data, oracle, rng)

    def _round_data(self, rng: random.Random):
        """A round's fresh hours after the base, and the oracle over both."""
        sizes = self.sizes
        data = TrafficData(
            rng.randrange(2**31),
            sizes.ingest_cities,
            sizes.ingest_stations,
            sizes.ingest_round_hours,
            start_hour=sizes.ingest_base_hours,
            previous=self.base,
        )
        oracle = Oracle()
        oracle.add(self.base.sets)
        oracle.add(data.sets)
        return data, oracle

    def _round_calls(self, data: TrafficData, oracle: Oracle, rng: random.Random) -> None:
        """Copy the base, publish, close, reopen, read back, close."""
        sizes = self.sizes
        path = self.workdir / "round.db"
        _remove_db(path)
        shutil.copyfile(self.base_path, path)
        url = _sqlite_url(path)

        client = self.rec.call("open", api.connect, url)
        if client is None:
            return
        for batch in data.batches:
            self.timed_publish(client, batch)
        self.rec.call("close", client.close)
        readings = self.base.readings() + data.readings()
        if self.rec.recording:
            self.bytes_per_reading.append(path.stat().st_size / readings)

        client = self.rec.call("reopen", api.connect, url)
        if client is None:
            return
        if self.rec.recording:
            self.reopen_times.append(self.rec.samples["reopen"][-1])
            before = client.stats()
        start = sizes.ingest_base_hours * HOUR
        end = start + sizes.ingest_round_hours * HOUR - 1.0
        for city in sizes.ingest_cities:
            spec = QuerySpec("read-back", city=city, starts=(start, end))
            self.timed_query(client, spec, lambda spec=spec: oracle.select(spec))
            newest = data.last_rollup[city].pname.digest
            self.timed_lineage(
                client, "ancestors", newest, lambda d=newest: oracle.ancestors(d)
            )
        for tuple_set in data.sets:
            self.timed_locate(client, tuple_set.pname.digest, known=True)
        for _ in sizes.ingest_cities:
            self.timed_locate(client, next(self.unknown).digest, known=False)
        if self.rec.recording:
            self.add_stat_deltas(before, client.stats())
            self._check_reopened(client, oracle, data, rng)
        self.rec.call("close", client.close)
        _remove_db(path)

    def _check_reopened(self, client, oracle: Oracle, data: TrafficData, rng) -> None:
        store = client.store
        if len(store) != len(oracle):
            self.problem(f"reopened store holds {len(store)} records, expected {len(oracle)}")
        violations = store.verify_invariants()
        if violations:
            self.problem(f"verify_invariants after reopen: {violations[:3]}")
        for tuple_set in rng.sample(data.sets, 2):
            if not _same_readings(store.get_readings(tuple_set.pname), tuple_set.readings):
                self.problem("readings did not round-trip through reopen")

    def finish(self) -> None:
        # one more, untimed round measures the store's memory
        rng = random.Random(f"memory-{self.name}-{self.seed}")
        data, oracle = self._round_data(rng)
        self.peak_mem = self.traced_peak_mb(lambda: self._round_calls(data, oracle, rng))
        _remove_db(self.base_path)


# ----------------------------------------------------------------------
# query
# ----------------------------------------------------------------------
class QueryWorkload(Workload):
    name = "query"

    OPS = ("range",) * 4 + ("near",) * 2 + ("window",) * 2 + (
        "ancestors", "descendants", "locate", "locate-unknown")

    def setup(self) -> None:
        sizes = self.sizes
        self.data = TrafficData(
            self.seed, sizes.query_cities, sizes.query_stations, sizes.query_hours
        )
        self.oracle = Oracle()
        self.oracle.add(self.data.sets)
        self.path = self.workdir / "query.db"
        url = self.url = _sqlite_url(self.path)
        self.client = None
        for attempt in range(SETUPS):
            if self.client is not None:
                self.client.close()
                self.client = None
            _remove_db(self.path)
            gc.collect()
            self.rec.recording = True
            started = perf_counter()
            client = api.connect(url)
            for batch in self.data.batches:
                self.timed_publish(client, batch)
            client.close()
            if self.clock is not None:
                self.clock.op = "reopen"
            opened = perf_counter()
            self.client = api.connect(url)
            finished = perf_counter()
            self.rec.recording = False
            self.reopen_times.append(finished - opened)
            self.setup_times.append(finished - started)
        # set-up publishes feed the publish metrics (``kinds``), not the op mix
        self.rec.samples.clear()
        self.rec.attempted = 0
        self.bytes_per_reading.append(self.path.stat().st_size / self.data.readings())
        self.stored = len(self.client.store)
        self.raw = [d for d, row in zip(self.oracle.position, self.oracle.rows) if row[2] is None]
        self.deep = [ts.pname.digest for ts in self.data.rollups]
        self.all_digests = list(self.oracle.position)
        self.unknown = iter(never_published(self.seed, 10**6))
        self.span = sizes.query_hours * HOUR
        self.centres = self.data.centres
        # the readings are in the store now; the oracle needs only its rows
        self.data = None

    def _centre(self, rng, city: str):
        centre = self.centres[city]
        while True:
            lat = centre.latitude + rng.uniform(-0.05, 0.05)
            lon = centre.longitude + rng.uniform(-0.05, 0.05)
            radius = rng.uniform(2.0, 12.0)
            if not self.oracle.near_is_ambiguous(lat, lon, radius):
                return lat, lon, radius

    def round(self, rng: random.Random) -> None:
        ops = list(self.OPS)
        rng.shuffle(ops)
        client, oracle = self.client, self.oracle
        cities = self.sizes.query_cities
        for op in ops:
            if op == "range":
                low = rng.uniform(0.0, self.span - 3 * HOUR)
                spec = QuerySpec(
                    "range", city=rng.choice(cities),
                    starts=(low, low + rng.uniform(0.5, 3.0) * HOUR),
                )
            elif op == "near":
                t0 = rng.uniform(0.0, self.span - 4 * HOUR)
                spec = QuerySpec(
                    "near", near=self._centre(rng, rng.choice(cities)),
                    overlap=(t0, t0 + rng.uniform(1.0, 4.0) * HOUR),
                )
            elif op == "window":
                t0 = rng.uniform(0.0, self.span - 2 * HOUR)
                spec = QuerySpec("window", overlap=(t0, t0 + rng.uniform(0.25, 1.5) * HOUR))
            elif op == "ancestors":
                digest = rng.choice(self.deep)
                self.timed_lineage(client, op, digest, lambda d=digest: oracle.ancestors(d))
                continue
            elif op == "descendants":
                digest = rng.choice(self.raw)
                self.timed_lineage(client, op, digest, lambda d=digest: oracle.descendants(d))
                continue
            elif op == "locate":
                self.timed_locate(client, rng.choice(self.all_digests), known=True)
                continue
            else:
                self.timed_locate(client, next(self.unknown).digest, known=False)
                continue
            self.timed_query(client, spec, lambda spec=spec: oracle.select(spec))

    def finish(self) -> None:
        if len(self.client.store) != self.stored:
            self.problem("the read-only store changed size during the run")
        self.client.close()

        def reopen_and_round() -> None:
            # one more, untimed round on a fresh open measures the store's memory
            self.client = api.connect(self.url)
            self.round(random.Random(f"memory-{self.name}-{self.seed}"))
            self.client.close()

        self.peak_mem = self.traced_peak_mb(reopen_and_round)
        _remove_db(self.path)


# ----------------------------------------------------------------------
# remote_mixed
# ----------------------------------------------------------------------
_BANNER = re.compile(r"at (pass://[^\s]+)")


class Daemon:
    """A ``repro serve`` subprocess (or the traced launcher) on one store."""

    def __init__(self, store_url: str, workdir: Path, traced: bool) -> None:
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.dump_path = workdir / "daemon-layers.json"
        if traced:
            command = [sys.executable, "-u", str(root / "perfbench" / "traced_daemon.py"),
                       "--dump", str(self.dump_path), "serve"]
        else:
            command = [sys.executable, "-u", "-m", "repro", "serve"]
        self.command = command + ["--store", store_url] + DAEMON_FLAGS
        self.log = open(workdir / "daemon.log", "ab")
        self.process = subprocess.Popen(
            self.command, stdout=subprocess.PIPE, stderr=self.log, env=env, cwd=str(workdir)
        )
        line = self.process.stdout.readline().decode("utf-8", "replace")
        match = _BANNER.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.url = match.group(1)

    def peak_mem_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


class RemoteMixedWorkload(Workload):
    name = "remote_mixed"

    DASHBOARD_QUERIES = 8

    def setup(self) -> None:
        sizes = self.sizes
        cities = sizes.remote_cities
        self.base = TrafficData(
            self.seed, cities, sizes.remote_stations, sizes.remote_base_hours
        )
        self.oracle = Oracle()
        self.oracle.add(self.base.sets)
        self.stored_readings = self.base.readings()
        self.path = self.workdir / "remote.db"
        self.daemon: Optional[Daemon] = None
        self.client = None
        for attempt in range(SETUPS):
            if self.clock is not None:
                self.clock.op = "setup"
            self._stop()
            _remove_db(self.path)
            gc.collect()
            started = perf_counter()
            local = api.connect(_sqlite_url(self.path))
            for batch in self.base.batches:
                local.publish_many(batch)
            local.close()
            self.daemon = Daemon(_sqlite_url(self.path), self.workdir, self.clock is not None)
            opened = perf_counter()
            self.client = api.connect(self.daemon.url)
            finished = perf_counter()
            self.reopen_times.append(finished - opened)
            self.setup_times.append(finished - started)

        base_end = sizes.remote_base_hours * HOUR
        self.catalogue: List[QuerySpec] = []
        for city in cities:
            centre = self.base.centres[city]
            self.catalogue += [
                QuerySpec("city-history", city=city, starts=(0.0, base_end)),
                QuerySpec("city-aggregates", city=city, stage="aggregated"),
                QuerySpec("near-rollups", stage="rollup",
                          near=(centre.latitude, centre.longitude, 5.0)),
            ]
            if city == cities[0]:
                self.catalogue.append(
                    QuerySpec("last-2h", overlap=(base_end - 2 * HOUR, base_end - 1.0)))
        for spec in self.catalogue:
            self.oracle.watch(spec)
        # Zipf over a fixed rank order, so every seed asks the same mix
        self.zipf_weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(self.catalogue))]

        self.deep = [ts.pname.digest for ts in self.base.rollups]
        self.raw = [d for d, row in zip(self.oracle.position, self.oracle.rows) if row[2] is None]
        self.unknown = iter(never_published(self.seed, 10**6))
        self.feed: List[list] = []
        self.feed_data = self.base
        self.feed_seed = random.Random(f"feed-{self.seed}")

        self.deliveries: List[tuple] = []
        self.publish_started: Dict[str, float] = {}
        self.subscription_specs = {
            "city": QuerySpec("sub-city", city=cities[0]),
            "rollups": QuerySpec("sub-rollups", stage="rollup"),
        }
        self.subscribed_at = len(self.oracle)
        self.subscriptions = {
            name: self.client.subscribe(
                spec.to_query(),
                callback=lambda event, name=name: self.deliveries.append(
                    (name, event.pname.digest, perf_counter())
                ),
                name=name,
            )
            for name, spec in self.subscription_specs.items()
        }

    def _next_feed_batch(self) -> list:
        """The next five-minute step of the live feed: one window per city,
        plus each city's derived sets and rollup when an hour closes."""
        if not self.feed:
            data = TrafficData(
                self.feed_seed.randrange(2**31), self.sizes.remote_cities,
                self.sizes.remote_stations, 1,
                start_hour=self.feed_data.start_hour + self.feed_data.hours,
                previous=self.feed_data,
            )
            self.feed_data = data
            steps: List[list] = [[] for _ in range(12)]
            for batch in data.batches:
                raw = [ts for ts in batch if ts.provenance.get("stage") is None]
                for ts in raw:
                    step = int((ts.provenance.get("window_start").seconds % HOUR) // 300)
                    steps[step].append(ts)
                steps[-1].extend(ts for ts in batch if ts.provenance.get("stage") is not None)
            self.feed = [step for step in steps if step]
        return self.feed.pop(0)

    def round(self, rng: random.Random) -> None:
        ops = ["publish", "lineage", "lineage", "locate"] + ["query"] * self.DASHBOARD_QUERIES
        rng.shuffle(ops)
        client, oracle = self.client, self.oracle
        for op in ops:
            if op == "publish":
                batch = self._next_feed_batch()
                if self.rec.recording:
                    now = perf_counter()
                    for ts in batch:
                        self.publish_started[ts.pname.digest] = now
                self.timed_publish(client, batch)
                oracle.add(batch)
                self.stored_readings += sum(len(ts.readings) for ts in batch)
            elif op == "query":
                spec = rng.choices(self.catalogue, weights=self.zipf_weights)[0]
                upto = len(oracle)
                self.timed_query(client, spec, lambda s=spec, n=upto: oracle.watched(s, n))
            elif op == "lineage":
                upto = len(oracle)
                if rng.random() < 0.5:
                    digest = rng.choice(self.deep)
                    self.timed_lineage(
                        client, "ancestors", digest, lambda d=digest: oracle.ancestors(d)
                    )
                else:
                    digest = rng.choice(self.raw)
                    self.timed_lineage(
                        client, "descendants", digest,
                        lambda d=digest, n=upto: {
                            x for x in oracle.descendants(d) if oracle.position[x] < n
                        },
                    )
            elif rng.random() < 0.5:
                self.timed_locate(client, oracle.rows[rng.randrange(len(oracle))][0], known=True)
            else:
                self.timed_locate(client, next(self.unknown).digest, known=False)

    def _stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def finish(self) -> None:
        for name, subscription in self.subscriptions.items():
            spec = self.subscription_specs[name]
            want = sorted(oracle_row[0] for oracle_row in self.oracle.rows[self.subscribed_at:]
                          if spec.matches(oracle_row))
            got = sorted(digest for sub, digest, _ in self.deliveries if sub == name)
            if got != want:
                self.problem(f"subscription {name}: {len(got)} deliveries, expected {len(want)}")
            if subscription.dropped:
                self.problem(f"subscription {name} dropped {subscription.dropped} events")
        stream = self.client.stats().get("stream", {})
        if stream.get("dropped", 0):
            self.problem(f"daemon stream engine dropped {stream['dropped']} events")
        self.peak_mem = self.daemon.peak_mem_mb()
        self.dump_path = self.daemon.dump_path
        self._stop()
        self.bytes_per_reading.append(self.path.stat().st_size / self.stored_readings)
        _remove_db(self.path)

    def timed_deliveries(self) -> List[float]:
        return [
            (at - self.publish_started[digest]) * 1e3
            for _, digest, at in self.deliveries
            if digest in self.publish_started
        ]

    def extra_metrics(self) -> Dict[str, tuple]:
        extra = super().extra_metrics()
        delays = self.timed_deliveries()
        if delays:
            extra["delivery_p50_ms"] = (_median(delays), "ms")
        return extra


WORKLOADS = {
    "ingest": IngestWorkload,
    "query": QueryWorkload,
    "remote_mixed": RemoteMixedWorkload,
}


def run_workload(name: str, seed: int, seconds: float, workdir: Path,
                 small: bool = False, clock=None) -> Workload:
    """Run one workload to its end and return it, metrics ready."""
    workload = WORKLOADS[name](seed, workdir, Sizes(small), clock)
    workload.run(seconds)
    return workload
