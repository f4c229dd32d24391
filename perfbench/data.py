"""Seeded traffic data for the benchmark: windows, derived sets, rollup chains.

The load is :class:`repro.sensors.workloads.TrafficWorkload`'s raw
five-minute windows plus its merge -> filter -> aggregate derived sets.
On top the benchmark builds one rollup chain per city: the rollup of
hour ``h`` derives from the hour's aggregate and from the rollup of hour
``h - 1``, so after ``H`` hours a chain is ``H + 3`` derivations deep and
the newest rollup has every earlier set of its city in its lineage.

Everything here is a pure function of the seed.  The program only ever
receives the :class:`~repro.core.tupleset.TupleSet` objects made here;
the oracles read the same objects' attributes and ancestor edges.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

from repro.core.attributes import Timestamp
from repro.core.provenance import PName
from repro.core.tupleset import SensorReading, TupleSet
from repro.pipeline.operators import DerivationOperator
from repro.sensors.workloads import TrafficWorkload

__all__ = ["HourlyRollup", "TrafficData", "never_published"]


class HourlyRollup(DerivationOperator):
    """Running per-city totals: hour ``h``'s aggregate plus the previous rollup.

    The aggregate is the first input, so the rollup carries the hour's
    window (not the whole history) and time-window queries stay selective.
    """

    stage = "rollup"

    def __init__(self) -> None:
        super().__init__("hourly-rollup", version="1.0", carry_attributes=("city", "owner"))

    def _transform(self, readings: Sequence[SensorReading]) -> List[SensorReading]:
        vehicles = 0.0
        hours = 0
        for reading in readings:
            if "vehicles_total" in reading.values:
                vehicles += float(reading.values["vehicles_total"])
                hours += int(reading.values["hours"])
            else:
                mean = reading.values.get("vehicle_count_mean", 0.0)
                count = reading.values.get("vehicle_count_count", 0)
                vehicles += float(mean) * float(count)
                hours += 1
        last = max(readings, key=lambda reading: reading.timestamp.seconds)
        return [
            SensorReading(
                sensor_id="hourly-rollup:total",
                timestamp=last.timestamp,
                values={"vehicles_total": vehicles, "hours": hours},
                location=last.location,
            )
        ]


class TrafficData:
    """``hours`` simulated hours of traffic data for ``cities``.

    ``batches`` lists one batch per city-hour, in publish order (hour by
    hour, city by city): the hour's raw windows, then its merged,
    filtered and aggregated sets, then its rollup.  ``previous`` is the
    :class:`TrafficData` this one continues in time (its rollups become
    the ancestors of this data's first rollups).
    """

    def __init__(
        self,
        seed: int,
        cities: Sequence[str],
        stations: int,
        hours: int,
        start_hour: int = 0,
        previous: Optional["TrafficData"] = None,
    ) -> None:
        self.cities = list(cities)
        self.start_hour = start_hour
        self.hours = hours
        workload = TrafficWorkload(
            seed=seed,
            start=Timestamp(start_hour * 3600.0),
            cities=self.cities,
            stations_per_city=stations,
        )
        self.centres = {
            city: network.centroid() for city, network in zip(self.cities, workload.networks)
        }
        raw, derived = workload.all_sets(hours)
        by_city_hour: Dict[tuple, List[TupleSet]] = {}
        for tuple_set in raw + derived:
            city = tuple_set.provenance.get("city")
            hour = int(tuple_set.provenance.get("window_start").seconds // 3600)
            by_city_hour.setdefault((city, hour), []).append(tuple_set)
        rollup = HourlyRollup()
        self.last_rollup: Dict[str, Optional[TupleSet]] = {
            city: (previous.last_rollup[city] if previous is not None else None)
            for city in self.cities
        }
        self.batches: List[List[TupleSet]] = []
        self.rollups: List[TupleSet] = []
        for hour in range(start_hour, start_hour + hours):
            for city in self.cities:
                members = by_city_hour.get((city, hour), [])
                aggregates = [
                    ts for ts in members if ts.provenance.get("stage") == "aggregated"
                ]
                batch = list(members)
                if aggregates:
                    inputs = [aggregates[0]]
                    if self.last_rollup[city] is not None:
                        inputs.append(self.last_rollup[city])
                    made = rollup.apply_many(inputs)
                    self.last_rollup[city] = made
                    self.rollups.append(made)
                    batch.append(made)
                self.batches.append(batch)
        self.sets: List[TupleSet] = [ts for batch in self.batches for ts in batch]

    def readings(self) -> int:
        """Readings across every set (what the store's payloads hold)."""
        return sum(len(ts.readings) for ts in self.sets)


def never_published(seed: int, count: int) -> List[PName]:
    """Seeded PNames that no generated record can have."""
    return [
        PName(hashlib.sha256(f"perfbench-never-{seed}-{index}".encode()).hexdigest())
        for index in range(count)
    ]
