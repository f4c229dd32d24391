"""Answers computed apart from the program, from the generated data alone.

The oracle keeps one flat row per published tuple set (PName, city,
stage, window bounds, location) and the generator's own ancestor edges.
Query answers are a brute-force filter over those rows; lineage answers
are a graph walk over those edges.  No planner, index, closure
strategy or predicate class of the program is involved.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.api import Q
from repro.core.attributes import GeoPoint, Timestamp
from repro.core.tupleset import TupleSet

__all__ = ["Oracle", "QuerySpec", "great_circle_km"]

_EARTH_RADIUS_KM = 6371.0


def great_circle_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Haversine distance on a sphere of the mean Earth radius."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlambda = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2) ** 2
    return 2 * _EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


class QuerySpec:
    """One conjunctive query, as the benchmark states it.

    ``starts`` is ``(low, high)``: the window start lies in ``[low, high]``
    (both inclusive).  ``overlap`` is ``(t0, t1)``: the record's
    ``[window_start, window_end]`` meets ``[t0, t1]``.  ``near`` is
    ``(lat, lon, radius_km)``.  :meth:`to_query` states the same
    question in the program's query DSL; :meth:`matches` answers it for
    one oracle row.
    """

    __slots__ = ("city", "stage", "starts", "overlap", "near", "kind", "_distances")

    def __init__(self, kind: str, city=None, stage=None, starts=None, overlap=None, near=None):
        self.kind = kind
        self.city = city
        self.stage = stage
        self.starts = starts
        self.overlap = overlap
        self.near = near
        self._distances: Dict[Tuple[float, float], float] = {}

    def key(self) -> tuple:
        return (self.city, self.stage, self.starts, self.overlap, self.near)

    def to_query(self):
        parts = []
        if self.city is not None:
            parts.append(Q.attr("city") == self.city)
        if self.stage is not None:
            parts.append(Q.attr("stage") == self.stage)
        if self.starts is not None:
            low, high = self.starts
            parts.append(Q.attr("window_start").between(Timestamp(low), Timestamp(high)))
        if self.overlap is not None:
            parts.append(Q.between(Timestamp(self.overlap[0]), Timestamp(self.overlap[1])))
        if self.near is not None:
            lat, lon, radius = self.near
            parts.append(Q.near(GeoPoint(lat, lon), radius))
        return parts[0] if len(parts) == 1 else Q.all(*parts)

    def matches(self, row: tuple) -> bool:
        _, city, stage, start, end, lat, lon = row
        if self.city is not None and city != self.city:
            return False
        if self.stage is not None and stage != self.stage:
            return False
        if self.starts is not None and not (self.starts[0] <= start <= self.starts[1]):
            return False
        if self.overlap is not None and not (start <= self.overlap[1] and end >= self.overlap[0]):
            return False
        if self.near is not None:
            distance = self._distances.get((lat, lon))
            if distance is None:
                distance = great_circle_km(lat, lon, self.near[0], self.near[1])
                self._distances[(lat, lon)] = distance
            if distance > self.near[2]:
                return False
        return True


class Oracle:
    """Rows and ancestor edges of every tuple set published so far, in order."""

    def __init__(self) -> None:
        self.rows: List[tuple] = []
        self.position: Dict[str, int] = {}
        self.parents: Dict[str, Tuple[str, ...]] = {}
        self.children: Dict[str, List[str]] = {}
        self.locations: Set[Tuple[float, float]] = set()
        self._watched: Dict[tuple, Tuple[QuerySpec, List[int]]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, tuple_sets: Iterable[TupleSet]) -> None:
        for tuple_set in tuple_sets:
            record = tuple_set.provenance
            digest = record.pname().digest
            if digest in self.position:
                continue
            location = record.get("location")
            row = (
                digest,
                record.get("city"),
                record.get("stage"),
                record.get("window_start").seconds,
                record.get("window_end").seconds,
                location.latitude,
                location.longitude,
            )
            self.locations.add((location.latitude, location.longitude))
            self.position[digest] = len(self.rows)
            self.rows.append(row)
            self.parents[digest] = tuple(a.digest for a in record.ancestors)
            for parent in self.parents[digest]:
                self.children.setdefault(parent, []).append(digest)
            for spec, hits in self._watched.values():
                if spec.matches(row):
                    hits.append(len(self.rows) - 1)

    # -- queries ----------------------------------------------------------
    def select(self, spec: QuerySpec) -> List[str]:
        """Brute force: every row that ``spec`` matches."""
        return [row[0] for row in self.rows if spec.matches(row)]

    def watch(self, spec: QuerySpec) -> None:
        """Keep ``spec``'s matches up to date as rows arrive (repeated queries)."""
        if spec.key() not in self._watched:
            hits = [index for index, row in enumerate(self.rows) if spec.matches(row)]
            self._watched[spec.key()] = (spec, hits)

    def watched(self, spec: QuerySpec, upto: int) -> List[str]:
        """A watched ``spec``'s matches among the first ``upto`` rows."""
        hits = self._watched[spec.key()][1]
        return [self.rows[index][0] for index in hits[: bisect.bisect_left(hits, upto)]]

    def near_is_ambiguous(self, lat: float, lon: float, radius: float) -> bool:
        """True when a stored location sits on the radius (rounding could flip it)."""
        return any(
            abs(great_circle_km(a, b, lat, lon) - radius) < 1e-6 for a, b in self.locations
        )

    # -- lineage ------------------------------------------------------------
    def ancestors(self, digest: str) -> Set[str]:
        return self._walk(digest, self.parents)

    def descendants(self, digest: str) -> Set[str]:
        return self._walk(digest, self.children)

    @staticmethod
    def _walk(start: str, edges: Dict[str, Sequence[str]]) -> Set[str]:
        seen: Set[str] = set()
        frontier = list(edges.get(start, ()))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(edges.get(node, ()))
        return seen
