"""Spatial primitives: great-circle distance, stop clustering, regions.

Everything here is spherical.  Distances use the haversine form on a
sphere of radius 6371.0 km, which is the metric every threshold in the
pipeline (500 m clustering, 2 km relocation benchmark) is defined
against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .ingest import Stop

EARTH_RADIUS_KM = 6371.0
# Metres per degree of latitude on the reference sphere.
M_PER_DEG_LAT = math.pi / 180.0 * EARTH_RADIUS_KM * 1000.0

CLUSTER_RADIUS_M = 500.0

INWARD = "Inward"
OUTWARD = "Outward"

DEFAULT_CENTER = (116.3913, 39.9053)

Coord = tuple[float, float]


def haversine_km(a: Coord, b: Coord) -> float:
    """Great-circle distance in kilometres between two (lon, lat) points."""
    lon1 = math.radians(a[0])
    lat1 = math.radians(a[1])
    lon2 = math.radians(b[0])
    lat2 = math.radians(b[1])
    s = (
        math.sin((lat2 - lat1) / 2.0) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(s))


@dataclass(frozen=True)
class Place:
    """A cluster of stops treated as one location.

    ``centroid`` is the arithmetic mean of the member coordinates, which
    is adequate at the sub-kilometre scale of a cluster.
    """

    place_id: int
    stop_ids: tuple[str, ...]
    centroid: Coord


class PlaceIndex:
    """Lookup layer over clustered stops."""

    def __init__(self, places: Sequence[Place]):
        self.places = list(places)
        self._by_id = {p.place_id: p for p in self.places}
        self.stop_to_place: dict[str, int] = {}
        for p in self.places:
            for sid in p.stop_ids:
                self.stop_to_place[sid] = p.place_id

    def __len__(self) -> int:
        return len(self.places)

    def place(self, place_id: int) -> Place:
        return self._by_id[place_id]

    def centroid(self, place_id: int) -> Coord:
        return self._by_id[place_id].centroid

    def place_of_stop(self, stop_id: str) -> int:
        return self.stop_to_place[stop_id]


def build_places(
    stops: Mapping[str, Stop] | Iterable[Stop], radius_m: float = CLUSTER_RADIUS_M
) -> PlaceIndex:
    """Cluster stops into places by single-linkage within ``radius_m``.

    Two stops belong to the same place when they are joined by a chain of
    pairwise distances each at most ``radius_m``.  Place ids are assigned
    in ascending order of each cluster's smallest stop id, so the labels
    are a pure function of the stop registry.

    Candidate pairs come from a lat/lon grid whose cells are at least
    ``radius_m`` wide, so only the 3x3 neighbourhood of a cell needs
    checking; the construction is linear-ish for realistic registries.
    """
    if isinstance(stops, Mapping):
        stop_list = sorted(stops.values(), key=lambda s: s.stop_id)
    else:
        stop_list = sorted(stops, key=lambda s: s.stop_id)
    n = len(stop_list)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            if ri < rj:
                parent[rj] = ri
            else:
                parent[ri] = rj

    if n:
        max_abs_lat = max(abs(s.lat) for s in stop_list)
        cell_lat = radius_m / M_PER_DEG_LAT
        # Cell width must be >= radius_m everywhere in the data, and the
        # metre width of a degree of longitude shrinks with latitude.
        cos_lat = max(math.cos(math.radians(min(max_abs_lat, 89.9))), 1e-6)
        cell_lon = radius_m / (M_PER_DEG_LAT * cos_lat)

        buckets: dict[tuple[int, int], list[int]] = {}
        cells: list[tuple[int, int]] = []
        for idx, s in enumerate(stop_list):
            cell = (math.floor(s.lon / cell_lon), math.floor(s.lat / cell_lat))
            cells.append(cell)
            buckets.setdefault(cell, []).append(idx)

        radius_km = radius_m / 1000.0
        for idx, s in enumerate(stop_list):
            cx, cy = cells[idx]
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for jdx in buckets.get((cx + dx, cy + dy), ()):
                        if jdx <= idx:
                            continue
                        t = stop_list[jdx]
                        if haversine_km((s.lon, s.lat), (t.lon, t.lat)) <= radius_km:
                            union(idx, jdx)

    members: dict[int, list[int]] = {}
    for idx in range(n):
        members.setdefault(find(idx), []).append(idx)
    # Stop list is sorted by id, so the root's member list is already in
    # ascending stop id order and roots sort by their first member.
    places = []
    for place_id, root in enumerate(sorted(members, key=lambda r: members[r][0])):
        group = members[root]
        ids = tuple(stop_list[i].stop_id for i in group)
        lon = math.fsum(stop_list[i].lon for i in group) / len(group)
        lat = math.fsum(stop_list[i].lat for i in group) / len(group)
        places.append(Place(place_id, ids, (lon, lat)))
    return PlaceIndex(places)


@dataclass(frozen=True)
class Region:
    """A polygonal region as a set of closed rings (lon, lat vertices).

    Ring orientation does not matter: containment is decided by even-odd
    ray casting across all rings, so holes fall out naturally.
    """

    name: str
    rings: tuple[tuple[Coord, ...], ...]


def _check_ring(ring: Sequence[Sequence[float]]) -> tuple[Coord, ...]:
    if len(ring) < 4:
        raise ValueError("ring has fewer than 4 vertices")
    pts = tuple((float(x), float(y)) for x, y in ring)
    if pts[0] != pts[-1]:
        raise ValueError("ring is not closed")
    return pts


def _rings_of_geometry(geom: Mapping | None) -> list[tuple[Coord, ...]]:
    # A feature's geometry may be null in GeoJSON; it has no rings to use.
    gtype = (geom or {}).get("type")
    if gtype == "Polygon":
        polygons = [geom["coordinates"]]
    elif gtype == "MultiPolygon":
        polygons = geom["coordinates"]
    else:
        raise ValueError(f"unsupported geometry type: {gtype!r}")
    return [_check_ring(r) for poly in polygons for r in poly]


def read_features(path: str) -> list[tuple[dict, Mapping]]:
    """The (properties, geometry) of each feature of a GeoJSON file, in file order.

    A FeatureCollection gives its features, a Feature gives itself, and a
    bare geometry gives one feature; missing or null properties read as
    an empty dict.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    dtype = doc.get("type")
    if dtype == "FeatureCollection":
        feats = doc.get("features", [])
    elif dtype == "Feature":
        feats = [doc]
    else:
        return [({}, doc)]
    return [(feat.get("properties") or {}, feat["geometry"]) for feat in feats]


def load_region(path: str, name: str | None = None) -> Region:
    """Load a GeoJSON file as one region.

    Multiple features merge into one region (their rings are unioned
    under the even-odd rule), named after the first feature that has a
    name unless ``name`` is given.
    """
    rings: list[tuple[Coord, ...]] = []
    label = name
    for props, geom in read_features(path):
        rings.extend(_rings_of_geometry(geom))
        if label is None:
            label = props.get("name")
    if not rings:
        raise ValueError(f"no polygon rings in {path}")
    return Region(label or "region", tuple(rings))


def load_region_features(path: str) -> list[Region]:
    """Load a GeoJSON file as one region per feature, in file order.

    Used for zone layers where each feature is its own unit.  Unnamed
    features get zero-based positional names.
    """
    regions = [
        Region(str(props.get("name") or f"zone_{i}"), tuple(_rings_of_geometry(geom)))
        for i, (props, geom) in enumerate(read_features(path))
    ]
    if not regions:
        raise ValueError(f"no features in {path}")
    return regions


def _on_segment(x: float, y: float, a: Coord, b: Coord) -> bool:
    (x1, y1), (x2, y2) = a, b
    cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
    if cross != 0.0:
        return False
    return min(x1, x2) <= x <= max(x1, x2) and min(y1, y2) <= y <= max(y1, y2)


def point_in_region(p: Coord, region: Region) -> bool:
    """Even-odd containment test; points on a ring edge count as inside."""
    x, y = p
    for ring in region.rings:
        for k in range(len(ring) - 1):
            if _on_segment(x, y, ring[k], ring[k + 1]):
                return True
    inside = False
    for ring in region.rings:
        for k in range(len(ring) - 1):
            x1, y1 = ring[k]
            x2, y2 = ring[k + 1]
            if (y1 > y) != (y2 > y):
                x_cross = (x2 - x1) * (y - y1) / (y2 - y1) + x1
                if x < x_cross:
                    inside = not inside
    return inside


def radial_direction(old: Coord, new: Coord, center: Coord) -> str:
    """Classify a move relative to ``center``.

    Inward means strictly closer to the center than before; equal
    distances count as Outward.
    """
    return INWARD if haversine_km(new, center) < haversine_km(old, center) else OUTWARD
