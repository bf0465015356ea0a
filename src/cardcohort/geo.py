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
from typing import Any, Callable, Mapping, Sequence

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

    stop_ids: tuple[str, ...]
    centroid: Coord


class PlaceIndex:
    """Clustered stops; a place id is the place's index in ``places``."""

    def __init__(self, places: Sequence[Place]):
        self.places = list(places)
        self.stop_to_place = {sid: i for i, p in enumerate(self.places) for sid in p.stop_ids}

    def __len__(self) -> int:
        return len(self.places)

    def centroid(self, place_id: int) -> Coord:
        return self.places[place_id].centroid


def build_places(stops: Mapping[str, Coord], radius_m: float = CLUSTER_RADIUS_M) -> PlaceIndex:
    """Cluster stops (stop id -> (lon, lat)) into places by single-linkage within ``radius_m``.

    Two stops belong to the same place when they are joined by a chain of
    pairwise distances each at most ``radius_m``.  Each place is grown by
    a flood fill from its smallest stop id, in ascending id order, so
    place ids follow each cluster's smallest stop id and are a pure
    function of the stop registry.

    Candidate pairs come from a lat/lon grid whose cells are at least
    ``radius_m`` wide, so only the 3x3 neighbourhood of a cell needs
    checking; the construction is linear-ish for realistic registries.
    """
    if not stops:
        return PlaceIndex([])
    ids = sorted(stops)
    coords = [stops[sid] for sid in ids]
    max_abs_lat = max(abs(lat) for _, lat in coords)
    cell_lat = radius_m / M_PER_DEG_LAT
    # Cell width must be >= radius_m everywhere in the data, and the
    # metre width of a degree of longitude shrinks with latitude.
    cos_lat = max(math.cos(math.radians(min(max_abs_lat, 89.9))), 1e-6)
    cell_lon = radius_m / (M_PER_DEG_LAT * cos_lat)
    cells = [(math.floor(lon / cell_lon), math.floor(lat / cell_lat)) for lon, lat in coords]
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, cell in enumerate(cells):
        buckets.setdefault(cell, []).append(i)

    radius_km = radius_m / 1000.0
    seen = bytearray(len(ids))
    places = []
    for first in range(len(ids)):
        if seen[first]:
            continue
        seen[first] = 1
        group = [first]
        for i in group:  # grows while it is walked
            here = coords[i]
            cx, cy = cells[i]
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for j in buckets.get((cx + dx, cy + dy), ()):
                        if not seen[j] and haversine_km(here, coords[j]) <= radius_km:
                            seen[j] = 1
                            group.append(j)
        group.sort()
        lon = math.fsum(coords[i][0] for i in group) / len(group)
        lat = math.fsum(coords[i][1] for i in group) / len(group)
        places.append(Place(tuple(ids[i] for i in group), (lon, lat)))
    return PlaceIndex(places)


@dataclass(frozen=True)
class Region:
    """A polygonal region as a set of closed rings (lon, lat vertices).

    Ring orientation does not matter: containment is decided by even-odd
    ray casting across all rings, so holes fall out naturally.  A zone of
    a layer keeps the (properties, geometry) of its feature as read.
    """

    name: str
    rings: tuple[tuple[Coord, ...], ...]
    feature: tuple[dict, Any] | None = None


def _expect(value, kind: type, what: str):
    """``value`` when it is a ``kind`` (dict for a JSON object, list for an array)."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} is not a JSON {'object' if kind is dict else 'array'}")
    return value


def _position(pos) -> Coord:
    """The (lon, lat) of a GeoJSON position; an altitude after them is ignored.

    JSON has no NaN or infinity, though Python's reader accepts them.
    """
    if isinstance(pos, list) and len(pos) >= 2 and all(type(v) in (int, float) for v in pos):
        try:
            if all(map(math.isfinite, pos)):
                return float(pos[0]), float(pos[1])
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"position is not an array of at least two finite numbers: {pos!r}")


def _check_ring(ring) -> tuple[Coord, ...]:
    if len(_expect(ring, list, "ring")) < 4:
        raise ValueError("ring has fewer than 4 vertices")
    pts = tuple(map(_position, ring))
    if pts[0] != pts[-1]:
        raise ValueError("ring is not closed")
    return pts


def _rings_of_geometry(geom) -> list[tuple[Coord, ...]]:
    # A feature's geometry may be null in GeoJSON; it has no rings to use.
    gtype = geom.get("type") if isinstance(geom, dict) else None
    if gtype not in ("Polygon", "MultiPolygon"):
        raise ValueError(f"unsupported geometry type: {gtype!r}")
    polygons = _expect(geom.get("coordinates"), list, "coordinates")
    if gtype == "Polygon":
        polygons = [polygons]
    return [_check_ring(r) for poly in polygons for r in _expect(poly, list, "polygon")]


def read_features(path: str, parse: Callable[[Any], Any] = lambda geom: geom) -> list[tuple[dict, Any]]:
    """The (properties, geometry) of each feature of a GeoJSON file, in file order.

    A FeatureCollection gives its features, a Feature gives itself, and a
    bare geometry gives one feature; missing or null properties read as
    an empty dict.  With ``parse``, each geometry is replaced by
    ``parse(geometry)``.  A document, feature or properties member that
    is not a JSON object, a ``features`` member that is not an array, a
    feature without a ``geometry`` member and a ValueError from ``parse``
    raise ValueError, prefixed with ``path`` and, for a fault within one
    feature of a collection, the feature's zero-based index.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = _expect(json.load(fh), dict, "GeoJSON document")
        dtype = doc.get("type")
        if dtype == "FeatureCollection":
            feats = _expect(doc.get("features", []), list, "features")
        elif dtype == "Feature":
            feats = [doc]
        else:
            return [({}, parse(doc))]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    out = []
    for i, feat in enumerate(feats):
        try:
            if "geometry" not in _expect(feat, dict, "feature"):
                raise ValueError("feature has no geometry member")
            props = feat.get("properties")
            props = {} if props is None else _expect(props, dict, "feature properties")
            out.append((props, parse(feat["geometry"])))
        except ValueError as exc:
            raise ValueError(f"{path}: feature {i}: {exc}") from None
    return out


def load_region(path: str, name: str | None = None) -> Region:
    """Load a GeoJSON file as one region.

    Multiple features merge into one region (their rings are unioned
    under the even-odd rule), named after the first feature that has a
    name unless ``name`` is given.
    """
    rings: list[tuple[Coord, ...]] = []
    label = name
    for props, feature_rings in read_features(path, _rings_of_geometry):
        rings.extend(feature_rings)
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
    features = read_features(path, lambda geom: (geom, tuple(_rings_of_geometry(geom))))
    regions = [
        Region(str(props.get("name") or f"zone_{i}"), rings, (props, geom))
        for i, (props, (geom, rings)) in enumerate(features)
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
    inside = False
    for ring in region.rings:
        for a, b in zip(ring, ring[1:]):
            if _on_segment(x, y, a, b):
                return True
            (x1, y1), (x2, y2) = a, b
            if (y1 > y) != (y2 > y) and x < (x2 - x1) * (y - y1) / (y2 - y1) + x1:
                inside = not inside
    return inside


def radial_direction(old: Coord, new: Coord, center: Coord) -> str:
    """Classify a move relative to ``center``.

    Inward means strictly closer to the center than before; equal
    distances count as Outward.
    """
    return INWARD if haversine_km(new, center) < haversine_km(old, center) else OUTWARD
