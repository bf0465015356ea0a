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
from typing import Any, Callable, Mapping

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
class PlaceIndex:
    """A stop registry clustered into places; a place id indexes ``centroids``.

    ``codes`` gives each stop id its code (see
    :func:`cardcohort.ingest.stop_codes`), ``place_of`` the place id of
    each code, None at code 0 (no alighting), and ``centroids`` each
    place's arithmetic mean of its member coordinates, which is adequate
    at the sub-kilometre scale of a cluster.
    """

    codes: dict[str, int]
    place_of: list[int | None]
    centroids: list[Coord]

    def __len__(self) -> int:
        return len(self.centroids)

    def centroid(self, place_id: int) -> Coord:
        return self.centroids[place_id]


def build_places(stops: Mapping[str, Coord], radius_m: float = CLUSTER_RADIUS_M) -> PlaceIndex:
    """Code stops (stop id -> (lon, lat)) and cluster them into places by single-linkage within ``radius_m``.

    Two stops are linked when ``haversine_km(a, b) <= radius_m / 1000``,
    the edge included, and belong to the same place when a chain of links
    joins them.  Each place is grown by a flood fill from its smallest
    stop id, in ascending id order, so place ids follow each cluster's
    smallest stop id and are a pure function of the stop registry.

    Candidate pairs come from a grid on the sphere.  A link spans at most
    the radius in latitude, so with rows that tall it stays within one
    row or joins two neighbouring rows.  Each row is cut into equal
    columns, as wide as the widest longitude span a link can have in any
    occupied row, and the columns wrap at +-180 degrees.  A row where a
    link may span more than 60 degrees of longitude, near a pole, is a
    single cell, whose neighbours are every cell of the rows beside it.
    So a stop's candidates are the stops of its cell and of the cells
    around it, and no link across the antimeridian or over a pole is
    missed.

    Each candidate is first measured by the chord between the two stops'
    unit vectors, computed once per stop.  The chord is 2 sin(d / 2) for
    a great-circle distance d, so it orders pairs exactly as d does, and
    a chord more than a millionth (plus 1e-12) away from the radius's
    chord decides the link; rounding in either formula is many orders of
    magnitude smaller than that band.  Inside the band ``haversine_km``
    decides, so every link is the haversine rule's decision.
    """
    from .ingest import stop_codes  # here, so that importing geo loads no other module

    codes = stop_codes(stops)
    coords = [stops[sid] for sid in codes]
    radius_km = radius_m / 1000.0
    angle = min(radius_km / EARTH_RADIUS_KM, math.pi)  # the radius as a central angle, at most pi
    half_chord = math.sin(angle / 2.0)  # on the unit sphere
    # The margins outweigh any rounding in placing a stop in its cell.
    row_deg = math.degrees(angle) * (1.0 + 1e-6) + 1e-9
    rows = [math.floor(lat / row_deg) for _, lat in coords]
    occupied = set(rows)

    # Between stops at |lat| <= reach, a link spans at most 2 asin(s) of
    # longitude, with s = half_chord / cos(reach).
    polar = set()
    widest = 0.0
    for row in occupied:
        reach = max(abs(row), abs(row + 1)) * row_deg + 1e-9
        s = half_chord / math.cos(math.radians(reach)) if reach < 90.0 else math.inf
        if s > 0.5:
            polar.add(row)
        else:
            widest = max(widest, s)
    # Columns at most 60 degrees wide: n >= 5, so a cell has two others beside it.
    n = int(360.0 / (math.degrees(2.0 * math.asin(widest)) * (1.0 + 1e-6) + 1e-9)) if widest else 3
    per_deg = n / 360.0
    buckets: dict[int, list[int]] = {}  # row * n + column -> stop indices
    for i, ((lon, _), row) in enumerate(zip(coords, rows)):
        col = 0 if row in polar else int((lon + 180.0) % 360.0 * per_deg) % n
        buckets.setdefault(row * n + col, []).append(i)

    # Each stop's candidates: the members of its cell and of every cell
    # around it, listed once per cell.
    near_pole = {r + d for r in polar for d in (-1, 0, 1)}
    around = (-n - 1, -n, -n + 1, -1, 0, 1, n - 1, n, n + 1)
    get = buckets.get
    candidates: list = [None] * len(coords)
    for key, members in buckets.items():
        row, col = divmod(key, n)
        near = []
        if 0 < col < n - 1 and row not in near_pole:
            for d in around:
                near += get(key + d, ())
        else:
            for r in occupied.intersection((row - 1, row, row + 1)):
                if r in polar:
                    cols = (0,)
                elif row in polar:
                    cols = range(n)
                else:
                    cols = (col - 1, col, col + 1)
                for c in cols:
                    near += get(r * n + c % n, ())
        for i in members:
            candidates[i] = near
    del rows, buckets  # let them go before the flood fill, which sets the peak

    # Each stop's unit vector; a chord below ``sure`` is a link, and one
    # above ``unsure`` is none.
    cos, sin, to_rad = math.cos, math.sin, math.pi / 180.0
    vectors = [
        ((c := cos(lat * to_rad)) * cos(lon * to_rad), c * sin(lon * to_rad), sin(lat * to_rad))
        for lon, lat in coords
    ]
    chord = 2.0 * half_chord
    sure, unsure = chord * (1.0 - 1e-6) - 1e-12, chord * (1.0 + 1e-6) + 1e-12
    dist = math.dist
    place_of: list[int | None] = [None] * len(coords)  # by stop index; None until the stop is placed
    centroids = []
    for first in range(len(coords)):
        if place_of[first] is not None:
            continue
        place = place_of[first] = len(centroids)  # one int object for all the place's stops
        group = [first]
        for i in group:  # grows while it is walked
            here = vectors[i]
            for j in candidates[i]:
                if place_of[j] is None:
                    d = dist(here, vectors[j])
                    if d <= sure or (d <= unsure and haversine_km(coords[i], coords[j]) <= radius_km):
                        place_of[j] = place
                        group.append(j)
        lon = math.fsum(coords[i][0] for i in group) / len(group)
        lat = math.fsum(coords[i][1] for i in group) / len(group)
        centroids.append((lon, lat))
    return PlaceIndex(codes, [None, *place_of], centroids)  # code 0 has no place


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


def _finite(text: str) -> float:
    """A JSON number as a float.  JSON has no NaN or infinity, though Python's reader takes them."""
    if math.isfinite(x := float(text)):
        return x
    raise ValueError(f"number is not finite: {text}")


def _position(pos) -> Coord:
    """The (lon, lat) of a GeoJSON position; an altitude after them is ignored."""
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
    non-finite number (see :func:`_finite`), a feature without a
    ``geometry`` member and a ValueError from ``parse`` raise ValueError,
    prefixed with ``path`` and, for a fault within one feature of a
    collection, the feature's zero-based index.  The file is read by
    :func:`cardcohort.ingest.iter_lines`.
    """
    from .ingest import iter_lines  # here, so that importing geo loads no other module

    text = "".join(iter_lines(path))
    try:
        doc = _expect(json.loads(text, parse_float=_finite, parse_constant=_finite), dict, "GeoJSON document")
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
