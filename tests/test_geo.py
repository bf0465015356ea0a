"""Geometry layer: distances, clustering, regions, radial direction."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardcohort.geo import (
    CLUSTER_RADIUS_M,
    EARTH_RADIUS_KM,
    INWARD,
    M_PER_DEG_LAT,
    OUTWARD,
    Region,
    build_places,
    haversine_km,
    load_region,
    load_region_features,
    point_in_region,
    radial_direction,
    read_features,
)
from cardcohort.ingest import iter_lines, load_stops
from cardcohort.synth import GeneratorConfig, generate

from conftest import members, offset_coord, stop_places

# Frozen against an independent great-circle calculation: two central
# Beijing points, 0.07 deg of longitude and 0.09 deg of latitude apart.
BEIJING_A = (116.39, 39.91)
BEIJING_B = (116.32, 40.00)
BEIJING_KM = 11.651204509384252

ONE_DEG_LAT_KM = math.pi * EARTH_RADIUS_KM / 180.0


class TestHaversine:
    def test_frozen_beijing_pair(self):
        assert haversine_km(BEIJING_A, BEIJING_B) == pytest.approx(BEIJING_KM, abs=1e-9)

    def test_one_degree_of_latitude(self):
        # A meridian is a great circle, so one degree of latitude is
        # exactly pi * R / 180 regardless of where the arc starts.
        for lon, lat in ((116.4, 39.9), (0.0, 0.0), (-70.0, -45.0)):
            d = haversine_km((lon, lat), (lon, lat + 1.0))
            assert d == pytest.approx(ONE_DEG_LAT_KM, abs=1e-6)

    def test_metre_scale_constant_agrees(self):
        assert M_PER_DEG_LAT == pytest.approx(ONE_DEG_LAT_KM * 1000.0)

    def test_zero_distance(self):
        assert haversine_km(BEIJING_A, BEIJING_A) == 0.0

    def test_antipodal_is_half_circumference(self):
        d = haversine_km((0.0, 0.0), (180.0, 0.0))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-12)

    @given(
        lon1=st.floats(-180, 180),
        lat1=st.floats(-89, 89),
        lon2=st.floats(-180, 180),
        lat2=st.floats(-89, 89),
    )
    def test_symmetric_and_nonnegative(self, lon1, lat1, lon2, lat2):
        a, b = (lon1, lat1), (lon2, lat2)
        d = haversine_km(a, b)
        assert d >= 0.0
        assert d == haversine_km(b, a)
        assert d <= math.pi * EARTH_RADIUS_KM + 1e-9


def _stops(coords: list[tuple[float, float]]) -> dict[str, tuple[float, float]]:
    return {f"S{i:03d}": coord for i, coord in enumerate(coords)}


@st.composite
def registries(draw) -> tuple[dict[str, tuple[float, float]], float]:
    """Up to 150 stops in a box a few radii wide, with a radius from 50 m to 5 km, or on the whole sphere.

    The box lies in mid latitudes, near a pole or across the antimeridian.
    On the whole sphere, stops are uniform and the radius runs up to
    5,000 km, so that many stops lie on the far side of the plane tangent
    at the first one, and many near its rim.  With ``edge``, the radius
    is set so that the first two stops are exactly one radius apart
    ("at"), or to the next float below that ("below").
    """
    unit = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        radius_m = draw(st.floats(50.0, 5e6))
        sphere = st.tuples(st.floats(-180.0, 180.0), unit)
        coords = [(lon, math.degrees(math.asin(z))) for lon, z in draw(st.lists(sphere, max_size=150))]
    else:
        radius_m = draw(st.floats(50.0, 5000.0))
        lat0 = draw(st.one_of(
            st.floats(-60.0, 60.0), st.floats(80.0, 90.0), st.floats(-90.0, -80.0),
            st.floats(89.9, 90.0), st.floats(-90.0, -89.9),
        ))
        lon0 = draw(st.one_of(st.floats(-180.0, 180.0), st.sampled_from([-180.0, 180.0])))
        half_m = radius_m * draw(st.floats(0.5, 6.0))
        coords = []
        for x, y in draw(st.lists(st.tuples(unit, unit), max_size=150)):
            lat = min(90.0, max(-90.0, lat0 + y * half_m / M_PER_DEG_LAT))
            dlon = x * half_m / (M_PER_DEG_LAT * max(math.cos(math.radians(lat0)), 1e-3))
            coords.append(((lon0 + dlon + 180.0) % 360.0 - 180.0, lat))
    edge = draw(st.sampled_from([None, "at", "below"]))
    if edge and len(coords) >= 2 and haversine_km(coords[0], coords[1]) > 0.0:
        radius_m = _edge_radius_m(coords[0], coords[1])
        if edge == "below":
            radius_m = math.nextafter(radius_m, 0.0)
    return _stops(coords), radius_m


def _edge_radius_m(a: tuple[float, float], b: tuple[float, float]) -> float:
    """The smallest radius in metres at which ``a`` and ``b`` are linked."""
    d_km = haversine_km(a, b)
    radius_m = d_km * 1000.0
    while radius_m / 1000.0 < d_km:
        radius_m = math.nextafter(radius_m, math.inf)
    while math.nextafter(radius_m, 0.0) / 1000.0 >= d_km:
        radius_m = math.nextafter(radius_m, 0.0)
    return radius_m


def _destination(start: tuple[float, float], bearing_deg: float, km: float) -> tuple[float, float]:
    """The point ``km`` from ``start`` along the great circle at ``bearing_deg``, lon in [-180, 180)."""
    lon1, lat1 = map(math.radians, start)
    theta, delta = math.radians(bearing_deg), km / EARTH_RADIUS_KM
    lat2 = math.asin(math.sin(lat1) * math.cos(delta) + math.cos(lat1) * math.sin(delta) * math.cos(theta))
    lon2 = lon1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(lat1),
        math.cos(delta) - math.sin(lat1) * math.sin(lat2),
    )
    return (math.degrees(lon2) + 180.0) % 360.0 - 180.0, math.degrees(lat2)


ORIGIN = (116.30, 39.90)


class TestBuildPlaces:
    def test_chain_linkage_merges_transitively(self):
        # A-B and B-C are 400 m apart but A-C is 800 m; single linkage
        # still puts all three in one place.
        coords = [offset_coord(ORIGIN, x, 0) for x in (0, 400, 800)]
        places = build_places(_stops(coords))
        assert len(places) == 1
        assert members(places)[0] == ("S000", "S001", "S002")

    def test_gap_beyond_radius_splits(self):
        coords = [offset_coord(ORIGIN, x, 0) for x in (0, 400, 1000)]
        places = build_places(_stops(coords))
        assert len(places) == 2
        assert members(places)[0] == ("S000", "S001")
        assert members(places)[1] == ("S002",)

    def test_link_radius_is_inclusive(self):
        a = ORIGIN
        b = offset_coord(ORIGIN, 500, 0)
        d_m = haversine_km(a, b) * 1000.0
        joined = build_places(_stops([a, b]), radius_m=d_m)
        assert len(joined) == 1
        split = build_places(_stops([a, b]), radius_m=d_m * 0.999)
        assert len(split) == 2

    def test_place_ids_follow_smallest_stop_id(self):
        west = offset_coord(ORIGIN, 0, 0)
        east = offset_coord(ORIGIN, 5000, 0)
        # The eastern cluster holds the lexically smallest stop id, so it
        # must get place 0 even though it appears later in the input.
        places = build_places({"S9": west, "S1": east, "S2": east})
        assert members(places)[0] == ("S1", "S2")
        assert members(places)[1] == ("S9",)
        assert stop_places(places) == {"S1": 0, "S2": 0, "S9": 1}

    def test_input_order_is_irrelevant(self):
        coords = [offset_coord(ORIGIN, x, y) for x in (0, 400, 2000) for y in (0, 300)]
        stops = _stops(coords)
        a = build_places(stops)
        b = build_places(dict(reversed(stops.items())))
        assert a == b

    def test_centroid_is_member_mean(self):
        coords = [offset_coord(ORIGIN, x, 0) for x in (0, 300)]
        places = build_places(_stops(coords))
        lon = (coords[0][0] + coords[1][0]) / 2
        lat = (coords[0][1] + coords[1][1]) / 2
        got = places.centroids[0]
        assert got[0] == pytest.approx(lon, abs=1e-12)
        assert got[1] == pytest.approx(lat, abs=1e-12)

    def test_empty_registry(self):
        places = build_places({})
        assert len(places) == 0
        assert stop_places(places) == {}
        assert places.place_of == [None]

    def test_index_lookups(self):
        coords = [offset_coord(ORIGIN, x, 0) for x in (0, 5000)]
        places = build_places(_stops(coords))
        assert stop_places(places) == {"S000": 0, "S001": 1}
        assert members(places)[1] == ("S001",)
        assert places.centroid(0) == places.centroids[0]

    @pytest.mark.parametrize("stops, radius_m", [
        ({"A": (0.0, 0.0), "B": (180.0, 0.0)}, 2.1e7),  # antipodes, 20,015 km apart
        ({"A": (10.0, 10.0), "B": (10.0, -10.0)}, 3.9e7),  # 2,224 km apart
    ])
    def test_a_radius_beyond_half_the_circumference_links_every_pair(self, stops, radius_m):
        assert haversine_km(stops["A"], stops["B"]) * 1000.0 < radius_m
        assert members(build_places(stops, radius_m)) == [("A", "B")]

    def test_links_across_the_antimeridian(self):
        # 17 m apart, on either side of +-180 degrees.
        stops = {"E": (179.9999, 39.9), "W": (-179.9999, 39.9)}
        assert haversine_km(stops["E"], stops["W"]) < 0.02
        places = build_places(stops)
        assert members(places) == [("E", "W")]
        # The centroid lies between them, not on the far side of the Earth.
        assert all(haversine_km(places.centroid(0), stop) < 0.02 for stop in stops.values())

    def test_links_near_a_pole(self):
        # 111 m apart, 60 degrees of longitude apart at 89.999 N; and one
        # pair across the pole at 89.999 S.
        stops = {"N1": (0.0, 89.999), "N2": (60.0, 89.999), "S1": (-90.0, -89.999), "S2": (90.0, -89.999)}
        assert haversine_km(stops["N1"], stops["N2"]) < 0.12
        places = build_places(stops)
        assert members(places) == [("N1", "N2"), ("S1", "S2")]

    @pytest.mark.parametrize("lon", [116.3, 179.9])
    @pytest.mark.parametrize("lat", [0.0, 39.9, -60.0, 80.0, 89.99, -89.995, 89.9995])
    def test_a_pair_one_radius_apart_links_wherever_it_lies(self, lat, lon):
        # Each pair is one radius apart: at each of twelve bearings, from
        # fifty starts a fiftieth of a radius apart, so that the pair
        # crosses every kind of cell edge.  Both id orders are tried,
        # since the flood fill starts from the smaller id.  At a radius
        # of 0.3 mm, rounding in placing a stop outweighs a margin of a
        # millionth of a cell, so the cell needs its absolute margin.
        for apart_m in (CLUSTER_RADIUS_M, 0.0003):
            step = apart_m / M_PER_DEG_LAT / 50.0
            for k in range(50):
                a = (lon + k * step / max(math.cos(math.radians(lat)), 1e-3), min(lat + k * step, 90.0))
                for bearing in range(0, 360, 30):
                    b = _destination(a, bearing, apart_m / 1000.0)
                    radius_m = _edge_radius_m(a, b)
                    for stops in ({"A": a, "B": b}, {"A": b, "B": a}):
                        assert len(build_places(stops, radius_m)) == 1, (a, b)
                        assert len(build_places(stops, math.nextafter(radius_m, 0.0))) == 2, (a, b)

    @settings(max_examples=100, deadline=None)
    @given(registries(), st.randoms(use_true_random=False))
    def test_matches_all_pairs_single_linkage(self, registry, rng):
        """The grid-bucketed clustering must equal brute-force linkage, with
        place ids in order of each place's smallest code, whatever the order
        of the registry's entries."""
        stops, radius_m = registry
        entries = list(stops.items())
        rng.shuffle(entries)
        places = build_places(dict(entries), radius_m)
        assert {frozenset(m) for m in members(places)} == _single_linkage(stops, radius_m)
        firsts = [min(places.codes[sid] for sid in m) for m in members(places)]
        assert all(a < b for a, b in zip(firsts, firsts[1:]))

    def test_synth_registry_matches_all_pairs_single_linkage(self, tmp_path):
        # 576 stops, 500 m apart within a site: up to rounding to seven
        # decimals, each pair of neighbours is at the radius.
        cfg = GeneratorConfig(
            commuters=2, movers=0, job_changers=0, jobless=0, churners=0,
            grid_rows=8, grid_cols=8, site_stops=3, stop_spacing_m=500.0, site_pitch_m=2500.0,
        )
        stops, _ = load_stops(iter_lines(generate(cfg, str(tmp_path)).paths["stops"]))
        assert len(stops) == 576
        places = build_places(stops)
        assert {frozenset(m) for m in members(places)} == _single_linkage(stops, CLUSTER_RADIUS_M)
        assert 64 < len(places) < 576


def _single_linkage(stops: dict[str, tuple[float, float]], radius_m: float) -> set[frozenset[str]]:
    """The places of ``stops`` by the definition: every pair tested, then joined transitively."""
    ordered = sorted(stops)
    parent = list(range(len(ordered)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            if haversine_km(stops[ordered[i]], stops[ordered[j]]) <= radius_m / 1000.0:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, set[str]] = {}
    for i, sid in enumerate(ordered):
        groups.setdefault(find(i), set()).add(sid)
    return {frozenset(g) for g in groups.values()}


SQUARE = Region("sq", ((( 0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)),))
HOLED = Region(
    "holed",
    (
        ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)),
        ((1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0), (1.0, 1.0)),
    ),
)


class TestPointInRegion:
    def test_interior_and_exterior(self):
        assert point_in_region((2.0, 2.0), SQUARE)
        assert not point_in_region((5.0, 2.0), SQUARE)
        assert not point_in_region((-0.1, 2.0), SQUARE)

    def test_boundary_counts_as_inside(self):
        assert point_in_region((0.0, 2.0), SQUARE)
        assert point_in_region((2.0, 4.0), SQUARE)
        assert point_in_region((0.0, 0.0), SQUARE)
        assert point_in_region((4.0, 4.0), SQUARE)

    def test_hole_is_outside_but_its_edge_is_inside(self):
        assert point_in_region((0.5, 0.5), HOLED)
        assert not point_in_region((2.0, 2.0), HOLED)
        assert point_in_region((1.0, 2.0), HOLED)

    @given(st.floats(0.01, 3.99), st.floats(0.01, 3.99))
    def test_square_interior_always_inside(self, x, y):
        assert point_in_region((x, y), SQUARE)


class TestRegionLoading:
    def _write(self, tmp_path, doc) -> str:
        p = tmp_path / "region.geojson"
        p.write_text(json.dumps(doc))
        return str(p)

    def _feature(self, name, ring):
        props = {"name": name} if name else {}
        return {
            "type": "Feature",
            "properties": props,
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        }

    RING_A = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
    RING_B = [[5, 5], [6, 5], [6, 6], [5, 6], [5, 5]]

    def test_load_region_merges_features(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [self._feature("alpha", self.RING_A), self._feature(None, self.RING_B)],
        }
        region = load_region(self._write(tmp_path, doc))
        assert region.name == "alpha"
        assert len(region.rings) == 2
        assert point_in_region((0.5, 0.5), region)
        assert point_in_region((5.5, 5.5), region)

    def test_load_region_name_override(self, tmp_path):
        doc = self._feature("alpha", self.RING_A)
        region = load_region(self._write(tmp_path, doc), name="override")
        assert region.name == "override"

    def test_load_region_name_skips_null_properties(self, tmp_path):
        first = self._feature(None, self.RING_A)
        first["properties"] = None
        doc = {"type": "FeatureCollection", "features": [first, self._feature("beta", self.RING_B)]}
        assert load_region(self._write(tmp_path, doc)).name == "beta"

    def test_read_features_of_each_document_shape(self, tmp_path):
        geom = {"type": "Polygon", "coordinates": [self.RING_A]}
        feat = self._feature("alpha", self.RING_A)
        collection = {"type": "FeatureCollection", "features": [feat]}
        assert read_features(self._write(tmp_path, collection)) == [({"name": "alpha"}, geom)]
        assert read_features(self._write(tmp_path, feat)) == [({"name": "alpha"}, geom)]
        assert read_features(self._write(tmp_path, geom)) == [({}, geom)]

    def test_load_region_bare_geometry(self, tmp_path):
        doc = {"type": "Polygon", "coordinates": [self.RING_A]}
        region = load_region(self._write(tmp_path, doc))
        assert region.name == "region"
        assert len(region.rings) == 1

    def test_positions_with_altitude_read_lon_lat(self, tmp_path):
        ring = [[x, y, 43.5] for x, y in self.RING_A]
        region = load_region(self._write(tmp_path, {"type": "Polygon", "coordinates": [ring]}))
        assert region.rings == (tuple((float(x), float(y)) for x, y in self.RING_A),)
        assert point_in_region((0.5, 0.5), region)

    def test_load_region_multipolygon(self, tmp_path):
        doc = {"type": "MultiPolygon", "coordinates": [[self.RING_A], [self.RING_B]]}
        region = load_region(self._write(tmp_path, doc))
        assert len(region.rings) == 2

    def test_load_features_keeps_zones_separate(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [self._feature("alpha", self.RING_A), self._feature(None, self.RING_B)],
        }
        regions = load_region_features(self._write(tmp_path, doc))
        assert [r.name for r in regions] == ["alpha", "zone_1"]
        assert point_in_region((5.5, 5.5), regions[1])
        assert not point_in_region((5.5, 5.5), regions[0])

    def test_load_features_bare_geometry(self, tmp_path):
        doc = {"type": "Polygon", "coordinates": [self.RING_A]}
        regions = load_region_features(self._write(tmp_path, doc))
        assert [r.name for r in regions] == ["zone_0"]

    def test_unclosed_ring_rejected(self, tmp_path):
        ring = [[0, 0], [1, 0], [1, 1], [0, 1]]
        doc = {"type": "Polygon", "coordinates": [ring]}
        with pytest.raises(ValueError):
            load_region(self._write(tmp_path, doc))

    def test_tiny_ring_rejected(self, tmp_path):
        doc = {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [0, 0]]]}
        with pytest.raises(ValueError):
            load_region(self._write(tmp_path, doc))

    def test_unsupported_geometry_rejected(self, tmp_path):
        doc = {"type": "Point", "coordinates": [0, 0]}
        with pytest.raises(ValueError):
            load_region(self._write(tmp_path, doc))

    def test_null_geometry_rejected(self, tmp_path):
        feat = self._feature("alpha", self.RING_A)
        feat["geometry"] = None
        path = self._write(tmp_path, {"type": "FeatureCollection", "features": [feat]})
        with pytest.raises(ValueError):
            load_region(path)
        with pytest.raises(ValueError):
            load_region_features(path)

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400", "-1e999"])
    @pytest.mark.parametrize("where", ["properties", "coordinates"])
    def test_non_finite_number_rejected_naming_the_path(self, tmp_path, number, where):
        # Python's reader takes these, but they are not JSON: a zone's
        # properties echoed into a report would make it unreadable.
        feat = self._feature("alpha", self.RING_A)
        if where == "properties":
            feat["properties"]["area"] = "X"
        else:
            feat["geometry"]["coordinates"][0][1] = ["X", 0]
        path = tmp_path / "zones.geojson"
        path.write_text(json.dumps(feat).replace('"X"', number))
        for load in (load_region, load_region_features, read_features):
            with pytest.raises(ValueError) as info:
                load(str(path))
            assert str(info.value).startswith(f"{path}: ")

    def test_empty_collection_rejected(self, tmp_path):
        doc = {"type": "FeatureCollection", "features": []}
        with pytest.raises(ValueError):
            load_region(self._write(tmp_path, doc))
        with pytest.raises(ValueError):
            load_region_features(self._write(tmp_path, doc))


class TestRadialDirection:
    CENTER = (116.3913, 39.9053)

    def test_strictly_closer_is_inward(self):
        old = offset_coord(self.CENTER, 15000, 0)
        new = offset_coord(self.CENTER, 3000, 0)
        assert radial_direction(old, new, self.CENTER) == INWARD

    def test_farther_is_outward(self):
        old = offset_coord(self.CENTER, 3000, 0)
        new = offset_coord(self.CENTER, 15000, 0)
        assert radial_direction(old, new, self.CENTER) == OUTWARD

    def test_equal_distance_is_outward(self):
        # Mirror images across the centre meridian are exactly the same
        # distance away, and a tie must not count as moving inward.
        old = (self.CENTER[0] + 0.05, self.CENTER[1])
        new = (self.CENTER[0] - 0.05, self.CENTER[1])
        assert haversine_km(old, self.CENTER) == haversine_km(new, self.CENTER)
        assert radial_direction(old, new, self.CENTER) == OUTWARD
