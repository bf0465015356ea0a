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

from conftest import offset_coord

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


ORIGIN = (116.30, 39.90)


class TestBuildPlaces:
    def test_chain_linkage_merges_transitively(self):
        # A-B and B-C are 400 m apart but A-C is 800 m; single linkage
        # still puts all three in one place.
        coords = [offset_coord(ORIGIN, x, 0) for x in (0, 400, 800)]
        places = build_places(_stops(coords))
        assert len(places) == 1
        assert places.places[0].stop_ids == ("S000", "S001", "S002")

    def test_gap_beyond_radius_splits(self):
        coords = [offset_coord(ORIGIN, x, 0) for x in (0, 400, 1000)]
        places = build_places(_stops(coords))
        assert len(places) == 2
        assert places.places[0].stop_ids == ("S000", "S001")
        assert places.places[1].stop_ids == ("S002",)

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
        assert places.places[0].stop_ids == ("S1", "S2")
        assert places.places[1].stop_ids == ("S9",)
        assert places.stop_to_place == {"S1": 0, "S2": 0, "S9": 1}

    def test_input_order_is_irrelevant(self):
        coords = [offset_coord(ORIGIN, x, y) for x in (0, 400, 2000) for y in (0, 300)]
        stops = _stops(coords)
        a = build_places(stops)
        b = build_places(dict(reversed(stops.items())))
        assert a.places == b.places

    def test_centroid_is_member_mean(self):
        coords = [offset_coord(ORIGIN, x, 0) for x in (0, 300)]
        places = build_places(_stops(coords))
        lon = (coords[0][0] + coords[1][0]) / 2
        lat = (coords[0][1] + coords[1][1]) / 2
        got = places.places[0].centroid
        assert got[0] == pytest.approx(lon, abs=1e-12)
        assert got[1] == pytest.approx(lat, abs=1e-12)

    def test_empty_registry(self):
        places = build_places({})
        assert len(places) == 0
        assert places.stop_to_place == {}

    def test_index_lookups(self):
        coords = [offset_coord(ORIGIN, x, 0) for x in (0, 5000)]
        places = build_places(_stops(coords))
        assert places.stop_to_place == {"S000": 0, "S001": 1}
        assert places.places[1].stop_ids == ("S001",)
        assert places.centroid(0) == places.places[0].centroid

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(116.00, 116.04, allow_nan=False),
                st.floats(39.90, 39.93, allow_nan=False),
            ),
            min_size=0,
            max_size=25,
        )
    )
    def test_matches_all_pairs_single_linkage(self, coords):
        """The grid-bucketed clustering must equal brute-force linkage."""
        stops = _stops(coords)
        got = {frozenset(p.stop_ids) for p in build_places(stops).places}

        ordered = sorted(stops)
        n = len(ordered)
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i in range(n):
            for j in range(i + 1, n):
                if haversine_km(stops[ordered[i]], stops[ordered[j]]) <= CLUSTER_RADIUS_M / 1000.0:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[rj] = ri
        groups: dict[int, set[str]] = {}
        for i in range(n):
            groups.setdefault(find(i), set()).add(ordered[i])
        expected = {frozenset(g) for g in groups.values()}
        assert got == expected


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
