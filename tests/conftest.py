"""Shared fixtures and the acceptance result summary hook."""

from __future__ import annotations

import math
import os
import tracemalloc
from collections.abc import Iterable
from typing import NamedTuple

import pytest

from cardcohort.cohort import CHANGED
from cardcohort.geo import M_PER_DEG_LAT
from cardcohort.groups import group_index
from cardcohort.infer import Profiles, YearProfile

# Acceptance tests register one (number, passed, detail) entry each; the
# terminal summary prints them as a block so a run's verdict is readable
# without digging through the per-test output.
ACCEPTANCE_RESULTS: list[tuple[int, bool, str]] = []


def record_criterion(num: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((num, ok, detail))
    assert ok, f"criterion {num} failed: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, ok, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {status} - {detail}")


def offset_coord(origin: tuple[float, float], east_m: float, north_m: float) -> tuple[float, float]:
    """Shift a (lon, lat) point by metres using the small-angle scale."""
    lon0, lat0 = origin
    dlat = north_m / M_PER_DEG_LAT
    dlon = east_m / (M_PER_DEG_LAT * math.cos(math.radians(lat0)))
    return lon0 + dlon, lat0 + dlat


def members(index) -> list[tuple[str, ...]]:
    """Each place's stop ids in id order, by place id, rebuilt from a PlaceIndex's ``codes`` and ``place_of``."""
    out: list[list[str]] = [[] for _ in range(len(index))]
    for sid in sorted(index.codes):
        out[index.place_of[index.codes[sid]]].append(sid)
    return [tuple(m) for m in out]


def stop_places(index) -> dict[str, int]:
    """Each stop id's place id in a PlaceIndex."""
    return {sid: index.place_of[code] for sid, code in index.codes.items()}


def profile_columns(profiles: Iterable[tuple[str, YearProfile]]) -> Profiles:
    """A year's columns of hand-made ``(card, profile)`` pairs in card order, None held as -1 or NaN."""
    columns = Profiles()
    columns.extend(
        (
            card,
            (
                -1 if p.home is None else p.home,
                -1 if p.work is None else p.work,
                math.nan if p.commute_km is None else p.commute_km,
                -1 if p.commute_min is None else p.commute_min,
                p.rides,
            ),
        )
        for card, p in profiles
    )
    return columns


class Delta(NamedTuple):
    """One FR's row of ``Deltas.rows()``: its housing half, its work half and its commute change, field by field."""

    housing_status: str
    housing_dir: str | None
    move_km: float
    move_bin: str | None
    r4_2010: bool
    work_status: str
    work_dir: str | None
    work_move_km: float | None
    work_move_bin: str | None
    commute_delta_km: float | None
    commute_bin: str | None


def fr_deltas(deltas) -> dict[str, Delta]:
    """Each FR's :class:`Delta` by card id, in card order, as ``deltas.rows()`` makes it."""
    return {card: Delta(*housing, *work, km, label) for card, housing, work, km, label in deltas.rows()}


def group_of(d: Delta) -> int:
    """The group number of one FR's delta."""
    return group_index(d.housing_status == CHANGED, d.work_status, d.r4_2010)


def peak_traced_bytes(fn, *args) -> int:
    """The most bytes ``fn(*args)`` held at once beyond those live before it, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# What scoring or summarizing 20,000 cards may hold at once: a list of one
# 8-byte reference per card would already take 160,000 bytes.
PER_CARD_COPY_BYTES = 64 * 1024


MINI_ORIGIN = (116.30, 39.90)


def _square_geojson(features: list[tuple[str, float, float, float, float]]) -> str:
    """Axis-aligned boxes given in metres east/north of MINI_ORIGIN."""
    import json

    feats = []
    for name, x0, x1, y0, y1 in features:
        ring = [
            list(offset_coord(MINI_ORIGIN, x0, y0)),
            list(offset_coord(MINI_ORIGIN, x1, y0)),
            list(offset_coord(MINI_ORIGIN, x1, y1)),
            list(offset_coord(MINI_ORIGIN, x0, y1)),
            list(offset_coord(MINI_ORIGIN, x0, y0)),
        ]
        feats.append(
            {
                "type": "Feature",
                "properties": {"name": name},
                "geometry": {"type": "Polygon", "coordinates": [ring]},
            }
        )
    return json.dumps({"type": "FeatureCollection", "features": feats})


@pytest.fixture(scope="session")
def mini_bundle(tmp_path_factory):
    """A tiny hand-written two-year scenario with known ground truth.

    Stops (metres east of the origin): HA at 0 and HB at 300 form the
    home place (place 0, centroid at 150), WA at 6000 is the work place
    (place 1), XA at 12000 is the year-2 home of the moving card
    (place 2).

    Cards:

    * A1, regular, distance fares: commutes HA->WA every weekday of
      year 1, XA->WA in year 2.  Home moves ~11.85 km Outward, work
      unchanged, commute time 40 min both years.
    * S1, student: same pattern as year-1 A1, must get no home or work.
    * F1, regular, fixed fares: boards HA each morning and WA each
      evening, both years.  Recoverable in permissive mode only; no
      commute time (no alighting data).

    Frequent riders: A1 and F1.  The R4 box spans +-3000 m, so A1's
    year-2 home is outside and F1's is within.  The follow-up week has
    three F1 rides and nothing from A1.
    """
    d = tmp_path_factory.mktemp("mini")
    ha = MINI_ORIGIN
    hb = offset_coord(MINI_ORIGIN, 300, 0)
    wa = offset_coord(MINI_ORIGIN, 6000, 0)
    xa = offset_coord(MINI_ORIGIN, 12000, 0)
    stops = "stop_id,lon,lat\n" + "".join(
        f"{sid},{lon:.7f},{lat:.7f}\n"
        for sid, (lon, lat) in (("HA", ha), ("HB", hb), ("WA", wa), ("XA", xa))
    )
    (d / "stops.csv").write_text(stops)

    def week_lines(days: list[str], card: str, kind: str, h: str, w: str) -> list[str]:
        lines = []
        for day in days:
            if kind == "DST":
                lines.append(f"{card},R,DST,B1,{h},{day}T07:30,{w},{day}T08:10")
                lines.append(f"{card},R,DST,B1,{w},{day}T18:00,{h},{day}T18:40")
            elif kind == "DST_STUDENT":
                lines.append(f"{card},S,DST,B1,{h},{day}T07:30,{w},{day}T08:10")
                lines.append(f"{card},S,DST,B1,{w},{day}T18:00,{h},{day}T18:40")
            else:
                lines.append(f"{card},R,FIX,B2,{h},{day}T07:30,,")
                lines.append(f"{card},R,FIX,B2,{w},{day}T18:00,,")
        return lines

    header = "card_id,card_type,fare_type,route_id,board_stop,board_time,alight_stop,alight_time"
    days1 = [f"2008-04-{d:02d}" for d in range(7, 12)]
    days2 = [f"2010-04-{d:02d}" for d in range(5, 10)]
    year1 = [header]
    year1 += week_lines(days1, "A1", "DST", "HA", "WA")
    year1 += week_lines(days1, "S1", "DST_STUDENT", "HA", "WA")
    year1 += week_lines(days1, "F1", "FIX", "HA", "WA")
    (d / "year1.csv").write_text("\n".join(year1) + "\n")

    year2 = [header]
    year2 += week_lines(days2, "A1", "DST", "XA", "WA")
    year2 += week_lines(days2, "S1", "DST_STUDENT", "HA", "WA")
    year2 += week_lines(days2, "F1", "FIX", "HA", "WA")
    (d / "year2.csv").write_text("\n".join(year2) + "\n")

    followup = [header]
    for day in ("2014-04-07", "2014-04-08", "2014-04-09"):
        followup.append(f"F1,R,FIX,B2,HA,{day}T09:00,,")
    (d / "followup.csv").write_text("\n".join(followup) + "\n")

    (d / "r4.geojson").write_text(_square_geojson([("R4", -3000, 3000, -3000, 3000)]))
    (d / "taz.geojson").write_text(
        _square_geojson(
            [("near", -1000, 3000, -3000, 3000), ("far", 9000, 15000, -3000, 3000)]
        )
    )
    return {
        "dir": str(d),
        "year1": str(d / "year1.csv"),
        "year2": str(d / "year2.csv"),
        "followup": str(d / "followup.csv"),
        "stops": str(d / "stops.csv"),
        "r4": str(d / "r4.geojson"),
        "taz": str(d / "taz.geojson"),
        "center": MINI_ORIGIN,
        "coords": {"HA": ha, "HB": hb, "WA": wa, "XA": xa},
    }


@pytest.fixture
def mini_config(mini_bundle):
    from cardcohort.pipeline import RunConfig

    return RunConfig(
        year1=mini_bundle["year1"],
        year2=mini_bundle["year2"],
        stops1=mini_bundle["stops"],
        stops2=mini_bundle["stops"],
        followup=mini_bundle["followup"],
        r4=mini_bundle["r4"],
        taz=mini_bundle["taz"],
        center=mini_bundle["center"],
    )
