"""Two-year cohort dynamics for frequent riders.

A frequent rider (FR) is a card with an identified home place in both
observation years.  For each FR this module derives:

* a housing component: NotChanged under the 2 km benchmark, otherwise
  Changed with a radial direction and a move-distance bin;
* a work component: NotChanged / Changed (same benchmark) when employed
  both years, Lost / Found when employed in exactly one, Jobless when in
  neither;
* a signed commute-distance delta when a commute distance exists in both
  years.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geo import Coord, haversine_km, radial_direction
from .infer import YearProfile

CHANGE_KM_DEFAULT = 2.0

CHANGED = "Changed"
NOT_CHANGED = "NotChanged"
LOST = "Lost"
FOUND = "Found"
JOBLESS = "Jobless"

WORK_STATUSES = (CHANGED, NOT_CHANGED, LOST, FOUND, JOBLESS)

# Move-distance bins, lower bound inclusive.  "0-2" appears only when the
# change benchmark is configured below 2 km; the standard taxonomy is the
# last four labels.
MOVE_BINS = ("0-2", "2-5", "5-10", "10-20", ">=20")

# Commute-delta bins from largest increase to largest decrease.  Each bin
# is [lower, upper) with the lower bound inclusive; "<=-20" is open below.
COMMUTE_BINS = (
    ">=20",
    "10-20",
    "5-10",
    "2-5",
    "0-2",
    "-2-0",
    "-5-(-2)",
    "-10-(-5)",
    "-20-(-10)",
    "<=-20",
)


def move_bin(km: float) -> str:
    if km >= 20.0:
        return ">=20"
    if km >= 10.0:
        return "10-20"
    if km >= 5.0:
        return "5-10"
    if km >= 2.0:
        return "2-5"
    return "0-2"


def commute_bin(delta_km: float) -> str:
    if delta_km >= 20.0:
        return ">=20"
    if delta_km >= 10.0:
        return "10-20"
    if delta_km >= 5.0:
        return "5-10"
    if delta_km >= 2.0:
        return "2-5"
    if delta_km >= 0.0:
        return "0-2"
    if delta_km >= -2.0:
        return "-2-0"
    if delta_km >= -5.0:
        return "-5-(-2)"
    if delta_km >= -10.0:
        return "-10-(-5)"
    if delta_km >= -20.0:
        return "-20-(-10)"
    return "<=-20"


@dataclass(slots=True)
class CohortDelta:
    card_id: str
    housing_status: str
    housing_dir: str | None
    move_km: float
    move_bin: str | None
    work_status: str
    work_dir: str | None
    work_move_km: float | None
    work_move_bin: str | None
    commute_delta_km: float | None
    commute_bin: str | None
    r4_2010: bool


def match_cohort(
    profiles1: dict[str, YearProfile], profiles2: dict[str, YearProfile]
) -> list[str]:
    """Card ids with a home identified in both years, sorted."""
    return sorted(
        c
        for c, p in profiles1.items()
        if p.home is not None and c in profiles2 and profiles2[c].home is not None
    )


def _move(
    old: Coord, new: Coord, center: Coord, change_km: float, moves: dict | None
) -> tuple[str, str | None, float, str | None]:
    """(status, direction, km, bin) of a move between two centroids.

    ``moves`` caches the answer per centroid pair; it must only ever see
    one ``center`` and ``change_km``.  A move of exactly ``change_km``
    counts as Changed: the benchmark is a lower bound on what registers
    as a change.
    """
    if moves is not None and (old, new) in moves:
        return moves[old, new]
    km = haversine_km(old, new)
    if km < change_km:
        move = NOT_CHANGED, None, km, None
    else:
        move = CHANGED, radial_direction(old, new, center), km, move_bin(km)
    if moves is not None:
        moves[old, new] = move
    return move


def housing_delta(
    p1: YearProfile,
    p2: YearProfile,
    center: Coord,
    change_km: float = CHANGE_KM_DEFAULT,
    moves: dict | None = None,
) -> tuple[str, str | None, float, str | None]:
    """(status, direction, move_km, bin) for an FR's home pair."""
    return _move(p1.home_centroid, p2.home_centroid, center, change_km, moves)


def work_delta(
    p1: YearProfile,
    p2: YearProfile,
    center: Coord,
    change_km: float = CHANGE_KM_DEFAULT,
    moves: dict | None = None,
) -> tuple[str, str | None, float | None, str | None]:
    """(status, direction, move_km, bin) for an FR's work pair."""
    w1, w2 = p1.work, p2.work
    if w1 is None and w2 is None:
        return JOBLESS, None, None, None
    if w1 is not None and w2 is None:
        return LOST, None, None, None
    if w1 is None:
        return FOUND, None, None, None
    return _move(p1.work_centroid, p2.work_centroid, center, change_km, moves)


def commute_delta(p1: YearProfile, p2: YearProfile) -> tuple[float, str] | None:
    if p1.commute_km is None or p2.commute_km is None:
        return None
    delta = p2.commute_km - p1.commute_km
    return delta, commute_bin(delta)


def build_delta(
    p1: YearProfile,
    p2: YearProfile,
    center: Coord,
    in_r4,
    change_km: float = CHANGE_KM_DEFAULT,
    moves: dict | None = None,
) -> CohortDelta:
    """Assemble the full delta row for one FR.

    ``in_r4`` is a predicate over a (lon, lat) coordinate; pass a region
    containment closure, or None when no R4 layer is configured (every
    card then counts as outside).  ``moves`` is a dict that caches home
    and work moves per centroid pair across the FRs of one run.
    """
    h_status, h_dir, h_km, h_bin = housing_delta(p1, p2, center, change_km, moves)
    w_status, w_dir, w_km, w_bin = work_delta(p1, p2, center, change_km, moves)
    cd = commute_delta(p1, p2)
    return CohortDelta(
        card_id=p1.card_id,
        housing_status=h_status,
        housing_dir=h_dir,
        move_km=h_km,
        move_bin=h_bin,
        work_status=w_status,
        work_dir=w_dir,
        work_move_km=w_km,
        work_move_bin=w_bin,
        commute_delta_km=cd[0] if cd else None,
        commute_bin=cd[1] if cd else None,
        r4_2010=bool(in_r4(p2.home_centroid)) if in_r4 is not None else False,
    )
