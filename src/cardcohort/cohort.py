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

Each year's place ids are looked up in that year's own place index.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator

from .geo import Coord, haversine_km, radial_direction
from .infer import CardView, Profiles, YearProfile, shared

CHANGE_KM_DEFAULT = 2.0

CHANGED = "Changed"
NOT_CHANGED = "NotChanged"
LOST = "Lost"
FOUND = "Found"
JOBLESS = "Jobless"

# Move-distance bins, lower bound inclusive, and the edges between them.
# "0-2" appears only when the change benchmark is configured below 2 km;
# the standard taxonomy is the last four labels.
MOVE_BINS = ("0-2", "2-5", "5-10", "10-20", ">=20")
_MOVE_EDGES = (2.0, 5.0, 10.0, 20.0)

# Commute-delta bins from largest increase to largest decrease.  Each bin
# is [lower, upper) with the lower bound inclusive; "<=-20" is open below.
COMMUTE_BINS = (">=20", "10-20", "5-10", "2-5", "0-2", "-2-0", "-5-(-2)", "-10-(-5)", "-20-(-10)", "<=-20")
_COMMUTE_EDGES = (-20.0, -10.0, -5.0, -2.0, 0.0, 2.0, 5.0, 10.0, 20.0)


def move_bin(km: float) -> str:
    return MOVE_BINS[bisect_right(_MOVE_EDGES, km)]


def commute_bin(delta_km: float) -> str:
    # The edges ascend and the labels descend; -0.0 lands with 0.0.
    return COMMUTE_BINS[-1 - bisect_right(_COMMUTE_EDGES, delta_km)]


@dataclass(slots=True)
class CohortDelta:
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


def _fr_positions(profiles1: Profiles, profiles2: Profiles) -> Iterator[tuple[int, int]]:
    """Each FR's positions in the two years' columns, in card order."""
    home1, home2 = profiles1.home, profiles2.home
    return ((i, j) for i, j in shared(profiles1, profiles2) if home1[i] >= 0 and home2[j] >= 0)


def match_cohort(profiles1: Profiles, profiles2: Profiles) -> list[str]:
    """Card ids with a home identified in both years, sorted: a merge of the two years' sorted card lists."""
    return [profiles1.cards[i] for i, _ in _fr_positions(profiles1, profiles2)]


class Deltas(CardView):
    """Each FR's delta by card id, in card order, built when asked for and not kept.

    ``build(p1, p2)`` makes the delta of an FR's two profiles.
    :meth:`items` is one iterator that finds each FR's profiles in a
    merge of the two years' columns, with no lookup by card.
    """

    __slots__ = ("years", "_build")

    def __init__(self, profiles1: Profiles, profiles2: Profiles, build: Callable[..., CohortDelta]):
        self.cards = match_cohort(profiles1, profiles2)
        self.years = profiles1, profiles2
        self._build = build

    def at(self, i: int) -> CohortDelta:
        p1, p2 = self.years
        return self._build(p1[self.cards[i]], p2[self.cards[i]])

    def items(self) -> Iterator[tuple[str, CohortDelta]]:
        p1, p2 = self.years
        return ((p1.cards[i], self._build(p1.at(i), p2.at(j))) for i, j in _fr_positions(p1, p2))


def move(old: Coord, new: Coord, center: Coord, change_km: float) -> tuple[str, str | None, float, str | None]:
    """(status, direction, km, bin) of a move between two centroids.

    A move of exactly ``change_km`` counts as Changed: the benchmark is a
    lower bound on what registers as a change.
    """
    km = haversine_km(old, new)
    if km < change_km:
        return NOT_CHANGED, None, km, None
    return CHANGED, radial_direction(old, new, center), km, move_bin(km)


def build_delta(
    p1: YearProfile,
    p2: YearProfile,
    centroid1: Callable[[int], Coord],
    centroid2: Callable[[int], Coord],
    center: Coord,
    in_r4,
    change_km: float = CHANGE_KM_DEFAULT,
    move=move,
) -> CohortDelta:
    """Assemble the full delta row for one FR.

    ``centroid1`` and ``centroid2`` give the centroid of a place id in
    year 1's and in year 2's place index.  ``in_r4`` is a predicate over
    a (lon, lat) coordinate, applied to year 2's home; pass a region
    containment closure, or None when no R4 layer is configured (every
    card then counts as outside).  ``move`` answers the home and the
    work move; a caller may pass a cached :func:`move` to share answers
    across the FRs of a run.
    """
    home2 = centroid2(p2.home)
    h_status, h_dir, h_km, h_bin = move(centroid1(p1.home), home2, center, change_km)
    w1, w2 = p1.work, p2.work
    if w1 is not None and w2 is not None:
        w_status, w_dir, w_km, w_bin = move(centroid1(w1), centroid2(w2), center, change_km)
    else:
        w_status = JOBLESS if w1 is None and w2 is None else LOST if w2 is None else FOUND
        w_dir = w_km = w_bin = None
    commute_delta_km = None
    if p1.commute_km is not None and p2.commute_km is not None:
        commute_delta_km = p2.commute_km - p1.commute_km
    return CohortDelta(
        housing_status=h_status, housing_dir=h_dir, move_km=h_km, move_bin=h_bin,
        work_status=w_status, work_dir=w_dir, work_move_km=w_km, work_move_bin=w_bin,
        commute_delta_km=commute_delta_km,
        commute_bin=None if commute_delta_km is None else commute_bin(commute_delta_km),
        r4_2010=bool(in_r4(home2)) if in_r4 is not None else False,
    )
