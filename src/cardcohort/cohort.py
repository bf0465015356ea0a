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
The housing half of a delta (status, direction, km, bin and whether the
year-2 home lies within R4) depends only on the FR's two home places, and
the work half only on its two work places: :func:`housing_change` and
:func:`work_change` make them, :func:`commute_change` makes the commute
part, and :func:`build_delta` is the three put together.  So a caller
that walks the years' columns by position can make each half once per
distinct place pair, with the same rules.
"""

from __future__ import annotations

import math
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


def move(old: Coord, new: Coord, center: Coord, change_km: float) -> tuple[str, str | None, float, str | None]:
    """(status, direction, km, bin) of a move between two centroids.

    A move of exactly ``change_km`` counts as Changed: the benchmark is a
    lower bound on what registers as a change.
    """
    km = haversine_km(old, new)
    if km < change_km:
        return NOT_CHANGED, None, km, None
    return CHANGED, radial_direction(old, new, center), km, move_bin(km)


def housing_change(
    old: Coord, new: Coord, center: Coord, change_km: float, in_r4, move=move
) -> tuple[str, str | None, float, str | None, bool]:
    """The housing half of a delta: the home move's (status, direction, km, bin) and whether ``new`` is within R4.

    ``in_r4`` is a predicate over a (lon, lat) coordinate; pass a region
    containment closure, or None when no R4 layer is configured (every
    home then counts as outside).
    """
    return (*move(old, new, center, change_km), bool(in_r4(new)) if in_r4 is not None else False)


def work_change(
    old: Coord | None, new: Coord | None, center: Coord, change_km: float, move=move
) -> tuple[str, str | None, float | None, str | None]:
    """The work half of a delta from the two work centroids, None for no work place.

    Employed both years: the work move.  Otherwise Lost, Found or
    Jobless, with no direction, distance or bin.
    """
    if old is not None and new is not None:
        return move(old, new, center, change_km)
    return JOBLESS if old is None and new is None else LOST if new is None else FOUND, None, None, None


def commute_change(km1: float, km2: float) -> tuple[float | None, str | None]:
    """The signed change between two commute distances and its bin.

    NaN stands for no distance, as in a profile column: NaN in either
    gives (None, None).
    """
    delta = km2 - km1
    return (None, None) if math.isnan(delta) else (delta, commute_bin(delta))


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
    """Assemble the full delta row for one FR from its two profiles.

    ``centroid1`` and ``centroid2`` give the centroid of a place id in
    year 1's and in year 2's place index; ``in_r4`` is as in
    :func:`housing_change`, applied to year 2's home.  ``move`` answers
    the home and the work move; a caller may pass a cached :func:`move`
    to share answers across the FRs of a run.
    """
    w1, w2 = p1.work, p2.work
    km1, km2 = p1.commute_km, p2.commute_km
    *housing, r4 = housing_change(centroid1(p1.home), centroid2(p2.home), center, change_km, in_r4, move)
    old_work, new_work = None if w1 is None else centroid1(w1), None if w2 is None else centroid2(w2)
    work = work_change(old_work, new_work, center, change_km, move)
    commute = commute_change(math.nan if km1 is None else km1, math.nan if km2 is None else km2)
    return CohortDelta(*housing, *work, *commute, r4)


class Deltas(CardView):
    """Each FR's delta by card id, in card order, built when asked for and not kept.

    ``rules`` holds the arguments of :func:`build_delta` after the two
    profiles, by which each delta is built.  :meth:`items` finds each
    FR's profiles in a merge of the two years' columns, with no lookup by
    card; :meth:`positions` yields the FRs' positions in those columns,
    and :meth:`housing` and :meth:`work` make a delta's two halves from a
    pair of place ids, so a caller can make each half once per pair.
    """

    __slots__ = ("years", "rules")

    def __init__(
        self,
        profiles1: Profiles,
        profiles2: Profiles,
        centroid1: Callable[[int], Coord],
        centroid2: Callable[[int], Coord],
        center: Coord,
        in_r4,
        change_km: float = CHANGE_KM_DEFAULT,
        move=move,
    ):
        self.cards = match_cohort(profiles1, profiles2)
        self.years = profiles1, profiles2
        self.rules = centroid1, centroid2, center, in_r4, change_km, move

    def positions(self) -> Iterator[tuple[int, int]]:
        return _fr_positions(*self.years)

    def at(self, i: int) -> CohortDelta:
        p1, p2 = self.years
        return build_delta(p1[self.cards[i]], p2[self.cards[i]], *self.rules)

    def items(self) -> Iterator[tuple[str, CohortDelta]]:
        p1, p2 = self.years
        return ((p1.cards[i], build_delta(p1.at(i), p2.at(j), *self.rules)) for i, j in self.positions())

    def housing(self, home1: int, home2: int) -> tuple[str, str | None, float, str | None, bool]:
        """The housing half of an FR whose home places are ``home1`` and ``home2``."""
        centroid1, centroid2, center, in_r4, change_km, move = self.rules
        return housing_change(centroid1(home1), centroid2(home2), center, change_km, in_r4, move)

    def work(self, work1: int, work2: int) -> tuple[str, str | None, float | None, str | None]:
        """The work half of an FR whose work places are ``work1`` and ``work2``, -1 for none."""
        centroid1, centroid2, center, _, change_km, move = self.rules
        return work_change(
            None if work1 < 0 else centroid1(work1), None if work2 < 0 else centroid2(work2), center, change_km, move
        )
