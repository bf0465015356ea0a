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
:func:`work_change` make them and :func:`commute_change` makes the
commute part.  :meth:`Deltas.rows` is the one pass over the FRs, by
position in the two years' columns: it makes each half once per distinct
place pair, and every report and score reads the FRs through it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cache
from typing import Callable, Iterator

from .geo import Coord, haversine_km, radial_direction
from .infer import Profiles, shared

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
    old: Coord, new: Coord, center: Coord, change_km: float, in_r4
) -> tuple[str, str | None, float, str | None, bool]:
    """The housing half of a delta: the home move's (status, direction, km, bin) and whether ``new`` is within R4.

    ``in_r4`` is a predicate over a (lon, lat) coordinate; pass a region
    containment closure, or None when no R4 layer is configured (every
    home then counts as outside).
    """
    return (*move(old, new, center, change_km), bool(in_r4(new)) if in_r4 is not None else False)


def work_change(
    old: Coord | None, new: Coord | None, center: Coord, change_km: float
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


class Deltas:
    """The FRs of two years, in card order, and the rules of their deltas; no FR's delta is stored.

    ``cards`` holds the FRs' card ids and ``years`` the two years'
    columns; ``rules`` holds the two years' centroid lookups, the center,
    ``in_r4`` (as in :func:`housing_change`) and the change benchmark.
    """

    __slots__ = ("cards", "years", "rules")

    def __init__(
        self,
        profiles1: Profiles,
        profiles2: Profiles,
        centroid1: Callable[[int], Coord],
        centroid2: Callable[[int], Coord],
        center: Coord,
        in_r4,
        change_km: float = CHANGE_KM_DEFAULT,
    ):
        self.cards = match_cohort(profiles1, profiles2)
        self.years = profiles1, profiles2
        self.rules = centroid1, centroid2, center, in_r4, change_km

    def positions(self) -> Iterator[tuple[int, int]]:
        return _fr_positions(*self.years)

    def rows(self, of_housing=tuple, of_work=tuple) -> Iterator[tuple]:
        """Each FR's ``(card, housing, work, commute_delta_km, commute_bin)``, in card order.

        ``housing`` is ``of_housing`` of the FR's :func:`housing_change`
        and ``work`` is ``of_work`` of its :func:`work_change`.  A half
        depends only on the FR's two home places, or its two work
        places, so each is made once per distinct pair of place ids and
        every FR of that pair gets the same value.  The commute part is
        :func:`commute_change`, made per FR.
        """
        centroid1, centroid2, center, in_r4, change_km = self.rules

        @cache
        def housing_of(home1: int, home2: int):
            return of_housing(housing_change(centroid1(home1), centroid2(home2), center, change_km, in_r4))

        @cache
        def work_of(work1: int, work2: int):
            old, new = None if work1 < 0 else centroid1(work1), None if work2 < 0 else centroid2(work2)
            return of_work(work_change(old, new, center, change_km))

        p1, p2 = self.years
        cards, home1, work1, km1 = p1.cards, p1.home, p1.work, p1.commute_km
        home2, work2, km2 = p2.home, p2.work, p2.commute_km
        for i, j in self.positions():
            commute_km, label = commute_change(km1[i], km2[j])
            yield cards[i], housing_of(home1[i], home2[j]), work_of(work1[i], work2[j]), commute_km, label
