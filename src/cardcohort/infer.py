"""Weekly rule system: identify a card's work place, home place, commute.

The rules operate on one card's stays over one observation week:

Work: among weekday stays of at least ``stay_min`` minutes that are not
the day's first stay, the place seen on the most distinct weekdays wins.
Student cards never get a work place.

Home: among places that originate at least one weekday's first boarding
and hold at least one long weekday stay, the place originating the most
weekdays wins, subject to F_h >= F_j where F_h is that weekday count and
F_j is the number of weekday stays at the identified work place.  Two
variants exist: the strict rule refuses to name a home when no work
place was found; the relaxed rule (default) treats a missing work place
as F_j = 0.  The relaxed variant exists because published cohort counts
include large jobless groups with identified homes, which the strict
precondition cannot produce.

Commute: distance is between home and work centroids; time is the
median over weekdays of the in-vehicle minutes of the first complete
home-to-work leg chain of the day, when complete timestamps exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Callable, Iterable, Sequence

from .chain import Leg, Stay
from .geo import Coord, haversine_km
from .ingest import CARD_STUDENT, DAY_MINUTES

STAY_MIN_DEFAULT = 360

HOME_RULE_PAPER = "paper"
HOME_RULE_RELAXED = "relaxed"
HOME_RULES = (HOME_RULE_PAPER, HOME_RULE_RELAXED)


@dataclass(slots=True)
class YearProfile:
    card_id: str
    year: str
    home: int | None
    work: int | None
    home_centroid: Coord | None
    work_centroid: Coord | None
    commute_km: float | None
    commute_min: int | None
    rides: int


def identify_work(
    stays: Sequence[Stay],
    card_type: str,
    weekdays: frozenset[int],
    stay_min: int = STAY_MIN_DEFAULT,
) -> int | None:
    if card_type == CARD_STUDENT:
        return None
    days: dict[int, set[int]] = {}
    qual_dur: dict[int, int] = {}
    for s in stays:
        if s.first_of_day or s.duration_min < stay_min:
            continue
        day = s.depart_time // DAY_MINUTES
        if day not in weekdays:
            continue
        days.setdefault(s.place_id, set()).add(day)
        qual_dur[s.place_id] = qual_dur.get(s.place_id, 0) + s.duration_min
    if not days:
        return None
    return min(days, key=lambda p: (-len(days[p]), -qual_dur[p], p))


def identify_home(
    stays: Sequence[Stay],
    work: int | None,
    card_type: str,
    weekdays: frozenset[int],
    home_rule: str = HOME_RULE_RELAXED,
    stay_min: int = STAY_MIN_DEFAULT,
) -> int | None:
    if home_rule not in HOME_RULES:
        raise ValueError(f"unknown home rule: {home_rule!r}")
    if card_type == CARD_STUDENT:
        return None
    if home_rule == HOME_RULE_PAPER and work is None:
        return None
    first_days: dict[int, set[int]] = {}
    long_places: set[int] = set()
    total_dur: dict[int, int] = {}
    work_stays = 0
    for s in stays:
        day = s.depart_time // DAY_MINUTES
        if day not in weekdays:
            continue
        if s.first_of_day:
            first_days.setdefault(s.place_id, set()).add(day)
        if s.duration_min >= stay_min:
            long_places.add(s.place_id)
        total_dur[s.place_id] = total_dur.get(s.place_id, 0) + s.duration_min
        if work is not None and s.place_id == work:
            work_stays += 1
    f_j = work_stays if work is not None else 0
    candidates = [
        p
        for p, d in first_days.items()
        if p in long_places and p != work and len(d) >= f_j
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda p: (-len(first_days[p]), -total_dur[p], p))


def commute_metrics(
    legs: Sequence[Leg],
    home: int | None,
    work: int | None,
    weekdays: frozenset[int],
    centroid_of: Callable[[int], Coord],
) -> tuple[float | None, int | None]:
    """Commute distance and, when measurable, in-vehicle time.

    The time is taken from the first leg of each weekday that boards at
    the home place, followed through consecutive same-place transfers to
    the work place.  A chain broken by a missing alighting or an
    off-grid transfer contributes nothing for that day.
    """
    if home is None or work is None:
        return None, None
    km = haversine_km(centroid_of(home), centroid_of(work))
    day_minutes: list[int] = []
    # Per weekday: (minutes so far, place the next leg must board at) while
    # a chain is open; None once the day has its answer.
    chains: dict[int, tuple[int, int] | None] = {}
    for leg in legs:
        d = leg.board_time // DAY_MINUTES
        if d not in weekdays:
            continue
        if d in chains:
            chain = chains[d]
            if chain is None:
                continue
            total, at = chain
            if leg.board_place != at:
                chains[d] = None
                continue
        elif leg.board_place == home:
            total = 0
        else:
            continue
        if leg.alight_place is None:
            chains[d] = None
            continue
        total += leg.alight_time - leg.board_time
        if leg.alight_place == work:
            day_minutes.append(total)
            chains[d] = None
        else:
            chains[d] = (total, leg.alight_place)
    commute_min = int(median(day_minutes)) if day_minutes else None
    return km, commute_min


def build_profile(
    card_id: str,
    year_label: str,
    card_type: str,
    legs: Sequence[Leg],
    stays: Sequence[Stay],
    weekdays: frozenset[int],
    centroid_of: Callable[[int], Coord],
    rides: int,
    home_rule: str = HOME_RULE_RELAXED,
    stay_min: int = STAY_MIN_DEFAULT,
) -> YearProfile:
    work = identify_work(stays, card_type, weekdays, stay_min)
    home = identify_home(stays, work, card_type, weekdays, home_rule, stay_min)
    commute_km, commute_min = commute_metrics(legs, home, work, weekdays, centroid_of)
    return YearProfile(
        card_id=card_id,
        year=year_label,
        home=home,
        work=work,
        home_centroid=centroid_of(home) if home is not None else None,
        work_centroid=centroid_of(work) if work is not None else None,
        commute_km=commute_km,
        commute_min=commute_min,
        rides=rides,
    )
