"""Reference for the per-card pass: the separate stages it replaced.

These are the chaining and rule functions as they stood before chaining,
the home/work rules and the commute walk were fused into one pass
(``cardcohort.infer.build_profile``), copied unchanged.  They stay here,
test-only, as the slow and obviously staged statement of the rules: the
rule tests in ``test_chain.py`` and ``test_infer.py`` pin their edges,
and ``test_profile_kernel.py`` checks the fused pass against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Callable, Iterable, Mapping, Sequence

from cardcohort.geo import Coord, haversine_km
from cardcohort.infer import (  # noqa: F401
    HOME_RULE_PAPER,
    HOME_RULE_RELAXED,
    HOME_RULES,
    PERMISSIVE,
    STAY_MIN_DEFAULT,
    STAY_MODES,
    STRICT,
    YearProfile,
)
from cardcohort.ingest import CARD_STUDENT, DAY_MINUTES

from coded_rides import TextRide as Ride


@dataclass(slots=True)
class Leg:
    """One ride with stops resolved to places; times in minutes from the week start."""

    board_place: int
    alight_place: int | None
    board_time: int
    alight_time: int | None
    route_id: str

    @property
    def complete(self) -> bool:
        return self.alight_place is not None


@dataclass(slots=True)
class Stay:
    """Time at one place; times in minutes from the week start."""

    card_id: str
    place_id: int
    arrive_time: int | None
    depart_time: int
    duration_min: int
    approximate: bool
    first_of_day: bool

    @property
    def day(self) -> int:
        return self.depart_time // DAY_MINUTES


def build_legs(rides: Iterable[Ride], stop_to_place: Mapping[str, int]) -> list[Leg]:
    """Resolve one card's rides to legs, ordered by boarding time.

    Rides sort as tuples, boarding minute first and the remaining fields
    as tie-breakers, so the order is a pure function of the ride set, not
    of file order.
    """
    legs = []
    for board, route_id, board_stop, alight_stop, alight in sorted(rides):
        if alight_stop:
            leg = Leg(stop_to_place[board_stop], stop_to_place[alight_stop], board, alight, route_id)
        else:
            leg = Leg(stop_to_place[board_stop], None, board, None, route_id)
        legs.append(leg)
    return legs


def build_stays(card_id: str, legs: Sequence[Leg], mode: str = PERMISSIVE) -> list[Stay]:
    """Chain a card's legs into stays.

    For consecutive legs k and k+1:

    * leg k alighted where leg k+1 boards: an exact stay over
      [alight_k, board_k+1];
    * leg k has no alighting (fixed fare): in permissive mode an
      approximate stay at leg k+1's boarding place over
      [board_k, board_k+1], with no arrival time; in strict mode nothing;
    * leg k alighted somewhere else: the card moved off-grid, no stay.

    Whatever chaining yields, the first boarding of each calendar day is
    marked first-of-day; if chaining produced no stay for it, a
    zero-length stay stands in so the day still has its opener.
    """
    if mode not in STAY_MODES:
        raise ValueError(f"unknown stay mode: {mode!r}")
    stays: list[Stay] = []
    prev: Leg | None = None
    current_day = None
    for leg in legs:
        day = leg.board_time // DAY_MINUTES
        first = day != current_day
        if first:
            current_day = day
        formed = None
        if prev is not None:
            if prev.alight_place is not None:
                if prev.alight_place == leg.board_place and prev.alight_time <= leg.board_time:
                    dur = leg.board_time - prev.alight_time
                    formed = Stay(
                        card_id, leg.board_place, prev.alight_time, leg.board_time, dur, False, first
                    )
            elif mode == PERMISSIVE:
                dur = leg.board_time - prev.board_time
                formed = Stay(card_id, leg.board_place, None, leg.board_time, dur, True, first)
        if formed is None and first:
            formed = Stay(card_id, leg.board_place, None, leg.board_time, 0, False, True)
        if formed is not None:
            stays.append(formed)
        prev = leg
    return stays


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
        home=home,
        work=work,
        commute_km=commute_km,
        commute_min=commute_min,
        rides=rides,
    )
