"""Trip chaining: turning one card's transactions into stays at places.

A stay is the interval between arriving somewhere and boarding the next
vehicle there.  With distance fares both endpoints are known exactly.
With fixed fares the alighting is unrecorded, so permissive mode falls
back to the gap between consecutive boardings, attributed to the place
of the later boarding; strict mode refuses to guess and forms no stay.

Additionally, each active day contributes exactly one first-of-day stay
at the place of that day's first boarding.  When chaining produces no
interval for that boarding the stay is a zero-length marker, kept
because the first boarding of the day is evidence in its own right for
home inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .ingest import DAY_MINUTES, Ride

STRICT = "strict"
PERMISSIVE = "permissive"
STAY_MODES = (STRICT, PERMISSIVE)


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
