"""Weekly rule system: one card's rides to its work place, home place, commute.

``build_profile`` walks a card's rides once, in boarding order.  It
takes them as :func:`cardcohort.ingest.read_transactions` keeps them:
one int array of coded fields, four per ride, re-formed into ride tuples
only while they are sorted, with each stop's place looked up by its
code.  Rides sort as (board, board_stop, alight_stop, alight) and each
stop code is its id's rank among the registry's sorted ids, so the walk
sees the rides in the order their ids give, whatever the order of the
lines.
It forms each stay and, as the stay is formed, counts it for both rules
below; no stay outlives the walk unless the caller passes a list to
keep them in (``infer --dump-stays``).

Stays: a stay is the time between arriving at a place and boarding the
next vehicle there; its place and its departure are that boarding's.
For consecutive rides k and k+1:

* ride k alighted where ride k+1 boards, no later than that boarding:
  an exact stay over [alight_k, board_k+1];
* ride k has no alighting (fixed fare): in permissive mode an
  approximate stay over [board_k, board_k+1], with no arrival time; in
  strict mode nothing, because strict mode refuses to guess;
* ride k alighted somewhere else (the card moved off-grid) or after
  ride k+1 boarded (overlapping rides): no stay.

Whatever chaining yields, the first boarding of each calendar day is
marked first-of-day; if chaining produced no stay for it, a zero-length
stay stands in, because the first boarding of the day is evidence in
its own right for home inference.

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

Commute: distance is the caller's ``distance_km`` of the two place ids,
as a profile names its places and holds no coordinate; time is the
median over weekdays of the in-vehicle minutes of the first complete
home-to-work ride chain of the day, when complete timestamps exist.
Only a card with both places is walked a second time, for the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Callable, Sequence

from .ingest import CARD_STUDENT, DAY_MINUTES, Ride, ride_tuples

STAY_MIN_DEFAULT = 360

STRICT = "strict"
PERMISSIVE = "permissive"
STAY_MODES = (STRICT, PERMISSIVE)

HOME_RULE_PAPER = "paper"
HOME_RULE_RELAXED = "relaxed"
HOME_RULES = (HOME_RULE_PAPER, HOME_RULE_RELAXED)


@dataclass(slots=True)
class Stay:
    """Time at one place; times in minutes from the week start."""

    place_id: int
    arrive_time: int | None
    depart_time: int
    duration_min: int
    approximate: bool
    first_of_day: bool


@dataclass(slots=True)
class YearProfile:
    """One card's places and commute in one week; callers key it by card id.

    A slotted dataclass pickles as its class plus a ``(None, {field:
    value})`` state, and the unpickler's memo keeps every such dict and
    tuple alive until the load ends.  ``__reduce__`` pickles it as its
    class and its five values instead, so a worker's year of profiles
    loads with no state dict per card.
    """

    home: int | None
    work: int | None
    commute_km: float | None
    commute_min: int | None
    rides: int

    def __reduce__(self):
        return YearProfile, (self.home, self.work, self.commute_km, self.commute_min, self.rides)


def build_profile(
    card_type: str,
    rides: Sequence[int],
    place_of: Sequence[int | None],
    weekdays: frozenset[int],
    distance_km: Callable[[int, int], float],
    stay_mode: str = PERMISSIVE,
    home_rule: str = HOME_RULE_RELAXED,
    stay_min: int = STAY_MIN_DEFAULT,
    stays: list[Stay] | None = None,
) -> YearProfile:
    """One card's profile for one observation week.

    ``rides`` is the card's flat sequence of coded ride fields, as
    :func:`cardcohort.ingest.read_transactions` keeps them, and
    ``place_of[code]`` the place of each stop code, None for code 0 (no
    alighting).  Rides sort as tuples, boarding minute first and the
    remaining fields as tie-breakers, so the result is a pure function of
    the ride set, not of file order.  ``distance_km(home, work)``
    answers the commute distance between two place ids, so a caller can
    cache it across cards; ``stays``, when given, receives the card's
    stays in order.
    """
    if stay_mode not in STAY_MODES:
        raise ValueError(f"unknown stay mode: {stay_mode!r}")
    if home_rule not in HOME_RULES:
        raise ValueError(f"unknown home rule: {home_rule!r}")
    rides = sorted(ride_tuples(rides))
    permissive = stay_mode == PERMISSIVE
    # Per place, counted over its weekday stays:
    #   [0] weekdays it opened (F_h)   [1] minutes   [2] stays (F_j)
    #   [3] has a long stay            [4] work days [5] work minutes
    #   [6] last work day
    # where work days and minutes count long stays that do not open
    # the day.  Rides come in day order, so a work day is new when it
    # differs from the place's last one.
    acc: dict[int, list] = {}
    current_day = None
    prev_board = None  # None before the first ride
    prev_at = prev_alight = None  # prev_at is None after a ride with no alighting
    for board, board_stop, alight_stop, alight in rides:
        place = place_of[board_stop]
        day = board // DAY_MINUTES
        first = day != current_day
        if first:
            current_day = day
        dur = None
        if prev_at is not None:
            if prev_at == place and prev_alight <= board:
                dur = board - prev_alight
                arrive = prev_alight
                approx = False
        elif permissive and prev_board is not None:
            dur = board - prev_board
            arrive = None
            approx = True
        prev_board = board
        prev_at = place_of[alight_stop]
        prev_alight = alight
        if dur is None:
            if not first:
                continue
            dur = 0
            arrive = None
            approx = False
        if stays is not None:
            stays.append(Stay(place, arrive, board, dur, approx, first))
        if day not in weekdays:
            continue
        a = acc.get(place)
        if a is None:
            a = acc[place] = [0, 0, 0, False, 0, 0, None]
        a[1] += dur
        a[2] += 1
        long = dur >= stay_min
        if long:
            a[3] = True
        if first:
            a[0] += 1
        elif long:
            if a[6] != day:
                a[6] = day
                a[4] += 1
            a[5] += dur
    home = work = None
    if card_type != CARD_STUDENT:
        # Ties go to more minutes, then to the smaller place id.
        works = [(-a[4], -a[5], p) for p, a in acc.items() if a[4]]
        if works:
            work = min(works)[2]
        if work is not None or home_rule == HOME_RULE_RELAXED:
            f_j = acc[work][2] if work is not None else 0
            homes = [
                (-a[0], -a[1], p)
                for p, a in acc.items()
                if a[0] and a[3] and p != work and a[0] >= f_j
            ]
            if homes:
                home = min(homes)[2]

    km = minutes = None
    if home is not None and work is not None:
        km = distance_km(home, work)
        minutes = _commute_minutes(rides, place_of, weekdays, home, work)
    return YearProfile(
        home=home,
        work=work,
        commute_km=km,
        commute_min=minutes,
        rides=len(rides),
    )


def _commute_minutes(
    rides: list[Ride],
    place_of: Sequence[int | None],
    weekdays: frozenset[int],
    home: int,
    work: int,
) -> int | None:
    """Median in-vehicle minutes of each weekday's home-to-work chain.

    A day's chain starts at its first ride boarding at home and follows
    consecutive same-place transfers to work.  A chain broken by a
    missing alighting or an off-grid transfer contributes nothing for
    that day.  ``rides`` are sorted, so days come in order.
    """
    day_minutes: list[int] = []
    chain_day = None  # the last day whose chain started
    at = None  # place the next ride must board at; None once the day has its answer
    total = 0
    for board, board_stop, alight_stop, alight in rides:
        day = board // DAY_MINUTES
        if day not in weekdays:
            continue
        place = place_of[board_stop]
        if day == chain_day:
            if at is None or place != at:
                at = None
                continue
        elif place == home:
            chain_day = day
            total = 0
        else:
            continue
        at = place_of[alight_stop]
        if at is None:
            continue
        total += alight - board
        if at == work:
            day_minutes.append(total)
            at = None
    return int(median(day_minutes)) if day_minutes else None
