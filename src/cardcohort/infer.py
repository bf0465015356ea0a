"""Weekly rule system: one card's rides to its work place, home place, commute.

``profile_row`` is the one rule walk: it walks a card's rides once, in
boarding order, and returns the card's values for its year's
:class:`Profiles` columns, which the profile pass adds straight onto
them through :meth:`Profiles.extend`.  The walk takes the rides as
:func:`cardcohort.ingest.read_transactions` keeps them:
one int array of coded fields, four per ride, re-formed into ride tuples
only while they are sorted, with each stop's place looked up by its
code in the registry's :class:`cardcohort.geo.PlaceIndex`.  Rides sort
as (board, board_stop, alight_stop, alight) and each stop code is its
id's rank among the registry's sorted ids, so the walk sees the rides in
the order their ids give, whatever the order of the lines.
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
For an even number of days the median is the mean of the two middle
days, truncated to whole minutes.  Only a card with both places is
walked a second time, for the chain.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .ingest import DAY_MINUTES, Ride, ride_tuples

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


class Profiles:
    """A year's profiles as columns: its card ids in sorted order and one array per field.

    ``home``, ``work`` and ``rides`` are ``array('i')`` and
    ``commute_min`` is ``array('q')``, as a distance-fare ride may alight
    as late as the calendar allows; each holds -1 for None.
    ``commute_km`` is ``array('d')`` with NaN for None.  A card's values
    sit at its position in ``cards``; every reader, the writers and the
    recovery scorer included, reads them there.
    """

    __slots__ = ("cards", "home", "work", "commute_km", "commute_min", "rides")

    def __init__(self):
        self.cards: list[str] = []
        self.home, self.work, self.commute_km, self.commute_min, self.rides = map(array, "iidqi")

    def extend(self, rows: Iterable[tuple[str, tuple[int, int, float, int, int]]]) -> None:
        """Add each ``(card, values)`` of ``rows``, the values as :func:`profile_row` gives them.

        The cards must come in ascending order, after every card held.
        """
        cards = self.cards
        columns = self.home, self.work, self.commute_km, self.commute_min, self.rides
        home, work, km, minutes, rides = (column.append for column in columns)
        for card, (h, w, k, m, r) in rows:
            if cards and card <= cards[-1]:
                raise ValueError(f"card {card!r} does not sort after {cards[-1]!r}")
            cards.append(card)
            home(h)
            work(w)
            km(k)
            minutes(m)
            rides(r)

    def __len__(self) -> int:
        return len(self.cards)


def shared(a: Profiles, b: Profiles) -> Iterator[tuple[int, int]]:
    """The positions ``(i, j)`` of each card both years hold, in card order: a merge of the sorted card lists."""
    cards = b.cards
    j, n = 0, len(cards)
    for i, card in enumerate(a.cards):
        while j < n and cards[j] < card:
            j += 1
        if j == n:
            return
        if cards[j] == card:
            yield i, j


def profile_row(
    student: bool,
    rides: array,
    place_of: Sequence[int | None],
    weekdays: frozenset[int],
    distance_km: Callable[[int, int], float],
    stay_mode: str,
    home_rule: str,
    stay_min: int,
    stays: list[Stay] | None = None,
) -> tuple[int, int, float, int, int]:
    """One card's values in its year's :class:`Profiles` columns: home, work, commute km, commute minutes, rides.

    The one rule walk.  A home, work place or commute time the rules
    find none of is -1, and a commute distance NaN.  ``rides`` is the
    card's int array of coded ride fields, as
    :func:`cardcohort.ingest.read_transactions` keeps them, and
    ``place_of[code]`` the place of each stop code, None for code 0 (no
    alighting), as the registry's place index holds it.
    ``distance_km(home, work)`` answers the commute distance between two
    place ids, so a caller can cache it across cards.  The modes are
    taken as checked, as ``RunConfig.validate`` checks them; ``stays``,
    when given, receives the card's stays in order.  Rides sort as
    tuples, boarding minute first and the remaining fields as
    tie-breakers, so the values are a pure function of the ride set, not
    of file order.
    """
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
    home = work = minutes = -1
    km = math.nan
    if not student:
        # Ties go to more minutes, then to the smaller place id.
        works = [(-a[4], -a[5], p) for p, a in acc.items() if a[4]]
        if works:
            work = min(works)[2]
        if work >= 0 or home_rule == HOME_RULE_RELAXED:
            f_j = acc[work][2] if work >= 0 else 0
            homes = [(-a[0], -a[1], p) for p, a in acc.items() if a[0] and a[3] and p != work and a[0] >= f_j]
            if homes:
                home = min(homes)[2]
    if home >= 0 and work >= 0:
        km = distance_km(home, work)
        minutes = _commute_minutes(rides, place_of, weekdays, home, work)
    return home, work, km, minutes, len(rides)


def _commute_minutes(
    rides: list[Ride], place_of: Sequence[int | None], weekdays: frozenset[int], home: int, work: int
) -> int:
    """Median in-vehicle minutes of each weekday's home-to-work chain, -1 for none.

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
    return median_minutes(day_minutes) if day_minutes else -1


def median_minutes(values: list[int]) -> int:
    """The median of ``values`` as an int, truncated.

    That is the middle value, or for an even count the mean of the two
    middle ones, taken as the float ``(a + b) / 2`` and truncated, as
    ``int(statistics.median(values))`` gives it.
    """
    values = sorted(values)
    half = len(values) // 2
    return values[half] if len(values) % 2 else int((values[half - 1] + values[half]) / 2)
