"""The one-pass profile kernel: parity with the staged reference, and its edges."""

from __future__ import annotations

import dataclasses
import random
from datetime import date
from functools import cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardcohort.geo import haversine_km
from cardcohort.infer import (
    HOME_RULE_PAPER, HOME_RULE_RELAXED, PERMISSIVE, STAY_MIN_DEFAULT, STRICT, median_minutes, profile_row,
)
from cardcohort.ingest import (
    CARD_REGULAR,
    CARD_STUDENT,
    TRANSACTIONS_HEADER,
    WEEK_MINUTES,
    ObservationWeek,
    parse_minute,
    read_transactions,
    stop_codes,
)

import reference_profile as ref
from coded_rides import card_rides, decode, drop_route, encode, one_route, places_of
from conftest import as_profile

WEEKDAYS = frozenset(range(5))
MONDAY = date(2008, 4, 7)
# Two stops share place 0, so a transfer between them is no off-grid move.
# S9 and S10 sort one way as text and the other way by their numbers.
STOP_TO_PLACE = {"H": 0, "H2": 0, "W": 1, "X": 2, "Y": 3, "S9": 4, "S10": 5}
CENTROIDS = {
    0: (116.30, 39.90), 1: (116.30, 39.99532809022739), 2: (116.35, 39.95), 3: (116.40, 39.92),
    4: (116.45, 39.90), 5: (116.45, 39.95),
}


def centroid_of(place: int):
    return CENTROIDS[place]


def centroid_km(home: int, work: int) -> float:
    return haversine_km(CENTROIDS[home], CENTROIDS[work])


def t(day: int, hh: int, mm: int = 0) -> int:
    """Minutes from the week start; day 0 is a Monday."""
    return day * 1440 + hh * 60 + mm


def ride(board_stop: str, board: int, alight_stop: str | None = None, alight: int | None = None, route="B1"):
    """A parsed ride; a fixed-fare ride (no alighting) carries its boarding minute twice."""
    if alight_stop is None:
        return (board, route, board_stop, "", board)
    return (board, route, board_stop, alight_stop, alight)


def coded_profile(card_type, rides, place_of, distance_km, stay_mode=PERMISSIVE, home_rule=HOME_RULE_RELAXED,
                  stay_min=STAY_MIN_DEFAULT, stays=None):
    """The profile of one card's coded rides, as the one rule walk gives it."""
    values = profile_row(
        card_type == CARD_STUDENT, rides, place_of, WEEKDAYS, distance_km, stay_mode, home_rule, stay_min, stays
    )
    return as_profile(values)


def profile(rides, card_type=CARD_REGULAR, stays=None, distance_km=centroid_km, **kw):
    return coded_profile(card_type, *encode(rides, STOP_TO_PLACE), distance_km, stays=stays, **kw)


def stay_tuples(stays):
    return [
        (s.place_id, s.arrive_time, s.depart_time, s.duration_min, s.approximate, s.first_of_day)
        for s in stays
    ]


# Same-minute rides whose order is decided by their stops, in the order
# of the stop ids ("S10" < "S9" as text, not by number), and never by
# their routes.  The last of each tie names where the card alighted, so
# the order decides the day's opener and which stays form.
SAME_MINUTE = [
    # Monday: two taps; the opener is at S10.
    ride("S9", t(0, 7, 30)),
    ride("S10", t(0, 7, 30)),
    # Tuesday: two rides from H on routes that sort the other way
    # ("B10" < "B9"); "S9" < "W", so the ride to W is last.
    ride("H", t(1, 7, 30), "S9", t(1, 8), route="B9"),
    ride("H", t(1, 7, 30), "W", t(1, 8), route="B10"),
    ride("W", t(1, 8, 30), "H", t(1, 9)),
    # Wednesday: two rides from H differing in the alighting; S9 is last.
    ride("H", t(2, 7, 30), "S9", t(2, 8)),
    ride("H", t(2, 7, 30), "S10", t(2, 8)),
    ride("S9", t(2, 15), "H", t(2, 15, 30)),
]


# -- parity with the staged reference ---------------------------------------

STOPS = sorted(STOP_TO_PLACE)
# Gaps that land stays on the threshold, short hops, overlaps and overnights.
GAPS = st.one_of(
    st.sampled_from([359, 360, 361]),
    st.integers(-40, 0),
    st.integers(1, 120),
    st.integers(121, 1500),
)


@st.composite
def random_rides(draw):
    """A card's rides as a sequence of boardings at random stops."""
    rides = []
    cursor = draw(st.integers(0, 3 * 1440))
    for _ in range(draw(st.integers(0, 16))):
        board_stop = draw(st.sampled_from(STOPS))
        route = draw(st.sampled_from(["B1", "B2"]))
        if draw(st.booleans()):
            alight = cursor + draw(st.integers(0, 120))
            rides.append(ride(board_stop, cursor, draw(st.sampled_from(STOPS)), alight, route))
            cursor = alight
        else:
            rides.append(ride(board_stop, cursor, route=route))
        cursor += draw(GAPS)
        if cursor < 0 or cursor >= WEEK_MINUTES:
            break
    return rides


@st.composite
def commuter_rides(draw):
    """Home-work-home days drawn from a few values, so that homes, works,
    commute chains and exact ties all occur.  Days may use a fixed fare,
    transfer on the way out, break for lunch at work, skip or return
    past midnight."""
    rides = []
    for day in range(7):
        if not draw(st.booleans()):
            continue
        start = t(day, draw(st.sampled_from([7, 8])))
        home = draw(st.sampled_from(["H", "H2", "X", "Y"]))
        work = draw(st.sampled_from(["W", "W", "X", "Y"]))
        out_min = draw(st.sampled_from([20, 40]))
        kind = draw(st.sampled_from(["direct", "fixed", "transfer"]))
        if kind == "transfer":
            # A chain only when the second ride boards where the first alighted.
            mid = start + out_min // 2
            rides.append(ride(home, start, "X", mid))
            rides.append(ride(draw(st.sampled_from(["X", "Y"])), mid + 5, work, start + out_min))
        elif kind == "fixed":
            rides.append(ride(home, start))
        else:
            rides.append(ride(home, start, work, start + out_min))
        at = start + out_min
        if draw(st.booleans()):
            # Lunch away from work: two stays at work on one day.
            at += draw(st.sampled_from([120, 360]))
            rides.append(ride(work, at, "X", at + 10))
            rides.append(ride("X", at + 20, work, at + 30))
            at += 30
        back = at + draw(st.sampled_from([120, 359, 360, 361, 600]))
        if draw(st.integers(0, 3)) == 0:
            rides.append(ride(work, back))
        else:
            home_again = draw(st.sampled_from(["H", "H2"]))
            rides.append(ride(work, back, home_again, back + draw(st.sampled_from([20, 40, 400]))))
    return rides


@settings(max_examples=600, deadline=None)
@example(list(SAME_MINUTE), random.Random(0), CARD_REGULAR, PERMISSIVE, HOME_RULE_RELAXED, 360)
@given(
    st.one_of(random_rides(), commuter_rides()),
    st.randoms(use_true_random=False),
    st.sampled_from([CARD_REGULAR, CARD_REGULAR, CARD_STUDENT]),
    st.sampled_from([STRICT, PERMISSIVE]),
    st.sampled_from([HOME_RULE_RELAXED, HOME_RULE_PAPER]),
    st.sampled_from([359, 360, 361]),
)
def test_kernel_matches_staged_reference(rides, rnd, card_type, mode, home_rule, stay_min):
    rnd.shuffle(rides)
    legs = ref.build_legs(one_route(rides), STOP_TO_PLACE)
    expected_stays = ref.build_stays("C", legs, mode)
    expected = ref.build_profile(
        "C", "2008", card_type, legs, expected_stays, WEEKDAYS, centroid_of,
        rides=len(rides), home_rule=home_rule, stay_min=stay_min,
    )
    kept = []
    got = profile(rides, card_type, stays=kept, stay_mode=mode, home_rule=home_rule, stay_min=stay_min)
    assert got == expected
    assert stay_tuples(kept) == stay_tuples(expected_stays)
    # Keeping the stays does not change the profile.
    assert profile(rides, card_type, stay_mode=mode, home_rule=home_rule, stay_min=stay_min) == got


# Route ids that sort differently as text ("B10" < "B9") and by number.
ROUTES = ("B9", "B10", "A7", "B1")
WEEK = ObservationWeek(MONDAY)
# Minutes from MONDAY to the last minute of the calendar, past 2**31 - 1.
LAST_MINUTE = parse_minute("9999-12-31T23:59") - WEEK.start_minute


def as_line(card: str, ride) -> str:
    """A text ride as the transactions line that holds it."""
    board, route, board_stop, alight_stop, alight = ride
    fare, a_time = ("DST", WEEK.format(alight)) if alight_stop else ("FIX", "")
    return f"{card},R,{fare},{route},{board_stop},{WEEK.format(board)},{alight_stop},{a_time}"


@st.composite
def read_cards(draw):
    """Cards' text rides: routes redrawn, same-minute rides on other routes, exact copies, late alightings."""
    cards = {}
    for card in draw(st.lists(st.sampled_from(["C1", "C2", "C3"]), min_size=1, max_size=3, unique=True)):
        rides = draw(st.one_of(random_rides(), commuter_rides(), st.just(list(SAME_MINUTE))))
        # A line read against the week must board inside it.
        rides = [(b, draw(st.sampled_from(ROUTES)), bs, a_s, a) for b, _route, bs, a_s, a in rides if b < WEEK_MINUTES]
        for b, route, bs, a_s, a in draw(st.lists(st.sampled_from(rides), max_size=3)) if rides else []:
            # The same boarding minute on another route, to another stop.
            other = draw(st.sampled_from([r for r in ROUTES if r != route]))
            rides.append((b, other, bs, draw(st.sampled_from(STOPS)), max(a, b)))
        if rides:
            rides += draw(st.lists(st.sampled_from(rides), max_size=3))
        if draw(st.integers(0, 3)) == 0:
            board = t(draw(st.sampled_from([2, 4, 6])), 23, 50)
            rides.append((board, draw(st.sampled_from(ROUTES)), "W", "H", LAST_MINUTE))
        cards[card] = rides
    return cards


# A registry that names more ids than the rides do: "A" and "S1" sort
# before ids the rides name, so every one of those gets another code.
WIDER = {**STOP_TO_PLACE, "A": 6, "S1": 6}
# One whose 65,536 extra ids sort before all of theirs, so each stop the
# rides name has a code past 16 bits.
PADDED = {**dict.fromkeys((f"{k:05d}" for k in range(2**16)), 6), **STOP_TO_PLACE}
REGISTRIES = st.sampled_from([STOP_TO_PLACE, WIDER, PADDED])


@settings(max_examples=400, deadline=None)
@example({"C1": list(SAME_MINUTE)}, STOP_TO_PLACE, random.Random(0), PERMISSIVE)
@example({"C1": list(SAME_MINUTE)}, PADDED, random.Random(0), STRICT)
@given(read_cards(), REGISTRIES, st.randoms(use_true_random=False), st.sampled_from([STRICT, PERMISSIVE]))
def test_a_read_profiles_as_its_text_rides(cards, registry, rnd, mode):
    text_lines = [as_line(card, ride) for card, rides in cards.items() for ride in rides]
    rnd.shuffle(text_lines)
    codes = stop_codes(registry)
    tx = read_transactions([TRANSACTIONS_HEADER, *text_lines], MONDAY, codes)
    assert (tx.rejections, tx.parsed) == ([], len(text_lines))
    late = any(ride[4] == LAST_MINUTE for rides in cards.values() for ride in rides)
    assert {rides.typecode for rides in tx.rides.values()} <= {"q" if late else "i" if registry is PADDED else "H"}
    place_of = places_of(codes, registry)
    assert sorted(tx.rides) == sorted(card for card, rides in cards.items() if rides)
    for card, rides in card_rides(tx, codes).items():
        assert sorted(rides) == sorted(map(drop_route, cards[card]))
        legs = ref.build_legs(one_route(cards[card]), STOP_TO_PLACE)
        expected_stays = ref.build_stays(card, legs, mode)
        expected = ref.build_profile(
            card, "2008", CARD_REGULAR, legs, expected_stays, WEEKDAYS, centroid_of, rides=len(rides)
        )
        kept = []
        got = coded_profile(CARD_REGULAR, tx.rides[card], place_of, centroid_km, mode, stays=kept)
        assert got == expected
        assert stay_tuples(kept) == stay_tuples(expected_stays)


def read_profiles(cards, registry, mode):
    """Each card's profile and stays, from its text rides written as lines and read against ``registry``."""
    text_lines = [as_line(card, ride) for card, rides in cards.items() for ride in rides]
    codes = stop_codes(registry)
    tx = read_transactions([TRANSACTIONS_HEADER, *text_lines], MONDAY, codes)
    place_of = places_of(codes, registry)
    profiles = {}
    for card, rides in tx.rides.items():
        kept = []
        got = coded_profile(CARD_REGULAR, rides, place_of, centroid_km, mode, stays=kept)
        profiles[card] = got, stay_tuples(kept)
    return profiles


@settings(max_examples=200, deadline=None)
@given(read_cards(), st.data(), REGISTRIES, st.sampled_from([STRICT, PERMISSIVE]))
def test_redrawn_routes_leave_every_profile_and_stay(cards, data, registry, mode):
    redrawn = {
        card: [(b, data.draw(st.sampled_from(ROUTES)), bs, a_s, a) for b, _route, bs, a_s, a in rides]
        for card, rides in cards.items()
    }
    assert read_profiles(redrawn, registry, mode) == read_profiles(cards, registry, mode)


def test_codes_keep_the_text_order_of_stop_ids():
    assert stop_codes(STOP_TO_PLACE)["S10"] < stop_codes(STOP_TO_PLACE)["S9"]
    for mode in (PERMISSIVE, STRICT):
        legs = ref.build_legs(one_route(SAME_MINUTE), STOP_TO_PLACE)
        expected_stays = ref.build_stays("C", legs, mode)
        expected = ref.build_profile("C", "2008", CARD_REGULAR, legs, expected_stays, WEEKDAYS, centroid_of,
                                     rides=len(SAME_MINUTE))
        for rides in (SAME_MINUTE, SAME_MINUTE[::-1]):
            kept = []
            assert profile(rides, stays=kept, stay_mode=mode) == expected
            assert stay_tuples(kept) == stay_tuples(expected_stays)
        openers = [s.place_id for s in kept if s.first_of_day]
        exact = [(s.place_id, s.duration_min) for s in kept if not s.first_of_day and not s.approximate]
        # Monday opens at S10; the card alighted at W on Tuesday and at S9 on Wednesday.
        assert openers[0] == STOP_TO_PLACE["S10"]
        assert exact == [(STOP_TO_PLACE["W"], 30), (STOP_TO_PLACE["S9"], 420)]


# -- the edges, on the kernel itself -----------------------------------------


def commuter(days=range(5), dwell=590, home="H", work="W", out=40):
    """Out to work at 07:30 and back home after ``dwell`` minutes there."""
    rides = []
    for d in days:
        b = t(d, 7, 30)
        rides.append(ride(home, b, work, b + out))
        rides.append(ride(work, b + out + dwell, home, b + out + dwell + out))
    return rides


class TestChaining:
    def test_exact_stay_and_opener(self):
        kept = []
        profile([ride("H", t(0, 7, 30), "W", t(0, 8, 10)), ride("W", t(0, 18), "H", t(0, 18, 40))], stays=kept)
        assert stay_tuples(kept) == [
            (0, None, t(0, 7, 30), 0, False, True),
            (1, t(0, 8, 10), t(0, 18), 590, False, False),
        ]

    def test_fixed_fare_gap_permissive_vs_strict(self):
        rides = [ride("H", t(0, 7, 30)), ride("W", t(0, 18))]
        permissive, strict = [], []
        profile(rides, stays=permissive, stay_mode=PERMISSIVE)
        profile(rides, stays=strict, stay_mode=STRICT)
        assert stay_tuples(permissive)[1] == (1, None, t(0, 18), 630, True, False)
        assert stay_tuples(strict) == [(0, None, t(0, 7, 30), 0, False, True)]

    def test_off_grid_and_overlap_form_no_stay(self):
        off_grid = [ride("H", t(0, 7, 30), "X", t(0, 8, 10)), ride("W", t(0, 18), "H", t(0, 18, 40))]
        overlap = [ride("H", t(0, 7, 30), "W", t(0, 9)), ride("W", t(0, 8), "H", t(0, 8, 40))]
        for rides in (off_grid, overlap):
            kept = []
            profile(rides, stays=kept)
            assert stay_tuples(kept) == [(0, None, t(0, 7, 30), 0, False, True)]

    def test_same_place_transfer_between_stops_is_exact(self):
        kept = []
        profile([ride("X", t(0, 7), "H", t(0, 7, 30)), ride("H2", t(0, 8), "W", t(0, 8, 30))], stays=kept)
        assert stay_tuples(kept)[1] == (0, t(0, 7, 30), t(0, 8), 30, False, False)

    def test_overnight_stay_is_the_days_opener(self):
        kept = []
        profile(commuter(days=(0, 1)), stays=kept)
        openers = [s for s in kept if s.first_of_day]
        assert [(s.depart_time // 1440, s.duration_min) for s in openers] == [(0, 0), (1, 770)]

    def test_order_is_independent_of_input_order(self):
        rides = commuter()
        assert profile(rides) == profile(rides[::-1])


class TestWork:
    def test_360_qualifies_and_359_does_not(self):
        assert profile(commuter(dwell=360)).work == 1
        assert profile(commuter(dwell=359)).work is None
        assert profile(commuter(dwell=200), stay_min=200).work == 1

    def test_first_of_day_stays_never_count(self):
        # A night shift: the 18-hour stay at W is the opener of the next day.
        rides = []
        for d in range(4):
            rides.append(ride("H", t(d, 14), "W", t(d, 14, 30)))
            rides.append(ride("W", t(d + 1, 8, 30), "H", t(d + 1, 9)))
        assert profile(rides).work is None

    def test_weekend_stays_never_count(self):
        assert profile(commuter(days=(5, 6))).work is None

    def test_same_day_repeats_count_once(self):
        # Two qualifying stays at W on Monday (360 + 420 minutes) are one
        # day: they lose to Y's two days of 360 minutes, whatever the minutes.
        monday = [ride("H", t(0, 5), "W", t(0, 5, 30)), ride("W", t(0, 11, 30), "X", t(0, 11, 40))]
        monday += [ride("X", t(0, 11, 50), "W", t(0, 12)), ride("W", t(0, 19), "H", t(0, 19, 30))]
        assert profile(monday + commuter(days=(1, 2), dwell=360, work="Y")).work == 3
        assert profile(monday + commuter(days=(1,), dwell=700, work="Y")).work == 1

    def test_most_distinct_weekdays_then_minutes_then_id(self):
        rides = commuter(days=(0, 1, 2), dwell=400) + commuter(days=(3, 4), dwell=700, work="Y")
        assert profile(rides).work == 1
        rides = commuter(days=(0, 1), dwell=400) + commuter(days=(2, 3), dwell=500, work="Y")
        assert profile(rides).work == 3
        rides = commuter(days=(0, 1), dwell=400, work="Y") + commuter(days=(2, 3), dwell=400)
        assert profile(rides).work == 1


class TestHome:
    def test_commuter(self):
        p = profile(commuter())
        assert (p.home, p.work) == (0, 1)

    def test_students_have_neither_place_but_keep_stays(self):
        kept = []
        p = profile(commuter(), CARD_STUDENT, stays=kept)
        assert (p.home, p.work, p.commute_km, p.commute_min) == (None, None, None, None)
        assert p.rides == 10
        assert len(kept) == 10

    def test_f_h_must_reach_f_j(self):
        # Home originates two weekdays; the work place holds five weekday
        # stays, so F_h = 2 < F_j = 5 and no home is named.
        rides = commuter(days=(0, 1)) + [ride("X", t(d, 7, 30), "W", t(d, 8, 10)) for d in (2, 3, 4)]
        rides += [ride("W", t(d, 18), "X", t(d, 18, 40)) for d in (2, 3, 4)]
        assert profile(rides).home is None
        assert profile(commuter(days=(0, 1))).home == 0

    def test_requires_a_long_stay_at_home(self):
        # Every day ends at X, so no stay at H is longer than zero.
        rides = [ride("H", t(d, 7, 30), "W", t(d, 8)) for d in range(5)]
        rides += [ride("W", t(d, 9), "X", t(d, 9, 30)) for d in range(5)]
        assert profile(rides).home is None

    def test_most_first_days_then_minutes_then_id(self):
        # A jobless card out to X each morning and home by ``back``: the
        # night at home is the next day's opener and its long stay.
        def days(home, ds, back=9):
            rides = []
            for d in ds:
                rides.append(ride(home, t(d, 7), "X", t(d, 7, 30)))
                rides.append(ride("X", t(d, back), home, t(d, back, 30)))
            return rides

        assert profile(days("H", (0, 1, 2)) + days("Y", (3, 4))).home == 0
        assert profile(days("H", (0, 1)) + days("Y", (2, 3), back=8)).home == 3
        assert profile(days("Y", (0, 1)) + days("H", (2, 3))).home == 0

    def test_jobless_relaxed_vs_paper(self):
        rides = commuter(dwell=120)
        assert profile(rides).work is None
        assert profile(rides, home_rule=HOME_RULE_RELAXED).home == 0
        assert profile(rides, home_rule=HOME_RULE_PAPER).home is None
        assert profile(commuter(), home_rule=HOME_RULE_PAPER).home == 0


class TestCommute:
    def test_distance_and_median_time(self):
        rides = commuter(days=(0,), out=30) + commuter(days=(1,), out=50) + commuter(days=(2,), out=40)
        p = profile(rides)
        assert p.commute_km == haversine_km(CENTROIDS[0], CENTROIDS[1])
        assert p.commute_min == 40

    def test_two_days_take_their_mean_truncated(self):
        rides = commuter(days=(0,), out=30) + commuter(days=(1,), out=31)
        assert profile(rides).commute_min == 30

    def test_four_days_take_the_mean_of_the_middle_two(self):
        rides = [*commuter(days=(0,), out=50), *commuter(days=(1,), out=20), *commuter(days=(2,), out=45),
                 *commuter(days=(3,), out=38)]
        # Sorted 20, 38, 45, 50: the middle two give 41.5.
        assert profile(rides).commute_min == 41

    def test_distance_comes_from_the_per_year_cache(self):
        assert profile(commuter(), distance_km=lambda home, work: 99.0).commute_km == 99.0
        computed = []

        @cache
        def distance_km(home, work):
            computed.append((home, work))
            return haversine_km(CENTROIDS[home], CENTROIDS[work])

        for _ in range(3):
            assert profile(commuter(), distance_km=distance_km).commute_km == haversine_km(CENTROIDS[0], CENTROIDS[1])
        assert computed == [(0, 1)]
        assert distance_km.cache_info().currsize == 1

    def test_transfer_chain_sums_in_vehicle_time(self):
        rides = []
        for d in range(5):
            b = t(d, 7, 30)
            rides.append(ride("H", b, "X", b + 20))
            rides.append(ride("X", b + 30, "W", b + 40))
            rides.append(ride("W", b + 600, "H", b + 640))
        p = profile(rides)
        assert (p.home, p.work, p.commute_min) == (0, 1, 30)

    def test_chain_broken_by_missing_alighting(self):
        rides = commuter(days=(0, 1))
        rides[0] = ride("H", t(0, 7, 30))
        rides[2] = ride("H", t(1, 7, 30))
        p = profile(rides)
        assert (p.home, p.work) == (0, 1)
        assert p.commute_km is not None
        assert p.commute_min is None

    def test_chain_broken_by_off_grid_transfer(self):
        rides = commuter(days=(0, 1))
        for i, d in ((0, 0), (2, 1)):
            rides[i] = ride("H", t(d, 7, 30), "X", t(d, 7, 50))
            rides.append(ride("Y", t(d, 8), "W", t(d, 8, 10)))
        p = profile(rides)
        assert (p.home, p.work) == (0, 1)
        assert p.commute_min is None

    def test_weekend_rides_do_not_count(self):
        rides = commuter(days=(0, 1)) + commuter(days=(5,), out=10)
        rides[0] = ride("H", t(0, 7, 30))
        rides[2] = ride("H", t(1, 7, 30))
        p = profile(rides)
        assert (p.home, p.work, p.commute_min) == (0, 1, None)


@given(st.lists(st.integers(-(2**40), 2**40) | st.integers(2**31 - 3, 2**31 + 3), min_size=1, max_size=9))
def test_median_minutes_is_the_truncated_statistics_median(values):
    import statistics

    assert median_minutes(values) == int(statistics.median(values))


class TestInputRules:
    """The README's input rules for duplicate rows and late alightings."""

    def test_duplicate_rows_are_all_kept(self):
        line = "C,R,DST,B1,H,2008-04-07T07:30,W,2008-04-07T08:10"
        codes = stop_codes(STOP_TO_PLACE)
        tx = read_transactions([TRANSACTIONS_HEADER, line, line], MONDAY, codes)
        assert decode(tx, "C", codes) == [(t(0, 7, 30), "H", "W", t(0, 8, 10))] * 2
        assert tx.rejections == []

        # A copied distance-fare ride boards before the original alighted,
        # so no stay forms between them: only the ride count changes.
        rides = commuter()
        once, twice = [], []
        p = profile(rides, stays=once)
        doubled = profile(rides + rides, stays=twice)
        assert stay_tuples(twice) == stay_tuples(once)
        assert doubled.rides == 2 * p.rides
        assert dataclasses.replace(doubled, rides=p.rides) == p
        # But a copied first leg of a transfer chain does not board where
        # the original alighted, so it breaks that day's commute chain.
        chain = []
        for d in range(5):
            chain.append(ride("H", t(d, 7, 30), "X", t(d, 7, 50)))
            chain.append(ride("X", t(d, 8), "W", t(d, 8, 10)))
            chain.append(ride("W", t(d, 18), "H", t(d, 18, 40)))
        assert profile(chain).commute_min == 30
        p = profile(chain + chain[::3])
        assert (p.home, p.work, p.commute_min) == (0, 1, None)

        # A copied fixed-fare tap forms a 0-minute approximate stay at its
        # place in permissive mode, and that stay counts toward F_j.
        # Copies at work on four of five days make F_j = 9 > F_h = 5.
        taps = [r for d in range(5) for r in (ride("H", t(d, 7, 30)), ride("W", t(d, 18)))]
        copies = [ride("W", t(d, 18)) for d in range(4)]
        p = profile(taps)
        assert (p.home, p.work) == (0, 1)
        kept = []
        p = profile(taps + copies, stays=kept)
        assert (1, None, t(0, 18), 0, True, False) in stay_tuples(kept)
        assert (p.home, p.work) == (None, 1)

    def test_late_alightings(self):
        # Back from work after midnight: the ride belongs to its boarding
        # day, and the night at home, from the alighting on, opens the next.
        rides = []
        for d in range(5):
            rides.append(ride("H", t(d, 7, 30), "W", t(d, 8, 10)))
            rides.append(ride("W", t(d, 23, 30), "H", t(d + 1, 0, 10)))
        kept = []
        p = profile(rides, stays=kept)
        assert (p.home, p.work, p.commute_min) == (0, 1, 40)
        assert (0, t(1, 0, 10), t(1, 7, 30), 440, False, True) in stay_tuples(kept)

        # A ride boarding inside the week may alight after it ends: the row
        # is kept with its alighting past the week, and no stay follows it.
        line = "C,R,DST,B1,W,2008-04-13T23:50,H,2008-04-14T00:20"
        codes = stop_codes(STOP_TO_PLACE)
        tx = read_transactions([TRANSACTIONS_HEADER, line], MONDAY, codes)
        assert tx.rejections == []
        (last,) = decode(tx, "C", codes)
        assert last == (t(6, 23, 50), "W", "H", WEEK_MINUTES + 20)
        before, after = [], []
        p = profile(commuter(), stays=before)
        with_last = profile(commuter() + [last], stays=after)
        assert dataclasses.replace(with_last, rides=p.rides) == p
        # Its boarding opens Sunday; the alighting starts nothing.
        assert stay_tuples(after) == stay_tuples(before) + [(1, None, t(6, 23, 50), 0, False, True)]
