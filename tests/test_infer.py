"""Weekly home/work/commute rules."""

from __future__ import annotations

import copy
import pickle
import tracemalloc
from datetime import date
from statistics import median

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardcohort.geo import haversine_km
from cardcohort.ingest import CARD_REGULAR, CARD_STUDENT, ObservationWeek

from conftest import YearProfile, card_profiles, profile_columns
from reference_profile import (
    HOME_RULE_PAPER,
    HOME_RULE_RELAXED,
    Leg,
    Stay,
    build_profile,
    commute_metrics,
    identify_home,
    identify_work,
)

WEEK = ObservationWeek(date(2008, 4, 7))
WEEKDAYS = WEEK.weekdays


def t(day: int, hh: int, mm: int = 0) -> int:
    """Minutes from the start of WEEK (Monday 7 April 2008)."""
    return (day - 7) * 1440 + hh * 60 + mm


def stay(place: int, day: int, dur: int, first: bool = False, hour: int = 20) -> Stay:
    depart = t(day, hour)
    return Stay("C", place, depart - dur, depart, dur, False, first)


def opener(place: int, day: int) -> Stay:
    return Stay("C", place, None, t(day, 7, 30), 0, False, True)


class TestIdentifyWork:
    def test_six_hour_stay_qualifies_exactly(self):
        assert identify_work([stay(5, 7, 360)], CARD_REGULAR, WEEKDAYS) == 5
        assert identify_work([stay(5, 7, 359)], CARD_REGULAR, WEEKDAYS) is None

    def test_first_of_day_stays_never_count(self):
        assert identify_work([stay(5, 7, 700, first=True)], CARD_REGULAR, WEEKDAYS) is None

    def test_weekend_stays_never_count(self):
        assert identify_work([stay(5, 12, 700)], CARD_REGULAR, WEEKDAYS) is None

    def test_students_have_no_work_place(self):
        assert identify_work([stay(5, 7, 700)], CARD_STUDENT, WEEKDAYS) is None

    def test_most_distinct_weekdays_wins(self):
        stays = [stay(1, 7, 400), stay(1, 8, 400), stay(1, 9, 400), stay(2, 7, 1000), stay(2, 8, 1000)]
        assert identify_work(stays, CARD_REGULAR, WEEKDAYS) == 1

    def test_same_day_repeats_count_once_for_days(self):
        stays = [stay(1, 7, 360, hour=12), stay(1, 7, 360, hour=20), stay(2, 8, 700)]
        # Both places cover one weekday; place 1 has more qualifying time.
        assert identify_work(stays, CARD_REGULAR, WEEKDAYS) == 1

    def test_day_tie_broken_by_qualifying_duration(self):
        stays = [stay(1, 7, 400), stay(1, 8, 400), stay(2, 9, 500), stay(2, 10, 500)]
        assert identify_work(stays, CARD_REGULAR, WEEKDAYS) == 2

    def test_full_tie_broken_by_smaller_place_id(self):
        stays = [stay(7, 7, 400), stay(7, 8, 400), stay(3, 9, 400), stay(3, 10, 400)]
        assert identify_work(stays, CARD_REGULAR, WEEKDAYS) == 3

    def test_custom_threshold(self):
        assert identify_work([stay(5, 7, 200)], CARD_REGULAR, WEEKDAYS, stay_min=200) == 5


class TestIdentifyHome:
    def _commuter_stays(self, home: int = 0, work: int = 1) -> list[Stay]:
        stays = [opener(home, 7)]
        for day in (8, 9, 10, 11):
            stays.append(stay(home, day, 770, first=True, hour=7))
        for day in (7, 8, 9, 10, 11):
            stays.append(stay(work, day, 590, hour=18))
        return stays

    def test_recovers_home_for_a_commuter(self):
        stays = self._commuter_stays()
        assert identify_home(stays, 1, CARD_REGULAR, WEEKDAYS) == 0

    def test_requires_a_long_stay(self):
        stays = [opener(0, d) for d in (7, 8, 9, 10, 11)]
        assert identify_home(stays, None, CARD_REGULAR, WEEKDAYS) is None

    def test_requires_originating_a_day(self):
        # Long evening stays at place 0, but every day starts elsewhere.
        stays = [opener(9, d) for d in (7, 8)] + [stay(0, d, 500, hour=23) for d in (7, 8)]
        assert identify_home(stays, None, CARD_REGULAR, WEEKDAYS) is None

    def test_work_place_is_excluded(self):
        stays = self._commuter_stays(home=0, work=1)
        # Declaring the dominant origin itself as work leaves place 1
        # with no first boardings, so nothing else qualifies.
        assert identify_home(stays, 0, CARD_REGULAR, WEEKDAYS) is None

    def test_weak_origin_loses_to_work_frequency(self):
        # Home originates two weekdays; work holds stays on five, so
        # F_h = 2 < F_j = 5 and the candidate is refused.
        stays = [opener(0, 7), stay(0, 8, 770, first=True, hour=7)]
        stays += [stay(1, d, 590, hour=18) for d in (7, 8, 9, 10, 11)]
        assert identify_home(stays, 1, CARD_REGULAR, WEEKDAYS) is None

    def test_origin_matching_work_frequency_passes(self):
        stays = [opener(0, 7), stay(0, 8, 770, first=True, hour=7)]
        stays += [stay(1, d, 590, hour=18) for d in (7, 8)]
        assert identify_home(stays, 1, CARD_REGULAR, WEEKDAYS) == 0

    def test_jobless_card_relaxed_vs_strict(self):
        stays = [opener(0, 7), stay(0, 8, 770, first=True, hour=7)]
        assert identify_home(stays, None, CARD_REGULAR, WEEKDAYS, HOME_RULE_RELAXED) == 0
        assert identify_home(stays, None, CARD_REGULAR, WEEKDAYS, HOME_RULE_PAPER) is None

    def test_strict_rule_works_when_work_exists(self):
        stays = self._commuter_stays()
        assert identify_home(stays, 1, CARD_REGULAR, WEEKDAYS, HOME_RULE_PAPER) == 0

    def test_students_have_no_home_place(self):
        stays = self._commuter_stays()
        assert identify_home(stays, 1, CARD_STUDENT, WEEKDAYS) is None

    def test_most_first_days_wins(self):
        stays = [opener(0, 7), stay(0, 8, 770, first=True, hour=7), stay(0, 9, 770, first=True, hour=7)]
        stays += [stay(2, 10, 770, first=True, hour=7), stay(2, 11, 770, first=True, hour=7)]
        assert identify_home(stays, None, CARD_REGULAR, WEEKDAYS) == 0

    def test_first_day_tie_broken_by_total_duration(self):
        stays = [stay(0, 7, 770, first=True, hour=7), stay(2, 8, 770, first=True, hour=7)]
        stays.append(stay(2, 9, 100, hour=12))
        assert identify_home(stays, None, CARD_REGULAR, WEEKDAYS) == 2

    def test_full_tie_broken_by_smaller_place_id(self):
        stays = [stay(4, 7, 770, first=True, hour=7), stay(2, 8, 770, first=True, hour=7)]
        assert identify_home(stays, None, CARD_REGULAR, WEEKDAYS) == 2

    def test_weekend_evidence_ignored(self):
        stays = [stay(0, 12, 770, first=True, hour=7), stay(0, 13, 770, first=True, hour=7)]
        assert identify_home(stays, None, CARD_REGULAR, WEEKDAYS) is None

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            identify_home([], None, CARD_REGULAR, WEEKDAYS, home_rule="loose")


# Centroids placed so home-to-work is 10.6 km: the latitude offset is
# solved from the inverse of the great-circle formula along a meridian.
COMMUTE_CENTROIDS = {
    0: (116.30, 39.90),
    1: (116.30, 39.99532809022739),
    2: (116.35, 39.95),
}


def centroid_of(place: int):
    return COMMUTE_CENTROIDS[place]


def leg(board: int, alight, day: int, bh: int, bm: int, dur=None) -> Leg:
    b = t(day, bh, bm)
    a = b + dur if dur is not None else None
    return Leg(board, alight, b, a, "B1")


class TestCommuteMetrics:
    def test_frozen_distance_fixture(self):
        km, _ = commute_metrics([], 0, 1, WEEKDAYS, centroid_of)
        assert km == pytest.approx(10.6, abs=1e-9)
        assert km == pytest.approx(
            haversine_km(COMMUTE_CENTROIDS[0], COMMUTE_CENTROIDS[1]), abs=0
        )

    def test_missing_place_yields_nothing(self):
        assert commute_metrics([], None, 1, WEEKDAYS, centroid_of) == (None, None)
        assert commute_metrics([], 0, None, WEEKDAYS, centroid_of) == (None, None)

    def test_median_of_direct_rides(self):
        legs = [
            leg(0, 1, 7, 7, 30, dur=30),
            leg(0, 1, 8, 7, 30, dur=50),
            leg(0, 1, 9, 7, 30, dur=40),
        ]
        _, minutes = commute_metrics(legs, 0, 1, WEEKDAYS, centroid_of)
        assert minutes == 40

    def test_even_day_count_takes_midpoint(self):
        legs = [leg(0, 1, 7, 7, 30, dur=30), leg(0, 1, 8, 7, 30, dur=50)]
        _, minutes = commute_metrics(legs, 0, 1, WEEKDAYS, centroid_of)
        assert minutes == 40

    def test_transfer_chain_sums_in_vehicle_time(self):
        legs = [leg(0, 2, 7, 7, 30, dur=20), leg(2, 1, 7, 8, 0, dur=15)]
        _, minutes = commute_metrics(legs, 0, 1, WEEKDAYS, centroid_of)
        assert minutes == 35

    def test_chain_broken_by_missing_alighting(self):
        legs = [leg(0, None, 7, 7, 30)]
        km, minutes = commute_metrics(legs, 0, 1, WEEKDAYS, centroid_of)
        assert km is not None
        assert minutes is None

    def test_chain_broken_by_off_grid_transfer(self):
        legs = [leg(0, 2, 7, 7, 30, dur=20), leg(0, 1, 7, 9, 0, dur=15)]
        _, minutes = commute_metrics(legs, 0, 1, WEEKDAYS, centroid_of)
        assert minutes is None

    def test_first_home_boarding_need_not_open_the_day(self):
        legs = [leg(2, 2, 7, 6, 0, dur=10), leg(0, 1, 7, 7, 30, dur=40)]
        _, minutes = commute_metrics(legs, 0, 1, WEEKDAYS, centroid_of)
        assert minutes == 40

    def test_weekend_rides_do_not_count(self):
        legs = [leg(0, 1, 12, 7, 30, dur=40)]
        _, minutes = commute_metrics(legs, 0, 1, WEEKDAYS, centroid_of)
        assert minutes is None


def reference_commute_minutes(legs, home, work, weekdays):
    """The commute time rule written the slow way: group each weekday's
    legs in order, start at the first home boarding, and follow
    consecutive same-place transfers to work."""
    by_day = {}
    for lg in legs:
        if lg.board_time // 1440 in weekdays:
            by_day.setdefault(lg.board_time // 1440, []).append(lg)
    minutes = []
    for day_legs in by_day.values():
        starts = [i for i, lg in enumerate(day_legs) if lg.board_place == home]
        if not starts:
            continue
        total, i = 0, starts[0]
        while day_legs[i].alight_place is not None:
            total += day_legs[i].alight_time - day_legs[i].board_time
            if day_legs[i].alight_place == work:
                minutes.append(total)
                break
            i += 1
            if i == len(day_legs) or day_legs[i].board_place != day_legs[i - 1].alight_place:
                break
    return int(median(minutes)) if minutes else None


@st.composite
def card_legs(draw):
    """Legs over a week among three places, in any order."""
    legs = []
    for _ in range(draw(st.integers(0, 14))):
        board = draw(st.integers(0, 6 * 1440 + 1439))
        if draw(st.integers(0, 3)) == 0:
            legs.append(Leg(draw(st.integers(0, 2)), None, board, None, "B"))
        else:
            alight = board + draw(st.integers(0, 90))
            legs.append(Leg(draw(st.integers(0, 2)), draw(st.integers(0, 2)), board, alight, "B"))
    if draw(st.booleans()):
        legs.sort(key=lambda lg: lg.board_time)
    return legs


@settings(max_examples=300, deadline=None)
@given(card_legs(), st.integers(0, 2), st.integers(0, 2))
def test_commute_minutes_match_reference(legs, home, work):
    _, minutes = commute_metrics(legs, home, work, WEEKDAYS, centroid_of)
    assert minutes == reference_commute_minutes(legs, home, work, WEEKDAYS)


class TestBuildProfile:
    def test_wires_everything_together(self):
        stays = [Stay("C", 0, None, t(7, 7, 30), 0, False, True)]
        for day in (8, 9):
            dep = t(day, 7, 30)
            stays.append(Stay("C", 0, dep - 770, dep, 770, False, True))
        for day in (7, 8, 9):
            dep = t(day, 18, 0)
            stays.append(Stay("C", 1, dep - 590, dep, 590, False, False))
        legs = [leg(0, 1, d, 7, 30, dur=40) for d in (7, 8, 9)]
        profile = build_profile(
            "C", "2008", CARD_REGULAR, legs, stays, WEEKDAYS, centroid_of, rides=6
        )
        assert profile.home == 0
        assert profile.work == 1
        assert profile.commute_km == pytest.approx(10.6, abs=1e-9)
        assert profile.commute_min == 40
        assert profile.rides == 6

    def test_student_profile_is_empty_but_counted(self):
        profile = build_profile(
            "C", "2008", CARD_STUDENT, [], [], WEEKDAYS, centroid_of, rides=4
        )
        assert profile.home is None
        assert profile.work is None
        assert profile.commute_km is None
        assert profile.rides == 4


def _none_zero_or(values):
    return st.none() | st.just(0) | values


# One card's profile: place id 0, commute_km 0.0 and commute_min 0 are
# drawn as often as None, and commute minutes reach past 32 bits.
PROFILE = st.builds(
    YearProfile,
    _none_zero_or(st.integers(1, 2**31 - 1)),
    _none_zero_or(st.integers(1, 2**31 - 1)),
    st.none() | st.just(0.0) | st.floats(0.0, 1e5, allow_nan=False, allow_infinity=False),
    _none_zero_or(st.integers(1, 2**63 - 1)),
    st.integers(0, 2**31 - 1),
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=6), PROFILE, max_size=20), st.text(max_size=6))
def test_the_columns_read_back_as_the_dict_they_came_from(profiles, card):
    view = profile_columns(sorted(profiles.items()))
    assert card_profiles(view) == profiles
    assert view.cards == sorted(profiles)
    if card not in profiles:
        assert card not in view.cards
    assert card_profiles(pickle.loads(pickle.dumps(view))) == profiles


def test_the_columns_take_cards_in_ascending_order_only():
    p = YearProfile(0, None, None, None, 1)
    for cards in (("B", "A"), ("A", "A")):
        with pytest.raises(ValueError, match="does not sort after"):
            profile_columns((card, p) for card in cards)


class TestYearProfilePickle:
    """A worker's year comes back pickled as its columns, so loading it must hold little beyond the result."""

    @pytest.fixture(scope="class")
    def profiles(self):
        return profile_columns(
            (
                f"C{i:05d}",
                YearProfile(
                    i % 500 if i % 7 else None,
                    i % 400 if i % 3 else None,
                    i / 7 if i % 3 else None,
                    i % 90 if i % 5 else None,
                    i % 40,
                ),
            )
            for i in range(20_000)
        )

    def test_round_trips_equal(self, profiles):
        expected = card_profiles(profiles)
        assert card_profiles(pickle.loads(pickle.dumps(profiles))) == expected
        p = expected["C00000"]
        assert (p.home, p.work, p.commute_km, p.commute_min) == (None, None, None, None)
        assert copy.copy(p) == p and copy.copy(p) is not p
        assert card_profiles(copy.deepcopy(profiles)) == expected

    def test_loading_builds_no_state_dict_per_profile(self, profiles):
        # One profile object per card, each pickled as its class and five
        # values, left 91 bytes per card in the unpickler's memo at the
        # peak; the columns load as one list and five bytes objects and
        # leave 42: the memo's slot per card id and the arrays' bytes.
        data = pickle.dumps(profiles)
        tracemalloc.start()
        try:
            loaded = pickle.loads(data)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == len(profiles)
        assert (peak - live) / len(profiles) < 64
