"""Trip chaining: legs to stays under strict and permissive modes."""

from __future__ import annotations

from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardcohort.ingest import TRANSACTIONS_HEADER, ObservationWeek, read_transactions, stop_codes

from coded_rides import decode, one_route
from reference_profile import PERMISSIVE, STRICT, Leg, Stay, build_legs, build_stays

WEEK = ObservationWeek(date(2008, 4, 7))
PLACES = {"S1": 0, "S2": 1, "S3": 2}


def t(day: int, hh: int, mm: int = 0) -> int:
    """Minutes from the start of WEEK (Monday 7 April 2008)."""
    return (day - 7) * 1440 + hh * 60 + mm


def records(*rows: str):
    codes = stop_codes(PLACES)
    tx = read_transactions([TRANSACTIONS_HEADER] + list(rows), WEEK.start_date, codes)
    assert not tx.rejections
    return one_route(ride for card in tx.rides for ride in decode(tx, card, codes))


class TestBuildLegs:
    def test_resolves_places_and_sorts(self):
        recs = records(
            "C1,R,DST,B1,S2,2008-04-07T18:00,S1,2008-04-07T18:40",
            "C1,R,FIX,B1,S1,2008-04-07T07:30,,",
        )
        legs = build_legs(recs, PLACES)
        assert [leg.board_place for leg in legs] == [0, 1]
        assert legs[0].alight_place is None
        assert not legs[0].complete
        assert legs[1].alight_place == 0
        assert legs[1].complete

    def test_order_is_independent_of_input_order(self):
        rows = [
            "C1,R,DST,B1,S1,2008-04-07T08:00,S2,2008-04-07T08:20",
            "C1,R,DST,B2,S1,2008-04-07T08:00,S3,2008-04-07T08:30",
            "C1,R,FIX,B1,S2,2008-04-07T12:00,,",
        ]
        a = build_legs(records(*rows), PLACES)
        b = build_legs(records(rows[2], rows[1], rows[0]), PLACES)
        assert a == b


class TestBuildStays:
    def test_exact_stay_between_alight_and_next_board(self):
        legs = [
            Leg(0, 1, t(7, 7, 30), t(7, 8, 10), "B1"),
            Leg(1, 0, t(7, 18, 0), t(7, 18, 40), "B1"),
        ]
        for mode in (STRICT, PERMISSIVE):
            stays = build_stays("C1", legs, mode)
            assert len(stays) == 2
            opener, work = stays
            assert opener == Stay("C1", 0, None, t(7, 7, 30), 0, False, True)
            assert work == Stay("C1", 1, t(7, 8, 10), t(7, 18, 0), 590, False, False)

    def test_overnight_exact_stay_is_the_days_opener(self):
        legs = [
            Leg(0, 1, t(7, 7, 30), t(7, 8, 10), "B1"),
            Leg(1, 0, t(7, 18, 0), t(7, 18, 40), "B1"),
            Leg(0, 1, t(8, 7, 30), t(8, 8, 10), "B1"),
        ]
        stays = build_stays("C1", legs, STRICT)
        overnight = stays[-1]
        assert overnight.place_id == 0
        assert overnight.arrive_time == t(7, 18, 40)
        assert overnight.duration_min == 770
        assert overnight.first_of_day
        # The formed stay doubles as the opener: exactly one per day.
        assert sum(1 for s in stays if s.first_of_day and s.day == 1) == 1

    def test_fixed_fare_gap_permissive_vs_strict(self):
        legs = [
            Leg(0, None, t(7, 7, 30), None, "B2"),
            Leg(1, None, t(7, 18, 0), None, "B2"),
        ]
        permissive = build_stays("C1", legs, PERMISSIVE)
        assert permissive[1] == Stay("C1", 1, None, t(7, 18, 0), 630, True, False)
        strict = build_stays("C1", legs, STRICT)
        assert len(strict) == 1
        assert strict[0] == Stay("C1", 0, None, t(7, 7, 30), 0, False, True)

    def test_off_grid_transfer_forms_no_stay(self):
        # Alighted at place 2 but next boarded at place 1: the interval
        # is unaccounted for and must not become a stay anywhere.
        legs = [
            Leg(0, 2, t(7, 7, 30), t(7, 8, 10), "B1"),
            Leg(1, 0, t(7, 18, 0), t(7, 18, 40), "B1"),
        ]
        stays = build_stays("C1", legs, PERMISSIVE)
        assert [s.place_id for s in stays] == [0]
        assert stays[0].first_of_day

    def test_overlapping_legs_form_no_stay(self):
        legs = [
            Leg(0, 1, t(7, 7, 30), t(7, 9, 0), "B1"),
            Leg(1, 0, t(7, 8, 0), t(7, 8, 40), "B1"),
        ]
        stays = build_stays("C1", legs, STRICT)
        assert [s.first_of_day for s in stays] == [True]
        assert stays[0].duration_min == 0

    def test_exact_six_hour_stay_measures_360(self):
        legs = [
            Leg(0, 1, t(7, 7, 0), t(7, 8, 0), "B1"),
            Leg(1, 0, t(7, 14, 0), t(7, 14, 40), "B1"),
        ]
        stays = build_stays("C1", legs, STRICT)
        assert stays[-1].duration_min == 360

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build_stays("C1", [], "lenient")

    def test_no_legs_no_stays(self):
        assert build_stays("C1", [], PERMISSIVE) == []


@st.composite
def leg_sequences(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    legs = []
    cursor = t(7, 4, 0)
    for _ in range(n):
        cursor += draw(st.integers(1, 700))
        board = draw(st.integers(0, 3))
        if draw(st.booleans()):
            alight_place = draw(st.integers(0, 3))
            alight_time = cursor + draw(st.integers(0, 90))
            legs.append(Leg(board, alight_place, cursor, alight_time, "B"))
        else:
            legs.append(Leg(board, None, cursor, None, "B"))
    return legs


class TestStayInvariants:
    @settings(max_examples=150, deadline=None)
    @given(leg_sequences())
    def test_modes_agree_on_exact_stays(self, legs):
        """Permissive only adds approximate stays, never alters exact ones."""
        strict = build_stays("C1", legs, STRICT)
        permissive = build_stays("C1", legs, PERMISSIVE)

        def exact(stays):
            return [s for s in stays if s.arrive_time is not None]

        assert exact(strict) == exact(permissive)
        assert len(permissive) >= len(strict)
        assert all(not s.approximate for s in strict)

    @settings(max_examples=150, deadline=None)
    @given(leg_sequences(), st.sampled_from([STRICT, PERMISSIVE]))
    def test_one_opener_per_active_day(self, legs, mode):
        stays = build_stays("C1", legs, mode)
        active_days = {leg.board_time // 1440 for leg in legs}
        opener_days = [s.day for s in stays if s.first_of_day]
        assert sorted(opener_days) == sorted(active_days)

    @settings(max_examples=150, deadline=None)
    @given(leg_sequences(), st.sampled_from([STRICT, PERMISSIVE]))
    def test_durations_non_negative_and_flags_consistent(self, legs, mode):
        for s in build_stays("C1", legs, mode):
            assert s.duration_min >= 0
            if s.approximate:
                assert mode == PERMISSIVE
                assert s.arrive_time is None
            if s.arrive_time is not None:
                assert s.arrive_time <= s.depart_time
