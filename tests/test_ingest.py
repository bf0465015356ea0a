"""Transaction, stop registry and config file parsing."""

from __future__ import annotations

import tracemalloc
from collections import Counter
from datetime import date, datetime, timedelta
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardcohort import ingest as ingest_module
from cardcohort.ingest import (
    DEFAULT_WEEK_START,
    HEAD_LINES,
    OUTSIDE_WEEK,
    STOPS_HEADER,
    TRANSACTIONS_HEADER,
    WEEK_MINUTES,
    ObservationWeek,
    Rejection,
    SchemaError,
    derive_week_start,
    format_minute,
    ingest,
    iter_lines,
    load_stops,
    parse_coord,
    parse_date,
    parse_minute,
    read_config,
    read_transactions,
    ride_tuples,
    stop_codes,
)
from cardcohort.pipeline import RunConfig

from coded_rides import card_rides, decode

MONDAY = date(2008, 4, 7)
WEEK = ObservationWeek(MONDAY)
# Each line ending iter_lines can leave on a line, and none.
LINE_ENDS = ["", "\n", "\r\n", "\r"]


def lines(*rows: str) -> list[str]:
    return [TRANSACTIONS_HEADER] + list(rows)


def minute_of(t: datetime) -> int:
    """Minutes after 0001-01-01T00:00, the unit of parse_minute."""
    return (t.toordinal() - 1) * 1440 + t.hour * 60 + t.minute


def to_csv_row(card_id: str, card_type: str, ride, week: ObservationWeek) -> str:
    """A kept ride written back as the transactions line it came from.

    The reader keeps no route, so the line names B1, as the lines written back here do.
    """
    board, b_stop, a_stop, alight = ride
    fare, a_time = ("DST", week.format(alight)) if a_stop else ("FIX", "")
    return ",".join(
        (card_id, card_type, fare, "B1", b_stop, week.format(board), a_stop, a_time)
    )


def csv_rows(tx, codes) -> list[str]:
    """The kept rides of a read against the registry ``codes`` written back as lines, card by card."""
    return [
        to_csv_row(card, "S" if card in tx.students else "R", ride, tx.week)
        for card, rides in card_rides(tx, codes).items()
        for ride in rides
    ]


def derived(text_lines: list[str], known_stops=None):
    """``text_lines`` read against the week derived from them and the registry ``known_stops``."""
    codes = None if known_stops is None else stop_codes(known_stops)
    return read_transactions(text_lines, derive_week_start(text_lines), codes)


class TestMinuteTimestamps:
    def test_parse(self):
        assert parse_minute("2008-04-07T07:30") == minute_of(datetime(2008, 4, 7, 7, 30))

    def test_format(self):
        assert format_minute(minute_of(datetime(2008, 4, 7, 7, 30))) == "2008-04-07T07:30"

    @pytest.mark.parametrize(
        "bad",
        [
            "2008-04-07 07:30",
            "2008-4-7T07:30",
            "2008-04-07T07:30:00",
            "2008-04-07",
            "",
            "not a timestamp!",
            "2008-13-07T07:30",
            "2008-02-30T07:30",
            "2008-W15-1T07:30",
            "2008-04-07T07+01",
            "2008-04-07T0730Z",
        ],
    )
    def test_rejects_non_canonical_forms(self, bad):
        with pytest.raises(ValueError):
            parse_minute(bad)

    @given(
        st.datetimes(
            min_value=datetime(1980, 1, 1),
            max_value=datetime(2100, 1, 1),
        ).map(lambda t: t.replace(second=0, microsecond=0))
    )
    def test_round_trip(self, t):
        text = t.strftime("%Y-%m-%dT%H:%M")
        assert format_minute(minute_of(t)) == text
        assert parse_minute(text) == minute_of(t)


class TestObservationWeek:
    def test_seven_days_five_weekdays(self):
        assert len(WEEK.dates) == 7
        assert WEEK.dates[0] == date(2008, 4, 7)
        assert WEEK.dates[-1] == date(2008, 4, 13)
        # Day indices of Monday 7 April to Friday 11 April.
        assert WEEK.weekdays == frozenset(range(5))
        assert WEEK_MINUTES == 7 * 1440

    def test_format_counts_from_the_start(self):
        assert WEEK.format(0) == "2008-04-07T00:00"
        assert WEEK.format(6 * 1440 + 23 * 60 + 59) == "2008-04-13T23:59"
        assert WEEK.format(7 * 1440 + 10) == "2008-04-14T00:10"

    def test_midweek_start_still_seven_days(self):
        week = ObservationWeek(date(2008, 4, 9))
        assert len(week.weekdays) == 3 + 2  # Wed-Fri plus Mon-Tue of next week

    def test_a_week_past_the_calendar_is_refused(self):
        assert ObservationWeek(date(9999, 12, 25)).dates[-1] == date(9999, 12, 31)
        for day in (26, 28, 31):
            with pytest.raises(ValueError, match=f"week start 9999-12-{day}: the week runs past 9999-12-31"):
                ObservationWeek(date(9999, 12, day))


class TestParseTransactions:
    def test_accepts_distance_and_fixed(self):
        codes = stop_codes(["S1", "S2", "S3"])
        tx = read_transactions(
            lines(
                "C1,R,DST,B1,S1,2008-04-07T07:30,S2,2008-04-07T08:10",
                "C2,S,FIX,B2,S3,2008-04-08T09:00,,",
            ),
            MONDAY,
            codes,
        )
        assert tx.rejections == []
        assert tx.parsed == 2
        assert tx.week == WEEK
        assert decode(tx, "C1", codes) == [(7 * 60 + 30, "S1", "S2", 8 * 60 + 10)]
        assert tx.students == {"C2"}
        # Fixed fares: no alight stop, alight minute equals board minute.
        board = 1440 + 9 * 60
        assert decode(tx, "C2", codes) == [(board, "S3", "", board)]

    def test_empty_stream(self):
        tx = read_transactions([], MONDAY)
        assert (tx.rides, tx.rejections, tx.parsed) == ({}, [], 0)

    def test_header_only(self):
        tx = read_transactions([TRANSACTIONS_HEADER], MONDAY)
        assert (tx.rides, tx.rejections, tx.parsed) == ({}, [], 0)

    def test_wrong_header_is_fatal(self):
        with pytest.raises(SchemaError):
            read_transactions(["card,type,other"], MONDAY)

    def test_blank_lines_skipped(self):
        tx = read_transactions(lines("", "C1,R,FIX,B1,S1,2008-04-07T07:30,,", ""), MONDAY)
        assert tx.parsed == 1
        assert tx.rejections == []

    def test_crlf_tolerated(self):
        tx = read_transactions(
            [TRANSACTIONS_HEADER + "\r\n", "C1,R,FIX,B1,S1,2008-04-07T07:30,,\r\n"], MONDAY
        )
        assert tx.parsed == 1
        assert tx.rejections == []

    @pytest.mark.parametrize(
        "row,reason",
        [
            ("C1,R,DST,B1,S1,2008-04-07T07:30,S2", "bad column count"),
            (",R,DST,B1,S1,2008-04-07T07:30,S2,2008-04-07T08:10", "empty card_id"),
            ("C1,X,DST,B1,S1,2008-04-07T07:30,S2,2008-04-07T08:10", "unknown card type"),
            ("C1,R,ZZZ,B1,S1,2008-04-07T07:30,S2,2008-04-07T08:10", "unknown fare type"),
            ("C1,R,DST,,S1,2008-04-07T07:30,S2,2008-04-07T08:10", "empty route_id"),
            ("C1,R,DST,B1,,2008-04-07T07:30,S2,2008-04-07T08:10", "empty board_stop"),
            ("C1,R,DST,B1,S1,tuesday,S2,2008-04-07T08:10", "bad board_time"),
            ("C1,R,DST,B1,S1,2008-04-20T07:30,S2,2008-04-20T08:10", "outside observation week"),
            ("C1,R,FIX,B1,S1,2008-04-07T07:30,S2,", "fixed fare with alight fields"),
            ("C1,R,FIX,B1,S1,2008-04-07T07:30,,2008-04-07T08:10", "fixed fare with alight fields"),
            ("C1,R,DST,B1,S1,2008-04-07T07:30,,", "distance fare missing alight fields"),
            ("C1,R,DST,B1,S1,2008-04-07T07:30,S2,", "distance fare missing alight fields"),
            ("C1,R,DST,B1,S1,2008-04-07T07:30,S2,after lunch", "bad alight_time"),
            ("C1,R,DST,B1,S1,2008-04-07T08:10,S2,2008-04-07T07:30", "negative leg duration"),
        ],
    )
    def test_rejection_reasons(self, row, reason):
        good = "C9,R,FIX,B9,S9,2008-04-07T12:00,,"
        tx = read_transactions(lines(good, row), MONDAY)
        assert tx.parsed == 1
        assert tx.rejections == [Rejection(3, reason)]

    # A run of endings reaches the reader only from a list of lines, not from iter_lines.
    @pytest.mark.parametrize("ending", [*LINE_ENDS, "\n\r\n"], ids=repr)
    @pytest.mark.parametrize(
        "row,reason",
        [
            ("C1,R,FIX,B1,S1,2008-04-07T07:30,,", None),
            ("C1,R,FIX,B1,S1,2008-04-07T07:30,S2,", "fixed fare with alight fields"),
            ("C1,R,FIX,B1,S1,2008-04-07T07:30,,2008-04-07T08:10", "fixed fare with alight fields"),
            ("C1,R,DST,B1,S1,2008-04-07T07:30,S2,2008-04-07T08:10", None),
            ("C1,R,DST,B1,S1,2008-04-07T07:30,,", "distance fare missing alight fields"),
            ("C1,R,DST,B1,S1,2008-04-07T07:30,S2,", "distance fare missing alight fields"),
            ("C1,R,DST,B1,S1,2008-04-07T07:30,,2008-04-07T08:10", "distance fare missing alight fields"),
        ],
    )
    def test_the_line_ending_is_no_alight_field(self, row, reason, ending):
        good = "C9,R,FIX,B9,S9,2008-04-07T12:00,,"
        tx = read_transactions([TRANSACTIONS_HEADER + ending, good + ending, row + ending], MONDAY)
        assert tx.rejections == ([] if reason is None else [Rejection(3, reason)])
        if reason is None:
            alight = 490 if "DST" in row else 450
            assert decode(tx, "C1", {}) == [(450, "", "", alight)]

    def test_each_distinct_alight_text_parses_once_whatever_its_ending(self, monkeypatch):
        from cardcohort import ingest

        parsed = []

        def counting(text):
            parsed.append(text)
            return parse_minute(text)

        monkeypatch.setattr(ingest, "parse_minute", counting)
        row = "C1,R,DST,B1,S1,2008-04-07T07:30,S2,2008-04-07T08:10"
        tx = read_transactions([TRANSACTIONS_HEADER, *(row + end for end in LINE_ENDS)], MONDAY)
        assert tx.parsed == 4
        assert sorted(parsed) == ["2008-04-07T07:30", "2008-04-07T08:10"]

    def test_week_is_half_open(self):
        # 7 and 13 April are in the week starting 7 April; 6 and 14 are out.
        tx = read_transactions(
            lines(
                "C1,R,FIX,B1,S1,2008-04-07T00:00,,",
                "C1,R,FIX,B1,S1,2008-04-06T23:59,,",
                "C1,R,FIX,B1,S1,2008-04-13T23:59,,",
                "C1,R,FIX,B1,S1,2008-04-14T00:00,,",
            ),
            MONDAY,
        )
        assert [r[0] for r in decode(tx, "C1", {})] == [0, WEEK_MINUTES - 1]
        assert tx.rejections == [
            Rejection(3, "outside observation week"),
            Rejection(5, "outside observation week"),
        ]

    def test_every_line_lands_exactly_once(self):
        rows = [
            "C1,R,DST,B1,S1,2008-04-07T07:30,S2,2008-04-07T08:10",
            "bad line",
            "C2,R,FIX,B1,S1,2008-04-08T07:30,,",
            "C3,Q,FIX,B1,S1,2008-04-08T07:30,,",
        ]
        tx = read_transactions(lines(*rows), MONDAY)
        assert tx.parsed + len(tx.rejections) == len(rows)
        assert [r.line_no for r in tx.rejections] == [3, 5]

    def test_majority_rejects_is_fatal(self):
        rows = ["junk,1", "junk,2", "C1,R,FIX,B1,S1,2008-04-07T07:30,,"]
        with pytest.raises(SchemaError):
            read_transactions(lines(*rows), MONDAY)

    def test_exactly_half_rejects_is_tolerated(self):
        rows = ["junk,1", "C1,R,FIX,B1,S1,2008-04-07T07:30,,"]
        tx = read_transactions(lines(*rows), MONDAY)
        assert tx.parsed == 1
        assert len(tx.rejections) == 1

    def test_early_bail_on_wrong_schema(self):
        # A thousand rejects in a row must abort the scan rather than
        # grind through an arbitrarily large wrong-schema file, and so
        # must the week scan that runs first when no start is configured.
        seen = 0

        def stream():
            nonlocal seen
            yield TRANSACTIONS_HEADER
            for i in range(100_000):
                seen = i
                yield f"wrong schema line {i}"

        with pytest.raises(SchemaError):
            read_transactions(stream(), MONDAY)
        assert seen < 1100
        seen = 0
        with pytest.raises(SchemaError, match="wrong schema"):
            derive_week_start(stream())
        assert seen < 1100

    def test_csv_row_round_trip(self):
        rows = [
            "C1,R,DST,B1,S1,2008-04-07T07:30,S2,2008-04-07T08:10",
            "C2,S,FIX,B1,S3,2008-04-08T09:00,,",
        ]
        codes = stop_codes(["S1", "S2", "S3"])
        assert csv_rows(read_transactions(lines(*rows), MONDAY, codes), codes) == rows


class TestDeriveWeekStart:
    def test_earliest_board_date_wins(self):
        rows = lines(
            "C1,R,FIX,B1,S1,2008-04-09T07:30,,",
            "C2,R,FIX,B1,S1,2008-04-07T23:50,,",
            "C3,R,FIX,B1,S1,2008-04-11T07:30,,",
        )
        assert derive_week_start(rows) == date(2008, 4, 7)

    def test_ignores_unparseable_lines(self):
        rows = lines(
            "garbage",
            "C1,R,FIX,B1,S1,not a time,,",
            "C2,R,FIX,B1,S1,2008-04-08T07:30,,",
            "C3,R,FIX,B1,S1,2008-04-09T07:30,,",
        )
        assert derive_week_start(rows) == date(2008, 4, 8)

    def test_default_start_when_nothing_parses(self):
        assert derive_week_start(lines()) == DEFAULT_WEEK_START
        assert derive_week_start([]) == DEFAULT_WEEK_START
        assert derived(lines()).week.label == "1970"

    def test_only_eight_column_lines_count(self):
        rows = lines(
            "C1,R,FIX,B1,S1,2008-04-01T07:30,",
            "C1,R,FIX,B1,S1,2008-04-02T07:30,,,",
            "C2,R,FIX,B1,S1,2008-04-08T07:30,,",
        )
        assert derive_week_start(rows) == date(2008, 4, 8)

    @pytest.mark.parametrize(
        "row",
        [
            ",R,FIX,B1,S1,2008-04-06T10:00,,",
            "C1,X,FIX,B1,S1,2008-04-06T10:00,,",
            "C1,R,ZZZ,B1,S1,2008-04-06T10:00,,",
            "C1,R,FIX,,,2008-04-06T10:00,,",
            "C1,R,FIX,B1,S1,2008-04-06T10:00,S2,2008-04-06T10:30",
            "C1,R,DST,B1,S1,2008-04-06T10:00,S2,2008-04-06T09:00",
        ],
    )
    def test_a_line_rejected_for_another_reason_still_counts(self, row):
        rows = lines("C2,R,FIX,B1,S1,2008-04-08T07:30,,", row)
        assert derive_week_start(rows) == date(2008, 4, 6)
        assert derived(rows).rejections[0].line_no == 3

    @pytest.mark.parametrize("text", ["2008-04-06 10:00", "2008-02-30T07:30", "2008-W14-7T10:00", ""])
    def test_a_bad_board_time_is_ignored(self, text):
        rows = lines(f"C1,R,FIX,B1,S1,{text},,", "C2,R,FIX,B1,S1,2008-04-08T07:30,,")
        assert derive_week_start(rows) == date(2008, 4, 8)
        assert derived(rows).rejections == [Rejection(2, "bad board_time")]

    @pytest.mark.parametrize("text_lines", [[], [TRANSACTIONS_HEADER], [TRANSACTIONS_HEADER + "\r\n", "\n"]])
    def test_header_only_and_empty_streams(self, text_lines):
        assert derive_week_start(text_lines) == DEFAULT_WEEK_START

    def test_wrong_header_raises_before_any_data_line(self):
        read = []

        def stream():
            yield "card,type,fare"
            for i in range(10):
                read.append(i)
                yield "C1,R,FIX,B1,S1,2008-04-07T07:30,,"

        with pytest.raises(SchemaError, match="unexpected transactions header: 'card,type,fare'"):
            derive_week_start(stream())
        assert read == []

    def test_refuses_only_what_the_reader_refuses(self):
        # Blank lines count as neither seen nor rejected, as in the reader:
        # half of the first 1,000 non-empty lines pass, 501 of them bail.
        good = "C1,R,FIX,B1,S1,2008-04-08T07:30,,"
        rows = lines(*[good] * 500, *["x,y,z", ""] * 500)
        assert derive_week_start(rows) == date(2008, 4, 8)
        assert len(read_transactions(rows, date(2008, 4, 8)).rejections) == 500
        rows = lines(*[good] * 499, *["x,y,z", ""] * 600)
        with pytest.raises(SchemaError, match="rejected 501 of first 1000 lines"):
            derive_week_start(rows)
        with pytest.raises(SchemaError, match="rejected 501 of first 1000 lines"):
            read_transactions(rows, date(2008, 4, 8))

    def test_byte_order_mark_file(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text(
            "\ufeff" + "\n".join(lines("C1,R,FIX,B1,S1,2008-04-09T07:30,,", "C1,R,FIX,B1,S1,2008-04-08T00:10,,")),
            encoding="utf-8",
        )
        assert derive_week_start(iter_lines(str(path))) == date(2008, 4, 8)

    def test_each_distinct_boarding_text_parses_once(self, monkeypatch):
        from cardcohort import ingest

        parsed = []

        def counting(text):
            parsed.append(text)
            return parse_minute(text)

        monkeypatch.setattr(ingest, "parse_minute", counting)
        # The texts are parsed in text order, which is time order for the
        # texts that parse: a failing text that sorts first is skipped, and
        # the scan stops at the first text that parses.
        texts = ["2008-04-10T07:30", "2008-04-09T07:30", "bad", "2008-02-30T07:30"]
        rows = lines(*[f"C1,R,FIX,B1,S1,{text},," for text in texts * 5])
        assert derive_week_start(rows) == date(2008, 4, 9)
        assert parsed == ["2008-02-30T07:30", "2008-04-09T07:30"]


class TestLoadStops:
    def test_happy_path(self):
        stops, rejections = load_stops(
            ["stop_id,lon,lat", "S1,116.30,39.90", "S2,116.31,39.91"]
        )
        assert rejections == []
        assert stops["S1"] == (116.30, 39.90)
        assert set(stops) == {"S1", "S2"}

    def test_duplicate_id_is_fatal(self):
        with pytest.raises(SchemaError):
            load_stops(["stop_id,lon,lat", "S1,116.30,39.90", "S1,116.31,39.91"])

    @pytest.mark.parametrize("bad,reason", [("S1,x,39.9", "bad coordinate"), ("S1,181.0,39.9", "coordinate out of range")])
    @pytest.mark.parametrize("bad_first", [True, False])
    def test_a_rejected_line_does_not_conflict_with_a_kept_one(self, bad, reason, bad_first):
        # Only two lines that both pass their checks conflict, so the
        # order of the two lines moves the rejection and nothing else.
        rows = [bad, "S1,116.4,39.9"] if bad_first else ["S1,116.4,39.9", bad]
        stops, rejections = load_stops([STOPS_HEADER, *rows])
        assert stops == {"S1": (116.4, 39.9)}
        assert rejections == [Rejection(2 if bad_first else 3, reason)]

    def test_wrong_header_is_fatal(self):
        with pytest.raises(SchemaError):
            load_stops(["id,x,y", "S1,116.30,39.90"])

    def test_empty_stream(self):
        assert load_stops([]) == ({}, [])

    def test_blank_lines_are_neither_kept_nor_rejected(self):
        stops, rejections = load_stops(
            [STOPS_HEADER, "S1,116.30,39.90\n", "\n", "\r\n", "", "S2,abc,39.91", "S3,116.0,39.0"]
        )
        assert list(stops) == ["S1", "S3"]
        # Later rejections keep the line numbers of the file.
        assert rejections == [Rejection(6, "bad coordinate")]

    @pytest.mark.parametrize(
        "row,reason",
        [
            ("S1,116.30", "bad column count"),
            (",116.30,39.90", "empty stop_id"),
            ("S1,abc,39.90", "bad coordinate"),
            ("S1,181.0,39.90", "coordinate out of range"),
            ("S1,116.30,-91.0", "coordinate out of range"),
        ],
    )
    def test_per_line_rejections(self, row, reason):
        stops, rejections = load_stops(["stop_id,lon,lat", row, "S9,116.0,39.0"])
        assert list(stops) == ["S9"]
        assert rejections == [Rejection(2, reason)]


class TestGeocode:
    KNOWN = stop_codes(["S1", "S2"])

    def test_drops_unknown_stops_and_counts_them(self):
        tx = read_transactions(
            lines(
                "C1,R,DST,B1,S1,2008-04-07T07:30,S2,2008-04-07T08:10",
                "C2,R,DST,B1,SX,2008-04-07T07:30,S2,2008-04-07T08:10",
                "C3,R,DST,B1,SX,2008-04-07T07:30,SY,2008-04-07T08:10",
                "C4,R,FIX,B1,S1,2008-04-07T07:30,,",
                # An id named twice on one line counts once.
                "C5,R,DST,B1,SX,2008-04-07T07:30,SX,2008-04-07T08:10",
            ),
            MONDAY,
            self.KNOWN,
        )
        assert not tx.rejections
        assert list(tx.rides) == ["C1", "C4"]
        assert tx.unmatched == {"SX": 3, "SY": 1}
        # A dropped line was still accepted.
        assert (tx.parsed, tx.geocoded) == (5, 2)

    def test_fixed_fare_needs_only_board_stop(self):
        tx = read_transactions(lines("C1,R,FIX,B1,S1,2008-04-07T07:30,,"), MONDAY, stop_codes(["S1"]))
        assert tx.geocoded == 1
        assert not tx.unmatched

    def test_without_a_registry_nothing_is_dropped(self):
        tx = read_transactions(lines("C1,R,DST,B1,SX,2008-04-07T07:30,SY,2008-04-07T08:10"), MONDAY)
        assert (tx.geocoded, tx.unmatched) == (1, {})
        # Nor is any stop kept: both stop fields hold 0.
        assert list(tx.rides["C1"]) == [450, 0, 0, 490]

    def test_a_student_line_naming_an_unknown_stop_makes_no_student(self):
        tx = read_transactions(
            lines("C1,R,FIX,B1,S1,2008-04-07T07:30,,", "C1,S,FIX,B1,SX,2008-04-07T08:30,,"),
            MONDAY,
            self.KNOWN,
        )
        assert tx.students == set()


def live_bytes_per_kept_ride(registry: bool) -> float:
    """The live bytes a read leaves, per kept ride, for 2,000 cards of 20 rides."""
    stop_ids = [f"S{i}" for i in range(400)]
    rows = []
    for card in range(2000):
        for k in range(20):
            day, slot = divmod(k, 4)
            board = day * 1440 + 420 + slot * 180 + card % 60
            head = f"C{card:05d},R,{'DST' if k % 3 else 'FIX'},B{k % 50},{stop_ids[(card * 7 + k) % 400]}"
            tail = f"{stop_ids[(card * 11 + k) % 400]},{WEEK.format(board + 25)}" if k % 3 else ","
            rows.append(f"{head},{WEEK.format(board)},{tail}")
    text_lines = lines(*rows)
    codes = stop_codes(stop_ids) if registry else None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tx = read_transactions(text_lines, MONDAY, codes)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (tx.geocoded, len(tx.rides)) == (40_000, 2000)
    return live / tx.geocoded


@pytest.mark.parametrize("registry", [True, False])
def test_a_kept_ride_costs_fewer_than_22_bytes(registry):
    """Kept as a tuple per ride (80 bytes, plus a 16-byte GC header and an
    8-byte list slot), this file leaves 98 bytes per ride live with a stop
    registry.  Kept as flat per-card lists of stop codes, it leaves 54.
    Kept as one 32-bit int array per card, it leaves 31 with five ints per
    ride and 27 (26.5) with four.  Kept as unsigned 16-bit ints, which
    hold every minute of the week and every code of its 400 stops, it
    leaves 17.3.  The arrays leave as much with a registry as without one.
    The bound of 22 lies between the two widths, clear of each, and so
    below every older layout.
    """
    assert live_bytes_per_kept_ride(registry) < 22


class TestIntArrays:
    """Each card's rides as one int array: codes, their order, and 64-bit alightings."""

    def test_codes_number_ids_by_rank(self):
        # S9 is seen first, but "S10" < "S9".
        tx = read_transactions(
            lines(
                "C1,R,DST,B9,S9,2008-04-07T07:30,S10,2008-04-07T08:10",
                "C2,R,FIX,B10,S10,2008-04-07T07:30,,",
                "C1,R,FIX,B10,S9,2008-04-07T18:00,,",
            ),
            MONDAY,
            stop_codes(["S9", "S10"]),
        )
        assert list(tx.rides["C1"]) == [450, 2, 1, 490, 1080, 2, 0, 1080]
        assert list(tx.rides["C2"]) == [450, 1, 0, 450]
        # The ranks are among the registry's ids, named on a line or not.
        registry = stop_codes(["S9", "S10", "S8"])
        tx = read_transactions(lines("C2,R,FIX,B10,S10,2008-04-07T07:30,,"), MONDAY, registry)
        assert list(tx.rides["C2"]) == [450, 1, 0, 450]

    @pytest.mark.parametrize("exact", [True, False])
    def test_a_card_with_two_rides_in_one_minute_sorts_as_its_ids(self, exact):
        # S9 is seen first, but "S10" < "S9".  A registry that is not exact
        # holds ids the lines do not name, which sort before, between and after theirs.
        rows = [
            "C1,R,DST,B9,S9,2008-04-07T07:30,S9,2008-04-07T08:00",
            "C1,R,DST,B10,S9,2008-04-07T07:30,S10,2008-04-07T08:00",
            "C1,R,DST,B9,S9,2008-04-08T07:30,S9,2008-04-08T08:00",
            "C1,R,DST,B9,S10,2008-04-08T07:30,S9,2008-04-08T08:00",
            "C2,R,DST,B9,S9,2008-04-07T07:30,S10,2008-04-07T08:00",
            "C2,R,FIX,B10,S10,2008-04-07T09:30,,",
        ]
        codes = stop_codes(["S9", "S10"] if exact else ["A", "S1", "S9", "S10", "S5", "Z"])
        tx = read_transactions(lines(*rows), MONDAY, codes)
        ids = ["", *codes]
        for card, rides in card_rides(tx, codes).items():
            by_code = sorted(ride_tuples(tx.rides[card]))
            assert [(b, ids[bs], ids[a_s], a) for b, bs, a_s, a in by_code] == sorted(rides)
        assert card_rides(tx, codes) == {
            "C1": [
                (450, "S9", "S9", 480),
                (450, "S9", "S10", 480),
                (1890, "S9", "S9", 1920),
                (1890, "S10", "S9", 1920),
            ],
            "C2": [(450, "S9", "S10", 480), (570, "S10", "", 570)],
        }
        # Every card holds the registry's codes, tied or not.
        s9, s10 = codes["S9"], codes["S10"]
        assert list(tx.rides["C1"])[1::4] == [s9, s9, s9, s10]
        assert list(tx.rides["C2"])[1::4] == [s9, s10]

    @pytest.mark.parametrize(
        "late_min,typecode",
        [
            (2**16 - 1, "H"),
            (2**16, "i"),
            (2**31 - 1, "i"),
            (2**31, "q"),
            (parse_minute("9999-12-31T23:59") - WEEK.start_minute, "q"),
        ],
    )
    def test_an_alighting_past_32_bits_turns_the_read_into_64_bit_ints(self, late_min, typecode):
        # The read widens to the narrowest ints that hold its latest
        # alighting, and keeps every card's rides, with a registry and without one.
        rows = [
            "C1,R,FIX,B9,S9,2008-04-07T07:30,,",
            "C2,R,DST,B9,S9,2008-04-07T08:00,S10,2008-04-07T08:30",
            f"C2,R,DST,B10,S10,2008-04-13T23:50,S9,{WEEK.format(late_min)}",
            "C1,R,DST,B9,S9,2008-04-08T07:30,S10,2008-04-08T08:00",
            "C3,S,FIX,B10,S10,2008-04-09T07:30,,",
        ]
        expected = {
            "C1": [(450, "S9", "", 450), (1890, "S9", "S10", 1920)],
            "C2": [(480, "S9", "S10", 510), (6 * 1440 + 1430, "S10", "S9", late_min)],
            "C3": [(2 * 1440 + 450, "S10", "", 2 * 1440 + 450)],
        }
        registry = stop_codes(["S9", "S10"])
        for codes in (None, registry):
            tx = read_transactions(lines(*rows), MONDAY, codes)
            assert tx.rejections == []
            assert {rides.typecode for rides in tx.rides.values()} == {typecode}
            if codes is None:
                blanked = {card: [(b, "", "", a) for b, _, _, a in rides] for card, rides in expected.items()}
                assert card_rides(tx, {}) == blanked
                assert list(tx.rides["C2"]) == [480, 0, 0, 510, 6 * 1440 + 1430, 0, 0, late_min]
            else:
                assert card_rides(tx, codes) == expected
                assert list(tx.rides["C2"]) == [480, 2, 1, 510, 6 * 1440 + 1430, 1, 2, late_min]
            # Four ints per kept ride, whatever their width.
            assert {card: len(rides) for card, rides in tx.rides.items()} == {"C1": 4 * 2, "C2": 4 * 2, "C3": 4}
            assert (tx.students, tx.geocoded) == ({"C3"}, 5)


def fresh(card: str) -> str:
    """An id equal to ``card`` but a new object, as a split line or an earlier read makes one."""
    return "".join(list(card))


def key_of(tx, card: str) -> str:
    """The key object ``tx.rides`` holds ``card`` under."""
    return next(key for key in tx.rides if key == card)


class TestSeededCards:
    """A read seeded with card ids keys their rides by those objects and keeps only the cards it read."""

    def test_a_seeded_card_is_keyed_by_the_given_object(self):
        rows = lines(
            "C1,R,DST,B1,S1,2008-04-07T07:30,S2,2008-04-07T08:10",
            "C2,S,FIX,B1,S2,2008-04-07T09:00,,",
            "C1,R,FIX,B1,S2,2008-04-07T18:00,,",
        )
        seeded = [fresh("C1"), fresh("C2")]
        plain = read_transactions(rows, MONDAY, TestGeocode.KNOWN)
        tx = read_transactions(rows, MONDAY, TestGeocode.KNOWN, seeded)
        assert tx == plain
        assert [key_of(tx, card) is card for card in seeded] == [True, True]
        # An unseeded read keys a card by an object of its own.
        assert key_of(plain, "C1") is not seeded[0]

    def test_a_seeded_card_without_a_kept_line_is_no_key(self):
        # C0 has no line, C3's lines are all rejected and C4's only line
        # names a stop the registry lacks; C2 is read but not seeded.
        rows = lines(
            "C1,R,FIX,B1,S1,2008-04-07T07:30,,",
            "C3,X,FIX,B1,S1,2008-04-07T07:40,,",
            "C3,S,FIX,B1,S1,2008-04-20T07:40,,",
            "C4,S,DST,B1,S1,2008-04-07T08:00,SX,2008-04-07T08:30",
            "C2,R,FIX,B1,S2,2008-04-07T09:00,,",
        )
        seeded = [fresh(card) for card in ("C0", "C1", "C3", "C4")]
        plain = read_transactions(rows, MONDAY, TestGeocode.KNOWN)
        tx = read_transactions(rows, MONDAY, TestGeocode.KNOWN, seeded)
        assert sorted(tx.rides) == ["C1", "C2"]
        assert tx == plain
        assert (tx.students, tx.unmatched, tx.parsed, tx.geocoded) == (set(), {"SX": 1}, 3, 2)
        assert key_of(tx, "C1") is seeded[1]

    @pytest.mark.parametrize("late_min,typecode", [(2**16, "i"), (2**31, "q")])
    def test_a_read_widens_past_seeded_cards_it_has_not_seen(self, late_min, typecode):
        # C2's second ride widens the read while C3 and C9 hold no ride;
        # C3's ride then takes the wider typecode, and C9 never shows.
        rows = lines(
            "C1,R,FIX,B1,S1,2008-04-07T07:30,,",
            "C2,R,DST,B1,S1,2008-04-07T08:00,S2,2008-04-07T08:30",
            f"C2,R,DST,B1,S2,2008-04-13T23:50,S1,{WEEK.format(late_min)}",
            "C3,R,FIX,B1,S2,2008-04-08T07:30,,",
        )
        seeded = [fresh(card) for card in ("C1", "C2", "C3", "C9")]
        tx = read_transactions(rows, MONDAY, TestGeocode.KNOWN, seeded)
        assert tx == read_transactions(rows, MONDAY, TestGeocode.KNOWN)
        assert {card: rides.typecode for card, rides in tx.rides.items()} == dict.fromkeys(("C1", "C2", "C3"), typecode)
        assert list(tx.rides["C3"]) == [1440 + 450, 2, 0, 1440 + 450]
        assert [key_of(tx, card) is card for card in seeded[:3]] == [True, True, True]


def test_group_by_card_preserves_order():
    tx = read_transactions(
        lines(
            "C2,R,FIX,B1,S1,2008-04-07T08:00,,",
            "C1,R,FIX,B1,S1,2008-04-07T09:00,,",
            "C2,R,FIX,B1,S1,2008-04-07T07:00,,",
        ),
        MONDAY,
    )
    assert set(tx.rides) == {"C1", "C2"}
    # File order within a card is preserved; sorting is chaining's job.
    assert [ride[0] // 60 for ride in decode(tx, "C2", {})] == [8, 7]


def test_group_by_card_any_student_row_makes_a_student_card():
    rows = [
        "C1,R,FIX,B1,S1,2008-04-07T08:00,,",
        "C1,S,FIX,B1,S1,2008-04-07T09:00,,",
        "C1,R,FIX,B1,S1,2008-04-07T10:00,,",
        "C2,R,FIX,B1,S1,2008-04-07T08:00,,",
    ]
    for order in (rows, rows[::-1], rows[1:] + rows[:1]):
        grouped = read_transactions(lines(*order), MONDAY)
        assert grouped.students == {"C1"}


class TestByteOrderMark:
    """A UTF-8 BOM before the header is not part of the header."""

    def _pair(self, tmp_path, name: str, body: str) -> tuple[str, str]:
        plain = tmp_path / f"{name}.csv"
        bom = tmp_path / f"{name}_bom.csv"
        plain.write_text(body, encoding="utf-8")
        bom.write_text("﻿" + body, encoding="utf-8")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        return str(plain), str(bom)

    def test_transactions_file(self, tmp_path):
        body = "\n".join(
            lines(
                "C1,R,DST,B1,S1,2008-04-07T07:30,S2,2008-04-07T08:10",
                "C2,S,FIX,B2,S3,2008-04-08T09:00,,",
                "C3,X,FIX,B2,S3,2008-04-08T09:00,,",
            )
        ) + "\n"
        plain, bom = self._pair(tmp_path, "tx", body)
        expected = read_transactions(iter_lines(plain), derive_week_start(iter_lines(plain)))
        got = read_transactions(iter_lines(bom), derive_week_start(iter_lines(bom)))
        assert got == expected
        assert got.week == expected.week
        assert got.parsed == 2
        assert got.rejections == [Rejection(4, "unknown card type")]

    def test_stops_file(self, tmp_path):
        body = f"{STOPS_HEADER}\nS1,116.30,39.90\nS2,abc,39.91\n"
        plain, bom = self._pair(tmp_path, "stops", body)
        assert load_stops(iter_lines(bom)) == load_stops(iter_lines(plain))
        assert set(load_stops(iter_lines(bom))[0]) == {"S1"}

    def test_bom_inside_a_field_is_still_data(self):
        tx = read_transactions(lines("﻿C1,R,FIX,B1,S1,2008-04-07T07:30,,"), MONDAY)
        assert list(tx.rides) == ["﻿C1"]
        assert tx.rejections == []


def reference_parse(text_lines: list[str], week_start: date | None, known_stops=None):
    """The reading the scan and the reader must reproduce, written the slow way.

    A first scan over every eight-column line finds the earliest boarding
    date (the derived week start); a second scan checks each line against
    that week in schema order; a third drops the accepted lines that name
    a stop absent from ``known_stops`` and groups the rest by card.  With
    no ``known_stops`` no line is dropped and no stop is kept.
    Returns ("schema",) when the file would be refused, else (week start,
    card -> rides, student cards, rejections, unmatched stop counts,
    number of accepted lines).
    """

    def minute(text: str):
        try:
            return parse_minute(text)
        except ValueError:
            return None

    data = [raw.rstrip("\r\n") for raw in text_lines[1:]]
    start = week_start
    if start is None:
        boards = [
            minute(p[5]) for p in (line.split(",") for line in data) if len(p) == 8
        ]
        days = [b // 1440 for b in boards if b is not None]
        start = date.fromordinal(min(days) + 1) if days else DEFAULT_WEEK_START
    lo = (start.toordinal() - 1) * 1440
    accepted, rejections, total = [], [], 0
    for line_no, line in enumerate(data, start=2):
        if not line:
            continue
        total += 1
        p = line.split(",")
        if len(p) != 8:
            reason = "bad column count"
        elif not p[0]:
            reason = "empty card_id"
        elif p[1] not in ("R", "S"):
            reason = "unknown card type"
        elif p[2] not in ("FIX", "DST"):
            reason = "unknown fare type"
        elif not p[3]:
            reason = "empty route_id"
        elif not p[4]:
            reason = "empty board_stop"
        elif minute(p[5]) is None:
            reason = "bad board_time"
        elif not lo <= minute(p[5]) < lo + 7 * 1440:
            reason = "outside observation week"
        elif p[2] == "FIX":
            reason = "fixed fare with alight fields" if p[6] or p[7] else None
        elif not p[6] or not p[7]:
            reason = "distance fare missing alight fields"
        elif minute(p[7]) is None:
            reason = "bad alight_time"
        elif minute(p[7]) < minute(p[5]):
            reason = "negative leg duration"
        else:
            reason = None
        if reason is None:
            accepted.append(line)
            continue
        rejections.append((line_no, reason))
        if total >= 1000 and len(rejections) * 2 > total:
            return ("schema",)
    if total and len(rejections) > total * 0.5:
        return ("schema",)
    rides, students, unmatched = {}, set(), Counter()
    for line in accepted:
        p = line.split(",")
        # Each unknown id on a line counts once, however often the line names it.
        unknown = {s for s in (p[4], p[6]) if s and known_stops is not None and s not in known_stops}
        if unknown:
            unmatched.update(unknown)
            continue
        board = minute(p[5]) - lo
        alight = minute(p[7]) - lo if p[2] == "DST" else board
        stops = (p[4], p[6]) if known_stops is not None else ("", "")
        rides.setdefault(p[0], []).append((board, *stops, alight))
        if p[1] == "S":
            students.add(p[0])
    return start, rides, students, rejections, unmatched, len(accepted)


def opener(text_lines: list[str]):
    """A function that gives ``text_lines`` afresh on each call, and the list it logs each call in."""
    opens = []

    def open_lines():
        opens.append(text_lines)
        return iter(text_lines)

    return open_lines, opens


def head_lines(n: int):
    """A context in which a read with no week start tries the week of the ``n`` lines after the header."""
    return mock.patch.object(ingest_module, "HEAD_LINES", n)


def passes(text_lines: list[str], head: int = HEAD_LINES) -> int:
    """How many times :func:`ingest`, with no week start and ``head`` head lines, opens ``text_lines``."""
    open_lines, opens = opener(text_lines)
    with head_lines(head):
        try:
            ingest(open_lines, None)
        except SchemaError:
            pass
    return len(opens)


def one_pass(text_lines: list[str], week_start: date | None, known_stops=None, head: int = HEAD_LINES):
    codes = None if known_stops is None else stop_codes(known_stops)
    try:
        with head_lines(head):
            tx = ingest(opener(text_lines)[0], week_start, codes)
    except SchemaError:
        return ("schema",)
    return (
        tx.week.start_date,
        card_rides(tx, codes or {}),
        tx.students,
        [(r.line_no, r.reason) for r in tx.rejections],
        tx.unmatched,
        tx.parsed,
    )


def boarding(line: str) -> int | None:
    """The boarding minute of an eight-column ``line``, or None when it has none that parses."""
    parts = line.split(",")
    try:
        return parse_minute(parts[5]) if len(parts) == 8 else None
    except ValueError:
        return None


def order_free(text_lines: list[str], known_stops):
    """What a read of ``text_lines`` keeps that the order of its data lines must not change.

    Rejection line numbers move with the lines, so only their reasons are kept.
    """
    try:
        tx = derived(text_lines, known_stops)
    except SchemaError:
        return ("schema",)
    return (
        tx.week,
        {card: sorted(ride_tuples(rides)) for card, rides in tx.rides.items()},
        tx.students,
        Counter(r.reason for r in tx.rejections),
        tx.unmatched,
        tx.parsed,
    )


# A leap day, a month end and a year end, each inside a week's reach.
ERAS = (datetime(2012, 2, 27), datetime(2008, 12, 29), datetime(2016, 2, 25))


CORRUPTIONS = (
    lambda f: f[:7],
    lambda f: ["", *f[1:]],
    lambda f: [f[0], "X", *f[2:]],
    lambda f: [*f[:2], "ZZZ", *f[3:]],
    lambda f: [*f[:3], "", *f[4:]],
    lambda f: [*f[:4], "", *f[5:]],
    lambda f: [*f[:5], "2012-02-30T07:30", *f[6:]],
    lambda f: [*f[:5], f[5].replace("T", " "), *f[6:]],
    lambda f: [*f[:2], "FIX", *f[3:6], "S2", f[7]],
    lambda f: [*f[:2], "DST", *f[3:6], f[6], ""],
    lambda f: [*f[:2], "DST", *f[3:6], "S2", "tuesday"],
    lambda f: [*f[:2], "DST", *f[3:6], "S2", "2012-W09-3T07:30"],
)


STOP_IDS = ("S1", "S2", "S3", "S4")

# No registry (as for the follow-up week, whose read keeps no stop), or
# one that leaves out at least one of the stops the lines name; a kept
# stop is coded by its rank in that registry.
registries = st.one_of(
    st.none(),
    st.sets(st.sampled_from(STOP_IDS), max_size=3).map(lambda ids: dict.fromkeys(ids, (0.0, 0.0))),
)


@st.composite
def transaction_lines(draw):
    """Mostly good lines around one era, some with one defect each."""
    era = draw(st.sampled_from(ERAS))
    out = [TRANSACTIONS_HEADER]
    for _ in range(draw(st.integers(0, 25))):
        if draw(st.integers(0, 19)) == 0:
            out.append("")
            continue
        # Few distinct minutes, so duplicate timestamps are common; days
        # span two weeks, so the earliest date can come after lines a week
        # or more later.
        board = era + timedelta(
            days=draw(st.integers(-3, 10)), minutes=draw(st.sampled_from([0, 1, 450, 1439]))
        )
        # The last minute of the calendar lies past 2**31 - 1 minutes after any week start here.
        alight = draw(st.sampled_from([board + timedelta(minutes=m) for m in (-5, 0, 1, 40, 600)] + [datetime.max]))
        fields = [
            draw(st.sampled_from(["C1", "C2", "C3", "C4"])),
            draw(st.sampled_from(["R", "R", "S"])),
            "FIX",
            # "B10" sorts before "B9" as text and after it by number; the
            # reader checks that a route is there and keeps none.
            draw(st.sampled_from(["B9", "B10", "B2"])),
            draw(st.sampled_from(STOP_IDS)),
            board.strftime("%Y-%m-%dT%H:%M"),
            "",
            "",
        ]
        if draw(st.booleans()):
            fields[2] = "DST"
            fields[6] = draw(st.sampled_from(STOP_IDS))
            fields[7] = alight.strftime("%Y-%m-%dT%H:%M")
        if draw(st.integers(0, 3)) == 0:
            fields = draw(st.sampled_from(CORRUPTIONS))(fields)
        out.append(",".join(fields) + draw(st.sampled_from(LINE_ENDS)))
    return out


class TestOnePassParity:
    """ingest against the reading written the slow way."""

    @settings(max_examples=1000, deadline=None)
    @given(transaction_lines(), st.sampled_from([None, None, 0, 1]), registries, st.sampled_from([1, 2, HEAD_LINES]))
    def test_matches_two_scan_reading(self, text_lines, shift, known_stops, head):
        start = None
        if shift is not None:
            # The generated lines pick their own era; a fixed week
            # elsewhere rejects them all, which is still worth checking.
            start = ERAS[0].date() + timedelta(days=shift)
        expected = reference_parse(text_lines, start, known_stops)
        # Generated files fit in the head; shorter heads reach the restart and the fallback.
        assert one_pass(text_lines, start, known_stops, head) == expected

    @settings(max_examples=300, deadline=None)
    @given(transaction_lines(), st.randoms(use_true_random=False), st.sampled_from([1, 2, HEAD_LINES]))
    def test_a_time_sorted_file_is_read_once_and_any_file_at_most_four_times(self, text_lines, rnd, head):
        # A read, a restart, the scan and a read.
        shuffled = [text_lines[0], *rnd.sample(text_lines[1:], len(text_lines) - 1)]
        assert passes(shuffled, head) <= 4
        # A fixed-width boarding text sorts as its time does.
        boarded = [line for line in text_lines[1:] if boarding(line) is not None]
        assert passes([text_lines[0], *sorted(boarded, key=boarding)], head) == 1

    @settings(max_examples=300, deadline=None)
    @given(transaction_lines(), st.randoms(use_true_random=False))
    def test_shuffled_lines_read_to_the_same_codes(self, text_lines, rnd):
        shuffled = [text_lines[0], *rnd.sample(text_lines[1:], len(text_lines) - 1)]
        # With no registry, and with one that leaves out S4.
        for known_stops in (None, dict.fromkeys(STOP_IDS[:3], (0.0, 0.0))):
            assert order_free(shuffled, known_stops) == order_free(text_lines, known_stops)

    @settings(max_examples=300, deadline=None)
    @given(transaction_lines(), st.data())
    def test_route_ids_change_nothing_a_read_keeps(self, text_lines, data):
        # Each line that names a route names another one (or the same);
        # an empty route_id stays empty, since it is a rejection.
        renamed = [text_lines[0]]
        for line in text_lines[1:]:
            fields = line.split(",")
            if len(fields) == 8 and fields[3]:
                fields[3] = data.draw(st.sampled_from(["B9", "B10", "B2", "Z"]))
            renamed.append(",".join(fields))
        for known_stops in (None, dict.fromkeys(STOP_IDS[:3], (0.0, 0.0))):
            try:
                tx = derived(text_lines, known_stops)
            except SchemaError:
                with pytest.raises(SchemaError):
                    derived(renamed, known_stops)
                continue
            got = derived(renamed, known_stops)
            assert got.rides == tx.rides
            assert got == tx

    @settings(max_examples=300, deadline=None)
    @given(transaction_lines(), registries, st.sets(st.sampled_from(["C0", "C1", "C2", "C3", "C4", "C5"])))
    def test_seeded_cards_change_nothing_but_their_keys(self, text_lines, known_stops, seeds):
        seeded = [fresh(card) for card in sorted(seeds)]
        try:
            plain = derived(text_lines, known_stops)
        except SchemaError:
            return
        codes = None if known_stops is None else stop_codes(known_stops)
        tx = read_transactions(text_lines, plain.week.start_date, codes, seeded)
        assert tx == plain
        assert {rides.typecode for rides in tx.rides.values()} == {rides.typecode for rides in plain.rides.values()}
        held = {id(key) for key in tx.rides}
        assert [id(card) in held for card in seeded] == [card in plain.rides for card in seeded]

    @pytest.mark.parametrize(
        "rows,start,rejections",
        [
            # An unknown-card-type line still sets the derived start.
            (
                [
                    "C2,R,FIX,B1,S1,2008-04-07T07:30,,",
                    "C1,X,FIX,B1,S1,2008-04-06T10:00,,",
                    "C2,R,FIX,B1,S1,2008-04-12T23:59,,",
                    "C2,R,FIX,B1,S1,2008-04-13T00:00,,",
                ],
                date(2008, 4, 6),
                [(3, "unknown card type"), (5, "outside observation week")],
            ),
            # The earliest date comes last: earlier lines are judged by its week,
            # and outside-the-week wins over a later alight check.
            (
                [
                    "C1,R,FIX,B1,S1,2008-04-09T07:30,,",
                    "C1,R,FIX,B1,S1,2008-04-15T07:30,,",
                    "C1,R,DST,B1,S1,2008-04-15T08:00,S2,2008-04-15T07:00",
                    "C1,R,DST,B1,S1,2008-04-14T08:00,S2,2008-04-14T07:00",
                    "C1,R,FIX,B1,S1,2008-04-08T23:59,,",
                    "C2,R,FIX,B1,S1,2008-04-10T07:30,,",
                    "C3,R,FIX,B1,S1,2008-04-10T07:30,,",
                ],
                date(2008, 4, 8),
                [
                    (3, "outside observation week"),
                    (4, "outside observation week"),
                    (5, "negative leg duration"),
                ],
            ),
            # Leap day and month end inside one derived week.
            (
                [
                    "C1,R,FIX,B1,S1,2012-02-29T00:00,,",
                    "C1,R,DST,B1,S1,2012-02-28T23:59,S2,2012-03-01T00:10",
                    "C1,R,FIX,B1,S1,2012-03-06T00:00,,",
                    "C1,R,FIX,B1,S1,2012-03-05T23:59,,",
                ],
                date(2012, 2, 28),
                [(4, "outside observation week")],
            ),
            # Year end, with a duplicate timestamp.
            (
                [
                    "C1,R,FIX,B1,S1,2008-12-31T23:59,,",
                    "C2,R,FIX,B1,S1,2008-12-31T23:59,,",
                    "C1,R,FIX,B1,S1,2009-01-01T00:00,,",
                ],
                date(2008, 12, 31),
                [],
            ),
            # The first and the last day of the calendar: the first line
            # lies more than 2**31 minutes after the derived start.
            (
                [
                    "C1,R,FIX,B1,S1,9999-12-31T23:59,,",
                    "C1,R,FIX,B1,S1,0001-01-01T00:00,,",
                    "C2,R,FIX,B1,S1,0001-01-07T23:59,,",
                ],
                date(1, 1, 1),
                [(2, "outside observation week")],
            ),
        ],
    )
    def test_table(self, rows, start, rejections):
        text_lines = lines(*rows)
        got = one_pass(text_lines, None)
        assert got == reference_parse(text_lines, None)
        assert got[0] == start
        assert got[3] == rejections
        accepted = [r for n, r in enumerate(rows, start=2) if n not in dict(rejections)]
        assert sorted(csv_rows(derived(text_lines, STOP_IDS), stop_codes(STOP_IDS))) == sorted(accepted)

    @pytest.mark.parametrize(
        "rows,field,value",
        [
            # A student line after the derived week makes no student,
            # though its card keeps a ride.
            (
                [
                    "C1,S,FIX,B1,S1,2008-04-16T07:30,,",
                    "C1,R,FIX,B1,S1,2008-04-10T07:30,,",
                    "C2,R,FIX,B1,S1,2008-04-08T07:30,,",
                ],
                "students",
                set(),
            ),
            # A line naming an unknown stop after the derived week counts
            # in no unmatched total.
            (
                [
                    "C1,R,FIX,B1,SX,2008-04-16T07:30,,",
                    "C1,R,FIX,B1,S1,2008-04-08T07:30,,",
                    "C2,R,DST,B1,S1,2008-04-09T07:30,SY,2008-04-09T08:00",
                ],
                "unmatched",
                {"SY": 1},
            ),
            # A card whose every ride lies after the derived week is gone.
            (
                [
                    "C9,R,FIX,B1,S1,2008-04-16T07:30,,",
                    "C1,R,FIX,B1,S1,2008-04-08T07:30,,",
                    "C1,R,FIX,B1,S1,2008-04-09T07:30,,",
                ],
                "rides",
                {"C1": [(450, "S1", "", 450), (1440 + 450, "S1", "", 1440 + 450)]},
            ),
        ],
    )
    def test_rules_that_wait_for_the_final_week(self, rows, field, value):
        text_lines = lines(*rows)
        known = {"S1": (0.0, 0.0)}
        assert one_pass(text_lines, None, known) == reference_parse(text_lines, None, known)
        tx = derived(text_lines, known)
        assert (tx.week.start_date, tx.rejections) == (date(2008, 4, 8), [Rejection(2, OUTSIDE_WEEK)])
        got = card_rides(tx, stop_codes(known)) if field == "rides" else getattr(tx, field)
        assert got == value

    def test_minutes_count_from_the_derived_start(self):
        tx = derived(lines("C1,R,FIX,B1,S1,2008-04-09T07:30,,", "C1,R,FIX,B1,S1,2008-04-08T00:10,,"))
        assert tx.week.start_date == date(2008, 4, 8)
        assert [r[0] for r in decode(tx, "C1", {})] == [1440 + 450, 10]

    def test_a_moved_week_keeps_rides_in_an_int_array(self):
        # Each card's rides are one unsigned 16-bit int array, also when
        # the earliest date comes last, so a year's rides hold no int
        # object per ride.
        tx = derived(
            lines(
                "C1,R,FIX,B1,S1,2008-04-09T07:30,,",
                "C2,R,FIX,B1,S1,2008-04-09T07:30,,",
                "C3,R,FIX,B1,S1,2008-04-08T00:10,,",
            )
        )
        assert {(rides.typecode, rides.itemsize) for rides in tx.rides.values()} == {("H", 2)}
        (c1,), (c2,) = decode(tx, "C1", {}), decode(tx, "C2", {})
        assert c1[0] == c2[0] == c1[3] == 1440 + 450

    def test_early_bail_counts_rejections_found_after_the_week_moved(self):
        # 1,200 lines would look in-week but for the last-but-many line,
        # whose date starts the week a day earlier; read in order they
        # are a majority of the first thousand lines, so the file is
        # refused even though the whole file is mostly good.
        text_lines = lines(
            "C1,R,FIX,B1,S1,2008-04-08T07:30,,",
            *["C1,R,FIX,B1,S1,2008-04-14T07:30,,"] * 1200,
            "C1,R,FIX,B1,S1,2008-04-07T07:30,,",
            *["C1,R,FIX,B1,S1,2008-04-08T07:30,,"] * 3000,
        )
        assert reference_parse(text_lines, None) == ("schema",)
        with pytest.raises(SchemaError):
            derived(text_lines)


class TestIngest:
    """ingest with no week start: one read, a restart, or the scan and a read, always as the scan and a read give."""

    @pytest.mark.parametrize(
        "head,rest,opens",
        [
            # The earliest boarding on the first line.
            (
                ["C1,R,FIX,B1,S1,2008-04-07T07:30,,"],
                ["C2,R,DST,B1,S1,2008-04-09T07:30,S2,2008-04-09T08:00", "C1,S,FIX,B1,S1,2008-04-13T23:59,,"],
                1,
            ),
            # Past the head, mid-file: the read starts over once, with its date.
            (
                ["C1,R,FIX,B1,S1,2008-04-09T07:30,,"],
                [
                    "C2,R,FIX,B1,SX,2008-04-14T07:30,,",
                    "C2,S,FIX,B1,S1,2008-04-07T08:00,,",
                    "C1,R,FIX,B1,S1,2008-04-10T07:30,,",
                ],
                2,
            ),
            # On the last line.
            (
                ["C1,R,FIX,B1,S1,2008-04-09T07:30,,"],
                ["C2,R,DST,B1,S1,2008-04-12T07:30,S2,2008-04-12T07:00", "C2,R,FIX,B1,S1,2008-04-06T08:00,,"],
                2,
            ),
            # Only on a line rejected for another reason, past the head.
            (
                ["C1,R,FIX,B1,S1,2008-04-09T07:30,,"],
                [
                    "C1,X,FIX,B1,S1,2008-04-06T07:30,,",
                    "C2,R,FIX,B1,S1,2008-04-12T07:30,,",
                    "C2,R,FIX,B1,S1,2008-04-13T07:30,,",
                ],
                2,
            ),
            # Only on a line rejected for another reason, in the head,
            # after lines with no boarding that parses.
            (
                [
                    "C1,R,FIX",
                    "C1,R,FIX,B1,S1,2008-04-05 07:30,,",
                    "C1,R,FIX,B1,S1,2008-04-07T07:30,,",
                    ",R,FIX,B1,S1,2008-04-06T07:30,,",
                ],
                [
                    "C1,R,FIX,B1,S1,2008-04-12T23:59,,",
                    "C1,R,FIX,B1,S1,2008-04-13T00:00,,",
                    "C2,R,FIX,B1,S1,2008-04-07T07:30,,",
                    "C2,R,FIX,B1,S1,2008-04-08T07:30,,",
                ],
                1,
            ),
            # Two successive earlier boardings: a read, a restart, the scan and a read.
            (
                ["C1,R,FIX,B1,S1,2008-04-09T07:30,,"],
                [
                    "C1,R,FIX,B1,S1,2008-04-08T07:30,,",
                    "C2,R,FIX,B1,S1,2008-04-14T07:30,,",
                    "C2,R,FIX,B1,S1,2008-04-07T07:30,,",
                ],
                4,
            ),
            # Weeks that would run past the calendar are only tried.
            (
                ["C1,R,FIX,B1,S1,9999-12-28T07:30,,"],
                [
                    "C1,R,FIX,B1,S1,9999-12-31T23:59,,",
                    "C2,R,FIX,B1,S1,2008-04-07T07:30,,",
                    "C2,R,FIX,B1,S1,2008-04-09T07:30,,",
                ],
                2,
            ),
            (
                ["C1,R,FIX,B1,S1,9999-12-31T07:30,,"],
                [
                    "C1,R,FIX,B1,S1,9999-12-29T23:59,,",
                    "C2,R,FIX,B1,S1,2008-04-07T07:30,,",
                    "C2,R,FIX,B1,S1,2008-04-09T07:30,,",
                ],
                4,
            ),
            # No boarding that parses in the head: the scan and a read.
            (
                ["C1,R,FIX", "C1,R,FIX,B1,S1,tuesday,,"],
                [
                    "C2,R,FIX,B1,S1,2008-04-08T07:30,,",
                    "C2,R,FIX,B1,S1,2008-04-07T07:30,,",
                    "C2,R,FIX,B1,S1,2008-04-09T07:30,,",
                ],
                3,
            ),
            # No data line: the default week.
            (["", "\r\n"], [], 1),
        ],
    )
    def test_matches_the_scan_and_a_read(self, head, rest, opens):
        # Blank lines fill the head, so that the lines of ``rest`` come after it.
        text_lines = lines(*head, *[""] * (HEAD_LINES if rest else 0), *rest)
        codes = stop_codes(["S1", "S2"])
        # Each read seeds its cards from the one list.
        seeded = [fresh("C1"), fresh("C2")]
        open_lines, logged = opener(text_lines)
        tx = ingest(open_lines, None, codes, seeded)
        expected = read_transactions(text_lines, derive_week_start(text_lines), codes)
        assert tx == expected
        assert [rides.typecode for rides in tx.rides.values()] == [rides.typecode for rides in expected.rides.values()]
        assert [key for key in tx.rides if any(key is card for card in seeded)] == list(tx.rides)
        assert len(logged) == opens

    def test_a_typecode_widens_as_in_the_scan_and_a_read(self):
        # The first ride of the final week that needs 64-bit ints comes after a restart.
        text_lines = lines(
            "C1,R,FIX,B1,S1,2008-04-09T07:30,,",
            *[""] * HEAD_LINES,
            "C1,R,DST,B1,S1,2008-04-08T07:30,S2,9999-12-31T23:59",
            "C2,R,FIX,B1,S1,2008-04-08T09:30,,",
        )
        open_lines, logged = opener(text_lines)
        tx = ingest(open_lines, None)
        assert tx == derived(text_lines)
        assert {rides.typecode for rides in tx.rides.values()} == {"q"}
        assert len(logged) == 2

    def test_a_configured_start_is_one_read(self):
        open_lines, logged = opener(lines("C1,R,FIX,B1,S1,2008-04-09T07:30,,", "C1,R,FIX,B1,S1,2008-04-08T07:30,,"))
        tx = ingest(open_lines, date(2008, 4, 9))
        assert (tx.week.start_date, tx.rejections, len(logged)) == (date(2008, 4, 9), [Rejection(3, OUTSIDE_WEEK)], 1)

    def test_reads_a_path(self, tmp_path):
        path = tmp_path / "week.csv"
        path.write_text("\n".join(lines("C1,R,FIX,B1,S1,2008-04-09T07:30,,", "C1,R,FIX,B1,S1,2008-04-08T07:30,,")))
        assert ingest(str(path), None) == derived(list(iter_lines(str(path))))

    def test_a_bail_on_column_counts_after_the_week_is_tried_is_the_scans(self):
        text_lines = lines(
            "C1,R,FIX,B1,S1,2008-04-08T07:30,,", *["C1,R,FIX,B1"] * 1000, "C1,R,FIX,B1,S1,2008-04-07T07:30,,"
        )
        with pytest.raises(SchemaError) as scan:
            derived(text_lines)
        open_lines, logged = opener(text_lines)
        with pytest.raises(SchemaError) as read:
            ingest(open_lines, None)
        assert str(read.value) == str(scan.value) == (
            "rejected 999 of first 1000 lines; wrong schema (most: bad column count)"
        )
        # The read's refusal is not final, and the scan raises its own.
        assert len(logged) == 2

    def test_a_bail_against_a_week_that_moves_later_is_not_final(self):
        # Against the week of line 2, the next thousand lines are negative
        # leg durations, and the read bails out; the last line moves the
        # week a week earlier, where they all lie outside it.
        text_lines = lines(
            "C1,R,FIX,B1,S1,2008-04-08T07:30,,",
            *["C1,R,DST,B1,S1,2008-04-08T08:00,S2,2008-04-08T07:00"] * 1000,
            "C1,R,FIX,B1,S1,2008-04-01T07:30,,",
        )
        with pytest.raises(SchemaError) as scan:
            derived(text_lines)
        with pytest.raises(SchemaError) as read:
            ingest(opener(text_lines)[0], None)
        assert str(read.value) == str(scan.value) == (
            "rejected 1000 of first 1000 lines; wrong schema (most: outside observation week)"
        )

    @pytest.mark.parametrize("wrong", [400, 600])
    def test_a_bail_with_no_boarding_that_parses_is_the_scans(self, wrong):
        # No line's reason depends on the week, but the scan raises its
        # own error, counting the wrong column counts alone, when they are
        # a majority of the first thousand lines.
        text_lines = lines(*["C1,R,FIX,B1,S1,tuesday,,"] * (1000 - wrong), *["C1,R,FIX,B1"] * wrong)
        with pytest.raises(SchemaError) as scan:
            derived(text_lines)
        with pytest.raises(SchemaError) as read:
            ingest(opener(text_lines)[0], None)
        assert str(read.value) == str(scan.value)
        assert str(scan.value).startswith(f"rejected {wrong if wrong > 500 else 1000} of first 1000 lines")


class TestReadConfig:
    def test_values_parse_by_field_type(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text(
            "# comment\n\n"
            "year1 = a.csv\n"
            "taz=\n"
            "center=116.5,39.75\n"
            "stay_min=300\n"
            "change_km=2.5\n"
            "week2_start=2010-04-05\n"
        )
        assert read_config(str(p), RunConfig) == {
            "year1": "a.csv",
            "taz": "",
            "center": (116.5, 39.75),
            "stay_min": 300,
            "change_km": 2.5,
            "week2_start": date(2010, 4, 5),
        }

    @pytest.mark.parametrize("text", ["20080407", "2008-4-7", "2008-W15-1", " 2008-04-07"])
    def test_date_must_be_exactly_yyyy_mm_dd(self, text):
        assert parse_date("2008-04-07") == date(2008, 4, 7)
        with pytest.raises(ValueError):
            parse_date(text)

    @pytest.mark.parametrize("text", ["116.4", "1,2,3", "a,b"])
    def test_coord_is_one_lon_lat_pair(self, text):
        assert parse_coord("116.4,39.9") == (116.4, 39.9)
        with pytest.raises(ValueError):
            parse_coord(text)
