"""Reading and validating smartcard transaction logs, stop registries and
``key=value`` config files.

The transaction format is a plain CSV with one boarding (and, for
distance-based fares, one alighting) per line.  Fixed-fare lines carry no
alighting information at all; that asymmetry is the reason most of the
downstream inference works on stays between consecutive boardings rather
than on closed trips.

Parsing is strict but line-scoped: a malformed line is rejected with a
reason and a line number, never silently dropped, and never aborts the
run unless the rejection rate makes it obvious the file is not in this
schema at all.

Times are integers.  :func:`parse_minute` reads a timestamp as minutes
after 0001-01-01T00:00; an accepted row carries its times as minutes
after the start of its observation week, so day ``t // 1440`` is 0 to 6
inside the week.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, fields
from datetime import date, datetime, timedelta
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

TRANSACTIONS_HEADER = "card_id,card_type,fare_type,route_id,board_stop,board_time,alight_stop,alight_time"
STOPS_HEADER = "stop_id,lon,lat"

CARD_REGULAR = "R"
CARD_STUDENT = "S"
FARE_FIXED = "FIX"
FARE_DISTANCE = "DST"

DAY_MINUTES = 1440
WEEK_MINUTES = 7 * DAY_MINUTES

# Week start when none is configured and no boarding time parses.
DEFAULT_WEEK_START = date(1970, 1, 5)

OUTSIDE_WEEK = "outside observation week"

# A file whose rejection rate exceeds this fraction is treated as being in
# the wrong schema entirely rather than merely dirty.
FATAL_REJECT_FRACTION = 0.5

# One ride of one card: (board_min, route_id, board_stop, alight_stop,
# alight_min).  A fixed-fare ride has alight_stop "" and alight_min equal
# to board_min, so rides sort by boarding time with the other fields as
# tie-breakers.
Ride = tuple[int, str, str, str, int]
# One accepted transactions line: (card_id, card_type, ride).
Row = tuple[str, str, Ride]


class SchemaError(Exception):
    """The input file cannot be interpreted under the expected schema."""


@dataclass(frozen=True)
class Rejection:
    line_no: int
    reason: str


@dataclass(frozen=True, slots=True)
class Stop:
    stop_id: str
    lon: float
    lat: float


@dataclass(frozen=True)
class ObservationWeek:
    """A seven-day observation window starting at midnight of ``start_date``.

    Times inside the window are minutes from its start.  All rule
    evaluation happens on the day indices of its Monday-to-Friday dates;
    weekend records are kept for chaining but carry no evidential weight.
    """

    label: str
    start_date: date

    @classmethod
    def starting(cls, start: date) -> ObservationWeek:
        return cls(str(start.year), start)

    @property
    def start_minute(self) -> int:
        """The window start in :func:`parse_minute` units."""
        return (self.start_date.toordinal() - 1) * DAY_MINUTES

    @property
    def dates(self) -> tuple[date, ...]:
        return tuple(self.start_date + timedelta(days=i) for i in range(7))

    @property
    def weekdays(self) -> frozenset[int]:
        """Day indices (0 is ``start_date``) of the Monday-to-Friday dates."""
        return frozenset(i for i, d in enumerate(self.dates) if d.weekday() < 5)

    def format(self, t: int) -> str:
        """The timestamp text of ``t`` minutes from the window start."""
        return format_minute(self.start_minute + t)


def format_minute(t: int) -> str:
    """``YYYY-MM-DDTHH:MM`` for ``t`` minutes after 0001-01-01T00:00."""
    day, minute = divmod(t, DAY_MINUTES)
    d = date.fromordinal(day + 1)
    return f"{d.year:04d}-{d.month:02d}-{d.day:02d}T{minute // 60:02d}:{minute % 60:02d}"


def parse_minute(text: str) -> int:
    """Minutes after 0001-01-01T00:00 of the timestamp ``YYYY-MM-DDTHH:MM``.

    Only the exact form :func:`format_minute` writes is accepted, so the
    two round-trip byte for byte.  (``datetime.fromisoformat`` alone also
    takes ISO week dates and UTC offsets on newer Pythons.)
    """
    if len(text) != 16 or text[10] != "T":
        raise ValueError(f"not a minute timestamp: {text!r}")
    t = datetime.fromisoformat(text)
    minute = (t.toordinal() - 1) * DAY_MINUTES + t.hour * 60 + t.minute
    if format_minute(minute) != text:
        raise ValueError(f"not a minute timestamp: {text!r}")
    return minute


class WeekRows(list):
    """Accepted rows of one transactions file in file order, with the week
    their minutes count from."""

    __slots__ = ("week",)

    def __init__(self, week: ObservationWeek | None = None):
        super().__init__()
        self.week = week


class _Minutes(dict):
    """Timestamp text -> minutes after ``base``, or None when it does not parse.

    A week has at most 10,080 distinct minutes, so each is parsed once.
    With no base given, the first timestamp that parses fixes it at the
    midnight before it.
    """

    def __init__(self, base: int | None):
        super().__init__()
        self.base = base

    def __missing__(self, text: str) -> int | None:
        try:
            t = parse_minute(text)
        except ValueError:
            t = None
        else:
            if self.base is None:
                self.base = t - t % DAY_MINUTES
            t -= self.base
        self[text] = t
        return t


def _clean(line: str) -> str:
    return line.rstrip("\r\n")


def _bail_early(rejected: int, seen: int) -> None:
    # Bail out early on files that are clearly not in this schema.
    if seen >= 1000 and rejected * 2 > seen:
        raise SchemaError(f"rejected {rejected} of first {seen} lines; wrong schema")


def parse_transactions(
    lines: Iterable[str], week: ObservationWeek | None = None
) -> tuple[WeekRows, list[Rejection]]:
    """Validate a transaction stream against its header and observation week.

    The stream is read once.  Without ``week``, the week starts on the
    earliest boarding date that parses on any eight-column line, whether
    that line is accepted or not (:data:`DEFAULT_WEEK_START` when none
    parses).

    Returns the accepted rows in file order, carrying their week, together
    with the per-line rejections in line order.  Every data line lands in
    exactly one of the two lists.  Raises :class:`SchemaError` when the
    header is wrong or when more than half of the data lines are rejected.
    Fields are split on bare commas; the schema has no quoting and ids
    containing separators are rejected as a column-count error.
    """
    it = iter(lines)
    try:
        header = _clean(next(it))
    except StopIteration:
        return WeekRows(week or ObservationWeek.starting(DEFAULT_WEEK_START)), []
    if header != TRANSACTIONS_HEADER:
        raise SchemaError(f"unexpected transactions header: {header!r}")

    derive = week is None
    minutes = _Minutes(None if derive else week.start_minute)
    pool: dict[str, str] = {}
    intern = pool.setdefault
    rows = WeekRows(week)
    rejections: list[Rejection] = []
    blank_lines: list[int] = []
    # Board minute of lines rejected after the week check passed; only a
    # derived week that moves earlier later in the file reads them.
    checked_board: dict[int, int] = {}
    # The week in minutes after ``minutes.base``.  A derived week starts on
    # the earliest boarding day seen so far, so it can only move earlier.
    lo, hi = 0, WEEK_MINUTES
    total = 0
    line_no = 1
    for line_no, raw in enumerate(it, start=2):
        line = raw.rstrip("\r\n")
        if not line:
            blank_lines.append(line_no)
            continue
        total += 1
        parts = line.split(",")
        if len(parts) != 8:
            reason = "bad column count"
        else:
            card_id, card_type, fare_type, route_id, b_stop, b_time, a_stop, a_time = parts
            board = minutes[b_time]
            if derive and board is not None and board < lo:
                lo = board - board % DAY_MINUTES
                hi = lo + WEEK_MINUTES
            if not card_id:
                reason = "empty card_id"
            elif card_type != CARD_REGULAR and card_type != CARD_STUDENT:
                reason = "unknown card type"
            elif fare_type != FARE_FIXED and fare_type != FARE_DISTANCE:
                reason = "unknown fare type"
            elif not route_id:
                reason = "empty route_id"
            elif not b_stop:
                reason = "empty board_stop"
            elif board is None:
                reason = "bad board_time"
            elif not lo <= board < hi:
                reason = OUTSIDE_WEEK
            else:
                if fare_type == FARE_FIXED:
                    reason = "fixed fare with alight fields" if a_stop or a_time else None
                    alight = board
                elif not a_stop or not a_time:
                    reason = "distance fare missing alight fields"
                else:
                    alight = minutes[a_time]
                    if alight is None:
                        reason = "bad alight_time"
                    elif alight < board:
                        reason = "negative leg duration"
                    else:
                        reason = None
                if reason is None:
                    rows.append(
                        (
                            intern(card_id, card_id),
                            card_type,
                            (board, intern(route_id, route_id), intern(b_stop, b_stop),
                             intern(a_stop, a_stop), alight),
                        )
                    )
                    continue
                checked_board[line_no] = board
        rejections.append(Rejection(line_no, reason))
        _bail_early(len(rejections), total)

    if derive:
        if lo:
            rows, rejections = _move_week_start(
                rows, rejections, checked_board, blank_lines, line_no, lo
            )
        if minutes.base is None:
            start = DEFAULT_WEEK_START
        else:
            start = date.fromordinal((minutes.base + lo) // DAY_MINUTES + 1)
        rows.week = ObservationWeek.starting(start)
    if total and len(rejections) > total * FATAL_REJECT_FRACTION:
        raise SchemaError(f"rejected {len(rejections)} of {total} lines; wrong schema")
    return rows, rejections


def _move_week_start(
    rows: WeekRows,
    rejections: list[Rejection],
    checked_board: dict[int, int],
    blank_lines: list[int],
    last_line: int,
    lo: int,
) -> tuple[WeekRows, list[Rejection]]:
    """Redo the week check after a derived week start moved earlier.

    Lines checked against the later start may now lie a week or more after
    the final one; they become ``outside observation week`` rejections,
    also where an alighting check had rejected them, since the week check
    comes first.  Kept rows shift to minutes from the final start.  The early-bail rule is replayed over the merged
    rejections in line order, as if the start had been known from line 2.
    """
    skipped = {r.line_no for r in rejections}.union(blank_lines)
    row_lines = (n for n in range(2, last_line + 1) if n not in skipped)
    hi = lo + WEEK_MINUTES
    kept = WeekRows()
    moved = [
        Rejection(r.line_no, OUTSIDE_WEEK) if checked_board.get(r.line_no, lo) >= hi else r
        for r in rejections
    ]
    for (card_id, card_type, (board, route_id, b_stop, a_stop, alight)), n in zip(rows, row_lines):
        if board >= hi:
            moved.append(Rejection(n, OUTSIDE_WEEK))
        else:
            kept.append((card_id, card_type, (board - lo, route_id, b_stop, a_stop, alight - lo)))
    moved.sort(key=attrgetter("line_no"))
    for k, r in enumerate(moved, start=1):
        _bail_early(k, r.line_no - 1 - bisect_right(blank_lines, r.line_no))
    return kept, moved


def load_stops(lines: Iterable[str]) -> tuple[dict[str, Stop], list[Rejection]]:
    """Read a stop registry into a dict keyed by stop id.

    Duplicate ids are a fatal SchemaError: two conflicting coordinates for
    one stop would silently corrupt every distance downstream.  Bad
    coordinate lines are rejected individually.
    """
    it = iter(lines)
    try:
        header = _clean(next(it))
    except StopIteration:
        return {}, []
    if header != STOPS_HEADER:
        raise SchemaError(f"unexpected stops header: {header!r}")
    stops: dict[str, Stop] = {}
    rejections: list[Rejection] = []
    for line_no, raw in enumerate(it, start=2):
        line = _clean(raw)
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            rejections.append(Rejection(line_no, "bad column count"))
            continue
        stop_id, lon_s, lat_s = parts
        if not stop_id:
            rejections.append(Rejection(line_no, "empty stop_id"))
            continue
        if stop_id in stops:
            raise SchemaError(f"duplicate stop_id {stop_id!r} at line {line_no}")
        try:
            lon = float(lon_s)
            lat = float(lat_s)
        except ValueError:
            rejections.append(Rejection(line_no, "bad coordinate"))
            continue
        if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
            rejections.append(Rejection(line_no, "coordinate out of range"))
            continue
        stops[stop_id] = Stop(stop_id, lon, lat)
    return stops, rejections


def geocode(rows: Iterable[Row], known_stops: Mapping[str, object]) -> tuple[list[Row], Counter[str]]:
    """Drop rows naming stops absent from the registry.

    Returns the surviving rows and a counter of unmatched stop ids.  A row
    is dropped if either end references an unknown stop; both unknown ids
    on one row are counted.
    """
    kept: list[Row] = []
    unmatched: Counter[str] = Counter()
    for row in rows:
        _board, _route, b_stop, a_stop, _alight = row[2]
        if b_stop in known_stops:
            if not a_stop or a_stop in known_stops:
                kept.append(row)
                continue
        else:
            unmatched[b_stop] += 1
        if a_stop and a_stop not in known_stops:
            unmatched[a_stop] += 1
    return kept, unmatched


class CardGroups(dict):
    """Card id -> that card's rides in file order, with the ids of the
    student cards.

    A card with any student row is a student card, whatever the order of
    its rows.
    """

    __slots__ = ("students",)

    def card_type(self, card_id: str) -> str:
        return CARD_STUDENT if card_id in self.students else CARD_REGULAR


def group_by_card(rows: Iterable[Row]) -> CardGroups:
    by_card = CardGroups()
    students = by_card.students = set()
    for card_id, card_type, ride in rows:
        rides = by_card.get(card_id)
        if rides is None:
            by_card[card_id] = [ride]
        else:
            rides.append(ride)
        if card_type == CARD_STUDENT:
            students.add(card_id)
    return by_card


def iter_lines(path: str) -> Iterator[str]:
    """The lines of a CSV input, without a leading UTF-8 byte order mark."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        yield from fh


def parse_date(text: str) -> date:
    """A date written exactly as ``YYYY-MM-DD``."""
    d = date.fromisoformat(text)
    if d.isoformat() != text:
        raise ValueError(f"expected YYYY-MM-DD: {text!r}")
    return d


def parse_coord(text: str) -> tuple[float, float]:
    """A ``lon,lat`` pair."""
    lon, lat = text.split(",")
    return float(lon), float(lat)


_VALUE_PARSERS = {"int": int, "float": float, "date": parse_date, "Coord": parse_coord, "str": str}


def read_config(path: str, cls) -> dict:
    """The values of a ``key=value`` config file for the dataclass ``cls``.

    Blank lines and ``#`` comments are skipped.  Each value is parsed by
    the annotation of its field: ``int``, ``float``, ``date``, ``Coord``
    or ``str``, each optionally ``| None``.  A file that cannot be opened,
    a line without ``=``, a key that is not a field and a value that does
    not parse raise ValueError.
    """
    parsers = {f.name: _VALUE_PARSERS[f.type.removesuffix(" | None")] for f in fields(cls)}
    values = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from None
    with fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, text = (s.strip() for s in line.partition("="))
            if not eq:
                raise ValueError(f"bad config line: {line!r}")
            if key not in parsers:
                raise ValueError(f"unknown config key: {key!r}")
            try:
                values[key] = parsers[key](text)
            except ValueError as exc:
                raise ValueError(f"bad value for {key}: {text!r} ({exc})") from None
    return values
