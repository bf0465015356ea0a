"""Reading and validating smartcard transaction logs, stop registries and
``key=value`` config files.

:func:`iter_lines` is the only code in the package that opens a file for
reading: every input, the GeoJSON layers and the oracle's truth table
included, goes through it.  :func:`take_header` is the one header rule
for transactions, stops and truth files.

The transaction format is a plain CSV with one boarding (and, for
distance-based fares, one alighting) per line.  Fixed-fare lines carry no
alighting information at all; that asymmetry is the reason most of the
downstream inference works on stays between consecutive boardings rather
than on closed trips.

Parsing is strict but line-scoped: a malformed line is rejected with a
reason and a line number, never silently dropped, and never aborts the
run unless the rejection rate makes it obvious the file is not in this
schema at all.

:func:`read_transactions` reads a transactions file in one pass against a
fixed observation week: each line is split, checked, tested against the
stop registry and appended to its card's rides, so no list of all rows is
built.  A file with no configured week start is first scanned once by
:func:`derive_week_start` for its earliest boarding date.  Each card's
rides are one 32-bit int array, four ints per ride: its boarding and
alighting minutes and stops, all a rule reads of a ride.  A stop is
held as its code: its id's rank in the registry the read was given.  A
read given none keeps no stop.

Times are integers.  :func:`parse_minute` reads a timestamp as minutes
after 0001-01-01T00:00; an accepted row carries its times as minutes
after the start of its observation week, so day ``t // 1440`` is 0 to 6
inside the week.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from dataclasses import Field, dataclass, fields
from datetime import date, datetime, timedelta
from struct import Struct
from struct import error as StructError
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

# One ride of one card: (board_min, board_stop, alight_stop, alight_min),
# each field an int.  A card's rides are kept as one array, four ints per
# ride in file order; ride_tuples re-forms the tuples.  A stop is held as
# its code, its id's 1-based rank in the registry the read was given (see
# stop_codes; a registry's geo.PlaceIndex holds its codes and each code's
# place); a read given none holds 0 for every stop.  Code 0 is no
# alighting, and a fixed-fare ride has alight_stop 0 and alight_min equal
# to board_min.  Rides sort by boarding time, then by their stops in the
# order their ids give, then by alighting time; rides equal in all four
# walk alike.
Ride = tuple[int, int, int, int]
RIDE_FIELDS = 4


class SchemaError(Exception):
    """The input file cannot be interpreted under the expected schema."""


@dataclass(frozen=True)
class Rejection:
    line_no: int
    reason: str


@dataclass(frozen=True)
class ObservationWeek:
    """A seven-day observation window starting at midnight of ``start_date``.

    Times inside the window are minutes from its start.  All rule
    evaluation happens on the day indices of its Monday-to-Friday dates;
    weekend records are kept for chaining but carry no evidential weight.
    """

    start_date: date

    def __post_init__(self):
        if self.start_date > date.max - timedelta(days=6):
            raise ValueError(f"week start {self.start_date}: the week runs past {date.max}")

    @property
    def label(self) -> str:
        return str(self.start_date.year)

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


class _Minutes(dict):
    """Timestamp text -> minutes after ``base``, or None when it does not parse.

    A week has at most 10,080 distinct minutes, so each is parsed once.
    """

    def __init__(self, base: int):
        super().__init__()
        self.base = base

    def __missing__(self, text: str) -> int | None:
        try:
            t = parse_minute(text) - self.base
        except ValueError:
            t = None
        self[text] = t
        return t


def _clean(line: str) -> str:
    return line.rstrip("\r\n")


def _bail_early(rejected: int, seen: int) -> None:
    # Bail out early on files that are clearly not in this schema.
    if seen >= 1000 and rejected * 2 > seen:
        raise SchemaError(f"rejected {rejected} of first {seen} lines; wrong schema")


def stop_codes(stop_ids: Iterable[str]) -> dict[str, int]:
    """Each stop id's code: its 1-based rank among the sorted ids.

    Codes sort as the ids do.  Code 0 is left for no alighting, which
    sorts first, as "" does among the ids.
    """
    return {sid: code for code, sid in enumerate(sorted(stop_ids), 1)}


def ride_tuples(rides) -> Iterator[Ride]:
    """The rides of a card's flat int array, one tuple each."""
    return zip(*[iter(rides)] * RIDE_FIELDS)


@dataclass
class Transactions:
    """One transactions file read into each card's rides.

    ``rides`` maps each card id to its kept rides in file order, as one
    int array of :data:`Ride` fields, four per ride.  Each stop field
    holds the stop's code in the registry the read was given, or 0 when
    it was given none.  A line is kept when it is accepted and, when a
    stop registry is given, both of its stops are listed.
    ``students`` holds the cards with a kept student line.  ``parsed``
    counts the accepted lines, those dropped for an unknown stop
    included, and ``unmatched`` counts each unknown stop id once per
    dropped line that names it.  ``week`` is the one week every line was
    checked against: the configured one or, for a file with none, the
    one :func:`derive_week_start` scanned the file for.
    """

    week: ObservationWeek
    rides: dict[str, array]
    students: set[str]
    rejections: list[Rejection]
    unmatched: Counter[str]
    parsed: int

    @property
    def geocoded(self) -> int:
        """The number of kept lines."""
        return sum(map(len, self.rides.values())) // RIDE_FIELDS

    def card_type(self, card_id: str) -> str:
        return CARD_STUDENT if card_id in self.students else CARD_REGULAR


def take_header(it: Iterator[str], expected: str, kind: str) -> None:
    """Take the header off a ``kind`` stream; an empty stream reads as a header with no lines."""
    header = _clean(next(it, expected))
    if header != expected:
        raise SchemaError(f"unexpected {kind} header: {header!r}")


def derive_week_start(lines: Iterable[str]) -> date:
    """The earliest boarding date that parses on any eight-column data line.

    Lines rejected for another reason count too.  :data:`DEFAULT_WEEK_START`
    when no boarding time parses.  Each distinct boarding text is parsed
    once.  A wrong header, or lines of another column count that bail
    :func:`read_transactions` out early whatever the week, raise its
    :class:`SchemaError` without reading the rest of the file.
    """
    it = iter(lines)
    take_header(it, TRANSACTIONS_HEADER, "transactions")
    boards = set()
    blank = wrong = 0
    for line_no, raw in enumerate(it, start=2):
        parts = raw.rstrip("\r\n").split(",")
        if len(parts) == 8:
            boards.add(parts[5])
        elif parts == [""]:
            blank += 1
        else:
            wrong += 1
            # The reader rejects each of these too, so it bails at this line or before.
            _bail_early(wrong, line_no - 1 - blank)
    minutes = _Minutes(0)
    first = min((t for t in map(minutes.__getitem__, boards) if t is not None), default=None)
    return DEFAULT_WEEK_START if first is None else date.fromordinal(first // DAY_MINUTES + 1)


def read_transactions(
    lines: Iterable[str],
    week_start: date,
    codes: Mapping[str, int] | None = None,
) -> Transactions:
    """Read a transaction stream once into each card's rides.

    Rows are checked against the week starting on ``week_start``; a file
    with no configured start takes it from :func:`derive_week_start`.
    ``codes`` is the stop registry as :func:`stop_codes` gives it: a line
    naming a stop outside it is dropped, and the kept stop fields hold
    its codes.  Without it no line is dropped and no stop is kept: both
    stop fields of every ride hold 0.

    Each card's rides are one ``array('i')``.  A distance-fare ride may
    alight any time after it boards, up to the end of the calendar, so
    the first ride that does not fit in 32 bits turns every card's array
    into ``array('q')`` for the rest of the read.

    Every data line is either accepted or lands in the rejections, in
    line order.  Raises :class:`SchemaError` when the header is wrong or
    when more than half of the data lines are rejected.  Fields are split
    on bare commas; the schema has no quoting and ids containing
    separators are rejected as a column-count error.
    """
    week = ObservationWeek(week_start)
    it = iter(lines)
    take_header(it, TRANSACTIONS_HEADER, "transactions")

    minutes = _Minutes(week.start_minute)
    stop_code = defaultdict(int) if codes is None else {"": 0, **codes}
    typecode = "i"
    pack = Struct(f"{RIDE_FIELDS}i").pack
    by_card: dict[str, array] = {}
    students: set[str] = set()
    unmatched: Counter[str] = Counter()
    rejections: list[Rejection] = []
    line_no = 1
    blank = 0
    for line_no, raw in enumerate(it, start=2):
        parts = raw.split(",")
        if len(parts) != 8:
            # The line ending is stripped from the last field alone; a
            # blank line is the one one-field line left empty by it.
            if len(parts) == 1 and not raw.rstrip("\r\n"):
                blank += 1
                continue
            reason = "bad column count"
        else:
            card_id, card_type, fare_type, route_id, b_stop, b_time, a_stop, a_time = parts
            a_time = a_time.rstrip("\r\n")
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
            elif (board := minutes[b_time]) is None:
                reason = "bad board_time"
            elif not 0 <= board < WEEK_MINUTES:
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
                    try:
                        b = stop_code[b_stop]
                        a = stop_code[a_stop]
                    except KeyError:
                        unmatched.update({s for s in (b_stop, a_stop) if s not in stop_code})
                        continue
                    try:
                        ride = pack(board, b, a, alight)
                    except StructError:
                        typecode = "q"
                        pack = Struct(f"{RIDE_FIELDS}q").pack
                        for card, rides in by_card.items():
                            by_card[card] = array(typecode, rides)
                        ride = pack(board, b, a, alight)
                    rides = by_card.get(card_id)
                    if rides is None:
                        by_card[card_id] = array(typecode, ride)
                    else:
                        rides.frombytes(ride)
                    if card_type == CARD_STUDENT:
                        students.add(card_id)
                    continue
        rejections.append(Rejection(line_no, reason))
        _bail_early(len(rejections), line_no - 1 - blank)

    total = line_no - 1 - blank
    if total and len(rejections) > total * FATAL_REJECT_FRACTION:
        raise SchemaError(f"rejected {len(rejections)} of {total} lines; wrong schema")
    return Transactions(week, by_card, students, rejections, unmatched, total - len(rejections))


def load_stops(lines: Iterable[str]) -> tuple[dict[str, tuple[float, float]], list[Rejection]]:
    """Read a stop registry as stop id -> (lon, lat).

    Duplicate ids are a fatal SchemaError: two conflicting coordinates for
    one stop would silently corrupt every distance downstream.  Bad
    coordinate lines are rejected individually.
    """
    it = iter(lines)
    take_header(it, STOPS_HEADER, "stops")
    stops: dict[str, tuple[float, float]] = {}
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
        stops[stop_id] = (lon, lat)
    return stops, rejections


def iter_lines(path: str) -> Iterator[str]:
    """The lines of an input file, each with its line ending as written.

    Every input file of the package is read here: as UTF-8, with a leading
    byte order mark dropped.  A file that cannot be read or is not UTF-8
    text raises ValueError naming ``path``.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            yield from fh
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


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


def field_parser(f: Field):
    """The parser of a text value for the dataclass field ``f``.

    It is chosen by the field's annotation: ``int``, ``float``, ``date``,
    ``Coord`` or ``str``, each optionally ``| None``.  A config line and a
    command-line flag for the field both parse with it.
    """
    return _VALUE_PARSERS[f.type.removesuffix(" | None")]


def read_config(path: str, cls) -> dict:
    """The values of a ``key=value`` config file for the dataclass ``cls``.

    Blank lines and ``#`` comments are skipped.  Each value is parsed by
    :func:`field_parser` for its field.  The file is read by
    :func:`iter_lines`.  A line without ``=``, a key that is not a field
    and a value that does not parse raise ValueError.
    """
    parsers = {f.name: field_parser(f) for f in fields(cls)}
    values = {}
    for line in iter_lines(path):
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
