"""Reading and validating smartcard transaction logs, stop registry files and
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
built.  :func:`ingest` reads a file with no configured week start the
same way, against the week of the earliest boarding among its first
lines, and starts over once if a later line boards earlier; only a file
it cannot settle so is scanned by :func:`derive_week_start` for its
earliest boarding date and read against that week.  Each card's rides
are one int array, four ints per ride: its boarding and alighting
minutes and stops, all a rule reads of a ride.  The arrays hold unsigned
16-bit ints until a ride does not fit, and then wider ones.  A stop is
held as its code: its id's rank in the registry the read was given.  A
read given none keeps no stop.  A read given card ids, such as an
earlier year's, keys those cards' rides by the given id strings.

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
from functools import partial
from itertools import chain, islice
from struct import Struct
from struct import error as StructError
from typing import Callable, Collection, Iterable, Iterator, Mapping

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
# A read with no week start first tries the week that starts on the
# earliest boarding date among this many lines after the header.
HEAD_LINES = 100

OUTSIDE_WEEK = "outside observation week"

# A file whose rejection rate exceeds this fraction is treated as being in
# the wrong schema entirely rather than merely dirty.
FATAL_REJECT_FRACTION = 0.5

# One ride of one card: (board_min, board_stop, alight_stop, alight_min),
# each field a non-negative int.  A card's rides are kept as one array,
# four ints per ride in file order, in the narrowest of RIDE_TYPECODES
# that holds every ride of the read; ride_tuples re-forms the tuples.  A
# stop is held as its code, its id's 1-based rank in the registry the read
# was given (see stop_codes; a registry's geo.PlaceIndex holds its codes
# and each code's place); a read given none holds 0 for every stop.  Code
# 0 is no alighting, and a fixed-fare ride has alight_stop 0 and
# alight_min equal to board_min.  Rides sort by boarding time, then by
# their stops in the order their ids give, then by alighting time; rides
# equal in all four walk alike.
Ride = tuple[int, int, int, int]
RIDE_FIELDS = 4
# The typecodes a ride array takes, narrowest first: unsigned 16-bit ints
# hold every minute of a week and every code of a registry of up to
# 65,535 stops, then 32-bit and 64-bit ints.
RIDE_TYPECODES = "Hiq"
# The packed form of one ride in each typecode a ride array takes.
RIDE_STRUCTS = {typecode: Struct(f"{RIDE_FIELDS}{typecode}") for typecode in RIDE_TYPECODES}


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


def _day(minute: int) -> date:
    """The date of ``minute``, in :func:`parse_minute` units."""
    return date.fromordinal(minute // DAY_MINUTES + 1)


def _clean(line: str) -> str:
    return line.rstrip("\r\n")


def _bail_early(rejected: int, seen: int, reasons: Iterable[str]) -> None:
    # Bail out early on files that are clearly not in this schema.
    if seen >= 1000 and rejected * 2 > seen:
        raise _wrong_schema(rejected, f"first {seen}", reasons)


def _wrong_schema(rejected: int, lines: str, reasons: Iterable[str]) -> SchemaError:
    """The error for a file that too many of its lines reject, naming their most common reason."""
    most = Counter(reasons).most_common(1)[0][0]
    return SchemaError(f"rejected {rejected} of {lines} lines; wrong schema (most: {most})")


def stop_codes(stop_ids: Iterable[str]) -> dict[str, int]:
    """Each stop id's code: its 1-based rank among the sorted ids.

    Codes sort as the ids do.  Code 0 is left for no alighting, which
    sorts first, as "" does among the ids.
    """
    return {sid: code for code, sid in enumerate(sorted(stop_ids), 1)}


def ride_tuples(rides: array) -> Iterator[Ride]:
    """The rides of a card's int array, one tuple each."""
    return RIDE_STRUCTS[rides.typecode].iter_unpack(rides)


@dataclass
class Transactions:
    """One transactions file read into each card's rides.

    ``rides`` maps each card with a kept line to its kept rides in file
    order, as one int array of :data:`Ride` fields, four per ride; every
    card's array has the typecode of :data:`RIDE_TYPECODES` that the read
    ended on (see :func:`read_transactions`).  A card the read was seeded
    with is keyed by the id object it was given.  Each stop field holds
    the stop's code in the registry the read was given, or 0 when it was
    given none.  A line is kept when it is accepted and, when a stop
    registry is given, both of its stops are listed.
    ``students`` holds the cards with a kept student line.  ``parsed``
    counts the accepted lines, those dropped for an unknown stop
    included, and ``unmatched`` counts each unknown stop id once per
    dropped line that names it.  ``week`` is the one week every line was
    checked against: the configured one or, for a file with none, the
    one that starts on its earliest boarding date that parses, which
    :func:`ingest` takes from its read.
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


def take_header(it: Iterator[str], expected: str, kind: str) -> None:
    """Take the header off a ``kind`` stream; an empty stream reads as a header with no lines."""
    header = _clean(next(it, expected))
    if header != expected:
        raise SchemaError(f"unexpected {kind} header: {header!r}")


def derive_week_start(lines: Iterable[str]) -> date:
    """The earliest boarding date that parses on any eight-column data line.

    Lines rejected for another reason count too.  :data:`DEFAULT_WEEK_START`
    when no boarding time parses.  An accepted boarding text is fixed-width
    ``YYYY-MM-DDTHH:MM``, so its text order is its time order: the distinct
    texts are parsed in sorted order up to the first that parses.  A
    wrong header, or lines of another column count that bail
    :func:`read_transactions` out early whatever the week, raise its
    :class:`SchemaError` without reading the rest of the file.
    """
    it = iter(lines)
    take_header(it, TRANSACTIONS_HEADER, "transactions")
    boards = set()
    blank = wrong = 0
    for line_no, raw in enumerate(it, start=2):
        parts = raw.split(",")
        if len(parts) == 8:
            boards.add(parts[5])
        elif len(parts) == 1 and not raw.rstrip("\r\n"):
            blank += 1
        else:
            wrong += 1
            # The reader rejects each of these too, so it bails at this line or before.
            _bail_early(wrong, line_no - 1 - blank, ("bad column count",))
    minutes = _Minutes(0)
    first = next((t for t in map(minutes.__getitem__, sorted(boards)) if t is not None), None)
    return DEFAULT_WEEK_START if first is None else _day(first)


def read_transactions(
    lines: Iterable[str],
    week_start: date,
    codes: Mapping[str, int] | None = None,
    cards: Iterable[str] = (),
) -> Transactions:
    """Read a transaction stream once into each card's rides.

    Rows are checked against the week starting on ``week_start``; a file
    with no configured start is read by :func:`ingest`, which takes the
    start from the read itself.
    ``codes`` is the stop registry as :func:`stop_codes` gives it: a line
    naming a stop outside it is dropped, and the kept stop fields hold
    its codes.  Without it no line is dropped and no stop is kept: both
    stop fields of every ride hold 0.

    ``cards`` seeds the rides with card ids held elsewhere, such as an
    earlier year's: a seeded card's rides are keyed by the given ``str``
    object, not by an equal one split from its lines, so the two reads
    share one string per card.  A seeded card with no kept line is left
    out of ``rides``, as if it had not been seeded.

    Each card's rides are one ``array('H')`` of unsigned 16-bit ints,
    which hold every minute of the week and every code of a registry of
    up to 65,535 stops.  The first ride with a field that does not fit
    turns every card's array into the narrowest wider typecode that
    holds it, ``array('i')`` or ``array('q')``, for the rest of the
    read: a larger registry widens the read at its first ride past code
    65,535, and a distance-fare ride may alight any time after it boards,
    up to the end of the calendar, past 32 bits.

    Every data line is either accepted or lands in the rejections, in
    line order.  Raises :class:`SchemaError` when the header is wrong or
    when more than half of the data lines are rejected.  Fields are split
    on bare commas; the schema has no quoting and ids containing
    separators are rejected as a column-count error.
    """
    # A start too late for seven days raises before any line is read.
    ObservationWeek(week_start)
    return _read(lines, week_start, codes, cards, provisional=False)


def ingest(
    source: str | Callable[[], Iterable[str]],
    week_start: date | None,
    codes: Mapping[str, int] | None = None,
    cards: Collection[str] = (),
) -> Transactions:
    """Read a transactions file against ``week_start`` or, without one, the week it derives.

    ``source`` is the file's path, or a function that gives its lines
    afresh on each call.  ``codes`` and ``cards`` are as for
    :func:`read_transactions`; ``cards`` is iterated once per read.

    Without ``week_start`` the result is, field for field, the read
    against the start :func:`derive_week_start` finds, but the file is
    not scanned for it first.  The read tries the week that starts on
    the earliest boarding date that parses, on any eight-column line,
    among the :data:`HEAD_LINES` lines after the header.  A later line
    that boards before that week starts the read over once, with its
    date.  The scan and a read against its week follow a second such
    line, an early refusal of the file as in the wrong schema, or a head
    with no boarding that parses.  So a time-sorted file is read once,
    and no file more than four times.
    """
    opener = partial(iter_lines, source) if isinstance(source, str) else source
    if week_start is not None:
        return read_transactions(opener(), week_start, codes, cards)
    read = _read(opener(), None, codes, cards, provisional=True)
    if isinstance(read, date):
        read = _read(opener(), read, codes, cards, provisional=True)
    if isinstance(read, Transactions):
        return read
    week_start = derive_week_start(opener())
    return read_transactions(opener(), week_start, codes, cards)


def _read(
    lines: Iterable[str],
    week_start: date | None,
    codes: Mapping[str, int] | None,
    cards: Iterable[str],
    provisional: bool,
) -> Transactions | date | None:
    """The read of :func:`read_transactions`, against ``week_start`` or the week its first lines give.

    Without ``week_start``, the week starts on the earliest boarding date
    that parses on an eight-column line among the :data:`HEAD_LINES`
    lines after the header.  When none parses there, the result is None,
    or the read against :data:`DEFAULT_WEEK_START` if the file ends.  A
    ``provisional`` read stops at the first eight-column line that boards
    before its week, whatever else rejects the line, and returns that
    line's boarding date; its early refusal of the file as in the wrong
    schema returns None.
    """
    it = iter(lines)
    take_header(it, TRANSACTIONS_HEADER, "transactions")
    if week_start is None:
        head = list(islice(it, HEAD_LINES))
        minutes = _Minutes(0)
        boards = (minutes[parts[5]] for parts in (raw.split(",") for raw in head) if len(parts) == 8)
        first = min((t for t in boards if t is not None), default=None)
        if first is None and len(head) == HEAD_LINES:
            return None
        week_start = DEFAULT_WEEK_START if first is None else _day(first)
        it = chain(head, it)

    minutes = _Minutes((week_start.toordinal() - 1) * DAY_MINUTES)
    stop_code = defaultdict(int) if codes is None else {"": 0, **codes}
    typecode = RIDE_TYPECODES[0]
    pack = RIDE_STRUCTS[typecode].pack
    # A seeded card with no ride yet holds None; its first ride keeps the given key.
    by_card: dict[str, array | None] = dict.fromkeys(cards)
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
                        # Every card's array widens to the narrowest
                        # typecode that holds this ride; 64-bit ints hold any.
                        for typecode in RIDE_TYPECODES[RIDE_TYPECODES.index(typecode) + 1:]:
                            pack = RIDE_STRUCTS[typecode].pack
                            try:
                                ride = pack(board, b, a, alight)
                                break
                            except StructError:
                                pass
                        for card, rides in by_card.items():
                            if rides is not None:
                                by_card[card] = array(typecode, rides)
                    rides = by_card.get(card_id)
                    if rides is None:
                        by_card[card_id] = array(typecode, ride)
                    else:
                        rides.frombytes(ride)
                    if card_type == CARD_STUDENT:
                        students.add(card_id)
                    continue
        if provisional and len(parts) == 8 and (t := minutes[parts[5]]) is not None and t < 0:
            return _day(minutes.base + t)
        rejections.append(Rejection(line_no, reason))
        try:
            _bail_early(len(rejections), line_no - 1 - blank, (r.reason for r in rejections))
        except SchemaError:
            if provisional:
                # Not final: an earlier week may judge these lines otherwise,
                # and the scan may refuse the file at a later line.
                return None
            raise

    week = ObservationWeek(week_start)
    total = line_no - 1 - blank
    if total and len(rejections) > total * FATAL_REJECT_FRACTION:
        raise _wrong_schema(len(rejections), str(total), (r.reason for r in rejections))
    for card in [card for card, rides in by_card.items() if rides is None]:
        del by_card[card]
    return Transactions(week, by_card, students, rejections, unmatched, total - len(rejections))


def load_stops(lines: Iterable[str]) -> tuple[dict[str, tuple[float, float]], list[Rejection]]:
    """Read a stop registry as stop id -> (lon, lat).

    Bad lines are rejected individually.  Two lines that both pass their
    checks and name one id are a fatal SchemaError, in either order: two
    coordinates for one stop would silently corrupt every distance
    downstream.  A rejected line never conflicts with a kept one.
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
        try:
            lon = float(lon_s)
            lat = float(lat_s)
        except ValueError:
            rejections.append(Rejection(line_no, "bad coordinate"))
            continue
        if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
            rejections.append(Rejection(line_no, "coordinate out of range"))
            continue
        if stop_id in stops:
            raise SchemaError(f"duplicate stop_id {stop_id!r} at line {line_no}")
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
