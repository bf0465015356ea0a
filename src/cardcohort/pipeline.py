"""End-to-end batch pipeline: two observation years to cohort reports.

Year 1, year 2 and the follow-up count each read their own transactions
file, so with ``threads > 1`` they run in separate processes: year 1 in
the parent, the other two in workers, one after the other at
``threads=2``.  The rest runs in the parent as soon as year 2 is back;
a follow-up count still in a worker is waited for when the result's
follow-up is first read, which the report writer does late, so the two
overlap.  Each worker is started with its jobs in hand and sends each
result back on that job's own pipe.  The years may name one stop
registry, as every synthetic bundle does: the parent then loads and
clusters it once, before any worker starts, hands that copy to year 2's
worker, and takes year 2 back without it.  So the years of one registry
share one place index at every thread count.  In one process they
share card ids too: year 2 is read seeded with year 1's, so a card of
both years is held by one ``str``; a year read in a worker keeps its own.
Each year's cards are profiled in sorted card order straight into the
year's columns, each card's rides let go as its values are appended, and job
results are gathered in fixed job order, so the output bytes cannot
depend on the thread count.  No FR's delta is stored: the result holds
the FRs and the rules of their deltas, which
:meth:`~cardcohort.cohort.Deltas.rows` makes in one pass, and the FR
homes for the TAZ layer are counted per year-2 place, by position in the
year's columns.  A registry is held as its place index, one table of
each stop's code, each code's place and each place's centroid: a year's
lines are read against its codes, its profiles name their places by id,
and each year's ids are looked up in its own place index.
"""

from __future__ import annotations

import gc
import logging
import math
import os
from collections import Counter
from contextlib import closing, contextmanager
from dataclasses import dataclass
from datetime import date
from functools import cache, cached_property
from typing import Iterable, Mapping, NamedTuple

from . import infer
from .cohort import CHANGE_KM_DEFAULT, Deltas
from .geo import CLUSTER_RADIUS_M, DEFAULT_CENTER, Coord, PlaceIndex, Region, build_places, haversine_km
from .geo import load_region, load_region_features, point_in_region
from .groups import DeprivationSummary, score_deprivation
from .ingest import RIDE_FIELDS, STOPS_HEADER, TRANSACTIONS_HEADER, ObservationWeek, Rejection, SchemaError
from .ingest import derive_week_start, iter_lines, load_stops, read_transactions, take_header

log = logging.getLogger(__name__)


class MissingInputError(Exception):
    """A configured input path does not exist."""


# The RunConfig fields that name input files.
PATH_FIELDS = ("year1", "year2", "stops1", "stops2", "followup", "r4", "taz")

# The header and kind of each input file that has a header rule.
TRANSACTIONS = (TRANSACTIONS_HEADER, "transactions")
STOPS = (STOPS_HEADER, "stops")
HEADERS = {"year1": TRANSACTIONS, "year2": TRANSACTIONS, "followup": TRANSACTIONS, "stops1": STOPS, "stops2": STOPS}


@dataclass
class RunConfig:
    year1: str
    year2: str
    stops1: str
    stops2: str
    followup: str | None = None
    r4: str | None = None
    taz: str | None = None
    center: Coord = DEFAULT_CENTER
    stay_mode: str = infer.PERMISSIVE
    home_rule: str = infer.HOME_RULE_RELAXED
    stay_min: int = infer.STAY_MIN_DEFAULT
    cluster_m: float = CLUSTER_RADIUS_M
    change_km: float = CHANGE_KM_DEFAULT
    threads: int = 1
    week1_start: date | None = None
    week2_start: date | None = None
    followup_start: date | None = None

    def validate(self) -> None:
        # Written so that NaN fails every comparison and is rejected.
        if self.stay_min <= 0:
            raise ValueError("stay_min must be positive")
        if not 0 < self.cluster_m < math.inf:
            raise ValueError("cluster_m must be positive and finite")
        if not 0 <= self.change_km < math.inf:
            raise ValueError("change_km must be non-negative and finite")
        lon, lat = self.center
        if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
            raise ValueError("center must be a lon,lat within [-180, 180] x [-90, 90]")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.stay_mode not in infer.STAY_MODES:
            raise ValueError(f"unknown stay_mode: {self.stay_mode!r}")
        if self.home_rule not in infer.HOME_RULES:
            raise ValueError(f"unknown home_rule: {self.home_rule!r}")
        # ObservationWeek refuses a start that leaves no room for seven days.
        for start in (self.week1_start, self.week2_start, self.followup_start):
            if start is not None:
                ObservationWeek(start)
        paths = {key: getattr(self, key) for key in PATH_FIELDS}
        empty = [key for key, p in paths.items() if p == ""]
        if empty:
            raise MissingInputError(
                f"empty path for {', '.join(empty)} (leave an optional input out by omitting its key)"
            )
        require_files([(p, HEADERS.get(key)) for key, p in paths.items() if p is not None])


def require_files(inputs: list[tuple[str, tuple[str, str] | None]]) -> None:
    """Refuse inputs that are not readable regular files or start with the wrong header, before any work.

    ``inputs`` pairs each path with the (header, kind) it must start with,
    or None for a file with no header rule.  Raises MissingInputError
    naming the paths that do not exist or are not regular files.  Each
    path then has its first line read by :func:`iter_lines`, whose
    ValueError names a file that cannot be read, and taken by
    :func:`take_header`, whose SchemaError is raised naming the path.
    """
    paths = [p for p, _ in inputs]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise MissingInputError(f"missing input file(s): {', '.join(missing)}")
    not_files = [p for p in paths if not os.path.isfile(p)]
    if not_files:
        raise MissingInputError(f"input path(s) not a regular file: {', '.join(not_files)}")
    for p, header in dict.fromkeys(inputs):
        with closing(iter_lines(p)) as lines:
            if header is None:
                next(lines, None)
                continue
            try:
                take_header(lines, *header)
            except SchemaError as exc:
                raise SchemaError(f"{p}: {exc}") from None


@dataclass
class YearData:
    """``profiles`` holds the year's cards as columns, in sorted card order."""

    week: ObservationWeek
    places: PlaceIndex
    profiles: infer.Profiles
    rejections: list[Rejection]
    stop_rejections: list[Rejection]
    unmatched: Counter
    parsed: int
    kept: int


@dataclass
class PipelineResult:
    config: RunConfig
    year1: YearData
    year2: YearData
    # The frequent riders, in card order, and the rules of their deltas; Deltas.rows makes them.
    deltas: Deltas
    # The follow-up count, (trips per card, rejections), or the worker
    # job still making it; None without a follow-up week.  The three
    # properties below read it.
    followup: tuple[Counter, list[Rejection]] | WorkerJob | None = None
    r4_region: Region | None = None
    taz_regions: list[Region] | None = None
    taz_counts: list[int] | None = None
    taz_outside: int | None = None
    taz_overlap: bool = False

    @cached_property
    def _scored(self) -> tuple[Counter, list[Rejection], DeprivationSummary | None]:
        """The follow-up's counts and rejections and the FRs' deprivation summary, made on first read.

        A count still in a worker is waited for here: its worker ends, and
        its exception is raised again with its type.
        """
        if self.followup is None:
            return Counter(), [], None
        if isinstance(self.followup, WorkerJob):
            try:
                counts, rejections = self.followup.result()
            finally:
                self.followup.close()
        else:
            counts, rejections = self.followup
        frs = self.deltas.cards
        summary = score_deprivation(frs, counts)
        log.info("followup: %d cards seen, %d of %d FRs scored", len(counts), summary.scored_count, len(frs))
        return counts, rejections, summary

    @property
    def followup_counts(self) -> Counter:
        return self._scored[0]

    @property
    def followup_rejections(self) -> list[Rejection]:
        return self._scored[1]

    @property
    def dep_summary(self) -> DeprivationSummary | None:
        return self._scored[2]

    def close(self) -> None:
        """End a follow-up count still in a worker, and wait for its worker to exit, without reading it."""
        if isinstance(self.followup, WorkerJob):
            self.followup.close()


@contextmanager
def _collector_off():
    """Keep the cyclic garbage collector off inside the block.

    The pipeline builds millions of short-lived acyclic containers (rows,
    per-card lists and counters) and no reference cycles, so a collection
    costs time and frees nothing.  The earlier state comes back on exit.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Registry(NamedTuple):
    """A stop registry, loaded and clustered once for every year that names it."""

    places: PlaceIndex
    rejections: list[Rejection]


def load_registry(path: str, cluster_m: float) -> Registry:
    """The stop registry at ``path``, its stops clustered into places within ``cluster_m``."""
    stops, rejections = load_stops(iter_lines(path))
    places = build_places(stops, cluster_m)
    log.info("%s: %d stops in %d places", path, len(stops), len(places))
    return Registry(places, rejections)


def _registry_key(stops_path: str) -> str:
    """The key a loaded registry is filed under, the same for every spelling of its path."""
    return os.path.realpath(stops_path)


@_collector_off()
def process_year(
    tx_path: str,
    stops_path: str,
    cfg: RunConfig,
    week_start: date | None,
    stays: dict[str, list[infer.Stay]] | None = None,
    registries: dict[str, Registry] | None = None,
    cards: Iterable[str] = (),
) -> YearData:
    """Profile one observation year.

    Without ``week_start``, the transactions file is scanned once for it
    before it is read.  When ``stays`` is a dict, each card's stays are
    stored in it as they are formed; otherwise no stay object is built.
    ``registries`` holds the registries already loaded by the caller, by
    path; the stop registry is loaded into it unless it is there.
    ``cards`` goes to :func:`read_transactions`: the year's cards among
    them are held by those id objects.
    """
    if registries is None:
        registries = {}
    key = _registry_key(stops_path)
    if key not in registries:
        registries[key] = load_registry(stops_path, cfg.cluster_m)
    places, stop_rejections = registries[key]

    week_start = week_start or derive_week_start(iter_lines(tx_path))
    tx = read_transactions(iter_lines(tx_path), week_start, places.codes, cards)
    kept = tx.geocoded
    log.info(
        "%s: %d records parsed, %d rejected, %d geocoded, %d cards",
        tx_path, tx.parsed, len(tx.rejections), kept, len(tx.rides),
    )
    weekdays = tx.week.weekdays
    # Many cards share a (home, work) pair.
    distance_km = cache(lambda home, work: haversine_km(places.centroid(home), places.centroid(work)))
    # Each card's values go straight onto the year's columns, and its
    # rides are let go as they do.
    rides, students = tx.rides, tx.students
    profiles = infer.Profiles()
    profiles.extend(
        (card, infer.profile_row(
            card in students, rides.pop(card), places.place_of, weekdays, distance_km,
            cfg.stay_mode, cfg.home_rule, cfg.stay_min, None if stays is None else stays.setdefault(card, []),
        ))
        for card in sorted(rides)
    )
    return YearData(tx.week, places, profiles, tx.rejections, stop_rejections, tx.unmatched, tx.parsed, kept)


@_collector_off()
def _count_followup(path: str, week_start: date | None) -> tuple[Counter, list[Rejection]]:
    """Accepted follow-up rows per card.

    Follow-up rows are counted as parsed, without geocoding: a row naming
    a stop absent from the registries still counts as a trip.
    """
    week_start = week_start or derive_week_start(iter_lines(path))
    tx = read_transactions(iter_lines(path), week_start)
    return Counter({card: len(rides) // RIDE_FIELDS for card, rides in tx.rides.items()}), tx.rejections


def aggregate_taz(homes: Mapping[Coord, int], regions: list[Region]) -> tuple[list[int], int, bool]:
    """Assign the homes at each centroid to the first region containing it.

    ``homes`` counts the homes at each distinct centroid, so each is
    tested against the regions once; a count of n stands for n homes.
    Returns per-region counts, the count outside all regions, and a flag
    telling whether any centroid fell inside more than one region.
    """
    counts = [0] * len(regions)
    outside = 0
    overlap = False
    for c, n in homes.items():
        hits = [i for i, r in enumerate(regions) if point_in_region(c, r)]
        if not hits:
            outside += n
            continue
        if len(hits) > 1:
            overlap = True
        counts[hits[0]] += n
    return counts, outside, overlap


def _pickled(fn, args, registry_held: bool) -> bytes:
    """``fn(*args)``, pickled in the worker that runs it.

    With ``registry_held`` the job is a :func:`process_year` whose stop
    registry the parent holds: its ``places`` and ``stop_rejections`` are
    left out, and the parent fills them in from its own copy.
    """
    import pickle

    result = fn(*args)
    if registry_held:
        result.places = result.stop_rejections = None
    return pickle.dumps(result)


def _work(jobs) -> None:
    """A worker's body: run each (fn, args, registry_held, connection) job in turn.

    Each job's pickled result, or its pickled exception, is sent back on
    the job's own connection, which is then closed.
    """
    import pickle

    for fn, args, registry_held, connection in jobs:
        try:
            data = _pickled(fn, args, registry_held)
        except BaseException as exc:
            data = pickle.dumps(exc)
        with connection:
            connection.send_bytes(data)


class WorkerJob:
    """A job a worker process may still be running, and the pipe its result comes back on.

    :meth:`result` waits for the job and returns its result, or raises
    the worker's exception again with its type; a worker that exits
    without sending the result is a RuntimeError that names its exit
    code.  It leaves the worker running, since the worker may have a
    later job.  :meth:`close` ends the worker and waits for it to exit.
    """

    def __init__(self, process, connection):
        self.process = process
        self.connection = connection

    def result(self):
        import pickle

        try:
            with self.connection:
                data = self.connection.recv_bytes()
        except EOFError:
            self.process.join()
            raise RuntimeError(f"a worker exited with code {self.process.exitcode} before it sent its result") from None
        value = pickle.loads(data)
        if isinstance(value, BaseException):
            raise value
        return value

    def close(self) -> None:
        self.connection.close()
        self.process.terminate()
        self.process.join()


def _start_workers(jobs: list[tuple], workers: int) -> list[WorkerJob]:
    """Start ``workers`` processes for ``jobs``, (fn, args, registry_held) each, one worker per job or one for all.

    Each worker gets its jobs as arguments, so under fork it inherits
    them and under spawn or forkserver ``start()`` pickles them once.
    The parent closes its copy of each pipe's sending end once the worker
    has started, so that a pipe reads as ended when its worker exits.
    """
    # Imported here so that a single-process run does not load
    # multiprocessing at all.
    import multiprocessing

    started = []
    try:
        for group in [jobs] if workers == 1 else [[job] for job in jobs]:
            pipes = [multiprocessing.Pipe(duplex=False) for _ in group]
            work = [(*job, send) for job, (_, send) in zip(group, pipes)]
            process = multiprocessing.Process(target=_work, args=(work,), daemon=True)
            process.start()
            for receive, send in pipes:
                send.close()
                started.append(WorkerJob(process, receive))
    except BaseException:
        for job in started:
            job.close()
        raise
    return started


def _run_jobs(cfg: RunConfig) -> tuple[YearData, YearData, tuple[Counter, list[Rejection]] | WorkerJob | None]:
    """Year 1, year 2 and, if configured, the follow-up count.

    With ``cfg.threads`` = 1 all three run here, in that order, and year
    2 is read seeded with year 1's card ids, so a card of both years is
    held by one id string.  With n >
    1, year 1 runs here and the other jobs go, in job order, to min(n,
    jobs) - 1 worker processes, each started with its jobs: at n = 2 one
    worker profiles year 2 and then counts the follow-up week, and at
    n = 3 the two run side by side.  No thread runs beside this one, and
    the parent's own job stays visible to in-process profilers.  When
    year 2 names year 1's stop registry, the parent loads and clusters it
    before any worker starts and hands that copy to year 2's worker,
    which sends its year back without it; the parent shares its own
    copy, as if it had run that year itself.  A registry that only year
    2 names is clustered by its worker and comes back from it.  A
    worker's result is pickled, and year 2 stays as bytes until year 1
    is done, so the parent never holds it while it profiles a year.  The
    function returns once year 2 is back: a follow-up count still in a
    worker is returned as its :class:`WorkerJob`, whose reader waits for
    it and ends its worker.  A worker's exception is raised again with
    its type, and a failure here ends every worker first.
    """
    year1 = (cfg.year1, cfg.stops1, cfg, cfg.week1_start)
    year2 = (cfg.year2, cfg.stops2, cfg, cfg.week2_start)
    followup = (cfg.followup, cfg.followup_start) if cfg.followup else None
    workers = min(cfg.threads, 3 if followup else 2) - 1
    registries: dict[str, Registry] = {}
    if not workers:
        y1 = process_year(*year1, registries=registries)
        y2 = process_year(*year2, registries=registries, cards=y1.profiles.cards)
        return y1, y2, followup and _count_followup(*followup)

    key = _registry_key(cfg.stops1)
    held = _registry_key(cfg.stops2) == key
    if held:
        registries[key] = load_registry(cfg.stops1, cfg.cluster_m)
        year2 = (*year2, None, registries)
    jobs = [(process_year, year2, held)] + ([(_count_followup, followup, False)] if followup else [])
    started = _start_workers(jobs, workers)
    try:
        y1 = process_year(*year1, registries=registries)
        y2 = started[0].result()
    except BaseException:
        for job in started:
            job.close()
        raise
    if held:
        y2.places, y2.stop_rejections = registries[key]
    # Year 2's worker ends here unless it still has the follow-up to count.
    if not followup or workers == 2:
        started[0].close()
    return y1, y2, started[1] if followup else None


@_collector_off()
def run_pipeline(cfg: RunConfig) -> PipelineResult:
    """Compute everything the configured inputs allow.

    ``cfg`` is taken as checked by :meth:`RunConfig.validate`, which the
    command line calls once, when it builds the config.  Report files are
    written separately (see the reports module); this function is pure
    computation plus input loading.  No FR's delta is made here: the
    result's ``deltas`` makes them in one pass when a report or a score
    reads them.  It returns once year 2 is profiled: a follow-up count
    still in a worker is waited for when the result's follow-up is first
    read, and :meth:`PipelineResult.close` ends it unread.
    """
    # The layers are small; loading them first lets a malformed one fail
    # before any transactions file is read.
    r4_region = load_region(cfg.r4, "R4") if cfg.r4 else None
    taz_regions = load_region_features(cfg.taz) if cfg.taz else None

    y1, y2, followup = _run_jobs(cfg)

    # Many FRs' year-2 homes share a centroid: each is tested against R4 once.
    in_r4 = cache(lambda c: point_in_region(c, r4_region)) if r4_region is not None else None
    centroid1, centroid2 = y1.places.centroid, y2.places.centroid
    deltas = Deltas(y1.profiles, y2.profiles, centroid1, centroid2, cfg.center, in_r4, cfg.change_km)
    log.info("cohort: %d frequent riders", len(deltas.cards))

    result = PipelineResult(cfg, y1, y2, deltas, followup, r4_region=r4_region)

    if taz_regions is not None:
        # FR homes counted per year-2 place, by position, then per centroid.
        home2 = y2.profiles.home
        homes: Counter = Counter()
        for place, n in Counter(home2[j] for _, j in deltas.positions()).items():
            homes[centroid2(place)] += n
        counts, outside, overlap = aggregate_taz(homes, taz_regions)
        result.taz_regions = taz_regions
        result.taz_counts = counts
        result.taz_outside = outside
        result.taz_overlap = overlap
        if overlap:
            log.warning("overlapping TAZ polygons: homes assigned to first match in file order")

    return result
