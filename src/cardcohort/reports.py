"""Report writers.

Every report is text: a CSV with a fixed column order and percentages
rounded to one decimal, or, for ``taz_fr_homes.geojson``, indented JSON.
:func:`write_lines` is the one writer: every output file of the package,
the synthetic bundle's included, goes through it as UTF-8 with LF line
endings, so reruns diff cleanly.  Nothing here decides a rule; writers
format what the pipeline derived, by the rules of the modules that own
them.  No FR's delta is stored: :func:`write_run_reports` reads each FR
from :meth:`~cardcohort.cohort.Deltas.rows`, each delta half formatted
once per distinct place pair, writes ``deltas.csv`` and counts the other
FR tables; an FR's group is :func:`~cardcohort.groups.group_index` of
its halves.  It writes the bundle all or nothing: every file under a
temporary name first, then all renamed at once.
"""

from __future__ import annotations

import errno
import json
import math
import os
from array import array
from collections import Counter, deque
from contextlib import suppress
from functools import cache
from typing import Collection, Iterable, Mapping, Sequence

from .cohort import CHANGED, COMMUTE_BINS, FOUND, JOBLESS, LOST, MOVE_BINS, NOT_CHANGED
from .geo import INWARD, OUTWARD
from .groups import GROUP_COUNT, DeprivationSummary, group_counts, group_index, group_triple
from .infer import Profiles, Stay, shared
from .ingest import ObservationWeek, Rejection
from .pipeline import PipelineResult


def write_lines(path: str, *blocks: Iterable[str]) -> None:
    """Write the lines of each block in turn, each ended by LF, as UTF-8.

    The file's directory is created when missing.  A file that cannot be
    written raises ValueError naming ``path``.
    """
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for block in blocks:
                for line in block:
                    fh.write(line + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def remove_file(path: str) -> None:
    """Remove the file at ``path`` if there is one; one that cannot be removed raises ValueError naming ``path``."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise ValueError(f"cannot remove {path}: {exc.strerror}") from None


def write_json(path: str, doc) -> None:
    """``doc`` as JSON indented by one space, ended by LF."""
    write_lines(path, [json.dumps(doc, indent=1)])


def write_metrics(path: str, rows: Iterable[tuple[str, object]]) -> None:
    """A ``metric,value`` table, one row per (name, value) pair."""
    write_lines(path, ["metric,value"], (f"{name},{value}" for name, value in rows))


def _one_decimal(x: float | None) -> str:
    return "" if x is None else f"{x:.1f}"


def _pct(count: int, total: int) -> str:
    return _one_decimal(100.0 * count / total) if total > 0 else ""


def _km(x: float | None) -> str:
    """A distance to three decimals; "" for None, and for NaN, which stands for None in a profile column."""
    return "" if x is None or math.isnan(x) else f"{x:.3f}"


def _opt(x) -> str:
    return "" if x is None else str(x)


def write_rejections(path: str, rejections: Iterable[Rejection]) -> None:
    write_lines(path, ["line_no,reason"], (f"{r.line_no},{r.reason}" for r in rejections))


def write_unmatched(path: str, unmatched: Counter) -> None:
    write_lines(path, ["stop_id,count"], (f"{stop_id},{unmatched[stop_id]}" for stop_id in sorted(unmatched)))


def write_profiles(path: str, profiles: Profiles, week: ObservationWeek) -> None:
    """One row per card in card order, read from the year's columns: -1 and NaN are written as "".

    Many cards share a (home, work, commute_km), so the text of each
    distinct one is made once.
    """
    label = week.label
    p = profiles

    @cache
    def places(home: int, work: int, km: float | str) -> str:
        return f"{'' if home < 0 else home},{'' if work < 0 else work},{_km(float(km))}"

    # NaN never equals itself, and -0.0 equals 0.0 but is written apart,
    # so those distances are keyed by their repr.
    write_lines(path, ["card_id,year,home_place,work_place,commute_km,commute_min,rides"], (
        f"{card},{label},{places(home, work, km if km == km and km else repr(km))},"
        f"{'' if minutes < 0 else minutes},{rides}"
        for card, home, work, km, minutes, rides in zip(p.cards, p.home, p.work, p.commute_km, p.commute_min, p.rides)
    ))


def write_stays(path: str, stays_by_card: dict[str, list[Stay]], week: ObservationWeek) -> None:
    """Stays with their times written back as timestamps through ``week``."""
    fmt = week.format
    write_lines(path, ["card_id,place_id,arrive,depart,approx,first_of_day"], (
        f"{card},{s.place_id},{'' if s.arrive_time is None else fmt(s.arrive_time)},{fmt(s.depart_time)},"
        f"{1 if s.approximate else 0},{1 if s.first_of_day else 0}"
        for card in sorted(stays_by_card) for s in stays_by_card[card]
    ))


DELTAS_HEADER = (
    "card_id,housing_status,housing_dir,move_km,move_bin,"
    "work_status,work_dir,work_move_km,commute_delta_km,commute_bin,r4_2010"
)


def _with(column: array) -> int:
    """How many cards have a value in a profile column."""
    return len(column) - (sum(map(math.isnan, column)) if column.typecode == "d" else column.count(-1))


def _average(column: array, n: int) -> str:
    """The mean over the ``n`` cards with a value in ``column``, to one decimal; fsum rounds it once."""
    return _one_decimal(math.fsum(v for v in column if v >= 0) / n) if n else ""


def write_summary(path: str, result: PipelineResult) -> None:
    """Cardholder and identification counts per year plus the overlap, read from the columns with no per-card copy."""
    p1, p2 = result.year1.profiles, result.year2.profiles
    columns = [(getattr(p1, f), getattr(p2, f)) for f in ("home", "work", "commute_km", "commute_min")]
    # A card has a value in a column where it holds a number >= 0: -1
    # and NaN stand for None.  The overlap counts a card for a column
    # when both years have a value.
    both = 0
    overlap = [0] * len(columns)
    for i, j in shared(p1, p2):
        both += 1
        for k, (a, b) in enumerate(columns):
            overlap[k] += a[i] >= 0 and b[j] >= 0
    (homes1, homes2), (works1, works2), (km1, km2), (min1, min2) = ((_with(a), _with(b)) for a, b in columns)
    rows = (
        ("total_cardholders", len(p1), len(p2), both),
        ("with_home_place", homes1, homes2, overlap[0]),
        ("with_work_place", works1, works2, overlap[1]),
        ("with_commute_distance", km1, km2, overlap[2]),
        ("with_commute_time", min1, min2, overlap[3]),
        ("avg_commute_km", _average(p1.commute_km, km1), _average(p2.commute_km, km2), ""),
        ("avg_commute_min", _average(p1.commute_min, min1), _average(p2.commute_min, min2), ""),
    )
    write_lines(path, ["indicator,year1,year2,both"], (f"{name},{a},{b},{c}" for name, a, b, c in rows))


def write_dynamics(path: str, counts: Counter, tail_statuses: Sequence[str] = ()) -> None:
    """A place-change table from the FRs' (status, direction, bin) triples, counted.

    NotChanged comes first, then Changed broken down by direction and move
    bin, then one row per status in ``tail_statuses``, then the Sum.
    """
    total = sum(counts.values())
    statuses: Counter = Counter()
    for (status, _, _), n in counts.items():
        statuses[status] += n
    rows = [(NOT_CHANGED, "", "", statuses[NOT_CHANGED]), (CHANGED, "", "", statuses[CHANGED])]
    for direction in (INWARD, OUTWARD):
        bins = {label: counts[CHANGED, direction, label] for label in MOVE_BINS}
        rows.append((CHANGED, direction, "", sum(bins.values())))
        # The sub-benchmark bin appears only under a nonstandard change
        # threshold; suppressed otherwise to keep the standard four-bin shape.
        rows.extend((CHANGED, direction, label, n) for label, n in bins.items() if label != "0-2" or n)
    rows.extend((status, "", "", statuses[status]) for status in tail_statuses)
    rows.append(("Sum", "", "", total))
    write_lines(path, ["status,direction,bin,count,share_pct"], (
        f"{status},{direction},{label},{n},{_pct(n, total)}" for status, direction, label, n in rows
    ))


def write_commute_variation(path: str, bins: Counter) -> None:
    """The FRs with a commute delta, counted by commute bin."""
    total = sum(bins.values())
    write_lines(
        path,
        ["bin,count,share_pct"],
        (f"{label},{bins[label]},{_pct(bins[label], total)}" for label in COMMUTE_BINS),
        [f"Sum,{total},{_pct(total, total)}"],
    )


def write_groups(path: str, groups: Collection[int]) -> None:
    """The FRs counted by group, from one group number per FR."""
    counts = group_counts(groups)
    total = len(groups)
    write_lines(path, ["group,housing_change,job_change,location,count,share_pct"], (
        f"{g},{','.join(group_triple(g))},{counts[g]},{_pct(counts[g], total)}" for g in range(1, GROUP_COUNT + 1)
    ))


def write_deprivation(path: str, summary: DeprivationSummary) -> None:
    fraction = summary.scored_fraction
    write_metrics(path, (
        ("fr_count", summary.fr_count),
        ("scored_count", summary.scored_count),
        ("scored_pct", _one_decimal(None if fraction is None else 100.0 * fraction)),
        ("mean_trips", _one_decimal(summary.mean_trips)),
        ("std_trips", _one_decimal(summary.std_trips)),
    ))


def write_scores(path: str, frs: Iterable[str], groups: Iterable[int], followup_counts: Mapping[str, int]) -> None:
    """One row per FR, with its group, in the order of ``frs``; an FR is scored when it has follow-up trips."""
    write_lines(path, ["card_id,group,followup_trips,scored"], (
        f"{card},{g},{n},{1 if n > 0 else 0}"
        for card, g in zip(frs, groups) for n in (followup_counts.get(card, 0),)
    ))


def write_taz_geojson(path: str, result: PipelineResult) -> None:
    """The zone layer as the pipeline read it, with an fr_homes count injected per feature."""
    features = []
    for zone, count in zip(result.taz_regions, result.taz_counts):
        props, geom = zone.feature
        features.append({"type": "Feature", "properties": {**props, "fr_homes": count}, "geometry": geom})
    write_json(path, {"type": "FeatureCollection", "outside_count": result.taz_outside, "features": features})


def _housing_row(half: tuple[str, str | None, float, str | None, bool]) -> tuple:
    """A housing half as the FR pass uses it: its dynamics key, its two group inputs and its two texts."""
    status, direction, km, label, r4 = half
    text = f"{status},{_opt(direction)},{_km(km)},{_opt(label)}"
    return (status, direction, label), status == CHANGED, r4, text, "1" if r4 else "0"


def _work_row(half: tuple[str, str | None, float | None, str | None]) -> tuple:
    """A work half as the FR pass uses it: its dynamics key, its group input and its text."""
    status, direction, km, label = half
    return (status, direction, label), status, f"{status},{_opt(direction)},{_km(km)}"


# The bundle files besides deltas.csv written from what the one pass over the FRs counts.
FR_TABLES = {"housing_dynamics.csv", "work_dynamics.csv", "commute_variation.csv", "groups.csv", "scores.csv"}

# The bundle files that read an optional run input; without it they are not written.
OPTIONAL_INPUT_FILES = {
    "followup": {"deprivation.csv", "scores.csv", "rejections_followup.csv"},
    "taz": {"taz_fr_homes.geojson"},
}


def write_run_reports(
    result: PipelineResult, out_dir: str, names: Collection[str] | None = None
) -> list[str]:
    """Write the report bundle, all or nothing; returns the file names written, in bundle order.

    A file in :data:`OPTIONAL_INPUT_FILES` is written only when the run
    was given its input.  With ``names``, only the bundle files so named
    are written, with the same bytes as in the full bundle.  Every other
    file of the full bundle is removed from ``out_dir``, so an earlier
    run's file never stands beside this run's; no other file there is
    touched.  Each file is written under a temporary name in
    ``out_dir``; only after the last one do they all take their names
    and the stale files go (:func:`_commit`).  On any failure before
    that, the temporaries are removed and ``out_dir`` is left as it
    was.  The follow-up's results are first read at ``deprivation.csv``,
    so a count still running in a worker is waited for there, after the
    files before it are written.
    """
    skipped = {name for key, files in OPTIONAL_INPUT_FILES.items() if not getattr(result.config, key) for name in files}
    written: list[str] = []
    stale: list[str] = []

    def emit(name: str, writer, *args) -> None:
        if name not in skipped and (names is None or name in names):
            written.append(name)
            writer(_temporary(out_dir, name), *args)
        else:
            stale.append(name)

    try:
        emit("profiles_year1.csv", write_profiles, result.year1.profiles, result.year1.week)
        emit("profiles_year2.csv", write_profiles, result.year2.profiles, result.year2.week)
        emit("rejections_year1.csv", write_rejections, result.year1.rejections)
        emit("rejections_year2.csv", write_rejections, result.year2.rejections)
        emit("rejections_stops1.csv", write_rejections, result.year1.stop_rejections)
        emit("rejections_stops2.csv", write_rejections, result.year2.stop_rejections)
        emit("unmatched_year1.csv", write_unmatched, result.year1.unmatched)
        emit("unmatched_year2.csv", write_unmatched, result.year2.unmatched)
        emit("summary.csv", write_summary, result)
        # One pass over the FRs writes deltas.csv and counts the other FR
        # tables; groups holds each FR's group number in FR order.  Each
        # half comes with its counter key, group input and text, made once
        # per distinct place pair.
        housing, work, commute, groups = Counter(), Counter(), Counter(), bytearray()

        def delta_rows():
            for card, (h_key, changed, within, h_text, r4_text), (w_key, job, w_text), commute_km, label in (
                result.deltas.rows(_housing_row, _work_row)
            ):
                housing[h_key] += 1
                work[w_key] += 1
                if label is not None:
                    commute[label] += 1
                groups.append(group_index(changed, job, within))
                yield f"{card},{h_text},{w_text},{_km(commute_km)},{_opt(label)},{r4_text}"

        rows = delta_rows()
        emit("deltas.csv", write_lines, [DELTAS_HEADER], rows)
        if names is None or not FR_TABLES.isdisjoint(names):
            deque(rows, maxlen=0)  # the pass ends here when deltas.csv is not written
        emit("housing_dynamics.csv", write_dynamics, housing)
        emit("work_dynamics.csv", write_dynamics, work, (LOST, FOUND, JOBLESS))
        emit("commute_variation.csv", write_commute_variation, commute)
        emit("groups.csv", write_groups, groups)
        emit("deprivation.csv", write_deprivation, result.dep_summary)
        emit("scores.csv", write_scores, result.deltas.cards, groups, result.followup_counts)
        emit("rejections_followup.csv", write_rejections, result.followup_rejections)
        emit("taz_fr_homes.geojson", write_taz_geojson, result)
        _commit(out_dir, written, stale)
    except BaseException:
        for name in written:
            # A temporary may not have been made yet; a directory is left alone.
            with suppress(OSError):
                os.remove(_temporary(out_dir, name))
        raise
    return written


def _temporary(out_dir: str, name: str) -> str:
    """The path a bundle file is written to until the whole bundle is written."""
    return os.path.join(out_dir, f".{name}.tmp")


def _commit(out_dir: str, written: Sequence[str], stale: Iterable[str]) -> None:
    """Give each written file its name and remove the stale ones.

    A directory in the place of any of them is refused before the first
    rename, so that the renames and removals that follow can only fail
    on a fault of the file system.
    """
    renames = [(_temporary(out_dir, name), os.path.join(out_dir, name)) for name in written]
    removals = [os.path.join(out_dir, name) for name in stale]
    checks = [("write", path) for _, path in renames] + [("remove", path) for path in removals]
    for verb, path in checks:
        if os.path.isdir(path) and not os.path.islink(path):
            raise ValueError(f"cannot {verb} {path}: {os.strerror(errno.EISDIR)}")
    for temporary, path in renames:
        try:
            os.replace(temporary, path)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror}") from None
    for path in removals:
        remove_file(path)
