"""Report writers.

Every report is text: a CSV with a fixed column order and percentages
rounded to one decimal, or, for ``taz_fr_homes.geojson``, indented JSON.
:func:`write_lines` is the one writer: every output file of the package,
the synthetic bundle's included, goes through it as UTF-8 with LF line
endings, so reruns diff cleanly.  Nothing here computes; writers only
format what the pipeline already derived, and an FR's group number is
:func:`~cardcohort.groups.classify` of its delta.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from typing import Collection, Iterable, Mapping, Sequence

from .cohort import CHANGED, COMMUTE_BINS, FOUND, JOBLESS, LOST, MOVE_BINS, NOT_CHANGED, CohortDelta
from .geo import INWARD, OUTWARD
from .groups import GROUP_COUNT, DeprivationSummary, classify, group_counts, group_triple
from .infer import Stay, YearProfile
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
    return "" if x is None else f"{x:.3f}"


def _opt(x) -> str:
    return "" if x is None else str(x)


def write_rejections(path: str, rejections: Iterable[Rejection]) -> None:
    write_lines(path, ["line_no,reason"], (f"{r.line_no},{r.reason}" for r in rejections))


def write_unmatched(path: str, unmatched: Counter) -> None:
    write_lines(path, ["stop_id,count"], (f"{stop_id},{unmatched[stop_id]}" for stop_id in sorted(unmatched)))


def write_profiles(path: str, profiles: dict[str, YearProfile], week: ObservationWeek) -> None:
    label = week.label
    write_lines(path, ["card_id,year,home_place,work_place,commute_km,commute_min,rides"], (
        f"{card},{label},{_opt(p.home)},{_opt(p.work)},{_km(p.commute_km)},{_opt(p.commute_min)},{p.rides}"
        for card in sorted(profiles) for p in (profiles[card],)
    ))


def write_stays(path: str, stays_by_card: dict[str, list[Stay]], week: ObservationWeek) -> None:
    """Stays with their times written back as timestamps through ``week``."""
    fmt = week.format
    write_lines(path, ["card_id,place_id,arrive,depart,approx,first_of_day"], (
        f"{card},{s.place_id},{'' if s.arrive_time is None else fmt(s.arrive_time)},{fmt(s.depart_time)},"
        f"{1 if s.approximate else 0},{1 if s.first_of_day else 0}"
        for card in sorted(stays_by_card) for s in stays_by_card[card]
    ))


def write_deltas(path: str, deltas: dict[str, CohortDelta]) -> None:
    header = (
        "card_id,housing_status,housing_dir,move_km,move_bin,"
        "work_status,work_dir,work_move_km,commute_delta_km,commute_bin,r4_2010"
    )
    write_lines(path, [header], (
        f"{card},{d.housing_status},{_opt(d.housing_dir)},{_km(d.move_km)},"
        f"{_opt(d.move_bin)},{d.work_status},{_opt(d.work_dir)},{_km(d.work_move_km)},"
        f"{_km(d.commute_delta_km)},{_opt(d.commute_bin)},{1 if d.r4_2010 else 0}"
        for card in sorted(deltas) for d in (deltas[card],)
    ))


def _tally(profiles: Iterable[YearProfile]) -> tuple[int, int, int, int]:
    """Profiles with a home, a work place, a commute distance and a commute time."""
    homes = works = km = minutes = 0
    for p in profiles:
        homes += p.home is not None
        works += p.work is not None
        km += p.commute_km is not None
        minutes += p.commute_min is not None
    return homes, works, km, minutes


def _average(profiles: Mapping[str, YearProfile], field: str, n: int) -> str:
    """The mean of ``field`` over the ``n`` profiles that have one, to one decimal; fsum rounds it once."""
    values = (v for p in profiles.values() if (v := getattr(p, field)) is not None)
    return _one_decimal(math.fsum(values) / n) if n else ""


def write_summary(path: str, result: PipelineResult) -> None:
    """Cardholder and identification counts per year plus the overlap, with no per-card copy."""
    p1, p2 = result.year1.profiles, result.year2.profiles
    homes1, works1, km1, min1 = _tally(p1.values())
    homes2, works2, km2, min2 = _tally(p2.values())
    # The overlap counts a card for an indicator when both years have it.
    both = homes = works = with_km = with_min = 0
    for card, a in p1.items():
        if (b := p2.get(card)) is None:
            continue
        both += 1
        homes += a.home is not None and b.home is not None
        works += a.work is not None and b.work is not None
        with_km += a.commute_km is not None and b.commute_km is not None
        with_min += a.commute_min is not None and b.commute_min is not None
    rows = (
        ("total_cardholders", len(p1), len(p2), both),
        ("with_home_place", homes1, homes2, homes),
        ("with_work_place", works1, works2, works),
        ("with_commute_distance", km1, km2, with_km),
        ("with_commute_time", min1, min2, with_min),
        ("avg_commute_km", _average(p1, "commute_km", km1), _average(p2, "commute_km", km2), ""),
        ("avg_commute_min", _average(p1, "commute_min", min1), _average(p2, "commute_min", min2), ""),
    )
    write_lines(path, ["indicator,year1,year2,both"], (f"{name},{a},{b},{c}" for name, a, b, c in rows))


def _write_dynamics(path: str, moves: Iterable[tuple], tail_statuses: Sequence[str] = ()) -> None:
    """A place-change table from one (status, direction, bin) triple per FR.

    NotChanged comes first, then Changed broken down by direction and move
    bin, then one row per status in ``tail_statuses``, then the Sum.
    """
    counts = Counter(moves)
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


def write_housing_dynamics(path: str, deltas: dict[str, CohortDelta]) -> None:
    _write_dynamics(path, ((d.housing_status, d.housing_dir, d.move_bin) for d in deltas.values()))


def write_work_dynamics(path: str, deltas: dict[str, CohortDelta]) -> None:
    _write_dynamics(
        path,
        ((d.work_status, d.work_dir, d.work_move_bin) for d in deltas.values()),
        (LOST, FOUND, JOBLESS),
    )


def write_commute_variation(path: str, deltas: dict[str, CohortDelta]) -> None:
    bins = Counter(d.commute_bin for d in deltas.values() if d.commute_bin is not None)
    total = sum(bins.values())
    write_lines(
        path,
        ["bin,count,share_pct"],
        (f"{label},{bins[label]},{_pct(bins[label], total)}" for label in COMMUTE_BINS),
        [f"Sum,{total},{_pct(total, total)}"],
    )


def write_groups(path: str, deltas: dict[str, CohortDelta]) -> None:
    counts = group_counts(map(classify, deltas.values()))
    total = len(deltas)
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


def write_scores(path: str, deltas: dict[str, CohortDelta], followup_counts: Mapping[str, int]) -> None:
    """One row per FR in card order; an FR is scored when it has follow-up trips."""
    write_lines(path, ["card_id,group,followup_trips,scored"], (
        f"{card},{classify(deltas[card])},{n},{1 if n > 0 else 0}"
        for card in sorted(deltas) for n in (followup_counts.get(card, 0),)
    ))


def write_taz_geojson(path: str, result: PipelineResult) -> None:
    """The zone layer as the pipeline read it, with an fr_homes count injected per feature."""
    features = []
    for zone, count in zip(result.taz_regions, result.taz_counts):
        props, geom = zone.feature
        features.append({"type": "Feature", "properties": {**props, "fr_homes": count}, "geometry": geom})
    write_json(path, {"type": "FeatureCollection", "outside_count": result.taz_outside, "features": features})


# The bundle files that read an optional run input; without it they are not written.
OPTIONAL_INPUT_FILES = {
    "followup": {"deprivation.csv", "scores.csv", "rejections_followup.csv"},
    "taz": {"taz_fr_homes.geojson"},
}


def write_run_reports(
    result: PipelineResult, out_dir: str, names: Collection[str] | None = None
) -> list[str]:
    """Write the report bundle; returns the file names written, in bundle order.

    A file in :data:`OPTIONAL_INPUT_FILES` is written only when the run
    was given its input.  With ``names``, only the bundle files so named
    are written, with the same bytes as in the full bundle.
    """
    skipped = {name for key, files in OPTIONAL_INPUT_FILES.items() if not getattr(result.config, key) for name in files}
    written = []

    def emit(name: str, writer, *args) -> None:
        if name not in skipped and (names is None or name in names):
            writer(os.path.join(out_dir, name), *args)
            written.append(name)

    emit("profiles_year1.csv", write_profiles, result.year1.profiles, result.year1.week)
    emit("profiles_year2.csv", write_profiles, result.year2.profiles, result.year2.week)
    emit("rejections_year1.csv", write_rejections, result.year1.rejections)
    emit("rejections_year2.csv", write_rejections, result.year2.rejections)
    emit("rejections_stops1.csv", write_rejections, result.year1.stop_rejections)
    emit("rejections_stops2.csv", write_rejections, result.year2.stop_rejections)
    emit("unmatched_year1.csv", write_unmatched, result.year1.unmatched)
    emit("unmatched_year2.csv", write_unmatched, result.year2.unmatched)
    emit("summary.csv", write_summary, result)
    emit("deltas.csv", write_deltas, result.deltas)
    emit("housing_dynamics.csv", write_housing_dynamics, result.deltas)
    emit("work_dynamics.csv", write_work_dynamics, result.deltas)
    emit("commute_variation.csv", write_commute_variation, result.deltas)
    emit("groups.csv", write_groups, result.deltas)
    emit("deprivation.csv", write_deprivation, result.dep_summary)
    emit("scores.csv", write_scores, result.deltas, result.followup_counts)
    emit("rejections_followup.csv", write_rejections, result.followup_rejections)
    emit("taz_fr_homes.geojson", write_taz_geojson, result)
    return written
