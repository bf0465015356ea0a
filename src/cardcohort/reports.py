"""Report writers.

Every report is a CSV with a fixed column order, LF line endings, and
percentages rounded to one decimal, so reruns diff cleanly.  Nothing
here computes; writers only format what the pipeline already derived.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from typing import Collection, Iterable, Sequence

from .cohort import CHANGED, COMMUTE_BINS, FOUND, JOBLESS, LOST, MOVE_BINS, NOT_CHANGED, CohortDelta
from .geo import INWARD, OUTWARD, read_features
from .groups import GROUP_COUNT, DeprivationScore, DeprivationSummary, group_counts, group_triple
from .infer import Stay, YearProfile
from .ingest import ObservationWeek, Rejection
from .pipeline import PipelineResult


def _open(path: str):
    return open(path, "w", encoding="utf-8", newline="\n")


def _pct(count: int, total: int) -> str:
    if total <= 0:
        return ""
    return f"{100.0 * count / total:.1f}"


def _km(x: float | None) -> str:
    return "" if x is None else f"{x:.3f}"


def _opt(x) -> str:
    return "" if x is None else str(x)


def write_rejections(path: str, rejections: Iterable[Rejection]) -> None:
    with _open(path) as fh:
        fh.write("line_no,reason\n")
        for r in rejections:
            fh.write(f"{r.line_no},{r.reason}\n")


def write_unmatched(path: str, unmatched: Counter) -> None:
    with _open(path) as fh:
        fh.write("stop_id,count\n")
        for stop_id in sorted(unmatched):
            fh.write(f"{stop_id},{unmatched[stop_id]}\n")


def write_profiles(path: str, profiles: dict[str, YearProfile], week: ObservationWeek) -> None:
    with _open(path) as fh:
        fh.write("card_id,year,home_place,work_place,commute_km,commute_min,rides\n")
        for card in sorted(profiles):
            p = profiles[card]
            fh.write(
                f"{card},{week.label},{_opt(p.home)},{_opt(p.work)},"
                f"{_km(p.commute_km)},{_opt(p.commute_min)},{p.rides}\n"
            )


def write_stays(path: str, stays_by_card: dict[str, list[Stay]], week: ObservationWeek) -> None:
    """Stays with their times written back as timestamps through ``week``."""
    with _open(path) as fh:
        fh.write("card_id,place_id,arrive,depart,approx,first_of_day\n")
        for card in sorted(stays_by_card):
            for s in stays_by_card[card]:
                arrive = "" if s.arrive_time is None else week.format(s.arrive_time)
                fh.write(
                    f"{card},{s.place_id},{arrive},{week.format(s.depart_time)},"
                    f"{1 if s.approximate else 0},{1 if s.first_of_day else 0}\n"
                )


def write_deltas(path: str, deltas: dict[str, CohortDelta]) -> None:
    with _open(path) as fh:
        fh.write(
            "card_id,housing_status,housing_dir,move_km,move_bin,"
            "work_status,work_dir,work_move_km,commute_delta_km,commute_bin,r4_2010\n"
        )
        for card in sorted(deltas):
            d = deltas[card]
            fh.write(
                f"{card},{d.housing_status},{_opt(d.housing_dir)},{_km(d.move_km)},"
                f"{_opt(d.move_bin)},{d.work_status},{_opt(d.work_dir)},{_km(d.work_move_km)},"
                f"{_km(d.commute_delta_km)},{_opt(d.commute_bin)},{1 if d.r4_2010 else 0}\n"
            )


def _mean(values: list[float]) -> float | None:
    if not values:
        return None
    return math.fsum(values) / len(values)


def write_summary(path: str, result: PipelineResult) -> None:
    """Cardholder and identification counts per year plus the overlap."""
    p1, p2 = result.year1.profiles, result.year2.profiles
    both = set(p1) & set(p2)

    def count(profiles, pred) -> int:
        return sum(1 for p in profiles.values() if pred(p))

    def count_both(pred) -> int:
        return sum(1 for c in both if pred(p1[c]) and pred(p2[c]))

    has_home = lambda p: p.home is not None
    has_work = lambda p: p.work is not None
    has_ckm = lambda p: p.commute_km is not None
    has_cmin = lambda p: p.commute_min is not None

    rows = [
        ("total_cardholders", len(p1), len(p2), len(both)),
        ("with_home_place", count(p1, has_home), count(p2, has_home), count_both(has_home)),
        ("with_work_place", count(p1, has_work), count(p2, has_work), count_both(has_work)),
        ("with_commute_distance", count(p1, has_ckm), count(p2, has_ckm), count_both(has_ckm)),
        ("with_commute_time", count(p1, has_cmin), count(p2, has_cmin), count_both(has_cmin)),
    ]
    avg1_km = _mean([p.commute_km for p in p1.values() if p.commute_km is not None])
    avg2_km = _mean([p.commute_km for p in p2.values() if p.commute_km is not None])
    avg1_min = _mean([float(p.commute_min) for p in p1.values() if p.commute_min is not None])
    avg2_min = _mean([float(p.commute_min) for p in p2.values() if p.commute_min is not None])

    with _open(path) as fh:
        fh.write("indicator,year1,year2,both\n")
        for name, a, b, c in rows:
            fh.write(f"{name},{a},{b},{c}\n")
        fmt = lambda v: "" if v is None else f"{v:.1f}"
        fh.write(f"avg_commute_km,{fmt(avg1_km)},{fmt(avg2_km)},\n")
        fh.write(f"avg_commute_min,{fmt(avg1_min)},{fmt(avg2_min)},\n")


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
    with _open(path) as fh:
        fh.write("status,direction,bin,count,share_pct\n")

        def row(status: str, direction: str, label: str, count: int) -> None:
            fh.write(f"{status},{direction},{label},{count},{_pct(count, total)}\n")

        row(NOT_CHANGED, "", "", statuses[NOT_CHANGED])
        row(CHANGED, "", "", statuses[CHANGED])
        for direction in (INWARD, OUTWARD):
            bins = {label: counts[CHANGED, direction, label] for label in MOVE_BINS}
            row(CHANGED, direction, "", sum(bins.values()))
            for label, count in bins.items():
                # The sub-benchmark bin appears only under a nonstandard
                # change threshold; suppressed otherwise to keep the
                # standard four-bin shape.
                if label != "0-2" or count:
                    row(CHANGED, direction, label, count)
        for status in tail_statuses:
            row(status, "", "", statuses[status])
        row("Sum", "", "", total)


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
    with _open(path) as fh:
        fh.write("bin,count,share_pct\n")
        for label in COMMUTE_BINS:
            fh.write(f"{label},{bins[label]},{_pct(bins[label], total)}\n")
        fh.write(f"Sum,{total},{_pct(total, total)}\n")


def write_groups(path: str, groups: dict[str, int]) -> None:
    counts = group_counts(groups.values())
    total = len(groups)
    with _open(path) as fh:
        fh.write("group,housing_change,job_change,location,count,share_pct\n")
        for g in range(1, GROUP_COUNT + 1):
            housing, job, location = group_triple(g)
            fh.write(f"{g},{housing},{job},{location},{counts[g]},{_pct(counts[g], total)}\n")


def write_deprivation(path: str, summary: DeprivationSummary) -> None:
    with _open(path) as fh:
        fh.write("metric,value\n")
        fh.write(f"fr_count,{summary.fr_count}\n")
        fh.write(f"scored_count,{summary.scored_count}\n")
        pct = "" if summary.scored_fraction is None else f"{100.0 * summary.scored_fraction:.1f}"
        fh.write(f"scored_pct,{pct}\n")
        fh.write(f"mean_trips,{'' if summary.mean_trips is None else f'{summary.mean_trips:.1f}'}\n")
        fh.write(f"std_trips,{'' if summary.std_trips is None else f'{summary.std_trips:.1f}'}\n")


def write_scores(path: str, scores: Sequence[DeprivationScore], groups: dict[str, int]) -> None:
    with _open(path) as fh:
        fh.write("card_id,group,followup_trips,scored\n")
        for s in scores:
            group = groups.get(s.card_id, "")
            fh.write(f"{s.card_id},{group},{s.followup_trips},{1 if s.scored else 0}\n")


def write_taz_geojson(path: str, taz_path: str, result: PipelineResult) -> None:
    """Copy the zone layer with an fr_homes count injected per feature."""
    out_feats = [
        {"type": "Feature", "properties": {**props, "fr_homes": count}, "geometry": geom}
        for (props, geom), count in zip(read_features(taz_path), result.taz_counts)
    ]
    out = {
        "type": "FeatureCollection",
        "outside_count": result.taz_outside,
        "features": out_feats,
    }
    with _open(path) as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


# The bundle files that read an optional run input; without it they are not written.
OPTIONAL_INPUT_FILES = {
    "followup": {"deprivation.csv", "scores.csv", "rejections_followup.csv"},
    "taz": {"taz_fr_homes.geojson"},
}


def write_run_reports(
    result: PipelineResult, out_dir: str, names: Collection[str] | None = None
) -> list[str]:
    """Write the report bundle; returns the file names written, in bundle order.

    With ``names``, only the bundle files so named are written, with the
    same bytes as in the full bundle.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def emit(name: str, writer, *args) -> None:
        if names is None or name in names:
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
    emit("groups.csv", write_groups, result.groups)
    if result.config.followup:
        emit("deprivation.csv", write_deprivation, result.dep_summary)
        emit("scores.csv", write_scores, result.scores, result.groups)
        emit("rejections_followup.csv", write_rejections, result.followup_rejections)
    if result.config.taz:
        emit("taz_fr_homes.geojson", write_taz_geojson, result.config.taz, result)
    return written
