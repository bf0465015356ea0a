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
from typing import Iterable, Sequence

from .chain import Stay
from .cohort import CHANGED, COMMUTE_BINS, FOUND, JOBLESS, LOST, MOVE_BINS, NOT_CHANGED, CohortDelta
from .geo import INWARD, OUTWARD
from .groups import GROUP_COUNT, DeprivationScore, DeprivationSummary, GroupAssignment, group_triple
from .infer import YearProfile
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


def write_profiles(path: str, profiles: dict[str, YearProfile]) -> None:
    with _open(path) as fh:
        fh.write("card_id,year,home_place,work_place,commute_km,commute_min,rides\n")
        for card in sorted(profiles):
            p = profiles[card]
            fh.write(
                f"{p.card_id},{p.year},{_opt(p.home)},{_opt(p.work)},"
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
                    f"{s.card_id},{s.place_id},{arrive},{week.format(s.depart_time)},"
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
                f"{d.card_id},{d.housing_status},{_opt(d.housing_dir)},{_km(d.move_km)},"
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


def _bin_rows(
    deltas: Iterable, status_attr: str, dir_attr: str, bin_attr: str, total: int
) -> list[tuple[str, str, str, int, str]]:
    """Status/direction/bin breakdown rows for a changed-place table."""
    by_dir: dict[str, Counter] = {INWARD: Counter(), OUTWARD: Counter()}
    statuses: Counter = Counter()
    for d in deltas:
        status = getattr(d, status_attr)
        statuses[status] += 1
        if status == CHANGED:
            by_dir[getattr(d, dir_attr)][getattr(d, bin_attr)] += 1
    rows = []
    changed = statuses[CHANGED]
    rows.append((CHANGED, "", "", changed, _pct(changed, total)))
    for direction in (INWARD, OUTWARD):
        bins = by_dir[direction]
        dir_total = sum(bins.values())
        rows.append((CHANGED, direction, "", dir_total, _pct(dir_total, total)))
        for label in MOVE_BINS:
            if label == "0-2" and bins[label] == 0:
                # Sub-benchmark bin appears only under a nonstandard
                # change threshold; suppressed otherwise to keep the
                # standard four-bin shape.
                continue
            rows.append((CHANGED, direction, label, bins[label], _pct(bins[label], total)))
    return rows


def write_housing_dynamics(path: str, deltas: dict[str, CohortDelta]) -> None:
    total = len(deltas)
    ds = [deltas[c] for c in sorted(deltas)]
    not_changed = sum(1 for d in ds if d.housing_status == NOT_CHANGED)
    with _open(path) as fh:
        fh.write("status,direction,bin,count,share_pct\n")
        fh.write(f"{NOT_CHANGED},,,{not_changed},{_pct(not_changed, total)}\n")
        for status, direction, label, count, pct in _bin_rows(
            ds, "housing_status", "housing_dir", "move_bin", total
        ):
            fh.write(f"{status},{direction},{label},{count},{pct}\n")
        fh.write(f"Sum,,,{total},{_pct(total, total)}\n")


def write_work_dynamics(path: str, deltas: dict[str, CohortDelta]) -> None:
    total = len(deltas)
    ds = [deltas[c] for c in sorted(deltas)]
    statuses = Counter(d.work_status for d in ds)
    with _open(path) as fh:
        fh.write("status,direction,bin,count,share_pct\n")
        fh.write(f"{NOT_CHANGED},,,{statuses[NOT_CHANGED]},{_pct(statuses[NOT_CHANGED], total)}\n")
        for status, direction, label, count, pct in _bin_rows(
            ds, "work_status", "work_dir", "work_move_bin", total
        ):
            fh.write(f"{status},{direction},{label},{count},{pct}\n")
        for status in (LOST, FOUND, JOBLESS):
            fh.write(f"{status},,,{statuses[status]},{_pct(statuses[status], total)}\n")
        fh.write(f"Sum,,,{total},{_pct(total, total)}\n")


def write_commute_variation(path: str, deltas: dict[str, CohortDelta]) -> None:
    pairs = [d for _, d in sorted(deltas.items()) if d.commute_bin is not None]
    bins = Counter(d.commute_bin for d in pairs)
    total = len(pairs)
    with _open(path) as fh:
        fh.write("bin,count,share_pct\n")
        for label in COMMUTE_BINS:
            fh.write(f"{label},{bins[label]},{_pct(bins[label], total)}\n")
        fh.write(f"Sum,{total},{_pct(total, total)}\n")


def write_groups(path: str, assignments: dict[str, GroupAssignment]) -> None:
    counts = Counter(a.group for a in assignments.values())
    total = len(assignments)
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


def write_scores(
    path: str, scores: Sequence[DeprivationScore], assignments: dict[str, GroupAssignment]
) -> None:
    with _open(path) as fh:
        fh.write("card_id,group,followup_trips,scored\n")
        for s in scores:
            group = assignments[s.card_id].group if s.card_id in assignments else ""
            fh.write(f"{s.card_id},{group},{s.followup_trips},{1 if s.scored else 0}\n")


def write_taz_geojson(path: str, taz_path: str, result: PipelineResult) -> None:
    """Copy the zone layer with an fr_homes count injected per feature."""
    with open(taz_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    feats = doc.get("features", []) if doc.get("type") == "FeatureCollection" else [doc]
    out_feats = []
    for i, feat in enumerate(feats):
        props = dict(feat.get("properties") or {})
        props["fr_homes"] = result.taz_counts[i]
        out_feats.append(
            {"type": "Feature", "properties": props, "geometry": feat["geometry"]}
        )
    out = {
        "type": "FeatureCollection",
        "outside_count": result.taz_outside,
        "features": out_feats,
    }
    with _open(path) as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


def write_run_reports(result: PipelineResult, out_dir: str) -> list[str]:
    """Write the full report bundle; returns the file names written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def emit(name: str, writer, *args) -> None:
        writer(os.path.join(out_dir, name), *args)
        written.append(name)

    emit("profiles_year1.csv", write_profiles, result.year1.profiles)
    emit("profiles_year2.csv", write_profiles, result.year2.profiles)
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
    emit("groups.csv", write_groups, result.assignments)
    if result.config.followup:
        emit("deprivation.csv", write_deprivation, result.dep_summary)
        emit("scores.csv", write_scores, result.scores, result.assignments)
        emit("rejections_followup.csv", write_rejections, result.followup_rejections)
    if result.config.taz:
        emit("taz_fr_homes.geojson", write_taz_geojson, result.config.taz, result)
    return written
