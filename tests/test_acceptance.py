"""End-to-end acceptance gate.

Eight numbered criteria, each with a single recorded verdict that the
terminal summary prints as "criterion N: PASS/FAIL - detail".  The
oracle for the recovery criteria is the synthetic generator's planted
truth; the arithmetic criteria use hand-built fixtures with frozen
expected values.
"""

from __future__ import annotations

import filecmp
import math
import os
import time
from collections import Counter
from datetime import date

import pytest

from cardcohort.cli import main as cli_main
from cardcohort.cohort import (
    CHANGED,
    FOUND,
    JOBLESS,
    LOST,
    NOT_CHANGED,
    commute_bin,
    housing_change,
    match_cohort,
    move_bin,
)
from cardcohort.geo import INWARD, OUTWARD, build_places, haversine_km
from cardcohort.groups import group_counts, group_index, group_triple
from cardcohort.infer import HOME_RULE_RELAXED, PERMISSIVE, STAY_MIN_DEFAULT, profile_row
from cardcohort.ingest import (
    STOPS_HEADER,
    ObservationWeek,
    TRANSACTIONS_HEADER,
    iter_lines,
    load_stops,
)
from cardcohort.pipeline import RunConfig, run_pipeline
from cardcohort.reports import write_dynamics
from cardcohort.synth import GeneratorConfig, evaluate_recovery, generate

from coded_rides import encode
from conftest import as_profile, fr_deltas, group_of, members, offset_coord, record_criterion


def _run_bundle(bundle, threads: int = 1):
    cfg = bundle.config
    run_cfg = RunConfig(
        year1=bundle.paths["week1"],
        year2=bundle.paths["week2"],
        stops1=bundle.paths["stops"],
        stops2=bundle.paths["stops"],
        followup=bundle.paths["followup"],
        r4=bundle.paths["r4"],
        taz=bundle.paths["taz"],
        center=bundle.center,
        week1_start=cfg.week1_start,
        week2_start=cfg.week2_start,
        followup_start=cfg.followup_start,
        threads=threads,
    )
    return run_pipeline(run_cfg)


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """Default 2,000-agent bundle without noise, timed single-threaded."""
    out = tmp_path_factory.mktemp("accept_clean")
    t0 = time.perf_counter()
    bundle = generate(GeneratorConfig(), str(out))
    gen_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = _run_bundle(bundle, threads=1)
    run_s = time.perf_counter() - t0
    return bundle, result, gen_s, run_s


@pytest.fixture(scope="module")
def noisy_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_noisy")
    bundle = generate(GeneratorConfig(noise_rate=0.2), str(out))
    return bundle, _run_bundle(bundle, threads=1)


@pytest.fixture(scope="module")
def empty_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("accept_empty")
    for name in ("year1.csv", "year2.csv"):
        (d / name).write_text(TRANSACTIONS_HEADER + "\n")
    (d / "stops.csv").write_text(STOPS_HEADER + "\n")
    cfg = RunConfig(
        year1=str(d / "year1.csv"),
        year2=str(d / "year2.csv"),
        stops1=str(d / "stops.csv"),
        stops2=str(d / "stops.csv"),
    )
    return run_pipeline(cfg)


def test_criterion_1_clean_recovery(clean_run):
    bundle, result, gen_s, run_s = clean_run
    m = evaluate_recovery(bundle.truth, result)
    values = {
        "home_recall": m.home_recall,
        "home_precision": m.home_precision,
        "work_recall": m.work_recall,
        "work_precision": m.work_precision,
        "housing_diag": m.housing_diag,
        "work_diag": m.work_diag,
        "group_accuracy": m.group_accuracy,
    }
    perfect = all(v == 1.0 for v in values.values())
    fast = gen_s + run_s < 30.0
    off = {k: round(v, 4) for k, v in values.items() if v != 1.0}
    record_criterion(
        1,
        perfect and fast,
        f"2000 agents, no noise: all recovery metrics 1.0"
        f"{'' if perfect else f' FAILED {off}'}"
        f", {gen_s:.1f}s generate + {run_s:.1f}s single-threaded run (< 30s)",
    )


def test_criterion_2_noisy_recovery(noisy_run):
    bundle, result = noisy_run
    m = evaluate_recovery(bundle.truth, result)
    # Realized at the default seed before freezing: home recall 0.9640,
    # work recall 0.9668, precision 1.0 on both.  The thresholds leave
    # room for seed drift without letting the rules regress.
    ok = m.home_recall >= 0.90 and m.work_recall >= 0.85
    record_criterion(
        2,
        ok,
        f"noise 0.2: home recall {m.home_recall:.4f} (>= 0.90), "
        f"work recall {m.work_recall:.4f} (>= 0.85), "
        f"precision {m.home_precision:.2f}/{m.work_precision:.2f}",
    )


def _partition_failures(result) -> list[str]:
    fails = []
    deltas = fr_deltas(result.deltas)
    n = len(deltas)
    if list(deltas) != match_cohort(result.year1.profiles, result.year2.profiles):
        fails.append("delta keys differ from FR cards")

    counts = group_counts(map(group_of, deltas.values()))
    if set(counts) != set(range(1, 21)):
        fails.append("group table is not exactly 1..20")
    if sum(counts.values()) != n:
        fails.append(f"group sum {sum(counts.values())} != {n} FRs")

    changed = [d for d in deltas.values() if d.housing_status == CHANGED]
    unchanged = [d for d in deltas.values() if d.housing_status == NOT_CHANGED]
    if len(changed) + len(unchanged) != n:
        fails.append("Changed + NotChanged != FR count")

    by_dir = Counter(d.housing_dir for d in changed)
    if sum(by_dir.values()) != len(changed) or None in by_dir:
        fails.append("changed row without a direction")
    for direction in (INWARD, OUTWARD):
        rows = [d for d in changed if d.housing_dir == direction]
        bins = Counter(d.move_bin for d in rows)
        if None in bins or sum(bins.values()) != len(rows):
            fails.append(f"move bins do not partition the {direction} total")

    pairs = [d for d in deltas.values() if d.commute_delta_km is not None]
    bins = Counter(d.commute_bin for d in pairs)
    if None in bins or sum(bins.values()) != len(pairs):
        fails.append("commute bins do not partition the commute-pair count")
    return fails


def test_criterion_3_partition_invariants(clean_run, noisy_run, empty_run):
    fails = []
    sizes = []
    for label, result in (
        ("clean", clean_run[1]),
        ("noisy", noisy_run[1]),
        ("empty", empty_run),
    ):
        sizes.append(f"{label}={len(result.deltas.cards)}")
        fails += [f"{label}: {msg}" for msg in _partition_failures(result)]
    record_criterion(
        3,
        not fails,
        ("group/housing/bin sums partition every cohort (FRs " + ", ".join(sizes) + ")")
        if not fails
        else "; ".join(fails),
    )


def _fixture_delta(status: str, direction: str | None) -> tuple[str, str | None, float, str | None, bool]:
    """A housing half: a 3 km move when changed, a 0.4 km one when not."""
    changed = status == CHANGED
    return status, direction, 3.0 if changed else 0.4, "2-5" if changed else None, False


def test_criterion_4_published_arithmetic(tmp_path):
    # Marginals of the reference cohort: 42,013 inward plus 45,069
    # outward movers against 25,492 stayers, 112,574 in all.
    deltas = {}
    i = 0
    for count, status, direction in (
        (42013, CHANGED, INWARD),
        (45069, CHANGED, OUTWARD),
        (25492, NOT_CHANGED, None),
    ):
        for _ in range(count):
            deltas[f"C{i:06d}"] = _fixture_delta(status, direction)
            i += 1

    path = str(tmp_path / "housing_dynamics.csv")
    write_dynamics(path, Counter((status, direction, label) for status, direction, _, label, _ in deltas.values()))
    rows = {}
    with open(path, "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            status, direction, bin_label, count, pct = line.rstrip("\n").split(",")
            rows[(status, direction, bin_label)] = (int(count), pct)

    share_checks = (
        rows[(CHANGED, "", "")] == (87082, "77.4"),
        rows[(NOT_CHANGED, "", "")] == (25492, "22.6"),
        rows[(CHANGED, INWARD, "")] == (42013, "37.3"),
        rows[(CHANGED, OUTWARD, "")] == (45069, "40.0"),
        rows[("Sum", "", "")] == (112574, "100.0"),
    )

    # The twenty groups enumerate housing change x job category x R4
    # location in a fixed row order.
    expected = []
    for housing in ("Yes", "No"):
        for job in ("Yes", "Find a job", "Jobless", "Lose the job", "No"):
            for loc in ("Out of R4", "Within R4"):
                expected.append((housing, job, loc))
    triples_ok = [group_triple(g) for g in range(1, 21)] == expected
    index_ok = all(
        group_index(
            housing == "Yes",
            {"Yes": CHANGED, "Find a job": FOUND, "Jobless": JOBLESS,
             "Lose the job": LOST, "No": NOT_CHANGED}[job],
            loc == "Within R4",
        ) == g
        for g, (housing, job, loc) in enumerate(expected, start=1)
    )

    ok = all(share_checks) and triples_ok and index_ok
    record_criterion(
        4,
        ok,
        "112,574-row fixture reproduces 77.4/22.6 shares; "
        "20 canonical triples map to groups 1..20 in row order",
    )


def test_criterion_5_determinism(clean_run, tmp_path):
    bundle = clean_run[0]
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"t{threads}"
        code = cli_main(
            ["run", "--config", bundle.paths["bundle"], "--threads", threads, "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    names1, names8 = (sorted(os.listdir(o)) for o in outs)
    reports_equal = names1 == names8 and all(
        filecmp.cmp(outs[0] / n, outs[1] / n, shallow=False) for n in names1
    )

    regen = generate(bundle.config, str(tmp_path / "regen"))
    synth_equal = all(
        filecmp.cmp(bundle.paths[k], regen.paths[k], shallow=False)
        for k in ("stops", "week1", "week2", "followup", "truth")
    )
    record_criterion(
        5,
        reports_equal and synth_equal,
        f"--threads 1 vs 8: {len(names1)} report files byte-identical; "
        "same-seed regeneration byte-identical",
    )


def test_criterion_6_geometry(tmp_path):
    one_deg = haversine_km((116.4, 10.0), (116.4, 11.0))
    expected = math.pi * 6371.0 / 180.0
    hav_ok = abs(one_deg - expected) < 1e-6

    small = dict(commuters=2, movers=0, job_changers=0, jobless=0, churners=0)
    dense = generate(GeneratorConfig(**small), str(tmp_path / "dense"))
    stops, _ = load_stops(iter_lines(dense.paths["stops"]))
    places = build_places(stops)
    sites = dense.config.grid_rows * dense.config.grid_cols
    per_site = dense.config.site_stops ** 2
    dense_ok = len(places) == sites and all(
        len(m) == per_site for m in members(places)
    )

    sparse = generate(GeneratorConfig(**small, stop_spacing_m=600.0), str(tmp_path / "sparse"))
    stops, _ = load_stops(iter_lines(sparse.paths["stops"]))
    places = build_places(stops)
    sparse_ok = len(places) == sites * per_site and all(
        len(m) == 1 for m in members(places)
    )

    record_criterion(
        6,
        hav_ok and dense_ok and sparse_ok,
        f"1-degree arc within 1e-6 km (err {abs(one_deg - expected):.2e}); "
        f"300m grid -> {sites} clustered places, 600m grid -> {sites * per_site} singletons",
    )


def test_criterion_7_threshold_edges():
    # Monday 5 March 2012 starts the week; day indices 0-4 are its weekdays.
    weekdays = ObservationWeek(date(2012, 3, 5)).weekdays

    def work(dur: int) -> int | None:
        """Work place of a card that spends ``dur`` minutes at stop W each weekday."""
        rides = []
        for d in sorted(weekdays):
            arrive = d * 1440 + 9 * 60
            rides.append((arrive - 40, "B1", "H", "W", arrive))
            rides.append((arrive + dur, "B1", "W", "H", arrive + dur + 40))
        coded, place_of = encode(rides, {"H": 0, "W": 7})
        values = profile_row(
            False, coded, place_of, weekdays, lambda home, work: 0.0, PERMISSIVE, HOME_RULE_RELAXED, STAY_MIN_DEFAULT
        )
        return as_profile(values).work

    stay_ok = work(360) == 7 and work(359) is None

    # No coordinate pair lands on exactly 2.0 km in floats, so the edge
    # is probed at the representable boundary: a benchmark equal to the
    # move distance must register as Changed, one ulp above must not.
    c1 = (116.30, 39.90)
    c2 = offset_coord(c1, 7000.0, 0.0)
    km = haversine_km(c1, c2)

    at_edge, *_ = housing_change(c1, c2, c1, km, None)
    above, *_ = housing_change(c1, c2, c1, math.nextafter(km, math.inf), None)
    move_ok = at_edge == CHANGED and above == NOT_CHANGED

    bin_ok = move_bin(2.0) == "2-5" and commute_bin(0.0) == "0-2"

    record_criterion(
        7,
        stay_ok and move_ok and bin_ok,
        "360-min stay qualifies, 359 does not; move == benchmark is Changed, "
        "benchmark one ulp above is not; move_bin(2.0)='2-5', commute_bin(0.0)='0-2'",
    )


def test_criterion_8_performance(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_big")
    cfg = GeneratorConfig(
        commuters=50000,
        movers=0,
        job_changers=0,
        jobless=0,
        churners=0,
        followup_retention=0.0,
        grid_rows=20,
        grid_cols=20,
    )
    t0 = time.perf_counter()
    bundle = generate(cfg, str(out))
    gen_s = time.perf_counter() - t0

    def data_lines(path: str) -> int:
        with open(path, "r", encoding="utf-8") as fh:
            return sum(1 for _ in fh) - 1

    tx = data_lines(bundle.paths["week1"]) + data_lines(bundle.paths["week2"])

    t0 = time.perf_counter()
    result = _run_bundle(bundle, threads=8)
    run_s = time.perf_counter() - t0
    pipeline_ok = tx == 1_000_000 and run_s < 60.0 and len(result.deltas.cards) == 50000

    stops = {}
    base = (116.30, 39.90)
    # 1,000 clumps of 5x5 stops at 300 m spacing on a 3 km pitch: far
    # more cells than an all-pairs scan could handle inside the budget.
    for clump in range(1000):
        row, col = divmod(clump, 25)
        for i in range(5):
            for j in range(5):
                stops[f"s{clump:04d}_{i}{j}"] = offset_coord(
                    base, col * 3000.0 + i * 300.0, row * 3000.0 + j * 300.0
                )
    t0 = time.perf_counter()
    places = build_places(stops)
    cluster_s = time.perf_counter() - t0
    cluster_ok = cluster_s < 5.0 and len(places) == 1000

    record_criterion(
        8,
        pipeline_ok and cluster_ok,
        f"{tx:,} transactions generated in {gen_s:.1f}s, 8-thread run {run_s:.1f}s (< 60s); "
        f"25,000 stops clustered in {cluster_s:.2f}s (< 5s)",
    )
