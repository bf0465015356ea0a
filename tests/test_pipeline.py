"""End-to-end pipeline behaviour on a hand-built scenario, plus reports."""

from __future__ import annotations

import dataclasses
import gc
import json
import logging
import math
import multiprocessing
import os
import threading
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from cardcohort import cohort, pipeline
from cardcohort.cohort import CHANGED, FOUND, JOBLESS, LOST, NOT_CHANGED, move
from cardcohort.geo import CLUSTER_RADIUS_M, INWARD, OUTWARD, Region, haversine_km
from cardcohort.ingest import SchemaError, format_minute, parse_minute
from cardcohort.pipeline import (
    MissingInputError,
    RunConfig,
    aggregate_taz,
    load_registry,
    process_year,
    run_pipeline,
)
from cardcohort.reports import write_profiles, write_run_reports, write_summary
from cardcohort.synth import GeneratorConfig, generate

from conftest import (
    MINI_ORIGIN, PER_CARD_COPY_BYTES, YearProfile, _square_geojson, card_profiles, fr_deltas, group_of, offset_coord,
    peak_traced_bytes, profile_columns,
)

EXPECTED_HEADERS = {
    "profiles_year1.csv": "card_id,year,home_place,work_place,commute_km,commute_min,rides",
    "profiles_year2.csv": "card_id,year,home_place,work_place,commute_km,commute_min,rides",
    "rejections_year1.csv": "line_no,reason",
    "rejections_year2.csv": "line_no,reason",
    "rejections_stops1.csv": "line_no,reason",
    "rejections_stops2.csv": "line_no,reason",
    "unmatched_year1.csv": "stop_id,count",
    "unmatched_year2.csv": "stop_id,count",
    "summary.csv": "indicator,year1,year2,both",
    "deltas.csv": (
        "card_id,housing_status,housing_dir,move_km,move_bin,"
        "work_status,work_dir,work_move_km,commute_delta_km,commute_bin,r4_2010"
    ),
    "housing_dynamics.csv": "status,direction,bin,count,share_pct",
    "work_dynamics.csv": "status,direction,bin,count,share_pct",
    "commute_variation.csv": "bin,count,share_pct",
    "groups.csv": "group,housing_change,job_change,location,count,share_pct",
    "deprivation.csv": "metric,value",
    "scores.csv": "card_id,group,followup_trips,scored",
    "rejections_followup.csv": "line_no,reason",
}


def read_rows(path: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def groups_of(result) -> dict[str, int]:
    return {c: group_of(d) for c, d in fr_deltas(result.deltas).items()}


def score_rows(result, out) -> dict[str, list[str]]:
    """The ``scores.csv`` rows of ``result`` by card, without the card id."""
    write_run_reports(result, str(out), names={"scores.csv"})
    return {row[0]: row[1:] for row in read_rows(os.path.join(out, "scores.csv"))[1:]}


def as_written(coord: tuple[float, float]) -> tuple[float, float]:
    """A coordinate pair as it survives the 7-decimal registry format."""
    return float(f"{coord[0]:.7f}"), float(f"{coord[1]:.7f}")


class TestRunConfigValidate:
    def _cfg(self, **kwargs):
        base = dict(year1="x", year2="x", stops1="x", stops2="x")
        base.update(kwargs)
        return RunConfig(**base)

    def test_missing_files_reported(self, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("card\n")
        cfg = self._cfg(year1=str(real), year2=str(tmp_path / "gone.csv"))
        with pytest.raises(MissingInputError) as err:
            cfg.validate()
        assert "gone.csv" in str(err.value)
        # A directory is not an input file.
        cfg = self._cfg(year1=str(real), year2=str(real), stops1=str(real), stops2=str(real), taz=str(tmp_path))
        with pytest.raises(MissingInputError) as err:
            cfg.validate()
        assert f"not a regular file: {tmp_path}" in str(err.value)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stay_min": 0},
            {"cluster_m": -5.0},
            {"change_km": -1.0},
            {"threads": 0},
            {"stay_mode": "bogus"},
            {"home_rule": "bogus"},
            {"cluster_m": math.nan},
            {"cluster_m": math.inf},
            {"change_km": math.nan},
            {"change_km": math.inf},
            {"center": (math.nan, math.nan)},
            {"center": (116.4, math.inf)},
            {"center": (181.0, 39.9)},
            {"center": (116.4, -90.5)},
        ],
    )
    def test_bad_thresholds_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            self._cfg(**kwargs).validate()


def profiled(tx_path: str, stops_path: str, cfg: RunConfig) -> pipeline.YearData:
    """The year at ``tx_path``, profiled against the registry at ``stops_path`` with its week derived."""
    return process_year(tx_path, load_registry(stops_path, cfg.cluster_m), cfg, None)


class TestProcessYear:
    def test_year_one_profiles(self, mini_config, mini_bundle):
        year = profiled(mini_config.year1, mini_config.stops1, mini_config)
        assert year.week.start_date.isoformat() == "2008-04-07"
        assert len(year.places) == 3
        assert year.parsed == 30
        assert year.kept == 30
        profiles = card_profiles(year.profiles)
        assert sorted(profiles) == ["A1", "F1", "S1"]

        a1 = profiles["A1"]
        assert (a1.home, a1.work) == (0, 1)
        assert a1.commute_min == 40
        assert a1.rides == 10
        # The registry file carries 7-decimal coordinates, so expected
        # values must start from the rounded form too.
        coords = {k: as_written(v) for k, v in mini_bundle["coords"].items()}
        home_centroid = (
            (coords["HA"][0] + coords["HB"][0]) / 2,
            (coords["HA"][1] + coords["HB"][1]) / 2,
        )
        assert a1.commute_km == pytest.approx(haversine_km(home_centroid, coords["WA"]), abs=1e-9)

        s1 = profiles["S1"]
        assert (s1.home, s1.work) == (None, None)
        assert s1.rides == 10

        f1 = profiles["F1"]
        assert (f1.home, f1.work) == (0, 1)
        assert f1.commute_min is None
        assert f1.commute_km == pytest.approx(a1.commute_km, abs=1e-12)

    def test_a_home_across_the_antimeridian_is_near_its_work(self, mini_config, tmp_path):
        # HE and HW, 17 m apart on either side of +-180 degrees, are the
        # home place; WK, 5 km east of them, is the work place.
        west = (-179.9999, 39.9)
        work = offset_coord(west, 5000, 0)
        stops = tmp_path / "stops.csv"
        stops.write_text(f"stop_id,lon,lat\nHE,179.9999000,39.9000000\nHW,-179.9999000,39.9000000\n"
                         f"WK,{work[0]:.7f},{work[1]:.7f}\n")
        header = "card_id,card_type,fare_type,route_id,board_stop,board_time,alight_stop,alight_time"
        rows = [header]
        for day in (f"2008-04-{d:02d}" for d in range(7, 12)):
            rows += [f"H1,R,DST,B1,HE,{day}T07:30,WK,{day}T08:10", f"H1,R,DST,B1,WK,{day}T18:00,HW,{day}T18:40"]
        week = tmp_path / "week.csv"
        week.write_text("\n".join(rows) + "\n")
        h1 = card_profiles(profiled(str(week), str(stops), mini_config).profiles)["H1"]
        assert (h1.home, h1.work) == (0, 1)
        assert h1.commute_km == pytest.approx(haversine_km((180.0, 39.9), as_written(work)), abs=1e-6)
        assert 4.9 < h1.commute_km < 5.1

    def test_strict_mode_drops_fixed_fare_cards(self, mini_config):
        cfg = dataclasses.replace(mini_config, stay_mode="strict")
        profiles = card_profiles(profiled(cfg.year1, cfg.stops1, cfg).profiles)
        assert profiles["A1"].home == 0
        assert profiles["F1"].home is None
        assert profiles["F1"].work is None


_count_followup = pipeline._count_followup
_followup_counts_here: list[tuple] = []


def _counting_followup(*args):
    """pipeline._count_followup, noting each call made in this process.

    A module-level function, so that a worker's job that names it pickles.
    """
    _followup_counts_here.append(args)
    return _count_followup(*args)


@pytest.fixture
def fork_workers():
    """Start this test's workers by fork, whatever the default start method.

    A forked worker inherits the spies the test patched into the parent,
    local functions included, which a worker started by spawn or
    forkserver imports afresh or cannot unpickle.  The same failure paths
    under those methods are checked by ``test_cli.py::TestStartMethods``.
    """
    was = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("fork", force=True)
    yield
    multiprocessing.set_start_method(was, force=True)


class TestJobs:
    """Year 1, year 2 and the follow-up run as processes at threads > 1."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, mini_config, tmp_path, enabled):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            run_pipeline(mini_config)
            assert gc.isenabled() is enabled
            with pytest.raises(SchemaError):
                run_pipeline(dataclasses.replace(mini_config, year1=str(bad)))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_each_job_runs_without_collector(self, mini_config, monkeypatch):
        # A worker started by spawn or forkserver does not inherit the
        # parent's collector state, so the jobs turn it off themselves.
        seen = []

        def spy(name):
            real = getattr(pipeline, name)

            def call(*args, **kwargs):
                seen.append((name, gc.isenabled()))
                return real(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, call)

        spy("ingest")
        spy("build_places")
        assert gc.isenabled()
        profiled(mini_config.year1, mini_config.stops1, mini_config)
        pipeline._year2(mini_config, None)
        pipeline._count_followup(mini_config.followup, None)
        year = [("build_places", False), ("ingest", False)]
        assert seen == [*year, *year, ("ingest", False)]
        assert gc.isenabled()

    def test_each_registry_is_clustered_once_per_process(self, mini_config, tmp_path, monkeypatch):
        clustered = []
        real = pipeline.build_places

        def counting(stops, *args):
            clustered.append(sorted(stops))
            return real(stops, *args)

        monkeypatch.setattr(pipeline, "build_places", counting)
        copy = tmp_path / "stops2.csv"
        copy.write_bytes(Path(mini_config.stops1).read_bytes())
        # At threads=2 the spy's list is the parent's.  The parent clusters
        # year 1's registry, before the worker starts when year 2 names it
        # too, and never clusters the copy a worker clustered for year 2.
        cases = ((mini_config.stops1, 1, 1), (str(copy), 1, 2), (mini_config.stops1, 2, 1), (str(copy), 2, 1))
        for stops2, threads, calls in cases:
            clustered.clear()
            result = run_pipeline(dataclasses.replace(mini_config, stops2=stops2, threads=threads))
            assert len(clustered) == calls
            shared = stops2 == mini_config.stops1
            assert (result.year1.places is result.year2.places) == shared
            assert (result.year1.stop_rejections is result.year2.stop_rejections) == shared

    def test_the_parent_counts_the_follow_up_only_at_one_thread(self, mini_config, monkeypatch):
        # At threads=2 the worker that profiles year 2 counts the follow-up week.
        monkeypatch.setattr(pipeline, "_count_followup", _counting_followup)
        for threads, calls in ((1, 1), (2, 0)):
            _followup_counts_here.clear()
            result = run_pipeline(dataclasses.replace(mini_config, threads=threads))
            assert result.followup_counts == {"F1": 3}
            assert len(_followup_counts_here) == calls

    def test_a_worker_sends_back_only_the_registry_the_parent_lacks(self, mini_config, tmp_path, monkeypatch):
        import pickle

        held = load_registry(mini_config.stops1, mini_config.cluster_m)
        assert b"PlaceIndex" not in pickle.dumps(pipeline._year2(mini_config, held))
        assert b"PlaceIndex" in pickle.dumps(pipeline._year2(mini_config, None))
        # And so the parent unpickles a registry only when it holds none by that path.

        loaded = []
        real = pickle.loads

        def spy(data, *a, **kw):
            loaded.append(data)
            return real(data, *a, **kw)

        monkeypatch.setattr(pickle, "loads", spy)
        copy = tmp_path / "stops2.csv"
        copy.write_bytes(Path(mini_config.stops1).read_bytes())
        for stops2, sent in ((mini_config.stops1, False), (str(copy), True)):
            loaded.clear()
            run_pipeline(dataclasses.replace(mini_config, stops2=stops2, threads=2))
            assert [b"PlaceIndex" in data for data in loaded] == [sent]

    @pytest.mark.usefixtures("fork_workers")
    @pytest.mark.parametrize("threads,copied,calls", [(2, False, 1), (3, False, 1), (2, True, 2), (3, True, 2)])
    def test_a_registry_both_years_name_is_clustered_once_per_run(
        self, mini_config, tmp_path, monkeypatch, threads, copied, calls
    ):
        # Each call appends a line to a file, so that the count takes in
        # the workers, which a fork leaves with the spy.
        log = tmp_path / "clustered.txt"
        real = pipeline.build_places

        def counting(stops, *args):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(stops, *args)

        monkeypatch.setattr(pipeline, "build_places", counting)
        stops2 = mini_config.stops1
        if copied:
            stops2 = tmp_path / "stops2.csv"
            stops2.write_bytes(Path(mini_config.stops1).read_bytes())
        result = run_pipeline(dataclasses.replace(mini_config, stops2=str(stops2), threads=threads))
        result.close()
        assert len(log.read_text().splitlines()) == calls
        assert (result.year1.places is result.year2.places) != copied

    @pytest.mark.usefixtures("fork_workers")
    @pytest.mark.parametrize("threads", [3, 8])
    def test_a_count_above_two_starts_one_worker(self, mini_config, tmp_path, monkeypatch, threads):
        started = []
        real = multiprocessing.Process.start

        def counting(process):
            started.append(process)
            return real(process)

        monkeypatch.setattr(multiprocessing.Process, "start", counting)
        reports = []
        for n in (2, threads):
            started.clear()
            result = run_pipeline(dataclasses.replace(mini_config, threads=n))
            out = tmp_path / f"out{n}"
            write_run_reports(result, str(out))
            result.close()
            assert len(started) == 1
            reports.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert reports[1] == reports[0]

    def test_a_worker_sends_its_jobs_results_in_job_order(self):
        # Builtins, so that the jobs pickle under every start method.  A
        # job's exception comes back with its type, and the next job runs.
        worker = pipeline.WorkerJob([(pow, (2, 3)), (int, ("x",)), (divmod, (7, 2))])
        try:
            assert worker.result() == 8
            with pytest.raises(ValueError, match="'x'"):
                worker.result()
            assert worker.result() == (3, 1)
            with pytest.raises(RuntimeError, match="exited with code 0"):
                worker.result()
        finally:
            worker.close()
        assert multiprocessing.active_children() == []

    def test_closing_a_worker_ends_a_job_it_is_still_running(self):
        import time

        worker = pipeline.WorkerJob([(time.sleep, (60,))])
        began = time.monotonic()
        worker.close()
        assert time.monotonic() - began < 30
        assert worker.process.exitcode is not None and worker.process.exitcode < 0
        assert worker.connection.closed
        assert multiprocessing.active_children() == []

    @pytest.mark.usefixtures("fork_workers")
    def test_no_thread_runs_beside_the_parent_while_it_profiles_year_1(self, mini_config, monkeypatch):
        # A worker's own calls land in its copy of the list.
        seen = []
        real = pipeline.process_year

        def counting(*args, **kwargs):
            seen.append(threading.active_count())
            year = real(*args, **kwargs)
            seen.append(threading.active_count())
            return year

        monkeypatch.setattr(pipeline, "process_year", counting)
        result = run_pipeline(dataclasses.replace(mini_config, threads=2))
        assert result.followup_counts == {"F1": 3}
        assert seen == [1, 1]

    @pytest.mark.usefixtures("fork_workers")
    @pytest.mark.parametrize("threads", [2, 3])
    def test_a_worker_that_exits_without_its_result_fails_the_run(self, mini_config, monkeypatch, threads):
        parent = os.getpid()
        real = pipeline.process_year

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(9)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "process_year", dying)
        with pytest.raises(RuntimeError, match="exited with code 9"):
            run_pipeline(dataclasses.replace(mini_config, threads=threads))
        assert multiprocessing.active_children() == []

    def test_a_year2_registry_that_shifts_every_place_id(self, mini_config, tmp_path):
        # A far-off stop whose id sorts first becomes year 2's place 0, so
        # every year-2 place id is one greater than the same place's id in
        # year 1.  test_invariance.py checks the reports of such a run.
        lines = Path(mini_config.stops1).read_text(encoding="utf-8").splitlines(keepends=True)
        shifted = tmp_path / "stops2.csv"
        shifted.write_text("".join([lines[0], "A0,100.0,10.0\n", *lines[1:]]), encoding="utf-8")
        for threads in (1, 2):
            result = run_pipeline(dataclasses.replace(mini_config, stops2=str(shifted), threads=threads))
            assert result.year2.places is not result.year1.places
            a1 = card_profiles(result.year2.profiles)["A1"]
            assert (a1.home, a1.work) == (3, 2)

    def test_cards_of_one_year_only_read_alike_at_every_thread_count(self, tmp_path):
        # No synth bundle has a card in only one year, so some cards' lines
        # are dropped from each year's file.  At threads=1 year 2 is read
        # seeded with year 1's ids, those dropped from year 2 included.
        gen = GeneratorConfig(
            seed=7, commuters=30, movers=30, job_changers=30, jobless=20, churners=20,
            grid_rows=6, grid_cols=6, site_stops=3, noise_rate=0.2,
        )
        p = generate(gen, str(tmp_path / "bundle")).paths
        cfg = RunConfig(year1=p["week1"], year2=p["week2"], stops1=p["stops"], stops2=p["stops"], followup=p["followup"])
        full = run_pipeline(cfg)
        cards1, cards2 = full.year1.profiles.cards, full.year2.profiles.cards
        both = sorted(set(cards1) & set(cards2))
        gone = {"year1": set(both[::20]), "year2": set(both[10::20])}
        for key, cards in gone.items():
            path = tmp_path / f"{key}.csv"
            with open(getattr(cfg, key), encoding="utf-8") as fh:
                path.write_text("".join(line for line in fh if line.split(",", 1)[0] not in cards), encoding="utf-8")
            cfg = dataclasses.replace(cfg, **{key: str(path)})
        kept = len(both) - len(gone["year1"]) - len(gone["year2"])
        counts = [len(cards1) - len(gone["year1"]), len(cards2) - len(gone["year2"]), kept]
        reports = []
        for threads in (1, 2, 3):
            result = run_pipeline(dataclasses.replace(cfg, threads=threads))
            out = tmp_path / f"out{threads}"
            write_run_reports(result, str(out))
            reports.append({f.name: f.read_bytes() for f in out.iterdir()})
            assert read_rows(str(out / "summary.csv"))[1] == ["total_cardholders", *map(str, counts)]
            held = {card: card for card in result.year1.profiles.cards}
            shared = [card is held[card] for card in result.year2.profiles.cards if card in held]
            assert shared == [threads == 1] * kept
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_run_leaves_no_cyclic_garbage(self, mini_config):
        gc.collect()
        result = run_pipeline(mini_config)
        assert gc.collect() == 0
        assert result.deltas.cards == ["A1", "F1"]


def test_a_clustered_stop_costs_fewer_than_160_bytes(tmp_path):
    """Held as one record per place, a stop-to-place dict and the
    pipeline's own code table and place list, this registry of 3,600
    stops in 400 places leaves 184 to 192 bytes per stop live, its id
    text and code included.  Held as one code table, one place list and
    the centroids, it leaves 133 to 140.  The bound of 160 lies between
    the two, clear of each.
    """
    gen = GeneratorConfig(
        commuters=2, movers=0, job_changers=0, jobless=0, churners=0, grid_rows=20, grid_cols=20, site_stops=3
    )
    path = generate(gen, str(tmp_path)).paths["stops"]
    # A full collection empties the free lists of tuples and floats, so
    # that the count holds every block the registry keeps and none it let go.
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        registry = pipeline.load_registry(path, CLUSTER_RADIUS_M)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(registry.places) == 400
    assert live / 3600 < 160


def test_clustering_a_stop_peaks_below_600_bytes(tmp_path):
    """While it loads and clusters this registry of 3,600 stops in 400
    places, ``load_registry`` holds at most 672 bytes per stop beyond what
    was live before it when each stop's unit vector is a tuple of three
    floats and each grid square's candidate list lives through the whole
    flood fill.  With the vectors in three flat arrays and only the
    candidate lists of the place being filled held, it holds at most 446.
    The bound of 600 lies between the two, clear of each.
    """
    gen = GeneratorConfig(
        commuters=2, movers=0, job_changers=0, jobless=0, churners=0, grid_rows=20, grid_cols=20, site_stops=3
    )
    path = generate(gen, str(tmp_path)).paths["stops"]
    gc.collect()
    peak = peak_traced_bytes(pipeline.load_registry, path, CLUSTER_RADIUS_M)
    assert peak / 3600 < 600


def test_a_profiled_card_costs_fewer_than_130_bytes(tmp_path):
    """A year of 500 profiled cards held as a dict of one profile object
    per card leaves 167 bytes per card live after process_year, its id
    text included.  Held as a sorted id list and five arrays, it leaves
    96.  The bound of 130 lies between the two, clear of each.
    """
    gen = GeneratorConfig(commuters=100, movers=100, job_changers=100, jobless=100, churners=100)
    paths = generate(gen, str(tmp_path)).paths
    cfg = RunConfig(year1=paths["week1"], year2=paths["week2"], stops1=paths["stops"], stops2=paths["stops"])
    registry = load_registry(cfg.stops1, cfg.cluster_m)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        year = process_year(cfg.year1, registry, cfg, None)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(year.profiles) == 500
    assert live / 500 < 130


@pytest.fixture(scope="module")
def result(mini_bundle):
    cfg = RunConfig(
        year1=mini_bundle["year1"],
        year2=mini_bundle["year2"],
        stops1=mini_bundle["stops"],
        stops2=mini_bundle["stops"],
        followup=mini_bundle["followup"],
        r4=mini_bundle["r4"],
        taz=mini_bundle["taz"],
        center=mini_bundle["center"],
    )
    return run_pipeline(cfg)


class TestMiniPipeline:
    def test_frequent_riders(self, result):
        assert result.deltas.cards == ["A1", "F1"]

    def test_mover_delta(self, result, mini_bundle):
        d = fr_deltas(result.deltas)["A1"]
        assert d.housing_status == CHANGED
        assert d.housing_dir == OUTWARD
        assert d.move_bin == "10-20"
        coords = {k: as_written(v) for k, v in mini_bundle["coords"].items()}
        home1 = (
            (coords["HA"][0] + coords["HB"][0]) / 2,
            (coords["HA"][1] + coords["HB"][1]) / 2,
        )
        assert d.move_km == pytest.approx(haversine_km(home1, coords["XA"]), abs=1e-9)
        assert d.work_status == NOT_CHANGED
        assert d.commute_bin == "0-2"
        assert d.r4_2010 is False

    def test_settled_delta(self, result):
        d = fr_deltas(result.deltas)["F1"]
        assert d.housing_status == NOT_CHANGED
        assert d.housing_dir is None
        assert d.move_bin is None
        assert d.work_status == NOT_CHANGED
        assert d.commute_delta_km == pytest.approx(0.0, abs=1e-12)
        assert d.commute_bin == "0-2"
        assert d.r4_2010 is True

    def test_group_assignments(self, result):
        assert groups_of(result) == {"A1": 9, "F1": 20}

    def test_deprivation(self, result, tmp_path):
        summary = result.dep_summary
        assert summary.fr_count == 2
        assert summary.scored_count == 1
        assert summary.scored_fraction == 0.5
        assert summary.mean_trips == 3.0
        assert summary.std_trips == 0.0
        by_card = score_rows(result, tmp_path)
        assert by_card["A1"] == ["9", "0", "0"]
        assert by_card["F1"] == ["20", "3", "1"]

    def test_taz_assignment(self, result):
        assert [r.name for r in result.taz_regions] == ["near", "far"]
        assert result.taz_counts == [1, 1]
        assert result.taz_outside == 0
        assert result.taz_overlap is False

    def test_report_bundle(self, result, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("reports"))
        written = write_run_reports(result, out)
        assert sorted(written) == sorted(
            list(EXPECTED_HEADERS) + ["taz_fr_homes.geojson"]
        )
        for name, header in EXPECTED_HEADERS.items():
            rows = read_rows(os.path.join(out, name))
            assert ",".join(rows[0][: len(header.split(","))]) == header, name
        for name in written:
            with open(os.path.join(out, name), "rb") as fh:
                blob = fh.read()
            assert b"\r" not in blob, name
            assert blob.endswith(b"\n"), name

    def test_named_subset_of_the_bundle(self, result, tmp_path_factory):
        full = tmp_path_factory.mktemp("full")
        write_run_reports(result, str(full))
        part = tmp_path_factory.mktemp("part")
        names = ["taz_fr_homes.geojson", "scores.csv", "profiles_year2.csv"]
        written = write_run_reports(result, str(part), names)
        # Bundle order, not the order asked for.
        assert written == ["profiles_year2.csv", "scores.csv", "taz_fr_homes.geojson"]
        assert sorted(os.listdir(part)) == written
        for name in written:
            assert (part / name).read_bytes() == (full / name).read_bytes(), name

    def test_zone_layer_is_written_as_the_pipeline_read_it(self, mini_bundle, tmp_path):
        taz = tmp_path / "taz.geojson"
        with open(mini_bundle["taz"], "rb") as fh:
            taz.write_bytes(fh.read())
        cfg = RunConfig(
            year1=mini_bundle["year1"],
            year2=mini_bundle["year2"],
            stops1=mini_bundle["stops"],
            stops2=mini_bundle["stops"],
            taz=str(taz),
            center=mini_bundle["center"],
        )
        result = run_pipeline(cfg)
        with open(taz, encoding="utf-8") as fh:
            before = json.load(fh)
        # A valid layer of one other zone replaces the file after the run.
        taz.write_text(json.dumps({"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]}))
        write_run_reports(result, str(tmp_path / "out"))
        with open(tmp_path / "out" / "taz_fr_homes.geojson", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert [f["geometry"] for f in doc["features"]] == [f["geometry"] for f in before["features"]]
        assert [f["properties"]["name"] for f in doc["features"]] == ["near", "far"]
        assert [f["properties"]["fr_homes"] for f in doc["features"]] == result.taz_counts

    def test_overlapping_zones_send_each_home_to_the_first(self, mini_bundle, tmp_path, caplog):
        # "wide" holds both FR homes (F1 at HA, A1 at XA), and each of the others holds one.
        taz = tmp_path / "taz.geojson"
        taz.write_text(
            _square_geojson(
                [
                    ("wide", -1000, 15000, -3000, 3000),
                    ("near", -1000, 3000, -3000, 3000),
                    ("far", 9000, 15000, -3000, 3000),
                ]
            )
        )
        cfg = RunConfig(
            year1=mini_bundle["year1"],
            year2=mini_bundle["year2"],
            stops1=mini_bundle["stops"],
            stops2=mini_bundle["stops"],
            taz=str(taz),
            center=mini_bundle["center"],
        )
        with caplog.at_level(logging.WARNING, logger=pipeline.__name__):
            result = run_pipeline(cfg)
        assert result.deltas.cards == ["A1", "F1"]
        assert result.taz_overlap is True
        assert [r.name for r in result.taz_regions] == ["wide", "near", "far"]
        assert (result.taz_counts, result.taz_outside) == ([2, 0, 0], 0)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.WARNING, "overlapping TAZ polygons: homes assigned to first match in file order")
        ]

    def test_deltas_csv_rows(self, result, tmp_path):
        out = str(tmp_path)
        write_run_reports(result, out)
        rows = read_rows(os.path.join(out, "deltas.csv"))
        assert [r[0] for r in rows[1:]] == ["A1", "F1"]
        a1 = rows[1]
        assert a1[1] == CHANGED
        assert a1[2] == OUTWARD
        assert a1[4] == "10-20"
        assert a1[10] == "0"
        f1 = rows[2]
        assert f1[1] == NOT_CHANGED
        assert f1[2] == ""
        assert f1[10] == "1"

    def test_groups_csv_has_all_twenty_rows(self, result, tmp_path):
        write_run_reports(result, str(tmp_path))
        rows = read_rows(os.path.join(tmp_path, "groups.csv"))
        assert len(rows) == 21
        assert [r[0] for r in rows[1:]] == [str(g) for g in range(1, 21)]
        counts = {int(r[0]): int(r[4]) for r in rows[1:]}
        assert counts[9] == 1
        assert counts[20] == 1
        assert sum(counts.values()) == 2

    def test_housing_dynamics_sums(self, result, tmp_path):
        write_run_reports(result, str(tmp_path))
        rows = read_rows(os.path.join(tmp_path, "housing_dynamics.csv"))[1:]
        by_key = {(r[0], r[1], r[2]): int(r[3]) for r in rows}
        assert by_key[(NOT_CHANGED, "", "")] == 1
        assert by_key[(CHANGED, "", "")] == 1
        assert by_key[(CHANGED, OUTWARD, "")] == 1
        assert by_key[(CHANGED, OUTWARD, "10-20")] == 1
        assert by_key[("Sum", "", "")] == 2
        shares = {(r[0], r[1], r[2]): r[4] for r in rows}
        assert shares[(NOT_CHANGED, "", "")] == "50.0"
        assert shares[("Sum", "", "")] == "100.0"

    def test_summary_counts(self, result, tmp_path):
        write_run_reports(result, str(tmp_path))
        rows = read_rows(os.path.join(tmp_path, "summary.csv"))
        table = {r[0]: r[1:] for r in rows[1:]}
        assert table["total_cardholders"] == ["3", "3", "3"]
        assert table["with_home_place"] == ["2", "2", "2"]
        assert table["with_work_place"] == ["2", "2", "2"]
        assert table["with_commute_distance"] == ["2", "2", "2"]
        assert table["with_commute_time"] == ["1", "1", "1"]
        assert float(table["avg_commute_min"][0]) == 40.0

    def test_summary_copies_nothing_per_card(self, tmp_path):
        # Two years of 20,000 profiles, 10,000 cards in both; a set of the
        # shared ids or a list of the commute values would hold hundreds of KiB.
        def year(first):
            def profile(i):
                km, minutes = (None, None) if i % 3 == 0 else (i / 7, i % 90)
                return YearProfile(i % 5 or None, i % 4 or None, km, minutes, 9)

            return SimpleNamespace(profiles=profile_columns((f"C{i:05d}", profile(i)) for i in range(first, first + 20_000)))

        result = SimpleNamespace(year1=year(0), year2=year(10_000))
        path = str(tmp_path / "summary.csv")
        assert peak_traced_bytes(write_summary, path, result) < PER_CARD_COPY_BYTES
        table = {r[0]: r[1:] for r in read_rows(path)[1:]}
        assert table["total_cardholders"] == ["20000", "20000", "10000"]

    def test_scores_csv(self, result, tmp_path):
        write_run_reports(result, str(tmp_path))
        rows = read_rows(os.path.join(tmp_path, "scores.csv"))
        assert rows[1] == ["A1", "9", "0", "0"]
        assert rows[2] == ["F1", "20", "3", "1"]

    def test_taz_geojson_injection(self, result, tmp_path):
        write_run_reports(result, str(tmp_path))
        with open(os.path.join(tmp_path, "taz_fr_homes.geojson"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["outside_count"] == 0
        homes = [f["properties"]["fr_homes"] for f in doc["features"]]
        names = [f["properties"]["name"] for f in doc["features"]]
        assert names == ["near", "far"]
        assert homes == [1, 1]


@pytest.fixture(scope="module")
def dynamics_bundle(tmp_path_factory):
    """Two years in which every row kind of both dynamics tables is non-empty.

    Stops lie on one parallel, in metres east of MINI_ORIGIN: homes H0 at
    0, H1 at 1000 and H2 at 8000; workplaces W0 at 5000 and W1 at 6200;
    an errand stop E0 at -3000.  Workers ride H->W each weekday morning
    and back each evening; riders without work go from home to E0 at
    09:00 and back at 11:00.

    * N1: H0/W0 to H1/W1, a 1 km home move and a 1.2 km work move.
    * M1: H0/W0 to H2/W0, an 8 km home move with work unchanged.
    * L1 works in year 1 only, F1 in year 2 only, J1 in neither.
    """
    d = tmp_path_factory.mktemp("dynamics")
    east = {"H0": 0, "H1": 1000, "H2": 8000, "W0": 5000, "W1": 6200, "E0": -3000}
    (d / "stops.csv").write_text(
        "stop_id,lon,lat\n"
        + "".join("{},{:.7f},{:.7f}\n".format(s, *offset_coord(MINI_ORIGIN, m, 0)) for s, m in east.items())
    )

    def week(start: int, year: int, plans: dict[str, tuple[str, str | None]]) -> str:
        lines = ["card_id,card_type,fare_type,route_id,board_stop,board_time,alight_stop,alight_time"]
        for card, (home, work) in plans.items():
            for day in (f"{year}-04-{d:02d}" for d in range(start, start + 5)):
                if work is None:
                    lines.append(f"{card},R,DST,B1,{home},{day}T09:00,E0,{day}T09:30")
                    lines.append(f"{card},R,DST,B1,E0,{day}T11:00,{home},{day}T11:30")
                else:
                    lines.append(f"{card},R,DST,B1,{home},{day}T07:30,{work},{day}T08:10")
                    lines.append(f"{card},R,DST,B1,{work},{day}T18:00,{home},{day}T18:40")
        return "\n".join(lines) + "\n"

    (d / "year1.csv").write_text(week(7, 2008, {
        "N1": ("H0", "W0"), "M1": ("H0", "W0"), "L1": ("H0", "W0"), "F1": ("H0", None), "J1": ("H0", None),
    }))
    (d / "year2.csv").write_text(week(5, 2010, {
        "N1": ("H1", "W1"), "M1": ("H2", "W0"), "L1": ("H0", None), "F1": ("H0", "W0"), "J1": ("H0", None),
    }))
    return d


class TestDynamicsTables:
    @pytest.mark.parametrize("change_km", [2.0, 0.5])
    @pytest.mark.parametrize(
        "name,status_of,tail",
        [
            ("housing_dynamics.csv", "housing_status", ()),
            ("work_dynamics.csv", "work_status", (LOST, FOUND, JOBLESS)),
        ],
    )
    def test_rows_are_sums_of_their_parts(self, dynamics_bundle, tmp_path, change_km, name, status_of, tail):
        d = dynamics_bundle
        cfg = RunConfig(
            year1=str(d / "year1.csv"), year2=str(d / "year2.csv"),
            stops1=str(d / "stops.csv"), stops2=str(d / "stops.csv"),
            center=offset_coord(MINI_ORIGIN, -10000, 0), change_km=change_km,
        )
        result = run_pipeline(cfg)
        assert result.deltas.cards == ["F1", "J1", "L1", "M1", "N1"]
        write_run_reports(result, str(tmp_path), {name})
        rows = read_rows(os.path.join(tmp_path, name))[1:]
        count = {(r[0], r[1], r[2]): int(r[3]) for r in rows}
        assert [r[0] for r in rows if not r[1]] == [NOT_CHANGED, CHANGED, *tail, "Sum"]

        statuses = (NOT_CHANGED, CHANGED, *tail)
        expected = Counter(getattr(delta, status_of) for delta in fr_deltas(result.deltas).values())
        assert {s: count[s, "", ""] for s in statuses} == {s: expected[s] for s in statuses}
        assert count["Sum", "", ""] == sum(expected.values()) == len(result.deltas.cards)
        for direction in (INWARD, OUTWARD):
            bins = [n for (s, dir_, label), n in count.items() if s == CHANGED and dir_ == direction and label]
            assert count[CHANGED, direction, ""] == sum(bins)
        assert count[CHANGED, "", ""] == count[CHANGED, INWARD, ""] + count[CHANGED, OUTWARD, ""]
        assert all(count[s, "", ""] == 1 for s in tail)

        # N1's 1 km home move and 1.2 km work move fill a "0-2" row only
        # under a benchmark below 2 km; otherwise the row is left out.
        near = {key: n for key, n in count.items() if key[2] == "0-2"}
        assert near == ({(CHANGED, OUTWARD, "0-2"): 1} if change_km < 2.0 else {})


class TestAggregateTaz:
    SQ1 = Region("one", (((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (0.0, 0.0)),))
    SQ2 = Region("two", (((5.0, 0.0), (7.0, 0.0), (7.0, 2.0), (5.0, 2.0), (5.0, 0.0)),))
    SQ_OVERLAP = Region("three", (((1.0, 0.0), (3.0, 0.0), (3.0, 2.0), (1.0, 2.0), (1.0, 0.0)),))

    def test_disjoint_assignment(self):
        counts, outside, overlap = aggregate_taz(
            {(1.0, 1.0): 1, (6.0, 1.0): 1, (9.0, 9.0): 1}, [self.SQ1, self.SQ2]
        )
        assert counts == [1, 1]
        assert outside == 1
        assert overlap is False

    def test_overlap_goes_to_first_region_and_is_flagged(self):
        counts, outside, overlap = aggregate_taz({(1.5, 1.0): 1}, [self.SQ1, self.SQ_OVERLAP])
        assert counts == [1, 0]
        assert outside == 0
        assert overlap is True

    def test_empty_inputs(self):
        assert aggregate_taz({}, [self.SQ1]) == ([0], 0, False)
        assert aggregate_taz({(1.0, 1.0): 1}, []) == ([], 1, False)

    def test_repeated_centroids_tested_once(self, monkeypatch):
        centroids = [(1.0, 1.0), (1.5, 1.0), (6.0, 1.0), (9.0, 9.0)]
        regions = [self.SQ1, self.SQ2, self.SQ_OVERLAP]
        repeated = centroids * 3 + centroids[::-1] + [(1.5, 1.0)]
        # Expected: the sum of the one-home aggregates, one per repeat.
        counts, outside, overlap = [0, 0, 0], 0, False
        for c in repeated:
            one = aggregate_taz({c: 1}, regions)
            counts = [a + b for a, b in zip(counts, one[0])]
            outside += one[1]
            overlap = overlap or one[2]
        calls = []
        test = pipeline.point_in_region
        monkeypatch.setattr(pipeline, "point_in_region", lambda c, r: calls.append((c, r)) or test(c, r))
        # A count of n stands for n repeats of its centroid.
        assert aggregate_taz(Counter(repeated), regions) == (counts, outside, overlap)
        assert (counts, outside, overlap) == ([9, 4, 0], 4, True)
        assert len(calls) == len(set(calls)) == len(centroids) * len(regions)


class TestGeometryOncePerPlace:
    def test_r4_and_taz_tested_once_per_distinct_home(self, tmp_path, monkeypatch):
        bundle = generate(
            GeneratorConfig(commuters=60, movers=60, job_changers=60, jobless=60, churners=60),
            str(tmp_path),
        )
        calls = []
        test = pipeline.point_in_region
        monkeypatch.setattr(pipeline, "point_in_region", lambda c, r: calls.append((c, r.name)) or test(c, r))
        result = run_pipeline(RunConfig(
            year1=bundle.paths["week1"], year2=bundle.paths["week2"],
            stops1=bundle.paths["stops"], stops2=bundle.paths["stops"],
            r4=bundle.paths["r4"], taz=bundle.paths["taz"], center=bundle.center,
        ))
        # Each FR's delta tests its year-2 home against R4.
        deltas = fr_deltas(result.deltas)
        profiles2 = card_profiles(result.year2.profiles)
        homes = [result.year2.places.centroid(profiles2[c].home) for c in deltas]
        assert len(set(homes)) < len(homes)
        r4_calls = [c for c, name in calls if name == "R4"]
        assert sorted(r4_calls) == sorted(set(homes))
        assert len(calls) == len(set(calls)) == len(set(homes)) * (1 + len(result.taz_regions))
        for card, home in zip(deltas, homes):
            assert deltas[card].r4_2010 == test(home, result.r4_region)

    def test_moves_cached_per_centroid_pair(self, result, mini_bundle, monkeypatch):
        c1, c2 = result.year1.places.centroid, result.year2.places.centroid
        center = mini_bundle["center"]
        y1, y2 = card_profiles(result.year1.profiles), card_profiles(result.year2.profiles)
        # Each FR's delta made on its own, with no cache.
        expected = {
            card: (
                cohort.housing_change(
                    c1(y1[card].home), c2(y2[card].home), center, 2.0,
                    lambda c: pipeline.point_in_region(c, result.r4_region),
                ),
                cohort.work_change(c1(y1[card].work), c2(y2[card].work), center, 2.0),
            )
            for card in result.deltas.cards
        }
        computed = []

        def counting_move(old, new, center, change_km):
            computed.append((old, new))
            return move(old, new, center, change_km)

        monkeypatch.setattr(cohort, "move", counting_move)
        cached = {card: (housing, work) for card, housing, work, _, _ in run_pipeline(result.config).deltas.rows()}
        assert cached == expected
        # A1 moved home, F1 did not; both kept work at WA.
        pairs = {(c1(y1[c].home), c2(y2[c].home)) for c in result.deltas.cards}
        pairs |= {(c1(y1[c].work), c2(y2[c].work)) for c in result.deltas.cards}
        assert len(computed) == len(set(computed))
        assert set(computed) == pairs


@pytest.fixture(scope="module")
def empty_result(tmp_path_factory):
    d = tmp_path_factory.mktemp("empty")
    header = "card_id,card_type,fare_type,route_id,board_stop,board_time,alight_stop,alight_time"
    for name in ("year1.csv", "year2.csv", "followup.csv"):
        (d / name).write_text(header + "\n")
    (d / "stops.csv").write_text("stop_id,lon,lat\nS1,116.30,39.90\n")
    cfg = RunConfig(
        year1=str(d / "year1.csv"),
        year2=str(d / "year2.csv"),
        stops1=str(d / "stops.csv"),
        stops2=str(d / "stops.csv"),
        followup=str(d / "followup.csv"),
    )
    return run_pipeline(cfg)


class TestEmptyInputs:
    def test_no_riders_no_cohort(self, empty_result):
        assert empty_result.deltas.cards == []
        assert groups_of(empty_result) == {}
        assert empty_result.dep_summary.fr_count == 0
        assert empty_result.dep_summary.mean_trips is None

    def test_reports_still_written(self, empty_result, tmp_path):
        written = write_run_reports(empty_result, str(tmp_path))
        assert "summary.csv" in written
        rows = read_rows(os.path.join(tmp_path, "groups.csv"))
        assert len(rows) == 21
        assert all(r[4] == "0" for r in rows[1:])


class TestInputRules:
    """Rules the README documents for ambiguous input."""

    def _write(self, tmp_path, name: str, data: list[str]) -> str:
        header = "card_id,card_type,fare_type,route_id,board_stop,board_time,alight_stop,alight_time"
        path = tmp_path / name
        path.write_text("\n".join([header] + data) + "\n")
        return str(path)

    def test_card_type_does_not_depend_on_row_order(self, tmp_path, mini_bundle, mini_config):
        import random

        days = [f"2008-04-{d:02d}" for d in range(7, 12)]
        rows = []
        for i, day in enumerate(days):
            # One student row among regular ones, in the middle of the week.
            kind = "S" if i == 2 else "R"
            rows.append(f"M1,{kind},DST,B1,HA,{day}T07:30,WA,{day}T08:10")
            rows.append(f"M1,R,DST,B1,WA,{day}T18:00,HA,{day}T18:40")
            rows.append(f"R1,R,DST,B1,HA,{day}T07:30,WA,{day}T08:10")
            rows.append(f"R1,R,DST,B1,WA,{day}T18:00,HA,{day}T18:40")
        rng = random.Random(5)
        orders = [rows, rows[::-1]]
        for _ in range(4):
            shuffled = list(rows)
            rng.shuffle(shuffled)
            orders.append(shuffled)
        # Regular rows first in file order would once have made M1 regular.
        orders.append(sorted(rows, key=lambda r: r.split(",")[1]))
        profiles = []
        for k, order in enumerate(orders):
            path = self._write(tmp_path, f"y{k}.csv", order)
            profiles.append(card_profiles(profiled(path, mini_bundle["stops"], mini_config).profiles))
        assert all(p == profiles[0] for p in profiles)
        # Any student row makes a student card: no home, no work.
        assert (profiles[0]["M1"].home, profiles[0]["M1"].work) == (None, None)
        assert profiles[0]["M1"].rides == 10
        assert (profiles[0]["R1"].home, profiles[0]["R1"].work) == (0, 1)

    def test_a_commute_longer_than_32_bits_of_minutes_is_kept(self, tmp_path, mini_bundle, mini_config):
        # A distance-fare ride may alight as late as 9999-12-31, so a
        # commute can last more than 2**31 - 1 minutes.  HA is place 0
        # (home) and WA place 1 (work).  On three weekdays the morning
        # ride alights 3e9 minutes after it boards and a fixed-fare tap at
        # work follows; on two it takes 30 minutes.  The median is 3e9.
        long_min = 3_000_000_000
        rows = []
        for k, day in enumerate(f"2008-04-{d:02d}" for d in range(7, 12)):
            if k < 3:
                alight = format_minute(parse_minute(f"{day}T07:30") + long_min)
                rows += [f"L1,R,DST,B1,HA,{day}T07:30,WA,{alight}", f"L1,R,FIX,B2,WA,{day}T08:00,,"]
            else:
                rows.append(f"L1,R,DST,B1,HA,{day}T07:30,WA,{day}T08:00")
            rows.append(f"L1,R,DST,B1,WA,{day}T18:00,HA,{day}T18:40")
        year = profiled(self._write(tmp_path, "long.csv", rows), mini_bundle["stops"], mini_config)
        p = card_profiles(year.profiles)["L1"]
        assert (p.home, p.work, p.commute_min, p.rides) == (0, 1, long_min, 13)
        path = tmp_path / "profiles.csv"
        write_profiles(str(path), year.profiles, year.week)
        assert read_rows(str(path))[1] == ["L1", "2008", "0", "1", f"{p.commute_km:.3f}", str(long_min), "13"]

    def test_followup_rows_count_without_geocoding(self, tmp_path, mini_config):
        path = self._write(
            tmp_path,
            "followup.csv",
            [
                "F1,R,FIX,B2,HA,2014-04-07T09:00,,",
                "F1,R,FIX,B2,NOSTOP,2014-04-08T09:00,,",
                "A1,R,DST,B1,NOSTOP,2014-04-08T07:30,WA,2014-04-08T08:10",
                "F1,R,FIX,B2,HA,2014-04-09T09:00,,",
            ],
        )
        result = run_pipeline(dataclasses.replace(mini_config, followup=path))
        # Rows naming stops absent from both registries still count as trips.
        assert result.followup_rejections == []
        assert result.followup_counts == {"F1": 3, "A1": 1}
        by_card = score_rows(result, tmp_path)
        assert by_card["A1"][1:] == ["1", "1"]
        assert by_card["F1"][1] == "3"
