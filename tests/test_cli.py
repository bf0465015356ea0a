"""Command-line interface: subcommands, config handling, exit codes."""

from __future__ import annotations

import argparse
import errno
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from cardcohort import cli, ingest, pipeline, reports
from cardcohort.cli import main
from cardcohort.geo import build_places
from cardcohort.synth import GeneratorConfig

import reference_profile
from coded_rides import card_rides, one_route
from conftest import stop_places
from test_pipeline import read_rows


def run_cli(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture
def mini_args(mini_bundle):
    return [
        "--year1", mini_bundle["year1"],
        "--year2", mini_bundle["year2"],
        "--stops1", mini_bundle["stops"],
        "--stops2", mini_bundle["stops"],
    ]


class TestIngestCheck:
    def test_writes_stats(self, mini_bundle, tmp_path):
        code = run_cli(
            "ingest-check",
            "--transactions", mini_bundle["year1"],
            "--stops", mini_bundle["stops"],
            "--out", str(tmp_path),
        )
        assert code == 0
        stats = {r[0]: r[1] for r in read_rows(str(tmp_path / "stats.csv"))[1:]}
        assert stats["week_start"] == "2008-04-07"
        assert stats["stops"] == "4"
        assert stats["parsed"] == "30"
        assert stats["rejected"] == "0"
        assert stats["geocoded"] == "30"
        assert stats["cards"] == "3"
        assert os.path.exists(tmp_path / "rejections.csv")
        assert os.path.exists(tmp_path / "unmatched.csv")

    def test_byte_order_marks_are_not_schema_errors(self, mini_bundle, tmp_path):
        paths = {}
        for key in ("year1", "stops"):
            with open(mini_bundle[key], encoding="utf-8") as fh:
                body = fh.read()
            paths[key] = tmp_path / f"bom_{key}.csv"
            paths[key].write_text("\ufeff" + body, encoding="utf-8")
        code = run_cli(
            "ingest-check",
            "--transactions", str(paths["year1"]),
            "--stops", str(paths["stops"]),
            "--out", str(tmp_path / "out"),
        )
        assert code == 0
        stats = {r[0]: r[1] for r in read_rows(str(tmp_path / "out" / "stats.csv"))[1:]}
        assert (stats["stops"], stats["parsed"], stats["geocoded"]) == ("4", "30", "30")

    def test_missing_input_is_exit_2(self, mini_bundle, tmp_path):
        code = run_cli(
            "ingest-check",
            "--transactions", str(tmp_path / "gone.csv"),
            "--stops", mini_bundle["stops"],
            "--out", str(tmp_path),
        )
        assert code == 2
        # A directory is refused before it is opened.
        code = run_cli(
            "ingest-check",
            "--transactions", str(tmp_path),
            "--stops", mini_bundle["stops"],
            "--out", str(tmp_path / "out"),
        )
        assert code == 2

    def test_wrong_schema_is_exit_3(self, mini_bundle, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("completely,different,schema\n1,2,3\n")
        code = run_cli(
            "ingest-check",
            "--transactions", str(bad),
            "--stops", mini_bundle["stops"],
            "--out", str(tmp_path),
        )
        assert code == 3

    def test_a_week_one_year_off_names_its_leading_reason(self, mini_bundle, tmp_path, capsys):
        # Every line is in the schema; only the configured week is wrong.
        week = tmp_path / "week.csv"
        week.write_text(ingest.TRANSACTIONS_HEADER + "\n" + "C1,R,FIX,B1,S1,2008-04-07T07:30,,\n" * 1200)
        code = run_cli(
            "ingest-check",
            "--transactions", str(week),
            "--stops", mini_bundle["stops"],
            "--week-start", "2009-04-06",
            "--out", str(tmp_path / "out"),
        )
        assert code == 3
        assert capsys.readouterr().err.endswith(
            "error: rejected 1000 of first 1000 lines; wrong schema (most: outside observation week)\n"
        )


class TestInfer:
    def test_profiles_single_year(self, mini_bundle, tmp_path):
        code = run_cli(
            "infer",
            "--year1", mini_bundle["year1"],
            "--stops1", mini_bundle["stops"],
            "--out", str(tmp_path),
        )
        assert code == 0
        rows = read_rows(str(tmp_path / "profiles.csv"))
        by_card = {r[0]: r for r in rows[1:]}
        assert {r[1] for r in rows[1:]} == {"2008"}
        assert by_card["A1"][2] == "0"
        assert by_card["A1"][3] == "1"
        assert by_card["S1"][2] == ""

    def test_dump_stays(self, mini_bundle, tmp_path):
        code = run_cli(
            "infer",
            "--year1", mini_bundle["year1"],
            "--stops1", mini_bundle["stops"],
            "--dump-stays",
            "--out", str(tmp_path),
        )
        assert code == 0
        rows = read_rows(str(tmp_path / "stays.csv"))
        assert rows[0] == ["card_id", "place_id", "arrive", "depart", "approx", "first_of_day"]
        assert len(rows) > 10
        # Fixed-fare chaining shows up as approximate stays.
        assert any(r[0] == "F1" and r[4] == "1" for r in rows[1:])
        assert all(r[4] == "0" for r in rows[1:] if r[0] == "A1")

    def test_dump_stays_reads_transactions_once(self, mini_bundle, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return ingest.read_transactions(*args, **kwargs)

        for mod in (cli, pipeline):
            monkeypatch.setattr(mod, "read_transactions", counting)
        code = run_cli(
            "infer",
            "--year1", mini_bundle["year1"],
            "--stops1", mini_bundle["stops"],
            "--dump-stays",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert len(calls) == 1
        # ingest-check reads its file once too, with the same reader.
        code = run_cli(
            "ingest-check",
            "--transactions", mini_bundle["year1"],
            "--stops", mini_bundle["stops"],
            "--out", str(tmp_path / "check"),
        )
        assert code == 0
        assert len(calls) == 2

    def test_dump_stays_matches_direct_chaining(self, mini_bundle, tmp_path):
        code = run_cli(
            "infer",
            "--year1", mini_bundle["year1"],
            "--stops1", mini_bundle["stops"],
            "--dump-stays",
            "--out", str(tmp_path / "cli"),
        )
        assert code == 0
        stops, _ = ingest.load_stops(ingest.iter_lines(mini_bundle["stops"]))
        places = build_places(stops)
        stop_to_place = stop_places(places)
        week_start = ingest.derive_week_start(ingest.iter_lines(mini_bundle["year1"]))
        codes = places.codes
        tx = ingest.read_transactions(ingest.iter_lines(mini_bundle["year1"]), week_start, codes)
        stays = {
            card: reference_profile.build_stays(
                card, reference_profile.build_legs(one_route(rides), stop_to_place), reference_profile.PERMISSIVE
            )
            for card, rides in card_rides(tx, codes).items()
        }
        direct = tmp_path / "direct.csv"
        reports.write_stays(str(direct), stays, tx.week)
        assert (tmp_path / "cli" / "stays.csv").read_bytes() == direct.read_bytes()

    def test_missing_input_is_exit_2(self, mini_bundle, tmp_path):
        code = run_cli(
            "infer",
            "--year1", str(tmp_path / "gone.csv"),
            "--stops1", mini_bundle["stops"],
            "--out", str(tmp_path / "out"),
        )
        assert code == 2

    @pytest.mark.parametrize("flag", ["--stay-min", "--threads"])
    def test_invalid_setting_is_exit_2(self, mini_bundle, tmp_path, flag):
        code = run_cli(
            "infer",
            "--year1", mini_bundle["year1"],
            "--stops1", mini_bundle["stops"],
            flag, "0",
            "--out", str(tmp_path),
        )
        assert code == 2


SUBSETS = {
    "diff": ["profiles_year1.csv", "profiles_year2.csv", "deltas.csv"],
    "classify": ["deltas.csv", "groups.csv"],
    "score": ["deprivation.csv", "scores.csv"],
}


@pytest.fixture(scope="module")
def full_config(mini_bundle, tmp_path_factory):
    """A run config naming every input of the mini bundle."""
    conf = tmp_path_factory.mktemp("full") / "run.conf"
    conf.write_text(
        "".join(
            f"{key}={mini_bundle[src]}\n"
            for key, src in (
                ("year1", "year1"), ("year2", "year2"), ("stops1", "stops"), ("stops2", "stops"),
                ("followup", "followup"), ("r4", "r4"), ("taz", "taz"),
            )
        )
        + f"center={mini_bundle['center'][0]},{mini_bundle['center'][1]}\n"
    )
    return str(conf)


@pytest.fixture(scope="module")
def run_out(full_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert run_cli("run", "--config", full_config, "--out", str(out)) == 0
    return out


class TestDiffClassifyScore:
    @pytest.mark.parametrize("command", sorted(SUBSETS))
    def test_writes_its_subset_of_the_run_bundle(self, command, full_config, run_out, tmp_path):
        assert run_cli(command, "--config", full_config, "--out", str(tmp_path)) == 0
        assert sorted(os.listdir(tmp_path)) == sorted(SUBSETS[command])
        for name in SUBSETS[command]:
            assert (tmp_path / name).read_bytes() == (run_out / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["diff", "classify", "score", "run"])
    def test_skips_inputs_its_files_do_not_read(self, command, full_config, tmp_path, monkeypatch):
        # The TAZ layer loads before any transactions file is read.
        loaded = {"score": ["followup"], "run": ["taz", "followup"]}.get(command, [])
        calls = []
        count_followup, load_taz = pipeline._count_followup, pipeline.load_region_features
        monkeypatch.setattr(
            pipeline, "_count_followup", lambda *a: calls.append("followup") or count_followup(*a)
        )
        monkeypatch.setattr(
            pipeline, "load_region_features", lambda *a: calls.append("taz") or load_taz(*a)
        )
        assert run_cli(command, "--config", full_config, "--out", str(tmp_path)) == 0
        assert calls == loaded

    @pytest.mark.parametrize("command", sorted(SUBSETS))
    def test_skipped_inputs_are_still_validated(self, command, full_config, tmp_path):
        gone = str(tmp_path / "gone.geojson")
        assert run_cli(command, "--config", full_config, "--taz", gone, "--out", str(tmp_path)) == 2

    def test_diff(self, mini_args, tmp_path):
        assert run_cli("diff", *mini_args, "--out", str(tmp_path)) == 0
        rows = read_rows(str(tmp_path / "deltas.csv"))
        assert [r[0] for r in rows[1:]] == ["A1", "F1"]
        assert os.path.exists(tmp_path / "profiles_year1.csv")
        assert os.path.exists(tmp_path / "profiles_year2.csv")

    def test_a_plain_run_after_a_follow_up_run_leaves_no_follow_up_file(self, full_config, tmp_path):
        # The same config without its follow-up week.
        plain = tmp_path / "plain.conf"
        plain.write_text("".join(line for line in open(full_config) if not line.startswith("followup")))
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run_cli("run", "--config", full_config, "--out", str(out)) == 0
        followup_files = reports.OPTIONAL_INPUT_FILES["followup"]
        assert followup_files <= set(os.listdir(out))
        assert run_cli("run", "--config", str(plain), "--out", str(out)) == 0
        assert run_cli("run", "--config", str(plain), "--out", str(fresh)) == 0
        assert followup_files.isdisjoint(os.listdir(out))
        assert _tree(out) == _tree(fresh)

    def test_a_subset_after_a_run_leaves_only_its_files_and_other_files(self, full_config, run_out, tmp_path):
        (tmp_path / "notes.txt").write_text("kept\n")
        (tmp_path / "stays.csv").write_text("kept\n")
        assert run_cli("run", "--config", full_config, "--out", str(tmp_path)) == 0
        assert run_cli("diff", "--config", full_config, "--out", str(tmp_path)) == 0
        assert sorted(os.listdir(tmp_path)) == sorted(SUBSETS["diff"] + ["notes.txt", "stays.csv"])
        assert (tmp_path / "notes.txt").read_text() == (tmp_path / "stays.csv").read_text() == "kept\n"
        for name in SUBSETS["diff"]:
            assert (tmp_path / name).read_bytes() == (run_out / name).read_bytes(), name

    def test_a_bundle_file_that_cannot_be_removed_exits_2(self, full_config, tmp_path):
        (tmp_path / "scores.csv").mkdir()
        assert run_cli("diff", "--config", full_config, "--out", str(tmp_path)) == 2

    def test_classify(self, mini_args, mini_bundle, tmp_path):
        code = run_cli(
            "classify", *mini_args, "--r4", mini_bundle["r4"],
            "--center", f"{mini_bundle['center'][0]},{mini_bundle['center'][1]}",
            "--out", str(tmp_path),
        )
        assert code == 0
        rows = read_rows(str(tmp_path / "groups.csv"))
        counts = {int(r[0]): int(r[4]) for r in rows[1:]}
        assert counts[9] == 1
        assert counts[20] == 1

    def test_score_requires_followup(self, mini_args, tmp_path):
        assert run_cli("score", *mini_args, "--out", str(tmp_path)) == 2

    def test_score(self, mini_args, mini_bundle, tmp_path):
        code = run_cli(
            "score", *mini_args, "--followup", mini_bundle["followup"], "--out", str(tmp_path)
        )
        assert code == 0
        dep = {r[0]: r[1] for r in read_rows(str(tmp_path / "deprivation.csv"))[1:]}
        assert dep["fr_count"] == "2"
        assert dep["scored_count"] == "1"
        assert dep["scored_pct"] == "50.0"
        assert dep["mean_trips"] == "3.0"
        assert dep["std_trips"] == "0.0"


# GeoJSON layers that must be refused with exit 2, by what is wrong with them.
MALFORMED_LAYERS = {
    "null-geometry": {"type": "Feature", "properties": {}, "geometry": None},
    "no-geometry": {"type": "Feature", "properties": {}},
    "document-not-object": [1, 2],
    "features-not-array": {"type": "FeatureCollection", "features": {}},
    "feature-not-object": {"type": "FeatureCollection", "features": [5]},
    "properties-not-object": {
        "type": "Feature",
        "properties": [1],
        "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]},
    },
    "no-coordinates": {"type": "Polygon"},
    "ring-not-array": {"type": "Polygon", "coordinates": [5]},
    "short-position": {"type": "Polygon", "coordinates": [[[0, 0], [1], [1, 1], [0, 1], [0, 0]]]},
    "string-coordinate": {"type": "Polygon", "coordinates": [[[0, 0], [1, "0"], [1, 1], [0, 1], [0, 0]]]},
    "nan-coordinate": {"type": "Polygon", "coordinates": [[[0, 0], [math.nan, 0], [1, 1], [0, 1], [0, 0]]]},
    "huge-coordinate": {"type": "Polygon", "coordinates": [[[0, 0], [10**400, 0], [1, 1], [0, 1], [0, 0]]]},
    # Written as a bare NaN, which no strict JSON reader takes back.
    "nan-property": {
        "type": "Feature",
        "properties": {"area": math.nan},
        "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]},
    },
}
# The null-geometry case goes by the bare layer name.
MALFORMED_LAYER_CASES = [
    pytest.param(layer, doc, id=layer if what == "null-geometry" else f"{layer}-{what}")
    for layer in ("r4", "taz")
    for what, doc in MALFORMED_LAYERS.items()
]


# Each input kind, by the option that names it.  --year2 is read in a worker.
INPUT_KINDS = ("--transactions", "--stops", "--year1", "--stops1", "--year2", "--config", "synth --config",
               "--r4", "--taz")


@pytest.fixture
def input_cases(mini_args, mini_bundle, tmp_path):
    """Input kind -> (a clean file of that kind, the argv without --out that reads ``path`` as that kind)."""
    run_conf = tmp_path / "run.conf"
    run_conf.write_text("".join(f"{flag[2:]}={path}\n" for flag, path in zip(mini_args[::2], mini_args[1::2])))
    gen_conf = tmp_path / "generator.conf"
    gen_conf.write_text("commuters=2\nmovers=2\njob_changers=2\njobless=2\nchurners=2\n")

    def run_with(flag, *extra):
        def argv(path):
            args = list(mini_args)
            args[args.index(flag) + 1] = path
            return ["run", *args, *extra]
        return argv

    return {
        "--transactions": (mini_bundle["year1"], lambda path: [
            "ingest-check", "--transactions", path, "--stops", mini_bundle["stops"]]),
        "--stops": (mini_bundle["stops"], lambda path: [
            "ingest-check", "--transactions", mini_bundle["year1"], "--stops", path]),
        "--year1": (mini_bundle["year1"], run_with("--year1")),
        "--stops1": (mini_bundle["stops"], run_with("--stops1")),
        "--year2": (mini_bundle["year2"], run_with("--year2", "--threads", "2")),
        "--config": (str(run_conf), lambda path: ["run", "--config", path]),
        "synth --config": (str(gen_conf), lambda path: ["synth", "--config", path]),
        "--r4": (mini_bundle["r4"], lambda path: ["run", *mini_args, "--r4", path]),
        "--taz": (mini_bundle["taz"], lambda path: ["run", *mini_args, "--taz", path]),
    }


def _tree(out) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


class TestRun:
    def test_full_run_with_all_layers(self, mini_args, mini_bundle, tmp_path):
        code = run_cli(
            "run", *mini_args,
            "--followup", mini_bundle["followup"],
            "--r4", mini_bundle["r4"],
            "--taz", mini_bundle["taz"],
            "--center", f"{mini_bundle['center'][0]},{mini_bundle['center'][1]}",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert os.path.exists(tmp_path / "summary.csv")
        assert os.path.exists(tmp_path / "taz_fr_homes.geojson")
        assert os.path.exists(tmp_path / "deprivation.csv")

    def test_missing_required_input_is_exit_2(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("layer,doc", MALFORMED_LAYER_CASES)
    def test_malformed_layer_fails_before_any_transactions_file_is_read(
        self, mini_args, mini_bundle, tmp_path, monkeypatch, capsys, layer, doc
    ):
        bad = tmp_path / "bad.geojson"
        bad.write_text(json.dumps(doc))

        def fail(*args, **kwargs):
            raise AssertionError("a transactions file was read")

        monkeypatch.setattr(pipeline, "read_transactions", fail)
        code = run_cli(
            "run", *mini_args, "--followup", mini_bundle["followup"],
            f"--{layer}", str(bad), "--out", str(tmp_path / "o"),
        )
        assert code == 2
        # With both layers configured, the error says which file is at fault.
        assert f"error: {bad}: " in capsys.readouterr().err

    def test_bare_polygon_taz(self, mini_args, mini_bundle, tmp_path):
        with open(mini_bundle["taz"], encoding="utf-8") as fh:
            near = json.load(fh)["features"][0]["geometry"]
        taz = tmp_path / "near.geojson"
        taz.write_text(json.dumps(near))
        out = tmp_path / "out"
        assert run_cli("run", *mini_args, "--taz", str(taz), "--out", str(out)) == 0
        with open(out / "taz_fr_homes.geojson", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc == {
            "type": "FeatureCollection",
            "outside_count": 1,
            "features": [{"type": "Feature", "properties": {"fr_homes": 1}, "geometry": near}],
        }

    def test_non_canonical_date_flag_is_exit_2(self, mini_args, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("run", *mini_args, "--week1-start", "20080407", "--out", str(tmp_path))
        assert err.value.code == 2

    def test_nonexistent_input_is_exit_2(self, mini_bundle, tmp_path):
        code = run_cli(
            "run",
            "--year1", str(tmp_path / "gone.csv"),
            "--year2", mini_bundle["year2"],
            "--stops1", mini_bundle["stops"],
            "--stops2", mini_bundle["stops"],
            "--out", str(tmp_path),
        )
        assert code == 2

    def test_wrong_schema_is_exit_3(self, mini_bundle, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        code = run_cli(
            "run",
            "--year1", str(bad),
            "--year2", mini_bundle["year2"],
            "--stops1", mini_bundle["stops"],
            "--stops2", mini_bundle["stops"],
            "--out", str(tmp_path),
        )
        assert code == 3

    @pytest.mark.parametrize("flag", INPUT_KINDS)
    def test_non_utf8_input_names_its_file(self, input_cases, tmp_path, capsys, flag):
        clean, argv = input_cases[flag]
        bad = tmp_path / "bad.txt"
        bad.write_bytes(Path(clean).read_bytes() + b"# caf\xe9\n")
        assert run_cli(*argv(str(bad)), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: not UTF-8 text" in err
        assert err.count(str(bad)) == 1

    @pytest.mark.parametrize("flag", INPUT_KINDS)
    def test_byte_order_mark_reads_as_none(self, input_cases, tmp_path, flag):
        clean, argv = input_cases[flag]
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(clean).read_bytes())
        outs = tmp_path / "plain", tmp_path / "bom"
        for path, out in zip((clean, str(bom)), outs):
            assert run_cli(*argv(path), "--out", str(out)) == 0
        assert _tree(outs[0]) == _tree(outs[1])

    @pytest.mark.parametrize("flag", INPUT_KINDS)
    def test_input_that_cannot_be_opened_names_its_file(self, input_cases, tmp_path, monkeypatch, capsys, flag):
        clean, argv = input_cases[flag]
        locked = tmp_path / "locked.txt"
        locked.write_bytes(Path(clean).read_bytes())

        # Refused in the one opener, so the case holds for a user who may read anything.
        def refuse(path, *args, **kwargs):
            if path == str(locked):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(ingest, "open", refuse, raising=False)
        assert run_cli(*argv(str(locked)), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"error: cannot read {locked}: Permission denied" in err
        assert err.count(str(locked)) == 1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_year2_that_cannot_be_read_is_exit_2_before_any_work(
        self, mini_args, tmp_path, monkeypatch, capsys, threads
    ):
        locked = tmp_path / "locked.csv"
        locked.write_text("")

        def refuse(path, *args, **kwargs):
            if path == str(locked):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return open(path, *args, **kwargs)

        def fail(*args, **kwargs):
            raise AssertionError("a transactions file was read")

        monkeypatch.setattr(ingest, "open", refuse, raising=False)
        monkeypatch.setattr(pipeline, "read_transactions", fail)
        args = list(mini_args)
        args[args.index("--year2") + 1] = str(locked)
        assert run_cli("run", *args, "--threads", threads, "--out", str(tmp_path / "out")) == 2
        assert f"error: cannot read {locked}: Permission denied" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_wrong_year2_header_in_worker_is_exit_3(self, mini_args, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        args = list(mini_args)
        args[args.index("--year2") + 1] = str(bad)
        code = run_cli("run", *args, "--threads", "2", "--out", str(tmp_path / "out"))
        assert code == 3

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("flag,kind", [("--year2", "transactions"), ("--stops2", "stops"), ("--followup", "transactions")])
    def test_a_wrong_header_is_exit_3_before_any_work(
        self, mini_args, mini_bundle, tmp_path, monkeypatch, capsys, flag, kind, threads
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")

        def fail(*args, **kwargs):
            raise AssertionError("an input was read in full")

        for name in ("load_stops", "derive_week_start", "read_transactions", "load_region", "load_region_features"):
            monkeypatch.setattr(pipeline, name, fail)
        args = [*mini_args, "--followup", mini_bundle["followup"], "--r4", mini_bundle["r4"]]
        args[args.index(flag) + 1] = str(bad)
        assert run_cli("run", *args, "--threads", threads, "--out", str(tmp_path / "out")) == 3
        assert f"error: {bad}: unexpected {kind} header: 'x,y'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,kind", [("--transactions", "transactions"), ("--stops", "stops")])
    def test_ingest_check_takes_both_headers_before_any_work(
        self, command_args, tmp_path, monkeypatch, capsys, flag, kind
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")

        def fail(*args, **kwargs):
            raise AssertionError("an input was read in full")

        for name in ("load_stops", "derive_week_start", "read_transactions"):
            monkeypatch.setattr(cli, name, fail)
        args = list(command_args["ingest-check"])
        args[args.index(flag) + 1] = str(bad)
        assert run_cli("ingest-check", *args, "--out", str(tmp_path / "out")) == 3
        assert f"error: {bad}: unexpected {kind} header: 'x,y'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_single_process_run_loads_no_multiprocessing(self, mini_args, tmp_path):
        script = (
            "import sys; from cardcohort.cli import main; "
            "code = main(sys.argv[1:]); print(code, 'multiprocessing' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "run", *mini_args, "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.stdout == "0 False\n"

    def test_single_process_run_loads_no_statistics(self, mini_args, tmp_path):
        # statistics would load decimal and fractions, about 0.8 MB resident.
        script = (
            "import sys; from cardcohort.cli import main; code = main(sys.argv[1:]); "
            "print(code, [m for m in ('statistics', 'decimal', 'fractions') if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "run", *mini_args, "--threads", "1", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.stdout == "0 []\n"

    def test_importing_geo_loads_only_geo(self):
        script = "import sys, cardcohort.geo; print(sorted(m for m in sys.modules if m.startswith('cardcohort')))"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.stdout == "['cardcohort', 'cardcohort.geo']\n"


def _listing(out) -> dict[str, bytes | None]:
    """Each name in ``out`` with its bytes, or None for a directory."""
    return {name: None if (out / name).is_dir() else (out / name).read_bytes() for name in sorted(os.listdir(out))}


def _fail_at(monkeypatch, k: int) -> list[str]:
    """Make the k-th file the report writer writes fail after its first block (never for k = 0).

    Returns the list that the paths written to are appended to.
    """
    real = reports.write_lines
    paths = []

    def write_lines(path, *blocks):
        paths.append(path)
        if len(paths) == k:
            real(path, *blocks[:1])
            raise ValueError(f"cannot write {path}: {os.strerror(errno.ENOSPC)}")
        real(path, *blocks)

    monkeypatch.setattr(reports, "write_lines", write_lines)
    return paths


class TestAllOrNothing:
    """A command leaves --out holding the earlier bundle or its own, never a mix or a part."""

    @pytest.mark.parametrize("case", ["run into an empty --out", "run over a bundle", "diff over a bundle"])
    def test_a_failure_at_any_file_leaves_out_as_it_was(self, full_config, mini_bundle, tmp_path, case):
        command = case.split()[0]
        out = tmp_path / "out"
        out.mkdir()
        if case != "run into an empty --out":
            # With the years swapped, the earlier bundle's profiles and deltas differ from this run's.
            swapped = ["--year1", mini_bundle["year2"], "--year2", mini_bundle["year1"]]
            assert run_cli("run", "--config", full_config, *swapped, "--out", str(out)) == 0
            (out / "notes.txt").write_text("kept\n")
        before = _listing(out)
        fresh = tmp_path / "fresh"
        with pytest.MonkeyPatch.context() as mp:
            written = _fail_at(mp, 0)
            assert run_cli(command, "--config", full_config, "--out", str(fresh)) == 0
        assert len(written) == len(os.listdir(fresh)) > 1
        for k in range(1, len(written) + 1):
            with pytest.MonkeyPatch.context() as mp:
                _fail_at(mp, k)
                assert run_cli(command, "--config", full_config, "--out", str(out)) == 2, k
            assert _listing(out) == before, k
        assert not [name for name in os.listdir(out) if name.endswith(".tmp")]
        # With no failure, the command leaves its own bundle beside the other file.
        assert run_cli(command, "--config", full_config, "--out", str(out)) == 0
        after = _listing(out)
        assert after.pop("notes.txt", None) == before.get("notes.txt")
        assert after == _listing(fresh) != before

    @pytest.mark.parametrize("command,name", [("run", "deltas.csv"), ("diff", "scores.csv")])
    def test_a_directory_in_a_files_place_fails_before_any_rename(
        self, full_config, run_out, tmp_path, capsys, command, name
    ):
        # run writes deltas.csv; diff removes scores.csv.
        out = tmp_path / "out"
        shutil.copytree(run_out, out)
        (out / name).unlink()
        (out / name).mkdir()
        before = _listing(out)
        assert run_cli(command, "--config", full_config, "--out", str(out)) == 2
        verb = "write" if command == "run" else "remove"
        assert f"error: cannot {verb} {out / name}: Is a directory" in capsys.readouterr().err
        assert _listing(out) == before

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_a_follow_up_that_fails_late_leaves_the_bundle_and_no_worker(
        self, full_config, mini_bundle, run_out, tmp_path, capsys, threads
    ):
        # A good header and three good lines, then four lines that reject.
        bad = tmp_path / "followup.csv"
        bad.write_text(Path(mini_bundle["followup"]).read_text() + "F1,R,FIX\n" * 4)
        out = tmp_path / "out"
        shutil.copytree(run_out, out)
        before = _listing(out)
        code = run_cli("run", "--config", full_config, "--followup", str(bad), "--threads", threads, "--out", str(out))
        assert code == 3
        assert "error: rejected 4 of 7 lines; wrong schema" in capsys.readouterr().err
        assert _listing(out) == before
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_run_that_fails_before_it_reads_the_follow_up(
        self, full_config, run_out, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        shutil.copytree(run_out, out)
        before = _listing(out)
        _fail_at(monkeypatch, 1)
        assert run_cli("run", "--config", full_config, "--threads", "2", "--out", str(out)) == 2
        assert multiprocessing.active_children() == []
        assert _listing(out) == before


class TestConfigFile:
    def _write_config(self, tmp_path, mini_bundle, extra: str = "") -> str:
        p = tmp_path / "run.conf"
        p.write_text(
            f"year1={mini_bundle['year1']}\n"
            f"year2={mini_bundle['year2']}\n"
            f"stops1={mini_bundle['stops']}\n"
            f"stops2={mini_bundle['stops']}\n"
            "# a comment line\n"
            f"center={mini_bundle['center'][0]},{mini_bundle['center'][1]}\n"
            + extra
        )
        return str(p)

    def test_config_alone(self, mini_bundle, tmp_path):
        conf = self._write_config(tmp_path, mini_bundle)
        out = tmp_path / "out"
        assert run_cli("diff", "--config", conf, "--out", str(out)) == 0
        rows = read_rows(str(out / "deltas.csv"))
        assert rows[1][1] == "Changed"

    def test_flags_override_config(self, mini_bundle, tmp_path):
        # The configured benchmark suppresses the move; the flag restores it.
        conf = self._write_config(tmp_path, mini_bundle, extra="change_km=50\n")
        out1 = tmp_path / "out1"
        assert run_cli("diff", "--config", conf, "--out", str(out1)) == 0
        assert read_rows(str(out1 / "deltas.csv"))[1][1] == "NotChanged"
        out2 = tmp_path / "out2"
        assert run_cli("diff", "--config", conf, "--change-km", "2.0", "--out", str(out2)) == 0
        assert read_rows(str(out2 / "deltas.csv"))[1][1] == "Changed"

    def test_unknown_key_is_exit_2(self, mini_bundle, tmp_path):
        conf = self._write_config(tmp_path, mini_bundle, extra="velocity=9\n")
        assert run_cli("diff", "--config", conf, "--out", str(tmp_path / "o")) == 2

    def test_out_dir_key_is_exit_2(self, mini_bundle, tmp_path):
        conf = self._write_config(tmp_path, mini_bundle, extra=f"out_dir={tmp_path / 'o'}\n")
        assert run_cli("run", "--config", conf, "--out", str(tmp_path / "o")) == 2

    def test_bad_center_value_is_exit_2(self, mini_bundle, tmp_path):
        conf = tmp_path / "bad_center.conf"
        conf.write_text(
            f"year1={mini_bundle['year1']}\n"
            f"year2={mini_bundle['year2']}\n"
            f"stops1={mini_bundle['stops']}\n"
            f"stops2={mini_bundle['stops']}\n"
            "center=1,2,3\n"
        )
        assert run_cli("diff", "--config", str(conf), "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize(
        "line",
        [
            "stay_min=abc",
            "week1_start=2008-13-01",
            "week1_start=20080407",
            "stay_mode=bogus",
            "home_rule=bogus",
            "cluster_m=nan",
            "cluster_m=inf",
            "change_km=nan",
            "center=nan,nan",
            "center=116.4,95",
        ],
    )
    def test_bad_value_is_exit_2_before_any_input_is_read(self, tmp_path, capsys, line):
        # Header-only inputs: a check that waits for the first card never fires.
        (tmp_path / "week.csv").write_text(ingest.TRANSACTIONS_HEADER + "\n")
        (tmp_path / "stops.csv").write_text(ingest.STOPS_HEADER + "\n")
        conf = tmp_path / "run.conf"
        conf.write_text("year1=week.csv\nyear2=week.csv\nstops1=stops.csv\nstops2=stops.csv\n")
        assert run_cli("run", "--config", str(conf), "--out", str(tmp_path / "ok")) == 0
        capsys.readouterr()
        with open(conf, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        assert run_cli("run", "--config", str(conf), "--out", str(tmp_path / "bad")) == 2
        assert line.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["followup", "r4", "taz"])
    def test_empty_path_value_names_its_key(self, mini_bundle, tmp_path, capsys, key):
        conf = self._write_config(tmp_path, mini_bundle, extra=f"{key}=\n")
        assert run_cli("run", "--config", conf, "--out", str(tmp_path / "o")) == 2
        assert f"error: empty path for {key} " in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("command", ["run", "infer", "synth"])
    def test_missing_config_file_is_exit_2(self, tmp_path, capsys, command):
        conf = tmp_path / "absent.conf"
        assert run_cli(command, "--config", str(conf), "--out", str(tmp_path / "o")) == 2
        assert str(conf) in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_relative_paths_resolve_next_to_config(self, mini_bundle, tmp_path):
        import shutil

        for name in ("year1", "year2", "stops"):
            shutil.copy(mini_bundle[name], tmp_path / os.path.basename(mini_bundle[name]))
        conf = tmp_path / "rel.conf"
        conf.write_text(
            "year1=year1.csv\nyear2=year2.csv\nstops1=stops.csv\nstops2=stops.csv\n"
        )
        out = tmp_path / "out"
        assert run_cli("diff", "--config", str(conf), "--out", str(out)) == 0
        assert os.path.exists(out / "deltas.csv")


class TestSynthCommand:
    def test_generates_bundle(self, tmp_path):
        out = tmp_path / "bundle"
        assert run_cli("synth", "--out", str(out), "--agents", "10") == 0
        for name in (
            "stops.csv", "week1.csv", "week2.csv", "followup.csv",
            "truth.csv", "r4.geojson", "taz.geojson", "bundle.conf", "generator.conf",
        ):
            assert os.path.exists(out / name), name

    def test_agent_split_puts_remainder_first(self, tmp_path):
        out = tmp_path / "bundle7"
        assert run_cli("synth", "--out", str(out), "--agents", "7") == 0
        rows = read_rows(str(out / "truth.csv"))[1:]
        from collections import Counter

        counts = Counter(r[1] for r in rows)
        assert counts == {"Commuter": 2, "Mover": 2, "JobChanger": 1, "Jobless": 1, "Churner": 1}

    def test_bundle_conf_drives_a_run(self, tmp_path):
        bundle = tmp_path / "b"
        assert run_cli("synth", "--out", str(bundle), "--agents", "10") == 0
        out = tmp_path / "reports"
        code = run_cli("run", "--config", str(bundle / "bundle.conf"), "--out", str(out))
        assert code == 0
        assert os.path.exists(out / "groups.csv")
        assert os.path.exists(out / "taz_fr_homes.geojson")

    def test_invalid_generator_setting_is_exit_2(self, tmp_path):
        assert run_cli("synth", "--out", str(tmp_path / "x"), "--noise-rate", "3.0") == 2

    @pytest.mark.parametrize(
        "line",
        [
            "velocity=9",
            "seed=abc",
            "seed 7",
            # A removed knob; the boarding windows are fixed.
            "morning_start=420",
            "stop_spacing_m=nan",
            "site_pitch_m=nan",
            "site_pitch_m=inf",
            "site_stops=1\nstop_spacing_m=inf",
            # SplitMix64 keeps 64 bits: these would stand for 2**64 - 1 and 0.
            "seed=-1",
            "seed=18446744073709551616",
        ],
    )
    def test_bad_config_file_is_exit_2(self, tmp_path, capsys, line):
        conf = tmp_path / "generator.conf"
        conf.write_text(f"commuters=4\n{line}\n")
        assert run_cli("synth", "--config", str(conf), "--out", str(tmp_path / "x")) == 2
        assert not (tmp_path / "x").exists()
        # The error names the offending key (or line).
        assert line.splitlines()[-1].partition("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("seed,code", [("-1", 2), ("18446744073709551616", 2), ("18446744073709551615", 0)])
    def test_seed_outside_64_bits_is_exit_2(self, tmp_path, capsys, seed, code):
        out = tmp_path / "x"
        assert run_cli("synth", "--agents", "5", "--seed", seed, "--out", str(out)) == code
        assert out.exists() == (code == 0)
        if code:
            assert "error: seed must lie in [0, 2**64)" in capsys.readouterr().err

    def test_generator_conf_reproduces_the_bundle(self, tmp_path):
        b1, b2 = tmp_path / "b1", tmp_path / "b2"
        assert run_cli("synth", "--out", str(b1), "--agents", "10", "--seed", "11", "--noise-rate", "0.2") == 0
        assert run_cli("synth", "--config", str(b1 / "generator.conf"), "--out", str(b2)) == 0
        assert sorted(os.listdir(b1)) == sorted(os.listdir(b2))
        for name in os.listdir(b1):
            assert (b1 / name).read_bytes() == (b2 / name).read_bytes(), name


OUT_COMMANDS = ("run", "diff", "classify", "score", "infer", "ingest-check", "synth")


@pytest.fixture
def command_args(mini_args, mini_bundle):
    """Each subcommand's inputs on the mini bundle, without --out."""
    return {
        "run": mini_args,
        "diff": mini_args,
        "classify": mini_args,
        "score": mini_args + ["--followup", mini_bundle["followup"]],
        "infer": ["--year1", mini_bundle["year1"], "--stops1", mini_bundle["stops"]],
        "ingest-check": ["--transactions", mini_bundle["year1"], "--stops", mini_bundle["stops"]],
        "synth": ["--agents", "5"],
    }


@pytest.fixture
def opened(monkeypatch):
    """Every input file read and every synth bundle generated, in order."""
    opened = []

    def recording(path):
        opened.append(path)
        return ingest.iter_lines(path)

    for mod in (cli, pipeline):
        monkeypatch.setattr(mod, "iter_lines", recording)
    monkeypatch.setattr(cli, "generate", lambda cfg, out: opened.append(out))
    return opened


class TestEntryPoints:
    @pytest.mark.parametrize("under", [False, True])
    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_out_that_is_a_file_is_exit_2_before_any_work(
        self, command_args, opened, tmp_path, capsys, command, under
    ):
        taken = tmp_path / "taken.csv"
        taken.write_text("a file\n")
        out = taken / "reports" if under else taken
        assert run_cli(command, *command_args[command], "--out", str(out)) == 2
        assert f"error: --out {out}: {taken} is not a directory" in capsys.readouterr().err
        assert opened == []
        assert taken.read_text() == "a file\n"

    @pytest.mark.parametrize("case", ["empty", "dangling", "under dangling"])
    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_empty_or_dangling_out_is_exit_2_before_any_work(
        self, command_args, opened, tmp_path, capsys, command, case
    ):
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "gone")
        out = {"empty": "", "dangling": str(link), "under dangling": str(link / "reports")}[case]
        assert run_cli(command, *command_args[command], "--out", out) == 2
        expected = "--out '': an empty path" if case == "empty" else f"--out {out}: {link} is not a directory"
        assert f"error: {expected}" in capsys.readouterr().err
        assert opened == []
        assert os.listdir(tmp_path) == ["link"]

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_out_that_cannot_be_created_is_exit_2(self, command_args, request, tmp_path, capsys, command):
        out = tmp_path / ("x" * 300)
        # synth makes its bundle in generate, which the recorder replaces.
        opened = [] if command == "synth" else request.getfixturevalue("opened")
        assert run_cli(command, *command_args[command], "--out", str(out)) == 2
        err = capsys.readouterr().err
        if command == "synth":
            assert f"error: cannot write {out}{os.sep}" in err
        else:
            # Made once the inputs pass their checks, so no input was read
            # past the first line that the checks read.
            assert f"error: cannot create --out {out}: " in err
            assert opened == list(dict.fromkeys(opened)) != []
        assert err.rstrip().endswith(": File name too long")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("configured", [False, True])
    @pytest.mark.parametrize("command", ["run", "infer", "ingest-check"])
    def test_a_derived_week_scans_its_file_once_before_the_read(
        self, command_args, mini_bundle, opened, tmp_path, command, configured
    ):
        args = list(command_args[command])
        files = {"year1": "2008-04-07"}
        if command == "run":
            args += ["--followup", mini_bundle["followup"]]
            files.update(year2="2010-04-05", followup="2014-04-07")
        if configured:
            flags = {"run": ("--week1-start", "--week2-start", "--followup-start"),
                     "infer": ("--week1-start",), "ingest-check": ("--week-start",)}[command]
            for flag, start in zip(flags, files.values()):
                args += [flag, start]
        assert run_cli(command, *args, "--out", str(tmp_path / "out")) == 0
        # Each input has one line read when the config is checked, once.
        # Then a derived week scans the file once, and the file is read.
        for key in files:
            assert opened.count(mini_bundle[key]) == 1 + (1 if configured else 2), key

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cardcohort.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "ingest-check" in proc.stdout

    def test_progress_goes_to_stderr_not_stdout(self, mini_bundle, tmp_path, capsys):
        run_cli(
            "infer",
            "--year1", mini_bundle["year1"],
            "--stops1", mini_bundle["stops"],
            "--out", str(tmp_path),
        )
        captured = capsys.readouterr()
        assert captured.out == ""


class TestWeekPastTheCalendar:
    """A week start within six days of 9999-12-31 is refused with exit 2."""

    @pytest.mark.parametrize(
        "command,flag,threads",
        [
            ("run", "--week1-start", "1"),
            ("run", "--week2-start", "1"),
            ("run", "--week2-start", "2"),
            ("score", "--followup-start", "2"),
            ("infer", "--week1-start", "1"),
            ("ingest-check", "--week-start", None),
        ],
    )
    def test_configured_start_is_exit_2_before_any_input_is_read(
        self, command_args, opened, tmp_path, capsys, command, flag, threads
    ):
        args = list(command_args[command])
        if threads:
            args += ["--threads", threads]
        assert run_cli(command, *args, flag, "9999-12-28", "--out", str(tmp_path / "out")) == 2
        assert "error: week start 9999-12-28: the week runs past 9999-12-31" in capsys.readouterr().err
        assert opened == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,key,threads",
        [
            ("run", "--year1", "1"),
            ("run", "--year2", "1"),
            ("run", "--year2", "2"),
            ("score", "--followup", "2"),
            ("infer", "--year1", "2"),
            ("ingest-check", "--transactions", None),
        ],
    )
    def test_derived_start_is_exit_2(self, command_args, mini_bundle, tmp_path, capsys, command, key, threads):
        late = tmp_path / "late.csv"
        late.write_text(f"{ingest.TRANSACTIONS_HEADER}\nC1,R,FIX,B1,HA,9999-12-31T09:00,,\n")
        args = list(command_args[command])
        args[args.index(key) + 1] = str(late)
        if threads:
            args += ["--threads", threads]
        assert run_cli(command, *args, "--out", str(tmp_path / "out")) == 2
        assert "error: week start 9999-12-31: the week runs past 9999-12-31" in capsys.readouterr().err


# Every subcommand's flags: flag -> (dest, parser of its text, choices,
# required).  The parser is ``str`` for a plain string and None for a
# flag that takes no text.
_TUNING = {
    "--config": ("config", str, None, False),
    "--center": ("center", ingest.parse_coord, None, False),
    "--stay-mode": ("stay_mode", str, ("strict", "permissive"), False),
    "--home-rule": ("home_rule", str, ("paper", "relaxed"), False),
    "--stay-min": ("stay_min", int, None, False),
    "--cluster-m": ("cluster_m", float, None, False),
    "--change-km": ("change_km", float, None, False),
    "--threads": ("threads", int, None, False),
    "--out": ("out", str, None, True),
}
_TWO_YEAR_FLAGS = _TUNING | {
    "--year1": ("year1", str, None, False),
    "--year2": ("year2", str, None, False),
    "--stops1": ("stops1", str, None, False),
    "--stops2": ("stops2", str, None, False),
    "--r4": ("r4", str, None, False),
    "--taz": ("taz", str, None, False),
    "--week1-start": ("week1_start", ingest.parse_date, None, False),
    "--week2-start": ("week2_start", ingest.parse_date, None, False),
}
_FOLLOWUP_FLAGS = _TWO_YEAR_FLAGS | {
    "--followup": ("followup", str, None, False),
    "--followup-start": ("followup_start", ingest.parse_date, None, False),
}
FLAG_TABLE = {
    "ingest-check": {
        "--transactions": ("transactions", str, None, True),
        "--stops": ("stops_path", str, None, True),
        "--week-start": ("week_start", ingest.parse_date, None, False),
        "--out": ("out", str, None, True),
    },
    "infer": _TUNING | {
        "--year1": ("year1", str, None, False),
        "--stops1": ("stops1", str, None, False),
        "--week1-start": ("week1_start", ingest.parse_date, None, False),
        "--dump-stays": ("dump_stays", None, None, False),
    },
    "diff": _TWO_YEAR_FLAGS,
    "classify": _TWO_YEAR_FLAGS,
    "score": _FOLLOWUP_FLAGS,
    "run": _FOLLOWUP_FLAGS,
    "synth": {
        "--out": ("out", str, None, True),
        "--config": ("config", str, None, False),
        "--agents": ("agents", int, None, False),
        "--seed": ("seed", int, None, False),
        "--commuters": ("commuters", int, None, False),
        "--movers": ("movers", int, None, False),
        "--job-changers": ("job_changers", int, None, False),
        "--jobless": ("jobless", int, None, False),
        "--churners": ("churners", int, None, False),
        "--grid-rows": ("grid_rows", int, None, False),
        "--grid-cols": ("grid_cols", int, None, False),
        "--site-stops": ("site_stops", int, None, False),
        "--stop-spacing-m": ("stop_spacing_m", float, None, False),
        "--site-pitch-m": ("site_pitch_m", float, None, False),
        "--fixed-fare-fraction": ("fixed_fare_fraction", float, None, False),
        "--noise-rate": ("noise_rate", float, None, False),
        "--retention": ("followup_retention", float, None, False),
    },
}


def _subcommand_actions():
    """Each subcommand's name and its option actions, --help left out."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        yield name, [a for a in p._actions if not isinstance(a, argparse._HelpAction)]


class TestOptionTable:
    def test_flag_set_is_pinned(self):
        seen = {}
        for name, actions in _subcommand_actions():
            table = seen[name] = {}
            for a in actions:
                (flag,) = a.option_strings
                parser = None if a.nargs == 0 else a.type or str
                choices = tuple(a.choices) if a.choices else None
                table[flag] = (a.dest, parser, choices, a.required)
                # An unset flag leaves its config value alone.
                assert a.default is (False if parser is None else None), flag
        assert seen == FLAG_TABLE


class _Captured(Exception):
    """Raised with the config a subcommand built, in place of its work."""


@pytest.fixture
def captured(monkeypatch):
    build = cli._build_run_config

    def capture(cfg, *rest):
        raise _Captured(cfg)

    monkeypatch.setattr(cli, "_build_run_config", lambda args: capture(build(args)))
    monkeypatch.setattr(cli, "generate", capture)


def _input_file(bundle, key):
    """A file of the kind the input field ``key`` names, so that its header passes."""
    return bundle["stops" if key.startswith("stops") else key]


def _config_of(argv):
    with pytest.raises(_Captured) as got:
        main(argv)
    return got.value.args[0]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _field_types(command):
    cls = GeneratorConfig if command == "synth" else pipeline.RunConfig
    return {f.name: f.type for f in fields(cls)}


# Each (subcommand, flag) that sets a config field.
CONFIG_FLAGS = [
    (command, flag)
    for command, table in FLAG_TABLE.items() if command != "ingest-check"
    for flag, (dest, *_) in table.items() if dest in _field_types(command)
]
# A text that each annotation parses, and one that no field with it takes.
# Paths and choices take their own good texts.
_GOOD_TEXT = {"int": "7", "float": "0.5", "date": "2008-04-14", "Coord": "116.4,39.9"}
_BAD_TEXT = {"int": "abc", "float": "abc", "date": "2008-13-01", "Coord": "1,2,3", "str": "bogus"}


class TestFlagAndConfigLineAgree:
    def test_a_negative_center_needs_an_equals_sign(self, mini_args, captured, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("center=-73.9,40.7\n")
        out = ["--out", str(tmp_path / "out")]
        by_line = _config_of(["run", *mini_args, "--config", str(conf), *out])
        assert by_line.center == (-73.9, 40.7)
        assert _config_of(["run", *mini_args, "--center=-73.9,40.7", *out]) == by_line
        # argparse takes a value that starts with "-" for an option.
        assert _exit_code(["run", *mini_args, "--center", "-73.9,40.7", *out]) == 2

    def test_every_annotation_is_covered(self):
        annotations = {_field_types(c)[FLAG_TABLE[c][f][0]] for c, f in CONFIG_FLAGS}
        assert annotations == {"int", "float", "Coord", "str", "str | None", "date | None"}

    @pytest.mark.parametrize("command,flag", CONFIG_FLAGS)
    def test_same_value_by_either_route(self, mini_bundle, captured, tmp_path, command, flag):
        dest, parser, choices, _ = FLAG_TABLE[command][flag]
        annotation = _field_types(command)[dest].removesuffix(" | None")
        if choices:
            good = choices[0]
        elif dest in pipeline.PATH_FIELDS:
            good = _input_file(mini_bundle, dest)
        else:
            good = _GOOD_TEXT[annotation]
        # The inputs the subcommand requires, less the one under test.
        required = getattr(cli.build_parser().parse_args([command, "--out", "o"]), "required", ())
        lines = [f"{key}={_input_file(mini_bundle, key)}" for key in required if key != dest]
        confs = iter(range(4))

        def argv(*extra_lines, flag_text=None):
            conf = tmp_path / f"{next(confs)}.conf"
            conf.write_text("".join(line + "\n" for line in lines + list(extra_lines)))
            flags = [] if flag_text is None else [flag, flag_text]
            return [command, "--config", str(conf), *flags, "--out", str(tmp_path / "out")]

        by_flag = _config_of(argv(flag_text=good))
        assert getattr(by_flag, dest) == parser(good)
        assert _config_of(argv(f"{dest}={good}")) == by_flag
        bad = _BAD_TEXT[annotation]
        assert _exit_code(argv(flag_text=bad)) == 2
        assert _exit_code(argv(f"{dest}={bad}")) == 2
        assert not (tmp_path / "out").exists()
