"""Command-line interface: subcommands, config handling, exit codes."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from cardcohort.cli import main

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


class TestDiffClassifyScore:
    def test_diff(self, mini_args, tmp_path):
        assert run_cli("diff", *mini_args, "--out", str(tmp_path)) == 0
        rows = read_rows(str(tmp_path / "deltas.csv"))
        assert [r[0] for r in rows[1:]] == ["A1", "F1"]
        assert os.path.exists(tmp_path / "profiles_year1.csv")
        assert os.path.exists(tmp_path / "profiles_year2.csv")

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

    def test_wrong_year2_header_in_worker_is_exit_3(self, mini_args, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        args = list(mini_args)
        args[args.index("--year2") + 1] = str(bad)
        code = run_cli("run", *args, "--threads", "2", "--out", str(tmp_path / "out"))
        assert code == 3

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


class TestEntryPoints:
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
