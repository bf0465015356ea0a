"""Whole-run invariances, one row each: a transform of a bundle, and what must then hold of its reports.

Every report is a function of the set of input records and the config.
Each row states one consequence of that as a metamorphic relation (Chen,
Cheung & Yiu, *Metamorphic testing*, HKUST-CS98-01, 1998; Segura et al.,
IEEE TSE 42(9), 2016): it runs a transformed bundle through
``run_pipeline`` and ``write_run_reports`` and compares the reports with
those of the bundle as drawn.  The bundles are small noisy synth bundles
with a few percent of dirty lines, in the transactions files and in the
registry, so the rejection paths run too.  The dirt stays far below the
early bail-out, whose first 1,000 lines depend on line order by design.
No week start is configured, so every file's week is derived.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import cardcohort
from cardcohort.ingest import read_config
from cardcohort.pipeline import PATH_FIELDS, RunConfig, run_pipeline
from cardcohort.reports import write_run_reports
from cardcohort.synth import GeneratorConfig, generate

Reports = dict[str, bytes]

TRANSACTIONS = ("year1", "year2", "followup")
# The reports with one row per card, sorted by card id.
PER_CARD = {"profiles_year1.csv", "profiles_year2.csv", "deltas.csv", "scores.csv"}
REJECTIONS = {"rejections_year1.csv", "rejections_year2.csv", "rejections_stops1.csv",
              "rejections_stops2.csv", "rejections_followup.csv"}
# Each digit d as 9 - d: card ids of one length then sort in reverse.
FLIP = str.maketrans("0123456789", "9876543210")


def card_flipped(row: str) -> str:
    """A transactions or report line with :data:`FLIP` applied to its first field, the card id."""
    card, comma, rest = row.partition(",")
    return card.translate(FLIP) + comma + rest


@dataclass
class Bundle:
    dir: str
    cfg: RunConfig
    rng: random.Random
    runs: int = 0

    def out(self) -> str:
        """A fresh report directory."""
        self.runs += 1
        return os.path.join(self.dir, f"out{self.runs}")


def dirty(rows: list[str], rng: random.Random) -> list[str]:
    """The data lines of a transactions file with about 3% more, each one the reader refuses, at random places."""
    rows = rows[:]
    for _ in range(len(rows) // 33):
        card, kind, _, route, stop, board, *_ = rng.choice(rows).split(",")
        rows.insert(rng.randrange(len(rows) + 1), rng.choice([
            f"{card},{kind},FIX,{route},{stop},{board},,,",
            f"{card},{kind},FIX,,{stop},{board},,",
            f"{card},X,FIX,{route},{stop},{board},,",
            f"{card},{kind},DST,{route},{stop},{board},,",
            f"{card},{kind},FIX,{route},{stop},{board.replace('T', ' ')},,",
            f"{card},{kind},FIX,{route},{stop},2099{board[4:]},,",
            f"{card},{kind},FIX,{route},NOSTOP{rng.randrange(3)},{board},,",
        ]))
    return rows


def dirty_registry(rows: list[str], rng: random.Random) -> list[str]:
    """A registry's data lines with four the loader rejects.

    One names a kept stop with a coordinate that does not parse, just
    before that stop's line: a rejected line conflicts with no kept one,
    in either order.
    """
    rows = rows[:]
    at = rng.randrange(len(rows))
    stop, lon, lat = rows[at].split(",")
    rows.insert(at, f"{stop},x,{lat}")
    for line in (f"{stop}9,{lon}", f",{lon},{lat}", f"Z{stop},{lon},91.5"):
        rows.insert(rng.randrange(len(rows) + 1), line)
    return rows


def copied(
    b: Bundle, tag: str, keys, edit: Callable[[list[str]], list[str]] = list, head: str = "", end: str = "\n"
) -> RunConfig:
    """``b.cfg`` with each input in ``keys`` copied to ``tag/``: ``head``, the first line, then ``edit`` of the others.

    Each line of a copy ends with ``end``.
    """
    os.makedirs(os.path.join(b.dir, tag), exist_ok=True)
    paths = {}
    for key in keys:
        with open(getattr(b.cfg, key), encoding="utf-8") as fh:
            first, *rows = fh.read().splitlines()
        paths[key] = os.path.join(b.dir, tag, key)
        with open(paths[key], "w", encoding="utf-8", newline="") as fh:
            fh.write(head + end.join([first, *edit(rows)]) + end)
    return dataclasses.replace(b.cfg, **paths)


def config_file(path: str, cfg: RunConfig, head: str = "") -> str:
    """Write ``cfg`` as a run config file, with absolute paths, and return its path."""
    values = {k: ",".join(map(repr, v)) if isinstance(v, tuple) else v for k, v in vars(cfg).items() if v is not None}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + "".join(f"{k}={v}\n" for k, v in values.items()))
    return path


def read_reports(out: str) -> Reports:
    return {name: Path(out, name).read_bytes() for name in os.listdir(out)}


def reports_of(b: Bundle, result) -> Reports:
    out = b.out()
    write_run_reports(result, out)
    return read_reports(out)


def run(b: Bundle, cfg: RunConfig, threads=(1,)) -> Iterator[Reports]:
    for n in threads:
        yield reports_of(b, run_pipeline(dataclasses.replace(cfg, threads=n)))


# --- transforms: each yields the reports of one or more transformed runs.


def other_thread_counts(b: Bundle) -> Iterator[Reports]:
    yield from run(b, b.cfg, (2, 3))


def lines_reordered(b: Bundle) -> Iterator[Reports]:
    # Reversed, both years share one registry; shuffled, year 2 has its own copy.
    reverse = copied(b, "reversed", (*TRANSACTIONS, "stops1"), lambda rows: rows[::-1])
    yield from run(b, dataclasses.replace(reverse, stops2=reverse.stops1), (1, 2))
    shuffle = copied(b, "shuffled", (*TRANSACTIONS, "stops1", "stops2"), lambda rows: b.rng.sample(rows, len(rows)))
    yield from run(b, shuffle, (1, 2))


def routes_rewritten(b: Bundle) -> Iterator[Reports]:
    def one_route(rows):
        split = [row.split(",") for row in rows]
        return [",".join([*p[:3], "R1" if p[3] else "", *p[4:]]) for p in split]

    yield from run(b, copied(b, "routes", TRANSACTIONS, one_route))


def registry_respelled(b: Bundle) -> Iterator[Reports]:
    link = os.path.join(b.dir, "link.csv")
    os.symlink(b.cfg.stops1, link)
    for stops2 in ("./" + os.path.relpath(b.cfg.stops1), link):
        for threads in (1, 2):
            result = run_pipeline(dataclasses.replace(b.cfg, stops2=stops2, threads=threads))
            # One registry, loaded once, whatever its path's spelling.
            assert result.year2.places is result.year1.places
            assert result.year2.stop_rejections is result.year1.stop_rejections
            yield reports_of(b, result)


def byte_order_marks(b: Bundle) -> Iterator[Reports]:
    cfg = copied(b, "bom", [k for k in PATH_FIELDS if getattr(b.cfg, k)], head="\ufeff")
    conf = config_file(os.path.join(b.dir, "bom.conf"), cfg, head="\ufeff")
    yield from run(b, RunConfig(**read_config(conf, RunConfig)))


def line_endings(b: Bundle) -> Iterator[Reports]:
    for tag, end in (("crlf", "\r\n"), ("cr", "\r")):
        cfg = copied(b, tag, (*TRANSACTIONS, "stops1"), end=end)
        yield from run(b, dataclasses.replace(cfg, stops2=cfg.stops1))


def year2_registry_shifted(b: Bundle) -> Iterator[Reports]:
    # A far-off stop whose id sorts first is year 2's place 0.  Appended
    # last, it moves no rejected line.
    yield from run(b, copied(b, "shifted", ("stops2",), lambda rows: [*rows, "A0,100.0,10.0"]), (1, 2))


def card_ids_renamed(b: Bundle) -> Iterator[Reports]:
    yield from run(b, copied(b, "cards", TRANSACTIONS, lambda rows: [card_flipped(row) for row in rows]))


def hash_seeds(b: Bundle) -> Iterator[Reports]:
    # The command line, run as a module with this test's own import path.
    conf = config_file(os.path.join(b.dir, "run.conf"), b.cfg)
    path = os.path.dirname(os.path.dirname(cardcohort.__file__))
    for seed in ("0", "12345"):
        out = b.out()
        proc = subprocess.run(
            [sys.executable, "-m", "cardcohort.cli", "run", "--config", conf, "--out", out],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        yield read_reports(out)


def start_methods(b: Bundle) -> Iterator[Reports]:
    # The command line, in a process that sets each start method first.
    # Year 2 names a copy of the registry, so a worker clusters it and
    # sends it back.
    conf = config_file(os.path.join(b.dir, "own.conf"), copied(b, "own", ("stops2",)))
    path = os.path.dirname(os.path.dirname(cardcohort.__file__))
    for method in multiprocessing.get_all_start_methods():
        script = (
            f"import multiprocessing, sys; multiprocessing.set_start_method({method!r}); "
            "from cardcohort.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        for threads in ("2", "3"):
            out = b.out()
            proc = subprocess.run(
                [sys.executable, "-c", script, "run", "--config", conf, "--threads", threads, "--out", out],
                env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, f"{method}, --threads {threads}: {proc.stderr}"
            yield read_reports(out)


# --- what must then hold of the reports.


def differ(base: Reports, got: Reports) -> set[str]:
    return {name for name in base.keys() | got.keys() if base.get(name) != got.get(name)}


def identical(base: Reports, got: Reports) -> None:
    assert differ(base, got) == set()


def rejection_lines_move(base: Reports, got: Reports) -> None:
    assert differ(base, got) <= REJECTIONS

    def reasons(data: bytes) -> list[bytes]:
        return sorted(line.partition(b",")[2] for line in data.splitlines())

    for name in REJECTIONS:
        assert reasons(got[name]) == reasons(base[name]), name


def year2_place_ids_up_one(base: Reports, got: Reports) -> None:
    assert differ(base, got) == {"profiles_year2.csv"}

    def up_one(line: bytes) -> bytes:
        card, year, home, work, rest = line.split(b",", 4)
        return b",".join([card, year, *(str(int(p) + 1).encode() if p else p for p in (home, work)), rest])

    header, *rows = base["profiles_year2.csv"].splitlines()
    assert got["profiles_year2.csv"].splitlines() == [header, *map(up_one, rows)]


def rows_permuted(base: Reports, got: Reports) -> None:
    assert differ(base, got) <= PER_CARD
    for name in PER_CARD:
        header, *rows = base[name].decode().splitlines()
        assert got[name].decode().splitlines() == [header, *sorted(map(card_flipped, rows))], name


@dataclass(frozen=True)
class Row:
    name: str
    transform: Callable[[Bundle], Iterator[Reports]]
    holds: Callable[[Reports, Reports], None]


ROWS = [
    Row("thread count", other_thread_counts, identical),
    Row("line order", lines_reordered, rejection_lines_move),
    Row("route ids", routes_rewritten, identical),
    Row("registry spelling", registry_respelled, identical),
    Row("byte order marks", byte_order_marks, identical),
    Row("line endings", line_endings, identical),
    Row("shifted year-2 registry", year2_registry_shifted, year2_place_ids_up_one),
    Row("card ids", card_ids_renamed, rows_permuted),
    Row("hash seed", hash_seeds, identical),
    Row("start method", start_methods, identical),
]


def drawn_bundle(folder: str, seed: int, noise: float) -> Bundle:
    """A 130-agent synth bundle with dirty transactions files and a dirty registry, and its config."""
    gen = GeneratorConfig(
        seed=seed, commuters=30, movers=30, job_changers=30, jobless=20, churners=20,
        grid_rows=6, grid_cols=6, site_stops=3, noise_rate=noise,
    )
    bundle = generate(gen, folder)
    p = bundle.paths
    cfg = RunConfig(
        year1=p["week1"], year2=p["week2"], stops1=p["stops"], stops2=p["stops"],
        followup=p["followup"], r4=p["r4"], taz=p["taz"], center=bundle.center,
    )
    b = Bundle(folder, cfg, random.Random(seed))
    b.cfg = copied(b, "dirty", TRANSACTIONS, lambda rows: dirty(rows, b.rng))
    b.cfg = copied(b, "dirty", ("stops1",), lambda rows: dirty_registry(rows, b.rng))
    b.cfg = dataclasses.replace(b.cfg, stops2=b.cfg.stops1)
    return b


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
# A smaller seed is no simpler bundle, so a failing draw is reported as drawn, unshrunk.
@settings(max_examples=4, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1), noise=st.sampled_from([0.0, 0.2]))
def test_relation(tmp_path_factory, row, seed, noise):
    b = drawn_bundle(str(tmp_path_factory.mktemp("bundle")), seed, noise)
    base = next(run(b, b.cfg))
    assert len(base["deltas.csv"].splitlines()) > 20
    # Every file has rejected lines, the registry its four.
    assert all(base[name].count(b"\n") > 1 for name in REJECTIONS)
    assert base["rejections_stops1.csv"].count(b"\n") == 5
    for got in row.transform(b):
        row.holds(base, got)
