"""The FR pass of ``write_run_reports`` against a reference made one FR at a time.

``Deltas.rows`` makes each half of a delta once per distinct place pair,
and the report writer formats each profile's places once per distinct
(home, work, commute_km).  Here every table written from them is
compared with the same table made one FR at a time, straight from
``housing_change``, ``work_change``, ``commute_change`` and
``group_index`` over the FRs' positions in the two years' columns, and
each profile row with its own profile: a cache keyed more coarsely than
what a row depends on writes some row wrong.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from datetime import date

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cardcohort.cohort import CHANGED, FOUND, JOBLESS, LOST, Deltas, commute_change, housing_change, work_change
from cardcohort.geo import PlaceIndex
from cardcohort.groups import group_index
from cardcohort.infer import shared
from cardcohort.ingest import ObservationWeek
from cardcohort.pipeline import PipelineResult, RunConfig, YearData, run_pipeline
from cardcohort.reports import (
    DELTAS_HEADER,
    write_commute_variation,
    write_dynamics,
    write_groups,
    write_run_reports,
)
from cardcohort.synth import GeneratorConfig, generate

from conftest import YearProfile, card_profiles, fr_deltas, offset_coord, profile_columns

FR_FILES = ("deltas.csv", "housing_dynamics.csv", "work_dynamics.csv", "commute_variation.csv", "groups.csv")
PROFILE_FILES = ("profiles_year1.csv", "profiles_year2.csv")


def text(x) -> str:
    return "" if x is None else str(x)


def km(x: float | None) -> str:
    return "" if x is None else f"{x:.3f}"


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def reference(result, out: str) -> dict[str, str]:
    """The FR tables and the profile files, each FR's and each card's row made on its own."""
    housing, work, commute, groups = Counter(), Counter(), Counter(), []
    rows = [DELTAS_HEADER]
    p1, p2 = result.deltas.years
    centroid1, centroid2, center, in_r4, change_km = result.deltas.rules

    def centroid(lookup, place: int):
        return None if place < 0 else lookup(place)

    for i, j in shared(p1, p2):
        if p1.home[i] < 0 or p2.home[j] < 0:
            continue
        status, direction, move_km, move_bin, r4 = housing_change(
            centroid1(p1.home[i]), centroid2(p2.home[j]), center, change_km, in_r4
        )
        w_status, w_dir, w_km, w_bin = work_change(
            centroid(centroid1, p1.work[i]), centroid(centroid2, p2.work[j]), center, change_km
        )
        commute_km, commute_label = commute_change(p1.commute_km[i], p2.commute_km[j])
        housing[status, direction, move_bin] += 1
        work[w_status, w_dir, w_bin] += 1
        if commute_label is not None:
            commute[commute_label] += 1
        groups.append(group_index(status == CHANGED, w_status, r4))
        rows.append(",".join((
            p1.cards[i], status, text(direction), km(move_km), text(move_bin), w_status,
            text(w_dir), km(w_km), km(commute_km), text(commute_label), str(int(r4)),
        )))
    os.makedirs(out)
    write_dynamics(os.path.join(out, "housing_dynamics.csv"), housing)
    write_dynamics(os.path.join(out, "work_dynamics.csv"), work, (LOST, FOUND, JOBLESS))
    write_commute_variation(os.path.join(out, "commute_variation.csv"), commute)
    write_groups(os.path.join(out, "groups.csv"), groups)
    tables = {name: read(os.path.join(out, name)) for name in FR_FILES[1:]}
    tables["deltas.csv"] = "\n".join(rows)
    for name, year in zip(PROFILE_FILES, (result.year1, result.year2)):
        lines = ["card_id,year,home_place,work_place,commute_km,commute_min,rides"]
        for card, p in card_profiles(year.profiles).items():
            lines.append(",".join((
                card, year.week.label, text(p.home), text(p.work), km(p.commute_km), text(p.commute_min), str(p.rides),
            )))
        tables[name] = "\n".join(lines)
    return tables


def assert_written_as_reference(result, tmp_path) -> None:
    out = str(tmp_path / "out")
    write_run_reports(result, out, FR_FILES + PROFILE_FILES)
    expected = reference(result, str(tmp_path / "reference"))
    for name in FR_FILES + PROFILE_FILES:
        got, want = read(os.path.join(out, name)).splitlines(), expected[name].splitlines()
        # The first differing row, not a diff of whole files.
        assert next(((a, b) for a, b in zip(got, want) if a != b), None) is None, name
        assert len(got) == len(want), name


# A smaller seed is no simpler bundle, so a failing draw is reported as drawn, unshrunk.
@settings(max_examples=4, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1))
def test_noisy_synth_bundles_match_the_reference(tmp_path_factory, seed):
    tmp_path = tmp_path_factory.mktemp("bundle")
    gen = GeneratorConfig(
        seed=seed, commuters=30, movers=30, job_changers=30, jobless=20, churners=20,
        grid_rows=6, grid_cols=6, site_stops=3, noise_rate=0.2,
    )
    bundle = generate(gen, str(tmp_path))
    p = bundle.paths
    result = run_pipeline(RunConfig(
        year1=p["week1"], year2=p["week2"], stops1=p["stops"], stops2=p["stops"], r4=p["r4"], center=bundle.center,
    ))
    assert len(result.deltas.cards) > 100
    assert_written_as_reference(result, tmp_path)


# Five places on one parallel, 0, 3, 5, 10 and 20 km east of place 0.
CENTER = (116.40, 39.90)
ORIGIN = (116.30, 39.90)
CENTROIDS = (ORIGIN, *(offset_coord(ORIGIN, m, 0.0) for m in (3000.0, 5000.0, 10000.0, 20000.0)))


def hand_made_result(year1: dict[str, YearProfile], year2: dict[str, YearProfile]) -> PipelineResult:
    """A result over hand-made profiles; both years look their places up in :data:`CENTROIDS`."""
    places = PlaceIndex((), (), CENTROIDS)
    cfg = RunConfig(year1="", year2="", stops1="", stops2="", center=CENTER)

    def year(profiles, start):
        return YearData(ObservationWeek(start), places, profile_columns(sorted(profiles.items())), [], [], Counter(), 0, 0)

    y1, y2 = year(year1, date(2008, 4, 7)), year(year2, date(2010, 4, 5))
    deltas = Deltas(
        y1.profiles, y2.profiles, places.centroid, places.centroid, CENTER, lambda c: c[0] < ORIGIN[0] + 0.05,
    )
    return PipelineResult(cfg, y1, y2, deltas)


def prof(home, work=None, ckm=None) -> YearProfile:
    return YearProfile(home, work, ckm, None if ckm is None else 30, 10)


def test_frs_that_share_their_homes_but_not_their_work(tmp_path):
    # Every FR moves from place 0 to place 3; their work pairs differ.
    result = hand_made_result(
        {"A": prof(0, 1, 4.0), "B": prof(0, 1, 4.0), "C": prof(0, 2, 6.0), "D": prof(0, 1, 4.0), "E": prof(0)},
        {"A": prof(3, 1, 7.0), "B": prof(3, 4, 17.0), "C": prof(3, 1, 7.0), "D": prof(3), "E": prof(3, 2, 5.0)},
    )
    statuses = {card: (d.housing_status, d.work_status) for card, d in fr_deltas(result.deltas).items()}
    assert len({s for s, _ in statuses.values()}) == 1
    assert len({w for _, w in statuses.values()}) == 4
    assert_written_as_reference(result, tmp_path)


def test_jobless_frs_have_no_commute(tmp_path):
    result = hand_made_result(
        {"A": prof(0), "B": prof(1), "C": prof(0, 2, 5.0), "D": prof(0)},
        {"A": prof(0), "B": prof(4), "C": prof(0), "D": prof(1, 2, 2.0)},
    )
    assert math.isnan(result.year1.profiles.commute_km[0])
    deltas = fr_deltas(result.deltas).values()
    assert [d.commute_delta_km for d in deltas] == [None] * 4
    assert [d.work_status for d in deltas] == [JOBLESS, JOBLESS, LOST, FOUND]
    assert_written_as_reference(result, tmp_path)


def test_one_place_pair_with_two_commute_distances(tmp_path):
    # Hand-made profiles may give one (home, work) pair different
    # distances, -0.0 and 0.0 among them, which are written apart.
    year1 = {"A": prof(0, 2, 5.0), "B": prof(0, 2, 6.5), "C": prof(0, 2, 0.0), "D": prof(0, 2, -0.0), "E": prof(0, 2)}
    result = hand_made_result(year1, {**year1, "F": prof(0, 2, 5.0)})
    assert_written_as_reference(result, tmp_path)
    rows = read(str(tmp_path / "out" / "profiles_year1.csv")).splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["5.000", "6.500", "0.000", "-0.000", ""]
