"""Two-year deltas: housing, work, commute binning."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cardcohort import cohort
from cardcohort.cohort import (
    CHANGED,
    COMMUTE_BINS,
    FOUND,
    JOBLESS,
    LOST,
    MOVE_BINS,
    NOT_CHANGED,
    Deltas,
    commute_bin,
    match_cohort,
    move,
    move_bin,
)
from cardcohort.geo import INWARD, OUTWARD, haversine_km
from cardcohort.infer import Profiles, YearProfile

from conftest import fr_deltas, profile_columns

# Frozen fixture: both homes due east of the centre on the same
# parallel, 15 km and 3 km out, so the move is 12 km inward (up to the
# curvature-induced float error in the last digits).
CENTER = (116.3913, 39.9053)
OLD_HOME = (116.5671534984672, 39.9053)
NEW_HOME = (116.42647069969344, 39.9053)
MOVE_KM = 11.9999987594
# A quarter of the way from NEW_HOME to OLD_HOME: 3 km farther out.
FARTHER_HOME = (NEW_HOME[0] + (OLD_HOME[0] - NEW_HOME[0]) / 4, NEW_HOME[1])

# Profiles name places by id; unless a test says otherwise, both years
# look their ids up in this one table.
OLD, NEW, FARTHER = 0, 1, 2
CENTROID = {OLD: OLD_HOME, NEW: NEW_HOME, FARTHER: FARTHER_HOME}.__getitem__


def columns(profiles: dict[str, YearProfile]) -> Profiles:
    """A year's profiles held as the pipeline holds them."""
    return profile_columns(sorted(profiles.items()))


def prof(home=OLD, work=None, ckm=None) -> YearProfile:
    return YearProfile(
        home=home,
        work=work,
        commute_km=ckm,
        commute_min=None,
        rides=1,
    )


class TestMoveBin:
    @pytest.mark.parametrize(
        "km,label",
        [
            (0.0, "0-2"),
            (1.9999, "0-2"),
            (2.0, "2-5"),
            (4.9999, "2-5"),
            (5.0, "5-10"),
            (10.0, "10-20"),
            (19.9999, "10-20"),
            (20.0, ">=20"),
            (500.0, ">=20"),
        ],
    )
    def test_edges(self, km, label):
        assert move_bin(km) == label

    @given(st.floats(0.0, 1000.0, allow_nan=False))
    def test_always_a_known_label(self, km):
        assert move_bin(km) in MOVE_BINS


class TestCommuteBin:
    @pytest.mark.parametrize(
        "delta,label",
        [
            (25.0, ">=20"),
            (20.0, ">=20"),
            (19.9999, "10-20"),
            (10.0, "10-20"),
            (5.0, "5-10"),
            (2.0, "2-5"),
            (0.0001, "0-2"),
            (0.0, "0-2"),
            (-0.0001, "-2-0"),
            (-2.0, "-2-0"),
            (-2.0001, "-5-(-2)"),
            (-5.0, "-5-(-2)"),
            (-5.0001, "-10-(-5)"),
            (-10.0, "-10-(-5)"),
            (-10.0001, "-20-(-10)"),
            (-20.0, "-20-(-10)"),
            (-20.0001, "<=-20"),
        ],
    )
    def test_edges(self, delta, label):
        assert commute_bin(delta) == label

    @given(st.floats(-1000.0, 1000.0, allow_nan=False))
    def test_always_a_known_label(self, delta):
        assert commute_bin(delta) in COMMUTE_BINS

    def test_negative_zero_bins_like_zero(self):
        assert commute_bin(-0.0) == "0-2"


def test_match_cohort_requires_home_both_years():
    p1 = {
        "A": prof(home=1),
        "B": prof(home=None),
        "C": prof(home=2),
        "D": prof(home=3),
    }
    p2 = {
        "A": prof(home=9),
        "B": prof(home=1),
        "C": prof(home=None),
    }
    assert match_cohort(columns(p1), columns(p2)) == ["A"]


def test_match_cohort_output_is_sorted():
    p1 = {c: prof(home=1) for c in ("Z", "M", "A")}
    p2 = {c: prof(home=1) for c in ("Z", "M", "A")}
    assert match_cohort(columns(p1), columns(p2)) == ["A", "M", "Z"]


def delta(p1, p2, centroid2=CENTROID, in_r4=None, change_km=2.0):
    """The delta of one FR whose profiles are ``p1`` and ``p2``, as ``Deltas.rows`` makes it."""
    deltas = Deltas(columns({"A": p1}), columns({"A": p2}), CENTROID, centroid2, CENTER, in_r4, change_km)
    return fr_deltas(deltas)["A"]


# The home, work and commute parts of one FR's delta, each as a tuple.
def housing(p1, p2, change_km=2.0):
    d = delta(p1, p2, change_km=change_km)
    return d.housing_status, d.housing_dir, d.move_km, d.move_bin


def work(p1, p2):
    d = delta(p1, p2)
    return d.work_status, d.work_dir, d.work_move_km, d.work_move_bin


def commute(p1, p2):
    d = delta(p1, p2)
    return d.commute_delta_km, d.commute_bin


class TestHousingDelta:
    def test_frozen_inward_move(self):
        p1 = prof(home=OLD)
        p2 = prof(home=NEW)
        status, direction, km, label = housing(p1, p2)
        assert status == CHANGED
        assert direction == INWARD
        assert km == pytest.approx(MOVE_KM, abs=1e-6)
        assert label == "10-20"

    def test_same_centroid_not_changed(self):
        p1 = prof(home=OLD)
        p2 = prof(home=OLD)
        assert housing(p1, p2) == (NOT_CHANGED, None, 0.0, None)

    def test_benchmark_is_inclusive(self):
        # A move of exactly the configured benchmark counts as Changed;
        # the tiniest representable increase of the benchmark flips it.
        d = haversine_km(OLD_HOME, NEW_HOME)
        p1, p2 = prof(home=OLD), prof(home=NEW)
        status, _, _, _ = housing(p1, p2, change_km=d)
        assert status == CHANGED
        status, _, _, _ = housing(p1, p2, change_km=math.nextafter(d, math.inf))
        assert status == NOT_CHANGED

    def test_outward_move(self):
        status, direction, _, _ = housing(prof(home=NEW), prof(home=OLD))
        assert status == CHANGED
        assert direction == OUTWARD


class TestWorkDelta:
    W1 = OLD
    W2 = NEW

    def test_jobless(self):
        assert work(prof(), prof()) == (JOBLESS, None, None, None)

    def test_lost(self):
        p1 = prof(work=self.W1)
        assert work(p1, prof()) == (LOST, None, None, None)

    def test_found(self):
        p2 = prof(work=self.W2)
        assert work(prof(), p2) == (FOUND, None, None, None)

    def test_not_changed_under_benchmark(self):
        p1 = prof(work=self.W1)
        p2 = prof(work=self.W1)
        status, direction, km, label = work(p1, p2)
        assert (status, direction, km, label) == (NOT_CHANGED, None, 0.0, None)

    def test_changed_with_direction_and_bin(self):
        p1 = prof(work=self.W1)
        p2 = prof(work=self.W2)
        status, direction, km, label = work(p1, p2)
        assert status == CHANGED
        assert direction == INWARD
        assert km == pytest.approx(MOVE_KM, abs=1e-6)
        assert label == "10-20"


class TestCommuteDelta:
    def test_none_when_either_missing(self):
        assert commute(prof(ckm=5.0), prof()) == (None, None)
        assert commute(prof(), prof(ckm=5.0)) == (None, None)

    def test_signed_difference(self):
        delta, label = commute(prof(ckm=5.0), prof(ckm=12.5))
        assert delta == pytest.approx(7.5)
        assert label == "5-10"

    def test_shrinking_commute_is_negative(self):
        delta, label = commute(prof(ckm=12.5), prof(ckm=5.0))
        assert delta == pytest.approx(-7.5)
        assert label == "-10-(-5)"

    def test_zero_delta_bins_low(self):
        assert commute(prof(ckm=6.0), prof(ckm=6.0)) == (0.0, "0-2")


class TestBuildDelta:
    def test_assembles_all_components(self):
        p1 = prof(home=OLD, work=OLD, ckm=10.0)
        p2 = prof(home=NEW, work=OLD, ckm=4.0)
        d = delta(p1, p2, in_r4=lambda c: c[0] < 116.5, change_km=2.0)
        assert d.housing_status == CHANGED
        assert d.housing_dir == INWARD
        assert d.move_bin == "10-20"
        assert d.work_status == NOT_CHANGED
        assert d.work_dir is None
        assert d.commute_delta_km == pytest.approx(-6.0)
        assert d.commute_bin == "-10-(-5)"
        assert d.r4_2010 is True

    def test_no_region_means_outside(self):
        p1 = prof(home=OLD)
        p2 = prof(home=OLD)
        d = delta(p1, p2, in_r4=None)
        assert d.r4_2010 is False
        assert d.housing_status == NOT_CHANGED
        assert d.commute_delta_km is None
        assert d.commute_bin is None

    def test_shared_move_cache_keys_on_the_benchmark(self, monkeypatch):
        # A 3 km outward home move.
        p1, p2 = prof(home=NEW), prof(home=FARTHER)
        assert haversine_km(NEW_HOME, FARTHER_HOME) == pytest.approx(3.0, abs=1e-5)
        moves = []
        monkeypatch.setattr(cohort, "move", lambda *args: moves.append(args[-1]) or move(*args))
        near = delta(p1, p2, change_km=1.0)
        far = delta(p1, p2, change_km=5.0)
        assert (near.housing_status, near.housing_dir, near.move_bin) == (CHANGED, OUTWARD, "2-5")
        assert (far.housing_status, far.housing_dir, far.move_bin) == (NOT_CHANGED, None, None)
        # One home move per benchmark; the FR has no work place.
        assert moves == [1.0, 5.0]

    def test_each_year_looks_up_its_own_places(self):
        # Year 2's registry put a new place first, so the same places
        # have ids one greater there.
        centroid2 = {OLD + 1: OLD_HOME, NEW + 1: NEW_HOME}.__getitem__
        p1 = prof(home=OLD, work=OLD)
        p2 = prof(home=NEW + 1, work=OLD + 1)
        d = delta(p1, p2, centroid2, in_r4=lambda c: c == NEW_HOME)
        assert (d.housing_status, d.housing_dir) == (CHANGED, INWARD)
        assert d.move_km == pytest.approx(MOVE_KM, abs=1e-6)
        assert (d.work_status, d.work_move_km) == (NOT_CHANGED, 0.0)
        assert d.r4_2010 is True
