"""Golden digests: the exact bytes of a fixed synth bundle and of two full runs on it.

A refactor that means to keep every bundle and report byte-identical must
leave these tables alone.  A change that alters those bytes on purpose
records the new digests here and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from cardcohort.cli import main

REJECTIONS_HEADER_ONLY = "1d91414893e91f40a1097767b9ef7294f32ce0ffb7bd14160fc37ca3926abb9f"
UNMATCHED_HEADER_ONLY = "6096fcbf8aecbf898ca28d0622a2e0bd6369ca5af85c4dfde8c74eb6478bed2b"

EMPTY_LOGS = {
    "rejections_followup.csv": REJECTIONS_HEADER_ONLY,
    "rejections_stops1.csv": REJECTIONS_HEADER_ONLY,
    "rejections_stops2.csv": REJECTIONS_HEADER_ONLY,
    "rejections_year1.csv": REJECTIONS_HEADER_ONLY,
    "rejections_year2.csv": REJECTIONS_HEADER_ONLY,
    "unmatched_year1.csv": UNMATCHED_HEADER_ONLY,
    "unmatched_year2.csv": UNMATCHED_HEADER_ONLY,
}

GOLDEN = {
    "defaults": ((), {
        **EMPTY_LOGS,
        "commute_variation.csv": "4e853c7524d8c24ca56b7adb741a200d4ebef4484a13dcef692dc72d32360a21",
        "deltas.csv": "3b6d91dcf81a5ea511520e75e5761b2cb7a9ec3ee6da24d9ba03fa13c06f273d",
        "deprivation.csv": "633871a42403037ff3538d407931af63b3c33af022a474db245ddf65720313a1",
        "groups.csv": "bdb40864f7259e5a6d5055b0122108145025e59e807e190fca15394702c0fd8e",
        "housing_dynamics.csv": "cc93d266cc465fd6ce48ccdc1d7c2d1b3de199c398d3555d523d9e1543de101e",
        "profiles_year1.csv": "cd8116b34122988c1aec2b52bbda7cfc4426033507a1c8f4a9d38ba6ddd15293",
        "profiles_year2.csv": "3da120edb42db80a4b7591749d1739898ead5458d2996783776a947ae0956606",
        "scores.csv": "5c4f8e45b40192c2d1375e55b0107b3d22375f1e7530b53df966a76c5c26519a",
        "summary.csv": "7126aa2ee4c435f345568cfafa071505d878f46682dae48b69f9aef4d4769d99",
        "taz_fr_homes.geojson": "e7b149b8b4718509062db8dd13d9b1e1bb742544f3db05ca99c7d8be1795c86d",
        "work_dynamics.csv": "96b32c124e7aacaccd7fab2fea6ffba66fa7a348389359cef6293c93ede5108a",
    }),
    "strict-paper-1km": (("--stay-mode", "strict", "--home-rule", "paper", "--change-km", "1"), {
        **EMPTY_LOGS,
        "commute_variation.csv": "774492aafd66835f288164a916a6df857fd2b171697354d90282fbf7dbf9a3f7",
        "deltas.csv": "dfb8f2eeab8fafd144d82871a33c334e32eb7970bf11b281b7919d87c18b91e1",
        "deprivation.csv": "4077d97214c2dc7b86b133e8d29cde7f0e464e7c6ba8e4a3cba21849f547b295",
        "groups.csv": "92cb01206830140681834f54830ac8ed29ebd267740d07ca72a985732a57f178",
        "housing_dynamics.csv": "5b5232d43c2d484490584f65422f96f9a756fc05d6d340bd14c48cc7268de780",
        "profiles_year1.csv": "c6647270fa70ad9681e1bdedda8a9b1a1e3d25a273845c47ca5247c4d870585b",
        "profiles_year2.csv": "5347ebf3b3cea793a675bf8a67061622ce6089b8a0849917fbbff33518b6d8da",
        "scores.csv": "ef5494dc4362bc729b667ff5908d6005304dbc1e9a935752be2e5f989de602bd",
        "summary.csv": "69bc6ce35a8d3c1d8a879c21c5a9766fe6759793a06d8ac1252b6ce43a343ffc",
        "taz_fr_homes.geojson": "7ec177cfab15dd30917adbcb8d87e37e1e63b7d0c2ce9adc9a31c2459da0dc57",
        "work_dynamics.csv": "ef7b16bc6bd7da7537db18310e95ebb7e43ae39f7d0cf844f245b4b6f4871a6d",
    }),
}

# The bundle's own files.  generator.conf is left out: it lists the
# generator's settings, so it changes whenever a setting is added or removed.
GOLDEN_BUNDLE = {
    "bundle.conf": "22485a90875f99ad4a7f4227567faa89edd68f8d6fba82b59aa5026a6800a3d9",
    "followup.csv": "170b9983eb7511a2f1d0f40f1fc09d496ca259d9a6b9f0ced551ff74f8230d0e",
    "r4.geojson": "1d0822f9430573b310f19c571095e1f32c5658e2d7a83ed9075926192e68c0b5",
    "stops.csv": "eea95720c8509e2043e54d1620d21b2eaa4b044c0b1d53dfb2cc1c3539c49495",
    "taz.geojson": "01126ef3148baa066939d76a5ff25808e96d5e0162ec0a5f88b2ec42b6e4ebbb",
    "truth.csv": "e9f2475144c021338e036c059b738a0b5e43a3d905f94498a16db7bf7c724fbb",
    "week1.csv": "c6de5cdd3e4127f672a1929438bc6ac421601dc2e554e9a0debb5b2d444a5be0",
    "week2.csv": "947cc29fea466be7b32835706d785e8b940e828328fd0128bb6a7aaf0454fec8",
}


def sha256_of_files(directory, skip=()):
    return {
        f: hashlib.sha256((directory / f).read_bytes()).hexdigest()
        for f in os.listdir(directory)
        if f not in skip
    }


@pytest.fixture(scope="module")
def golden_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "bundle"
    code = main(["synth", "--out", str(out), "--agents", "500", "--seed", "11", "--noise-rate", "0.2"])
    assert code == 0
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_reports_match_golden_digests(golden_bundle, tmp_path, name):
    flags, expected = GOLDEN[name]
    out = tmp_path / "reports"
    assert main(["run", "--config", str(golden_bundle / "bundle.conf"), "--out", str(out), *flags]) == 0
    assert sha256_of_files(out) == expected


def test_bundle_files_match_golden_digests(golden_bundle):
    assert sha256_of_files(golden_bundle, skip={"generator.conf"}) == GOLDEN_BUNDLE
