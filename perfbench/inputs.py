"""Build one workload's input bundle; runs in its own process, untimed.

    PYTHONPATH=src python3 perfbench/inputs.py WORKLOAD SEED SCALE OUT_DIR

Calls ``cardcohort.synth.generate`` with the workload's generator config
and the seed, inserts the workload's dirty lines into every transactions
file, and writes ``manifest.json`` last: sha256 and data-line count of
every input file and the injected count per file and reason.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from collections import Counter
from datetime import datetime, timedelta

from cardcohort.synth import GeneratorConfig, generate

from workloads import (
    BAD_BOARD_TIME,
    BAD_CARD_TYPE,
    BAD_COLUMNS,
    NEGATIVE_LEG,
    OUTSIDE_WEEK,
    TRANSACTION_FILES,
    UNKNOWN_STOP,
    WORKLOADS,
    dirt_reasons,
)

INPUT_FILES = ("stops.csv", "r4.geojson", "taz.geojson", "truth.csv") + TRANSACTION_FILES


def _minute(t: datetime) -> str:
    return t.strftime("%Y-%m-%dT%H:%M")


def dirty_line(reason: str, template: str, k: int) -> str:
    """A line that fails with ``reason``, built from a clean data line.

    Board times stay inside the observation week, except the out-of-week
    line, which is dated after it; so the earliest boarding date, and with
    it a derived week start, does not change.
    """
    card, ctype, _fare, route, stop, board = template.split(",")[:6]
    t = datetime.fromisoformat(board)
    if reason == BAD_COLUMNS:
        return f"{card},{ctype},FIX,{route},{stop},{board},,,"
    if reason == BAD_BOARD_TIME:
        return f"{card},{ctype},FIX,{route},{stop},{board.replace('T', ' ')},,"
    if reason == BAD_CARD_TYPE:
        return f"{card},X,FIX,{route},{stop},{board},,"
    if reason == NEGATIVE_LEG:
        return f"{card},{ctype},DST,{route},{stop},{board},{stop},{_minute(t - timedelta(minutes=5))}"
    if reason == OUTSIDE_WEEK:
        return f"{card},{ctype},FIX,{route},{stop},{_minute(t + timedelta(days=8))},,"
    if reason == UNKNOWN_STOP:
        return f"{card},{ctype},FIX,{route},NOSTOP{k % 97:02d},{board},,"
    raise ValueError(f"no dirty line for reason {reason!r}")


def inject(path: str, reasons: tuple[str, ...], share: float, rng: random.Random) -> Counter:
    """Insert dirty lines at random positions spread through ``path``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header, *rows = fh.read().splitlines()
    injected: Counter = Counter()
    if not reasons or not rows:
        return injected
    per_reason = max(1, round(share * len(rows) / len(reasons)))
    dirty = []
    for reason in reasons:
        for k in range(per_reason):
            dirty.append(dirty_line(reason, rows[rng.randrange(len(rows))], k))
        injected[reason] = per_reason
    rng.shuffle(dirty)
    slots = sorted(rng.randrange(len(rows) + 1) for _ in dirty)
    out = [header]
    prev = 0
    for slot, line in zip(slots, dirty):
        out.extend(rows[prev:slot])
        out.append(line)
        prev = slot
    out.extend(rows[prev:])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
    return injected


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def data_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return max(0, sum(1 for line in fh if line.strip()) - 1)


def build(workload: str, seed: int, scale: str, out_dir: str) -> dict:
    w = WORKLOADS[workload]
    overrides = dict(w.generator, **(w.tiny_generator if scale == "tiny" else {}))
    cfg = GeneratorConfig(seed=seed, **overrides)
    generate(cfg, out_dir)
    injected = {}
    for fname in TRANSACTION_FILES:
        rng = random.Random(f"{workload}:{seed}:{fname}")
        reasons = dirt_reasons(fname, w.dirt_share)
        counts = inject(os.path.join(out_dir, fname), reasons, w.dirt_share, rng)
        injected[fname] = dict(sorted(counts.items()))
    with open(os.path.join(out_dir, "bundle.conf"), encoding="utf-8") as fh:
        bundle = dict(line.strip().split("=", 1) for line in fh if "=" in line)
    manifest = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "bundle": bundle,
        "sha256": {f: sha256_file(os.path.join(out_dir, f)) for f in INPUT_FILES},
        "data_lines": {f: data_lines(os.path.join(out_dir, f)) for f in TRANSACTION_FILES},
        "injected": injected,
    }
    tmp = os.path.join(out_dir, "manifest.json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(out_dir, "manifest.json"))
    return manifest


if __name__ == "__main__":
    name, seed_text, scale_name, out = sys.argv[1:5]
    build(name, int(seed_text), scale_name, out)
