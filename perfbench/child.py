"""In-process runs of cardcohort, each in a fresh process started by run.py.

    PYTHONPATH=src python3 perfbench/child.py setup     CONF RESULT
    PYTHONPATH=src python3 perfbench/child.py reference CONF RESULT OUT TRUTH
    PYTHONPATH=src python3 perfbench/child.py traced    CONF RESULT OUT SPANS

``setup`` times the work that does not depend on transactions: importing
cardcohort, loading and clustering both stop registries, and loading the
R4 and TAZ layers.  ``reference`` calls ``run_pipeline`` and
``write_run_reports`` untraced and scores the result against the
planted truth.  ``traced`` makes the same two calls with every layer's
public functions wrapped by :class:`tracer.Tracer`.  Each writes a JSON
object to RESULT.
"""

from __future__ import annotations

import json
import os
import sys
import time
from datetime import date

from tracer import PER_CALL, Target, Tracer


def run_config(conf_path: str):
    """The RunConfig for a benchmark run config (absolute paths, key=value)."""
    from cardcohort.pipeline import RunConfig

    raw = {}
    with open(conf_path, encoding="utf-8") as fh:
        for line in fh:
            if "=" in line:
                key, value = line.strip().split("=", 1)
                raw[key] = value
    values: dict = dict(raw)
    if "center" in raw:
        lon, lat = raw["center"].split(",")
        values["center"] = (float(lon), float(lat))
    if "threads" in raw:
        values["threads"] = int(raw["threads"])
    for key in ("week1_start", "week2_start", "followup_start"):
        if key in raw:
            values[key] = date.fromisoformat(raw[key])
    return RunConfig(**values)


def setup(conf_path: str) -> dict:
    start = time.perf_counter()
    from cardcohort import geo, ingest

    cfg = run_config(conf_path)
    for path in (cfg.stops1, cfg.stops2):
        stops, _rejected = ingest.load_stops(ingest.iter_lines(path))
        geo.build_places(stops, cfg.cluster_m)
    geo.load_region(cfg.r4, "R4")
    geo.load_region_features(cfg.taz)
    return {"setup_s": time.perf_counter() - start}


def reference(conf_path: str, out_dir: str, truth_path: str) -> dict:
    from cardcohort import pipeline, reports, synth

    cfg = run_config(conf_path)
    t0 = time.perf_counter()
    result = pipeline.run_pipeline(cfg)
    t1 = time.perf_counter()
    reports.write_run_reports(result, out_dir)
    t2 = time.perf_counter()
    rec = synth.evaluate_recovery(synth.load_truth(truth_path), result)
    return {
        "run_pipeline_s": t1 - t0,
        "write_s": t2 - t1,
        "home_recall": rec.home_recall,
        "work_recall": rec.work_recall,
        "group_accuracy": rec.group_accuracy,
    }


def _add(key: str, of=len):
    def count(ret, c):
        c[key] += of(ret)

    return count


def _parse_counts(ret, c):
    records, rejections = ret
    c["parsed"] += len(records)
    c["rejected"] += len(rejections)


def _stay_counts(ret, c):
    c["stays"] += len(ret)
    c["approx"] += sum(1 for s in ret if s.approximate)


def _profile_counts(ret, c):
    c["profiles"] += 1
    c["homes"] += ret.home is not None
    c["works"] += ret.work is not None


PIPELINE, INGEST, GEO, CHAIN = (f"cardcohort.{m}" for m in ("pipeline", "ingest", "geo", "chain"))
TARGETS = (
    Target(PIPELINE, "run_pipeline", "pipeline.run_pipeline"),
    Target(PIPELINE, "process_year", "pipeline.process_year"),
    Target(PIPELINE, "_count_followup", "pipeline.count_followup"),
    Target(INGEST, "load_stops", "ingest.load_stops", count=_add("stops", lambda r: len(r[0]))),
    Target(INGEST, "derive_week_start", "ingest.derive_week_start"),
    Target(INGEST, "parse_transactions", "ingest.parse", count=_parse_counts,
           under=("pipeline.count_followup", "ingest.parse_followup")),
    Target(INGEST, "geocode", "ingest.geocode", count=_add("unmatched", lambda r: sum(r[1].values()))),
    Target(INGEST, "group_by_card", "ingest.group_by_card", count=_add("cards")),
    Target(GEO, "build_places", "geo.build_places", count=_add("places")),
    Target(GEO, "load_region", "geo.load_region"),
    Target(GEO, "load_region_features", "geo.load_region_features"),
    Target(CHAIN, "build_legs", "chain.build_legs", PER_CALL, _add("legs")),
    Target(CHAIN, "build_stays", "chain.build_stays", PER_CALL, _stay_counts),
    Target("cardcohort.infer", "build_profile", "infer.build_profile", PER_CALL, _profile_counts),
    Target("cardcohort.cohort", "match_cohort", "cohort.match", count=_add("fr_cards")),
    Target("cardcohort.cohort", "build_delta", "cohort.build_delta", PER_CALL),
    Target("cardcohort.groups", "classify", "groups.classify", PER_CALL),
    Target("cardcohort.groups", "score_deprivation", "groups.score",
           count=_add("scored", lambda r: r[1].scored_count)),
    Target(PIPELINE, "aggregate_taz", "pipeline.aggregate_taz"),
    Target("cardcohort.reports", "write_run_reports", "reports.write", count=_add("files")),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, out_dir: str) -> dict[str, float]:
    """Per-layer metrics from one traced run; names match BENCHMARK.json."""
    t = tracer.times()
    c = tracer.counts()
    lines = c["parsed"] + c["rejected"]
    return {
        "ingest.load_stops_s": t.get("ingest.load_stops", 0.0),
        "ingest.derive_week_start_s": t.get("ingest.derive_week_start", 0.0),
        "ingest.parse_s": t.get("ingest.parse", 0.0),
        "ingest.parse_followup_s": t.get("ingest.parse_followup", 0.0),
        "ingest.geocode_s": t.get("ingest.geocode", 0.0),
        "ingest.group_by_card_s": t.get("ingest.group_by_card", 0.0),
        "ingest.lines": lines,
        "ingest.parsed": c["parsed"],
        "ingest.rejected": c["rejected"],
        "ingest.accept_ratio": _ratio(c["parsed"], lines),
        "ingest.unmatched": c["unmatched"],
        "ingest.cards": c["cards"],
        "geo.build_places_s": t.get("geo.build_places", 0.0),
        "geo.stops": c["stops"],
        "geo.places": c["places"],
        "geo.load_regions_s": t.get("geo.load_region", 0.0) + t.get("geo.load_region_features", 0.0),
        "chain.build_legs_s": t.get("chain.build_legs", 0.0),
        "chain.build_stays_s": t.get("chain.build_stays", 0.0),
        "chain.legs": c["legs"],
        "chain.stays": c["stays"],
        "chain.approx_ratio": _ratio(c["approx"], c["stays"]),
        "infer.build_profile_s": t.get("infer.build_profile", 0.0),
        "infer.profiles": c["profiles"],
        "infer.home_ratio": _ratio(c["homes"], c["profiles"]),
        "infer.work_ratio": _ratio(c["works"], c["profiles"]),
        "cohort.match_s": t.get("cohort.match", 0.0),
        "cohort.build_delta_s": t.get("cohort.build_delta", 0.0),
        "cohort.fr_cards": c["fr_cards"],
        "groups.classify_s": t.get("groups.classify", 0.0),
        "groups.score_s": t.get("groups.score", 0.0),
        "groups.scored": c["scored"],
        "pipeline.aggregate_taz_s": t.get("pipeline.aggregate_taz", 0.0),
        "pipeline.run_pipeline_s": t.get("pipeline.run_pipeline", 0.0),
        "reports.write_s": t.get("reports.write", 0.0),
        "reports.files": c["files"],
        "reports.bytes": sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file()),
    }


def traced(conf_path: str, out_dir: str, spans_path: str) -> dict:
    from cardcohort import pipeline, reports

    cfg = run_config(conf_path)
    tracer = Tracer()
    tracer.install(TARGETS)
    t0 = time.perf_counter()
    result = pipeline.run_pipeline(cfg)
    reports.write_run_reports(result, out_dir)
    total = time.perf_counter() - t0
    tracer.dump(spans_path)
    called = tracer.called()
    return {
        "total_s": total,
        "metrics": layer_metrics(tracer, out_dir),
        "not_observed": [t.name for t in TARGETS if t.name not in called],
        "missing": tracer.missing,
        "count_errors": tracer.count_errors,
    }


if __name__ == "__main__":
    mode, conf, result_path, *rest = sys.argv[1:]
    if mode == "setup":
        res = setup(conf)
    elif mode == "reference":
        res = reference(conf, *rest)
    elif mode == "traced":
        res = traced(conf, *rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
