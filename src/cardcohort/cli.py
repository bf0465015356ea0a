"""Command-line entry points.

Subcommands: ingest-check, infer, diff, classify, score, synth, run.
Progress goes to stderr; data only ever goes to files under --out.
Exit codes: 0 success, 2 missing or invalid input, 3 input file not in
the expected schema.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields
from datetime import date

from . import reports
from .chain import PERMISSIVE, STAY_MODES, build_legs, build_stays
from .geo import DEFAULT_CENTER
from .infer import HOME_RULE_RELAXED, HOME_RULES
from .ingest import (
    ObservationWeek,
    SchemaError,
    geocode,
    group_by_card,
    iter_lines,
    load_stops,
    parse_transactions,
)
from .pipeline import MissingInputError, RunConfig, process_year, run_pipeline
from .synth import GeneratorConfig, generate

log = logging.getLogger("cardcohort")

_RUN_KEYS = {f.name for f in fields(RunConfig)}


def _parse_center(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected lon,lat: {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_date(text: str) -> date:
    return date.fromisoformat(text)


def _load_run_config_file(path: str) -> dict:
    """Flat key=value run config; relative paths resolve next to the file."""
    base = os.path.dirname(os.path.abspath(path))
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in _RUN_KEYS:
                raise ValueError(f"unknown run config key: {key!r}")
            out[key] = value
    for key in ("year1", "year2", "followup", "stops1", "stops2", "r4", "taz"):
        if key in out and out[key]:
            if not os.path.isabs(out[key]):
                out[key] = os.path.join(base, out[key])
    return out


def _coerce_run_values(raw: dict) -> dict:
    coerced = dict(raw)
    if "center" in coerced and isinstance(coerced["center"], str):
        coerced["center"] = _parse_center(coerced["center"])
    for key in ("week1_start", "week2_start", "followup_start"):
        if key in coerced and isinstance(coerced[key], str):
            coerced[key] = _parse_date(coerced[key])
    for key, cast in (
        ("stay_min", int),
        ("threads", int),
        ("cluster_m", float),
        ("change_km", float),
    ):
        if key in coerced and isinstance(coerced[key], str):
            coerced[key] = cast(coerced[key])
    return coerced


def _build_run_config(args, need_year2: bool = True) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_load_run_config_file(args.config))
    for key in _RUN_KEYS:
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    values = _coerce_run_values(values)
    for req in ("year1", "stops1") + (("year2", "stops2") if need_year2 else ()):
        if req not in values:
            raise MissingInputError(f"required input not configured: --{req}")
    if need_year2:
        return RunConfig(**values)
    values.setdefault("year2", values["year1"])
    values.setdefault("stops2", values["stops1"])
    return RunConfig(**values)


def _add_common_inputs(p: argparse.ArgumentParser, followup: bool = True) -> None:
    p.add_argument("--year1", help="transactions CSV for the first observation week")
    p.add_argument("--year2", help="transactions CSV for the second observation week")
    if followup:
        p.add_argument("--followup", help="transactions CSV for the follow-up week")
    p.add_argument("--stops1", help="stop registry CSV for year 1")
    p.add_argument("--stops2", help="stop registry CSV for year 2")
    p.add_argument("--r4", help="GeoJSON polygon for the inner-city boundary")
    p.add_argument("--taz", help="GeoJSON zone layer for home aggregation")
    p.add_argument("--config", help="flat key=value run config (flags override)")
    p.add_argument("--week1-start", dest="week1_start", type=_parse_date, default=None)
    p.add_argument("--week2-start", dest="week2_start", type=_parse_date, default=None)
    if followup:
        p.add_argument("--followup-start", dest="followup_start", type=_parse_date, default=None)


def _add_tuning(p: argparse.ArgumentParser) -> None:
    p.add_argument("--center", type=_parse_center, default=None, metavar="LON,LAT",
                   help=f"city center (default {DEFAULT_CENTER[0]},{DEFAULT_CENTER[1]})")
    p.add_argument("--stay-mode", dest="stay_mode", choices=STAY_MODES, default=None)
    p.add_argument("--home-rule", dest="home_rule", choices=HOME_RULES, default=None)
    p.add_argument("--stay-min", dest="stay_min", type=int, default=None)
    p.add_argument("--cluster-m", dest="cluster_m", type=float, default=None)
    p.add_argument("--change-km", dest="change_km", type=float, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="processes for the year 1, year 2 and follow-up jobs (default 1)")


def cmd_ingest_check(args) -> int:
    for p in (args.transactions, args.stops):
        if not os.path.exists(p):
            raise MissingInputError(f"missing input file(s): {p}")
    stops, stop_rejections = load_stops(iter_lines(args.stops))
    week = ObservationWeek.starting(args.week_start) if args.week_start else None
    records, rejections = parse_transactions(iter_lines(args.transactions), week)
    week = records.week
    kept, unmatched = geocode(records, stops)
    os.makedirs(args.out, exist_ok=True)
    reports.write_rejections(os.path.join(args.out, "rejections.csv"), rejections)
    reports.write_rejections(os.path.join(args.out, "rejections_stops.csv"), stop_rejections)
    reports.write_unmatched(os.path.join(args.out, "unmatched.csv"), unmatched)
    with open(os.path.join(args.out, "stats.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("metric,value\n")
        fh.write(f"week_start,{week.start_date.isoformat()}\n")
        fh.write(f"stops,{len(stops)}\n")
        fh.write(f"parsed,{len(records)}\n")
        fh.write(f"rejected,{len(rejections)}\n")
        fh.write(f"geocoded,{len(kept)}\n")
        fh.write(f"cards,{len(group_by_card(kept))}\n")
    log.info("ingest-check: %d parsed, %d rejected, %d geocoded", len(records), len(rejections), len(kept))
    return 0


def cmd_infer(args) -> int:
    cfg = _build_run_config(args, need_year2=False)
    year = process_year(cfg.year1, cfg.stops1, cfg, cfg.week1_start)
    os.makedirs(args.out, exist_ok=True)
    reports.write_profiles(os.path.join(args.out, "profiles.csv"), year.profiles)
    reports.write_rejections(os.path.join(args.out, "rejections.csv"), year.rejections)
    reports.write_unmatched(os.path.join(args.out, "unmatched.csv"), year.unmatched)
    if args.dump_stays:
        by_card = group_by_card(
            geocode(
                parse_transactions(iter_lines(cfg.year1), year.week)[0],
                year.places.stop_to_place,
            )[0]
        )
        stays = {
            card: build_stays(card, build_legs(rides, year.places.stop_to_place), cfg.stay_mode)
            for card, rides in by_card.items()
        }
        reports.write_stays(os.path.join(args.out, "stays.csv"), stays, year.week)
    log.info("infer: %d cards profiled", len(year.profiles))
    return 0


def cmd_diff(args) -> int:
    cfg = _build_run_config(args)
    result = run_pipeline(cfg)
    os.makedirs(args.out, exist_ok=True)
    reports.write_profiles(os.path.join(args.out, "profiles_year1.csv"), result.year1.profiles)
    reports.write_profiles(os.path.join(args.out, "profiles_year2.csv"), result.year2.profiles)
    reports.write_deltas(os.path.join(args.out, "deltas.csv"), result.deltas)
    log.info("diff: %d frequent riders", len(result.fr_cards))
    return 0


def cmd_classify(args) -> int:
    cfg = _build_run_config(args)
    result = run_pipeline(cfg)
    os.makedirs(args.out, exist_ok=True)
    reports.write_deltas(os.path.join(args.out, "deltas.csv"), result.deltas)
    reports.write_groups(os.path.join(args.out, "groups.csv"), result.assignments)
    log.info("classify: %d riders in 20 groups", len(result.assignments))
    return 0


def cmd_score(args) -> int:
    cfg = _build_run_config(args)
    if not cfg.followup:
        raise MissingInputError("required input not configured: --followup")
    result = run_pipeline(cfg)
    os.makedirs(args.out, exist_ok=True)
    reports.write_deprivation(os.path.join(args.out, "deprivation.csv"), result.dep_summary)
    reports.write_scores(os.path.join(args.out, "scores.csv"), result.scores, result.assignments)
    log.info(
        "score: %d of %d FRs scored",
        result.dep_summary.scored_count if result.dep_summary else 0,
        len(result.fr_cards),
    )
    return 0


def cmd_run(args) -> int:
    cfg = _build_run_config(args)
    result = run_pipeline(cfg)
    written = reports.write_run_reports(result, args.out)
    log.info("run: wrote %d report files to %s", len(written), args.out)
    return 0


def cmd_synth(args) -> int:
    if args.config:
        cfg = GeneratorConfig.from_file(args.config)
    else:
        cfg = GeneratorConfig()
    if args.agents is not None:
        base, rem = divmod(args.agents, 5)
        counts = [base + (1 if i < rem else 0) for i in range(5)]
        cfg.commuters, cfg.movers, cfg.job_changers, cfg.jobless, cfg.churners = counts
    for attr in (
        "seed", "commuters", "movers", "job_changers", "jobless", "churners",
        "grid_rows", "grid_cols", "site_stops", "stop_spacing_m", "site_pitch_m",
        "fixed_fare_fraction", "noise_rate", "followup_retention",
    ):
        v = getattr(args, attr, None)
        if v is not None:
            setattr(cfg, attr, v)
    bundle = generate(cfg, args.out)
    log.info(
        "synth: %d agents, %d stops, bundle in %s",
        cfg.total_agents, cfg.grid_rows * cfg.grid_cols * cfg.site_stops ** 2, bundle.out_dir,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardcohort",
        description="Infer home/work places from transit smartcard logs and "
        "profile two-year housing, job, and commute dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check", help="validate a transactions file against a stop registry")
    p.add_argument("--transactions", required=True)
    p.add_argument("--stops", required=True)
    p.add_argument("--week-start", dest="week_start", type=_parse_date, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("infer", help="profile one observation week")
    p.add_argument("--year1", help="transactions CSV")
    p.add_argument("--stops1", help="stop registry CSV")
    p.add_argument("--config", help="flat key=value run config")
    p.add_argument("--week1-start", dest="week1_start", type=_parse_date, default=None)
    p.add_argument("--dump-stays", dest="dump_stays", action="store_true")
    _add_tuning(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("diff", help="two-year profiles and per-rider deltas")
    _add_common_inputs(p, followup=False)
    _add_tuning(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("classify", help="assign frequent riders to the 20 groups")
    _add_common_inputs(p, followup=False)
    _add_tuning(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("score", help="deprivation scores against a follow-up week")
    _add_common_inputs(p)
    _add_tuning(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("synth", help="generate a synthetic bundle with ground truth")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="generator config file (key=value)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--agents", type=int, default=None, help="total agents, split across archetypes")
    p.add_argument("--commuters", type=int, default=None)
    p.add_argument("--movers", type=int, default=None)
    p.add_argument("--job-changers", dest="job_changers", type=int, default=None)
    p.add_argument("--jobless", type=int, default=None)
    p.add_argument("--churners", type=int, default=None)
    p.add_argument("--grid-rows", dest="grid_rows", type=int, default=None)
    p.add_argument("--grid-cols", dest="grid_cols", type=int, default=None)
    p.add_argument("--site-stops", dest="site_stops", type=int, default=None)
    p.add_argument("--stop-spacing-m", dest="stop_spacing_m", type=float, default=None)
    p.add_argument("--site-pitch-m", dest="site_pitch_m", type=float, default=None)
    p.add_argument("--fixed-fare-fraction", dest="fixed_fare_fraction", type=float, default=None)
    p.add_argument("--noise-rate", dest="noise_rate", type=float, default=None)
    p.add_argument("--retention", dest="followup_retention", type=float, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="full pipeline with all reports")
    _add_common_inputs(p)
    _add_tuning(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        return args.func(args)
    except MissingInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
