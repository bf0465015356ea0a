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
from dataclasses import fields, replace

from . import reports
from .geo import DEFAULT_CENTER
from .infer import HOME_RULES, STAY_MODES
from .ingest import (
    ObservationWeek,
    SchemaError,
    derive_week_start,
    iter_lines,
    load_stops,
    parse_coord,
    parse_date,
    read_config,
    read_transactions,
)
from .pipeline import PATH_FIELDS, MissingInputError, RunConfig, process_year, require_files, run_pipeline
from .synth import GeneratorConfig, generate

log = logging.getLogger("cardcohort")

_TWO_YEAR_INPUTS = ("year1", "stops1", "year2", "stops2")

# The two-year subcommands: name, help, the run bundle files they write
# (None for all of them, see reports.write_run_reports) and the inputs
# they require.
_TWO_YEAR_COMMANDS = (
    ("diff", "two-year profiles and per-rider deltas",
     ("profiles_year1.csv", "profiles_year2.csv", "deltas.csv"), _TWO_YEAR_INPUTS),
    ("classify", "assign frequent riders to the 20 groups",
     ("deltas.csv", "groups.csv"), _TWO_YEAR_INPUTS),
    ("score", "deprivation scores against a follow-up week",
     ("deprivation.csv", "scores.csv"), _TWO_YEAR_INPUTS + ("followup",)),
    ("run", "full pipeline with all reports", None, _TWO_YEAR_INPUTS),
)


def _flags(args, cls) -> dict:
    """The options given on the command line that set fields of the dataclass ``cls``."""
    return {f.name: v for f in fields(cls) if (v := getattr(args, f.name, None)) is not None}


def _build_run_config(args) -> RunConfig:
    """The validated run config; ``args.required`` names the inputs it must have."""
    values = {}
    if args.config:
        values = read_config(args.config, RunConfig)
        # Relative paths resolve next to the config file.
        base = os.path.dirname(os.path.abspath(args.config))
        values.update((k, os.path.join(base, values[k])) for k in PATH_FIELDS if values.get(k))
    values.update(_flags(args, RunConfig))
    for req in args.required:
        if req not in values:
            raise MissingInputError(f"required input not configured: --{req}")
    # infer reads one year; the year-2 fields then name the same files.
    values.setdefault("year2", values["year1"])
    values.setdefault("stops2", values["stops1"])
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


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
    p.add_argument("--week1-start", dest="week1_start", type=parse_date, default=None)
    p.add_argument("--week2-start", dest="week2_start", type=parse_date, default=None)
    if followup:
        p.add_argument("--followup-start", dest="followup_start", type=parse_date, default=None)


def _add_tuning(p: argparse.ArgumentParser) -> None:
    p.add_argument("--center", type=parse_coord, default=None, metavar="LON,LAT",
                   help=f"city center (default {DEFAULT_CENTER[0]},{DEFAULT_CENTER[1]})")
    p.add_argument("--stay-mode", dest="stay_mode", choices=STAY_MODES, default=None)
    p.add_argument("--home-rule", dest="home_rule", choices=HOME_RULES, default=None)
    p.add_argument("--stay-min", dest="stay_min", type=int, default=None)
    p.add_argument("--cluster-m", dest="cluster_m", type=float, default=None)
    p.add_argument("--change-km", dest="change_km", type=float, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="processes for the year 1, year 2 and follow-up jobs (default 1)")


def cmd_ingest_check(args) -> int:
    require_files([args.transactions, args.stops])
    if args.week_start is not None:
        # A start too late for seven days is refused before any input is read.
        ObservationWeek(args.week_start)
    stops, stop_rejections = load_stops(iter_lines(args.stops))
    week_start = args.week_start or derive_week_start(iter_lines(args.transactions))
    tx = read_transactions(iter_lines(args.transactions), week_start, stops)
    reports.write_rejections(os.path.join(args.out, "rejections.csv"), tx.rejections)
    reports.write_rejections(os.path.join(args.out, "rejections_stops.csv"), stop_rejections)
    reports.write_unmatched(os.path.join(args.out, "unmatched.csv"), tx.unmatched)
    reports.write_metrics(os.path.join(args.out, "stats.csv"), (
        ("week_start", tx.week.start_date.isoformat()),
        ("stops", len(stops)),
        ("parsed", tx.parsed),
        ("rejected", len(tx.rejections)),
        ("geocoded", tx.geocoded),
        ("cards", len(tx.rides)),
    ))
    log.info("ingest-check: %d parsed, %d rejected, %d geocoded", tx.parsed, len(tx.rejections), tx.geocoded)
    return 0


def cmd_infer(args) -> int:
    cfg = _build_run_config(args)
    stays = {} if args.dump_stays else None
    year = process_year(cfg.year1, cfg.stops1, cfg, cfg.week1_start, stays)
    reports.write_profiles(os.path.join(args.out, "profiles.csv"), year.profiles, year.week)
    reports.write_rejections(os.path.join(args.out, "rejections.csv"), year.rejections)
    reports.write_unmatched(os.path.join(args.out, "unmatched.csv"), year.unmatched)
    if stays is not None:
        reports.write_stays(os.path.join(args.out, "stays.csv"), stays, year.week)
    log.info("infer: %d cards profiled", len(year.profiles))
    return 0


def cmd_run(args) -> int:
    """run, diff, classify and score: the pipeline their report files need, then the files."""
    cfg = _build_run_config(args)
    if args.reports is not None:
        # Skip the optional inputs that no file of the subset reads.
        unread = [k for k, files in reports.OPTIONAL_INPUT_FILES.items() if files.isdisjoint(args.reports)]
        cfg = replace(cfg, **dict.fromkeys(unread))
    result = run_pipeline(cfg)
    written = reports.write_run_reports(result, args.out, args.reports)
    log.info("%s: wrote %d report files to %s", args.command, len(written), args.out)
    return 0


def cmd_synth(args) -> int:
    cfg = GeneratorConfig.from_file(args.config) if args.config else GeneratorConfig()
    if args.agents is not None:
        base, rem = divmod(args.agents, 5)
        counts = [base + (1 if i < rem else 0) for i in range(5)]
        cfg.commuters, cfg.movers, cfg.job_changers, cfg.jobless, cfg.churners = counts
    cfg = replace(cfg, **_flags(args, GeneratorConfig))
    bundle = generate(cfg, args.out)
    log.info(
        "synth: %d agents, %d stops, bundle in %s",
        cfg.total_agents, cfg.grid_rows * cfg.grid_cols * cfg.site_stops ** 2, bundle.out_dir,
    )
    return 0


def _require_out_dir(path: str) -> None:
    """Refuse an --out that is empty, or is or lies under something other than a directory.

    A dangling symlink counts as something other than a directory.
    """
    if not path:
        raise ValueError("--out '': an empty path names no directory")
    head = path
    while not os.path.lexists(head):
        head = os.path.dirname(head) or "."
    if not os.path.isdir(head):
        raise ValueError(f"--out {path}: {head} is not a directory")


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
    p.add_argument("--week-start", dest="week_start", type=parse_date, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("infer", help="profile one observation week")
    p.add_argument("--year1", help="transactions CSV")
    p.add_argument("--stops1", help="stop registry CSV")
    p.add_argument("--config", help="flat key=value run config")
    p.add_argument("--week1-start", dest="week1_start", type=parse_date, default=None)
    p.add_argument("--dump-stays", dest="dump_stays", action="store_true")
    _add_tuning(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer, required=("year1", "stops1"))

    for name, help_text, names, required in _TWO_YEAR_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        # Only run and score write reports that read a follow-up week.
        _add_common_inputs(p, followup=names is None or "followup" in required)
        _add_tuning(p)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_run, reports=names, required=required)

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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        _require_out_dir(args.out)
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
