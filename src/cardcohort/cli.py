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
from .ingest import ObservationWeek, SchemaError, derive_week_start, field_parser, iter_lines, load_stops, parse_date
from .ingest import read_config, read_transactions, stop_codes
from .pipeline import PATH_FIELDS, STOPS, TRANSACTIONS, MissingInputError, RunConfig, process_year, require_files
from .pipeline import run_pipeline
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


# What a field's flag has beyond its name, dest and parser: add_argument
# keywords, and "flag" where the flag is not the field name with - for _.
_FLAG_EXTRAS = {
    "year1": {"help": "transactions CSV for the first observation week"},
    "year2": {"help": "transactions CSV for the second observation week"},
    "followup": {"help": "transactions CSV for the follow-up week"},
    "stops1": {"help": "stop registry CSV for year 1"},
    "stops2": {"help": "stop registry CSV for year 2"},
    "r4": {"help": "GeoJSON polygon for the inner-city boundary"},
    "taz": {"help": "GeoJSON zone layer for home aggregation"},
    "center": {
        "metavar": "LON,LAT",
        "help": f"city center (default {DEFAULT_CENTER[0]},{DEFAULT_CENTER[1]}); "
        "give a value that starts with - as --center=-73.9,40.7",
    },
    "stay_mode": {"choices": STAY_MODES},
    "home_rule": {"choices": HOME_RULES},
    "threads": {"help": "processes for the per-file jobs: year 1, year 2, follow-up (default 1)"},
    "followup_retention": {"flag": "--retention"},
}


def _add_fields(p: argparse.ArgumentParser, cls, skip=()) -> None:
    """A flag for each field of the dataclass ``cls`` not in ``skip``; its text parses as its config value."""
    for f in fields(cls):
        if f.name not in skip:
            extras = dict(_FLAG_EXTRAS.get(f.name, {}))
            flag = extras.pop("flag", "--" + f.name.replace("_", "-"))
            p.add_argument(flag, dest=f.name, type=field_parser(f), **extras)


def cmd_ingest_check(args) -> int:
    if args.week_start is not None:
        # A start too late for seven days is refused before any input is read.
        ObservationWeek(args.week_start)
    require_files([(args.transactions, TRANSACTIONS), (args.stops_path, STOPS)])
    _make_out_dir(args.out)
    stops, stop_rejections = load_stops(iter_lines(args.stops_path))
    week_start = args.week_start or derive_week_start(iter_lines(args.transactions))
    tx = read_transactions(iter_lines(args.transactions), week_start, stop_codes(stops))
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
    _make_out_dir(args.out)
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
    _make_out_dir(args.out)
    if args.reports is not None:
        # Skip the optional inputs that no file of the subset reads.
        unread = [k for k, files in reports.OPTIONAL_INPUT_FILES.items() if files.isdisjoint(args.reports)]
        cfg = replace(cfg, **dict.fromkeys(unread))
    result = run_pipeline(cfg)
    try:
        written = reports.write_run_reports(result, args.out, args.reports)
    finally:
        # No worker outlives the command, even when no file read its job.
        result.close()
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


def _make_out_dir(path: str) -> None:
    """Create --out once the inputs have passed their checks, before any is read in full."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create --out {path}: {exc.strerror}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardcohort",
        description="Infer home/work places from transit smartcard logs and "
        "profile two-year housing, job, and commute dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, help_text: str, **defaults) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", required=True, help="directory for the files written")
        p.set_defaults(**defaults)
        return p

    p = subcommand("ingest-check", "validate a transactions file against a stop registry", func=cmd_ingest_check)
    p.add_argument("--transactions", required=True)
    p.add_argument("--stops", dest="stops_path", required=True)
    p.add_argument("--week-start", type=parse_date)

    p = subcommand("infer", "profile one observation week", func=cmd_infer, required=("year1", "stops1"))
    p.add_argument("--config", help="flat key=value run config (flags override)")
    _add_fields(p, RunConfig, skip=("year2", "stops2", "followup", "r4", "taz", "week2_start", "followup_start"))
    p.add_argument("--dump-stays", action="store_true", help="also write the stays behind the profiles")

    for name, help_text, names, required in _TWO_YEAR_COMMANDS:
        p = subcommand(name, help_text, func=cmd_run, reports=names, required=required)
        p.add_argument("--config", help="flat key=value run config (flags override)")
        # Only run and score write reports that read a follow-up week.
        reads_followup = names is None or "followup" in required
        _add_fields(p, RunConfig, skip=() if reads_followup else ("followup", "followup_start"))

    p = subcommand("synth", "generate a synthetic bundle with ground truth", func=cmd_synth)
    p.add_argument("--config", help="generator config file (key=value; flags override)")
    p.add_argument("--agents", type=int, help="total agents, split across archetypes")
    # The week starts are config keys only.
    _add_fields(p, GeneratorConfig, skip=("week1_start", "week2_start", "followup_start"))

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
