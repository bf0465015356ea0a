"""The benchmark's two workloads and the dirt injected into one of them.

Each workload fixes a synthetic-population shape (``synth.GeneratorConfig``
overrides; the benchmark seed becomes the generator seed), the run config
handed to ``cardcohort run``, and the correctness floors its outputs must
meet.  NOTES.md records why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

# Rejection reasons exactly as ``ingest.parse_transactions`` names them.
BAD_COLUMNS = "bad column count"
BAD_BOARD_TIME = "bad board_time"
BAD_CARD_TYPE = "unknown card type"
NEGATIVE_LEG = "negative leg duration"
OUTSIDE_WEEK = "outside observation week"
REJECT_REASONS = (BAD_COLUMNS, BAD_BOARD_TIME, BAD_CARD_TYPE, NEGATIVE_LEG, OUTSIDE_WEEK)
# Not a parse rejection: the row parses and ``ingest.geocode`` drops it.
UNKNOWN_STOP = "unknown stop"

TRANSACTION_FILES = ("week1.csv", "week2.csv", "followup.csv")


def dirt_reasons(fname: str, share: float) -> tuple[str, ...]:
    """The reasons injected into one transactions file at ``share``.

    ``share`` is the number of injected lines per clean data line, split
    evenly over the reasons (at least one line each).  The follow-up week
    is parsed but never geocoded, so an unknown-stop row there would count
    as a trip; it gets the parse rejections only.
    """
    if share <= 0:
        return ()
    return REJECT_REASONS if fname == "followup.csv" else REJECT_REASONS + (UNKNOWN_STOP,)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: dict
    tiny_generator: dict
    dirt_share: float = 0.0  # dirty lines per clean data line
    give_week_starts: bool = True
    threads: int = 1
    # Recovery floors checked on the reference run: (home, work).
    recall_floor: tuple[float, float] = (1.0, 1.0)


def _archetypes(each: int) -> dict:
    return {k: each for k in ("commuters", "movers", "job_changers", "jobless", "churners")}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bulk-1m",
            why="row- and card-heavy clean input: parse, chain and infer dominate; "
            "no week derivation, no rejections, single thread",
            generator=dict(
                commuters=50_000, movers=0, job_changers=0, jobless=0, churners=0,
                grid_rows=20, grid_cols=20, noise_rate=0.0, followup_retention=0.0,
            ),
            tiny_generator=dict(commuters=400),
            threads=1,
            recall_floor=(1.0, 1.0),
        ),
        Workload(
            name="mixed-dirty",
            why="all archetypes on a 28k-stop city with noise and 2% dirty lines: "
            "week derivation, rejections, clustering, follow-up, two workers",
            generator=dict(
                **_archetypes(4_000),
                grid_rows=24, grid_cols=24, site_stops=7, site_pitch_m=3000.0,
                noise_rate=0.2, followup_retention=0.25,
            ),
            tiny_generator=_archetypes(60),
            dirt_share=0.02,
            give_week_starts=False,
            threads=2,
            recall_floor=(0.90, 0.85),
        ),
    )
}
