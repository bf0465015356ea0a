"""The 20-group resident taxonomy and the follow-up deprivation summary.

Groups cross three axes: housing changed or not (major), job transition
category (middle), and whether the later home sits within the fourth
ring road (minor).  The numbering is fixed; downstream reports rely on
group k always meaning the same triple.

The deprivation score for an FR is its transaction count in a follow-up
observation week years later; an FR is scored when that count is above
zero.  The summary statistics cover scored cards only, from exact
integer sums made in one pass over the FRs, whatever their order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping

from .cohort import CHANGED, FOUND, JOBLESS, LOST, NOT_CHANGED

JOB_RANK = {CHANGED: 0, FOUND: 1, JOBLESS: 2, LOST: 3, NOT_CHANGED: 4}

JOB_LABELS = {
    CHANGED: "Yes",
    FOUND: "Find a job",
    JOBLESS: "Jobless",
    LOST: "Lose the job",
    NOT_CHANGED: "No",
}

LOCATION_WITHIN = "Within R4"
LOCATION_OUT = "Out of R4"

GROUP_COUNT = 20


def group_index(housing_changed: bool, job_category: str, within_r4: bool) -> int:
    """Group number 1..20 for a (housing, job, location) triple."""
    return (0 if housing_changed else 10) + 2 * JOB_RANK[job_category] + (2 if within_r4 else 1)


def group_triple(group: int) -> tuple[str, str, str]:
    """Reverse mapping: the three label columns for a group number."""
    if not 1 <= group <= GROUP_COUNT:
        raise ValueError(f"group out of range: {group}")
    housing = "Yes" if group <= 10 else "No"
    rank = ((group - 1) % 10) // 2
    job = JOB_LABELS[next(c for c, r in JOB_RANK.items() if r == rank)]
    location = LOCATION_WITHIN if group % 2 == 0 else LOCATION_OUT
    return housing, job, location


def group_counts(groups: Iterable[int]) -> dict[int, int]:
    counts = {g: 0 for g in range(1, GROUP_COUNT + 1)}
    for g in groups:
        counts[g] += 1
    return counts


@dataclass(frozen=True, slots=True)
class DeprivationSummary:
    fr_count: int
    scored_count: int
    scored_fraction: float | None
    mean_trips: float | None
    std_trips: float | None


def score_deprivation(frs: Collection[str], followup_counts: Mapping[str, int]) -> DeprivationSummary:
    """The summary of the FRs' follow-up trip counts over scored cards.

    ``frs`` holds distinct card ids, as the FR list ``Deltas.cards``
    does; one pass sums the scored counts and their squares.  The standard
    deviation is the population form: counts are integers, so both sums
    are exact and the result is identical however the cards are ordered.
    """
    fr_count = len(frs)
    n_scored = total = squares = 0
    for card in frs:
        if (n := followup_counts.get(card, 0)) > 0:
            n_scored, total, squares = n_scored + 1, total + n, squares + n * n
    if fr_count == 0:
        return DeprivationSummary(0, 0, None, None, None)
    fraction = n_scored / fr_count
    if n_scored == 0:
        return DeprivationSummary(fr_count, 0, fraction, None, None)
    mean = total / n_scored
    variance = (squares - total * total / n_scored) / n_scored
    std = math.sqrt(max(variance, 0.0))
    return DeprivationSummary(fr_count, n_scored, fraction, mean, std)
