"""The 20-group taxonomy and deprivation scoring."""

from __future__ import annotations

import pytest

from cardcohort.cohort import CHANGED, FOUND, JOBLESS, LOST, NOT_CHANGED
from cardcohort.groups import (
    GROUP_COUNT,
    group_counts,
    group_index,
    group_triple,
    score_deprivation,
)
from cardcohort.reports import write_groups, write_scores

from conftest import PER_CARD_COPY_BYTES, peak_traced_bytes

# The canonical ordering of the twenty (housing, job, location) triples.
# Housing-changed residents come first; within each half the job axis
# runs changed, found, jobless, lost, unchanged; the out-of-R4 variant
# precedes the within-R4 one.
CANONICAL_TRIPLES = [
    (housing, job, within)
    for housing in (True, False)
    for job in (CHANGED, FOUND, JOBLESS, LOST, NOT_CHANGED)
    for within in (False, True)
]

CANONICAL_LABELS = [
    ("Yes" if housing else "No",
     {CHANGED: "Yes", FOUND: "Find a job", JOBLESS: "Jobless", LOST: "Lose the job", NOT_CHANGED: "No"}[job],
     "Within R4" if within else "Out of R4")
    for housing, job, within in CANONICAL_TRIPLES
]


def classify(housing=NOT_CHANGED, work=NOT_CHANGED, r4=False) -> int:
    """The group number of an FR with these housing and work statuses, within R4 or not."""
    return group_index(housing == CHANGED, work, r4)


class TestGroupNumbering:
    def test_canonical_triples_number_one_to_twenty(self):
        got = [group_index(*t) for t in CANONICAL_TRIPLES]
        assert got == list(range(1, GROUP_COUNT + 1))

    def test_triple_labels_round_trip(self):
        assert [group_triple(g) for g in range(1, GROUP_COUNT + 1)] == CANONICAL_LABELS

    def test_numbering_is_a_bijection(self):
        assert len({group_index(*t) for t in CANONICAL_TRIPLES}) == GROUP_COUNT

    @pytest.mark.parametrize("bad", [0, 21, -1, 100])
    def test_out_of_range_group_rejected(self, bad):
        with pytest.raises(ValueError):
            group_triple(bad)

    def test_location_parity(self):
        # Even groups are within R4, odd groups outside, in both halves.
        for g in range(1, GROUP_COUNT + 1):
            _, _, location = group_triple(g)
            assert (location == "Within R4") == (g % 2 == 0)


class TestClassify:
    def test_moved_jobless_outside(self):
        assert classify(housing=CHANGED, work=JOBLESS, r4=False) == 5

    def test_settled_unchanged_within(self):
        assert classify(housing=NOT_CHANGED, work=NOT_CHANGED, r4=True) == 20

    def test_r4_flag_adds_one(self):
        out = classify(housing=CHANGED, work=LOST, r4=False)
        within = classify(housing=CHANGED, work=LOST, r4=True)
        assert within == out + 1


def test_group_counts_always_has_twenty_keys():
    counts = group_counts([])
    assert sorted(counts) == list(range(1, 21))
    assert sum(counts.values()) == 0
    counts = group_counts(classify(work=JOBLESS) for _ in range(3))
    assert sum(counts.values()) == 3
    assert counts[15] == 3


def score_rows(tmp_path, groups, counts) -> list[list[str]]:
    """The data rows of ``scores.csv`` written from each FR's group in ``groups``, in card order, and ``counts``."""
    path = tmp_path / "scores.csv"
    frs = sorted(groups)
    write_scores(str(path), frs, [groups[card] for card in frs], counts)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == "card_id,group,followup_trips,scored"
    return [row.split(",") for row in rows]


class TestScoreDeprivation:
    def test_textbook_population_stats(self, tmp_path):
        # 2,4,4,4,5,5,7,9 is the classic example: mean 5, variance 4.
        counts = {f"C{i}": v for i, v in enumerate([2, 4, 4, 4, 5, 5, 7, 9])}
        summary = score_deprivation(sorted(counts), counts)
        assert summary.fr_count == 8
        assert summary.scored_count == 8
        assert summary.scored_fraction == 1.0
        assert summary.mean_trips == pytest.approx(5.0)
        assert summary.std_trips == pytest.approx(2.0)
        rows = score_rows(tmp_path, {card: classify() for card in counts}, counts)
        assert all(row[3] == "1" for row in rows)

    def test_absent_cards_are_unscored(self, tmp_path):
        counts = {"B": 3, "D": 7}
        summary = score_deprivation(["A", "B", "C", "D"], counts)
        assert summary.fr_count == 4
        assert summary.scored_count == 2
        assert summary.scored_fraction == 0.5
        assert summary.mean_trips == pytest.approx(5.0)
        rows = score_rows(tmp_path, {card: classify() for card in "ABCD"}, counts)
        by_card = {row[0]: row[2:] for row in rows}
        assert by_card["A"] == ["0", "0"]
        assert by_card["D"] == ["7", "1"]

    def test_empty_cohort(self, tmp_path):
        summary = score_deprivation([], {"X": 5})
        assert score_rows(tmp_path, {}, {"X": 5}) == []
        assert summary.fr_count == 0
        assert summary.scored_fraction is None
        assert summary.mean_trips is None
        assert summary.std_trips is None

    def test_nobody_scored(self):
        summary = score_deprivation(["A"], {})
        assert summary.fr_count == 1
        assert summary.scored_count == 0
        assert summary.scored_fraction == 0.0
        assert summary.mean_trips is None

    def test_order_and_duplicates_do_not_matter(self):
        # The FRs come as the keys of a mapping, so a repeated id is one key.
        counts = {"A": 1, "B": 2, "C": 3}
        a = score_deprivation(dict.fromkeys(["C", "A", "B"]), counts)
        b = score_deprivation(dict.fromkeys(["A", "B", "C", "A"]), counts)
        assert a == b
        assert a.fr_count == 3

    def test_single_card_zero_std(self):
        summary = score_deprivation(["A"], {"A": 13})
        assert summary.mean_trips == 13.0
        assert summary.std_trips == 0.0

    def test_scoring_copies_nothing_per_card(self):
        # A set of the ids or a list of the counts, 20,000 long, would
        # hold hundreds of KiB.
        frs = dict.fromkeys(f"C{i:05d}" for i in range(20_000))
        counts = {card: i % 7 for i, card in enumerate(frs)}
        assert score_deprivation(frs, counts).scored_count == 20_000 - len(range(0, 20_000, 7))
        assert peak_traced_bytes(score_deprivation, frs, counts) < PER_CARD_COPY_BYTES


class TestGroupAndScoreWriters:
    """groups.csv and scores.csv are formatted from hand-made groups alone."""

    GROUPS = {
        "C": classify(housing=CHANGED, work=LOST, r4=True),
        "A": classify(),
        "B": classify(work=FOUND),
        "D": classify(housing=CHANGED, work=JOBLESS),
    }

    def test_scores_rows(self, tmp_path):
        rows = score_rows(tmp_path, self.GROUPS, {"B": 4, "Z": 2})
        # One row per FR in card order; a card that is not an FR writes none.
        assert [row[0] for row in rows] == ["A", "B", "C", "D"]
        # The group column is the FR's group, never empty.
        assert [int(row[1]) for row in rows] == [self.GROUPS[row[0]] for row in rows]
        assert [row[2:] for row in rows] == [["0", "0"], ["4", "1"], ["0", "0"], ["0", "0"]]

    def test_group_counts_sum_to_the_fr_count(self, tmp_path):
        path = tmp_path / "groups.csv"
        write_groups(str(path), list(self.GROUPS.values()))
        _, *rows = path.read_text(encoding="utf-8").splitlines()
        counts = {int(row.split(",")[0]): int(row.split(",")[4]) for row in rows}
        assert sum(counts.values()) == len(self.GROUPS)
        assert counts == group_counts(self.GROUPS.values())
