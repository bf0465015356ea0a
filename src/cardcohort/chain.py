"""Trip chaining rules: where one card's stays come from.

A stay is the time between arriving at a place and boarding the next
vehicle there; its place and its departure are that boarding's.
``infer.build_profile`` forms a card's stays in its one walk over the
card's rides in boarding order, and counts each stay for the home and
work rules as it is formed; a stay is kept only when the caller asks for
it (``infer --dump-stays``).  For consecutive rides k and k+1:

* ride k alighted where ride k+1 boards, no later than that boarding:
  an exact stay over [alight_k, board_k+1];
* ride k has no alighting (fixed fare): in permissive mode an
  approximate stay over [board_k, board_k+1], with no arrival time; in
  strict mode nothing, because strict mode refuses to guess;
* ride k alighted somewhere else (the card moved off-grid) or after
  ride k+1 boarded (overlapping rides): no stay.

Whatever chaining yields, the first boarding of each calendar day is
marked first-of-day; if chaining produced no stay for it, a zero-length
stay stands in, because the first boarding of the day is evidence in
its own right for home inference.
"""

from __future__ import annotations

from dataclasses import dataclass

STRICT = "strict"
PERMISSIVE = "permissive"
STAY_MODES = (STRICT, PERMISSIVE)


@dataclass(slots=True)
class Stay:
    """Time at one place; times in minutes from the week start."""

    place_id: int
    arrive_time: int | None
    depart_time: int
    duration_min: int
    approximate: bool
    first_of_day: bool
