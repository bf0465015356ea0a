"""Rides written as string tuples, to and from the reader's flat, stop-coded lists.

Tests state rides as ``(board, route, board_stop, alight_stop, alight)``
with stop ids as text and "" for no alighting.  ``read_transactions``
keeps each card's rides as one flat list of those fields, with each
stop as its code against a registry, and ``build_profile`` takes that
list and the place of each code.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from cardcohort.ingest import Ride, ride_tuples, stop_codes


def encode(rides: Iterable[Ride], stop_to_place: Mapping[str, int]) -> tuple[list, list]:
    """``rides`` as ``build_profile`` takes them, coded against the registry ``stop_to_place``.

    Returns the flat coded list and ``place_of``, the place of each code.
    """
    codes = stop_codes(stop_to_place)
    flat = []
    for board, route, board_stop, alight_stop, alight in rides:
        flat += (board, route, codes[board_stop], codes[alight_stop] if alight_stop else 0, alight)
    return flat, [None, *map(stop_to_place.__getitem__, codes)]


def decode(rides: list, codes: Mapping[str, int] | None = None) -> list[Ride]:
    """A card's flat list as string tuples; ``codes`` names the registry it was coded against."""
    if codes is None:
        return list(ride_tuples(rides))
    ids = ["", *sorted(codes, key=codes.__getitem__)]
    return [(b, route, ids[bs], ids[a_s], a) for b, route, bs, a_s, a in ride_tuples(rides)]


def card_rides(tx, codes: Mapping[str, int] | None = None) -> dict[str, list[Ride]]:
    """Each card's rides in ``tx``, as :func:`decode` gives them."""
    return {card: decode(rides, codes) for card, rides in tx.rides.items()}
