"""Rides written as text tuples, to and from the reader's coded int arrays.

Tests state rides as ``(board, route, board_stop, alight_stop, alight)``
with route and stop ids as text and "" for no alighting.
``read_transactions`` keeps each card's rides as one int array of those
fields, with each route and stop as its code, and ``build_profile``
takes that array and the place of each stop code.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Mapping

from cardcohort.ingest import ride_tuples, stop_codes

# One ride with its ids as text.
TextRide = tuple[int, str, str, str, int]


def encode(rides: Iterable[TextRide], stop_to_place: Mapping[str, int]) -> tuple[array, list]:
    """``rides`` as ``build_profile`` takes them, coded against the registry ``stop_to_place``.

    Route codes are the routes' ranks, so the coded rides sort as the
    text ones do.  Returns the int array and ``place_of``, the place of
    each stop code.
    """
    rides = list(rides)
    codes = stop_codes(stop_to_place)
    route_code = {route: code for code, route in enumerate(sorted({r[1] for r in rides}), 1)}
    coded = array("i")
    for board, route, board_stop, alight_stop, alight in rides:
        coded.extend((board, route_code[route], codes[board_stop], codes[alight_stop] if alight_stop else 0, alight))
    return coded, [None, *map(stop_to_place.__getitem__, codes)]


def decode(tx, card: str) -> list[TextRide]:
    """The rides of ``card`` in the read ``tx`` as text tuples, named through ``tx.routes`` and ``tx.stops``."""
    return [(b, tx.routes[r], tx.stops[bs], tx.stops[a_s], a) for b, r, bs, a_s, a in ride_tuples(tx.rides[card])]


def card_rides(tx) -> dict[str, list[TextRide]]:
    """Each card's rides in ``tx``, as :func:`decode` gives them."""
    return {card: decode(tx, card) for card in tx.rides}
