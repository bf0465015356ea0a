"""Rides written as text tuples, to and from the reader's coded int arrays.

Tests state rides as ``(board, route, board_stop, alight_stop, alight)``
with route and stop ids as text and "" for no alighting.
``read_transactions`` checks each line's route but keeps none: each
card's rides are one int array of ``(board, board_stop, alight_stop,
alight)``, with each stop as its code in the registry the read was
given, and ``cardcohort.infer.profile_row`` takes that array and the
place of each stop code.  This module is where a text ride loses its
route.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Mapping

from cardcohort.ingest import ride_tuples, stop_codes

# One ride with its ids as text.
TextRide = tuple[int, str, str, str, int]
# A text ride as the reader keeps it: without its route.
KeptRide = tuple[int, str, str, int]
# The route every ride of one_route takes.
ONE_ROUTE = "R"


def drop_route(ride: TextRide | KeptRide) -> KeptRide:
    """``ride`` without its route; a ride that has none comes back as it is."""
    board, *_route, board_stop, alight_stop, alight = ride
    return board, board_stop, alight_stop, alight


def one_route(rides: Iterable[TextRide | KeptRide]) -> list[TextRide]:
    """``rides`` as text rides that all take :data:`ONE_ROUTE`.

    The staged reference sorts whole text rides, so it orders these as
    ``profile_row`` orders the reader's: by boarding minute, boarding
    stop, alighting stop and alighting minute.
    """
    return [(b, ONE_ROUTE, bs, a_s, a) for b, bs, a_s, a in map(drop_route, rides)]


def encode(rides: Iterable[TextRide | KeptRide], stop_to_place: Mapping[str, int]) -> tuple[array, list]:
    """``rides`` as ``profile_row`` takes them, coded against the registry ``stop_to_place``.

    The route of a ride is dropped, as the reader drops it.  Returns the
    int array and ``place_of``, the place of each stop code.
    """
    codes = stop_codes(stop_to_place)
    coded = array("i")
    for board, board_stop, alight_stop, alight in map(drop_route, rides):
        coded.extend((board, codes[board_stop], codes[alight_stop] if alight_stop else 0, alight))
    return coded, places_of(codes, stop_to_place)


def places_of(codes: Mapping[str, int], stop_to_place: Mapping[str, int]) -> list:
    """The place of each stop code of ``codes`` (from :func:`stop_codes`), None at code 0."""
    return [None, *map(stop_to_place.__getitem__, codes)]


def decode(tx, card: str, codes: Mapping[str, int]) -> list[KeptRide]:
    """The rides of ``card`` in the read ``tx``, with their stops named through ``codes``.

    ``codes`` is the registry the read was given, as :func:`stop_codes`
    gives it; pass ``{}`` for a read given none, whose stops all read "".
    """
    name = {code: sid for sid, code in codes.items()}
    name[0] = ""
    return [(b, name[bs], name[a_s], a) for b, bs, a_s, a in ride_tuples(tx.rides[card])]


def card_rides(tx, codes: Mapping[str, int]) -> dict[str, list[KeptRide]]:
    """Each card's rides in ``tx``, as :func:`decode` gives them."""
    return {card: decode(tx, card, codes) for card in tx.rides}
