"""The filter route of the abelian-factor (W) stream, kept as the reference
for the orbit assembly in ``reidtai.enumeration.ppav_classes``.

It runs every h-multiset over the rotation universe through the
doubled-spectrum integrality test: exhaustive, but exponential in h.
"""

from __future__ import annotations

from typing import Iterator

from reidtai.enumeration import all_spectra
from reidtai.rotations import Spectrum, validate_ppav


def ppav_classes_by_filter(h: int, order_divides: int) -> Iterator[Spectrum]:
    """Direct route: filter every h-multiset through the doubled-spectrum
    integrality test."""
    for s in all_spectra(h, order_divides):
        if validate_ppav(s):
            yield s
