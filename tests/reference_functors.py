"""The symmetric-square and tensor spectra as sums of rotation numbers,
kept as the reference for the integer-numerator forms.

Each entry sum is one ``RotationNumber`` addition, with its own lcm and
gcd: slow, but a direct reading of {a_i + a_j : i <= j} and
{a_i + b_j}.  ``reidtai.functors.sym2`` and ``tensor`` must return equal
spectra, and raise ValueError exactly when these do.
"""

from __future__ import annotations

from reidtai.rotations import Spectrum


def sym2(a: Spectrum) -> Spectrum:
    e = a.entries
    return Spectrum.of(e[i] + e[j] for i in range(len(e)) for j in range(i, len(e)))


def tensor(a: Spectrum, b: Spectrum) -> Spectrum:
    return Spectrum.of(x + y for x in a.entries for y in b.entries)
