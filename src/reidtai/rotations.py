"""Exact arithmetic on rotation numbers (Q/Z) and Galois-orbit multisets.

A rotation number num/den stands for the root of unity exp(2*pi*i*num/den).
A spectrum is a finite multiset of rotation numbers: the eigenvalue data of
a finite-order semisimple operator.  A spectrum that comes from an integer
matrix splits into complete Galois orbits, which ``OrbitSignature`` lists.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from operator import attrgetter

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

# Every order used by the sweeps divides a configurable bound <= 360, so
# numerators and denominators stay tiny; construction enforces the cap.
MAX_DENOMINATOR = 360

# The integrality filters of the chart streams (``--mode``), kept here so
# that the CLI's parser reads them without importing the enumeration.
CONSTRAINT_MODES = ("integral-both", "integral-lambda-only", "unconstrained")

# Limits of the numeric oracle, kept here so that reading them does not
# import numpy.  The closest two distinct rationals with denominator <= 360
# can get is 1/(359*360) ~ 7.7e-6, so any matching tolerance at or below
# 1e-6 assigns angles unambiguously.
MAX_MATCH_TOLERANCE = 1e-6
DEFAULT_TOLERANCE = 1e-9
# Smallest total degree of a sampled signature; --max-degree may not go below.
MIN_DEGREE = 1
# Largest --max-degree: twice the rank 12 of the largest genus the tests
# check.  A Kronecker matrix of two such signatures has side 576, so a run
# at order bound 360 stays within a few MB per matrix.
MAX_DEGREE = 24
# Largest --samples: a run holds about 1 KB per sample (a peak RSS of 134 MB
# at this bound with --format json, Python 3.11 and numpy 2.4 on x86-64
# Linux), so a larger count is refused rather than left to exhaust memory.
MAX_SAMPLES = 100_000


class Frozen:
    """Immutable value: the fields are the ``__slots__``, given in order to
    the constructor, which fills missing trailing fields from ``_defaults``
    and then runs ``__post_init__``, a subclass's check.  Equality and hash
    go by exact type and fields, so a value never equals a tuple or another
    class's value; pickling and copying rebuild through the constructor."""

    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls) -> None:
        # a C-level read of the fields (the value itself for one field),
        # and the slot setters, which bypass the refusing __setattr__
        cls._values = attrgetter(*cls.__slots__)
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def __init__(self, *values: object) -> None:
        setters = self._setters
        if len(values) != len(setters):
            missing = len(setters) - len(values)
            if not 0 < missing <= len(self._defaults):
                raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
            values += self._defaults[-missing:]
        i = 0  # an index beats zip over one to six fields
        for set_field in setters:
            set_field(self, values[i])
            i += 1
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        values = self._values(self)
        return type(self), values if len(self.__slots__) > 1 else (values,)


class RotationNumber(Frozen):
    """A reduced rational in [0, 1); 0 is stored as 0/1.

    Direct construction demands an already-reduced pair; use :func:`rot`
    to build one from arbitrary integers.
    """

    __slots__ = ("num", "den")

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError(f"denominator must be positive, got {self.den}")
        if self.den > MAX_DENOMINATOR:
            raise ValueError(
                f"denominator {self.den} exceeds the cap {MAX_DENOMINATOR}"
            )
        if not 0 <= self.num < self.den:
            raise ValueError(f"{self.num}/{self.den} is not reduced mod 1")
        if math.gcd(self.num, self.den) != 1:
            raise ValueError(f"{self.num}/{self.den} is not in lowest terms")

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    @property
    def fraction(self) -> Fraction:
        from fractions import Fraction  # built only when an age is read
        return Fraction(self.num, self.den)

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.den, self.num)

    def __add__(self, other: RotationNumber) -> RotationNumber:
        l = math.lcm(self.den, other.den)
        return rot(self.num * (l // self.den) + other.num * (l // other.den), l)

    def __neg__(self) -> RotationNumber:
        return rot(-self.num, self.den)

    def times(self, k: int) -> RotationNumber:
        """k-th power of the underlying root of unity (k*q mod 1)."""
        return rot(self.num * k, self.den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def rot(num: int, den: int) -> RotationNumber:
    """Build num/den reduced mod 1."""
    if den == 0:
        raise ValueError("denominator must be nonzero")
    if den < 0:
        num, den = -num, -den
    num %= den
    g = math.gcd(num, den)
    return RotationNumber(num // g, den // g)


def rot_from_str(text: str) -> RotationNumber:
    """Parse "num/den" (or a bare integer, which reduces to 0)."""
    if "/" in text:
        num, den = text.split("/")
        return rot(int(num), int(den))
    return rot(int(text), 1)


# C-level reads of a rotation number's (den, num) and den
_sort_key = attrgetter("den", "num")
_den = attrgetter("den")


class Spectrum(Frozen):
    """A multiset of rotation numbers, stored canonically sorted.

    Sorting is by (den, num), so structurally equal spectra compare equal;
    use :meth:`of` unless the entries are known to be in canonical order.
    """

    __slots__ = ("entries",)
    _defaults = ((),)

    def __post_init__(self) -> None:
        keys = list(map(_sort_key, self.entries))
        if keys != sorted(keys):
            raise ValueError("entries not canonically sorted; use Spectrum.of")

    @classmethod
    def of(cls, entries: Iterable[RotationNumber]) -> Spectrum:
        return cls(tuple(sorted(entries, key=_sort_key)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[RotationNumber]:
        return iter(self.entries)

    def counts(self) -> Counter[RotationNumber]:
        return Counter(self.entries)

    def negated(self) -> Spectrum:
        return Spectrum.of(-q for q in self.entries)

    def is_identity(self) -> bool:
        """True iff every eigenvalue is 1 (the all-zero spectrum)."""
        return all(q.is_zero for q in self.entries)

    def __str__(self) -> str:
        return "{" + ", ".join(str(q) for q in self.entries) + "}"


def parse_spectrum(text: str) -> Spectrum:
    """Parse a comma-separated list of rotation numbers; "" is empty."""
    text = text.strip().strip("{}")
    if not text:
        return Spectrum()
    return Spectrum.of(rot_from_str(part.strip()) for part in text.split(","))


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    """Euler's phi by trial division."""
    if n <= 0:
        raise ValueError(f"totient needs a positive argument, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of n in increasing order, by trial division up to sqrt(n)."""
    if n <= 0:
        raise ValueError(f"divisors needs a positive argument, got {n}")
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return tuple(low + [n // d for d in reversed(low) if d * d != n])


class Table(dict):
    """A value per x >= 0, built by ``build(x)`` on its first read; a later
    ``table[x]`` (or ``map(table.__getitem__, xs)``) runs no Python code."""

    __slots__ = ("build",)

    def __init__(self, build: Callable[[int], object]) -> None:
        self.build = build

    def __missing__(self, x: int) -> object:
        self[x] = value = self.build(x)
        return value


@lru_cache(maxsize=None)
def residue_keys(n: int, half_turn: bool = False) -> Table:
    """The (den, num) of x/n in lowest terms (any x >= 0; a ``sort_key`` if
    x < n), or of x/n + 1/2 mod 1 with half_turn.  No rotation number is
    built, so a denominator may exceed the cap (2n for odd n)."""
    if half_turn:
        keys = residue_keys(2 * n)
        return Table(lambda x: keys[(2 * x + n) % (2 * n)])
    return Table(lambda x: (n // (g := math.gcd(x, n)), x // g))


@lru_cache(maxsize=None)
def residues(n: int) -> Table:
    """x/n as a rotation number (x < n); beyond the cap it raises ValueError."""
    keys = residue_keys(n)
    return Table(lambda x: RotationNumber(*keys[x][::-1]))


@lru_cache(maxsize=None)
def galois_orbit(n: int) -> Spectrum:
    """All primitive n-th roots of unity: {k/n : gcd(k, n) = 1}.

    For n = 1 this is the single entry 0.  Cardinality is totient(n).
    """
    if n <= 0:
        raise ValueError(f"orbit order must be positive, got {n}")
    return Spectrum.of(rot(k, n) for k in range(1, n + 1) if math.gcd(k, n) == 1)


def element_order(s: Spectrum) -> int:
    """lcm of the distinct denominators; 1 for the empty or all-zero
    spectrum."""
    return math.lcm(*set(map(_den, s.entries)))


class OrbitSignature(Frozen):
    """A multiset of orbit orders n_j, stored sorted.

    The signature {n_j} encodes the integral conjugacy-class datum "one
    complete Galois orbit per part"; its total degree is sum of phi(n_j).
    """

    __slots__ = ("parts",)
    _defaults = ((),)

    def __post_init__(self) -> None:
        if any(n <= 0 for n in self.parts):
            raise ValueError("orbit orders must be positive")
        if any(a > b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts not sorted; use OrbitSignature.of")

    @classmethod
    def of(cls, parts: Iterable[int]) -> OrbitSignature:
        return cls(tuple(sorted(parts)))

    @property
    def total_degree(self) -> int:
        return sum(totient(n) for n in self.parts)

    @property
    def order(self) -> int:
        return math.lcm(*self.parts) if self.parts else 1

    def spectrum(self) -> Spectrum:
        """Concatenation of the Galois orbits of all parts."""
        entries: list[RotationNumber] = []
        for n in self.parts:
            entries.extend(galois_orbit(n).entries)
        return Spectrum.of(entries)

    def __str__(self) -> str:
        return "{" + ", ".join(str(n) for n in self.parts) + "}"
