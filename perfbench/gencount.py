"""Stream sizes from generating functions, independent of the enumerators.

These counts share no code with ``reidtai.enumeration``; the traced run
checks every stream the program opens against them, so a faster route that
silently drops classes fails the benchmark instead of looking like a win.

- Lattice (integral) stream of rank r: the coefficient of x^r in
  prod_{n | N} 1 / (1 - x^phi(n)).
- Abelian-factor (ppav) stream of dimension h: the coefficient of x^h in
  prod_{n | N} F_n, with F_n = 1 / (1 - x) for n <= 2 and
  F_n = sum_m (m + 1)^(phi(n)/2) x^(m * phi(n)/2) otherwise.
- Unconstrained streams of size d: multisets of size d over the N rotation
  numbers k/N, i.e. C(N - 1 + d, d).
"""

from __future__ import annotations

from math import comb, gcd


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def lattice_count(r: int, order_divides: int) -> int:
    """Integral rank-r lattice spectra: cyclotomic signatures of degree r."""
    series = [1] + [0] * r
    for n in divisors(order_divides):
        step = totient(n)
        for k in range(step, r + 1):
            series[k] += series[k - step]
    return series[r]


def ppav_count(h: int, order_divides: int) -> int:
    """Dimension-h abelian-factor spectra that extend to the doubled homology."""
    series = [1] + [0] * h
    for n in divisors(order_divides):
        if n <= 2:
            factor = [1] * (h + 1)
        else:
            half = totient(n) // 2
            factor = [0] * (h + 1)
            for m in range(h // half + 1):
                factor[m * half] = (m + 1) ** half
        series = [
            sum(series[i] * factor[k - i] for i in range(k + 1)) for k in range(h + 1)
        ]
    return series[h]


def multiset_count(d: int, order_divides: int) -> int:
    return comb(order_divides - 1 + d, d)


def w_count(h: int, mode: str, order_divides: int = 12) -> int:
    """Size of the W (abelian-factor) stream for one chart."""
    if mode == "integral-both":
        return ppav_count(h, order_divides)
    return multiset_count(h, order_divides)


def lambda_count(r: int, mode: str, order_divides: int = 12) -> int:
    """Size of the Lambda (lattice) stream for one chart."""
    if mode == "unconstrained":
        return multiset_count(r, order_divides)
    return lattice_count(r, order_divides)


def catalog_pairs(g: int, mode: str, order_divides: int = 12) -> int:
    """Classes folded by ``exceptions --g g``: every (W, Lambda) pair over
    the charts h = 1..g, r = g - h, less one identity pair per chart."""
    return sum(
        w_count(h, mode, order_divides) * lambda_count(g - h, mode, order_divides) - 1
        for h in range(1, g + 1)
    )
