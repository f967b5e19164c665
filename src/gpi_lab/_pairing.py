"""Independent moment routes that cross-check the pairing-count engine.

`pairing_moment` enumerates every perfect matching of the multiset of factors
and sums the covariance products; `wick_moment` runs the Isserlis/Wick
recursion over Fractions.  Both validate their input with the engine's own
`moments.validate_exponents`, and neither shares any arithmetic with
`moments.gaussian_moment`.  Both are slow and deliberately kept out of the
public API: they serve the test suite only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .moments import CovarianceMatrix, Exponents, validate_exponents


def pairing_moment(cov: CovarianceMatrix, exponents: Sequence[int]) -> Fraction:
    k = validate_exponents(cov, exponents)
    factors: list[int] = []
    for coord, count in enumerate(k):
        factors.extend([coord] * count)
    if len(factors) % 2 == 1:
        return Fraction(0)
    entries = cov.entries

    def match(rest: tuple[int, ...]) -> Fraction:
        if not rest:
            return Fraction(1)
        first, tail = rest[0], rest[1:]
        total = Fraction(0)
        for pos in range(len(tail)):
            total += entries[first][tail[pos]] * match(tail[:pos] + tail[pos + 1 :])
        return total

    return match(tuple(factors))


def wick_moment(cov: CovarianceMatrix, exponents: Sequence[int]) -> Fraction:
    """Wick recursion on the first coordinate j with k_j > 0:

        E[k] = (k_j - 1) cov[j][j] E[k - 2e_j]
               + sum_{i != j} k_i cov[j][i] E[k - e_j - e_i]

    memoized on the exponent tuple within this call.  It recurses once per
    pair of factors, so the total degree is bounded by the recursion limit.
    """
    k = validate_exponents(cov, exponents)
    if sum(k) % 2 == 1:
        return Fraction(0)
    entries = cov.entries
    memo: dict[Exponents, Fraction] = {}

    def rec(ks: Exponents) -> Fraction:
        j = next((i for i, v in enumerate(ks) if v > 0), None)
        if j is None:
            return Fraction(1)
        cached = memo.get(ks)
        if cached is not None:
            return cached
        total = Fraction(0)
        kj = ks[j]
        if kj >= 2:
            lowered = ks[:j] + (kj - 2,) + ks[j + 1 :]
            total += (kj - 1) * entries[j][j] * rec(lowered)
        base = list(ks)
        base[j] = kj - 1
        for i, ki in enumerate(ks):
            if i == j or ki == 0 or entries[j][i] == 0:
                continue
            crossed = base.copy()
            crossed[i] = ki - 1
            total += ki * entries[j][i] * rec(tuple(crossed))
        memo[ks] = total
        return total

    return rec(k)
