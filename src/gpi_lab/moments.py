"""Exact mixed moments of centered Gaussian vectors with rational covariance.

The central operation is the closed pairing-count sum (the multinomial
pairing expansion of Genest & Ouimet, 2022) evaluated in integer arithmetic:
each covariance is scaled once, at construction, to an integer matrix over the
least common denominator of its entries, every pairing count is summed as a
Python int, and a single division at the end gives the rational moment.
Each covariance holds one plan per set of coordinates asked about: its cross
pairs, its level tables of power weights and the memoised sub-sums of its
levels.  The sum is one memoised descent through the levels, one frame deeper
per nonzero cross pair and never per unit of degree.  The first moment that
needs a plan builds it, and a later one that needs longer tables rebuilds it
whole, keeping its sums.  So every call on one draw shares them: the 36 calls
of a heavy sweep draw reuse one another's 2-D moments of the last pair.  Plans
hold no reference to the covariance, and the descent makes no reference
cycle, so they are freed with the draw.  Their size is bounded by the
exponents asked: a table reaches at most twice the largest exponent asked of
its coordinates, and a level holds at most one sum per tuple of remainders of
its open coordinates, each remainder at most the largest exponent asked of
its coordinate.  Covariance validity (exact symmetry and positive
semidefiniteness) is certified at construction time by `is_psd`: fraction-free
(Bareiss) elimination on the scaled integer matrix, and a matrix that fails
reports its negative principal minor, read off the elimination's pivot.
Every scalar goes through `core.parse_rational`, so binary floats and booleans
are refused and no floating point is involved anywhere.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from itertools import compress
from typing import Iterable, Mapping, NamedTuple, Sequence

from .core import Scalar, SplitMix64, parse_rational
from .specialfn import double_factorial_odd


Exponents = tuple[int, ...]


class PsdCertificate(NamedTuple):
    """Outcome of the exact PSD test.

    When `psd` is false, `indices` names a principal submatrix whose exact
    determinant `minor` is negative, which any caller can recheck directly.
    """

    psd: bool
    indices: tuple[int, ...] | None = None
    minor: Fraction | None = None

    def __bool__(self) -> bool:
        return self.psd


def _integer_form(
    rows: Sequence[Sequence[Fraction | int]],
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The least common denominator D of the entries and the integer matrix D * rows."""
    den = math.lcm(*[x.denominator for row in rows for x in row])
    return den, tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows)


def _negative_minor(scaled: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int] | None:
    """A principal submatrix with a negative determinant and that determinant,
    or None if PSD.

    Fraction-free symmetric elimination (Bareiss, 1968) on the upper triangle:
    after the pivots P are eliminated, entry (i, j) is the minor of rows P+i
    and columns P+j, and `prev` is the minor on P, which is positive.  So every
    entry has the sign of the rational Schur complement, and each division is
    exact.  A zero pivot whose remaining row has vanished is skipped.  A
    negative pivot at k is itself the minor on P+k; a zero pivot at k with a
    nonzero entry a_kj to its right gives the minor -a_kj^2 / prev on P+k+j,
    by Sylvester's identity.
    """
    n = len(scaled)
    if any(len(row) != n for row in scaled):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if scaled[i][j] != scaled[j][i]:
                raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")

    a = [list(row) for row in scaled]
    eliminated: list[int] = []
    prev = 1
    for k in range(n):
        row_k = a[k]
        pivot = row_k[k]
        if pivot < 0:
            return (*eliminated, k), pivot
        if pivot == 0:
            for j in range(k + 1, n):
                if row_k[j] != 0:
                    return (*eliminated, k, j), -(row_k[j] ** 2) // prev
            continue
        eliminated.append(k)
        for i in range(k + 1, n):
            row_i, a_ki = a[i], row_k[i]
            for j in range(i, n):
                row_i[j] = (pivot * row_i[j] - a_ki * row_k[j]) // prev
        prev = pivot
    return None


def is_psd(rows: Sequence[Sequence[Scalar]]) -> PsdCertificate:
    """Exact PSD decision for a symmetric rational matrix.

    Entries are read with `core.parse_rational` and scaled to integers over a
    common denominator D, keeping the sign of every principal minor, for a
    fraction-free elimination in Python ints.  A failing certificate carries
    the negative minor of `rows` itself: the scaled minor over D^|indices|.
    """
    den, scaled = _integer_form([[parse_rational(x) for x in row] for row in rows])
    found = _negative_minor(scaled)
    if found is None:
        return PsdCertificate(True)
    indices, minor = found
    return PsdCertificate(False, indices, Fraction(minor, den ** len(indices)))


def _not_str(values, what: str):
    """values, unless it is a string, which would read as a list of characters."""
    if isinstance(values, str):
        raise ValueError(f"{what} must be a list, not the string {values!r}")
    return values


class CovarianceMatrix:
    """Symmetric PSD matrix of rationals defining a centered Gaussian vector.

    Construction parses every entry with `core.parse_rational`, certifies
    symmetry and positive semidefiniteness with `is_psd` on its entries, and
    scales them to the integer matrix S = `scaled` over their least common
    denominator D = `denominator`; singular (rank-deficient) matrices are
    deliberately allowed.  Any entry or shape it cannot read is a ValueError.
    `_plans` maps each tuple of coordinates with a nonzero exponent to its
    `_Plan`, the moment engine's one mutable state.  A plan is replaced whole
    when it grows, and its level sums only gain entries, each an exact integer
    that any worker computes the same way.  Instances are otherwise immutable,
    and equality, hashing and repr see `entries` only.
    """

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        try:
            entries = tuple(
                tuple(parse_rational(x) for x in _not_str(row, "a covariance row"))
                for row in _not_str(rows, "covariance rows")
            )
        except TypeError as exc:
            raise ValueError(f"bad covariance entry: {exc}") from None
        cert = is_psd(entries)
        if not cert:
            raise ValueError(f"not PSD: principal minor on rows {cert.indices} is {cert.minor}")
        den, scaled = _integer_form(entries)
        vars(self).update(entries=entries, denominator=den, scaled=scaled, _plans={})

    def __setattr__(self, name, value):
        raise AttributeError("CovarianceMatrix is immutable")

    def __eq__(self, other):
        if not isinstance(other, CovarianceMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"CovarianceMatrix(entries={self.entries!r})"

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Scalar]]) -> "CovarianceMatrix":
        return cls(rows)

    @classmethod
    def diagonal(cls, variances: Iterable[Scalar]) -> "CovarianceMatrix":
        vs = list(_not_str(variances, "variances"))
        return cls([[v if i == j else 0 for j in range(len(vs))] for i, v in enumerate(vs)])

    @classmethod
    def from_json(cls, obj: Mapping) -> "CovarianceMatrix":
        """Parse {"dim": d, "entries": [[p/q, ...], ...]}; ValueError on any other shape."""
        if not isinstance(obj, Mapping) or "dim" not in obj or "entries" not in obj:
            raise ValueError('covariance JSON must be an object with "dim" and "entries"')
        rows = obj["entries"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError('covariance "entries" must be a list of rows')
        try:
            if isinstance(obj["dim"], bool):
                raise TypeError("a boolean is not a dimension")
            dim = operator.index(obj["dim"])
        except TypeError:
            raise ValueError(f'covariance "dim" must be an integer, got {obj["dim"]!r}') from None
        cov = cls(rows)
        if dim != cov.dim:
            raise ValueError(
                f"declared dim {obj['dim']} but {cov.dim} rows of entries"
            )
        return cov


def validate_exponents(cov: CovarianceMatrix, exponents: Sequence[int]) -> Exponents:
    """The exponents as a tuple of ints, one nonnegative integer per coordinate of cov."""
    try:
        ks = tuple(exponents)
        if any(isinstance(k, bool) for k in ks):
            raise TypeError("a boolean is not an exponent")
        ks = tuple(map(operator.index, ks))
    except TypeError:
        raise ValueError(f"exponents must be integers, got {exponents!r}") from None
    if any(k < 0 for k in ks):
        raise ValueError(f"exponents must be nonnegative, got {ks}")
    if len(ks) != cov.dim:
        raise ValueError(f"{len(ks)} exponents for a {cov.dim}x{cov.dim} covariance")
    return ks


def _powers(s: int, factors: range) -> tuple[int, ...]:
    """The running products of f * s over factors, from 1: l! s^l for the
    factors 1..n, (2h-1)!! s^h for the odd ones."""
    table = [1]
    for f in factors:
        table.append(table[-1] * f * s)
    return tuple(table)


class _Plan(NamedTuple):
    """The traversal of the pairing-count sum for one set of coordinates.

    `levels[p]` is (i, j, l! S_ij^l table, closing table of i or None, closing
    table of j or None) for the p-th nonzero cross pair.  The closing table of
    a coordinate c, at its last pair, holds (2h-1)!! S_cc^h: the number of
    ways to pair among themselves the 2h factors of c left after its cross
    pairs, times their weight.  `uncrossed` are the coordinates with no
    nonzero cross entry; the tables cover every exponent up to `caps`.
    `sums[p]` maps a tuple of remainders, with the coordinates closed before
    level p (and the uncrossed ones) set to 0, to the sum over levels p and
    below.  A sub-sum does not depend on the path above it, so it
    holds for every call on the covariance.
    """

    caps: Exponents
    uncrossed: tuple[int, ...]
    levels: tuple[tuple, ...]
    sums: tuple[dict[Exponents, int], ...]


def _plan(cov: CovarianceMatrix, k: Exponents) -> _Plan:
    """cov's plan for the coordinates with a nonzero exponent in k, rebuilt
    (keeping its sums) only when its tables do not reach k."""
    coords = tuple(compress(range(len(k)), k))
    plan = cov._plans.get(coords)
    if plan is not None and all(map(operator.le, k, plan.caps)):
        return plan
    # Regrown tables reach twice the old ones, so an ascending run of calls
    # rebuilds a logarithmic number of times.
    caps = k if plan is None else tuple(max(kc, 2 * cap) for kc, cap in zip(k, plan.caps))
    scaled = cov.scaled
    pairs = [(i, j) for a, i in enumerate(coords) for j in coords[a + 1 :] if scaled[i][j] != 0]
    last_pair = {}
    for p, (i, j) in enumerate(pairs):
        last_pair[i] = last_pair[j] = p
    levels = tuple(
        (
            i,
            j,
            _powers(scaled[i][j], range(1, min(caps[i], caps[j]) + 1)),
            _powers(scaled[i][i], range(1, caps[i], 2)) if last_pair[i] == p else None,
            _powers(scaled[j][j], range(1, caps[j], 2)) if last_pair[j] == p else None,
        )
        for p, (i, j) in enumerate(pairs)
    )
    plan = cov._plans[coords] = _Plan(
        caps,
        tuple(c for c in coords if c not in last_pair),
        levels,
        tuple({} for _ in pairs) if plan is None else plan.sums,
    )
    return plan


def _last_sum(level: tuple, key: Exponents) -> int:
    """The innermost level's sum from `key`: the scaled 2-D moment of its pair."""
    i, j, cross, close_i, close_j = level
    a, b = key[i], key[j]
    value = 0
    if not (a - b) % 2:
        comb = math.comb
        for t in range(a % 2, min(a, b) + 1, 2):
            value += (
                comb(a, t) * comb(b, t) * cross[t]
                * close_i[(a - t) >> 1] * close_j[(b - t) >> 1]
            )
    return value


def _pair_sum(plan: _Plan, key: Exponents, p: int = 0) -> int:
    """The sum over plan's levels p and below from the remainders `key`; it
    is stored in `plan.sums[p]` and returned.  Below level 0 `key` is never
    held yet.  At level 0, where `gaussian_moment` enters, it may be: the sum
    is then recomputed from its memoised children, so one level's work.

    Level p chooses l = l_ij for its pair (i, j) from the remainders r_i, r_j,
    with weight C(r_i, l) C(r_j, l) l! S_ij^l.  At the last pair of a
    coordinate its remainder r - l must be even, and it is closed with weight
    (r-l-1)!! S_cc^((r-l)/2).  The product of these weights along a path is
    the pairing count prod k_i! / (prod l_ij! 2^h prod h_i!) times its
    covariance product.  A child's sum missing from `plan.sums[p + 1]` is got
    by descending one level, so the descent is at most one frame per nonzero
    cross pair deep, never one per unit of degree.
    """
    levels, sums = plan.levels, plan.sums
    if p == len(levels) - 1:
        value = sums[p][key] = _last_sum(levels[p], key)
        return value
    i, j, cross, close_i, close_j = levels[p]
    below = sums[p + 1]
    ri, rj = key[i], key[j]
    if close_i is not None:
        if close_j is not None and (ri - rj) % 2:
            counts = ()
        else:
            counts = range(ri % 2, min(ri, rj) + 1, 2)
    elif close_j is not None:
        counts = range(rj % 2, min(ri, rj) + 1, 2)
    else:
        counts = range(min(ri, rj) + 1)
    comb = math.comb
    total = 0
    for l in counts:
        weight = comb(ri, l) * comb(rj, l) * cross[l]
        child = list(key)
        if close_i is None:
            child[i] = ri - l
        else:
            weight *= close_i[(ri - l) >> 1]
            child[i] = 0
        if close_j is None:
            child[j] = rj - l
        else:
            weight *= close_j[(rj - l) >> 1]
            child[j] = 0
        child = tuple(child)
        value = below.get(child)
        if value is None:
            value = _pair_sum(plan, child, p + 1)
        total += weight * value
    sums[p][key] = total
    return total


def gaussian_moment(cov: CovarianceMatrix, exponents: Sequence[int]) -> Fraction:
    """E[prod X_i^{k_i}] for a centered Gaussian vector with the given covariance.

    The closed pairing-count sum over the cross-pair counts l_ij (i < j) whose
    remainders k_i - sum_j l_ij are all even, with h_i half of each remainder
    and h = sum h_i:

        E[k] = sum prod k_i! / (prod l_ij! 2^h prod h_i!)
                   * prod cov[i][j]^l_ij * prod cov[i][i]^h_i

    Counts with l_ij > 0 on a zero entry are skipped.  Summed in integers over
    the scaled covariance, through cov's plan for these coordinates, and
    divided once at the end.  Odd total degree gives 0; the empty product
    gives 1.
    """
    k = validate_exponents(cov, exponents)
    if sum(k) % 2 == 1:
        return Fraction(0)
    plan = _plan(cov, k)
    scaled = cov.scaled
    base = 1
    top = list(k)
    for c in plan.uncrossed:
        # No cross pairs: X_c^{k_c} pairs only with itself.
        if k[c] % 2:
            return Fraction(0)
        h = k[c] // 2
        base *= double_factorial_odd(h) * scaled[c][c] ** h
        top[c] = 0
    if plan.levels and base:
        # A descent cut short leaves the memo sound: `_pair_sum` stores a
        # level's sum only once it is complete.
        try:
            base *= _pair_sum(plan, tuple(top))
        except RecursionError:
            raise ValueError(
                f"{len(plan.levels)} nonzero cross pairs need a deeper descent than "
                f"Python's recursion limit of {sys.getrecursionlimit()} allows"
            ) from None
    return Fraction(base, cov.denominator ** (sum(k) // 2))


def univariate_even_moment(variance: Scalar, m: int) -> Fraction:
    """(2m-1)!! * variance^m, the even moment of a centered Gaussian scalar;
    the variance is read with `core.parse_rational`."""
    variance = parse_rational(variance)
    if variance < 0:
        raise ValueError(f"variance must be >= 0, got {variance}")
    if m < 0:
        raise ValueError(f"moment order must be >= 0, got {m}")
    return Fraction(double_factorial_odd(m) * variance.numerator**m, variance.denominator**m)


def random_covariance(gen: SplitMix64, d: int, q: int) -> CovarianceMatrix:
    """Gram matrix A A^T of a uniform integer matrix with entries in [-q, q].

    PSD by construction; redrawn whenever a diagonal entry lands on zero so
    every coordinate has positive variance.
    """
    if d < 1 or q < 1:
        raise ValueError(f"need d >= 1 and q >= 1, got d={d}, q={q}")
    while True:
        a = [[gen.randint(-q, q) for _ in range(d)] for _ in range(d)]
        gram = [[sum(a[i][t] * a[j][t] for t in range(d)) for j in range(d)] for i in range(d)]
        if all(gram[i][i] != 0 for i in range(d)):
            return CovarianceMatrix(gram)
