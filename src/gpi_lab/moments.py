"""Exact mixed moments of centered Gaussian vectors with rational covariance.

The central operation is the closed pairing-count sum (the multinomial
pairing expansion of Genest & Ouimet, 2022) evaluated in integer arithmetic:
the covariance is scaled once to an integer matrix over the least common
denominator of its entries, every pairing count is summed as a Python int, and
a single division at the end gives the rational moment.  Nothing recurses on
the degree.  The scaled matrix and its lazily extended power tables are kept
for the most recent covariance only, so the consecutive calls a sweep makes on
one draw share them while memory stays flat.  Covariance validity (exact
symmetry and positive semidefiniteness) is certified at construction time with
a fraction-free elimination; no floating point is involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import Scalar, SplitMix64, format_rational, parse_rational


class NotSymmetricError(ValueError):
    """Matrix handed to the PSD test is not exactly symmetric (or not square)."""


class InvalidCovarianceError(ValueError):
    """Entries do not form a positive semidefinite symmetric matrix."""


class DimensionMismatchError(ValueError):
    """Exponent vector length does not match the covariance dimension."""


Exponents = tuple[int, ...]


def _det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by fraction Gaussian elimination with row pivoting."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            if factor == 0:
                continue
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return det


def principal_minor(rows: Sequence[Sequence[Scalar]], indices: Sequence[int]) -> Fraction:
    """Determinant of the principal submatrix on the given row/column indices."""
    sub = [[Fraction(rows[i][j]) for j in indices] for i in indices]
    return _det(sub)


@dataclass(frozen=True)
class PsdCertificate:
    """Outcome of the exact PSD test.

    When `psd` is false, `indices` names a principal submatrix whose exact
    determinant `minor` is negative, which any caller can recheck directly.
    """

    psd: bool
    indices: tuple[int, ...] | None = None
    minor: Fraction | None = None

    def __bool__(self) -> bool:
        return self.psd


def is_psd(rows: Sequence[Sequence[Scalar]]) -> PsdCertificate:
    """Exact PSD decision for a symmetric rational matrix.

    Fraction-free in spirit: symmetric elimination over rationals, skipping
    zero pivots whose Schur-complement row has already vanished.  A negative
    pivot, or a zero pivot with a nonzero off-diagonal remainder, pins down a
    negative principal minor that is returned as the certificate.
    """
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    if any(len(row) != n for row in a):
        raise NotSymmetricError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise NotSymmetricError(f"entries ({i},{j}) and ({j},{i}) differ")

    eliminated: list[int] = []
    for k in range(n):
        pivot = a[k][k]
        if pivot < 0:
            idx = tuple(eliminated + [k])
            return PsdCertificate(False, idx, principal_minor(rows, idx))
        if pivot == 0:
            for j in range(k + 1, n):
                if a[k][j] != 0:
                    idx = tuple(eliminated + [k, j])
                    return PsdCertificate(False, idx, principal_minor(rows, idx))
            continue
        eliminated.append(k)
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            if factor == 0:
                continue
            for j in range(k + 1, n):
                a[i][j] -= factor * a[k][j]
    return PsdCertificate(True)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric PSD matrix of rationals defining a centered Gaussian vector.

    Construction certifies symmetry and positive semidefiniteness exactly;
    singular (rank-deficient) matrices are deliberately allowed.
    """

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        cert = is_psd(self.entries)
        if not cert:
            raise InvalidCovarianceError(
                f"not PSD: principal minor on rows {cert.indices} is {cert.minor}"
            )

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Scalar]]) -> "CovarianceMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @classmethod
    def diagonal(cls, variances: Iterable[Scalar]) -> "CovarianceMatrix":
        vs = [Fraction(v) for v in variances]
        n = len(vs)
        return cls.from_rows(
            [[vs[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    @classmethod
    def from_json(cls, obj: Mapping) -> "CovarianceMatrix":
        """Parse {"dim": d, "entries": [[p/q, ...], ...]}; ValueError on any other shape."""
        if not isinstance(obj, Mapping) or "dim" not in obj or "entries" not in obj:
            raise ValueError('covariance JSON must be an object with "dim" and "entries"')
        rows = obj["entries"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError('covariance "entries" must be a list of rows')
        try:
            dim = int(obj["dim"])
        except (TypeError, ValueError):
            raise ValueError(f'covariance "dim" must be an integer, got {obj["dim"]!r}') from None
        try:
            parsed = [[parse_rational(x) for x in row] for row in rows]
        except (TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"bad covariance entry: {exc}") from None
        cov = cls.from_rows(parsed)
        if dim != cov.dim:
            raise DimensionMismatchError(
                f"declared dim {obj['dim']} but {cov.dim} rows of entries"
            )
        return cov

    def as_json(self) -> dict:
        return {
            "dim": self.dim,
            "entries": [[format_rational(x) for x in row] for row in self.entries],
        }

    def is_diagonal(self) -> bool:
        return all(
            self.entries[i][j] == 0
            for i in range(self.dim)
            for j in range(self.dim)
            if i != j
        )


def validate_exponents(exponents: Sequence[int]) -> Exponents:
    ks = tuple(int(k) for k in exponents)
    if any(k < 0 for k in ks):
        raise ValueError(f"exponents must be nonnegative, got {ks}")
    return ks


class _PairingTables:
    """One covariance in integer form, with power tables grown on demand.

    `scaled` is S = D * cov for the least common denominator D of the entries.
    For i < j, `_cross[i][j][l]` is l! S_ij^l; `_self[c][h]` is
    (2h-1)!! S_cc^h, the number of ways to pair the 2h factors of coordinate c
    left over after its cross pairs among themselves, times their weight.
    Tables are tuples replaced whole when they grow, so a reader never sees
    one half extended.
    """

    __slots__ = ("cov", "denominator", "scaled", "_cross", "_self")

    def __init__(self, cov: CovarianceMatrix):
        self.cov = cov
        self.denominator = math.lcm(*(x.denominator for row in cov.entries for x in row))
        self.scaled = [
            [x.numerator * (self.denominator // x.denominator) for x in row]
            for row in cov.entries
        ]
        d = cov.dim
        self._cross = [[(1,)] * d for _ in range(d)]
        self._self = [(1,)] * d

    def cross(self, i: int, j: int, top: int) -> tuple[int, ...]:
        table = self._cross[i][j]
        if len(table) <= top:
            s = self.scaled[i][j]
            grown = list(table)
            for l in range(len(table), top + 1):
                grown.append(grown[-1] * l * s)
            table = self._cross[i][j] = tuple(grown)
        return table

    def self_pairs(self, c: int, top: int) -> tuple[int, ...]:
        table = self._self[c]
        if len(table) <= top:
            s = self.scaled[c][c]
            grown = list(table)
            for h in range(len(table), top + 1):
                grown.append(grown[-1] * (2 * h - 1) * s)
            table = self._self[c] = tuple(grown)
        return table

    def moment(self, k: Exponents) -> Fraction:
        """E[prod X_i^{k_i}] for an exponent vector of even total degree."""
        scaled = self.scaled
        coords = [i for i, ki in enumerate(k) if ki > 0]
        pairs = [
            (i, j) for a, i in enumerate(coords) for j in coords[a + 1 :] if scaled[i][j] != 0
        ]
        last_pair = {}
        for p, (i, j) in enumerate(pairs):
            last_pair[i] = last_pair[j] = p
        base = 1
        for c in coords:
            if c not in last_pair:
                # No cross pairs: X_c^{k_c} pairs only with itself.
                if k[c] % 2:
                    return Fraction(0)
                h = k[c] // 2
                base *= math.factorial(2 * h) // (math.factorial(h) << h) * scaled[c][c] ** h
        scale = self.denominator ** (sum(k) // 2)
        if not pairs:
            return Fraction(base, scale)

        # Level p chooses l = l_ij for pairs[p] = (i, j) from the exponents r_i,
        # r_j still unpaired, with weight C(r_i, l) C(r_j, l) l! S_ij^l.  At the
        # last pair of a coordinate its remainder r - l must be even, and it is
        # closed with weight (r-l-1)!! S_cc^((r-l)/2).  The product of these
        # weights along a path is the pairing count
        # prod k_i! / (prod l_ij! 2^h prod h_i!) times its covariance product.
        levels = []
        for p, (i, j) in enumerate(pairs):
            levels.append(
                (
                    i,
                    j,
                    self.cross(i, j, min(k[i], k[j])),
                    self.self_pairs(i, k[i] // 2) if last_pair[i] == p else None,
                    self.self_pairs(j, k[j] // 2) if last_pair[j] == p else None,
                )
            )
        innermost = len(levels) - 1
        comb = math.comb
        total = 0
        stack = [(0, base, list(k))]
        while stack:
            p, acc, rem = stack.pop()
            i, j, cross, close_i, close_j = levels[p]
            ri, rj = rem[i], rem[j]
            if close_i is not None:
                if close_j is not None and (ri - rj) % 2:
                    continue
                counts = range(ri % 2, min(ri, rj) + 1, 2)
            elif close_j is not None:
                counts = range(rj % 2, min(ri, rj) + 1, 2)
            else:
                counts = range(min(ri, rj) + 1)
            if p == innermost:
                # The last pair closes both of its coordinates.
                total += acc * sum(
                    comb(ri, l) * comb(rj, l) * cross[l]
                    * close_i[(ri - l) >> 1] * close_j[(rj - l) >> 1]
                    for l in counts
                )
                continue
            for l in counts:
                weight = acc * comb(ri, l) * comb(rj, l) * cross[l]
                if close_i is not None:
                    weight *= close_i[(ri - l) >> 1]
                if close_j is not None:
                    weight *= close_j[(rj - l) >> 1]
                if weight:
                    lowered = rem.copy()
                    lowered[i] = ri - l
                    lowered[j] = rj - l
                    stack.append((p + 1, weight, lowered))
        return Fraction(total, scale)


# Tables of the most recent covariance.  A single entry: a sweep makes all its
# calls on one draw before moving to the next, and run_sweep keeps every draw
# alive, so tables attached to each covariance would only grow the process.
# Matched by identity first, then equality, because hashing a covariance hashes
# every Fraction entry, which costs a sizeable share of a low-degree moment.
_recent_tables: _PairingTables | None = None


def _tables(cov: CovarianceMatrix) -> _PairingTables:
    global _recent_tables
    tables = _recent_tables
    if tables is None or (tables.cov is not cov and tables.cov != cov):
        tables = _recent_tables = _PairingTables(cov)
    return tables


def gaussian_moment(cov: CovarianceMatrix, exponents: Sequence[int]) -> Fraction:
    """E[prod X_i^{k_i}] for a centered Gaussian vector with the given covariance.

    The closed pairing-count sum over the cross-pair counts l_ij (i < j) whose
    remainders k_i - sum_j l_ij are all even, with h_i half of each remainder
    and h = sum h_i:

        E[k] = sum prod k_i! / (prod l_ij! 2^h prod h_i!)
                   * prod cov[i][j]^l_ij * prod cov[i][i]^h_i

    Counts with l_ij > 0 on a zero entry are skipped.  Summed in integers over
    the scaled covariance and divided once at the end.  Odd total degree gives
    0; the empty product gives 1.
    """
    k = validate_exponents(exponents)
    if len(k) != cov.dim:
        raise DimensionMismatchError(f"{len(k)} exponents for a {cov.dim}x{cov.dim} covariance")
    if sum(k) % 2 == 1:
        return Fraction(0)
    return _tables(cov).moment(k)


def univariate_even_moment(variance: Scalar, m: int) -> Fraction:
    """(2m-1)!! * variance^m, the even moment of a centered Gaussian scalar."""
    variance = Fraction(variance)
    if variance < 0:
        raise InvalidCovarianceError(f"variance must be >= 0, got {variance}")
    if m < 0:
        raise ValueError(f"moment order must be >= 0, got {m}")
    acc = Fraction(1)
    for i in range(1, m + 1):
        acc *= 2 * i - 1
    return acc * variance**m


def random_covariance(gen: SplitMix64, d: int, q: int) -> CovarianceMatrix:
    """Gram matrix A A^T of a uniform integer matrix with entries in [-q, q].

    PSD by construction; redrawn whenever a diagonal entry lands on zero so
    every coordinate has positive variance.
    """
    if d < 1 or q < 1:
        raise ValueError(f"need d >= 1 and q >= 1, got d={d}, q={q}")
    while True:
        a = [[gen.randint(-q, q) for _ in range(d)] for _ in range(d)]
        gram = [
            [Fraction(sum(a[i][t] * a[j][t] for t in range(d))) for j in range(d)]
            for i in range(d)
        ]
        if all(gram[i][i] != 0 for i in range(d)):
            return CovarianceMatrix.from_rows(gram)
