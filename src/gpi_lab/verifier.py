"""Exact verification of the product-moment inequalities and their machinery.

The gamma-polynomials are assembled from the moment engine (binomial expansion
of the two-sided power against exact standard-normal moments), so the bridge
to the terminating hypergeometric form (lemma 2.9) is a genuine coefficient
identity between two independently built polynomials and not a tautology.
Every claim returns a verdict with `holds` and `as_dict()`, decided by exact
rational comparison; strict-positivity claims over an interval are checked on
rational sample grids together with an exact convexity witness, and the
stationary-point agreement of consecutive B-polynomials (lemma 2.10) is
certified through a sign change inside an exactly isolated bracket.  A failed
step of that argument is a false certificate, never an exception.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Literal, Mapping, NamedTuple

from .core import FrozenDict, Polynomial, Scalar, format_rational, isolate_root, parse_rational
from .moments import CovarianceMatrix, gaussian_moment, univariate_even_moment
from .specialfn import double_factorial_odd, half_binomial, hyp2f1_poly, pochhammer

Relation = Literal[">=", ">", "=="]


def _fmt(value) -> object:
    if isinstance(value, Fraction):
        return format_rational(value)
    return value


class _InequalityFields(NamedTuple):
    claim: str
    params: Mapping[str, object]
    lhs: Fraction
    rhs: Fraction
    relation: Relation = ">="
    equality_condition_met: bool | None = None


class InequalityVerdict(_InequalityFields):
    """Exact verdict on one inequality (or equality) instance.

    `relation` records what the claim asserts: lhs >= rhs, lhs > rhs, or
    lhs == rhs.  `holds` and `equality` are derived, never stored, so they can
    not drift out of sync with the rationals.  `params` is frozen into a
    read-only dict whenever a verdict is built, by `_replace` too.
    """

    __slots__ = ()

    def __new__(cls, claim, params, *rest, **kwargs):
        return super().__new__(cls, claim, FrozenDict(params), *rest, **kwargs)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through here
        return cls(*iterable)

    @property
    def holds(self) -> bool:
        """The relation holds and, where `equality_condition_met` is stated,
        the verdict is an equality exactly when that condition is met."""
        if self.equality_condition_met is not None and self.equality_condition_met != self.equality:
            return False
        if self.relation == ">":
            return self.lhs > self.rhs
        if self.relation == "==":
            return self.lhs == self.rhs
        return self.lhs >= self.rhs

    @property
    def equality(self) -> bool:
        return self.lhs == self.rhs

    def as_dict(self) -> dict:
        return {
            "claim": self.claim,
            "params": {k: _fmt(v) for k, v in self.params.items()},
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
            "holds": self.holds,
            "equality": self.equality,
            "equality_condition_met": self.equality_condition_met,
        }


class GammaPolynomialSet(NamedTuple):
    """G, H, B for one (m, n, r): the moment polynomial, its excess over the
    conjectured constant, and its hypergeometric normalization."""

    G: Polynomial
    H: Polynomial
    B: Polynomial


class StationaryPointCertificate(NamedTuple):
    """Outcome of the consecutive-B stationary-point check.

    `bracket` isolates the unique root of B_{m+1}' in (0,1) to width
    LEMMA210_WIDTH; `diff_lo`/`diff_hi` are B_{m+1} - B_m at the bracket
    endpoints, so diff_lo * diff_hi <= 0 certifies the two polynomials meet
    inside it.  All three are None when B_{m+1}' does not go from negative at
    0 to positive at 1: that step of the proof failed, and the certificate
    does not hold.
    """

    m: int
    n: int
    r: int
    bracket: tuple[Fraction, Fraction] | None
    diff_lo: Fraction | None
    diff_hi: Fraction | None
    derivative_at_half: Fraction | None = None

    @property
    def stationary_values_agree(self) -> bool:
        return self.bracket is not None and self.diff_lo * self.diff_hi <= 0

    @property
    def min_left_of_half(self) -> bool | None:
        if self.derivative_at_half is None:
            return None
        return self.derivative_at_half > 0

    @property
    def holds(self) -> bool:
        """The values agree and, for m = n, the minimum lies left of 1/2."""
        return self.stationary_values_agree and self.min_left_of_half is not False

    def as_dict(self) -> dict:
        return {
            "claim": "lemma_stationary_match",
            "params": {"m": self.m, "n": self.n, "r": self.r},
            "bracket": None if self.bracket is None else [format_rational(x) for x in self.bracket],
            "diff_lo": _fmt(self.diff_lo),
            "diff_hi": _fmt(self.diff_hi),
            "holds": self.holds,
            "derivative_at_half": _fmt(self.derivative_at_half),
            "min_left_of_half": self.min_left_of_half,
        }


_STD_PAIR = CovarianceMatrix.diagonal([1, 1])

# Bracket width of the lemma 2.10 root isolation.
LEMMA210_WIDTH = Fraction(1, 2**20)


def build_gamma_polynomials(m: int, n: int, r: int) -> GammaPolynomialSet:
    """Expand E[U^{2m} V^{2n} (gamma (U^2+V^2) - V^2)^{2r}] into powers of gamma.

    G comes straight from the binomial theorem and exact standard-normal
    moments; H subtracts the constant 2^{m+n+2r} (1/2)_m (1/2)_{n+r} (1/2)_r;
    B rescales G by the positive constant 2^{m+n+2r} (1/2)_m (1/2)_{n+2r}.
    """
    if m < 0 or n < 0 or r < 1:
        raise ValueError(f"need m, n >= 0 and r >= 1, got m={m}, n={n}, r={r}")
    coeffs = []
    for i in range(2 * r + 1):
        # E[U^{2(m+j)} V^{2(n+2r-j)}] for independent standard normals, through
        # the moment engine.
        inner = sum(
            (
                math.comb(i, j)
                * gaussian_moment(_STD_PAIR, (2 * (m + j), 2 * (n + 2 * r - j)))
                for j in range(i + 1)
            ),
            Fraction(0),
        )
        coeffs.append((-1) ** i * math.comb(2 * r, i) * inner)
    g = Polynomial(coeffs)
    half = Fraction(1, 2)
    shift = (
        2 ** (m + n + 2 * r)
        * pochhammer(half, m)
        * pochhammer(half, n + r)
        * pochhammer(half, r)
    )
    scale = 2 ** (m + n + 2 * r) * pochhammer(half, m) * pochhammer(half, n + 2 * r)
    return GammaPolynomialSet(G=g, H=g - shift, B=(1 / scale) * g)


def check_lemma29(m: int, n: int, r: int) -> InequalityVerdict:
    """Lemma 2.9 as a coefficient identity in gamma:

        G = 2^{m+n+2r} (1/2)_m (1/2)_{n+2r} F(-2r, -m-n-2r; 1/2-n-2r; gamma)

    lhs is the sum of |coefficients| of the difference, so it holds iff the
    moment-built G and the scaled Gauss series are the same polynomial.
    """
    g = build_gamma_polynomials(m, n, r).G
    half = Fraction(1, 2)
    scale = 2 ** (m + n + 2 * r) * pochhammer(half, m) * pochhammer(half, n + 2 * r)
    series = hyp2f1_poly(-2 * r, -m - n - 2 * r, half - n - 2 * r)
    residue = sum((abs(c) for c in (g - scale * series).coeffs), Fraction(0))
    return InequalityVerdict("lemma29", {"m": m, "n": n, "r": r}, residue, Fraction(0), "==")


def check_H_positivity(
    m: int, n: int, r: int, sample_count: int = 50
) -> list[InequalityVerdict]:
    """H's exact zero at 1/2 (m = n), strict positivity at sampled gammas, and
    the convexity witness H'' > 0 at the same samples."""
    if not (m >= n >= 0) or r < 1:
        raise ValueError(f"need m >= n >= 0 and r >= 1, got m={m}, n={n}, r={r}")
    h = build_gamma_polynomials(m, n, r).H
    h2 = h.derivative().derivative()
    half = Fraction(1, 2)
    verdicts = []
    if m == n:
        verdicts.append(
            InequalityVerdict(
                "H_nn_half_zero", {"m": m, "n": n, "r": r}, h(half), Fraction(0), "=="
            )
        )
    for t in range(1, sample_count + 1):
        gamma = Fraction(t, sample_count + 1)
        if m == n and gamma == half:
            continue
        base = {"m": m, "n": n, "r": r, "gamma": gamma}
        verdicts.append(InequalityVerdict("H_positive", base, h(gamma), Fraction(0), ">"))
        verdicts.append(
            InequalityVerdict("H_convexity", base, h2(gamma), Fraction(0), ">")
        )
    return verdicts


def check_lemma210(m: int, n: int, r: int) -> StationaryPointCertificate:
    """Certify that B_{m+1} and B_m agree at the minimum point of B_{m+1}.

    The derivative root gamma_{m+1} is isolated in (0,1) by exact bisection to
    a bracket of width LEMMA210_WIDTH; B_{m+1} - B_m must change sign (or
    vanish) inside it.  Without the derivative's sign change there is no
    bracket and the certificate fails.
    For m = n the derivative of B_{n+1} at 1/2 is also reported: its positive
    sign is the exact certificate that gamma_{n+1} < 1/2.
    """
    if not (m >= n >= 0) or r < 1:
        raise ValueError(f"need m >= n >= 0 and r >= 1, got m={m}, n={n}, r={r}")
    b_next = build_gamma_polynomials(m + 1, n, r).B
    b_curr = build_gamma_polynomials(m, n, r).B
    db = b_next.derivative()
    at_half = db(Fraction(1, 2)) if m == n else None
    if not (db(0) < 0 < db(1)):
        return StationaryPointCertificate(m, n, r, None, None, None, at_half)
    lo, hi = isolate_root(db, 0, 1, LEMMA210_WIDTH)
    diff = b_next - b_curr
    return StationaryPointCertificate(
        m, n, r, (lo, hi), diff(lo), diff(hi), derivative_at_half=at_half
    )


def check_min_C(m: int, n: int, r: int) -> InequalityVerdict:
    """The Prop 2.1 constant: min over 0 <= i <= r of C(i) = hb(m+r-i, r-i) hb(n+i, i)
    equals hb(min(m,n)+r, r), the value of C at an endpoint (C is unimodal with
    its peak strictly inside)."""
    if m < 1 or n < 1 or r < 1:
        raise ValueError(f"need m, n, r >= 1, got m={m}, n={n}, r={r}")
    lhs = min(half_binomial(m + r - i, r - i) * half_binomial(n + i, i) for i in range(r + 1))
    rhs = half_binomial(min(m, n) + r, r)
    return InequalityVerdict("prop21_constant", {"m": m, "n": n, "r": r}, lhs, rhs, "==")


def _require_positive(name: str, value: Fraction) -> Fraction:
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_prop21(m: int, n: int, r: int, a2: Scalar, b2: Scalar) -> InequalityVerdict:
    """E[X^{2m} Y^{2n} (X+Y)^{2r}] >= hb((m^n)+r, r) E[X^{2m}] E[Y^{2n}] E[(X+Y)^{2r}]
    for independent X, Y with variances a2, b2."""
    if m < 1 or n < 1 or r < 1:
        raise ValueError(f"need m, n, r >= 1, got m={m}, n={n}, r={r}")
    a2 = _require_positive("a2", parse_rational(a2))
    b2 = _require_positive("b2", parse_rational(b2))
    cov3 = CovarianceMatrix.from_rows(
        [[a2, 0, a2], [0, b2, b2], [a2, b2, a2 + b2]]
    )
    lhs = gaussian_moment(cov3, (2 * m, 2 * n, 2 * r))
    rhs = (
        half_binomial(min(m, n) + r, r)
        * univariate_even_moment(a2, m)
        * univariate_even_moment(b2, n)
        * univariate_even_moment(a2 + b2, r)
    )
    return InequalityVerdict(
        "prop21", {"m": m, "n": n, "r": r, "a2": a2, "b2": b2}, lhs, rhs
    )


def check_thm22(m: int, n: int, r: int, a2: Scalar, b2: Scalar) -> InequalityVerdict:
    """E[X^{2m} Y^{2n} (X^2-Y^2)^{2r}] >= hb((m^n)+r, r) E[X^{2m}] E[Y^{2n}] (E[(X+Y)^{2r}])^2.

    The left side is expanded binomially into independent even moments, not
    routed through the joint-moment engine; equality holds exactly on
    {m = n and a2 = b2}, which the verdict records as the condition flag.
    """
    if m < 0 or n < 0 or r < 1:
        raise ValueError(f"need m, n >= 0 and r >= 1, got m={m}, n={n}, r={r}")
    a2 = _require_positive("a2", parse_rational(a2))
    b2 = _require_positive("b2", parse_rational(b2))
    lhs = sum(
        (
            (-1) ** i
            * math.comb(2 * r, i)
            * univariate_even_moment(a2, m + 2 * r - i)
            * univariate_even_moment(b2, n + i)
            for i in range(2 * r + 1)
        ),
        Fraction(0),
    )
    rhs = (
        half_binomial(min(m, n) + r, r)
        * univariate_even_moment(a2, m)
        * univariate_even_moment(b2, n)
        * univariate_even_moment(a2 + b2, r) ** 2
    )
    return InequalityVerdict(
        "thm22",
        {"m": m, "n": n, "r": r, "a2": a2, "b2": b2},
        lhs,
        rhs,
        equality_condition_met=(m == n and a2 == b2),
    )


def check_cor23(m: int, n: int, r: int, cov2: CovarianceMatrix) -> InequalityVerdict:
    """The rotated form on (Z, W) with equal variances:

        E[Z^{2r} W^{2r} (Z+W)^{2m} (Z-W)^{2n}]
            >= hb((m^n)+r, r) (E[Z^{2r}])^2 E[(Z+W)^{2m}] E[(Z-W)^{2n}]

    computed through the rank-2 4x4 covariance of (Z, W, Z+W, Z-W); equality
    holds exactly on {m = n and E[ZW] = 0}.
    """
    if m < 0 or n < 0 or r < 1:
        raise ValueError(f"need m, n >= 0 and r >= 1, got m={m}, n={n}, r={r}")
    if cov2.dim != 2:
        raise ValueError(f"need a 2x2 covariance, got {cov2.dim}x{cov2.dim}")
    s, c = cov2.entries[0][0], cov2.entries[0][1]
    if cov2.entries[1][1] != s:
        raise ValueError(
            f"Z and W must share their variance, got {s} and {cov2.entries[1][1]}"
        )
    _require_positive("variance", s)
    cov4 = CovarianceMatrix.from_rows(
        [
            [s, c, s + c, s - c],
            [c, s, s + c, c - s],
            [s + c, s + c, 2 * (s + c), 0],
            [s - c, c - s, 0, 2 * (s - c)],
        ]
    )
    lhs = gaussian_moment(cov4, (2 * r, 2 * r, 2 * m, 2 * n))
    rhs = (
        half_binomial(min(m, n) + r, r)
        * univariate_even_moment(s, r) ** 2
        * univariate_even_moment(2 * (s + c), m)
        * univariate_even_moment(2 * (s - c), n)
    )
    return InequalityVerdict(
        "cor23",
        {"m": m, "n": n, "r": r, "variance": s, "cross": c},
        lhs,
        rhs,
        equality_condition_met=(m == n and c == 0),
    )


def degenerate_covariance(a: Scalar, sigma2: Scalar) -> CovarianceMatrix:
    """Covariance of the rank-deficient triple (X, Y, Z) = (U + aZ, U + bZ, Z)
    with b = a - 1, so Z = X - Y, E[Z^2] = 1 and E[U^2] = sigma2.

    sigma2 may be zero (rank-1 boundary) as long as X and Y keep positive
    variance.
    """
    a, s2 = parse_rational(a), parse_rational(sigma2)
    b = a - 1
    if s2 < 0:
        raise ValueError(f"need sigma2 >= 0, got {s2}")
    if s2 + a**2 == 0 or s2 + b**2 == 0:
        raise ValueError("X and Y must have positive variance")
    return CovarianceMatrix.from_rows(
        [
            [s2 + a * a, s2 + a * b, a],
            [s2 + a * b, s2 + b * b, b],
            [a, b, Fraction(1)],
        ]
    )


def check_lemma31(m: int, n: int, a: Scalar, sigma2: Scalar) -> InequalityVerdict:
    """Strict inequality for the rank-deficient triple of `degenerate_covariance`:

        E[X^{2m} Y^{2m} Z^{2n}] > E[X^{2m}] E[Y^{2m}] E[Z^{2n}]

    Both sides are check_thm32's on that covariance; only the relation is strict.
    """
    a, sigma2 = parse_rational(a), parse_rational(sigma2)
    params = {"m": m, "n": n, "a": a, "b": a - 1, "sigma2": sigma2}
    base = check_thm32(m, n, degenerate_covariance(a, sigma2))
    return base._replace(claim="lemma31", params=params, relation=">")


def check_thm32(m: int, n: int, cov3: CovarianceMatrix) -> InequalityVerdict:
    """E[X^{2m} Y^{2m} Z^{2n}] >= E[X^{2m}] E[Y^{2m}] E[Z^{2n}] for any centered
    Gaussian triple with positive variances; equality holds exactly for
    independent coordinates, which the verdict records as the condition flag."""
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    if cov3.dim != 3:
        raise ValueError(f"need a 3x3 covariance, got {cov3.dim}x{cov3.dim}")
    s = cov3.scaled
    if any(s[i][i] == 0 for i in range(3)):
        raise ValueError("every coordinate must have positive variance")
    lhs = gaussian_moment(cov3, (2 * m, 2 * m, 2 * n))
    # (2m-1)!!^2 (2n-1)!! s00^m s11^m s22^n over D^(2m+n), with s = D * cov3.
    rhs = Fraction(
        double_factorial_odd(m) ** 2 * double_factorial_odd(n)
        * (s[0][0] * s[1][1]) ** m * s[2][2] ** n,
        cov3.denominator ** (2 * m + n),
    )
    # S is symmetric, so the upper triangle holds every off-diagonal entry.
    independent = s[0][1] == s[0][2] == s[1][2] == 0
    return InequalityVerdict("thm32", {"m": m, "n": n}, lhs, rhs, ">=", independent)


def check_main(m: int, cov3: CovarianceMatrix) -> InequalityVerdict:
    """The three-dimensional product inequality at equal exponents: check_thm32
    with n = m, an equality exactly when every off-diagonal covariance vanishes."""
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    return check_thm32(m, m, cov3)._replace(claim="main", params={"m": m})


WEI_COUNTEREXAMPLE_COV = CovarianceMatrix.from_rows(
    [[1, 1, 1], [1, 5, -3], [1, -3, 5]]
)


def counterexample_wei() -> tuple[Fraction, Fraction]:
    """The split-product failure for (U, U+2V, U-2V) with U, V independent
    standard normals: returns (E[U^2 (U+2V)^2 (U-2V)^2], E[U^2] E[(U+2V)^2 (U-2V)^2]),
    which is exactly (39, 43)."""
    lhs = gaussian_moment(WEI_COUNTEREXAMPLE_COV, (2, 2, 2))
    tail = CovarianceMatrix.from_rows([[5, -3], [-3, 5]])
    rhs = univariate_even_moment(Fraction(1), 1) * gaussian_moment(tail, (2, 2))
    return lhs, rhs
