"""Rising factorials, double factorials, half-binomials, and terminating 2F1.

Everything here is a finite exact computation: the only hypergeometric series
accepted are those whose first upper parameter is a nonpositive integer, so
F(a,b,c;z) is a polynomial in z and the classical transformation laws (Pfaff,
Gauss contiguous relations, the differentiation formula) can be checked as
identities between rationals or between coefficient lists.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import Polynomial, Scalar, parse_rational


def pochhammer(alpha: Scalar, n: int) -> Fraction:
    """Rising factorial alpha (alpha+1) ... (alpha+n-1); empty product is 1.

    The n = 0 value is 1 for every alpha, including alpha = 0.
    """
    if n < 0:
        raise ValueError(f"pochhammer order must be >= 0, got {n}")
    alpha = parse_rational(alpha)
    p, q = alpha.numerator, alpha.denominator
    # (p/q + i) = (p + i q)/q: multiply the integer numerators, reduce once.
    num = 1
    for i in range(n):
        num *= p + i * q
    return Fraction(num, q**n)


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! for n >= 0, with the empty product (-1)!! = 1."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    acc = 1
    for i in range(1, n + 1):
        acc *= 2 * i - 1
    return acc


def half_binomial(n: int, k: int) -> Fraction:
    """(2n-1)!! / ((2n-2k-1)!! (2k-1)!!); generally not an integer."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    return Fraction(
        double_factorial_odd(n), double_factorial_odd(n - k) * double_factorial_odd(k)
    )


def _terminates(a: Fraction) -> bool:
    return a.denominator == 1 and a <= 0


def _termination_order(a: Fraction) -> int:
    if not _terminates(a):
        raise ValueError(f"first parameter must be a nonpositive integer, got {a}")
    return -int(a)


def _check_poles(c: Fraction, order: int) -> None:
    # (c)_i vanishes for some i <= order exactly when c in {0, -1, ..., -(order-1)}
    if c.denominator == 1 and -(order - 1) <= int(c) <= 0:
        raise ValueError(
            f"lower parameter c={c} hits a pole before the series terminates (length {order + 1})"
        )


def hyp2f1_terminating(a: Scalar, b: Scalar, c: Scalar, z: Scalar) -> Fraction:
    """Exact value of the terminating Gauss series F(a, b, c; z).

    Requires a in {0, -1, -2, ...}; raises ValueError otherwise, and when a
    factor of (c)_i vanishes within the |a|+1 summed terms.
    """
    a, b, c, z = map(parse_rational, (a, b, c, z))
    order = _termination_order(a)
    _check_poles(c, order)
    total = Fraction(0)
    term = Fraction(1)
    for i in range(order + 1):
        total += term
        if i < order:
            term *= (a + i) * (b + i) * z / ((c + i) * (i + 1))
    return total


def hyp2f1_poly(a: Scalar, b: Scalar, c: Scalar) -> Polynomial:
    """F(a, b, c; z) as a polynomial in z, built term-by-term from Pochhammer ratios.

    Independent of hyp2f1_terminating's running-term update, so the two routes
    cross-check each other.
    """
    a, b, c = map(parse_rational, (a, b, c))
    order = _termination_order(a)
    _check_poles(c, order)
    coeffs = [
        pochhammer(a, i) * pochhammer(b, i) / (pochhammer(c, i) * math.factorial(i))
        for i in range(order + 1)
    ]
    return Polynomial(coeffs)


def pfaff_check(a: Scalar, b: Scalar, c: Scalar, z: Scalar) -> bool:
    """Exact check of the Pfaff transformation at the given parameters.

        F(a, b, c; -z) = (1+z)^{-a} F(a, c-b, c; z/(1+z))

    With (a, b, c) = (-2r, 1/2+m, 1/2-n-2r) this is the identity that carries
    the moment expansion onto the c-minus-b form; z = -1 is excluded.
    """
    a, b, c, z = map(parse_rational, (a, b, c, z))
    order = _termination_order(a)
    if z == -1:
        raise ValueError("z = -1 is outside the Pfaff transformation's domain")
    lhs = hyp2f1_terminating(a, b, c, -z)
    rhs = (1 + z) ** order * hyp2f1_terminating(a, c - b, c, z / (1 + z))
    return lhs == rhs


def _scaled(coef: Fraction, a: Fraction, b: Fraction, c: Fraction, z: Fraction) -> Fraction:
    # A zero coefficient drops a shifted series that does not terminate.  A
    # terminating one is still evaluated, so a pole raises instead of vanishing.
    if coef == 0 and not _terminates(a):
        return Fraction(0)
    return coef * hyp2f1_terminating(a, b, c, z)


# Gauss's contiguous relations, each sum of coef * F(a+da, b+db, c+dc; z) = 0,
# as (coef, da, db, dc) terms in evaluation order.
_GAUSS_RELATIONS = {
    # c(1-z) F - c F(a-1) + (c-b) z F(c+1) = 0
    "R38": lambda a, b, c, z: (
        (c * (1 - z), 0, 0, 0),
        (-c, -1, 0, 0),
        ((c - b) * z, 0, 0, 1),
    ),
    # (b-a) F + a F(a+1) - b F(b+1) = 0
    "R32": lambda a, b, c, z: (
        (b - a, 0, 0, 0),
        (a, 1, 0, 0),
        (-b, 0, 1, 0),
    ),
    # [c - 2b + (b-a) z] F + b(1-z) F(b+1) - (c-b) F(b-1) = 0
    "R40": lambda a, b, c, z: (
        (c - 2 * b + (b - a) * z, 0, 0, 0),
        (b * (1 - z), 0, 1, 0),
        (b - c, 0, -1, 0),
    ),
}

CONTIGUOUS_RELATIONS = (*_GAUSS_RELATIONS, "DIFF")


def contiguous_check(relation: str, a: Scalar, b: Scalar, c: Scalar, z: Scalar) -> bool:
    """Exact check of one relation of CONTIGUOUS_RELATIONS: a Gauss contiguous
    relation, whose `_GAUSS_RELATIONS` terms must sum to zero, or the derivative
    formula

        DIFF: d/dz F(a,b,c;z) = (ab/c) F(a+1,b+1,c+1;z),

    compared coefficient-by-coefficient as polynomials in z (z is ignored).
    """
    a, b, c, z = map(parse_rational, (a, b, c, z))
    if relation == "DIFF":
        lhs = hyp2f1_poly(a, b, c).derivative()
        if a == 0 or b == 0:
            rhs = Polynomial()
        else:
            rhs = (a * b / c) * hyp2f1_poly(a + 1, b + 1, c + 1)
        return lhs == rhs
    if relation not in CONTIGUOUS_RELATIONS:
        raise ValueError(f"unknown relation {relation!r}; expected one of {CONTIGUOUS_RELATIONS}")
    terms = _GAUSS_RELATIONS[relation](a, b, c, z)
    return sum(_scaled(coef, a + da, b + db, c + dc, z) for coef, da, db, dc in terms) == 0
