"""Exact verification of the combinatorial identities behind the symmetric case.

Each check computes its two sides through genuinely different routes (finite
sums of binomials/rising factorials vs. closed forms) and returns a
`verifier.InequalityVerdict` with relation "==".  L is assembled by symbolic
expansion of shifted rising-factorial products into coefficient lists, never
by interpolation, so "L is identically zero" is a statement about coefficients.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .core import Polynomial, Scalar, format_rational, parse_rational
from .specialfn import hyp2f1_terminating, pochhammer
from .verifier import InequalityVerdict


def _require_l_le_r(l: int, r: int) -> None:
    if not 1 <= l <= r:
        raise ValueError(f"need 1 <= l <= r, got l={l}, r={r}")


def _ratio_sum(terms: list[tuple[int, int]]) -> Fraction:
    """sum of num/den over integer (num, den) terms: integers over the lcm, one reduction."""
    den = math.lcm(*[d for _, d in terms])
    return Fraction(sum(n * (den // d) for n, d in terms), den)


def check_symmetric_identity(n: int, r: int) -> InequalityVerdict:
    """Alternating Pochhammer sum against its closed product form.

        sum_{i=0}^{2r} (-1)^i C(2r,i) (1/2)_{n+2r-i} (1/2)_{n+i}
            = 2^{2r} (1/2)_n (1/2)_r (1/2)_{n+r}
    """
    if n < 0 or r < 1:
        raise ValueError(f"need n >= 0 and r >= 1, got n={n}, r={r}")
    # (1/2)_k = (2k-1)!!/2^k, so every lhs term shares the denominator
    # 2^{(n+2r-i)+(n+i)} = 4^{n+r}: sum the integer numerators, divide once.
    odd = list(itertools.accumulate(range(1, 2 * (n + 2 * r), 2), operator.mul, initial=1))
    lhs = Fraction(
        sum(
            (-1) ** i * math.comb(2 * r, i) * odd[n + 2 * r - i] * odd[n + i]
            for i in range(2 * r + 1)
        ),
        4 ** (n + r),
    )
    half = Fraction(1, 2)
    rhs = 2 ** (2 * r) * pochhammer(half, n) * pochhammer(half, r) * pochhammer(half, n + r)
    return InequalityVerdict("symmetric_identity", {"n": n, "r": r}, lhs, rhs, "==")


def check_lemma25(l: int, r: int) -> InequalityVerdict:
    """Binomial-ratio sum against its factorial closed form, for 1 <= l <= r.

        sum_{i=0}^{l-1} C(2r,i) C(l-1,i) / C(2r-l,i)  =  (2r)! / (2 r! r! C(2r-l,r))
    """
    _require_l_le_r(l, r)
    lhs = _ratio_sum(
        [(math.comb(2 * r, i) * math.comb(l - 1, i), math.comb(2 * r - l, i)) for i in range(l)]
    )
    rhs = Fraction(
        math.factorial(2 * r),
        2 * math.factorial(r) ** 2 * math.comb(2 * r - l, r),
    )
    return InequalityVerdict("lemma25_sum", {"l": l, "r": r}, lhs, rhs, "==")


def check_lemma27(l: int, r: int) -> InequalityVerdict:
    """Prefactored binomial sum that collapses to 1, for 1 <= l <= r.

        (2 r! (l-1)! (2r-2l+1)! / ((2r)! (r-l)!))
            * sum_{i=0}^{l-1} C(2r,i) C(2r-l-i, 2r-2l+1)  =  1
    """
    _require_l_le_r(l, r)
    prefactor = Fraction(
        2 * math.factorial(r) * math.factorial(l - 1) * math.factorial(2 * r - 2 * l + 1),
        math.factorial(2 * r) * math.factorial(r - l),
    )
    lhs = prefactor * sum(
        math.comb(2 * r, i) * math.comb(2 * r - l - i, 2 * r - 2 * l + 1) for i in range(l)
    )
    return InequalityVerdict("lemma27_product", {"l": l, "r": r}, lhs, Fraction(1), "==")


def check_corollary28(l: int, r: int) -> InequalityVerdict:
    """Reciprocal-binomial sum against 1/(2 C(r,l)), for 1 <= l <= r.

        sum_{i=0}^{l-1} C(l-1,i) / C(2r-i,l)  =  1 / (2 C(r,l))
    """
    _require_l_le_r(l, r)
    lhs = _ratio_sum([(math.comb(l - 1, i), math.comb(2 * r - i, l)) for i in range(l)])
    rhs = Fraction(1, 2 * math.comb(r, l))
    return InequalityVerdict("corollary28_sum", {"l": l, "r": r}, lhs, rhs, "==")


def check_kummer_classical(r: int, b: Scalar) -> InequalityVerdict:
    """Kummer's evaluation at z = -1 via the terminating series.

        F(-2r, b, 1-2r-b; -1)  =  (b)_r (2r)! / (r! (b)_{2r})

    For b > 0 the lower parameter 1-2r-b never hits a pole; other rational b
    may raise the series evaluation's ValueError for a pole.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    b = parse_rational(b)
    lhs = hyp2f1_terminating(-2 * r, b, 1 - 2 * r - b, -1)
    rhs = pochhammer(b, r) * math.factorial(2 * r) / (math.factorial(r) * pochhammer(b, 2 * r))
    return InequalityVerdict("kummer_classical", {"r": r, "b": format_rational(b)}, lhs, rhs, "==")


def build_polynomial_L(r: int) -> Polynomial:
    """The degree-r combination of shifted rising factorials that vanishes identically.

        L(x) = (2 r!/(2r)!) sum_{i=0}^{r-1} (-1)^i C(2r,i) (x+1+r)_{r-i} (x+1)_i
               + ((-1)^r / r!) (x+1)_r  -  1

    Assembled coefficient-by-coefficient; the zero-polynomial claim is then a
    statement about every coefficient, not about sampled values.  Each
    (x+1+r)_k is built once per r, and (x+1)_i grows one factor per term.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    upper = [Polynomial([1])]
    for k in range(r):
        upper.append(upper[-1] * Polynomial([1 + r + k, 1]))
    lower = Polynomial([1])
    total = Polynomial()
    for i in range(r):
        total = total + ((-1) ** i * math.comb(2 * r, i)) * (upper[r - i] * lower)
        lower = lower * Polynomial([1 + i, 1])
    total = Fraction(2 * math.factorial(r), math.factorial(2 * r)) * total
    total = total + Fraction((-1) ** r, math.factorial(r)) * lower
    return total - 1
