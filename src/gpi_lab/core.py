"""Exact scalar, polynomial, and PRNG primitives shared by every other module.

Every quantity that enters a verdict is an arbitrary-precision rational
(``fractions.Fraction``); floating point never participates in a comparison.
Every `Scalar` input in the package is read through `parse_rational`, which
refuses binary floats.  Verdict parameters are held in a read-only dict.
Polynomials are dense lists of integer numerators over one denominator, and
Lemma 2.10's root isolation is exact-sign bisection on [0, 1].
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[Fraction, int, str]

_MASK64 = (1 << 64) - 1


def parse_rational(text: Scalar) -> Fraction:
    """Parse "p/q" (or a bare integer "p") into a reduced Fraction.

    Unreduced input and negative denominators are accepted and normalized.
    Binary floats are rejected: they silently encode rounding the exact core
    exists to avoid.  So are booleans, which Fraction would read as 0 and 1.
    Every rejection, a zero denominator included, is a ValueError.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, (bool, float)):
        raise ValueError(
            f"refusing {type(text).__name__} {text!r}; pass an exact \"p/q\" string instead"
        )
    if isinstance(text, str) and text.count("/") == 1:
        try:
            num, den = (int(part.strip()) for part in text.split("/"))
        except ValueError:
            raise ValueError(f"{text!r} is not p/q with integers p and q") from None
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(text)


def format_rational(x: Scalar) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    return str(parse_rational(x))


class FrozenDict(dict):
    """A read-only, hashable dict: item assignment, deletion and the updating
    methods raise TypeError.  Copy and pickle rebuild it through the constructor."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls)
        dict.update(self, *args, **kwargs)
        return self

    def __init__(self, *args, **kwargs):
        """Filled once, in `__new__`: a second call changes nothing."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self) -> int:
        # Over the items as a set, so equal dicts in any key order hash equal.
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return (type(self), (dict(self),))


class Polynomial:
    """Immutable dense polynomial whose x^i coefficient is nums[i] / den.

    Integer numerators over one denominator, kept canonical: den >= 1,
    gcd(den, *nums) == 1 and no trailing zero, so zero has no numerators.
    Arithmetic works on the integers and reduces once per result; evaluation
    is integer Horner building one Fraction.
    """

    __slots__ = ("nums", "den")

    def __new__(cls, coeffs: Iterable[Scalar] = ()):
        cs = [parse_rational(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in cs])
        return _reduced([c.numerator * (den // c.denominator) for c in cs], den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor, since
        # the default restores the slots through __setattr__.
        return (Polynomial, (self.coeffs,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, constant term first."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def __call__(self, x: Scalar) -> Fraction:
        a, b = parse_rational(x).as_integer_ratio()
        acc, scale = 0, 1  # acc ends as sum nums[i] a^i b^(degree - i)
        for c in reversed(self.nums):
            acc, scale = acc * a + c * scale, scale * b
        return Fraction(acc * b, self.den * scale)

    def derivative(self) -> "Polynomial":
        return _reduced([i * c for i, c in enumerate(self.nums)][1:], self.den)

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        elif not isinstance(other, Polynomial):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        pairs = itertools.zip_longest(self.nums, other.nums, fillvalue=0)
        return _reduced([x * sa + y * sb for x, y in pairs], den)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _reduced([-c for c in self.nums], self.den)

    def __sub__(self, other) -> "Polynomial":
        # Scalars are read as polynomials first, so a bool is refused as in +.
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        return self + -other if isinstance(other, Polynomial) else NotImplemented

    def __rsub__(self, other) -> "Polynomial":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            a, b = self.nums, other.nums
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x == 0:
                    continue
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return _reduced(out, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            k = parse_rational(other)
            return _reduced([c * k.numerator for c in self.nums], self.den * k.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.nums == other.nums and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"


def _reduced(nums: list[int], den: int) -> Polynomial:
    """The polynomial nums / den (den > 0), in lowest terms without trailing zeros."""
    while nums and nums[-1] == 0:
        nums.pop()
    g = math.gcd(den, *nums)
    if g > 1:
        nums, den = [c // g for c in nums], den // g
    p = object.__new__(Polynomial)
    object.__setattr__(p, "nums", tuple(nums))
    object.__setattr__(p, "den", den)
    return p


def isolate_root(p: Polynomial, width: Fraction) -> tuple[Fraction, Fraction]:
    """Halve [0, 1] around the root of p until the bracket is at most `width` wide.

    Lemma 2.10's bisection: the caller guarantees p(0) < 0 < p(1) and width > 0.
    A midpoint that is an exact root yields the degenerate bracket (mid, mid).
    """
    lo, hi = Fraction(0), Fraction(1)
    while hi - lo > width:
        mid = (lo + hi) / 2
        value = p(mid)
        if value == 0:
            return (mid, mid)
        if value < 0:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


class SplitMix64:
    """splitmix64 stepping over a 64-bit state.

    Identical seeds produce identical streams on every platform; this is the
    only randomness source in the package, so sweeps replay bit-for-bit.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive; rejection keeps it unbiased."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        if span > _MASK64 + 1:
            raise ValueError(f"range [{lo}, {hi}] holds more than 2^64 integers")
        limit = ((_MASK64 + 1) // span) * span
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + u % span
