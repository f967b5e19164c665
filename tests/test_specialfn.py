"""Special-function anchors and the transformation-law property sweeps."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpi_lab import specialfn
from gpi_lab.core import Polynomial, SplitMix64
from gpi_lab.specialfn import (
    contiguous_check,
    double_factorial_odd,
    half_binomial,
    hyp2f1_poly,
    hyp2f1_terminating,
    pfaff_check,
    pochhammer,
)

from conftest import rationals

HALF = Fraction(1, 2)


def running_product(alpha: Fraction, n: int) -> Fraction:
    """(alpha)_n one Fraction multiply at a time: the product before the integer path."""
    acc = Fraction(1)
    for i in range(n):
        acc *= alpha + i
    return acc


class TestPochhammer:
    def test_rising_one_is_factorial(self):
        assert pochhammer(1, 4) == 24

    def test_half_squared(self):
        assert pochhammer(HALF, 2) == Fraction(3, 4)

    def test_negative_integer_hits_zero(self):
        assert pochhammer(-3, 5) == 0

    def test_empty_product_for_every_alpha(self):
        assert pochhammer(0, 0) == 1
        assert pochhammer(Fraction(-7, 3), 0) == 1

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="pochhammer order must be >= 0"):
            pochhammer(1, -1)

    @given(
        st.one_of(rationals(max_num=40, max_den=12), st.integers(-30, 0).map(Fraction)),
        st.integers(0, 60),
    )
    def test_matches_running_fraction_product(self, alpha, n):
        value = pochhammer(alpha, n)
        assert value == running_product(alpha, n)
        assert math.gcd(value.numerator, value.denominator) == 1
        if alpha.denominator == 1 and alpha <= 0 and n > -alpha:
            assert value == 0

    @given(rationals(max_num=10, max_den=6), st.integers(0, 10), st.integers(0, 10))
    def test_shift_multiplicativity(self, alpha, m, n):
        assert pochhammer(alpha, m + n) == pochhammer(alpha, m) * pochhammer(alpha + m, n)


class TestDoubleFactorial:
    def test_empty_product(self):
        assert double_factorial_odd(0) == 1

    def test_one_three_five(self):
        assert double_factorial_odd(3) == 15

    def test_matches_pochhammer_identity(self):
        for n in range(31):
            assert double_factorial_odd(n) == 2**n * pochhammer(HALF, n)


class TestHalfBinomial:
    def test_paper_values(self):
        assert half_binomial(4, 2) == Fraction(35, 3)
        assert half_binomial(6, 3) == Fraction(231, 5)

    def test_edges_are_one(self):
        for n in range(10):
            assert half_binomial(n, 0) == 1
            assert half_binomial(n, n) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="need 0 <= k <= n"):
            half_binomial(3, 4)
        with pytest.raises(ValueError, match="need 0 <= k <= n"):
            half_binomial(3, -1)

    def test_symmetry_and_lower_bound(self):
        for n in range(21):
            for k in range(n + 1):
                value = half_binomial(n, k)
                assert value == half_binomial(n, n - k)
                assert value >= 1

    def test_monotone_in_both_arguments(self):
        for k in range(21):
            for r in range(21):
                value = half_binomial(k + r, r)
                if k >= 1:
                    assert value >= half_binomial(k - 1 + r, r)
                if r >= 1:
                    assert value >= half_binomial(k + r - 1, r - 1)

    def test_at_least_three_off_axis(self):
        assert half_binomial(2, 1) == 3
        for k in range(1, 16):
            for r in range(1, 16):
                assert half_binomial(k + r, r) >= 3


class TestTerminatingSeries:
    def test_single_step(self):
        # F(-1, b, c; z) = 1 - (b/c) z
        assert hyp2f1_terminating(-1, 3, 2, HALF) == Fraction(1, 4)

    def test_perfect_square_series(self):
        # F(-2, 1, 1; z) = (1-z)^2
        assert hyp2f1_terminating(-2, 1, 1, 1) == 0
        assert hyp2f1_terminating(-2, 1, 1, HALF) == Fraction(1, 4)

    def test_bridge_anchor(self):
        assert hyp2f1_terminating(-2, -2, Fraction(-3, 2), HALF) == Fraction(1, 3)

    def test_at_zero(self):
        assert hyp2f1_terminating(-5, Fraction(7, 3), Fraction(-9, 2), 0) == 1

    def test_non_terminating_rejected(self):
        with pytest.raises(ValueError, match="first parameter must be a nonpositive integer"):
            hyp2f1_terminating(HALF, 1, 1, HALF)
        with pytest.raises(ValueError, match="first parameter must be a nonpositive integer"):
            hyp2f1_terminating(2, 1, 1, HALF)

    def test_pole_before_termination(self):
        # c = -1 vanishes at the i = 2 factor of (c)_i while the series runs to i = 3
        with pytest.raises(ValueError, match="hits a pole before the series terminates"):
            hyp2f1_terminating(-3, 1, -1, HALF)

    def test_pole_after_termination_is_fine(self):
        # c = -2 only hits zero at offset 2 = |a|, past the last needed factor
        assert hyp2f1_terminating(-2, 1, -2, 1) == Fraction(3)

    @given(
        st.integers(-6, 0),
        rationals(max_num=8, max_den=4),
        st.integers(-6, 6),
        rationals(max_num=6, max_den=5),
    )
    def test_series_is_polynomial_of_bounded_degree(self, a, b, c_tw, z):
        c = c_tw + HALF  # half-integers never pole
        poly = hyp2f1_poly(a, b, c)
        assert poly.degree <= -a
        assert poly(z) == hyp2f1_terminating(a, b, c, z)
        # coefficient list matches the term-by-term Pochhammer ratios
        for i, coeff in enumerate(poly.coeffs):
            expected = (
                pochhammer(a, i) * pochhammer(b, i) / (pochhammer(c, i) * math.factorial(i))
            )
            assert coeff == expected


def pfaff_bridge(r, m, n, z):
    """(a, b, c; z) = (-2r, 1/2 + m, 1/2 - n - 2r; z), the Pfaff step of the moment bridge."""
    return -2 * r, HALF + m, HALF - n - 2 * r, z


class TestPfaff:
    def test_examples(self):
        assert pfaff_check(*pfaff_bridge(1, 0, 0, Fraction(1, 3)))
        assert pfaff_check(*pfaff_bridge(1, 1, 0, HALF))

    def test_z_zero_trivial(self):
        assert pfaff_check(*pfaff_bridge(2, 1, 3, 0))

    def test_z_minus_one_rejected(self):
        with pytest.raises(ValueError, match="z = -1 is outside"):
            pfaff_check(*pfaff_bridge(1, 0, 0, -1))

    def test_random_sweep(self):
        gen = SplitMix64(0x5EEDFACE)
        checked = 0
        while checked < 500:
            r = gen.randint(1, 3)
            m = gen.randint(0, 3)
            n = gen.randint(0, 3)
            z = Fraction(gen.randint(-6, 6), gen.randint(1, 6))
            if z == -1:
                continue
            assert pfaff_check(*pfaff_bridge(r, m, n, z))
            checked += 1


class TestContiguous:
    PARAMS = (-2, -3, Fraction(-7, 2), Fraction(1, 4))

    def test_r32_example(self):
        assert contiguous_check("R32", *self.PARAMS)

    def test_r38_and_r40(self):
        assert contiguous_check("R38", *self.PARAMS)
        assert contiguous_check("R40", *self.PARAMS)

    def test_diff_as_coefficient_identity(self):
        assert contiguous_check("DIFF", -2, -2, Fraction(-3, 2), 0)

    def test_trivial_at_z_zero(self):
        for relation in ("R38", "R32", "R40"):
            assert contiguous_check(relation, -3, Fraction(5, 2), Fraction(9, 2), 0)

    def test_unknown_relation(self):
        with pytest.raises(ValueError, match="unknown relation 'R99'"):
            contiguous_check("R99", *self.PARAMS)

    SWEEP_SEEDS = {"R38": 38, "R32": 32, "R40": 40, "DIFF": 20}

    @pytest.mark.parametrize("relation", ["R38", "R32", "R40", "DIFF"])
    def test_random_sweep(self, relation):
        gen = SplitMix64(self.SWEEP_SEEDS[relation])
        for _ in range(500):
            a = Fraction(gen.randint(-6, -1))
            b = Fraction(gen.randint(-8, 8), gen.randint(1, 4))
            c = Fraction(gen.randint(-6, 5)) + HALF
            z = Fraction(gen.randint(-6, 6), gen.randint(1, 5))
            assert contiguous_check(relation, a, b, c, z), (relation, a, b, c, z)


# A law must be refutable: with one series of the law off, it must not hold.
A, B, C, Z = Fraction(-2), HALF, Fraction(-7, 2), Fraction(1, 4)


def skew_series(monkeypatch, *skewed):
    """hyp2f1_terminating, off by one at each (a, b, c, z) in `skewed`."""
    real = specialfn.hyp2f1_terminating

    def off_by_one(a, b, c, z):
        value = real(a, b, c, z)
        return value + 1 if (a, b, c, z) in skewed else value

    monkeypatch.setattr(specialfn, "hyp2f1_terminating", off_by_one)


class TestLawsAreRefutable:
    def test_every_law_holds_unskewed(self):
        assert pfaff_check(A, B, C, Z)
        for relation in ("R38", "R32", "R40", "DIFF"):
            assert contiguous_check(relation, A, B, C, Z), relation

    @pytest.mark.parametrize(
        "relation, shift",
        [
            ("R38", (0, 0, 0)),
            ("R38", (-1, 0, 0)),
            ("R38", (0, 0, 1)),
            ("R32", (0, 0, 0)),
            ("R32", (1, 0, 0)),
            ("R32", (0, 1, 0)),
            ("R40", (0, 0, 0)),
            ("R40", (0, 1, 0)),
            ("R40", (0, -1, 0)),
        ],
        ids=str,
    )
    def test_contiguous_relation_refutes_a_skewed_series(self, monkeypatch, relation, shift):
        da, db, dc = shift
        skew_series(monkeypatch, (A + da, B + db, C + dc, Z))
        assert contiguous_check(relation, A, B, C, Z) is False

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    def test_pfaff_refutes_a_skewed_side(self, monkeypatch, side):
        skewed = (A, B, C, -Z) if side == "lhs" else (A, C - B, C, Z / (1 + Z))
        skew_series(monkeypatch, skewed)
        assert pfaff_check(A, B, C, Z) is False

    @pytest.mark.parametrize("params", [(A, B, C), (A + 1, B + 1, C + 1)], ids=["F", "F+1"])
    def test_diff_refutes_a_skewed_polynomial(self, monkeypatch, params):
        real = specialfn.hyp2f1_poly

        def off_by_z(a, b, c):
            poly = real(a, b, c)
            return poly + Polynomial([0, 1]) if (a, b, c) == params else poly

        monkeypatch.setattr(specialfn, "hyp2f1_poly", off_by_z)
        assert contiguous_check("DIFF", A, B, C, Z) is False
