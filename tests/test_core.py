"""Exact-core checks: rational serialization, polynomials, bisection, PRNG."""

from __future__ import annotations

import copy
import math
import operator
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpi_lab.core import (
    FrozenDict,
    Polynomial,
    SplitMix64,
    format_rational,
    isolate_root,
    parse_rational,
)
from gpi_lab.identities import check_kummer_classical
from gpi_lab.moments import CovarianceMatrix, is_psd, univariate_even_moment
from gpi_lab.specialfn import (
    contiguous_check,
    hyp2f1_poly,
    hyp2f1_terminating,
    pfaff_check,
    pochhammer,
)
from gpi_lab.verifier import check_lemma31, check_prop21, check_thm22

from conftest import polynomials, rationals

HALF = Fraction(1, 2)


class TestRationalSerialization:
    def test_parse_reduces(self):
        assert parse_rational("6/4") == Fraction(3, 2)

    def test_parse_negative_denominator(self):
        assert parse_rational("3/-6") == Fraction(-1, 2)

    def test_integer_form(self):
        assert parse_rational("7") == 7
        assert format_rational(Fraction(7)) == "7"

    def test_format_reduced(self):
        assert format_rational(Fraction(35, 3)) == "35/3"
        assert format_rational(Fraction(-1, 2)) == "-1/2"

    def test_division_by_zero_rejected(self):
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            parse_rational("1/0")

    @pytest.mark.parametrize("text", ["1.5/2", "1/x", "/2", "2/"])
    def test_non_integer_part_names_the_input(self, text):
        # int() once named only the bad part, or read "1.5" as an int literal.
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_rational(text)

    def test_binary_floats_rejected(self):
        with pytest.raises(ValueError):
            parse_rational(0.1)

    def test_booleans_rejected(self):
        # Fraction(True) is 1, so a JSON true once passed as a rational.
        for flag in (True, False):
            with pytest.raises(ValueError, match=f"refusing bool {flag}"):
                parse_rational(flag)

    def test_decimal_strings_are_exact(self):
        assert parse_rational("0.1") == Fraction(1, 10)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda x: Polynomial([x]), id="Polynomial"),
            pytest.param(lambda x: Polynomial([1, 1])(x), id="Polynomial.__call__"),
            pytest.param(lambda x: format_rational(x), id="format_rational"),
            pytest.param(
                lambda x: CovarianceMatrix.from_rows([[x]]), id="CovarianceMatrix.from_rows"
            ),
            pytest.param(lambda x: CovarianceMatrix(((x,),)), id="CovarianceMatrix"),
            pytest.param(lambda x: CovarianceMatrix.diagonal([x]), id="CovarianceMatrix.diagonal"),
            pytest.param(lambda x: is_psd([[x]]), id="is_psd"),
            pytest.param(lambda x: univariate_even_moment(x, 1), id="univariate_even_moment"),
            pytest.param(lambda x: pochhammer(x, 1), id="pochhammer"),
            pytest.param(lambda x: hyp2f1_terminating(-1, x, 1, 1), id="hyp2f1_terminating"),
            pytest.param(lambda x: hyp2f1_poly(-1, x, 1), id="hyp2f1_poly"),
            pytest.param(lambda x: pfaff_check(-1, x, 1, 1), id="pfaff_check"),
            pytest.param(lambda x: contiguous_check("R32", -1, x, 1, 1), id="contiguous_check"),
            pytest.param(lambda x: check_lemma31(1, 1, x, 1), id="check_lemma31.a"),
            pytest.param(lambda x: check_lemma31(1, 1, 2, x), id="check_lemma31.sigma2"),
            pytest.param(lambda x: check_prop21(1, 1, 1, x, 1), id="check_prop21"),
            pytest.param(lambda x: check_thm22(1, 1, 1, 1, x), id="check_thm22"),
            pytest.param(lambda x: check_kummer_classical(1, x), id="check_kummer_classical"),
        ],
    )
    @pytest.mark.parametrize("x", [0.1, True])
    def test_inexact_scalar_refused_at_every_entry_point(self, call, x):
        with pytest.raises(ValueError, match=re.escape(f"refusing {type(x).__name__} {x!r}")):
            call(x)

    @given(rationals())
    def test_roundtrip(self, x):
        assert parse_rational(format_rational(x)) == x

    @given(rationals(), rationals())
    def test_add_then_subtract_is_exact(self, a, b):
        assert (a + b) - b == a

    @given(rationals(), rationals())
    def test_results_stay_reduced(self, a, b):
        results = [a + b, a - b, a * b, a**3]
        if b != 0:
            results.append(a / b)
        for value in results:
            assert value.denominator > 0
            assert math.gcd(abs(value.numerator), value.denominator) == 1


class TestFrozenDict:
    def test_key_order_does_not_change_the_hash(self):
        a, b = FrozenDict(a=1, b=2), FrozenDict(b=2, a=1)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_init_does_not_refill(self):
        d = FrozenDict({"a": 1}, b=2)
        d.__init__(a=7, c=3)
        assert d == {"a": 1, "b": 2}


class TestPolynomial:
    def test_zero_polynomial_evaluates_to_zero(self):
        assert Polynomial([0])(Fraction(7, 3)) == 0
        assert Polynomial([0]).coeffs == ()
        assert Polynomial().degree == -1

    def test_perfect_square_root(self):
        p = Polynomial([1, -2, 1])
        assert p(1) == 0

    def test_perfect_square_at_half(self):
        assert Polynomial([1, -2, 1])(HALF) == Fraction(1, 4)

    def test_derivative_of_constant(self):
        assert Polynomial([5]).derivative().is_zero()

    def test_power_rule(self):
        assert Polynomial([0, 0, 1]).derivative() == Polynomial([0, 2])

    def test_derivative_root_matches_eval(self):
        d = Polynomial([1, -2, 1]).derivative()
        assert d == Polynomial([-2, 2])
        assert d(1) == 0

    def test_degree_drop(self):
        p = Polynomial([1, 2, 3, 4])
        assert p.derivative().degree == p.degree - 1

    def test_immutability(self):
        p = Polynomial([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = ()

    @given(polynomials(), polynomials(), rationals(max_num=10, max_den=6))
    def test_ring_operations_agree_with_evaluation(self, p, q, x):
        assert (p + q)(x) == p(x) + q(x)
        assert (p - q)(x) == p(x) - q(x)
        assert (p * q)(x) == p(x) * q(x)

    @given(polynomials(), polynomials())
    def test_product_rule(self, p, q):
        lhs = (p * q).derivative()
        assert lhs == p.derivative() * q + p * q.derivative()

    @given(
        polynomials(),
        rationals(max_num=8, max_den=5),
        st.integers(3, 6),
    )
    def test_finite_difference_surrogate(self, p, x, k):
        # |(p(x+h)-p(x))/h - p'(x)| <= C h with C = sum |c_i| (|x|+1)^i, |h| <= 1
        h = Fraction(1, 10**k)
        residual = (p(x + h) - p(x)) / h - p.derivative()(x)
        bound = sum(
            (abs(c) * (abs(x) + 1) ** i for i, c in enumerate(p.coeffs)),
            Fraction(0),
        )
        assert abs(residual) <= bound * h


def naive_product(p: Polynomial, q: Polynomial) -> Polynomial:
    """Convolution in running Fractions: the product before the integer path."""
    if p.is_zero() or q.is_zero():
        return Polynomial()
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Polynomial(out)


def sparse_polynomials(max_degree: int = 8) -> st.SearchStrategy[Polynomial]:
    """Mixed denominators with frequent zero coefficients, interior and trailing."""
    coeff = st.one_of(st.just(Fraction(0)), rationals(max_num=30, max_den=24))
    return st.lists(coeff, max_size=max_degree + 1).map(Polynomial)


class TestPolynomialProduct:
    @given(sparse_polynomials(), sparse_polynomials())
    def test_matches_fraction_convolution(self, p, q):
        product = p * q
        assert product.coeffs == naive_product(p, q).coeffs
        assert all(type(c) is Fraction for c in product.coeffs)
        assert not product.coeffs or product.coeffs[-1] != 0

    @given(sparse_polynomials(), st.one_of(st.integers(-9, 9), rationals(max_num=9, max_den=7)))
    def test_scalar_operands(self, p, c):
        expected = naive_product(p, Polynomial([c]))
        assert (p * c).coeffs == expected.coeffs
        assert (c * p).coeffs == expected.coeffs

    def test_zero_polynomial_annihilates(self):
        p = Polynomial([Fraction(1, 3), 0, Fraction(-5, 6)])
        assert (p * Polynomial()).is_zero()
        assert (Polynomial([0, 0]) * p).is_zero()
        assert (p * 0).is_zero()

    def test_mixed_denominators_with_interior_zero(self):
        p = Polynomial([Fraction(1, 2), 0, Fraction(2, 3)])
        q = Polynomial([Fraction(-3, 4), Fraction(5, 6)])
        assert p * q == Polynomial(
            [Fraction(-3, 8), Fraction(5, 12), Fraction(-1, 2), Fraction(5, 9)]
        )

    def test_trailing_zeros_are_stripped(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.coeffs == (1, 2)
        assert (p * Polynomial([0, Fraction(1, 2), 0])).coeffs == (0, Fraction(1, 2), 1)


def fraction_horner(coeffs: tuple[Fraction, ...], x: Fraction) -> Fraction:
    """Evaluation in running Fractions: the reference for integer Horner."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def assert_canonical(p: Polynomial) -> None:
    assert all(type(c) is int for c in p.nums) and type(p.den) is int
    assert p.den >= 1
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0


class TestIntegerRepresentation:
    @given(sparse_polynomials(), sparse_polynomials(), rationals(max_num=9, max_den=7))
    def test_every_result_is_canonical(self, p, q, c):
        results = [p, p + q, p - q, p * q, -p, p.derivative(), p * c, c * p, p + c, p - c, c - p]
        for result in results:
            assert_canonical(result)

    @given(sparse_polynomials())
    def test_coeffs_are_fractions_that_rebuild_the_polynomial(self, p):
        assert type(p.coeffs) is tuple
        assert all(type(c) is Fraction for c in p.coeffs)
        assert Polynomial(p.coeffs) == p

    def test_equal_values_from_different_spellings(self):
        a = Polynomial(["2/4", 3, "-6/4", "0/5"])
        b = Polynomial([Fraction(1, 2), Fraction(3), Fraction(-3, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert (a.nums, a.den) == ((1, 6, -3), 2)

    @given(sparse_polynomials(), st.integers(-12, 12), rationals(max_num=30, max_den=24))
    def test_evaluation_matches_fraction_horner(self, p, k, x):
        for point in (Fraction(0), Fraction(k), x, -x, -abs(x) - 1):
            assert p(point) == fraction_horner(p.coeffs, point)
        assert p(0) == (p.coeffs[0] if p.coeffs else 0)

    @given(sparse_polynomials(), rationals(max_num=9, max_den=7))
    def test_derivative_and_scalar_subtraction_match_fractions(self, p, c):
        assert p.derivative().coeffs == tuple(i * a for i, a in enumerate(p.coeffs))[1:]
        expected = list(p.coeffs) or [Fraction(0)]
        expected[0] -= c
        while expected and expected[-1] == 0:
            expected.pop()
        assert (p - c).coeffs == tuple(expected)

    def test_booleans_refused(self):
        with pytest.raises(ValueError, match="refusing bool"):
            Polynomial([1, True])
        with pytest.raises(ValueError, match="refusing bool"):
            Polynomial([1, 1])(False)

    @given(sparse_polynomials(), rationals(max_num=9, max_den=7), st.integers(-9, 9))
    def test_scalar_minus_polynomial_matches_fractions(self, p, c, k):
        for scalar in (c, k):
            difference = scalar - p
            assert type(difference) is Polynomial
            assert difference == -(p - scalar)
            assert difference(Fraction(1, 3)) == scalar - p(Fraction(1, 3))
        assert 1 - Polynomial([1]) == Polynomial([])
        assert Fraction(1, 2) - Polynomial([0, 1]) == Polynomial(["1/2", -1])

    @pytest.mark.parametrize(
        "op",
        [operator.add, operator.sub, lambda p, x: x + p, lambda p, x: x - p],
        ids=["add", "sub", "radd", "rsub"],
    )
    def test_scalar_operands_are_refused_alike(self, op):
        p = Polynomial([1])
        for flag in (True, False):
            with pytest.raises(ValueError, match=f"refusing bool {flag}"):
                op(p, flag)
        for other in (1.5, "1"):
            with pytest.raises(TypeError):
                op(p, other)

    @pytest.mark.parametrize(
        "roundtrip",
        [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_equal_and_immutable(self, roundtrip):
        for p in (Polynomial(["1/2", 3]), Polynomial([]), Polynomial(["-7/6", 0, 4])):
            q = roundtrip(p)
            assert q == p
            assert hash(q) == hash(p)
            with pytest.raises(AttributeError, match="immutable"):
                q.nums = ()


class TestIsolateRoot:
    def test_brackets_half(self):
        p = Polynomial([-1, 0, 4])  # 4x^2 - 1
        lo, hi = isolate_root(p, Fraction(1, 1024))
        assert lo <= HALF <= hi
        assert hi - lo <= Fraction(1, 1024)
        assert p(lo) <= 0 <= p(hi)

    def test_linear_root(self):
        # 1/4 is the second midpoint, so bisection stops on it exactly.
        quarter = Fraction(1, 4)
        assert isolate_root(Polynomial([-1, 4]), Fraction(1, 1024)) == (quarter, quarter)

    @pytest.mark.parametrize("root", ["1/2", "3/4", "5/8", "13/16"])
    def test_dyadic_root_is_hit_exactly(self, root):
        # Midpoints 1/2, 3/4, 5/8, 13/16 lie 1-4 halvings deep, taking both branches.
        root = Fraction(root)
        p = Polynomial([-root.numerator, root.denominator])
        assert isolate_root(p, Fraction(1, 1024)) == (root, root)

    def test_stops_once_width_is_reached(self):
        # 2x^2 - 1 has the irrational root 1/sqrt(2); a bracket exactly `width`
        # wide is narrow enough, so two halvings give [1/2, 3/4].
        p = Polynomial([-1, 0, 2])
        assert isolate_root(p, Fraction(1, 4)) == (HALF, Fraction(3, 4))

    @given(
        polynomials(max_degree=3),
        st.builds(Fraction, st.integers(-12, -1), st.integers(1, 8)),
        st.builds(Fraction, st.integers(1, 12), st.integers(1, 8)),
        st.integers(0, 12),
    )
    def test_matches_the_sign_tracking_bisection(self, q, a, b, k):
        # Every p with p(0) = a < 0 < b = p(1) is x(1 - x) q + a + (b - a) x.
        # Given p(0) < 0, "p(mid) < 0" is the general sign test
        # "sign p(mid) == sign p(lo)", so every bracket keeps its bytes.
        p = Polynomial([0, 1, -1]) * q + Polynomial([a, b - a])
        width = Fraction(1, 2**k)
        lo, hi, f_lo = Fraction(0), Fraction(1), p(0)
        expected = None
        while expected is None and hi - lo > width:
            mid = (lo + hi) / 2
            f_mid = p(mid)
            if f_mid == 0:
                expected = (mid, mid)
            elif (f_mid > 0) == (f_lo > 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        assert isolate_root(p, width) == (expected or (lo, hi))

    @given(
        st.integers(1, 9),
        st.integers(2, 10),
        st.integers(4, 14),
    )
    def test_bracket_always_shrinks_and_brackets(self, num, den, k):
        # Root of den*x - num scaled into (0,1) whenever num < den.
        if num >= den:
            num, den = den, num + 1
        p = Polynomial([-num, den])
        width = Fraction(1, 2**k)
        lo, hi = isolate_root(p, width)
        assert hi - lo <= width
        assert p(lo) <= 0 <= p(hi)
        assert lo <= Fraction(num, den) <= hi


class TestSplitMix64:
    def test_reference_vectors(self):
        # First three outputs of the reference C implementation for seed 1234567.
        gen = SplitMix64(1234567)
        assert [gen.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_replay_is_identical(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_different_seeds_differ(self):
        assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()

    def test_randint_bounds_and_coverage(self):
        gen = SplitMix64(7)
        seen = set()
        for _ in range(500):
            v = gen.randint(-3, 3)
            assert -3 <= v <= 3
            seen.add(v)
        assert seen == set(range(-3, 4))

    def test_randint_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SplitMix64(0).randint(2, 1)

    def test_randint_span_of_2_to_the_64_is_the_largest(self):
        # A span of 2^64 takes every draw as it is; one more used to make the
        # rejection limit 0, so the loop never returned.
        reference = SplitMix64(9)
        gen = SplitMix64(9)
        assert gen.randint(0, 2**64 - 1) == reference.next_u64()
        assert gen.randint(-(2**63), 2**63 - 1) == reference.next_u64() - 2**63
        for lo, hi in [(0, 2**64), (-(2**63), 2**63), (-(10**20), 10**20)]:
            with pytest.raises(ValueError, match="holds more than 2\\^64 integers"):
                gen.randint(lo, hi)
