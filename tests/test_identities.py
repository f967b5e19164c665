"""Identity-suite checks: hand-derived anchors, exhaustive sweeps, cross-links."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from gpi_lab import cli, identities
from gpi_lab.identities import (
    build_polynomial_L,
    check_corollary28,
    check_kummer_classical,
    check_lemma25,
    check_lemma27,
    check_symmetric_identity,
)
from gpi_lab.specialfn import pochhammer
from gpi_lab.verifier import InequalityVerdict

HALF = Fraction(1, 2)

# A valid point of every `check_*` function in `identities`; a new check
# without one fails the test below with a KeyError.
IDENTITY_POINTS = {
    "check_symmetric_identity": (2, 3),
    "check_lemma25": (2, 3),
    "check_lemma27": (2, 3),
    "check_corollary28": (2, 3),
    "check_kummer_classical": (2, "1/2"),
}
IDENTITY_CHECKS = sorted(name for name in vars(identities) if name.startswith("check_"))


@pytest.mark.parametrize("name", [*IDENTITY_CHECKS, "polynomial_L_verdicts"])
def test_every_identity_is_an_equality_verdict(name):
    if name == "polynomial_L_verdicts":
        verdict = list(cli.polynomial_L_verdicts(3))[-1]
    else:
        verdict = getattr(identities, name)(*IDENTITY_POINTS[name])
    assert type(verdict) is InequalityVerdict
    assert verdict.relation == "=="
    assert verdict.equality_condition_met is None
    assert verdict.holds == (verdict.lhs == verdict.rhs)
    assert verdict.holds
    assert not verdict._replace(rhs=verdict.rhs + 1).holds


class TestSymmetricIdentity:
    def test_smallest_case_by_hand(self):
        v = check_symmetric_identity(0, 1)
        # 3/4 - 2*(1/4) + 3/4 = 1 on the left, 4*(1/2)*(1/2) = 1 on the right
        assert v.lhs == 1
        assert v.rhs == 1
        assert v.holds

    def test_n1_r1(self):
        v = check_symmetric_identity(1, 1)
        assert v.holds
        assert v.lhs == Fraction(3, 4)

    def test_exhaustive_range(self):
        for n in range(9):
            for r in range(1, 9):
                assert check_symmetric_identity(n, r).holds, (n, r)

    def test_integer_lhs_matches_pochhammer_sum(self):
        for n in range(21):
            for r in range(1, 17):
                lhs = sum(
                    (
                        (-1) ** i
                        * math.comb(2 * r, i)
                        * pochhammer(HALF, n + 2 * r - i)
                        * pochhammer(HALF, n + i)
                        for i in range(2 * r + 1)
                    ),
                    Fraction(0),
                )
                assert check_symmetric_identity(n, r).lhs == lhs, (n, r)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="need n >= 0 and r >= 1"):
            check_symmetric_identity(-1, 1)
        with pytest.raises(ValueError, match="need n >= 0 and r >= 1"):
            check_symmetric_identity(0, 0)


class TestLemma25:
    def test_single_term(self):
        v = check_lemma25(1, 2)
        assert v.lhs == 1
        assert v.rhs == 1

    def test_two_terms_by_hand(self):
        v = check_lemma25(2, 2)
        assert v.lhs == 3  # 1 + 4/2
        assert v.rhs == 3  # 24/8
        assert v.holds

    def test_exhaustive_range(self):
        for r in range(1, 21):
            for l in range(1, r + 1):
                assert check_lemma25(l, r).holds, (l, r)

    def test_integer_sum_matches_per_term_fractions(self):
        # The left side sums integers over the lcm of the denominators; the
        # old route adds one reduced Fraction per term.
        for r in range(1, 41):
            for l in range(1, r + 1):
                per_term = sum(
                    (
                        Fraction(math.comb(2 * r, i) * math.comb(l - 1, i), math.comb(2 * r - l, i))
                        for i in range(l)
                    ),
                    Fraction(0),
                )
                assert check_lemma25(l, r).lhs == per_term, (l, r)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="need 1 <= l <= r"):
            check_lemma25(3, 2)
        with pytest.raises(ValueError, match="need 1 <= l <= r"):
            check_lemma25(0, 2)


class TestLemma27:
    def test_smallest_case(self):
        v = check_lemma27(1, 1)
        assert v.lhs == 1
        assert v.holds

    def test_boundary_l_equals_r(self):
        for r in range(1, 10):
            assert check_lemma27(r, r).holds, r

    def test_exhaustive_range(self):
        for r in range(1, 21):
            for l in range(1, r + 1):
                assert check_lemma27(l, r).holds, (l, r)

    def test_rederives_lemma25_closed_form(self):
        # The proof chain: lemma27's product equals lemma25's sum divided by
        # lemma25's closed form, so the two checks validate each other.
        for l, r in [(1, 1), (2, 3), (3, 5), (5, 8), (7, 7)]:
            v25 = check_lemma25(l, r)
            v27 = check_lemma27(l, r)
            assert v27.lhs == v25.lhs / v25.rhs


class TestCorollary28:
    def test_one_term_cases(self):
        v = check_corollary28(1, 1)
        assert v.lhs == HALF
        assert v.rhs == HALF
        v = check_corollary28(1, 3)
        assert v.lhs == Fraction(1, 6)
        assert v.rhs == Fraction(1, 6)

    def test_exhaustive_range(self):
        for r in range(1, 21):
            for l in range(1, r + 1):
                assert check_corollary28(l, r).holds, (l, r)

    def test_integer_sum_matches_per_term_fractions(self):
        for r in range(1, 41):
            for l in range(1, r + 1):
                per_term = sum(
                    (Fraction(math.comb(l - 1, i), math.comb(2 * r - i, l)) for i in range(l)),
                    Fraction(0),
                )
                assert check_corollary28(l, r).lhs == per_term, (l, r)


class TestKummerClassical:
    def test_half(self):
        assert check_kummer_classical(1, HALF).holds

    def test_third_r2(self):
        assert check_kummer_classical(2, Fraction(1, 3)).holds

    def test_b_one_has_no_pole_and_holds(self):
        # c = -2 would pole only at offset 2, past the last factor the
        # length-3 series needs, so the evaluation goes through exactly.
        v = check_kummer_classical(1, 1)
        assert v.lhs == 1
        assert v.holds

    def test_positive_b_grid(self):
        for r in range(1, 6):
            for b in (Fraction(1, 3), HALF, Fraction(3, 2), Fraction(7, 3)):
                assert check_kummer_classical(r, b).holds, (r, b)


class TestPolynomialL:
    def test_identically_zero(self):
        for r in range(1, 9):
            assert build_polynomial_L(r).is_zero(), r

    def test_roots_at_negative_integers_and_zero(self):
        for r in range(1, 9):
            poly = build_polynomial_L(r)
            assert poly(0) == 0
            for l in range(1, r + 1):
                assert poly(-l) == 0, (r, l)

    def test_symmetric_identity_bridges_to_L(self):
        # lhs - rhs of the alternating-sum identity equals
        # (1/2)_n (1/2)_{n+r} ((2r)!/r!) L(n - 1/2), exactly.
        for r in range(1, 7):
            poly = build_polynomial_L(r)
            for n in range(7):
                v = check_symmetric_identity(n, r)
                factor = (
                    pochhammer(HALF, n)
                    * pochhammer(HALF, n + r)
                    * Fraction(math.factorial(2 * r), math.factorial(r))
                )
                assert v.lhs - v.rhs == factor * poly(Fraction(n) - HALF)
