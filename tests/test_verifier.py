"""Verifier checks: gamma-polynomials, the hypergeometric bridge, and every
inequality family at hand-checked anchors plus exhaustive small grids."""

from __future__ import annotations

import copy
import itertools
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpi_lab import verifier
from gpi_lab._pairing import pairing_moment, wick_moment
from gpi_lab.core import Polynomial, SplitMix64
from gpi_lab.identities import IdentityVerdict, check_lemma25
from gpi_lab.moments import CovarianceMatrix, random_covariance, univariate_even_moment
from gpi_lab.specialfn import half_binomial, hyp2f1_terminating, pochhammer
from gpi_lab.verifier import (
    LEMMA210_WIDTH,
    WEI_COUNTEREXAMPLE_COV,
    InequalityVerdict,
    build_gamma_polynomials,
    check_H_positivity,
    check_cor23,
    check_lemma210,
    check_lemma29,
    check_lemma31,
    check_main,
    check_min_C,
    check_prop21,
    check_thm22,
    check_thm32,
    counterexample_wei,
    degenerate_covariance,
)

from conftest import principal_minor

HALF = Fraction(1, 2)


class TestGammaPolynomials:
    def test_base_case_coefficients(self):
        ps = build_gamma_polynomials(0, 0, 1)
        # E[((U^2+V^2) gamma - V^2)^2] = 3 - 8 gamma + 8 gamma^2
        assert list(ps.G.coeffs) == [3, -8, 8]
        assert ps.G(HALF) == 1
        assert ps.B(HALF) == Fraction(1, 3)

    def test_degrees_are_2r(self):
        for m, n, r in [(0, 0, 1), (2, 1, 2), (3, 3, 3)]:
            ps = build_gamma_polynomials(m, n, r)
            assert ps.G.degree == 2 * r
            assert ps.H.degree == 2 * r
            assert ps.B.degree == 2 * r

    def test_H_is_constant_shift_of_G(self):
        for m, n, r in [(0, 0, 1), (1, 0, 2), (2, 2, 1)]:
            ps = build_gamma_polynomials(m, n, r)
            shift = (
                2 ** (m + n + 2 * r)
                * pochhammer(HALF, m)
                * pochhammer(HALF, n + r)
                * pochhammer(HALF, r)
            )
            assert ps.G - ps.H == Polynomial([shift])

    def test_B_scaling_coefficientwise(self):
        for m, n, r in [(0, 0, 1), (1, 0, 1), (2, 1, 2), (3, 2, 3)]:
            ps = build_gamma_polynomials(m, n, r)
            scale = 2 ** (m + n + 2 * r) * pochhammer(HALF, m) * pochhammer(HALF, n + 2 * r)
            assert scale * ps.B == ps.G

    def test_H_symmetric_vanishes_at_half(self):
        for n in range(6):
            for r in range(1, 6):
                assert build_gamma_polynomials(n, n, r).H(HALF) == 0, (n, r)


BRIDGE_GRID = [(m, n, r) for m in range(4) for n in range(4) for r in range(1, 4)]


def bridge_scale(m: int, n: int, r: int) -> Fraction:
    return 2 ** (m + n + 2 * r) * pochhammer(HALF, m) * pochhammer(HALF, n + 2 * r)


class TestLemma29Bridge:
    def test_base_anchor(self):
        # G(1/2) = 1 = 3 F(-2, -2; -3/2; 1/2)
        assert build_gamma_polynomials(0, 0, 1).G(HALF) == 1
        assert 3 * hyp2f1_terminating(-2, -2, Fraction(-3, 2), HALF) == 1
        v = check_lemma29(0, 0, 1)
        assert v.as_dict() == {
            "claim": "lemma29",
            "params": {"m": 0, "n": 0, "r": 1},
            "lhs": "0",
            "rhs": "0",
            "holds": True,
            "equality": True,
            "equality_condition_met": None,
        }

    def test_sampled_identity(self):
        # The running-term series at 2r+1 distinct points determines a
        # degree-2r polynomial; this route shares no code with hyp2f1_poly.
        for m, n, r in BRIDGE_GRID:
            g = build_gamma_polynomials(m, n, r).G
            for t in range(1, 2 * r + 2):
                gamma = Fraction(t, 2 * r + 2)
                series = hyp2f1_terminating(-2 * r, -m - n - 2 * r, HALF - n - 2 * r, gamma)
                assert g(gamma) == bridge_scale(m, n, r) * series, (m, n, r, gamma)

    def test_full_grid(self):
        for m, n, r in BRIDGE_GRID:
            v = check_lemma29(m, n, r)
            assert v.holds and v.relation == "==", (m, n, r)
            assert (v.lhs, v.rhs) == (0, 0)

    def test_coefficient_mismatch_is_refuted(self, monkeypatch):
        # A G off by gamma^2 / 7 leaves a residue of exactly 1/7.
        real = verifier.build_gamma_polynomials

        def skewed(m, n, r):
            polys = real(m, n, r)
            return polys._replace(G=polys.G + Polynomial([0, 0, Fraction(1, 7)]))

        monkeypatch.setattr(verifier, "build_gamma_polynomials", skewed)
        v = check_lemma29(2, 1, 2)
        assert not v.holds
        assert v.as_dict()["lhs"] == "1/7"

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="need m, n >= 0 and r >= 1"):
            check_lemma29(0, 0, 0)


class TestHPositivity:
    def test_symmetric_zero_at_half(self):
        verdicts = check_H_positivity(1, 1, 1, sample_count=10)
        head = verdicts[0]
        assert head.claim == "H_nn_half_zero"
        assert head.equality

    def test_symmetric_positive_off_center(self):
        h = build_gamma_polynomials(1, 1, 1).H
        assert h(Fraction(1, 4)) > 0

    def test_asymmetric_positive_at_half(self):
        h = build_gamma_polynomials(2, 1, 1).H
        assert h(HALF) > 0

    def test_verdict_grid(self):
        for m, n, r in [(0, 0, 1), (2, 2, 2), (1, 0, 1), (3, 1, 2)]:
            for v in check_H_positivity(m, n, r, sample_count=20):
                assert v.holds, (m, n, r, v.as_dict())

    def test_rejects_m_below_n(self):
        with pytest.raises(ValueError, match="need m >= n >= 0 and r >= 1"):
            check_H_positivity(1, 2, 1)

    def test_lower_bound_chain(self):
        # H_{m,n} > 0 is the same statement as B_m > 1/hb(n+2r, r): the shift
        # and scale constants satisfy shift/scale = 1/hb(n+2r, r) exactly.
        for m, n, r in [(1, 0, 1), (2, 0, 2), (3, 2, 1), (4, 1, 3)]:
            ps = build_gamma_polynomials(m, n, r)
            shift = (
                2 ** (m + n + 2 * r)
                * pochhammer(HALF, m)
                * pochhammer(HALF, n + r)
                * pochhammer(HALF, r)
            )
            scale = 2 ** (m + n + 2 * r) * pochhammer(HALF, m) * pochhammer(HALF, n + 2 * r)
            bound = 1 / half_binomial(n + 2 * r, r)
            assert shift / scale == bound
            for gamma in (Fraction(t, 26) for t in range(1, 26)):
                assert ps.B(gamma) > bound
                assert (ps.H(gamma) > 0) == (ps.B(gamma) - bound > 0)


class TestLemma210:
    def test_base_case(self):
        cert = check_lemma210(0, 0, 1)
        assert cert.stationary_values_agree
        assert cert.min_left_of_half
        assert cert.bracket[1] < HALF

    def test_symmetric_derivative_sign_at_half(self):
        for n in range(3):
            for r in range(1, 3):
                cert = check_lemma210(n, n, r)
                assert cert.derivative_at_half is not None
                assert cert.derivative_at_half > 0, (n, r)

    def test_asymmetric_has_no_half_witness(self):
        cert = check_lemma210(2, 1, 1)
        assert cert.derivative_at_half is None
        assert cert.min_left_of_half is None
        assert cert.holds

    def test_holds_needs_the_minimum_left_of_half(self):
        cert = check_lemma210(1, 1, 2)
        assert cert.holds and cert.as_dict()["holds"] is True
        for derivative in (Fraction(0), Fraction(-1)):
            flipped = cert._replace(derivative_at_half=derivative)
            assert flipped.stationary_values_agree
            assert not flipped.holds
            assert flipped.as_dict()["holds"] is False

    def test_grid_certificates(self):
        for r in range(1, 3):
            for n in range(4):
                for m in range(n, 4):
                    cert = check_lemma210(m, n, r)
                    lo, hi = cert.bracket
                    assert hi - lo <= LEMMA210_WIDTH
                    assert cert.stationary_values_agree, (m, n, r)

    def test_failed_sign_change_is_a_false_certificate(self, monkeypatch):
        # B = gamma makes B' = 1 on [0, 1]: no interior minimum to bracket.
        real = verifier.build_gamma_polynomials
        monkeypatch.setattr(
            verifier,
            "build_gamma_polynomials",
            lambda m, n, r: real(m, n, r)._replace(B=Polynomial([0, 1])),
        )
        cert = check_lemma210(1, 1, 1)
        assert cert.bracket is None
        assert not cert.stationary_values_agree
        assert not cert.holds
        doc = cert.as_dict()
        assert (doc["bracket"], doc["diff_lo"], doc["diff_hi"]) == (None, None, None)
        assert doc["holds"] is False
        assert doc["derivative_at_half"] == "1"

    def test_bracket_isolates_derivative_root(self):
        cert = check_lemma210(1, 0, 2)
        db = build_gamma_polynomials(2, 0, 2).B.derivative()
        lo, hi = cert.bracket
        assert db(lo) * db(hi) <= 0


class TestMinC:
    def test_symmetric_tie(self):
        v = check_min_C(1, 1, 1)
        assert (v.lhs, v.rhs) == (3, 3)
        assert v.holds

    def test_minimum_at_r(self):
        # C(0) = hb(3, 1) hb(1, 0) = 5 and C(1) = hb(2, 0) hb(2, 1) = 3.
        v = check_min_C(2, 1, 1)
        assert v.lhs == half_binomial(2, 0) * half_binomial(2, 1) == 3
        assert half_binomial(3, 1) * half_binomial(1, 0) == 5
        assert v.holds

    def test_minimum_at_zero(self):
        v = check_min_C(1, 2, 3)
        assert v.lhs == half_binomial(4, 3) * half_binomial(2, 0)
        assert v.rhs == half_binomial(4, 3)
        assert v.holds

    def test_grid_matches_closed_form(self):
        for m in range(1, 6):
            for n in range(1, 6):
                for r in range(1, 6):
                    v = check_min_C(m, n, r)
                    assert v.holds and v.relation == "=="
                    assert v.rhs == half_binomial(min(m, n) + r, r)
                    assert v.as_dict()["claim"] == "prop21_constant"
                    assert v.as_dict()["params"] == {"m": m, "n": n, "r": r}

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="need m, n, r >= 1"):
            check_min_C(0, 1, 1)


class TestProp21:
    def test_equality_case(self):
        v = check_prop21(1, 1, 1, 1, 1)
        assert (v.lhs, v.rhs) == (6, 6)
        assert v.equality

    def test_strict_case(self):
        v = check_prop21(1, 2, 1, 1, 1)
        assert (v.lhs, v.rhs) == (24, 18)
        assert v.holds and not v.equality

    def test_exhaustive_grid(self):
        variances = [Fraction(1, 2), Fraction(1), Fraction(2)]
        for m in range(1, 4):
            for n in range(1, 4):
                for r in range(1, 4):
                    for a2 in variances:
                        for b2 in variances:
                            assert check_prop21(m, n, r, a2, b2).holds, (m, n, r, a2, b2)

    def test_parameter_domain(self):
        with pytest.raises(ValueError, match="need m, n, r >= 1"):
            check_prop21(0, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="a2 must be > 0"):
            check_prop21(1, 1, 1, 0, 1)


class TestThm22:
    def test_equality_base(self):
        v = check_thm22(0, 0, 1, 1, 1)
        assert (v.lhs, v.rhs) == (4, 4)
        assert v.equality and v.equality_condition_met

    def test_strict_when_m_differs(self):
        v = check_thm22(1, 0, 1, 1, 1)
        assert v.holds and not v.equality
        assert v.equality_condition_met is False

    def test_strict_when_variances_differ(self):
        v = check_thm22(1, 1, 1, 1, 2)
        assert v.holds and not v.equality
        assert v.equality_condition_met is False

    def test_equality_classification_grid(self):
        variances = [Fraction(1, 2), Fraction(1), Fraction(2)]
        for m in range(4):
            for n in range(4):
                for r in range(1, 3):
                    for a2 in variances:
                        for b2 in variances:
                            v = check_thm22(m, n, r, a2, b2)
                            assert v.holds, (m, n, r, a2, b2)
                            assert v.equality == (m == n and a2 == b2), (m, n, r, a2, b2)

    @given(
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(1, 2),
        st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]),
        st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]),
    )
    def test_rotation_equivalence_with_cor23(self, m, n, r, a2, b2):
        # With (Z, W) = (X+Y, X-Y): common variance a2+b2, cross a2-b2, and
        # both sides of the rotated claim pick up the factor 4^{m+n}.
        v22 = check_thm22(m, n, r, a2, b2)
        cov2 = CovarianceMatrix.from_rows([[a2 + b2, a2 - b2], [a2 - b2, a2 + b2]])
        v23 = check_cor23(m, n, r, cov2)
        factor = 4 ** (m + n)
        assert v23.lhs == factor * v22.lhs
        assert v23.rhs == factor * v22.rhs
        assert v23.equality == v22.equality


class TestCor23:
    def test_reduces_to_two_dimensional_gpi(self):
        v = check_cor23(0, 0, 1, CovarianceMatrix.diagonal([1, 1]))
        assert v.equality and v.equality_condition_met

    def test_strict_with_correlation(self):
        cov2 = CovarianceMatrix.from_rows([[1, "1/2"], ["1/2", 1]])
        v = check_cor23(1, 1, 1, cov2)
        assert v.holds and not v.equality
        assert v.equality_condition_met is False

    def test_strict_when_m_differs(self):
        v = check_cor23(1, 0, 1, CovarianceMatrix.diagonal([1, 1]))
        assert v.holds and not v.equality

    def test_equality_classification_grid(self):
        for s in (Fraction(1, 2), Fraction(1), Fraction(2)):
            for c in (Fraction(0), s / 2, -s / 2):
                cov2 = CovarianceMatrix.from_rows([[s, c], [c, s]])
                for m in range(4):
                    for n in range(4):
                        for r in range(1, 3):
                            v = check_cor23(m, n, r, cov2)
                            assert v.holds, (m, n, r, s, c)
                            assert v.equality == (m == n and c == 0), (m, n, r, s, c)

    def test_two_dimensional_gpi_equality_iff_independent(self):
        # Remark-level consequence at m = n = 0: equality exactly when E[ZW] = 0.
        for c in (Fraction(0), Fraction(1, 2), Fraction(-1, 2)):
            cov2 = CovarianceMatrix.from_rows([[1, c], [c, 1]])
            for r in range(1, 4):
                v = check_cor23(0, 0, r, cov2)
                assert v.holds
                assert v.equality == (c == 0)

    def test_unequal_variances_rejected(self):
        with pytest.raises(ValueError, match="Z and W must share their variance"):
            check_cor23(1, 1, 1, CovarianceMatrix.diagonal([1, 2]))


class TestLemma31:
    def test_anchor_case(self):
        v = check_lemma31(1, 1, 1, 1)
        assert (v.lhs, v.rhs) == (6, 2)
        assert v.holds

    def test_half_split(self):
        v = check_lemma31(1, 1, HALF, 1)
        assert v.lhs > v.rhs

    def test_exhaustive_sweep_strict(self):
        for a in (Fraction(-1), Fraction(-1, 2), HALF, Fraction(1), Fraction(2)):
            for sigma2 in (Fraction(1, 4), Fraction(1), Fraction(4)):
                for m in range(1, 4):
                    for n in range(1, 4):
                        v = check_lemma31(m, n, a, sigma2)
                        assert v.lhs > v.rhs, (a, sigma2, m, n)

    GRID = [
        (a, sigma2)
        for a in (Fraction(-1), Fraction(-1, 2), HALF, Fraction(1), Fraction(2))
        for sigma2 in (Fraction(1, 4), Fraction(1), Fraction(4))
    ] + [(Fraction(2), Fraction(0))]

    @pytest.mark.parametrize("a, sigma2", GRID, ids=str)
    def test_both_sides_match_independent_routes(self, a, sigma2):
        # lhs by the Wick recursion, rhs as the product of the three
        # univariate moments on the singular covariance.
        cov = degenerate_covariance(a, sigma2)
        var_x, var_y = cov.entries[0][0], cov.entries[1][1]
        for m in range(1, 4):
            for n in range(1, 4):
                v = check_lemma31(m, n, a, sigma2)
                assert v.lhs == wick_moment(cov, (2 * m, 2 * m, 2 * n)), (a, sigma2, m, n)
                assert v.rhs == (
                    univariate_even_moment(var_x, m)
                    * univariate_even_moment(var_y, m)
                    * univariate_even_moment(Fraction(1), n)
                ), (a, sigma2, m, n)

    def test_rank_one_boundary(self):
        # sigma2 = 0 collapses (X, Y, Z) onto multiples of Z; still strict.
        v = check_lemma31(2, 1, 2, 0)
        assert v.lhs > v.rhs

    def test_invalid_triples(self):
        with pytest.raises(ValueError, match="X and Y must have positive variance"):
            check_lemma31(1, 1, 0, 0)  # X would be degenerate
        with pytest.raises(ValueError, match="need sigma2 >= 0"):
            check_lemma31(1, 1, 1, -1)

    @pytest.mark.parametrize("m, n", [(0, 1), (1, 0), (-1, 2)])
    def test_exponents_are_checked_by_thm32(self, m, n):
        with pytest.raises(ValueError, match=rf"^need m, n >= 1, got m={m}, n={n}$"):
            check_lemma31(m, n, HALF, 1)

    def test_covariance_is_rank_deficient(self):
        cov = degenerate_covariance(1, 1)
        assert principal_minor(cov.entries, (0, 1, 2)) == 0


class TestThm32AndMain:
    def test_wei_covariance_strict(self):
        v = check_thm32(1, 1, WEI_COUNTEREXAMPLE_COV)
        assert (v.lhs, v.rhs) == (39, 25)
        assert v.holds and not v.equality

    def test_diagonal_equality(self):
        v = check_thm32(2, 1, CovarianceMatrix.diagonal([1, 2, 3]))
        assert v.equality

    def test_seeded_random_sweep(self):
        gen = SplitMix64(20260810)
        for _ in range(100):
            cov = random_covariance(gen, 3, 4)
            for m in range(1, 3):
                for n in range(1, 3):
                    assert check_thm32(m, n, cov).holds

    def test_rhs_is_the_product_of_univariate_moments(self):
        # The right side is built from the scaled integers over D^(2m+n); the
        # three rational univariate moments are an independent route to it.
        rng = random.Random(32)
        for _ in range(40):
            a = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(3)]
                for _ in range(3)
            ]
            rows = [[sum(a[i][t] * a[j][t] for t in range(3)) for j in range(3)] for i in range(3)]
            if any(rows[i][i] == 0 for i in range(3)):
                continue
            cov = CovarianceMatrix.from_rows(rows)
            for m in range(1, 4):
                for n in range(1, 4):
                    expected = (
                        univariate_even_moment(rows[0][0], m)
                        * univariate_even_moment(rows[1][1], m)
                        * univariate_even_moment(rows[2][2], n)
                    )
                    assert check_thm32(m, n, cov).rhs == expected, (rows, m, n)

    def test_zero_variance_rejected(self):
        cov = CovarianceMatrix.diagonal([1, 1, 0])
        with pytest.raises(ValueError, match="every coordinate must have positive variance"):
            check_thm32(1, 1, cov)

    def test_main_equality_condition(self):
        diag = CovarianceMatrix.diagonal([1, 2, 3])
        v = check_main(2, diag)
        assert v.equality and v.equality_condition_met

        v = check_main(1, WEI_COUNTEREXAMPLE_COV)
        assert v.holds and not v.equality
        assert v.equality_condition_met is False

    @pytest.mark.parametrize(
        "cov, independent",
        [
            (CovarianceMatrix.diagonal([1, 2, 3]), True),
            (CovarianceMatrix.diagonal(["1/2", 4, "9/7"]), True),
            (WEI_COUNTEREXAMPLE_COV, False),
            (degenerate_covariance(HALF, "1/4"), False),  # its (0, 1) entry is 0
            (degenerate_covariance(2, 0), False),
        ],
        ids=["diagonal", "diagonal_rational", "wei", "degenerate", "rank_one"],
    )
    def test_thm32_states_its_equality_condition(self, cov, independent):
        for m, n in itertools.product(range(1, 3), range(1, 3)):
            v = check_thm32(m, n, cov)
            assert v.equality_condition_met is independent
            assert v.equality is independent
            assert v.holds

    @pytest.mark.parametrize(
        "cov",
        [
            CovarianceMatrix.diagonal([1, 2, 3]),
            WEI_COUNTEREXAMPLE_COV,
            degenerate_covariance(1, 1),
        ],
        ids=["diagonal", "wei", "degenerate"],
    )
    def test_main_is_thm32_at_equal_exponents(self, cov):
        for m in range(1, 4):
            assert check_main(m, cov) == check_thm32(m, m, cov)._replace(
                claim="main", params={"m": m}
            )

    def test_main_partial_independence_is_strict(self):
        cov = CovarianceMatrix.from_rows([[1, 0, 0], [0, 1, "1/2"], [0, "1/2", 1]])
        v = check_main(1, cov)
        assert (v.lhs, v.rhs) == (Fraction(3, 2), 1)
        assert not v.equality
        assert v.equality_condition_met is False


class TestCounterexample:
    def test_exact_values(self):
        assert counterexample_wei() == (39, 43)

    def test_oracle_recomputes_lhs(self):
        assert pairing_moment(WEI_COUNTEREXAMPLE_COV, (2, 2, 2)) == 39

    def test_unsplit_product_bound_still_holds(self):
        lhs, _ = counterexample_wei()
        product = Fraction(1)
        for i in range(3):
            product *= univariate_even_moment(WEI_COUNTEREXAMPLE_COV.entries[i][i], 1)
        assert product == 25
        assert lhs >= product

    def test_verdict_json_shape(self):
        v = check_main(1, WEI_COUNTEREXAMPLE_COV)
        doc = v.as_dict()
        assert set(doc) == {
            "claim",
            "params",
            "lhs",
            "rhs",
            "holds",
            "equality",
            "equality_condition_met",
        }
        assert doc["lhs"] == "39"
        assert doc["rhs"] == "25"


# Per relation and stated equality condition: whether the verdict holds with
# lhs below, equal to and above rhs.
HOLDS_TABLE = {
    (">=", None): (False, True, True),
    (">", None): (False, False, True),
    ("==", None): (False, True, False),
    (">=", True): (False, True, False),
    (">", True): (False, False, False),
    ("==", True): (False, True, False),
    (">=", False): (False, False, True),
    (">", False): (False, False, True),
    ("==", False): (False, False, False),
}


@pytest.mark.parametrize("relation, condition", list(HOLDS_TABLE), ids=str)
def test_holds_reads_relation_and_equality_condition(relation, condition):
    for lhs, expected in zip((0, 1, 2), HOLDS_TABLE[relation, condition]):
        v = InequalityVerdict("x", {}, Fraction(lhs), Fraction(1), relation, condition)
        assert v.holds is expected, lhs
        assert v.as_dict()["holds"] is expected, lhs


# Verdicts from the constructor, from `_replace` (check_main and check_lemma31
# build theirs that way) and from the identity suite.
VERDICT_MAKERS = [
    pytest.param(lambda: check_lemma29(1, 1, 1), id="lemma29"),
    pytest.param(lambda: check_thm22(1, 1, 1, 1, 2), id="thm22"),
    pytest.param(lambda: check_main(1, WEI_COUNTEREXAMPLE_COV), id="main"),
    pytest.param(lambda: check_lemma31(2, 1, HALF, 1), id="lemma31"),
    pytest.param(lambda: check_lemma25(1, 2), id="lemma25"),
    pytest.param(
        lambda: InequalityVerdict(claim="x", params={"m": 1}, lhs=1, rhs=0)._replace(
            params={"m": 2}
        ),
        id="inequality_replaced",
    ),
    pytest.param(
        lambda: IdentityVerdict("x", {"m": 1}, 1, 1)._replace(params={"m": 2}),
        id="identity_replaced",
    ),
]
PARAM_CHANGES = [
    lambda p: p.__setitem__("m", 7),
    lambda p: p.__delitem__(next(iter(p))),
    lambda p: p.update(m=7),
    lambda p: p.setdefault("z", 7),
    lambda p: p.pop(next(iter(p))),
    lambda p: p.popitem(),
    lambda p: p.clear(),
    lambda p: operator.ior(p, {"m": 7}),
]


class TestFrozenParams:
    @pytest.mark.parametrize("make", VERDICT_MAKERS)
    def test_params_refuse_every_change(self, make):
        v = make()
        before = v.as_dict()
        for change in PARAM_CHANGES:
            with pytest.raises(TypeError, match="read-only"):
                change(v.params)
        assert v.as_dict() == before

    @pytest.mark.parametrize("make", VERDICT_MAKERS)
    def test_params_are_not_refilled_by_init(self, make):
        v = make()
        before = v.as_dict()
        v.params.__init__(m=7)
        v.params.__init__({"z": 7})
        assert v.as_dict() == before

    @pytest.mark.parametrize("make", VERDICT_MAKERS)
    def test_verdicts_hash(self, make):
        v, w = make(), make()
        assert hash(v) == hash(w)
        assert len({v, w}) == 1
        assert {v: "x"}[w] == "x"

    def test_equal_verdicts_from_other_routes_hash_equal(self):
        main = check_main(1, WEI_COUNTEREXAMPLE_COV)
        replaced = check_thm32(1, 1, WEI_COUNTEREXAMPLE_COV)._replace(
            claim="main", params={"m": 1}
        )
        built = InequalityVerdict("main", {"m": 1}, Fraction(39), Fraction(25), ">=", False)
        assert main == replaced == built
        assert hash(main) == hash(replaced) == hash(built)
        assert len({main, replaced, built}) == 1
        reordered = (
            InequalityVerdict("x", {"m": 1, "n": 2}, 1, 0),
            InequalityVerdict("x", {"n": 2, "m": 1}, 1, 0),
        )
        assert hash(reordered[0]) == hash(reordered[1])
        assert len(set(reordered)) == 1

    @pytest.mark.parametrize("make", VERDICT_MAKERS)
    @pytest.mark.parametrize(
        "roundtrip",
        [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_equal_and_frozen(self, make, roundtrip):
        v = make()
        w = roundtrip(v)
        assert w == v
        assert type(w) is type(v)
        assert w.as_dict() == v.as_dict()
        with pytest.raises(TypeError, match="read-only"):
            w.params["m"] = 7
