"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every criterion is an exact rational statement (zero tolerance); the stated
budgets are wall-clock limits.  Each test prints one pass/fail line; run with
`pytest tests/test_acceptance.py -v -s` to see them inline.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

from gpi_lab import (
    CovarianceMatrix,
    SplitMix64,
    build_gamma_polynomials,
    build_polynomial_L,
    check_H_positivity,
    check_cor23,
    check_corollary28,
    check_kummer_classical,
    check_lemma25,
    check_lemma27,
    check_lemma29,
    check_lemma210,
    check_lemma31,
    check_symmetric_identity,
    check_thm22,
    counterexample_wei,
    gaussian_moment,
    half_binomial,
    random_covariance,
)
from gpi_lab._pairing import pairing_moment
from gpi_lab.cli import SweepConfig, run_sweep
from gpi_lab.verifier import LEMMA210_WIDTH

HALF = Fraction(1, 2)
KUMMER_BS = (Fraction(1, 3), HALF, Fraction(3, 2), Fraction(7, 3))


@contextmanager
def criterion(label: str, time_limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < time_limit
    status = "PASS" if within else "FAIL (over time budget)"
    print(f"[acceptance] {label}: {status} ({elapsed:.2f}s / {time_limit:.0f}s)")
    assert within, f"{label}: {elapsed:.2f}s exceeded the {time_limit:.0f}s budget"


def test_criterion_01_counterexample_reproduction():
    with criterion("1 counterexample lhs=39 rhs=43", 1.0):
        assert counterexample_wei() == (Fraction(39), Fraction(43))


def test_criterion_02_half_binomial_anchors():
    with criterion("2 half-binomial anchors 35/3 and 231/5", 1.0):
        assert half_binomial(4, 2) == Fraction(35, 3)
        assert half_binomial(6, 3) == Fraction(231, 5)


def test_criterion_03_identity_suite():
    with criterion("3 identity suite (n,r<=8; l<=r<=20; Kummer r<=5)", 30.0):
        for n in range(9):
            for r in range(1, 9):
                assert check_symmetric_identity(n, r).holds, (n, r)
        for r in range(1, 21):
            for l in range(1, r + 1):
                assert check_lemma25(l, r).holds, (l, r)
                assert check_lemma27(l, r).holds, (l, r)
                assert check_corollary28(l, r).holds, (l, r)
        for r in range(1, 6):
            for b in KUMMER_BS:
                assert check_kummer_classical(r, b).holds, (r, b)


def test_criterion_04_polynomial_L_vanishes():
    with criterion("4 polynomial L identically zero for r<=8", 5.0):
        for r in range(1, 9):
            assert build_polynomial_L(r).is_zero(), r


def test_criterion_05_hypergeometric_bridge():
    with criterion("5 moment-built G equals hypergeometric form (m,n,r<=3)", 30.0):
        for m in range(4):
            for n in range(4):
                for r in range(1, 4):
                    assert check_lemma29(m, n, r).holds, (m, n, r)


def test_criterion_06_H_properties():
    with criterion("6 H zero at 1/2 and positive at 50 samples (m,n<=4, r<=3)", 60.0):
        for r in range(1, 4):
            for n in range(5):
                for m in range(n, 5):
                    verdicts = check_H_positivity(m, n, r, sample_count=50)
                    if m == n:
                        assert verdicts[0].claim == "H_nn_half_zero"
                        assert verdicts[0].equality, (m, n, r)
                    for v in verdicts:
                        assert v.holds, (m, n, r, v.as_dict())


def test_criterion_07_stationary_point_certificates():
    with criterion("7 B_{m+1} meets B_m inside a 2^-20 bracket (m,n<=3, r<=2)", 60.0):
        for r in range(1, 3):
            for n in range(4):
                for m in range(n, 4):
                    cert = check_lemma210(m, n, r)
                    lo, hi = cert.bracket
                    assert hi - lo <= LEMMA210_WIDTH, (m, n, r)
                    assert cert.stationary_values_agree, (m, n, r)
                    if m == n:
                        assert cert.derivative_at_half is not None
                        assert cert.derivative_at_half > 0, (m, n, r)


def test_criterion_08_thm22_cor23_grids():
    with criterion("8 thm22/cor23 grids with exact equality classification", 60.0):
        variances = (HALF, Fraction(1), Fraction(2))
        for m in range(4):
            for n in range(4):
                for r in range(1, 3):
                    for a2 in variances:
                        for b2 in variances:
                            v = check_thm22(m, n, r, a2, b2)
                            assert v.holds, (m, n, r, a2, b2)
                            assert v.equality == (m == n and a2 == b2), (m, n, r, a2, b2)
                            assert v.equality == v.equality_condition_met
                    for s in variances:
                        for c in (Fraction(0), s / 2, -s / 2):
                            cov2 = CovarianceMatrix.from_rows([[s, c], [c, s]])
                            v = check_cor23(m, n, r, cov2)
                            assert v.holds, (m, n, r, s, c)
                            assert v.equality == (m == n and c == 0), (m, n, r, s, c)
                            assert v.equality == v.equality_condition_met


def test_criterion_09_degenerate_triples_strict():
    with criterion("9 lemma31 degenerate sweep strict (a,sigma2 grid, m,n<=3)", 60.0):
        for a in (Fraction(-1), Fraction(-1, 2), HALF, Fraction(1), Fraction(2)):
            for sigma2 in (Fraction(1, 4), Fraction(1), Fraction(4)):
                for m in range(1, 4):
                    for n in range(1, 4):
                        v = check_lemma31(m, n, a, sigma2)
                        assert v.lhs > v.rhs, (a, sigma2, m, n)


def test_criterion_10_randomized_theorem_sweep():
    with criterion("10 thm32 sweep: 1000 seeded Gram covariances, m,n<=2", 300.0):
        records = list(run_sweep(
            SweepConfig(seed=20260810, count=1000, q=4, m_max=2, n_max=2)
        ))
        assert len(records) == 4000
        assert all(rec["holds"] for rec in records)
        diag_records = list(run_sweep(
            SweepConfig(seed=99, count=25, q=4, m_max=2, n_max=2, diagonal=True)
        ))
        assert diag_records and all(rec["equality"] for rec in diag_records)


def test_criterion_11_oracle_equivalence():
    with criterion("11 engine vs pairing oracle on 200 random instances", 60.0):
        gen = SplitMix64(0xACCE97)
        checked = 0
        while checked < 200:
            d = gen.randint(1, 3)
            cov = random_covariance(gen, d, 3)
            ks = tuple(gen.randint(0, 4) for _ in range(d))
            if sum(ks) > 8:
                continue
            assert gaussian_moment(cov, ks) == pairing_moment(cov, ks)
            checked += 1
