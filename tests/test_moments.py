"""Moment engine against independent routes and hand-derived values.

The pairing oracle (exhaustive sum over perfect matchings) is validated first
on values small enough to count by hand; the pairing-count engine then has to
agree with it, with the Wick recursion and with Kan's formula everywhere.
"""

from __future__ import annotations

import gc
import inspect
import itertools
import math
import random
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpi_lab import moments
from gpi_lab._pairing import pairing_moment, wick_moment
from gpi_lab.core import SplitMix64
from gpi_lab.moments import (
    CovarianceMatrix,
    gaussian_moment,
    is_psd,
    random_covariance,
    univariate_even_moment,
)

from conftest import bounded_exponents, gram_covariances, principal_minor

WEI_COV = CovarianceMatrix.from_rows([[1, 1, 1], [1, 5, -3], [1, -3, 5]])
RHO_HALF = CovarianceMatrix.from_rows([[1, "1/2"], ["1/2", 1]])


class TestPairingOracle:
    """Anchor the oracle itself before using it to judge the engine."""

    def test_two_coordinate_pairings_by_hand(self):
        # {x,x,y,y} has 3 matchings: (xx)(yy) + 2 (xy)(xy) = 1 + 2 rho^2
        assert pairing_moment(RHO_HALF, (2, 2)) == Fraction(3, 2)

    def test_univariate_fourth_moment(self):
        cov = CovarianceMatrix.from_rows([[2]])
        assert pairing_moment(cov, (4,)) == 3 * 4  # 3 sigma^4

    def test_odd_degree_vanishes(self):
        assert pairing_moment(RHO_HALF, (2, 1)) == 0

    def test_counterexample_lhs(self):
        assert pairing_moment(WEI_COV, (2, 2, 2)) == 39


class TestGaussianMoment:
    def test_wei_covariance_paper_value(self):
        assert gaussian_moment(WEI_COV, (2, 2, 2)) == 39

    def test_correlated_pair(self):
        assert gaussian_moment(RHO_HALF, (2, 2)) == Fraction(3, 2)

    def test_diagonal_factorizes_into_double_factorials(self):
        cov = CovarianceMatrix.diagonal(["1/2", 2, 3])
        expected = (
            univariate_even_moment(Fraction(1, 2), 2)
            * univariate_even_moment(2, 1)
            * univariate_even_moment(3, 3)
        )
        assert gaussian_moment(cov, (4, 2, 6)) == expected

    def test_empty_product_is_one(self):
        assert gaussian_moment(WEI_COV, (0, 0, 0)) == 1

    def test_odd_total_degree_is_zero(self):
        assert gaussian_moment(WEI_COV, (1, 2, 2)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="2 exponents for a 3x3 covariance"):
            gaussian_moment(WEI_COV, (2, 2))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            gaussian_moment(WEI_COV, (-2, 2, 2))

    @pytest.mark.parametrize("route", [gaussian_moment, pairing_moment, wick_moment])
    def test_every_route_shares_the_exponent_check(self, route):
        for exponents in ((2, 2), (2, 2, 2, 2)):
            with pytest.raises(ValueError, match="exponents for a 3x3"):
                route(WEI_COV, exponents)
        with pytest.raises(ValueError, match="nonnegative"):
            route(WEI_COV, (2, -2, 2))
        for exponents in ((2, 2.0, 2), (2, True, 1)):
            # bool is an int subclass, so operator.index alone reads True as 1.
            with pytest.raises(ValueError, match="exponents must be integers"):
                route(WEI_COV, exponents)
        assert route(WEI_COV, [2, 2, 2]) == 39
        assert route(WEI_COV, iter((2, 2, 2))) == 39

    @given(gram_covariances(), st.data())
    def test_oracle_equivalence(self, cov, data):
        ks = data.draw(bounded_exponents(cov.dim))
        assert gaussian_moment(cov, ks) == pairing_moment(cov, ks)

    def test_oracle_equivalence_on_degenerate_covariances(self):
        # Singular and zero-variance coordinates stay exact.
        rank_one = CovarianceMatrix.from_rows([[1, 1], [1, 1]])
        dead_coordinate = CovarianceMatrix.from_rows(
            [[0, 0, 0], [0, 2, 1], [0, 1, 2]]
        )
        for cov, ks in [
            (rank_one, (2, 4)),
            (rank_one, (3, 3)),
            (dead_coordinate, (2, 2, 2)),
            (dead_coordinate, (0, 4, 2)),
        ]:
            assert gaussian_moment(cov, ks) == pairing_moment(cov, ks), (cov, ks)
        assert gaussian_moment(dead_coordinate, (2, 2, 2)) == 0

    @given(gram_covariances(min_dim=2), st.data())
    def test_permutation_equivariance(self, cov, data):
        ks = data.draw(bounded_exponents(cov.dim))
        perm = data.draw(st.permutations(range(cov.dim)))
        permuted = CovarianceMatrix.from_rows(
            [[cov.entries[perm[i]][perm[j]] for j in range(cov.dim)] for i in range(cov.dim)]
        )
        permuted_ks = tuple(ks[perm[i]] for i in range(cov.dim))
        assert gaussian_moment(permuted, permuted_ks) == gaussian_moment(cov, ks)

    @given(gram_covariances(), st.data())
    def test_diagonal_scaling(self, cov, data):
        ks = data.draw(bounded_exponents(cov.dim))
        scales = [
            data.draw(st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(3, 2), Fraction(-1)]))
            for _ in range(cov.dim)
        ]
        scaled = CovarianceMatrix.from_rows(
            [
                [scales[i] * scales[j] * cov.entries[i][j] for j in range(cov.dim)]
                for i in range(cov.dim)
            ]
        )
        factor = 1
        for c, k in zip(scales, ks):
            factor *= c**k
        assert gaussian_moment(scaled, ks) == factor * gaussian_moment(cov, ks)

    @given(gram_covariances(max_dim=2), gram_covariances(max_dim=2), st.data())
    def test_block_diagonal_factorization(self, cov_a, cov_b, data):
        ka = data.draw(bounded_exponents(cov_a.dim, total=4))
        kb = data.draw(bounded_exponents(cov_b.dim, total=4))
        da, db = cov_a.dim, cov_b.dim
        rows = []
        for i in range(da):
            rows.append(list(cov_a.entries[i]) + [Fraction(0)] * db)
        for i in range(db):
            rows.append([Fraction(0)] * da + list(cov_b.entries[i]))
        block = CovarianceMatrix.from_rows(rows)
        assert gaussian_moment(block, ka + kb) == gaussian_moment(cov_a, ka) * gaussian_moment(
            cov_b, kb
        )


def kan_moment(cov: CovarianceMatrix, ks: tuple[int, ...]) -> Fraction:
    """Kan (2008), "From moments of sum to moments of product", Proposition 1:

    E[prod X_i^{k_i}] = 1/s! sum_v (-1)^{sum v} prod C(k_i, v_i) (h' cov h / 2)^s

    over 0 <= v_i <= k_i, with h_i = k_i/2 - v_i and s half the total degree.
    """
    total_degree = sum(ks)
    if total_degree % 2:
        return Fraction(0)
    s = total_degree // 2
    d = len(ks)
    total = Fraction(0)
    for v in itertools.product(*(range(k + 1) for k in ks)):
        h = [Fraction(k, 2) - vi for k, vi in zip(ks, v)]
        quad = sum(h[i] * cov.entries[i][j] * h[j] for i in range(d) for j in range(d)) / 2
        weight = math.prod(math.comb(k, vi) for k, vi in zip(ks, v))
        total += (-1) ** sum(v) * weight * quad**s
    return total / math.factorial(s)


def _seeded_covariance(rng: random.Random, d: int) -> CovarianceMatrix:
    """Gram matrix of a d x r rational matrix with entries of both signs; r < d
    makes it singular, and a zeroed cross block leaves zero off-diagonals."""
    r = rng.randint(1, d)
    a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(r)] for _ in range(d)]
    rows = [[sum(a[i][t] * a[j][t] for t in range(r)) for j in range(d)] for i in range(d)]
    if d > 1 and rng.random() < 0.3:
        split = rng.randint(1, d - 1)
        rows = [
            [rows[i][j] if (i < split) == (j < split) else Fraction(0) for j in range(d)]
            for i in range(d)
        ]
    return CovarianceMatrix.from_rows(rows)


class TestIndependentRoutes:
    """The engine shares no arithmetic with the Wick recursion, the pairing
    enumeration or Kan's formula, so agreement on every instance checks it."""

    def test_seeded_cross_check(self):
        rng = random.Random(20220614)
        for trial in range(160):
            d = trial % 4 + 1
            cov = _seeded_covariance(rng, d)
            for _ in range(3):
                ks = tuple(rng.randint(0, 8 // d + 1) for _ in range(d))
                value = gaussian_moment(cov, ks)
                assert value == wick_moment(cov, ks), (cov, ks)
                assert value == kan_moment(cov, ks), (cov, ks)
                if sum(ks) <= 8:
                    assert value == pairing_moment(cov, ks), (cov, ks)

    def test_named_degenerate_instances(self):
        singular = CovarianceMatrix.from_rows([[4, -2, 2], [-2, 1, -1], [2, -1, 1]])
        zeros_4x4 = CovarianceMatrix.from_rows(
            [[2, 0, 1, 1], [0, 2, 1, -1], [1, 1, 2, 0], [1, -1, 0, 2]]
        )
        negative = CovarianceMatrix.from_rows([["1/2", "-1/3"], ["-1/3", "5/4"]])
        for cov, ks in [
            (singular, (2, 2, 2)),
            (singular, (3, 1, 2)),
            (singular, (1, 2, 2)),  # odd total degree
            (zeros_4x4, (2, 2, 2, 2)),
            (zeros_4x4, (1, 1, 1, 1)),
            (negative, (3, 3)),
            (negative, (5, 1)),
            (CovarianceMatrix.from_rows([["7/3"]]), (6,)),
        ]:
            value = gaussian_moment(cov, ks)
            assert value == wick_moment(cov, ks) == pairing_moment(cov, ks), (cov, ks)
            assert value == kan_moment(cov, ks), (cov, ks)

    def test_interleaved_covariances_and_growing_degrees(self):
        # Alternate two covariances and raise, then lower, the degree, so the
        # engine's tables are rebuilt and extended between calls.
        a = CovarianceMatrix.from_rows([[5, 2, -1], [2, 3, 1], [-1, 1, 2]])
        b = CovarianceMatrix.from_rows([["1/2", "1/4", 0], ["1/4", 1, "1/3"], [0, "1/3", 3]])
        for m in (1, 4, 2, 6, 1):
            for cov in (a, b, a):
                ks = (2 * m, 2 * m, 2)
                assert gaussian_moment(cov, ks) == wick_moment(cov, ks), (cov, ks)
        # An equal covariance built separately gives the same value.
        assert gaussian_moment(CovarianceMatrix(a.entries), (6, 4, 2)) == wick_moment(a, (6, 4, 2))


def _query_orders(exponents: list[tuple[int, ...]]) -> dict[str, list[tuple[int, ...]]]:
    """The same queries ascending, descending and interleaved (small, large,
    next small, ...) by total degree, so a covariance's plans regrow midway."""
    ascending = sorted(exponents, key=lambda ks: (sum(ks), ks))
    interleaved = []
    lo, hi = 0, len(ascending) - 1
    while lo <= hi:
        interleaved.append(ascending[lo])
        if lo < hi:
            interleaved.append(ascending[hi])
        lo, hi = lo + 1, hi - 1
    return {
        "ascending": ascending,
        "descending": ascending[::-1],
        "interleaved": interleaved,
    }


MEMO_CASES = {
    "full 3x3": [[5, 2, -1], [2, 3, 1], [-1, 1, 2]],
    # S_02 = 0, D = 12: coordinate 0 closes at its only pair (0, 1).
    "zero entry, rational": [["1/2", "1/4", 0], ["1/4", 1, "1/3"], [0, "1/3", 3]],
    # Coordinate 2 has no cross pair and keeps its direct (2h-1)!! S_22^h.
    "uncrossed coordinate": [["3/2", "-1/2", 0], ["-1/2", 2, 0], [0, 0, "5/3"]],
    "singular 3x3": [[4, -2, 2], [-2, 1, -1], [2, -1, 1]],
    "full 4x4": [[4, 1, -1, 2], [1, 3, 1, 0], [-1, 1, 5, 1], [2, 0, 1, 4]],
    # Pair (0, 1) is not the last level but closes both of its coordinates.
    "two blocks 4x4": [["2", "1/2", 0, 0], ["1/2", 1, 0, 0], [0, 0, 3, -1], [0, 0, -1, "2/3"]],
    "zeros 4x4": [[2, 0, 1, 1], [0, 2, 1, -1], [1, 1, 2, 0], [1, -1, 0, 2]],
}


class TestMemoisedEngine:
    """The plans and memoised level sums against the Wick recursion and the
    pairing enumeration, one covariance per case, asked in three orders."""

    @pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
    @pytest.mark.parametrize("case", list(MEMO_CASES))
    def test_matches_wick_and_pairings_in_any_order(self, case, order):
        rows = MEMO_CASES[case]
        d = len(rows)
        top = 5 if d == 3 else 3
        queries = _query_orders(list(itertools.product(range(top + 1), repeat=d)))[order]
        cov = CovarianceMatrix.from_rows(rows)
        oracle = CovarianceMatrix.from_rows(rows)
        for ks in queries:
            value = gaussian_moment(cov, ks)
            assert value == wick_moment(oracle, ks), (case, ks)
            if sum(ks) <= 8:
                assert value == pairing_moment(oracle, ks), (case, ks)
        assert gaussian_moment(cov, (0,) * d) == 1

    def test_empty_exponents_on_an_empty_covariance(self):
        empty = CovarianceMatrix(())
        assert gaussian_moment(empty, ()) == 1 == wick_moment(empty, ())

    def test_plan_is_rebuilt_only_for_longer_tables_and_keeps_its_sums(self):
        cov = CovarianceMatrix.from_rows(MEMO_CASES["full 3x3"])
        gaussian_moment(cov, (2, 2, 2))
        plan = cov._plans[(0, 1, 2)]
        gaussian_moment(cov, (2, 0, 2))
        gaussian_moment(cov, (1, 1, 2))
        assert cov._plans[(0, 1, 2)] is plan
        assert set(cov._plans) == {(0, 1, 2), (0, 2)}
        gaussian_moment(cov, (6, 2, 2))
        grown = cov._plans[(0, 1, 2)]
        assert grown is not plan and grown.sums is plan.sums
        assert grown.caps[0] >= 6
        # Growth rebuilds every level's tables to the new caps.
        for i, j, cross, close_i, close_j in grown.levels:
            assert len(cross) == min(grown.caps[i], grown.caps[j]) + 1
            for c, close in ((i, close_i), (j, close_j)):
                assert close is None or len(close) == grown.caps[c] // 2 + 1
        # The innermost level holds scaled 2-D moments of the last pair (1, 2):
        # D^((a+b)/2) E[X_1^a X_2^b] with coordinate 0 closed to 0.
        for key, value in grown.sums[-1].items():
            assert key[0] == 0
            assert value == wick_moment(cov, key) * cov.denominator ** (sum(key) // 2)

    def test_uncrossed_coordinates_leave_the_keys(self):
        cov = CovarianceMatrix.from_rows(MEMO_CASES["uncrossed coordinate"])
        gaussian_moment(cov, (2, 2, 4))
        gaussian_moment(cov, (2, 2, 6))
        plan = cov._plans[(0, 1, 2)]
        assert plan.uncrossed == (2,)
        assert list(plan.sums[0]) == [(2, 2, 0)]

    @pytest.mark.parametrize("case", ["full 3x3", "full 4x4"])
    def test_every_level_agrees_across_query_orders(self, case):
        # Ascending queries fill the levels below from small keys up; descending
        # ones reach most keys first through the largest.  A level sum depends
        # on its key only, so both covariances hold the same value for it.
        rows = MEMO_CASES[case]
        d = len(rows)
        orders = _query_orders(list(itertools.product(range(6 if d == 3 else 4), repeat=d)))
        up, down = CovarianceMatrix.from_rows(rows), CovarianceMatrix.from_rows(rows)
        for cov, order in ((up, "ascending"), (down, "descending")):
            for ks in orders[order]:
                gaussian_moment(cov, ks)
        assert up._plans.keys() == down._plans.keys()
        full = tuple(range(d))
        for coords, plan in up._plans.items():
            for p, (mine, theirs) in enumerate(zip(plan.sums, down._plans[coords].sums)):
                shared = mine.keys() & theirs.keys()
                assert shared or coords != full, (case, p)
                for key in shared:
                    assert mine[key] == theirs[key], (case, coords, p, key)
            if plan.levels and not plan.uncrossed:
                # With no coordinate left out of the keys, level 0 holds the
                # scaled moments themselves.
                for key, value in plan.sums[0].items():
                    assert value == wick_moment(up, key) * up.denominator ** (sum(key) // 2)

    def test_deep_plans_match_wick_and_pairings(self):
        rng = random.Random(20261019)
        dense = CovarianceMatrix.from_rows([[4 if i == j else 1 for j in range(5)] for i in range(5)])
        gram = random_covariance(SplitMix64(6), 8, 1)
        for cov, depth, top in ((dense, 10, 4), (gram, 26, 2)):
            d = cov.dim
            queries = [(top,) * d, (1,) * d]
            queries += [tuple(rng.randint(0, top) for _ in range(d)) for _ in range(40)]
            for ks in queries:
                value = gaussian_moment(cov, ks)
                assert value == wick_moment(cov, ks), ks
                if sum(ks) <= 8:
                    assert value == pairing_moment(cov, ks), ks
            assert len(cov._plans[tuple(range(d))].levels) == depth

    def test_descent_depth_is_bounded_by_the_cross_pairs(self):
        # Degree 404 on three levels, the large counts at the first level and
        # then at the last: a frame per unit of degree would pass the lowered
        # limit, a frame per cross pair stays well inside it.
        rows = MEMO_CASES["full 3x3"]
        cov = CovarianceMatrix.from_rows(rows)
        mirrored = CovarianceMatrix.from_rows([row[::-1] for row in rows[::-1]])
        queries = [(200, 200, 4), (4, 200, 200)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 25)
        try:
            values = [gaussian_moment(cov, ks) for ks in queries]
        finally:
            sys.setrecursionlimit(limit)
        assert values == [gaussian_moment(mirrored, ks[::-1]) for ks in queries]

    def test_descent_past_the_recursion_limit_is_an_input_error(self):
        # A 60-coordinate chain has 59 levels, past a limit 30 frames above
        # the caller.  The plan already holds the sums of a finished call, and
        # the cut-short descent must leave only complete ones beside them.
        rows = [[4 if i == j else int(abs(i - j) == 1) for j in range(60)] for i in range(60)]
        cov = CovarianceMatrix.from_rows(rows)
        gaussian_moment(cov, (2,) * 60)
        ks = (4,) * 60
        limit = sys.getrecursionlimit()
        lowered = len(inspect.stack(0)) + 30
        message = f"^59 nonzero cross pairs .* recursion limit of {lowered} allows$"
        with pytest.raises(ValueError, match=message):
            sys.setrecursionlimit(lowered)
            try:
                gaussian_moment(cov, ks)
            finally:
                sys.setrecursionlimit(limit)
        assert gaussian_moment(cov, ks) == gaussian_moment(CovarianceMatrix.from_rows(rows), ks)

class TestTablesPerCovariance:
    """Each covariance carries its own integer form and power tables."""

    def test_interleaved_covariances_keep_their_own_tables(self):
        a = CovarianceMatrix.from_rows([[5, 2, -1], [2, 3, 1], [-1, 1, 2]])
        b = CovarianceMatrix.from_rows([["1/2", "1/4", 0], ["1/4", 1, "1/3"], [0, "1/3", 3]])
        assert (a.denominator, a.scaled) == (1, ((5, 2, -1), (2, 3, 1), (-1, 1, 2)))
        assert (b.denominator, b.scaled) == (12, ((6, 3, 0), (3, 12, 4), (0, 4, 36)))
        gaussian_moment(a, (2, 2, 2))
        for m in (1, 3, 2):
            for cov in (a, b):
                ks = (2 * m, 2 * m, 2)
                assert gaussian_moment(cov, ks) == wick_moment(cov, ks), (cov, ks)
        # Level 0 is the pair (0, 1), the last pair of coordinate 0: l! S_01^l
        # and (2h-1)!! S_00^h over each covariance's own scaled matrix.
        _, _, cross_a, _, _ = a._plans[(0, 1, 2)].levels[0]
        _, _, cross_b, close_b, _ = b._plans[(0, 1, 2)].levels[0]
        assert cross_a[:3] == (1, 2, 8)
        assert cross_b[:3] == (1, 3, 18)
        assert close_b == (1, 6, 3 * 6**2, 15 * 6**3)

    def test_only_the_covariance_holds_its_tables(self):
        # No module-level cache: the covariance is the one referrer.  Its
        # attributes may sit inline on the object rather than in a __dict__.
        cov = CovarianceMatrix.from_rows([[2, 1], [1, 2]])
        gaussian_moment(cov, (4, 2))
        assert gc.get_referrers(cov._plans) in ([cov], [vars(cov)])
        assert not hasattr(moments, "_recent_tables")

    def test_draw_is_freed_by_refcounting(self):
        # The tables point at no covariance and the engine makes no reference
        # cycle, so dropping the last reference to a draw frees it without
        # waiting for the cycle collector, which then finds nothing.
        gc.collect()
        gc.disable()
        try:
            cov = random_covariance(SplitMix64(3), 3, 4)
            for ks in ((4, 4, 2), (2, 2, 6), (8, 8, 8), (4, 0, 2)):
                gaussian_moment(cov, ks)
            assert len(cov._plans) == 2
            ref = weakref.ref(cov)
            del cov
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_every_attribute_is_read_only(self):
        cov = CovarianceMatrix.from_rows([[2, 1], [1, 2]])
        gaussian_moment(cov, (4, 2))
        for name in (*vars(cov), "dim", "fresh"):
            with pytest.raises(AttributeError):
                setattr(cov, name, None)
        assert cov.entries == ((2, 1), (1, 2)) and cov.denominator == 1

    def test_equality_and_hash_see_entries_only(self):
        rows = [[5, 2, -1], [2, 3, 1], [-1, 1, 2]]
        grown, fresh = CovarianceMatrix.from_rows(rows), CovarianceMatrix.from_rows(rows)
        gaussian_moment(grown, (4, 4, 2))
        assert grown._plans and not fresh._plans
        assert grown == fresh and hash(grown) == hash(fresh)
        assert len({grown, fresh}) == 1
        assert grown != CovarianceMatrix.from_rows([[5, 2, -1], [2, 3, 1], [-1, 1, 3]])
        assert grown != rows
        pair = [[1, "1/2"], ["1/2", 1]]
        bare = CovarianceMatrix(pair)
        assert bare == CovarianceMatrix.from_rows(pair)
        assert hash(bare) == hash(CovarianceMatrix.from_rows(pair))

    def test_repr_shows_entries_only(self):
        cov = CovarianceMatrix.from_rows([[1, "1/2"], ["1/2", 1]])
        gaussian_moment(cov, (2, 2))
        assert repr(cov) == f"CovarianceMatrix(entries={cov.entries!r})"
        for name in ("denominator", "scaled", "_plans"):
            assert name not in repr(cov)


class TestUnivariateEvenMoment:
    def test_standard_fourth(self):
        assert univariate_even_moment(1, 2) == 3

    def test_variance_two_second(self):
        assert univariate_even_moment(2, 1) == 2

    def test_degree_4000_has_no_recursion_limit(self):
        variance = Fraction(3, 2)
        cov = CovarianceMatrix.from_rows([[variance]])
        expected = math.prod(range(1, 4000, 2)) * variance**2000  # 3999!! v^2000
        assert gaussian_moment(cov, (4000,)) == expected

    def test_sixth_matches_engine(self):
        cov = CovarianceMatrix.from_rows([[1]])
        assert univariate_even_moment(1, 3) == 15
        assert gaussian_moment(cov, (6,)) == 15

    def test_sum_moment_closed_form_high_degree(self):
        # E[(X+Y)^{2r}] = (2r-1)!! (a2+b2)^r through the joint-moment engine, up to
        # degree 20, on the 3x3 covariance of (X, Y, X+Y).
        for a2, b2 in [(Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(3))]:
            cov3 = CovarianceMatrix.from_rows(
                [[a2, 0, a2], [0, b2, b2], [a2, b2, a2 + b2]]
            )
            for r in range(1, 11):
                assert gaussian_moment(cov3, (0, 0, 2 * r)) == univariate_even_moment(
                    a2 + b2, r
                )

    def test_mixed_power_binomial_expansion_high_degree(self):
        # E[X^{2m}(X+Y)^{2r}] expanded binomially over independent moments.
        a2, b2 = Fraction(2), Fraction(1, 3)
        cov3 = CovarianceMatrix.from_rows([[a2, 0, a2], [0, b2, b2], [a2, b2, a2 + b2]])
        for m in range(4):
            for r in range(1, 6):
                expected = Fraction(0)
                for i in range(2 * r + 1):
                    x_power = 2 * m + i
                    y_power = 2 * r - i
                    if x_power % 2 or y_power % 2:
                        continue
                    expected += (
                        math.comb(2 * r, i)
                        * univariate_even_moment(a2, x_power // 2)
                        * univariate_even_moment(b2, y_power // 2)
                    )
                assert gaussian_moment(cov3, (2 * m, 0, 2 * r)) == expected, (m, r)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="variance must be >= 0"):
            univariate_even_moment(-1, 1)

    def test_matches_engine_and_running_product(self):
        variances = [0, 1, 3, Fraction(2, 7), Fraction(9, 4), "5/3", "0/4", "12/8"]
        for variance in variances:
            cov = CovarianceMatrix.from_rows([[variance]])
            for m in range(61):
                running = Fraction(1)
                for i in range(1, m + 1):
                    running *= 2 * i - 1
                running *= Fraction(variance) ** m
                value = univariate_even_moment(variance, m)
                assert value == running, (variance, m)
                assert value == gaussian_moment(cov, (2 * m,)), (variance, m)
        with pytest.raises(ValueError):
            univariate_even_moment(1, -1)


class TestIsPsd:
    def test_indefinite_two_by_two(self):
        cert = is_psd([[1, 2], [2, 1]])
        assert not cert
        assert cert.minor == -3
        assert cert.indices == (0, 1)

    def test_identity(self):
        assert is_psd([[1, 0], [0, 1]])

    def test_certificate_truth_is_the_verdict(self):
        # A certificate is a non-empty tuple, so only __bool__ makes a failing one falsy.
        assert bool(is_psd([[1, 2], [2, 1]])) is False
        assert bool(is_psd([[0]])) is True
        assert bool(moments.PsdCertificate(False, (0,), Fraction(-1))) is False

    def test_rank_one_gram(self):
        assert is_psd([[1, 1], [1, 1]])

    def test_zero_pivot_then_negative(self):
        # All leading principal minors vanish; the {1} principal minor is -1.
        cert = is_psd([[0, 0], [0, -1]])
        assert not cert
        assert cert.indices == (1,)
        assert cert.minor == -1

    def test_zero_pivot_nonzero_row(self):
        cert = is_psd([[0, 1], [1, 1]])
        assert not cert
        assert cert.minor < 0

    def test_not_symmetric(self):
        with pytest.raises(ValueError, match=r"entries \(0,1\) and \(1,0\) differ"):
            is_psd([[1, 2], [3, 1]])
        with pytest.raises(ValueError, match="matrix is not square"):
            is_psd([[1, 2, 3], [2, 1, 1]])

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=16), st.integers(1, 4))
    def test_negative_certificates_recheck(self, entries, dim):
        # Build a symmetric matrix from whatever integers are available.
        vals = iter(itertools.cycle(entries))
        sym = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                sym[i][j] = sym[j][i] = next(vals)
        cert = is_psd(sym)
        if not cert:
            assert principal_minor(sym, cert.indices) == cert.minor
            assert cert.minor < 0

    def test_psd_agrees_with_all_principal_minors_small(self):
        # Exhaustive 2x2 integer matrices: PSD iff every principal minor >= 0.
        for a, b, d in itertools.product(range(-3, 4), repeat=3):
            matrix = [[a, b], [b, d]]
            expected = a >= 0 and d >= 0 and a * d - b * b >= 0
            assert bool(is_psd(matrix)) == expected, matrix

    @given(st.lists(st.integers(-3, 3), min_size=6, max_size=6))
    def test_psd_matches_sylvester_criterion_3x3(self, vals):
        # Independent oracle: symmetric A is PSD iff all 2^3 - 1 principal
        # minors are nonnegative.
        a, b, c, d, e, f = vals
        matrix = [[a, b, c], [b, d, e], [c, e, f]]
        subsets = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
        expected = all(principal_minor(matrix, idx) >= 0 for idx in subsets)
        assert bool(is_psd(matrix)) == expected, matrix


def _symmetric(rng: random.Random, d: int, kind: str) -> list[list[Fraction]]:
    """A seeded rational d x d symmetric matrix of the given kind."""

    def rational():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    if kind == "indefinite":
        rows = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                rows[i][j] = rows[j][i] = rational()
        return rows
    # Gram matrices A A^T: PSD, and singular when A has fewer columns than rows.
    width = d if kind == "psd" else rng.randint(1, d - 1)
    a = [[rational() for _ in range(width)] for _ in range(d)]
    rows = [[sum(a[i][t] * a[j][t] for t in range(width)) for j in range(d)] for i in range(d)]
    if kind.startswith("zero_line"):
        # Zeroing a row and its column keeps PSD and makes a zero pivot that
        # elimination skips; lowering the last variance then may break PSD.
        z = rng.randrange(d - 1)
        for i in range(d):
            rows[i][z] = rows[z][i] = Fraction(0)
        if kind == "zero_line_lowered":
            rows[d - 1][d - 1] -= rng.randint(1, 20)
    return rows


class TestPsdAgainstSylvester:
    """Fraction-free elimination against Sylvester's criterion on every
    principal minor, computed by fraction Gaussian elimination."""

    KINDS = ("psd", "singular", "zero_line", "zero_line_lowered", "indefinite")

    def test_seeded_rational_matrices(self):
        rng = random.Random(19680101)
        seen = {True: 0, False: 0}
        # A certificate from a zero pivot ends (..., k, j) with the minor on
        # (..., k) zero; one from a negative pivot has a positive minor there.
        zero_pivot_branch = {True: 0, False: 0}
        for d in (3, 4):
            for kind in self.KINDS:
                for _ in range(40):
                    rows = _symmetric(rng, d, kind)
                    expected = all(
                        principal_minor(rows, idx) >= 0
                        for size in range(1, d + 1)
                        for idx in itertools.combinations(range(d), size)
                    )
                    if kind in ("psd", "singular", "zero_line"):
                        assert expected, rows
                    cert = is_psd(rows)
                    assert bool(cert) == expected, rows
                    seen[expected] += 1
                    if expected:
                        cov = CovarianceMatrix.from_rows(rows)
                        assert cov.entries == tuple(tuple(row) for row in rows)
                        continue
                    assert cert.minor < 0
                    assert cert.minor == principal_minor(rows, cert.indices)
                    zero_pivot_branch[principal_minor(rows, cert.indices[:-1]) == 0] += 1
                    with pytest.raises(ValueError) as info:
                        CovarianceMatrix.from_rows(rows)
                    assert str(info.value) == (
                        f"not PSD: principal minor on rows {cert.indices} is {cert.minor}"
                    )
        assert seen[True] >= 240 and seen[False] >= 60
        assert zero_pivot_branch[True] and zero_pivot_branch[False]

    def test_string_and_mixed_entries(self):
        cert = is_psd([["1/2", 1], [1, "1/3"]])
        assert not cert
        assert cert.indices == (0, 1)
        assert cert.minor == Fraction(1, 6) - 1
        assert is_psd([["1/2", Fraction(1, 4)], [Fraction(1, 4), 2]])


class TestRandomCovariance:
    def test_fixed_seed_reproduces(self):
        a = random_covariance(SplitMix64(42), 3, 3)
        b = random_covariance(SplitMix64(42), 3, 3)
        assert a == b

    def test_dimension_one_square(self):
        cov = random_covariance(SplitMix64(5), 1, 4)
        value = cov.entries[0][0]
        assert value > 0
        assert math.isqrt(int(value)) ** 2 == value  # a perfect square a^2

    def test_always_psd_over_many_seeds(self):
        for seed in range(1000):
            cov = random_covariance(SplitMix64(seed), 3, 3)
            assert is_psd(cov.entries)
            assert all(cov.entries[i][i] > 0 for i in range(3))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            random_covariance(SplitMix64(0), 0, 3)


class TestJsonInterfaces:
    def test_covariance_roundtrip(self):
        doc = {"dim": 3, "entries": [["1", "1", "1"], ["1", "5", "-3"], ["1", "-3", "5"]]}
        assert CovarianceMatrix.from_json(doc) == WEI_COV

    def test_covariance_accepts_unreduced_strings(self):
        doc = {"dim": 2, "entries": [["2/2", "0"], ["0", "4/4"]]}
        assert CovarianceMatrix.from_json(doc) == CovarianceMatrix.diagonal([1, 1])

    def test_covariance_dim_mismatch(self):
        with pytest.raises(ValueError, match="declared dim 2 but 1 rows"):
            CovarianceMatrix.from_json({"dim": 2, "entries": [["1"]]})

    def test_non_psd_rejected_at_construction(self):
        with pytest.raises(ValueError, match="not PSD"):
            CovarianceMatrix.from_rows([[1, 2], [2, 1]])

    @pytest.mark.parametrize("rows", [[[[1]]], [1, 2]], ids=["nested entry", "flat row"])
    def test_unreadable_rows_rejected_at_construction(self, rows):
        with pytest.raises(ValueError, match="bad covariance entry"):
            CovarianceMatrix(rows)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CovarianceMatrix(["21", "12"]),
            lambda: CovarianceMatrix(iter([[2, 1], "12"])),
            lambda: CovarianceMatrix("12"),
            lambda: CovarianceMatrix.diagonal("23"),
        ],
        ids=["string rows", "string row in an iterator", "string row list", "string variances"],
    )
    def test_strings_are_not_read_as_lists_of_characters(self, build):
        # Before the check, ["21", "12"] built [[2, 1], [1, 2]] and "23" diag(2, 3).
        with pytest.raises(ValueError, match="not the string"):
            build()

    def test_rows_are_read_once(self):
        rows = iter([["2", "1"], [1, 2]])
        assert CovarianceMatrix(rows) == CovarianceMatrix.from_rows([[2, 1], [1, 2]])
