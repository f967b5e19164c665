"""Shared hypothesis strategies and the Sylvester-criterion oracle for the
exact-arithmetic suite."""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import strategies as st

from gpi_lab.core import Polynomial
from gpi_lab.moments import CovarianceMatrix


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Report a failing property test under `-W error` too.  Hypothesis's
    plugin, explaining the failing example, imports libcst, which touches the
    deprecated `mypy_extensions.TypedDict`; as an error that warning ends the
    session in INTERNALERROR and hides every later result.  An ini
    `filterwarnings` entry does not help: the command line's `-W error`
    overrides it.  Only that one warning is ignored, only while reporting."""
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
        )
        yield


def rationals(max_num: int = 50, max_den: int = 20) -> st.SearchStrategy[Fraction]:
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def polynomials(max_degree: int = 6) -> st.SearchStrategy[Polynomial]:
    return st.builds(
        Polynomial,
        st.lists(rationals(max_num=12, max_den=8), min_size=0, max_size=max_degree + 1),
    )


@st.composite
def gram_covariances(draw, min_dim: int = 1, max_dim: int = 3, q: int = 3):
    """PSD-by-construction integer Gram matrices A A^T."""
    d = draw(st.integers(min_dim, max_dim))
    a = draw(
        st.lists(
            st.lists(st.integers(-q, q), min_size=d, max_size=d),
            min_size=d,
            max_size=d,
        )
    )
    gram = [
        [Fraction(sum(a[i][t] * a[j][t] for t in range(d))) for j in range(d)]
        for i in range(d)
    ]
    return CovarianceMatrix.from_rows(gram)


@st.composite
def bounded_exponents(draw, dim: int, total: int = 8):
    ks = [draw(st.integers(0, 4)) for _ in range(dim)]
    while sum(ks) > total:
        idx = draw(st.integers(0, dim - 1))
        if ks[idx] > 0:
            ks[idx] -= 1
    return tuple(ks)


def principal_minor(rows: Sequence[Sequence], indices: Sequence[int]) -> Fraction:
    """Determinant of the principal submatrix on `indices`, by Fraction Gaussian
    elimination with row pivoting: an oracle that shares nothing with the
    fraction-free elimination of `moments.is_psd`."""
    a = [[Fraction(rows[i][j]) for j in indices] for i in indices]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return det
