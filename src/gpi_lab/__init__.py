"""Exact-arithmetic moments of centered Gaussian vectors and a verification
harness for the three-dimensional Gaussian product inequality.

The package namespace holds only the names imported from it: the README's
library quick start (`CovarianceMatrix`, `gaussian_moment`, `check_main`)
and the benchmark's checker tests (`CovarianceMatrix`, `check_H_positivity`).
Every other name is imported from its defining module, so each has one
import path.
"""

from .moments import CovarianceMatrix, gaussian_moment
from .verifier import check_H_positivity, check_main

__version__ = "0.1.0"
