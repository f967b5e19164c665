"""Exact-arithmetic moments of centered Gaussian vectors and a verification
harness for the three-dimensional Gaussian product inequality."""

from .core import (
    Polynomial,
    SplitMix64,
    format_rational,
    isolate_root,
    parse_rational,
)
from .identities import (
    IdentityVerdict,
    build_polynomial_L,
    check_corollary28,
    check_kummer_classical,
    check_lemma25,
    check_lemma27,
    check_symmetric_identity,
)
from .moments import (
    CovarianceMatrix,
    PsdCertificate,
    gaussian_moment,
    is_psd,
    random_covariance,
    univariate_even_moment,
)
from .specialfn import (
    CONTIGUOUS_RELATIONS,
    contiguous_check,
    double_factorial_odd,
    half_binomial,
    hyp2f1_terminating,
    pfaff_check,
    pochhammer,
)
from .verifier import (
    GammaPolynomialSet,
    InequalityVerdict,
    StationaryPointCertificate,
    build_gamma_polynomials,
    check_H_positivity,
    check_cor23,
    check_lemma29,
    check_lemma210,
    check_lemma31,
    check_main,
    check_min_C,
    check_prop21,
    check_thm22,
    check_thm32,
    counterexample_wei,
)

__version__ = "0.1.0"
