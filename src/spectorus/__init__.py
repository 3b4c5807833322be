"""Spectral classification toolkit for integer torus-automorphism polynomials.

Modules cover exact integer polynomial arithmetic, certified root
enclosures, spectral classification with proof replay, exhaustive search,
mapping-torus metric verification, and the upper-half-space Kähler formula
suite, all fronted by the `spectorus` command line tool.
"""
from __future__ import annotations

from .geomlab import (
    MappingTorusModel,
    SplittingCertificate,
    build_certificate,
    build_model,
    companion,
    curvature_check,
    deck_pullback_check,
    metric_at,
    solve_b,
    split,
    verify_torus_report,
)
from .intpoly import (
    IntPolynomial,
    PolyParseError,
    discriminant,
    factor_oracle,
    parse_poly,
    power_sums,
    power_transform,
    resultant,
    reverse,
)
from .otkahler import (
    HermitianMatrixSample,
    HyperPoint,
    F_value,
    check_determinant,
    check_first_derivatives,
    check_metric,
    check_ricci,
    metric_closed_form,
    ricci_closed_form,
    u_value,
    verify_ot_report,
    wirtinger_gradient,
    wirtinger_hessian,
)
from .rootcert import (
    NotSquarefree,
    PrecisionExhausted,
    RootEnclosure,
    count_real_roots,
    isolate_roots,
)
from .searchkit import (
    SearchReport,
    cross_check,
    enumerate_candidates,
    search,
)
from .spectra import (
    CannotCertify,
    ReplayReport,
    SpectralProfile,
    classify,
    exact_test_q1,
    exact_test_q2,
    irreducible_by_modulus,
    replay_case_even,
    replay_case_odd,
)

__version__ = "0.1.0"

__all__ = [
    "IntPolynomial",
    "PolyParseError",
    "parse_poly",
    "reverse",
    "power_sums",
    "power_transform",
    "discriminant",
    "resultant",
    "factor_oracle",
    "RootEnclosure",
    "NotSquarefree",
    "PrecisionExhausted",
    "isolate_roots",
    "count_real_roots",
    "SpectralProfile",
    "ReplayReport",
    "CannotCertify",
    "classify",
    "exact_test_q1",
    "exact_test_q2",
    "irreducible_by_modulus",
    "replay_case_even",
    "replay_case_odd",
    "SearchReport",
    "enumerate_candidates",
    "search",
    "cross_check",
    "SplittingCertificate",
    "MappingTorusModel",
    "companion",
    "split",
    "solve_b",
    "build_certificate",
    "build_model",
    "metric_at",
    "deck_pullback_check",
    "curvature_check",
    "verify_torus_report",
    "HyperPoint",
    "HermitianMatrixSample",
    "u_value",
    "F_value",
    "wirtinger_gradient",
    "wirtinger_hessian",
    "check_first_derivatives",
    "check_metric",
    "check_determinant",
    "check_ricci",
    "metric_closed_form",
    "ricci_closed_form",
    "verify_ot_report",
    "__version__",
]
