"""Spectral classification toolkit for integer torus-automorphism polynomials.

Modules cover exact integer polynomial arithmetic, certified root
enclosures, spectral classification with proof replay, exhaustive search,
mapping-torus metric verification, and the upper-half-space Kähler formula
suite, all fronted by the `spectorus` command line tool.

The public names below load with their submodule on first access (PEP 562),
so importing the package imports no submodule, and numpy and
multiprocessing wait until a verb reaches the code that needs them.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "intpoly": (
        "IntPolynomial",
        "PolyParseError",
        "parse_poly",
        "reverse",
        "power_sums",
        "power_transform",
        "discriminant",
        "factor_oracle",
    ),
    "rootcert": ("RootEnclosure",),
    "spectra": (
        "SpectralProfile",
        "ReplayReport",
        "CannotCertify",
        "classify",
        "exact_test_q1",
        "exact_test_q2",
        "irreducible_by_modulus",
        "replay_case_even",
        "replay_case_odd",
    ),
    "searchkit": (
        "SearchReport",
        "search",
        "cross_check",
    ),
    "geomlab": (
        "SplittingCertificate",
        "MappingTorusModel",
        "companion",
        "split",
        "build_certificate",
        "build_model",
        "metric_at",
        "deck_pullback_check",
        "curvature_check",
        "verify_torus_report",
    ),
    "otkahler": (
        "HyperPoint",
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
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# submodules that attribute access imports too: spectorus.spectra.classify
_SUBMODULES = (*_EXPORTS, "exactnum")

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
