"""Fiberwise linear algebra for structures on the generalized fiber V + V*.

The public names load on first use (PEP 562): ``import gentangent`` imports
no submodule and no numpy, and ``gentangent.close`` is looked up in
``gentangent.core`` at each access, so it is always the object that module
holds at that moment.
"""

import importlib

# Each submodule and the public names it defines.
_EXPORTS = {
    "core": (
        "GENERAL", "SKEW", "SYMMETRIC", "BaseForm", "BilinearForm", "BlockOperator",
        "GeneralizedVector", "PolynomialClass", "Tolerance", "DEFAULT_TOL", "apply",
        "close", "dual_map", "musicals", "polynomial_class", "signature",
    ),
    "canonical": ("f0", "g0", "omega0"),
    "gen_metrics": (
        "MetricInducerReport", "diagonal_inducer", "endomorphism_from_metric",
        "induced_metric", "metric_from_endomorphism", "nannicini_metric",
        "symplectic_from_endomorphism",
    ),
    "ae_zoo": (
        "FAMILY_IDS", "TWIN_FORMULA_FAMILIES", "AeManifoldData", "FundamentalTensor",
        "StructureClass", "base_fundamental", "build_diagonal", "build_family",
        "build_mixed", "build_musical", "build_triangular",
        "check_flat_sharp_identities", "classify_pair", "extract_base_complex",
        "fundamental_tensor", "twin_formula_check",
    ),
    "errors": (
        "DegenerateFormError", "DimensionError", "GentangentError",
        "IncompatiblePairError", "InvalidKahlerDataError", "NotAnticommutingError",
        "NotComplexError", "NotInjectiveError", "NotPolynomialError",
        "ProjectionSingularError", "UnknownFamilyError", "WrongAlphaError",
    ),
    "triples": (
        "TRIPLE_NAMES", "KahlerData", "TripleReport", "canonical_triple",
        "expected_triple_kind", "classify_triple", "combine", "f0_commutation",
        "is_almost_kahler", "kahler_from_data", "kahler_roundtrip",
        "triple_epsilon_product",
    ),
    "generators": (
        "SplitMix64", "random_ae_pair", "random_invertible", "random_kahler_data",
        "random_metric", "random_symplectic",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule also binds it here, so this runs once per module
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
