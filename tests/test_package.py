"""The package's public names, and the names the benchmark's tracer wraps."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import gentangent

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PUBLIC_NAMES = [
    "AeManifoldData", "BaseForm", "BilinearForm", "BlockOperator", "DEFAULT_TOL",
    "DegenerateFormError", "DimensionError", "FAMILY_IDS", "FundamentalTensor",
    "GENERAL", "GeneralizedVector", "GentangentError", "IncompatiblePairError",
    "InvalidKahlerDataError", "KahlerData", "MetricInducerReport",
    "NotAnticommutingError", "NotComplexError", "NotInjectiveError",
    "NotPolynomialError", "PolynomialClass", "ProjectionSingularError", "SKEW",
    "SYMMETRIC", "SplitMix64", "StructureClass", "TRIPLE_NAMES",
    "TWIN_FORMULA_FAMILIES", "Tolerance", "TripleReport", "UnknownFamilyError",
    "WrongAlphaError", "ae_zoo", "apply", "base_fundamental", "build_diagonal",
    "build_family", "build_mixed", "build_musical", "build_triangular", "canonical",
    "canonical_triple", "check_flat_sharp_identities", "classify_pair",
    "classify_triple", "close", "combine", "core", "diagonal_inducer", "dual_map",
    "endomorphism_from_metric", "errors", "expected_triple_kind",
    "extract_base_complex", "f0", "f0_commutation", "fundamental_tensor", "g0",
    "gen_metrics", "generators", "induced_metric", "is_almost_kahler",
    "kahler_from_data", "kahler_roundtrip", "metric_from_endomorphism", "musicals",
    "nannicini_metric", "omega0", "polynomial_class", "random_ae_pair",
    "random_invertible", "random_kahler_data", "random_metric", "random_symplectic",
    "signature", "symplectic_from_endomorphism", "triple_epsilon_product", "triples",
    "twin_formula_check",
]


def _constants(path, names):
    """The literal values assigned to ``names`` at the top of a script, read
    without running it."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                found[target.id] = ast.literal_eval(node.value)
    assert set(found) == set(names), f"{path.name} no longer assigns {set(names) - set(found)}"
    return found


def test_public_names_are_pinned():
    assert sorted(gentangent.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(gentangent, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    # a star import is only allowed at module level
    exec("from gentangent import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)


# Public constants carry no __module__; these are the modules that define them.
CONSTANT_HOMES = {"GENERAL": "core", "SKEW": "core", "SYMMETRIC": "core",
                  "FAMILY_IDS": "ae_zoo", "TWIN_FORMULA_FAMILIES": "ae_zoo",
                  "TRIPLE_NAMES": "triples"}


def test_each_public_name_is_the_defining_modules_object():
    for name in PUBLIC_NAMES:
        value = getattr(gentangent, name)
        if inspect.ismodule(value):
            assert value is importlib.import_module(f"gentangent.{name}")
            continue
        home = (f"gentangent.{CONSTANT_HOMES[name]}" if name in CONSTANT_HOMES
                else value.__module__)
        assert getattr(importlib.import_module(home), name) is value, name


def test_dir_lists_every_public_name():
    assert set(dir(gentangent)) >= set(gentangent.__all__)


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'gentangent' has no attribute 'nope'"):
        gentangent.nope


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_leaves_no_wrapper_in_the_package():
    original = gentangent.core.close
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert gentangent.close is gentangent.core.close is not original
    finally:
        tracer.restore()
    assert gentangent.close is gentangent.core.close is original


def test_every_name_the_benchmark_traces_exists():
    functions = _constants(PERFBENCH / "run.py",
                           ("CORE_FUNCTIONS", "AE_ZOO_FUNCTIONS", "TRIPLES_FUNCTIONS"))
    methods = _constants(PERFBENCH / "tracing.py", ("METHODS",))["METHODS"]
    assert {(m, c, a) for m, c, a in methods} >= {
        ("core", "BlockOperator", "assemble"), ("core", "BlockOperator", "compose"),
        ("generators", "SplitMix64", "matrix")}
    traced_methods = set()
    for module, cls_name, attr in methods:
        cls = getattr(importlib.import_module(f"gentangent.{module}"), cls_name)
        assert callable(vars(cls)[attr])
        traced_methods.add((module, attr))
    for key, module in (("CORE_FUNCTIONS", "core"), ("AE_ZOO_FUNCTIONS", "ae_zoo"),
                        ("TRIPLES_FUNCTIONS", "triples")):
        mod = importlib.import_module(f"gentangent.{module}")
        for name in functions[key]:
            # a per-function row is a function defined in the module or a
            # method the tracer wraps under the module's name
            fn = getattr(mod, name, None)
            defined_here = inspect.isfunction(fn) and fn.__module__ == mod.__name__
            assert defined_here or (module, name) in traced_methods, (
                f"perfbench traces {module}.{name}, which is gone")
