import numpy as np
import pytest

import gentangent as gt
from gentangent.ae_zoo import (
    FUNDAMENTAL_SYMPLECTIC,
    HERMITIAN,
    INCOMPATIBLE,
    NORDEN,
    PARA_HERMITIAN,
    TWIN_METRIC,
    isometry_sign,
)


def test_classify_pair_model_kinds():
    # diag(J, eps J^T) against Gg = [[g, 0], [0, g^-1]] keeps the data's alpha
    # and eps, and Gg's signature doubles g's.  ProductRiemannian data at even
    # n has +1 and -1 eigenspaces of equal dimension, so ParaNorden.
    expectations = {
        "Hermitian": ("Hermitian", -1, 1, (4, 0)),
        "IndefiniteHermitian": ("IndefiniteHermitian", -1, 1, (4, 4)),
        "Norden": ("Norden", -1, -1, (2, 2)),
        "ParaHermitian": ("ParaHermitian", 1, -1, (2, 2)),
        "ProductRiemannian": ("ParaNorden", 1, 1, (4, 0)),
    }
    for kind, expected in expectations.items():
        n = 4 if kind == "IndefiniteHermitian" else 2
        data = gt.random_ae_pair(kind, n, seed=8)
        op = gt.build_diagonal(data.J, data.epsilon)
        assert tuple(gt.classify_pair(op, gt.induced_metric(data.g))) == expected


def test_classify_pair_canonical_examples():
    assert gt.classify_pair(gt.f0(2), gt.g0(2)).name == PARA_HERMITIAN
    g = gt.BaseForm(np.eye(2), gt.SYMMETRIC)
    jg = gt.build_family("Jg", g)
    cls = gt.classify_pair(jg, gt.induced_metric(g))
    assert cls.name == HERMITIAN
    assert (cls.alpha, cls.epsilon) == (-1, 1)
    assert gt.classify_pair(jg, gt.g0(2)).name == NORDEN


def test_classify_pair_incompatible():
    rng = gt.SplitMix64(4)
    op = gt.BlockOperator.from_matrix(rng.matrix(4, 4))
    assert gt.classify_pair(op, gt.g0(2)).name == INCOMPATIBLE


def test_classify_pair_refuses_a_non_symmetric_metric_for_any_operator():
    # the table is read off a signature; the answer must not hang on whether
    # the operator happens to be an almost complex or product structure
    rng = gt.SplitMix64(4)
    skew = gt.BilinearForm(gt.omega0(2).gram, gt.SKEW)
    general = gt.BilinearForm(rng.matrix(4, 4), gt.GENERAL)
    for op in (gt.f0(2), gt.BlockOperator.from_matrix(np.eye(4)),
               gt.BlockOperator.from_matrix(rng.matrix(4, 4))):
        for metric in (skew, general):
            with pytest.raises(ValueError, match="needs a symmetric metric"):
                gt.classify_pair(op, metric)


def test_isometry_sign():
    assert isometry_sign(gt.f0(2), gt.g0(2)) == -1
    g = gt.random_metric(2, 2, 0, seed=3)
    fg = gt.build_family("Fg", g)
    assert isometry_sign(fg, gt.g0(2)) == 1
    rng = gt.SplitMix64(4)
    assert isometry_sign(gt.BlockOperator.from_matrix(rng.matrix(4, 4)), gt.g0(2)) is None


def test_isometry_sign_undetermined_when_both_signs_fit():
    # F0 is anti-isometric for any multiple of G0, but at 1e-10 G0 both
    # pulled-back Grams pass the absolute 1e-9 floor: no sign may be returned
    tiny = gt.BilinearForm(1e-10 * gt.g0(2).gram, gt.SYMMETRIC)
    assert isometry_sign(gt.f0(2), tiny) is None
    assert gt.classify_pair(gt.f0(2), tiny).name == INCOMPATIBLE
    data = gt.random_ae_pair("Hermitian", 2, seed=3)
    first, second, _ = gt.canonical_triple("hyperC", data)
    with pytest.raises(gt.IncompatiblePairError):
        gt.triple_epsilon_product(first, second, tiny)


def test_ae_manifold_data_validate():
    data = gt.random_ae_pair("Norden", 4, seed=5)
    assert data.validate()
    with pytest.raises(ValueError):
        gt.AeManifoldData(data.J, data.g, alpha=2, epsilon=1)


def test_near_square_base_is_refused_as_polynomial_class_refuses_its_operator():
    # J^2 = -I and J^T J = I both to 1.4e-7: the square sign rule's bound
    # t ||I|| = 1.1e-7 refuses J, for base matrices and operators alike, while
    # close's t + t ||I|| = 1.9e-7 finds J an isometry of I
    tol = gt.Tolerance(8e-8)
    j = np.array([[1e-7, -1.0], [1.0, 0.0]])
    for lam in (1, -1):
        with pytest.raises(gt.NotPolynomialError):
            gt.build_diagonal(j, lam, tol)
    assert not gt.AeManifoldData(j, gt.BaseForm(np.eye(2)), -1, 1).validate(tol)
    assert gt.polynomial_class(gt.BlockOperator(j, 0, 0, j.T), tol).kind == "neither"


def test_ae_and_kahler_data_are_read_only_and_compare_by_identity():
    data = gt.random_ae_pair("Norden", 4, seed=5)
    same = gt.AeManifoldData(J=data.J, g=data.g, alpha=data.alpha, epsilon=data.epsilon)
    assert same.J is data.J and same.g is data.g
    assert data == data and data != same
    assert hash(data) == hash(data) and len({data, same}) == 2
    kahler = gt.random_kahler_data(4, seed=1)
    assert gt.KahlerData(kahler.b, kahler.g, J1=kahler.J1, J2=kahler.J2).validate()
    for record in (data, kahler):
        for name in (*type(record).__slots__, "unknown"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    with pytest.raises(gt.DimensionError):
        gt.AeManifoldData(np.eye(3), data.g, -1, -1)
    with pytest.raises(gt.DimensionError):
        gt.KahlerData(kahler.b, kahler.g, kahler.J1, np.eye(3))


def test_result_records_keep_their_fields_and_repr():
    from gentangent.registry import VerifyReport

    # pinned reprs, so logs and scripts that print a record read the same
    cls = gt.StructureClass("Norden", -1, -1, (2, 2))
    assert repr(cls) == "StructureClass(name='Norden', alpha=-1, epsilon=-1, signature=(2, 2))"
    assert cls == gt.StructureClass(name="Norden", alpha=-1, epsilon=-1, signature=(2, 2))
    assert gt.StructureClass(INCOMPATIBLE).signature is None
    report = VerifyReport("P2.flat-sharp", 3, 0, 1.5e-15, 0.25)
    assert repr(report) == ("VerifyReport(id='P2.flat-sharp', trials=3, failures=0, "
                            "max_residual=1.5e-15, elapsed=0.25)")
    assert report.passed and not report._replace(failures=1).passed
    form = gt.BilinearForm(np.eye(2))
    tensor = gt.FundamentalTensor(form=form, kind=TWIN_METRIC)
    assert (tensor.form, tensor.kind) == (form, TWIN_METRIC)
    triple = gt.TripleReport("None")
    assert (triple.kind, triple.commutation_sign, triple.product) == ("None", None, None)


def test_base_fundamental_kind():
    hermitian = gt.random_ae_pair("Hermitian", 2, seed=1)
    assert gt.base_fundamental(hermitian).kind == gt.SKEW
    norden = gt.random_ae_pair("Norden", 2, seed=1)
    assert gt.base_fundamental(norden).kind == gt.SYMMETRIC


def test_fundamental_tensor_kinds():
    fg = gt.build_family("Fg", gt.random_metric(2, 2, 0, seed=2))
    assert gt.fundamental_tensor(fg, gt.g0(2)).kind == TWIN_METRIC
    assert gt.fundamental_tensor(gt.f0(2), gt.g0(2)).kind == FUNDAMENTAL_SYMPLECTIC
    rng = gt.SplitMix64(4)
    with pytest.raises(gt.IncompatiblePairError):
        gt.fundamental_tensor(gt.BlockOperator.from_matrix(rng.matrix(4, 4)), gt.g0(2))


def test_fundamental_tensor_fg_is_twice_g0():
    for seed in range(10):
        g = gt.random_metric(3, 3, 0, seed)
        fg = gt.build_family("Fg", g)
        tensor = gt.fundamental_tensor(fg, gt.induced_metric(g))
        assert np.linalg.norm(tensor.form.gram - 2.0 * gt.g0(3).gram) <= 1e-9


def test_fundamental_tensor_jg_is_minus_twice_omega0():
    for seed in range(10):
        g = gt.random_metric(3, 2, 1, seed)
        jg = gt.build_family("Jg", g)
        tensor = gt.fundamental_tensor(jg, gt.induced_metric(g))
        assert np.linalg.norm(tensor.form.gram + 2.0 * gt.omega0(3).gram) <= 1e-9


def test_flat_sharp_identities():
    for kind in ("Hermitian", "Norden", "ParaHermitian", "ProductRiemannian"):
        for seed in range(10):
            data = gt.random_ae_pair(kind, 4, seed)
            assert gt.check_flat_sharp_identities(data)


def test_musical_builders_square_correctly():
    g = gt.random_metric(3, 1, 2, seed=9)
    ident = np.eye(6)
    jg = gt.build_musical(g, -1).assemble()
    fg = gt.build_musical(g, +1).assemble()
    assert np.allclose(jg @ jg, -ident)
    assert np.allclose(fg @ fg, ident)
    om = gt.random_symplectic(4, seed=9)
    jom = gt.build_musical(om, -1).assemble()
    assert np.allclose(jom @ jom, -np.eye(8))


def test_diagonal_builder_square():
    data = gt.random_ae_pair("Hermitian", 2, seed=6)
    for lam in (+1, -1):
        m = gt.build_diagonal(data.J, lam).assemble()
        assert np.allclose(m @ m, -np.eye(4))
    para = gt.random_ae_pair("ParaHermitian", 2, seed=6)
    m = gt.build_diagonal(para.J, +1).assemble()
    assert np.allclose(m @ m, np.eye(4))


def test_triangular_builder_square():
    data = gt.random_ae_pair("Hermitian", 2, seed=7)
    for variant in ("Flat", "Sharp"):
        m = gt.build_triangular(data, variant).assemble()
        assert np.allclose(m @ m, -np.eye(4))
    para = gt.random_ae_pair("ParaHermitian", 2, seed=7)
    for variant in ("Flat", "Sharp"):
        m = gt.build_triangular(para, variant).assemble()
        assert np.allclose(m @ m, np.eye(4))


def test_mixed_builder_squares_to_minus_alpha():
    for kind, alpha in (("Hermitian", -1), ("ParaHermitian", 1)):
        data = gt.random_ae_pair(kind, 2, seed=8)
        m = gt.build_mixed(data).assemble()
        assert np.allclose(m @ m, -alpha * np.eye(4))


def test_build_family_unknown_and_wrong_alpha():
    data = gt.random_ae_pair("Hermitian", 2, seed=1)
    with pytest.raises(gt.UnknownFamilyError):
        gt.build_family("nope", data)
    with pytest.raises(gt.UnknownFamilyError):
        gt.build_family("FlamF+", data)  # needs alpha = +1 data


def test_musical_families_need_a_base_form_of_their_kind():
    g = gt.BaseForm(np.eye(2), gt.SYMMETRIC)
    omega = gt.BaseForm(np.array([[0.0, 1.0], [-1.0, 0.0]]), gt.SKEW)
    data = gt.random_ae_pair("Hermitian", 2, seed=1)
    for family in ("Jom", "Fom"):
        for wrong in (g, data):
            with pytest.raises(gt.UnknownFamilyError,
                               match=f"'{family}' needs a skew base form, not a symmetric one"):
                gt.build_family(family, wrong)
        gt.build_family(family, omega)
    for family in ("Jg", "Fg"):
        with pytest.raises(gt.UnknownFamilyError,
                           match=f"'{family}' needs a symmetric base form, not a skew one"):
            gt.build_family(family, omega)
        # (J, g) data gives the musical families its metric g
        assert np.array_equal(gt.build_family(family, data).assemble(),
                              gt.build_family(family, data.g).assemble())


def test_twin_formula_check_fails_a_pair_that_misses_the_tolerance():
    # trial 0 of P4.twin-metrics at n = 3, seed 5: the built JFg pair is not
    # an (alpha, epsilon)-structure at 1e-13
    tol = gt.Tolerance(1e-13)
    data = gt.random_ae_pair("ParaHermitian", 4, 500028)
    with pytest.raises(gt.IncompatiblePairError):
        gt.fundamental_tensor(gt.build_family("JFg", data, tol), gt.g0(4), tol)
    assert gt.twin_formula_check("JFg@G0", data, tol) is False
    assert gt.twin_formula_check("JFg@G0", data)


def test_triangular_iff_both_directions():
    """G0-compatibility of the triangular families pivots on the sign of eps."""
    cells = (
        ("JJgFlat", "Hermitian", "Norden"),
        ("JJgSharp", "Hermitian", "Norden"),
        ("FFgFlat", "ParaHermitian", "ProductRiemannian"),
        ("FFgSharp", "ParaHermitian", "ProductRiemannian"),
    )
    for fam, good, bad in cells:
        for seed in range(25):
            ok = gt.build_family(fam, gt.random_ae_pair(good, 2, seed))
            assert gt.classify_pair(ok, gt.g0(2)).name != INCOMPATIBLE
            no = gt.build_family(fam, gt.random_ae_pair(bad, 2, seed))
            assert gt.classify_pair(no, gt.g0(2)).name == INCOMPATIBLE


def test_mixed_iff_both_directions():
    for seed in range(25):
        norden = gt.random_ae_pair("Norden", 2, seed)
        op = gt.build_family("FJg", norden)
        assert gt.classify_pair(op, gt.induced_metric(norden.g)).name != INCOMPATIBLE
        hermitian = gt.random_ae_pair("Hermitian", 2, seed)
        op = gt.build_family("FJg", hermitian)
        assert gt.classify_pair(op, gt.induced_metric(hermitian.g)).name == INCOMPATIBLE
        para = gt.random_ae_pair("ParaHermitian", 2, seed)
        op = gt.build_family("JFg", para)
        assert gt.classify_pair(op, gt.induced_metric(para.g)).name != INCOMPATIBLE
        product = gt.random_ae_pair("ProductRiemannian", 2, seed)
        op = gt.build_family("JFg", product)
        assert gt.classify_pair(op, gt.induced_metric(product.g)).name == INCOMPATIBLE


def test_twin_formulas_all_families():
    from gentangent.registry import run_check

    report = run_check("P4.twin-metrics", n=3, trials=25, seed=11)
    assert report.failures == 0


def test_extract_base_complex_from_symplectic_musical():
    for n in (2, 4):
        for seed in range(10):
            om = gt.random_symplectic(n, seed)
            jom = gt.build_musical(om, -1)
            j = gt.extract_base_complex(jom)
            assert np.linalg.norm(j @ j + np.eye(n)) <= 1e-8


def test_extract_base_complex_from_diagonal():
    for n in (2, 4):
        for seed in range(10):
            data = gt.random_ae_pair("Hermitian", n, seed)
            op = gt.build_diagonal(data.J, -1)
            j = gt.extract_base_complex(op)
            assert np.linalg.norm(j @ j + np.eye(n)) <= 1e-8


def test_extract_base_complex_rejects_wrong_input():
    with pytest.raises(gt.IncompatiblePairError):
        gt.extract_base_complex(gt.f0(2))


@pytest.mark.parametrize("n", [2, 4, 8, 32])
def test_extract_base_complex_squares_to_minus_identity(n):
    # both kinds of input the T5 check feeds; over 10^4 random seeds the
    # eigenproblem's worst miss was about 1e-10
    for seed in range(1, 21):
        om = gt.random_symplectic(n, seed)
        data = gt.random_ae_pair("Hermitian", n, seed)
        for op in (gt.build_musical(om, -1), gt.build_diagonal(data.J, -1)):
            j = gt.extract_base_complex(op)
            assert np.linalg.norm(j @ j + np.eye(n)) <= 1e-9


@pytest.mark.parametrize("n", [2, 4, 8, 32])
def test_extract_base_complex_rejects_non_isometric_input(n):
    with pytest.raises(gt.IncompatiblePairError):
        gt.extract_base_complex(gt.f0(n))
    # the musical complex structure of a metric is G0-anti-isometric (Norden)
    jg = gt.build_musical(gt.random_metric(n, n, 0, seed=3), -1)
    assert gt.classify_pair(jg, gt.g0(n)).epsilon == -1
    with pytest.raises(gt.IncompatiblePairError):
        gt.extract_base_complex(jg)


def test_base_extraction_check_passes_on_ill_conditioned_symplectic_form():
    # trial 2 is Jom of a symplectic form whose basis change has cond 981;
    # the earlier greedy extraction missed -I there by 4.2e-8 > 1e-8
    from gentangent.registry import run_check

    assert run_check("T5.base-extraction", 32, 3, 1317418898).failures == 0


def test_builders_refuse_a_sign_lam_or_variant_outside_their_sets():
    data = gt.random_ae_pair("Hermitian", 2, seed=1)
    with pytest.raises(ValueError, match="sign must be"):
        gt.build_musical(data.g, 2)
    with pytest.raises(ValueError, match="lam must be"):
        gt.build_diagonal(data.J, 0)
    with pytest.raises(ValueError, match="variant must be"):
        gt.build_triangular(data, "Diagonal")


def test_twin_formula_check_refuses_an_unknown_family():
    data = gt.random_ae_pair("Hermitian", 2, seed=1)
    for family in ("nope", "Fg@Gx"):
        with pytest.raises(gt.UnknownFamilyError, match="unknown twin-formula family"):
            gt.twin_formula_check(family, data)
