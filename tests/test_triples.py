import numpy as np
import pytest

import gentangent as gt
from block_rules import f0_commutation_by_blocks
from gentangent.triples import (
    ANTI_COMMUTES,
    BICOMPLEX,
    BIPARACOMPLEX,
    COMMUTES,
    HYPERCOMPLEX,
    HYPERPRODUCT,
    NEITHER_COMMUTATION,
)


def test_f0_commutation_block_criterion():
    rng = gt.SplitMix64(13)
    n = 3
    zero = np.zeros((n, n))
    a, b = rng.matrix(n, n), rng.matrix(n, n)
    assert gt.f0_commutation(gt.BlockOperator(a, zero, zero, b)) == COMMUTES
    assert gt.f0_commutation(gt.BlockOperator(zero, a, b, zero)) == ANTI_COMMUTES
    generic = gt.BlockOperator(a, b, rng.matrix(n, n), rng.matrix(n, n))
    assert gt.f0_commutation(generic) == NEITHER_COMMUTATION


@pytest.mark.parametrize("n", (1, 3, 8))
def test_f0_commutation_is_the_block_rule_at_every_scale(n):
    """Exact zero blocks decide; the verdict does not move with 10^k."""
    for seed in range(20):
        rng = gt.SplitMix64(seed)
        h, s, t, k = (rng.matrix(n, n) for _ in range(4))
        for op in (gt.BlockOperator(h, 0, 0, k), gt.BlockOperator(0, s, t, 0),
                   gt.BlockOperator(h, s, t, k)):
            for e in range(-4, 9):
                scaled = op.scale(10.0**e)
                assert gt.f0_commutation(scaled) == f0_commutation_by_blocks(scaled), (seed, e)


def _sweep_base(family, seed):
    if family == "Jg":
        return gt.random_metric(4, 4, 0, seed)
    if family == "Jom":
        return gt.random_symplectic(4, seed)
    return gt.random_ae_pair("Hermitian", 4, seed)


@pytest.mark.parametrize("family, want", (("JlamJ+", COMMUTES), ("JlamJ-", COMMUTES),
                                          ("Jg", ANTI_COMMUTES), ("Jom", ANTI_COMMUTES)))
def test_f0_commutation_scale_invariant_after_b_field_round_trip(family, want):
    """e^B (e^-B M e^B) e^-B is M up to roundoff in every block, of order
    ||B||^2 ||M|| u; an absolute test on the blocks that should vanish
    answers Neither once 10^k lifts that roundoff past it."""
    n = 4
    ident, zero = np.eye(n), np.zeros((n, n))
    for seed in range(20):
        r = np.round(4 * gt.SplitMix64(1000 + seed).matrix(n, n))
        b = r - r.T
        e_b = np.block([[ident, zero], [b, ident]])
        e_minus_b = np.block([[ident, zero], [-b, ident]])
        m = gt.build_family(family, _sweep_base(family, seed)).assemble()
        carried = e_b @ (e_minus_b @ m @ e_b) @ e_minus_b
        for k in range(9):
            op = gt.BlockOperator.from_matrix(10.0**k * carried)
            assert gt.f0_commutation(op) == want, (seed, k)


def test_classify_triple_kinds():
    data = gt.random_ae_pair("Hermitian", 2, seed=4)
    para = gt.random_ae_pair("ParaHermitian", 2, seed=4)
    expected = {
        "hyperC": HYPERCOMPLEX,
        "biC-phi": BICOMPLEX,
        "biC-Fg": BICOMPLEX,
        "biparaC": BIPARACOMPLEX,
        "hyperP": HYPERPRODUCT,
        "biparaP-1": BIPARACOMPLEX,
        "biparaP-2": BIPARACOMPLEX,
        "biC-product": BICOMPLEX,
    }
    assert set(expected) == set(gt.TRIPLE_NAMES)
    for name in gt.TRIPLE_NAMES:
        base = data if gt.expected_triple_kind(name) in (
            HYPERCOMPLEX, BICOMPLEX) or name in ("biparaC",) else para
        try:
            first, second, third = gt.canonical_triple(name, base)
        except gt.WrongAlphaError:
            base = para if base is data else data
            first, second, third = gt.canonical_triple(name, base)
        report = gt.classify_triple(first, second)
        assert report.kind == expected[name]
        assert np.allclose(report.product.assemble(), third.assemble())


def test_canonical_triple_wrong_alpha():
    para = gt.random_ae_pair("ParaHermitian", 2, seed=4)
    with pytest.raises(gt.WrongAlphaError):
        gt.canonical_triple("hyperC", para)
    with pytest.raises(gt.UnknownFamilyError):
        gt.canonical_triple("nope", para)


def test_f0_corollaries():
    """The canonical flip anti-commutes with Fg, and their product is Jg."""
    g = gt.random_metric(3, 3, 0, seed=6)
    fg = gt.build_family("Fg", g)
    f = gt.f0(3)
    fm, gm = f.assemble(), fg.assemble()
    assert np.allclose(fm @ gm, -gm @ fm)
    jg = gt.build_family("Jg", g)
    assert np.allclose(fm @ gm, jg.assemble()) or np.allclose(gm @ fm, jg.assemble())


def test_diagonal_pairs_compose_to_flip():
    data = gt.random_ae_pair("Hermitian", 2, seed=9)
    j_plus = gt.build_diagonal(data.J, +1)
    j_minus = gt.build_diagonal(data.J, -1)
    report = gt.classify_triple(j_plus, j_minus)
    assert report.kind == BICOMPLEX
    assert np.allclose(np.abs(report.product.assemble()), np.eye(4))


def test_combine_law():
    rng = gt.SplitMix64(21)
    for seed in range(20):
        data = gt.random_ae_pair("Hermitian", 2, seed)
        triple = gt.canonical_triple("biparaC", data)
        a, b, c = (2.0 * rng.symmetric_uniform() for _ in range(3))
        combo, pc = gt.combine(a, b, c, triple)
        m = combo.assemble()
        q = a * a + b * b - c * c
        assert np.allclose(m @ m, q * np.eye(4), atol=1e-8)
        # the class is the unscaled combination's: q Id is +-Id only at |q| = 1
        assert abs(abs(q) - 1.0) > 1e-6 and pc.kind == "neither"
        for coefficients, kind in (((0.6, 0.8, 0.0), "product"), ((1.25, 0.0, 0.75), "product"),
                                   ((0.0, 0.0, 1.0), "complex"), ((0.75, 0.0, 1.25), "complex"),
                                   ((2.0, 0.0, 0.0), "neither"), ((1.5, 0.3, 0.2), "neither")):
            assert gt.combine(*coefficients, triple)[1].kind == kind, (seed, coefficients)


def test_combine_rejects_commuting_input():
    data = gt.random_ae_pair("Hermitian", 2, seed=2)
    first, second, third = gt.canonical_triple("biC-phi", data)
    with pytest.raises(gt.NotAnticommutingError):
        gt.combine(1.0, 1.0, 0.5, (first, second, third))


def test_triple_epsilon_product():
    data = gt.random_ae_pair("Hermitian", 2, seed=3)
    first, second, third = gt.canonical_triple("hyperC", data)
    metric = gt.g0(2)
    eps1, eps2, law_holds = gt.triple_epsilon_product(first, second, metric)
    assert eps1 in (+1, -1) and eps2 in (+1, -1)
    assert law_holds


def test_is_almost_kahler_positive():
    for seed in range(10):
        data = gt.random_ae_pair("Hermitian", 2, seed)
        phi = gt.base_fundamental(data)
        j_phi = gt.build_musical(phi, -1)
        j_minus = gt.build_diagonal(data.J, -1)
        ok, metric = gt.is_almost_kahler(j_phi, j_minus)
        assert ok
        sig = gt.signature(metric)
        assert sig == (4, 0)


def test_is_almost_kahler_negative():
    data = gt.random_ae_pair("Hermitian", 2, seed=5)
    j_plus = gt.build_diagonal(data.J, +1)
    j_minus = gt.build_diagonal(data.J, -1)
    ok, metric = gt.is_almost_kahler(j_plus, j_minus)
    assert not ok and metric is None
    norden = gt.random_ae_pair("Norden", 2, seed=5)
    phi = gt.base_fundamental(norden)
    # phi of a Norden pair is symmetric, so the musical pair does not commute
    # with the diagonal structure in general
    j_minus = gt.build_diagonal(norden.J, -1)
    j_norden = gt.build_musical(gt.BaseForm(phi.gram, gt.SYMMETRIC), -1)
    assert not gt.is_almost_kahler(j_norden, j_minus)[0]


def test_kahler_data_validation():
    kd = gt.random_kahler_data(2, seed=1)
    assert kd.validate(gt.Tolerance(1e-8, 1e-8))
    with pytest.raises(gt.InvalidKahlerDataError):
        gt.KahlerData(np.eye(2), kd.g, kd.J1, kd.J2).validate()  # b not skew
    bad_metric = gt.BaseForm(np.diag([1.0, -1.0]), gt.SYMMETRIC)
    with pytest.raises(gt.InvalidKahlerDataError):
        gt.KahlerData(kd.b, bad_metric, kd.J1, kd.J2).validate()


@pytest.mark.parametrize("low", [2e-9, 1e-9, 0.5e-9, 0.0, -0.5e-9, -2e-9])
def test_kahler_metric_must_have_every_eigenvalue_above_tol_abs(low):
    # signature's rule: at or below tol.abs, or negative, validate names g;
    # above it, validate goes on to J1, which is no isometry of diag(1, low)
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    kd = gt.KahlerData(np.zeros((2, 2)), gt.BaseForm(np.diag([1.0, low])), j, j)
    want = "g is not symmetric positive" if low <= 1e-9 else "J1 is not a g-isometry"
    with pytest.raises(gt.InvalidKahlerDataError, match=want):
        kd.validate(gt.Tolerance(1e-9, 1e-9))


def test_kahler_metric_declared_skew_is_no_metric():
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    kd = gt.KahlerData(np.zeros((2, 2)), gt.BaseForm(np.eye(2), gt.SKEW), j, j)
    with pytest.raises(gt.InvalidKahlerDataError, match="g is not symmetric positive"):
        kd.validate()


def test_kahler_from_data_reduces_when_b_zero():
    """With b = 0 and J1 = J2 = J the pair degenerates to the classic one."""
    data = gt.random_ae_pair("Hermitian", 2, seed=7)
    kd = gt.KahlerData(np.zeros((2, 2)), data.g, data.J, data.J)
    j1, j2 = gt.kahler_from_data(kd)
    diag = gt.build_diagonal(data.J, -1)
    phi = gt.base_fundamental(data)
    musical = gt.build_musical(gt.BaseForm(phi.gram, gt.SKEW), -1)
    got = {tuple(np.round(j1.assemble().ravel(), 9)),
           tuple(np.round(j2.assemble().ravel(), 9))}
    want = {tuple(np.round(diag.assemble().ravel(), 9)),
            tuple(np.round(musical.assemble().ravel(), 9))}
    assert got == want


def test_kahler_pair_properties():
    tol = gt.Tolerance(1e-8, 1e-8)
    for seed in range(10):
        kd = gt.random_kahler_data(4, seed)
        j1, j2 = gt.kahler_from_data(kd, tol)
        ok, metric = gt.is_almost_kahler(j1, j2, tol)
        assert ok
        assert gt.signature(metric) == (8, 0)


def test_kahler_roundtrip():
    tol = gt.Tolerance(1e-8, 1e-8)
    for n in (2, 4):
        for seed in range(15):
            kd = gt.random_kahler_data(n, 100 * n + seed)
            assert gt.kahler_roundtrip(kd, tol)


@pytest.mark.xfail(strict=True, reason="known defect: the fixed rank test "
                   "sigma_min <= 1e-8 sigma_max calls the positive definite "
                   "metric of one draw (cond 1.1e8) NotInjective")
def test_known_defect_kahler_roundtrip_rank_floor():
    # Trial 67 of this batch: is_almost_kahler rejects the pair, so the round
    # trip fails.  A condition-aware margin (ROADMAP item 1) should pass it;
    # the check's 1e-8 floor is not the cause and stays as it is.
    from gentangent import registry

    assert registry.run_check("T5.kahler-roundtrip", 3, 100, 2036071567).failures == 0


def _kahler_pair(n, seed):
    """(J_phi, diag(J, -J*)): an almost-Kahler pair of Hermitian data."""
    data = gt.random_ae_pair("Hermitian", n, seed)
    return gt.build_musical(gt.base_fundamental(data), -1), gt.build_diagonal(data.J, -1)


def test_is_almost_kahler_refuses_a_member_that_is_not_almost_complex():
    # at abs 1e-3 and rel 1e-12, J_phi + 1e-7 I passes the isometry, the
    # commutation and the induced metric's tests, which compare through abs;
    # only the square test, which reads rel alone, refuses it
    tol = gt.Tolerance(1e-3, 1e-12)
    j_phi, j_minus = _kahler_pair(2, 0)
    assert gt.is_almost_kahler(j_phi, j_minus, tol)[0]
    nudged = gt.BlockOperator.from_matrix(j_phi.matrix + 1e-7 * np.eye(4))
    assert gt.polynomial_class(nudged, tol).kind == "neither"
    assert gt.is_almost_kahler(nudged, j_minus, tol) == (False, None)


def test_is_almost_kahler_refuses_a_pair_that_does_not_commute():
    # conjugating J2 by a G0-isometry R near I (a Cayley transform of a
    # G0-skew X) keeps it almost complex and G0-isometric, and moves the
    # commutator C = J1 J2 - J2 J1 off zero.  The induced metric's symmetry
    # tests see C block by block, so at an abs between the largest block and
    # ||C|| only the commutation test refuses the pair.
    n = 4
    j1, j2 = _kahler_pair(n, 0)
    rng = np.random.default_rng(0)
    a, b, c = (rng.standard_normal((n, n)) for _ in range(3))
    x = np.block([[a, b - b.T], [c - c.T, -a.T]])
    ident = np.eye(2 * n)
    r = np.linalg.solve(ident - 5e-6 * x, ident + 5e-6 * x)
    m1, m2 = j1.matrix, np.linalg.solve(r, j2.matrix @ r)
    inducer = gt.BlockOperator.from_matrix(-(m1 @ m2))
    blocks = max(np.linalg.norm(inducer.K - inducer.H.T),
                 np.linalg.norm(inducer.tau - inducer.tau.T),
                 np.linalg.norm(inducer.sigma - inducer.sigma.T))
    commutator = np.linalg.norm(m1 @ m2 - m2 @ m1)
    assert blocks < commutator
    tol = gt.Tolerance(float(np.sqrt(blocks * commutator)), 1e-12)
    assert gt.is_almost_kahler(j1, j2, tol)[0]
    moved = gt.BlockOperator.from_matrix(m2)
    assert gt.polynomial_class(moved, tol).kind == "complex"
    assert gt.is_almost_kahler(j1, moved, tol) == (False, None)


def test_triple_tests_refuse_operators_of_different_dimensions():
    for test in (gt.classify_triple, gt.is_almost_kahler):
        with pytest.raises(gt.DimensionError, match="operator dimensions differ"):
            test(gt.f0(2), gt.f0(3))


def test_combine_names_the_member_that_breaks_the_triple():
    data = gt.random_ae_pair("Hermitian", 2, seed=1)
    first, second, _ = gt.canonical_triple("biparaC", data)
    with pytest.raises(gt.NotAnticommutingError, match="third member must be almost complex"):
        gt.combine(1.0, 1.0, 0.5, (first, second, first))
    # diag(J, -J*) is almost complex, but it commutes with F and F'
    with pytest.raises(gt.NotAnticommutingError, match="not pairwise anti-commuting"):
        gt.combine(1.0, 1.0, 0.5, (first, second, gt.build_diagonal(data.J, -1)))


def test_kahler_data_refuses_a_g_isometry_that_is_not_complex():
    kd = gt.random_kahler_data(2, seed=1)
    with pytest.raises(gt.InvalidKahlerDataError, match="J1 does not square to -I"):
        gt.KahlerData(kd.b, kd.g, np.eye(2), kd.J2).validate(gt.Tolerance(1e-8, 1e-8))
