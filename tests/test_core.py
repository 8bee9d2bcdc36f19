import numpy as np
import pytest

import gentangent as gt
from gentangent.core import (
    NEITHER,
    _certifies_nondegenerate,
    _inverse_unless_degenerate,
    is_degenerate,
)

from block_rules import apply_by_blocks, combine_by_blocks, compose_by_blocks
from test_rank_test import svd_oracle


def test_tolerance_validation():
    for bad in (0.0, -1e-9, np.nan, np.inf):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            gt.Tolerance(bad)
    assert gt.Tolerance(1e-6).value == 1e-6
    # one number: no second positional argument and no abs= or rel= keyword
    for args, kwargs in (((1e-9, 1e-9), {}), ((), {"abs": 1e-9}), ((), {"rel": 1e-9})):
        with pytest.raises(TypeError):
            gt.Tolerance(*args, **kwargs)


def test_tolerance_is_a_value():
    # forms key their kept musicals and signatures on the tolerance
    tol = gt.Tolerance(1e-9)
    assert tol == gt.DEFAULT_TOL and tol is not gt.DEFAULT_TOL
    assert hash(tol) == hash(gt.DEFAULT_TOL)
    assert gt.Tolerance(value=1e-9) == gt.Tolerance() == tol
    assert gt.Tolerance(1e-8) != tol and tol != 1e-9
    assert len({tol, gt.DEFAULT_TOL, gt.Tolerance(1e-8)}) == 2
    assert repr(tol) == "Tolerance(1e-09)"


def test_admits_is_inclusive_at_its_bound():
    # the rule compares, it never divides: a residual equal to its bound
    # t * s + t * scale passes, and so does a zero residual at a zero bound
    tol = gt.Tolerance(0.5)
    assert tol._admits(3.0, 2, 4)
    assert not tol._admits(np.nextafter(3.0, 4.0), 2, 4)
    assert list(tol._admits(np.array([0.0, 3.0, 4.0]), 2, 4)) == [True, True, False]
    assert tol._admits(0.0, 0, 0)
    assert not tol._admits(5e-324, 0, 0)


def _records():
    """One object of each slotted record class of core."""
    g = np.diag([1.0, 2.0])
    return [gt.Tolerance(), gt.GeneralizedVector([1.0, 2.0]),
            gt.BlockOperator(np.eye(1), 0, 0, np.eye(1)), gt.BilinearForm(g),
            gt.BaseForm(g), gt.BaseForm(gram=g, kind=gt.SKEW)]


def test_records_are_read_only():
    for record in _records():
        for name in (*type(record).__slots__, "unknown"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_array_records_compare_and_hash_by_identity():
    for first, second in ((gt.BilinearForm(np.eye(2)), gt.BilinearForm(np.eye(2))),
                          (gt.BaseForm(np.eye(2)), gt.BaseForm(np.eye(2))),
                          (gt.GeneralizedVector([1.0, 2.0]), gt.GeneralizedVector([1.0, 2.0]))):
        assert first == first and first != second
        assert hash(first) == hash(first)
        assert len({first, second}) == 2


def test_records_construct_positionally_and_by_keyword():
    g = np.diag([1.0, 2.0])
    assert gt.BilinearForm(g).kind == gt.GENERAL
    assert gt.BilinearForm(gram=g, kind=gt.SYMMETRIC).kind == gt.SYMMETRIC
    assert gt.BaseForm(g).kind == gt.SYMMETRIC
    assert gt.BaseForm(g, gt.SKEW).kind == gt.SKEW
    assert np.array_equal(gt.GeneralizedVector(coords=[[1.0], [2.0]]).coords, [1.0, 2.0])
    pc = gt.PolynomialClass("product", 2, minus_dim=2)
    assert (pc.kind, pc.plus_dim, pc.minus_dim, pc.alpha, pc.is_paracomplex) == (
        "product", 2, 2, 1, True)
    assert gt.PolynomialClass(kind="complex") == gt.PolynomialClass("complex", None, None)
    report = gt.MetricInducerReport()
    assert report.violations == () and report.valid
    assert not gt.MetricInducerReport(violations=("NotInjective",)).valid
    with pytest.raises(ValueError):
        gt.BaseForm(g, gt.GENERAL)
    with pytest.raises(gt.DimensionError):
        gt.BilinearForm(np.eye(3))


def test_close_is_scale_aware():
    a = np.eye(3) * 1e8
    assert gt.close(a, a + 1e-3, gt.Tolerance(1e-9))
    assert not gt.close(np.eye(3), np.eye(3) + 1e-3, gt.Tolerance(1e-9))
    # the internal power-of-two rescaling is exact, so the boundary sits
    # where ||a - b|| <= t + t * max(||a||, ||b||) puts it
    tol = gt.Tolerance(1e-9)
    for a in (np.eye(2), 1e6 * np.eye(2), 1e-6 * np.eye(2)):
        bound = tol.value + tol.value * np.linalg.norm(a)
        assert gt.close(a, a + np.diag([0.5 * bound, 0.0]), tol)
        assert not gt.close(a, a + np.diag([2.0 * bound, 0.0]), tol)


def test_close_does_not_overflow_or_underflow():
    # the norms of these finite entries overflow (or underflow) unless the
    # arrays are rescaled first; warnings are errors in this suite
    huge = np.array([[1e308, 1e308], [-1e308, 1.0]])
    assert gt.close(huge, huge.copy())
    assert not gt.close(huge, -huge)
    assert not gt.close([[1e308]], [[1.0]])
    assert gt.close([[1e308]], [[1e308 * (1 + 1e-12)]])
    assert gt.close([[5e-324]], [[0.0]])
    assert gt.close(np.zeros((0, 0)), np.zeros((0, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_close_refuses_a_nan_or_infinite_entry(bad):
    # an infinite scale would admit any residual (inf <= inf); Python's max
    # would drop a NaN beside a larger peak, as in (2 I, m); and beside
    # 1e308 the refusal must come before any norm, which would overflow
    m = np.diag([bad, 1.0])
    for a, b in ((m, np.eye(2)), (np.eye(2), m), (2 * np.eye(2), m), (m, 1e308 * np.ones((2, 2)))):
        with pytest.raises(ValueError, match="NaN or infinite entry"):
            gt.close(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_block_operators_refuse_a_nan_or_infinite_entry(bad):
    # so polynomial_class, like every reader of an operator, never meets one
    m = np.diag([bad, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="NaN or infinite entry"):
        gt.BlockOperator.from_matrix(m)
    with pytest.raises(ValueError, match="NaN or infinite entry"):
        gt.BlockOperator(m[:2, :2], 0, 0, np.eye(2))
    # a product that overflows is refused too
    huge = gt.BlockOperator.from_matrix(1e200 * np.eye(4))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="NaN or infinite entry"):
        huge.compose(huge)


def test_generalized_vector_parts():
    v = gt.GeneralizedVector.from_parts([1.0, 2.0], [3.0, 4.0])
    assert v.n == 2
    assert np.array_equal(v.vector_part, [1.0, 2.0])
    assert np.array_equal(v.covector_part, [3.0, 4.0])
    assert np.array_equal(v.coords, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(gt.DimensionError):
        gt.GeneralizedVector(np.arange(3.0))


def test_block_operator_assemble_roundtrip():
    rng = gt.SplitMix64(5)
    m = rng.matrix(6, 6)
    op = gt.BlockOperator.from_matrix(m)
    assert np.array_equal(op.assemble(), m)
    assert np.array_equal(op.H, m[:3, :3])
    assert np.array_equal(op.sigma, m[:3, 3:])
    assert np.array_equal(op.tau, m[3:, :3])
    assert np.array_equal(op.K, m[3:, 3:])


def test_block_operator_stores_one_matrix():
    rng = gt.SplitMix64(7)
    h, s, t, k = (rng.matrix(3, 3) for _ in range(4))
    op = gt.BlockOperator(h, s, t, k)
    assert op.assemble() is op.matrix
    assert op.matrix.shape == (6, 6)
    for block, part in ((op.H, h), (op.sigma, s), (op.tau, t), (op.K, k)):
        assert np.shares_memory(block, op.matrix)
        assert np.array_equal(block, part)
    # the constructor copies: changing an input block changes nothing
    before = h.copy()
    h[0, 0] += 1.0
    assert np.array_equal(op.H, before)


def test_block_operator_zero_blocks_and_sizes():
    rng = gt.SplitMix64(11)
    s, t = rng.matrix(3, 3), rng.matrix(3, 3)
    op = gt.BlockOperator(0, s, t, 0)
    assert np.array_equal(op.matrix, np.block([[np.zeros((3, 3)), s], [t, np.zeros((3, 3))]]))
    # a zero block is +0.0, with no sign bit set
    assert not np.signbit(op.H).any() and not np.signbit(op.K).any()
    with pytest.raises(gt.DimensionError, match="at least one block"):
        gt.BlockOperator(0, 0, 0, 0)
    with pytest.raises(gt.DimensionError, match="expected a 3x3 matrix, got 2x2"):
        gt.BlockOperator(0, s, np.eye(2), 0)
    with pytest.raises(gt.DimensionError, match="square"):
        gt.BlockOperator(np.ones((3, 2)), s, t, s)
    with pytest.raises(gt.DimensionError, match="square"):
        gt.BlockOperator(1.0, s, t, s)


def test_block_operator_is_read_only():
    op = gt.BlockOperator.from_matrix(gt.SplitMix64(8).matrix(4, 4))
    for name in ("H", "sigma", "tau", "K"):
        with pytest.raises(ValueError):
            getattr(op, name)[0, 0] = 1.0
        with pytest.raises(AttributeError):
            setattr(op, name, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        op.assemble()[0, 0] = 1.0
    with pytest.raises(AttributeError):
        op.matrix = np.zeros((4, 4))


def test_from_matrix_copies_its_input():
    m = gt.SplitMix64(9).matrix(4, 4)
    op = gt.BlockOperator.from_matrix(m)
    before = m.copy()
    m[:] = 0.0
    assert np.array_equal(op.assemble(), before)
    assert m.flags.writeable


def test_block_operator_compose_matches_dense():
    rng = gt.SplitMix64(17)
    for _ in range(20):
        a = gt.BlockOperator.from_matrix(rng.matrix(8, 8))
        b = gt.BlockOperator.from_matrix(rng.matrix(8, 8))
        product = a.compose(b).assemble()
        assert np.linalg.norm(product - compose_by_blocks(a, b)) <= 1e-12


def test_block_operator_compose_rejects_other_dimension():
    a = gt.BlockOperator.from_matrix(np.eye(4))
    b = gt.BlockOperator.from_matrix(np.eye(6))
    with pytest.raises(gt.DimensionError):
        a.compose(b)
    with pytest.raises(gt.DimensionError):
        a.add(b)


def test_block_operator_arithmetic():
    rng = gt.SplitMix64(3)
    a = gt.BlockOperator.from_matrix(rng.matrix(4, 4))
    b = gt.BlockOperator.from_matrix(rng.matrix(4, 4))
    assert np.allclose(a.scale(2.5).assemble(), combine_by_blocks(a, 2.5, b, 0.0))
    assert np.allclose(a.add(b).assemble(), combine_by_blocks(a, 1.0, b, 1.0))
    assert np.allclose(a.neg().assemble(), combine_by_blocks(a, -1.0, b, 0.0))


def test_apply_matches_dense():
    rng = gt.SplitMix64(11)
    op = gt.BlockOperator.from_matrix(rng.matrix(4, 4))
    v = gt.GeneralizedVector(np.array([1.0, -2.0, 0.5, 3.0]))
    out = gt.apply(op, v)
    assert np.allclose(out.coords, apply_by_blocks(op, v.coords))


def test_base_form_evaluation():
    # b(x, y) = x.T gram y with gram = [[2, 1], [1, 3]]
    b = gt.BaseForm(np.array([[2.0, 1.0], [1.0, 3.0]]), gt.SYMMETRIC)
    assert b([1.0, 2.0], [3.0, -1.0]) == pytest.approx(5.0)


def test_base_form_kind_label_validated():
    skewed = np.array([[0.0, 1.0], [-1.0, 0.0]])
    gt.BaseForm(skewed, gt.SKEW)
    with pytest.raises(ValueError):
        gt.BaseForm(skewed, "sideways")


def test_dual_map_is_transpose():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(gt.dual_map(a), a.T)
    # (A* xi)(X) = xi(A X) with xi, X as coordinate vectors
    xi = np.array([1.0, -1.0])
    x = np.array([2.0, 5.0])
    assert (gt.dual_map(a) @ xi) @ x == pytest.approx(xi @ (a @ x))


def test_is_degenerate_scale_invariant():
    assert is_degenerate(np.zeros((3, 3)))
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert is_degenerate(singular)
    assert is_degenerate(1e12 * singular)
    assert not is_degenerate(np.eye(3) * 1e-8)


def test_musicals_known_metric():
    g = gt.BaseForm(np.array([[2.0, 1.0], [1.0, 3.0]]), gt.SYMMETRIC)
    flat, sharp = gt.musicals(g)
    assert np.allclose(flat, g.gram.T)
    assert np.allclose(sharp, np.array([[0.6, -0.2], [-0.2, 0.4]]))
    assert np.allclose(flat @ sharp, np.eye(2))
    # (X^flat)(Y) = g(X, Y)
    x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert (flat @ x) @ y == pytest.approx(g(x, y))


def test_musicals_reject_degenerate():
    bad = gt.BaseForm(np.array([[1.0, 1.0], [1.0, 1.0]]), gt.SYMMETRIC)
    with pytest.raises(gt.DegenerateFormError):
        gt.musicals(bad)


def test_signature_known_values():
    assert gt.signature(gt.BaseForm(np.diag([2.0, -3.0, 5.0]), gt.SYMMETRIC)) == (2, 1)
    assert gt.signature(gt.BaseForm(np.eye(4), gt.SYMMETRIC)) == (4, 0)
    nearly = gt.BaseForm(np.diag([1.0, 1e-14]), gt.SYMMETRIC)
    with pytest.raises(gt.DegenerateFormError):
        gt.signature(nearly)


def test_signature_bound_is_t_at_every_scale_of_the_form():
    # the bound on |lambda| is t * 1 + t * 0: an eigenvalue of exactly t is
    # zero and one just above it is not, however large the others are
    tol = gt.Tolerance(1e-9)
    above = np.nextafter(1e-9, 1.0)
    for big in (1.0, 1e12):
        with pytest.raises(gt.DegenerateFormError):
            gt.signature(gt.BilinearForm(np.diag([big, 1e-9, -2.0, 3.0]), gt.SYMMETRIC), tol)
        assert gt.signature(gt.BaseForm(np.diag([big, -above]), gt.SYMMETRIC), tol) == (1, 1)


def test_signature_congruence_invariant():
    """Sylvester: signature survives congruence by any invertible matrix."""
    rng = gt.SplitMix64(23)
    d = np.diag([1.0, 1.0, -1.0, -1.0, -1.0])
    for _ in range(10):
        p = gt.random_invertible(5, rng)
        f = gt.BaseForm(p.T @ d @ p, gt.SYMMETRIC)
        assert gt.signature(f) == (2, 3)


def test_polynomial_class_complex():
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    op = gt.BlockOperator.from_matrix(np.block(
        [[j, np.zeros((2, 2))], [np.zeros((2, 2)), j]]))
    pc = gt.polynomial_class(op)
    assert pc.kind == "complex"
    assert pc.alpha == -1


def test_polynomial_class_product_and_paracomplex():
    para = gt.BlockOperator.from_matrix(np.diag([1.0, -1.0, 1.0, -1.0]))
    pc = gt.polynomial_class(para)
    assert pc.kind == "product"
    assert pc.alpha == 1
    assert (pc.plus_dim, pc.minus_dim) == (2, 2)
    assert pc.is_paracomplex
    lopsided = gt.BlockOperator.from_matrix(np.diag([1.0, 1.0, 1.0, -1.0]))
    assert not gt.polynomial_class(lopsided).is_paracomplex


def test_polynomial_class_excludes_identity():
    ident = gt.BlockOperator.from_matrix(np.eye(4))
    assert gt.polynomial_class(ident) == NEITHER
    assert gt.polynomial_class(gt.BlockOperator.from_matrix(-np.eye(4))) == NEITHER


def test_polynomial_class_square_bound_has_no_absolute_term():
    # each bound is t * ||I||, with no t beside it.  (1 + d) f0 squares to
    # (1 + d)^2 I, off I by (2d + d^2) ||I||: within t ||I|| at t = 2.5 d, not
    # at t = 1.5 d, where t + t ||I|| would still admit it
    d = 1e-7
    m = (1 + d) * gt.f0(2).assemble()
    pc = gt.polynomial_class(gt.BlockOperator.from_matrix(m), gt.Tolerance(2.5 * d))
    assert (pc.kind, pc.plus_dim, pc.minus_dim) == ("product", 2, 2)
    assert gt.polynomial_class(gt.BlockOperator.from_matrix(m), gt.Tolerance(1.5 * d)) == NEITHER


def test_polynomial_class_neither():
    rng = gt.SplitMix64(2)
    op = gt.BlockOperator.from_matrix(rng.matrix(4, 4))
    assert gt.polynomial_class(op).kind == "neither"


def _eigvals_split(m):
    """Oracle: eigenvalues of m counted by the nearer of +1 and -1."""
    eig = np.linalg.eigvals(m)
    plus = int(np.sum(np.abs(eig - 1.0) < np.abs(eig + 1.0)))
    return plus, eig.size - plus


def test_polynomial_class_counts_eigenspaces_like_eigvals():
    rng = gt.SplitMix64(31)
    for size in range(2, 65, 2):
        q1, _ = np.linalg.qr(rng.matrix(size, size))
        q2, _ = np.linalg.qr(rng.matrix(size, size))
        for plus in range(1, size):
            # P = Q1 diag(s) Q2 with condition number 1e3 ** (plus / size)
            p = q1 @ np.diag(np.geomspace(1.0, 1e3 ** (plus / size), size)) @ q2
            d = np.repeat([1.0, -1.0], [plus, size - plus])
            # a strictly upper triangular, so non-normal, perturbation moves
            # the eigenvalues off +/-1 while op^2 still passes as I
            e = np.triu(rng.matrix(size, size), 1)
            m = (p * d) @ np.linalg.inv(p) + 1e-11 * e / np.linalg.norm(e)
            pc = gt.polynomial_class(gt.BlockOperator.from_matrix(m))
            assert pc.kind == "product", (size, plus)
            assert (pc.plus_dim, pc.minus_dim) == _eigvals_split(m) == (plus, size - plus)


def test_polynomial_class_count_at_loose_tolerance():
    # ||m^2 - I|| = 0.32 passes the product test at t = 0.05 and 2n = 64, but
    # the trace -1.28 would round to 31 / 33; the eigenvalues split 32 / 32
    m = np.diag(np.repeat([0.98, -1.02], 32))
    pc = gt.polynomial_class(gt.BlockOperator.from_matrix(m), gt.Tolerance(0.05))
    assert (pc.kind, pc.plus_dim, pc.minus_dim) == ("product", 32, 32)
    assert pc.is_paracomplex


def test_forms_own_a_read_only_gram():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = gt.BaseForm(a)
    assert a.flags.writeable
    a[0, 0] = 5.0
    assert b.gram[0, 0] == 2.0
    flat, sharp = gt.musicals(b)
    for m in (b.gram, flat, sharp):
        with pytest.raises(ValueError):
            m[0, 0] = 0.0
    big = np.eye(4)
    form = gt.BilinearForm(big, gt.SYMMETRIC)
    assert big.flags.writeable
    with pytest.raises(ValueError):
        form.gram[0, 0] = 0.0


def test_musicals_are_kept_on_the_form():
    b = gt.BaseForm(np.array([[2.0, 1.0], [1.0, 3.0]]))
    flat, sharp = gt.musicals(b)
    again = gt.musicals(b)
    assert again[0] is flat and again[1] is sharp
    assert np.allclose(flat @ sharp, np.eye(2))


@pytest.mark.parametrize("loose_first", [False, True])
def test_signature_is_kept_per_tolerance(loose_first):
    # an eigenvalue of 1e-10 is zero at the default tolerance only
    form = gt.BilinearForm(np.diag([1.0, 1e-10, -1.0, 2.0]), gt.SYMMETRIC)
    loose = gt.Tolerance(1e-12)
    if loose_first:
        assert gt.signature(form, loose) == (3, 1)
    for _ in range(2):
        # an error is not kept: the next call raises it again
        with pytest.raises(gt.DegenerateFormError):
            gt.signature(form)
    assert gt.signature(form, loose) == (3, 1)


@pytest.mark.parametrize("loose_first", [False, True])
def test_musicals_are_kept_per_tolerance(loose_first):
    b = gt.BaseForm(np.diag([1.0, 1e-10]))
    loose = gt.Tolerance(1e-12)
    if loose_first:
        assert np.allclose(gt.musicals(b, loose)[1], np.diag([1.0, 1e10]))
    for _ in range(2):
        with pytest.raises(gt.DegenerateFormError):
            gt.musicals(b)
    assert np.allclose(gt.musicals(b, loose)[1], np.diag([1.0, 1e10]))


def _with_singular_values(sv, seed):
    """Q1 diag(sv) Q2 for seeded orthogonal Q1, Q2."""
    rng = np.random.default_rng(seed)
    n = len(sv)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q1 * np.asarray(sv)) @ q2


def _rank_cases():
    """(matrix, tol, certifiable) near and far from the is_degenerate
    boundary, at each n; certifiable marks a matrix whose sigma_min is
    1e3 * tol.value * max(sigma_max, 1) at a tolerance the certificate uses."""
    cases = []
    for n in (1, 2, 3, 8, 32, 64):
        for tol in (gt.DEFAULT_TOL, gt.Tolerance(1e-15),
                    gt.Tolerance(1e-3)):
            usable = tol.value >= 64 * n * 2.0**-53
            for top in (1e-3, 1.0, 1e4):
                # sigma_min on either side of tol.value * max(sigma_max, 1)
                for side in (1 - 1e-6, 1 + 1e-6, 1e3):
                    bottom = tol.value * max(top, 1.0) * side
                    if bottom > top:
                        continue
                    sv = np.geomspace(top, bottom, n) if n > 1 else [bottom]
                    cases.append((_with_singular_values(sv, n), tol,
                                  usable and side == 1e3))
            for scale in (2.0**600, 2.0**-600):
                cases.append((scale * _with_singular_values(
                    np.geomspace(1.0, 0.1, n), n + 1), tol, False))
            cases.append((np.zeros((n, n)), tol, False))
            cases.append((1e-10 * np.eye(n), tol, False))
            cases.append((gt.random_metric(n, n, 0, 7 + n).gram, tol,
                          usable and tol.value < 1e-6))
        if n > 1:
            rank_one = np.outer(np.arange(1.0, n + 1), np.ones(n))
            cases.append((rank_one, gt.DEFAULT_TOL, False))
    return cases


def test_rank_certificate_agrees_with_the_svd():
    for a, tol, certifiable in _rank_cases():
        try:
            x = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            x = None
        certified = x is not None and _certifies_nondegenerate(a, x, tol)
        degenerate = svd_oracle(a, tol)
        if certified:
            assert not degenerate
        # the certificate is not vacuous: it decides the clear cases
        assert certified or not certifiable
        got = is_degenerate(a, tol)
        assert got == degenerate and type(got) is type(degenerate)
        got = _inverse_unless_degenerate(a, tol)
        if degenerate:
            assert got is None
        else:
            # the bits of the inverse that "test, then invert" returns
            assert got is not None and np.array_equal(got, np.linalg.inv(a))


def test_musicals_decide_on_flat_and_keep_its_inverse():
    # the rank test is of flat = gram.T, which has the Gram's singular
    # values, and sharp is inv(flat), bit for bit, or the form is degenerate;
    # the form's Gram is the symmetric part of the matrix it is given
    for given in (np.array([[2.0, 1.0], [-3.0, 1.0]]),
                  np.array([[1.0, 1e-9], [0.0, 1e-9]]),
                  np.array([[1.0, 2.0], [2.0, 4.0]]),
                  _with_singular_values([1.0, 1e-9 * (1 + 1e-6)], 3)):
        gram = 0.5 * given + 0.5 * given.T
        for tol in (gt.DEFAULT_TOL, gt.Tolerance(1e-15)):
            b = gt.BaseForm(given, gt.SYMMETRIC)
            if svd_oracle(gram, tol):
                with pytest.raises(gt.DegenerateFormError):
                    gt.musicals(b, tol)
            else:
                flat, sharp = gt.musicals(b, tol)
                assert np.array_equal(flat, gram.T)
                assert np.array_equal(sharp, np.linalg.inv(gram.T.copy()))


def test_small_base_metrics_stay_degenerate():
    small = gt.BaseForm(1e-10 * np.eye(2), gt.SYMMETRIC)
    with pytest.raises(gt.DegenerateFormError,
                       match="base form is numerically degenerate"):
        gt.build_family("Jg", small)
    with pytest.raises(gt.DegenerateFormError,
                       match="base form is numerically degenerate"):
        gt.induced_metric(small)


def test_neither_class_has_no_alpha():
    assert gt.PolynomialClass("neither").alpha is None
    assert gt.PolynomialClass("complex").alpha == -1


def test_signature_refuses_a_skew_form():
    skew = gt.BaseForm(np.array([[0.0, 1.0], [-1.0, 0.0]]), gt.SKEW)
    with pytest.raises(ValueError, match="symmetric forms only"):
        gt.signature(skew)


def test_dimension_and_kind_checks_of_vectors_operators_and_forms():
    with pytest.raises(gt.DimensionError, match="equal length"):
        gt.GeneralizedVector.from_parts([1.0], [1.0, 2.0, 3.0])
    with pytest.raises(gt.DimensionError, match="2n x 2n"):
        gt.BlockOperator.from_matrix(np.eye(3))
    with pytest.raises(ValueError, match="unknown form kind"):
        gt.BilinearForm(np.eye(2), "sideways")
    one, two = gt.GeneralizedVector(np.ones(2)), gt.GeneralizedVector(np.ones(4))
    with pytest.raises(gt.DimensionError, match="form and vector"):
        gt.BilinearForm(np.eye(4))(one, two)
    with pytest.raises(gt.DimensionError, match="form and vector"):
        gt.BaseForm(np.eye(2))([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(gt.DimensionError, match="operator and vector"):
        gt.apply(gt.BlockOperator.from_matrix(np.eye(4)), one)
