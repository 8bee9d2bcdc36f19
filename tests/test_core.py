import numpy as np
import pytest

import gentangent as gt
from gentangent.core import NEITHER, is_degenerate

from block_rules import apply_by_blocks, combine_by_blocks, compose_by_blocks


def test_tolerance_validation():
    with pytest.raises(ValueError):
        gt.Tolerance(-1e-9, 1e-9)
    with pytest.raises(ValueError):
        gt.Tolerance(1e-9, -1e-9)
    tol = gt.Tolerance(1e-6, 1e-3)
    assert tol.abs == 1e-6 and tol.rel == 1e-3


def test_close_is_scale_aware():
    a = np.eye(3) * 1e8
    assert gt.close(a, a + 1e-3, gt.Tolerance(1e-9, 1e-9))
    assert not gt.close(np.eye(3), np.eye(3) + 1e-3, gt.Tolerance(1e-9, 1e-9))
    # the internal power-of-two rescaling is exact, so the boundary sits
    # where ||a - b|| <= abs + rel * max(||a||, ||b||) puts it
    tol = gt.Tolerance(1e-9, 1e-9)
    for a in (np.eye(2), 1e6 * np.eye(2), 1e-6 * np.eye(2)):
        bound = tol.abs + tol.rel * np.linalg.norm(a)
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
    rel_only = gt.Tolerance(0.0, 1e-9)
    assert not gt.close([[1e-200]], [[2e-200]], rel_only)
    assert gt.close([[1e-200]], [[1e-200 * (1 + 1e-12)]], rel_only)
    assert gt.close([[5e-324]], [[0.0]])
    assert gt.close(np.zeros((0, 0)), np.zeros((0, 0)))


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


def test_polynomial_class_neither():
    rng = gt.SplitMix64(2)
    op = gt.BlockOperator.from_matrix(rng.matrix(4, 4))
    assert gt.polynomial_class(op).kind == "neither"
