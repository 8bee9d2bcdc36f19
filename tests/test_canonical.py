import numpy as np
import pytest

import gentangent as gt


def test_g0_gram_n2():
    expected = np.array([
        [0.0, 0.0, 0.5, 0.0],
        [0.0, 0.0, 0.0, 0.5],
        [0.5, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0],
    ])
    assert np.array_equal(gt.g0(2).gram, expected)
    assert gt.g0(2).kind == gt.SYMMETRIC


def test_g0_pairing_value():
    # G0(X + xi, Y + eta) = (xi(Y) + eta(X)) / 2
    u = gt.GeneralizedVector.from_parts([1.0, 2.0], [3.0, 4.0])
    v = gt.GeneralizedVector.from_parts([5.0, 6.0], [7.0, 8.0])
    expected = 0.5 * ((3.0 * 5.0 + 4.0 * 6.0) + (7.0 * 1.0 + 8.0 * 2.0))
    assert gt.g0(2)(u, v) == pytest.approx(expected)


def test_g0_neutral_signature():
    for n in range(1, 7):
        assert gt.signature(gt.g0(n)) == (n, n)


def test_omega0_gram_n2():
    expected = np.array([
        [0.0, 0.0, -0.5, 0.0],
        [0.0, 0.0, 0.0, -0.5],
        [0.5, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0],
    ])
    assert np.array_equal(gt.omega0(2).gram, expected)
    assert gt.omega0(2).kind == gt.SKEW


def test_f0_assemble():
    assert np.array_equal(gt.f0(2).assemble(), np.diag([-1.0, -1.0, 1.0, 1.0]))


def test_f0_is_paracomplex():
    pc = gt.polynomial_class(gt.f0(3))
    assert pc.kind == "product"
    assert pc.is_paracomplex


def test_omega0_is_g0_twisted_by_f0():
    for n in (1, 2, 3, 4):
        lhs = gt.omega0(n).gram
        rhs = gt.f0(n).assemble().T @ gt.g0(n).gram
        assert np.array_equal(lhs, rhs)


def test_canonical_pair_is_para_hermitian():
    cls = gt.classify_pair(gt.f0(2), gt.g0(2))
    assert cls.name == "ParaHermitian"
    assert (cls.alpha, cls.epsilon) == (1, -1)
    assert cls.signature == (2, 2)


def test_dimension_validated():
    with pytest.raises(gt.DimensionError):
        gt.g0(0)
    with pytest.raises(gt.DimensionError):
        gt.f0(-1)


@pytest.mark.parametrize("build", [gt.g0, gt.omega0, gt.f0])
@pytest.mark.parametrize("n", [2.5, 3.9, 2.0, True, np.True_, "3", None])
def test_dimension_that_is_not_an_integer_is_refused(build, n):
    # int(n) would build n = 2, 3, 2, 1, 1 and 3 from these
    with pytest.raises(gt.DimensionError, match="must be an integer"):
        build(n)


def test_numpy_integer_dimension_is_accepted():
    assert gt.g0(np.int64(3)) is gt.g0(3)
    assert np.array_equal(gt.f0(np.int32(2)).matrix, gt.f0(2).matrix)


def test_canonical_forms_are_shared_per_n():
    for n in (1, 3, 32):
        assert gt.g0(n) is gt.g0(n)
        assert gt.omega0(n) is gt.omega0(n)
    assert gt.g0(2) is not gt.g0(3)
    with pytest.raises(ValueError):
        gt.g0(2).gram[0, 2] = 1.0

