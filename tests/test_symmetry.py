"""Equivariance of the family builders, and invariance of the classifiers,
under the symmetries of V + V*.

A change of basis A of V acts on V + V* as D_A = diag(A, A^-T), and on base
data as J -> A J A^-1, g -> A^-T g A^-1 (the same for a symplectic form).
Every builder of ``ae_zoo.FAMILIES`` commutes with it: building from the
carried data gives the D_A-conjugate of the original build.  The builders
also commute with direct sums of base data, up to the shuffle
(X1, X2, xi1, xi2) <-> (X1, xi1, X2, xi2) of the fiber's coordinates.

D_A preserves G0 (D_A^T G0 D_A = G0), commutes with F0 = diag(-I, I) and
carries the induced metric Gg of g to that of the carried g.  So conjugating
an operator by D_A changes neither its class against G0, nor its class
against Gg once Gg is carried too, nor its commutation with F0, nor the
kind and commutation sign of a triple.

A is an integer product of three shears, so A, A^-1 and D_A are exact and
the residuals are roundoff only.  Each bound states the scale that roundoff
grows with: the builders invert the base gram, whose condition number the
carried data raises by up to cond(A)^2.
"""

import numpy as np
import pytest

import gentangent as gt
from gentangent import triples
from gentangent.ae_zoo import FAMILIES, FAMILY_IDS, KINDS, AeManifoldData
from gentangent.core import SYMMETRIC
from gentangent.generators import random_base

U = 2.0**-53
SLACK = 8  # the worst case measured: 0.10 of the GL(V) bound, 0.18 of the direct-sum one


def _base(family, n, seed):
    return random_base(FAMILIES[family].base_kind, n, seed)


def _gram(data):
    return data.g.gram if isinstance(data, AeManifoldData) else data.gram


def _unimodular(n, seed):
    """(A, A^-1): a product of three integer shears I + c E_ij, 1 <= |c| <= 2."""
    rng = gt.SplitMix64(seed)
    a, a_inv = np.eye(n), np.eye(n)
    for _ in range(3):
        i = rng.next_u64() % n
        j = (i + 1 + rng.next_u64() % (n - 1)) % n
        c = (1.0 + rng.next_u64() % 2) * (1.0 if rng.next_u64() % 2 else -1.0)
        shear, unshear = np.eye(n), np.eye(n)
        shear[i, j], unshear[i, j] = c, -c
        a, a_inv = a @ shear, unshear @ a_inv
    return a, a_inv


def _carry(data, a, a_inv):
    """Base data pushed forward by A."""
    if isinstance(data, AeManifoldData):
        return AeManifoldData(a @ data.J @ a_inv, _carry(data.g, a, a_inv),
                              data.alpha, data.epsilon)
    return gt.BaseForm(a_inv.T @ data.gram @ a_inv, data.kind)


def _direct_sum(x, y):
    m = np.zeros((x.shape[0] + y.shape[0],) * 2)
    m[:x.shape[0], :x.shape[0]] = x
    m[x.shape[0]:, x.shape[0]:] = y
    return m


def _sum_data(d1, d2):
    if isinstance(d1, AeManifoldData):
        return AeManifoldData(_direct_sum(d1.J, d2.J), _sum_data(d1.g, d2.g),
                              d1.alpha, d1.epsilon)
    return gt.BaseForm(_direct_sum(d1.gram, d2.gram), d1.kind)


def test_unimodular_inverse_is_exact():
    for seed in range(20):
        a, a_inv = _unimodular(4, 7000 + seed)
        assert np.array_equal(a @ a_inv, np.eye(4))
        assert round(np.linalg.det(a)) == 1


@pytest.mark.parametrize("family", list(FAMILIES))
def test_builders_commute_with_a_change_of_basis(family):
    n = 4
    for seed in range(20):
        data = _base(family, n, seed)
        a, a_inv = _unimodular(n, 7000 + seed)
        d_a = _direct_sum(a, a_inv.T)
        d_a_inv = _direct_sum(a_inv, a.T)
        want = d_a @ gt.build_family(family, data).matrix @ d_a_inv
        got = gt.build_family(family, _carry(data, a, a_inv)).matrix
        scale = np.linalg.cond(a) ** 2 * np.linalg.cond(_gram(data)) * np.linalg.norm(want)
        assert np.linalg.norm(got - want) <= SLACK * U * scale, seed


@pytest.mark.parametrize("family", list(FAMILIES))
def test_builders_commute_with_direct_sums(family):
    n1, n2 = 2, 4
    n = n1 + n2
    # (X1, xi1, X2, xi2) read off the (X1, X2, xi1, xi2) coordinates
    shuffle = np.r_[0:n1, n:n + n1, n1:n, n + n1:2 * n]
    for seed in range(10):
        d1, d2 = _base(family, n1, seed), _base(family, n2, 100 + seed)
        data = _sum_data(d1, d2)
        got = gt.build_family(family, data).matrix[np.ix_(shuffle, shuffle)]
        want = _direct_sum(gt.build_family(family, d1).matrix,
                           gt.build_family(family, d2).matrix)
        scale = np.linalg.cond(_gram(data)) * np.linalg.norm(want)
        assert np.linalg.norm(got - want) <= SLACK * U * scale, seed


def _conjugate(op, a, a_inv):
    """D_A op D_A^-1."""
    return gt.BlockOperator.from_matrix(
        _direct_sum(a, a_inv.T) @ op.matrix @ _direct_sum(a_inv, a.T))


def _riemannian(data, seed):
    """The metric whose Gg a family is classified against: the data's g, or,
    beside a lone form, a positive definite metric of its own."""
    if isinstance(data, AeManifoldData):
        return data.g
    return data if data.kind == SYMMETRIC else gt.random_metric(data.n, data.n, 0, seed)


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_classes_and_f0_commutation_keep_under_a_change_of_basis(family):
    n = 4
    g0 = gt.g0(n)
    for seed in range(20):
        data = _base(family, n, seed)
        a, a_inv = _unimodular(n, 7000 + seed)
        op = gt.build_family(family, data)
        moved = _conjugate(op, a, a_inv)
        assert gt.classify_pair(moved, g0) == gt.classify_pair(op, g0), seed
        g = _riemannian(data, 100 + seed)
        gg, gg_moved = gt.induced_metric(g), gt.induced_metric(_carry(g, a, a_inv))
        assert gt.classify_pair(moved, gg_moved) == gt.classify_pair(op, gg), seed
        assert gt.f0_commutation(moved) == gt.f0_commutation(op), seed


@pytest.mark.parametrize("name", gt.TRIPLE_NAMES)
def test_triple_kinds_keep_under_a_change_of_basis(name):
    n = 4
    alpha = triples._TRIPLE_RECIPES[name][0]
    kind = next(k for k, row in KINDS.items() if row.alpha == alpha)
    for seed in range(20):
        first, second, _ = gt.canonical_triple(name, random_base(kind, n, seed))
        a, a_inv = _unimodular(n, 7000 + seed)
        report = gt.classify_triple(first, second)
        moved = gt.classify_triple(_conjugate(first, a, a_inv), _conjugate(second, a, a_inv))
        assert report.kind == gt.expected_triple_kind(name), seed
        assert (moved.kind, moved.commutation_sign) == (report.kind, report.commutation_sign), seed
