import numpy as np
import pytest

import gentangent as gt
from gentangent.gen_metrics import (
    K_BLOCK_NOT_H_DUAL,
    NOT_INJECTIVE,
    SIGMA_NOT_SKEW,
    SIGMA_NOT_SYMMETRIC,
    TAU_NOT_SKEW,
    TAU_NOT_SYMMETRIC,
)


def _valid_inducer(n, seed, symplectic=False):
    rng = gt.SplitMix64(seed)
    h = gt.random_invertible(n, rng)
    s = rng.matrix(n, n)
    t = rng.matrix(n, n)
    if symplectic:
        return gt.BlockOperator(h, s - s.T, t - t.T, -h.T)
    return gt.BlockOperator(h, s + s.T, t + t.T, h.T)


def test_metric_from_valid_inducer():
    for seed in range(30):
        op = _valid_inducer(3, seed)
        form, report = gt.metric_from_endomorphism(op)
        assert report.valid
        assert form.kind == gt.SYMMETRIC
        assert np.allclose(form.gram, form.gram.T)
        # nondegenerate, and equal to G0(op ., .) entrywise
        gt.signature(form)
        assert np.allclose(form.gram, op.assemble().T @ gt.g0(3).gram)


def test_metric_violations_reported():
    n = 3
    op = _valid_inducer(n, 1)
    cases = {
        K_BLOCK_NOT_H_DUAL: gt.BlockOperator(op.H, op.sigma, op.tau, op.K + np.eye(n)),
        TAU_NOT_SYMMETRIC: gt.BlockOperator(op.H, op.sigma, op.tau + _skew(n), op.K),
        SIGMA_NOT_SYMMETRIC: gt.BlockOperator(op.H, op.sigma + _skew(n), op.tau, op.K),
        NOT_INJECTIVE: gt.BlockOperator(np.zeros((n, n)), op.sigma, np.zeros((n, n)), np.zeros((n, n))),
    }
    for violation, bad in cases.items():
        form, report = gt.metric_from_endomorphism(bad)
        assert violation in report.violations
        assert not report.valid
        assert form.kind == gt.GENERAL


def _skew(n):
    m = np.zeros((n, n))
    m[0, 1], m[1, 0] = 1.0, -1.0
    return m


def test_symplectic_from_valid_inducer():
    for seed in range(30):
        op = _valid_inducer(3, seed, symplectic=True)
        form, report = gt.symplectic_from_endomorphism(op)
        assert report.valid
        assert form.kind == gt.SKEW
        assert np.allclose(form.gram, -form.gram.T)


def test_symplectic_violations_reported():
    n = 3
    op = _valid_inducer(n, 2, symplectic=True)
    eye = np.eye(n)
    _, r1 = gt.symplectic_from_endomorphism(
        gt.BlockOperator(op.H, op.sigma + eye, op.tau, op.K))
    assert SIGMA_NOT_SKEW in r1.violations
    _, r2 = gt.symplectic_from_endomorphism(
        gt.BlockOperator(op.H, op.sigma, op.tau + eye, op.K))
    assert TAU_NOT_SKEW in r2.violations
    _, r3 = gt.symplectic_from_endomorphism(
        gt.BlockOperator(op.H, op.sigma, op.tau, -op.K))
    assert K_BLOCK_NOT_H_DUAL in r3.violations


def test_endomorphism_from_metric_inverts():
    for seed in range(30):
        op = _valid_inducer(4, seed)
        form, _ = gt.metric_from_endomorphism(op)
        back = gt.endomorphism_from_metric(form)
        assert np.linalg.norm(back.assemble() - op.assemble()) <= 1e-9


def test_endomorphism_from_metric_rejects_bad_input():
    skew = gt.BilinearForm(gt.omega0(2).gram, gt.SKEW)
    with pytest.raises(ValueError):
        gt.endomorphism_from_metric(skew)
    degenerate = gt.BilinearForm(np.zeros((4, 4)), gt.SYMMETRIC)
    with pytest.raises(gt.DegenerateFormError):
        gt.endomorphism_from_metric(degenerate)


def test_diagonal_inducer():
    h = np.array([[2.0, 1.0], [0.0, 1.0]])
    op = gt.diagonal_inducer(h, -1)
    assert np.array_equal(op.H, h)
    assert np.array_equal(op.K, -h.T)
    assert not op.sigma.any() and not op.tau.any()
    with pytest.raises(gt.NotInjectiveError):
        gt.diagonal_inducer(np.zeros((2, 2)), +1)


def test_induced_metric_blocks():
    g = gt.BaseForm(np.array([[2.0, 1.0], [1.0, 3.0]]), gt.SYMMETRIC)
    big = gt.induced_metric(g)
    assert np.allclose(big.gram[:2, :2], g.gram)
    assert np.allclose(big.gram[2:, 2:], np.linalg.inv(g.gram))
    assert not big.gram[:2, 2:].any() and not big.gram[2:, :2].any()


def test_induced_metric_signature():
    for r in range(0, 4):
        for s in range(0, 4 - r):
            if r + s == 0:
                continue
            g = gt.random_metric(r + s, r, s, seed=7 * r + s)
            assert gt.signature(gt.induced_metric(g)) == (2 * r, 2 * s)


def _nannicini_by_terms(j, g):
    """Oracle: the Nannicini Gram from its four defining summands,
    g(X, Y), g(JX, sharp eta) / 2, g(sharp xi, JY) / 2 and g(sharp xi, sharp eta)."""
    gm = g.gram
    sharp = np.linalg.inv(gm.T)
    return np.block([[gm, 0.5 * j.T @ gm @ sharp],
                     [0.5 * sharp.T @ gm @ j, sharp.T @ gm @ sharp]])


def test_nannicini_metric_matches_inducer_route():
    """The closed form is the induced form of [[J, 2 sharp], [2 flat, J*]], bit for bit."""
    for kind in ("Hermitian", "Norden"):
        for seed in range(100):
            data = gt.random_ae_pair(kind, 8, seed)
            direct = gt.nannicini_metric(data.J, data.g)
            flat, sharp = gt.musicals(data.g)
            op = gt.BlockOperator(data.J, 2.0 * sharp, 2.0 * np.asarray(flat), data.J.T)
            induced, report = gt.metric_from_endomorphism(op)
            assert report.valid
            assert direct.kind == gt.SYMMETRIC
            assert np.array_equal(direct.gram, induced.gram)


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("kind", ["Hermitian", "Norden"])
def test_nannicini_metric_matches_term_by_term_oracle(kind, n):
    for seed in range(20):
        data = gt.random_ae_pair(kind, n, seed)
        direct = gt.nannicini_metric(data.J, data.g).gram
        assert np.linalg.norm(direct - _nannicini_by_terms(data.J, data.g)) <= (
            1e-12 * np.linalg.norm(direct))
        assert np.allclose(direct, direct.T, rtol=0, atol=1e-12 * np.linalg.norm(direct))


def test_nannicini_metric_rejects_non_complex_j():
    g = gt.random_metric(2, 2, 0, seed=1)
    with pytest.raises(gt.NotComplexError):
        gt.nannicini_metric(np.eye(2), g)
