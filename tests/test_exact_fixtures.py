"""The two sign tests on integer fixtures, whose answer is known exactly.

Each kind's integer model pair is transported by an integer unimodular P (see
``integer_fixtures``), so J^2 = alpha I and J^T g J = eps g hold bit for bit
in double, also with g scaled by any power of two in range.  A sign test must
then read the kind's alpha and eps, and ``build`` must take the pair as input,
whatever cond(P): the fixtures reach cond(P) = 3e6, so cond(g) up to 9e12.
"""

import io
import json

import numpy as np
import pytest

import gentangent as gt
from gentangent import cli
from gentangent.ae_zoo import KINDS
from gentangent.core import DEFAULT_TOL, _isometry_sign, _square_sign
from integer_fixtures import BOUND, transported_pair

SEEDS = range(1, 9)
CASES = [(kind, n) for kind, row in KINDS.items() for n in (2, 4) if row.dim in (None, n)]
EXACT = gt.Tolerance(1e-15)
# close's absolute floor, t = 1e-9, admits both signs of eps once
# 2^k |g| <= 5e-10; every fixture has |g| >= 1, so k >= -30 is clear of it
DEFAULT_POWERS = range(-30, 41)
FLOOR_POWERS = range(-40, -30)


def _fixtures(kind, n):
    """(J, g, P) for each seed, with 4 * seed shears."""
    return [transported_pair(kind, n, seed, 4 * seed) for seed in SEEDS]


def test_fixtures_are_exact_and_reach_a_large_condition():
    conds = []
    for kind, n in CASES:
        row = KINDS[kind]
        for j, g, p in _fixtures(kind, n):
            for m in (j, g, p, j.T @ g):
                assert np.array_equal(m, np.round(m)) and np.abs(m).max() < BOUND
            assert round(np.linalg.det(p)) == 1
            assert np.array_equal(j @ j, row.alpha * np.eye(n))
            assert np.array_equal(j.T @ g @ j, row.epsilon * g)
            conds.append(np.linalg.cond(p))
    assert min(conds) < 50 and max(conds) > 1e6


@pytest.mark.parametrize("kind, n", CASES)
def test_sign_tests_read_each_kind_exactly(kind, n):
    row = KINDS[kind]
    for tol, powers in ((EXACT, range(-40, 41)), (DEFAULT_TOL, DEFAULT_POWERS)):
        for j, g, _ in _fixtures(kind, n):
            assert _square_sign(j, tol) == row.alpha
            for k in powers:
                assert _isometry_sign(j, 2.0**k * g, tol) == row.epsilon, (tol, k)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: close's absolute floor t = 1e-9 admits both signs"
                          " of eps once 2^k |g| <= 5e-10, so the sign is read as None")
def test_isometry_sign_at_the_default_tolerance_keeps_below_the_absolute_floor():
    for kind, n in CASES:
        for j, g, _ in _fixtures(kind, n):
            for k in FLOOR_POWERS:
                assert _isometry_sign(j, 2.0**k * g, DEFAULT_TOL) == KINDS[kind].epsilon


@pytest.mark.parametrize("kind, n", CASES)
def test_build_reads_each_fixture_as_input(kind, n, capsys, monkeypatch):
    family = "JlamJ+" if KINDS[kind].alpha == -1 else "FlamF+"
    for j, g, _ in _fixtures(kind, n):
        doc = {"n": n, "base": {"g": g.tolist(), "J": j.tolist()}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert cli.main(["build", family, "--input", "-"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["base"] == doc["base"]
