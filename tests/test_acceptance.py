"""Acceptance gate: one test per release criterion, each printing a
single pass/fail line.  Every check is seeded and deterministic."""

import numpy as np
import pytest

import gentangent as gt
from gentangent import registry

from block_rules import apply_by_blocks, combine_by_blocks, compose_by_blocks

TOL = gt.Tolerance(1e-9, 1e-9)


def _report(num, description, ok):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def _failures(prop_id, n, trials, seed):
    return registry.run_check(prop_id, n, trials, seed, TOL).failures


def test_criterion_01_canonical_relations():
    ok = True
    for n in range(1, 7):
        ok &= np.array_equal(gt.omega0(n).gram,
                             gt.f0(n).assemble().T @ gt.g0(n).gram)
        ok &= gt.signature(gt.g0(n)) == (n, n)
        cls = gt.classify_pair(gt.f0(n), gt.g0(n), TOL)
        ok &= cls.name == "ParaHermitian"
    _report(1, "canonical flip, metric and symplectic form relations", ok)


def test_criterion_02_metric_characterization():
    m_fail = _failures("P3.metric-char", 3, 200, 42)
    s_fail = _failures("P3.symplectic-char", 3, 200, 43)
    _report(2, "inducing endomorphism characterization and inversion",
            m_fail == 0 and s_fail == 0)


def test_criterion_03_signature_proposition():
    ok = True
    case = 0
    for r in range(0, 7):
        for s in range(0, 7 - r):
            if r + s == 0:
                continue
            case += 1
            g = gt.random_metric(r + s, r, s, seed=1000 + case)
            ok &= gt.signature(gt.induced_metric(g), TOL) == (2 * r, 2 * s)
    _report(3, "induced metric signature doubles (r, s) exactly", ok)


def test_criterion_04_compatibility_table():
    t_fail = _failures("P4.triangular-iff", 2, 100, 42)
    m_fail = _failures("P4.mixed-iff", 2, 100, 42)
    n_fail = _failures("P4.Jg-G0-norden", 3, 100, 42)
    _report(4, "structure table with both directions of every iff",
            t_fail == 0 and m_fail == 0 and n_fail == 0)


def test_criterion_05_twin_metric_closed_forms():
    fails = 0
    for n in (2, 3, 4):
        fails += _failures("P4.twin-metrics", n, 100, 42 + n)
    _report(5, "all closed twin-metric and fundamental-form formulas", fails == 0)


def test_criterion_06_flat_sharp_identities():
    fails = _failures("P2.flat-sharp", 4, 100, 42)
    _report(6, "flat/sharp matrix identities for all generator kinds", fails == 0)


def test_criterion_07_triple_tables():
    fails = 0
    for n in (2, 4):
        fails += _failures("P5.canonical-triples", n, 25, 42 + n)
    fails += _failures("P5.triple-MJG", 2, 100, 42)
    fails += _failures("P5.triple-MFG", 2, 100, 42)
    fails += _failures("P5.combine-law", 2, 100, 42)
    _report(7, "eight named triples, mixed decompositions, combine law",
            fails == 0)


def test_criterion_08_generalized_almost_kahler():
    tol8 = gt.Tolerance(1e-8, 1e-8)
    fails = 0
    for seed in range(25):
        data = gt.random_ae_pair("Hermitian", 2, seed)
        phi = gt.base_fundamental(data)
        j_phi = gt.build_musical(phi, -1)
        j_minus = gt.build_diagonal(data.J, -1)
        if not gt.is_almost_kahler(j_phi, j_minus, TOL)[0]:
            fails += 1
        j_plus = gt.build_diagonal(data.J, +1)
        if gt.is_almost_kahler(j_plus, j_minus, TOL)[0]:
            fails += 1
    for n in (2, 4):
        for seed in range(25):
            kd = gt.random_kahler_data(n, 500 * n + seed)
            if not gt.kahler_roundtrip(kd, tol8):
                fails += 1
    _report(8, "almost Kahler pairs and 50-seed data round-trip at 1e-8",
            fails == 0)


def test_criterion_09_base_complex_extraction():
    fails = 0
    for n in (2, 4):
        for seed in range(25):
            om = gt.random_symplectic(n, seed)
            j = gt.extract_base_complex(gt.build_musical(om, -1), TOL)
            if np.linalg.norm(j @ j + np.eye(n)) > 1e-8:
                fails += 1
            data = gt.random_ae_pair("Hermitian", n, seed)
            j = gt.extract_base_complex(gt.build_diagonal(data.J, -1), TOL)
            if np.linalg.norm(j @ j + np.eye(n)) > 1e-8:
                fails += 1
    _report(9, "extracted base structure squares to -I within 1e-8", fails == 0)


def test_criterion_10_block_vs_dense_oracle():
    """Dense operator arithmetic re-verified against the block rules."""
    worst = 0.0
    for n in (1, 2, 3, 4):
        rng = gt.SplitMix64(77 + n)
        for _ in range(100):
            a = gt.BlockOperator.from_matrix(rng.matrix(2 * n, 2 * n))
            b = gt.BlockOperator.from_matrix(rng.matrix(2 * n, 2 * n))
            worst = max(worst, float(np.linalg.norm(
                a.compose(b).assemble() - compose_by_blocks(a, b))))
            v = gt.GeneralizedVector(rng.matrix(2 * n, 1).ravel())
            worst = max(worst, float(np.linalg.norm(
                gt.apply(a, v).coords - apply_by_blocks(a, v.coords))))
            worst = max(worst, float(np.linalg.norm(
                a.add(b.scale(-2.0)).assemble()
                - combine_by_blocks(a, 1.0, b, -2.0))))
    _report(10, f"block vs dense oracle equivalence (worst {worst:.2e})",
            worst <= 1e-12)
