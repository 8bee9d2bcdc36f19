"""Named proposition checks, each runnable over seeded batches.

Every entry maps a stable string id to a check: a generator
``check(n, trials, seed, tol)`` that yields one ``(failures, residual)`` pair
per case, where ``failures`` counts the conditions the case broke.
``run_check`` is the one place where cases, failures and the largest residual
are added up.  A check draws its own fixtures from seeded generators, so a
(dim, trials, seed, tol) quadruple pins the run down completely.  Checks that
need even or divisible dimensions round the requested dimension up; checks
over a finite case table ignore ``trials`` and yield one case per table row.
"""

import time
from functools import partial
from typing import NamedTuple

import numpy as np

from . import ae_zoo, triples
from .ae_zoo import (
    HERMITIAN,
    INCOMPATIBLE,
    KINDS,
    NORDEN,
    PARA_HERMITIAN,
    base_fundamental,
    build_diagonal,
    build_family,
    build_mixed,
    build_musical,
    check_flat_sharp_identities,
    classify_pair,
    extract_base_complex,
    twin_formula_check,
)
from .canonical import f0, g0, omega0
from .core import (
    DEFAULT_TOL,
    SKEW,
    SYMMETRIC,
    BlockOperator,
    Tolerance,
    close,
    dual_map,
    signature,
)
from .errors import UnknownFamilyError
from .gen_metrics import (
    endomorphism_from_metric,
    induced_metric,
    metric_from_endomorphism,
    symplectic_from_endomorphism,
)
from .generators import (
    SplitMix64,
    fixture_dim,
    random_base,
    random_invertible,
    random_kahler_data,
    random_metric,
)


class VerifyReport(NamedTuple):
    id: str
    trials: int
    failures: int
    max_residual: float
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _residual(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def _trial_seed(seed: int, trial: int) -> int:
    return seed * 100003 + trial


def _check_flat_sharp(n, trials, seed, tol):
    # the kinds drawn at n first, then those of a fixed dimension
    kinds = sorted(KINDS, key=lambda k: KINDS[k].dim is not None)
    for t in range(trials):
        data = random_base(kinds[t % len(kinds)], n, _trial_seed(seed, t))
        failed = not check_flat_sharp_identities(data, tol)
        flat_phi = base_fundamental(data).gram.T
        yield failed, _residual(flat_phi, data.g.gram.T @ data.J)


def _random_inducer(n, rng, symplectic=False):
    h = random_invertible(n, rng)
    s = rng.matrix(n, n)
    t = rng.matrix(n, n)
    if symplectic:
        return BlockOperator(h, s - s.T, t - t.T, -dual_map(h))
    return BlockOperator(h, s + s.T, t + t.T, dual_map(h))


def _random_signature_metric(n, seed):
    """A metric on R^n whose signature is drawn from the seed."""
    r = int(SplitMix64(seed).uniform() * (n + 1))
    return random_metric(n, r, n - r, seed + 1)


def _check_metric_char(n, trials, seed, tol):
    for t in range(trials):
        rng = SplitMix64(_trial_seed(seed, t))
        op = _random_inducer(n, rng)
        form, report = metric_from_endomorphism(op, tol)
        ok = report.valid and form.kind == SYMMETRIC
        ok = ok and close(form.gram, form.gram.T, tol)
        back = endomorphism_from_metric(form, tol).assemble()
        yield (not (ok and close(back, op.assemble(), tol)),
               _residual(back, op.assemble()))


def _check_symplectic_char(n, trials, seed, tol):
    for t in range(trials):
        rng = SplitMix64(_trial_seed(seed, t))
        op = _random_inducer(n, rng, symplectic=True)
        form, report = symplectic_from_endomorphism(op, tol)
        failed = not (report.valid and form.kind == SKEW
                      and close(form.gram, -form.gram.T, tol))
        # breaking one condition must be reported
        broken = BlockOperator(op.H, op.sigma + np.eye(n), op.tau, op.K)
        _, bad = symplectic_from_endomorphism(broken, tol)
        yield failed + bad.valid, _residual(form.gram, -form.gram.T)


_SIGNATURES = tuple((r, s) for r in range(7) for s in range(7 - r) if r + s)


def _check_signature(n, trials, seed, tol):
    for case, (r, s) in enumerate(_SIGNATURES, 1):
        g = random_metric(r + s, r, s, _trial_seed(seed, case))
        failed = signature(induced_metric(g, tol), tol) != (2 * r, 2 * s)
        yield failed, float(failed)


def _check_canonical_pair(n, trials, seed, tol):
    for m in range(1, 7):
        gm0, om0, ff0 = g0(m), omega0(m), f0(m)
        om_built = ff0.assemble().T @ gm0.gram
        cls = classify_pair(ff0, gm0, tol)
        yield ((not close(om0.gram, om_built, tol) or cls.name != PARA_HERMITIAN)
               + (signature(gm0, tol) != (m, m))), _residual(om0.gram, om_built)


def _check_jg_g0_norden(n, trials, seed, tol):
    for t in range(trials):
        g = _random_signature_metric(n, _trial_seed(seed, t))
        op = build_musical(g, -1, tol)
        cls = classify_pair(op, g0(n), tol)
        sq = op.assemble() @ op.assemble()
        yield ((cls.name, cls.alpha, cls.epsilon) != (NORDEN, -1, -1),
               _residual(sq, -np.eye(2 * n)))


def _fitting_kind(family, metric_id):
    """Base data on which a family is compatible with the metric: its default
    kind if that fits, otherwise the one kind that does."""
    row = ae_zoo.FAMILIES[family]
    fits = [k for k, c in row.classes(metric_id).items() if c != INCOMPATIBLE]
    return row.base_kind if not fits or row.base_kind in fits else fits[0]


def _iff_cells(shape, metric_id):
    """(family, kind that fits, kind that must come out Incompatible) for each
    family of the shape that the metric splits; the latter is the first such."""
    cells = []
    for family, row in ae_zoo.FAMILIES.items():
        classes = row.classes(metric_id)
        bad = [k for k, c in classes.items() if c == INCOMPATIBLE]
        if row.shape == shape and 0 < len(bad) < len(classes):
            cells.append((family, _fitting_kind(family, metric_id), bad[0]))
    return cells


def _check_iff(shape, n, trials, seed, tol):
    for metric_id in ("G0", "Gg"):
        cells = _iff_cells(shape, metric_id)
        for t in range(trials):
            for i, (fam, good_kind, bad_kind) in enumerate(cells):
                s = _trial_seed(seed, t * len(cells) + i)
                good = random_base(good_kind, n, s)
                bad = random_base(bad_kind, n, s + 1)
                for data, want_ok in ((good, True), (bad, False)):
                    op = build_family(fam, data, tol)
                    metric = g0(data.n) if metric_id == "G0" else induced_metric(data.g, tol)
                    failed = (classify_pair(op, metric, tol).name != INCOMPATIBLE) != want_ok
                    yield failed, float(failed)


def _twin_data(family, n, seed):
    op_id, metric_id = family.split("@")
    kind = _fitting_kind(op_id, metric_id)
    if kind == SYMMETRIC:
        return _random_signature_metric(n, seed)
    return random_base(kind, n, seed)


def _check_twin_metrics(n, trials, seed, tol):
    families = ae_zoo.TWIN_FORMULA_FAMILIES
    for t in range(trials):
        for i, fam in enumerate(families):
            data = _twin_data(fam, n, _trial_seed(seed, t * len(families) + i))
            failed = not twin_formula_check(fam, data, tol)
            yield failed, float(failed)


def _check_f0_commutation(n, trials, seed, tol):
    fm = f0(n).assemble()
    for t in range(trials):
        rng = SplitMix64(_trial_seed(seed, t))
        a, b = rng.matrix(n, n), rng.matrix(n, n)
        generic = BlockOperator(a, b, rng.matrix(n, n), rng.matrix(n, n))
        # sign s: the residual is |F0 M - s M F0|, none for a generic M
        for op, want, s in ((BlockOperator(a, 0, 0, b), triples.COMMUTES, 1),
                            (BlockOperator(0, a, b, 0), triples.ANTI_COMMUTES, -1),
                            (generic, triples.NEITHER_COMMUTATION, None)):
            m = op.assemble()
            res = 0.0 if s is None else _residual(fm @ m, s * (m @ fm))
            yield triples.f0_commutation(op, tol) != want, res


def _check_canonical_triples(n, trials, seed, tol):
    names = triples.TRIPLE_NAMES
    for t in range(trials):
        for i, name in enumerate(names):
            alpha = triples._TRIPLE_RECIPES[name][0]
            kind = next(k for k, row in KINDS.items() if row.alpha == alpha)
            data = random_base(kind, n, _trial_seed(seed, t * len(names) + i))
            first, second, third = triples.canonical_triple(name, data, tol)
            report = triples.classify_triple(first, second, tol)
            if report.kind == triples.NO_TRIPLE:
                # no product to compare: one failure, no residual
                yield 1, 0.0
                continue
            product, want = report.product.assemble(), third.assemble()
            yield (report.kind != triples.expected_triple_kind(name)
                   or not close(product, want, tol)), _residual(product, want)


def _check_mixed_decomposition(alpha, n, trials, seed, tol):
    kinds = [k for k, row in KINDS.items() if row.alpha == alpha and row.dim is None]
    for t in range(trials):
        data = random_base(kinds[t % len(kinds)], n, _trial_seed(seed, t))
        mixed = build_mixed(data, tol).assemble()
        musical = build_musical(data.g, -alpha, tol)
        lam = data.epsilon if alpha == -1 else -data.epsilon
        expected = np.sqrt(2.0) * musical.assemble() + build_diagonal(
            data.J, lam, tol).assemble()
        yield not close(mixed, expected, tol), _residual(mixed, expected)


def _check_combine_law(n, trials, seed, tol):
    for t in range(trials):
        rng = SplitMix64(_trial_seed(seed, t))
        data = random_base(HERMITIAN, n, _trial_seed(seed, t) + 1)
        triple = triples.canonical_triple("biparaC", data, tol)
        a, b, c = (2.0 * rng.symmetric_uniform() for _ in range(3))
        combo, _ = triples.combine(a, b, c, triple, tol)
        m = combo.assemble()
        expected = (a * a + b * b - c * c) * np.eye(2 * data.n)
        res = _residual(m @ m, expected)
        # roundoff in m @ m scales with |m|^2, not with the possibly tiny
        # right-hand side, so compare at that scale
        scale = max(1.0, float(np.linalg.norm(m)) ** 2)
        yield not tol._admits(res, 1, scale), res


def _check_kahler_example(n, trials, seed, tol):
    for t in range(trials):
        data = random_base(HERMITIAN, n, _trial_seed(seed, t))
        phi = base_fundamental(data)
        j_phi = build_musical(phi, -1, tol)
        j_minus = build_diagonal(data.J, -1, tol)
        j_plus = build_diagonal(data.J, +1, tol)
        for j, want in ((j_phi, True), (j_plus, False)):
            failed = triples.is_almost_kahler(j, j_minus, tol)[0] != want
            yield failed, float(failed)


_RECOVERY_FLOOR = Tolerance(1e-8, 1e-8)  # T5 recovers through shears and inverses


def _check_kahler_roundtrip(n, trials, seed, tol):
    eff = Tolerance(max(tol.abs, _RECOVERY_FLOOR.abs), max(tol.rel, _RECOVERY_FLOOR.rel))
    for t in range(trials):
        kd = random_kahler_data(fixture_dim(n), _trial_seed(seed, t))
        failed = not triples.kahler_roundtrip(kd, eff)
        yield failed, float(failed)


def _check_base_extraction(n, trials, seed, tol):
    for t in range(trials):
        s = _trial_seed(seed, t)
        om = random_base(SKEW, n, s)
        data = random_base(HERMITIAN, n, s + 1)
        for op in (build_musical(om, -1, tol),
                   build_diagonal(data.J, -1, tol)):
            j = extract_base_complex(op, tol)
            res = _residual(j @ j, -np.eye(om.n))
            yield not _RECOVERY_FLOOR._admits(res, 1, 0), res


_REGISTRY = {
    "P2.flat-sharp": (
        "flat/sharp identities between g and its fundamental tensor",
        _check_flat_sharp),
    "P3.metric-char": (
        "valid inducers give symmetric nondegenerate metrics; inversion",
        _check_metric_char),
    "P3.symplectic-char": (
        "skew inducers give symplectic forms; violations reported",
        _check_symplectic_char),
    "P3.signature": (
        "induced metric of a (r, s) base metric has signature (2r, 2s)",
        _check_signature),
    "P4.canonical-pair": (
        "Omega0 = G0(F0 ., .); (F0, G0) is para-Hermitian of signature (n, n)",
        _check_canonical_pair),
    "P4.Jg-G0-norden": (
        "the musical almost complex structure of g is Norden for G0",
        _check_jg_g0_norden),
    "P4.triangular-iff": (
        "triangular families are G0-compatible exactly for one epsilon sign",
        partial(_check_iff, ae_zoo.TRIANGULAR)),
    "P4.mixed-iff": (
        "mixed families are compatible exactly for one epsilon sign",
        partial(_check_iff, ae_zoo.MIXED)),
    "P4.twin-metrics": (
        "all closed twin-metric/fundamental-form formulas match",
        _check_twin_metrics),
    "P5.f0-commutation": (
        "block criterion for (anti-)commutation with the canonical flip",
        _check_f0_commutation),
    "P5.canonical-triples": (
        "the eight named triples classify to their kinds with exact products",
        _check_canonical_triples),
    "P5.triple-MJG": (
        "mixed structure from alpha = -1 data splits as sqrt2 Fg + diag(J)",
        partial(_check_mixed_decomposition, -1)),
    "P5.triple-MFG": (
        "mixed structure from alpha = +1 data splits as sqrt2 Jg + diag(F)",
        partial(_check_mixed_decomposition, +1)),
    "P5.combine-law": (
        "(a F + b F' + c J)^2 = (a^2 + b^2 - c^2) Id on anti-commuting triples",
        _check_combine_law),
    "P5.kahler-example": (
        "(J_phi, diag(J, -1)) is almost Kahler; (diag +1, diag -1) is not",
        _check_kahler_example),
    "T5.kahler-roundtrip": (
        "building from (b, g, J1, J2) and inverting recovers the data",
        _check_kahler_roundtrip),
    "T5.base-extraction": (
        "extracted base operator squares to -Id for musical and diagonal input",
        _check_base_extraction),
}

REGISTRY_IDS = tuple(_REGISTRY)


def describe(prop_id: str) -> str:
    return _REGISTRY[prop_id][0]


def run_check(prop_id: str, n: int = 3, trials: int = 100, seed: int = 42,
              tol: Tolerance = DEFAULT_TOL) -> VerifyReport:
    """Run one registered proposition check over a seeded batch.

    The one reduction of a check's cases: it counts them, adds up their
    failures and keeps the largest residual.
    """
    if prop_id not in _REGISTRY:
        raise UnknownFamilyError(
            f"unknown proposition id {prop_id!r}; known: {REGISTRY_IDS}")
    _, check = _REGISTRY[prop_id]
    start = time.perf_counter()
    cases = failures = 0
    max_res = 0.0
    for case_failures, res in check(n, trials, seed, tol):
        cases += 1
        failures += case_failures
        max_res = max(max_res, res)
    elapsed = time.perf_counter() - start
    return VerifyReport(prop_id, cases, failures, max_res, elapsed)


def run_all(n: int = 3, trials: int = 100, seed: int = 42,
            tol: Tolerance = DEFAULT_TOL):
    return [run_check(pid, n, trials, seed, tol) for pid in REGISTRY_IDS]
