"""Named proposition checks, each runnable over seeded batches.

Every entry maps a stable string id to a check function with signature
``check(n, trials, seed, tol) -> (trials_run, failures, max_residual)``.
A check draws its own fixtures from seeded generators, so a (dim, trials,
seed, tol) quadruple pins the run down completely.  Checks that need even
or divisible dimensions round the requested dimension up; checks over a
finite case table ignore ``trials`` and report the table size instead.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import ae_zoo, triples
from .ae_zoo import (
    FAMILY_BASE_KIND,
    HERMITIAN,
    INCOMPATIBLE,
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
    random_ae_pair,
    random_invertible,
    random_kahler_data,
    random_metric,
    random_symplectic,
)


@dataclass(frozen=True)
class VerifyReport:
    id: str
    trials: int
    failures: int
    max_residual: float
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _even(n: int) -> int:
    return n if n % 2 == 0 else n + 1


def _residual(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def _trial_seed(seed: int, trial: int) -> int:
    return seed * 100003 + trial


def _check_flat_sharp(n, trials, seed, tol):
    kinds = ("Hermitian", "Norden", "ParaHermitian", "ProductRiemannian",
             "IndefiniteHermitian")
    failures = 0
    max_res = 0.0
    for t in range(trials):
        kind = kinds[t % len(kinds)]
        m = 4 if kind == "IndefiniteHermitian" else _even(n)
        data = random_ae_pair(kind, m, _trial_seed(seed, t))
        if not check_flat_sharp_identities(data, tol):
            failures += 1
        flat_g = data.g.gram.T
        flat_phi = base_fundamental(data).gram.T
        max_res = max(max_res, _residual(flat_phi, flat_g @ data.J))
    return trials, failures, max_res


def _random_inducer(n, rng, symplectic=False):
    h = random_invertible(n, rng)
    s = rng.matrix(n, n)
    t = rng.matrix(n, n)
    if symplectic:
        return BlockOperator(h, s - s.T, t - t.T, -dual_map(h))
    return BlockOperator(h, s + s.T, t + t.T, dual_map(h))


def _check_metric_char(n, trials, seed, tol):
    failures = 0
    max_res = 0.0
    for t in range(trials):
        rng = SplitMix64(_trial_seed(seed, t))
        op = _random_inducer(n, rng)
        form, report = metric_from_endomorphism(op, tol)
        ok = report.valid and form.kind == SYMMETRIC
        ok = ok and close(form.gram, form.gram.T, tol)
        back = endomorphism_from_metric(form, tol)
        res = _residual(back.assemble(), op.assemble())
        max_res = max(max_res, res)
        if not (ok and close(back.assemble(), op.assemble(), tol)):
            failures += 1
    return trials, failures, max_res


def _check_symplectic_char(n, trials, seed, tol):
    failures = 0
    max_res = 0.0
    for t in range(trials):
        rng = SplitMix64(_trial_seed(seed, t))
        op = _random_inducer(n, rng, symplectic=True)
        form, report = symplectic_from_endomorphism(op, tol)
        res = _residual(form.gram, -form.gram.T)
        max_res = max(max_res, res)
        if not (report.valid and form.kind == SKEW
                and close(form.gram, -form.gram.T, tol)):
            failures += 1
        # breaking one condition must be reported
        broken = BlockOperator(op.H, op.sigma + np.eye(n), op.tau, op.K)
        _, bad = symplectic_from_endomorphism(broken, tol)
        if bad.valid:
            failures += 1
    return trials, failures, max_res


def _check_signature(n, trials, seed, tol):
    cases = failures = 0
    max_res = 0.0
    for r in range(0, 7):
        for s in range(0, 7 - r):
            if r + s == 0:
                continue
            cases += 1
            g = random_metric(r + s, r, s, _trial_seed(seed, cases))
            got = signature(induced_metric(g, tol), tol)
            if got != (2 * r, 2 * s):
                failures += 1
                max_res = max(max_res, 1.0)
    return cases, failures, max_res


def _check_canonical_pair(n, trials, seed, tol):
    cases = failures = 0
    max_res = 0.0
    for m in range(1, 7):
        cases += 1
        gm0, om0, ff0 = g0(m), omega0(m), f0(m)
        res = _residual(om0.gram, ff0.assemble().T @ gm0.gram)
        max_res = max(max_res, res)
        cls = classify_pair(ff0, gm0, tol)
        if res > tol.abs + tol.rel or cls.name != PARA_HERMITIAN:
            failures += 1
        if signature(gm0, tol) != (m, m):
            failures += 1
    return cases, failures, max_res


def _check_jg_g0_norden(n, trials, seed, tol):
    failures = 0
    max_res = 0.0
    for t in range(trials):
        rng = SplitMix64(_trial_seed(seed, t))
        r = int(rng.uniform() * (n + 1))
        g = random_metric(n, r, n - r, _trial_seed(seed, t) + 1)
        op = build_family("Jg", g, tol)
        cls = classify_pair(op, g0(n), tol)
        sq = op.assemble() @ op.assemble()
        max_res = max(max_res, _residual(sq, -np.eye(2 * n)))
        if cls.name != NORDEN or cls.alpha != -1 or cls.epsilon != -1:
            failures += 1
    return trials, failures, max_res


# Compatibility tables: family id -> (data kind that fits, data kind that
# must come out Incompatible), against the canonical metric G0 or against
# the induced metric Gg of the base data.
_TRIANGULAR_CELLS = (
    ("JJgFlat", "Hermitian", "Norden"),
    ("JJgSharp", "Hermitian", "Norden"),
    ("FFgFlat", "ParaHermitian", "ProductRiemannian"),
    ("FFgSharp", "ParaHermitian", "ProductRiemannian"),
)

_MIXED_CELLS_G0 = (
    ("FJg", "Hermitian", "Norden"),
    ("JFg", "ParaHermitian", "ProductRiemannian"),
)

_MIXED_CELLS_GG = (
    ("FJg", "Norden", "Hermitian"),
    ("JFg", "ParaHermitian", "ProductRiemannian"),
)


def _iff_failures(cells, against_g0, n, trials, seed, tol):
    failures = 0
    for t in range(trials):
        for i, (fam, good_kind, bad_kind) in enumerate(cells):
            s = _trial_seed(seed, t * len(cells) + i)
            good = random_ae_pair(good_kind, _even(n), s)
            bad = random_ae_pair(bad_kind, _even(n), s + 1)
            for data, want_ok in ((good, True), (bad, False)):
                op = build_family(fam, data, tol)
                metric = g0(data.n) if against_g0 else induced_metric(data.g, tol)
                cls = classify_pair(op, metric, tol)
                if (cls.name != INCOMPATIBLE) != want_ok:
                    failures += 1
    return failures


def _check_triangular_iff(n, trials, seed, tol):
    failures = _iff_failures(_TRIANGULAR_CELLS, True, n, trials, seed, tol)
    return trials * len(_TRIANGULAR_CELLS) * 2, failures, float(failures > 0)


def _check_mixed_iff(n, trials, seed, tol):
    failures = _iff_failures(_MIXED_CELLS_G0, True, n, trials, seed, tol)
    failures += _iff_failures(_MIXED_CELLS_GG, False, n, trials, seed, tol)
    cases = trials * (len(_MIXED_CELLS_G0) + len(_MIXED_CELLS_GG)) * 2
    return cases, failures, float(failures > 0)


# Base data that satisfies each closed twin formula: the family's default
# base data, except that FJg needs Norden data against Gg.
_TWIN_DATA_KIND_G0 = dict(FAMILY_BASE_KIND, Jphi=HERMITIAN, Fphi=PARA_HERMITIAN)
_TWIN_DATA_KIND_GG = dict(_TWIN_DATA_KIND_G0, FJg=NORDEN)


def _twin_data(family, n, seed, tol):
    op_id, metric_id = family.split("@")
    table = _TWIN_DATA_KIND_G0 if metric_id == "G0" else _TWIN_DATA_KIND_GG
    kind = table[op_id]
    if kind == "metric":
        rng = SplitMix64(seed)
        r = int(rng.uniform() * (n + 1))
        return random_metric(n, r, n - r, seed + 1)
    if kind == "symplectic":
        return random_symplectic(_even(n), seed)
    return random_ae_pair(kind, _even(n), seed)


def _check_twin_metrics(n, trials, seed, tol):
    failures = 0
    families = ae_zoo.TWIN_FORMULA_FAMILIES
    for t in range(trials):
        for i, fam in enumerate(families):
            data = _twin_data(fam, n, _trial_seed(seed, t * len(families) + i), tol)
            if not twin_formula_check(fam, data, tol):
                failures += 1
    return trials * len(families), failures, float(failures > 0)


def _check_f0_commutation(n, trials, seed, tol):
    failures = 0
    max_res = 0.0
    for t in range(trials):
        rng = SplitMix64(_trial_seed(seed, t))
        zero = np.zeros((n, n))
        a, b = rng.matrix(n, n), rng.matrix(n, n)
        commuting = BlockOperator(a, zero, zero, b)
        anti = BlockOperator(zero, a, b, zero)
        generic = BlockOperator(a, b, rng.matrix(n, n), rng.matrix(n, n))
        fm = f0(n).assemble()
        for op, want in ((commuting, triples.COMMUTES),
                         (anti, triples.ANTI_COMMUTES),
                         (generic, triples.NEITHER_COMMUTATION)):
            got = triples.f0_commutation(op, tol)
            m = op.assemble()
            res = (np.linalg.norm(fm @ m - m @ fm) if want == triples.COMMUTES
                   else np.linalg.norm(fm @ m + m @ fm)
                   if want == triples.ANTI_COMMUTES else 0.0)
            max_res = max(max_res, float(res))
            if got != want:
                failures += 1
    return trials * 3, failures, max_res


def _triple_data_kind(name):
    return "Hermitian" if triples._TRIPLE_RECIPES[name][0] == -1 else "ParaHermitian"


def _check_canonical_triples(n, trials, seed, tol):
    failures = 0
    max_res = 0.0
    names = triples.TRIPLE_NAMES
    for t in range(trials):
        for i, name in enumerate(names):
            data = random_ae_pair(_triple_data_kind(name), _even(n),
                                  _trial_seed(seed, t * len(names) + i))
            first, second, third = triples.canonical_triple(name, data, tol)
            report = triples.classify_triple(first, second, tol)
            product = report.product.assemble()
            res = _residual(product, third.assemble())
            max_res = max(max_res, res)
            if report.kind != triples.expected_triple_kind(name):
                failures += 1
            elif not close(product, third.assemble(), tol):
                failures += 1
    return trials * len(names), failures, max_res


def _check_mixed_decomposition(alpha, n, trials, seed, tol):
    kinds = ("Hermitian", "Norden") if alpha == -1 else (
        "ParaHermitian", "ProductRiemannian")
    failures = 0
    max_res = 0.0
    for t in range(trials):
        data = random_ae_pair(kinds[t % 2], _even(n), _trial_seed(seed, t))
        mixed = build_mixed(data, tol).assemble()
        musical = build_family("Fg" if alpha == -1 else "Jg", data.g, tol)
        lam = data.epsilon if alpha == -1 else -data.epsilon
        expected = np.sqrt(2.0) * musical.assemble() + build_diagonal(
            data.J, lam, tol).assemble()
        res = _residual(mixed, expected)
        max_res = max(max_res, res)
        if not close(mixed, expected, tol):
            failures += 1
    return trials, failures, max_res


def _check_triple_mjg(n, trials, seed, tol):
    return _check_mixed_decomposition(-1, n, trials, seed, tol)


def _check_triple_mfg(n, trials, seed, tol):
    return _check_mixed_decomposition(+1, n, trials, seed, tol)


def _check_combine_law(n, trials, seed, tol):
    failures = 0
    max_res = 0.0
    for t in range(trials):
        rng = SplitMix64(_trial_seed(seed, t))
        data = random_ae_pair("Hermitian", _even(n), _trial_seed(seed, t) + 1)
        triple = triples.canonical_triple("biparaC", data, tol)
        a, b, c = (2.0 * rng.symmetric_uniform() for _ in range(3))
        combo, _ = triples.combine(a, b, c, triple, tol)
        m = combo.assemble()
        expected = (a * a + b * b - c * c) * np.eye(2 * data.n)
        res = _residual(m @ m, expected)
        max_res = max(max_res, res)
        # roundoff in m @ m scales with |m|^2, not with the possibly tiny
        # right-hand side, so compare at that scale
        scale = max(1.0, float(np.linalg.norm(m)) ** 2)
        if res > tol.abs + tol.rel * scale:
            failures += 1
    return trials, failures, max_res


def _check_kahler_example(n, trials, seed, tol):
    failures = 0
    for t in range(trials):
        data = random_ae_pair("Hermitian", _even(n), _trial_seed(seed, t))
        phi = base_fundamental(data)
        j_phi = build_musical(phi, -1, tol)
        j_minus = build_diagonal(data.J, -1, tol)
        j_plus = build_diagonal(data.J, +1, tol)
        if not triples.is_almost_kahler(j_phi, j_minus, tol)[0]:
            failures += 1
        if triples.is_almost_kahler(j_plus, j_minus, tol)[0]:
            failures += 1
    return trials * 2, failures, float(failures > 0)


def _check_kahler_roundtrip(n, trials, seed, tol):
    # the recovery threads through shears and matrix inverses, so the
    # per-entry tolerance floors at 1e-8
    eff = Tolerance(max(tol.abs, 1e-8), max(tol.rel, 1e-8))
    failures = 0
    for t in range(trials):
        kd = random_kahler_data(_even(n), _trial_seed(seed, t))
        if not triples.kahler_roundtrip(kd, eff):
            failures += 1
    return trials, failures, float(failures > 0)


def _check_base_extraction(n, trials, seed, tol):
    failures = 0
    max_res = 0.0
    m = _even(n)
    ident = np.eye(m)
    for t in range(trials):
        s = _trial_seed(seed, t)
        om = random_symplectic(m, s)
        data = random_ae_pair("Hermitian", m, s + 1)
        for op in (build_family("Jom", om, tol),
                   build_diagonal(data.J, -1, tol)):
            j = extract_base_complex(op, tol)
            res = _residual(j @ j, -ident)
            max_res = max(max_res, res)
            if res > 1e-8:
                failures += 1
    return trials * 2, failures, max_res


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
        _check_triangular_iff),
    "P4.mixed-iff": (
        "mixed families are compatible exactly for one epsilon sign",
        _check_mixed_iff),
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
        _check_triple_mjg),
    "P5.triple-MFG": (
        "mixed structure from alpha = +1 data splits as sqrt2 Jg + diag(F)",
        _check_triple_mfg),
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
    """Run one registered proposition check over a seeded batch."""
    if prop_id not in _REGISTRY:
        raise UnknownFamilyError(
            f"unknown proposition id {prop_id!r}; known: {REGISTRY_IDS}")
    _, check = _REGISTRY[prop_id]
    start = time.perf_counter()
    trials_run, failures, max_res = check(n, trials, seed, tol)
    elapsed = time.perf_counter() - start
    return VerifyReport(prop_id, trials_run, failures, max_res, elapsed)


def run_all(n: int = 3, trials: int = 100, seed: int = 42,
            tol: Tolerance = DEFAULT_TOL):
    return [run_check(pid, n, trials, seed, tol) for pid in REGISTRY_IDS]
