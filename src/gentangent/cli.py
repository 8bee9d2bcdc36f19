"""Command-line front end: classify JSON-described structures, verify
registered propositions over seeded batches, build named families, and dump
fixture files.

Input schema (matrices row-major, numbers as decimal doubles)::

    {"n": int,
     "operator":  {"H": [[...]], "sigma": [[...]], "tau": [[...]], "K": [[...]]},
     "operator2": {... same keys, for triple classification ...},
     "metric":    {"gram": [[...]], "kind": "symmetric" (optional)},
     "family":    "<family id>",
     "base":      {"omega": [[...]]} or {"g": [[...]], "J": [[...]] (optional)}}

``classify`` reads n, then operator or family + base (an operator beside
them, as ``build`` writes it, must match the built one), then operator2 or
metric; ``build --input`` reads n and base, and excludes --dim and --seed.
At top level both accept unread the keys of ``UNREAD``, which ``fixtures``
and ``classify`` write beside what they read, so that every document the CLI
writes reads back; ``build --input`` also the family, operator and metric
beside a base.  Any other key exits 2, as does base data without a family
id in ``classify``.  A base (J, g) takes alpha and epsilon from
``core._square_sign`` and ``core._isometry_sign``, and exits 2 where either
is None, as for a zero g.

``build`` writes n, family, base and operator (``_build_doc``).  Each file of
``fixtures`` is such a document with its seed after n: the complex musical
family of a metric and of a symplectic form, the Flat family of each kind's
(J, g) data plus a G0 ``metric``, and the Flat family of Kähler (g, J1) plus
``kahler``, holding b and J2.

Exit codes: 0 success, 1 verification failure, 2 usage or validation error,
141 stdout closed by its reader (as a shell reports a writer killed by SIGPIPE).
``--format`` (table or json) is an option of ``classify`` and ``verify``;
``build`` prints JSON.  ``--tol`` is an option of ``classify``, ``verify`` and
``build``, and ``GENTANGENT_TOL`` overrides their default tolerance;
``fixtures`` always builds at the default.

argv is parsed before anything beyond the standard library is imported, and
each command imports only the modules it uses, so ``--help`` and usage errors
never load numpy.
"""

import argparse
import atexit
import gc
import itertools
import json
import os
import sys

from .errors import GentangentError

# atexit handlers run before the final GC passes: freezing spares those passes
# the ~22,000 objects that die with the process.  Flushes still run.
atexit.register(gc.freeze)


def __getattr__(name):
    # cli.build_family is no longer bound at import, but perfbench's tracer
    # self-test reads it: resolve it to ae_zoo's current function
    if name == "build_family":
        from .ae_zoo import build_family

        return build_family
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class InputError(Exception):
    """Schema or validation problem in a CLI input document; exits 2."""


# Top-level keys accepted and never read: ``fixtures`` writes seed and kahler
# beside a family document, and ``classify`` the rest, so that both read back.
UNREAD = ("seed", "kahler", "class", "alpha", "epsilon", "signature", "fundamental", "inducer", "triple")
BLOCKS = ("H", "sigma", "tau", "K")


def _read_keys(doc, context, read, unread=()):
    """doc, if it is an object whose every key its reader reads or accepts unread;
    ``read`` names the keys read, or picks them from doc where it is a function."""
    if not isinstance(doc, dict):
        raise InputError(f"{context}: expected an object")
    read = read(doc) if callable(read) else read
    for key in doc:
        if key not in read and key not in unread:
            raise InputError(f"{context}: unexpected key {key!r} (reads {', '.join(read)})")
    return doc


def _tolerance(args):
    from .core import DEFAULT_TOL, Tolerance

    env = os.environ.get("GENTANGENT_TOL")
    try:
        value = None if env is None else float(env)
    except ValueError:
        raise InputError(f"GENTANGENT_TOL is not a number: {env!r}")
    if getattr(args, "tol", None) is not None:
        value = args.tol
    return DEFAULT_TOL if value is None else Tolerance(value)


def _matrix(doc, key, n, context):
    import numpy as np

    if key not in doc or doc[key] is None:
        raise InputError(f"{context}: missing matrix {key!r}")
    try:
        m = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{context}: matrix {key!r} is not numeric")
    except OverflowError:
        raise InputError(f"{context}: matrix {key!r} has an entry too large for a double")
    if m.ndim != 2 or m.shape != (n, n) or m.size == 0:
        raise InputError(
            f"{context}: matrix {key!r} must be {n}x{n}, got shape {m.shape}")
    # numpy would also read "1e0" and true as numbers; JSON entries must be
    # ints or floats, by exact type (bool is an int subclass)
    if not set(map(type, itertools.chain.from_iterable(doc[key]))) <= {int, float}:
        raise InputError(f"{context}: matrix {key!r} has an entry that is not a number")
    if not np.isfinite(m).all():
        raise InputError(f"{context}: matrix {key!r} has a NaN or infinite entry")
    return m


def _read_n(doc):
    n = doc.get("n")
    # bool is an int subclass, but true is not a dimension
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError(
            f"top level: n must be a positive integer, got {json.dumps(n)}")
    return n


def _read_operator(doc, n, context="operator"):
    from .core import BlockOperator

    _read_keys(doc, context, BLOCKS)
    return BlockOperator(*(_matrix(doc, key, n, context) for key in BLOCKS))


def _of_kind(gram, kind, tol, what):
    """gram, checked by ``close(gram, +-gram.T, tol)`` if symmetric or skew."""
    from .core import SKEW, SYMMETRIC, close

    sign = {SYMMETRIC: +1, SKEW: -1}.get(kind)
    if sign is not None and not close(gram, sign * gram.T, tol):
        raise InputError(f"{what} is not {kind}")
    return gram


def _read_metric(doc, n, tol):
    from .core import GENERAL, SKEW, SYMMETRIC, BilinearForm

    gram = _matrix(_read_keys(doc, "metric", ("gram", "kind")), "gram", 2 * n, "metric")
    kind = doc.get("kind", SYMMETRIC)
    # a tuple test, not a dict lookup: a JSON list or object is unhashable
    if kind not in (SYMMETRIC, SKEW, GENERAL):
        raise InputError(f"metric: unknown kind {kind!r}")
    return BilinearForm(_of_kind(gram, kind, tol, f"metric: gram declared {kind}"), kind)


def _read_base(doc, n, tol):
    """(J, g) pair, lone metric, or lone symplectic form from a base block."""
    from .ae_zoo import AeManifoldData
    from .core import SKEW, SYMMETRIC, BaseForm, _isometry_sign, _square_sign

    if "omega" in _read_keys(doc, "base", lambda d: ("omega",) if "omega" in d else ("g", "J")):
        return BaseForm(_of_kind(_matrix(doc, "omega", n, "base"), SKEW, tol, "base: omega"), SKEW)
    g = BaseForm(_of_kind(_matrix(doc, "g", n, "base"), SYMMETRIC, tol, "base: g"), SYMMETRIC)
    if "J" not in doc:
        return g
    j = _matrix(doc, "J", n, "base")
    alpha, epsilon = _square_sign(j, tol), _isometry_sign(j, g.gram, tol)
    if alpha is None or epsilon is None:
        raise InputError("base: (J, g) is not an (alpha, epsilon) pair")
    return AeManifoldData(j, g, alpha, epsilon)


def _operator_doc(op) -> dict:
    return {key: getattr(op, key).tolist() for key in BLOCKS}


def _metric_doc(metric) -> dict:
    return {"gram": metric.gram.tolist(), "kind": metric.kind}


def _resolve_operator(doc, n, tol):
    from .ae_zoo import FAMILY_IDS, build_family
    from .core import close

    if "family" not in doc:
        if "base" in doc:
            raise InputError("base data needs a family id")
        if "operator" not in doc:
            raise InputError("document has neither operator blocks nor a family id")
        return _read_operator(doc["operator"], n)
    if "base" not in doc:
        raise InputError("a family id needs base data")
    family = doc["family"]
    if family not in FAMILY_IDS:
        raise InputError(
            f"unknown family {family!r}; known: {', '.join(FAMILY_IDS)}")
    built = build_family(family, _read_base(doc["base"], n, tol), tol)
    if "operator" not in doc:
        return built
    op = _read_operator(doc["operator"], n)
    if not close(op.matrix, built.matrix, tol):
        raise InputError(f"operator and family {family!r} built from base disagree")
    return op


def _classify(doc, tol):
    from .ae_zoo import INCOMPATIBLE, classify_pair, fundamental_tensor
    from .gen_metrics import metric_from_endomorphism, symplectic_from_endomorphism

    _read_keys(doc, "top level", lambda d: (
        "n", *(("family", "base", "operator") if {"family", "base"} & d.keys() else ("operator",)),
        "operator2" if "operator2" in d else "metric"), UNREAD)
    n = _read_n(doc)
    op = _resolve_operator(doc, n, tol)
    out = {"n": n, "operator": _operator_doc(op)}
    if "operator2" in doc:
        from .triples import classify_triple

        second = _read_operator(doc["operator2"], n, "operator2")
        report = classify_triple(op, second, tol)
        out["operator2"] = _operator_doc(second)
        out["triple"] = {
            "kind": report.kind,
            "commutation": report.commutation_sign,
            "product": (None if report.product is None
                        else _operator_doc(report.product)),
        }
        return out
    if "metric" in doc:
        metric = _read_metric(doc["metric"], n, tol)
        out["metric"] = _metric_doc(metric)
        cls = classify_pair(op, metric, tol)
        out["class"] = cls.name
        if cls.name != INCOMPATIBLE:
            out["alpha"] = cls.alpha
            out["epsilon"] = cls.epsilon
            out["signature"] = list(cls.signature)
            out["fundamental"] = fundamental_tensor(op, metric, tol).kind
        return out
    _, metric_report = metric_from_endomorphism(op, tol)
    _, symplectic_report = symplectic_from_endomorphism(op, tol)
    out["inducer"] = {
        "metric_valid": metric_report.valid,
        "metric_violations": list(metric_report.violations),
        "symplectic_valid": symplectic_report.valid,
        "symplectic_violations": list(symplectic_report.violations),
    }
    return out


def _classify_table(out):
    from .ae_zoo import INCOMPATIBLE

    lines = []
    if "triple" in out:
        lines.append(f"triple kind    {out['triple']['kind']}")
        lines.append(f"commutation    {out['triple']['commutation']}")
    elif "class" in out:
        lines.append(f"class          {out['class']}")
        if out["class"] != INCOMPATIBLE:
            lines.append(f"alpha          {out['alpha']:+d}")
            lines.append(f"epsilon        {out['epsilon']:+d}")
            sig = out["signature"]
            lines.append(f"signature      ({sig[0]}, {sig[1]})")
            lines.append(f"fundamental    {out['fundamental']}")
    else:
        ind = out["inducer"]
        lines.append(f"metric inducer      "
                     f"{'valid' if ind['metric_valid'] else 'invalid: ' + ', '.join(ind['metric_violations'])}")
        lines.append(f"symplectic inducer  "
                     f"{'valid' if ind['symplectic_valid'] else 'invalid: ' + ', '.join(ind['symplectic_violations'])}")
    return "\n".join(lines)


def _load_json(path):
    try:
        if path in (None, "-"):
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(str(exc))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise InputError("malformed JSON: arrays or objects nested too deeply")


def cmd_classify(args) -> int:
    tol = _tolerance(args)
    out = _classify(_load_json(args.input), tol)
    if args.format == "json":
        print(json.dumps(out))
    else:
        print(_classify_table(out))
        print(json.dumps(out))
    return 0


def cmd_verify(args) -> int:
    from . import registry

    tol = _tolerance(args)
    ids = registry.REGISTRY_IDS if args.id == "all" else (args.id,)
    for pid in ids:
        if pid not in registry.REGISTRY_IDS:
            print(f"unknown proposition id {pid!r}; registry:", file=sys.stderr)
            for known in registry.REGISTRY_IDS:
                print(f"  {known:24s} {registry.describe(known)}",
                      file=sys.stderr)
            return 2
    reports = []
    for pid in ids:
        try:
            reports.append(registry.run_check(pid, args.dim, args.trials, args.seed, tol))
        except (GentangentError, ValueError) as exc:
            print(f"error: {pid}: {exc}", file=sys.stderr)
            return 2
    if args.format == "json":
        print(json.dumps([
            {"id": r.id, "trials": r.trials, "failures": r.failures,
             "max_residual": r.max_residual, "elapsed": r.elapsed,
             "passed": r.passed} for r in reports]))
    else:
        print(f"{'id':26s} {'trials':>7s} {'failures':>9s} "
              f"{'max residual':>13s} {'time':>7s}  status")
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            print(f"{r.id:26s} {r.trials:7d} {r.failures:9d} "
                  f"{r.max_residual:13.3e} {r.elapsed:6.2f}s  {status}")
    return 0 if all(r.passed for r in reports) else 1


def _base_doc(base) -> dict:
    from .ae_zoo import AeManifoldData
    from .core import SKEW

    if isinstance(base, AeManifoldData):
        return {"g": base.g.gram.tolist(), "J": base.J.tolist()}
    return {"omega" if base.kind == SKEW else "g": base.gram.tolist()}


def _build_doc(family, base, tol) -> dict:
    """n, the family id, the base data and the operator built from them."""
    from .ae_zoo import build_family

    op = build_family(family, base, tol)
    return {"n": op.n, "family": family, "base": _base_doc(base), "operator": _operator_doc(op)}


def cmd_build(args) -> int:
    from .ae_zoo import FAMILIES, FAMILY_IDS

    tol = _tolerance(args)
    if args.family not in FAMILY_IDS:
        print(f"unknown family {args.family!r}; known: {', '.join(FAMILY_IDS)}",
              file=sys.stderr)
        return 2
    if args.input is not None:
        if args.dim is not None or args.seed is not None:
            raise InputError("--input excludes --dim and --seed")
        doc = _read_keys(_load_json(args.input), "top level", ("n", "base"),
                         (*UNREAD, "family", "operator", "metric"))
        if "base" not in doc:
            raise InputError("build input needs a base block")
        base = _read_base(doc["base"], _read_n(doc), tol)
    else:
        from .generators import random_base

        base = random_base(FAMILIES[args.family].base_kind, args.dim or 3,
                           42 if args.seed is None else args.seed)
    print(json.dumps(_build_doc(args.family, base, tol)))
    return 0


def cmd_fixtures(args) -> int:
    from .ae_zoo import FAMILIES, FLAT, HERMITIAN, KINDS, AeManifoldData
    from .canonical import g0
    from .core import DEFAULT_TOL, SKEW, SYMMETRIC
    from .generators import fixture_dim, random_base, random_kahler_data

    def doc(family, base, **rest):
        return {"n": base.n, "seed": args.seed, **_build_doc(family, base, DEFAULT_TOL), **rest}

    # only musical families take a lone form, the complex one at param -1; Flat, per alpha
    musical = {row.base_kind: f for f, row in FAMILIES.items() if row.param == -1}
    flat = {row.alpha: f for f, row in FAMILIES.items() if row.param == FLAT}
    docs = {name: doc(musical[kind], random_base(kind, args.dim, args.seed))
            for name, kind in (("metric", SYMMETRIC), ("symplectic", SKEW))}
    for kind in KINDS:
        data = random_base(kind, args.dim, args.seed)
        docs[f"ae-{kind.lower()}"] = doc(flat[data.alpha], data, metric=_metric_doc(g0(data.n)))
    kd = random_kahler_data(fixture_dim(args.dim), args.seed)
    data = AeManifoldData(kd.J1, kd.g, *KINDS[HERMITIAN][:2])  # g SPD, J1 g-isometric complex
    docs["kahler"] = doc(flat[data.alpha], data, kahler={"b": kd.b.tolist(), "J2": kd.J2.tolist()})
    try:
        os.makedirs(args.out, exist_ok=True)
        for name, written in docs.items():
            path = os.path.join(args.out, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(written, fh)
            print(path)
    except OSError as exc:
        raise InputError(f"--out {args.out!r}: {exc.strerror or exc}")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gentangent",
        description="Classify, verify and build structures on the fiber V + V*.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=True):
        p.add_argument("--tol", type=float, default=None,
                       help="absolute and relative tolerance (default 1e-9)")
        if formats:
            p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("classify", help="classify a JSON-described structure")
    p.add_argument("input", nargs="?", default=None,
                   help="input file ('-' or omitted: stdin)")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run a registered proposition check")
    p.add_argument("id", help="proposition id, or 'all'")
    p.add_argument("--dim", type=_positive_int, default=3)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=42)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("build", help="build a named family and emit JSON")
    p.add_argument("family")
    p.add_argument("--input", default=None,
                   help="JSON with base data ('-' for stdin); default: seeded random base")
    p.add_argument("--dim", type=_positive_int, default=None, help="default 3")
    p.add_argument("--seed", type=int, default=None, help="default 42")
    common(p, formats=False)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("fixtures", help="dump seeded generator fixtures")
    p.add_argument("--dim", type=_positive_int, default=3)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="fixtures")
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, GentangentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone: send what is still buffered, and the flush at
        # exit, to devnull instead of a second BrokenPipeError
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
