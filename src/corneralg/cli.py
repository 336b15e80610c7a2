"""Command-line front end: generate, check, classify, and inspect algebras.

Exit codes: 0 success or compressible, 1 not-compressible verdict, 2 input
error, 3 numerical or consistency failure, 141 (128 + SIGPIPE) when the
reader of stdout closes it early, as `| head` does. Reports go to stdout,
diagnostics to stderr. The environment variable CORNERALG_TOL overrides
rel_eps for the whole invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .checker import CheckReport, check_compressible
from .classifier import ClassifierInconsistencyError, Verdict, classify
from .families import FAMILY_TAGS, make_family, random_instance
from .io import AlgebraFileError, matrix_to_pairs, read_algebra, write_algebra
from .matcore import DEFAULT_TOL, NumericalFailureError, Tolerance
from .structure import WedderburnData, radical, wedderburn

__all__ = ["main", "emit_report"]

EXIT_OK = 0
EXIT_NOT_COMPRESSIBLE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_BROKEN_PIPE = 141


def _tolerance() -> Tolerance:
    raw = os.environ.get("CORNERALG_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return Tolerance(rel_eps=float(raw))
    except ValueError as exc:
        raise AlgebraFileError(f"CORNERALG_TOL: {exc}")


def _mat_text(m: np.ndarray) -> str:
    return np.array2string(np.asarray(m), precision=6, suppress_small=True)


def _complex_pair(z) -> list | None:
    return None if z is None else [float(np.real(z)), float(np.imag(z))]


def _params_json(params: dict) -> dict:
    out = {}
    for key, val in (params or {}).items():
        if key == "ranks":
            out[key] = [int(r) for r in val]
        elif key == "t":
            out[key] = _complex_pair(val)
        else:
            out[key] = int(val)
    return out


def _check_json(report: CheckReport) -> dict:
    return {
        "kind": "check",
        "mode": report.mode,
        "seed": report.seed,
        "requested_trials": report.requested_trials,
        "trials_run": report.trials_run,
        "catalog_corners": report.catalog_corners,
        "indeterminate": report.indeterminate,
        "consistent": report.consistent,
        "violations": [
            {
                "kind": v.kind,
                "index": v.index,
                "residual": v.residual,
                "witness": matrix_to_pairs(v.witness),
            }
            for v in report.violations
        ],
    }


def _check_text(report: CheckReport) -> str:
    lines = [
        f"mode: {report.mode}   seed: {report.seed}",
        f"trials: {report.trials_run} run of {report.requested_trials} requested, "
        f"catalog corners: {report.catalog_corners}, indeterminate: {report.indeterminate}",
        f"consistent: {'yes' if report.consistent else 'no'}",
    ]
    v = report.first_violation()
    if v is not None:
        where = "catalog corner" if v.kind.startswith("catalog:") else "trial"
        lines.append(f"violation: {v.kind} ({where} {v.index}), corner residual {v.residual:.3e}")
        lines.append("witness idempotent:")
        lines.append(_mat_text(v.witness))
    return "\n".join(lines)


def _verdict_json(verdict: Verdict) -> dict:
    return {
        "kind": "classify",
        "n": verdict.n,
        "dim": verdict.dim,
        "seed": verdict.seed,
        "compressible": verdict.compressible,
        "family": verdict.family,
        "variant": verdict.variant,
        "params": _params_json(verdict.params),
        "type_path": verdict.type_path,
        "t": _complex_pair(verdict.t),
        "similarity": None if verdict.similarity is None else matrix_to_pairs(verdict.similarity),
        "witness": None if verdict.witness is None else matrix_to_pairs(verdict.witness),
        "witness_source": verdict.witness_source,
        "check": None if verdict.check is None else _check_json(verdict.check),
    }


def _verdict_text(verdict: Verdict) -> str:
    lines = [
        f"n: {verdict.n}   dim: {verdict.dim}   seed: {verdict.seed}",
        f"compressible: {'yes' if verdict.compressible else 'no'}",
        f"route: {verdict.type_path}",
    ]
    if verdict.compressible:
        lines.append(f"family: {verdict.family}   variant: {verdict.variant}")
        if verdict.params:
            pieces = [f"{k}={v}" for k, v in verdict.params.items() if k != "t"]
            if pieces:
                lines.append("params: " + ", ".join(pieces))
        if verdict.t is not None:
            lines.append(f"hinge |t|: {verdict.t.real:.12g}")
        lines.append("similarity:")
        lines.append(_mat_text(verdict.similarity))
    else:
        lines.append(f"witness idempotent: source {verdict.witness_source}")
        lines.append(_mat_text(verdict.witness))
    if verdict.check is not None:
        lines.append(
            f"cross-check: {'consistent' if verdict.check.consistent else 'VIOLATED'} "
            f"({verdict.check.trials_run} trials, {verdict.check.indeterminate} indeterminate)"
        )
    return "\n".join(lines)


def _structure_json(wd: WedderburnData, rad_dim: int, seed: int) -> dict:
    return {
        "kind": "structure",
        "n": wd.reduced.n,
        "dim": wd.reduced.dim,
        "seed": seed,
        "block_sizes": [int(s) for s in wd.block.sizes],
        "linkage_classes": [sorted(int(i) for i in cls) for cls in wd.block.classes],
        "bd_dim": wd.bd.dim,
        "radical_dim": rad_dim,
        "flag_unitary": matrix_to_pairs(wd.block.u),
    }


def _structure_text(wd: WedderburnData, rad_dim: int, seed: int) -> str:
    classes = ", ".join("{" + ", ".join(str(i) for i in sorted(cls)) + "}"
                        for cls in wd.block.classes)
    return "\n".join([
        f"n: {wd.reduced.n}   dim: {wd.reduced.dim}   seed: {seed}",
        f"block sizes: {list(wd.block.sizes)}",
        f"linkage classes: {classes}",
        f"block-diagonal dim: {wd.bd.dim}",
        f"radical dim: {rad_dim}",
    ])


def emit_report(result, fmt: str = "text", seed: int = 0) -> str:
    """Render a checker, classifier, or structure result for stdout."""
    if isinstance(result, CheckReport):
        return json.dumps(_check_json(result)) if fmt == "json" else _check_text(result)
    if isinstance(result, Verdict):
        return json.dumps(_verdict_json(result)) if fmt == "json" else _verdict_text(result)
    if isinstance(result, tuple) and isinstance(result[0], WedderburnData):
        wd, rad_dim = result
        if fmt == "json":
            return json.dumps(_structure_json(wd, rad_dim, seed))
        return _structure_text(wd, rad_dim, seed)
    raise TypeError(f"no report format for {type(result).__name__}")


# ---------------------------------------------------------------- subcommands


def _parse_ranks(raw: str | None):
    if raw is None:
        return None
    try:
        return tuple(int(p) for p in raw.split(","))
    except ValueError:
        raise AlgebraFileError(f"--ranks expects comma-separated integers, got {raw!r}")


def _parse_complex(raw: str) -> complex:
    parts = raw.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise AlgebraFileError(f"--t expects RE or RE,IM, got {raw!r}")


def _cmd_gen(args) -> int:
    tol = _tolerance()
    alg = make_family(
        args.family, args.n, ranks=_parse_ranks(args.ranks),
        t=_parse_complex(args.t), overlap=args.overlap, seed=args.seed, tol=tol,
    )
    if args.disguise != "none":
        alg = random_instance(alg, disguise=args.disguise, seed=args.seed)
    meta = {
        "family": args.family.upper(),
        "n": args.n,
        "disguise": args.disguise,
        "seed": args.seed,
    }
    if args.ranks is not None:
        meta["ranks"] = list(_parse_ranks(args.ranks))
    if args.overlap:
        meta["overlap"] = args.overlap
    if _parse_complex(args.t) != 0:
        meta["t"] = _complex_pair(_parse_complex(args.t))
    write_algebra(args.output, alg, meta)
    print(f"wrote {args.output}: {meta['family']} n={args.n} dim={alg.dim} seed={args.seed}")
    return EXIT_OK


def _cmd_check(args) -> int:
    alg, _ = read_algebra(args.file, tol=_tolerance())
    report = check_compressible(alg, mode=args.mode, trials=args.trials, seed=args.seed)
    print(emit_report(report, args.format))
    return EXIT_OK if report.consistent else EXIT_NOT_COMPRESSIBLE


def _cmd_classify(args) -> int:
    alg, _ = read_algebra(args.file, tol=_tolerance())
    verdict = classify(alg, seed=args.seed, trials=args.trials)
    print(emit_report(verdict, args.format))
    return EXIT_OK if verdict.compressible else EXIT_NOT_COMPRESSIBLE


def _cmd_structure(args) -> int:
    alg, _ = read_algebra(args.file, tol=_tolerance())
    wd = wedderburn(alg, seed=args.seed)
    print(emit_report((wd, radical(alg).dim), args.format, seed=args.seed))
    return EXIT_OK


def _cmd_witness(args) -> int:
    alg, _ = read_algebra(args.file, tol=_tolerance())
    report = check_compressible(alg, mode=args.mode, trials=args.trials, seed=args.seed)
    v = report.first_violation()
    if v is None:
        if args.format == "json":
            print(json.dumps({"kind": "witness", "seed": args.seed, "found": False}))
        else:
            print(f"seed: {args.seed}\nnone found")
        return EXIT_OK
    if args.format == "json":
        print(json.dumps({
            "kind": "witness",
            "seed": args.seed,
            "found": True,
            "violation_kind": v.kind,
            "residual": v.residual,
            "witness": matrix_to_pairs(v.witness),
        }))
    else:
        print(f"seed: {args.seed}\nviolating idempotent ({v.kind}, residual {v.residual:.3e}):")
        print(_mat_text(v.witness))
    return EXIT_NOT_COMPRESSIBLE


def _add_common(p, trials_default: int = 500) -> None:
    p.add_argument("file", help="algebra JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=trials_default)
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="corneralg",
        description="Structure and corner-compression analysis for matrix subalgebras.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a canonical family instance to a file")
    gen.add_argument("--family", required=True, choices=FAMILY_TAGS)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--ranks", default=None, help="comma-separated ranks")
    gen.add_argument("--t", default="0", help="hinge parameter RE or RE,IM")
    gen.add_argument("--overlap", type=int, default=0)
    gen.add_argument("--disguise", choices=("none", "unitary", "similarity"), default="none")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_gen)

    chk = sub.add_parser("check", help="randomized corner-closure trials plus the witness catalog")
    _add_common(chk)
    chk.add_argument("--mode", choices=("projection", "idempotent"), default="idempotent")
    chk.set_defaults(func=_cmd_check)

    cls = sub.add_parser("classify", help="decide compressibility with a certificate or witness")
    _add_common(cls)
    cls.set_defaults(func=_cmd_classify)

    st = sub.add_parser("structure", help="reduced form: blocks, linkage, radical, diagonal part")
    st.add_argument("file", help="algebra JSON file")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--format", choices=("text", "json"), default="text")
    st.set_defaults(func=_cmd_structure)

    wit = sub.add_parser("witness", help="first violating idempotent, or report none found")
    _add_common(wit, trials_default=2000)
    wit.add_argument("--mode", choices=("projection", "idempotent"), default="idempotent")
    wit.set_defaults(func=_cmd_witness)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at os.devnull, so the interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except AlgebraFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalFailureError, ClassifierInconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
