"""Command-line interface: solve, scan, approx, design, verify.

Potentials travel as JSON documents (schema "v1", complex numbers as
[re, im]); outputs are JSON records and CSV tables with floats printed at 17
significant digits, so identical inputs produce byte-identical outputs.

Exit codes: 0 ok, 2 parse/usage error, 3 solver failure, 4 spectral
singularity (amplitudes undefined; matrix still printed), 5 design or
verification failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from . import approx as approx_mod
from .design import (
    DesignError,
    DesignSpec,
    DesignVerificationError,
    solve_single_mode,
    write_profile_csv,
)
from .engines import ToleranceNotReached
from .exact import NotExactlySolvable
from .potentials import (
    Potential,
    QuadratureError,
    load_potential,
    potential_to_dict,
)
from .scan import (
    default_scan_points,
    matrix_at,
    scan,
    singular_summary,
    write_scan_csv,
)
from .transfer import SpectralSingularityError, classify

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_SINGULAR = 4
EXIT_VERIFY = 5


class CliParseError(ValueError):
    pass


def parse_complex(text: str) -> complex:
    """Strict complex parsing: 're,im' or 'mag@degphase'."""
    text = text.strip()
    try:
        if "@" in text:
            mag_s, ang_s = text.split("@", 1)
            return complex(float(mag_s)) * cmath.exp(1j * math.radians(float(ang_s)))
        if "," in text:
            re_s, im_s = text.split(",", 1)
            return complex(float(re_s), float(im_s))
        return complex(float(text))
    except ValueError as exc:
        raise CliParseError(f"cannot parse complex number {text!r}: {exc}") from exc


def _cnum(z: complex) -> list[float]:
    return [z.real, z.imag]


def _dump(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_spec(path: str) -> Potential:
    try:
        return load_potential(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliParseError(f"cannot read potential spec {path!r}: {exc}") from exc


def cmd_solve(args) -> int:
    p = _load_spec(args.spec)
    if args.k <= 0:
        raise CliParseError("k must be positive")
    m = matrix_at(p, args.k, args.solver, args.tol)
    cls = classify(m)
    record = {
        "schema": "v1",
        "k": args.k,
        "M": m.to_dict(),
        "det_residual": m.det_residual(),
        "classification": cls.to_dict(),
    }
    try:
        data = m.amplitudes()
        record.update(
            R_left=_cnum(data.r_left), R_right=_cnum(data.r_right), T=_cnum(data.t)
        )
    except SpectralSingularityError:
        record.update(R_left=None, R_right=None, T=None)
        _dump(record, args.out)
        return EXIT_SINGULAR
    _dump(record, args.out)
    return EXIT_OK


def cmd_scan(args) -> int:
    p = _load_spec(args.spec)
    if not (0 < args.k_min < args.k_max):
        raise CliParseError("need 0 < k-min < k-max")
    points = args.points or default_scan_points(p, args.k_min, args.k_max)
    result = scan(p, args.k_min, args.k_max, points, solver=args.solver, tol=args.tol)
    write_scan_csv(result, args.out_csv)
    summary = singular_summary(result)
    _dump(summary, args.summary_json)
    return EXIT_OK


def cmd_approx(args) -> int:
    p = _load_spec(args.spec)
    if args.k <= 0:
        raise CliParseError("k must be positive")
    record: dict = {"schema": "v1", "k": args.k}
    born = approx_mod.born_first(p, args.k)
    record["born_first"] = {
        "R_left": _cnum(born.r_left), "R_right": _cnum(born.r_right), "T": _cnum(born.t)
    }
    for order, fn in ((1, approx_mod.dyson_order1), (2, approx_mod.dyson_order2)):
        rep = fn(p, args.k)
        record[f"dyson_order{order}"] = {
            "M": rep.matrix.to_dict(),
            "det_residual": rep.det_residual,
            "R_left": _cnum(rep.data.r_left),
            "R_right": _cnum(rep.data.r_right),
            "T": _cnum(rep.data.t),
        }
    try:
        exact = matrix_at(p, args.k, "auto", args.tol).amplitudes()
        record["reference"] = {
            "R_left": _cnum(exact.r_left),
            "R_right": _cnum(exact.r_right),
            "T": _cnum(exact.t),
        }
    except SpectralSingularityError:
        record["reference"] = None
    _dump(record, args.out)
    return EXIT_OK


def cmd_design(args) -> int:
    try:
        spec = DesignSpec(
            args.k0,
            parse_complex(args.r_left),
            parse_complex(args.r_right),
            parse_complex(args.t),
        )
    except ValueError as exc:
        raise CliParseError(f"zero transmission unrealizable: {exc}") from exc
    result = solve_single_mode(spec, verify_tol=args.verify_tol)
    _dump(potential_to_dict(result.potential), args.out_spec)
    if args.out_profile:
        write_profile_csv(result.potential, args.out_profile)
    report = {
        "schema": "v1",
        "targets": {
            "k0": spec.k0,
            "R_left": _cnum(spec.r_left),
            "R_right": _cnum(spec.r_right),
            "T": _cnum(spec.t),
        },
        **result.report(),
    }
    _dump(report, args.report)
    return EXIT_OK


def cmd_verify(args) -> int:
    p = _load_spec(args.spec)
    if args.k <= 0:
        raise CliParseError("k must be positive")
    data = matrix_at(p, args.k, args.solver, args.tol).amplitudes()
    targets = {
        "R_left": parse_complex(args.r_left),
        "R_right": parse_complex(args.r_right),
        "T": parse_complex(args.t),
    }
    got = {"R_left": data.r_left, "R_right": data.r_right, "T": data.t}
    residuals = {
        name: abs(got[name] - want) for name, want in targets.items()
    }
    ok = all(r <= args.verify_tol * max(1.0, abs(targets[n])) for n, r in residuals.items())
    _dump(
        {
            "schema": "v1",
            "k": args.k,
            "targets": {n: _cnum(z) for n, z in targets.items()},
            "achieved": {n: _cnum(z) for n, z in got.items()},
            "residuals": residuals,
            "ok": ok,
        },
        args.out,
    )
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scatter1d",
        description="1D wave scattering by complex finite-range potentials "
        "(transfer-matrix methods)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common_solver(sp):
        sp.add_argument("--solver", choices=("auto", "exact", "dynamical"), default="auto")
        sp.add_argument("--tol", type=float, default=1e-9, help="engine tolerance")

    sp = sub.add_parser("solve", help="transfer matrix + amplitudes at one k")
    sp.add_argument("--spec", required=True, help="potential JSON file")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--out", help="write JSON here instead of stdout")
    common_solver(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("scan", help="sweep a k range; CSV + singular-point summary")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--k-min", type=float, required=True)
    sp.add_argument("--k-max", type=float, required=True)
    sp.add_argument("--points", type=int,
                    help="grid size (default: 512 per unit of (k_max - k_min)*L/(2 pi))")
    sp.add_argument("--out-csv", required=True)
    sp.add_argument("--summary-json", help="summary path (default: stdout)")
    common_solver(sp)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("approx", help="Born/Dyson estimates vs reference solver")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--out")
    common_solver(sp)
    sp.set_defaults(func=cmd_approx)

    sp = sub.add_parser("design", help="single-mode inverse scattering")
    sp.add_argument("--k0", type=float, required=True)
    sp.add_argument("--r-left", required=True, help="complex: 're,im' or 'mag@deg'")
    sp.add_argument("--r-right", required=True)
    sp.add_argument("--t", required=True)
    sp.add_argument("--out-spec", help="potential JSON output (default: stdout)")
    sp.add_argument("--out-profile", help="sampled profile CSV (x, Re v, Im v)")
    sp.add_argument("--report", help="verification report JSON (default: stdout)")
    sp.add_argument("--verify-tol", type=float, default=1e-6)
    sp.set_defaults(func=cmd_design)

    sp = sub.add_parser("verify", help="re-check a spec against target amplitudes")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--r-left", required=True)
    sp.add_argument("--r-right", required=True)
    sp.add_argument("--t", required=True)
    sp.add_argument("--verify-tol", type=float, default=1e-6)
    sp.add_argument("--out")
    common_solver(sp)
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliParseError, NotExactlySolvable) as exc:  # --solver exact with no closed form
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DesignVerificationError,) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except DesignError as exc:
        print(f"design failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ToleranceNotReached, QuadratureError, RuntimeError, ArithmeticError) as exc:
        if isinstance(exc, SpectralSingularityError):
            print(f"spectral singularity: {exc}", file=sys.stderr)
            return EXIT_SINGULAR
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
