"""Batch command-line surface.

Subcommands: jfun (solve/evaluate the delay ODE), moments (moment and
ratio tables), bound (the r_kappa table), identity (exact decomposition
of a concrete instance), search (Omega histograms and counts), params
(parameter echo).  Exit code 0 on success; on an error its class sets
the code, 3 for an errors.ResourceError and 2 otherwise, a file that
cannot be read or written (OSError) included.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, astuple, fields

from . import bounds as bounds_mod
from . import moments as moments_mod
from . import search as search_mod
from . import weights as weights_mod
from .arithmetic import parse_tuple_spec
from .delay_ode import solve_j
from .errors import BudgetExceeded, ResourceError, SieveKitError

# rows of the jfun grid are built in memory before they are written
JFUN_GRID_CAP = 100_000


def _write_output(text: str, path: str | None):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _fmt(v):
    """A CSV cell: floats to 12 significant digits, None as an empty cell."""
    if v is None:
        return ""
    return f"{v:.12g}" if isinstance(v, float) else v


def _csv_from_rows(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def _write_json(payload, path: str | None, indent=1, **kw):
    # allow_nan=False: NaN and infinities are not JSON (RFC 8259)
    _write_output(json.dumps(payload, indent=indent, allow_nan=False, **kw) + "\n", path)


def _write_table(args, header, rows, payload):
    """Write ``payload`` as JSON under --format json, else ``rows`` as CSV."""
    if args.format == "json":
        _write_json(payload, args.output)
    else:
        _write_output(_csv_from_rows(header, rows), args.output)


def cmd_jfun(args) -> int:
    if args.grid < 1:
        raise ValueError("--grid must be >= 1")
    if args.grid > JFUN_GRID_CAP:
        raise BudgetExceeded(f"--grid = {args.grid} above cap {JFUN_GRID_CAP}")
    w_max = max(moments_mod.canonical_u(args.kappa), 1.0) if args.w_max is None else args.w_max
    J = solve_j(args.kappa, w_max, tol=args.tol, degree=args.degree)
    header = ("w", "log_q", "j", "j_prime")
    rows = [(w, J.log_q(w), J.j(w), J.j_prime(w))
            for w in (w_max * i / args.grid for i in range(args.grid + 1))]
    # the JSON grid keeps the CSV's 12 digits; log q(0) = -inf goes out as null
    grid = [{k: float(_fmt(v)) if math.isfinite(v) else None
             for k, v in zip(header, row)} for row in rows]
    _write_table(args, header, rows, {"kappa": args.kappa, "w_max": w_max,
                                      "tol": args.tol, "degree": J.degree, "grid": grid})
    return 0


def cmd_moments(args) -> int:
    rows = moments_mod.moment_table(_parse_range(args.kappa))
    _write_table(args, ("kappa", "quantity", "numeric", "asymptotic", "diff", "envelope"),
                 [(r.kappa, r.quantity, r.value, r.asymptotic, r.diff, r.envelope)
                  for r in rows], [asdict(r) for r in rows])
    return 0


def cmd_bound(args) -> int:
    rows = bounds_mod.table(_parse_range(args.kappa), numeric=not args.no_numeric,
                            slack=args.slack)
    _write_table(args, [f.name for f in fields(bounds_mod.BoundRow)],
                 [astuple(r) for r in rows], [asdict(r) for r in rows])
    return 0


def cmd_identity(args) -> int:
    L = parse_tuple_spec(args.tuple)
    u = weights_mod.support_u(args.xi, args.zp)
    P = None
    if args.poly:
        coeffs = tuple(float(c) for c in args.poly.split(","))
        P = moments_mod.SievePolynomial(coeffs, u + 1e-9)
    S = weights_mod.build_lambda_system(L, args.xi, args.zp, P=P, exact=args.exact)
    W = weights_mod.RichertWeights(b=args.b, y=args.y, z=args.z)
    inst = weights_mod.SieveInstance(L, args.x)
    dec = weights_mod.decompose(inst, W, S)
    _write_json({
        "tuple": L.label(), "x": args.x, "z": args.z, "z_prime": args.zp,
        "xi": args.xi, "b": args.b, "y": args.y, "mode": dec.mode,
        "lhs": _num(dec.lhs), "main": _num(dec.main), "error": _num(dec.error),
        "residual": _num(dec.residual),
        "residual_is_zero": dec.residual == 0,
    }, args.output)
    return 0


def cmd_search(args) -> int:
    if args.density and args.r is None:
        raise ValueError("--density needs --r")
    L = parse_tuple_spec(args.tuple)
    sieve = {"segment_size": args.segment_size, "threads": args.threads}
    # a count or density needs no histogram
    if args.density:
        rep = search_mod.density_report(L, args.x, args.r, **sieve)
        _write_json(asdict(rep), args.output, indent=None, sort_keys=True)
    elif args.r is not None:
        count = search_mod.count_at_most(L, args.x, args.r, **sieve)
        _write_output(f"{count}\n", args.output)
    else:
        hist = search_mod.omega_profile(L, args.x, **sieve)
        _write_table(args, ("omega", "count"), sorted(hist.counts.items()),
                     {"tuple": L.label(), "x": args.x, "excluded": hist.excluded,
                      "counts": {str(k): v for k, v in hist.counts.items()}})
    return 0


def cmd_params(args) -> int:
    p = bounds_mod.choose_params(args.kappa, args.r, delta=args.delta,
                                 eps=args.eps, alpha=args.alpha)
    _write_json(asdict(p), args.output)
    return 0


def _num(v):
    """JSON-safe number: exact rationals go out as strings."""
    return str(v) if not isinstance(v, (int, float)) else v


def _parse_range(spec: str) -> list[int]:
    """"100" or "10:101:10" or "10,20,40"; a range must hold a value."""
    try:
        if ":" in spec:
            parts = [int(p) for p in spec.split(":")]
            if len(parts) not in (2, 3):
                raise ValueError
            values = list(range(*parts))  # ValueError for step 0
        else:
            values = [int(p) for p in spec.split(",")]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"--kappa {spec!r} is not an integer, a list a,b,c "
                         "or a nonempty range lo:hi[:step]")
    return values


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sievekit",
        description="Weighted-sieve toolkit for almost-prime values of "
                    "products of linear forms.")
    sub = ap.add_subparsers(dest="command", required=True)

    # identity and params always write JSON, so only the table commands
    # take --format
    def common(p, formats=True):
        if formats:
            p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--output", default="-", help="output path ('-' = stdout)")

    p = sub.add_parser("jfun", help="solve the delay ODE and dump a grid")
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--w-max", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--degree", type=int, default=32)
    p.add_argument("--grid", type=int, default=64)
    common(p)
    p.set_defaults(func=cmd_jfun)

    p = sub.add_parser("moments", help="moment integral / ratio tables")
    p.add_argument("--kappa", default="10,20,40", help="value, list or lo:hi:step")
    common(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("bound", help="r_kappa bound table")
    p.add_argument("--kappa", default="100", help="value, list or lo:hi:step")
    p.add_argument("--slack", type=float, default=0.0,
                   help="explicit-bound slack coefficient of log(kappa)")
    p.add_argument("--no-numeric", action="store_true")
    common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("identity", help="exact decomposition on an instance")
    p.add_argument("--tuple", required=True, help='spec file, JSON or "0,2,6"')
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--zp", type=float, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--b", type=float, default=3.0)
    p.add_argument("--y", type=float, default=3.0)
    p.add_argument("--poly", default=None,
                   help="comma-separated ascending coefficients of P")
    p.add_argument("--exact", action="store_true",
                   help="exact rational lambda system (residual exactly 0)")
    common(p, formats=False)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("search", help="Omega histogram / almost-prime counts")
    p.add_argument("--tuple", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--density", action="store_true")
    p.add_argument("--segment-size", type=int, default=search_mod.DEFAULT_SEGMENT)
    p.add_argument("--threads", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("params", help="echo the canonical sieve parameters")
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=None)
    common(p, formats=False)
    p.set_defaults(func=cmd_params)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (SieveKitError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
