"""Command-line front end.

The production routes are reachable from a subcommand; the exceptions are
the check route ``cyclozeta.dirichlet_l`` (the group transform, one
character at a time) and the one-point ``specfun.hurwitz_zeta`` and
``hurwitz_zeta_ds``, one-element calls of the cyclozeta array kernels that
serve the tests and ``perfbench``.  Only specfun, rogers and lenstra load
with this module, so the explicit-bounds commands (``constants``,
``rogers``, ``lenstra-check``, ``lenstra-crossing``) run without numpy;
cyclozeta, zimmert and numpy are imported by the functions that use them,
json by the JSON scan writer, and the acceptance suite by ``reproduce``.
Each subcommand carries only the options its handler reads, and the
library checks every value: an out-of-range argument exits 1 with the
library's message.  Scans can be written as CSV or JSON (plus an
optional minimal SVG scatter), and ``reproduce`` runs ``acceptance`` and
exits 0 only if every criterion passes.  Floating-point output is
rendered with 15 significant digits, CSV payloads with full round-trip
precision, so identical flags give byte-identical output.

Exit codes: 0 success, 1 domain error, no crossing in range, an integer
argument too large for binary64 or an output file that cannot be written,
2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING

from . import lenstra, rogers
from .specfun import BETA3, DomainError, EULER_GAMMA, LAMBDA3, ZETA_THRESHOLD

if TYPE_CHECKING:
    from .cyclozeta import ScanRow

__all__ = ["main"]


def _fmt(x: float) -> str:
    return format(x, ".15g")


# ------------------------------------------------------------ subcommands

def _cmd_rogers(args: argparse.Namespace) -> int:
    # every line, so everything that can fail, is computed before printing
    ctx = rogers.RogersContext(float(args.n), args.theta)
    c = rogers.error_constants(ctx)
    lines = [
        f"n       = {args.n}",
        f"kappa   = {_fmt(ctx.kappa)}",
        f"theta   = {_fmt(args.theta)}",
        f"C1      = {_fmt(c.c1)}",
        f"C2      = {_fmt(c.c2)}",
        f"C3      = {_fmt(c.c3)}",
        f"C41     = {_fmt(c.c41)}",
        f"C42     = {_fmt(c.c42)}",
        f"log sigma_n upper bound = {_fmt(rogers.sigma_upper_log(args.n))}",
    ]
    if ctx.kappa < rogers.KAPPA_MIN_LOWER:
        lines.append("f(kappa, theta): not defined below kappa = 24")
    else:
        ci, f = rogers.central_integral(ctx), rogers.f_lower(ctx)
        low = rogers.sigma_lower_log(args.n, f)
        lines += [
            f"U       = {_fmt(rogers.u_threshold(ctx))}",
            f"central integral = {_fmt(ci.value)} (err {ci.err_estimate:.3e})",
            f"f(kappa, theta)  = {_fmt(f.value)} (err {f.err_estimate:.3e})",
            "log sigma_n lower bound = "
            + (_fmt(low.value) if low is not None else "vacuous (f <= 0)"),
        ]
    print("\n".join(lines))
    return 0


def _cmd_lenstra_crossing(args: argparse.Namespace) -> int:
    n = lenstra.find_crossing(args.theta, args.n_min, args.n_max)
    print(f"crossing = {n}")
    print(f"gap at crossing (r=0) = {_fmt(lenstra.main_gap(n, 0, args.theta).value)}")
    if n == args.n_min:
        print("gap at crossing - 1: no lower degree searched (crossing = --n-min)")
    else:
        below = lenstra.main_gap(n - 1, 0, args.theta)
        print(f"gap at crossing - 1 (r=0) = {_fmt(below.value)} (err {below.err_estimate:.3e})")
    return 0


def _cmd_lenstra_check(args: argparse.Namespace) -> int:
    verdict = lenstra.criterion_check(args.n, args.r, args.log_disc, args.log_m)
    print(f"delta1 criterion holds: {verdict.delta1_holds}")
    print(f"delta2 criterion holds: {verdict.delta2_holds}")
    print(f"max log|disc| for delta2 = {_fmt(verdict.max_log_disc_delta2)}")
    return 0


def _cmd_cyclo_zeta(args: argparse.Namespace) -> int:
    from . import cyclozeta
    z = cyclozeta.zeta_cyclotomic(
        args.m, args.s, method=args.method, prime_limit=args.prime_limit
    )
    print(f"zeta_K({args.m}) at s = {_fmt(args.s)} [{args.method}]")
    print(f"value = {_fmt(z.value)}")
    print(f"err   = {z.err_estimate:.6e}")
    print(f"terms = {z.terms_used}")
    return 0


def _rows_csv(rows: list[ScanRow]) -> str:
    """The ScanRow fields are the columns; ``scan`` returns at least one row."""
    lines = [",".join(rows[0]._fields)] + [",".join(map(repr, r)) for r in rows]
    return "\n".join(lines) + "\n"


def _rows_json(rows: list[ScanRow]) -> str:
    import json
    return json.dumps([r._asdict() for r in rows], indent=2) + "\n"


def _rows_svg(rows: list[ScanRow]) -> str:
    """Fixed 800x600 scatter of (phi, zeta), linear axes, one circle per row."""
    width, height, margin = 800, 600, 60
    xs = [float(r.phi) for r in rows]
    ys = [r.zeta_value for r in rows]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0

    def px(x: float) -> float:
        return margin + (x - x0) / xr * (width - 2 * margin)

    def py(y: float) -> float:
        return height - margin - (y - y0) / yr * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">degree phi(m)</text>',
        f'<text x="{margin}" y="{margin - 10}" font-size="14">zeta value</text>',
        f'<text x="{margin}" y="{height - margin + 20}" font-size="11">{x0:.6g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 20}" text-anchor="end" '
        f'font-size="11">{x1:.6g}</text>',
        f'<text x="{margin - 5}" y="{height - margin}" text-anchor="end" '
        f'font-size="11">{y0:.6g}</text>',
        f'<text x="{margin - 5}" y="{margin}" text-anchor="end" font-size="11">{y1:.6g}</text>',
    ]
    for r in rows:
        parts.append(
            f'<circle cx="{px(float(r.phi)):.2f}" cy="{py(r.zeta_value):.2f}" '
            f'r="3" fill="steelblue" fill-opacity="0.7"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_cyclo_scan(args: argparse.Namespace) -> int:
    from . import cyclozeta
    rows = cyclozeta.scan(args.m_max, args.epsilon)
    text = _rows_json(rows) if args.format == "json" else _rows_csv(rows)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    if args.svg:
        with open(args.svg, "w", newline="") as fh:
            fh.write(_rows_svg(rows))
        print(f"wrote scatter to {args.svg}")
    return 0


def _cmd_zimmert(args: argparse.Namespace) -> int:
    from . import zimmert
    t = zimmert.f_terms(args.beta)
    f_ab = t.f_ab(args.a, args.b)
    print(f"beta = {_fmt(args.beta)}")
    print(f"F1 = {_fmt(t.f1_series)}")
    print(f"f1 = {_fmt(t.f1_point)}")
    print(f"F2 = {_fmt(t.f2_series)}")
    print(f"f2 = {_fmt(t.f2_point)}")
    print(f"F3 = {_fmt(t.f3)}")
    print(f"F_{{{args.a},{args.b}}}(beta) = {_fmt(f_ab)}")
    return 0


def _cmd_zimmert_verify(args: argparse.Namespace) -> int:
    from . import zimmert
    l1, r1, h1 = zimmert.satz4_check(args.m, args.beta)
    l2, r2, h2 = zimmert.min_norm_check(args.m, args.beta)
    print(f"m = {args.m}, beta = {_fmt(args.beta)}")
    print(f"series bound:    {_fmt(l1)} <= {_fmt(r1)}  -> {'holds' if h1 else 'VIOLATED'}")
    print(f"min-norm bound:  {_fmt(l2)} <= {_fmt(r2)}  -> {'holds' if h2 else 'VIOLATED'}")
    return 0 if (h1 and h2) else 1


def _cmd_constants(args: argparse.Namespace) -> int:
    print(f"euler_gamma        = {_fmt(EULER_GAMMA)}")
    print(f"lambda(3)          = {_fmt(LAMBDA3)}   (= 7/8 zeta(3))")
    print(f"beta(3)            = {_fmt(BETA3)}   (= pi^3/32)")
    print(f"ln(4 pi e)         = {_fmt(math.log(4 * math.pi * math.e))}")
    print(f"ln(8 pi e^gamma)   = {_fmt(math.log(8 * math.pi) + EULER_GAMMA)}")
    print(f"zeta threshold     = {_fmt(ZETA_THRESHOLD)}   (= 2 ln 2/(2 ln 2 + gamma - 1))")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .acceptance import run_acceptance
    results = run_acceptance()
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"[{status}] criterion {r.cid}: {r.name} ({r.elapsed:.1f}s) {r.detail}")
    n_fail = sum(not r.ok for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return 0 if n_fail == 0 else 1


# ------------------------------------------------------------------ main

# name, help, handler and options of each subcommand, in --help order
_COMMANDS = (
    ("rogers", "packing-constant bounds at one dimension", _cmd_rogers, (
        ("--n", dict(type=int, required=True)),
        ("--theta", dict(type=float, default=0.1)),
    )),
    ("lenstra-crossing", "first degree where the criterion becomes incompatible "
     "with the GRH discriminant bound", _cmd_lenstra_crossing, (
        ("--theta", dict(type=float, default=0.1)),
        ("--n-min", dict(type=int, default=55000)),
        ("--n-max", dict(type=int, default=70000)),
    )),
    ("lenstra-check", "criterion verdicts for one field", _cmd_lenstra_check, (
        ("--n", dict(type=int, required=True)),
        ("--r", dict(type=int, required=True)),
        ("--log-disc", dict(type=float, required=True)),
        ("--log-m", dict(type=float, required=True)),
    )),
    ("cyclo-zeta", "cyclotomic zeta value at one point", _cmd_cyclo_zeta, (
        ("--m", dict(type=int, required=True)),
        ("--s", dict(type=float, required=True)),
        ("--method", dict(choices=("hurwitz", "euler"), default="hurwitz")),
        ("--prime-limit", dict(type=int, default=10 ** 6,
                               help="prime cutoff for the Euler product (--method euler)")),
    )),
    ("cyclo-scan", "zeta scan over m = 1..m_max", _cmd_cyclo_scan, (
        ("--m-max", dict(type=int, required=True)),
        ("--epsilon", dict(type=float, required=True)),
        ("--out", dict(type=str, default=None)),
        ("--svg", dict(type=str, default=None)),
        ("--format", dict(choices=("csv", "json"), default="csv", help="scan output format")),
    )),
    ("zimmert", "digamma series values at one beta", _cmd_zimmert, (
        ("--a", dict(type=int, required=True)),
        ("--b", dict(type=int, required=True)),
        ("--beta", dict(type=float, required=True)),
    )),
    ("zimmert-verify", "check the two series inequalities for one cyclotomic field",
     _cmd_zimmert_verify, (
        ("--m", dict(type=int, required=True)),
        ("--beta", dict(type=float, required=True)),
    )),
    ("constants", "print the named constants", _cmd_constants, ()),
    ("reproduce", "run the acceptance checks", _cmd_reproduce, ()),
)
_NAMES = tuple(name for name, *_ in _COMMANDS)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or with ``command`` the top level and that one
    subcommand.  The one-subcommand parser names every command in its
    usage line, so it prints what the full parser prints."""
    p = argparse.ArgumentParser(
        prog="normeuclid",
        description="Explicit bounds for the sphere-packing criterion for "
        "norm-Euclidean fields and Dedekind zeta scans for cyclotomic fields.",
    )
    # the full parser keeps metavar None: "command" names the missing choice
    metavar = None if command is None else "{" + ",".join(_NAMES) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_, fn, options in _COMMANDS:
        if command in (None, name):
            q = sub.add_parser(name, help=help_)
            for flag, kwargs in options:
                q.add_argument(flag, **kwargs)
            q.set_defaults(fn=fn)
    return p


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # -h, no arguments and an unknown name print or name every command
    parser = _build_parser(argv[0] if argv and argv[0] in _NAMES else None)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, lenstra.NotFoundError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
