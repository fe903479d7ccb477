"""Command-line front end.

The production routes are reachable from a subcommand; the exceptions are
the check route ``cyclozeta.dirichlet_l`` (the group transform, one
character at a time) and the one-point ``specfun.hurwitz_zeta`` and
``hurwitz_zeta_ds``, one-element calls of the cyclozeta array kernels that
serve the tests and ``perfbench``.  Only specfun, rogers and lenstra load
with this module, so the explicit-bounds commands (``constants``,
``rogers``, ``lenstra-check``, ``lenstra-crossing``) run without numpy;
cyclozeta, zimmert and numpy are imported by the functions that use them.
Each subcommand carries only the options its handler reads, and the
library checks every value: an out-of-range argument exits 1 with the
library's message.  Scans can be written as CSV or JSON (plus an optional
minimal SVG scatter), and ``reproduce`` runs the acceptance checks and
exits 0 only if all of them pass.  Floating-point output is rendered with
15 significant digits, CSV payloads with full round-trip precision, so
identical flags give byte-identical output.

Exit codes: 0 success, 1 domain error, no crossing in range, an integer
argument too large for binary64 or an output file that cannot be written,
2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from typing import TYPE_CHECKING, NamedTuple

from . import lenstra, rogers
from .specfun import BETA3, DomainError, EULER_GAMMA, LAMBDA3, ZETA_THRESHOLD

if TYPE_CHECKING:
    from .cyclozeta import ScanRow

__all__ = ["main", "run_acceptance", "CriterionResult"]

_LN2 = math.log(2.0)


def _fmt(x: float) -> str:
    return format(x, ".15g")


# ------------------------------------------------------------ subcommands

def _cmd_rogers(args: argparse.Namespace) -> int:
    # everything that can fail is computed before the first line is printed
    ctx = rogers.RogersContext(float(args.n), args.theta)
    chain = rogers._chain(ctx) if ctx.kappa >= rogers.KAPPA_MIN_LOWER else None
    c = chain.constants if chain is not None else rogers.error_constants(ctx)
    upper = rogers.sigma_upper_log(args.n)
    print(f"n       = {args.n}")
    print(f"kappa   = {_fmt(ctx.kappa)}")
    print(f"theta   = {_fmt(args.theta)}")
    print(f"C1      = {_fmt(c.c1)}")
    print(f"C2      = {_fmt(c.c2)}")
    print(f"C3      = {_fmt(c.c3)}")
    print(f"C41     = {_fmt(c.c41)}")
    print(f"C42     = {_fmt(c.c42)}")
    print(f"log sigma_n upper bound = {_fmt(upper)}")
    if chain is not None:
        ci, f = chain.central, chain.f
        print(f"U       = {_fmt(chain.u_star)}")
        print(f"central integral = {_fmt(ci.value)} (err {ci.err_estimate:.3e})")
        print(f"f(kappa, theta)  = {_fmt(f.value)} (err {f.err_estimate:.3e})")
        low = rogers.sigma_lower_log(args.n, f)
        if low is not None:
            print(f"log sigma_n lower bound = {_fmt(low.value)}")
        else:
            print("log sigma_n lower bound = vacuous (f <= 0 or n < 1152)")
    else:
        print("f(kappa, theta): not defined below kappa = 24")
    return 0


def _cmd_lenstra_crossing(args: argparse.Namespace) -> int:
    n = lenstra.find_crossing(args.theta, args.n_min, args.n_max)
    print(f"crossing = {n}")
    print(f"gap at crossing (r=0) = {_fmt(lenstra.main_gap(n, 0, args.theta).value)}")
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
    """The ScanRow fields are the columns, read with getattr (``astuple``
    deep-copies every row); ``scan`` returns at least one row."""
    names = [f.name for f in dataclasses.fields(rows[0])]
    lines = [",".join(names)]
    lines += [",".join(repr(getattr(r, n)) for n in names) for r in rows]
    return "\n".join(lines) + "\n"


def _rows_json(rows: list[ScanRow]) -> str:
    names = [f.name for f in dataclasses.fields(rows[0])]
    return json.dumps([{n: getattr(r, n) for n in names} for r in rows], indent=2) + "\n"


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
    results = run_acceptance()
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"[{status}] criterion {r.cid}: {r.name} ({r.elapsed:.1f}s) {r.detail}")
    n_fail = sum(not r.ok for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return 0 if n_fail == 0 else 1


# ------------------------------------------------------- acceptance suite

class CriterionResult(NamedTuple):
    cid: int
    name: str
    ok: bool
    detail: str
    elapsed: float


def _crit_1_crossing() -> tuple[bool, str]:
    t0 = time.monotonic()
    crossing = lenstra.find_crossing(0.1, 55000, 70000)
    g_cross = lenstra.main_gap(62238, 0, 0.1).value
    g_below = lenstra.main_gap(61000, 0, 0.1).value
    g_large = lenstra.main_gap(10 ** 6, 0, 0.1).value
    dt = time.monotonic() - t0
    ok = (
        62138 <= crossing <= 62338
        and g_cross > 0.0
        and g_below < 0.0
        and g_large > 0.0
        and dt <= 60.0
    )
    return ok, (
        f"crossing={crossing}, gap(62238)={g_cross:.3e}, gap(61000)={g_below:.3e}, "
        f"gap(1e6)={g_large:.3e}"
    )


def _crit_2_f_value() -> tuple[bool, str]:
    t0 = time.monotonic()
    ctx = rogers.RogersContext(62238.0, 0.1)
    f = rogers.f_lower(ctx).value
    dt = time.monotonic() - t0
    ok = 0.484 <= f <= 0.60 and dt <= 5.0
    return ok, f"f(sqrt(62238/2), 0.1) = {f:.6f}"


def _crit_3_delta_comparison() -> tuple[bool, str]:
    # (n+1)(e/pi)^{n/2} first drops to <= 1 at n = 56 on an integer scan
    aux_first = next(
        n for n in range(40, 71) if (n + 1) * (math.e / math.pi) ** (n / 2) <= 1.0
    )
    # delta1 is minimized over admissible s at s = 0 since ln(4/pi) > 0,
    # so the s = 0 comparison covers every signature
    worst = math.inf
    for n in range(56, 2001):
        d2 = lenstra.delta2_star_log(n).value
        d1 = lenstra.delta1_star_log(n, 0)
        worst = min(worst, d1 - d2)
    ok = aux_first == 56 and worst >= 0.0
    return ok, f"aux first n = {aux_first}, min(delta1 - delta2) on [56,2000] = {worst:.6f}"


def _crit_4_asymptotic_cap() -> tuple[bool, str]:
    cap = lenstra.lenstra_disc_cap(10 ** 6)
    limit = math.log(4.0 * math.pi * math.e)
    serre = EULER_GAMMA + math.log(8.0 * math.pi)
    identity_gap = abs((serre - limit) - (EULER_GAMMA + _LN2 - 1.0))
    ratio = 2.0 * math.exp(EULER_GAMMA - 1.0)
    ok = abs(cap - limit) <= 0.01 and identity_gap <= 1e-12 and ratio >= 1.31
    # the unconditional main term ln(4 pi) + gamma + r/n tops ln(4 pi) + 1 iff r/n > 1 - gamma
    return ok, (
        f"cap(1e6)={cap:.6f} vs ln(4 pi e)={limit:.6f}, identity gap={identity_gap:.2e}, "
        f"2e^(gamma-1)={ratio:.6f}, "
        f"unconditional bound beats the cap only for r/n > 1-gamma = {1.0 - EULER_GAMMA:.6f}"
    )


def _crit_5_zimmert_limits() -> tuple[bool, str]:
    from . import zimmert
    t = zimmert.f_terms(1e-4)
    lim1 = EULER_GAMMA + math.log(4.0) + 1.0
    lim2 = EULER_GAMMA + math.log(4.0) - 1.0
    d1 = abs(t.f1_series + t.f1_point - lim1)
    d2 = abs(t.f2_series + t.f2_point - lim2)
    ok = d1 <= 1e-3 and d2 <= 1e-3
    return ok, f"|F1+f1 - {lim1:.5f}| = {d1:.2e}, |F2+f2 - {lim2:.5f}| = {d2:.2e}"


def _odd_power_series(p: int, alternating: bool) -> float:
    """Independent oracle for sum_{k>=0} (+-1)^k (2k+1)^{-p}, p >= 2: n = 1e5
    terms, then minus half the last one if alternating, else plus the
    midpoint integral (2n)^{1-p}/(2(p-1)) of the rest.  The truncation
    left (1.25e-16 at p = 2) is under the sum's rounding."""
    import numpy as np
    n = 100_000
    k = np.arange(n, dtype=np.float64)
    terms = (2.0 * k + 1.0) ** -p
    if alternating:
        terms *= (-1.0) ** k
        return float(np.sum(terms)) - 0.5 * float(terms[-1])
    return float(np.sum(terms)) + (2.0 * n) ** (1 - p) / (2.0 * (p - 1))


def _crit_6_threshold_constant() -> tuple[bool, str]:
    # independent series oracles for the two Poitou constants
    d_lam = abs(LAMBDA3 - _odd_power_series(3, alternating=False))
    d_bet = abs(BETA3 - _odd_power_series(3, alternating=True))
    th = ZETA_THRESHOLD
    ok = abs(th - 1.43879) <= 1e-5 and d_lam <= 1e-12 and d_bet <= 1e-12
    return ok, f"threshold={th:.7f}, |lambda3 - oracle|={d_lam:.2e}, |beta3 - oracle|={d_bet:.2e}"


def _crit_7_zeta_engine() -> tuple[bool, str]:
    from . import cyclozeta
    worst = 0.0
    worst_at = (0, 0.0)
    for m in range(1, 61):
        for s in (1.1, 1.5, 2.0):
            h = cyclozeta.zeta_cyclotomic(m, s, "hurwitz")
            e = cyclozeta.zeta_cyclotomic(m, s, "euler", prime_limit=10 ** 6)
            d = abs(h.value - e.value)
            if d > worst:
                worst, worst_at = d, (m, s)
    dual_ok = worst <= 1e-8

    catalan = _odd_power_series(2, alternating=True)
    z4 = cyclozeta.zeta_cyclotomic(4, 2.0).value
    catalan_ok = abs(z4 - (math.pi ** 2 / 6.0) * catalan) <= 1e-9

    t_scan = time.monotonic()
    rows = cyclozeta.scan(350, 0.75)
    scan_dt = time.monotonic() - t_scan
    pattern_ok = all(r.zeta_value >= 1.44 for r in rows if r.phi >= 40)
    scan_ok = scan_dt <= 120.0 and pattern_ok

    dual_note = (
        "ok"
        if dual_ok
        else "FAILS: prime-truncated Euler product tail exceeds 1e-8 at prime_limit 1e6"
    )
    ok = dual_ok and catalan_ok and scan_ok
    return ok, (
        f"max|hurwitz-euler|={worst:.3e} at (m={worst_at[0]}, s={worst_at[1]}) "
        f"[tolerance 1e-8 -> {dual_note}], "
        f"zeta_K4(2) check {'ok' if catalan_ok else 'FAILS'}, "
        f"scan {len(rows)} rows in {scan_dt:.1f}s pattern {'ok' if pattern_ok else 'FAILS'}"
    )


def _crit_8_inequality_theorems() -> tuple[bool, str]:
    from . import zimmert
    bad = []
    for m in range(1, 31):
        for beta in (0.05, 0.1, 0.2):
            _, _, h1 = zimmert.satz4_check(m, beta)
            _, _, h2 = zimmert.min_norm_check(m, beta)
            if not h1:
                bad.append(("series", m, beta))
            if not h2:
                bad.append(("min-norm", m, beta))
    return not bad, f"violations: {bad if bad else 'none'} (m <= 30)"


def _crit_9_rogers_sanity() -> tuple[bool, str]:
    upper1 = rogers.sigma_upper_log(1)
    kappas = (24.0, 50.0, 100.0, 176.0, 400.0, 1000.0)
    thetas = (0.05, 0.1, 0.3)
    monotone = True
    u_max = 0.0
    for theta in thetas:
        prev = -math.inf
        for k in kappas:
            ctx = rogers.RogersContext.from_kappa(k, theta)
            f = rogers.f_lower(ctx).value
            if f <= prev:
                monotone = False
            prev = f
            u_max = max(u_max, rogers.u_threshold(ctx))
    ok = upper1 >= 0.0 and monotone and u_max <= 0.19
    return ok, (
        f"sigma_upper_log(1)={upper1:.4f}, f monotone in kappa: {monotone}, "
        f"max U on grid = {u_max:.4f}"
    )


def _crit_10_min_norms() -> tuple[bool, str]:
    from . import cyclozeta
    anchors = (
        cyclozeta.min_proper_ideal_norm(8) == 2
        and cyclozeta.min_proper_ideal_norm(5) == 5
        and cyclozeta.min_proper_ideal_norm(7) == 7
    )
    bounded = all(
        cyclozeta.min_proper_ideal_norm(m) <= 2 ** cyclozeta.euler_phi(m)
        for m in range(1, 351)
    )
    ok = anchors and bounded
    return ok, f"anchors (m=8,5,7 -> 2,5,7): {anchors}, norm <= 2^phi(m) up to 350: {bounded}"


_CRITERIA = (
    (1, "crossing degree for the criterion/GRH incompatibility", _crit_1_crossing),
    (2, "f value at the crossing dimension", _crit_2_f_value),
    (3, "ball threshold below parallelepiped threshold from n = 56", _crit_3_delta_comparison),
    (4, "asymptotic discriminant cap and the Serre-gap identity", _crit_4_asymptotic_cap),
    (5, "digamma-series limits at beta -> 0", _crit_5_zimmert_limits),
    (6, "zeta threshold constant and Poitou constants", _crit_6_threshold_constant),
    (7, "zeta engine: dual-method agreement, Catalan anchor, full scan", _crit_7_zeta_engine),
    (8, "inequality theorems hold for every small cyclotomic field", _crit_8_inequality_theorems),
    (9, "packing-bound sanity: positivity, monotonicity, root cap", _crit_9_rogers_sanity),
    (10, "minimal proper ideal norms", _crit_10_min_norms),
)


def run_acceptance() -> list[CriterionResult]:
    """Run every acceptance criterion over its full stated sweep; the gate
    has no other configuration."""
    out = []
    for cid, name, fn in _CRITERIA:
        t0 = time.monotonic()
        ok, detail = fn()
        out.append(CriterionResult(cid, name, ok, detail, time.monotonic() - t0))
    return out


# ------------------------------------------------------------------ main

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="normeuclid",
        description="Explicit bounds for the sphere-packing criterion for "
        "norm-Euclidean fields and Dedekind zeta scans for cyclotomic fields.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("rogers", help="packing-constant bounds at one dimension")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--theta", type=float, default=0.1)
    q.set_defaults(fn=_cmd_rogers)

    q = sub.add_parser("lenstra-crossing", help="first degree where the criterion "
                       "becomes incompatible with the GRH discriminant bound")
    q.add_argument("--theta", type=float, default=0.1)
    q.add_argument("--n-min", type=int, default=55000)
    q.add_argument("--n-max", type=int, default=70000)
    q.set_defaults(fn=_cmd_lenstra_crossing)

    q = sub.add_parser("lenstra-check", help="criterion verdicts for one field")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--log-disc", type=float, required=True)
    q.add_argument("--log-m", type=float, required=True)
    q.set_defaults(fn=_cmd_lenstra_check)

    q = sub.add_parser("cyclo-zeta", help="cyclotomic zeta value at one point")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--s", type=float, required=True)
    q.add_argument("--method", choices=("hurwitz", "euler"), default="hurwitz")
    q.add_argument("--prime-limit", type=int, default=10 ** 6,
                   help="prime cutoff for the Euler product (--method euler)")
    q.set_defaults(fn=_cmd_cyclo_zeta)

    q = sub.add_parser("cyclo-scan", help="zeta scan over m = 1..m_max")
    q.add_argument("--m-max", type=int, required=True)
    q.add_argument("--epsilon", type=float, required=True)
    q.add_argument("--out", type=str, default=None)
    q.add_argument("--svg", type=str, default=None)
    q.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="scan output format")
    q.set_defaults(fn=_cmd_cyclo_scan)

    q = sub.add_parser("zimmert", help="digamma series values at one beta")
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--beta", type=float, required=True)
    q.set_defaults(fn=_cmd_zimmert)

    q = sub.add_parser("zimmert-verify", help="check the two series inequalities "
                       "for one cyclotomic field")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--beta", type=float, required=True)
    q.set_defaults(fn=_cmd_zimmert_verify)

    q = sub.add_parser("constants", help="print the named constants")
    q.set_defaults(fn=_cmd_constants)

    q = sub.add_parser("reproduce", help="run the acceptance checks")
    q.set_defaults(fn=_cmd_reproduce)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, lenstra.NotFoundError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
