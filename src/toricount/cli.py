"""Command line surface: validate, constants, count, xfunction, localcheck.

Exit codes: 0 success, 1 failed checks or computation error, 2 unreadable
or malformed input, 3 budget refusal (a sieve or a scan past its cap).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .arith import BudgetExceededError, factor
from .cones import PolyCone, xfunction
from .corpus import NAMES, fan_from_dict, fan_json_path
from .counting import asymptotic_report
from .fan import validate_fan
from .localdata import local_integral, point_count_fp, qsigma_split
from .picard import PLFunction, picard_data
from .tamagawa import MIN_CUTOFF, theta

# what reading a fan file raises on a missing, unreadable or malformed input
_LOAD_ERRORS = (OSError, ValueError)


def _load_fan(path):
    """Fan from a JSON file path, or from a bundled corpus name."""
    if not os.path.exists(path) and path in NAMES:
        path = fan_json_path(path)
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    return fan_from_dict(data)


def _fail_parse(exc):
    print("error: %s" % exc, file=sys.stderr)
    return 2


def cmd_validate(args, fan):
    report = validate_fan(fan)
    if args.json:
        payload = {
            "ok": report.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in report.checks
            ],
        }
        print(json.dumps(payload, indent=1))
    else:
        print(report)
    return 0 if report.ok else 1


def cmd_constants(args, fan):
    if args.cutoff < MIN_CUTOFF:
        return _fail_parse("--cutoff must be >= %d, got %d" % (MIN_CUTOFF, args.cutoff))
    report = theta(fan, prime_cutoff=args.cutoff)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=1))
        return 0
    print("alpha = %s" % report.alpha)
    print("beta  = %d" % report.beta)
    print("k     = %d" % report.k)
    print("h     = %d" % report.h)
    if report.tau_interval is None:
        print("tau   : refused (nonsplit fan; see notes)")
    else:
        t = report.tau_interval
        print("tau   = %.9f  in [%.9f, %.9f]  (cutoff %d)" % (t.center, t.lo, t.hi, t.cutoff))
        print("theta = %.9f  in [%.9f, %.9f]" % (
            (report.theta_lo + report.theta_hi) / 2,
            report.theta_lo,
            report.theta_hi,
        ))
    for note in report.provenance:
        print("note: %s" % note)
    return 0


def _parse_schedule(text):
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = Fraction(part)
        except ZeroDivisionError:
            raise ValueError("B has a zero denominator, got %s" % part) from None
        if value <= 0:
            raise ValueError("B must be positive, got %s" % part)
        out.append(value)
    if not out:
        raise ValueError("empty schedule")
    return out


def cmd_count(args, fan):
    try:
        schedule = _parse_schedule(args.B_schedule)
    except ValueError as exc:
        return _fail_parse(exc)
    if args.cutoff < MIN_CUTOFF:
        return _fail_parse("--cutoff must be >= %d, got %d" % (MIN_CUTOFF, args.cutoff))
    if args.budget < 0:
        return _fail_parse("--budget must be >= 0, got %d" % args.budget)
    th = theta(fan, prime_cutoff=args.cutoff)
    if th.theta_lo is None:
        print("error: counting needs a split fan", file=sys.stderr)
        return 1
    report = asymptotic_report(
        fan,
        schedule,
        (th.theta_lo, th.theta_hi),
        strategy=args.strategy,
        fan_id=os.path.basename(args.path),
        budget=args.budget,
    )
    if args.out == "json":
        print(json.dumps(report.to_json_dict(), indent=1))
    else:
        sys.stdout.write(report.to_csv())
    return 0


def cmd_xfunction(args, fan):
    pd = picard_data(fan)
    xf = xfunction(PolyCone(pd.rank_K, pd.eff_generators_G))
    payload = xf.to_json_dict()
    payload["ambient_rank"] = pd.rank_K
    payload["generators"] = [list(g) for g in pd.eff_generators_G]
    payload["anticanonical"] = list(pd.anticanonical_G)
    payload["h"] = pd.h
    print(json.dumps(payload, indent=1))
    return 0


def cmd_localcheck(args, fan):
    p = args.prime
    s = args.s
    if p < 2 or factor(p) != {p: 1}:
        return _fail_parse("--prime must be a prime, got %d" % p)
    if s < 1 or args.truncation < 1:
        return _fail_parse("--s and --truncation must be >= 1")
    if not fan.is_split():
        print("error: localcheck needs a split fan", file=sys.stderr)
        return 1
    results = []

    q = qsigma_split(fan)
    results.append(("Q - 1 only has monomials of degree >= 2",
                    q.degree_ge_two_away_from_one()))

    phi = PLFunction((s,) * fan.nrays)
    li = local_integral(fan, p, phi, truncation=args.truncation)
    gap = li.closed_form - li.truncated
    results.append(("series vs closed form within certified tail",
                    0 <= gap <= li.tail_bound))

    pd = picard_data(fan)
    d, k = fan.dim, pd.rank_split
    u = Fraction(1, p**s)
    rhs = q.evaluate([u] * fan.nrays) / ((1 - u) ** d * (1 - u) ** k)
    results.append(("diagonal factorization into L-factors",
                    li.closed_form == rhs))

    density = point_count_fp(fan, p)
    results.append(("density * convergence factor = Q(1/p,...,1/p)",
                    density.euler_factor == q.evaluate([Fraction(1, p)] * fan.nrays)))

    print("prime %d, s = %d:" % (p, s))
    for name, ok in results:
        print("  %-48s %s" % (name, "PASS" if ok else "FAIL"))
    return 0 if all(ok for _, ok in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toricount",
        description="constants and point counts for complete toric varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="run the fan structure checks")
    pv.add_argument("path", help="fan JSON file or bundled corpus name")
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_validate)

    pc = sub.add_parser("constants", help="alpha, beta, tau, theta")
    pc.add_argument("path")
    pc.add_argument("--cutoff", type=int, default=10000)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_constants)

    pn = sub.add_parser("count", help="rational point counts and asymptotics")
    pn.add_argument("path")
    pn.add_argument("--B-schedule", dest="B_schedule", required=True)
    pn.add_argument(
        "--strategy", choices=["auto", "naive", "specialized"], default="auto"
    )
    pn.add_argument("--out", choices=["csv", "json"], default="csv")
    pn.add_argument("--cutoff", type=int, default=10000)
    pn.add_argument("--budget", type=int, default=50_000_000)
    pn.set_defaults(func=cmd_count)

    px = sub.add_parser("xfunction", help="dump the effective cone X-function")
    px.add_argument("path")
    px.add_argument("--json", action="store_true")
    px.set_defaults(func=cmd_xfunction)

    pl = sub.add_parser("localcheck", help="local identity suite at one prime")
    pl.add_argument("path")
    pl.add_argument("--prime", type=int, default=2)
    pl.add_argument("--s", type=int, default=2)
    pl.add_argument("--truncation", type=int, default=20)
    pl.set_defaults(func=cmd_localcheck)

    return parser


def main(argv=None):
    """Parse argv, load the fan, refuse it unless it is valid, run the command.

    Only `validate` runs on a fan that fails a check: it reports them.  A
    command's budget refusal exits 3 and its computation errors exit 1.
    """
    args = build_parser().parse_args(argv)
    try:
        fan = _load_fan(args.path)
        failed = [] if args.func is cmd_validate else validate_fan(fan).failed()
    except _LOAD_ERRORS as exc:
        return _fail_parse(exc)
    if failed:
        return _fail_parse(
            "invalid fan: %s check failed: %s" % (failed[0].name, failed[0].witness)
        )
    try:
        return args.func(args, fan)
    except BudgetExceededError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
