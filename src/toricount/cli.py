"""Command line surface: validate, constants, count, xfunction, localcheck.

Exit codes: 0 success, 1 failed checks or computation error, 2 unreadable
or malformed input, 3 budget refusal (a sieve, a scan, a torsor count or a
local sum past its cap).

Each call reads its fan file, a path or else a bundled corpus name, so an
edited file is seen by the next call; the bytes are decoded into a Fan
once per content.  What depends on the fan's value alone is not redone
either: `validate_fan`, `theta` and the `constants --json` text are
cached per fan value.  The argument parser is built once per process, and
a parse is memoized per argv.  A warm `count` also reuses the counter
chosen for the fan and strategy, and the torsor plan's counting context
(its table of smallest prime factors and its Moebius memos) while the
schedule's largest B is at most the one it was built at and its memo of
Moebius sums has room; each bound is still counted.

This module imports only what every command uses (arith, corpus, fan).
A command reaches its own modules through the package, as in
`toricount.tamagawa.theta`, which imports them on first use: a fresh
process that validates a fan never loads the counters or the Euler
products.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

import toricount

from .arith import DEFAULT_BUDGET, PRIMALITY_LIMIT, STRATEGIES, BudgetExceededError, is_prime
from .corpus import NAMES, fan_from_bytes, fan as corpus_fan
from .fan import validate_fan

# --cutoff is still read and checked, but tau no longer depends on it
MIN_CUTOFF = 100

# what reading a fan file raises on a missing, unreadable or malformed input
_LOAD_ERRORS = (OSError, ValueError)


def _load_fan(path):
    """Fan from a JSON file path, or from a bundled corpus name.

    A file at `path` wins over the corpus fan of that name.  The file is
    read on every call, so an edited fan is seen by the next one; its
    bytes go through `fan_from_bytes`, which decodes each content once.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except FileNotFoundError:
        if path not in NAMES:
            raise
        return corpus_fan(path)
    return fan_from_bytes(raw)


def _json_text(value, indent="\n"):
    """json.dumps(value, indent=1), for JSON values whose dict keys are str.

    An indent turns the json module's C encoder off, and its Python one
    costs a tenth of a warm `count --out json`.  This writes the same text
    from the C string escaper and the int and float reprs, with json's
    spellings of NaN and the infinities.
    """
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return "NaN" if value != value else _INFINITIES.get(value) or float.__repr__(value)
    inner = indent + " "
    if isinstance(value, (list, tuple)):
        items = [_json_text(v, inner) for v in value]
        return "[%s%s%s]" % (inner, ("," + inner).join(items), indent) if items else "[]"
    if isinstance(value, dict):
        if any(type(k) is not str for k in value):
            raise TypeError("JSON object keys must be str here")
        items = [_escape(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{%s%s%s}" % (inner, ("," + inner).join(items), indent) if items else "{}"
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


_escape = json.encoder.encode_basestring_ascii
_INFINITIES = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


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
        print(_json_text(payload))
    else:
        print(report)
    return 0 if report.ok else 1


def _refuse_cutoff(cutoff):
    """Exit code 2, after its message, for a --cutoff below MIN_CUTOFF; else None."""
    if cutoff < MIN_CUTOFF:
        return _fail_parse("--cutoff must be >= %d, got %d" % (MIN_CUTOFF, cutoff))


@lru_cache(maxsize=None)
def _constants_json(fan):
    """`constants --json` text of theta's report, rendered once per report.

    theta shares one frozen report per fan value, so this is keyed by the
    fan, which hashes far faster than the report's exact tau enclosure.
    """
    return _json_text(toricount.tamagawa.theta(fan).to_json_dict())


def cmd_constants(args, fan):
    if _refuse_cutoff(args.cutoff):
        return 2
    if args.json:
        print(_constants_json(fan))
        return 0
    report = toricount.tamagawa.theta(fan)
    print("alpha = %s" % report.alpha)
    print("beta  = %d" % report.beta)
    print("k     = %d" % report.k)
    print("h     = %d" % report.h)
    if report.tau_interval is None:
        print("tau   : refused (nonsplit fan; see notes)")
    else:
        t = report.tau_interval
        print("tau   = %.9f  in [%.17g, %.17g]  (P0 %d, N %d)" % (
            t.center, t.lo, t.hi, t.cutoff, t.terms))
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
    if _refuse_cutoff(args.cutoff):
        return 2
    if args.budget < 0:
        return _fail_parse("--budget must be >= 0, got %d" % args.budget)
    th = toricount.tamagawa.theta(fan)
    report = toricount.counting.asymptotic_report(
        fan,
        schedule,
        (th.theta_lo, th.theta_hi),
        strategy=args.strategy,
        fan_id=os.path.basename(args.path),
        budget=args.budget,
    )
    if args.out == "json":
        print(_json_text(report.to_json_dict()))
    else:
        sys.stdout.write(report.to_csv())
    return 0


def cmd_xfunction(args, fan):
    pd = toricount.picard.picard_data(fan)
    cone = toricount.cones.PolyCone(pd.rank_K, pd.eff_generators_G)
    xf = toricount.cones.xfunction(cone)
    payload = xf.to_json_dict()
    payload["ambient_rank"] = pd.rank_K
    payload["generators"] = [list(g) for g in pd.eff_generators_G]
    payload["anticanonical"] = list(pd.anticanonical_G)
    payload["h"] = pd.h
    print(_json_text(payload))
    return 0


def cmd_localcheck(args, fan):
    p = args.prime
    s = args.s
    if p >= PRIMALITY_LIMIT:
        return _fail_parse("--prime must be below %d, got %d" % (PRIMALITY_LIMIT, p))
    if not is_prime(p):
        return _fail_parse("--prime must be a prime, got %d" % p)
    if s < 1 or args.truncation < 1:
        return _fail_parse("--s and --truncation must be >= 1")
    fan.require_split("localcheck")
    # Q, then local_integral, each refuse over their caps before any work
    q = toricount.localdata.qsigma_split(fan)
    phi = toricount.picard.PLFunction((s,) * fan.nrays)
    li = toricount.localdata.local_integral(fan, p, phi, truncation=args.truncation)
    results = [("Q - 1 only has monomials of degree >= 2", q.degree_ge_two_away_from_one())]

    gap = li.closed_form - li.truncated
    results.append(("series vs closed form within certified tail",
                    0 <= gap <= li.tail_bound))

    # the closed form is the cone sum, so this checks Q against it
    d, k = fan.dim, fan.nrays - fan.dim
    u = Fraction(1, p**s)
    rhs = q.evaluate([u] * fan.nrays) / ((1 - u) ** d * (1 - u) ** k)
    results.append(("diagonal factorization into L-factors",
                    li.closed_form == rhs))

    density = toricount.localdata.point_count_fp(fan, p)
    results.append(("density * convergence factor = Q(1/p,...,1/p)",
                    density.euler_factor == q.evaluate([Fraction(1, p)] * fan.nrays)))

    print("prime %d, s = %d:" % (p, s))
    for name, ok in results:
        print("  %-48s %s" % (name, "PASS" if ok else "FAIL"))
    return 0 if all(ok for _, ok in results) else 1


_CUTOFF_HELP = (
    "accepted for compatibility and checked to be >= %d; it no longer changes "
    "the result: tau is the zeta-factored Euler product, whose prime bound P0 "
    "is chosen from the fan and reported as tau.cutoff" % MIN_CUTOFF
)


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
    pc.add_argument("--cutoff", type=int, default=10000, help=_CUTOFF_HELP)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_constants)

    pn = sub.add_parser("count", help="rational point counts and asymptotics")
    pn.add_argument("path")
    pn.add_argument("--B-schedule", dest="B_schedule", required=True)
    pn.add_argument("--strategy", choices=STRATEGIES, default="auto")
    pn.add_argument("--out", choices=["csv", "json"], default="csv")
    pn.add_argument("--cutoff", type=int, default=10000, help=_CUTOFF_HELP)
    pn.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
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


@lru_cache(maxsize=1)
def _parser():
    """The parser, built once per process: parse_args leaves it unchanged."""
    return build_parser()


# distinct argvs a process keeps parsed: a workload's few dozen, with room
PARSED_ARGVS = 64


@lru_cache(maxsize=PARSED_ARGVS)
def _parsed(argv):
    """vars of `_parser().parse_args(argv)`, parsed once per argv tuple.

    Parsing is a pure function of the argv.  A refused argv, or -h,
    raises SystemExit, which is not cached: its usage lines, errors and
    help are argparse's own on every call.
    """
    return vars(_parser().parse_args(list(argv)))


def _parse(argv):
    """The namespace `_parser().parse_args(argv)` gives, a fresh one per call."""
    return argparse.Namespace(**_parsed(tuple(argv)))


def main(argv=None):
    """Parse argv, load the fan, refuse it unless it is valid, run the command.

    Only `validate` runs on a fan that fails a check: it reports them.  A
    command's budget refusal exits 3 and its computation errors exit 1.
    """
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        fan = _load_fan(args.path)
        if args.func is not cmd_validate:
            validate_fan(fan).require()
    except _LOAD_ERRORS as exc:
        return _fail_parse(exc)
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
