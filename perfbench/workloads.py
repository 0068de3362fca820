"""The four benchmark workloads.

A workload writes its fan files once per run, from the run's fan seed,
and draws the run's job from its argument seed: the list of CLI calls
that every pass of the run repeats.  Where the work of a call grows with
a drawn value, the value is paired with its mirror image in the band
(P and 3e5 - P, f*B and (2 - f)*B), so the work of a job hardly depends
on the seed.

After timing, `check_pass` checks every output of a pass; in a traced
pass, `layers` repeats the call's work as isolated public calls, one
span each.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import checks as C
import fans as F

RADIUS_CUTOFF = 100_000  # theta radii are reported as if certified at this cutoff
# small inputs for the isolated layer calls a workload's commands never make
SMALL_BOUND = 40
SMALL_SCHEDULE = [10, 100, 1000, 10_000]


@dataclass
class Call:
    input_id: str
    argv: list
    fan: str
    params: dict = field(default_factory=dict)

    @property
    def command(self):
        return self.argv[0]


@dataclass
class Result:
    call: Call
    code: object
    out: str
    err: str
    seconds: float
    error: str | None = None


def canonical_fans():
    """Every fan a workload may use, by name, before seeded relabelling."""
    from toricount.corpus import NAMES, fan, fan_to_dict

    out = {name: fan_to_dict(fan(name)) for name in NAMES}
    out["dp7"] = F.surface(F.DP7)
    out["p3"] = {
        "dim": 3,
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
        "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    }
    for name, (a, b) in PRODUCTS.items():
        out.setdefault(name, F.product(out[a], out[b]))
    return out


# Product fans and their factors: alpha and tau must be multiplicative.
PRODUCTS = {
    "p1xp1": ("p1", "p1"),
    "dp6xp1": ("dp6", "p1"),
    "dp6xp2": ("dp6", "p2"),
    "dp7xdp7": ("dp7", "dp7"),
    "dp6xdp6": ("dp6", "dp6"),
    "dp7xf0": ("dp7", "p1xp1"),
}
SPLIT_CORPUS = ("p1", "p2", "p1xp1", "hirzebruch1", "dp6")
NONSPLIT_CORPUS = ("p1-norm-one", "p1xp1-swap", "p2-threecycle")


class Workload:
    name = ""
    warmup_argv = ()

    def __init__(self, fan_rng, workdir, pinned, schemas):
        self.pinned = pinned
        self.schemas = schemas
        self.canonical = canonical_fans()
        self.fans = self.build(fan_rng)
        self.paths = F.write_fans(workdir, self.fans)
        self.warmup = self.call(*self.warmup_argv)

    def build(self, rng):
        raise NotImplementedError

    def call(self, command, fan, *args, **params):
        args = [str(a) for a in args]
        return Call(
            " ".join([command, fan] + args),
            [command, self.paths[fan]] + args,
            fan,
            params,
        )

    def reference(self, name):
        from toricount.corpus import NAMES, golden_constants

        if name in NAMES:
            return golden_constants(name)
        return self.pinned["constants"][name]

    def theta_radius(self, results):
        """Largest relative theta radius over the calls, scaled to RADIUS_CUTOFF.

        The certified tail shrinks like 1/cutoff, so radius * cutoff does
        not depend on the drawn cutoff; without the scaling the seed alone
        would move this metric.  A workload that certifies no theta reports
        1, the relative radius of an unbounded interval.
        """
        radii = []
        for r in results:
            try:
                theta = C.parse_json(r).get("theta")
            except ValueError:
                continue
            if theta:
                cutoff = r.call.params.get("cutoff", 10_000)
                radii.append(C.rel_radius(theta) * cutoff / RADIUS_CUTOFF)
        return max(radii) if radii else 1.0

    # --- traced layer calls -------------------------------------------------

    def load(self, tk, tr, call):
        with tr.span("corpus.load", call.input_id):
            with open(self.paths[call.fan], encoding="utf-8") as f:
                return tk.corpus.fan_from_dict(json.load(f))

    def theta_layers(self, tk, tr, call, fan, cutoff):
        with tr.span("picard.picard_data", call.input_id):
            tk.picard.picard_data(fan)
        with tr.span("cones.alpha", call.input_id):
            tk.cones.alpha(fan)
        if fan.is_split():
            with tr.span("tamagawa.tau", call.input_id, primes=_prime_count(cutoff)):
                tk.tamagawa.tau(fan, cutoff)


def _primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


@lru_cache(maxsize=None)
def _prime_count(n):
    return len(_primes_upto(n))


def _payloads(results, messages):
    """Parsed JSON of each result; a parse failure becomes its message."""
    out = []
    for i, r in enumerate(results):
        try:
            out.append(C.parse_json(r))
        except ValueError as exc:
            messages[i] = str(exc)
            out.append(None)
    return out


class Constants(Workload):
    """`constants --json --cutoff P` on split, product and nonsplit fans."""

    name = "constants"
    warmup_argv = ("constants", "p3", "--json", "--cutoff", 1000)
    SPLIT = SPLIT_CORPUS + ("dp7", "dp6xp1", "dp6xp2", "dp7xdp7")
    BAND = (100_000, 200_000)

    def build(self, rng):
        fans = {n: self.canonical[n] for n in SPLIT_CORPUS + NONSPLIT_CORPUS + ("p3",)}
        for n in ("dp7", "dp6xp1", "dp6xp2", "dp7xdp7"):
            fans[n] = F.relabel(self.canonical[n], rng)
        return fans

    def job(self, rng):
        P = rng.randint(*self.BAND)
        calls = []
        for n in self.SPLIT:
            for cutoff in (P, sum(self.BAND) - P):
                calls.append(
                    self.call("constants", n, "--json", "--cutoff", cutoff, cutoff=cutoff, structure=cutoff == P)
                )
        for n in NONSPLIT_CORPUS:
            calls.append(self.call("constants", n, "--json", "--cutoff", P, cutoff=P))
        return calls

    def check_pass(self, results):
        messages = [None] * len(results)
        payloads = _payloads(results, messages)
        by_key = {}
        for i, (r, p) in enumerate(zip(results, payloads)):
            if p is None:
                continue
            by_key[(r.call.fan, r.call.params["cutoff"])] = (i, p)
            messages[i] = self.schemas.check("constants", p) or C.check_constants(
                p, self.reference(r.call.fan)
            )
        for (n, cutoff), (i, p) in by_key.items():
            if messages[i] or n not in PRODUCTS:
                continue
            a, b = PRODUCTS[n]
            if (a, cutoff) not in by_key or (b, cutoff) not in by_key:
                continue
            pa, pb = by_key[(a, cutoff)][1], by_key[(b, cutoff)][1]
            if Fraction(p["alpha"]) != Fraction(pa["alpha"]) * Fraction(pb["alpha"]):
                messages[i] = "alpha(%s) != alpha(%s) * alpha(%s)" % (n, a, b)
            elif p["k"] != pa["k"] + pb["k"]:
                messages[i] = "k(%s) != k(%s) + k(%s)" % (n, a, b)
            elif not C.meets(
                (p["tau"]["lo"], p["tau"]["hi"]),
                (pa["tau"]["lo"] * pb["tau"]["lo"], pa["tau"]["hi"] * pb["tau"]["hi"]),
            ):
                messages[i] = "tau(%s) misses tau(%s) * tau(%s)" % (n, a, b)
        return messages

    def layers(self, tk, tr, call, result):
        fan = self.load(tk, tr, call)
        cid, cutoff = call.input_id, call.params["cutoff"]
        if fan.is_split():
            local_layers(tk, tr, cid, fan, cutoff)
        self.theta_layers(tk, tr, call, fan, cutoff)
        if not call.params.get("structure"):
            return
        # once per split fan: the layers no constants command composes,
        # so that every layer is timed on this workload's own fans
        structure_layers(tk, tr, cid, fan)
        if fan.dim <= 2:
            scan_layers(tk, tr, cid, fan, [SMALL_BOUND])
        if call.fan in CountSieve.SCHEDULES:
            sieve_layers(tk, tr, cid, fan, SMALL_SCHEDULE, C.parse_json(result)["theta"])


def local_layers(tk, tr, cid, fan, cutoff):
    """The Euler-factor layers under tau: Q and Card(X(F_p)) near the cutoff."""
    with tr.span("localdata.qsigma", cid) as c:
        c["monomials"] = len(tk.localdata.qsigma_split(fan).monomials)
    primes = [p for p in _primes_upto(cutoff) if p > cutoff - 2000]
    with tr.span("localdata.point_count_fp", cid, fp_primes=len(primes)):
        for p in primes:
            tk.localdata.point_count_fp(fan, p)


def scan_layers(tk, tr, cid, fan, bounds):
    """The budget estimate and naive scan at each bound, then heights on a sample."""
    for B in bounds:
        with tr.span("counting.estimate", cid):
            est = tk.counting.candidate_estimate(fan, B)
        with tr.span("counting.scan", cid, candidates=est, orthant_candidates=est * 2**fan.dim) as c:
            points = tk.counting.enumerate_naive(fan, B)
            c["points"] = len(points)
    picked = random.Random(cid).sample(points, min(200, len(points)))
    with tr.span("heights.anticanonical_height", cid, height_points=len(picked)):
        for x in picked:
            tk.heights.anticanonical_height(fan, x)


def sieve_layers(tk, tr, cid, fan, bounds, theta):
    """Closed-form counts along a schedule, then the asymptotic report on them."""
    with tr.span("counting.sieve", cid):
        counts = [tk.counting.count_points(fan, B) for B in bounds]
    with tr.span("counting.report", cid):
        tk.counting.asymptotic_report(fan, bounds, (theta["lo"], theta["hi"]), counts=counts)


def cone_layers(tk, tr, cid, fan):
    """What `xfunction` composes, on the effective cone of a split fan."""
    with tr.span("linalg.snf", cid):
        tk.linalg.smith_normal_form([list(r) for r in fan.rays])
    gens = tk.picard.picard_data(fan).eff_generators
    k = len(gens[0])
    with tr.span("dd.extreme_rays", cid) as c:
        c["rays_out"] = len(tk.dd.extreme_rays([list(g) for g in gens], k)[0])
    cone = tk.cones.PolyCone(k, gens)
    with tr.span("cones.xfunction", cid) as c:
        c["simplices"] = len(tk.cones.xfunction(cone).terms)


def structure_layers(tk, tr, cid, fan):
    """The layers of the geometry workload, on one split fan.

    Lets a constants run measure them too; local_integral sums over a box
    of side 41 in N, so it only runs on fans of dimension <= 2.
    """
    with tr.span("fan.validate", cid):
        tk.fan.validate_fan(fan)
    cone_layers(tk, tr, cid, fan)
    if fan.dim <= 2:
        s = max(sum(abs(x) for x in r) for r in fan.rays)
        with tr.span("localdata.local_integral", cid):
            tk.localdata.local_integral(fan, 3, tk.picard.PLFunction((s,) * fan.nrays))


class Geometry(Workload):
    """Exact structure only: validate, xfunction, localcheck, nonsplit constants."""

    name = "geometry"
    warmup_argv = ("xfunction", "p3")
    # Star subdivisions are kept only when exactly one of their invariant
    # curves has D^2 >= 0.  Triangulation time is heavy-tailed over random
    # subdivisions (13 ms to 3 s at 11 rays) and grows with the number of
    # negative curves; this rule keeps every surface moderate, so the work
    # of a pass hardly depends on the seed.
    RAYS = (9, 10, 11)
    PER_SLOT = 2
    PRODUCTS4 = ("dp6xp2", "dp7xdp7", "dp6xdp6", "dp7xf0")

    def __init__(self, *args):
        self._xf_verdicts = {}
        super().__init__(*args)

    def build(self, rng):
        fans = {n: self.canonical[n] for n in NONSPLIT_CORPUS + ("p3",)}
        for n in self.PRODUCTS4:
            fans[n] = F.relabel(self.canonical[n], rng)
        self.surfaces = []
        for base_name, base in (("p2", F.P2), ("f0", F.F0)):
            for nrays in self.RAYS:
                kept = 0
                while kept < self.PER_SLOT:
                    data = F.star_subdivision(base, nrays, rng)
                    if F.nonnegative_curves(data) == 1:
                        name = "%s-%d-%d" % (base_name, nrays, kept)
                        fans[name] = data
                        self.surfaces.append(name)
                        kept += 1
        return fans

    def job(self, rng):
        calls = []
        for n in self.surfaces:
            s = F.max_ray_norm(self.fans[n])
            p = rng.choice((2, 3, 5, 7))
            calls.append(self.call("validate", n, "--json"))
            calls.append(self.call("xfunction", n))
            # --s must reach the largest ray norm: with the default --s 2,
            # localcheck ends in an uncaught ValueError on these fans.
            calls.append(self.call("localcheck", n, "--prime", p, "--s", s, prime=p, s=s))
        for n in self.PRODUCTS4:
            calls.append(self.call("validate", n, "--json"))
            calls.append(self.call("xfunction", n))
        for n in NONSPLIT_CORPUS:
            calls.append(self.call("constants", n, "--json"))
        return calls

    def check_pass(self, results):
        messages = [None] * len(results)
        for i, r in enumerate(results):
            cmd = r.call.command
            if cmd == "localcheck":
                lines = [l for l in r.out.splitlines() if l.startswith("  ")]
                failing = [l.strip() for l in lines if not l.rstrip().endswith("PASS")]
                if r.error or r.code != 0 or len(lines) != 4 or failing:
                    messages[i] = "localcheck: %s" % (
                        r.error or "; ".join(failing) or r.err.strip()[-200:] or "exit %s" % r.code
                    )
                continue
            try:
                p = C.parse_json(r)
            except ValueError as exc:
                messages[i] = str(exc)
                continue
            if cmd == "validate":
                messages[i] = self.schemas.check("validate", p) or (
                    None if p["ok"] else "validate reports a failed check"
                )
            elif cmd == "constants":
                messages[i] = self.schemas.check("constants", p) or C.check_constants(
                    p, self.reference(r.call.fan)
                )
            else:
                key = (r.call.fan, r.out)
                if key not in self._xf_verdicts:
                    self._xf_verdicts[key] = self.schemas.check("xfunction", p) or self.check_xfunction(
                        r.call.fan, p
                    )
                messages[i] = self._xf_verdicts[key]
        return messages

    def check_xfunction(self, name, payload):
        """Compare against an independent (revlex) triangulation of the same cone."""
        from toricount.cones import ConeRationalFunction, PolyCone, xfunction

        k = payload["ambient_rank"]
        gens = payload["generators"]
        got = ConeRationalFunction.from_json_dict(payload, k)
        s = [Fraction(sum(g[i] for g in gens)) for i in range(k)]
        want = xfunction(PolyCone(k, gens), order="revlex")
        if got.evaluate(s) != want.evaluate(s):
            return "xfunction(%s) disagrees with the revlex triangulation" % name
        if name in PRODUCTS:
            a, b = PRODUCTS[name]
            anti = [Fraction(x) for x in payload["anticanonical"]]
            expect = Fraction(self.reference(a)["alpha"]) * Fraction(self.reference(b)["alpha"])
            if got.evaluate(anti) / payload["h"] != expect:
                return "X(%s) at -K is not alpha(%s) * alpha(%s)" % (name, a, b)
        return None

    def layers(self, tk, tr, call, result):
        fan = self.load(tk, tr, call)
        cmd, cid = call.command, call.input_id
        if cmd == "validate":
            with tr.span("fan.validate", cid):
                tk.fan.validate_fan(fan)
        elif cmd == "xfunction":
            cone_layers(tk, tr, cid, fan)
        elif cmd == "localcheck":
            p, s = call.params["prime"], call.params["s"]
            with tr.span("localdata.qsigma", cid) as c:
                c["monomials"] = len(tk.localdata.qsigma_split(fan).monomials)
            with tr.span("localdata.local_integral", cid):
                tk.localdata.local_integral(fan, p, tk.picard.PLFunction((s,) * fan.nrays))
            with tr.span("picard.picard_data", cid):
                tk.picard.picard_data(fan)
            with tr.span("localdata.point_count_fp", cid, fp_primes=1):
                tk.localdata.point_count_fp(fan, p)
        else:
            self.theta_layers(tk, tr, call, fan, 10_000)


class CountScan(Workload):
    """`count --B-schedule B1,B2` on fans that only the naive scan counts."""

    name = "count-scan"
    warmup_argv = ("count", "p1xp1", "--B-schedule", 100, "--strategy", "naive", "--out", "json")
    BOUNDS = {"hirzebruch1": 1500, "dp6": 400, "dp7": 400}
    SPREAD = 0.1

    def build(self, rng):
        return {n: self.canonical[n] for n in list(self.BOUNDS) + ["p1xp1"]}

    def job(self, rng):
        calls = []
        for n, B0 in self.BOUNDS.items():
            f = rng.uniform(1 - self.SPREAD, 1)
            bs = [round(f * B0), round((2 - f) * B0)]
            calls.append(
                self.call("count", n, "--B-schedule", "%d,%d" % tuple(bs), "--out", "json", bounds=bs)
            )
        return calls

    def check_pass(self, results):
        messages = [None] * len(results)
        payloads = _payloads(results, messages)
        for i, (r, p) in enumerate(zip(results, payloads)):
            if p is None:
                continue
            table = self.pinned["count_scan"][r.call.fan]["table"]
            want = [C.count_at(table, B) for B in r.call.params["bounds"]]
            messages[i] = self.schemas.check("count", p) or C.check_count(
                p, want, self.reference(r.call.fan)
            )
        return messages

    def layers(self, tk, tr, call, result):
        fan = self.load(tk, tr, call)
        cid = call.input_id
        self.theta_layers(tk, tr, call, fan, 10_000)
        local_layers(tk, tr, cid, fan, 10_000)
        scan_layers(tk, tr, cid, fan, call.params["bounds"])
        # the layers no count command composes, timed on this workload's fans
        structure_layers(tk, tr, cid, fan)
        sieve_fan = tk.corpus.fan_from_dict(self.fans["p1xp1"])
        sieve_layers(tk, tr, cid, sieve_fan, SMALL_SCHEDULE, self.reference("p1xp1")["theta"])


class CountSieve(Workload):
    """`count p1|p2|p1xp1` on 4-point schedules: closed-form sieves plus the fit."""

    name = "count-sieve"
    warmup_argv = ("count", "hirzebruch1", "--B-schedule", "2,5,20,200", "--out", "json")
    # top of the schedule, and the powers of ten below it for the other points
    SCHEDULES = {"p1": (10**12, (8, 5, 2)), "p2": (10**18, (15, 10, 5)), "p1xp1": (10**11, (8, 5, 2))}
    # The top is drawn from X * (490 + 2i) / 500, i < GRID (within 2% of X);
    # i and GRID-1-i pair up.  The largest sieve sets peak_rss_mb, so a
    # wider band would let the seed alone move that metric.
    GRID = 11

    def __init__(self, *args):
        self._naive = {}
        super().__init__(*args)

    def build(self, rng):
        return {n: self.canonical[n] for n in list(self.SCHEDULES) + ["hirzebruch1"]}

    @classmethod
    def schedule(cls, name, i):
        top_base, drops = cls.SCHEDULES[name]
        top = top_base * (490 + 2 * i) // 500
        return [top // 10**e for e in drops] + [top]

    def job(self, rng):
        i = rng.randrange(self.GRID)
        calls = []
        for n in self.SCHEDULES:
            for j in (i, self.GRID - 1 - i):
                bs = self.schedule(n, j)
                calls.append(
                    self.call(
                        "count", n, "--B-schedule", ",".join(map(str, bs)), "--out", "json", bounds=bs
                    )
                )
        return calls

    def check_pass(self, results):
        from toricount.corpus import fan_from_dict
        from toricount.counting import count_points

        messages = [None] * len(results)
        payloads = _payloads(results, messages)
        for i, (r, p) in enumerate(zip(results, payloads)):
            if p is None:
                continue
            n, bs = r.call.fan, r.call.params["bounds"]
            want = [self.pinned["count_sieve"][n][str(B)] for B in bs]
            key = (n, bs[0])
            if key not in self._naive:
                self._naive[key] = count_points(fan_from_dict(self.fans[n]), bs[0], strategy="naive")
            messages[i] = self.schemas.check("count", p) or C.check_count(p, want, self.reference(n))
            if not messages[i] and p["counts"][0] != self._naive[key]:
                messages[i] = "N(%d) = %d, the naive scan gives %d" % (bs[0], p["counts"][0], self._naive[key])
        return messages

    def layers(self, tk, tr, call, result):
        fan = self.load(tk, tr, call)
        cid = call.input_id
        self.theta_layers(tk, tr, call, fan, 10_000)
        sieve_layers(tk, tr, cid, fan, call.params["bounds"], C.parse_json(result)["theta"])


WORKLOADS = {w.name: w for w in (Constants, Geometry, CountScan, CountSieve)}
