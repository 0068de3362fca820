"""Exact enumeration of bounded-height torus points and asymptotics.

The naive enumerator is provably complete: the anticanonical PL function
satisfies phi(n) >= |n|_1 / w with w = max_j |e_j|_1, which forces

    prod_i max(num_i, den_i)^2 <= B^w

for every point of height <= B (the finite places bound valuations, the
real place bounds magnitudes, and every local factor is >= 1).  Reduced
fractions are scanned inside that product cap and filtered by the exact
height of heights.HeightEvaluator, one rule for nef and non-nef fans
alike.  One scan core yields the positive-orthant survivors: counting
adds 2^d per survivor and builds no points, enumeration expands each
into its 2^d signed TorusPoints.  Specialized closed-form counters exist
for the registered fans where the naive cap is far too coarse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from itertools import product as iter_product

from .arith import euler_phi_table, iroot, mobius_table
from .fan import cone_linear_form
from .heights import HeightEvaluator, TorusPoint
from .picard import anticanonical, picard_data

DEFAULT_BUDGET = 50_000_000
SIEVE_CAP = 2_000_000


class BudgetExceededError(RuntimeError):
    def __init__(self, estimate, budget):
        super().__init__(
            "counting would visit ~%s candidates (budget %d)" % (estimate, budget)
        )
        self.estimate = estimate
        self.budget = budget


def _product_cap(fan, B):
    """The cap on prod_i max(num_i, den_i) over points of height <= B."""
    bound = Fraction(B)
    if bound < 1:
        return 0
    w = max(sum(abs(x) for x in r) for r in fan.rays)
    # prod max_i <= B^{w/2}, taken as the square root of B^w to stay exact
    return iroot(bound**w, 2)


def _sieve_length(n):
    """n, unless a sieve of length n would pass SIEVE_CAP."""
    if n > SIEVE_CAP:
        # a huge n is reported as inf: str() refuses ints past 4300 digits
        raise BudgetExceededError(n if n < 10**18 else float("inf"), SIEVE_CAP)
    return n


def _coords_by_max(cap):
    """Positive reduced fractions a/b grouped by max(a, b), as (a, b) pairs."""
    groups = {1: [(1, 1)]}
    for m in range(2, cap + 1):
        pairs = []
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                pairs.append((a, m))
        for b in range(1, m):
            if math.gcd(m, b) == 1:
                pairs.append((m, b))
        groups[m] = pairs
    return groups


def _anticanonical_forms(fan):
    """Per-cone linear forms of phi_Sigma, plus a convexity certificate.

    When phi_Sigma is convex (anticanonical class nef) it equals the max
    of its cone forms everywhere, which gives the scan its axis caps.
    """
    ones = (1,) * fan.nrays
    forms = [cone_linear_form(fan, ci, ones) for ci in range(len(fan.max_cones))]
    convex = all(
        max(sum(m[i] * r[i] for i in range(fan.dim)) for m in forms) == 1
        for r in fan.rays
    )
    return forms, convex


def _scan_plan(fan, B):
    """(product cap, per-coordinate caps) of the scan.

    Every coordinate obeys max(num_i, den_i) <= product cap.  For a convex
    phi the height also dominates the pairwise form max, and with
    delta = m_sigma - m_tau supported on axis i alone the product formula
    leaves H(x) >= max(num, den)(x_i^{delta_i}), so max(num_i, den_i) <=
    B^{1/delta_i}: complete by proof, and much tighter than the product
    cap on the surfaces.  Refuses plans whose sieve would pass SIEVE_CAP.
    """
    cap = _product_cap(fan, B)
    forms, convex = _anticanonical_forms(fan)
    d = fan.dim
    caps = [cap] * d
    if convex:
        for i in range(d):
            e = 0
            for ma in forms:
                for mb in forms:
                    delta = [ma[t] - mb[t] for t in range(d)]
                    if delta[i] > 0 and all(delta[t] == 0 for t in range(d) if t != i):
                        e = max(e, delta[i])
            if e > 0:
                caps[i] = min(cap, iroot(Fraction(B), e))
    _sieve_length(max(caps))
    return cap, caps


def candidate_estimate(fan, B):
    """Exact number of positive-orthant candidate tuples the scan visits."""
    cap, coord_caps = _scan_plan(fan, B)
    return _candidate_count(cap, coord_caps)


def _candidate_count(cap, coord_caps):
    """Tuples of reduced fractions under the product and coordinate caps."""
    if cap <= 0:
        return 0
    sieve_size = max(coord_caps)
    phi = euler_phi_table(sieve_size)
    # sizes[m] = number of positive reduced fractions with max(num, den) = m
    sizes = [0, 1] + [2 * phi[m] for m in range(2, sieve_size + 1)]
    prefix = list(accumulate(sizes))
    d = len(coord_caps)

    @lru_cache(maxsize=None)
    def tuples(i, P):
        if i == d:
            return 1
        lim = min(P, coord_caps[i])
        if i == d - 1:
            return prefix[lim]
        return sum(sizes[m] * tuples(i + 1, P // m) for m in range(1, lim + 1))

    return tuples(0, cap)


def _scan(fan, B, budget):
    """Yield (pairs, num, den) for each positive-orthant point of height <= B.

    pairs are the coordinates as reduced (a_i, b_i) with x_i = a_i / b_i,
    num / den is the exact anticanonical height, and the order is
    deterministic.  Refuses scans whose exact candidate count exceeds the
    budget.
    """
    if not fan.is_split():
        raise ValueError("counting needs a split fan")
    bound = Fraction(B)
    if bound < 1:
        return
    cap, coord_caps = _scan_plan(fan, B)
    estimate = _candidate_count(cap, coord_caps)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)

    d = fan.dim
    groups = _coords_by_max(max(coord_caps))
    height = HeightEvaluator(fan, anticanonical(fan)).height
    bnum, bden = bound.numerator, bound.denominator

    def rec(i, cap_left, pairs):
        lim = min(cap_left, coord_caps[i])
        for m in range(1, lim + 1):
            for pair in groups[m]:
                pairs.append(pair)
                if i + 1 == d:
                    hn, hd = height(pairs)
                    if hn * bden <= bnum * hd:
                        yield tuple(pairs), hn, hd
                else:
                    yield from rec(i + 1, cap_left // m, pairs)
                pairs.pop()

    yield from rec(0, cap, [])


def enumerate_naive(fan, B, budget=DEFAULT_BUDGET, with_heights=False):
    """Complete list of torus points with anticanonical height <= B.

    Expands each point the scan keeps into its 2^d sign patterns (a sign
    never changes any local height).  Deterministic order.  Refuses scans
    whose exact candidate count exceeds the budget.
    """
    signs = list(iter_product((1, -1), repeat=fan.dim))
    out = []
    for pairs, hn, hd in _scan(fan, B, budget):
        h = Fraction(hn, hd)
        for sign in signs:
            pt = TorusPoint([Fraction(s * a, b) for s, (a, b) in zip(sign, pairs)])
            out.append((pt, h) if with_heights else pt)
    return out


# ---------------------------------------------------------------------------
# specialized counters


def count_p1(B) -> int:
    """Coprime-pair sieve: points +-a/b with max(|a|, b)^2 <= B."""
    bound = Fraction(B)
    if bound < 1:
        return 0
    s = _sieve_length(iroot(bound, 2))
    phi = euler_phi_table(s)
    coprime_pairs = 2 * sum(phi[1 : s + 1]) - 1
    return 2 * coprime_pairs


def count_p2(B) -> int:
    """Primitive-triple sieve: nonzero (z0, z1, z2), gcd 1, max^3 <= B."""
    bound = Fraction(B)
    if bound < 1:
        return 0
    m = _sieve_length(iroot(bound, 3))
    mu = mobius_table(m)
    triples = sum(mu[k] * (m // k) ** 3 for k in range(1, m + 1))
    return 4 * triples


def count_p1xp1(B) -> int:
    """Sorted convolution of two P^1 height multisets (H1 * H2 <= B)."""
    bound = Fraction(B)
    if bound < 1:
        return 0
    s = _sieve_length(iroot(bound, 2))
    phi = euler_phi_table(s)
    # P^1 points with height exactly m^2: 2 for m = 1, else 4*phi(m)
    npts = [0, 2] + [4 * phi[m] for m in range(2, s + 1)]
    prefix = list(accumulate(npts))
    total = 0
    for m1 in range(1, s + 1):
        m2_max = iroot(bound / (m1 * m1), 2)
        total += npts[m1] * prefix[min(m2_max, s)]
    return total


SPECIALIZED = {
    "p1": count_p1,
    "p2": count_p2,
    "p1xp1": count_p1xp1,
}


def enumerate_specialized(fan_id, B) -> int:
    """Exact N(B) for a registered fan id."""
    if fan_id not in SPECIALIZED:
        raise KeyError(
            "no specialized enumerator for %r (have %s)"
            % (fan_id, sorted(SPECIALIZED))
        )
    return SPECIALIZED[fan_id](B)


def specialized_id_for(fan):
    """Registered id of the fan, matched on exact ray and cone sets."""
    rays = set(fan.rays)
    cones = {frozenset(c) for c in fan.max_cones}
    if fan.dim == 1 and rays == {(1,), (-1,)}:
        return "p1"
    if fan.dim == 2 and rays == {(1, 0), (0, 1), (-1, -1)} and len(cones) == 3:
        return "p2"
    if fan.dim == 2 and rays == {(1, 0), (0, 1), (-1, 0), (0, -1)} and len(cones) == 4:
        return "p1xp1"
    return None


def count_points(fan, B, strategy="auto", budget=DEFAULT_BUDGET):
    """N(B) by the requested strategy ("auto", "naive", "specialized").

    "auto" uses the registered sieve when the fan has one and the naive
    scan otherwise.
    """
    if strategy not in ("auto", "naive", "specialized"):
        raise ValueError("unknown strategy %r" % strategy)
    fid = None if strategy == "naive" else specialized_id_for(fan)
    if fid is not None:
        return enumerate_specialized(fid, B)
    if strategy == "specialized":
        raise ValueError("fan is not registered for specialized counting")
    return 2**fan.dim * sum(1 for _ in _scan(fan, B, budget))


# ---------------------------------------------------------------------------
# asymptotic comparison


@dataclass
class CountReport:
    fan_id: str
    strategy: str
    schedule: list
    counts: list
    predicted: list
    ratios: list
    k: int
    theta_lo: float
    theta_hi: float
    regression: dict = field(default_factory=dict)
    provenance: list = field(default_factory=list)

    def to_csv(self):
        lines = ["B,N,predicted,ratio"]
        for b, n, p, r in zip(self.schedule, self.counts, self.predicted, self.ratios):
            lines.append("%s,%d,%.6f,%.6f" % (b, n, p, r))
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "fan_id": self.fan_id,
            "strategy": self.strategy,
            "schedule": [str(b) for b in self.schedule],
            "counts": self.counts,
            "predicted": self.predicted,
            "ratios": [None if math.isnan(r) else r for r in self.ratios],
            "k": self.k,
            "theta": {"lo": self.theta_lo, "hi": self.theta_hi},
            "regression": self.regression,
            "provenance": self.provenance,
        }


def leading_term(k, theta, B):
    """theta / (k-1)! * B (log B)^(k-1), and 0 for B <= 1 when k >= 2.

    log B <= 0 there, and an odd power of it would predict a negative count.
    """
    if k >= 2 and B <= 1:
        return 0.0
    return theta / math.factorial(k - 1) * B * math.log(B) ** (k - 1)


def fit_leading_coefficient(schedule, counts, k):
    """Two-term least squares N ~ a*B log^{k-1}B/(k-1)! + b*B log^{k-2}B.

    Returns (a, standard error of a, b).  Needs k >= 2.
    """
    import numpy as np

    if k < 2:
        raise ValueError("use ratio tables for k = 1")
    bs = np.array([float(b) for b in schedule])
    ls = np.log(bs)
    x1 = bs * ls ** (k - 1) / math.factorial(k - 1)
    x2 = bs * ls ** (k - 2)
    X = np.column_stack([x1, x2])
    y = np.array([float(n) for n in counts])
    coef, _res, _rank, _sv = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    dof = max(len(schedule) - 2, 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(X.T @ X)
    return float(coef[0]), float(math.sqrt(max(cov[0, 0], 0.0))), float(coef[1])


def asymptotic_report(
    fan,
    schedule,
    theta_interval,
    strategy="auto",
    fan_id="",
    budget=DEFAULT_BUDGET,
    counts=None,
):
    """Counts along the schedule against theta/(k-1)! * B (log B)^(k-1).

    Any schedule gets the table.  Schedules with at least 4 points B > 1
    spanning two decades also get, when k >= 2, a two-term regression
    over those points; shorter ones are marked as a plain table.  A zero
    prediction has ratio nan.
    """
    schedule = sorted(schedule)
    k = picard_data(fan).rank_K
    theta_lo, theta_hi = float(theta_interval[0]), float(theta_interval[1])
    theta_c = (theta_lo + theta_hi) / 2
    if counts is None:
        counts = [count_points(fan, b, strategy=strategy, budget=budget) for b in schedule]
    prev = -1
    for n in counts:
        if n < prev:
            raise AssertionError("N(B) must be nondecreasing")
        prev = n
    predicted = [leading_term(k, theta_c, float(b)) for b in schedule]
    ratios = [n / p if p else float("nan") for n, p in zip(counts, predicted)]
    regression = {}
    # log B <= 0 for B <= 1, where the asymptotic model means nothing
    fit = [(b, n) for b, n in zip(schedule, counts) if b > 1]
    if len(fit) < 4 or Fraction(fit[-1][0]) < 100 * Fraction(fit[0][0]):
        provenance = ["plain table; schedule too short for a regression"]
    else:
        provenance = [
            "counts by strategy %r" % strategy,
            "prediction uses the midpoint of the theta interval",
        ]
        if len(fit) < len(schedule):
            provenance.append("rows with B <= 1 are left out of the regression")
        if k >= 2:
            a, se, b2 = fit_leading_coefficient(*zip(*fit), k)
            regression = {
                "leading": a,
                "leading_se": se,
                "secondary": b2,
                "model": "N ~ a*B*log^%d(B)/%d! + b*B*log^%d(B)"
                % (k - 1, k - 1, k - 2),
            }
    return CountReport(
        fan_id=fan_id,
        strategy=strategy,
        schedule=list(schedule),
        counts=list(counts),
        predicted=predicted,
        ratios=ratios,
        k=k,
        theta_lo=theta_lo,
        theta_hi=theta_hi,
        regression=regression,
        provenance=provenance,
    )
