"""Acceptance criteria, one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here, none deferred.
"""

import math
import random
import time
from fractions import Fraction

import mpmath
from oracles.archimedean import archimedean_transform
from oracles.descent import descent_check, descent_check_double
from oracles.exact import from_character, h1_cocycle, h1_cyclic
from oracles.truncated_tau import truncated_tau

from toricount.cones import PolyCone, alpha, xfunction
from toricount.corpus import fan
from toricount.counting import (
    asymptotic_report,
    count_p1,
    count_p1xp1,
    count_p2,
    enumerate_naive,
    fit_leading_coefficient,
)
from toricount.fan import Fan, galois_group, galois_orbits
from toricount.heights import TorusPoint, global_height
from toricount.linalg import identity, mat_mul, mat_vec, quotient_map
from toricount.localdata import local_integral, qsigma
from toricount.picard import PLFunction, h1, picard_data
from toricount.tamagawa import tau, theta

Z2 = float(mpmath.zeta(2))
Z3 = float(mpmath.zeta(3))


def criterion(cid, passed, detail):
    print("%s: %s  (%s)" % (cid, "PASS" if passed else "FAIL", detail))
    assert passed, "%s failed: %s" % (cid, detail)


def dp6_quotient():
    gamma1 = [1, -1, 0, 0, 1, -1]
    gamma2 = [1, 0, -1, 1, 0, -1]
    project, _, torsion = quotient_map([gamma1, gamma2], 6)
    assert torsion == []
    return [list(p) for p in project]


def test_a1_dp6_xfunction_formula():
    start = time.perf_counter()
    pm = dp6_quotient()
    gens = [mat_vec(pm, [1 if j == i else 0 for j in range(6)]) for i in range(6)]
    xf = xfunction(PolyCone(4, gens))

    def closed_form(s1, s2, s3, s12, s13, s23):
        num = s1 + s2 + s3 + s12 + s13 + s23
        den = (
            (s1 + s23)
            * (s2 + s13)
            * (s3 + s12)
            * (s1 + s2 + s3)
            * (s12 + s13 + s23)
        )
        return Fraction(num) / den

    rng = random.Random(20240801)
    ok = True
    for _ in range(20):
        s = [Fraction(rng.randint(1, 50), rng.randint(1, 11)) for _ in range(6)]
        if xf.evaluate(mat_vec(pm, s)) != closed_form(*s):
            ok = False
            break
    elapsed = time.perf_counter() - start
    criterion(
        "A1",
        ok and elapsed < 1.0,
        "20 exact matches of the degree-6 del Pezzo formula in %.3fs" % elapsed,
    )


def test_a2_alpha_values():
    pm = dp6_quotient()
    gens = [mat_vec(pm, [1 if j == i else 0 for j in range(6)]) for i in range(6)]
    xf = xfunction(PolyCone(4, gens))
    by_substitution = xf.evaluate(mat_vec(pm, [Fraction(1)] * 6))
    values = {
        "p1": alpha(fan("p1")),
        "p2": alpha(fan("p2")),
        "p1xp1": alpha(fan("p1xp1")),
        "dp6": alpha(fan("dp6")),
    }
    ok = (
        values["p1"] == Fraction(1, 2)
        and values["p2"] == Fraction(1, 3)
        and values["p1xp1"] == Fraction(1, 4)
        and values["dp6"] == Fraction(1, 12)
        and by_substitution == Fraction(1, 12)
    )
    criterion("A2", ok, "alpha = 1/2, 1/3, 1/4, 1/12 (last also by substitution)")


def test_a3_q_degree_property():
    checked = 0
    ok = True
    for name in (
        "p1",
        "p2",
        "p1xp1",
        "hirzebruch1",
        "dp6",
        "p1-norm-one",
        "p1xp1-swap",
        "p2-threecycle",
    ):
        f = fan(name)
        seen = set()
        for g in galois_group(f):
            orb = galois_orbits(Fan(f.dim, f.rays, f.max_cones, galois=[g]))
            if orb.orbits in seen:
                continue
            seen.add(orb.orbits)
            q = qsigma(f, orb)
            checked += 1
            if not q.degree_ge_two_away_from_one():
                ok = False
    criterion("A3", ok, "Q - 1 degree >= 2 for %d fan/subgroup pairs" % checked)


def test_a4_local_identities():
    # (a) truncated sums vs closed forms within certified tails
    part_a = True
    for name in ("p1", "p2", "p1xp1", "dp6"):
        f = fan(name)
        for p in (2, 3):
            for s in (2, 3):
                li = local_integral(f, p, PLFunction((s,) * f.nrays), truncation=10)
                gap = li.closed_form - li.truncated
                if not (0 <= gap <= li.tail_bound):
                    part_a = False

    # (b) diagonal factorization as an exact rational identity
    part_b = True
    from toricount.localdata import qsigma_split

    for name in ("p1", "p2", "dp6"):
        f = fan(name)
        q = qsigma_split(f)
        n_minus = picard_data(f).rank_split + f.dim
        for p in (2, 3, 5):
            li = local_integral(f, p, PLFunction((2,) * f.nrays), truncation=4)
            u = Fraction(1, p**2)
            if li.closed_form != q.evaluate([u] * f.nrays) / (1 - u) ** n_minus:
                part_b = False

    # (c) archimedean transform against adaptive quadrature
    from scipy.integrate import dblquad, quad

    part_c = True
    p1, p2 = fan("p1"), fan("p2")
    cases = [
        (p1, (1, 1), (1.0,)),
        (p1, (2, 1), (0.5,)),
        (p1, (1, 2), (-1.5,)),
        (p2, (1, 1, 1), (1.0, 0.5)),
        (p2, (2, 2, 2), (-0.5, 1.0)),
    ]
    for f, svals, y in cases:
        at = complex(
            archimedean_transform(
                f, PLFunction(svals), [Fraction(v) for v in y]
            )
        )
        if f.dim == 1:

            def re_part(x, sv=svals, yv=y[0]):
                e = sv[0] * x if x >= 0 else -sv[1] * x
                return math.exp(-e) * math.cos(x * yv)

            def im_part(x, sv=svals, yv=y[0]):
                e = sv[0] * x if x >= 0 else -sv[1] * x
                return -math.exp(-e) * math.sin(x * yv)

            vr = quad(re_part, -80, 80, limit=300)[0]
            vi = quad(im_part, -80, 80, limit=300)[0]
        else:
            # linear forms of phi_s on the three maximal cones, by hand
            forms = [
                (svals[0], svals[1]),
                (-svals[1] - svals[2], svals[1]),
                (svals[0], -svals[0] - svals[2]),
            ]
            # phi_s = max of the three cone forms (convex for these s)
            def phi(x1, x2, fs=forms):
                return max(a * x1 + b * x2 for a, b in fs)

            L = 50.0

            def kinks(x1):
                pts = set()
                for i in range(3):
                    for j in range(i + 1, 3):
                        da = forms[i][0] - forms[j][0]
                        db = forms[i][1] - forms[j][1]
                        if db:
                            pts.add(-da * x1 / db)
                return sorted(p for p in pts if -L < p < L)

            def inner(x1, trig, yv=y):
                f = lambda x2: math.exp(-phi(x1, x2)) * trig(
                    x1 * yv[0] + x2 * yv[1]
                )
                return quad(
                    f, -L, L, points=kinks(x1), limit=300, epsabs=1e-11
                )[0]

            vr = quad(
                lambda x1: inner(x1, math.cos), -L, L, points=[0.0], limit=300
            )[0]
            vi = quad(
                lambda x1: inner(x1, lambda t: -math.sin(t)),
                -L,
                L,
                points=[0.0],
                limit=300,
            )[0]
        if abs(complex(vr, vi) - at) > 1e-6 * abs(at):
            part_c = False
    criterion(
        "A4",
        part_a and part_b and part_c,
        "series tails (a)=%s, diagonal factorization (b)=%s, quadrature (c)=%s"
        % (part_a, part_b, part_c),
    )


def test_a5_p1_end_to_end():
    start = time.perf_counter()
    B = 10**6
    n = count_p1(B)
    ratio = n * Z2 / (2 * B)
    th = theta(fan("p1"))
    slope = n / B
    tol = 0.01 * slope
    interval_ok = th.theta_lo - tol <= slope <= th.theta_hi + tol
    elapsed = time.perf_counter() - start
    criterion(
        "A5",
        abs(ratio - 1) <= 0.01 and interval_ok and elapsed < 10,
        "N(1e6)=%d, |ratio-1|=%.5f <= 0.01, slope in interval+tol, %.2fs < 10s"
        % (n, abs(ratio - 1), elapsed),
    )


def test_a6_p2_end_to_end():
    start = time.perf_counter()
    B = 10**9
    n = count_p2(B)
    ratio = n * Z3 / (4 * B)
    elapsed = time.perf_counter() - start
    criterion(
        "A6",
        abs(ratio - 1) <= 0.02 and elapsed < 300,
        "N(1e9)=%d via triple sieve (T=10^3), |ratio-1|=%.5f <= 0.02, %.2fs < 5min"
        % (n, abs(ratio - 1), elapsed),
    )


def test_a7_p1xp1_regression():
    start = time.perf_counter()
    schedule = [10**4, int(10**4.5), 10**5, int(10**5.5), 10**6]
    counts = [count_p1xp1(b) for b in schedule]
    leading, se, _b = fit_leading_coefficient(schedule, counts, 2)
    target = 4 / Z2**2
    rel = abs(leading - target) / target
    elapsed = time.perf_counter() - start
    criterion(
        "A7",
        rel <= 0.10 and elapsed < 120,
        "leading=%.4f vs 4/zeta(2)^2=%.4f, rel err %.3f <= 0.10, %.1fs < 2min"
        % (leading, target, rel, elapsed),
    )


def _dp6_hand_height(coords):
    """Independent height for the hexagonal fan, from first principles.

    Linear forms of the anticanonical function solved by hand per cone:
    (1,0), (0,1), (-1,1), (-1,0), (0,-1), (1,-1).
    """
    forms = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]

    def vp(x, p):
        v = 0
        num, den = x.numerator, x.denominator
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        return v

    primes = set()
    for c in coords:
        for value in (abs(c.numerator), c.denominator):
            m = value
            f = 2
            while f * f <= m:
                if m % f == 0:
                    primes.add(f)
                    while m % f == 0:
                        m //= f
                f += 1
            if m > 1:
                primes.add(m)
    h = Fraction(1)
    for p in sorted(primes):
        nbar = [vp(c, p) for c in coords]
        e = max(a * nbar[0] + b * nbar[1] for a, b in forms)
        h *= Fraction(p) ** e
    # real place: max over forms of prod |x_i|^{-m_i}
    best = max(
        abs(coords[0]) ** (-a) * abs(coords[1]) ** (-b) for a, b in forms
    )
    return h * best


def test_a8_dp6_property_acceptance():
    dp6 = fan("dp6")
    # independent hand enumeration: max(num, den) <= sqrt(B) per coordinate
    # (forms (1,0) and (-1,0) differ by (2,0)), product of maxes <= B
    hand_ok = True
    for B in (1, 10, 50, 100):
        cap = math.isqrt(B)
        values = [
            Fraction(s * a, b)
            for a in range(1, cap + 1)
            for b in range(1, cap + 1)
            if math.gcd(a, b) == 1 and a * b <= B
            for s in (1, -1)
        ]
        hand = 0
        for x1 in values:
            m1 = max(abs(x1.numerator), x1.denominator)
            for x2 in values:
                m2 = max(abs(x2.numerator), x2.denominator)
                if m1 * m2 > B:
                    continue
                if _dp6_hand_height([x1, x2]) <= B:
                    hand += 1
        naive = len(enumerate_naive(dp6, B))
        if hand != naive:
            hand_ok = False

    # constants: exact alpha, beta, truncated products with nested cutoffs
    # and the zeta-factored tau inside the last of them
    a = alpha(dp6)
    pd = picard_data(dp6)
    t1, t2, t3 = (truncated_tau(dp6, P) for P in (200, 1000, 5000))
    nested = (t1.lo <= t2.center <= t1.hi) and (t2.lo <= t3.center <= t2.hi)
    t = tau(dp6)
    nested = nested and t3.lo <= t.lo <= t.hi <= t3.hi
    constants_ok = a == Fraction(1, 12) and pd.beta == 1 and nested

    # regression: leading coefficient with error bars, no pass/fail bound
    schedule = [5, 10, 50, 100, 500]
    counts = [len(enumerate_naive(dp6, b)) for b in schedule]
    rep = asymptotic_report(
        dp6,
        schedule,
        (t.lo * float(a), t.hi * float(a)),
        counts=counts,
        fan_id="dp6",
    )
    leading = rep.regression["leading"]
    se = rep.regression["leading_se"]
    regression_ok = math.isfinite(leading) and se >= 0
    criterion(
        "A8",
        hand_ok and constants_ok and regression_ok,
        "hand=naive to B=100, alpha=1/12, beta=1, nested tau, "
        "leading=%.3f +- %.3f (no threshold by design)" % (leading, se),
    )


def test_a9_invariant_suites():
    rng = random.Random(190)
    details = []

    # product formula: 1000 points x 5 split fans x 3 characters
    product_ok = True
    split = [fan(n) for n in ("p1", "p2", "p1xp1", "hirzebruch1", "dp6")]
    for f in split:
        ms = [
            [rng.randint(-3, 3) for _ in range(f.dim)] for _ in range(3)
        ]
        for _ in range(1000):
            x = TorusPoint(
                [
                    Fraction(
                        rng.randint(1, 40) * rng.choice([1, -1]),
                        rng.randint(1, 40),
                    )
                    for _ in range(f.dim)
                ]
            )
            for m in ms:
                if global_height(f, from_character(f, m), x) != 1:
                    product_ok = False
    details.append("product formula 5x1000x3: %s" % product_ok)

    # height multiplicativity
    mult_ok = True
    for f in split:
        for _ in range(40):
            f1 = PLFunction(tuple(rng.randint(0, 3) for _ in range(f.nrays)))
            f2 = PLFunction(tuple(rng.randint(0, 3) for _ in range(f.nrays)))
            x = TorusPoint(
                [
                    Fraction(
                        rng.randint(1, 30) * rng.choice([1, -1]),
                        rng.randint(1, 30),
                    )
                    for _ in range(f.dim)
                ]
            )
            lhs = global_height(f, f1 + f2, x)
            if lhs != global_height(f, f1, x) * global_height(f, f2, x):
                mult_ok = False
    details.append("multiplicativity: %s" % mult_ok)

    # triangulation independence at 50 random interior rational points
    tri_ok = True
    pm = dp6_quotient()
    gens = [mat_vec(pm, [1 if j == i else 0 for j in range(6)]) for i in range(6)]
    cone = PolyCone(4, gens)
    xf1 = xfunction(cone, order="lex")
    xf2 = xfunction(cone, order="revlex")
    for _ in range(50):
        s = [Fraction(0)] * 4
        for g in cone.generators:
            w = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            s = [si + w * gi for si, gi in zip(s, g)]
        if xf1.evaluate(s) != xf2.evaluate(s):
            tri_ok = False
    details.append("triangulation independence 50: %s" % tri_ok)

    # three-route H^1 agreement on 50 random cyclic modules: the stacked
    # Smith form, the periodic resolution and the cocycle route
    h1_ok = True
    done = 0
    while done < 50:
        size = rng.randint(1, 4)
        order = rng.choice([1, 2, 3, 4, 5, 6])
        a = _finite_order_matrix(rng, size, order)
        power = identity(size)
        for _ in range(order):
            power = mat_mul(power, a)
        if power != identity(size):
            continue
        a = tuple(tuple(r) for r in a)
        if not h1([a]) == h1_cyclic(a, order) == h1_cocycle([a]):
            h1_ok = False
        done += 1
    details.append("H^1 three routes x50: %s" % h1_ok)

    # facet consistency of PL evaluation
    facet_ok = True
    from toricount.fan import cone_pieces

    for f in split:
        if f.dim < 2:
            continue
        phi = PLFunction(tuple(rng.randint(-4, 4) for _ in range(f.nrays)))
        for ci in range(len(f.max_cones)):
            for cj in range(ci + 1, len(f.max_cones)):
                common = sorted(set(f.max_cones[ci]) & set(f.max_cones[cj]))
                if len(common) != f.dim - 1:
                    continue
                weights = {j: rng.randint(1, 6) for j in common}
                v = [
                    sum(weights[j] * f.rays[j][i] for j in common)
                    for i in range(f.dim)
                ]
                m1 = cone_pieces(f, phi.values)[ci][1]
                m2 = cone_pieces(f, phi.values)[cj][1]
                if sum(a * b for a, b in zip(m1, v)) != sum(
                    a * b for a, b in zip(m2, v)
                ):
                    facet_ok = False
    details.append("facet consistency: %s" % facet_ok)

    # descent checks on the three listed cases
    orthant2 = PolyCone(2, [(1, 0), (0, 1)])
    r1 = descent_check(orthant2, (1, -1), (1, 2))
    rejected = False
    try:
        descent_check(orthant2, (0, 0), (1, 2))
    except ValueError:
        rejected = True
    orthant6 = PolyCone(6, [[1 if i == j else 0 for j in range(6)] for i in range(6)])
    r2 = descent_check_double(
        orthant6, [1, -1, 0, 0, 1, -1], [1, 0, -1, 1, 0, -1], [1, 2, 1, 1, 2, 1]
    )
    descent_ok = r1 < 1e-6 and rejected and r2 < 1e-6
    details.append("descent residuals %.1e, %.1e; gamma=0 rejected" % (r1, r2))

    ok = product_ok and mult_ok and tri_ok and h1_ok and facet_ok and descent_ok
    criterion("A9", ok, "; ".join(details))


def _finite_order_matrix(rng, size, order):
    blocks = []
    left = size
    while left > 0:
        choices = [(1, 1)]
        if order % 2 == 0:
            choices.append((1, -1))
        if left >= 2:
            if order % 3 == 0:
                choices.append((2, "c3"))
            if order % 4 == 0:
                choices.append((2, "c4"))
            if order % 6 == 0:
                choices.append((2, "c6"))
            if order % 2 == 0:
                choices.append((2, "swap"))
        kind = rng.choice(choices)
        data = {
            (1, 1): [[1]],
            (1, -1): [[-1]],
            (2, "c3"): [[0, -1], [1, -1]],
            (2, "c4"): [[0, -1], [1, 0]],
            (2, "c6"): [[0, -1], [1, 1]],
            (2, "swap"): [[0, 1], [1, 0]],
        }[kind]
        blocks.append(data)
        left -= kind[0]
    a = [[0] * size for _ in range(size)]
    pos = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                a[pos + i][pos + j] = x
        pos += len(b)
    u = identity(size)
    for _ in range(6):
        i, j = rng.randrange(size), rng.randrange(size)
        if i != j:
            q = rng.randint(-2, 2)
            for t in range(size):
                u[i][t] += q * u[j][t]
    from toricount.linalg import unimodular_inverse

    return mat_mul(mat_mul(u, a), unimodular_inverse(u))


def test_a10_cross_strategy_equality():
    p1, p2, p1xp1 = fan("p1"), fan("p2"), fan("p1xp1")
    ok = True
    checks = 0
    for B in (1, 10, 100, 1000, 10**4):
        if len(enumerate_naive(p1, B)) != count_p1(B):
            ok = False
        checks += 1
    for B in (1, 8, 64, 333, 1000):
        if len(enumerate_naive(p2, B)) != count_p2(B):
            ok = False
        checks += 1
    for B in (1, 9, 81, 400, 1000):
        if len(enumerate_naive(p1xp1, B)) != count_p1xp1(B):
            ok = False
        checks += 1
    criterion("A10", ok, "%d exact naive/specialized equalities" % checks)
