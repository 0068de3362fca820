"""Descent of X-functions to quotient cones, checked by quadrature.

For a primitive gamma and s interior to the cone L,

    X_{L/gamma}(psi(s)) = (1/2pi) * integral of X_L(s + iy*gamma) dy,

with psi the projection modulo gamma.  The exact rational X-function of
the quotient cone is compared with scipy quadrature of the contour
integral, in one direction and in two.
"""

from __future__ import annotations

from fractions import Fraction

from toricount.cones import PolyCone, xfunction
from toricount.linalg import mat_vec, primitive_vector, quotient_map


def _quotient_cone(c: PolyCone, gammas):
    """(image cone, projection) modulo the sublattice spanned by gammas."""
    k = c.ambient_rank
    project, _, torsion = quotient_map([list(g) for g in gammas], k)
    if torsion:
        raise ValueError("quotient directions span a non-saturated sublattice")
    pm = [list(p) for p in project]
    images = [mat_vec(pm, list(g)) for g in c.generators]
    images = [g for g in images if any(g)]
    image = PolyCone(len(project), images)
    return image, pm


def _contour_tail_constant(xf, s, gamma):
    """(C, q_min) with |X(s + iy*gamma)| <= C / y^{q_min} for all y > 0."""
    worst_q = None
    total = Fraction(0)
    per_term = []
    for coeff, forms in xf.terms:
        q = 0
        const = Fraction(coeff)
        for w in forms:
            wg = sum(wi * gi for wi, gi in zip(w, gamma))
            if wg:
                q += 1
                const /= abs(wg)
            else:
                ws = sum(wi * si for wi, si in zip(w, s))
                const /= ws
        per_term.append((const, q))
        worst_q = q if worst_q is None else min(worst_q, q)
    return per_term, worst_q


def _complex_value(xf, point):
    """X at a complex point, in floating point: the sum of its terms."""
    total = 0j
    for coeff, forms in xf.terms:
        denom = complex(1)
        for w in forms:
            denom *= sum(wi * si for wi, si in zip(w, point))
        total += complex(coeff) / denom
    return total


def descent_check(c: PolyCone, gamma, s, tol=1e-8):
    """|numeric contour integral - exact X of the quotient cone|.

    Checks X_{L/gamma}(psi(s)) = (1/2pi) * integral of X_L(s + iy*gamma) dy
    by adaptive quadrature on [-T, T], with T chosen so the certified tail
    of the 1/y^2 decay is below `tol`.
    """
    from scipy.integrate import quad

    gamma = [int(x) for x in gamma]
    if all(x == 0 for x in gamma):
        raise ValueError("gamma must be nonzero")
    if gamma != primitive_vector(gamma):
        raise ValueError("gamma must be primitive")
    s = [Fraction(x) for x in s]
    if not c.contains_interior(s):
        raise ValueError("s must be interior to the cone")

    image, pm = _quotient_cone(c, [gamma])
    psi_s = mat_vec(pm, s)
    exact = xfunction(image).evaluate(psi_s)

    xf = xfunction(c)
    per_term, worst_q = _contour_tail_constant(xf, s, gamma)
    if worst_q < 2:
        raise ValueError(
            "cannot certify the contour tail: some term decays like 1/y^%d"
            % worst_q
        )
    T = 1.0
    while True:
        tail = sum(
            float(const) * T ** (1 - q) / (q - 1) for const, q in per_term
        )
        if tail / 3.141592653589793 < tol:
            break
        T *= 2.0
        if T > 1e12:
            raise ValueError("tail refuses to certify; partial T=%g" % T)

    sf = [float(x) for x in s]
    gf = [float(x) for x in gamma]

    def integrand(y):
        point = [sv + 1j * y * gv for sv, gv in zip(sf, gf)]
        return _complex_value(xf, point).real

    # the real part is even in y; log-spaced breakpoints keep the adaptive
    # rule from overlooking the central peak on the huge certified interval
    breaks = [0.0]
    b = 1.0
    while b < T:
        breaks.append(b)
        b *= 10.0
    value, _err = quad(
        integrand, 0.0, T, limit=800, points=breaks, epsabs=1e-11, epsrel=1e-11
    )
    numeric = 2.0 * value / (2 * 3.141592653589793)
    return abs(numeric - float(exact))


def descent_check_double(c: PolyCone, gamma1, gamma2, s):
    """Two nested 1-D quadratures against the exact rank-2 quotient."""
    from scipy.integrate import quad

    g1 = [int(x) for x in gamma1]
    g2 = [int(x) for x in gamma2]
    s = [Fraction(x) for x in s]
    image, pm = _quotient_cone(c, [g1, g2])
    psi_s = mat_vec(pm, s)
    exact = xfunction(image).evaluate(psi_s)

    xf = xfunction(c)
    sf = [float(x) for x in s]

    def x_at(y1, y2):
        point = [
            sv + 1j * (y1 * a + y2 * b) for sv, a, b in zip(sf, g1, g2)
        ]
        return _complex_value(xf, point)

    # the full double integral is real by conjugate symmetry, so only the
    # real part needs integrating; it is also even in (y1, y2) -> (-y1, -y2),
    # so the outer integral runs over [0, inf) and is doubled
    def inner_real(y1):
        val, _ = quad(
            lambda y2: x_at(y1, y2).real,
            float("-inf"),
            float("inf"),
            limit=200,
            epsabs=1e-10,
        )
        return val

    outer, _ = quad(inner_real, 0.0, float("inf"), limit=200, epsabs=1e-10)
    numeric = 2.0 * outer / (2 * 3.141592653589793) ** 2
    return abs(numeric - float(exact))
