"""Local machinery: Q polynomials, local integrals, densities.

The Q polynomial of a fan (for a decomposition subgroup acting with given
ray orbits) clears the geometric-series denominators out of the sum of
R_sigma terms over invariant cones.  Each invariant cone's term is
expanded straight into signed monomials, so Q is built by one pass of
additions over the cones.  Its constant term is 1 and every other
monomial has total degree >= 2, which is what makes the Euler products
downstream converge; that property is asserted after construction, not
assumed.  Every entry but qsigma works over Q and refuses a nonsplit
fan first (Fan.require_split).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, prod

from .arith import BudgetExceededError
from .fan import OrbitDecomposition, cone_pieces
from .picard import PLFunction, pl_evaluate

# local_integral's work caps: lattice terms in its box, and decimal digits
# of the largest power of p that it builds
LOCAL_TERMS_CAP = 1_000_000
LOCAL_DIGITS_CAP = 20_000
# qsigma's work cap: Q has at most 2^(orbits) monomials (65,536 at 16 rays,
# about a second to build)
QSIGMA_MONOMIALS_CAP = 2**16


@dataclass(frozen=True)
class QSigmaPolynomial:
    """Sparse polynomial in one variable u_j per ray orbit."""

    nvars: int
    lengths: tuple
    monomials: tuple  # ((exponent tuple, int coeff), ...)

    def coeff_dict(self):
        return dict(self.monomials)

    def evaluate(self, values):
        total = 0
        for exps, coeff in self.monomials:
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def degree_ge_two_away_from_one(self):
        return all(
            sum(e) >= 2 for e, c in self.monomials if c and any(e)
        )


def qsigma(fan, decomposition: OrbitDecomposition) -> QSigmaPolynomial:
    """Clear denominators out of the R_sigma sum over invariant cones.

    A cone is invariant for the subgroup exactly when its ray set is a
    union of orbits, so the decomposition alone determines the sum:

        sum_sigma prod_{j in sigma} u_j^{d_j} / (1 - u_j^{d_j})
            = Q / prod_j (1 - u_j^{d_j}).

    With x_k = u_k^{d_k}, sigma contributes prod_{k in sigma} x_k
    prod_{k not in sigma} (1 - x_k) = sum_{T >= sigma} (-1)^|T - sigma| x^T
    to Q, one signed monomial per set T of orbits containing sigma's;
    those are added directly, with no polynomial products.  Q has at most
    2^l monomials for l orbits, so past QSIGMA_MONOMIALS_CAP it is refused
    with BudgetExceededError before any work.
    """
    n = fan.nrays
    flat = sorted(j for orb in decomposition.orbits for j in orb)
    if flat != list(range(n)):
        raise ValueError("orbit decomposition is not a partition of the rays")
    if 2**decomposition.r > QSIGMA_MONOMIALS_CAP:
        raise BudgetExceededError(2**decomposition.r, QSIGMA_MONOMIALS_CAP, "Q monomials")
    orbit_of = {}
    for k, orb in enumerate(decomposition.orbits):
        for j in orb:
            orbit_of[j] = k
    l = decomposition.r
    lengths = decomposition.lengths

    poly = {}
    for cone in fan.all_cones():
        touched = {orbit_of[j] for j in cone}
        if sum(lengths[k] for k in touched) != len(cone):
            continue
        free = l - len(touched)
        for key in product(*[(d,) if k in touched else (0, d) for k, d in enumerate(lengths)]):
            # the zero exponents are the free orbits left out of T
            poly[key] = poly.get(key, 0) + (-1) ** (free - key.count(0))

    q = QSigmaPolynomial(l, tuple(lengths), tuple(sorted((e, c) for e, c in poly.items() if c)))
    if q.coeff_dict().get((0,) * l, 0) != 1:
        raise ValueError("Q(0) != 1; orbit data inconsistent with the fan")
    if not q.degree_ge_two_away_from_one():
        raise ValueError("Q - 1 has a monomial of degree < 2; orbit data bad")
    return q


def qsigma_split(fan):
    """Q for the trivial decomposition subgroup (one variable per ray)."""
    return qsigma(fan, OrbitDecomposition(tuple((j,) for j in range(fan.nrays))))


def euler_polynomial(fan):
    """Coefficients, low degree first, of the Euler polynomial of a split fan.

    f(x) = (1 - x)^k * sum_i f_i x^i (1 - x)^(d - i), with (f_0, ..., f_d)
    the f-vector and k = n - d, is qsigma_split(fan) on the diagonal, and
    f(1/p) = (1 - 1/p)^k * Card(X(F_p)) / p^d.  Its x^j coefficient is
    sum_i f_i (-1)^(j - i) C(n - i, j - i); trailing zeros are dropped.
    """
    fan.require_split("the Euler polynomial")
    n, fv = fan.nrays, fan.f_vector()
    coeffs = [
        sum((-1) ** (j - i) * comb(n - i, j - i) * fi for i, fi in enumerate(fv[: j + 1]))
        for j in range(n + 1)
    ]
    while coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class LocalIntegral:
    """Truncated lattice sum with a certified tail, plus the closed form."""

    prime: int
    truncation: int
    truncated: Fraction
    closed_form: Fraction
    tail_bound: Fraction


def local_integral(fan, p, s: PLFunction, truncation=20):
    """Lattice sum of p^{-phi_s(n)} against its closed form.

    The sum runs over the box |n|_inf <= truncation and is exact; the
    closed form is the cone sum sum_sigma prod_{j in sigma} u_j / (1 - u_j)
    with u_j = p^{-s_j}, which qsigma clears to Q(u) / prod (1 - u_j).  The
    difference is certified below tail_bound, a geometric estimate from
    the linear lower slope of phi_s.  Refuses with BudgetExceededError,
    before any other work, a box of more than LOCAL_TERMS_CAP terms, or a
    power of p of more than LOCAL_DIGITS_CAP digits: phi_s is at most
    (r + 1) max |m_sigma|_1 on the box and its next shell, and p^{sum s_j}
    bounds the common denominator of the cone sum.  An uncertifiable tail
    (fixed by the fan, s, p and truncation) is refused before the sum too.
    """
    fan.require_split("the local integral")
    vals = s.integer_values()
    if any(v <= 0 for v in vals):
        raise ValueError("divergent: s has a value <= 0 on some ray")
    d = fan.dim
    r = truncation
    if (2 * r + 1) ** d > LOCAL_TERMS_CAP:
        raise BudgetExceededError((2 * r + 1) ** d, LOCAL_TERMS_CAP, "lattice terms")
    top = max(
        (r + 1) * max(sum(map(abs, m)) for _, m in cone_pieces(fan, vals)),
        sum(vals),
    )
    digits = top * len(str(p))
    if digits > LOCAL_DIGITS_CAP:
        raise BudgetExceededError(digits, LOCAL_DIGITS_CAP, "digits of a power of p")

    # phi_s(n) >= a*|n|_inf with a = min(s)/max||e_j||_1; only floor(a) is
    # used so the geometric bound stays rational
    max_norm = max(sum(abs(x) for x in ray) for ray in fan.rays)
    a = Fraction(min(vals), max_norm)
    a_floor = int(a)
    if a_floor < 1:
        raise ValueError(
            "cannot certify the tail: slope %s per box shell is below 1" % a
        )
    x = Fraction(1, p**a_floor)

    def shell_count(m):
        return (2 * m + 1) ** d - (2 * m - 1) ** d

    ratio = Fraction(shell_count(r + 2), shell_count(r + 1))
    if ratio * x >= 1:
        raise ValueError("tail ratio not contracting; raise the truncation")
    tail = Fraction(shell_count(r + 1)) * x ** (r + 1) / (1 - ratio * x)

    # u / (1 - u) = 1 / (p^v - 1) for u = p^-v; the zero cone contributes 1
    closed = sum(
        Fraction(1, prod(p ** vals[j] - 1 for j in cone)) for cone in fan.all_cones()
    )
    total = Fraction(0)
    for n in product(range(-r, r + 1), repeat=d):
        e = pl_evaluate(fan, s, n)
        total += Fraction(1, p ** int(e))
    return LocalIntegral(p, r, total, closed, tail)


@dataclass(frozen=True)
class LocalDensity:
    """Point count over F_p with its measure-theoretic companions."""

    prime: int
    point_count: int
    density: Fraction
    convergence_factor: Fraction

    @property
    def euler_factor(self):
        return self.density * self.convergence_factor


def point_count_fp(fan, p) -> LocalDensity:
    """Card of the variety over F_p from the torus orbit decomposition.

    Each i-dimensional cone contributes its orbit (F_p^*)^(d - i), so the
    count is sum_i f_i (p - 1)^(d - i) over the f-vector.
    """
    fan.require_split("the point count over F_p")
    d = fan.dim
    count = sum(fi * (p - 1) ** (d - i) for i, fi in enumerate(fan.f_vector()))
    k = fan.nrays - d
    return LocalDensity(
        prime=p,
        point_count=count,
        density=Fraction(count, p**d),
        convergence_factor=Fraction(p - 1, p) ** k,
    )
