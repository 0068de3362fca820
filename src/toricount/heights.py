"""Exact local and global heights on split toric varieties over Q.

Conventions, fixed once and validated by the closed-form oracles: at a
finite place the image of x in the cocharacter lattice is the valuation
vector (v_p(x_1), ..., v_p(x_d)) with v_p(p) = +1, and the local height
is p^{phi(xbar)}; at the real place the image is (-log|x_1|, ...,
-log|x_d|) and the local height prod |x_i|^{-m_i} is evaluated through
exact multiplicative comparisons, never floating logs.  This is the sign
pairing under which the product formula holds exactly and the
anticanonical height on P^1 is max(|a|, |b|)^2.

One rule serves every fan, nef or not: HeightEvaluator locates the cone
of xbar_v and applies that cone's linear form, in integers only.  Local
heights, global heights and the point counter all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import factor, is_prime
from .fan import cone_pieces
from .picard import PLFunction, anticanonical, pl_evaluate

INFINITE_PLACE = "inf"


@dataclass(frozen=True)
class TorusPoint:
    """A rational point of the torus: d nonzero rationals in lowest terms."""

    coords: tuple

    def __init__(self, coords):
        cs = tuple(Fraction(c) for c in coords)
        if any(c == 0 for c in cs):
            raise ValueError("torus points have nonzero coordinates")
        object.__setattr__(self, "coords", cs)

    @property
    def dim(self):
        return len(self.coords)


def _power_ratio(exponents, pairs):
    """prod_i (b_i / a_i)^{e_i} as an unreduced (num, den) of positive ints."""
    num = den = 1
    for (a, b), e in zip(pairs, exponents):
        if e > 0:
            num *= b**e
            den *= a**e
        elif e < 0:
            num *= a**-e
            den *= b**-e
    return num, den


class HeightEvaluator:
    """The local heights q_v^{phi(xbar_v)} of one PL function, in integers.

    Reads each maximal cone's dual-basis rows and linear form from the
    fan's cached cone table, so building one per point costs little.  A
    point enters as positive pairs (a_i, b_i) with |x_i| = a_i / b_i in
    lowest terms; signs never change a local height.
    Exponents phi(xbar_p) are memoized by the valuation vector, which
    repeats across the points of a scan far more than the points do.
    """

    def __init__(self, fan, phi):
        fan.require_split("a height over Q")
        self.fan = fan
        self.phi = PLFunction(phi.integer_values())
        self._pieces = cone_pieces(fan, self.phi.values)
        self._exponents = {}
        self._factors = {}

    def exponent(self, vbar):
        """phi(vbar) for an integer valuation vector given as a tuple."""
        e = self._exponents.get(vbar)
        if e is None:
            e = self._exponents[vbar] = int(pl_evaluate(self.fan, self.phi, vbar))
        return e

    def _factor(self, n):
        f = self._factors.get(n)
        if f is None:
            f = self._factors[n] = factor(n)
        return f

    def valuation_vectors(self, pairs):
        """{p: (v_p(x_1), ..., v_p(x_d))} over the primes where some x_i is no unit."""
        split = [(self._factor(a), self._factor(b)) for a, b in pairs]
        primes = set().union(*[f for fs in split for f in fs])
        return {p: tuple([fa.get(p, 0) - fb.get(p, 0) for fa, fb in split]) for p in primes}

    def real(self, pairs):
        """exp(phi(-log|x|)) as (num, den), on the first cone that contains it.

        <u, -log|x|> >= 0 reads prod (b_i / a_i)^{u_i} >= 1, decided by
        cross-multiplying the two sides.  Cones sharing a face agree on it,
        so the first containing cone gives the value.
        """
        for rows, form in self._pieces:
            for row in rows:
                num, den = _power_ratio(row, pairs)
                if num < den:
                    break
            else:
                return _power_ratio(form, pairs)
        raise ValueError("no maximal cone contains the point; fan incomplete?")

    def height(self, pairs):
        """The global height prod_v q_v^{phi(xbar_v)} as an unreduced (num, den)."""
        num, den = self.real(pairs)
        for p, vbar in self.valuation_vectors(pairs).items():
            e = self.exponent(vbar)
            if e >= 0:
                num *= p**e
            else:
                den *= p**-e
        return num, den


def _pairs(fan, x):
    if x.dim != fan.dim:
        raise ValueError("point dimension does not match the fan")
    return [(abs(c.numerator), c.denominator) for c in x.coords]


def local_height(fan, phi: PLFunction, x: TorusPoint, place) -> Fraction:
    """The local factor q_v^{phi(xbar_v)} as an exact rational.

    place is INFINITE_PLACE or a prime p (an int); any other value is no
    place of Q and raises ValueError.
    """
    if place != INFINITE_PLACE and not (isinstance(place, int) and is_prime(place)):
        raise ValueError("a place is %r or a prime, got %r" % (INFINITE_PLACE, place))
    evaluator = HeightEvaluator(fan, phi)
    pairs = _pairs(fan, x)
    if place == INFINITE_PLACE:
        return Fraction(*evaluator.real(pairs))
    vbar = evaluator.valuation_vectors(pairs).get(place, (0,) * fan.dim)
    return Fraction(place) ** evaluator.exponent(vbar)


def global_height(fan, phi: PLFunction, x: TorusPoint) -> Fraction:
    """Product of the local heights; finitely many factors differ from 1."""
    return Fraction(*HeightEvaluator(fan, phi).height(_pairs(fan, x)))


def anticanonical_height(fan, x: TorusPoint) -> Fraction:
    return global_height(fan, anticanonical(fan), x)
