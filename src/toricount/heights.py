"""Exact local and global heights on split toric varieties over Q.

Conventions, fixed once and validated by the closed-form oracles: at a
finite place the image of x in the cocharacter lattice is the valuation
vector (v_p(x_1), ..., v_p(x_d)) with v_p(p) = +1, and the local height
is p^{phi(xbar)}; at the real place the image is (-log|x_1|, ...,
-log|x_d|) and the local height prod |x_i|^{-m_i} is evaluated through
exact multiplicative comparisons, never floating logs.  This is the sign
pairing under which the product formula holds exactly and the
anticanonical height on P^1 is max(|a|, |b|)^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import factor
from .fan import MultiplicativeVector
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


def _vp(x: Fraction, p: int) -> int:
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def relevant_primes(x: TorusPoint):
    """Primes where some coordinate is a non-unit (all other factors are 1)."""
    primes = set()
    for c in x.coords:
        primes.update(factor(abs(c.numerator)))
        primes.update(factor(c.denominator))
    return sorted(primes)


def _check(fan, phi, x):
    if not fan.is_split():
        raise ValueError(
            "heights over Q need a split fan; number-field places are out of scope"
        )
    if len(phi.values) != fan.nrays:
        raise ValueError("PL function has wrong length")
    if not phi.is_integral():
        raise ValueError("heights need integer PL values")
    if x.dim != fan.dim:
        raise ValueError("point dimension does not match the fan")


def local_height(fan, phi: PLFunction, x: TorusPoint, place) -> Fraction:
    """The local factor q_v^{phi(xbar_v)} as an exact rational."""
    _check(fan, phi, x)
    if place == INFINITE_PLACE:
        qs = [Fraction(1) / abs(c) for c in x.coords]
        return pl_evaluate(fan, phi, MultiplicativeVector(qs))
    p = int(place)
    xbar = [_vp(c, p) for c in x.coords]
    e = pl_evaluate(fan, phi, xbar)
    e = int(e)
    return Fraction(p) ** e


def global_height(fan, phi: PLFunction, x: TorusPoint) -> Fraction:
    """Product of the local heights; finitely many factors differ from 1."""
    _check(fan, phi, x)
    h = local_height(fan, phi, x, INFINITE_PLACE)
    for p in relevant_primes(x):
        h *= local_height(fan, phi, x, p)
    return h


def anticanonical_height(fan, x: TorusPoint) -> Fraction:
    return global_height(fan, anticanonical(fan), x)


def height_zeta_partial(fan, s, B) -> float:
    """Sum of H(x)^{-s} over the anticanonical heights H(x) <= B.

    The summands come from exact heights; only the final accumulation is
    floating point.  Monotone nondecreasing in B.
    """
    if s <= 1:
        raise ValueError("the partial zeta sum is only tracked for s > 1")
    from .counting import enumerate_naive

    total = 0.0
    for _x, h in enumerate_naive(fan, B, with_heights=True):
        total += float(h) ** (-float(s))
    return total
