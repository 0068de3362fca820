"""The complex-place Fourier transform of exp(-phi_s), in exact arithmetic.

The transform is a sum over maximal cones of 1 / prod (s_j + i <e_j, y>);
the tests pin its sign conventions against quadrature of the defining
integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ComplexRational:
    """Exact complex number with rational real and imaginary parts."""

    real: Fraction
    imag: Fraction

    def __complex__(self):
        return float(self.real) + 1j * float(self.imag)

    def __add__(self, other):
        return ComplexRational(self.real + other.real, self.imag + other.imag)

    def __mul__(self, other):
        return ComplexRational(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    def reciprocal(self):
        n = self.real**2 + self.imag**2
        if n == 0:
            raise ZeroDivisionError
        return ComplexRational(self.real / n, -self.imag / n)

    def is_zero(self):
        return self.real == 0 and self.imag == 0


def archimedean_transform(fan, s, y):
    """Sum over maximal cones of 1 / prod (s_j + i <e_j, y>), exact.

    This is the complex-place Fourier transform of exp(-phi_s); the
    quadrature oracle in the tests pins the sign conventions.
    """
    y = [Fraction(v) for v in y]
    svals = [Fraction(v) for v in s.values]
    if any(v <= 0 for v in svals):
        raise ValueError("s must be positive on every ray")
    total = ComplexRational(Fraction(0), Fraction(0))
    for ci, cone in enumerate(fan.max_cones):
        denom = ComplexRational(Fraction(1), Fraction(0))
        for j in cone:
            pairing = sum(e * yy for e, yy in zip(fan.rays[j], y))
            factor = ComplexRational(svals[j], pairing)
            if factor.is_zero():
                raise ZeroDivisionError(
                    "factor for ray %d vanishes on cone %d" % (j, ci)
                )
            denom = denom * factor
        total = total + denom.reciprocal()
    return total
