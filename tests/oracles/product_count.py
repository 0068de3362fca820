"""Point counts on P^1 x Y, by convolution over the heights of P^1.

Anticanonical heights multiply on a product (the phi of a product fan is
the sum of its factors' phi), so

    N_{P^1 x Y}(B) = sum_h a(h) * N_Y(B / h),

where a(h) counts the torus points of P^1 of height exactly h.  Those
are the a/b in lowest terms, a != 0 and b > 0, with max(|a|, b)^2 = h:
two at h = 1 and 4 phi(m) at h = m^2 for m >= 2.  Given Y's own count,
this checks a product's count against its factor's, by a route that
shares no code with the naive scan or tests/oracles/torsor_walk.py.
"""

from __future__ import annotations

import math
from fractions import Fraction


def p1_product_count(count_y, B):
    """N_{P^1 x Y}(B), with count_y(b) the number of Y's points of height <= b."""
    bound = Fraction(B)
    total, m = 0, 1
    while m * m <= bound:
        phi = sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)
        total += (2 if m == 1 else 4 * phi) * count_y(bound / (m * m))
        m += 1
    return total
