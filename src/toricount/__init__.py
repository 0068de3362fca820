"""Constants and exact point counts for complete regular toric varieties.

Given a fan (optionally with a finite Galois action) the package computes
every constituent of the leading constant in the anticanonical point
count N(B) ~ Theta/(k-1)! * B (log B)^(k-1): the effective-cone factor
alpha, the cohomological factor beta, and a certified Tamagawa Euler
product tau.  For split fans over Q it also enumerates the points of
bounded height exactly and compares the measured growth against the
prediction.
"""

from .cones import ConeRationalFunction, PolyCone, alpha, xfunction
from .corpus import fan as corpus_fan
from .counting import CountReport, asymptotic_report, count_points, enumerate_naive
from .fan import Fan, OrbitDecomposition, galois_orbits, locate_cone, validate_fan
from .heights import TorusPoint, global_height, local_height
from .localdata import LocalDensity, QSigmaPolynomial, local_integral, point_count_fp, qsigma
from .picard import PLFunction, PicardData, picard_data, pl_evaluate
from .tamagawa import EulerProduct, ThetaReport, archimedean_density, tau, theta

__all__ = [
    "Fan",
    "OrbitDecomposition",
    "validate_fan",
    "galois_orbits",
    "locate_cone",
    "PLFunction",
    "PicardData",
    "pl_evaluate",
    "picard_data",
    "PolyCone",
    "ConeRationalFunction",
    "xfunction",
    "alpha",
    "QSigmaPolynomial",
    "LocalDensity",
    "qsigma",
    "local_integral",
    "point_count_fp",
    "TorusPoint",
    "local_height",
    "global_height",
    "EulerProduct",
    "ThetaReport",
    "archimedean_density",
    "tau",
    "theta",
    "CountReport",
    "enumerate_naive",
    "count_points",
    "asymptotic_report",
    "corpus_fan",
]

__version__ = "0.1.0"
