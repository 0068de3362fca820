"""Constants and exact point counts for complete regular toric varieties.

Given a fan (optionally with a finite Galois action) the package computes
every constituent of the leading constant in the anticanonical point
count N(B) ~ Theta/(k-1)! * B (log B)^(k-1): the effective-cone factor
alpha, the cohomological factor beta, and a certified Tamagawa Euler
product tau.  For split fans over Q it also enumerates the points of
bounded height exactly and compares the measured growth against the
prediction.

Importing the package loads none of its modules.  A public name, or a
module such as `toricount.counting`, is imported on its first use
(PEP 562), so a command line reaches through the package only the
modules its command runs.
"""

from importlib import import_module

# public name -> (module, attribute)
_EXPORTS = {
    "Fan": ("fan", "Fan"),
    "OrbitDecomposition": ("fan", "OrbitDecomposition"),
    "validate_fan": ("fan", "validate_fan"),
    "galois_orbits": ("fan", "galois_orbits"),
    "locate_cone": ("fan", "locate_cone"),
    "PLFunction": ("picard", "PLFunction"),
    "PicardData": ("picard", "PicardData"),
    "pl_evaluate": ("picard", "pl_evaluate"),
    "picard_data": ("picard", "picard_data"),
    "PolyCone": ("cones", "PolyCone"),
    "ConeRationalFunction": ("cones", "ConeRationalFunction"),
    "xfunction": ("cones", "xfunction"),
    "alpha": ("cones", "alpha"),
    "QSigmaPolynomial": ("localdata", "QSigmaPolynomial"),
    "LocalDensity": ("localdata", "LocalDensity"),
    "qsigma": ("localdata", "qsigma"),
    "local_integral": ("localdata", "local_integral"),
    "point_count_fp": ("localdata", "point_count_fp"),
    "TorusPoint": ("heights", "TorusPoint"),
    "local_height": ("heights", "local_height"),
    "global_height": ("heights", "global_height"),
    "EulerProduct": ("tamagawa", "EulerProduct"),
    "ThetaReport": ("tamagawa", "ThetaReport"),
    "archimedean_density": ("tamagawa", "archimedean_density"),
    "tau": ("tamagawa", "tau"),
    "theta": ("tamagawa", "theta"),
    "CountReport": ("counting", "CountReport"),
    "enumerate_naive": ("counting", "enumerate_naive"),
    "count_points": ("counting", "count_points"),
    "asymptotic_report": ("counting", "asymptotic_report"),
    "corpus_fan": ("corpus", "fan"),
}

_MODULES = frozenset((
    "arith", "cli", "cones", "corpus", "counting", "dd", "fan", "heights",
    "linalg", "localdata", "picard", "tamagawa",
))

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    """A module of the package, or a public name, imported on first use."""
    if name in _MODULES:
        # importing a module binds it here, so this runs once per module
        return import_module("." + name, __name__)
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module, attribute = _EXPORTS[name]
    value = globals()[name] = getattr(import_module("." + module, __name__), attribute)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _MODULES)
