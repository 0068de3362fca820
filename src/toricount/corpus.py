"""Bundled corpus fans and their golden constants files."""

from __future__ import annotations

import json
from importlib import resources

from .fan import Fan

NAMES = (
    "p1",
    "p2",
    "p1xp1",
    "hirzebruch1",
    "dp6",
    "p1-norm-one",
    "p1xp1-swap",
    "p2-threecycle",
)


def _int_array(value, depth, key):
    """value as nested lists of ints, `depth` levels deep, or ValueError."""
    if depth == 0:
        if type(value) is not int:
            raise ValueError("%s: expected an integer, got %r" % (key, value))
        return value
    if not isinstance(value, (list, tuple)):
        raise ValueError("%s: expected an array, got %r" % (key, value))
    return [_int_array(v, depth - 1, key) for v in value]


def fan_from_dict(data) -> Fan:
    """Fan from its JSON object; ValueError unless it has the required keys
    and every entry is an integer."""
    if not isinstance(data, dict):
        raise ValueError("a fan is a JSON object, got %s" % type(data).__name__)
    for key in ("dim", "rays", "max_cones"):
        if key not in data:
            raise ValueError('the fan object has no "%s" key' % key)
    return Fan(
        _int_array(data["dim"], 0, "dim"),
        _int_array(data["rays"], 2, "rays"),
        _int_array(data["max_cones"], 2, "max_cones"),
        _int_array(data.get("galois", []), 3, "galois"),
    )


def fan_to_dict(fan: Fan) -> dict:
    out = {
        "dim": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }
    if fan.galois:
        out["galois"] = [[list(row) for row in g] for g in fan.galois]
    return out


def _read(relative):
    return (
        resources.files("toricount").joinpath(relative).read_text(encoding="utf-8")
    )


def fan(name) -> Fan:
    if name not in NAMES:
        raise KeyError("unknown corpus fan %r (have %s)" % (name, list(NAMES)))
    return fan_from_dict(json.loads(_read("corpus/%s.json" % name)))


def fan_json_path(name):
    """Filesystem path of a bundled corpus file (for CLI tests)."""
    return str(resources.files("toricount").joinpath("corpus/%s.json" % name))


def golden_constants(name) -> dict:
    return json.loads(_read("corpus/golden/%s.constants.json" % name))

