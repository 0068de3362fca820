"""Bundled corpus fans and their golden constants files.

A bundled file is read by this module's own loader, on a path beside
it, as pkgutil.get_data does: that works from a zip as from a
directory, and imports nothing more.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache

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


_INT = frozenset((int,))


def _int_array(value, depth, key):
    """value if it is nested arrays of ints `depth` levels deep, else
    ValueError at its first bad entry in reading order.

    One call per array: a row of ints is checked by its set of types.
    """
    if depth == 0:
        if type(value) is not int:
            raise ValueError("%s: expected an integer, got %r" % (key, value))
        return value
    if not isinstance(value, (list, tuple)):
        raise ValueError("%s: expected an array, got %r" % (key, value))
    if depth > 1:
        for v in value:
            _int_array(v, depth - 1, key)
    elif not _INT.issuperset(map(type, value)):
        _int_array(next(v for v in value if type(v) is not int), 0, key)
    return value


def fan_from_dict(data) -> Fan:
    """Fan from its JSON object; ValueError unless it has the required keys
    and every entry is an integer.  Fan() normalizes what this checks."""
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


# distinct fan files a process keeps decoded: a workload's dozen, with room
DECODED_FANS = 32


@lru_cache(maxsize=DECODED_FANS)
def fan_from_bytes(raw) -> Fan:
    """Fan from the bytes of its JSON file, decoded once per content.

    Decoded as a text-mode open would: strict UTF-8 and universal
    newlines, so JSON error offsets in a CRLF file stay the same.  Equal
    bytes share one Fan, which is frozen; a raise is not cached, so a
    malformed file raises the same error on every call.  JSON nested past
    the decoder's recursion limit is malformed input too.
    """
    text = raw.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("the fan file nests its JSON too deeply to decode") from None
    return fan_from_dict(data)


_HERE = os.path.dirname(__file__)


def _bundled(relative):
    """The bytes of the bundled file at the "/"-separated relative path."""
    return __spec__.loader.get_data(os.path.join(_HERE, *relative.split("/")))


def fan(name) -> Fan:
    if name not in NAMES:
        raise KeyError("unknown corpus fan %r (have %s)" % (name, list(NAMES)))
    return fan_from_bytes(_bundled("corpus/%s.json" % name))


def golden_constants(name) -> dict:
    return json.loads(_bundled("corpus/golden/%s.constants.json" % name).decode("utf-8"))

