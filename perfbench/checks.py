"""Output checks, run outside the timed region.

Each check returns None when the output is right and a one-line reason
when it is not.  Reference data comes from the package's golden files,
its JSON schemas and `pinned.json` (written by `pin.py`).
"""

from __future__ import annotations

import bisect
import json
import os
from fractions import Fraction

import jsonschema

HERE = os.path.dirname(os.path.abspath(__file__))


def load_pinned():
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as f:
        return json.load(f)


class Schemas:
    """The CLI's `--json` schemas, read from the package under test."""

    def __init__(self, src_dir):
        self._dir = os.path.join(src_dir, "toricount", "schemas")
        self._cache = {}

    def check(self, kind, payload):
        if kind not in self._cache:
            with open(os.path.join(self._dir, kind + ".schema.json"), encoding="utf-8") as f:
                self._cache[kind] = json.load(f)
        try:
            jsonschema.validate(payload, self._cache[kind])
        except jsonschema.ValidationError as exc:
            return "%s schema: %s" % (kind, exc.message)
        return None


def parse_json(result):
    """The JSON payload of a successful call, or raise ValueError."""
    if result.error:
        raise ValueError(result.error)
    if result.code != 0:
        raise ValueError("exit %s: %s" % (result.code, result.err.strip()[-200:]))
    return json.loads(result.out)


def meets(a, b):
    """Two closed intervals (lo, hi) intersect."""
    return a[0] <= b[1] and b[0] <= a[1]


def check_constants(payload, ref):
    """Exact invariants equal, certified intervals meet the reference ones.

    `ref` is a golden constants file or a pinned entry of the same shape:
    exact alpha, beta, k, h and, for split fans, tau and theta intervals
    certified at a lower (golden) or higher (pinned) cutoff.
    """
    for key in ("beta", "k", "h"):
        if payload[key] != ref[key]:
            return "%s = %r, expected %r" % (key, payload[key], ref[key])
    if Fraction(payload["alpha"]) != Fraction(ref["alpha"]):
        return "alpha = %s, expected %s" % (payload["alpha"], ref["alpha"])
    if ref.get("tau") is None:
        if payload["tau"] is not None or payload["theta"] is not None:
            return "nonsplit fan got a tau interval"
        return None
    tau, theta = payload["tau"], payload["theta"]
    if tau is None or theta is None:
        return "split fan got no tau interval"
    if not tau["lo"] <= tau["hi"] or not theta["lo"] <= theta["hi"]:
        return "empty interval"
    if not meets((tau["lo"], tau["hi"]), (ref["tau"]["lo"], ref["tau"]["hi"])):
        return "tau [%r, %r] misses the reference interval" % (tau["lo"], tau["hi"])
    if not meets((theta["lo"], theta["hi"]), (ref["theta"]["lo"], ref["theta"]["hi"])):
        return "theta [%r, %r] misses the reference interval" % (theta["lo"], theta["hi"])
    return None


def check_count(payload, want, ref):
    """Counts equal the pinned ones; k and the theta interval match the reference."""
    if payload["counts"] != want:
        return "counts %r, pinned %r" % (payload["counts"], want)
    if payload["k"] != ref["k"]:
        return "k = %r, expected %r" % (payload["k"], ref["k"])
    theta = payload["theta"]
    if not meets((theta["lo"], theta["hi"]), (ref["theta"]["lo"], ref["theta"]["hi"])):
        return "theta [%r, %r] misses the reference interval" % (theta["lo"], theta["hi"])
    if ref["k"] >= 2 and len(payload["schedule"]) >= 4 and "leading" not in payload["regression"]:
        return "no regression in the asymptotic report"
    return None


def rel_radius(interval):
    lo, hi = interval["lo"], interval["hi"]
    return (hi - lo) / (hi + lo)


def count_at(table, B):
    """N(B) from a pinned table of [height, cumulative count] rows."""
    heights = [Fraction(h) for h, _n in table]
    i = bisect.bisect_right(heights, Fraction(B))
    return table[i - 1][1] if i else 0
