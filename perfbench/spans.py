"""Spans recorded from the benchmark's side of each layer boundary.

A span has a name (`<module>.<function>`), start and end times, the span
that caused it, the input it belongs to, work counters, and whether the
package's fan-keyed caches were warm or cold for it.  Spans stay in
memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

# lru caches keyed by fan value; a repeated fan finds them warm.
FAN_CACHES = (
    ("fan", "_all_cones"),
    ("fan", "_cone_dual_basis"),
    ("picard", "picard_quotient"),
    ("picard", "_cone_linear_form"),
)

# Span names whose durations add up to what one CLI command composes,
# used for cli.overhead_s (the command's time outside those layers).
COMPOSED = {
    "constants": ("corpus.load", "picard.picard_data", "cones.alpha", "tamagawa.tau"),
    "validate": ("corpus.load", "fan.validate"),
    "xfunction": ("corpus.load", "linalg.snf", "dd.extreme_rays", "cones.xfunction"),
    "localcheck": (
        "corpus.load",
        "localdata.qsigma",
        "localdata.local_integral",
        "picard.picard_data",
        "localdata.point_count_fp",
    ),
    "count": (
        "corpus.load",
        "picard.picard_data",
        "cones.alpha",
        "tamagawa.tau",
        "counting.scan",
        "counting.sieve",
        "counting.report",
    ),
}


class Tracer:
    def __init__(self, package):
        self.spans = []
        self._stack = []
        self._caches = []
        for module, name in FAN_CACHES:
            cache = getattr(getattr(package, module, None), name, None)
            if cache is not None and hasattr(cache, "cache_info"):
                self._caches.append(cache)

    def _cache_counts(self):
        hits = misses = 0
        for cache in self._caches:
            info = cache.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    @contextmanager
    def span(self, name, input_id, command=None, **counts):
        rec = {
            "id": len(self.spans),
            "name": name,
            "input": input_id,
            "command": command,
            "parent": self._stack[-1] if self._stack else None,
            "counts": dict(counts),
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        hits, misses = self._cache_counts()
        cpu = time.process_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu"] = time.process_time() - cpu
            self._stack.pop()
            hits2, misses2 = self._cache_counts()
            rec["cache"] = (
                "cold" if misses2 > misses else "warm" if hits2 > hits else "none"
            )

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)


def _ratio(a, b):
    return a / b if b else 0.0


def pass_metrics(spans):
    """Per-layer metrics of one traced pass."""
    time_of, count_of, calls_of = {}, {}, {}
    for s in spans:
        time_of[s["name"]] = time_of.get(s["name"], 0.0) + s["end"] - s["start"]
        calls_of[s["name"]] = calls_of.get(s["name"], 0) + 1
        for key, value in s["counts"].items():
            count_of[key] = count_of.get(key, 0) + value

    def t(name):
        return time_of.get(name, 0.0)

    overhead = 0.0
    for main in (s for s in spans if s["name"] == "cli.main"):
        layers = COMPOSED.get(main["command"], ())
        inside = sum(
            s["end"] - s["start"]
            for s in spans
            if s["parent"] == main["parent"] and s["name"] in layers
        )
        overhead += main["end"] - main["start"] - inside

    candidates = count_of.get("candidates", 0)
    return {
        "cli.main_s": t("cli.main"),
        "cli.overhead_s": overhead,
        "proc.cpu_s": sum(s["cpu"] for s in spans if s["name"] == "cli.main"),
        "corpus.load_s": t("corpus.load"),
        "fan.validate_s": t("fan.validate"),
        "fan.validate_calls": calls_of.get("fan.validate", 0),
        "linalg.snf_s": t("linalg.snf"),
        "linalg.snf_calls": calls_of.get("linalg.snf", 0),
        "dd.extreme_rays_s": t("dd.extreme_rays"),
        "dd.rays_out": count_of.get("rays_out", 0),
        "picard.picard_data_s": t("picard.picard_data"),
        "cones.alpha_s": t("cones.alpha"),
        "cones.xfunction_s": t("cones.xfunction"),
        "cones.simplices": count_of.get("simplices", 0),
        "localdata.qsigma_s": t("localdata.qsigma"),
        "localdata.qsigma_monomials": count_of.get("monomials", 0),
        "localdata.local_integral_s": t("localdata.local_integral"),
        "localdata.point_count_fp_us": 1e6
        * _ratio(t("localdata.point_count_fp"), count_of.get("fp_primes", 0)),
        "tamagawa.tau_s": t("tamagawa.tau"),
        "tamagawa.primes": count_of.get("primes", 0),
        "tamagawa.us_per_prime": 1e6 * _ratio(t("tamagawa.tau"), count_of.get("primes", 0)),
        "heights.points": count_of.get("height_points", 0),
        "heights.us_per_point": 1e6
        * _ratio(t("heights.anticanonical_height"), count_of.get("height_points", 0)),
        "counting.estimate_s": t("counting.estimate"),
        "counting.candidates": candidates,
        "counting.scan_s": t("counting.scan"),
        "counting.points": count_of.get("points", 0),
        "counting.kept_ratio": _ratio(count_of.get("points", 0), count_of.get("orthant_candidates", 0)),
        "counting.us_per_candidate": 1e6 * _ratio(t("counting.scan"), candidates),
        "counting.sieve_s": t("counting.sieve"),
        "counting.report_s": t("counting.report"),
    }


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or ".us_per_" in name:
        return "us"
    return "ratio" if name.endswith("_ratio") else "count"


def median_metrics(per_pass):
    keys = per_pass[0].keys()
    return {k: statistics.median(m[k] for m in per_pass) for k in keys}
