"""Rebuild pinned.json, the reference data the benchmark checks against.

    python3 perfbench/pin.py

Takes a few minutes.  It pins:
- exact alpha, beta, k, h and tau/theta intervals certified at cutoff 1e6
  for the split fans that have no golden file in the package;
- N(B) tables for the count-scan fans up to the top of each B band, from
  the `enumerate_naive(..., with_heights=True)` oracle;
- the closed-form counts at every schedule point count-sieve can draw,
  each checked against the naive scan where that is cheap.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from toricount.corpus import fan_from_dict  # noqa: E402
from toricount.counting import count_points, enumerate_naive  # noqa: E402
from toricount.tamagawa import theta  # noqa: E402

from workloads import CountScan, CountSieve, canonical_fans  # noqa: E402

REFERENCE_CUTOFF = 10**6
CONSTANTS = ("dp7", "dp6xp1", "dp6xp2", "dp7xdp7")


def pin_constants(fans):
    out = {}
    for name in CONSTANTS:
        report = theta(fan_from_dict(fans[name]), REFERENCE_CUTOFF).to_json_dict()
        report.pop("provenance")
        out[name] = report
        print("constants", name, report["alpha"], report["theta"], flush=True)
    return out


def pin_scan(fans):
    out = {}
    for name, B0 in CountScan.BOUNDS.items():
        top = int(B0 * (1 + CountScan.SPREAD)) + 1
        heights = sorted(h for _x, h in enumerate_naive(fan_from_dict(fans[name]), top, with_heights=True))
        table = []
        for i, h in enumerate(heights):
            if i + 1 == len(heights) or heights[i + 1] != h:
                table.append([str(h), i + 1])
        out[name] = {"top": top, "table": table}
        print("count-scan", name, top, len(heights), flush=True)
    return out


def pin_sieve(fans):
    out = {}
    for name in CountSieve.SCHEDULES:
        fan = fan_from_dict(fans[name])
        counts = {}
        for i in range(CountSieve.GRID):
            for B in CountSieve.schedule(name, i):
                if str(B) not in counts:
                    counts[str(B)] = count_points(fan, B, strategy="specialized")
        for B in sorted(int(b) for b in counts):
            if B <= 10**4 and count_points(fan, B, strategy="naive") != counts[str(B)]:
                raise AssertionError("%s: naive and closed-form N(%d) differ" % (name, B))
        out[name] = counts
        print("count-sieve", name, len(counts), flush=True)
    return out


def main():
    fans = canonical_fans()
    pinned = {
        "reference_cutoff": REFERENCE_CUTOFF,
        "constants": pin_constants(fans),
        "count_scan": pin_scan(fans),
        "count_sieve": pin_sieve(fans),
    }
    with open(os.path.join(HERE, "pinned.json"), "w", encoding="utf-8") as f:
        json.dump(pinned, f, indent=0)
        f.write("\n")


if __name__ == "__main__":
    main()
