#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories (or single files) holding the standard
output of `perfbench/run.py` runs, one run per file.  Each file's stamp
line names its workload.  For every workload and end-to-end metric the
table shows each side's median and quartiles, as Python's
statistics.quantiles(values, n=4) gives them, and the change of the
median.  A change larger than the metric's bound in BENCHMARK.json is
flagged WORSE or BETTER.  The exit code is 1 when anything is WORSE, or
when the share of failed operations differs between the two sides.
"""

import json
import os
import statistics
import sys


def runs(path):
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, f) for f in os.listdir(path))
    out = {}
    for f in files:
        with open(f) as fh:
            lines = [l for l in fh.read().splitlines() if l.strip()]
        if len(lines) < 2:
            continue
        stamp = json.loads(lines[0]).get("stamp", {})
        result = json.loads(lines[-1])
        if stamp.get("trace") != 0:
            continue
        out.setdefault(stamp["workload"], []).append(result)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = runs(sys.argv[1]), runs(sys.argv[2])
    worse = False
    fmt = "%-16s %-14s %32s %32s %8s  %s"
    print(fmt % ("workload", "metric", "base q1 / median / q3", "new q1 / median / q3", "change", ""))
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in base or w not in new:
            print("%-16s (missing on one side)" % w)
            continue
        for side in (base, new):
            side[w + "/failed"] = sum(r["failed"] for r in side[w]) / sum(r["attempted"] for r in side[w])
        if base[w + "/failed"] != new[w + "/failed"]:
            worse = True
            print("%-16s failed share %.6f -> %.6f  DIFFERS" % (w, base[w + "/failed"], new[w + "/failed"]))
        for m in spec["end_to_end"]:
            name = m["name"]
            b = quartiles([r["metrics"][name]["value"] for r in base[w]])
            n = quartiles([r["metrics"][name]["value"] for r in new[w]])
            change = (n[1] - b[1]) / b[1] if b[1] else 0.0
            flag = ""
            if abs(change) > m["bound"]:
                bad = change > 0 if m["better"] == "lower" else change < 0
                flag = "WORSE" if bad else "BETTER"
                worse = worse or bad
            print(fmt % (w, name, "%.4g / %.4g / %.4g" % b, "%.4g / %.4g / %.4g" % n,
                         "%+.1f%%" % (100 * change), flag))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
