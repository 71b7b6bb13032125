"""Compare saved benchmark runs of two commits.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the standard output of run.py runs, one file per run.
Runs are grouped by workload.  The comparison is refused (exit 2) when the
two sides ran on different search backends or Python versions: a compiled
loop-search kernel makes loopsearch about 30x faster and would look like a
code gain.

Untraced runs: for each end-to-end metric, the median and quartiles of each
side and the change of the medians, marked "worse" when the new median is
worse than the base median by more than the metric's bound in
BENCHMARK.json, and "unresolved" when the base's own quartile spread is
wider than the bound.

Traced runs: the count metrics (fields.*_calls, tensors.*, loops.classes,
report.witnesses, fileio.bytes) must repeat exactly between runs of one
side with the same seed.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COUNTS = ("fields.add_calls", "fields.mul_calls", "fields.nonintegral_share",
          "tensors.dense_cells", "tensors.nnz", "loops.classes",
          "report.witnesses", "fileio.bytes")


def load(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as fh:
            lines = fh.read().strip().splitlines()
        if len(lines) < 2:
            continue
        try:
            prov = json.loads(lines[-2])["provenance"]
            result = json.loads(lines[-1])
        except (ValueError, KeyError):
            continue
        runs.append((prov, result))
    return runs


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        sys.stderr.write("error: no run outputs found\n")
        return 2
    for key in ("search_backend", "python"):
        values = {p[key] for p, _ in base + new}
        if len(values) > 1:
            sys.stderr.write(f"error: runs differ in {key}: "
                             f"{sorted(values)}; refusing to compare\n")
            return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    status = 0
    for side, runs in (("base", base), ("new", new)):
        seen = {}
        for prov, result in runs:
            if not prov["trace"]:
                continue
            counts = {k: result["metrics"][k]["value"] for k in COUNTS}
            key = (prov["workload"], prov["seed"])
            if seen.setdefault(key, counts) != counts:
                print(f"{side} {key}: counts differ between traced runs")
                status = 1
    for workload in sorted({p["workload"] for p, _ in base + new}):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sides = []
            for runs in (base, new):
                values = [r["metrics"][name]["value"] for p, r in runs
                          if p["workload"] == workload and not p["trace"]]
                sides.append(spread(values) if values else None)
            if None in sides:
                continue
            (b1, bmed, b3), (n1, nmed, n3) = sides
            change = (nmed - bmed) / bmed if bmed else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = ("unresolved" if bmed and (b3 - b1) / bmed > bound
                       else "worse" if worse > bound else "ok")
            if verdict == "worse":
                status = 1
            print(f"{workload:>10} {name:<16} base {bmed:.5g} [{b1:.5g}, "
                  f"{b3:.5g}]  new {nmed:.5g} [{n1:.5g}, {n3:.5g}]  "
                  f"{100 * change:+.1f}% (bound {100 * bound:.0f}%) "
                  f"{verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
