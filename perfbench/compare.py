#!/usr/bin/env python3
"""Summarise saved benchmark runs, or compare two sets of them.

    python3 perfbench/compare.py RUNS_DIR [CHANGE_RUNS_DIR]

Each directory holds the stdout of ``run.py`` runs, one ``*.out`` file per
run.  For every workload and metric it prints the median, the quartiles and
the spread (quartile distance over median).  Given two directories it also
prints how far the second median moved in the worse direction, as a share of
the first, against the end-to-end bound in ``BENCHMARK.json``.  Runs made on
different kernel backends are not compared.
"""

import glob
import json
import os
import statistics
import sys
from collections import defaultdict


def load(directory: str) -> tuple:
    """({(workload, metric): [values]}, {backends seen})."""
    values, backends = defaultdict(list), set()
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        meta = json.loads(lines[-2])["meta"]
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"{path}: run reported correct = false", file=sys.stderr)
        backends.add(meta["backend"])
        for name, m in result["metrics"].items():
            values[(meta["workload"], name)].append(m["value"])
    return values, backends


def summary(xs: list) -> tuple:
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base, base_backends = load(argv[1])
    change, change_backends = load(argv[2]) if len(argv) == 3 else ({}, set())
    if change and base_backends != change_backends:
        print(f"refusing to compare backends {sorted(base_backends)} and "
              f"{sorted(change_backends)}", file=sys.stderr)
        return 2
    worst_ok = True
    print(f"{'workload':<12} {'metric':<40} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7}" + (f" {'median2':>12} {'worse':>7} {'bound':>6}" if change else ""))
    for (workload, name), xs in sorted(base.items()):
        med, q1, q3, spread = summary(xs)
        line = f"{workload:<12} {name:<40} {len(xs):>3} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>7.2%}"
        if change and (workload, name) in change:
            med2 = summary(change[(workload, name)])[0]
            m = spec.get(name)
            sign = -1 if m and m["better"] == "higher" else 1
            worse = sign * (med2 - med) / med if med else 0.0
            bound = m["bound"] if m else None
            if bound is not None and worse > bound:
                worst_ok = False
            line += f" {med2:>12.5g} {worse:>7.2%} " + (f"{bound:>6.2f}" if bound is not None else f"{'-':>6}")
        print(line)
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
