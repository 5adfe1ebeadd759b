#!/usr/bin/env python3
"""Record the report digests in golden.json from the code in ./src.

    python3 perfbench/record_golden.py

Run it from the root of a checkout whose reports are the reference (reports
must stay byte-identical, so this is needed only when a workload's
generator changes).  Every report must pass verification before its digest
is recorded.  Seeds 0..SEEDS-1 of every workload are recorded.
"""

import json
import os
import sys

SEEDS = 32


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    from worker import GOLDEN_PATH, Bench
    from workloads import WORKLOADS

    golden = {"digest": "first 8 hex digits of sha256 of each report, in case order",
              "workloads": {w: {} for w in WORKLOADS}}
    for workload in WORKLOADS:
        for seed in range(SEEDS):
            bench = Bench(workload, seed, use_golden=False)
            bench.run_pass()
            if bench.failed:
                raise SystemExit(f"{workload} seed {seed}: {bench.failed} reports failed")
            golden["workloads"][workload][str(seed)] = "".join(bench.digests)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {SEEDS} seeds of {len(WORKLOADS)} workloads in {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
