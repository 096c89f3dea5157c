"""Regenerate ``reference.json``: what every job certifies at the default seed.

    python3 perfbench/make_reference.py

``run.py`` compares each job run on the default seed against these values
(to ``run.TOLERANCE``).  Regenerate only for a change that is meant to move
them, and say in that change why they moved.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    program = run.load_program()
    record = {"seed": run.DEFAULT_SEED, "tolerance": run.TOLERANCE, "workloads": {}}
    for workload in WORKLOADS:
        bench = run.Bench(program, workload, run.DEFAULT_SEED,
                          run.RUNS_DIR / f"reference-{workload}", small=False)
        try:
            bench.warm_up()
        finally:
            bench.close()
        failed = sorted(name for name, ref in bench.reference.items() if ref is None)
        if failed:
            print(f"{workload}: jobs failed, no reference written: {failed}", file=sys.stderr)
            for err in bench.errors:
                print(err, file=sys.stderr)
            return 1
        record["workloads"][workload] = bench.reference
    run.REFERENCE_FILE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
