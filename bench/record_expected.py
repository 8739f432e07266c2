#!/usr/bin/env python3
"""Record the answers the correctness gate pins, from the current code.

    python3 bench/record_expected.py

Writes bench/expected.json: the survey and bound-random digests, and the
exact workload's outcome and general bound per input.  Every corpus is fixed,
so what is recorded at the default seed holds at every seed.  Run it only on a commit whose answers are trusted; later commits
are checked against what it wrote.
"""

from __future__ import annotations

import json
import sys

import run
import speed
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORKDIR.mkdir(exist_ok=True)
    expected = {"default_seed": run.DEFAULT_SEED}
    for name in workloads.NAMES:
        compnum = run.fresh_compnum()
        workload = workloads.build(name, compnum, run.DEFAULT_SEED, run.WORKDIR)
        done = run.Pass(compnum, workload, speed.Meter())
        if done.failed:
            raise SystemExit(f"{name}: {done.failed} calls failed")
        expected[name] = workloads.expected_record(name, compnum, done.outputs)
        print(name, flush=True)
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
