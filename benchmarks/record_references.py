#!/usr/bin/env python3
"""Record the reference outputs the benchmark's correctness gate compares with.

Run from the root of a checkout whose outputs are trusted:

    python3 benchmarks/record_references.py

It runs one pass of every variant of every workload and rewrites
``benchmarks/references/<workload>.json``.  Rerun it only when the workload
definitions in ``workloads.py`` change, and only on a commit whose outputs
are known to be right: later versions of the program are judged against
these files.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    cli, acceptance = harness.load_package(os.getcwd())
    criteria = {number: fn for number, _, fn in acceptance.CRITERIA}
    os.makedirs(harness.REFERENCE_DIR, exist_ok=True)
    for name in workloads.WORKLOADS:
        variants = []
        for variant in range(workloads.VARIANTS):
            workload = workloads.build(name, variant)
            variants.append(harness.record(workload, harness.run_pass(cli, criteria, workload)))
            print(f"{name} variant {variant} recorded", file=sys.stderr)
        path = os.path.join(harness.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as out:
            out.write('{"variants": [\n')
            out.write(",\n".join(json.dumps(v, separators=(",", ":")) for v in variants))
            out.write("\n]}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
