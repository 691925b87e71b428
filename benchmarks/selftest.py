"""Self-test of the benchmark, run by ``python3 benchmarks/run.py --smoke``.

Runs every workload of ``BENCHMARK.json`` on a tiny slice of its input,
untraced and traced, and asserts that each run exits 0, passes the
correctness gate and prints every named metric with its unit.  Then it
checks that the benchmark refuses to run, without printing a result, in a
directory that holds only the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
BARE_DIR = os.path.join(HERE, "out", "bare")


class SelfTestError(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def _check_run(workload: str, trace: int, expected: list[dict]) -> None:
    command = [sys.executable, RUN, "--workload", workload, "--seed", "0"]
    command += ["--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=170)
    label = f"{workload} --trace {trace}"
    _require(proc.returncode == 0, f"{label}: exit code {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    _require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
    _require(result["correct"] is True and result["failed"] == 0, f"{label}: outputs not correct\n{proc.stderr}")
    _require(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    names = {m["name"] for m in expected}
    _require(set(result["metrics"]) == names, f"{label}: metrics {sorted(set(result['metrics']) ^ names)}")
    report = "\n".join(lines[:-1])
    for metric in expected:
        got = result["metrics"][metric["name"]]
        _require(got["unit"] == metric["unit"], f"{label}: {metric['name']} unit {got['unit']}")
        _require(isinstance(got["value"], (int, float)), f"{label}: {metric['name']} value")
        _require(
            any(metric["name"] in line and f" {metric['unit']}" in line for line in report.splitlines()),
            f"{label}: {metric['name']} not printed with its unit",
        )


def _check_bare_directory() -> None:
    """Without the package sources the benchmark must fail without a result."""
    shutil.rmtree(BARE_DIR, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(BARE_DIR, "benchmarks"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy("BENCHMARK.json", BARE_DIR)
    command = [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", "closed_sweep"]
    command += ["--seed", "0", "--seconds", "1", "--trace", "0"]
    try:
        proc = subprocess.run(command, cwd=BARE_DIR, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(BARE_DIR, ignore_errors=True)
    _require(proc.returncode != 0, "bare directory: exit code 0")
    _require(proc.stdout.strip() == "", f"bare directory printed {proc.stdout!r}")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    runs = 0
    try:
        for workload in spec["workloads"]:
            for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                _check_run(workload["name"], trace, expected)
                runs += 1
        _check_bare_directory()
    except SelfTestError as exc:
        print(f"self-test FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"self-test passed: {runs} tiny runs and the bare-directory check")
    return 0
