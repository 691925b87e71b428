"""One pass over a workload, and the correctness gate applied to each pass.

A pass does for every job what ``hybridwigner run`` does after start-up
(parse the config, run the scenario, render the CSV) and then runs the
workload's acceptance criteria.  Only the package's public entry points are
called: ``cli.parse_config``, ``cli.run_scenario``, ``cli.render_csv`` and
``acceptance.CRITERIA``.

An operation fails when it raises, produces a non-finite number, renders
other bytes than in the run's first pass, lands outside the reference
tolerance, or (for a criterion) ends other than expected.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")

# A reference value v passes within TOL_FACTOR * max(rel * |v|, abs), where
# rel and abs are the config's [quadrature] tolerances.  Adaptive quadrature
# stays well inside its requested tolerance, so a route that computes the
# same quantity differently (a closed form agreeing to 3e-12, a reordered
# sum) passes, while a wrong formula misses by many orders of magnitude.
TOL_FACTOR = 10.0
# Recorded references keep this many significant digits, far below any
# tolerance above.
REFERENCE_DIGITS = 12
# Every operation keeps a weighted sum of its computed cells; full rows are kept
# for a few operations per job (one-row-per-time jobs) or a few rows per
# operation (many-row jobs).
SAMPLED_OPS_PER_JOB = 5
SAMPLED_ROWS_PER_OP = 5

# Criterion 3 is a strict expected failure; its measured values are pinned.
EXPECTED_FAILING = frozenset({3})
CRITERION_3_PINNED = {
    "r0=10: window integral": 0.097,
    "r0=10: full negative-part integral": -0.076,
    "r0=sqrt(10): window integral": -0.038,
}
PIN_TOLERANCE = 0.001


def load_package(root: str):
    """Import the package from the checkout's ``src`` directory."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hybridwigner", "__init__.py")):
        raise FileNotFoundError(f"no hybridwigner sources under {src}")
    sys.path.insert(0, src)
    import hybridwigner.acceptance as acceptance
    import hybridwigner.cli as cli

    return cli, acceptance


@dataclass
class JobOutput:
    rows: tuple | None
    text: str | None
    tolerances: tuple[float, float] | None
    error: str | None = None


@dataclass
class PassOutput:
    wall_s: float
    jobs: list[JobOutput]
    criteria: list[tuple[int, object, str | None]]


def run_pass(cli, criteria: dict, workload) -> PassOutput:
    """Run every job and criterion once; the wall time covers all of it.

    ``criteria`` maps a criterion number to its callable.
    """
    jobs: list[JobOutput] = []
    results: list[tuple[int, object, str | None]] = []
    start = time.perf_counter()
    for job in workload.jobs:
        # A failure is an outcome to count, not a reason to stop the run.
        try:
            config = cli.parse_config(job.text)
            table = cli.run_scenario(config)
            text = cli.render_csv(table)
        except Exception as exc:
            jobs.append(JobOutput(None, None, None, f"{type(exc).__name__}: {exc}"))
        else:
            spec = config.quadrature
            tolerances = (spec.relative_tolerance, spec.absolute_tolerance)
            jobs.append(JobOutput(table.rows, text, tolerances))
    for number in workload.criteria:
        try:
            results.append((number, criteria[number](), None))
        except Exception as exc:
            results.append((number, None, f"{type(exc).__name__}: {exc}"))
    return PassOutput(time.perf_counter() - start, jobs, results)


def _cells(rows) -> list[float]:
    return [v for row in rows for v in row if isinstance(v, float)]


def _result_cells(job, rows) -> list[float]:
    """Cells after the leading time (and abscissa) columns of each row.

    The checksum leaves the grid columns out: their magnitude would set a
    tolerance that hides errors in the computed values.
    """
    keys = 1 if job.rows_per_time == 1 else 2
    return [v for row in rows for v in row[keys:] if isinstance(v, float)]


def _weights(count: int) -> list[float]:
    # Distinct weights, so two cells trading places change the sum.
    return [1.0 + i / count for i in range(count)]


def _weighted_sum(cells: list[float]) -> float:
    return math.fsum(w * v for w, v in zip(_weights(len(cells)), cells))


def _op_rows(job, output: JobOutput, k: int):
    n = job.rows_per_time
    return output.rows[k * n : (k + 1) * n]


def _changed_ops(job, text: str, first: str) -> set[int]:
    """Operations whose CSV lines differ between two renderings of a job."""
    if text == first:
        return set()
    now, then = text.split("\n"), first.split("\n")
    head = sum(1 for line in now if line.startswith("#")) + 1
    ops = range(len(job.times))
    if now[:head] != then[:head]:
        # metadata and header belong to every operation
        return set(ops)
    n = job.rows_per_time
    return {
        k for k in ops if now[head + k * n : head + (k + 1) * n] != then[head + k * n : head + (k + 1) * n]
    }


def _sampled(count: int, per: int) -> list[int]:
    stride = max(1, math.ceil(count / per))
    return sorted(set(range(0, count, stride)) | {count - 1})


def record(workload, output: PassOutput) -> dict:
    """Reference entries for every operation of every job of one pass."""
    jobs = {}
    for job, out in zip(workload.jobs, output.jobs):
        if out.error is not None:
            raise RuntimeError(f"{job.name}: {out.error}")
        sampled_ops = (
            set(_sampled(len(job.times), SAMPLED_OPS_PER_JOB))
            if job.rows_per_time == 1
            else set(range(len(job.times)))
        )
        entries = []
        for k in range(len(job.times)):
            rows = _op_rows(job, out, k)
            kept = []
            if k in sampled_ops:
                for r in _sampled(len(rows), SAMPLED_ROWS_PER_OP):
                    kept.append([r] + [_rounded(v) for v in _cells([rows[r]])])
            entries.append([_rounded(_weighted_sum(_result_cells(job, rows))), kept])
        jobs[job.name] = entries
    return jobs


def _rounded(value: float) -> float:
    return float(f"{value:.{REFERENCE_DIGITS}g}")


def load_references(name: str, variant: int) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), encoding="utf-8") as handle:
        return json.load(handle)["variants"][variant]


class Checker:
    """Applies the correctness gate to each pass and counts failed operations."""

    def __init__(self, workload, references: dict):
        self.workload = workload
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first_texts: list[str | None] | None = None
        self._first_criteria: dict[int, tuple] = {}

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check(self, output: PassOutput) -> None:
        if self._first_texts is None:
            self._first_texts = [out.text for out in output.jobs]
        for job, out, first in zip(self.workload.jobs, output.jobs, self._first_texts):
            entries = self.references[job.name]
            changed = set()
            if out.text is not None:
                changed = _changed_ops(job, out.text, first) if first is not None else set(range(len(job.times)))
            for k, op in enumerate(job.op_indices):
                self.attempted += 1
                problem = self._op_problem(job, out, k in changed, k, entries[op])
                if problem:
                    self.fail(f"{job.name} t={job.times[k]!r}: {problem}")
        for number, result, error in output.criteria:
            self.attempted += 1
            problem = self._criterion_problem(number, result, error)
            if problem:
                self.fail(f"criterion {number}: {problem}")

    def _op_problem(self, job, out: JobOutput, changed: bool, k: int, entry) -> str | None:
        if out.error is not None:
            return out.error
        rows = _op_rows(job, out, k)
        if len(rows) != job.rows_per_time:
            return f"{len(rows)} rows, expected {job.rows_per_time}"
        cells = _cells(rows)
        if not all(math.isfinite(v) for v in cells):
            return "non-finite value"
        if changed:
            return "CSV bytes differ from the first pass"
        rel, abs_tol = out.tolerances
        total, kept = entry
        results = _result_cells(job, rows)
        sum_tol = TOL_FACTOR * math.fsum(
            w * max(rel * abs(v), abs_tol) for w, v in zip(_weights(len(results)), results)
        )
        if abs(_weighted_sum(results) - total) > sum_tol:
            return f"weighted sum {_weighted_sum(results)!r} vs reference {total!r}"
        for r, *ref_cells in kept:
            got = _cells([rows[r]])
            if len(got) != len(ref_cells):
                return f"row {r}: {len(got)} values, reference has {len(ref_cells)}"
            for col, (v, ref) in enumerate(zip(got, ref_cells)):
                if abs(v - ref) > TOL_FACTOR * max(rel * abs(ref), abs_tol):
                    return f"row {r} column {col}: {v!r} vs reference {ref!r}"
        return None

    def _criterion_problem(self, number: int, result, error) -> str | None:
        if error is not None:
            return error
        measured = {c.label: c.measured for c in result.checks}
        if not all(math.isfinite(v) for v in measured.values()):
            return "non-finite measured value"
        expected = number not in EXPECTED_FAILING
        if result.passed != expected:
            return f"{'failed' if expected else 'passed'}, expected the opposite"
        if number == 3:
            for label, pin in CRITERION_3_PINNED.items():
                value = measured.get(label)
                if value is None or abs(value - pin) > PIN_TOLERANCE:
                    return f"{label} = {value!r}, pinned at {pin} +- {PIN_TOLERANCE}"
        signature = tuple((c.label, repr(c.measured), c.bound, c.passed) for c in result.checks)
        first = self._first_criteria.setdefault(number, signature)
        if signature != first:
            return "check table differs from the first pass"
        return None
