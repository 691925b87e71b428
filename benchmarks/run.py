#!/usr/bin/env python3
"""Benchmark of the hybridwigner simulator.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload phase_nested --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke

``--trace 0`` measures the end-to-end metrics with no instrumentation:
``wall_s`` (median wall time of one full pass over the workload, after a
warm-up pass), ``setup_s`` (median over fresh interpreters of importing
``hybridwigner.cli`` and ``hybridwigner.acceptance`` and parsing the
workload's configs) and ``peak_rss_mb`` (peak resident memory of this
process).  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics of the traced ones (see ``tracing.py``), their
overhead against the untraced median, and writes every span to
``benchmarks/out/``.

Every pass goes through the correctness gate in ``harness.py``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit.  ``--smoke`` runs the self-test in ``selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_DIR = os.path.join(HERE, "out")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's self-test")
    parser.add_argument("--tiny", action="store_true", help="a small slice of the workload")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    return args


def _workload(args):
    workload = workloads.build(args.workload, args.seed)
    return workloads.tiny(workload) if args.tiny else workload


def setup_child(args) -> int:
    """Time import plus config parsing in this fresh interpreter."""
    texts = [job.text for job in _workload(args).jobs]
    start = time.perf_counter()
    cli, _ = harness.load_package(os.getcwd())
    for text in texts:
        cli.parse_config(text)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def _setup_sample(args) -> float:
    """One set-up time, measured in a fresh interpreter."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-child"]
    command += ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return f"no percentile has ten samples above it (max {max(samples):.6g})"
    return f"p{100.0 * (n - 10) / n:.0f} {sorted(samples)[n - 11]:.6g}"


def measure(args) -> tuple[dict, dict, harness.Checker, list[str]]:
    """Run the workload for ``args.seconds``; returns the metrics, their
    units, the checker with the failure counts, and the report lines."""
    workload = _workload(args)
    references = harness.load_references(workload.name, workload.variant)
    setup: list[float] = []
    setup_wanted = 0 if args.trace else (1 if args.tiny else SETUP_SAMPLES)
    cli, acceptance = harness.load_package(os.getcwd())
    criteria = {number: fn for number, _, fn in acceptance.CRITERIA}
    checker = harness.Checker(workload, references)
    checker.check(harness.run_pass(cli, criteria, workload))  # warm-up

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        traced_criteria = tracer.criteria(criteria)
    plain, traced, layer = [], [], []
    untraced_bytes = []
    begin = time.perf_counter()
    deadline = begin + args.seconds
    while True:
        # Set-up samples are spread over the run, between passes, so that a
        # slow stretch of the machine does not hit all of them.
        while len(setup) < setup_wanted and time.perf_counter() >= begin + len(setup) * args.seconds / setup_wanted:
            setup.append(_setup_sample(args))
        use_trace = tracer is not None and len(traced) <= len(plain)
        if use_trace:
            tracer.start_pass(len(traced))
            tracer.install()
            try:
                output = harness.run_pass(cli, traced_criteria, workload)
            finally:
                tracer.uninstall()
            tracer.end_pass()
            traced.append(output.wall_s)
            layer.append(tracer.pass_metrics(len(traced) - 1))
        else:
            output = harness.run_pass(cli, criteria, workload)
            plain.append(output.wall_s)
            untraced_bytes.append(sum(len(o.text.encode("utf-8")) for o in output.jobs if o.text))
        checker.check(output)
        done = time.perf_counter() >= deadline
        if tracer is None:
            if done and len(plain) >= MIN_PASSES:
                break
        elif done and min(len(plain), len(traced)) >= MIN_TRACED_PASSES:
            break
    while len(setup) < setup_wanted:
        setup.append(_setup_sample(args))

    lines = [f"workload {workload.name}  seed {args.seed} (variant {workload.variant})  trace {args.trace}"]
    lines.append("untraced passes (s): " + " ".join(f"{w:.4g}" for w in plain))
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = {
            "wall_s": f"median of {len(plain)} passes; {_tail(plain)}",
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "peak_rss_mb": "this process, after every pass",
        }
        units = END_TO_END_UNITS
    else:
        metrics = tracing.median_metrics(layer)
        metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
        _check_exact(workload, layer, untraced_bytes, checker)
        notes = {
            "trace.overhead": f"median traced pass {statistics.median(traced):.6g} s over "
            f"median untraced pass {statistics.median(plain):.6g} s, minus 1",
        }
        notes.update({name: "exact" for name in tracing.EXACT})
        units = tracing.LAYER_UNITS
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{workload.name}-seed{args.seed}.tsv")
        tracer.write(path)
        lines.append(f"spans: {len(tracer.spans)} written to {os.path.relpath(path)}")
    for name, unit in units.items():
        note = notes.get(name, "")
        lines.append(f"  {name:<44} {metrics[name]:>14.6g} {unit:<6} {note}".rstrip())
    rate = checker.failed / checker.attempted
    lines.append(
        f"  {'error_rate':<44} {rate:>14.6g} {'ratio':<6} "
        f"{checker.failed} failed of {checker.attempted} attempted"
    )
    return {name: metrics[name] for name in units}, units, checker, lines


def _check_exact(workload, layer, untraced_bytes, checker) -> None:
    """Exact counts must repeat in every traced pass, CSV bytes must match the
    untraced passes, and the closed-form sweep must not integrate at all."""
    for name in tracing.EXACT:
        for metrics in layer:
            checker.attempted += 1
            if metrics[name] != layer[0][name]:
                checker.fail(f"{name} is {metrics[name]} in one traced pass, {layer[0][name]} in another")
    for size in untraced_bytes:
        checker.attempted += 1
        if size != layer[0]["cli.csv_bytes"]:
            checker.fail(f"untraced pass rendered {size} CSV bytes, traced {layer[0]['cli.csv_bytes']}")
    if workload.name == "closed_sweep":
        for metrics in layer:
            checker.attempted += 1
            if metrics["quadrature.interval.calls"] != 0:
                checker.fail(f"closed_sweep made {metrics['quadrature.interval.calls']} integrate_interval calls")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join("src", "hybridwigner", "__init__.py")):
        print("error: run from the root of a hybridwigner checkout (src/hybridwigner not found)", file=sys.stderr)
        return 2
    if args.smoke:
        import selftest

        return selftest.main()
    if args.setup_child:
        return setup_child(args)
    metrics, units, checker, lines = measure(args)
    print("\n".join(lines))
    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
