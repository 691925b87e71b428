"""Spans around the package's public functions, installed from outside.

Nothing in the package is edited: ``Tracer.install`` replaces each public
function of the traced modules, wherever a module of the package holds a
reference to it, by a wrapper that records a span, and ``uninstall`` puts
the originals back.  A span is (name, start, end, parent, pass id) plus a
few counters.  Spans stay in memory and are written out once, at the end.

Two kinds of calls are too frequent for one span each and are counted
instead: the integrand callbacks that ``integrate_interval`` makes (a count
and their total time, kept on the integral's span) and
``GaussianAmplitude.polar_density`` (a count per pass).

Self time of a span is its duration minus the time of its child spans.  For
an ``integrate_interval`` span the integrand callbacks count as children:
its self time is the engine's own work, and the callback time not covered
by nested spans (the integrand's own arithmetic) is credited to the nearest
enclosing span outside ``quadrature``, the layer that supplied the
integrand.  A ``<module>.<name>.self_s`` metric adds up, over the named
calls, the self time of every span of the same module nested under them:
the time spent in that module's own code on behalf of those calls.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import statistics
import sys
import time

MODULES = (
    "quadrature",
    "hybrid_model",
    "quantum_reference",
    "su2_wigner",
    "cartesian_wigner",
    "oscillator_hybrid",
    "cli",
)

# Fields of a span record (a list, for speed and small size).
NAME, START, END, PARENT, PASS, CHILD, CB_N, CB_S, ATTR = range(9)

INTERVAL = "quadrature.interval"
# Public functions whose span has a name of its own, for the metrics.
SPAN_NAMES = {
    "quadrature.integrate_sphere": "quadrature.sphere",
    "quadrature.integrate_plane": "quadrature.plane",
    "hybrid_model.semiclassical_expectation": "hybrid_model.semiclassical",
    "hybrid_model.semiclassical_standard": "hybrid_model.semiclassical",
}
# Density factories whose returned ``evaluate`` gets a span per point.
DENSITY_POINTS = {
    "hybrid_model.phase_distribution_gaussian": "hybrid_model.phase_density",
    "hybrid_model.quadrature_distribution": "hybrid_model.quad_density",
}

# Per-layer metrics: name -> unit.  Counts marked exact must repeat exactly.
LAYER_UNITS = {
    "quadrature.interval.calls": "count",
    "quadrature.interval.evals": "count",
    "quadrature.interval.self_s": "s",
    "quadrature.interval.integrand_s": "s",
    "quadrature.interval.ns_per_eval": "ns",
    "quadrature.sphere.calls": "count",
    "quadrature.plane.calls": "count",
    "quadrature.convergence_errors": "count",
    "hybrid_model.polar_density.calls": "count",
    "hybrid_model.phase_density.calls": "count",
    "hybrid_model.phase_density.ms_per_point": "ms",
    "hybrid_model.quad_density.ms_per_point": "ms",
    "hybrid_model.expectation_quadrature.self_s": "s",
    "hybrid_model.expectation.calls": "count",
    "hybrid_model.expectation.us_per_call": "us",
    "hybrid_model.correlation.self_s": "s",
    "hybrid_model.semiclassical.self_s": "s",
    "quantum_reference.basis_states": "count",
    "quantum_reference.row_us.r0_1": "us",
    "quantum_reference.row_us.r0_10": "us",
    "su2_wigner.traciality.self_s": "s",
    "su2_wigner.kernel.calls": "count",
    "cartesian_wigner.fock_diag.self_s": "s",
    "oscillator_hybrid.transfer_check.self_s": "s",
    "cli.parse_s": "s",
    "cli.run_scenario_s": "s",
    "cli.render_csv.ms_per_krow": "ms",
    "cli.csv_bytes": "bytes",
}
LAYER_UNITS.update({f"acceptance.criterion_{n:02d}_s": "s" for n in range(1, 12)})
LAYER_UNITS["trace.overhead"] = "ratio"
EXACT = (
    "quadrature.interval.evals",
    "hybrid_model.polar_density.calls",
    "quantum_reference.basis_states",
    "cli.csv_bytes",
)


def _module_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._polar_calls = [0]
        self._states: dict[int, tuple[object, float]] = {}
        self.pass_id = -1
        self.pass_counts: dict[int, dict[str, int]] = {}
        self._convergence_errors = 0

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.pass_id, 0.0, 0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    def _span_wrapper(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                # an ``after`` hook may hand back a replacement result
                replaced = after(span, args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        return wrapper

    # -- installing ----------------------------------------------------------

    def _patch_everywhere(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("hybridwigner"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def install(self, package: str = "hybridwigner") -> None:
        """Wrap the public functions of every traced module."""
        for short in MODULES:
            module = sys.modules[f"{package}.{short}"]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                self._patch_everywhere(fn, self._wrapper_for(f"{short}.{attr}", fn))
        amplitude = getattr(sys.modules[f"{package}.hybrid_model"], "GaussianAmplitude", None)
        density = getattr(amplitude, "polar_density", None)
        if density is not None:
            counter = self._polar_calls

            @functools.wraps(density)
            def polar_density(*args, **kwargs):
                counter[0] += 1
                return density(*args, **kwargs)

            amplitude.polar_density = polar_density
            self._patches.append((amplitude, "polar_density", density))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _wrapper_for(self, qualified: str, fn):
        if qualified == "quadrature.integrate_interval":
            return self._interval_wrapper(fn)
        if qualified == "hybrid_model.hybrid_expectation":
            return self._expectation_wrapper(fn)
        if qualified in DENSITY_POINTS:
            return self._span_wrapper(qualified, fn, after=self._density_points(DENSITY_POINTS[qualified]))
        if qualified == "quantum_reference.evolve_quantum":
            return self._span_wrapper(qualified, fn, after=self._note_state)
        if qualified in ("quantum_reference.quantum_expectation", "quantum_reference.quantum_correlation"):
            return self._span_wrapper(qualified, fn, after=self._tag_state)
        if qualified == "cli.render_csv":
            return self._span_wrapper(qualified, fn, after=self._note_csv)
        return self._span_wrapper(SPAN_NAMES.get(qualified, qualified), fn)

    def _interval_wrapper(self, fn):
        clock = time.perf_counter
        convergence_error = getattr(sys.modules[fn.__module__], "ConvergenceError", ())

        @functools.wraps(fn)
        def integrate_interval(f, *args, **kwargs):
            span = self.open(INTERVAL)

            def integrand(x):
                start = clock()
                value = f(x)
                span[CB_S] += clock() - start
                span[CB_N] += 1
                return value

            try:
                result = fn(integrand, *args, **kwargs)
            except convergence_error:
                self._convergence_errors += 1
                raise
            finally:
                self.close(span)
            span[ATTR] = result.evaluations
            return result

        return integrate_interval

    def _expectation_wrapper(self, fn):
        position = list(inspect.signature(fn).parameters).index("method")

        @functools.wraps(fn)
        def hybrid_expectation(*args, **kwargs):
            method = args[position] if len(args) > position else kwargs.get("method", "closed")
            name = "hybrid_model.expectation_quadrature" if method == "quadrature" else "hybrid_model.expectation"
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return hybrid_expectation

    def _density_points(self, point_name: str):
        def wrap_evaluate(span, args, kwargs, result):
            # The returned distribution is rebuilt around a timed evaluate;
            # the original object is left alone.
            return dataclasses.replace(result, evaluate=self._span_wrapper(point_name, result.evaluate))

        return wrap_evaluate

    def _note_state(self, span, args, kwargs, state):
        alpha = args[2] if len(args) > 2 else kwargs["alpha"]
        self._states[id(state)] = (state, abs(alpha))
        span[ATTR] = (abs(alpha), state.truncation + 1)

    def _tag_state(self, span, args, kwargs, result):
        state = args[0] if args else kwargs["state"]
        known = self._states.get(id(state))
        span[ATTR] = (known[1] if known else None, 0)

    def _note_csv(self, span, args, kwargs, text):
        table = args[0] if args else kwargs["table"]
        span[ATTR] = (len(table.rows), len(text.encode("utf-8")))

    # -- passes ----------------------------------------------------------------

    def start_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self._polar_calls[0] = 0
        self._convergence_errors = 0

    def end_pass(self) -> None:
        self.pass_counts[self.pass_id] = {
            "hybrid_model.polar_density.calls": self._polar_calls[0],
            "quadrature.convergence_errors": self._convergence_errors,
        }
        self._states.clear()

    def criteria(self, criteria: dict) -> dict:
        """Criterion callables wrapped in spans named after their number."""
        return {n: self._span_wrapper(f"acceptance.criterion_{n:02d}", fn) for n, fn in criteria.items()}

    # -- metrics ---------------------------------------------------------------

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass."""
        idxs = [i for i, s in enumerate(self.spans) if s[PASS] == pass_id]
        spans = self.spans
        own: dict[int, float] = {}
        credited: dict[int, float] = {}
        by_name: dict[str, list[int]] = {}
        integrand = 0.0
        for i in idxs:
            s = spans[i]
            by_name.setdefault(s[NAME], []).append(i)
            duration = s[END] - s[START]
            if s[NAME] == INTERVAL:
                own[i] = duration - s[CB_S]
                leaf = s[CB_S] - s[CHILD]
                integrand += leaf
                owner = s[PARENT]
                while owner >= 0 and _module_of(spans[owner][NAME]) == "quadrature":
                    owner = spans[owner][PARENT]
                if owner >= 0:
                    credited[owner] = credited.get(owner, 0.0) + leaf
            else:
                own[i] = duration - s[CHILD]

        def named(name):
            return [spans[i] for i in by_name.get(name, ())]

        def total(name):
            return sum(s[END] - s[START] for s in named(name))

        def per_call(name, scale):
            calls = len(named(name))
            return total(name) / calls * scale if calls else 0.0

        def layer_self(*names):
            member: dict[int, bool] = {}
            result = 0.0
            for i in idxs:
                s = spans[i]
                p = s[PARENT]
                inside = s[NAME] in names or (
                    member.get(p, False) and _module_of(spans[p][NAME]) == _module_of(s[NAME])
                )
                member[i] = inside
                if inside:
                    result += own[i] + credited.get(i, 0.0)
            return result

        intervals = by_name.get(INTERVAL, ())
        evals = sum(spans[i][ATTR] or 0 for i in intervals)
        engine = sum(own[i] for i in intervals)
        # a call that raised has no size attribute
        renders = [s[ATTR] for s in named("cli.render_csv") if s[ATTR]]
        rows = sum(size[0] for size in renders)
        quantum_rows = {}
        for i in idxs:
            s = spans[i]
            if not s[NAME].startswith("quantum_reference.") or s[ATTR] is None:
                continue
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME].startswith("quantum_reference."):
                continue
            r0, _ = s[ATTR]
            if r0 is None:
                continue
            key = round(r0)
            time_s, count = quantum_rows.get(key, (0.0, 0))
            new_row = s[NAME] == "quantum_reference.evolve_quantum"
            quantum_rows[key] = (time_s + s[END] - s[START], count + new_row)

        def row_us(r0):
            time_s, count = quantum_rows.get(r0, (0.0, 0))
            return time_s / count * 1e6 if count else 0.0

        counts = self.pass_counts.get(pass_id, {})
        metrics = {
            "quadrature.interval.calls": len(intervals),
            "quadrature.interval.evals": evals,
            "quadrature.interval.self_s": engine,
            "quadrature.interval.integrand_s": integrand,
            "quadrature.interval.ns_per_eval": engine / evals * 1e9 if evals else 0.0,
            "quadrature.sphere.calls": len(named("quadrature.sphere")),
            "quadrature.plane.calls": len(named("quadrature.plane")),
            "quadrature.convergence_errors": counts.get("quadrature.convergence_errors", 0),
            "hybrid_model.polar_density.calls": counts.get("hybrid_model.polar_density.calls", 0),
            "hybrid_model.phase_density.calls": len(named("hybrid_model.phase_density")),
            "hybrid_model.phase_density.ms_per_point": per_call("hybrid_model.phase_density", 1e3),
            "hybrid_model.quad_density.ms_per_point": per_call("hybrid_model.quad_density", 1e3),
            "hybrid_model.expectation_quadrature.self_s": layer_self("hybrid_model.expectation_quadrature"),
            "hybrid_model.expectation.calls": len(named("hybrid_model.expectation")),
            "hybrid_model.expectation.us_per_call": per_call("hybrid_model.expectation", 1e6),
            "hybrid_model.correlation.self_s": layer_self("hybrid_model.correlation"),
            "hybrid_model.semiclassical.self_s": layer_self("hybrid_model.semiclassical"),
            "quantum_reference.basis_states": sum(
                s[ATTR][1] for s in named("quantum_reference.evolve_quantum") if s[ATTR]
            ),
            "quantum_reference.row_us.r0_1": row_us(1),
            "quantum_reference.row_us.r0_10": row_us(10),
            "su2_wigner.traciality.self_s": layer_self("su2_wigner.su2_traciality"),
            "su2_wigner.kernel.calls": len(named("su2_wigner.su2_kernel"))
            + len(named("su2_wigner.spin_half_kernel")),
            "cartesian_wigner.fock_diag.self_s": layer_self("cartesian_wigner.fock_diag_element"),
            "oscillator_hybrid.transfer_check.self_s": layer_self(
                "oscillator_hybrid.nonclassical_transfer_check",
                "oscillator_hybrid.nonquantum_transfer_check",
            ),
            "cli.parse_s": total("cli.parse_config"),
            "cli.run_scenario_s": total("cli.run_scenario"),
            "cli.render_csv.ms_per_krow": total("cli.render_csv") / rows * 1e6 if rows else 0.0,
            "cli.csv_bytes": sum(size[1] for size in renders),
        }
        for n in range(1, 12):
            metrics[f"acceptance.criterion_{n:02d}_s"] = total(f"acceptance.criterion_{n:02d}")
        return metrics

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("pass\tid\tparent\tname\tstart_s\tend_s\tintegrand_calls\tintegrand_s\tattr\n")
            for i, s in enumerate(self.spans):
                out.write(
                    f"{s[PASS]}\t{i}\t{s[PARENT]}\t{s[NAME]}\t{s[START] - origin:.9f}\t"
                    f"{s[END] - origin:.9f}\t{s[CB_N]}\t{s[CB_S]:.9f}\t{'' if s[ATTR] is None else s[ATTR]}\n"
                )


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes; counts stay whole."""
    return {
        name: (statistics.median if LAYER_UNITS[name] not in ("count", "bytes") else statistics.median_low)(
            [m[name] for m in per_pass]
        )
        for name in per_pass[0]
    }
