"""Config-driven scenario runner with deterministic CSV output.

A scenario file is a small INI-style text config (sections [scenario],
[atom], [field], [quadrature], [output]); ``run`` dispatches to the library
and writes one CSV table per run.  Identical configs produce byte-identical
files: floats are printed with 17 significant digits, metadata carries no
timestamps, and row order is fixed (ascending time, then ascending abscissa).

Exit codes: 0 success, 1 config error, 2 I/O error, 3 numeric failure
(a NaN or infinity anywhere aborts the run and is never written; a quad-dist
quadrature that does not converge names the scenario, t and y), 4
acceptance failure (``hybridwigner verify``).
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from . import __version__
from .quadrature import ConvergenceError, IntegrationSpec
from .su2_wigner import SQRT3, SpinHalfState
from .hybrid_model import (
    MAX_PHASE_SPREAD,
    DeltaAmplitude,
    FieldState,
    GaussianAmplitude,
    ObservableSymbol,
    PhaseDistribution,
    atomic_pfunction,
    closed_moments,
    moment_correlation,
    phase_distribution_delta,
    phase_distribution_gaussian,
    quadrature_distribution,
    semiclassical_moments,
)
from .quantum_reference import TruncationError, default_truncation, evolve_quantum, quantum_moments
from .oscillator_hybrid import CouplingParams, OscillatorPair, pair_flow

__all__ = [
    "ConfigError",
    "NumericError",
    "ScenarioConfig",
    "ResultTable",
    "parse_config",
    "run_scenario",
    "render_csv",
    "emit_csv",
    "main",
]

SCENARIOS = (
    "phase-dist",
    "quad-dist",
    "moments",
    "correlations",
    "pfunction",
    "compare",
    "oscillators",
)

# range(...) builds every time point in memory before any work starts.
MAX_RANGE_STEPS = 100_000

_MOMENT_COLUMNS = (
    ("a", ObservableSymbol.A),
    ("adag", ObservableSymbol.ADAG),
    ("sigma_z", ObservableSymbol.SIGMA_Z),
    ("sigma_minus", ObservableSymbol.SIGMA_MINUS),
    ("sigma_minus_adag", ObservableSymbol.SIGMA_MINUS_ADAG),
    ("sigma_z_a", ObservableSymbol.SIGMA_Z_A),
)
_CORR_COLUMNS = (
    ("corr_sigma_z_a", ObservableSymbol.SIGMA_Z, ObservableSymbol.A),
    ("corr_sigma_minus_adag", ObservableSymbol.SIGMA_MINUS, ObservableSymbol.ADAG),
)


class ConfigError(ValueError):
    """Invalid scenario configuration; carries every diagnostic at once."""

    def __init__(self, errors: Sequence[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


class NumericError(RuntimeError):
    """A scenario produced a non-finite number."""


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    atom: SpinHalfState
    atom_kind: str
    field: FieldState
    chi: float
    times: tuple[float, ...]
    quadrature: IntegrationSpec
    output: str | None = None
    beta0: complex = 1.0 + 0j


@dataclass(frozen=True)
class ResultTable:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: tuple[str, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row length does not match column count")


# -- config parsing ----------------------------------------------------------


def _parse_sections(text: str, errors: list[str]):
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in ("scenario", "atom", "field", "quadrature", "output"):
                errors.append(f"line {lineno}: unknown section [{current}]")
                current = None
            elif current in sections:
                errors.append(f"line {lineno}: duplicate section [{current}]")
            else:
                sections[current] = {}
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        if current is None:
            errors.append(f"line {lineno}: key outside of any section")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key.lower() in sections[current]:
            errors.append(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key.lower()] = (value, lineno)
    return sections


def _take_float(section, key, errors, section_name, default=None, required=False):
    if key not in section:
        if required:
            errors.append(f"[{section_name}] missing required key {key!r}")
        return default
    value, lineno = section.pop(key)
    try:
        number = float(value)
    except ValueError:
        errors.append(f"line {lineno}: {key} must be a number, got {value!r}")
        return default
    if not math.isfinite(number):
        errors.append(f"line {lineno}: {key} must be finite, got {value!r}")
        return default
    return number


def _parse_times(section, errors) -> tuple[float, ...]:
    if "times" not in section:
        errors.append("[scenario] missing required key 'times'")
        return ()
    value, lineno = section.pop("times")
    times = _times_from_text(value, lineno, errors)
    if not all(math.isfinite(t) for t in times):
        errors.append(f"line {lineno}: times must be finite, got {value!r}")
        return ()
    if any(t < 0.0 for t in times):
        errors.append(f"line {lineno}: times must be non-negative, got {value!r}")
        return ()
    return times


def _times_from_text(value: str, lineno: int, errors) -> tuple[float, ...]:
    text = value.strip()
    if text.startswith("range(") and text.endswith(")"):
        parts = [p.strip() for p in text[6:-1].split(",")]
        if len(parts) != 3:
            errors.append(f"line {lineno}: range takes (start, stop, steps)")
            return ()
        try:
            start, stop = float(parts[0]), float(parts[1])
            steps = int(parts[2])
        except ValueError:
            errors.append(f"line {lineno}: malformed range {text!r}")
            return ()
        if not 1 <= steps <= MAX_RANGE_STEPS:
            errors.append(f"line {lineno}: range steps must be in [1, {MAX_RANGE_STEPS}]")
            return ()
        if steps == 1:
            return (start,)
        if stop <= start:
            errors.append(f"line {lineno}: range stop must exceed start")
            return ()
        step = (stop - start) / (steps - 1)
        return tuple(start + k * step for k in range(steps))
    try:
        times = tuple(float(p.strip()) for p in text.split(",") if p.strip())
    except ValueError:
        errors.append(f"line {lineno}: times must be numbers, got {value!r}")
        return ()
    if not times:
        errors.append(f"line {lineno}: times list is empty")
        return ()
    if any(b <= a for a, b in zip(times, times[1:])):
        errors.append(f"line {lineno}: times must be strictly increasing")
        return ()
    return times


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario config; reports all errors at once."""
    errors: list[str] = []
    sections = _parse_sections(text, errors)
    key_lines = {k: n for p in ("scenario", "field") for k, (_, n) in sections.get(p, {}).items()}

    scn = sections.get("scenario", {})
    if "scenario" not in sections:
        errors.append("missing [scenario] section")
    name = None
    if "name" in scn:
        value, lineno = scn.pop("name")
        if value not in SCENARIOS:
            errors.append(f"line {lineno}: unknown scenario {value!r}")
        else:
            name = value
    elif "scenario" in sections:
        errors.append("[scenario] missing required key 'name'")
    chi = _take_float(scn, "chi", errors, "scenario", default=1.0)
    times = _parse_times(scn, errors)
    beta0 = complex(
        _take_float(scn, "beta0_re", errors, "scenario", default=1.0),
        _take_float(scn, "beta0_im", errors, "scenario", default=0.0),
    )

    atom_section = sections.get("atom", {})
    atom = SpinHalfState.ground()
    atom_kind = "ground"
    if "kind" in atom_section:
        value, lineno = atom_section.pop("kind")
        atom_kind = value.strip().lower()
        if atom_kind == "ground":
            atom = SpinHalfState.ground()
        elif atom_kind == "phase":
            atom = SpinHalfState.phase_state()
        elif atom_kind == "bloch":
            if "s" not in atom_section:
                errors.append(f"line {lineno}: bloch atom needs key 's = sx, sy, sz'")
            else:
                sval, slineno = atom_section.pop("s")
                try:
                    atom = SpinHalfState(tuple(float(p) for p in sval.split(",")))
                except ValueError as exc:
                    errors.append(f"line {slineno}: invalid bloch vector: {exc}")
        else:
            errors.append(f"line {lineno}: atom kind must be ground, phase or bloch")
    elif "atom" in sections:
        errors.append("[atom] missing required key 'kind'")

    field_section = sections.get("field", {})
    field_state: FieldState = GaussianAmplitude(1.0, 1.0)
    if "kind" in field_section:
        value, lineno = field_section.pop("kind")
        kind = value.strip().lower()
        r0 = _take_float(field_section, "r0", errors, "field", required=True)
        if kind == "delta":
            phi0 = _take_float(field_section, "phi0", errors, "field", default=0.0)
            if r0 is not None:
                try:
                    field_state = DeltaAmplitude(r0, phi0)
                except ValueError as exc:
                    errors.append(f"line {lineno}: {exc}")
        elif kind == "gaussian":
            sigma = _take_float(field_section, "sigma", errors, "field", required=True)
            if r0 is not None and sigma is not None:
                try:
                    field_state = GaussianAmplitude(r0, sigma)
                except ValueError as exc:
                    errors.append(f"line {lineno}: {exc}")
        else:
            errors.append(f"line {lineno}: field kind must be delta or gaussian")
    elif "field" in sections:
        errors.append("[field] missing required key 'kind'")

    quad_section = sections.get("quadrature", {})
    quad_kwargs = {}
    for key in ("relative_tolerance", "absolute_tolerance", "radial_cutoff_sigmas"):
        if key in quad_section:
            v = _take_float(quad_section, key, errors, "quadrature")
            if v is not None:
                quad_kwargs[key] = v
    if "max_subdivisions" in quad_section:
        value, lineno = quad_section.pop("max_subdivisions")
        try:
            quad_kwargs["max_subdivisions"] = int(value)
        except ValueError:
            errors.append(f"line {lineno}: max_subdivisions must be an integer")
    try:
        quadrature = IntegrationSpec(**quad_kwargs)
    except ValueError as exc:
        errors.append(f"[quadrature] {exc}")
        quadrature = IntegrationSpec()

    output = None
    out_section = sections.get("output", {})
    if "path" in out_section:
        output, _ = out_section.pop("path")

    for section_name, section in sections.items():
        for key, (_, lineno) in section.items():
            errors.append(f"line {lineno}: unknown key {key!r} in [{section_name}]")

    if name is not None:
        _validate_combination(name, atom_kind, field_state, chi, times, beta0, key_lines, errors)

    if errors:
        raise ConfigError(errors)
    assert name is not None
    return ScenarioConfig(
        scenario=name,
        atom=atom,
        atom_kind=atom_kind,
        field=field_state,
        chi=chi,
        times=times,
        quadrature=quadrature,
        output=output,
        beta0=beta0,
    )


def _validate_combination(name, atom_kind, field_state, chi, times, beta0, key_lines, errors):
    delta = isinstance(field_state, DeltaAmplitude)
    t_max = times[-1] if times else 0.0
    # Each phase the runner forms at the largest time, multiplied in the same
    # order, so that an overflow there is refused here.  The moment scenarios
    # take the spread kappa only through j_n(kappa), which is 0 at inf.
    phases = {}
    if name in ("phase-dist", "pfunction"):
        phases["sqrt(3) |chi| t"] = SQRT3 * abs(chi) * t_max
    if name in ("moments", "correlations", "compare") and delta:
        phases["2 |chi| r0^2 t"] = 2.0 * abs(chi) * field_state.r0 * field_state.r0 * t_max
    elif name in ("moments", "correlations", "compare"):
        phases["|chi| sigma^2 t"] = abs(chi) * field_state.sigma * field_state.sigma * t_max
    if name == "oscillators":
        phases["|chi| t"] = abs(chi) * t_max
    sharp_law = name == "pfunction" or (name == "phase-dist" and delta)
    if sharp_law and 0.0 in [chi * t for t in times]:
        line = key_lines.get("chi" if chi == 0.0 else "times")
        errors.append(f"line {line}: scenario {name} requires chi t != 0 (a point mass at 0)")
    if name == "quad-dist" and delta:
        errors.append("scenario quad-dist requires a gaussian field")
    if name == "quad-dist" and not delta and times:
        spread = SQRT3 * abs(chi) * times[-1]
        if spread > MAX_PHASE_SPREAD:
            errors.append(
                f"line {key_lines['times']}: scenario {name}: phase spread"
                f" sqrt(3) |chi| t = {spread:.6g} exceeds {MAX_PHASE_SPREAD:.6g}"
            )
    if name == "quad-dist" and not delta and field_state.sigma * field_state.sigma == 0.0:
        errors.append(f"line {key_lines.get('sigma')}: scenario {name}: field too narrow: sigma^2 = 0")
    if name == "phase-dist" and not delta:
        try:
            field_state.phase_points  # raises past the field-azimuth cap
        except ValueError as exc:
            errors.append(f"line {key_lines.get('sigma')}: scenario {name}: {exc}")
    if name == "compare":
        if delta or abs(field_state.sigma - 1.0) > 1e-12:
            errors.append("scenario compare requires a gaussian field with sigma = 1")
        if atom_kind == "bloch":
            errors.append("scenario compare requires a pure ground or phase atom")
        try:
            n_max = default_truncation(field_state.mean_amplitude)
        except TruncationError as exc:
            errors.append(f"line {key_lines.get('r0')}: scenario compare: {exc}")
        else:
            phases["|chi| t n_max"] = abs(chi) * t_max * n_max
        phases["2 |chi| <|alpha|^2> t"] = 2.0 * abs(chi) * field_state.mean_intensity * t_max
    if name == "oscillators" and not delta:
        errors.append("scenario oscillators uses a delta field for the initial amplitude")
    if name == "oscillators" and delta:
        energy = field_state.r0 * field_state.r0 + (beta0.real * beta0.real + beta0.imag * beta0.imag)
        if not math.isfinite(energy):
            # only a set amplitude can be this large, so its key has a line
            sizes = {"r0": field_state.r0, "beta0_re": abs(beta0.real), "beta0_im": abs(beta0.imag)}
            errors.append(
                f"line {key_lines[max(sizes, key=sizes.get)]}: scenario oscillators:"
                " energy |alpha|^2 + |beta|^2 is not finite"
            )
    for label, phase in phases.items():
        if times and not math.isfinite(phase):
            errors.append(
                f"line {key_lines['times']}: scenario {name}: phase {label} is not finite"
                f" at chi = {chi!r}, t = {t_max!r}"
            )


# -- scenario execution ------------------------------------------------------


def _complex_triple(z: complex) -> tuple[float, float, float]:
    return (z.real, z.imag, abs(z))


def _phase_rows(t: float, dist: PhaseDistribution, points: int) -> list[tuple]:
    """(t, x, density(x)) on ``points`` equispaced x across the support."""
    lo, hi = dist.support
    step = (hi - lo) / (points - 1)
    # pin the last point so accumulated rounding cannot push it off-support
    return [(t, x, dist.evaluate(x)) for x in [lo + k * step for k in range(points - 1)] + [hi]]


def _map_times(fn: Callable[[float], list[tuple]], times) -> list[tuple]:
    return [row for t in times for row in fn(t)]


def _run_phase_dist(config: ScenarioConfig) -> ResultTable:
    def rows_at(t: float) -> list[tuple]:
        chi_t = config.chi * t
        if isinstance(config.field, DeltaAmplitude):
            return _phase_rows(t, phase_distribution_delta(config.atom, chi_t), 101)
        return _phase_rows(t, phase_distribution_gaussian(config.atom, config.field, chi_t), 201)

    rows = _map_times(rows_at, config.times)
    return ResultTable(("t", "phi", "density"), tuple(rows), _metadata(config))


def _run_quad_dist(config: ScenarioConfig) -> ResultTable:
    field = config.field
    half = field.r0 + 5.0 * field.sigma

    def rows_at(t: float) -> list[tuple]:
        dist = quadrature_distribution(
            config.atom, field, config.chi * t, config.quadrature
        )
        rows = []
        for y in (-half + k * (2.0 * half) / 200.0 for k in range(201)):
            try:
                rows.append((t, y, dist.evaluate(y)))
            except ConvergenceError as exc:
                # name the time and abscissa where it happened
                raise NumericError(f"scenario quad-dist: t = {t!r}, y = {y!r}: {exc}") from exc
        return rows

    rows = _map_times(rows_at, config.times)
    return ResultTable(("t", "y", "p"), tuple(rows), _metadata(config))


def _run_pfunction(config: ScenarioConfig) -> ResultTable:
    def rows_at(t: float) -> list[tuple]:
        return _phase_rows(t, atomic_pfunction(config.atom, config.chi * t), 101)

    rows = _map_times(rows_at, config.times)
    return ResultTable(("t", "delta", "p"), tuple(rows), _metadata(config))


def _moment_values(moments: dict[ObservableSymbol, complex]) -> list[float]:
    return [x for _, obs in _MOMENT_COLUMNS for x in _complex_triple(moments[obs])]


def _corr_values(moments: dict[ObservableSymbol, complex]) -> list[float]:
    return [
        x for _, a, b in _CORR_COLUMNS for x in _complex_triple(moment_correlation(moments, a, b))
    ]


def _headers(columns, prefix: str = "") -> list[str]:
    return [f"{prefix}{column[0]}_{part}" for column in columns for part in ("re", "im", "abs")]


def _run_moments(config: ScenarioConfig) -> ResultTable:
    hybrid = closed_moments(config.atom, config.field, config.chi, config.times)
    rows = [tuple([t] + _moment_values(moments)) for t, moments in zip(config.times, hybrid)]
    return ResultTable(tuple(["t"] + _headers(_MOMENT_COLUMNS)), tuple(rows), _metadata(config))


def _run_correlations(config: ScenarioConfig) -> ResultTable:
    hybrid = closed_moments(config.atom, config.field, config.chi, config.times)
    rows = [tuple([t] + _corr_values(moments)) for t, moments in zip(config.times, hybrid)]
    return ResultTable(tuple(["t"] + _headers(_CORR_COLUMNS)), tuple(rows), _metadata(config))


def _atom_amplitudes(config: ScenarioConfig) -> tuple[complex, complex]:
    sx, sy, sz = config.atom.s
    theta = math.acos(max(-1.0, min(1.0, sz)))
    phi = math.atan2(sy, sx)
    return complex(math.cos(theta / 2.0)), math.sin(theta / 2.0) * cmath.exp(1j * phi)


def _run_compare(config: ScenarioConfig) -> ResultTable:
    c_e, c_g = _atom_amplitudes(config)
    alpha = config.field.mean_amplitude
    args = (config.atom, config.field, config.chi, config.times)
    models = zip(
        closed_moments(*args),
        semiclassical_moments(*args),
        semiclassical_moments(*args, mean_field=True),
        [quantum_moments(evolve_quantum(c_e, c_g, alpha, config.chi, t)) for t in config.times],
    )
    rows = [
        tuple(
            [t]
            + _moment_values(hybrid)
            + _corr_values(hybrid)
            + _moment_values(sc)
            + _moment_values(mf)
            + _moment_values(quantum)
            + _corr_values(quantum)
        )
        for t, (hybrid, sc, mf, quantum) in zip(config.times, models)
    ]
    columns = ["t"] + _headers(_MOMENT_COLUMNS) + _headers(_CORR_COLUMNS)
    for prefix in ("sc_", "mf_", "q_"):
        columns += _headers(_MOMENT_COLUMNS, prefix)
    columns += _headers(_CORR_COLUMNS, "q_")
    return ResultTable(tuple(columns), tuple(rows), _metadata(config))


def _run_oscillators(config: ScenarioConfig) -> ResultTable:
    params = CouplingParams(config.chi)
    gamma0 = OscillatorPair(config.field.mean_amplitude, config.beta0)

    def rows_at(t: float) -> list[tuple]:
        g = pair_flow(gamma0, params, t)
        energy = abs(g.alpha) ** 2 + abs(g.beta) ** 2
        return [(t, g.alpha.real, g.alpha.imag, g.beta.real, g.beta.imag, energy)]

    rows = _map_times(rows_at, config.times)
    return ResultTable(
        ("t", "alpha_re", "alpha_im", "beta_re", "beta_im", "energy"),
        tuple(rows),
        _metadata(config),
    )


def _metadata(config: ScenarioConfig) -> tuple[str, ...]:
    lines = [
        f"hybridwigner {__version__}",
        f"scenario = {config.scenario}",
        f"atom = {config.atom_kind} s={config.atom.s}",
        f"field = {config.field!r}",
        f"chi = {config.chi!r}",
        f"times = {len(config.times)} points"
        + (f" in [{config.times[0]!r}, {config.times[-1]!r}]" if config.times else ""),
        f"quadrature = rel {config.quadrature.relative_tolerance!r}"
        f" abs {config.quadrature.absolute_tolerance!r}"
        f" maxsub {config.quadrature.max_subdivisions}"
        f" cutoff {config.quadrature.radial_cutoff_sigmas!r}",
    ]
    return tuple(lines)


def run_scenario(config: ScenarioConfig) -> ResultTable:
    """Compute the table for a validated config.

    Raises NumericError if any produced value is NaN or infinite; a quadrature
    convergence failure is reported the same way.
    """
    runners = {
        "phase-dist": _run_phase_dist,
        "quad-dist": _run_quad_dist,
        "pfunction": _run_pfunction,
        "moments": _run_moments,
        "correlations": _run_correlations,
        "compare": _run_compare,
        "oscillators": _run_oscillators,
    }
    try:
        table = runners[config.scenario](config)
    except ConvergenceError as exc:
        raise NumericError(f"scenario {config.scenario}: {exc}") from exc
    for row in table.rows:
        for item in row:
            if isinstance(item, float) and not math.isfinite(item):
                raise NumericError(f"scenario {config.scenario} produced {item}")
    return table


# -- CSV emission ------------------------------------------------------------


def _format_cell(value: float) -> str:
    if math.isnan(value):
        raise NumericError("refusing to write NaN")
    return f"{value:.17g}"


def render_csv(table: ResultTable) -> str:
    lines = [f"# {line}" for line in table.metadata]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_csv(table: ResultTable, path: str) -> None:
    """Write the table; output is byte-identical for identical configs."""
    text = render_csv(table)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


# -- entry point -------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hybridwigner",
        description="Phase-space hybrid atom-field scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario config and write CSV")
    run_p.add_argument("config", help="path to the scenario config file")
    run_p.add_argument("--output", help="output CSV path (overrides [output])")
    ver_p = sub.add_parser("verify", help="run the acceptance checks")
    ver_p.add_argument("--filter", default=None, help="substring filter on names")

    args = parser.parse_args(argv)

    if args.command == "verify":
        from .acceptance import run_all

        results = run_all(args.filter)
        failed = False
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            print(f"[{status}] criterion {res.number}: {res.name}")
            for check in res.checks:
                mark = "ok " if check.passed else "BAD"
                print(f"    {mark} {check.label}: {check.measured:.6g} (bound {check.bound})")
            failed = failed or not res.passed
        return 4 if failed else 0

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1

    try:
        table = run_scenario(config)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3

    out_path = args.output or config.output
    try:
        if out_path is None:
            print(render_csv(table), end="")
        else:
            emit_csv(table, out_path)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
