"""Config-driven scenario runner with deterministic CSV output.

A scenario file is a small INI-style text config (sections [scenario],
[atom], [field], [quadrature], [output]).  Each scenario is one ``_SCENARIOS``
record: its columns, rows, the states it takes and the limits on its work;
``run`` writes one CSV table per run.  Identical configs produce byte-identical
files: floats are printed with 17 significant digits, metadata carries no
timestamps, and row order is fixed (ascending time, then ascending abscissa).

Exit codes: 0 success, 1 config error (or a ``hybridwigner verify --filter``
that matches no criterion), 2 I/O error, 3 numeric failure (a NaN or
infinity anywhere aborts the run and is never written; a quad-dist
quadrature that does not converge names the scenario, t and y), 4
acceptance failure (``hybridwigner verify``).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from typing import Callable, Sequence

from . import __version__
from .quadrature import _MAX_SUBDIVISIONS, RADIAL_CUTOFF_SIGMAS, ConvergenceError, IntegrationSpec
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
    phase_densities_gaussian,
    phase_distribution_delta,
    quadrature_distribution,
    semiclassical_moments,
)
from .quantum_reference import quantum_moments
from .oscillator_hybrid import OscillatorPair, pair_flow

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

# Most time points in one config, as range(...) steps or as a listed times:
# every point is built in memory before any work starts.
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
        # render_csv formats rows with %, which takes tuples; tuple() keeps a tuple row as is
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row length does not match column count")


# -- config parsing ----------------------------------------------------------

# A refusal quotes at most this many characters of the config text it names.
_SHOWN_CHARS = 80


def _shown(text: str) -> str:
    """repr of config text for a refusal: the whole text up to _SHOWN_CHARS
    characters, else its first _SHOWN_CHARS and its length."""
    if len(text) <= _SHOWN_CHARS:
        return repr(text)
    return f"{text[:_SHOWN_CHARS]!r}... ({len(text):,} characters)"


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
                errors.append(f"line {lineno}: unknown section {_shown(current)}")
                current = None
            elif current in sections:
                errors.append(f"line {lineno}: duplicate section [{current}]")
            else:
                sections[current] = {}
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {_shown(line)}")
            continue
        if current is None:
            errors.append(f"line {lineno}: key outside of any section")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key.lower() in sections[current]:
            errors.append(f"line {lineno}: duplicate key {_shown(key)} in [{current}]")
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
        errors.append(f"line {lineno}: {key} must be a number, got {_shown(value)}")
        return default
    if not math.isfinite(number):
        errors.append(f"line {lineno}: {key} must be finite, got {_shown(value)}")
        return default
    return number


def _parse_times(section, errors) -> tuple[float, ...]:
    if "times" not in section:
        errors.append("[scenario] missing required key 'times'")
        return ()
    value, lineno = section.pop("times")
    times = _times_from_text(value, lineno, errors)
    # a refusal names the first bad entry, never the whole (up to 100,000-entry) value
    for need, bad in (("finite", lambda t: not math.isfinite(t)), ("non-negative", lambda t: t < 0.0)):
        k = next((k for k, t in enumerate(times) if bad(t)), None)
        if k is not None:
            errors.append(f"line {lineno}: times entry {k + 1} of {len(times)} must be {need}, got {times[k]!r}")
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
            errors.append(f"line {lineno}: malformed range {_shown(text)}")
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
    entries = [p.strip() for p in text.split(",") if p.strip()]
    parsed = []
    for k, entry in enumerate(entries):
        try:
            parsed.append(float(entry))
        except ValueError:
            errors.append(
                f"line {lineno}: times entry {k + 1} of {len(entries)} must be a number, got {_shown(entry)}"
            )
            return ()
    times = tuple(parsed)
    if not times:
        errors.append(f"line {lineno}: times list is empty")
        return ()
    if len(times) > MAX_RANGE_STEPS:
        errors.append(f"line {lineno}: times list has {len(times)} points, more than {MAX_RANGE_STEPS}")
        return ()
    if any(b <= a for a, b in zip(times, times[1:])):
        errors.append(f"line {lineno}: times must be strictly increasing")
        return ()
    return times


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario config; reports all errors at once."""
    errors: list[str] = []
    sections = _parse_sections(text, errors)
    # "section.key" -> line, taken before the keys are consumed below
    key_lines = {f"{p}.{k}": n for p, section in sections.items() for k, (_, n) in section.items()}

    scn = sections.get("scenario", {})
    if "scenario" not in sections:
        errors.append("missing [scenario] section")
    name = None
    if "name" in scn:
        value, lineno = scn.pop("name")
        if value not in _SCENARIOS:
            errors.append(f"line {lineno}: unknown scenario {_shown(value)}")
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
                    s = tuple(float(p) for p in sval.split(","))
                except ValueError:
                    errors.append(f"line {slineno}: invalid bloch vector: expected numbers, got {_shown(sval)}")
                else:
                    try:
                        atom = SpinHalfState(s)
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
    quadrature = IntegrationSpec()
    for key in ("relative_tolerance", "absolute_tolerance"):
        value = _take_float(quad_section, key, errors, "quadrature")
        if value is not None:
            try:
                # one key at a time, so that a refusal names its own line
                quadrature = replace(quadrature, **{key: value})
            except ValueError as exc:
                errors.append(f"line {key_lines[f'quadrature.{key}']}: {exc}")

    output = None
    out_section = sections.get("output", {})
    if "path" in out_section:
        output, _ = out_section.pop("path")

    for section_name, section in sections.items():
        for key, (_, lineno) in section.items():
            errors.append(f"line {lineno}: unknown key {_shown(key)} in [{section_name}]")

    if name is not None:
        _validate_combination(name, field_state, chi, times, beta0, key_lines, errors)

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


def _validate_combination(name, field_state, chi, times, beta0, key_lines, errors):
    scenario = _SCENARIOS[name]
    t_max = times[-1] if times else 0.0

    def refuse(key, text):  # text continues "scenario <name>"
        errors.append(f"line {key_lines.get(key)}: scenario {name}{text}")

    if scenario.field_kind is not None and not isinstance(field_state, scenario.field_kind):
        # without a [field] section the default Gaussian comes from the scenario name
        refuse("field.kind" if "field.kind" in key_lines else "scenario.name", scenario.field_refusal)
    elif scenario.unit_width and abs(field_state.sigma - 1.0) > 1e-12:
        refuse("field.sigma", scenario.field_refusal)
    caps, phases = scenario.limits(field_state, chi, times, t_max, beta0)
    for key, text in caps:
        refuse(key, text)
    if not scenario.beta0:
        for key in ("beta0_re", "beta0_im"):
            if f"scenario.{key}" in key_lines:
                refuse(f"scenario.{key}", f" takes no {key} (the second amplitude of oscillators)")
    for label, phase in phases.items():
        if times and not math.isfinite(phase):
            refuse("scenario.times", f": phase {label} is not finite at chi = {chi!r}, t = {t_max!r}")


# A limits function of (field, chi, times, t_max, beta0) gives the work caps a
# config breaks, as (key whose line is named, message), and each phase the run
# forms at t_max, multiplied in the run's order, so that an overflow is refused.


def _sharp_limits(field, chi, times, t, beta0):
    caps = []
    if 0.0 in [chi * s for s in times]:
        key = "scenario.chi" if chi == 0.0 else "scenario.times"
        caps.append((key, " requires chi t != 0 (a point mass at 0)"))
    # the row grid spans the support [-kappa, kappa], a width of 2 kappa
    return caps, {"2 sqrt(3) |chi| t": 2.0 * (SQRT3 * abs(chi * t))}


def _phase_dist_limits(field, chi, times, t, beta0):
    if isinstance(field, DeltaAmplitude):
        return _sharp_limits(field, chi, times, t, beta0)
    caps = []
    try:
        field.phase_points  # raises past the field-azimuth cap
    except ValueError as exc:
        caps.append(("field.sigma", f": {exc}"))
    return caps, {"sqrt(3) |chi| t": SQRT3 * abs(chi) * t}


def _quad_dist_limits(field, chi, times, t, beta0):
    caps = []
    if isinstance(field, GaussianAmplitude):
        spread = SQRT3 * abs(chi) * t
        if spread > MAX_PHASE_SPREAD:
            limit = f"sqrt(3) |chi| t = {spread:.6g} exceeds {MAX_PHASE_SPREAD:.6g}"
            caps.append(("scenario.times", f": phase spread {limit}"))
        # the series of |y| <= r0 takes the phase law's field-azimuth grid
        caps += _phase_dist_limits(field, chi, times, t, beta0)[0]
    return caps, {}


def _moment_limits(field, chi, times, t, beta0):
    # the field factor; the spread kappa enters only through j_n(kappa), which is 0 at inf
    intensity = {"2 |chi| r0^2 t": 2.0 * abs(chi) * field.r0 * field.r0 * t}
    if isinstance(field, DeltaAmplitude):
        return [], intensity
    # F1 divides by (1 + i chi sigma^2 t)^2, whose two parts overflow with 2 chi sigma^2 t;
    # F0's exponent -2i chi r0^2 t / (1 + i chi sigma^2 t) is NaN once it overflows at sigma^2 t = 0
    width = abs(chi) * field.sigma * field.sigma * t
    phases = {"2 |chi| sigma^2 t": 2.0 * width}
    if width == 0.0:
        phases.update(intensity)
    return [], phases


def _compare_limits(field, chi, times, t, beta0):
    caps, phases = _moment_limits(field, chi, times, t, beta0)
    phases["2 |chi| <|alpha|^2> t"] = 2.0 * abs(chi) * field.mean_intensity * t
    phases["|chi| t"] = abs(chi) * t
    return caps, phases


def _oscillator_limits(field, chi, times, t, beta0):
    caps = []
    energy = field.r0 * field.r0 + (beta0.real * beta0.real + beta0.imag * beta0.imag)
    if isinstance(field, DeltaAmplitude) and not math.isfinite(energy):
        # only a set amplitude can be this large, so its key has a line
        sizes = {"field.r0": field.r0, "scenario.beta0_re": abs(beta0.real)}
        sizes["scenario.beta0_im"] = abs(beta0.imag)
        caps.append((max(sizes, key=sizes.get), ": energy |alpha|^2 + |beta|^2 is not finite"))
    return caps, {"|chi| t": abs(chi) * t}


# -- scenario execution ------------------------------------------------------
# A rows function reaches the library through module globals at call time, so
# that a replaced module attribute (a test double, a tracer) takes effect.


def _triples(values) -> list[float]:
    return [x for z in values for x in (z.real, z.imag, abs(z))]


def _grid(lo: float, hi: float, points: int) -> list[float]:
    """``points`` equispaced x from lo to hi."""
    step = (hi - lo) / (points - 1)
    # pin the last point so accumulated rounding cannot push it off-support
    return [lo + k * step for k in range(points - 1)] + [hi]


def _law_rows(config: ScenarioConfig, law: Callable[[float], PhaseDistribution], points: int) -> list[tuple]:
    """(t, x, density(x)) on ``points`` equispaced x across each law(chi t)'s support."""
    rows = []
    for t in config.times:
        dist = law(config.chi * t)
        rows += [(t, x, dist.evaluate(x)) for x in _grid(*dist.support, points)]
    return rows


def _phase_dist_rows(config: ScenarioConfig) -> list[tuple]:
    if isinstance(config.field, DeltaAmplitude):
        return _law_rows(config, lambda chi_t: phase_distribution_delta(config.atom, chi_t), 101)
    # the Gaussian law is 2pi-periodic: every time shares one phi grid on [-pi, pi]
    phis = _grid(-math.pi, math.pi, 201)
    chi_ts = [config.chi * t for t in config.times]
    densities = phase_densities_gaussian(config.atom, config.field, chi_ts, len(phis))
    return [(t, phi, p) for t, row in zip(config.times, densities) for phi, p in zip(phis, row)]


def _pfunction_rows(config: ScenarioConfig) -> list[tuple]:
    return _law_rows(config, lambda chi_t: atomic_pfunction(config.atom, chi_t), 101)


def _quad_dist_rows(config: ScenarioConfig) -> list[tuple]:
    half = config.field.r0 + 5.0 * config.field.sigma
    rows = []
    for t in config.times:
        dist = quadrature_distribution(config.atom, config.field, config.chi * t, config.quadrature)
        for y in (-half + k * (2.0 * half) / 200.0 for k in range(201)):
            try:
                rows.append((t, y, dist.evaluate(y)))
            except ConvergenceError as exc:
                # name the time and abscissa where it happened
                raise NumericError(f"scenario quad-dist: t = {t!r}, y = {y!r}: {exc}") from exc
    return rows


def _moment_values(moments: dict[ObservableSymbol, complex]) -> list[float]:
    return _triples(moments[obs] for _, obs in _MOMENT_COLUMNS)


def _corr_values(moments: dict[ObservableSymbol, complex]) -> list[float]:
    return _triples(moment_correlation(moments, a, b) for _, a, b in _CORR_COLUMNS)


def _headers(columns, prefix: str = "") -> tuple[str, ...]:
    return tuple(f"{prefix}{column[0]}_{part}" for column in columns for part in ("re", "im", "abs"))


def _closed_rows(values, config: ScenarioConfig) -> list[tuple]:
    hybrid = closed_moments(config.atom, config.field, config.chi, config.times)
    return [tuple([t] + values(moments)) for t, moments in zip(config.times, hybrid)]


def _compare_rows(config: ScenarioConfig) -> list[tuple]:
    args = (config.atom, config.field, config.chi, config.times)
    models = zip(
        closed_moments(*args),
        semiclassical_moments(*args),
        semiclassical_moments(*args, mean_field=True),
        quantum_moments(config.atom, config.field.mean_amplitude, config.chi, config.times),
    )
    return [
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


def _oscillator_rows(config: ScenarioConfig) -> list[tuple]:
    gamma0 = OscillatorPair(config.field.mean_amplitude, config.beta0)
    rows = []
    for t in config.times:
        g = pair_flow(gamma0, config.chi, t)
        energy = abs(g.alpha) ** 2 + abs(g.beta) ** 2
        rows.append((t, g.alpha.real, g.alpha.imag, g.beta.real, g.beta.imag, energy))
    return rows


@dataclass(frozen=True)
class _Scenario:
    """One scenario: its table, the states it takes and the limits on its work."""

    columns: tuple[str, ...]
    rows: Callable[[ScenarioConfig], list[tuple]]
    limits: Callable[..., tuple[list[tuple[str, str]], dict[str, float]]]
    field_kind: type | None = None  # the one field type it takes, if not both
    field_refusal: str = ""
    unit_width: bool = False  # Gaussian fields of sigma = 1 only
    beta0: bool = False  # takes beta0_re/beta0_im, and echoes beta0 in the metadata


_SCENARIOS = {
    "phase-dist": _Scenario(("t", "phi", "density"), _phase_dist_rows, _phase_dist_limits),
    "quad-dist": _Scenario(
        ("t", "y", "p"), _quad_dist_rows, _quad_dist_limits, GaussianAmplitude, " requires a gaussian field"
    ),
    "moments": _Scenario(
        ("t",) + _headers(_MOMENT_COLUMNS), partial(_closed_rows, _moment_values), _moment_limits
    ),
    "correlations": _Scenario(
        ("t",) + _headers(_CORR_COLUMNS), partial(_closed_rows, _corr_values), _moment_limits
    ),
    "pfunction": _Scenario(("t", "delta", "p"), _pfunction_rows, _sharp_limits),
    "compare": _Scenario(
        ("t",) + _headers(_MOMENT_COLUMNS) + _headers(_CORR_COLUMNS)
        + _headers(_MOMENT_COLUMNS, "sc_") + _headers(_MOMENT_COLUMNS, "mf_")
        + _headers(_MOMENT_COLUMNS, "q_") + _headers(_CORR_COLUMNS, "q_"),
        _compare_rows, _compare_limits,
        GaussianAmplitude, " requires a gaussian field with sigma = 1", unit_width=True,
    ),
    "oscillators": _Scenario(
        ("t", "alpha_re", "alpha_im", "beta_re", "beta_im", "energy"), _oscillator_rows,
        _oscillator_limits, DeltaAmplitude, " uses a delta field for the initial amplitude", beta0=True,
    ),
}


def run_scenario(config: ScenarioConfig) -> ResultTable:
    """Compute the table for a validated config.

    Raises NumericError if any produced value is NaN or infinite, or if a
    quad-dist quadrature does not converge (naming its t and y).
    """
    scenario = _SCENARIOS[config.scenario]
    metadata = [
        f"hybridwigner {__version__}",
        f"scenario = {config.scenario}",
        f"atom = {config.atom_kind} s={config.atom.s}",
        f"field = {config.field!r}",
        f"chi = {config.chi!r}",
        f"times = {len(config.times)} points"
        + (f" in [{config.times[0]!r}, {config.times[-1]!r}]" if config.times else ""),
        f"quadrature = rel {config.quadrature.relative_tolerance!r}"
        f" abs {config.quadrature.absolute_tolerance!r}"
        f" maxsub {_MAX_SUBDIVISIONS}"
        f" cutoff {RADIAL_CUTOFF_SIGMAS!r}",
    ]
    if scenario.beta0:
        metadata.append(f"beta0 = {config.beta0!r}")
    table = ResultTable(scenario.columns, tuple(scenario.rows(config)), tuple(metadata))
    if not all(map(math.isfinite, chain.from_iterable(table.rows))):
        bad = next(v for v in chain.from_iterable(table.rows) if not math.isfinite(v))
        raise NumericError(f"scenario {config.scenario} produced {bad}")
    return table


# -- CSV emission ------------------------------------------------------------


def render_csv(table: ResultTable) -> str:
    """The table as CSV text; raises NumericError on a NaN or infinite cell.

    Every row goes through one ``%.17g`` format, which renders a float with
    the same bytes as ``format(v, ".17g")``.
    """
    head = "".join(f"# {line}\n" for line in table.metadata) + ",".join(table.columns) + "\n"
    row_format = ",".join(["%.17g"] * len(table.columns)) + "\n"
    body = "".join(map(row_format.__mod__, table.rows))
    # a finite number renders from digits, ".", "e", "+" and "-" alone
    for text, name in (("nan", "NaN"), ("inf", "infinity")):
        if text in body:
            raise NumericError(f"refusing to write {name}")
    return head + body


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
        if not results:
            print(f"error: no acceptance criterion matches filter {args.filter!r}", file=sys.stderr)
            return 1
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
