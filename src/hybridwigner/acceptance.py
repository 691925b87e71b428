"""Acceptance checks: one callable per criterion, shared by tests and the CLI.

Each criterion returns a CriterionResult whose checks carry the measured
value and the bound it was held to.  Checks with bound "report" are
informational and never gate the outcome.
"""

from __future__ import annotations

import cmath
import filecmp
import math
import random
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

from .quadrature import BlochPoint, IntegrationSpec, integrate_interval, integrate_sphere
from .su2_wigner import (
    SQRT3,
    SpinHalfState,
    spin_half_kernel,
    spin_wigner,
    su2_kernel,
    su2_traciality,
    wigner_to_spin,
)
from .cartesian_wigner import fock_diag_element, gaussian_wigner
from .hybrid_model import (
    DeltaAmplitude,
    GaussianAmplitude,
    HybridState,
    ObservableSymbol,
    atomic_pfunction,
    closed_moments,
    expectation_quadrature,
    moment_correlation,
    phase_distribution_delta,
    phase_moments,
    quadrature_distribution,
)
from .quantum_reference import basis_moments, quantum_moments
from .oscillator_hybrid import nonclassical_transfer_check, nonquantum_transfer_check

__all__ = ["CheckRow", "CriterionResult", "CRITERIA", "run_all"]


@dataclass(frozen=True)
class CheckRow:
    label: str
    measured: float
    bound: str
    passed: bool


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    checks: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.bound != "report")


def _row(label: str, measured: float, bound: float) -> CheckRow:
    return CheckRow(label, float(measured), f"<= {bound:g}", float(measured) <= bound)


def _report(label: str, measured: float) -> CheckRow:
    return CheckRow(label, float(measured), "report", True)


def criterion_1() -> CriterionResult:
    """Sharp-field phase law: closed form, negativity range, support edges."""
    import numpy as np

    checks = []
    ground = SpinHalfState.ground()
    for chi_t in (0.5, 1.0, 2.0):
        kappa = SQRT3 * chi_t
        dist = phase_distribution_delta(ground, chi_t)
        grid = np.linspace(-kappa, kappa, 101)
        worst = max(
            abs(dist.evaluate(float(p)) - (1.0 - p / chi_t) / (2.0 * kappa))
            for p in grid
        )
        checks.append(_row(f"chi_t={chi_t}: law deviation on grid", worst, 1e-9))
        inner = np.linspace(chi_t, kappa, 41)[1:]
        most = max(dist.evaluate(float(p)) for p in inner)
        checks.append(
            CheckRow(f"chi_t={chi_t}: negative on (chi_t, kappa]", most, "< 0", most < 0.0)
        )
        outside = max(
            abs(dist.evaluate(kappa + eps)) + abs(dist.evaluate(-kappa - eps))
            for eps in (1e-9, 0.1, 2.0)
        )
        checks.append(_row(f"chi_t={chi_t}: zero outside support", outside, 0.0))
    return CriterionResult(1, "sharp-field phase law", tuple(checks))


def criterion_2() -> CriterionResult:
    """Formal phase moments: mean -chi*t, vanishing variance."""
    checks = []
    ground = SpinHalfState.ground()
    for chi_t in (0.5, 1.0, 2.0):
        dist = phase_distribution_delta(ground, chi_t)
        mean, var = phase_moments(dist)
        checks.append(_row(f"chi_t={chi_t}: |mean + chi_t|", abs(mean + chi_t), 1e-10))
        checks.append(_row(f"chi_t={chi_t}: |variance|", abs(var), 1e-10))
    return CriterionResult(2, "formal phase moments", tuple(checks))


def criterion_3() -> CriterionResult:
    """Integrated quadrature negativity at the stated parameters.

    The stated window [-5, -1] with amplitude 10 integrates a region where
    the density is strictly positive; see the report rows for the actual
    negative strip and for the amplitude readings that reproduce -0.04.
    """
    ground = SpinHalfState.ground()
    chi_t = 1.0 / SQRT3
    spec = IntegrationSpec(1e-9, 1e-11)
    dist = quadrature_distribution(ground, GaussianAmplitude(10.0, 1.0), chi_t, spec)
    value = integrate_interval(dist.evaluate, -5.0, -1.0, spec).value
    checks = [
        _row("r0=10: |window integral - (-0.04)|", abs(value - (-0.04)), 0.005),
        _report("r0=10: window integral", value),
    ]
    neg = integrate_interval(
        lambda y: min(dist.evaluate(y), 0.0), -12.0, -4.0, IntegrationSpec(1e-7, 1e-9)
    ).value
    checks.append(_report("r0=10: full negative-part integral", neg))
    dist_s = quadrature_distribution(
        ground, GaussianAmplitude(math.sqrt(10.0), 1.0), chi_t, spec
    )
    value_s = integrate_interval(dist_s.evaluate, -5.0, -1.0, spec).value
    checks.append(_report("r0=sqrt(10): window integral", value_s))
    norm = integrate_interval(dist.evaluate, -16.0, 16.0, IntegrationSpec(1e-8, 1e-10)).value
    checks.append(_report("r0=10: full-line normalization minus 1", norm - 1.0))
    return CriterionResult(3, "integrated quadrature negativity", tuple(checks))


def criterion_4() -> CriterionResult:
    """Superposition-atom sharp-field moments against the closed displays."""
    import numpy as np

    phase = SpinHalfState.phase_state()
    r0 = 1.0
    worst_adag = 0.0
    ratios = []
    for chi_t in np.linspace(0.2, 10.0, 50):
        state = HybridState(phase, DeltaAmplitude(r0), chi=1.0, t=float(chi_t))
        kappa = SQRT3 * chi_t
        adag = expectation_quadrature(state, ObservableSymbol.ADAG)
        worst_adag = max(worst_adag, abs(adag - r0 * math.sin(kappa) / kappa))
        sma = expectation_quadrature(state, ObservableSymbol.SIGMA_MINUS_ADAG)
        display = (
            cmath.exp(-2j * chi_t * r0 * r0)
            / (chi_t * chi_t)
            * r0
            * (math.sin(kappa) / kappa - math.cos(kappa))
        )
        ratios.append(sma / display)
    ratios = np.array(ratios)
    scale = ratios.mean()
    checks = [
        _row("raising-moment deviation over 50 points", worst_adag, 1e-8),
        _row("coherence ratio spread", float(np.max(np.abs(ratios - scale))), 1e-8),
        _row("coherence ratio imaginary part", abs(scale.imag), 1e-8),
        _report("coherence scale constant", scale.real),
    ]
    return CriterionResult(4, "superposition-atom sharp-field moments", tuple(checks))


def criterion_5() -> CriterionResult:
    """Gaussian-field moments: closed route against direct quadrature, and the
    narrow-width limit against the sharp-field forms."""
    phase = SpinHalfState.phase_state()
    observables = (
        ObservableSymbol.SIGMA_MINUS,
        ObservableSymbol.ADAG,
        ObservableSymbol.SIGMA_MINUS_ADAG,
    )
    times = (0.1, 0.5, 1.0, 2.0)
    gaussian = GaussianAmplitude(1.0, 1.0)
    worst_rel = 0.0
    for t, moments in zip(times, closed_moments(phase, gaussian, 1.0, times)):
        state = HybridState(phase, gaussian, chi=1.0, t=t)
        for obs in observables:
            closed = moments[obs]
            quad = expectation_quadrature(state, obs)
            worst_rel = max(worst_rel, abs(closed - quad) / abs(closed))
    worst_limit = 0.0
    for narrow, sharp in zip(
        closed_moments(phase, GaussianAmplitude(1.0, 1e-3), 1.0, times),
        closed_moments(phase, DeltaAmplitude(1.0), 1.0, times),
    ):
        for obs in observables:
            a, b = narrow[obs], sharp[obs]
            worst_limit = max(worst_limit, abs(a - b) / abs(b))
    checks = [
        _row("closed vs quadrature relative deviation", worst_rel, 1e-6),
        _row("sigma=1e-3 vs sharp-field relative deviation", worst_limit, 1e-3),
    ]
    return CriterionResult(5, "gaussian-field moments", tuple(checks))


def criterion_6() -> CriterionResult:
    """Correlation decay envelopes.

    Ground atom with a sharp field: |corr| * t stays bounded.  Superposition
    atom with the unit-width Gaussian field: |corr| * t^2 stays bounded.
    (With a sharp field the superposition product term only decays as 1/t,
    so the t^2 envelope is taken on the Gaussian configuration.)
    """
    import numpy as np

    ground = SpinHalfState.ground()
    phase = SpinHalfState.phase_state()
    ts = np.linspace(5.0, 50.0, 181).tolist()
    g_vals = [
        abs(moment_correlation(moments, ObservableSymbol.SIGMA_Z, ObservableSymbol.A)) * t
        for t, moments in zip(ts, closed_moments(ground, DeltaAmplitude(1.0), 1.0, ts))
    ]
    p_vals = [
        abs(moment_correlation(moments, ObservableSymbol.SIGMA_MINUS, ObservableSymbol.ADAG)) * t * t
        for t, moments in zip(ts, closed_moments(phase, GaussianAmplitude(1.0, 1.0), 1.0, ts))
    ]
    g_ratio = max(g_vals) / g_vals[0]
    p_ratio = max(p_vals) / p_vals[0]
    checks = [
        _row("ground sharp-field: max(|corr| t) / value at 5", g_ratio, 3.0),
        _row("superposition gaussian: max(|corr| t^2) / value at 5", p_ratio, 3.0),
        _report("ground envelope at chi t = 5", g_vals[0]),
        _report("superposition envelope at chi t = 5", p_vals[0]),
    ]
    return CriterionResult(6, "correlation decay", tuple(checks))


def criterion_7() -> CriterionResult:
    """Quantum reference: closed-form coherence, periodic structure, ground
    correlation, and the closed forms against the truncated basis.

    Photon-number-changing moments flip sign after half the fundamental
    period, so the periodicity check resolves the sign: each moment must
    return to +/- itself after pi/chi and exactly to itself after 2 pi/chi.
    """
    import numpy as np

    alpha, chi = 1.0, 1.0
    c = 1.0 / math.sqrt(2.0)
    atom = SpinHalfState.phase_state()
    worst_closed = 0.0
    times = np.linspace(0.05, 3.0, 25).tolist()
    closed_grid = quantum_moments(atom, alpha, chi, times)
    for t, moments in zip(times, closed_grid):
        value = moments[ObservableSymbol.SIGMA_MINUS_ADAG]
        closed = (
            0.5
            * np.conj(alpha)
            * cmath.exp(1j * chi * t)
            * cmath.exp(1j * abs(alpha) ** 2 * math.sin(2 * chi * t))
            * math.exp(-2.0 * abs(alpha) ** 2 * math.sin(chi * t) ** 2)
        )
        worst_closed = max(worst_closed, abs(value - closed))
    worst_half = 0.0
    worst_full = 0.0
    for t in (0.17, 0.61, 1.3):
        shifted = [t + shift for shift in (0.0, math.pi / chi, 2.0 * math.pi / chi)]
        m0, m1, m2 = quantum_moments(atom, alpha, chi, shifted)
        for obs in ObservableSymbol:
            v0, v1, v2 = m0[obs], m1[obs], m2[obs]
            worst_half = max(worst_half, min(abs(v1 - v0), abs(v1 + v0)))
            worst_full = max(worst_full, abs(v2 - v0))
    ground = quantum_moments(SpinHalfState.ground(), alpha, chi, (1.1,))[0]
    g_corr = abs(moment_correlation(ground, ObservableSymbol.SIGMA_Z, ObservableSymbol.A))
    pairs = zip(closed_grid, basis_moments(c, c, alpha, chi, times, N=40))
    worst_basis = max(abs(q[obs] - b[obs]) for q, b in pairs for obs in ObservableSymbol)
    checks = [
        _row("coherence vs displayed closed form (alpha=1)", worst_closed, 1e-10),
        _row("sign-resolved periodicity at pi/chi", worst_half, 1e-10),
        _row("periodicity at 2 pi/chi", worst_full, 1e-10),
        _row("ground inversion-amplitude correlation", g_corr, 1e-12),
        _row("six closed moments vs truncated basis (alpha=1, N=40)", worst_basis, 1e-10),
    ]
    return CriterionResult(7, "quantum reference", tuple(checks))


def criterion_8() -> CriterionResult:
    """Nonquantum witness: excited-state diagonal of narrow Gaussians."""
    checks = []
    for sigma in (0.5, 0.8, 1.0):
        value = fock_diag_element(gaussian_wigner(0, sigma), 1)
        exact = -2.0 * (1.0 - sigma * sigma) / (1.0 + sigma * sigma) ** 2
        checks.append(_row(f"sigma={sigma}: witness deviation", abs(value - exact), 1e-8))
    return CriterionResult(8, "nonquantum witness", tuple(checks))


def criterion_9() -> CriterionResult:
    """Sphere representation: kernel closed form, round trip, trace rule."""
    import numpy as np

    worst_kernel = 0.0
    for theta in np.linspace(0.005, math.pi - 0.005, 20):
        for phi in np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False):
            pt = BlochPoint(float(theta), float(phi))
            dev = np.max(np.abs(su2_kernel(0.5, pt) - spin_half_kernel(pt)))
            worst_kernel = max(worst_kernel, float(dev))
    # random.Random, not numpy.random: that module alone adds about 6 MB
    rng = random.Random(20240817)

    def bloch_vector() -> tuple[float, ...]:
        # isotropic direction, length uniform in [0, 1]
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        scale = rng.uniform(0.0, 1.0) / math.hypot(*v)
        return tuple(c * scale for c in v)

    worst_rt = 0.0
    worst_tr = 0.0
    for _ in range(20):
        v1, v2 = bloch_vector(), bloch_vector()
        s1, s2 = SpinHalfState(v1), SpinHalfState(v2)
        back = wigner_to_spin(spin_wigner(s1))
        worst_rt = max(worst_rt, max(abs(a - b) for a, b in zip(s1.s, back.s)))
        tr = su2_traciality(spin_wigner(s1), spin_wigner(s2))
        worst_tr = max(worst_tr, abs(tr - 0.5 * (1.0 + sum(a * b for a, b in zip(v1, v2)))))
    checks = [
        _row("kernel sum vs closed form on 20x20 grid", worst_kernel, 1e-12),
        _row("round-trip worst component deviation", worst_rt, 1e-8),
        _row("trace rule vs matrix oracle, 20 pairs", worst_tr, 1e-8),
    ]
    return CriterionResult(9, "sphere representation", tuple(checks))


def criterion_10() -> CriterionResult:
    """Oscillator swap: negativity and nonquantumness change sides."""
    rep_c = nonclassical_transfer_check(1.0)
    rep_q = nonquantum_transfer_check(0.5, 1.0)
    checks = [
        _row("alpha-marginal origin vs -2/pi", abs(rep_c.origin_value + 2.0 / math.pi), 1e-9),
        CheckRow("nonclassical witness fires", rep_c.report.value, "< 0", rep_c.nonclassical),
        _row("beta-marginal excited diagonal vs -0.96", abs(rep_q.excited_diag + 0.96), 1e-6),
        CheckRow("nonquantum witness fires", rep_q.excited_diag, "< 0", rep_q.nonquantum),
    ]
    return CriterionResult(10, "oscillator swap", tuple(checks))


def criterion_11() -> CriterionResult:
    """Diagonal amplitude-expansion weight: its moments against the atomic
    distribution pushed through delta = sqrt(3) chi t cos(theta), and the
    field moments it rebuilds."""
    checks = []
    for atom, label in (
        (SpinHalfState.ground(), "ground"),
        (SpinHalfState.phase_state(), "superposition"),
    ):
        w = spin_wigner(atom)
        for chi_t in (0.5, 1.0, 2.0):
            kappa = SQRT3 * chi_t
            p = atomic_pfunction(atom, chi_t)
            lo, hi = p.support
            worst = 0.0
            for k in range(4):
                weight = integrate_interval(lambda d: p.evaluate(d) * d**k, lo, hi).value
                sphere = integrate_sphere(lambda ct, st, phi: w(ct, st, phi) * (kappa * ct) ** k).value
                worst = max(worst, abs(weight - sphere))
            # measured at most 3.6e-15 (the k = 3 moment, |value| 14.4); margin 8
            checks.append(_row(f"{label} chi_t={chi_t}: weight moments k=0..3 vs sphere", worst, 3e-14))
    r0 = 1.3
    for atom, label in (
        (SpinHalfState.ground(), "ground"),
        (SpinHalfState.phase_state(), "superposition"),
    ):
        chi_ts = (0.5, 2.0)
        for chi_t, moments in zip(chi_ts, closed_moments(atom, DeltaAmplitude(r0), 1.0, chi_ts)):
            p = atomic_pfunction(atom, chi_t)
            lo, hi = p.support
            rebuilt = r0 * integrate_interval(
                lambda d: p.evaluate(d) * cmath.exp(1j * d), lo, hi
            ).value
            direct = moments[ObservableSymbol.ADAG]
            # measured at most 2.2e-16 (|value| up to 1.3); margin 9
            checks.append(_row(f"{label} chi_t={chi_t}: rebuilt raising moment", abs(rebuilt - direct), 2e-15))
    return CriterionResult(11, "amplitude-expansion weight", tuple(checks))


def criterion_12() -> CriterionResult:
    """CLI determinism on the five figure configs plus evolved-phase negativity."""
    from .cli import emit_csv, parse_config, run_scenario

    checks = []
    fig3_min = math.inf
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5"):
            text = (resources.files("hybridwigner") / "configs" / f"{name}.cfg").read_text()
            config = parse_config(text)
            table = run_scenario(config)
            first = tmp_path / f"{name}_a.csv"
            second = tmp_path / f"{name}_b.csv"
            emit_csv(table, str(first))
            emit_csv(run_scenario(parse_config(text)), str(second))
            identical = filecmp.cmp(str(first), str(second), shallow=False)
            checks.append(
                CheckRow(f"{name}: byte-identical reruns", float(identical), "== 1", identical)
            )
            if name == "fig3":
                last_t = max(row[0] for row in table.rows)
                fig3_min = min(row[2] for row in table.rows if row[0] == last_t)
    checks.append(
        CheckRow("fig3 evolved-panel minimum density", fig3_min, "< -1e-3", fig3_min < -1e-3)
    )
    return CriterionResult(12, "CLI determinism and figures", tuple(checks))


CRITERIA: tuple[tuple[int, str, Callable[[], CriterionResult]], ...] = (
    (1, "sharp-field phase law", criterion_1),
    (2, "formal phase moments", criterion_2),
    (3, "integrated quadrature negativity", criterion_3),
    (4, "superposition-atom sharp-field moments", criterion_4),
    (5, "gaussian-field moments", criterion_5),
    (6, "correlation decay", criterion_6),
    (7, "quantum reference", criterion_7),
    (8, "nonquantum witness", criterion_8),
    (9, "sphere representation", criterion_9),
    (10, "oscillator swap", criterion_10),
    (11, "amplitude-expansion weight", criterion_11),
    (12, "CLI determinism and figures", criterion_12),
)


def run_all(name_filter: str | None = None) -> list[CriterionResult]:
    """Run every criterion whose name contains the filter substring."""
    results = []
    for _, name, fn in CRITERIA:
        if name_filter and name_filter.lower() not in name.lower():
            continue
        results.append(fn())
    return results
