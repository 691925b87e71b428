"""One classical and one quantum oscillator with bilinear resonant coupling.

The flow of the pair amplitudes gamma = (alpha, beta) is the unitary matrix

    U(t) = [[cos(lambda t), -i sin(lambda t)],
            [-i sin(lambda t), cos(lambda t)]] * exp(-i t),

so joint distributions just ride along: W_t(gamma) = W_0(U(-t) gamma).  At
lambda t = pi/2 the two amplitudes swap (up to a phase), which transports
negativity into the "classical" slot and sub-quantum Gaussians into the
"quantum" slot; the two transfer checks below quantify exactly that.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import DEFAULT_SPEC, IntegrationSpec, integrate_plane
from .cartesian_wigner import (
    NonclassicalReport,
    NonquantumReport,
    PhaseSpaceFunction,
    fock_diag_element,
    fock_wigner,
    gaussian_wigner,
    nonclassical_check,
    nonquantum_check,
    plane_grid,
)

__all__ = [
    "OscillatorPair",
    "CouplingParams",
    "PairDistribution",
    "pair_flow",
    "flow_matrix",
    "evolve_pair_wigner",
    "alpha_marginal",
    "beta_marginal",
    "NonclassicalTransferReport",
    "NonquantumTransferReport",
    "nonclassical_transfer_check",
    "nonquantum_transfer_check",
]


@dataclass(frozen=True)
class OscillatorPair:
    """Amplitudes of the (classical, quantum) oscillator pair."""

    alpha: complex
    beta: complex


@dataclass(frozen=True)
class CouplingParams:
    """Coupling strength of the resonant pair (unit frequency ratio)."""

    lam: float

    @property
    def swap_time(self) -> float:
        """First time at which the two amplitudes exchange roles."""
        return 0.5 * math.pi / self.lam


def flow_matrix(params: CouplingParams, t: float) -> np.ndarray:
    c = math.cos(params.lam * t)
    s = math.sin(params.lam * t)
    return cmath.exp(-1j * t) * np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def pair_flow(gamma: OscillatorPair, params: CouplingParams, t: float) -> OscillatorPair:
    """Advance the amplitude pair by time t; |alpha|^2 + |beta|^2 is conserved."""
    U = flow_matrix(params, t)
    vec = U @ np.array([gamma.alpha, gamma.beta], dtype=complex)
    return OscillatorPair(complex(vec[0]), complex(vec[1]))


@dataclass(frozen=True)
class PairDistribution:
    """Evaluable joint density on the (alpha, beta) double plane."""

    evaluate: Callable[[complex, complex], float]
    label: str = ""


def evolve_pair_wigner(
    W_c: PhaseSpaceFunction,
    W_q: PhaseSpaceFunction,
    params: CouplingParams,
    t: float,
) -> PairDistribution:
    """Product initial density composed with the inverse flow."""
    # Python complex: a numpy scalar product costs about 2.5 times as much
    u00, u01, u10, u11 = (complex(u) for u in flow_matrix(params, -t).ravel())

    def w(alpha: complex, beta: complex) -> float:
        a0 = u00 * alpha + u01 * beta
        b0 = u10 * alpha + u11 * beta
        return W_c.evaluate(a0) * W_q.evaluate(b0)

    return PairDistribution(w, label=f"pair(t={t:.6g})")


def _marginal(
    W_c: PhaseSpaceFunction,
    W_q: PhaseSpaceFunction,
    params: CouplingParams,
    t: float,
    keep_alpha: bool,
    spec: IntegrationSpec,
    method: str,
) -> PhaseSpaceFunction:
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    c = math.cos(params.lam * t)
    s = math.sin(params.lam * t)
    kept_label = "alpha" if keep_alpha else "beta"
    scale = W_c.decay_scale + W_q.decay_scale
    center = 0j

    if method == "auto" and abs(s) < 1e-15:
        own = W_c if keep_alpha else W_q
        rot = cmath.exp(1j * t)

        def w_id(z: complex) -> float:
            return own.evaluate(rot * z)

        return PhaseSpaceFunction(w_id, f"{kept_label}-marginal(t={t:.6g})", own.decay_scale, center)

    if method == "auto" and abs(c) < 1e-15:
        # Swap point: the kept slot carries the other subsystem's initial
        # distribution, rotated by the accumulated free phase.
        other = W_q if keep_alpha else W_c
        sign = 1.0 if s > 0 else -1.0
        rot = 1j * sign * cmath.exp(1j * t)

        def w_swap(z: complex) -> float:
            return other.evaluate(rot * z)

        return PhaseSpaceFunction(w_swap, f"{kept_label}-marginal(t={t:.6g})", other.decay_scale, center)

    joint = evolve_pair_wigner(W_c, W_q, params, t)
    width = W_c.decay_scale + W_q.decay_scale + abs(W_c.decay_center) + abs(W_q.decay_center)

    def w_quad(z: complex) -> float:
        if keep_alpha:
            f = lambda beta: joint.evaluate(z, beta)
        else:
            f = lambda alpha: joint.evaluate(alpha, z)
        return integrate_plane(f, 0j, width + abs(z) / max(spec.radial_cutoff_sigmas, 1.0), spec).value

    return PhaseSpaceFunction(w_quad, f"{kept_label}-marginal(t={t:.6g})", scale, center)


def alpha_marginal(
    W_c: PhaseSpaceFunction,
    W_q: PhaseSpaceFunction,
    params: CouplingParams,
    t: float,
    spec: IntegrationSpec = DEFAULT_SPEC,
    method: str = "auto",
) -> PhaseSpaceFunction:
    """Distribution of the nominally classical amplitude at time t.

    method="auto" exploits the exact factorization at t = 0 and at the swap
    time; method="quadrature" always integrates the other plane numerically.
    """
    return _marginal(W_c, W_q, params, t, True, spec, method)


def beta_marginal(
    W_c: PhaseSpaceFunction,
    W_q: PhaseSpaceFunction,
    params: CouplingParams,
    t: float,
    spec: IntegrationSpec = DEFAULT_SPEC,
    method: str = "auto",
) -> PhaseSpaceFunction:
    """Distribution of the nominally quantum amplitude at time t."""
    return _marginal(W_c, W_q, params, t, False, spec, method)


@dataclass(frozen=True)
class NonclassicalTransferReport:
    origin_value: float
    report: NonclassicalReport

    @property
    def nonclassical(self) -> bool:
        return self.report.nonclassical


@dataclass(frozen=True)
class NonquantumTransferReport:
    sigma: float
    excited_diag: float
    report: NonquantumReport

    @property
    def nonquantum(self) -> bool:
        return self.report.nonquantum


def nonclassical_transfer_check(
    params: CouplingParams, spec: IntegrationSpec = DEFAULT_SPEC
) -> NonclassicalTransferReport:
    """Start the classical slot in a unit Gaussian and the quantum slot in the
    first excited state; at the swap time the classical slot inherits its
    negativity.  The origin value of the alpha marginal is computed by honest
    plane quadrature, the grid sweep uses the exact swap factorization.
    """
    W_c = gaussian_wigner(0, 1.0)
    W_q = fock_wigner(1)
    tau = params.swap_time
    origin = alpha_marginal(W_c, W_q, params, tau, spec, method="quadrature").evaluate(0j)
    marg = alpha_marginal(W_c, W_q, params, tau, spec)
    grid = plane_grid(0j, 3.0, 21)
    report = nonclassical_check(marg, grid)
    return NonclassicalTransferReport(origin, report)


def nonquantum_transfer_check(
    sigma: float, params: CouplingParams, spec: IntegrationSpec = DEFAULT_SPEC
) -> NonquantumTransferReport:
    """Start the classical slot in a width-sigma Gaussian and the quantum slot
    in a unit one; at the swap time the quantum slot inherits the former, and
    for sigma < 1 its excited-state diagonal element goes negative.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    W_c = gaussian_wigner(0, sigma)
    W_q = gaussian_wigner(0, 1.0)
    tau = params.swap_time
    marg = beta_marginal(W_c, W_q, params, tau, spec)
    diag = fock_diag_element(marg, 1, spec)
    report = nonquantum_check(marg, max_n=1, axes=(0.0,), spec=spec)
    return NonquantumTransferReport(sigma, diag, report)
