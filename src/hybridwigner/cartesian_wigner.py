"""Wigner-type distributions on the plane and the negativity witnesses.

A distribution is carried around as a plain evaluable plus decay hints so the
plane quadrature knows where to put its truncation disk.  The trace rule is
tr(AB) = pi * Integral[W_A(beta) W_B(beta) d^2 beta]; diagonal number-state
matrix elements follow by tracing against number-state distributions.

"Nonclassical" here means the function itself goes negative somewhere;
"nonquantum" means the operator reconstructed from it is not positive
semidefinite.  Both checks below are witness-based sufficient conditions:
a negative answer proves nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .quadrature import (
    DEFAULT_SPEC,
    RADIAL_CUTOFF_SIGMAS,
    IntegrationSpec,
    integrate_interval,
    integrate_plane,
)

__all__ = [
    "NEGATIVITY_THRESHOLD",
    "PhaseSpaceFunction",
    "GaussianWigner",
    "FockWigner",
    "MarginalDistribution",
    "NonquantumReport",
    "NonclassicalReport",
    "gaussian_wigner",
    "fock_wigner",
    "overlap_trace",
    "quadrature_marginal",
    "fock_diag_element",
    "nonquantum_check",
    "nonclassical_check",
    "plane_grid",
]

# Values below this count as genuinely negative; real negativities in this
# problem family are of order 0.1, quadrature noise is of order 1e-12.
NEGATIVITY_THRESHOLD = 1e-10


@dataclass(frozen=True)
class PhaseSpaceFunction:
    """Evaluable function of a complex amplitude with decay hints.

    ``decay_scale`` and ``decay_center`` tell plane integrals where the mass
    sits: they cut off ``RADIAL_CUTOFF_SIGMAS`` decay scales from the centre.
    They are hints, not a support guarantee.
    """

    evaluate: Callable[[complex], float]
    decay_scale: float
    decay_center: complex = 0j


@dataclass(frozen=True)
class GaussianWigner(PhaseSpaceFunction):
    """A ``gaussian_wigner`` state: its centre alpha0 is ``decay_center`` and
    its width sigma is ``decay_scale``."""


@dataclass(frozen=True)
class FockWigner(PhaseSpaceFunction):
    """A ``fock_wigner`` state of number ``n``."""

    n: int = 0


@dataclass(frozen=True)
class MarginalDistribution:
    """One-dimensional density along a rotated quadrature axis."""

    evaluate: Callable[[float], float]
    center: float
    scale: float


@dataclass(frozen=True)
class NonquantumReport:
    diag_elements: tuple[tuple[int, float], ...]
    marginal_minima: tuple[tuple[float, float], ...]
    nonquantum: bool


@dataclass(frozen=True)
class NonclassicalReport:
    nonclassical: bool
    witness: complex
    value: float


def gaussian_wigner(alpha0: complex, sigma: float) -> GaussianWigner:
    """Normalized Gaussian (2 / (pi sigma^2)) exp(-2 |beta - alpha0|^2 / sigma^2).

    sigma = 1 is the distribution of an ideal coherent state; narrower widths
    describe sub-quantum-limit amplitude knowledge.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    alpha0 = complex(alpha0)
    norm = 2.0 / (math.pi * sigma * sigma)
    inv = 2.0 / (sigma * sigma)

    def w(beta: complex) -> float:
        d = beta - alpha0
        return norm * math.exp(-inv * (d.real * d.real + d.imag * d.imag))

    return GaussianWigner(w, decay_scale=sigma, decay_center=alpha0)


def _laguerre(n: int, x: float) -> float:
    """Laguerre polynomial L_n(x) from the three-term recurrence, carried as
    the increment d_k = L_k - L_{k-1} in the operation order of scipy's
    eval_genlaguerre at alpha = 0."""
    if n == 0:
        return 1.0
    d = -x
    p = d + 1.0
    for k in range(1, n):
        d = -x / (k + 1.0) * p + (k / (k + 1.0)) * d
        p = d + p
    return p


def fock_wigner(n: int) -> FockWigner:
    """Number-state distribution (2/pi) (-1)^n L_n(4|beta|^2) exp(-2|beta|^2)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    n = int(n)
    sign = -1.0 if n % 2 else 1.0

    def w(beta: complex) -> float:
        r2 = beta.real * beta.real + beta.imag * beta.imag
        return (2.0 / math.pi) * sign * _laguerre(n, 4.0 * r2) * math.exp(-2.0 * r2)

    return FockWigner(w, decay_scale=1.0 + math.sqrt(n), n=n)


def _joint_domain(
    A: PhaseSpaceFunction, B: PhaseSpaceFunction
) -> tuple[complex, float]:
    # Symmetric under swapping A and B so the trace rule stays symmetric.
    center = 0.5 * (A.decay_center + B.decay_center)
    width = max(A.decay_scale, B.decay_scale) + abs(A.decay_center - B.decay_center)
    return center, width


def overlap_trace(
    A: PhaseSpaceFunction,
    B: PhaseSpaceFunction,
    spec: IntegrationSpec = DEFAULT_SPEC,
) -> float:
    """tr(AB) = pi * Integral[W_A W_B d^2 beta]."""
    center, width = _joint_domain(A, B)
    res = integrate_plane(lambda b: A.evaluate(b) * B.evaluate(b), center, width, spec)
    return math.pi * res.value


def quadrature_marginal(
    W: PhaseSpaceFunction,
    axis_angle: float,
    spec: IntegrationSpec = DEFAULT_SPEC,
) -> MarginalDistribution:
    """Marginal density along the rotated axis exp(i * axis_angle).

    The returned density gives the exact statistics of the corresponding
    quadrature operator; axis_angle = pi/2 is the imaginary-part quadrature.
    """
    rot = complex(math.cos(axis_angle), math.sin(axis_angle))
    proj = W.decay_center * rot.conjugate()
    half = RADIAL_CUTOFF_SIGMAS * W.decay_scale
    lo, hi = proj.imag - half, proj.imag + half

    def density(s: float) -> float:
        res = integrate_interval(lambda u: W.evaluate(complex(s, u) * rot), lo, hi, spec)
        return res.value

    return MarginalDistribution(density, center=proj.real, scale=W.decay_scale)


def fock_diag_element(
    W: PhaseSpaceFunction,
    n: int,
    spec: IntegrationSpec = DEFAULT_SPEC,
) -> float:
    """Diagonal matrix element <n|rho|n> of the operator behind W."""
    return overlap_trace(W, fock_wigner(n), spec)


def nonquantum_check(
    W: PhaseSpaceFunction,
    max_n: int = 4,
    axes: Sequence[float] = (0.0, math.pi / 2),
    spec: IntegrationSpec = DEFAULT_SPEC,
) -> NonquantumReport:
    """Search for a witness that the operator behind W is not positive.

    Checks the diagonal number-state elements up to max_n and samples the
    quadrature marginals along the given axes.  A True verdict is a proof;
    a False verdict is not a proof of quantumness.
    """
    if max_n < 0:
        raise ValueError("max_n must be non-negative")
    diags = tuple((n, fock_diag_element(W, n, spec)) for n in range(max_n + 1))
    minima = []
    for angle in axes:
        marg = quadrature_marginal(W, angle, spec)
        half = 4.0 * marg.scale
        grid = np.linspace(marg.center - half, marg.center + half, 81)
        values = [marg.evaluate(float(s)) for s in grid]
        minima.append((float(angle), min(values)))
    verdict = any(v < -NEGATIVITY_THRESHOLD for _, v in diags) or any(
        v < -NEGATIVITY_THRESHOLD for _, v in minima
    )
    return NonquantumReport(diags, tuple(minima), verdict)


def nonclassical_check(
    W: PhaseSpaceFunction, sample_grid: Iterable[complex]
) -> NonclassicalReport:
    """Pointwise negativity witness over the supplied grid of amplitudes."""
    best_point = 0j
    best_value = math.inf
    for point in sample_grid:
        v = W.evaluate(complex(point))
        if v < best_value:
            best_value = v
            best_point = complex(point)
    if best_value is math.inf:
        raise ValueError("sample_grid must not be empty")
    return NonclassicalReport(
        best_value < -NEGATIVITY_THRESHOLD, best_point, best_value
    )


def plane_grid(center: complex, half_width: float, points_per_axis: int) -> list[complex]:
    """Deterministic square grid of complex sample points, row-major order."""
    if points_per_axis < 1:
        raise ValueError("points_per_axis must be at least 1")
    axis = np.linspace(-half_width, half_width, points_per_axis)
    center = complex(center)
    return [center + complex(x, y) for y in axis for x in axis]
