"""Deterministic adaptive quadrature on intervals, the unit sphere, and the plane.

The integrator is a globally adaptive Gauss-Kronrod 7/15 scheme: the panel
with the largest error estimate is bisected until the accumulated error meets
``max(relative_tolerance * |value|, absolute_tolerance)``.  Everything is a
pure function of its inputs and the panel bookkeeping is fully ordered, so
identical calls return bit-identical results.

Sphere and plane integrals are iterated 1D integrals (polar angle outside,
azimuth inside) with a correspondingly tightened inner tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from typing import Callable, Union

__all__ = [
    "IntegrationSpec",
    "IntegrationResult",
    "ConvergenceError",
    "BlochPoint",
    "DEFAULT_SPEC",
    "RADIAL_CUTOFF_SIGMAS",
    "integrate_interval",
    "integrate_sphere",
    "integrate_plane",
]

TWO_PI = 2.0 * math.pi

# Where plane integrals and radial windows truncate the radial coordinate, in
# units of the integrand's decay scale.
RADIAL_CUTOFF_SIGMAS = 10.0

# 15-point Kronrod abscissae on (0, 1]; the embedded 7-point Gauss rule sits
# at the odd indices.  Constants are the classic QUADPACK dqk15 values.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299785,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

Scalar = Union[float, complex]


@dataclass(frozen=True)
class IntegrationSpec:
    """Tolerances and subdivision budget shared by every integration routine."""

    relative_tolerance: float = 1e-10
    absolute_tolerance: float = 1e-12
    max_subdivisions: int = 1 << 16

    def __post_init__(self) -> None:
        # NaN compares False, so each float bound is written as not (x > bound)
        if not (self.relative_tolerance > 0.0) or not math.isfinite(self.relative_tolerance):
            raise ValueError("relative_tolerance must be positive and finite")
        if not (self.absolute_tolerance > 0.0) or not math.isfinite(self.absolute_tolerance):
            raise ValueError("absolute_tolerance must be positive and finite")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_SPEC = IntegrationSpec()


@dataclass(frozen=True)
class IntegrationResult:
    value: Scalar
    error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if self.error_estimate < 0.0:
            raise ValueError("error_estimate must be non-negative")


class ConvergenceError(RuntimeError):
    """Subdivision budget exhausted; carries the best estimate so far."""

    def __init__(self, message: str, best: IntegrationResult):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class BlochPoint:
    """Point on the unit sphere, polar angle theta in [0, pi], azimuth phi.

    phi is normalized into [0, 2*pi); theta is clamped against harmless
    floating-point overshoot at the poles.
    """

    theta: float
    phi: float

    def __post_init__(self) -> None:
        theta = float(self.theta)
        if -1e-12 <= theta < 0.0:
            theta = 0.0
        elif math.pi < theta <= math.pi + 1e-12:
            theta = math.pi
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta out of range [0, pi]: {self.theta}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)

    @property
    def unit_vector(self) -> tuple[float, float, float]:
        st = math.sin(self.theta)
        return (st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta))


def _sum_ordered(values) -> Scalar:
    vals = list(values)
    if any(isinstance(v, complex) for v in vals):
        return complex(
            math.fsum(v.real if isinstance(v, complex) else v for v in vals),
            math.fsum(v.imag if isinstance(v, complex) else 0.0 for v in vals),
        )
    return math.fsum(vals)


def integrate_interval(
    f: Callable[[float], Scalar],
    a: float,
    b: float,
    spec: IntegrationSpec = DEFAULT_SPEC,
) -> IntegrationResult:
    """Integrate f over [a, b].

    Raises ConvergenceError when the subdivision budget runs out before the
    tolerance is met; the exception carries the best estimate.
    """
    if not a <= b:
        raise ValueError(f"integration limits must satisfy a <= b, got [{a}, {b}]")
    if a == b:
        return IntegrationResult(0.0, 0.0, 0)

    evaluations = 0

    def panel(lo: float, hi: float):
        nonlocal evaluations
        evaluations += 15
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        fc = f(mid)
        resk = _WGK[7] * fc
        resg = _WG[3] * fc
        for i in range(7):
            dx = half * _XGK[i]
            s = f(mid - dx) + f(mid + dx)
            resk += _WGK[i] * s
            if i % 2 == 1:
                resg += _WG[(i - 1) // 2] * s
        resk *= half
        resg *= half
        return resk, abs(resk - resg)

    value, err = panel(a, b)
    heap = [(-err, 0, a, b, value, err)]
    seq = 1
    total = value
    total_err = err
    splits = 0

    def finish() -> IntegrationResult:
        ordered = sorted(heap, key=lambda item: item[2])
        return IntegrationResult(
            _sum_ordered(item[4] for item in ordered),
            math.fsum(item[5] for item in ordered),
            evaluations,
        )

    while total_err > max(spec.relative_tolerance * abs(total), spec.absolute_tolerance):
        if splits >= spec.max_subdivisions:
            raise ConvergenceError(
                f"no convergence after {splits} subdivisions on [{a}, {b}]", finish()
            )
        neg_err, _, lo, hi, v, e = heappop(heap)
        width = hi - lo
        if e <= 0.0 or width <= 1e-15 * (abs(lo) + abs(hi) + 1.0):
            heappush(heap, (neg_err, seq, lo, hi, v, e))
            seq += 1
            raise ConvergenceError(
                f"panel [{lo}, {hi}] cannot be refined further", finish()
            )
        mid = 0.5 * (lo + hi)
        v1, e1 = panel(lo, mid)
        v2, e2 = panel(mid, hi)
        heappush(heap, (-e1, seq, lo, mid, v1, e1))
        heappush(heap, (-e2, seq + 1, mid, hi, v2, e2))
        seq += 2
        total = total + v1 + v2 - v
        total_err = max(total_err + e1 + e2 - e, 0.0)
        splits += 1

    return finish()


def _inner_spec(spec: IntegrationSpec) -> IntegrationSpec:
    # Inner (azimuthal) integrals run one order tighter than the outer one so
    # their bias stays below the outer error estimate.
    return replace(
        spec,
        relative_tolerance=max(spec.relative_tolerance * 0.1, 1e-15),
        absolute_tolerance=spec.absolute_tolerance * 0.1,
    )


def _iterated(
    ring: Callable[[float, Callable[[Callable[[float], Scalar]], Scalar]], Scalar],
    lo: float,
    hi: float,
    spec: IntegrationSpec,
) -> IntegrationResult:
    """Integral over x in [lo, hi] of ring(x, azimuthal), where azimuthal(g)
    integrates g over one period at ``_inner_spec(spec)``.  The error adds
    (hi - lo) times the worst inner error, and the count is that of the inner
    evaluations."""
    inner = _inner_spec(spec)
    inner_evals = 0
    inner_err = 0.0

    def azimuthal(g: Callable[[float], Scalar]) -> Scalar:
        nonlocal inner_evals, inner_err
        res = integrate_interval(g, 0.0, TWO_PI, inner)
        inner_evals += res.evaluations
        inner_err = max(inner_err, res.error_estimate)
        return res.value

    outer = integrate_interval(lambda x: ring(x, azimuthal), lo, hi, spec)
    return IntegrationResult(outer.value, outer.error_estimate + (hi - lo) * inner_err, inner_evals)


def integrate_sphere(
    f: Callable[[BlochPoint], Scalar],
    spec: IntegrationSpec = DEFAULT_SPEC,
) -> IntegrationResult:
    """Integrate f(Omega) sin(theta) dtheta dphi over the whole sphere.

    Internally substitutes u = cos(theta), which absorbs the sin(theta)
    Jacobian and tames integrands oscillating in cos(theta).
    """

    def ring(u: float, azimuthal) -> Scalar:
        theta = math.acos(min(1.0, max(-1.0, u)))
        return azimuthal(lambda phi: f(BlochPoint(theta, phi)))

    return _iterated(ring, -1.0, 1.0, spec)


def integrate_plane(
    f: Callable[[complex], Scalar],
    center: complex,
    width: float,
    spec: IntegrationSpec = DEFAULT_SPEC,
) -> IntegrationResult:
    """Integrate f(alpha) d^2alpha over the disk
    |alpha - center| <= RADIAL_CUTOFF_SIGMAS * width.

    The integrand must decay at least Gaussian-fast with scale ``width`` away
    from ``center``.
    """
    if width <= 0.0:
        raise ValueError("width must be positive")
    center = complex(center)

    def ring(rho: float, azimuthal) -> Scalar:
        return rho * azimuthal(lambda phi: f(center + rho * complex(math.cos(phi), math.sin(phi))))

    return _iterated(ring, 0.0, RADIAL_CUTOFF_SIGMAS * width, spec)
