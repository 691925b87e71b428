"""Deterministic adaptive quadrature on intervals, the unit sphere, and the plane.

The integrator is a globally adaptive Gauss-Kronrod 7/15 scheme: the panel
with the largest error estimate is bisected until the accumulated error meets
``max(relative_tolerance * |value|, absolute_tolerance)``.  Everything is a
pure function of its inputs and the panel bookkeeping is fully ordered, so
identical calls return bit-identical results.

Sphere and plane integrals are iterated 1D integrals (the polar or radial
coordinate outside, the azimuth inside) with a correspondingly tightened
inner tolerance.  A sphere ring takes the periodic trapezoid rule, doubled
until two levels agree: the spin-1/2 densities and symbols are trigonometric
polynomials of low degree in the azimuth, which that rule integrates exactly.
A plane ring keeps adaptive Gauss-Kronrod, since an off-centre Gaussian is
no such polynomial.
"""

from __future__ import annotations

import cmath
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

# Bisections integrate_interval may make before it gives up on a tolerance.
_MAX_SUBDIVISIONS = 1 << 16

# Points of a sphere ring's first trapezoid level, and the most points a ring
# may take before it is refused.  Level 8 against 16 is blind only to
# harmonics at multiples of 16; 4 against 8 would miss multiples of 8.
_FIRST_RING_POINTS = 8
_MAX_RING_POINTS = 1 << 16

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
    """Tolerances shared by every integration routine."""

    relative_tolerance: float = 1e-10
    absolute_tolerance: float = 1e-12

    def __post_init__(self) -> None:
        # NaN compares False, so each float bound is written as not (x > bound)
        if not (self.relative_tolerance > 0.0) or not math.isfinite(self.relative_tolerance):
            raise ValueError("relative_tolerance must be positive and finite")
        if not (self.absolute_tolerance > 0.0) or not math.isfinite(self.absolute_tolerance):
            raise ValueError("absolute_tolerance must be positive and finite")


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
    """Subdivision budget exhausted or a NaN estimate; carries the best
    estimate so far."""

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
            if not math.isfinite(theta):
                raise ValueError(f"theta must be finite, got {self.theta!r}")
            raise ValueError(f"theta out of range [0, pi]: {self.theta}")
        phi = float(self.phi) % TWO_PI
        if phi != phi:  # inf and nan both reduce to nan
            raise ValueError(f"phi must be finite, got {self.phi!r}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    @property
    def coords(self) -> tuple[float, float, float]:
        """(cos theta, sin theta, phi): the arguments of a sphere integrand,
        so a density w is evaluated at the point as ``w(*point.coords)``."""
        return (math.cos(self.theta), math.sin(self.theta), self.phi)

    @property
    def unit_vector(self) -> tuple[float, float, float]:
        ct, st, phi = self.coords
        return (st * math.cos(phi), st * math.sin(phi), ct)


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

    Raises ConvergenceError when ``_MAX_SUBDIVISIONS`` bisections do not meet
    the tolerance, or when the estimate or its error is NaN or infinite
    (checked after the first panel and when the loop ends, never per node);
    the exception carries the best estimate.
    """
    if not math.isfinite(a):
        raise ValueError(f"integration limit a must be finite, got {a!r}")
    if not math.isfinite(b):
        raise ValueError(f"integration limit b must be finite, got {b!r}")
    if not a <= b:
        raise ValueError(f"integration limits must satisfy a <= b, got [{a}, {b}]")
    if a == b:
        return IntegrationResult(0.0, 0.0, 0)

    evaluations = 0
    x0, x1, x2, x3, x4, x5, x6 = _XGK
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    g0, g1, g2, g3 = _WG

    def panel(lo: float, hi: float):
        # The seven node pairs written out: the same f calls and the same
        # sums, in the same order, as a loop over _XGK, without its indexing.
        nonlocal evaluations
        evaluations += 15
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        fc = f(mid)
        resk = k7 * fc
        resg = g3 * fc
        dx = half * x0
        resk += k0 * (f(mid - dx) + f(mid + dx))
        dx = half * x1
        s = f(mid - dx) + f(mid + dx)
        resk += k1 * s
        resg += g0 * s
        dx = half * x2
        resk += k2 * (f(mid - dx) + f(mid + dx))
        dx = half * x3
        s = f(mid - dx) + f(mid + dx)
        resk += k3 * s
        resg += g1 * s
        dx = half * x4
        resk += k4 * (f(mid - dx) + f(mid + dx))
        dx = half * x5
        s = f(mid - dx) + f(mid + dx)
        resk += k5 * s
        resg += g2 * s
        dx = half * x6
        resk += k6 * (f(mid - dx) + f(mid + dx))
        resk *= half
        resg *= half
        return resk, abs(resk - resg)

    rel, abs_tol = spec.relative_tolerance, spec.absolute_tolerance
    value, err = panel(a, b)
    # "not >" rather than "<=", so a NaN estimate stops here, to be refused,
    # as does an infinite one (inf > inf is False); the one-panel sums are
    # finish()'s, which map -0.0 to 0.0
    if not err > max(rel * abs(value), abs_tol):
        if fault := _non_finite(value, err):
            raise ConvergenceError(
                f"{fault} estimate on [{a}, {b}]", IntegrationResult(value, err, evaluations)
            )
        if isinstance(value, complex):
            value = complex(math.fsum((value.real,)), math.fsum((value.imag,)))
        else:
            value = math.fsum((value,))
        return IntegrationResult(value, math.fsum((err,)), evaluations)
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

    while total_err > max(rel * abs(total), abs_tol):
        if splits >= _MAX_SUBDIVISIONS:
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

    # a NaN total or error ends the loop, since every comparison with it is
    # False, and so does an infinite pair
    if fault := _non_finite(total, total_err):
        raise ConvergenceError(f"{fault} estimate on [{a}, {b}]", finish())
    return finish()


def _non_finite(value: Scalar, err: float) -> str:
    """What is wrong with an estimate or its error: "nan", "infinite" or ""."""
    if err != err or value != value:
        return "nan"
    return "" if math.isfinite(err) and cmath.isfinite(value) else "infinite"


def _inner_spec(spec: IntegrationSpec) -> IntegrationSpec:
    # Inner (azimuthal) integrals run one order tighter than the outer one so
    # their bias stays below the outer error estimate.
    return replace(
        spec,
        relative_tolerance=max(spec.relative_tolerance * 0.1, 1e-15),
        absolute_tolerance=spec.absolute_tolerance * 0.1,
    )


def integrate_sphere(
    f: Callable[[float, float, float], Scalar],
    spec: IntegrationSpec = DEFAULT_SPEC,
) -> IntegrationResult:
    """Integrate f(cos theta, sin theta, phi) sin(theta) dtheta dphi over the
    whole sphere, with phi in [0, 2 pi).

    Internally substitutes u = cos(theta), which absorbs the sin(theta)
    Jacobian and tames integrands oscillating in cos(theta); u takes adaptive
    panels.  Each ring takes its cosine and sine once, from theta = acos(u),
    so the integrand sees the same floats as at ``BlochPoint(theta, phi).coords``.

    Each ring is the periodic trapezoid rule at phi_k = 2 pi k / N, from
    N = 8 and doubled by adding the odd nodes, until two levels agree within
    ``_inner_spec(spec)``.  So the azimuthal integrand must be smooth and
    2 pi-periodic.  The rule is exact for harmonics of degree below 8, so a
    spin-1/2 density, symbol or product (degree <= 2) stops at the first
    comparison, after 16 points.  Its one blind spot is an integrand whose
    only harmonics are multiples of 16: levels 8 and 16 then agree on a
    wrong value.  A ring that has not converged at ``_MAX_RING_POINTS``, or
    whose two levels differ by NaN, raises ConvergenceError, with that ring's
    best estimate, naming u.

    ``evaluations`` counts the ring evaluations of f; the error estimate is
    the outer one plus 2 times the worst ring error.
    """
    inner = _inner_spec(spec)
    rel, abs_tol = inner.relative_tolerance, inner.absolute_tolerance
    ring_evals = 0
    ring_err = 0.0

    def ring(u: float) -> Scalar:
        nonlocal ring_evals, ring_err
        theta = math.acos(min(1.0, max(-1.0, u)))
        ct, st = math.cos(theta), math.sin(theta)
        n = _FIRST_RING_POINTS
        values = [f(ct, st, k * (TWO_PI / n)) for k in range(n)]
        coarse = (TWO_PI / n) * _sum_ordered(values)
        while True:
            n *= 2
            step = TWO_PI / n
            # the doubled grid's new nodes are its odd ones
            values += [f(ct, st, k * step) for k in range(1, n, 2)]
            fine = step * _sum_ordered(values)
            err = abs(fine - coarse)
            if err <= max(rel * abs(fine), abs_tol):
                break
            if err != err:
                raise ConvergenceError(
                    f"azimuthal ring at u = {u!r} gave a nan estimate with {n} points",
                    IntegrationResult(fine, err, n),
                )
            if n >= _MAX_RING_POINTS:
                raise ConvergenceError(
                    f"azimuthal ring at u = {u!r} did not converge with {n} points",
                    IntegrationResult(fine, err, n),
                )
            coarse = fine
        ring_evals += n
        ring_err = max(ring_err, err)
        return fine

    outer = integrate_interval(ring, -1.0, 1.0, spec)
    return IntegrationResult(outer.value, outer.error_estimate + 2.0 * ring_err, ring_evals)


def integrate_plane(
    f: Callable[[complex], Scalar],
    center: complex,
    width: float,
    spec: IntegrationSpec = DEFAULT_SPEC,
) -> IntegrationResult:
    """Integrate f(alpha) d^2alpha over the disk
    |alpha - center| <= RADIAL_CUTOFF_SIGMAS * width.

    The integrand must decay at least Gaussian-fast with scale ``width`` away
    from ``center``.  Radius outside, azimuth inside, both adaptive; the error
    adds the disk's radius times the worst azimuthal error, and the count is
    that of the azimuthal evaluations.
    """
    if not (width > 0.0) or not math.isfinite(width):
        raise ValueError(f"width must be positive and finite, got {width!r}")
    center = complex(center)
    if not cmath.isfinite(center):
        raise ValueError(f"center must be finite, got {center!r}")
    inner = _inner_spec(spec)
    inner_evals = 0
    inner_err = 0.0

    def ring(rho: float) -> Scalar:
        nonlocal inner_evals, inner_err
        res = integrate_interval(
            lambda phi: f(center + rho * complex(math.cos(phi), math.sin(phi))), 0.0, TWO_PI, inner
        )
        inner_evals += res.evaluations
        inner_err = max(inner_err, res.error_estimate)
        return rho * res.value

    hi = RADIAL_CUTOFF_SIGMAS * width
    outer = integrate_interval(ring, 0.0, hi, spec)
    return IntegrationResult(outer.value, outer.error_estimate + hi * inner_err, inner_evals)
