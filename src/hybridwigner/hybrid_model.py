"""Joint dynamics of a spin-1/2 and a classical field mode under dispersive coupling.

The coupling chi * a'a * sigma_z generates a shear flow on the product phase
space sphere x plane: writing the field amplitude as alpha = r exp(-i phi),

    r(t)         = r(0)
    phi(t)       = phi(0) + sqrt(3) chi t cos(theta)      (back-reaction)
    theta(t)     = theta(0)
    phi_atom(t)  = phi_atom(0) + 2 chi r^2 t

and every distribution is transported along it.  Initial field states are
either a sharp amplitude (Dirac delta in r and phi) or an isotropic Gaussian;
delta states are always collapsed analytically, never sampled.

Expectation values use the phase-space symbols of the supported operators
(sigma_z -> sqrt(3) cos(theta), the lowering operator ->
(sqrt(3)/2) sin(theta) exp(-i phi_atom), a -> alpha).  With that table the
moments of the equal superposition come out at exactly half the scale of the
conventional spin coherences (the symbol average of the lowering operator is
(s_x - i s_y)/2 at t = 0); SIGMA_MINUS_SCALE records this constant.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np

from .quadrature import (
    BlochPoint,
    DEFAULT_SPEC,
    RADIAL_CUTOFF_SIGMAS,
    IntegrationSpec,
    integrate_interval,
)
from .su2_wigner import SQRT3, SpinHalfState, spin_wigner
from .cartesian_wigner import MarginalDistribution, PhaseSpaceFunction

__all__ = [
    "SIGMA_MINUS_SCALE",
    "AnalyticPathRequiredError",
    "DeltaAmplitude",
    "GaussianAmplitude",
    "FieldState",
    "HybridState",
    "PhaseDistribution",
    "ObservableSymbol",
    "flow_map",
    "joint_wigner",
    "field_marginal",
    "atom_marginal",
    "phase_distribution_delta",
    "phase_distribution_gaussian",
    "phase_moments",
    "quadrature_distribution",
    "closed_moments",
    "expectation_quadrature",
    "moment_correlation",
    "semiclassical_standard",
    "semiclassical_moments",
    "atomic_pfunction",
]

TWO_PI = 2.0 * math.pi

# Largest phase spread sqrt(3) |chi t| of a Gaussian-field quadrature law: a
# density point brackets one spike per 2 pi wrap, so its cost grows linearly.
MAX_PHASE_SPREAD = 200.0 * math.pi

# Ratio between the phase-space average of the lowering-operator symbol and
# the conventional unit-magnitude coherence of the equal superposition.  It is
# time independent and real; verified as such by the acceptance suite.
SIGMA_MINUS_SCALE = 0.5

# Largest field-azimuth grid of a Gaussian field (the phase law, the field
# marginal and the quadrature route).  The number of points grows like
# r0 / sigma; a narrower field is refused instead of aliased.
MAX_FIELD_AZIMUTH_POINTS = 1 << 20


class AnalyticPathRequiredError(ValueError):
    """Raised when a pointwise density is requested for a delta-amplitude field."""


@dataclass(frozen=True)
class DeltaAmplitude:
    """Field with a perfectly defined amplitude r0 * exp(-i phi0).

    No legitimate quantum state has this distribution, so instances are
    flagged nonquantum from the start.
    """

    r0: float
    phi0: float = 0.0

    def __post_init__(self) -> None:
        if self.r0 < 0.0:
            raise ValueError("r0 must be non-negative")

    @property
    def nonquantum(self) -> bool:
        return True

    @property
    def mean_amplitude(self) -> complex:
        return self.r0 * cmath.exp(-1j * self.phi0)

    @property
    def mean_intensity(self) -> float:
        return self.r0 * self.r0


@dataclass(frozen=True)
class GaussianAmplitude:
    """Isotropic Gaussian field distribution centred at the real amplitude r0.

    sigma = 1 mimics a coherent state; sigma < 1 is narrower than any quantum
    state allows.
    """

    r0: float
    sigma: float

    def __post_init__(self) -> None:
        if self.r0 < 0.0:
            raise ValueError("r0 must be non-negative")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")

    @property
    def nonquantum(self) -> bool:
        return self.sigma < 1.0

    @property
    def mean_amplitude(self) -> complex:
        return complex(self.r0)

    @property
    def mean_intensity(self) -> float:
        # Second moment of the Gaussian: r0^2 plus the width term.
        return self.r0 * self.r0 + 0.5 * self.sigma * self.sigma

    def polar_density(self, r: float, phi: float) -> float:
        """Density at alpha = r exp(-i phi)."""
        s2 = self.sigma * self.sigma
        # (r - r0)^2 + 4 r r0 sin^2(phi/2) equals |alpha - r0|^2 without the
        # cancellation of r^2 + r0^2 - 2 r r0 cos(phi) when sigma << r0
        h = math.sin(0.5 * phi)
        d2 = (r - self.r0) ** 2 + 4.0 * r * self.r0 * h * h
        return (2.0 / (math.pi * s2)) * math.exp(-2.0 * d2 / s2)

    def angular_density(self, psi: float) -> float:
        """Radial integral of r * polar_density(r, psi) over r in [0, inf).

        With c = sqrt(2) r0 / sigma this is the elementary closed form
        exp(-c^2) / (2 pi) + r0 cos(psi) / (sigma sqrt(2 pi))
        * exp(-c^2 sin^2(psi)) * erfc(-c cos(psi)); it integrates to 1 over
        one period of psi.
        """
        c = math.sqrt(2.0) * self.r0 / self.sigma
        cos_psi = math.cos(psi)
        sin_psi = math.sin(psi)
        floor = math.exp(-c * c) / TWO_PI
        ridge = (self.r0 * cos_psi) / (self.sigma * math.sqrt(TWO_PI))
        return floor + ridge * math.exp(-c * c * sin_psi * sin_psi) * math.erfc(-c * cos_psi)

    def radial_bounds(self) -> tuple[float, float]:
        half = RADIAL_CUTOFF_SIGMAS * self.sigma
        return max(0.0, self.r0 - half), self.r0 + half

    def azimuth_points(self, r: float) -> int:
        """Points of a periodic grid that resolves polar_density(r, .) over one
        period; raises ValueError past MAX_FIELD_AZIMUTH_POINTS, or when
        sigma^2 underflows to 0."""
        s2 = self.sigma * self.sigma
        if s2 == 0.0 or (n := _n_phi(4.0 * r * self.r0 / s2)) > MAX_FIELD_AZIMUTH_POINTS:
            raise ValueError(
                f"field too narrow: sigma = {self.sigma!r} at r0 = {self.r0!r}"
                f" needs more than {MAX_FIELD_AZIMUTH_POINTS} azimuth points"
            )
        return n

    @property
    def phase_points(self) -> int:
        """Points of the phase-law grid.  The phase law integrates every circle,
        so it takes the grid of the outermost one of the radial window."""
        return self.azimuth_points(self.radial_bounds()[1])


FieldState = Union[DeltaAmplitude, GaussianAmplitude]


@dataclass(frozen=True)
class HybridState:
    """Product initial state plus coupling chi and elapsed time t."""

    atom: SpinHalfState
    field: FieldState
    chi: float
    t: float

    def __post_init__(self) -> None:
        if self.t < 0.0:
            raise ValueError("t must be non-negative")

    @property
    def kappa(self) -> float:
        """Accumulated field-phase spread sqrt(3) * chi * t."""
        return SQRT3 * self.chi * self.t


@dataclass(frozen=True)
class PhaseDistribution:
    """Density of the field phase.

    Delta-field results live on the unwrapped line with compact support;
    Gaussian-field results are 2pi-periodic.  ``evaluate`` is None at
    chi t = 0 for a delta field, where the phase is still perfectly defined
    (at 0).
    """

    evaluate: Callable[[float], float] | None
    support: tuple[float, float]


def flow_map(
    r: float,
    phi_field: float,
    theta: float,
    phi_atom: float,
    chi: float,
    t: float,
) -> tuple[float, float, float, float]:
    """Advance one phase-space point by time t.

    r and theta are conserved; the field phase shifts by sqrt(3) chi t
    cos(theta) and the atomic azimuth by 2 chi r^2 t.
    """
    if r < 0.0:
        raise ValueError("r must be non-negative")
    return (
        r,
        phi_field + SQRT3 * chi * t * math.cos(theta),
        theta,
        phi_atom + 2.0 * chi * r * r * t,
    )


def _polar_of(alpha: complex) -> tuple[float, float]:
    # alpha = r exp(-i phi): the stored phase is minus the argument.
    alpha = complex(alpha)
    return abs(alpha), -cmath.phase(alpha) if alpha != 0 else 0.0


def joint_wigner(state: HybridState) -> Callable[[BlochPoint, complex], float]:
    """Joint density W_t(Omega, alpha), both arguments pulled back by the flow.

    Only Gaussian fields have a pointwise joint density; delta fields must go
    through the dedicated closed-form operations.
    """
    field = state.field
    if isinstance(field, DeltaAmplitude):
        raise AnalyticPathRequiredError(
            "delta-amplitude fields have no pointwise joint density; "
            "use the closed-form phase/moment operations"
        )
    atom_w = spin_wigner(state.atom)
    chi, t, kappa = state.chi, state.t, state.kappa

    def w(point: BlochPoint, alpha: complex) -> float:
        r, phi_f = _polar_of(alpha)
        shifted = BlochPoint(point.theta, point.phi - 2.0 * chi * r * r * t)
        return atom_w(shifted) * field.polar_density(r, phi_f - kappa * math.cos(point.theta))

    return w


def _spike_segments(
    lo: float, hi: float, centers: list[float], widths: list[float]
) -> list[tuple[float, float]]:
    """Split [lo, hi] so each narrow feature straddles panel boundaries."""
    points = {lo, hi}
    for c, w in zip(centers, widths):
        for p in (c - 8.0 * w, c, c + 8.0 * w):
            if lo < p < hi:
                points.add(p)
    ordered = sorted(points)
    return list(zip(ordered[:-1], ordered[1:]))


def field_marginal(state: HybridState) -> PhaseSpaceFunction:
    """Field distribution after tracing out the atom.

    The atomic azimuth integrates away in closed form (only the
    cos(theta)-weighted part of the spin distribution survives), and the
    polar angle through ``_ramp_series`` of the initial profile on the
    point's circle, sampled on ``field.azimuth_points(r)`` points.
    """
    field = state.field
    if isinstance(field, DeltaAmplitude):
        raise AnalyticPathRequiredError(
            "delta-amplitude fields keep a singular marginal; "
            "use phase_distribution_delta for their phase law"
        )
    sz = state.atom.s[2]
    kappa = state.kappa
    # profile row and ramp weights for each grid size met so far
    grids: dict[int, tuple] = {}

    def w(alpha: complex) -> float:
        r, phi_f = _polar_of(alpha)
        n = field.azimuth_points(r)
        if n not in grids:
            grids[n] = (_field_profile(field, n), _ramp_weights(n, kappa, sz))
        profile, weights = grids[n]
        return _ramp_series(profile(r), *weights)(phi_f)

    return PhaseSpaceFunction(w, decay_scale=field.r0 + field.sigma, decay_center=0j)


def _rotated_atom(atom: SpinHalfState, factor: complex) -> SpinHalfState:
    """Transverse Bloch components multiplied by the (|factor| <= 1) dephasing."""
    sx, sy, sz = atom.s
    trans = complex(sx, sy) * factor.conjugate()
    return SpinHalfState((trans.real, trans.imag, sz))


def atom_marginal(state: HybridState) -> Callable[[BlochPoint], float]:
    """Atomic distribution after tracing out the field.

    The field azimuth integrates away exactly, leaving the transverse Bloch
    components multiplied by the intensity-averaged phase factor; for a delta
    field this is a rigid rotation of the azimuth by 2 chi r0^2 t.
    """
    _, factor, _ = _field_factors(state.field, state.chi, state.t)
    return spin_wigner(_rotated_atom(state.atom, factor))


def phase_distribution_delta(atom: SpinHalfState, chi_t: float) -> PhaseDistribution:
    """Field-phase density for a sharp-amplitude field.

    The support is [-sqrt(3) |chi t|, sqrt(3) |chi t|] and the density is the
    linear ramp (1 + s_z phi / (chi t)) / (2 sqrt(3) |chi t|); it only depends
    on the population imbalance s_z, and chi t < 0 mirrors it in phi.  For
    the ground state it dips negative on the outer part of the support.
    """
    if chi_t == 0.0:
        return PhaseDistribution(None, (0.0, 0.0))
    kappa = SQRT3 * abs(chi_t)
    sz = atom.s[2]
    norm = 1.0 / (2.0 * kappa)

    def density(phi: float) -> float:
        if abs(phi) > kappa:
            return 0.0
        return norm * (1.0 + sz * phi / chi_t)

    return PhaseDistribution(density, (-kappa, kappa))


def phase_moments(
    dist: PhaseDistribution, spec: IntegrationSpec = DEFAULT_SPEC
) -> tuple[float, float]:
    """Mean and variance of a compact-support phase density by quadrature."""
    if dist.evaluate is None:
        return 0.0, 0.0
    lo, hi = dist.support
    mean = integrate_interval(lambda p: p * dist.evaluate(p), lo, hi, spec).value
    second = integrate_interval(lambda p: p * p * dist.evaluate(p), lo, hi, spec).value
    return mean, second - mean * mean


def phase_distribution_gaussian(
    atom: SpinHalfState, field: GaussianAmplitude, chi_t: float
) -> PhaseDistribution:
    """Field-phase density for a Gaussian field, 2pi-periodic in phi.

    The radial coordinate is integrated in closed form
    (``GaussianAmplitude.angular_density``) and the polar angle of the spin
    by ``_ramp_series``, from the closed form sampled once on
    ``field.phase_points`` points; the cost does not depend on chi t.
    chi t < 0 mirrors the density: p(phi; -chi t) = p(-phi; chi t).
    """
    if not isinstance(field, GaussianAmplitude):
        raise AnalyticPathRequiredError("gaussian phase law needs a Gaussian field")
    n = field.phase_points
    samples = [field.angular_density(psi) for psi in (np.arange(n) * (TWO_PI / n)).tolist()]
    density = _ramp_series(np.array(samples), *_ramp_weights(n, SQRT3 * chi_t, atom.s[2]))
    return PhaseDistribution(density, (-math.pi, math.pi))


def quadrature_distribution(
    atom: SpinHalfState,
    field: GaussianAmplitude,
    chi_t: float,
    spec: IntegrationSpec = DEFAULT_SPEC,
) -> MarginalDistribution:
    """Density of the imaginary-part quadrature of the evolved field.

    p(y) = (2 pi sigma^2)^(-1/2) * Integral[du (1 + sqrt(3) s_z u)
           exp(-2 (y + r0 sin(kappa u))^2 / sigma^2)],

    i.e. the x-integral of the evolved field distribution carried out in
    closed form (a rigid rotation keeps the Gaussian isotropic).  chi t < 0
    mirrors the density: p(y; -chi t) = p(-y; chi t).
    """
    if not isinstance(field, GaussianAmplitude):
        raise AnalyticPathRequiredError("quadrature law needs a Gaussian field")
    sz = atom.s[2]
    kappa = SQRT3 * abs(chi_t)
    mirror = -1.0 if chi_t < 0.0 else 1.0
    s2 = field.sigma * field.sigma
    pref = 1.0 / math.sqrt(2.0 * math.pi * s2)
    r0 = field.r0

    def density(y: float) -> float:
        y = mirror * y

        def integrand(u: float) -> float:
            d = y + r0 * math.sin(kappa * u)
            return (1.0 + SQRT3 * sz * u) * math.exp(-2.0 * d * d / s2)

        centers: list[float] = []
        widths: list[float] = []
        if kappa != 0.0 and r0 != 0.0 and abs(y) <= r0:
            base = math.asin(-y / r0)
            for root in (base, math.pi - base):
                n_lo = math.ceil((-kappa - root) / TWO_PI)
                n_hi = math.floor((kappa - root) / TWO_PI)
                for n in range(n_lo, n_hi + 1):
                    u_star = (root + TWO_PI * n) / kappa
                    if -1.0 <= u_star <= 1.0:
                        slope = abs(r0 * kappa * math.cos(kappa * u_star))
                        centers.append(u_star)
                        widths.append(min(0.5, field.sigma / (2.0 * slope + 1e-12)))
        segs = _spike_segments(-1.0, 1.0, centers, widths)
        return pref * math.fsum(integrate_interval(integrand, a, b, spec).value for a, b in segs)

    return MarginalDistribution(density, center=0.0, scale=r0 + field.sigma)


# Sector data of the symbols.  An atomic kind gives (m_atom, polar): its symbol
# is polar(cos theta) exp(-i m_atom phi_atom).  A field kind gives m_field: its
# symbol is r^|m_field| exp(-i m_field phi) at alpha = r exp(-i phi).
_ATOMIC_SECTORS: dict[str, tuple[int, Callable[[float], float]]] = {
    "one": (0, lambda u: 1.0),
    "sz": (0, lambda u: SQRT3 * u),
    "sm": (1, lambda u: 0.5 * SQRT3 * math.sqrt(max(0.0, 1.0 - u * u))),
}
_FIELD_ORDERS = {"one": 0, "a": 1, "adag": -1}


class ObservableSymbol(Enum):
    """Supported operators and their phase-space symbols.

    Each member is a product of an atomic factor and a field factor; the
    symbol of the product is the product of the sector symbols, whose data
    (``m_atom``, ``polar``, ``m_field``) come from the sector tables.
    """

    A = ("one", "a")
    ADAG = ("one", "adag")
    SIGMA_Z = ("sz", "one")
    SIGMA_MINUS = ("sm", "one")
    SIGMA_MINUS_ADAG = ("sm", "adag")
    SIGMA_Z_A = ("sz", "a")

    def __init__(self, atomic_kind: str, field_kind: str):
        self.atomic_kind = atomic_kind
        self.field_kind = field_kind
        self.m_atom, self.polar = _ATOMIC_SECTORS[atomic_kind]
        self.m_field = _FIELD_ORDERS[field_kind]

    def atomic_symbol(self, point: BlochPoint) -> complex:
        return self.polar(math.cos(point.theta)) * cmath.exp(-1j * self.m_atom * point.phi)

    def field_symbol(self, alpha: complex) -> complex:
        r, phi = _polar_of(alpha)
        return r ** abs(self.m_field) * cmath.exp(-1j * self.m_field * phi)

    def symbol(self, point: BlochPoint, alpha: complex) -> complex:
        return self.atomic_symbol(point) * self.field_symbol(alpha)


def _field_factors(
    field: FieldState, chi: float, t: float
) -> tuple[complex, complex, complex]:
    """Closed field-sector integrals: mean amplitude, the intensity-phase
    average F0 = <exp(-2i chi r^2 t)>, and F1 = <conj(alpha) exp(-2i chi r^2 t)>.
    """
    if isinstance(field, DeltaAmplitude):
        f0 = cmath.exp(-2j * chi * field.r0 * field.r0 * t)
        return field.mean_amplitude, f0, field.r0 * cmath.exp(1j * field.phi0) * f0
    denom = 1.0 + 1j * chi * field.sigma * field.sigma * t
    core = cmath.exp(-2j * chi * field.r0 * field.r0 * t / denom)
    return complex(field.r0), core / denom, field.r0 * core / (denom * denom)


def _frozen_field_factors(
    field: FieldState, chi: float, t: float, mean_field: bool
) -> tuple[complex, complex]:
    """(F0, F1) of the frozen-field models: those of ``_field_factors``, or
    with mean_field a rigid rotation at the mean intensity."""
    if mean_field:
        f0 = cmath.exp(-2j * chi * field.mean_intensity * t)
        return f0, field.mean_amplitude.conjugate() * f0
    _, f0, f1 = _field_factors(field, chi, t)
    return f0, f1


def _bessel_series(n: int, x: np.ndarray) -> np.ndarray:
    """Taylor series of j_n at 0 <= x <= n:
    x^n / (2n+1)!! * sum_k (-x^2/2)^k / (k! (2n+3)(2n+5)...(2n+2k+1)).

    For n <= 2 each term is the last times -x^2 / (2k(2n+2k+1)), at most
    2/7 in size, so 13 terms leave a tail below 1e-19 relative and the sum
    does not cancel.
    """
    half_x2 = 0.5 * x * x
    total = np.ones_like(x)
    for k in range(13, 0, -1):
        total = 1.0 - half_x2 * total / (k * (2 * n + 2 * k + 1))
    return x**n / math.prod(range(1, 2 * n + 2, 2)) * total


def _spherical_bessel(orders: int, x: Sequence[float]) -> np.ndarray:
    """Rows j_0 ... j_{orders-1} at each signed x; j_n has the parity of n,
    so odd rows take the sign of x.

    Above |x| = n, j_n is sin x / x followed by the upward recurrence, in the
    operation order of scipy's spherical_jn; at and below it, where those
    forms cancel, it is ``_bessel_series``.  Each branch sees only its own
    points, so neither divides by a tiny x.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    # below the normal range j0, j1, j2 round to 1, 0, 0
    ax[ax < sys.float_info.min] = 0.0
    bessel = np.full((orders, ax.size), np.nan)
    bessel[:, np.isinf(ax)] = 0.0  # the limit at inf
    for n in range(orders):
        near = ax <= n
        bessel[n, near] = _bessel_series(n, ax[near])
    far = np.flatnonzero((ax > 0.0) & np.isfinite(ax))
    xs = ax[far]
    lower, row = None, np.sin(xs) / xs
    for n in range(orders):
        if n:
            keep = xs > n
            far, xs, row = far[keep], xs[keep], row[keep]
            if n == 1:
                lower, row = row, (row - np.cos(xs)) / xs
            else:
                lower, row = row, (2 * n - 1) * row / xs - lower[keep]
        bessel[n, far] = row
    bessel[1::2] = np.where(x < 0.0, -bessel[1::2], bessel[1::2])
    return bessel


def _ramp_weights(n: int, kappa: float, sz: float) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of w_m = j0(m kappa) - i sqrt(3) s_z j1(m kappa),
    m = 0 ... n/2: the average of exp(-i m kappa u) over the ramp weight
    (1 + sqrt(3) s_z u) / 2 of u = cos(theta) in [-1, 1]."""
    # m kappa past the float range is inf, where j0 and j1 take the limit 0
    with np.errstate(over="ignore"):
        phases = np.arange(n // 2 + 1) * kappa
    j0, j1 = _spherical_bessel(2, phases)
    return j0, -SQRT3 * sz * j1


def _ramp_series(samples: np.ndarray, w_re: np.ndarray, w_im: np.ndarray) -> Callable[[float], float]:
    """phi -> Integral[du (1 + sqrt(3) s_z u) / 2 * g(phi - kappa u), u = -1..1]
    for an even 2pi-periodic g sampled on n points 2 pi k / n, with
    ``(w_re, w_im) = _ramp_weights(n, kappa, s_z)``.

    Its m-th Fourier mode is b_m = g_m w_m (g_m is real since g is even),
    summed as two 1-D dot products in a fixed order.
    """
    g = np.fft.rfft(samples).real / len(samples)
    b0, b_re, b_im = float(g[0] * w_re[0]), g[1:] * w_re[1:], g[1:] * w_im[1:]
    m = np.arange(1, len(g))

    def value(phi: float) -> float:
        mphi = m * phi
        return b0 + 2.0 * float(np.dot(b_re, np.cos(mphi)) - np.dot(b_im, np.sin(mphi)))

    return value


def closed_moments(
    atom: SpinHalfState, field: FieldState, chi: float, times: Sequence[float]
) -> list[dict[ObservableSymbol, complex]]:
    """Closed-form averages of every ObservableSymbol at each of ``times``.

    The cos(theta) average of the field-phase shift reduces to the spherical
    Bessel functions j0, j1, j2 of kappa = sqrt(3) chi t; they are evaluated
    for the whole time grid in one call.  The field sector enters through
    ``_field_factors``.
    """
    if any(t < 0.0 for t in times):
        raise ValueError("t must be non-negative")
    kappas = [SQRT3 * chi * t for t in times]
    bessel = _spherical_bessel(3, kappas)
    sx, sy, sz = atom.s
    coherence = 0.5 * complex(sx, -sy)
    moments = []
    for t, (j0, j1, j2) in zip(times, bessel.T.tolist()):
        mean_alpha, f0, f1 = _field_factors(field, chi, t)
        moments.append(
            {
                ObservableSymbol.A: mean_alpha * (j0 - 1j * SQRT3 * sz * j1),
                ObservableSymbol.ADAG: mean_alpha.conjugate() * (j0 + 1j * SQRT3 * sz * j1),
                ObservableSymbol.SIGMA_Z: complex(sz),
                ObservableSymbol.SIGMA_MINUS: coherence * f0,
                ObservableSymbol.SIGMA_MINUS_ADAG: coherence * (j0 + j2) * f1,
                ObservableSymbol.SIGMA_Z_A: mean_alpha * (-1j * SQRT3 * j1 + sz * (j0 - 2.0 * j2)),
            }
        )
    return moments


def _n_phi(x_max: float) -> int:
    # Periodic trapezoid resolution for exp(x cos(phi))-type profiles; the
    # Fourier tail of exp(x cos phi) dies once the harmonic index passes ~x.
    for n, bound in ((64, 20.0), (128, 80.0), (256, 320.0), (512, 1300.0), (1024, 5200.0)):
        if x_max <= bound:
            return n
    # the profile's width falls like 1/sqrt(x): double n for every 4x in x,
    # stopping at the first n past the cap
    n, bound = 2048, 4.0 * 5200.0
    while x_max > bound and n <= MAX_FIELD_AZIMUTH_POINTS:
        n, bound = 2 * n, 4.0 * bound
    return n


def _atom_azimuthal(s: tuple[float, float, float], m: int) -> Callable[[float], complex]:
    """32-point trapezoid of W_atom(theta(u), phi) exp(-i m phi) over one
    period, as a function of u = cos(theta).

    W_atom is linear in (1, cos phi, sin phi), so the trapezoid is formed from
    the three grid sums of exp(-i m phi) against them, taken once.
    """
    sx, sy, sz = s
    n = 32
    grid = np.arange(n) * (TWO_PI / n)
    phase = np.exp(-1j * m * grid)
    weight = (TWO_PI / n) / (4.0 * math.pi)
    s0 = complex(phase.sum()) * weight
    s_cos = complex((np.cos(grid) * phase).sum())
    s_sin = complex((np.sin(grid) * phase).sum())
    sxy = SQRT3 * (sx * s_cos + sy * s_sin) * weight

    def row(u: float) -> complex:
        st = math.sqrt(max(0.0, 1.0 - u * u))
        return (1.0 + SQRT3 * sz * u) * s0 + st * sxy

    return row


def _field_profile(field: GaussianAmplitude, n: int) -> Callable[[float], np.ndarray]:
    """r -> polar_density(r, psi_k) on the n points psi_k = 2 pi k / n."""
    s2 = field.sigma * field.sigma
    half_sin2 = np.sin(0.5 * (np.arange(n) * (TWO_PI / n))) ** 2

    def row(r: float) -> np.ndarray:
        # same squared distance as GaussianAmplitude.polar_density
        return (2.0 / (math.pi * s2)) * np.exp(
            -2.0 * ((r - field.r0) ** 2 + 4.0 * r * field.r0 * half_sin2) / s2
        )

    return row


def _field_azimuthal_table(field: GaussianAmplitude, m: int, n: int):
    profile = _field_profile(field, n)
    phase = np.exp(-1j * m * (np.arange(n) * (TWO_PI / n)))

    def row(r: float) -> complex:
        return complex((profile(r) * phase).sum() * (TWO_PI / n))

    return row


def expectation_quadrature(
    state: HybridState, obs: ObservableSymbol, spec: IntegrationSpec = DEFAULT_SPEC
) -> complex:
    """Direct quadrature of the symbol against the transported joint density:
    the independent cross-check of ``closed_moments`` at the state's time.

    Azimuthal integrals are fixed-order periodic trapezoids (spectrally exact
    for these profiles); the remaining coordinates use adaptive panels.  The
    radial integral of a Gaussian field does not depend on the polar angle,
    so it is done once and multiplies the polar integrand.
    """
    s = state.atom.s
    chi, t, kappa = state.chi, state.t, state.kappa
    m_a, m_f, g_theta = obs.m_atom, obs.m_field, obs.polar
    atom_row = _atom_azimuthal(s, m_a)

    field = state.field
    if isinstance(field, DeltaAmplitude):
        h = field.r0 if m_f != 0 else 1.0
        const = h * cmath.exp(-1j * m_f * field.phi0) * cmath.exp(
            -2j * m_a * chi * field.r0 * field.r0 * t
        )

        def f(u: float) -> complex:
            return atom_row(u) * g_theta(u) * cmath.exp(-1j * m_f * kappa * u)

        return const * integrate_interval(f, -1.0, 1.0, spec).value

    r_lo, r_hi = field.radial_bounds()
    field_row = _field_azimuthal_table(field, m_f, field.azimuth_points(r_hi))

    def radial(r: float) -> complex:
        h = r if m_f != 0 else 1.0
        return r * h * field_row(r) * cmath.exp(-2j * m_a * chi * r * r * t)

    inner = integrate_interval(radial, r_lo, r_hi, spec).value

    def outer(u: float) -> complex:
        return atom_row(u) * g_theta(u) * cmath.exp(-1j * m_f * kappa * u) * inner

    return integrate_interval(outer, -1.0, 1.0, spec).value


def _product_symbol(A: ObservableSymbol, B: ObservableSymbol) -> ObservableSymbol:
    """The member whose sector kinds are A's atomic and B's field kind (no
    member is the identity, so a factor's other kind is never "one")."""
    if A.field_kind != "one":
        raise ValueError("first factor must be a purely atomic observable")
    if B.atomic_kind != "one":
        raise ValueError("second factor must be a purely field observable")
    try:
        return ObservableSymbol((A.atomic_kind, B.field_kind))
    except ValueError:
        raise ValueError(f"no product symbol for ({A.name}, {B.name})") from None


def moment_correlation(
    moments: dict[ObservableSymbol, complex], A: ObservableSymbol, B: ObservableSymbol
) -> complex:
    """Cross-sector correlation <AB> - <A><B> from one table of moments.

    A must act on the atom and B on the field; same-sector products would
    need operator-ordering rules that are out of scope here.
    """
    return moments[_product_symbol(A, B)] - moments[A] * moments[B]


def semiclassical_standard(
    atom: SpinHalfState,
    field: FieldState,
    chi: float,
    t: float,
    mean_field: bool = False,
) -> Callable[[BlochPoint], float]:
    """Atomic distribution when the field is frozen (no back-reaction).

    mean_field=False averages the atomic azimuth shift over the full field
    intensity distribution; mean_field=True replaces it by a rigid rotation
    at the mean intensity.
    """
    factor, _ = _frozen_field_factors(field, chi, t, mean_field)
    return spin_wigner(_rotated_atom(atom, factor))


def semiclassical_moments(
    atom: SpinHalfState,
    field: FieldState,
    chi: float,
    times: Sequence[float],
    mean_field: bool = False,
) -> list[dict[ObservableSymbol, complex]]:
    """Moments of the back-reaction-free comparison models at each of ``times``.

    The field keeps its initial distribution, so field symbols average to
    their initial values; atomic coherences still dephase through the field's
    intensity spread (or rotate rigidly in the mean-field variant).
    """
    sx, sy, sz = atom.s
    coherence = 0.5 * complex(sx, -sy)
    mean_alpha = field.mean_amplitude
    return [
        {
            ObservableSymbol.A: mean_alpha,
            ObservableSymbol.ADAG: mean_alpha.conjugate(),
            ObservableSymbol.SIGMA_Z: complex(sz),
            ObservableSymbol.SIGMA_MINUS: coherence * f0,
            ObservableSymbol.SIGMA_MINUS_ADAG: coherence * f1,
            ObservableSymbol.SIGMA_Z_A: complex(sz) * mean_alpha,
        }
        for f0, f1 in (_frozen_field_factors(field, chi, t, mean_field) for t in times)
    ]


def atomic_pfunction(atom: SpinHalfState, chi_t: float) -> PhaseDistribution:
    """Weight P(delta) of the field's expansion over rotated sharp amplitudes.

    Identical to the sharp-field phase law with the rotation angle delta in
    place of the phase: the azimuth-integrated atomic distribution, pushed
    through delta = sqrt(3) chi t cos(theta).
    """
    return phase_distribution_delta(atom, chi_t)
