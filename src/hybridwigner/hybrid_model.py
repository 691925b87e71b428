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

The Gaussian-field phase and quadrature laws are ramp Fourier series of the
initial profile on the field-azimuth grid of n = ``field.phase_points``
points, and cost O(n) per time: the phase law on its periodic grid folds its
harmonics into one inverse FFT per time (``phase_densities_gaussian``), and a
quadrature row is one reduction against a kernel taken once per time
(``quadrature_distribution``).  Every such sum is ``np.add.reduce`` of a
product, whose order does not depend on the CPU, never a BLAS call, whose
order does.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

from .quadrature import (
    DEFAULT_SPEC,
    RADIAL_CUTOFF_SIGMAS,
    ConvergenceError,
    IntegrationSpec,
    _integrate_rows,
    integrate_interval,
)
from .su2_wigner import SQRT3, SphereDensity, SpinHalfState, spin_wigner
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
    "phase_densities_gaussian",
    "phase_moments",
    "quadrature_distribution",
    "closed_moments",
    "expectation_quadrature",
    "moment_correlation",
    "semiclassical_moments",
]

TWO_PI = 2.0 * math.pi

# Largest phase spread sqrt(3) |chi t| of a Gaussian-field quadrature law: a
# tail point |y| > r0 integrates one bump per 2 pi wrap, so its cost grows linearly.
MAX_PHASE_SPREAD = 200.0 * math.pi

# Ratio between the phase-space average of the lowering-operator symbol and
# the conventional unit-magnitude coherence of the equal superposition.  It is
# time independent and real: acceptance criterion 4 measures it, and the test
# suite holds that reading to this value.
SIGMA_MINUS_SCALE = 0.5

# Largest field-azimuth grid of a Gaussian field (the phase law, the field
# marginal, the quadrature law and the quadrature route).  The number of
# points grows like r0 / sigma; a narrower field is refused instead of aliased.
MAX_FIELD_AZIMUTH_POINTS = 1 << 20

# Harmonics of the Gaussian phase law's series held in one block of its time
# grid: the times of a block share one _spherical_bessel call, and the block
# bounds the (times x n/2) weight table.  At fig3's 256 harmonics a block takes
# 64 times, and its working set stays near a megabyte whatever the number of times.
_BLOCK_HARMONICS = 2**14


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
        # NaN compares False, so each bound is written as not (x >= bound)
        if not (self.r0 >= 0.0) or not math.isfinite(self.r0):
            raise ValueError("r0 must be non-negative and finite")
        if not math.isfinite(self.phi0):
            raise ValueError("phi0 must be finite")

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
        if not (self.r0 >= 0.0) or not math.isfinite(self.r0):
            raise ValueError("r0 must be non-negative and finite")
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ValueError("sigma must be positive and finite")

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
        if not math.isfinite(self.chi):
            raise ValueError("chi must be finite")
        if not (self.t >= 0.0) or not math.isfinite(self.t):
            raise ValueError("t must be non-negative and finite")

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
    if not (r >= 0.0) or not math.isfinite(r):
        raise ValueError(f"r must be non-negative and finite, got {r!r}")
    named = (("phi_field", phi_field), ("theta", theta), ("phi_atom", phi_atom), ("chi", chi), ("t", t))
    for name, x in named:
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x!r}")
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


def joint_wigner(state: HybridState) -> Callable[[complex], SphereDensity]:
    """Joint density W_t(Omega, alpha), both points pulled back by the flow,
    taken slice first: ``joint_wigner(state)(alpha)`` is the sphere density
    of (cos theta, sin theta, phi) at field point alpha, which takes alpha's
    polar form and the azimuth shift 2 chi r^2 t once per slice.

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

    def at(alpha: complex) -> SphereDensity:
        r, phi_f = _polar_of(alpha)
        shift = 2.0 * chi * r * r * t

        def w(ct: float, st: float, phi: float) -> float:
            return atom_w(ct, st, (phi - shift) % TWO_PI) * field.polar_density(r, phi_f - kappa * ct)

        return w

    return at


def field_marginal(state: HybridState) -> PhaseSpaceFunction:
    """Field distribution after tracing out the atom.

    The atomic azimuth integrates away in closed form (only the
    cos(theta)-weighted part of the spin distribution survives), and the
    polar angle through the ramp series (``_series_value``) of the initial
    profile on the point's circle, sampled on ``field.azimuth_points(r)``
    points.
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
            w_re, w_im = _ramp_weights(n, (kappa,), sz)
            grids[n] = (_field_profile(field, n), w_re[0], w_im[0])
        profile, w_re, w_im = grids[n]
        return _series_value(_cosine_modes(profile(r)), w_re, w_im, phi_f)

    return PhaseSpaceFunction(w, decay_scale=field.r0 + field.sigma, decay_center=0j)


def atom_marginal(state: HybridState) -> SphereDensity:
    """Atomic distribution after tracing out the field.

    The flow conserves the field intensity r^2 and shifts the atomic azimuth
    by 2 chi r^2 t, which depends on r^2 alone; back-reaction moves only the
    field phase, which the trace integrates away.  So the atom sees each
    intensity as a frozen field (no back-reaction) would, and its marginal is
    the frozen-field model: the transverse Bloch components are multiplied by
    the intensity average of exp(2i chi r^2 t), the conjugate of F0 of
    ``_field_factors``.  For a delta field this is a rigid rotation of the
    azimuth by 2 chi r0^2 t.
    """
    _, f0, _ = _field_factors(state.field, state.chi, state.t)
    sx, sy, sz = state.atom.s
    transverse = complex(sx, sy) * f0.conjugate()
    return spin_wigner(SpinHalfState((transverse.real, transverse.imag, sz)))


def phase_distribution_delta(atom: SpinHalfState, chi_t: float) -> PhaseDistribution:
    """Field-phase density for a sharp-amplitude field.

    The support is [-sqrt(3) |chi t|, sqrt(3) |chi t|] and the density is the
    linear ramp (1 + s_z phi / (chi t)) / (2 sqrt(3) |chi t|); it only depends
    on the population imbalance s_z, and chi t < 0 mirrors it in phi.  For
    the ground state it dips negative on the outer part of the support.
    """
    if not math.isfinite(chi_t):
        raise ValueError(f"chi_t must be finite, got {chi_t!r}")
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


def phase_moments(dist: PhaseDistribution) -> tuple[float, float]:
    """Mean and variance of a compact-support phase density by quadrature."""
    if dist.evaluate is None:
        return 0.0, 0.0
    lo, hi = dist.support
    mean = integrate_interval(lambda p: p * dist.evaluate(p), lo, hi).value
    second = integrate_interval(lambda p: p * p * dist.evaluate(p), lo, hi).value
    return mean, second - mean * mean


def phase_densities_gaussian(
    atom: SpinHalfState, field: GaussianAmplitude, chi_ts: Sequence[float], points: int
) -> list[list[float]]:
    """Field-phase density of a Gaussian field, 2pi-periodic in phi, for
    every chi t of ``chi_ts`` (one list each) on the ``points`` equispaced
    phi_k = -pi + 2 pi k / (points - 1), k = 0 ... points - 1; the value at
    phi = pi is a copy of the one at -pi.  chi t < 0 mirrors the density:
    p(phi; -chi t) = p(-phi; chi t).

    The radial coordinate is integrated in closed form
    (``GaussianAmplitude.angular_density``) and the polar angle of the spin
    by the ramp series of that profile, sampled on ``field.phase_points``
    points, so the cost does not depend on chi t.  The profile's modes are
    taken once for all the times and the ramp weights once per block of
    ``_BLOCK_HARMONICS`` harmonics.  On this grid
    exp(i m phi_k) = (-1)^m exp(2 pi i m k / (points - 1)) depends on m only
    modulo points - 1, so each time folds its n/2 harmonics into points - 1
    bins and sums them by one inverse FFT (``_folded_values``): O(n) per
    time, with the phases exact.
    """
    if isinstance(points, bool) or not isinstance(points, int):
        raise ValueError(f"points must be an int, got {type(points).__name__}")
    if points < 2:
        raise ValueError(f"points must be at least 2, got {points}")
    if not all(map(math.isfinite, chi_ts)):
        raise ValueError("chi_ts must be finite")
    g = _phase_law_modes(field)
    n = field.phase_points
    kappas = [SQRT3 * chi_t for chi_t in chi_ts]
    step = max(1, _BLOCK_HARMONICS // (n // 2))
    values = []
    for start in range(0, len(kappas), step):
        w_re, w_im = _ramp_weights(n, kappas[start : start + step], atom.s[2])
        values += [row + row[:1] for row in _folded_values(g, w_re, w_im, points - 1).tolist()]
    return values


def _phase_law_modes(field: GaussianAmplitude) -> np.ndarray:
    """Cosine modes g_m, m = 0 ... n/2, of the Gaussian phase law's profile
    ``field.angular_density`` on its n = ``field.phase_points`` points."""
    if not isinstance(field, GaussianAmplitude):
        raise AnalyticPathRequiredError("gaussian phase law needs a Gaussian field")
    import numpy as np

    n = field.phase_points
    samples = [field.angular_density(psi) for psi in (np.arange(n) * (TWO_PI / n)).tolist()]
    return _cosine_modes(np.array(samples))


def _folded_values(g: np.ndarray, w_re: np.ndarray, w_im: np.ndarray, period: int) -> np.ndarray:
    """b0 + 2 Re sum_m b_m exp(i m phi_k), b_m = g_m w_m, m = 1 ... n/2, for each
    row of the weights at the ``period`` points phi_k = -pi + 2 pi k / period.

    exp(i m phi_k) = (-1)^m exp(2 pi i m k / period), so the signed b_m fold
    into ``period`` bins by m mod period, and one unscaled inverse FFT of
    length ``period`` per row sums the bins at every phi_k.
    """
    import numpy as np

    rows, half = w_re.shape[0], len(g) - 1
    signed = g.copy()
    signed[1::2] *= -1.0
    folded = np.zeros((rows, -(-(half + 1) // period) * period), dtype=complex)
    folded.real[:, 1 : half + 1] = signed[1:] * w_re[:, 1:]
    folded.imag[:, 1 : half + 1] = signed[1:] * w_im[:, 1:]
    sums = np.fft.ifft(folded.reshape(rows, -1, period).sum(axis=1), axis=1, norm="forward")
    return g[0] * w_re[:, :1] + 2.0 * sums.real


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

    For |y| <= r0 the u-integral is the ramp series at psi = pi / 2 (since
    cos(kappa u - pi / 2) = sin(kappa u)) of h_y(psi) = exp(-2 (y + r0 cos psi)^2
    / sigma^2) on ``field.phase_points`` points; for |y| > r0 it is one
    adaptive integral over u in [-1, 1].  The series sum_m g_m c_m, with g_m
    the cosine modes of h_y and c_m = (2 - [m = 0]) Re(w_m i^m), is
    sum_k h_y(psi_k) K_k: the kernel K is one inverse real FFT of c per call,
    and each row is n exponentials and one ``np.add.reduce`` of their
    products with K.

    This pointwise law serves criterion 3 and the API.  A quad-dist table
    takes the same bits from ``_quadrature_table``, which integrates the tail
    rows of many times in one lockstep run.
    """
    if not isinstance(field, GaussianAmplitude):
        raise AnalyticPathRequiredError("quadrature law needs a Gaussian field")
    if not math.isfinite(chi_t):
        raise ValueError(f"chi_t must be finite, got {chi_t!r}")
    import numpy as np

    mirror, kappa, c, s2, pref = _quadrature_terms(atom, field, chi_t)
    r0 = field.r0
    n = field.phase_points
    r0_cos = r0 * np.cos(np.arange(n) * (TWO_PI / n))
    w_re, w_im = _ramp_weights(n, (kappa,), atom.s[2])
    kernel = _quadrature_kernel(w_re[0], w_im[0])
    # bound once: the integrand runs thousands of times per tail row
    sin, exp = math.sin, math.exp

    def density(y: float) -> float:
        y = mirror * y
        if abs(y) <= r0:
            d = y + r0_cos
            return 2.0 * pref * float(np.add.reduce(np.exp(-2.0 * d * d / s2) * kernel))

        def integrand(u: float) -> float:
            d = y + r0 * sin(kappa * u)
            return (1.0 + c * u) * exp(-2.0 * d * d / s2)

        # fsum maps a -0.0 integral to 0.0, the bits the recorded tail references hold
        return pref * math.fsum([integrate_interval(integrand, -1.0, 1.0, spec).value])

    return MarginalDistribution(density, center=0.0, scale=r0 + field.sigma)


def _quadrature_terms(atom: SpinHalfState, field: GaussianAmplitude, chi_t: float) -> tuple:
    """(mirror, kappa, c, s2, pref) of the quadrature law at chi t: p(y) =
    pref Integral[du (1 + c u) exp(-2 (mirror y + r0 sin(kappa u))^2 / s2)]."""
    s2 = field.sigma * field.sigma
    mirror = -1.0 if chi_t < 0.0 else 1.0
    return mirror, SQRT3 * abs(chi_t), SQRT3 * atom.s[2], s2, 1.0 / math.sqrt(2.0 * math.pi * s2)


def _quadrature_table(
    atom: SpinHalfState,
    field: GaussianAmplitude,
    chi: float,
    times: Sequence[float],
    ys: Sequence[float],
    spec: IntegrationSpec = DEFAULT_SPEC,
) -> list[list[float]]:
    """``quadrature_distribution(atom, field, chi * t, spec).evaluate(y)`` for
    every t of ``times`` (one list each) and y of ``ys``, bit for bit.

    Rows with |y| <= r0 are that law's own.  The tail rows of whole times, at
    most ``_BLOCK_HARMONICS // 60`` at once and one time at least, are one
    lockstep ``_integrate_rows`` run: its integrand takes ``math.exp`` per
    node, since numpy's exp can round otherwise.  Each row keeps a heap of
    Python tuples, so twice the rows held about 0.7 MB more for no speed.  A
    ConvergenceError names the t and y of the first failing row.
    """
    import numpy as np

    r0 = field.r0
    tail = [j for j, y in enumerate(ys) if abs(y) > r0]
    table = []
    for t in times:
        p = quadrature_distribution(atom, field, chi * t, spec).evaluate
        table.append(iter([p(y) for y in ys if abs(y) <= r0]))
    terms = [_quadrature_terms(atom, field, chi * t) for t in times]

    def integrand(u, rows):
        d = y_of[rows, None] + r0 * np.sin(kappa_of[rows, None] * u)
        arg = -2.0 * d * d / s2
        return (1.0 + c * u) * np.fromiter(map(math.exp, arg.ravel().tolist()), float, arg.size).reshape(arg.shape)

    group = max(1, _BLOCK_HARMONICS // 60 // max(1, len(tail)))
    tails = []
    for start in range(0, len(times) if tail else 0, group):
        stop = min(start + group, len(times))
        c, s2, pref = terms[start][2:]  # the same at every time
        y_of = np.array([terms[i][0] * ys[j] for i in range(start, stop) for j in tail])
        kappa_of = np.repeat([terms[i][1] for i in range(start, stop)], len(tail))
        try:
            tails += [pref * math.fsum([res.value]) for res in _integrate_rows(integrand, len(y_of), -1.0, 1.0, spec)]
        except ConvergenceError as exc:
            i, j = divmod(exc.row, len(tail))
            raise ConvergenceError(f"t = {times[start + i]!r}, y = {ys[tail[j]]!r}: {exc}", exc.best) from exc
    tails = iter(tails)
    return [[next(tails) if abs(y) > r0 else next(row) for y in ys] for row in table]


def _quadrature_kernel(w_re: np.ndarray, w_im: np.ndarray) -> np.ndarray:
    """K_k = (1/n) sum_m c_m cos(2 pi m k / n), k = 0 ... n - 1, for the ramp
    weights w_m = w_re[m] + i w_im[m], m = 0 ... n/2, of one time.

    c_0 = w_re[0] and c_m = 2 Re(w_m i^m), the series coefficients at
    psi = pi / 2, with i^m taken exactly.  A cosine mode g_m of samples h_k is
    (1/n) sum_k h_k cos(2 pi m k / n), so sum_m g_m c_m = sum_k h_k K_k.
    irfft doubles every bin but 0 and n/2, so those two take c_m and the
    rest c_m / 2.
    """
    import numpy as np

    half = np.empty_like(w_re)
    half[0::4], half[1::4] = w_re[0::4], -w_im[1::4]
    half[2::4], half[3::4] = -w_re[2::4], w_im[3::4]
    half[-1] *= 2.0
    return np.fft.irfft(half, 2 * (len(w_re) - 1))


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

    # members are singletons, so identity hashing keys the moment tables in C
    __hash__ = object.__hash__

    def __init__(self, atomic_kind: str, field_kind: str):
        self.atomic_kind = atomic_kind
        self.field_kind = field_kind
        self.m_atom, self.polar = _ATOMIC_SECTORS[atomic_kind]
        self.m_field = _FIELD_ORDERS[field_kind]

    def atomic_symbol(self, ct: float, st: float, phi: float) -> complex:
        return self.polar(ct) * cmath.exp(-1j * self.m_atom * phi)

    def field_symbol(self, alpha: complex) -> complex:
        r, phi = _polar_of(alpha)
        return r ** abs(self.m_field) * cmath.exp(-1j * self.m_field * phi)

    def symbol(self, ct: float, st: float, phi: float, alpha: complex) -> complex:
        return self.atomic_symbol(ct, st, phi) * self.field_symbol(alpha)


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


def _bessel_series(n: int, x: float | np.ndarray) -> float | np.ndarray:
    """Taylor series of j_n at 0 <= x <= n:
    x^n / (2n+1)!! * sum_k (-x^2/2)^k / (k! (2n+3)(2n+5)...(2n+2k+1)).

    For n <= 2 each term is the last times -x^2 / (2k(2n+2k+1)), at most
    2/7 in size, so 13 terms leave a tail below 1e-19 relative and the sum
    does not cancel.  x is a float or an array, with the same bits per point:
    x^n is a product, as numpy squares an array (libm's pow rounds otherwise).
    """
    half_x2 = 0.5 * x * x
    total = power = 1.0
    for k in range(13, 0, -1):
        total = 1.0 - half_x2 * total / (k * (2 * n + 2 * k + 1))
    for _ in range(n):
        power = power * x
    return power / math.prod(range(1, 2 * n + 2, 2)) * total


def _spherical_bessel(orders: int, x: Sequence[float]) -> np.ndarray:
    """Rows j_0 ... j_{orders-1} at each signed x; j_n has the parity of n,
    so odd rows take the sign of x.

    Above |x| = n, j_n is sin x / x followed by the upward recurrence, in the
    operation order of scipy's spherical_jn; at and below it, where those
    forms cancel, it is ``_bessel_series``.  Each branch sees only its own
    points, so neither divides by a tiny x.
    """
    import numpy as np

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


def _bessel_012(x: float) -> tuple[float, float, float]:
    """j0, j1, j2 at one signed x, without numpy: the bits of column x of
    ``_spherical_bessel(3, ...)``, from its branches in its operation order."""
    ax = abs(x)
    if math.isinf(ax):
        j = [0.0, 0.0, 0.0]
    else:
        if ax < sys.float_info.min:
            ax = 0.0
        # the recurrence for the orders below ax, the series for the rest
        j = []
        if ax > 0.0:
            j.append(math.sin(ax) / ax)
        if ax > 1.0:
            j.append((j[0] - math.cos(ax)) / ax)
        if ax > 2.0:
            j.append(3 * j[1] / ax - j[0])
        j += [_bessel_series(n, ax) for n in range(len(j), 3)]
    if x < 0.0:
        j[1] = -j[1]
    return j[0], j[1], j[2]


def _ramp_weights(n: int, kappas: Sequence[float], sz: float) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of w_m = j0(m kappa) - i sqrt(3) s_z j1(m kappa),
    m = 0 ... n/2, one row per kappa, from one ``_spherical_bessel`` call:
    the average of exp(-i m kappa u) over the ramp weight
    (1 + sqrt(3) s_z u) / 2 of u = cos(theta) in [-1, 1]."""
    import numpy as np

    # m kappa past the float range is inf, where j0 and j1 take the limit 0
    with np.errstate(over="ignore"):
        phases = np.multiply.outer(kappas, np.arange(n // 2 + 1))
    j0, j1 = _spherical_bessel(2, phases.ravel()).reshape(2, *phases.shape)
    return j0, -SQRT3 * sz * j1


def _cosine_modes(samples: np.ndarray) -> np.ndarray:
    """Modes g_m, m = 0 ... n/2, of an even 2pi-periodic g sampled on the n
    points 2 pi k / n (real, since g is even)."""
    import numpy as np

    return np.fft.rfft(samples).real / len(samples)


def _series_value(g: np.ndarray, w_re: np.ndarray, w_im: np.ndarray, phi: float) -> float:
    """Value at phi of the ramp series of an even profile,
    phi -> Integral[du (1 + sqrt(3) s_z u) / 2 * g(phi - kappa u), u = -1..1],
    from the profile's modes ``g = _cosine_modes(...)`` and one row
    (w_re, w_im) of ``_ramp_weights(n, kappas, s_z)``.

    Its m-th mode is b_m = g_m w_m, and the value is
    b0 + 2 sum_m (Re b_m cos(m phi) - Im b_m sin(m phi)), m = 1 ... n/2: two
    ``np.add.reduce`` sums of products, in a fixed order on every CPU.
    """
    import numpy as np

    b_re, b_im = g[1:] * w_re[1:], g[1:] * w_im[1:]
    mphi = np.arange(1, len(g)) * phi
    return float(g[0] * w_re[0]) + 2.0 * float(
        np.add.reduce(b_re * np.cos(mphi)) - np.add.reduce(b_im * np.sin(mphi))
    )


def closed_moments(
    atom: SpinHalfState, field: FieldState, chi: float, times: Sequence[float]
) -> list[dict[ObservableSymbol, complex]]:
    """Closed-form averages of every ObservableSymbol at each of ``times``.

    The cos(theta) average of the field-phase shift reduces to the spherical
    Bessel functions j0, j1, j2 of kappa = sqrt(3) chi t, taken per time by
    ``_bessel_012``, so no numpy is loaded.  The field sector enters through
    ``_field_factors``.
    """
    if not math.isfinite(chi):
        raise ValueError(f"chi must be finite, got {chi!r}")
    if not all(0.0 <= t < math.inf for t in times):
        raise ValueError("times must be finite and non-negative")
    sx, sy, sz = atom.s
    coherence = 0.5 * complex(sx, -sy)
    moments = []
    for t in times:
        j0, j1, j2 = _bessel_012(SQRT3 * chi * t)
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
    """Integral of W_atom(theta(u), phi) exp(-i m phi) over one period of phi,
    as a function of u = cos(theta), for the atomic orders m = 0 and 1 of the
    sector table.

    W_atom is linear in (1, cos phi, sin phi), so the integral is
    (1 + sqrt(3) s_z u) / 2 at m = 0 and (sqrt(3) / 4) (s_x - i s_y) sqrt(1 - u^2)
    at m = 1.
    """
    sx, sy, sz = s
    if m == 0:
        return lambda u: 0.5 * (1.0 + SQRT3 * sz * u)
    coherence = 0.25 * SQRT3 * complex(sx, -sy)
    return lambda u: coherence * math.sqrt(max(0.0, 1.0 - u * u))


def _field_profile(field: GaussianAmplitude, n: int) -> Callable[[float], np.ndarray]:
    """r -> polar_density(r, psi_k) on the n points psi_k = 2 pi k / n."""
    import numpy as np

    s2 = field.sigma * field.sigma
    half_sin2 = np.sin(0.5 * (np.arange(n) * (TWO_PI / n))) ** 2

    def row(r: float) -> np.ndarray:
        # same squared distance as GaussianAmplitude.polar_density
        return (2.0 / (math.pi * s2)) * np.exp(
            -2.0 * ((r - field.r0) ** 2 + 4.0 * r * field.r0 * half_sin2) / s2
        )

    return row


def expectation_quadrature(state: HybridState, obs: ObservableSymbol) -> complex:
    """Direct quadrature of the symbol against the transported joint density:
    the independent cross-check of ``closed_moments`` at the state's time.

    The atomic azimuth is integrated in closed form (``_atom_azimuthal``).  A
    Gaussian profile is even in the field azimuth psi, so its azimuthal
    integral against exp(-i m_field psi) is the periodic trapezoid against
    cos(m_field psi): one fixed-order sum against a real weight row on
    ``field.azimuth_points`` points per radial node.  The remaining
    coordinates use adaptive panels; the radial integral does not depend on
    the polar angle, so it is done once and multiplies the polar integrand.
    """
    import numpy as np

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

        return const * integrate_interval(f, -1.0, 1.0).value

    r_lo, r_hi = field.radial_bounds()
    n = field.azimuth_points(r_hi)
    profile = _field_profile(field, n)
    weights = np.cos(m_f * (np.arange(n) * (TWO_PI / n))) * (TWO_PI / n)

    def radial(r: float) -> complex:
        h = r if m_f != 0 else 1.0
        azimuthal = float(np.add.reduce(profile(r) * weights))
        return r * h * azimuthal * cmath.exp(-2j * m_a * chi * r * r * t)

    inner = integrate_interval(radial, r_lo, r_hi).value

    def outer(u: float) -> complex:
        return atom_row(u) * g_theta(u) * cmath.exp(-1j * m_f * kappa * u) * inner

    return integrate_interval(outer, -1.0, 1.0).value


_PRODUCTS = {obs.value: obs for obs in ObservableSymbol}


def _product_symbol(A: ObservableSymbol, B: ObservableSymbol) -> ObservableSymbol:
    """The member whose sector kinds are A's atomic and B's field kind (no
    member is the identity, so a factor's other kind is never "one")."""
    if A.field_kind != "one":
        raise ValueError("first factor must be a purely atomic observable")
    if B.atomic_kind != "one":
        raise ValueError("second factor must be a purely field observable")
    try:
        return _PRODUCTS[A.atomic_kind, B.field_kind]
    except KeyError:
        raise ValueError(f"no product symbol for ({A.name}, {B.name})") from None


def moment_correlation(
    moments: dict[ObservableSymbol, complex], A: ObservableSymbol, B: ObservableSymbol
) -> complex:
    """Cross-sector correlation <AB> - <A><B> from one table of moments.

    A must act on the atom and B on the field; same-sector products would
    need operator-ordering rules that are out of scope here.
    """
    return moments[_product_symbol(A, B)] - moments[A] * moments[B]


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
    intensity spread, as in ``atom_marginal`` (or rotate rigidly in the
    mean-field variant).
    """
    if not math.isfinite(chi):
        raise ValueError(f"chi must be finite, got {chi!r}")
    if not all(map(math.isfinite, times)):
        raise ValueError("times must be finite")
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
