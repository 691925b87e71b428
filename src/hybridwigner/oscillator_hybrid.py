"""One classical and one quantum oscillator with bilinear resonant coupling.

The flow of the pair amplitudes gamma = (alpha, beta) is the unitary matrix

    U(t) = [[cos(lambda t), -i sin(lambda t)],
            [-i sin(lambda t), cos(lambda t)]] * exp(-i t),

so joint distributions just ride along: W_t(gamma) = W_0(U(-t) gamma), and
each marginal is a convolution of the two rescaled initial ones.  At
lambda t = pi/2 the two amplitudes swap (up to a phase), which transports
negativity into the "classical" slot and sub-quantum Gaussians into the
"quantum" slot; the two transfer checks below quantify exactly that.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .quadrature import RADIAL_CUTOFF_SIGMAS, integrate_plane
from .cartesian_wigner import (
    FockWigner,
    GaussianWigner,
    NonclassicalReport,
    NonquantumReport,
    PhaseSpaceFunction,
    fock_wigner,
    gaussian_wigner,
    nonclassical_check,
    nonquantum_check,
    plane_grid,
)

__all__ = [
    "OscillatorPair",
    "pair_flow",
    "evolve_pair_wigner",
    "alpha_marginal",
    "beta_marginal",
    "marginal_quadrature",
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

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


def _flow_entries(lam: float, t: float) -> tuple[complex, complex, complex, complex]:
    """U00, U01, U10, U11 of U(t) as Python complex: a numpy scalar product
    costs about 2.5 times as much, and a matmul loads BLAS."""
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    phase = cmath.exp(-1j * t)
    diagonal = phase * complex(math.cos(lam * t))
    off = phase * (-1j * math.sin(lam * t))
    return diagonal, off, off, diagonal


def pair_flow(gamma: OscillatorPair, lam: float, t: float) -> OscillatorPair:
    """Advance the amplitude pair by time t; |alpha|^2 + |beta|^2 is conserved."""
    u00, u01, u10, u11 = _flow_entries(lam, t)
    alpha, beta = gamma.alpha, gamma.beta
    return OscillatorPair(u00 * alpha + u01 * beta, u10 * alpha + u11 * beta)


def evolve_pair_wigner(
    W_c: PhaseSpaceFunction,
    W_q: PhaseSpaceFunction,
    lam: float,
    t: float,
) -> Callable[[complex, complex], float]:
    """Joint density w(alpha, beta) at time t: the product initial density
    composed with the inverse flow."""
    u00, u01, u10, u11 = _flow_entries(lam, -t)

    def w(alpha: complex, beta: complex) -> float:
        a0 = u00 * alpha + u01 * beta
        b0 = u10 * alpha + u11 * beta
        return W_c.evaluate(a0) * W_q.evaluate(b0)

    return w


def _marginal(
    W_c: PhaseSpaceFunction,
    W_q: PhaseSpaceFunction,
    lam: float,
    t: float,
    keep_alpha: bool,
) -> PhaseSpaceFunction:
    """Closed marginal of a Gaussian slot (width sigma_g) and a Gaussian or
    Fock(n) slot (width sigma_o, 1 for Fock), with c and s the magnitudes of
    their coefficients in the kept row of U(t):

        W(z) = 2/(pi D^2) exp(-2 r^2/D^2) sum_k C(n,k) (4 s^2 r^2/D^4)^k q^(n-k) / k!

    where D^2 = c^2 sigma_g^2 + s^2 sigma_o^2, q = (c^2 sigma_g^2 - s^2 sigma_o^2)/D^2
    and r = |z - z0|, z0 the row applied to the centres.  This is Cahill and
    Glauber's s-ordered number-state distribution (Phys. Rev. 177, 1882 (1969)),
    rescaled; D^2 > 0 is its only divisor, so t = 0, the swap time and q = 0
    are ordinary points.
    """
    if isinstance(W_c, GaussianWigner) and isinstance(W_q, (GaussianWigner, FockWigner)):
        gauss, other = W_c, W_q
    elif isinstance(W_q, GaussianWigner) and isinstance(W_c, FockWigner):
        gauss, other = W_q, W_c
    else:
        raise TypeError(
            f"no closed marginal for {type(W_c).__name__} x {type(W_q).__name__}: "
            "it needs a Gaussian in one slot and a Gaussian or number state in the "
            "other; integrate other pairs with marginal_quadrature"
        )
    # the entries first: they refuse a non-finite lam or t by name
    entries = _flow_entries(lam, t)
    u_c, u_q = entries[:2] if keep_alpha else entries[2:]
    # |U00| = |U11| = |cos lam t| and |U01| = |U10| = |sin lam t|
    c, s = abs(math.cos(lam * t)), abs(math.sin(lam * t))
    if keep_alpha != (gauss is W_c):
        c, s = s, c
    z0 = complex(u_c * W_c.decay_center + u_q * W_q.decay_center)
    n, sigma_o = (other.n, 1.0) if isinstance(other, FockWigner) else (0, other.decay_scale)
    c2 = (c * gauss.decay_scale) ** 2
    s2 = (s * sigma_o) ** 2
    d2 = c2 + s2
    if n == 0:
        return gaussian_wigner(z0, math.sqrt(d2))
    q = (c2 - s2) / d2
    coeffs = [math.comb(n, k) * q ** (n - k) / math.factorial(k) for k in range(n, -1, -1)]
    x_per_r2 = 4.0 * s2 / (d2 * d2)
    norm = 2.0 / (math.pi * d2)
    inv = 2.0 / d2

    def w(z: complex) -> float:
        d = z - z0
        r2 = d.real * d.real + d.imag * d.imag
        x = x_per_r2 * r2
        poly = 0.0
        for coef in coeffs:  # Horner, highest power first
            poly = poly * x + coef
        return norm * poly * math.exp(-inv * r2)

    return PhaseSpaceFunction(w, math.sqrt(d2) + s * math.sqrt(n), z0)


def alpha_marginal(
    W_c: PhaseSpaceFunction,
    W_q: PhaseSpaceFunction,
    lam: float,
    t: float,
) -> PhaseSpaceFunction:
    """Distribution of the nominally classical amplitude at time t, in closed
    form for a Gaussian in one slot and a Gaussian or number state in the
    other.  Any other pair raises TypeError; ``marginal_quadrature`` takes it.
    """
    return _marginal(W_c, W_q, lam, t, True)


def beta_marginal(
    W_c: PhaseSpaceFunction,
    W_q: PhaseSpaceFunction,
    lam: float,
    t: float,
) -> PhaseSpaceFunction:
    """Distribution of the nominally quantum amplitude at time t; covers the
    pairs ``alpha_marginal`` covers."""
    return _marginal(W_c, W_q, lam, t, False)


def marginal_quadrature(
    W_c: PhaseSpaceFunction,
    W_q: PhaseSpaceFunction,
    lam: float,
    t: float,
    keep_alpha: bool,
) -> PhaseSpaceFunction:
    """The independent cross-check of ``alpha_marginal`` (keep_alpha) and
    ``beta_marginal``, for any pair of plane states: each point integrates
    the joint density over the other plane.
    """
    joint = evolve_pair_wigner(W_c, W_q, lam, t)
    width = W_c.decay_scale + W_q.decay_scale + abs(W_c.decay_center) + abs(W_q.decay_center)

    def w(z: complex) -> float:
        if keep_alpha:
            f = lambda beta: joint(z, beta)
        else:
            f = lambda alpha: joint(alpha, z)
        return integrate_plane(f, 0j, width + abs(z) / RADIAL_CUTOFF_SIGMAS).value

    return PhaseSpaceFunction(w, W_c.decay_scale + W_q.decay_scale)


@dataclass(frozen=True)
class NonclassicalTransferReport:
    origin_value: float
    report: NonclassicalReport

    @property
    def nonclassical(self) -> bool:
        return self.report.nonclassical


@dataclass(frozen=True)
class NonquantumTransferReport:
    excited_diag: float
    report: NonquantumReport

    @property
    def nonquantum(self) -> bool:
        return self.report.nonquantum


def _swap_time(lam: float) -> float:
    """pi / (2 lam), the time at which the two slots have traded states."""
    if lam == 0.0 or not math.isfinite(lam):
        raise ValueError("lam must be nonzero and finite")
    return 0.5 * math.pi / lam


def nonclassical_transfer_check(lam: float) -> NonclassicalTransferReport:
    """Start the classical slot in a unit Gaussian and the quantum slot in the
    first excited state; at the swap time the classical slot inherits its
    negativity.  The origin value of the alpha marginal is computed by honest
    plane quadrature (``marginal_quadrature``), the grid sweep uses the closed
    marginal.
    """
    tau = _swap_time(lam)
    W_c = gaussian_wigner(0, 1.0)
    W_q = fock_wigner(1)
    origin = marginal_quadrature(W_c, W_q, lam, tau, True).evaluate(0j)
    marg = alpha_marginal(W_c, W_q, lam, tau)
    grid = plane_grid(0j, 3.0, 21)
    report = nonclassical_check(marg, grid)
    return NonclassicalTransferReport(origin, report)


def nonquantum_transfer_check(sigma: float, lam: float) -> NonquantumTransferReport:
    """Start the classical slot in a width-sigma Gaussian and the quantum slot
    in a unit one; at the swap time the quantum slot inherits the former, and
    for sigma < 1 its excited-state diagonal element goes negative.
    """
    tau = _swap_time(lam)
    W_c = gaussian_wigner(0, sigma)
    W_q = gaussian_wigner(0, 1.0)
    marg = beta_marginal(W_c, W_q, lam, tau)
    report = nonquantum_check(marg, max_n=1, axes=(0.0,))
    return NonquantumTransferReport(dict(report.diag_elements)[1], report)
