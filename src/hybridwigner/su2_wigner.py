"""SU(2) phase-space representation for small angular momenta.

Provides Clebsch-Gordan coefficients, spherical harmonics, the sphere kernel
that maps spin operators to functions on the Bloch sphere, the spin-1/2
state <-> distribution maps, and the sphere version of the trace rule
tr(AB) = (4*pi / (2j+1)) * Integral[W_A * W_B].

Conventions: Condon-Shortley phases throughout; the spin-up basis state comes
first, so sigma_z = diag(1, -1) and a Bloch vector s = (0, 0, -1) is the
ground state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .quadrature import BlochPoint, integrate_sphere

__all__ = [
    "SQRT3",
    "SpinHalfState",
    "clebsch_gordan",
    "spherical_harmonic",
    "su2_kernel",
    "spin_half_kernel",
    "spin_wigner",
    "wigner_to_spin",
    "su2_traciality",
]

SQRT3 = math.sqrt(3.0)
FOUR_PI = 4.0 * math.pi


@lru_cache(maxsize=None)
def _pauli() -> tuple:
    """The Pauli matrices (sigma_x, sigma_y, sigma_z), built once on first use."""
    import numpy as np

    return (
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    )


def _doubled(x: float, name: str) -> int:
    """Twice the quantum number, validated to be (half-)integer."""
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    d = round(2.0 * x)
    if abs(2.0 * x - d) > 1e-9:
        raise ValueError(f"{name} must be integer or half-integer, got {x}")
    return int(d)


def clebsch_gordan(j1: float, m1: float, j2: float, m2: float, j: float, m: float) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m> (Condon-Shortley).

    Returns 0 when m != m1 + m2 or the triangle condition fails; raises
    ValueError for malformed quantum numbers.
    """
    dj1, dm1 = _doubled(j1, "j1"), _doubled(m1, "m1")
    dj2, dm2 = _doubled(j2, "j2"), _doubled(m2, "m2")
    dj, dm = _doubled(j, "j"), _doubled(m, "m")
    for dji, dmi, name in ((dj1, dm1, "j1"), (dj2, dm2, "j2"), (dj, dm, "j")):
        if dji < 0:
            raise ValueError(f"{name} must be non-negative")
        if abs(dmi) > dji:
            raise ValueError(f"|m| exceeds {name}")
        if (dji + dmi) % 2 != 0:
            raise ValueError(f"m must differ from {name} by an integer")
    if dm1 + dm2 != dm:
        return 0.0
    if dj < abs(dj1 - dj2) or dj > dj1 + dj2 or (dj1 + dj2 + dj) % 2 != 0:
        return 0.0
    return _cg(dj1, dm1, dj2, dm2, dj, dm)


@lru_cache(maxsize=None)
def _cg(dj1: int, dm1: int, dj2: int, dm2: int, dj: int, dm: int) -> float:
    # Racah's closed form, evaluated with exact integer factorials.
    def fact(n: int) -> int:
        return math.factorial(n)

    t1 = (dj1 + dj2 - dj) // 2
    t2 = (dj1 - dj2 + dj) // 2
    t3 = (-dj1 + dj2 + dj) // 2
    norm = Fraction(
        (dj + 1) * fact(t1) * fact(t2) * fact(t3),
        fact((dj1 + dj2 + dj) // 2 + 1),
    )
    norm *= Fraction(
        fact((dj1 + dm1) // 2)
        * fact((dj1 - dm1) // 2)
        * fact((dj2 + dm2) // 2)
        * fact((dj2 - dm2) // 2)
        * fact((dj + dm) // 2)
        * fact((dj - dm) // 2)
    )
    k_min = max(0, (dj2 - dj - dm1) // 2, (dj1 + dm2 - dj) // 2)
    k_max = min(t1, (dj1 - dm1) // 2, (dj2 + dm2) // 2)
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        denom = (
            fact(k)
            * fact(t1 - k)
            * fact((dj1 - dm1) // 2 - k)
            * fact((dj2 + dm2) // 2 - k)
            * fact((dj - dj2 + dm1) // 2 + k)
            * fact((dj - dj1 - dm2) // 2 + k)
        )
        total += Fraction(-1 if k % 2 else 1, denom)
    if total == 0:
        return 0.0
    sign = 1.0 if total > 0 else -1.0
    return sign * math.sqrt(float(total * total * norm))


def _legendre(ell: int, m: int, x: float) -> float:
    """Associated Legendre function P_ell^m(x), 0 <= m <= ell, with the
    Condon-Shortley phase: P_m^m = (-1)^m (2m-1)!! (1-x^2)^(m/2), then the
    upward recurrence in degree."""
    p_low = (-1) ** m * math.prod(range(1, 2 * m, 2)) * math.sqrt(1.0 - x * x) ** m
    if ell == m:
        return p_low
    p = x * (2 * m + 1) * p_low
    for k in range(m + 2, ell + 1):
        p_low, p = p, ((2 * k - 1) * x * p - (k + m - 1) * p_low) / (k - m)
    return p


def spherical_harmonic(ell: int, m: int, point: BlochPoint) -> complex:
    """Orthonormal spherical harmonic Y_{ell,m} with Condon-Shortley phase."""
    if ell < 0:
        raise ValueError("ell must be non-negative")
    if abs(m) > ell:
        raise ValueError(f"|m| must not exceed ell, got m={m}, ell={ell}")
    mm = abs(m)
    norm = math.sqrt(
        (2 * ell + 1) / FOUR_PI * math.factorial(ell - mm) / math.factorial(ell + mm)
    )
    val = norm * _legendre(ell, mm, math.cos(point.theta)) * cmath.exp(1j * mm * point.phi)
    if m < 0:
        val = (-1) ** mm * val.conjugate()
    return val


def su2_kernel(j: float, point: BlochPoint) -> np.ndarray:
    """Sphere kernel for angular momentum j as a (2j+1) x (2j+1) matrix.

    Basis ordering runs from m = +j down to m = -j.  The matrix is Hermitian
    and its trace equals (2j+1)/(4*pi).  Implemented for j <= 2 only.
    """
    dj = _doubled(j, "j")
    if dj <= 0 or dj > 4:
        raise ValueError(f"kernel implemented for j in {{1/2, 1, 3/2, 2}}, got {j}")
    import numpy as np

    out = np.zeros((dj + 1, dj + 1), dtype=complex)
    for ell, m, terms in _coupling_table(dj):
        y = spherical_harmonic(ell, m, point)
        if y == 0:
            continue
        for ik, iq, weight in terms:
            out[ik, iq] += weight * y
    out /= math.sqrt(FOUR_PI)
    return out


@lru_cache(maxsize=None)
def _coupling_table(dj: int) -> tuple:
    """The kernel's coupling terms for j = dj/2, built on first use:
    (ell, m, ((ik, iq, sqrt(2 ell + 1) <j k; ell m | j q>), ...)) with the
    nonzero coefficients only, in the kernel's summation order."""
    jj = dj / 2.0
    mvals = [(dj - 2 * i) / 2.0 for i in range(dj + 1)]
    table = []
    for ell in range(dj + 1):
        pref = math.sqrt(2 * ell + 1)
        for m in range(-ell, ell + 1):
            terms = []
            for ik, k in enumerate(mvals):
                for iq, q in enumerate(mvals):
                    c = clebsch_gordan(jj, k, ell, m, jj, q)
                    if c != 0.0:
                        terms.append((ik, iq, pref * c))
            table.append((ell, m, tuple(terms)))
    return tuple(table)


def spin_half_kernel(point: BlochPoint) -> np.ndarray:
    """Closed form of the j = 1/2 kernel: (1 + sqrt(3) n.sigma) / (4*pi)."""
    import numpy as np

    nx, ny, nz = point.unit_vector
    px, py, pz = _pauli()
    return (np.eye(2, dtype=complex) + SQRT3 * (nx * px + ny * py + nz * pz)) / FOUR_PI


@dataclass(frozen=True)
class SpinHalfState:
    """Two-level state given by its Bloch vector s, |s| <= 1."""

    s: tuple[float, float, float]

    def __post_init__(self) -> None:
        s = tuple(float(c) for c in self.s)
        if len(s) != 3:
            raise ValueError("Bloch vector must have three components")
        if not math.hypot(*s) <= 1.0 + 1e-9:
            raise ValueError(f"Bloch vector must be finite with |s| <= 1, got {s}")
        object.__setattr__(self, "s", s)

    @classmethod
    def ground(cls) -> "SpinHalfState":
        return cls((0.0, 0.0, -1.0))

    @classmethod
    def excited(cls) -> "SpinHalfState":
        return cls((0.0, 0.0, 1.0))

    @classmethod
    def phase_state(cls) -> "SpinHalfState":
        """Equal-weight superposition of the two levels, pointing along +x."""
        return cls((1.0, 0.0, 0.0))

    @classmethod
    def from_amplitudes(cls, c_e: complex, c_g: complex) -> "SpinHalfState":
        """Bloch vector of the pure state c_e |up> + c_g |down>."""
        norm = abs(c_e) ** 2 + abs(c_g) ** 2
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("amplitudes must be normalized")
        cross = complex(c_e).conjugate() * complex(c_g)
        return cls((2.0 * cross.real, 2.0 * cross.imag, abs(c_e) ** 2 - abs(c_g) ** 2))

    def density_matrix(self) -> np.ndarray:
        import numpy as np

        sx, sy, sz = self.s
        px, py, pz = _pauli()
        return 0.5 * (np.eye(2, dtype=complex) + sx * px + sy * py + sz * pz)


# A sphere density: a function of (cos theta, sin theta, phi), as
# ``integrate_sphere`` calls it; ``w(*point.coords)`` evaluates it at a BlochPoint.
SphereDensity = Callable[[float, float, float], float]


def spin_wigner(state: SpinHalfState) -> SphereDensity:
    """Sphere distribution of a spin-1/2 state: (1 + sqrt(3) n.s) / (4*pi)."""
    sx, sy, sz = state.s

    def w(ct: float, st: float, phi: float) -> float:
        return (1.0 + SQRT3 * (st * math.cos(phi) * sx + st * math.sin(phi) * sy + ct * sz)) / FOUR_PI

    return w


def wigner_to_spin(W: SphereDensity) -> SpinHalfState:
    """Recover the Bloch vector: s_k = sqrt(3) * Integral[n_k W(Omega) dOmega]."""
    moments = (  # n_k W for k = x, y, z
        lambda ct, st, phi: st * math.cos(phi) * W(ct, st, phi),
        lambda ct, st, phi: st * math.sin(phi) * W(ct, st, phi),
        lambda ct, st, phi: ct * W(ct, st, phi),
    )
    return SpinHalfState(tuple(SQRT3 * integrate_sphere(f).value for f in moments))


def su2_traciality(W_A: SphereDensity, W_B: SphereDensity) -> float:
    """tr(AB) of two spin-1/2 operators, computed as
    (4*pi / (2j+1)) * Integral[W_A W_B dOmega] = 2*pi * Integral[W_A W_B dOmega].

    Products are evaluated as W_A * W_B, which is commutative in floating
    point, so swapping the arguments returns the identical value.
    """
    res = integrate_sphere(lambda ct, st, phi: W_A(ct, st, phi) * W_B(ct, st, phi))
    return FOUR_PI / 2 * res.value
