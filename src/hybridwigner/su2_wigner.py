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

import numpy as np

from .quadrature import (
    BlochPoint,
    DEFAULT_SPEC,
    IntegrationSpec,
    integrate_sphere,
)

__all__ = [
    "SQRT3",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
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

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _doubled(x: float, name: str) -> int:
    """Twice the quantum number, validated to be (half-)integer."""
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
    dim = dj + 1
    out = np.zeros((dim, dim), dtype=complex)
    jj = dj / 2.0
    mvals = [(dj - 2 * i) / 2.0 for i in range(dim)]
    for ell in range(dj + 1):
        pref = math.sqrt(2 * ell + 1)
        for m in range(-ell, ell + 1):
            y = spherical_harmonic(ell, m, point)
            if y == 0:
                continue
            for ik, k in enumerate(mvals):
                for iq, q in enumerate(mvals):
                    c = clebsch_gordan(jj, k, ell, m, jj, q)
                    if c != 0.0:
                        out[ik, iq] += pref * c * y
    out /= math.sqrt(FOUR_PI)
    return out


def spin_half_kernel(point: BlochPoint) -> np.ndarray:
    """Closed form of the j = 1/2 kernel: (1 + sqrt(3) n.sigma) / (4*pi)."""
    nx, ny, nz = point.unit_vector
    return (np.eye(2, dtype=complex) + SQRT3 * (nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z)) / FOUR_PI


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
        sx, sy, sz = self.s
        return 0.5 * (np.eye(2, dtype=complex) + sx * PAULI_X + sy * PAULI_Y + sz * PAULI_Z)


def spin_wigner(state: SpinHalfState) -> Callable[[BlochPoint], float]:
    """Sphere distribution of a spin-1/2 state: (1 + sqrt(3) n.s) / (4*pi)."""
    sx, sy, sz = state.s

    def w(point: BlochPoint) -> float:
        nx, ny, nz = point.unit_vector
        return (1.0 + SQRT3 * (nx * sx + ny * sy + nz * sz)) / FOUR_PI

    return w


def wigner_to_spin(
    W: Callable[[BlochPoint], float], spec: IntegrationSpec = DEFAULT_SPEC
) -> SpinHalfState:
    """Recover the Bloch vector: s_k = sqrt(3) * Integral[n_k W(Omega) dOmega]."""
    comps = []
    for axis in range(3):
        res = integrate_sphere(lambda p, ax=axis: p.unit_vector[ax] * W(p), spec)
        comps.append(SQRT3 * res.value)
    return SpinHalfState(tuple(comps))


def su2_traciality(
    W_A: Callable[[BlochPoint], float],
    W_B: Callable[[BlochPoint], float],
    spec: IntegrationSpec = DEFAULT_SPEC,
) -> float:
    """tr(AB) of two spin-1/2 operators, computed as
    (4*pi / (2j+1)) * Integral[W_A W_B dOmega] = 2*pi * Integral[W_A W_B dOmega].

    Products are evaluated as W_A * W_B, which is commutative in floating
    point, so swapping the arguments returns the identical value.
    """
    res = integrate_sphere(lambda p: W_A(p) * W_B(p), spec)
    return FOUR_PI / 2 * res.value
