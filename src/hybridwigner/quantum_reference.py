"""Exact two-level-atom + quantized-mode evolution in a truncated number basis.

Serves as the fully quantum comparison point for the hybrid model: the
dispersive coupling only attaches opposite number-dependent phases to the two
atomic levels, so the evolved state is available in closed form and every
moment is a finite sum.

Phase conventions for the atomic coherences follow the closed-form moment
displays this module is checked against: SIGMA_MINUS here denotes the
coherence whose equal-superposition expectation is
(1/2) conj(alpha) e^{i chi t} e^{i |alpha|^2 sin(2 chi t)} e^{-2 |alpha|^2 sin^2(chi t)}
when paired with the raising field operator.  Note the resulting coherence
rotates opposite to the hybrid model's lowering symbol.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hybrid_model import ObservableSymbol

__all__ = [
    "TruncationError",
    "AtomFieldVector",
    "default_truncation",
    "evolve_quantum",
    "quantum_moments",
    "coherent_overlap",
]

# Poisson tail that must remain beyond the truncation edge.
_TAIL_BOUND = 1e-14
# Largest default cutoff: keeps |alpha| = 100 (11,020 states) valid and
# refuses the ~1e8-state bases of |alpha| ~ 1e4, which exhaust memory.
MAX_TRUNCATION = 100_000


class TruncationError(ValueError):
    """Number-basis cutoff too small for the amplitude, or above MAX_TRUNCATION."""


def default_truncation(alpha: complex) -> int:
    """Cutoff keeping the Poisson tail of |alpha> below the tail bound, at most
    MAX_TRUNCATION (TruncationError beyond)."""
    a = abs(alpha)
    n = a * a + 10.0 * a + 20.0
    if n > MAX_TRUNCATION:
        raise TruncationError(f"|alpha| = {a:.6g} needs {n:.3e} basis states > {MAX_TRUNCATION}")
    return math.ceil(n)


@dataclass(frozen=True)
class AtomFieldVector:
    """Pure state of atom x mode as a 2 x (N+1) amplitude array.

    Row 0 holds the upper-level amplitudes, row 1 the lower-level ones.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[0] != 2:
            raise ValueError("amplitudes must have shape (2, N+1)")
        tail = float(np.sum(np.abs(amps[:, -1]) ** 2))
        if tail >= _TAIL_BOUND:
            raise TruncationError(
                f"truncation tail {tail:.3e} exceeds {_TAIL_BOUND:.0e}; increase N"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state must be normalized, got norm^2 = {norm}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def truncation(self) -> int:
        return self.amplitudes.shape[1] - 1

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))


def _coherent_column(alpha: complex, N: int) -> np.ndarray:
    ns = np.arange(N + 1)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, N + 1)))))
    if alpha == 0:
        col = np.zeros(N + 1, dtype=complex)
        col[0] = 1.0
        return col
    log_amp = ns * np.log(abs(alpha)) - 0.5 * log_fact - 0.5 * abs(alpha) ** 2
    phases = np.exp(1j * ns * cmath.phase(alpha))
    col = np.exp(log_amp) * phases
    # The log-factorial cumsum drifts by ~1e-12 in norm^2 once |alpha| >= 17;
    # renormalise here and leave the cutoff to the AtomFieldVector tail check.
    return col / np.linalg.norm(col)


def evolve_quantum(
    c_e: complex,
    c_g: complex,
    alpha: complex,
    chi: float,
    t: float,
    N: int | None = None,
) -> AtomFieldVector:
    """Evolved state for the product of (c_e, c_g) with a coherent mode.

    The upper level picks up exp(-i chi t n) per photon, the lower level the
    opposite phase; the norm is conserved exactly.
    """
    if abs(abs(c_e) ** 2 + abs(c_g) ** 2 - 1.0) > 1e-12:
        raise ValueError("atomic amplitudes must be normalized")
    if N is None:
        N = default_truncation(alpha)
    coherent = _coherent_column(alpha, N)
    ns = np.arange(N + 1)
    upper = c_e * np.exp(-1j * chi * t * ns) * coherent
    lower = c_g * np.exp(1j * chi * t * ns) * coherent
    return AtomFieldVector(np.vstack([upper, lower]))


def quantum_moments(state: AtomFieldVector) -> dict[ObservableSymbol, complex]:
    """Exact matrix element of every ObservableSymbol in the truncated basis."""
    up, low = state.amplitudes
    root = np.sqrt(np.arange(1, state.truncation + 1))
    # per-level <a> sums, shared by A and SIGMA_Z_A
    a_up = np.sum(np.conj(up[:-1]) * root * up[1:])
    a_low = np.sum(np.conj(low[:-1]) * root * low[1:])
    return {
        ObservableSymbol.A: complex(a_up + a_low),
        ObservableSymbol.ADAG: complex(
            np.sum(np.conj(up[1:]) * root * up[:-1])
            + np.sum(np.conj(low[1:]) * root * low[:-1])
        ),
        ObservableSymbol.SIGMA_Z: complex(np.sum(np.abs(up) ** 2) - np.sum(np.abs(low) ** 2)),
        ObservableSymbol.SIGMA_MINUS: complex(np.sum(np.conj(up) * low)),
        ObservableSymbol.SIGMA_MINUS_ADAG: complex(np.sum(np.conj(up[1:]) * root * low[:-1])),
        ObservableSymbol.SIGMA_Z_A: complex(a_up - a_low),
    }


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """<alpha|beta> = exp(-(|alpha|^2 + |beta|^2)/2 + conj(alpha) beta)."""
    alpha = complex(alpha)
    beta = complex(beta)
    return cmath.exp(
        -0.5 * (abs(alpha) ** 2 + abs(beta) ** 2) + alpha.conjugate() * beta
    )

