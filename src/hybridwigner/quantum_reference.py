"""Fully quantum comparison point for the hybrid model.

The dispersive coupling rotates a coherent mode state to |alpha e^{-i chi t}>
on the upper atomic level and |alpha e^{i chi t}> on the lower one, so
``quantum_moments`` gives every moment in closed form, linear in the atom's
Bloch vector (mixed atoms included).  ``basis_moments`` evolves a pure atom
and the coherent state in a truncated number basis: the one independent
cross-check of the closed forms.

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
from typing import Sequence

from .hybrid_model import ObservableSymbol
from .su2_wigner import SpinHalfState

__all__ = [
    "TruncationError",
    "default_truncation",
    "basis_moments",
    "quantum_moments",
    "coherent_overlap",
]

# Poisson tail that must remain beyond the truncation edge.
_TAIL_BOUND = 1e-14
# Largest default cutoff: keeps |alpha| = 100 (11,020 states) valid and
# refuses the ~1e8-state bases of |alpha| ~ 1e4, which exhaust memory.
MAX_TRUNCATION = 100_000
# Amplitudes per atomic level in one block of basis_moments' time grid.  An
# unblocked 301-time grid at |alpha| = 100 (11,021 states) allocates about
# 213 MB; blocks of this size keep the working set near a megabyte.
_BLOCK_AMPLITUDES = 2**14


class TruncationError(ValueError):
    """Number-basis cutoff too small for the amplitude, or above MAX_TRUNCATION."""


def default_truncation(alpha: complex) -> int:
    """Cutoff keeping the Poisson tail of |alpha> below the tail bound, at most
    MAX_TRUNCATION (TruncationError beyond)."""
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    a = abs(alpha)
    n = a * a + 10.0 * a + 20.0
    if n > MAX_TRUNCATION:
        raise TruncationError(f"|alpha| = {a:.6g} needs {n:.3e} basis states > {MAX_TRUNCATION}")
    return math.ceil(n)


def _checked_block(amps: np.ndarray) -> np.ndarray:
    """``amps`` after the shape check and, at every time, the tail and norm
    checks."""
    import numpy as np

    if amps.ndim != 3 or amps.shape[1] != 2:
        raise ValueError("amplitudes must have shape (T, 2, N+1)")
    # NaN compares False, so each bound is written as not (x < bound)
    tail = np.sum(np.abs(amps[:, :, -1]) ** 2, axis=-1)
    if np.any(~(tail < _TAIL_BOUND)):
        raise TruncationError(
            f"truncation tail {np.max(tail):.3e} exceeds {_TAIL_BOUND:.0e}; increase N"
        )
    norm = np.abs(amps.reshape(len(amps), -1))
    norm **= 2
    norm = np.sum(norm, axis=-1)
    off = ~(np.abs(norm - 1.0) <= 1e-12)
    if np.any(off):
        raise ValueError(f"state must be normalized, got norm^2 = {norm[off][0]}")
    return amps


def _coherent_column(alpha: complex, N: int) -> np.ndarray:
    import numpy as np

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
    # renormalise here and leave the cutoff to the tail check of _checked_block.
    return col / np.linalg.norm(col)


def _checked_inputs(alpha: complex, chi: float, times: Sequence[float]) -> None:
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if not math.isfinite(chi):
        raise ValueError(f"chi must be finite, got {chi!r}")
    if not all(map(math.isfinite, times)):
        raise ValueError("times must be finite")


def _evolve(
    c_e: complex, c_g: complex, coherent: np.ndarray, chi: float, times: Sequence[float]
) -> np.ndarray:
    """Unchecked T x 2 x (N+1) amplitudes at ``times``, formed in place."""
    import numpy as np

    ns = np.arange(len(coherent))
    # each time's phase rate is the scalar product -1j chi t (or 1j chi t), as
    # in the expression for one state
    down = np.array([-1j * chi * t for t in times], dtype=complex).reshape(-1, 1)
    up = np.array([1j * chi * t for t in times], dtype=complex).reshape(-1, 1)
    amps = np.empty((len(down), 2, len(coherent)), dtype=complex)
    for level, c, rate in ((amps[:, 0], c_e, down), (amps[:, 1], c_g, up)):
        # c exp(rate n) coherent, in that order.  The strided level view
        # makes numpy run each product one state at a time, as for a single
        # state, instead of fusing the block into one loop with other rounding.
        np.multiply(rate, ns, out=level)
        np.exp(level, out=level)
        np.multiply(c, level, out=level)
        level *= coherent
    return amps


def _block_moments(amps: np.ndarray, root: np.ndarray) -> list[dict[ObservableSymbol, complex]]:
    """Every ObservableSymbol at each time of a T x 2 x (N+1) block; each
    moment is a sum along the last axis, one state at a time."""
    import numpy as np

    up, low = amps[:, 0], amps[:, 1]

    def total(x: np.ndarray) -> np.ndarray:
        return np.sum(x, axis=-1)

    # per-level <a> sums, shared by A and SIGMA_Z_A
    a_up = total(np.conj(up[:, :-1]) * root * up[:, 1:])
    a_low = total(np.conj(low[:, :-1]) * root * low[:, 1:])
    adag = total(np.conj(up[:, 1:]) * root * up[:, :-1]) + total(np.conj(low[:, 1:]) * root * low[:, :-1])
    columns = zip(
        (a_up + a_low).tolist(),
        adag.tolist(),
        (total(np.abs(up) ** 2) - total(np.abs(low) ** 2)).tolist(),
        total(np.conj(up) * low).tolist(),
        total(np.conj(up[:, 1:]) * root * low[:, :-1]).tolist(),
        (a_up - a_low).tolist(),
    )
    return [
        {
            ObservableSymbol.A: complex(a),
            ObservableSymbol.ADAG: complex(a_dag),
            ObservableSymbol.SIGMA_Z: complex(sz),
            ObservableSymbol.SIGMA_MINUS: complex(sm),
            ObservableSymbol.SIGMA_MINUS_ADAG: complex(sma),
            ObservableSymbol.SIGMA_Z_A: complex(sza),
        }
        for a, a_dag, sz, sm, sma, sza in columns
    ]


def basis_moments(
    c_e: complex, c_g: complex, alpha: complex, chi: float, times: Sequence[float], N: int | None = None
) -> list[dict[ObservableSymbol, complex]]:
    """Every ObservableSymbol at each of ``times`` for (c_e, c_g) times |alpha>,
    evolved in the truncated number basis: the upper level picks up
    exp(-i chi t n) per photon, the lower level the opposite phase.

    The coherent column is formed once, and every state is held to the tail
    and norm checks.  The grid is evolved in blocks of at most
    ``_BLOCK_AMPLITUDES`` amplitudes per level (one time at least), so the
    working set does not grow with the grid.
    """
    _checked_inputs(alpha, chi, times)
    for name, c in (("c_e", c_e), ("c_g", c_g)):
        if not cmath.isfinite(c):
            raise ValueError(f"{name} must be finite, got {c!r}")
    # NaN compares False, so the bound is written as not (x <= bound)
    if not (abs(abs(c_e) ** 2 + abs(c_g) ** 2 - 1.0) <= 1e-12):
        raise ValueError("atomic amplitudes must be normalized")
    N = default_truncation(alpha) if N is None else N
    import numpy as np

    coherent = _coherent_column(alpha, N)
    root = np.sqrt(np.arange(1, N + 1))
    step = max(1, _BLOCK_AMPLITUDES // (N + 1))
    moments = []
    for start in range(0, len(times), step):
        block = _evolve(c_e, c_g, coherent, chi, times[start : start + step])
        moments += _block_moments(_checked_block(block), root)
    return moments


def quantum_moments(
    atom: SpinHalfState, alpha: complex, chi: float, times: Sequence[float]
) -> list[dict[ObservableSymbol, complex]]:
    """Every ObservableSymbol at each of ``times`` for the atom times |alpha>,
    in closed form: with p_e,g = (1 +- s_z)/2, c = (s_x + i s_y)/2 and
    alpha_e,g = alpha e^{-+i chi t}, <a> = p_e alpha_e + p_g alpha_g, the
    coherence is c <alpha_e|alpha_g>, its product with a^dagger carries
    conj(alpha_e), and <sigma_z a> = p_e alpha_e - p_g alpha_g."""
    _checked_inputs(alpha, chi, times)
    alpha = complex(alpha)
    sx, sy, sz = atom.s
    p_e, p_g = 0.5 * (1.0 + sz), 0.5 * (1.0 - sz)
    c = 0.5 * complex(sx, sy)
    moments = []
    for t in times:
        rotation = cmath.exp(-1j * chi * t)
        alpha_e, alpha_g = alpha * rotation, alpha * rotation.conjugate()
        a = p_e * alpha_e + p_g * alpha_g
        coherence = c * coherent_overlap(alpha_e, alpha_g)
        moments.append(
            {
                ObservableSymbol.A: a,
                ObservableSymbol.ADAG: a.conjugate(),
                ObservableSymbol.SIGMA_Z: complex(sz),
                ObservableSymbol.SIGMA_MINUS: coherence,
                ObservableSymbol.SIGMA_MINUS_ADAG: alpha_e.conjugate() * coherence,
                ObservableSymbol.SIGMA_Z_A: p_e * alpha_e - p_g * alpha_g,
            }
        )
    return moments


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """<alpha|beta> = exp(-(|alpha|^2 + |beta|^2)/2 + conj(alpha) beta)."""
    alpha, beta = complex(alpha), complex(beta)
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if not cmath.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    return cmath.exp(-0.5 * (abs(alpha) ** 2 + abs(beta) ** 2) + alpha.conjugate() * beta)

