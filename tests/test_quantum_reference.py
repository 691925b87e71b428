import cmath
import math

import numpy as np
import pytest

from hybridwigner.hybrid_model import ObservableSymbol, moment_correlation
from hybridwigner.quantum_reference import (
    MAX_TRUNCATION,
    AtomFieldVector,
    TruncationError,
    coherent_overlap,
    default_truncation,
    evolve_quantum,
    quantum_moments,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _fock_overlap(alpha, beta, N=80):
    fa = np.array(
        [cmath.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n)) for n in range(N)]
    )
    fb = np.array(
        [cmath.exp(-abs(beta) ** 2 / 2) * beta**n / math.sqrt(math.factorial(n)) for n in range(N)]
    )
    return complex(np.sum(np.conj(fa) * fb))


class TestEvolution:
    def test_t0_is_product_state(self):
        st = evolve_quantum(INV_SQRT2, INV_SQRT2, 1.0, 1.0, 0.0)
        up, low = st.amplitudes
        assert np.allclose(up, low, atol=1e-15)

    def test_ground_atom_gives_rotated_coherent_state(self):
        alpha, chi, t = 1.0, 1.0, 0.7
        st = evolve_quantum(0.0, 1.0, alpha, chi, t)
        ref = evolve_quantum(0.0, 1.0, alpha * cmath.exp(1j * chi * t), chi, 0.0, N=st.truncation)
        assert np.allclose(st.amplitudes, ref.amplitudes, atol=1e-14)

    def test_norm_conserved(self):
        for t in (0.0, 1.0, 17.3):
            st = evolve_quantum(0.6, 0.8, 2.0, 1.0, t)
            assert st.norm() == pytest.approx(1.0, abs=1e-13)

    def test_large_amplitude_normalized(self):
        for alpha in (17.0, 30.0):
            st = evolve_quantum(0.6, 0.8, alpha, 1.0, 0.3)
            assert st.norm() == pytest.approx(1.0, abs=1e-14)

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            evolve_quantum(1.0, 1.0, 1.0, 1.0, 0.0)

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            evolve_quantum(INV_SQRT2, INV_SQRT2, 3.0, 1.0, 0.0, N=10)

    def test_default_truncation_capped(self):
        # |alpha| = 311 needs 99,851 states, |alpha| = 312 needs 100,484
        assert default_truncation(311.0) <= MAX_TRUNCATION
        with pytest.raises(TruncationError):
            default_truncation(312.0)
        with pytest.raises(TruncationError):
            default_truncation(1e200)

    def test_default_truncation_keeps_tail_small(self):
        for alpha in (0.5, 1.0, 3.0):
            st = evolve_quantum(INV_SQRT2, INV_SQRT2, alpha, 1.0, 0.3)
            tail = np.sum(np.abs(st.amplitudes[:, -1]) ** 2)
            assert tail < 1e-14
            assert st.truncation == default_truncation(alpha)


class TestExpectations:
    def test_amplitude_cosine(self):
        alpha, chi = 1.0, 1.0
        for t in (0.2, 0.9, 2.0):
            st = evolve_quantum(INV_SQRT2, INV_SQRT2, alpha, chi, t, N=40)
            assert quantum_moments(st)[ObservableSymbol.A] == pytest.approx(
                alpha * math.cos(chi * t), abs=1e-13
            )

    def test_coherence_raising_closed_form(self):
        alpha, chi = 1.0, 1.0
        for t in (0.2, 0.9, 2.0):
            st = evolve_quantum(INV_SQRT2, INV_SQRT2, alpha, chi, t, N=40)
            value = quantum_moments(st)[ObservableSymbol.SIGMA_MINUS_ADAG]
            closed = (
                0.5
                * np.conj(alpha)
                * cmath.exp(1j * chi * t)
                * cmath.exp(1j * abs(alpha) ** 2 * math.sin(2 * chi * t))
                * math.exp(-2 * abs(alpha) ** 2 * math.sin(chi * t) ** 2)
            )
            assert value == pytest.approx(closed, abs=1e-13)

    def test_inversion_constant(self):
        for ce, cg in ((0.6, 0.8), (INV_SQRT2, INV_SQRT2)):
            ref = abs(ce) ** 2 - abs(cg) ** 2
            for t in (0.0, 1.3, 4.0):
                st = evolve_quantum(ce, cg, 1.5, 1.0, t)
                assert quantum_moments(st)[ObservableSymbol.SIGMA_Z] == pytest.approx(
                    ref, abs=1e-13
                )

    def test_truncation_robustness(self):
        alpha = 3.0
        a = evolve_quantum(INV_SQRT2, INV_SQRT2, alpha, 1.0, 0.8)
        b = evolve_quantum(INV_SQRT2, INV_SQRT2, alpha, 1.0, 0.8, N=2 * a.truncation)
        ma, mb = quantum_moments(a), quantum_moments(b)
        for obs in ObservableSymbol:
            assert ma[obs] == pytest.approx(mb[obs], abs=1e-10)


def _parent_expressions(state):
    """The six per-observable sums of the former one-observable route."""
    up, low = state.amplitudes[0], state.amplitudes[1]
    root = np.sqrt(np.arange(1, state.truncation + 1))
    return {
        ObservableSymbol.A: complex(
            np.sum(np.conj(up[:-1]) * root * up[1:]) + np.sum(np.conj(low[:-1]) * root * low[1:])
        ),
        ObservableSymbol.ADAG: complex(
            np.sum(np.conj(up[1:]) * root * up[:-1]) + np.sum(np.conj(low[1:]) * root * low[:-1])
        ),
        ObservableSymbol.SIGMA_Z: complex(np.sum(np.abs(up) ** 2) - np.sum(np.abs(low) ** 2)),
        ObservableSymbol.SIGMA_MINUS: complex(np.sum(np.conj(up) * low)),
        ObservableSymbol.SIGMA_MINUS_ADAG: complex(np.sum(np.conj(up[1:]) * root * low[:-1])),
        ObservableSymbol.SIGMA_Z_A: complex(
            np.sum(np.conj(up[:-1]) * root * up[1:]) - np.sum(np.conj(low[:-1]) * root * low[1:])
        ),
    }


class TestQuantumMoments:
    @pytest.mark.parametrize("c_e, c_g", [(0.0, 1.0), (INV_SQRT2, INV_SQRT2), (0.6, 0.8)])
    @pytest.mark.parametrize("alpha", [1.0, 3.0 - 1.0j])
    def test_matches_per_observable_sums_exactly(self, c_e, c_g, alpha):
        for t in (0.4, 2.3):
            state = evolve_quantum(c_e, c_g, alpha, 1.0, t)
            moments = quantum_moments(state)
            assert set(moments) == set(ObservableSymbol)
            reference = _parent_expressions(state)
            for obs in ObservableSymbol:
                assert moments[obs] == reference[obs]


class TestCoherentOverlap:
    def test_self_overlap(self):
        assert coherent_overlap(1.3 - 0.2j, 1.3 - 0.2j) == pytest.approx(1.0, abs=1e-15)

    def test_vacuum_overlap(self):
        alpha = 0.7 + 0.4j
        assert coherent_overlap(0.0, alpha) == pytest.approx(
            cmath.exp(-abs(alpha) ** 2 / 2.0), abs=1e-15
        )

    def test_matches_number_basis_sum(self):
        for a, b in ((1.0, 1.0), (1 + 0.5j, -0.3 + 2j), (2.0, 2j)):
            assert coherent_overlap(a, b) == pytest.approx(_fock_overlap(a, b), abs=1e-12)

    def test_counter_rotated_pair(self):
        alpha, chi, t = 1.0, 1.0, 0.4
        value = coherent_overlap(alpha * cmath.exp(1j * chi * t), alpha * cmath.exp(-1j * chi * t))
        modulus = math.exp(-2.0 * abs(alpha) ** 2 * math.sin(chi * t) ** 2)
        phase = -abs(alpha) ** 2 * math.sin(2.0 * chi * t)
        assert abs(value) == pytest.approx(modulus, abs=1e-14)
        assert cmath.phase(value) == pytest.approx(phase, abs=1e-14)


def _correlation(state, A, B):
    return moment_correlation(quantum_moments(state), A, B)


class TestCorrelations:
    def test_ground_atom_correlation_vanishes(self):
        for t in (0.3, 1.1, 6.0):
            st = evolve_quantum(0.0, 1.0, 1.0, 1.0, t)
            value = _correlation(st, ObservableSymbol.SIGMA_Z, ObservableSymbol.A)
            assert abs(value) < 1e-12

    def test_product_state_uncorrelated(self):
        st = evolve_quantum(INV_SQRT2, INV_SQRT2, 1.0, 1.0, 0.0)
        value = _correlation(st, ObservableSymbol.SIGMA_MINUS, ObservableSymbol.ADAG)
        assert abs(value) < 1e-13

    def test_periodic_up_to_sign(self):
        chi = 1.0
        for t in (0.37, 1.9):
            s0 = evolve_quantum(INV_SQRT2, INV_SQRT2, 1.0, chi, t, N=40)
            s1 = evolve_quantum(INV_SQRT2, INV_SQRT2, 1.0, chi, t + math.pi / chi, N=40)
            s2 = evolve_quantum(INV_SQRT2, INV_SQRT2, 1.0, chi, t + 2 * math.pi / chi, N=40)
            v0 = _correlation(s0, ObservableSymbol.SIGMA_MINUS, ObservableSymbol.ADAG)
            v1 = _correlation(s1, ObservableSymbol.SIGMA_MINUS, ObservableSymbol.ADAG)
            v2 = _correlation(s2, ObservableSymbol.SIGMA_MINUS, ObservableSymbol.ADAG)
            assert min(abs(v1 - v0), abs(v1 + v0)) < 1e-12
            assert abs(v2 - v0) < 1e-12

    def test_unsupported_pair_rejected(self):
        st = evolve_quantum(INV_SQRT2, INV_SQRT2, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            _correlation(st, ObservableSymbol.SIGMA_MINUS, ObservableSymbol.A)


def test_vector_validation():
    bad = np.zeros((2, 5), dtype=complex)
    bad[0, 0] = 1.0
    bad[0, -1] = 1e-6  # unnormalized and fat tail
    with pytest.raises(ValueError):
        AtomFieldVector(bad)
