import cmath
import math
import tracemalloc

import numpy as np
import pytest

from hybridwigner.hybrid_model import ObservableSymbol, moment_correlation
from hybridwigner.quantum_reference import (
    _BLOCK_AMPLITUDES,
    MAX_TRUNCATION,
    TruncationError,
    _checked_block,
    _coherent_column,
    _evolve,
    basis_moments,
    coherent_overlap,
    default_truncation,
    quantum_moments,
)
from hybridwigner.su2_wigner import SpinHalfState

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _states(c_e, c_g, alpha, chi, times, N=None):
    """Checked T x 2 x (N+1) amplitudes at ``times``, formed as
    ``basis_moments`` forms one block."""
    N = default_truncation(alpha) if N is None else N
    return _checked_block(_evolve(c_e, c_g, _coherent_column(alpha, N), chi, times))


def _norms(amps):
    return np.sqrt(np.sum(np.abs(amps) ** 2, axis=(1, 2)))


def _closed(c_e, c_g, alpha, chi, times):
    return quantum_moments(SpinHalfState.from_amplitudes(c_e, c_g), alpha, chi, times)


# the closed forms and their truncated-basis cross-check, as functions of the
# atomic amplitudes
ROUTES = pytest.mark.parametrize("route", [_closed, basis_moments], ids=["closed", "basis"])


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
        up, low = _states(INV_SQRT2, INV_SQRT2, 1.0, 1.0, (0.0,))[0]
        assert np.allclose(up, low, atol=1e-15)

    def test_ground_atom_gives_rotated_coherent_state(self):
        alpha, chi, t = 1.0, 1.0, 0.7
        st = _states(0.0, 1.0, alpha, chi, (t,))
        ref = _states(0.0, 1.0, alpha * cmath.exp(1j * chi * t), chi, (0.0,), N=st.shape[-1] - 1)
        assert np.allclose(st, ref, atol=1e-14)

    def test_norm_conserved(self):
        for norm in _norms(_states(0.6, 0.8, 2.0, 1.0, (0.0, 1.0, 17.3))):
            assert norm == pytest.approx(1.0, abs=1e-13)

    def test_large_amplitude_normalized(self):
        for alpha in (17.0, 30.0):
            assert _norms(_states(0.6, 0.8, alpha, 1.0, (0.3,)))[0] == pytest.approx(1.0, abs=1e-14)

    def test_unnormalized_amplitudes_rejected(self):
        # a NaN amplitude is refused by name before the normalisation bound
        for c_e, message in ((1.0, "atomic amplitudes"), (math.nan, "c_e must be finite")):
            with pytest.raises(ValueError, match=message):
                basis_moments(c_e, 1.0, 1.0, 1.0, (0.0,))
        with pytest.raises(ValueError, match="normalized"):
            _states(1.0, 1.0, 1.0, 1.0, (0.0,))

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            _states(INV_SQRT2, INV_SQRT2, 3.0, 1.0, (0.0,), N=10)

    def test_default_truncation_capped(self):
        # |alpha| = 311 needs 99,851 states, |alpha| = 312 needs 100,484
        assert default_truncation(311.0) <= MAX_TRUNCATION
        with pytest.raises(TruncationError):
            default_truncation(312.0)
        with pytest.raises(TruncationError):
            default_truncation(1e200)

    def test_default_truncation_keeps_tail_small(self):
        for alpha in (0.5, 1.0, 3.0):
            st = _states(INV_SQRT2, INV_SQRT2, alpha, 1.0, (0.3,))
            tail = np.sum(np.abs(st[0, :, -1]) ** 2)
            assert tail < 1e-14
            assert st.shape[-1] - 1 == default_truncation(alpha)


class TestExpectations:
    @ROUTES
    def test_amplitude_cosine(self, route):
        alpha, chi = 1.0, 1.0
        times = (0.2, 0.9, 2.0)
        for t, moments in zip(times, route(INV_SQRT2, INV_SQRT2, alpha, chi, times)):
            assert moments[ObservableSymbol.A] == pytest.approx(
                alpha * math.cos(chi * t), abs=1e-13
            )

    @ROUTES
    def test_coherence_raising_closed_form(self, route):
        alpha, chi = 1.0, 1.0
        times = (0.2, 0.9, 2.0)
        for t, moments in zip(times, route(INV_SQRT2, INV_SQRT2, alpha, chi, times)):
            value = moments[ObservableSymbol.SIGMA_MINUS_ADAG]
            closed = (
                0.5
                * np.conj(alpha)
                * cmath.exp(1j * chi * t)
                * cmath.exp(1j * abs(alpha) ** 2 * math.sin(2 * chi * t))
                * math.exp(-2 * abs(alpha) ** 2 * math.sin(chi * t) ** 2)
            )
            assert value == pytest.approx(closed, abs=1e-13)

    @ROUTES
    def test_inversion_constant(self, route):
        for ce, cg in ((0.6, 0.8), (INV_SQRT2, INV_SQRT2)):
            ref = abs(ce) ** 2 - abs(cg) ** 2
            for moments in route(ce, cg, 1.5, 1.0, (0.0, 1.3, 4.0)):
                assert moments[ObservableSymbol.SIGMA_Z] == pytest.approx(ref, abs=1e-13)

    def test_truncation_robustness(self):
        alpha = 3.0
        n = default_truncation(alpha)
        ma = basis_moments(INV_SQRT2, INV_SQRT2, alpha, 1.0, (0.8,))[0]
        mb = basis_moments(INV_SQRT2, INV_SQRT2, alpha, 1.0, (0.8,), N=2 * n)[0]
        for obs in ObservableSymbol:
            assert ma[obs] == pytest.approx(mb[obs], abs=1e-10)


def _parent_state(c_e, c_g, alpha, chi, t):
    """The former one-time evolution, as it formed each level."""
    coherent = _coherent_column(alpha, default_truncation(alpha))
    ns = np.arange(len(coherent))
    upper = c_e * np.exp(-1j * chi * t * ns) * coherent
    lower = c_g * np.exp(1j * chi * t * ns) * coherent
    return upper, lower


def _parent_expressions(up, low):
    """The former one-state moment sums."""
    root = np.sqrt(np.arange(1, len(up)))
    a_up = np.sum(np.conj(up[:-1]) * root * up[1:])
    a_low = np.sum(np.conj(low[:-1]) * root * low[1:])
    return {
        ObservableSymbol.A: complex(a_up + a_low),
        ObservableSymbol.ADAG: complex(
            np.sum(np.conj(up[1:]) * root * up[:-1]) + np.sum(np.conj(low[1:]) * root * low[:-1])
        ),
        ObservableSymbol.SIGMA_Z: complex(np.sum(np.abs(up) ** 2) - np.sum(np.abs(low) ** 2)),
        ObservableSymbol.SIGMA_MINUS: complex(np.sum(np.conj(up) * low)),
        ObservableSymbol.SIGMA_MINUS_ADAG: complex(np.sum(np.conj(up[1:]) * root * low[:-1])),
        ObservableSymbol.SIGMA_Z_A: complex(a_up - a_low),
    }


def _grid(alpha):
    """Times spanning two full blocks and part of a third."""
    step = max(1, _BLOCK_AMPLITUDES // (default_truncation(alpha) + 1))
    return [0.0137 * k for k in range(2 * step + 3)]


ATOMS = {
    "ground": (0.0, 1.0),
    "excited": (1.0, 0.0),
    "phase": (INV_SQRT2, INV_SQRT2),
    "complex": (complex(0.6), 0.8 * cmath.exp(0.9j)),
}


class TestGridRoute:
    @pytest.mark.parametrize("chi", [1.0, -0.7])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 10.0, 30.0, 3.0 - 1.0j])
    def test_equals_one_state_expressions(self, alpha, chi):
        times = _grid(alpha)
        for c_e, c_g in ATOMS.values():
            grid = basis_moments(c_e, c_g, alpha, chi, times)
            amplitudes = _states(c_e, c_g, alpha, chi, times)
            assert len(grid) == len(times)
            for t, moments, state in zip(times, grid, amplitudes):
                up, low = _parent_state(c_e, c_g, alpha, chi, t)
                assert np.array_equal(state[0], up) and np.array_equal(state[1], low)
                assert set(moments) == set(ObservableSymbol)
                reference = _parent_expressions(up, low)
                for obs in ObservableSymbol:
                    assert moments[obs] == reference[obs]

    def test_scalar_time_is_one_time_grid(self):
        c_e, c_g = ATOMS["complex"]
        times = _grid(1.0)
        grid = basis_moments(c_e, c_g, 1.0, 1.0, times)
        assert [basis_moments(c_e, c_g, 1.0, 1.0, (t,))[0] for t in times] == grid
        assert basis_moments(c_e, c_g, 1.0, 1.0, ()) == []

    def test_errors_on_a_grid(self):
        times = _grid(3.0)
        with pytest.raises(TruncationError):
            basis_moments(INV_SQRT2, INV_SQRT2, 3.0, 1.0, times, N=10)
        with pytest.raises(TruncationError):
            _states(INV_SQRT2, INV_SQRT2, 3.0, 1.0, times, N=10)
        with pytest.raises(ValueError, match="atomic amplitudes"):
            basis_moments(1.0, 1.0, 1.0, 1.0, times)
        with pytest.raises(ValueError, match="normalized"):
            _states(1.0, 1.0, 1.0, 1.0, times)

    def test_every_time_of_a_block_is_checked(self):
        block = _states(0.6, 0.8, 1.0, 1.0, (0.0, 0.5, 1.0))
        unnormalized = block.copy()
        unnormalized[-1] *= 1.001
        with pytest.raises(ValueError, match="normalized"):
            _checked_block(unnormalized)
        fat_tail = block.copy()
        fat_tail[1, 0, -1] = 1e-6
        with pytest.raises(TruncationError):
            _checked_block(fat_tail)
        # NaN fails every comparison, so both checks must refuse it
        nan_tail = block.copy()
        nan_tail[1, 1, -1] = math.nan
        with pytest.raises(TruncationError):
            _checked_block(nan_tail)
        nan_inside = block.copy()
        nan_inside[2, 0, 0] = math.nan
        with pytest.raises(ValueError, match="normalized"):
            _checked_block(nan_inside)

    def test_working_set_bounded(self):
        # unblocked, this grid allocates about 213 MB at once
        times = [15.0 * k / 300 for k in range(301)]
        tracemalloc.start()
        try:
            moments = basis_moments(INV_SQRT2, INV_SQRT2, 100.0, 1.0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(moments) == 301
        assert peak < 4e6


class TestClosedForm:
    def test_mixed_atom_is_weighted_sum_of_pure_atoms(self):
        # the closed forms are linear in the Bloch vector, so a mixture of two
        # pure atoms has the weighted sum of their moments
        lam = 0.3
        first = SpinHalfState.from_amplitudes(0.6, 0.8 * cmath.exp(0.9j))
        second = SpinHalfState.ground()
        mixed = SpinHalfState(tuple(lam * a + (1.0 - lam) * b for a, b in zip(first.s, second.s)))
        assert math.hypot(*mixed.s) < 0.9
        args = (2.0 - 1.0j, -0.7, (0.0, 0.4, 3.1))
        pure = zip(quantum_moments(first, *args), quantum_moments(second, *args))
        for moments, (m1, m2) in zip(quantum_moments(mixed, *args), pure):
            for obs in ObservableSymbol:
                assert moments[obs] == pytest.approx(lam * m1[obs] + (1.0 - lam) * m2[obs], abs=1e-14)

    def test_amplitude_beyond_the_basis_cap(self):
        # |alpha| = 1000 would need 1,010,020 basis states
        with pytest.raises(TruncationError):
            default_truncation(1000.0)
        (moments,) = quantum_moments(SpinHalfState.phase_state(), 1000.0, 1.0, (0.0,))
        assert moments[ObservableSymbol.A] == 1000.0
        assert moments[ObservableSymbol.SIGMA_MINUS] == pytest.approx(0.5, abs=1e-15)


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


class TestCorrelations:
    @ROUTES
    def test_ground_atom_correlation_vanishes(self, route):
        for moments in route(0.0, 1.0, 1.0, 1.0, (0.3, 1.1, 6.0)):
            value = moment_correlation(moments, ObservableSymbol.SIGMA_Z, ObservableSymbol.A)
            assert abs(value) < 1e-12

    @ROUTES
    def test_product_state_uncorrelated(self, route):
        moments = route(INV_SQRT2, INV_SQRT2, 1.0, 1.0, (0.0,))[0]
        value = moment_correlation(moments, ObservableSymbol.SIGMA_MINUS, ObservableSymbol.ADAG)
        assert abs(value) < 1e-13

    @ROUTES
    def test_periodic_up_to_sign(self, route):
        chi = 1.0
        pair = (ObservableSymbol.SIGMA_MINUS, ObservableSymbol.ADAG)
        for t in (0.37, 1.9):
            times = (t, t + math.pi / chi, t + 2 * math.pi / chi)
            m0, m1, m2 = route(INV_SQRT2, INV_SQRT2, 1.0, chi, times)
            v0, v1, v2 = (moment_correlation(m, *pair) for m in (m0, m1, m2))
            assert min(abs(v1 - v0), abs(v1 + v0)) < 1e-12
            assert abs(v2 - v0) < 1e-12

    def test_unsupported_pair_rejected(self):
        moments = quantum_moments(SpinHalfState.phase_state(), 1.0, 1.0, (0.5,))[0]
        with pytest.raises(ValueError):
            moment_correlation(moments, ObservableSymbol.SIGMA_MINUS, ObservableSymbol.A)


def test_vector_validation():
    bad = np.zeros((1, 2, 5), dtype=complex)
    bad[0, 0, 0] = 1.0
    bad[0, 0, -1] = 1e-6  # unnormalized and fat tail
    with pytest.raises(ValueError):
        _checked_block(bad)
