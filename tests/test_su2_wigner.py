import math

import numpy as np
import pytest

from hybridwigner.quadrature import BlochPoint, integrate_sphere
from hybridwigner.su2_wigner import (
    SQRT3,
    SpinHalfState,
    clebsch_gordan,
    spherical_harmonic,
    spin_half_kernel,
    spin_wigner,
    su2_kernel,
    su2_traciality,
    wigner_to_spin,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestClebschGordan:
    def test_stretched(self):
        assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 1) == pytest.approx(1.0, abs=1e-15)

    def test_singlet(self):
        assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(INV_SQRT2, abs=1e-15)
        assert clebsch_gordan(0.5, -0.5, 0.5, 0.5, 0, 0) == pytest.approx(-INV_SQRT2, abs=1e-15)

    def test_m_mismatch_is_zero(self):
        assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 0, 0) == 0.0

    def test_triangle_violation_is_zero(self):
        assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 3, 1) == 0.0

    def test_table_values(self):
        assert clebsch_gordan(1, 1, 1, -1, 0, 0) == pytest.approx(1.0 / math.sqrt(3), abs=1e-15)
        assert clebsch_gordan(1, 0, 1, 0, 0, 0) == pytest.approx(-1.0 / math.sqrt(3), abs=1e-15)
        assert clebsch_gordan(1, 1, 0.5, -0.5, 1.5, 0.5) == pytest.approx(
            math.sqrt(1.0 / 3.0), abs=1e-15
        )

    def test_invalid_quantum_numbers(self):
        with pytest.raises(ValueError):
            clebsch_gordan(0.3, 0.1, 0.5, 0.5, 1, 1)
        with pytest.raises(ValueError):
            clebsch_gordan(0.5, 1.5, 0.5, 0.5, 1, 1)
        with pytest.raises(ValueError):
            clebsch_gordan(1, 0.5, 1, 0, 2, 0.5)

    def test_orthogonality(self):
        # sum over (m1, m2) of <j1 m1 j2 m2|J M><j1 m1 j2 m2|J' M'> = delta
        j1 = j2 = 1.0
        for J, Jp in ((0, 1), (1, 1), (2, 2), (1, 2)):
            for M in range(-J, J + 1):
                total = 0.0
                for m1 in (-1, 0, 1):
                    m2 = M - m1
                    if abs(m2) > 1:
                        continue
                    total += clebsch_gordan(j1, m1, j2, m2, J, M) * clebsch_gordan(
                        j1, m1, j2, m2, Jp, M
                    )
                expected = 1.0 if J == Jp else 0.0
                assert total == pytest.approx(expected, abs=1e-14)


class TestSphericalHarmonics:
    def test_y00_constant(self):
        for theta, phi in ((0.2, 0.0), (1.9, 4.0)):
            val = spherical_harmonic(0, 0, BlochPoint(theta, phi))
            assert val == pytest.approx(1.0 / math.sqrt(4.0 * math.pi), abs=1e-15)

    def test_y10(self):
        p = BlochPoint(0.8, 2.1)
        ref = math.sqrt(3.0 / (4.0 * math.pi)) * math.cos(0.8)
        assert spherical_harmonic(1, 0, p) == pytest.approx(ref, abs=1e-15)

    def test_y11_orthonormal(self):
        res = integrate_sphere(
            lambda ct, st, phi: abs(spherical_harmonic(1, 1, BlochPoint(math.atan2(st, ct), phi))) ** 2
        )
        assert abs(res.value - 1.0) < 1e-12

    def test_negative_m_conjugation(self):
        p = BlochPoint(1.1, 0.7)
        y = spherical_harmonic(2, 1, p)
        ym = spherical_harmonic(2, -1, p)
        assert ym == pytest.approx(-y.conjugate(), abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            spherical_harmonic(1, 2, BlochPoint(0.3, 0.0))


class TestKernel:
    def test_north_pole_diagonal(self):
        K = su2_kernel(0.5, BlochPoint(0.0, 0.0))
        assert K[0, 0].real == pytest.approx((1.0 + SQRT3) / (4.0 * math.pi), abs=1e-14)
        assert K[1, 1].real == pytest.approx((1.0 - SQRT3) / (4.0 * math.pi), abs=1e-14)
        assert abs(K[0, 1]) < 1e-14

    def test_trace(self):
        for theta, phi in ((0.4, 1.0), (2.2, 5.5)):
            K = su2_kernel(0.5, BlochPoint(theta, phi))
            assert np.trace(K).real == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-14)
            assert abs(np.trace(K).imag) < 1e-15

    def test_sum_matches_closed_form_on_grid(self):
        worst = 0.0
        for theta in np.linspace(0.005, math.pi - 0.005, 20):
            for phi in np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False):
                pt = BlochPoint(float(theta), float(phi))
                worst = max(worst, float(np.max(np.abs(su2_kernel(0.5, pt) - spin_half_kernel(pt)))))
        assert worst < 1e-12

    @pytest.mark.parametrize("j", [1.0, 1.5, 2.0])
    def test_higher_j_hermitian_with_correct_trace(self, j):
        K = su2_kernel(j, BlochPoint(1.2, 0.9))
        assert np.max(np.abs(K - K.conj().T)) < 1e-13
        assert np.trace(K).real == pytest.approx((2 * j + 1) / (4.0 * math.pi), abs=1e-13)

    def test_unsupported_j(self):
        with pytest.raises(ValueError):
            su2_kernel(2.5, BlochPoint(0.1, 0.1))


class TestSpinStates:
    def test_bloch_norm_validation(self):
        with pytest.raises(ValueError):
            SpinHalfState((1.0, 1.0, 0.0))

    def test_from_amplitudes(self):
        c = 1.0 / math.sqrt(2.0)
        assert SpinHalfState.from_amplitudes(0.0, 1.0).s == SpinHalfState.ground().s
        st = SpinHalfState.from_amplitudes(c, c)
        assert st.s == pytest.approx(SpinHalfState.phase_state().s, abs=1e-15)
        with pytest.raises(ValueError):
            SpinHalfState.from_amplitudes(1.0, 1.0)

    def test_known_distributions(self):
        wg = spin_wigner(SpinHalfState.ground())
        p = BlochPoint(0.6, 1.0)
        assert wg(*p.coords) == pytest.approx(
            (1.0 - SQRT3 * math.cos(0.6)) / (4.0 * math.pi), abs=1e-15
        )
        wp = spin_wigner(SpinHalfState.phase_state())
        assert wp(*p.coords) == pytest.approx(
            (1.0 + SQRT3 * math.sin(0.6) * math.cos(1.0)) / (4.0 * math.pi), abs=1e-15
        )
        wm = spin_wigner(SpinHalfState((0.0, 0.0, 0.0)))
        assert wm(*p.coords) == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-16)

    def test_ground_negative_near_north_pole(self):
        wg = spin_wigner(SpinHalfState.ground())
        assert wg(*BlochPoint(0.0, 0.0).coords) < 0.0


def _random_states(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
        out.append(SpinHalfState(tuple(v)))
    return out


def test_normalization_over_ball():
    for st in _random_states(8, seed=3):
        res = integrate_sphere(spin_wigner(st))
        assert abs(res.value - 1.0) < 1e-10


def test_round_trip():
    for st in _random_states(8, seed=11) + [
        SpinHalfState.ground(),
        SpinHalfState.phase_state(),
        SpinHalfState((0.0, 0.0, 0.0)),
    ]:
        back = wigner_to_spin(spin_wigner(st))
        assert max(abs(a - b) for a, b in zip(st.s, back.s)) < 1e-8


def test_traciality_against_matrix_oracle():
    states = _random_states(6, seed=29)
    for s1 in states[:3]:
        for s2 in states[3:]:
            value = su2_traciality(spin_wigner(s1), spin_wigner(s2))
            oracle = float(np.trace(s1.density_matrix() @ s2.density_matrix()).real)
            assert value == pytest.approx(oracle, abs=1e-8)


def test_traciality_examples():
    pure = spin_wigner(SpinHalfState((1.0, 0.0, 0.0)))
    assert su2_traciality(pure, pure) == pytest.approx(1.0, abs=1e-10)
    mixed = spin_wigner(SpinHalfState((0.0, 0.0, 0.0)))
    assert su2_traciality(mixed, mixed) == pytest.approx(0.5, abs=1e-10)
    g = spin_wigner(SpinHalfState.ground())
    e = spin_wigner(SpinHalfState.excited())
    assert su2_traciality(g, e) == pytest.approx(0.0, abs=1e-10)


def test_traciality_symmetric():
    a = spin_wigner(SpinHalfState((0.3, -0.2, 0.4)))
    b = spin_wigner(SpinHalfState((-0.1, 0.5, 0.2)))
    assert su2_traciality(a, b) == su2_traciality(b, a)


def test_spin_wigner_real_everywhere():
    rng = np.random.default_rng(5)
    w = spin_wigner(SpinHalfState((0.2, 0.3, -0.4)))
    for _ in range(50):
        p = BlochPoint(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert isinstance(w(*p.coords), float)


def test_negative_quantum_numbers_refused():
    with pytest.raises(ValueError, match=r"^j must be non-negative"):
        clebsch_gordan(0.5, 0.5, 0.5, -0.5, -1.0, 0.0)
    with pytest.raises(ValueError, match=r"^ell must be non-negative"):
        spherical_harmonic(-1, 0, BlochPoint(1.0, 0.0))


def test_bloch_vector_needs_three_components():
    with pytest.raises(ValueError, match="Bloch vector must have three components"):
        SpinHalfState((0.1, 0.2))
