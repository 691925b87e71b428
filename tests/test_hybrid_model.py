import cmath
import math

import numpy as np
import pytest

from hybridwigner.quadrature import (
    BlochPoint,
    IntegrationSpec,
    integrate_interval,
    integrate_plane,
    integrate_sphere,
)
from hybridwigner.su2_wigner import SQRT3, SpinHalfState, spin_wigner
from hybridwigner.cartesian_wigner import gaussian_wigner, quadrature_marginal
from hybridwigner.hybrid_model import (
    AnalyticPathRequiredError,
    DeltaAmplitude,
    GaussianAmplitude,
    HybridState,
    ObservableSymbol,
    _field_factors,
    atom_marginal,
    atomic_pfunction,
    closed_moments,
    expectation_quadrature,
    field_marginal,
    flow_map,
    joint_wigner,
    phase_distribution_delta,
    phase_distribution_gaussian,
    phase_moments,
    quadrature_distribution,
    moment_correlation,
    semiclassical_moments,
    semiclassical_standard,
)
import hybridwigner.hybrid_model as model

GROUND = SpinHalfState.ground()
PHASE = SpinHalfState.phase_state()
LOOSE = IntegrationSpec(1e-8, 1e-10)


class TestFlowMap:
    def test_identity_at_t0(self):
        assert flow_map(1.3, 0.2, 0.9, 2.5, chi=3.0, t=0.0) == (1.3, 0.2, 0.9, 2.5)

    def test_equator_gives_no_field_shift(self):
        r, phi_f, theta, phi_a = flow_map(1.0, 0.4, math.pi / 2.0, 0.0, chi=1.0, t=2.0)
        assert phi_f == pytest.approx(0.4, abs=1e-15)
        assert phi_a == pytest.approx(4.0, abs=1e-15)

    def test_north_pole_shift(self):
        _, phi_f, _, _ = flow_map(1.0, 0.0, 0.0, 0.0, chi=1.0, t=1.0)
        assert phi_f == pytest.approx(SQRT3, abs=1e-15)

    def test_conserved_coordinates(self):
        r, _, theta, _ = flow_map(2.2, 1.0, 0.7, 0.1, chi=0.5, t=9.0)
        assert r == 2.2 and theta == 0.7

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            flow_map(-1.0, 0.0, 0.0, 0.0, 1.0, 1.0)


class TestFieldStates:
    def test_delta_flags(self):
        d = DeltaAmplitude(2.0, 0.3)
        assert d.nonquantum
        assert d.mean_amplitude == pytest.approx(2.0 * cmath.exp(-0.3j))
        assert d.mean_intensity == 4.0

    def test_gaussian_flags_and_moments(self):
        assert GaussianAmplitude(1.0, 0.5).nonquantum
        assert not GaussianAmplitude(1.0, 1.0).nonquantum
        g = GaussianAmplitude(2.0, 0.6)
        assert g.mean_intensity == pytest.approx(4.0 + 0.18)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeltaAmplitude(-1.0)
        with pytest.raises(ValueError):
            GaussianAmplitude(1.0, 0.0)
        with pytest.raises(ValueError):
            HybridState(GROUND, DeltaAmplitude(1.0), 1.0, -0.5)


class TestJointWigner:
    def test_t0_is_product(self):
        state = HybridState(PHASE, GaussianAmplitude(1.0, 1.0), 1.0, 0.0)
        jd = joint_wigner(state)
        wq = spin_wigner(PHASE)
        g = gaussian_wigner(1.0, 1.0)
        for theta, phi, alpha in ((0.3, 1.0, 0.7 + 0.1j), (2.0, 4.0, -0.4j)):
            pt = BlochPoint(theta, phi)
            assert jd(pt, alpha) == pytest.approx(
                wq(pt) * g.evaluate(alpha), rel=1e-12
            )

    def test_delta_requires_analytic_path(self):
        state = HybridState(GROUND, DeltaAmplitude(1.0), 1.0, 1.0)
        with pytest.raises(AnalyticPathRequiredError):
            joint_wigner(state)

    def test_ground_joint_negative_at_north_pole(self):
        state = HybridState(GROUND, GaussianAmplitude(1.0, 1.0), 1.0, 0.8)
        jd = joint_wigner(state)
        assert jd(BlochPoint(0.0, 0.0), 1.0 + 0j) < 0.0

    def test_normalization_after_evolution(self):
        state = HybridState(PHASE, GaussianAmplitude(1.0, 1.0), 1.0, 0.7)
        jd = joint_wigner(state)
        spec = IntegrationSpec(1e-6, 1e-8)

        def sphere_slice(alpha):
            return integrate_sphere(lambda pt: jd(pt, alpha), IntegrationSpec(1e-7, 1e-9)).value

        total = integrate_plane(sphere_slice, 0j, 2.0, spec)
        assert abs(total.value - 1.0) < 1e-6


class TestFieldMarginal:
    def test_t0_matches_initial_gaussian(self):
        state = HybridState(GROUND, GaussianAmplitude(1.0, 1.0), 1.0, 0.0)
        fm = field_marginal(state)
        g = gaussian_wigner(1.0, 1.0)
        for alpha in (0j, 0.5 + 0.5j, 1.5 - 1.0j):
            assert fm.evaluate(alpha) == pytest.approx(g.evaluate(alpha), abs=1e-10)

    def test_normalized_after_evolution(self):
        state = HybridState(GROUND, GaussianAmplitude(1.0, 1.0), 1.0, 1.0 / SQRT3)
        fm = field_marginal(state)
        total = integrate_plane(fm.evaluate, 0j, fm.decay_scale, LOOSE)
        assert abs(total.value - 1.0) < 1e-8

    def test_phase_profile_matches_phase_distribution(self):
        field = GaussianAmplitude(10.0, 1.0)
        chi_t = 1.0 / SQRT3
        state = HybridState(GROUND, field, 1.0, chi_t)
        fm = field_marginal(state)
        dist = phase_distribution_gaussian(GROUND, field, chi_t)
        for phi in (0.0, 0.5, 1.0):
            radial = integrate_interval(
                lambda r: r * fm.evaluate(r * cmath.exp(-1j * phi)),
                0.0,
                21.0,
                IntegrationSpec(1e-8, 1e-10),
            ).value
            assert radial == pytest.approx(dist.evaluate(phi), abs=1e-7)

    def test_delta_rejected(self):
        with pytest.raises(AnalyticPathRequiredError):
            field_marginal(HybridState(GROUND, DeltaAmplitude(1.0), 1.0, 1.0))


class TestAtomMarginal:
    def test_ground_delta_time_invariant(self):
        wq = spin_wigner(GROUND)
        for t in (0.0, 0.7, 5.0):
            state = HybridState(GROUND, DeltaAmplitude(2.0), 1.0, t)
            am = atom_marginal(state)
            for theta in np.linspace(0.01, math.pi - 0.01, 7):
                for phi in np.linspace(0.0, 6.0, 5):
                    pt = BlochPoint(float(theta), float(phi))
                    assert am(pt) == pytest.approx(wq(pt), abs=1e-10)

    def test_t0_is_initial_distribution(self):
        state = HybridState(PHASE, GaussianAmplitude(1.0, 1.0), 1.0, 0.0)
        am = atom_marginal(state)
        wq = spin_wigner(PHASE)
        pt = BlochPoint(1.0, 2.0)
        assert am(pt) == pytest.approx(wq(pt), abs=1e-12)

    def test_phase_atom_delta_field_is_rotated(self):
        r0, chi, t = 2.0, 1.0, 1.3
        state = HybridState(PHASE, DeltaAmplitude(r0), chi, t)
        am = atom_marginal(state)
        shift = 2.0 * chi * r0 * r0 * t
        for theta in (0.4, 1.5, 2.8):
            for phi in (0.0, 2.0, 5.0):
                ref = (1.0 + SQRT3 * math.sin(theta) * math.cos(phi - shift)) / (4.0 * math.pi)
                assert am(BlochPoint(theta, phi)) == pytest.approx(ref, abs=1e-12)

    def test_gaussian_matches_direct_marginalization(self):
        state = HybridState(PHASE, GaussianAmplitude(1.0, 1.0), 1.0, 0.7)
        am = atom_marginal(state)
        jd = joint_wigner(state)
        for theta, phi in ((0.4, 0.3), (2.3, 5.0)):
            pt = BlochPoint(theta, phi)
            direct = integrate_plane(lambda a: jd(pt, a), 0j, 2.0, LOOSE).value
            assert am(pt) == pytest.approx(direct, abs=1e-9)

    def test_normalized(self):
        state = HybridState(PHASE, GaussianAmplitude(1.0, 1.0), 1.0, 2.0)
        assert abs(integrate_sphere(atom_marginal(state)).value - 1.0) < 1e-10


class TestDeltaPhaseLaw:
    def test_ground_closed_form(self):
        chi_t = 1.0
        kappa = SQRT3 * chi_t
        dist = phase_distribution_delta(GROUND, chi_t)
        # independent rederivation: collapse the delta against u = cos(theta)
        for phi in np.linspace(-kappa, kappa, 33):
            u_star = phi / kappa
            ref = (1.0 - SQRT3 * u_star) / (2.0 * kappa)
            assert dist.evaluate(float(phi)) == pytest.approx(ref, abs=1e-15)

    def test_upper_edge_negative(self):
        chi_t = 0.8
        dist = phase_distribution_delta(GROUND, chi_t)
        edge = dist.evaluate(SQRT3 * chi_t)
        assert edge == pytest.approx((1.0 - SQRT3) / (2.0 * SQRT3 * chi_t), abs=1e-15)
        assert edge < 0.0

    def test_zero_outside_support(self):
        dist = phase_distribution_delta(GROUND, 1.0)
        assert dist.evaluate(SQRT3 + 1e-12) == 0.0
        assert dist.evaluate(-SQRT3 - 1e-12) == 0.0

    def test_moments(self):
        for chi_t in (0.5, 1.0, 2.0):
            mean, var = phase_moments(phase_distribution_delta(GROUND, chi_t))
            assert mean == pytest.approx(-chi_t, abs=1e-12)
            assert var == pytest.approx(0.0, abs=1e-12)

    def test_superposition_is_uniform(self):
        chi_t = 1.2
        dist = phase_distribution_delta(PHASE, chi_t)
        level = 1.0 / (2.0 * SQRT3 * chi_t)
        for phi in (-1.5, 0.0, 2.0):
            assert dist.evaluate(phi) == pytest.approx(level, abs=1e-15)

    def test_normalized(self):
        dist = phase_distribution_delta(GROUND, 0.7)
        lo, hi = dist.support
        assert integrate_interval(dist.evaluate, lo, hi).value == pytest.approx(1.0, abs=1e-12)

    def test_t0_sentinel(self):
        dist = phase_distribution_delta(GROUND, 0.0)
        assert dist.evaluate is None
        assert phase_moments(dist) == (0.0, 0.0)

    @pytest.mark.parametrize("atom", [GROUND, SpinHalfState((0.6, -0.3, 0.5))])
    def test_negative_chi_mirrors(self, atom):
        # p(phi; -chi t) = p(-phi; chi t), the support included
        for law in (phase_distribution_delta, atomic_pfunction):
            for chi_t in (0.4, 1.3):
                neg, pos = law(atom, -chi_t), law(atom, chi_t)
                assert neg.support == pos.support
                for phi in np.linspace(-1.1 * SQRT3 * chi_t, 1.1 * SQRT3 * chi_t, 45):
                    assert neg.evaluate(float(phi)) == pos.evaluate(float(-phi))


def _radial_reference(field: GaussianAmplitude, psi: float) -> float:
    """Quadrature of r * G(r, psi) over r, independent of the erfc closed form.

    The squared distance is written as (r - r0)^2 + 4 r r0 sin^2(psi / 2): the
    same density as ``polar_density``, whose r^2 + r0^2 - 2 r r0 cos(psi)
    cancels to ~1e-10 relative accuracy when sigma = 1e-3 << r0.
    """
    s2 = field.sigma * field.sigma
    h = math.sin(0.5 * psi)

    def integrand(r: float) -> float:
        d2 = (r - field.r0) ** 2 + 4.0 * r * field.r0 * h * h
        return r * (2.0 / (math.pi * s2)) * math.exp(-2.0 * d2 / s2)

    lo, hi = field.radial_bounds()
    return integrate_interval(integrand, lo, hi, IntegrationSpec(1e-15, 1e-14)).value


def test_radial_bounds_span_the_cutoff_on_both_sides():
    # RADIAL_CUTOFF_SIGMAS = 10 widths, clipped at r = 0
    assert GaussianAmplitude(20.0, 0.5).radial_bounds() == (15.0, 25.0)
    assert GaussianAmplitude(2.0, 0.5).radial_bounds() == (0.0, 7.0)


class TestAngularDensity:
    # the psi grid holds +-pi and the cos(psi) < 0 half, where the erfc ridge
    # term and the exp(-c^2) floor term nearly cancel, plus the narrow ridge
    # of sigma = 1e-3 around psi = 0
    PSI = [math.pi * k / 12.0 for k in range(-12, 13)] + [1e-4, -3e-4, 1e-3, 2e-3, -2.5e-3]

    @pytest.mark.parametrize(
        "r0, sigma", [(10.0, 1.0), (1.0, 1e-3), (0.0, 1.0), (2.0, 0.5), (0.5, 1.0)]
    )
    def test_matches_radial_quadrature(self, r0, sigma):
        field = GaussianAmplitude(r0, sigma)
        for psi in self.PSI:
            assert field.angular_density(psi) == pytest.approx(
                _radial_reference(field, psi), abs=1e-11
            )

    def test_literal_polar_density_route(self):
        field = GaussianAmplitude(2.0, 0.5)
        for psi in (-math.pi, -2.0, 0.0, 0.4, 2.5):
            radial = integrate_interval(
                lambda r: r * field.polar_density(r, psi),
                *field.radial_bounds(),
                IntegrationSpec(1e-12, 1e-14),
            ).value
            assert field.angular_density(psi) == pytest.approx(radial, abs=1e-11)

    def test_polar_density_narrow_ridge(self):
        # sigma << r0: the squared distance must not cancel, or the radial
        # panels around r0 never reach the requested relative tolerance
        field = GaussianAmplitude(1.0, 1e-3)
        for psi in (0.0, 1e-4, 1e-3, 2e-3):
            radial = integrate_interval(
                lambda r: r * field.polar_density(r, psi),
                *field.radial_bounds(),
                IntegrationSpec(1e-12, 1e-14),
            ).value
            assert radial == pytest.approx(field.angular_density(psi), rel=1e-10)

    def test_normalized_over_period(self):
        field = GaussianAmplitude(2.0, 0.5)
        total = integrate_interval(field.angular_density, -math.pi, math.pi, IntegrationSpec(1e-12, 1e-14))
        assert total.value == pytest.approx(1.0, abs=1e-12)


class TestGaussianPhaseLaw:
    def test_initial_peak_at_zero(self):
        dist = phase_distribution_gaussian(GROUND, GaussianAmplitude(10.0, 1.0), 0.0)
        grid = np.linspace(-0.5, 0.5, 21)
        values = [dist.evaluate(float(p)) for p in grid]
        assert grid[int(np.argmax(values))] == pytest.approx(0.0, abs=1e-12)
        assert min(values) >= 0.0

    def test_evolved_distribution_goes_negative(self):
        dist = phase_distribution_gaussian(GROUND, GaussianAmplitude(10.0, 1.0), 1.0 / SQRT3)
        values = [dist.evaluate(float(p)) for p in np.linspace(0.6, 1.6, 21)]
        assert min(values) < -0.01

    def test_narrow_width_approaches_sharp_law(self):
        sharp = phase_distribution_delta(GROUND, 1.0)
        narrow = phase_distribution_gaussian(GROUND, GaussianAmplitude(1.0, 1e-3), 1.0)
        for phi in (-1.5, -0.5, 0.3, 1.2):
            assert narrow.evaluate(phi) == pytest.approx(sharp.evaluate(phi), abs=1e-3)

    def test_negative_chi_mirrors(self):
        # p(phi; -chi t) = p(-phi; chi t)
        field = GaussianAmplitude(2.0, 0.7)
        for chi_t in (0.3, 2.5):
            neg = phase_distribution_gaussian(GROUND, field, -chi_t)
            pos = phase_distribution_gaussian(GROUND, field, chi_t)
            assert neg.support == pos.support
            for phi in np.linspace(-math.pi, math.pi, 9):
                assert neg.evaluate(float(phi)) == pos.evaluate(float(-phi))

    def test_no_adaptive_integrals(self, monkeypatch):
        seen = []
        original = model.integrate_interval

        def counting(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(model, "integrate_interval", counting)
        field = GaussianAmplitude(2.0, 0.7)
        dist = phase_distribution_gaussian(PHASE, field, 2.5)
        fm = field_marginal(HybridState(PHASE, field, 1.0, 2.5))
        for phi in (-2.0, 0.0, 1.1):
            dist.evaluate(phi)
            fm.evaluate(2.0 * cmath.exp(-1j * phi))
        assert seen == []

    def test_normalized_over_period(self):
        dist = phase_distribution_gaussian(GROUND, GaussianAmplitude(2.0, 1.0), 0.4)
        total = integrate_interval(dist.evaluate, -math.pi, math.pi, IntegrationSpec(1e-6, 1e-8))
        assert abs(total.value - 1.0) < 1e-6


class TestQuadratureDistribution:
    def test_initial_gaussian_centred_at_zero(self):
        field = GaussianAmplitude(1.0, 1.0)
        dist = quadrature_distribution(GROUND, field, 0.0)
        ref = quadrature_marginal(gaussian_wigner(1.0, 1.0), math.pi / 2.0)
        for y in (-0.8, 0.0, 0.6):
            assert dist.evaluate(y) == pytest.approx(ref.evaluate(y), abs=1e-10)

    def test_matches_field_marginal_route(self):
        field = GaussianAmplitude(1.0, 1.0)
        chi_t = 1.0 / SQRT3
        dist = quadrature_distribution(GROUND, field, chi_t, LOOSE)
        fm = field_marginal(HybridState(GROUND, field, 1.0, chi_t))
        marg = quadrature_marginal(fm, math.pi / 2.0, LOOSE)
        for y in (-0.8, 0.0, 0.9):
            assert dist.evaluate(y) == pytest.approx(marg.evaluate(y), abs=1e-8)

    def test_negative_chi_mirrors(self):
        # p(y; -chi t) = p(-y; chi t)
        field = GaussianAmplitude(2.0, 0.7)
        for chi_t in (0.3, 2.5):
            neg = quadrature_distribution(GROUND, field, -chi_t, LOOSE)
            pos = quadrature_distribution(GROUND, field, chi_t, LOOSE)
            for y in np.linspace(-3.0, 3.0, 9):
                assert neg.evaluate(float(y)) == pos.evaluate(float(-y))

    def test_full_line_normalization(self):
        dist = quadrature_distribution(GROUND, GaussianAmplitude(1.0, 1.0), 0.7, LOOSE)
        total = integrate_interval(dist.evaluate, -8.0, 8.0, IntegrationSpec(1e-7, 1e-9))
        assert abs(total.value - 1.0) < 1e-6


class TestExpectations:
    def test_sigma_z_is_population_imbalance(self):
        for field in (DeltaAmplitude(1.0), GaussianAmplitude(1.0, 1.0)):
            (moments,) = closed_moments(GROUND, field, 1.0, (1.7,))
            assert moments[ObservableSymbol.SIGMA_Z] == pytest.approx(-1.0, abs=1e-15)

    def test_superposition_sharp_field_displays(self):
        r0 = 1.0
        chi_ts = (0.4, 1.0, 3.0)
        for chi_t, moments in zip(chi_ts, closed_moments(PHASE, DeltaAmplitude(r0), 1.0, chi_ts)):
            kappa = SQRT3 * chi_t
            adag = moments[ObservableSymbol.ADAG]
            assert adag == pytest.approx(r0 * math.sin(kappa) / kappa, abs=1e-14)
            sma = moments[ObservableSymbol.SIGMA_MINUS_ADAG]
            display = (
                cmath.exp(-2j * chi_t * r0 * r0)
                / chi_t**2
                * r0
                * (math.sin(kappa) / kappa - math.cos(kappa))
            )
            assert sma / display == pytest.approx(0.5, abs=1e-12)

    def test_raising_moment_field_profile_independent(self):
        chi_ts = (0.5, 2.0)
        for sharp, broad in zip(
            closed_moments(PHASE, DeltaAmplitude(1.5), 1.0, chi_ts),
            closed_moments(PHASE, GaussianAmplitude(1.5, 1.0), 1.0, chi_ts),
        ):
            a = sharp[ObservableSymbol.ADAG]
            b = broad[ObservableSymbol.ADAG]
            assert a == pytest.approx(b, abs=1e-8)

    @pytest.mark.parametrize("field", [DeltaAmplitude(1.0), GaussianAmplitude(1.0, 1.0)])
    @pytest.mark.parametrize("obs", list(ObservableSymbol))
    def test_closed_matches_quadrature(self, field, obs):
        atom = SpinHalfState((0.6, -0.3, 0.5))
        closed = closed_moments(atom, field, 1.0, (0.8,))[0][obs]
        quad = expectation_quadrature(HybridState(atom, field, 1.0, 0.8), obs)
        assert closed == pytest.approx(quad, abs=2e-10)

    def test_superposition_gaussian_coherence(self):
        # closed display with the width-dependent drag factor
        r0, sigma, chi = 1.0, 1.0, 1.0
        times = (0.3, 1.1)
        for t, moments in zip(times, closed_moments(PHASE, GaussianAmplitude(r0, sigma), chi, times)):
            denom = 1.0 + 1j * chi * sigma * sigma * t
            display = cmath.exp(-2j * chi * r0 * r0 * t / denom) / denom
            sm = moments[ObservableSymbol.SIGMA_MINUS]
            assert sm / display == pytest.approx(0.5, abs=1e-12)


def _per_u_atom_trapezoid(s, u, m, n=32):
    """The atomic azimuth trapezoid rebuilt on a numpy grid for each u."""
    sx, sy, sz = s
    st = math.sqrt(max(0.0, 1.0 - u * u))
    grid = np.arange(n) * (2.0 * math.pi / n)
    w = (1.0 + SQRT3 * (sx * st * np.cos(grid) + sy * st * np.sin(grid) + sz * u)) / (
        4.0 * math.pi
    )
    return complex((w * np.exp(-1j * m * grid)).sum() * (2.0 * math.pi / n))


def _nested_quadrature(state, obs, spec):
    """Gaussian-field quadrature route with the radial integral rerun at every u."""
    s = state.atom.s
    chi, t, kappa = state.chi, state.t, state.kappa
    m_a, m_f, g_theta = obs.m_atom, obs.m_field, obs.polar
    atom_row = model._atom_azimuthal(s, m_a)

    field = state.field
    r_lo, r_hi = field.radial_bounds()
    n_phi = model._n_phi(4.0 * r_hi * field.r0 / (field.sigma * field.sigma))
    field_row = model._field_azimuthal_table(field, m_f, n_phi)

    def outer(u):
        def radial(r):
            h = r if m_f != 0 else 1.0
            return r * h * field_row(r) * cmath.exp(-2j * m_a * chi * r * r * t)

        inner = integrate_interval(radial, r_lo, r_hi, spec).value
        return atom_row(u) * g_theta(u) * cmath.exp(-1j * m_f * kappa * u) * inner

    return integrate_interval(outer, -1.0, 1.0, spec).value


class TestQuadratureRoute:
    ATOM = SpinHalfState((0.6, -0.3, 0.5))

    @pytest.mark.parametrize("chi", [1.0, -0.7])
    @pytest.mark.parametrize("obs", list(ObservableSymbol))
    def test_radial_integral_once_equals_nested(self, obs, chi):
        state = HybridState(self.ATOM, GaussianAmplitude(1.5, 0.8), chi, 0.9)
        assert expectation_quadrature(state, obs, LOOSE) == _nested_quadrature(
            state, obs, LOOSE
        )

    def test_factorised_atom_trapezoid(self):
        states = [(0.0, 0.0, 0.0), (0.6, -0.3, 0.5), (1.0, 0.0, 0.0), (-0.2, 0.7, -0.68)]
        for s in states:
            for m in (0, 1):
                row = model._atom_azimuthal(s, m)
                for u in np.linspace(-1.0, 1.0, 41):
                    u = float(u)
                    assert abs(row(u) - _per_u_atom_trapezoid(s, u, m)) <= 1e-15

    @pytest.mark.parametrize(
        "field, calls", [(GaussianAmplitude(1.0, 1.0), 2), (DeltaAmplitude(1.0), 1)]
    )
    def test_integral_calls_per_expectation(self, field, calls, monkeypatch):
        seen = []
        original = model.integrate_interval

        def counting(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(model, "integrate_interval", counting)
        state = HybridState(self.ATOM, field, 1.0, 0.8)
        expectation_quadrature(state, ObservableSymbol.SIGMA_MINUS_ADAG)
        assert len(seen) == calls

    # the field-azimuth trapezoid aliased at all six with 2048 points
    @pytest.mark.parametrize(
        "r0, sigma",
        [(10.0, 0.03), (10.0, 0.01), (10.0, 1e-3), (1.0, 1e-3), (3.0, 0.01), (30.0, 0.1)],
    )
    def test_narrow_field_matches_closed(self, r0, sigma):
        field = GaussianAmplitude(r0, sigma)
        closed = closed_moments(PHASE, field, 1.0, (0.5,))[0][ObservableSymbol.ADAG]
        quad = expectation_quadrature(HybridState(PHASE, field, 1.0, 0.5), ObservableSymbol.ADAG)
        assert quad == pytest.approx(closed, rel=1e-9)

    def test_field_azimuth_cap_raises(self):
        assert model._n_phi(1e30) > model.MAX_FIELD_AZIMUTH_POINTS
        state = HybridState(PHASE, GaussianAmplitude(10.0, 1e-5), 1.0, 0.5)
        with pytest.raises(ValueError, match="sigma = 1e-05 at r0 = 10.0"):
            expectation_quadrature(state, ObservableSymbol.ADAG)


def _closed_reference(atom, field, chi, t):
    """One time point of the closed route, with j0, j1, j2 taken one kappa at a time."""
    sx, sy, sz = atom.s
    kappa = SQRT3 * chi * t
    j0, j1, j2 = model._spherical_bessel(3, [abs(kappa)])[:, 0].tolist()
    if kappa < 0.0:
        j1 = -j1
    mean_alpha, f0, f1 = _field_factors(field, chi, t)
    return {
        ObservableSymbol.A: mean_alpha * (j0 - 1j * SQRT3 * sz * j1),
        ObservableSymbol.ADAG: mean_alpha.conjugate() * (j0 + 1j * SQRT3 * sz * j1),
        ObservableSymbol.SIGMA_Z: complex(sz),
        ObservableSymbol.SIGMA_MINUS: 0.5 * complex(sx, -sy) * f0,
        ObservableSymbol.SIGMA_MINUS_ADAG: 0.5 * complex(sx, -sy) * (j0 + j2) * f1,
        ObservableSymbol.SIGMA_Z_A: mean_alpha * (-1j * SQRT3 * j1 + sz * (j0 - 2.0 * j2)),
    }


class TestClosedMoments:
    ATOM = SpinHalfState((0.6, -0.3, 0.5))
    # kappa = 0, 0 < |kappa| < 1, 1 < |kappa| < 2 and |kappa| > 2 for both chi
    TIMES = (0.0, 0.3, 1.0, 3.0)

    @pytest.mark.parametrize("field", [DeltaAmplitude(1.3, 0.4), GaussianAmplitude(1.3, 0.7)])
    @pytest.mark.parametrize("chi", [1.0, -0.7])
    def test_matches_scalar_reference_exactly(self, field, chi):
        moments = closed_moments(self.ATOM, field, chi, self.TIMES)
        assert len(moments) == len(self.TIMES)
        for t, values in zip(self.TIMES, moments):
            reference = _closed_reference(self.ATOM, field, chi, t)
            (one_time,) = closed_moments(self.ATOM, field, chi, (t,))
            for obs in ObservableSymbol:
                assert values[obs] == reference[obs]
                assert one_time[obs] == reference[obs]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            closed_moments(GROUND, DeltaAmplitude(1.0), 1.0, (0.0, -1.0))

    def test_subnormal_kappa_is_finite(self):
        for field in (DeltaAmplitude(1.3, 0.4), GaussianAmplitude(1.3, 0.7)):
            moments = closed_moments(self.ATOM, field, 1.0, (0.0, 1e-313, 1e-300))
            for values in moments[1:]:
                for obs in ObservableSymbol:
                    assert values[obs] == pytest.approx(moments[0][obs], abs=1e-15)


class TestCorrelation:
    def test_zero_at_t0(self):
        for field in (DeltaAmplitude(1.0), GaussianAmplitude(1.0, 1.0)):
            (moments,) = closed_moments(PHASE, field, 1.0, (0.0,))
            for pair in (
                (ObservableSymbol.SIGMA_Z, ObservableSymbol.A),
                (ObservableSymbol.SIGMA_MINUS, ObservableSymbol.ADAG),
            ):
                assert abs(moment_correlation(moments, *pair)) < 1e-14

    def test_ground_sharp_field_decays_like_inverse_time(self):
        times = (5.0, 10.0, 20.0, 40.0)
        values = [
            abs(moment_correlation(moments, ObservableSymbol.SIGMA_Z, ObservableSymbol.A)) * t
            for t, moments in zip(times, closed_moments(GROUND, DeltaAmplitude(1.0), 1.0, times))
        ]
        assert max(values) < 3.0 * max(values[0], 0.1)

    def test_same_sector_pairs_rejected(self):
        (moments,) = closed_moments(PHASE, DeltaAmplitude(1.0), 1.0, (1.0,))
        with pytest.raises(ValueError):
            moment_correlation(moments, ObservableSymbol.SIGMA_Z, ObservableSymbol.SIGMA_MINUS)
        with pytest.raises(ValueError):
            moment_correlation(moments, ObservableSymbol.A, ObservableSymbol.ADAG)
        with pytest.raises(ValueError):
            moment_correlation(moments, ObservableSymbol.SIGMA_Z, ObservableSymbol.ADAG)


class TestSemiclassical:
    def test_ground_atom_invariant_under_both_variants(self):
        wq = spin_wigner(GROUND)
        for mean_field in (False, True):
            W = semiclassical_standard(GROUND, GaussianAmplitude(1.0, 1.0), 1.0, 2.0, mean_field)
            for theta, phi in ((0.2, 0.0), (1.4, 3.0)):
                pt = BlochPoint(theta, phi)
                assert W(pt) == pytest.approx(wq(pt), abs=1e-12)

    def test_sharp_field_variants_coincide(self):
        field = DeltaAmplitude(1.3)
        a = semiclassical_standard(PHASE, field, 1.0, 0.9, mean_field=False)
        b = semiclassical_standard(PHASE, field, 1.0, 0.9, mean_field=True)
        for theta, phi in ((0.5, 1.0), (2.0, 4.5)):
            pt = BlochPoint(theta, phi)
            assert a(pt) == pytest.approx(b(pt), abs=1e-13)

    def test_mean_field_rotation_uses_width_corrected_intensity(self):
        r0, sigma, chi, t = 2.0, 0.5, 1.0, 0.7
        W = semiclassical_standard(PHASE, GaussianAmplitude(r0, sigma), chi, t, mean_field=True)
        shift = 2.0 * chi * (r0 * r0 + 0.5 * sigma * sigma) * t
        for theta, phi in ((0.9, 0.3), (1.7, 5.1)):
            ref = (1.0 + SQRT3 * math.sin(theta) * math.cos(phi - shift)) / (4.0 * math.pi)
            assert W(BlochPoint(theta, phi)) == pytest.approx(ref, abs=1e-13)

    def test_semiclassical_inversion_amplitude_correlation_vanishes(self):
        field = GaussianAmplitude(1.0, 1.0)
        for moments in semiclassical_moments(GROUND, field, 1.0, (0.5, 3.0)):
            sza = moments[ObservableSymbol.SIGMA_Z_A]
            sz = moments[ObservableSymbol.SIGMA_Z]
            a = moments[ObservableSymbol.A]
            assert abs(sza - sz * a) < 1e-14

    @pytest.mark.parametrize("field", [DeltaAmplitude(1.3, 0.4), GaussianAmplitude(1.3, 0.7)])
    @pytest.mark.parametrize("mean_field", [False, True])
    def test_moments_match_scalar_expressions_exactly(self, field, mean_field):
        atom, chi, times = SpinHalfState((0.6, -0.3, 0.5)), -0.7, (0.0, 0.3, 2.0)
        moments = semiclassical_moments(atom, field, chi, times, mean_field)
        assert len(moments) == len(times)
        for t, values in zip(times, moments):
            reference = _semiclassical_reference(atom, field, chi, t, mean_field)
            assert set(values) == set(ObservableSymbol)
            for obs in ObservableSymbol:
                assert values[obs] == reference[obs]


def _semiclassical_reference(atom, field, chi, t, mean_field):
    """The former one-observable scalar expressions of the frozen-field models."""
    sx, sy, sz = atom.s
    mean_alpha = field.mean_amplitude
    if mean_field:
        f0 = cmath.exp(-2j * chi * field.mean_intensity * t)
        f1 = mean_alpha.conjugate() * f0
    else:
        _, f0, f1 = _field_factors(field, chi, t)
    return {
        ObservableSymbol.A: mean_alpha,
        ObservableSymbol.ADAG: mean_alpha.conjugate(),
        ObservableSymbol.SIGMA_Z: complex(sz),
        ObservableSymbol.SIGMA_MINUS: 0.5 * complex(sx, -sy) * f0,
        ObservableSymbol.SIGMA_MINUS_ADAG: 0.5 * complex(sx, -sy) * f1,
        ObservableSymbol.SIGMA_Z_A: complex(sz) * mean_alpha,
    }


class TestPFunction:
    def test_matches_sharp_phase_law(self):
        for atom in (GROUND, PHASE):
            for chi_t in (0.5, 2.0):
                p = atomic_pfunction(atom, chi_t)
                ref = phase_distribution_delta(atom, chi_t)
                for d in np.linspace(-SQRT3 * chi_t, SQRT3 * chi_t, 23):
                    assert p.evaluate(float(d)) == ref.evaluate(float(d))

    def test_normalized(self):
        p = atomic_pfunction(GROUND, 1.0)
        lo, hi = p.support
        assert integrate_interval(p.evaluate, lo, hi).value == pytest.approx(1.0, abs=1e-12)

    def test_moment_reconstruction(self):
        r0 = 1.3
        chi_ts = (0.5, 2.0)
        for chi_t, moments in zip(chi_ts, closed_moments(GROUND, DeltaAmplitude(r0), 1.0, chi_ts)):
            p = atomic_pfunction(GROUND, chi_t)
            lo, hi = p.support
            rebuilt = r0 * integrate_interval(
                lambda d: p.evaluate(d) * cmath.exp(1j * d), lo, hi
            ).value
            direct = moments[ObservableSymbol.ADAG]
            assert rebuilt == pytest.approx(direct, abs=1e-10)

    def test_negative_chi_moment_reconstruction(self):
        # the mirrored law agrees with the closed route, where j1 is odd in kappa
        r0 = 1.3
        times = (0.5, 2.0)
        for t, moments in zip(times, closed_moments(GROUND, DeltaAmplitude(r0), -1.0, times)):
            p = atomic_pfunction(GROUND, -t)
            lo, hi = p.support
            rebuilt = r0 * integrate_interval(
                lambda d: p.evaluate(d) * cmath.exp(1j * d), lo, hi
            ).value
            direct = moments[ObservableSymbol.ADAG]
            assert rebuilt == pytest.approx(direct, abs=1e-10)


def test_symbol_factorization():
    pt = BlochPoint(0.8, 1.9)
    alpha = 0.7 - 0.2j
    sm = ObservableSymbol.SIGMA_MINUS
    adag = ObservableSymbol.ADAG
    sma = ObservableSymbol.SIGMA_MINUS_ADAG
    assert sma.symbol(pt, alpha) == sm.symbol(pt, alpha) * adag.symbol(pt, alpha)
    sz = ObservableSymbol.SIGMA_Z
    a = ObservableSymbol.A
    sza = ObservableSymbol.SIGMA_Z_A
    assert sza.symbol(pt, alpha) == sz.symbol(pt, alpha) * a.symbol(pt, alpha)
    assert sz.symbol(pt, alpha) == pytest.approx(SQRT3 * math.cos(0.8))
    assert sm.symbol(pt, alpha) == pytest.approx(
        0.5 * SQRT3 * math.sin(0.8) * cmath.exp(-1.9j)
    )
