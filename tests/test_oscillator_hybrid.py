import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridwigner.quadrature import IntegrationSpec, integrate_plane
from hybridwigner.cartesian_wigner import PhaseSpaceFunction, fock_wigner, gaussian_wigner
from hybridwigner.oscillator_hybrid import (
    CouplingParams,
    OscillatorPair,
    alpha_marginal,
    beta_marginal,
    evolve_pair_wigner,
    flow_matrix,
    marginal_quadrature,
    nonclassical_transfer_check,
    nonquantum_transfer_check,
    pair_flow,
)

PARAMS = CouplingParams(1.0)


class TestFlow:
    def test_identity_at_t0(self):
        g = OscillatorPair(0.3 + 0.4j, -0.7 + 0.2j)
        out = pair_flow(g, PARAMS, 0.0)
        assert out.alpha == g.alpha and out.beta == g.beta

    def test_swap_at_quarter_period(self):
        g = OscillatorPair(0.3 + 0.4j, -0.7 + 0.2j)
        tau = PARAMS.swap_time
        out = pair_flow(g, PARAMS, tau)
        rot = -1j * cmath.exp(-1j * tau)
        assert out.alpha == pytest.approx(rot * g.beta, abs=1e-14)
        assert out.beta == pytest.approx(rot * g.alpha, abs=1e-14)

    def test_energy_conserved(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            g = OscillatorPair(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            t = float(rng.uniform(0.0, 20.0))
            out = pair_flow(g, PARAMS, t)
            e0 = abs(g.alpha) ** 2 + abs(g.beta) ** 2
            e1 = abs(out.alpha) ** 2 + abs(out.beta) ** 2
            assert e1 == pytest.approx(e0, rel=1e-13)

    def test_one_parameter_group(self):
        for t1, t2 in ((0.3, 1.1), (2.0, -0.7), (5.0, 5.0)):
            prod = flow_matrix(PARAMS, t1) @ flow_matrix(PARAMS, t2)
            assert np.max(np.abs(prod - flow_matrix(PARAMS, t1 + t2))) < 1e-14

    def test_flow_linearity(self):
        g1 = OscillatorPair(0.2 + 0.1j, 0.4 - 0.3j)
        g2 = OscillatorPair(-0.5j, 0.9)
        t = 0.8
        a = pair_flow(g1, PARAMS, t)
        b = pair_flow(g2, PARAMS, t)
        summed = pair_flow(
            OscillatorPair(g1.alpha + g2.alpha, g1.beta + g2.beta), PARAMS, t
        )
        assert summed.alpha == pytest.approx(a.alpha + b.alpha, abs=1e-15)
        assert summed.beta == pytest.approx(a.beta + b.beta, abs=1e-15)

    def test_matches_diagonalized_system(self):
        # normal modes (alpha +/- beta)/sqrt(2) rotate at frequencies 1 +/- lam
        lam, t = 0.7, 1.3
        params = CouplingParams(lam)
        U = flow_matrix(params, t)
        plus = cmath.exp(-1j * (1.0 + lam) * t)
        minus = cmath.exp(-1j * (1.0 - lam) * t)
        ref = 0.5 * np.array(
            [[plus + minus, plus - minus], [plus - minus, plus + minus]], dtype=complex
        )
        assert np.max(np.abs(U - ref)) < 1e-14


class TestJointDensity:
    def test_t0_product(self):
        W_c = gaussian_wigner(0.5, 1.0)
        W_q = fock_wigner(1)
        joint = evolve_pair_wigner(W_c, W_q, PARAMS, 0.0)
        for a, b in ((0.1 + 0.2j, -0.3j), (1.0, 0.5 + 0.5j)):
            assert joint(a, b) == pytest.approx(
                W_c.evaluate(a) * W_q.evaluate(b), rel=1e-12
            )

    def test_swap_time_closed_form(self):
        W_c = gaussian_wigner(0.0, 0.5)
        W_q = fock_wigner(1)
        tau = PARAMS.swap_time
        joint = evolve_pair_wigner(W_c, W_q, PARAMS, tau)
        rot = 1j * cmath.exp(1j * tau)
        for a, b in ((0.4 - 0.1j, 0.2j), (0.0, 1.0)):
            ref = W_c.evaluate(rot * b) * W_q.evaluate(rot * a)
            assert joint(a, b) == pytest.approx(ref, rel=1e-12)

    def test_inverse_flow_products_unchanged(self):
        # the closure reads U^-1's entries once as Python complex; each product
        # must equal the one formed with numpy's complex128 entries, bit for bit
        W_c = gaussian_wigner(0.3 - 0.2j, 1.0)
        W_q = fock_wigner(2)
        rng = np.random.default_rng(7)
        for t in (0.6, 2.3, -1.1):
            joint = evolve_pair_wigner(W_c, W_q, PARAMS, t)
            Uinv = flow_matrix(PARAMS, -t)
            for a_re, a_im, b_re, b_im in rng.normal(scale=1.5, size=(2000, 4)):
                alpha, beta = complex(a_re, a_im), complex(b_re, b_im)
                a0 = Uinv[0, 0] * alpha + Uinv[0, 1] * beta
                b0 = Uinv[1, 0] * alpha + Uinv[1, 1] * beta
                assert joint(alpha, beta) == W_c.evaluate(a0) * W_q.evaluate(b0)

    def test_normalization_at_generic_time(self):
        W_c = gaussian_wigner(0.0, 1.0)
        W_q = fock_wigner(1)
        joint = evolve_pair_wigner(W_c, W_q, PARAMS, 0.6)
        spec = IntegrationSpec(1e-6, 1e-8)

        def beta_slice(alpha):
            return integrate_plane(
                lambda b: joint(alpha, b), 0j, 2.5, IntegrationSpec(1e-7, 1e-9)
            ).value

        total = integrate_plane(beta_slice, 0j, 2.5, spec)
        assert abs(total.value - 1.0) < 1e-6


class TestMarginals:
    def test_swap_marginal_equals_rotated_initial_on_grid(self):
        W_c = gaussian_wigner(0.0, 1.0)
        W_q = fock_wigner(1)
        tau = PARAMS.swap_time
        marg = alpha_marginal(W_c, W_q, PARAMS, tau)
        f1 = fock_wigner(1)
        for x in np.linspace(-1.5, 1.5, 21):
            for y in np.linspace(-1.5, 1.5, 21):
                z = complex(x, y)
                assert marg.evaluate(z) == pytest.approx(f1.evaluate(z), abs=1e-8)

    # t = pi/4 at sigma_c = 1 is the q = 0 point: c sigma_c = s there
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("sigma_c", [1.0, 0.5])
    @pytest.mark.parametrize("t", [0.4, 1.1, math.pi / 4])
    @pytest.mark.parametrize("center", [0j, 0.3 - 0.2j])
    def test_quadrature_path_agrees_with_fast_path(self, n, sigma_c, t, center):
        W_c = gaussian_wigner(center, sigma_c)
        W_q = fock_wigner(n)
        spec = IntegrationSpec(1e-10, 1e-12)
        for closed, keep_alpha in ((alpha_marginal, True), (beta_marginal, False)):
            fast = closed(W_c, W_q, PARAMS, t)
            quad = marginal_quadrature(W_c, W_q, PARAMS, t, keep_alpha, spec)
            for z in (0j, 0.5 + 0.2j, -1.0j, 0.9 - 0.7j):
                assert abs(quad.evaluate(z) - fast.evaluate(z)) < 1e-12

    def test_swap_quadrature_agrees_with_closed_form(self):
        W_c = gaussian_wigner(0.0, 1.0)
        W_q = fock_wigner(1)
        tau = PARAMS.swap_time
        fast = alpha_marginal(W_c, W_q, PARAMS, tau)
        quad = marginal_quadrature(W_c, W_q, PARAMS, tau, True, IntegrationSpec(1e-9, 1e-11))
        for z in (0j, 0.5 + 0.2j, -1.0j):
            assert quad.evaluate(z) == pytest.approx(fast.evaluate(z), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 3),
        sigma_g=st.floats(0.2, 2.0),
        t=st.floats(0.0, 2.0 * math.pi),
        center=st.complex_numbers(max_magnitude=2.0),
        keep_alpha=st.booleans(),
        fock_classical=st.booleans(),
    )
    def test_closed_marginal_normalized(self, n, sigma_g, t, center, keep_alpha, fock_classical):
        W_g, W_f = gaussian_wigner(center, sigma_g), fock_wigner(n)
        W_c, W_q = (W_f, W_g) if fock_classical else (W_g, W_f)
        marg = (alpha_marginal if keep_alpha else beta_marginal)(W_c, W_q, PARAMS, t)
        total = integrate_plane(marg.evaluate, marg.decay_center, marg.decay_scale)
        assert abs(total.value - 1.0) < 1e-9

    def test_pairs_without_closed_form_raise(self):
        plain = PhaseSpaceFunction(fock_wigner(1).evaluate, 2.0)
        for W_c, W_q in ((fock_wigner(1), fock_wigner(2)), (gaussian_wigner(0, 1.0), plain)):
            for closed in (alpha_marginal, beta_marginal):
                with pytest.raises(TypeError, match="marginal_quadrature"):
                    closed(W_c, W_q, PARAMS, 0.4)

    def test_t0_marginals_are_the_inputs(self):
        W_c = gaussian_wigner(0.7, 0.8)
        W_q = fock_wigner(2)
        ma = alpha_marginal(W_c, W_q, PARAMS, 0.0)
        mb = beta_marginal(W_c, W_q, PARAMS, 0.0)
        for z in (0j, 0.4 - 0.6j):
            assert ma.evaluate(z) == pytest.approx(W_c.evaluate(z), rel=1e-12)
            assert mb.evaluate(z) == pytest.approx(W_q.evaluate(z), rel=1e-12)

    def test_generic_time_marginal_normalized(self):
        W_c = gaussian_wigner(0.0, 1.0)
        W_q = gaussian_wigner(0.0, 1.0)
        marg = alpha_marginal(W_c, W_q, PARAMS, 0.4)
        total = integrate_plane(marg.evaluate, 0j, 2.0, IntegrationSpec(1e-6, 1e-8))
        assert abs(total.value - 1.0) < 1e-6


class TestTransfers:
    def test_negativity_moves_to_classical_slot(self):
        report = nonclassical_transfer_check(PARAMS)
        assert report.origin_value == pytest.approx(-2.0 / math.pi, abs=1e-9)
        assert report.nonclassical
        assert abs(report.report.witness) < 0.5

    def test_classical_slot_positive_at_t0(self):
        W_c = gaussian_wigner(0.0, 1.0)
        marg = alpha_marginal(W_c, fock_wigner(1), PARAMS, 0.0)
        values = [marg.evaluate(complex(x, y)) for x in (-1, 0, 1) for y in (-1, 0, 1)]
        assert min(values) >= 0.0

    @pytest.mark.parametrize(
        "sigma,expected",
        [(0.5, -0.96), (0.8, -2.0 * 0.36 / 1.64**2), (1.0, 0.0)],
    )
    def test_nonquantumness_moves_to_quantum_slot(self, sigma, expected):
        report = nonquantum_transfer_check(sigma, PARAMS)
        assert report.excited_diag == pytest.approx(expected, abs=1e-6)
        assert report.nonquantum == (sigma < 1.0)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            nonquantum_transfer_check(0.0, PARAMS)
