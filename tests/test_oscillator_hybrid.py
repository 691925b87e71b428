import cmath
import math

import numpy as np
import pytest

from hybridwigner.quadrature import IntegrationSpec, integrate_plane
from hybridwigner.cartesian_wigner import fock_wigner, gaussian_wigner
from hybridwigner.oscillator_hybrid import (
    CouplingParams,
    OscillatorPair,
    alpha_marginal,
    beta_marginal,
    evolve_pair_wigner,
    flow_matrix,
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
            assert joint.evaluate(a, b) == pytest.approx(
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
            assert joint.evaluate(a, b) == pytest.approx(ref, rel=1e-12)

    def test_normalization_at_generic_time(self):
        W_c = gaussian_wigner(0.0, 1.0)
        W_q = fock_wigner(1)
        joint = evolve_pair_wigner(W_c, W_q, PARAMS, 0.6)
        spec = IntegrationSpec(1e-6, 1e-8)

        def beta_slice(alpha):
            return integrate_plane(
                lambda b: joint.evaluate(alpha, b), 0j, 2.5, IntegrationSpec(1e-7, 1e-9)
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

    def test_quadrature_path_agrees_with_fast_path(self):
        W_c = gaussian_wigner(0.0, 1.0)
        W_q = fock_wigner(1)
        tau = PARAMS.swap_time
        fast = alpha_marginal(W_c, W_q, PARAMS, tau)
        quad = alpha_marginal(
            W_c, W_q, PARAMS, tau, IntegrationSpec(1e-9, 1e-11), method="quadrature"
        )
        for z in (0j, 0.5 + 0.2j, -1.0j):
            assert quad.evaluate(z) == pytest.approx(fast.evaluate(z), abs=1e-9)

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
        marg = alpha_marginal(W_c, W_q, PARAMS, 0.4, IntegrationSpec(1e-7, 1e-9))
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
