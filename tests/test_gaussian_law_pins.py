"""The pointwise Gaussian-field laws, pinned: exact values (as repr) of
``field_marginal`` and ``phase_distribution_gaussian(...).evaluate``.  Both
sum the ramp series of the initial profile at one phase with two 1-D dot
products; any change in the order of their floating-point operations moves
these values."""

import cmath

import pytest

from hybridwigner.hybrid_model import GaussianAmplitude, HybridState, field_marginal, phase_distribution_gaussian
from hybridwigner.su2_wigner import SpinHalfState

MIXED = SpinHalfState((0.3, -0.2, 0.4))

# (r0, sigma, chi_t) -> values at phi = -2.5, 0.0, 0.4
PHASE_PINS = {
    (10.0, 1.0, 0.0): ("-1.6653345369377348e-16", "7.978845608028656", "4.960476474025199e-13"),
    (10.0, 1.0, 0.3): ("5.551115123125783e-17", "0.9622504486493744", "1.4614176079505983"),
    (10.0, 1.0, -5.0): ("0.11023612467657135", "0.17320508075688734", "0.16766251817266697"),
    (1.0, 0.05, 0.0): ("5.273559366969494e-16", "15.957691216057308", "6.661338147750939e-16"),
    (1.0, 0.05, 0.3): ("8.326672684688674e-17", "0.9622504486493725", "1.4754492055097241"),
    (1.0, 0.05, -5.0): ("0.10954332045211178", "0.17320508075688706", "0.1676625181726667"),
}

# (r0, sigma, chi_t) -> values at alpha = r0, r0 e^{-0.3i} + 0.1 sigma, r0 e^{2i}
MARGINAL_PINS = {
    (10.0, 1.0, 0.0): ("0.6366197723675813", "1.2999785173675726e-08", "-1.3877787807814457e-17"),
    (10.0, 1.0, 0.3): ("0.07680050413743027", "0.10477945672553751", "-6.938893903907228e-18"),
    (10.0, 1.0, -5.0): ("0.013824090744737448", "0.01318831203410879", "0.016035945263895183"),
    (1.0, 0.05, 0.0): ("254.64790894703253", "-2.842170943040401e-14", "1.3322676295501878e-15"),
    (1.0, 0.05, 0.3): ("15.356495586543364", "21.030295237954135", "-3.1086244689504383e-15"),
    (1.0, 0.05, -5.0): ("2.764169205577805", "2.6430214007029535", "3.206436278470254"),
}


@pytest.mark.parametrize("r0, sigma, chi_t", list(PHASE_PINS))
def test_phase_law_values(r0, sigma, chi_t):
    dist = phase_distribution_gaussian(MIXED, GaussianAmplitude(r0, sigma), chi_t)
    assert tuple(repr(dist.evaluate(phi)) for phi in (-2.5, 0.0, 0.4)) == PHASE_PINS[r0, sigma, chi_t]


@pytest.mark.parametrize("r0, sigma, chi_t", list(MARGINAL_PINS))
def test_field_marginal_values(r0, sigma, chi_t):
    state = HybridState(MIXED, GaussianAmplitude(r0, sigma), -1.0 if chi_t < 0 else 1.0, abs(chi_t))
    fm = field_marginal(state)
    alphas = (complex(r0, 0.0), r0 * cmath.exp(-0.3j) + 0.1 * sigma, r0 * cmath.exp(2.0j))
    assert tuple(repr(fm.evaluate(alpha)) for alpha in alphas) == MARGINAL_PINS[r0, sigma, chi_t]
