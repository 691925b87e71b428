"""The pointwise Gaussian-field laws, pinned: exact values (as repr) of
``field_marginal`` and ``phase_distribution_gaussian(...).evaluate``.  Both
sum the ramp series of the initial profile at one phase with two fixed-order
reductions (``np.add.reduce`` of the products), so the values do not depend on
the BLAS kernel the CPU picks; any change in the order of their floating-point
operations moves them."""

import cmath

import pytest

from hybridwigner.hybrid_model import GaussianAmplitude, HybridState, field_marginal, phase_distribution_gaussian
from hybridwigner.su2_wigner import SpinHalfState

MIXED = SpinHalfState((0.3, -0.2, 0.4))

# (r0, sigma, chi_t) -> values at phi = -2.5, 0.0, 0.4
PHASE_PINS = {
    (10.0, 1.0, 0.0): ("-1.1102230246251565e-16", "7.978845608028655", "4.959921362512887e-13"),
    (10.0, 1.0, 0.3): ("1.1102230246251565e-16", "0.9622504486493744", "1.4614176079505985"),
    (10.0, 1.0, -5.0): ("0.11023612467657132", "0.17320508075688734", "0.16766251817266697"),
    (1.0, 0.05, 0.0): ("4.163336342344337e-16", "15.957691216057306", "7.771561172376096e-16"),
    (1.0, 0.05, 0.3): ("8.326672684688674e-17", "0.9622504486493726", "1.4754492055097246"),
    (1.0, 0.05, -5.0): ("0.10954332045211178", "0.17320508075688706", "0.1676625181726667"),
}

# (r0, sigma, chi_t) -> values at alpha = r0, r0 e^{-0.3i} + 0.1 sigma, r0 e^{2i}
MARGINAL_PINS = {
    (10.0, 1.0, 0.0): ("0.6366197723675813", "1.299978518581879e-08", "0.0"),
    (10.0, 1.0, 0.3): ("0.07680050413743028", "0.10477945672553751", "-3.469446951953614e-18"),
    (10.0, 1.0, -5.0): ("0.01382409074473745", "0.013188312034108788", "0.016035945263895183"),
    (1.0, 0.05, 0.0): ("254.6479089470326", "-2.531308496145357e-14", "-4.440892098500626e-15"),
    (1.0, 0.05, 0.3): ("15.35649558654336", "21.030295237954135", "-1.3322676295501878e-15"),
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
