"""The Gaussian-field laws, pinned: exact values (as repr) of
``phase_densities_gaussian`` on the phase-dist grid and of ``field_marginal``.
The phase law folds its series into one inverse FFT per time and the marginal
sums it at one phase with two fixed-order reductions (``np.add.reduce`` of the
products); neither calls BLAS, so the values do not depend on the kernel the
CPU picks, and any change in the order of their floating-point operations
moves them."""

import cmath

import pytest

from hybridwigner.hybrid_model import GaussianAmplitude, HybridState, field_marginal, phase_densities_gaussian
from hybridwigner.su2_wigner import SpinHalfState

MIXED = SpinHalfState((0.3, -0.2, 0.4))

# phase-dist's grid, phi_k = -pi + 2 pi k / 200, and the k pinned there:
# phi = -2.513, 0 and 0.408
PHASE_POINTS = 201
PHASE_INDICES = (20, 100, 113)

# (r0, sigma, chi_t) -> values at PHASE_INDICES
PHASE_PINS = {
    (10.0, 1.0, 0.0): ("5.551115123125783e-17", "7.978845608028655", "1.4518941604535485e-13"),
    (10.0, 1.0, 0.3): ("5.551115123125783e-17", "0.9622504486493744", "1.4643979137733234"),
    (10.0, 1.0, -5.0): ("0.10998885700475391", "0.17320508075688734", "0.16754602674047664"),
    (1.0, 0.05, 0.0): ("-1.1102230246251565e-16", "15.957691216057306", "-9.992007221626409e-16"),
    (1.0, 0.05, 0.3): ("5.551115123125783e-17", "0.9622504486493725", "1.4862295462375132"),
    (1.0, 0.05, -5.0): ("0.1096658986043928", "0.17320508075688706", "0.16754602674047633"),
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
    (row,) = phase_densities_gaussian(MIXED, GaussianAmplitude(r0, sigma), [chi_t], PHASE_POINTS)
    assert tuple(repr(row[k]) for k in PHASE_INDICES) == PHASE_PINS[r0, sigma, chi_t]


@pytest.mark.parametrize("r0, sigma, chi_t", list(MARGINAL_PINS))
def test_field_marginal_values(r0, sigma, chi_t):
    state = HybridState(MIXED, GaussianAmplitude(r0, sigma), -1.0 if chi_t < 0 else 1.0, abs(chi_t))
    fm = field_marginal(state)
    alphas = (complex(r0, 0.0), r0 * cmath.exp(-0.3j) + 0.1 * sigma, r0 * cmath.exp(2.0j))
    assert tuple(repr(fm.evaluate(alpha)) for alpha in alphas) == MARGINAL_PINS[r0, sigma, chi_t]
