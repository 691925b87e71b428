"""The sphere route, pinned: exact values (as repr) and evaluation counts of
the round trip, the trace rule and joint-density sphere slices.  The
integrands take (cos theta, sin theta, phi) from each ring; any change in the
order of their floating-point operations moves these values."""

import math

import pytest

from hybridwigner.hybrid_model import GaussianAmplitude, HybridState, ObservableSymbol, joint_wigner
from hybridwigner.quadrature import IntegrationSpec, integrate_sphere
from hybridwigner.su2_wigner import SpinHalfState, spin_wigner, su2_traciality, wigner_to_spin

MIXED_A = SpinHalfState((0.3, -0.2, 0.4))
MIXED_B = SpinHalfState((-0.1, 0.5, 0.2))
PHASE = SpinHalfState.phase_state()


@pytest.mark.parametrize(
    "state, expected",
    [
        (MIXED_A, "(0.2999999999999999, -0.2, 0.39999999999999986)"),
        (PHASE, "(0.9999999999999999, -1.0449771191489238e-17, 3.7339602624929403e-17)"),
    ],
)
def test_round_trip_values(state, expected):
    assert repr(wigner_to_spin(spin_wigner(state)).s) == expected


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (MIXED_A, MIXED_B, "0.4749999999999999"),
        (PHASE, PHASE, "0.9999999999999999"),
        (MIXED_A, SpinHalfState.ground(), "0.3"),
    ],
)
def test_trace_rule_values(a, b, expected):
    assert repr(su2_traciality(spin_wigner(a), spin_wigner(b))) == expected


def test_normalization_value_and_count():
    res = integrate_sphere(spin_wigner(MIXED_A))
    assert (repr(res.value), res.evaluations) == ("0.9999999999999999", 240)


@pytest.mark.parametrize(
    "alpha, expected, evaluations",
    [
        (0.3 + 0.2j, "0.1895125687143492", 720),
        (1.1 - 0.4j, "0.2834898469479126", 720),
        (0j, "0.08615711720739452", 240),
        (-1.3 - 0.6j, "0.0001642277756966468", 720),
    ],
)
def test_joint_sphere_slices(alpha, expected, evaluations):
    jd = joint_wigner(HybridState(PHASE, GaussianAmplitude(1.0, 1.0), 1.0, 0.7))
    res = integrate_sphere(jd(alpha), IntegrationSpec(1e-7, 1e-9))
    assert (repr(res.value), res.evaluations) == (expected, evaluations)


def test_ring_arguments():
    # one outer 15-node panel of rings of 8 + 8 points, since a zero integrand
    # converges at the first comparison
    seen = []
    integrate_sphere(lambda ct, st, phi: seen.append((ct, st, phi)) or 0.0)
    assert len(seen) == 15 * 16
    for ct, st, phi in seen:
        assert st >= 0.0 and abs(ct * ct + st * st - 1.0) < 1e-15
        assert 0.0 <= phi < 2.0 * math.pi


def test_symbols_integrate_directly():
    # <sigma_z> of the state: Integral[sqrt(3) cos(theta) W dOmega] = s_z
    w = spin_wigner(MIXED_A)
    sz = ObservableSymbol.SIGMA_Z
    assert abs(integrate_sphere(sz.atomic_symbol).value) < 1e-12
    value = integrate_sphere(lambda ct, st, phi: sz.atomic_symbol(ct, st, phi) * w(ct, st, phi)).value
    assert value == pytest.approx(MIXED_A.s[2], abs=1e-12)
