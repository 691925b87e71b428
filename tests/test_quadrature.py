import math

import numpy as np
import pytest

from hybridwigner.quadrature import (
    BlochPoint,
    ConvergenceError,
    IntegrationSpec,
    integrate_interval,
    integrate_plane,
    integrate_sphere,
)
from hybridwigner.cartesian_wigner import fock_wigner, gaussian_wigner


def test_embedded_gauss_nodes_match_legendre():
    from hybridwigner.quadrature import _XGK

    ref = sorted(x for x in np.polynomial.legendre.leggauss(7)[0] if x > 0)
    mine = sorted([_XGK[5], _XGK[3], _XGK[1]])
    assert max(abs(a - b) for a, b in zip(ref, mine)) < 5e-16


@pytest.mark.parametrize("k", range(0, 23))
def test_polynomial_exactness(k):
    res = integrate_interval(lambda x: x**k, 0.0, 1.0)
    assert abs(res.value - 1.0 / (k + 1)) < 1e-13


def test_interval_examples():
    assert abs(integrate_interval(math.sin, 0.0, math.pi).value - 2.0) < 1e-14
    assert abs(integrate_interval(lambda u: u, -1.0, 1.0).value) < 1e-15
    ramp = integrate_interval(lambda u: (1.0 - math.sqrt(3.0) * u) / 2.0, -1.0, 1.0)
    assert abs(ramp.value - 1.0) < 1e-14


def test_interval_validation():
    with pytest.raises(ValueError):
        integrate_interval(math.sin, 1.0, 0.0)
    res = integrate_interval(math.sin, 2.0, 2.0)
    assert res.value == 0.0 and res.evaluations == 0


def test_determinism_bit_identical():
    f = lambda x: math.exp(-x * x) * math.cos(7.0 * x)
    a = integrate_interval(f, -3.0, 5.0)
    b = integrate_interval(f, -3.0, 5.0)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.evaluations == b.evaluations


@pytest.mark.parametrize("c", [0.5, -2.0, 1e3, 3.7e-4])
def test_linearity(c):
    f = lambda x: math.exp(-x) * math.sin(3.0 * x)
    base = integrate_interval(f, 0.0, 4.0).value
    scaled = integrate_interval(lambda x: c * f(x), 0.0, 4.0).value
    assert abs(scaled - c * base) <= 1e-12 * max(1.0, abs(c))


@pytest.mark.parametrize("m", [-1.0, 0.3, 1.9])
def test_splitting(m):
    f = lambda x: 1.0 / (1.0 + x * x)
    whole = integrate_interval(f, -2.0, 2.0)
    left = integrate_interval(f, -2.0, m)
    right = integrate_interval(f, m, 2.0)
    assert abs(whole.value - left.value - right.value) <= (
        whole.error_estimate + left.error_estimate + right.error_estimate + 1e-14
    )


def test_complex_integrand():
    res = integrate_interval(lambda x: complex(math.cos(x), math.sin(x)), 0.0, math.pi)
    assert abs(res.value - complex(0.0, 2.0)) < 1e-13


def test_no_convergence_carries_best_estimate():
    spec = IntegrationSpec(relative_tolerance=1e-14, absolute_tolerance=1e-300,
                           max_subdivisions=8)
    with pytest.raises(ConvergenceError) as exc_info:
        integrate_interval(lambda x: abs(x - 1.0 / 3.0) ** 0.5, 0.0, 1.0, spec)
    best = exc_info.value.best
    # true value: 2/3 * ((1/3)^1.5 + (2/3)^1.5)
    exact = 2.0 / 3.0 * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
    assert abs(best.value - exact) < 1e-3
    assert best.error_estimate > 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        IntegrationSpec(relative_tolerance=0.0)
    with pytest.raises(ValueError):
        IntegrationSpec(absolute_tolerance=-1.0)
    with pytest.raises(ValueError):
        IntegrationSpec(max_subdivisions=0)
    # a NaN tolerance would stop integrate_interval after one panel, silently
    for field in ("relative_tolerance", "absolute_tolerance"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=field):
                IntegrationSpec(**{field: value})


def test_bloch_point_normalization():
    p = BlochPoint(0.5, 7.0)
    assert 0.0 <= p.phi < 2.0 * math.pi
    assert abs(sum(c * c for c in p.unit_vector) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        BlochPoint(3.5, 0.0)


def test_sphere_constant_and_odd():
    assert abs(integrate_sphere(lambda p: 1.0 / (4.0 * math.pi)).value - 1.0) < 1e-12
    assert abs(integrate_sphere(lambda p: math.cos(p.theta) / (4.0 * math.pi)).value) < 1e-12


def test_sphere_ground_state_normalization():
    # analytic polar integral of (1 - sqrt(3) cos(theta)) / (4 pi) is 1
    f = lambda p: (1.0 - math.sqrt(3.0) * math.cos(p.theta)) / (4.0 * math.pi)
    assert abs(integrate_sphere(f).value - 1.0) < 1e-12


def test_plane_gaussian_normalization():
    for alpha0, sigma in ((0j, 1.0), (2.0 - 1.0j, 0.5), (0.3j, 2.0)):
        g = gaussian_wigner(alpha0, sigma)
        res = integrate_plane(g.evaluate, g.decay_center, g.decay_scale)
        assert abs(res.value - 1.0) < 1e-10


def test_plane_fock1_normalization():
    # oracle: radial antiderivative of (2/pi)(4 r^2 - 1) e^{-2 r^2} * 2 pi r
    # gives 4 * (1/8) + ... = 1 in closed form
    f = fock_wigner(1)
    res = integrate_plane(f.evaluate, 0j, f.decay_scale)
    assert abs(res.value - 1.0) < 1e-10


def test_plane_witness_product():
    f1 = fock_wigner(1)
    g = gaussian_wigner(0, 0.5)
    res = integrate_plane(lambda b: math.pi * f1.evaluate(b) * g.evaluate(b), 0j, 1.0)
    assert abs(res.value - (-0.96)) < 1e-9
