import cmath
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridwigner import quadrature
from hybridwigner.quadrature import (
    _XGK,
    BlochPoint,
    ConvergenceError,
    IntegrationResult,
    IntegrationSpec,
    _integrate_rows,
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


def _loop_panel(f, lo, hi):
    """The GK15 panel as a loop over the node tables, which the written-out
    panel of integrate_interval must equal bit for bit."""
    from hybridwigner.quadrature import _WG, _WGK, _XGK

    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = f(mid)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for i in range(7):
        dx = half * _XGK[i]
        s = f(mid - dx) + f(mid + dx)
        resk += _WGK[i] * s
        if i % 2 == 1:
            resg += _WG[(i - 1) // 2] * s
    resk *= half
    resg *= half
    return resk, abs(resk - resg)


@pytest.mark.parametrize("f", [lambda x: math.sqrt(abs(x)), lambda x: cmath.exp(40j * x)])
def test_panel_matches_loop_reference(f, monkeypatch):
    from hybridwigner.quadrature import _sum_ordered

    calls, reference_calls = [], []
    lo, hi = -0.3, 0.9
    # one split, then the budget runs out: three panels and the best estimate
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 1)
    spec = IntegrationSpec(1e-300, 1e-300)
    with pytest.raises(ConvergenceError) as info:
        integrate_interval(lambda x: calls.append(x) or f(x), lo, hi, spec)

    def g(x):
        reference_calls.append(x)
        return f(x)

    mid = 0.5 * (lo + hi)
    _loop_panel(g, lo, hi)
    (v1, e1), (v2, e2) = _loop_panel(g, lo, mid), _loop_panel(g, mid, hi)
    best = info.value.best
    assert calls == reference_calls
    assert best.evaluations == 45
    assert best.value == _sum_ordered([v1, v2])
    assert best.error_estimate == math.fsum([e1, e2])


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


def test_no_convergence_carries_best_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 8)
    spec = IntegrationSpec(relative_tolerance=1e-14, absolute_tolerance=1e-300)
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
    # a NaN tolerance would stop integrate_interval after one panel, silently
    for field in ("relative_tolerance", "absolute_tolerance"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=field):
                IntegrationSpec(**{field: value})


def test_bloch_point_normalization():
    p = BlochPoint(0.5, 7.0)
    assert 0.0 <= p.phi < 2.0 * math.pi
    assert abs(sum(c * c for c in p.unit_vector) - 1.0) < 1e-15
    assert p.coords == (math.cos(0.5), math.sin(0.5), 7.0 - 2.0 * math.pi)
    with pytest.raises(ValueError):
        BlochPoint(3.5, 0.0)


def test_sphere_constant_and_odd():
    assert abs(integrate_sphere(lambda ct, st, phi: 1.0 / (4.0 * math.pi)).value - 1.0) < 1e-12
    assert abs(integrate_sphere(lambda ct, st, phi: ct / (4.0 * math.pi)).value) < 1e-12


def test_sphere_ground_state_normalization():
    # analytic polar integral of (1 - sqrt(3) cos(theta)) / (4 pi) is 1
    f = lambda ct, st, phi: (1.0 - math.sqrt(3.0) * ct) / (4.0 * math.pi)
    assert abs(integrate_sphere(f).value - 1.0) < 1e-12


def test_sphere_ring_below_degree_8_is_exact_at_first_comparison():
    # harmonics 1..7 vanish on 8 and on 16 trapezoid points, so every ring
    # stops after 8 + 8 points, in one outer panel of a cubic in u
    def f(ct, st, phi):
        return (1.0 + ct**3 * math.cos(7.0 * phi) + st * math.sin(5.0 * phi) + math.cos(phi)) / (4.0 * math.pi)

    res = integrate_sphere(f)
    assert res.evaluations == 15 * 16
    assert res.value == pytest.approx(1.0, abs=1e-15)


def test_sphere_ring_blind_spot_is_harmonics_at_multiples_of_16():
    # 8 and 16 points both read cos(16 phi) as 1: the documented blind spot
    res = integrate_sphere(lambda ct, st, phi: math.cos(16.0 * phi))
    assert res.evaluations == 15 * 16
    assert res.value == pytest.approx(4.0 * math.pi, rel=1e-14)


def test_sphere_ring_doubles_on_nodes_in_one_period():
    # cos(40 phi) reads 2 pi on 8 points, 0 on 16 and 0 on 32: each ring doubles twice
    rings = {}
    res = integrate_sphere(lambda ct, st, phi: rings.setdefault(ct, []).append(phi) or math.cos(40.0 * phi))
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.evaluations == 15 * 32
    assert len(rings) == 15
    for phis in rings.values():
        assert sorted(phis) == [k * (2.0 * math.pi / 32) for k in range(32)]
        assert all(0.0 <= phi < 2.0 * math.pi for phi in phis)


def test_sphere_ring_with_a_jump_raises_naming_u():
    # the sawtooth phi jumps at 0 = 2 pi: levels N and 2N differ by pi^2 / N
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match=r"azimuthal ring at u = -?0\.\d+") as info:
        integrate_sphere(lambda ct, st, phi: phi)
    assert time.perf_counter() - start < 1.0
    best = info.value.best
    assert best.evaluations == 1 << 16
    assert best.value == pytest.approx(2.0 * math.pi**2, rel=1e-4)
    assert best.error_estimate == pytest.approx(math.pi**2 / (1 << 15), rel=1e-6)


@pytest.mark.parametrize("f", [lambda x: -0.0, lambda x: 1.0 - x * x, lambda x: complex(-0.0, x)])
def test_first_panel_return_matches_the_heap_route(f):
    # one panel meets the tolerance: the value and error are the one-term
    # sums of the general route, which map -0.0 to 0.0
    from hybridwigner.quadrature import _sum_ordered

    res = integrate_interval(f, -0.5, 1.0)
    value, err = _loop_panel(f, -0.5, 1.0)
    assert res.evaluations == 15
    assert repr(res.value) == repr(_sum_ordered([value]))
    assert repr(res.error_estimate) == repr(math.fsum([err]))
    assert repr(res.value).lstrip("(")[0] != "-"


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


def test_interval_refuses_nan_at_the_first_panel():
    with pytest.raises(ConvergenceError, match=r"nan estimate on \[0\.0, 1\.0\]") as info:
        integrate_interval(lambda x: math.nan, 0.0, 1.0)
    assert info.value.best.evaluations == 15
    assert math.isnan(info.value.best.value)


def test_interval_refuses_nan_met_after_a_split():
    # the kink needs a split; x = 0.25 is no node of [0, 1] but the centre of [0, 0.5]
    f = lambda x: math.nan if x == 0.25 else math.sqrt(abs(x - 0.3))
    with pytest.raises(ConvergenceError, match=r"nan estimate on \[0\.0, 1\.0\]") as info:
        integrate_interval(f, 0.0, 1.0)
    assert info.value.best.evaluations == 45


def test_interval_refuses_inf_at_the_first_panel():
    # a Kronrod-only node: the Gauss sum skips it, so the error is inf, not NaN
    from hybridwigner.quadrature import _XGK

    f = lambda x: math.inf if x == 0.5 + 0.5 * _XGK[0] else 1.0
    with pytest.raises(ConvergenceError, match=r"infinite estimate on \[0\.0, 1\.0\]") as info:
        integrate_interval(f, 0.0, 1.0)
    assert info.value.best.evaluations == 15
    assert info.value.best.value == math.inf


def test_interval_refuses_inf_met_after_a_split():
    # the kink needs a split; the inf sits on a Kronrod-only node of [0, 0.5]
    from hybridwigner.quadrature import _XGK

    f = lambda x: math.inf if x == 0.25 + 0.25 * _XGK[0] else math.sqrt(abs(x - 0.3))
    with pytest.raises(ConvergenceError, match=r"infinite estimate on \[0\.0, 1\.0\]") as info:
        integrate_interval(f, 0.0, 1.0)
    assert info.value.best.evaluations == 45
    assert info.value.best.value == math.inf


def test_plane_refuses_nan_at_its_first_ring():
    with pytest.raises(ConvergenceError, match=r"nan estimate on \[0\.0, 6\.28") as info:
        integrate_plane(lambda a: math.nan, 0j, 1.0)
    assert info.value.best.evaluations == 15


def test_sphere_refuses_a_nan_ring_at_its_first_comparison():
    calls = []
    with pytest.raises(ConvergenceError, match=r"azimuthal ring at u = -?0\.\d+ gave a nan estimate with 16 points"):
        integrate_sphere(lambda ct, st, phi: calls.append(phi) or math.nan)
    assert len(calls) == 16


@pytest.mark.parametrize("theta, clamped", [(-1e-13, 0.0), (math.pi + 1e-13, math.pi)])
def test_bloch_point_clamps_overshoot_at_the_poles(theta, clamped):
    assert BlochPoint(theta, 0.0).theta == clamped


def test_panel_that_cannot_be_refined_raises_naming_it():
    # a jump at 1/3 never meets a tolerance of 1e-300: bisection narrows its
    # panel to the width floor
    jump = lambda x: 0.0 if x < 1.0 / 3.0 else 1.0
    with pytest.raises(ConvergenceError, match=r"panel \[0\.333\d*, 0\.333\d*\] cannot be refined further") as info:
        integrate_interval(jump, 0.0, 1.0, IntegrationSpec(1e-300, 1e-300))
    assert info.value.best.value == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_negative_error_estimate_refused():
    with pytest.raises(ValueError, match="error_estimate must be non-negative"):
        IntegrationResult(1.0, -1e-300, 15)


def _row_family(params):
    """A vectorised integrand f(x, rows) over rows (kind, p, q): 0 a Gaussian
    bump at p of width q (math.exp per node), 1 the wave sin(p x) + q, 2 the
    line p + q x (exact on the first panel), 3 a jump from 0 to 1 at p, 4 NaN
    past x = p and else the bump at 0 of width q, 5 inf at the Kronrod-only
    node -_XGK[0] of [-1, 1].  Row r's
    scalar integrand is f at one node, so both routes see the same bits."""
    kind, p, q = (np.array(column)[:, None] for column in zip(*params))

    def f(x, rows):
        k, pp, qq = kind[rows], p[rows], q[rows]
        with np.errstate(all="ignore"):  # q = 0 off the bump rows, or tiny
            z = -((x - pp) / qq) ** 2
            centred = -((x / qq) ** 2)
        bump, centred = (
            np.fromiter(map(math.exp, v.ravel().tolist()), float, v.size).reshape(v.shape) for v in (z, centred)
        )
        forms = [bump, np.sin(pp * x) + qq, pp + qq * x, np.where(x < pp, 0.0, 1.0)]
        forms += [np.where(x > pp, math.nan, centred), np.where(x == -_XGK[0], math.inf, 1.0)]
        return np.select([k == m for m in range(len(forms))], forms)

    def scalar(r):
        return lambda x: float(f(np.array([[x]]), np.array([r]))[0, 0])

    return f, scalar


_ROWS = st.lists(
    st.one_of(
        st.tuples(st.just(0), st.floats(-1.0, 1.0), st.floats(0.02, 1.0)),
        st.tuples(st.just(1), st.floats(0.0, 80.0), st.floats(-1.0, 1.0)),
        st.tuples(st.just(2), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(
    _ROWS,
    st.floats(-2.0, 0.5),
    st.floats(0.1, 3.0),
    st.sampled_from([IntegrationSpec(), IntegrationSpec(1e-8, 1e-10), IntegrationSpec(1e-13, 1e-15)]),
)
def test_rows_in_lockstep_equal_one_integral_each(params, a, width, spec):
    f, scalar = _row_family(params)
    b = a + width
    for r, res in enumerate(_integrate_rows(f, len(params), a, b, spec)):
        ref = integrate_interval(scalar(r), a, b, spec)
        assert res.value == ref.value
        assert res.error_estimate == ref.error_estimate
        assert res.evaluations == ref.evaluations


@pytest.mark.parametrize(
    "budget, params, spec",
    [
        (1, [(2, 0.5, 0.1), (0, 0.0, 0.05), (1, 40.0, 0.0), (2, 1.0, 0.0)], IntegrationSpec()),
        # row 2 refuses at the first panel, but row 1 comes first in row order
        (8, [(0, 0.0, 0.5), (0, 0.3, 0.05), (4, 0.5, 0.5), (0, -0.5, 0.02)], IntegrationSpec()),
        # the NaN past 0.995 is first met after a split
        (1 << 16, [(0, 0.2, 0.3), (2, 1.0, 1.0), (4, 0.995, 0.05), (0, 0.0, 0.02)], IntegrationSpec()),
        (1 << 16, [(2, 0.0, 1.0), (5, 0.0, 0.0), (4, -2.0, 0.5)], IntegrationSpec()),
        # bisection narrows both jumps to the width floor
        (1 << 16, [(3, 1.0 / 3.0, 0.0), (3, 0.2, 0.0)], IntegrationSpec(1e-300, 1e-300)),
    ],
    ids=["maxsub-1", "maxsub-8", "nan", "inf", "unrefinable"],
)
def test_rows_in_lockstep_refuse_as_the_first_failing_row(budget, params, spec, monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", budget)
    f, scalar = _row_family(params)
    for row in range(len(params)):
        try:
            integrate_interval(scalar(row), -1.0, 1.0, spec)
        except ConvergenceError as exc:
            expected = exc
            break
    with pytest.raises(ConvergenceError) as info:
        _integrate_rows(f, len(params), -1.0, 1.0, spec)
    assert info.value.row == row
    assert str(info.value) == str(expected)
    best, ref = info.value.best, expected.best
    assert (repr(best.value), repr(best.error_estimate), best.evaluations) == (
        repr(ref.value),
        repr(ref.error_estimate),
        ref.evaluations,
    )
