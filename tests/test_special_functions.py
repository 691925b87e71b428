"""The package's spherical Bessel, Laguerre and Legendre forms against scipy,
which is a test-only dependency, and a check that the package never imports it.
The scalar j0-j2 of the closed forms are held to the array routine bit for bit."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import eval_laguerre, lpmv, spherical_jn

import hybridwigner
from hybridwigner.cartesian_wigner import fock_wigner
from hybridwigner.hybrid_model import _bessel_012, _spherical_bessel
from hybridwigner.quadrature import BlochPoint
from hybridwigner.su2_wigner import spherical_harmonic


class TestSphericalBessel:
    # 3 orders x 43,311 points: 129,933 (n, x) pairs
    X = np.linspace(0.0, 200.0, 43_311)

    def test_matches_scipy_on_grid(self):
        # the array routine and its scalar twin
        scalar = np.array([_bessel_012(x) for x in self.X.tolist()]).T
        for bessel in (_spherical_bessel(3, self.X), scalar):
            for n in range(3):
                assert np.max(np.abs(bessel[n] - spherical_jn(n, self.X))) <= 1e-15

    def test_branch_edges(self):
        # |x| = n is the last Taylor point of j_n; the upward forms start past it
        x = np.array([np.nextafter(n, lim) for n in (1.0, 2.0) for lim in (0.0, n, 3.0)])
        bessel = _spherical_bessel(3, x)
        for n in range(3):
            assert np.max(np.abs(bessel[n] - spherical_jn(n, x))) <= 1e-15

    def test_limits(self):
        x = np.array([0.0, 5e-324, 1e-310, sys.float_info.min, 1e-300, np.inf])
        bessel = _spherical_bessel(3, x)
        np.testing.assert_array_equal(bessel[:, -1], [0.0, 0.0, 0.0])
        # below the normal range scipy gives NaN; the rows round to 1, 0, 0
        np.testing.assert_array_equal(bessel[:, :3], [[1.0] * 3, [0.0] * 3, [0.0] * 3])
        normal = x[3:5]
        for n in range(3):
            assert np.max(np.abs(bessel[n, 3:5] - spherical_jn(n, normal))) <= 1e-15

    def test_odd_order_takes_the_sign(self):
        x = np.array([-3.0, -1.5, -0.5, 0.5, 1.5, 3.0])
        bessel = _spherical_bessel(3, x)
        np.testing.assert_array_equal(bessel[0], bessel[0, ::-1])
        np.testing.assert_array_equal(bessel[1], -bessel[1, ::-1])
        np.testing.assert_array_equal(bessel[2], bessel[2, ::-1])

    def test_nan_propagates(self):
        assert np.isnan(_spherical_bessel(3, [np.nan])).all()

    # both signs of 0, of a subnormal, of inf, of each branch edge |x| = 1, 2
    # and of the points beside it
    @given(st.one_of(st.floats(), st.floats(-3.0, 3.0)))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-5e-324)
    @example(1e-310)
    @example(-1e-310)
    @example(math.inf)
    @example(-math.inf)
    @example(math.nan)
    @example(1.0)
    @example(-1.0)
    @example(math.nextafter(1.0, 0.0))
    @example(math.nextafter(-1.0, 0.0))
    @example(math.nextafter(1.0, 2.0))
    @example(math.nextafter(-1.0, -2.0))
    @example(2.0)
    @example(-2.0)
    @example(math.nextafter(2.0, 0.0))
    @example(math.nextafter(-2.0, 0.0))
    @example(math.nextafter(2.0, 3.0))
    @example(math.nextafter(-2.0, -3.0))
    def test_scalar_twin_matches_bit_for_bit(self, x):
        # repr tells -0.0 from 0.0; every NaN reads "nan"
        array = [repr(j) for j in _spherical_bessel(3, [x])[:, 0].tolist()]
        assert [repr(j) for j in _bessel_012(x)] == array


@pytest.mark.parametrize("n", range(31))
def test_fock_wigner_matches_scipy_laguerre(n):
    w = fock_wigner(n)
    sign = -1.0 if n % 2 else 1.0
    for r in np.linspace(0.0, 1.0 + 2.0 * math.sqrt(n), 97):
        r2 = r * r
        reference = (2.0 / math.pi) * sign * float(eval_laguerre(n, 4.0 * r2)) * math.exp(-2.0 * r2)
        assert w.evaluate(complex(r, 0.0)) == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("ell", range(13))
def test_spherical_harmonic_matches_scipy_legendre(ell):
    # abs 1e-14 sits below the harmonics' O(1) scale; it covers the points
    # next to a root, where a relative deviation means nothing
    for m in range(-ell, ell + 1):
        mm = abs(m)
        norm = math.sqrt(
            (2 * ell + 1) / (4.0 * math.pi) * math.factorial(ell - mm) / math.factorial(ell + mm)
        )
        for theta in np.linspace(0.0, math.pi, 61):
            point = BlochPoint(float(theta), 0.7)
            reference = norm * float(lpmv(mm, ell, math.cos(theta))) * np.exp(1j * mm * 0.7)
            if m < 0:
                reference = (-1) ** mm * reference.conjugate()
            assert spherical_harmonic(ell, m, point) == pytest.approx(reference, rel=1e-12, abs=1e-14)


def test_package_runs_without_scipy():
    script = textwrap.dedent(
        """
        import sys
        from importlib import resources


        class NoScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ImportError(f"{name} is blocked")
                return None


        sys.meta_path.insert(0, NoScipy())
        import hybridwigner.acceptance
        from hybridwigner.cli import parse_config, run_scenario

        for name in ("fig1", "fig2", "fig3", "fig4", "fig5"):
            text = (resources.files("hybridwigner") / "configs" / f"{name}.cfg").read_text()
            assert run_scenario(parse_config(text)).rows
        loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
        assert not loaded, loaded
        """
    )
    src = str(Path(hybridwigner.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
