import math
import re

import pytest

from hybridwigner.quadrature import IntegrationSpec, integrate_interval, integrate_plane
from hybridwigner.cartesian_wigner import (
    PhaseSpaceFunction,
    fock_diag_element,
    fock_wigner,
    gaussian_wigner,
    nonclassical_check,
    nonquantum_check,
    overlap_trace,
    plane_grid,
    quadrature_marginal,
)

TWO_OVER_PI = 2.0 / math.pi


class TestGaussian:
    def test_value_at_origin(self):
        assert gaussian_wigner(0, 1.0).evaluate(0j) == pytest.approx(TWO_OVER_PI, abs=1e-16)

    def test_normalized(self):
        for alpha0, sigma in ((0j, 1.0), (1.5 - 0.5j, 0.7), (3.0, 2.0)):
            g = gaussian_wigner(alpha0, sigma)
            assert integrate_plane(g.evaluate, g.decay_center, g.decay_scale).value == pytest.approx(
                1.0, abs=1e-10
            )

    def test_angular_dependence_through_half_angle(self):
        # with a real centre the phase enters only through sin^2(phi/2)
        r0, sigma, r = 2.0, 1.0, 1.7
        g = gaussian_wigner(r0, sigma)
        for phi in (0.3, 1.1, 2.9):
            direct = g.evaluate(r * complex(math.cos(-phi), math.sin(-phi)))
            via_half_angle = (
                TWO_OVER_PI
                / sigma**2
                * math.exp(-2.0 * (r - r0) ** 2 / sigma**2)
                * math.exp(-(8.0 * r * r0 / sigma**2) * math.sin(phi / 2.0) ** 2)
            )
            assert direct == pytest.approx(via_half_angle, rel=1e-14)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            gaussian_wigner(0, 0.0)
        with pytest.raises(ValueError):
            gaussian_wigner(0, -1.0)


class TestFock:
    def test_first_excited_values(self):
        f = fock_wigner(1)
        assert f.evaluate(0j) == pytest.approx(-TWO_OVER_PI, abs=1e-16)
        assert f.evaluate(0.5 + 0j) == pytest.approx(0.0, abs=1e-16)
        assert f.evaluate(0.5j) == pytest.approx(0.0, abs=1e-16)

    def test_vacuum_matches_unit_gaussian(self):
        f0 = fock_wigner(0)
        g = gaussian_wigner(0, 1.0)
        for beta in (0j, 0.3 + 0.4j, -1.2j):
            assert f0.evaluate(beta) == pytest.approx(g.evaluate(beta), rel=1e-14)

    def test_normalized(self):
        for n in (0, 1, 2, 3):
            f = fock_wigner(n)
            assert integrate_plane(f.evaluate, 0j, f.decay_scale).value == pytest.approx(
                1.0, abs=1e-9
            )

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            fock_wigner(-1)


class TestOverlapTrace:
    def test_witness_curve(self):
        for sigma in (0.5, 0.8, 1.0):
            value = overlap_trace(fock_wigner(1), gaussian_wigner(0, sigma))
            exact = -2.0 * (1.0 - sigma**2) / (1.0 + sigma**2) ** 2
            assert value == pytest.approx(exact, abs=1e-8)

    def test_coherent_purity(self):
        g = gaussian_wigner(1.0 + 0.5j, 1.0)
        assert overlap_trace(g, g) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_number_states(self):
        assert overlap_trace(fock_wigner(0), fock_wigner(1)) == pytest.approx(0.0, abs=1e-10)

    def test_symmetry_exact(self):
        a = fock_wigner(1)
        b = gaussian_wigner(0.4 - 0.2j, 0.8)
        assert overlap_trace(a, b) == overlap_trace(b, a)


class TestMarginal:
    def test_vacuum_marginal_is_quarter_variance_gaussian(self):
        marg = quadrature_marginal(gaussian_wigner(0, 1.0), 0.0)
        for s in (-1.0, 0.0, 0.5, 1.3):
            ref = math.sqrt(2.0 / math.pi) * math.exp(-2.0 * s * s)
            assert marg.evaluate(s) == pytest.approx(ref, abs=1e-12)

    def test_normalized(self):
        # summed over segments one scale wide so the panels cannot step over
        # the density (the first excited marginal has a node at its centre)
        for w, angle in ((gaussian_wigner(1.0, 0.7), 0.9), (fock_wigner(1), math.pi / 2)):
            marg = quadrature_marginal(w, angle)
            edges = [marg.center + k * w.decay_scale for k in range(-8, 9)]
            total = sum(
                integrate_interval(marg.evaluate, a, b, IntegrationSpec(1e-9, 1e-11)).value
                for a, b in zip(edges[:-1], edges[1:])
            )
            assert abs(total - 1.0) < 1e-8

    def test_first_excited_node_at_origin(self):
        # oracle: |<y|1>|^2 = sqrt(2/pi) * 4 y^2 exp(-2 y^2) for this scaling
        marg = quadrature_marginal(fock_wigner(1), math.pi / 2)
        assert marg.evaluate(0.0) == pytest.approx(0.0, abs=1e-12)
        for y in (0.4, 1.1):
            ref = math.sqrt(2.0 / math.pi) * 4.0 * y * y * math.exp(-2.0 * y * y)
            assert marg.evaluate(y) == pytest.approx(ref, abs=1e-10)

    def test_diag_element_shortcut(self):
        g = gaussian_wigner(0, 0.5)
        assert fock_diag_element(g, 1) == pytest.approx(-0.96, abs=1e-9)
        assert fock_diag_element(gaussian_wigner(0, 1.0), 1) == pytest.approx(0.0, abs=1e-9)
        assert fock_diag_element(fock_wigner(1), 1) == pytest.approx(1.0, abs=1e-9)


class TestWitnesses:
    def test_narrow_gaussian_is_nonquantum(self):
        report = nonquantum_check(gaussian_wigner(0, 0.5), max_n=2)
        assert report.nonquantum
        assert report.diag_elements[1][1] == pytest.approx(-0.96, abs=1e-8)

    def test_coherent_state_finds_no_witness(self):
        assert not nonquantum_check(gaussian_wigner(0, 1.0), max_n=2).nonquantum

    def test_first_excited_is_quantum_but_nonclassical(self):
        f1 = fock_wigner(1)
        assert not nonquantum_check(f1, max_n=3).nonquantum
        report = nonclassical_check(f1, plane_grid(0j, 2.0, 41))
        assert report.nonclassical
        assert abs(report.witness) < 0.2
        assert report.value == pytest.approx(-TWO_OVER_PI, abs=1e-3)

    def test_gaussians_are_classical_pointwise(self):
        grid = plane_grid(0j, 3.0, 21)
        for sigma in (0.5, 1.0, 2.0):
            assert not nonclassical_check(gaussian_wigner(0, sigma), grid).nonclassical
        assert not nonclassical_check(fock_wigner(0), grid).nonclassical

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            nonclassical_check(fock_wigner(1), [])

    def test_density_nan_everywhere_names_first_point(self):
        grid = plane_grid(0j, 1.0, 3)
        nowhere = PhaseSpaceFunction(lambda z: math.nan, 1.0)
        with pytest.raises(ValueError, match=re.escape(f"density is nan at {grid[0]!r}")):
            nonclassical_check(nowhere, grid)

    def test_density_nan_at_one_point_is_not_skipped(self):
        grid = plane_grid(0j, 1.0, 3)
        bad = grid[5]
        negative = fock_wigner(1)
        W = PhaseSpaceFunction(lambda z: math.nan if z == bad else negative.evaluate(z), 2.0)
        with pytest.raises(ValueError, match=re.escape(f"density is nan at {bad!r}")):
            nonclassical_check(W, grid)


def test_plane_grid_shape_and_order():
    pts = plane_grid(1.0 + 1.0j, 1.0, 3)
    assert len(pts) == 9
    assert pts[0] == 0j
    assert pts[-1] == 2.0 + 2.0j


def test_negative_max_n_refused():
    with pytest.raises(ValueError, match=r"^max_n must be non-negative"):
        nonquantum_check(gaussian_wigner(0j, 1.0), max_n=-1)


def test_empty_plane_grid_refused():
    with pytest.raises(ValueError, match=r"^points_per_axis must be at least 1"):
        plane_grid(0j, 1.0, 0)
