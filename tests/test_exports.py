"""Every exported name resolves, in the package and in each of its modules;
importing (a star import too), parsing and the closed-form scenarios load no
numpy; the entry points refuse non-finite numbers by name."""

import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import hybridwigner
from hybridwigner import (
    BlochPoint,
    DeltaAmplitude,
    GaussianAmplitude,
    OscillatorPair,
    SpinHalfState,
    basis_moments,
    closed_moments,
    coherent_overlap,
    default_truncation,
    flow_map,
    flow_matrix,
    gaussian_wigner,
    integrate_interval,
    integrate_plane,
    phase_densities_gaussian,
    phase_distribution_delta,
    phase_distribution_gaussian,
    quadrature_distribution,
    quantum_moments,
    semiclassical_moments,
    semiclassical_standard,
)

MODULES = ["hybridwigner"] + [
    f"hybridwigner.{info.name}" for info in pkgutil.iter_modules(hybridwigner.__path__)
]

# The package's exports, in order; the Pauli matrices are private to su2_wigner.
EXPORTS = [
    "IntegrationSpec", "IntegrationResult", "ConvergenceError", "BlochPoint", "DEFAULT_SPEC",
    "RADIAL_CUTOFF_SIGMAS", "integrate_interval", "integrate_sphere", "integrate_plane",
    "SQRT3", "SpinHalfState", "clebsch_gordan",
    "spherical_harmonic", "su2_kernel", "spin_half_kernel", "spin_wigner", "wigner_to_spin",
    "su2_traciality", "NEGATIVITY_THRESHOLD", "PhaseSpaceFunction", "GaussianWigner",
    "FockWigner", "MarginalDistribution", "NonquantumReport", "NonclassicalReport",
    "gaussian_wigner", "fock_wigner", "overlap_trace", "quadrature_marginal",
    "fock_diag_element", "nonquantum_check", "nonclassical_check", "plane_grid",
    "SIGMA_MINUS_SCALE", "AnalyticPathRequiredError", "DeltaAmplitude", "GaussianAmplitude",
    "FieldState", "HybridState", "PhaseDistribution", "ObservableSymbol", "flow_map",
    "joint_wigner", "field_marginal", "atom_marginal", "phase_distribution_delta",
    "phase_distribution_gaussian", "phase_densities_gaussian", "phase_moments",
    "quadrature_distribution", "closed_moments", "expectation_quadrature",
    "moment_correlation", "semiclassical_standard", "semiclassical_moments",
    "atomic_pfunction", "TruncationError", "default_truncation", "basis_moments",
    "quantum_moments", "coherent_overlap", "OscillatorPair", "pair_flow",
    "flow_matrix", "evolve_pair_wigner", "alpha_marginal", "beta_marginal",
    "marginal_quadrature", "NonclassicalTransferReport", "NonquantumTransferReport",
    "nonclassical_transfer_check", "nonquantum_transfer_check",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_the_marginal_cross_check():
    assert "marginal_quadrature" in hybridwigner.__all__
    assert "PairDistribution" not in hybridwigner.__all__


def test_coupling_is_a_plain_float():
    import hybridwigner.oscillator_hybrid as oscillator_hybrid

    assert "CouplingParams" not in hybridwigner.__all__
    assert not hasattr(oscillator_hybrid, "CouplingParams")


def test_exports_and_lazy_pauli_matrices():
    import numpy as np

    from hybridwigner import su2_wigner

    assert hybridwigner.__all__ == EXPORTS
    literals = (
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    )
    assert su2_wigner._pauli() is su2_wigner._pauli()
    for matrix, literal in zip(su2_wigner._pauli(), literals):
        assert matrix.dtype == np.complex128
        assert np.array_equal(matrix, np.array(literal, dtype=complex))
    with pytest.raises(AttributeError, match="PAULI_X"):
        su2_wigner.PAULI_X


# scenarios whose rows are closed forms, beside fig1, fig2, fig4 and fig5
_CLOSED_CONFIGS = {
    "pfunction": "[scenario]\nname = pfunction\nchi = 1.0\ntimes = 0.5, 2.0\n[atom]\nkind = ground\n",
    "phase-dist-delta": (
        "[scenario]\nname = phase-dist\nchi = 1.0\ntimes = 0.5, 2.0\n"
        "[atom]\nkind = bloch\ns = 0.3, 0.0, 0.5\n[field]\nkind = delta\nr0 = 2.0\n"
    ),
    "oscillators": (
        "[scenario]\nname = oscillators\nchi = 1.0\ntimes = range(0, 3, 31)\n"
        "beta0_re = 0.5\nbeta0_im = -0.5\n[field]\nkind = delta\nr0 = 1.0\n"
    ),
}


def test_import_and_parsing_load_no_numpy(tmp_path):
    # The CLI validates and refuses configs before any numerical call, and
    # the closed-form scenarios run without numpy; fig3's series load it.
    text = (Path(hybridwigner.__file__).parent / "configs" / "fig1.cfg").read_text()
    bad = tmp_path / "bad.cfg"
    bad.write_text(text + "bogus = 2\n", encoding="utf-8")
    line = len(text.splitlines()) + 1
    closed = tmp_path / "closed"
    closed.mkdir()
    for name, config in _CLOSED_CONFIGS.items():
        (closed / f"{name}.cfg").write_text(config, encoding="utf-8")
    script = textwrap.dedent(
        """
        import sys
        from importlib import resources
        from pathlib import Path

        from hybridwigner import *
        assert "numpy" not in sys.modules, "numpy loaded by the star import"
        import hybridwigner.cli, hybridwigner.acceptance
        from hybridwigner.cli import main, parse_config

        shipped = resources.files("hybridwigner") / "configs"
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5"):
            parse_config((shipped / f"{name}.cfg").read_text())
        assert "numpy" not in sys.modules, "numpy loaded by import or parse_config"
        assert main(["run", sys.argv[1]]) == 1
        assert "numpy" not in sys.modules, "numpy loaded by a refused run"

        closed = Path(sys.argv[2])

        def run(config):
            assert main(["run", str(config), "--output", str(closed / "out.csv")]) == 0, config

        figures = [shipped / f"{name}.cfg" for name in ("fig1", "fig2", "fig4", "fig5")]
        for config in figures + sorted(closed.glob("*.cfg")):
            run(config)
            assert "numpy" not in sys.modules, f"numpy loaded by {config.name}"
        run(shipped / "fig3.cfg")
        assert "numpy" in sys.modules, "fig3 ran without numpy: the check cannot see an import"
        """
    )
    src = str(Path(hybridwigner.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script, str(bad), str(closed)], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == f"config error: line {line}: unknown key 'bogus' in [field]\n"


GROUND = SpinHalfState.ground()
DELTA = DeltaAmplitude(1.0)
GAUSS = GaussianAmplitude(1.0, 1.0)

# (entry point, name of the float parameter, call with that parameter set to x)
NONFINITE_ENTRIES = [
    ("integrate_interval", "a", lambda x: integrate_interval(math.sin, x, 1.0)),
    ("integrate_interval", "b", lambda x: integrate_interval(math.sin, 0.0, x)),
    ("integrate_plane", "width", lambda x: integrate_plane(abs, 0j, x)),
    ("closed_moments", "chi", lambda x: closed_moments(GROUND, DELTA, x, [1.0])),
    ("closed_moments", "times", lambda x: closed_moments(GROUND, GAUSS, 1.0, [0.5, x])),
    ("semiclassical_moments", "chi", lambda x: semiclassical_moments(GROUND, GAUSS, x, [1.0])),
    ("semiclassical_moments", "times", lambda x: semiclassical_moments(GROUND, DELTA, 1.0, [x])),
    ("phase_distribution_delta", "chi_t", lambda x: phase_distribution_delta(GROUND, x)),
    ("phase_distribution_gaussian", "chi_t", lambda x: phase_distribution_gaussian(GROUND, GAUSS, x)),
    (
        "phase_densities_gaussian",
        "chi_ts",
        lambda x: phase_densities_gaussian(GROUND, GAUSS, [1.0, x], 201),
    ),
    ("quadrature_distribution", "chi_t", lambda x: quadrature_distribution(GROUND, GAUSS, x)),
    ("flow_matrix", "lam", lambda x: flow_matrix(x, 1.0)),
    ("flow_matrix", "t", lambda x: flow_matrix(1.0, x)),
    ("quantum_moments", "alpha", lambda x: quantum_moments(GROUND, x, 1.0, [1.0])),
    ("quantum_moments", "chi", lambda x: quantum_moments(GROUND, 1.0, x, [1.0])),
    ("quantum_moments", "times", lambda x: quantum_moments(GROUND, 1.0, 1.0, [0.5, x])),
    ("basis_moments", "alpha", lambda x: basis_moments(0.6, 0.8, x, 1.0, [1.0])),
    ("basis_moments", "c_e", lambda x: basis_moments(x, 0.8, 1.0, 1.0, [1.0])),
    ("basis_moments", "c_g", lambda x: basis_moments(0.6, x, 1.0, 1.0, [1.0])),
    ("default_truncation", "alpha", lambda x: default_truncation(x)),
    ("coherent_overlap", "beta", lambda x: coherent_overlap(0.5, x)),
    ("basis_moments", "chi", lambda x: basis_moments(0.6, 0.8, 1.0, x, [1.0])),
    ("basis_moments", "times", lambda x: basis_moments(0.6, 0.8, 1.0, 1.0, [x])),
    ("flow_map", "r", lambda x: flow_map(x, 0.0, 1.0, 0.0, 1.0, 1.0)),
    ("flow_map", "phi_field", lambda x: flow_map(1.0, x, 1.0, 0.0, 1.0, 1.0)),
    ("flow_map", "theta", lambda x: flow_map(1.0, 0.0, x, 0.0, 1.0, 1.0)),
    ("flow_map", "phi_atom", lambda x: flow_map(1.0, 0.0, 1.0, x, 1.0, 1.0)),
    ("flow_map", "chi", lambda x: flow_map(1.0, 0.0, 1.0, 0.0, x, 1.0)),
    ("flow_map", "t", lambda x: flow_map(1.0, 0.0, 1.0, 0.0, 1.0, x)),
    ("semiclassical_standard", "chi", lambda x: semiclassical_standard(GROUND, GAUSS, x, 1.0)),
    ("semiclassical_standard", "t", lambda x: semiclassical_standard(GROUND, DELTA, 1.0, x)),
    ("BlochPoint", "theta", lambda x: BlochPoint(x, 0.0)),
    ("BlochPoint", "phi", lambda x: BlochPoint(1.0, x)),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "entry, param, call",
    NONFINITE_ENTRIES,
    ids=[f"{entry}-{param}" for entry, param, _ in NONFINITE_ENTRIES],
)
def test_entry_points_refuse_nonfinite_by_name(entry, param, call, value):
    with pytest.raises(ValueError, match=rf"\b{param} must be .*finite"):
        call(value)


# The walk over the package's exports: every parameter annotated float,
# Sequence[float] or complex refuses NaN and +-inf with a ValueError that
# names it.  A complex parameter gets the value as its imaginary part, which
# math.isfinite on the real part alone would miss.
FLOAT_ANNOTATIONS = ("float", "Sequence[float]", "complex")

# Records of a computed result: they hold what was measured, and a NaN there
# reports a non-finite integrand or witness instead of refusing it.
FLOAT_EXEMPT = {
    "IntegrationResult": "the engine's record of a finished integral; a NaN integrand reports a NaN error",
    "NonclassicalReport": "the record of a measured witness value",
    "NonclassicalTransferReport": "the record of a measured origin value",
    "NonquantumTransferReport": "the record of a measured diagonal element",
}

_POINT = BlochPoint(1.0, 0.0)
_WIGNER = gaussian_wigner(0j, 1.0)

# Valid keyword arguments of every other export with a float parameter; the walk
# sets one float parameter at a time to a non-finite value.
FLOAT_CALLS = {
    "IntegrationSpec": dict(relative_tolerance=1e-8, absolute_tolerance=1e-10),
    "BlochPoint": dict(theta=1.0, phi=0.0),
    "integrate_interval": dict(f=math.sin, a=0.0, b=1.0),
    "integrate_plane": dict(f=abs, center=0j, width=1.0),
    "clebsch_gordan": dict(j1=0.5, m1=0.5, j2=0.5, m2=-0.5, j=1.0, m=0.0),
    "su2_kernel": dict(j=0.5, point=_POINT),
    "PhaseSpaceFunction": dict(evaluate=abs, decay_scale=1.0),
    "GaussianWigner": dict(evaluate=abs, decay_scale=1.0),
    "FockWigner": dict(evaluate=abs, decay_scale=1.0, n=1),
    "MarginalDistribution": dict(evaluate=abs, center=0.0, scale=1.0),
    "gaussian_wigner": dict(alpha0=0j, sigma=1.0),
    "quadrature_marginal": dict(W=_WIGNER, axis_angle=0.0),
    "nonquantum_check": dict(W=_WIGNER, max_n=1, axes=[0.0]),
    "plane_grid": dict(center=0j, half_width=1.0, points_per_axis=3),
    "DeltaAmplitude": dict(r0=1.0, phi0=0.0),
    "GaussianAmplitude": dict(r0=1.0, sigma=1.0),
    "HybridState": dict(atom=GROUND, field=GAUSS, chi=1.0, t=1.0),
    "flow_map": dict(r=1.0, phi_field=0.0, theta=1.0, phi_atom=0.0, chi=1.0, t=1.0),
    "phase_distribution_delta": dict(atom=GROUND, chi_t=1.0),
    "phase_distribution_gaussian": dict(atom=GROUND, field=GAUSS, chi_t=1.0),
    "phase_densities_gaussian": dict(atom=GROUND, field=GAUSS, chi_ts=[1.0], points=201),
    "quadrature_distribution": dict(atom=GROUND, field=GAUSS, chi_t=1.0),
    "closed_moments": dict(atom=GROUND, field=GAUSS, chi=1.0, times=[1.0]),
    "semiclassical_standard": dict(atom=GROUND, field=GAUSS, chi=1.0, t=1.0),
    "semiclassical_moments": dict(atom=GROUND, field=GAUSS, chi=1.0, times=[1.0]),
    "atomic_pfunction": dict(atom=GROUND, chi_t=1.0),
    "default_truncation": dict(alpha=1.0),
    "basis_moments": dict(c_e=0.6, c_g=0.8, alpha=1.0, chi=1.0, times=[1.0]),
    "quantum_moments": dict(atom=GROUND, alpha=1.0, chi=1.0, times=[1.0]),
    "coherent_overlap": dict(alpha=1.0, beta=0.5j),
    "OscillatorPair": dict(alpha=1.0, beta=0.5j),
    "pair_flow": dict(gamma=OscillatorPair(1.0, 1.0), lam=1.0, t=1.0),
    "flow_matrix": dict(lam=1.0, t=1.0),
    "evolve_pair_wigner": dict(W_c=_WIGNER, W_q=_WIGNER, lam=1.0, t=1.0),
    "alpha_marginal": dict(W_c=_WIGNER, W_q=_WIGNER, lam=1.0, t=1.0),
    "beta_marginal": dict(W_c=_WIGNER, W_q=_WIGNER, lam=1.0, t=1.0),
    "marginal_quadrature": dict(W_c=_WIGNER, W_q=_WIGNER, lam=1.0, t=1.0, keep_alpha=True),
    "nonclassical_transfer_check": dict(lam=1.0),
    "nonquantum_transfer_check": dict(sigma=1.0, lam=1.0),
}


def _float_parameters() -> list[tuple[str, str, str]]:
    """(export, parameter, annotation) of every float or complex parameter of an export."""
    found = []
    for name in hybridwigner.__all__:
        obj = getattr(hybridwigner, name)
        try:
            parameters = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):  # constants, and exception classes without a signature
            continue
        found += [(name, p.name, p.annotation) for p in parameters if p.annotation in FLOAT_ANNOTATIONS]
    return found


FLOAT_PARAMETERS = [entry for entry in _float_parameters() if entry[0] not in FLOAT_EXEMPT]


def test_float_walk_tables_match_the_exports():
    # every export with a float parameter is walked or exempt, and no table entry is stale
    names = {name for name, _, _ in _float_parameters()}
    assert names == set(FLOAT_CALLS) | set(FLOAT_EXEMPT)
    assert not set(FLOAT_CALLS) & set(FLOAT_EXEMPT)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "name, param, annotation", FLOAT_PARAMETERS, ids=[f"{n}-{p}" for n, p, _ in FLOAT_PARAMETERS]
)
def test_every_float_parameter_refuses_nonfinite_by_name(name, param, annotation, value):
    assert name in FLOAT_CALLS, f"{name}: list its valid arguments in FLOAT_CALLS, or exempt it"
    kwargs = dict(FLOAT_CALLS[name])
    if annotation == "Sequence[float]":
        value = [0.5, value]
    elif annotation == "complex":
        value = complex(0.5, value)
    kwargs[param] = value
    with pytest.raises(ValueError, match=rf"\b{param} must be .*finite"):
        getattr(hybridwigner, name)(**kwargs)
