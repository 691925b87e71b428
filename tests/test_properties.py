"""Property tests over generated configs and states."""

import cmath
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hybridwigner import hybrid_model
from hybridwigner.cli import (
    ConfigError,
    NumericError,
    ResultTable,
    _grid,
    parse_config,
    render_csv,
    run_scenario,
)
from hybridwigner.hybrid_model import (
    DeltaAmplitude,
    GaussianAmplitude,
    HybridState,
    ObservableSymbol,
    closed_moments,
    expectation_quadrature,
    field_marginal,
    moment_correlation,
    phase_densities_gaussian,
    phase_distribution_gaussian,
    quadrature_distribution,
)
from hybridwigner.quantum_reference import basis_moments, quantum_moments
from hybridwigner.su2_wigner import SQRT3, SpinHalfState

FEW = settings(max_examples=40, deadline=None)

_KEYS = {
    "scenario": ("name", "chi", "times", "beta0_re", "beta0_im", "filter", "bogus"),
    "atom": ("kind", "s"),
    "field": ("kind", "r0", "sigma", "phi0"),
    "quadrature": (
        "relative_tolerance",
        "absolute_tolerance",
        "max_subdivisions",
    ),
    "output": ("path",),
}
_WORDS = (
    "phase-dist", "quad-dist", "moments", "correlations", "pfunction", "compare",
    "oscillators", "verify", "ground", "phase", "bloch", "delta", "gaussian",
    "nan", "inf", "-inf", "0", "-0.0", "1", "-1", "1e-310", "1e155", "1e400",
    "0.3, 0, -0.4", "1, 2", "2, 0, 0", "0, 0.5, 1", "1, 0.5", "range(0, 1, 3)",
    "range(0, 1, 0)", "range(1, 0, 5)", "range(-1e308, 1e308, 3)",
    "range(0, 1, 99999999999)", "range(a, b, c)", "range(0, 1)",
)
_VALUES = st.one_of(
    st.sampled_from(_WORDS),
    st.floats().map(repr),
    st.integers(-(10**12), 10**12).map(str),
    st.text(max_size=12),
)


@st.composite
def _config_texts(draw):
    lines = []
    for section in draw(st.lists(st.sampled_from(sorted(_KEYS) + ["plotting"]), max_size=6)):
        lines.append(f"[{section}]")
        for key in draw(st.lists(st.sampled_from(_KEYS.get(section, ("color",))), max_size=5)):
            lines.append(f"{key} = {draw(_VALUES)}")
    return "\n".join(lines)


@FEW
@given(st.one_of(_config_texts(), st.text(max_size=200)))
def test_parse_config_returns_or_raises_config_error(text):
    try:
        parse_config(text)
    except ConfigError as exc:
        assert exc.errors


_CHI = st.floats(-3.0, 3.0)
_R0 = st.floats(0.0, 5.0)
# magnitudes at which squares and products underflow or overflow
_EXTREME = st.sampled_from([1e-200, 1e154, 1e200, 1e300])


def _times(positive: bool):
    low = st.one_of(st.floats(0.0, 20.0, exclude_min=positive), _EXTREME)
    return st.lists(low, min_size=1, max_size=5, unique=True).map(sorted)


@st.composite
def _closed_configs(draw):
    name = draw(st.sampled_from(["moments", "correlations", "pfunction", "phase-dist", "compare"]))
    r0 = draw(st.one_of(_R0, _EXTREME))
    atom = draw(st.sampled_from(["kind = ground", "kind = phase", "kind = bloch\ns = 0.6, -0.3, 0.5"]))
    if name == "compare":
        field = f"kind = gaussian\nr0 = {r0!r}\nsigma = 1.0"
    else:
        field = f"kind = delta\nr0 = {r0!r}\nphi0 = {draw(st.floats(-4.0, 4.0))!r}"
        if draw(st.booleans()):
            sigma = draw(st.one_of(st.floats(0.1, 3.0), _EXTREME))
            field = f"kind = gaussian\nr0 = {r0!r}\nsigma = {sigma!r}"
    chi = draw(st.one_of(_CHI, _EXTREME, _EXTREME.map(lambda x: -x)))
    times = draw(_times(positive=name in ("pfunction", "phase-dist")))
    return (
        f"[scenario]\nname = {name}\nchi = {chi!r}\n"
        f"times = {', '.join(repr(t) for t in times)}\n\n[atom]\n{atom}\n\n[field]\n{field}\n"
    )


@FEW
@given(_closed_configs())
def test_closed_form_scenarios_are_finite(text):
    try:
        config = parse_config(text)
    except ConfigError as exc:
        # every rule a generated config can break names its line
        assert all(e.startswith("line ") for e in exc.errors)
        return
    try:
        table = run_scenario(config)
    except NumericError:
        return
    for row in table.rows:
        assert all(math.isfinite(v) for v in row if isinstance(v, float))


# signed zero, subnormals, the edges of the float range and Python ints
_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7e308, -1.7e308]),
    st.integers(-(10**20), 10**20),
)


@st.composite
def _tables(draw, min_rows=0):
    # the cells cycle through a drawn pool, so a 91 x 40 table stays cheap to draw
    width = draw(st.integers(1, 91))
    height = draw(st.integers(min_rows, 40))
    pool = draw(st.lists(_CELLS, min_size=1, max_size=60))
    cells = [pool[k % len(pool)] for k in range(width * height)]
    rows = tuple(tuple(cells[r * width : (r + 1) * width]) for r in range(height))
    metadata = tuple(draw(st.lists(st.text(max_size=20), max_size=4)))
    return ResultTable(tuple(f"c{k}" for k in range(width)), rows, metadata)


@FEW
@given(_tables())
def test_render_csv_matches_per_cell_format(table):
    lines = [f"# {line}" for line in table.metadata] + [",".join(table.columns)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in table.rows]
    assert render_csv(table) == "\n".join(lines) + "\n"


@FEW
@given(_tables(min_rows=1), st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_render_csv_refuses_non_finite_cells(table, value, data):
    r = data.draw(st.integers(0, len(table.rows) - 1))
    c = data.draw(st.integers(0, len(table.columns) - 1))
    row = table.rows[r][:c] + (value,) + table.rows[r][c + 1 :]
    rows = table.rows[:r] + (row,) + table.rows[r + 1 :]
    with pytest.raises(NumericError):
        render_csv(ResultTable(table.columns, rows, table.metadata))


_ATOMS = st.tuples(st.floats(-0.57, 0.57), st.floats(-0.57, 0.57), st.floats(-0.57, 0.57)).map(
    SpinHalfState
)
_FIELDS = st.one_of(
    st.builds(DeltaAmplitude, _R0, st.floats(-4.0, 4.0)),
    st.builds(GaussianAmplitude, _R0, st.floats(0.1, 3.0)),
)
_PAIRS = [
    (ObservableSymbol.SIGMA_Z, ObservableSymbol.A),
    (ObservableSymbol.SIGMA_MINUS, ObservableSymbol.ADAG),
]


@FEW
@given(_ATOMS, _FIELDS, _CHI, st.floats(0.0, 20.0))
def test_grid_correlation_matches_one_time_table(atom, field, chi, t):
    (moments,) = closed_moments(atom, field, chi, (t,))
    on_grid = closed_moments(atom, field, chi, (0.0, t, 2.0 * t))[1]
    for a, b in _PAIRS:
        assert moment_correlation(moments, a, b) == moment_correlation(on_grid, a, b)


@st.composite
def _bloch_vectors(draw):
    radius = draw(st.floats(0.0, 1.0))
    u = draw(st.floats(-1.0, 1.0))
    azimuth = draw(st.floats(-math.pi, math.pi))
    transverse = radius * math.sqrt(1.0 - u * u)
    return SpinHalfState(
        (transverse * math.cos(azimuth), transverse * math.sin(azimuth), radius * u)
    )


_CROSSCHECK_FIELDS = st.one_of(
    st.builds(GaussianAmplitude, st.floats(0.0, 5.0), st.floats(0.05, 2.0)),
    st.builds(DeltaAmplitude, st.floats(0.0, 3.0), st.floats(-math.pi, math.pi)),
)


@FEW
@given(_bloch_vectors(), _CROSSCHECK_FIELDS, st.floats(-2.0, 2.0), st.floats(0.0, 2.0))
def test_closed_route_matches_quadrature_route(atom, field, chi, t):
    (moments,) = closed_moments(atom, field, chi, (t,))
    state = HybridState(atom, field, chi, t)
    for obs in ObservableSymbol:
        closed = moments[obs]
        quad = expectation_quadrature(state, obs)
        assert abs(quad - closed) <= 1e-9 * max(1.0, abs(closed))


@st.composite
def _pure_atoms(draw):
    half_theta = draw(st.floats(0.0, 0.5 * math.pi))
    azimuth = draw(st.floats(-math.pi, math.pi))
    return complex(math.cos(half_theta)), math.sin(half_theta) * cmath.exp(1j * azimuth)


@FEW
@given(
    _pure_atoms(),
    st.floats(0.0, 10.0),
    st.floats(-math.pi, math.pi),
    st.floats(-2.0, 2.0),
    st.lists(st.floats(0.0, 20.0), min_size=1, max_size=4),
)
def test_closed_quantum_moments_match_basis(amplitudes, r, phase, chi, times):
    # the largest deviation over 2,000 random draws of four times each in
    # these ranges was 5.8e-15 max(1, |alpha|^2); the bound leaves a factor 8
    alpha = r * cmath.exp(1j * phase)
    closed = quantum_moments(SpinHalfState.from_amplitudes(*amplitudes), alpha, chi, times)
    basis = basis_moments(*amplitudes, alpha, chi, times)
    bound = 5e-14 * max(1.0, r * r)
    for c, b in zip(closed, basis):
        for obs in ObservableSymbol:
            assert abs(c[obs] - b[obs]) <= bound


def _ramp_reference(f, kappa, sz, offset=0.0, peaks=()):
    """Integral[du (1 + sqrt(3) s_z u) / 2 * f(kappa u), u = -1..1] by scipy quad,
    one panel per quarter period of offset - kappa u, so every multiple of
    pi / 2 of that phase (where the profiles peak) is a panel edge.  The zero
    of the weight, u = -1 / (sqrt(3) s_z), is an edge too: a sign change
    inside a panel leaves quad's roundoff check short of the tolerance.  So is
    every u whose kappa u is one of ``peaks`` modulo 2 pi, for profiles that
    peak elsewhere."""
    cuts = {-1.0, 1.0}
    if abs(SQRT3 * sz) > 1.0:
        cuts.add(-1.0 / (SQRT3 * sz))
    if kappa != 0.0:
        quarter = 0.5 * math.pi
        lo, hi = sorted((offset - kappa, offset + kappa))
        for k in range(math.ceil(lo / quarter), math.floor(hi / quarter) + 1):
            u = (offset - k * quarter) / kappa
            if -1.0 < u < 1.0:
                cuts.add(u)
        for v in peaks:
            lo, hi = sorted((-kappa - v, kappa - v))
            for k in range(math.ceil(lo / (2.0 * math.pi)), math.floor(hi / (2.0 * math.pi)) + 1):
                u = (v + 2.0 * math.pi * k) / kappa
                if -1.0 < u < 1.0:
                    cuts.add(u)
    cuts = sorted(cuts)

    def integrand(u):
        return 0.5 * (1.0 + SQRT3 * sz * u) * f(kappa * u)

    return math.fsum(
        quad(integrand, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        for a, b in zip(cuts[:-1], cuts[1:])
    )


_SZ = st.floats(-1.0, 1.0)
_WIDE_FIELDS = st.builds(GaussianAmplitude, st.floats(0.0, 5.0), st.floats(0.05, 2.0))
_CHI_T = st.floats(-20.0, 20.0)
_PHI = st.floats(-math.pi, math.pi)


def _z_atom(sz):
    return SpinHalfState((0.0, 0.0, sz))


@FEW
@given(_SZ, _WIDE_FIELDS, _CHI_T, _PHI)
def test_phase_law_matches_ramp_reference(sz, field, chi_t, phi):
    dist = phase_distribution_gaussian(_z_atom(sz), field, chi_t)
    ref = _ramp_reference(lambda v: field.angular_density(phi - v), SQRT3 * chi_t, sz, phi)
    assert abs(dist.evaluate(phi) - ref) <= 1e-10 * max(1.0, abs(ref))


@FEW
@given(_SZ, _WIDE_FIELDS, _CHI_T, _PHI, st.floats(-2.0, 2.0))
@example(sz=1.0, field=GaussianAmplitude(0.0, 0.25), chi_t=1.0, phi=-1.875, offset=0.0)
def test_field_marginal_matches_ramp_reference(sz, field, chi_t, phi, offset):
    r = max(0.0, field.r0 + offset * field.sigma)
    fm = field_marginal(HybridState(_z_atom(sz), field, 1.0, abs(chi_t)))
    kappa = SQRT3 * abs(chi_t)
    ref = _ramp_reference(lambda v: field.polar_density(r, phi - v), kappa, sz, phi)
    # the series' truncation error is a fraction of the initial peak, spread over the circle
    peak = field.polar_density(field.r0, 0.0)
    assert abs(fm.evaluate(r * cmath.exp(-1j * phi)) - ref) <= 1e-10 * max(1.0, peak)


@FEW
@given(_SZ, _WIDE_FIELDS, _CHI_T)
def test_phase_law_normalized(sz, field, chi_t):
    # the periodic trapezoid on N points is exact for a series of N / 2 modes
    dist = phase_distribution_gaussian(_z_atom(sz), field, chi_t)
    n = field.phase_points
    total = math.fsum(dist.evaluate(-math.pi + k * (2.0 * math.pi / n)) for k in range(n))
    assert abs(total * (2.0 * math.pi / n) - 1.0) <= 1e-12


_CHI_TS = st.lists(
    st.one_of(st.just(0.0), st.floats(-20.0, -1e-3), _CHI_T, st.floats(1e3, 1e300)),
    min_size=1,
    max_size=7,
)


@FEW
@given(_SZ, st.floats(0.0, 50.0), st.floats(0.05, 2.0), _CHI_TS, st.integers(1, 3))
def test_phase_densities_equal_pointwise_law(sz, ratio, sigma, chi_ts, per_block):
    # blocks of per_block times, so that most draws span several blocks
    atom, field = _z_atom(sz), GaussianAmplitude(ratio * sigma, sigma)
    phis = _grid(-math.pi, math.pi, 201)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hybrid_model, "_BLOCK_HARMONICS", per_block * (field.phase_points // 2))
        grid = phase_densities_gaussian(atom, field, chi_ts, len(phis))
    # The grid folds its phases exactly, the pointwise route rounds m phi; 1,300
    # random draws of these ranges measured at most 7.5e-15 * max(1, peak).
    peak = field.angular_density(0.0)
    assert len(grid) == len(chi_ts)
    for chi_t, row in zip(chi_ts, grid):
        dist = phase_distribution_gaussian(atom, field, chi_t)
        assert max(abs(p - dist.evaluate(phi)) for p, phi in zip(row, phis)) <= 2e-14 * max(1.0, peak)


@pytest.mark.parametrize("r0, sigma", [(10.0, 1.0), (1.0, 1e-3), (10.0, 0.01)])
def test_phase_law_resolved_at_azimuth_points(r0, sigma, monkeypatch):
    field = GaussianAmplitude(r0, sigma)
    atom = _z_atom(-1.0)
    phis = [-3.0, -1.2, -0.3, 0.0, 0.05, 0.7, 2.5]
    for chi_t in (0.0, 1.0 / SQRT3, 10.47 / SQRT3):
        coarse = phase_distribution_gaussian(atom, field, chi_t)
        with monkeypatch.context() as patch:
            points = GaussianAmplitude.azimuth_points
            patch.setattr(GaussianAmplitude, "azimuth_points", lambda f, r: 4 * points(f, r))
            fine = phase_distribution_gaussian(atom, field, chi_t)
        for phi in phis:
            assert abs(coarse.evaluate(phi) - fine.evaluate(phi)) < 1e-10


def _quad_profile(y, r0, sigma):
    """v -> exp(-2 (y + r0 sin v)^2 / sigma^2), the u-integrand of p(y) without
    its ramp weight, and the v where it peaks (sin v = -y / r0, for |y| <= r0)."""
    s2 = sigma * sigma
    root = math.asin(-y / r0) if 0.0 < r0 and abs(y) <= r0 else 0.5 * math.pi
    return (lambda v: math.exp(-2.0 * (y + r0 * math.sin(v)) ** 2 / s2)), (root, math.pi - root)


@FEW
@given(_SZ, _WIDE_FIELDS, st.floats(0.0, 40.0), st.floats(-1.0, 1.0))
def test_quad_dist_core_matches_ramp_reference(sz, field, kappa, fraction):
    # |y| <= r0 comes from the ramp series of the quadrature profile
    y = fraction * field.r0
    dist = quadrature_distribution(_z_atom(sz), field, kappa / SQRT3)
    peak = 2.0 / math.sqrt(2.0 * math.pi * field.sigma**2)
    profile, peaks = _quad_profile(y, field.r0, field.sigma)
    ref = peak * _ramp_reference(profile, kappa, sz, peaks=peaks)
    assert abs(dist.evaluate(y) - ref) <= 1e-10 * max(1.0, peak)


@pytest.mark.parametrize("r0, sigma", [(1.0, 1.0), (10.0, 1.0), (30.0, 0.1), (300.0, 1.0), (1.0, 1e-3)])
def test_quad_dist_core_resolved_at_phase_points(r0, sigma, monkeypatch):
    # the series on field.phase_points points against the one on twice as many
    field = GaussianAmplitude(r0, sigma)
    atom = _z_atom(-1.0)
    peak = 2.0 / math.sqrt(2.0 * math.pi * sigma * sigma)
    ys = [r0 * k / 20.0 for k in range(-20, 21)]
    for chi_t in (0.0, 1.0 / SQRT3, 10.47 / SQRT3, -3.3):
        coarse = quadrature_distribution(atom, field, chi_t)
        with monkeypatch.context() as patch:
            points = GaussianAmplitude.azimuth_points
            patch.setattr(GaussianAmplitude, "azimuth_points", lambda f, r: 2 * points(f, r))
            fine = quadrature_distribution(atom, field, chi_t)
        for y in ys:
            assert abs(coarse.evaluate(y) - fine.evaluate(y)) <= 1e-14 * peak


QUAD_DIST_TAIL = """
[scenario]
name = quad-dist
chi = 1.0
times = 6.045997880780726

[atom]
kind = ground

[field]
kind = gaussian
r0 = 10.0
sigma = 1.0

[quadrature]
relative_tolerance = 1e-8
absolute_tolerance = 1e-10
"""


@pytest.mark.xfail(
    strict=True,
    reason="quad-dist steps over the unbracketed bumps at sin(kappa u) = -+1 for |y| > r0;"
    " benchmarks/references/crosscheck.json stores the same wrong tails and has to be"
    " re-recorded with the fix",
)
def test_quad_dist_tails_match_ramp_reference():
    # kappa = sqrt(3) chi t = 10.47: the bumps sit on quarter periods of kappa u
    config = parse_config(QUAD_DIST_TAIL)
    r0, s2 = config.field.r0, config.field.sigma**2
    kappa = SQRT3 * config.chi * config.times[0]
    pref = 2.0 / math.sqrt(2.0 * math.pi * s2)
    worst = 0.0
    for _, y, p in run_scenario(config).rows:
        if abs(y) > r0:
            ref = pref * _ramp_reference(
                lambda v: math.exp(-2.0 * (y + r0 * math.sin(v)) ** 2 / s2), kappa, -1.0
            )
            worst = max(worst, abs(p - ref))
    assert worst <= 1e-8
