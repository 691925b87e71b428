import math

import pytest

from hybridwigner.cli import (
    MAX_RANGE_STEPS,
    ConfigError,
    NumericError,
    ResultTable,
    emit_csv,
    main,
    parse_config,
    render_csv,
    run_scenario,
)
from hybridwigner.hybrid_model import MAX_PHASE_SPREAD, DeltaAmplitude, ObservableSymbol
from hybridwigner.su2_wigner import SQRT3

MINIMAL = """
[scenario]
name = moments
chi = 1.0
times = 0.5, 1.0, 2.0

[atom]
kind = phase

[field]
kind = delta
r0 = 1.0
"""


UNIT_GAUSSIAN = "kind = gaussian\nr0 = 1.0\nsigma = 1.0"


def _scenario(name, chi, times, field, extra=""):
    return (
        f"[scenario]\nname = {name}\nchi = {chi}\ntimes = {times}\n{extra}\n"
        f"[atom]\nkind = ground\n\n[field]\n{field}\n"
    )


class TestParsing:
    def test_minimal_config(self):
        config = parse_config(MINIMAL)
        assert config.scenario == "moments"
        assert config.atom_kind == "phase"
        assert isinstance(config.field, DeltaAmplitude)
        assert config.times == (0.5, 1.0, 2.0)
        assert config.quadrature.relative_tolerance == 1e-10

    def test_range_times(self):
        config = parse_config(MINIMAL.replace("times = 0.5, 1.0, 2.0", "times = range(0, 4, 401)"))
        assert len(config.times) == 401
        assert config.times[0] == 0.0
        assert config.times[-1] == pytest.approx(4.0)
        assert config.times[1] == pytest.approx(0.01)

    def test_negative_sigma_reports_line(self):
        text = MINIMAL.replace("kind = delta\nr0 = 1.0", "kind = gaussian\nr0 = 1.0\nsigma = -1")
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        joined = "\n".join(exc_info.value.errors)
        assert "sigma" in joined
        assert "line" in joined

    def test_all_errors_reported_at_once(self):
        text = """
[scenario]
name = nonsense
times = 2.0, 1.0

[field]
kind = gaussian
r0 = 1.0
sigma = -1
bogus = 3
"""
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        joined = "\n".join(exc_info.value.errors)
        assert "unknown scenario" in joined
        assert "strictly increasing" in joined
        assert "sigma" in joined
        assert "bogus" in joined

    def test_unknown_key_and_section(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config(MINIMAL + "\n[plotting]\ncolor = red\n")
        assert any("unknown section" in e for e in exc_info.value.errors)

    def test_bloch_atom(self):
        text = MINIMAL.replace("kind = phase", "kind = bloch\ns = 0.3, 0.0, -0.4")
        config = parse_config(text)
        assert config.atom.s == pytest.approx((0.3, 0.0, -0.4))

    def test_compare_requires_unit_width_gaussian(self):
        text = MINIMAL.replace("name = moments", "name = compare")
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("chi = 1.0", "chi = nan"),
            ("chi = 1.0", "chi = inf"),
            ("r0 = 1.0", "r0 = inf"),
            ("kind = phase", "kind = bloch\ns = nan, 0.0, 0.0"),
        ],
    )
    def test_non_finite_number_rejected(self, old, new):
        with pytest.raises(ConfigError) as exc_info:
            parse_config(MINIMAL.replace(old, new))
        assert any(e.startswith("line ") and "finite" in e for e in exc_info.value.errors)

    @pytest.mark.parametrize("times", ["-1, 0", "range(-1, 1, 3)", "range(-0.5, 2, 1)"])
    def test_negative_times_rejected(self, times):
        text = MINIMAL.replace("name = moments", "name = phase-dist").replace(
            "times = 0.5, 1.0, 2.0", f"times = {times}"
        )
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        assert any(e.startswith("line 5:") and "non-negative" in e for e in exc_info.value.errors)

    def test_range_steps_capped(self):
        def times(steps):
            return MINIMAL.replace("times = 0.5, 1.0, 2.0", f"times = range(0, 4, {steps})")

        with pytest.raises(ConfigError) as exc_info:
            parse_config(times(MAX_RANGE_STEPS + 1))
        assert any(e.startswith("line 5:") and "range steps" in e for e in exc_info.value.errors)
        assert len(parse_config(times(MAX_RANGE_STEPS)).times) == MAX_RANGE_STEPS

    @pytest.mark.parametrize("name", ["quad-dist"])
    @pytest.mark.parametrize("chi", [1.0, -1.0])
    def test_gaussian_phase_spread_capped(self, name, chi):
        def config(t):
            return (
                MINIMAL.replace("name = moments", f"name = {name}")
                .replace("chi = 1.0", f"chi = {chi!r}")
                .replace("times = 0.5, 1.0, 2.0", f"times = 0.5, {t!r}")
                .replace("kind = delta\nr0 = 1.0", "kind = gaussian\nr0 = 1.0\nsigma = 1.0")
            )

        limit = MAX_PHASE_SPREAD / SQRT3
        with pytest.raises(ConfigError) as exc_info:
            parse_config(config(limit * (1.0 + 1e-9)))
        assert any(e.startswith("line 5:") and "phase spread" in e for e in exc_info.value.errors)
        assert parse_config(config(limit * (1.0 - 1e-9))).chi == chi

    def test_gaussian_phase_dist_width_capped(self):
        # r0 / sigma = 1e5 needs 2^21 field-azimuth points; 3e4 needs 2^20
        def config(sigma):
            return (
                MINIMAL.replace("name = moments", "name = phase-dist")
                .replace("kind = delta\nr0 = 1.0", f"kind = gaussian\nr0 = 1.0\nsigma = {sigma}")
            )

        with pytest.raises(ConfigError) as exc_info:
            parse_config(config(1e-5))
        assert any(
            e.startswith("line 13:") and "field too narrow: sigma = 1e-05" in e
            for e in exc_info.value.errors
        )
        assert parse_config(config(1.0 / 3e4)).field.r0 == 1.0

    def test_compare_truncation_capped(self):
        # default_truncation(312) = 100,484 basis states; 311 needs 99,851
        def config(r0):
            return f"""
[scenario]
name = compare
chi = 1.0
times = 0.0, 0.5

[atom]
kind = phase

[field]
kind = gaussian
r0 = {r0}
sigma = 1.0
"""

        with pytest.raises(ConfigError) as exc_info:
            parse_config(config(312.0))
        assert any(e.startswith("line 12:") and "basis states" in e for e in exc_info.value.errors)
        assert parse_config(config(311.0)).field.r0 == 311.0

    @pytest.mark.parametrize(
        "name, chi, times, line",
        [
            ("phase-dist", "0", "0.5", 4),
            ("pfunction", "0.0", "0.5", 4),
            ("phase-dist", "1", "0, 1", 5),
        ],
    )
    def test_zero_chi_t_rejected(self, name, chi, times, line):
        # the sharp phase law at chi t = 0 is a point mass; chi = 0 was a TypeError traceback
        text = (
            MINIMAL.replace("name = moments", f"name = {name}")
            .replace("chi = 1.0", f"chi = {chi}")
            .replace("times = 0.5, 1.0, 2.0", f"times = {times}")
        )
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        errors = exc_info.value.errors
        assert any(e.startswith(f"line {line}:") and "chi t != 0" in e for e in errors)

    def test_quadrature_overrides(self):
        text = MINIMAL + "\n[quadrature]\nrelative_tolerance = 1e-8\nmax_subdivisions = 1024\n"
        config = parse_config(text)
        assert config.quadrature.relative_tolerance == 1e-8
        assert config.quadrature.max_subdivisions == 1024


class TestScenarios:
    def test_moments_columns_and_rows(self):
        table = run_scenario(parse_config(MINIMAL))
        assert table.columns[0] == "t"
        assert "sigma_minus_adag_abs" in table.columns
        assert len(table.rows) == 3
        assert [row[0] for row in table.rows] == [0.5, 1.0, 2.0]

    def test_phase_dist_delta_grid(self):
        text = MINIMAL.replace("name = moments", "name = phase-dist").replace(
            "kind = phase", "kind = ground"
        )
        table = run_scenario(parse_config(text))
        assert table.columns == ("t", "phi", "density")
        assert len(table.rows) == 3 * 101
        first_t = [r for r in table.rows if r[0] == 0.5]
        kappa = math.sqrt(3.0) * 0.5
        assert first_t[0][1] == pytest.approx(-kappa)
        assert first_t[-1][1] == pytest.approx(kappa)
        assert first_t[-1][2] < 0.0

    def test_gaussian_phase_dist_past_old_spread_cap(self):
        # sqrt(3) chi t = 250 pi; the series cost does not grow with the spread
        t = 250.0 * math.pi / SQRT3
        text = (
            MINIMAL.replace("name = moments", "name = phase-dist")
            .replace("times = 0.5, 1.0, 2.0", f"times = {t!r}")
            .replace("kind = delta\nr0 = 1.0", "kind = gaussian\nr0 = 1.0\nsigma = 1.0")
        )
        rows = run_scenario(parse_config(text)).rows
        assert len(rows) == 201
        # periodic trapezoid over [-pi, pi]: the last row repeats the first
        total = math.fsum(row[2] for row in rows[:-1]) * (2.0 * math.pi / 200)
        assert abs(total - 1.0) < 1e-6

    def test_compare_columns_superset_of_moments(self):
        base = """
[scenario]
name = compare
chi = 1.0
times = 0.0, 0.5

[atom]
kind = phase

[field]
kind = gaussian
r0 = 1.0
sigma = 1.0
"""
        table = run_scenario(parse_config(base))
        moments = run_scenario(parse_config(MINIMAL))
        corr_text = MINIMAL.replace("name = moments", "name = correlations")
        corrs = run_scenario(parse_config(corr_text))
        for col in moments.columns:
            assert col in table.columns
        for col in corrs.columns:
            assert col in table.columns
        assert any(c.startswith("q_") for c in table.columns)
        assert any(c.startswith("sc_") for c in table.columns)
        assert any(c.startswith("mf_") for c in table.columns)

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig4", "fig5"])
    def test_one_bessel_call_per_run(self, name, monkeypatch):
        from importlib import resources

        import hybridwigner.hybrid_model as model

        calls = []
        original = model.spherical_jn

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(model, "spherical_jn", counting)
        text = (resources.files("hybridwigner") / "configs" / f"{name}.cfg").read_text()
        table = run_scenario(parse_config(text))
        assert len(table.rows) > 1
        assert len(calls) == 1

    def test_compare_moment_calls(self, monkeypatch):
        from importlib import resources

        import hybridwigner.cli as cli_module

        counts = {"quantum_moments": 0, "semiclassical_moments": 0}

        def counting(name):
            original = getattr(cli_module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in counts:
            monkeypatch.setattr(cli_module, name, counting(name))
        text = (resources.files("hybridwigner") / "configs" / "fig5.cfg").read_text()
        config = parse_config(text)
        run_scenario(config)
        assert counts == {"quantum_moments": len(config.times), "semiclassical_moments": 2}

    def test_oscillator_scenario_energy_column(self):
        text = """
[scenario]
name = oscillators
chi = 1.0
times = range(0, 3, 31)
beta0_re = 0.5
beta0_im = -0.5

[field]
kind = delta
r0 = 1.0
"""
        table = run_scenario(parse_config(text))
        energies = [row[5] for row in table.rows]
        assert max(abs(e - energies[0]) for e in energies) < 1e-12


class TestEmission:
    def test_byte_identical_reruns(self, tmp_path):
        config = parse_config(MINIMAL)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        emit_csv(run_scenario(config), str(p1))
        emit_csv(run_scenario(config), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_metadata_before_header(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(run_scenario(parse_config(MINIMAL)), str(path))
        lines = path.read_text().splitlines()
        meta = [l for l in lines if l.startswith("# ")]
        assert meta and lines[len(meta)].startswith("t,")
        assert len(lines) == len(meta) + 1 + 3

    def test_empty_rows_header_only(self):
        table = ResultTable(("a", "b"), (), ("note",))
        text = render_csv(table)
        assert text == "# note\na,b\n"

    def test_nan_rejected(self):
        table = ResultTable(("x",), ((float("nan"),),), ())
        with pytest.raises(NumericError):
            render_csv(table)

    def test_seventeen_digit_floats(self):
        table = ResultTable(("x",), ((1.0 / 3.0,),), ())
        assert "0.33333333333333331" in render_csv(table)


class TestMain:
    def test_run_writes_csv(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(MINIMAL)
        out = tmp_path / "out.csv"
        code = main(["run", str(cfg), "--output", str(out)])
        assert code == 0
        assert out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINIMAL.replace("kind = delta\nr0 = 1.0", "kind = gaussian\nr0 = 1.0\nsigma = -1"))
        assert main(["run", str(cfg)]) == 1
        assert "sigma" in capsys.readouterr().err

    def test_nan_chi_exits_with_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(MINIMAL.replace("chi = 1.0", "chi = nan"))
        assert main(["run", str(cfg)]) == 1
        assert "line 4: chi must be finite" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_unwritable_output_exit_code(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(MINIMAL)
        assert main(["run", str(cfg), "--output", str(tmp_path / "no/dir/out.csv")]) == 2

    def test_stdout_when_no_output(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(MINIMAL)
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# hybridwigner")

    @pytest.mark.parametrize(
        "name, kind",
        [
            ("phase-dist", "delta"),
            ("phase-dist", "gaussian"),
            ("pfunction", "delta"),
            ("quad-dist", "gaussian"),
        ],
    )
    def test_negative_chi_runs(self, tmp_path, name, kind):
        field = "kind = delta\nr0 = 1.0"
        if kind == "gaussian":
            field = "kind = gaussian\nr0 = 1.0\nsigma = 1.0"
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            f"[scenario]\nname = {name}\nchi = -1\ntimes = 0.5\n\n"
            f"[atom]\nkind = ground\n\n[field]\n{field}\n"
        )
        assert main(["run", str(cfg), "--output", str(tmp_path / "out.csv")]) == 0

    def test_compare_at_large_amplitude(self, tmp_path):
        # r0 = 30 needs 1221 basis states; the coherent column must stay
        # normalised to the state check's 1e-12 at this size
        cfg = tmp_path / "compare.cfg"
        cfg.write_text(
            """
[scenario]
name = compare
chi = 1.0
times = 0.0, 0.5

[atom]
kind = phase

[field]
kind = gaussian
r0 = 30.0
sigma = 1.0
"""
        )
        out = tmp_path / "out.csv"
        assert main(["run", str(cfg), "--output", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        first = dict(zip(header, (float(v) for v in lines[1].split(","))))
        assert first["q_a_abs"] == pytest.approx(30.0, abs=1e-9)

    def test_infinite_density_exits_with_code_3(self, tmp_path, capsys):
        # a subnormal chi t overflows the sharp law's 1 / (2 sqrt(3) chi t)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            MINIMAL.replace("name = moments", "name = phase-dist").replace(
                "times = 0.5, 1.0, 2.0", "times = 1e-310"
            )
        )
        out = tmp_path / "out.csv"
        assert main(["run", str(cfg), "--output", str(out)]) == 3
        assert not out.exists()
        assert "produced inf" in capsys.readouterr().err

    @pytest.mark.parametrize("name, abscissa", [("quad-dist", "y")])
    def test_convergence_failure_names_time_and_abscissa(self, tmp_path, capsys, name, abscissa):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            f"[scenario]\nname = {name}\nchi = 1.0\ntimes = 0.5\n\n[atom]\nkind = phase\n\n"
            "[field]\nkind = gaussian\nr0 = 1.0\nsigma = 1.0\n\n"
            "[quadrature]\nmax_subdivisions = 1\nrelative_tolerance = 1e-14\n"
        )
        out = tmp_path / "out.csv"
        assert main(["run", str(cfg), "--output", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        prefix = f"numeric failure: scenario {name}: t = 0.5, {abscissa} = "
        assert err.startswith(prefix)
        where, _, cause = err[len(prefix):].partition(": ")
        assert math.isfinite(float(where))
        assert cause.startswith("no convergence after 1 subdivisions")

    @pytest.mark.parametrize(
        "name, chi, times, field, extra, key",
        [
            # sqrt(3) |chi| t overflows
            ("phase-dist", "1e300", "1e9", UNIT_GAUSSIAN, "", "times"),
            ("moments", "1e300", "1e9", UNIT_GAUSSIAN, "", "times"),
            ("pfunction", "1e300", "1e9", UNIT_GAUSSIAN, "", "times"),
            ("compare", "1e300", "1e10", UNIT_GAUSSIAN, "", "times"),
            # 2 |chi| r0^2 t of a delta field overflows
            ("moments", "1e300", "1e7", "kind = delta\nr0 = 10.0", "", "times"),
            ("correlations", "1e300", "1e7", "kind = delta\nr0 = 10.0", "", "times"),
            # compare: 2 |chi| <|alpha|^2> t of the mean-field model, |chi| t n_max of the quantum one
            ("compare", "1e300", "1e7", "kind = gaussian\nr0 = 10.0\nsigma = 1.0", "", "times"),
            ("compare", "1e300", "1e7", "kind = gaussian\nr0 = 0.0\nsigma = 1.0", "", "times"),
            # |chi| t of the oscillator flow overflows
            ("oscillators", "1e300", "1e9", "kind = delta\nr0 = 1.0", "", "times"),
            # sigma^2 underflows to 0
            ("phase-dist", "1.0", "0.5", "kind = gaussian\nr0 = 1.0\nsigma = 1e-200", "", "sigma"),
            ("quad-dist", "1.0", "0.5", "kind = gaussian\nr0 = 1.0\nsigma = 1e-200", "", "sigma"),
            # the oscillator energy |alpha|^2 + |beta|^2 overflows
            ("oscillators", "1.0", "0.5", "kind = delta\nr0 = 1e200", "", "r0"),
            ("oscillators", "1.0", "0.5", "kind = delta\nr0 = 1.0", "beta0_re = 1e200\n", "beta0_re"),
        ],
        ids=[
            "phase-dist-kappa",
            "moments-kappa",
            "pfunction-kappa",
            "compare-kappa",
            "moments-delta-intensity",
            "correlations-delta-intensity",
            "compare-mean-field",
            "compare-quantum",
            "oscillators-flow",
            "phase-dist-sigma",
            "quad-dist-sigma",
            "oscillators-r0",
            "oscillators-beta0",
        ],
    )
    def test_overflow_rejected_with_line(self, tmp_path, capsys, name, chi, times, field, extra, key):
        text = _scenario(name, chi, times, field, extra)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        assert main(["run", str(cfg), "--output", str(out)]) == 1
        assert not out.exists()
        line = next(n for n, l in enumerate(text.splitlines(), 1) if l.startswith(f"{key} ="))
        err = capsys.readouterr().err
        assert f"config error: line {line}: scenario {name}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, chi, times, field",
        [
            ("moments", "1e300", "1e7", "kind = gaussian\nr0 = 10.0\nsigma = 1.0"),
            ("moments", "1.0", "0.5", "kind = gaussian\nr0 = 1.0\nsigma = 1e-200"),
            # m kappa overflows past the first modes, where j0 and j1 vanish
            ("phase-dist", "1e154", "1e154", UNIT_GAUSSIAN),
        ],
        ids=["moments-gaussian-intensity", "moments-sigma", "phase-dist-modes"],
    )
    def test_large_finite_phases_run(self, tmp_path, name, chi, times, field):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(_scenario(name, chi, times, field))
        assert main(["run", str(cfg), "--output", str(tmp_path / "out.csv")]) == 0

    def test_verify_is_not_a_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("[scenario]\nname = verify\n")
        assert main(["run", str(cfg)]) == 1
        assert "line 2: unknown scenario 'verify'" in capsys.readouterr().err

    def test_nan_aborts_with_exit_code_3(self, tmp_path, monkeypatch, capsys):
        import hybridwigner.cli as cli_module

        def nan_moments(atom, field, chi, times):
            return [dict.fromkeys(ObservableSymbol, complex(float("nan"), 0.0)) for _ in times]

        monkeypatch.setattr(cli_module, "closed_moments", nan_moments)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(MINIMAL)
        out = tmp_path / "out.csv"
        assert main(["run", str(cfg), "--output", str(out)]) == 3
        assert not out.exists()
        assert "numeric" in capsys.readouterr().err


def test_bundled_figure_configs_parse():
    from importlib import resources

    for name in ("fig1", "fig2", "fig3", "fig4", "fig5"):
        text = (resources.files("hybridwigner") / "configs" / f"{name}.cfg").read_text()
        config = parse_config(text)
        assert config.times
