import math
from dataclasses import replace

import pytest

import hybridwigner.cli as cli_module
import hybridwigner.quadrature as quadrature
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
DELTA = "kind = delta\nr0 = 1.0"


def _scenario(name, chi, times, field, extra=""):
    return (
        f"[scenario]\nname = {name}\nchi = {chi}\ntimes = {times}\n{extra}\n"
        f"[atom]\nkind = ground\n\n[field]\n{field}\n"
    )


class TestParsing:
    @pytest.mark.parametrize(
        "old, new, error",
        [
            ("times = 0.5, 1.0, 2.0", "times = range(0, 1)", "line 5: range takes (start, stop, steps)"),
            ("times = 0.5, 1.0, 2.0", "times = range(1, 0, 5)", "line 5: range stop must exceed start"),
            ("times = 0.5, 1.0, 2.0", "times = ,", "line 5: times list is empty"),
            ("kind = phase", "kind = bloch", "line 8: bloch atom needs key 's = sx, sy, sz'"),
            ("r0 = 1.0", "r0 = -1", "line 11: r0 must be non-negative and finite"),
        ],
        ids=["range-two-parts", "range-stop-below-start", "times-empty", "bloch-without-s", "delta-negative-r0"],
    )
    def test_refusal_names_its_line(self, old, new, error):
        with pytest.raises(ConfigError) as exc_info:
            parse_config(MINIMAL.replace(old, new))
        assert exc_info.value.errors == [error]

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

    @pytest.mark.parametrize(
        "bad, first, error",
        [
            ("nan", False, "must be finite, got nan"),
            ("-inf", True, "must be finite, got -inf"),
            ("-1e-9", True, "must be non-negative, got -1e-09"),
            ("2.5x", False, "must be a number, got '2.5x'"),
        ],
    )
    def test_times_refusal_names_the_entry(self, bad, first, error):
        # a full-size increasing list with one bad entry: the message names it, not the list
        n = MAX_RANGE_STEPS
        entries = [str(k) for k in range(n - 1)]
        entries.insert(0 if first else n - 1, bad)
        with pytest.raises(ConfigError) as exc_info:
            parse_config(MINIMAL.replace("times = 0.5, 1.0, 2.0", f"times = {', '.join(entries)}"))
        assert exc_info.value.errors == [f"line 5: times entry {1 if first else n} of {n} {error}"]
        assert len(exc_info.value.errors[0]) < 200

    def test_range_steps_capped(self):
        def times(steps):
            return MINIMAL.replace("times = 0.5, 1.0, 2.0", f"times = range(0, 4, {steps})")

        with pytest.raises(ConfigError) as exc_info:
            parse_config(times(MAX_RANGE_STEPS + 1))
        assert any(e.startswith("line 5:") and "range steps" in e for e in exc_info.value.errors)
        assert len(parse_config(times(MAX_RANGE_STEPS)).times) == MAX_RANGE_STEPS

    def test_times_list_capped(self):
        def times(count):
            listed = ", ".join(str(k) for k in range(count))
            return MINIMAL.replace("times = 0.5, 1.0, 2.0", f"times = {listed}")

        with pytest.raises(ConfigError) as exc_info:
            parse_config(times(MAX_RANGE_STEPS + 1))
        assert exc_info.value.errors == [
            f"line 5: times list has {MAX_RANGE_STEPS + 1} points, more than {MAX_RANGE_STEPS}"
        ]
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

    @pytest.mark.parametrize("name", ["phase-dist", "quad-dist"])
    def test_gaussian_width_capped(self, name):
        # r0 / sigma = 1e5 needs 2^21 field-azimuth points; 3e4 needs 2^20
        def config(sigma):
            return (
                MINIMAL.replace("name = moments", f"name = {name}")
                .replace("kind = delta\nr0 = 1.0", f"kind = gaussian\nr0 = 1.0\nsigma = {sigma}")
            )

        with pytest.raises(ConfigError) as exc_info:
            parse_config(config(1e-5))
        assert any(
            e.startswith("line 13:") and "field too narrow: sigma = 1e-05" in e
            for e in exc_info.value.errors
        )
        assert parse_config(config(1.0 / 3e4)).field.r0 == 1.0

    def test_compare_beyond_the_basis_cap_runs(self):
        # a truncated number basis for r0 = 312 would need 100,484 states; the
        # closed-form quantum reference needs none
        text = _scenario("compare", "1.0", "0.0, 0.5", "kind = gaussian\nr0 = 312.0\nsigma = 1.0")
        table = run_scenario(parse_config(text))
        first = dict(zip(table.columns, table.rows[0]))
        assert first["q_a_abs"] == 312.0
        assert all(math.isfinite(v) for row in table.rows for v in row)

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

    @pytest.mark.parametrize(
        "key, value",
        [("radial_cutoff_sigmas", "12"), ("max_subdivisions", "8")],
        ids=["radial_cutoff_sigmas", "max_subdivisions"],
    )
    def test_radial_cutoff_key_rejected(self, key, value):
        # no scenario reads them: quad-dist takes only the two tolerances
        text = MINIMAL + f"\n[quadrature]\n{key} = {value}\n"
        line = text.splitlines().index(f"{key} = {value}") + 1
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        assert exc_info.value.errors == [f"line {line}: unknown key {key!r} in [quadrature]"]

    @pytest.mark.parametrize("key", ["beta0_re", "beta0_im"])
    @pytest.mark.parametrize(
        "name, field",
        [
            ("moments", DELTA),
            ("correlations", DELTA),
            ("phase-dist", DELTA),
            ("pfunction", DELTA),
            ("quad-dist", UNIT_GAUSSIAN),
            ("compare", UNIT_GAUSSIAN),
        ],
        ids=["moments", "correlations", "phase-dist", "pfunction", "quad-dist", "compare"],
    )
    def test_beta0_outside_oscillators_rejected(self, name, field, key):
        text = _scenario(name, "1.0", "0.5", field, f"{key} = 7\n")
        line = text.splitlines().index(f"{key} = 7") + 1
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        (error,) = exc_info.value.errors
        assert error.startswith(f"line {line}: scenario {name} takes no {key}")

    def test_quadrature_overrides(self):
        text = MINIMAL + "\n[quadrature]\nrelative_tolerance = 1e-8\n"
        config = parse_config(text)
        assert config.quadrature.relative_tolerance == 1e-8
        assert config.quadrature.absolute_tolerance == 1e-12

    @pytest.mark.parametrize(
        "keys, errors",
        [
            ("relative_tolerance = -1", ["relative_tolerance must be positive and finite"]),
            (
                "relative_tolerance = 0\nabsolute_tolerance = -1e-12",
                [
                    "relative_tolerance must be positive and finite",
                    "absolute_tolerance must be positive and finite",
                ],
            ),
        ],
        ids=["rel", "each-on-its-line"],
    )
    def test_quadrature_errors_name_line(self, keys, errors):
        text = MINIMAL + f"\n[quadrature]\n{keys}\n"
        lines = text.splitlines()
        first = len(lines) - len(keys.splitlines()) + 1
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        assert exc_info.value.errors == [f"line {first + k}: {e}" for k, e in enumerate(errors)]

    @pytest.mark.parametrize(
        "text, errors",
        [
            (
                _scenario("compare", "1e300", "1e9", DELTA, "beta0_re = 2\n").replace(
                    "kind = ground", "kind = bloch\ns = 0.3, 0.0, -0.4"
                ),
                [
                    "line 12: scenario compare requires a gaussian field with sigma = 1",
                    "line 5: scenario compare takes no beta0_re (the second amplitude of oscillators)",
                    "line 4: scenario compare: phase 2 |chi| r0^2 t is not finite"
                    " at chi = 1e+300, t = 1000000000.0",
                    "line 4: scenario compare: phase 2 |chi| <|alpha|^2> t is not finite"
                    " at chi = 1e+300, t = 1000000000.0",
                    "line 4: scenario compare: phase |chi| t is not finite"
                    " at chi = 1e+300, t = 1000000000.0",
                ],
            ),
            (
                _scenario(
                    "quad-dist", "1.0", "1000", "kind = gaussian\nr0 = 1.0\nsigma = 1e-200",
                    "beta0_im = 3\n",
                ),
                [
                    "line 4: scenario quad-dist: phase spread sqrt(3) |chi| t = 1732.05"
                    " exceeds 628.319",
                    "line 13: scenario quad-dist: field too narrow: sigma = 1e-200 at r0 = 1.0"
                    " needs more than 1048576 azimuth points",
                    "line 5: scenario quad-dist takes no beta0_im (the second amplitude of oscillators)",
                ],
            ),
            (
                "[scenario]\nname = oscillators\nchi = 1e300\ntimes = 0.5, 1e9\n",
                [
                    "line 2: scenario oscillators uses a delta field for the initial amplitude",
                    "line 4: scenario oscillators: phase |chi| t is not finite"
                    " at chi = 1e+300, t = 1000000000.0",
                ],
            ),
            (
                _scenario("pfunction", "0", "0.5", DELTA, "beta0_re = 2\n"),
                [
                    "line 3: scenario pfunction requires chi t != 0 (a point mass at 0)",
                    "line 5: scenario pfunction takes no beta0_re (the second amplitude of oscillators)",
                ],
            ),
        ],
        ids=["compare", "quad-dist", "oscillators", "pfunction"],
    )
    def test_combination_errors_in_order(self, text, errors):
        # field, work caps, beta0, then the phases in the order the run forms them
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        assert exc_info.value.errors == errors


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

    @pytest.mark.parametrize("chi", ["0.7", "-0.7"])
    @pytest.mark.parametrize(
        "atom",
        ["kind = ground", "kind = phase", "kind = bloch\ns = 0.3, -0.2, 0.5"],
        ids=["ground", "phase", "bloch"],
    )
    def test_pfunction_csv_is_the_sharp_phase_dist_csv(self, atom, chi):
        # the P-function weight is the sharp-field phase law: only the scenario
        # line and the header tell the two tables apart
        text = MINIMAL.replace("kind = phase", atom).replace("chi = 1.0", f"chi = {chi}")
        tables = [
            render_csv(run_scenario(parse_config(text.replace("name = moments", f"name = {name}")))).splitlines()
            for name in ("pfunction", "phase-dist")
        ]
        assert len(tables[0]) == len(tables[1]) == 7 + 1 + 3 * 101
        assert [pair for pair in zip(*tables) if pair[0] != pair[1]] == [
            ("# scenario = pfunction", "# scenario = phase-dist"),
            ("t,delta,p", "t,phi,density"),
        ]

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

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4", "fig5"])
    def test_one_bessel_call_per_run(self, name, monkeypatch):
        # fig3's Gaussian series takes its weights from one array call; the
        # closed forms of the others take j0-j2 per time from _bessel_012
        from importlib import resources

        import hybridwigner.hybrid_model as model

        calls = []
        original = model._spherical_bessel

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(model, "_spherical_bessel", counting)
        text = (resources.files("hybridwigner") / "configs" / f"{name}.cfg").read_text()
        table = run_scenario(parse_config(text))
        assert len(table.rows) > 1
        assert len(calls) == (1 if name == "fig3" else 0)

    def test_compare_moment_calls(self, monkeypatch):
        from importlib import resources

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
        assert counts == {"quantum_moments": 1, "semiclassical_moments": 2}

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

    def test_oscillator_metadata_names_beta0(self):
        text = _scenario("oscillators", "1.0", "0.5", DELTA, "beta0_re = 0.5\nbeta0_im = -0.5\n")
        metadata = run_scenario(parse_config(text)).metadata
        assert "beta0 = (0.5-0.5j)" in metadata
        other = run_scenario(parse_config(text.replace("beta0_re = 0.5", "beta0_re = 2"))).metadata
        assert metadata != other

    def test_every_cell_is_a_float(self):
        # the finiteness pass and the %.17g rows are written for floats alone
        fields = {
            "phase-dist": DELTA,
            "quad-dist": UNIT_GAUSSIAN,
            "moments": DELTA,
            "correlations": DELTA,
            "pfunction": DELTA,
            "compare": UNIT_GAUSSIAN,
            "oscillators": DELTA,
        }
        assert list(fields) == list(cli_module._SCENARIOS)
        for name, field in fields.items():
            table = run_scenario(parse_config(_scenario(name, 1.0, "0.5, 1.0", field)))
            assert {type(v) for row in table.rows for v in row} == {float}, name

    @pytest.mark.parametrize(
        "value, text", [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")]
    )
    def test_non_finite_last_cell_refused(self, monkeypatch, value, text):
        record = cli_module._SCENARIOS["moments"]

        def rows(config):
            table = record.rows(config)
            return table[:-1] + [table[-1][:-1] + (value,)]

        monkeypatch.setitem(cli_module._SCENARIOS, "moments", replace(record, rows=rows))
        with pytest.raises(NumericError, match=f"^scenario moments produced {text}$"):
            run_scenario(parse_config(MINIMAL))


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

    def test_short_row_refused(self):
        with pytest.raises(ValueError, match="row length does not match column count"):
            ResultTable(("a", "b"), ((1.0, 2.0), (3.0,)), ())

    def test_empty_rows_header_only(self):
        table = ResultTable(("a", "b"), (), ("note",))
        text = render_csv(table)
        assert text == "# note\na,b\n"

    def test_nan_rejected(self):
        table = ResultTable(("x",), ((float("nan"),),), ())
        with pytest.raises(NumericError, match="NaN"):
            render_csv(table)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_inf_rejected(self, value, tmp_path):
        table = ResultTable(("x", "y"), ((1.0, 2.0), (3.0, value)), ())
        with pytest.raises(NumericError, match="refusing to write infinity"):
            render_csv(table)
        path = tmp_path / "out.csv"
        with pytest.raises(NumericError):
            emit_csv(table, str(path))
        assert not path.exists()

    def test_list_rows_render_like_tuples(self):
        rows = [[0.5, -0.0], [1e-310, 3.0]]
        as_tuples = ResultTable(("x", "y"), tuple(map(tuple, rows)), ())
        assert render_csv(ResultTable(("x", "y"), rows, ())) == render_csv(as_tuples)

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

    def test_quad_dist_run_makes_no_interval_integral(self, tmp_path, monkeypatch):
        # the tail rows go through the lockstep engine, never integrate_interval
        import hybridwigner.hybrid_model as hybrid_model

        calls = []
        original = quadrature.integrate_interval

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return original(*args, **kwargs)

        for module in (quadrature, hybrid_model):
            monkeypatch.setattr(module, "integrate_interval", counting)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(_scenario("quad-dist", "1.0", "0.0, 0.5, 2.0", UNIT_GAUSSIAN))
        out = tmp_path / "out.csv"
        assert main(["run", str(cfg), "--output", str(out)]) == 0
        assert calls == []
        assert len(out.read_text().splitlines()) > 3 * 201

    @pytest.mark.parametrize("name, abscissa", [("quad-dist", "y")])
    def test_convergence_failure_names_time_and_abscissa(
        self, tmp_path, capsys, monkeypatch, name, abscissa
    ):
        # a real engine failure on a budget of one subdivision; at the default
        # budget the same failure takes seconds
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 1)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            f"[scenario]\nname = {name}\nchi = 1.0\ntimes = 0.5\n\n[atom]\nkind = phase\n\n"
            "[field]\nkind = gaussian\nr0 = 1.0\nsigma = 1.0\n\n"
            "[quadrature]\nrelative_tolerance = 1e-14\n"
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
            # a Gaussian's 2 |chi| sigma^2 t overflows: both parts of F1's (1 + i chi sigma^2 t)^2 do
            ("moments", "1e154", "1e154", UNIT_GAUSSIAN, "", "times"),
            ("correlations", "1e154", "1e154", UNIT_GAUSSIAN, "", "times"),
            # a Gaussian's sigma^2 t underflows to 0 and its 2 |chi| r0^2 t overflows
            ("moments", "1e9", "1e300", "kind = gaussian\nr0 = 1.0\nsigma = 1e-200", "", "times"),
            ("correlations", "1e9", "1e300", "kind = gaussian\nr0 = 1.0\nsigma = 1e-200", "", "times"),
            # compare: 2 |chi| <|alpha|^2> t of the mean-field model
            ("compare", "1e300", "1e7", "kind = gaussian\nr0 = 10.0\nsigma = 1.0", "", "times"),
            # the width 2 sqrt(3) |chi| t of a sharp law's row grid overflows
            ("pfunction", "1e154", "1e154", UNIT_GAUSSIAN, "", "times"),
            ("phase-dist", "1e154", "1e154", "kind = delta\nr0 = 1.0", "", "times"),
            # |chi| t of the oscillator flow overflows
            ("oscillators", "1e300", "1e9", "kind = delta\nr0 = 1.0", "", "times"),
            # sigma^2 underflows to 0
            ("phase-dist", "1.0", "0.5", "kind = gaussian\nr0 = 1.0\nsigma = 1e-200", "", "sigma"),
            ("quad-dist", "1.0", "0.5", "kind = gaussian\nr0 = 1.0\nsigma = 1e-200", "", "sigma"),
            # r0 / sigma = 1e5 needs more field-azimuth points than the cap
            ("quad-dist", "1.0", "0.5", "kind = gaussian\nr0 = 1.0\nsigma = 1e-5", "", "sigma"),
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
            "moments-gaussian-width",
            "correlations-gaussian-width",
            "moments-gaussian-underflow",
            "correlations-gaussian-underflow",
            "compare-mean-field",
            "pfunction-width",
            "phase-dist-delta-width",
            "oscillators-flow",
            "phase-dist-sigma",
            "quad-dist-sigma",
            "quad-dist-narrow",
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
            # the quantum reference's phase is |chi| t = 1e307, with no number-basis cutoff in it
            ("compare", "1e300", "1e7", "kind = gaussian\nr0 = 0.0\nsigma = 1.0"),
        ],
        ids=["moments-gaussian-intensity", "moments-sigma", "phase-dist-modes", "compare-quantum"],
    )
    def test_large_finite_phases_run(self, tmp_path, name, chi, times, field):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(_scenario(name, chi, times, field))
        assert main(["run", str(cfg), "--output", str(tmp_path / "out.csv")]) == 0

    def test_sharp_law_with_finite_width_runs(self, tmp_path):
        # kappa = 8.7e307: the width 2 kappa is still below the float range
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(_scenario("pfunction", "1.0", "5e307", UNIT_GAUSSIAN))
        out = tmp_path / "out.csv"
        assert main(["run", str(cfg), "--output", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 101
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))

    @pytest.mark.parametrize(
        "text, key_line, message",
        [
            (_scenario("quad-dist", "1.0", "0.5", DELTA), "kind = delta", "requires a gaussian field"),
            (_scenario("compare", "1.0", "0.5", DELTA), "kind = delta", "sigma = 1"),
            (
                _scenario("compare", "1.0", "0.5", "kind = gaussian\nr0 = 1.0\nsigma = 2.0"),
                "sigma = 2.0",
                "sigma = 1",
            ),
            (_scenario("oscillators", "1.0", "0.5", UNIT_GAUSSIAN), "kind = gaussian", "delta field"),
            # no [field] section: the default Gaussian comes with the scenario name
            ("[scenario]\nname = oscillators\ntimes = 0.5\n", "name = oscillators", "delta field"),
        ],
        ids=[
            "quad-dist-delta",
            "compare-delta",
            "compare-sigma",
            "oscillators-gaussian",
            "oscillators-default-field",
        ],
    )
    def test_combination_error_names_line(self, tmp_path, capsys, text, key_line, message):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg), "--output", str(tmp_path / "out.csv")]) == 1
        line = text.splitlines().index(key_line) + 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {line}: scenario ")
        assert message in err
        assert len(err.splitlines()) == 1

    def test_compare_takes_a_bloch_atom(self, tmp_path):
        # the closed quantum moments are linear in the Bloch vector, so a mixed atom runs
        text = _scenario("compare", "1.0", "0.0, 0.5", UNIT_GAUSSIAN).replace(
            "kind = ground", "kind = bloch\ns = 0.3, -0.2, 0.5"
        )
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        assert main(["run", str(cfg), "--output", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        first = dict(zip(lines[0].split(","), (float(v) for v in lines[1].split(","))))
        assert first["q_sigma_z_re"] == 0.5
        assert first["q_sigma_minus_re"] == pytest.approx(0.15, abs=1e-15)
        assert first["q_sigma_minus_im"] == pytest.approx(-0.1, abs=1e-15)

    def test_verify_filter_passes(self, capsys):
        assert main(["verify", "--filter", "sphere"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[PASS] criterion 9: sphere representation\n")

    def test_verify_failing_criterion_exits_4(self, capsys):
        # criterion 3 fails by design (its measured values are pinned in test_acceptance)
        assert main(["verify", "--filter", "quadrature negativity"]) == 4
        assert capsys.readouterr().out.startswith("[FAIL] criterion 3:")

    def test_verify_filter_without_match_exits_1(self, capsys):
        assert main(["verify", "--filter", "no such criterion"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no acceptance criterion matches filter 'no such criterion'" in captured.err

    def test_verify_is_not_a_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("[scenario]\nname = verify\n")
        assert main(["run", str(cfg)]) == 1
        assert "line 2: unknown scenario 'verify'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("chi = 1.0", "chi = " + "x" * 100_000, 4),
            ("chi = 1.0", "chi = " + "1" * 100_000, 4),
            ("chi = 1.0", "chi = 1.0\n" + "x" * 100_000, 5),
            ("r0 = 1.0", "r0 = 1.0\n[" + "s" * 100_000 + "]", 13),
            ("name = moments", "name = " + "m" * 100_000, 3),
            ("times = 0.5, 1.0, 2.0", "times = 0.5, " + "t" * 100_000, 5),
            ("times = 0.5, 1.0, 2.0", "times = range(0, " + "9" * 100_000 + "z, 3)", 5),
            ("kind = phase", "kind = phase\n" + "k" * 100_000 + " = 1", 9),
            ("kind = phase", "kind = bloch\ns = " + "0.1x," * 20_000, 9),
        ],
        ids=[
            "chi-not-a-number", "chi-overflow", "stray-line", "section", "scenario",
            "times-entry", "malformed-range", "unknown-key", "bloch",
        ],
    )
    def test_long_config_text_is_clipped(self, tmp_path, capsys, old, new, line):
        # a refusal quotes the start of a 100,000-character value and its length
        cfg = tmp_path / "long.cfg"
        cfg.write_text(MINIMAL.replace(old, new))
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {line}: ")
        assert err.count("\n") == 1 and len(err) < 200
        assert "characters)" in err

    def test_nan_aborts_with_exit_code_3(self, tmp_path, monkeypatch, capsys):
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


# sha256 of each bundled figure's CSV.  fig1, fig2, fig4 and fig5 are closed
# forms that load no numpy, so they hold on every numpy.  fig3's Gaussian
# series goes through numpy's floating-point routines, whose last bits may
# differ between releases, so its hash is keyed by numpy major.minor.  A change
# that moves a figure updates its entry and says why.
FIGURE_SHA256 = {
    "fig1": "b8d5e443d22973c429048e04c41170e164bfb02dceb1698783a0085d53c2d05c",
    "fig2": "f9abd7afda6696fc7a72f8e92d91173c7f3d57704d84a29c0fe0095bda03e461",
    "fig3": {"2.4": "f49e5c902bad1b780c01d138399958316c3d75b22b090d0ba9ad6abab8e6957e"},
    "fig4": "f53d368645a147e400f47941b72fc75faaf38843dd2bf6d838faa200392001ec",
    "fig5": "868c488c418c92dd238b29aaf7f9215a89a07d9f6c47066a5988dbf84b1e53e7",
}


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4", "fig5"])
def test_figure_csv_matches_recorded_hash(name, tmp_path):
    import hashlib
    from importlib import resources

    expected = FIGURE_SHA256[name]
    if isinstance(expected, dict):
        import numpy as np

        version = ".".join(np.__version__.split(".")[:2])
        if version not in expected:
            pytest.skip(f"no {name} hash recorded for numpy {version}")
        expected = expected[version]
    text = (resources.files("hybridwigner") / "configs" / f"{name}.cfg").read_text()
    out = tmp_path / f"{name}.csv"
    emit_csv(run_scenario(parse_config(text)), str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_readme_names_the_scenarios():
    import re
    from pathlib import Path

    from hybridwigner.cli import _SCENARIOS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("name = "))
    comment = [lines[start].partition("#")[2]]
    for line in lines[start + 1 :]:
        if not line.lstrip().startswith("#"):
            break
        comment.append(line.partition("#")[2])
    listed = [name.strip() for name in " ".join(comment).split("|") if name.strip()]
    section = readme.split("### Scenarios and columns\n", 1)[1].split("\n#", 1)[0]
    bullets = re.findall(r"^- `([a-z-]+)`:", section, re.M)
    assert listed == bullets == list(_SCENARIOS)
