from __future__ import annotations

import json

import pytest

from tunnelkit.cli import NEUTRON_CHECKS, main

from neutron_reference import neutron_reference


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_transmission_csv_shape_and_peak(capsys):
    code, out, _ = run_cli(
        capsys, "transmission", "--emin", "100", "--emax", "150", "--points", "101"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "E_neV,probability,tau_s"
    assert len(lines) == 102
    rows = [line.split(",") for line in lines[1:]]
    best = max(rows, key=lambda r: float(r[1]))
    assert abs(float(best[0]) - 123.0) < 1.0
    assert float(best[1]) > 0.999


def test_transmission_grid_bound_above_barrier_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "transmission", "--emin", "100", "--emax", "230", "--points", "5"
    )
    assert code == 3
    assert "domain error" in err


@pytest.mark.parametrize("flag", ["--a", "--l", "--u0", "--mass-ratio"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_transmission_non_finite_system_is_config_error(capsys, flag, value):
    code, out, err = run_cli(capsys, "transmission", flag, value, "--points", "3")
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_transmission_json_is_byte_stable(capsys):
    args = ("transmission", "--emin", "50", "--emax", "200", "--points", "11",
            "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert len(doc) == 11
    assert set(doc[0]) == {"E_neV", "probability", "tau_s"}
    # full round-trip precision survives the serialization
    assert json.loads(json.dumps(doc)) == doc


def test_transmission_single_point_grid(capsys):
    code, out, _ = run_cli(
        capsys, "transmission", "--emin", "100", "--emax", "150", "--points", "1"
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_resonances_default_window(capsys):
    code, out, _ = run_cli(capsys, "resonances")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 1
    assert doc[0]["E_r_neV"] == pytest.approx(123.04, abs=0.05)
    assert doc[0]["beta_neV"] == pytest.approx(1.827, abs=0.01)
    assert doc[0]["tau_r_s"] > 0


def test_resonances_window_excluding_root(capsys):
    code, out, _ = run_cli(capsys, "resonances", "--emin", "1", "--emax", "60")
    assert code == 0
    assert json.loads(out) == []


def test_resonances_fit_mass(capsys):
    code, out, _ = run_cli(capsys, "resonances", "--fit-mass", "127")
    assert code == 0
    doc = json.loads(out)
    assert doc["fitted_mass_ratio"] == pytest.approx(0.926883, abs=1e-4)


def test_resonances_prints_its_single_root_without_a_grid(capsys, monkeypatch):
    # The search follows the psi branches; the retired TUNNELKIT_GRID_CELLS
    # is ignored, whatever it holds.
    monkeypatch.setenv("TUNNELKIT_GRID_CELLS", "zero")
    code, out, err = run_cli(capsys, "resonances")
    assert (code, err) == (0, "")
    (root,) = json.loads(out)
    assert root["E_r_neV"] == pytest.approx(123.0435540004, rel=1e-9)


def test_neutron_report_schema(capsys):
    code, out, _ = run_cli(capsys, "neutron")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "E_r_free_mass",
        "fitted_mass_ratio",
        "beta",
        "tau_r",
        "tau_avg",
        "annotations",
    ]


def test_neutron_check_reports_known_violations(capsys, tmp_path):
    # The defaults meet all four fixtures.
    code, _, err = run_cli(capsys, "neutron", "--check")
    assert code == 0
    assert err.count("PASS ") == 4
    assert "FAIL" not in err

    # A different free neutron mass leaves the fitted mass in kg unchanged
    # but moves its ratio to m_neutron by ~1e-3, outside the 1e-4 fixture.
    heavier = tmp_path / "heavier.json"
    heavier.write_text(json.dumps({"m_neutron": 1.6766e-27}), encoding="utf-8")
    code, _, err = run_cli(capsys, "neutron", "--check", "--constants", str(heavier))
    assert code == 4
    assert "PASS E_r_free_mass" in err
    assert "FAIL fitted_mass_ratio" in err
    assert "acceptance violations: fitted_mass_ratio\n" in err


def test_neutron_check_fixtures_match_reference():
    # The phase-time rows of the CLI gate are the independent mpmath
    # reference, rounded to the digits written in the fixture.
    reference = neutron_reference()
    rows = {name: (value, tol) for name, value, tol, _ in NEUTRON_CHECKS}
    assert rows["tau_r"][0] == pytest.approx(reference["tau_r"], rel=1e-10, abs=0)
    assert rows["tau_avg"][0] == pytest.approx(reference["tau_avg"], rel=1e-10, abs=0)
    assert rows["tau_r"][1] == 1e-9
    assert rows["tau_avg"][1] == 1e-9


def test_neutron_corrupted_constants_file(capsys, tmp_path):
    bad = tmp_path / "constants.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "neutron", "--constants", str(bad))
    assert code == 2
    assert "config error" in err

    negative = tmp_path / "neg.json"
    negative.write_text(json.dumps({"hbar": -1.0}), encoding="utf-8")
    code, _, err = run_cli(capsys, "neutron", "--constants", str(negative))
    assert code == 2


def test_neutron_constants_override_round_trips(capsys, tmp_path):
    good = tmp_path / "codata.json"
    good.write_text(
        json.dumps({"hbar": 1.054571817e-34, "m_neutron": 1.67492749804e-27}),
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "neutron", "--constants", str(good))
    assert code == 0
    assert json.loads(out)["E_r_free_mass"] == pytest.approx(123.04, abs=0.05)


def test_neutron_constants_refuse_hbar_override(capsys, tmp_path):
    # The closed forms always use CODATA 2018 hbar; another value would be
    # ignored silently, so it is refused before anything is computed.
    other = tmp_path / "hbar.json"
    other.write_text(json.dumps({"hbar": 1.2e-34}), encoding="utf-8")
    code, out, err = run_cli(capsys, "neutron", "--constants", str(other))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: constants field 'hbar'")
    assert "1.2e-34" in err


def test_sweep_csv_and_flags(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--axis", "barrier_width",
        "--energy", "80.5",
        "--values", "600", "800", "1000",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "sweep_value_angstrom,probability,tau_exact_s,tau_asymptotic_s,flagged"
    assert len(lines) == 4


def test_sweep_json_units(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--axis", "gap_length",
        "--energy", "80.5",
        "--values", "100", "200",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["axis"] == "gap_length"
    assert [r["sweep_value_angstrom"] for r in doc["rows"]] == pytest.approx(
        [100.0, 200.0]
    )


def test_sweep_requires_axis_and_values(capsys):
    code, _, err = run_cli(capsys, "sweep", "--energy", "80.5", "--values", "100")
    assert code == 2
    assert "axis" in err
    code, _, err = run_cli(capsys, "sweep", "--axis", "barrier_width")
    assert code == 2
    assert "values" in err


@pytest.mark.parametrize(
    "values", ['["x", 3]', "5", "[NaN, 3]", "[]"], ids=["string", "scalar", "nan", "empty"]
)
def test_sweep_config_values_must_be_a_list_of_numbers(capsys, tmp_path, values):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        f'{{"sweep": {{"axis": "gap_length", "values_angstrom": {values}}}}}',
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "config error" in err and "values" in err


def test_sweep_values_flag_must_be_finite(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--axis", "gap_length", "--values", "100", "nan"
    )
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_oracle_check_passes_by_default(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--points", "60")
    assert code == 0
    assert out.strip().endswith("OK")
    assert "amplitude: max relative deviation" in out
    assert "phase_time: max relative deviation" in out


def test_oracle_check_single_point(capsys):
    code, out, _ = run_cli(
        capsys, "oracle-check", "--emin", "100", "--emax", "150", "--points", "1"
    )
    assert code == 0


def test_oracle_check_reports_a_resonance_narrower_than_the_stencil(capsys):
    # beta is 4.7e-3 of the 1e-6 E_r half-stencil at this root, so the numeric
    # value is the stencil mean, far below tau_r: a deviation, not an error.
    code, out, _ = run_cli(
        capsys, "oracle-check", "--a", "1000", "--l", "3000", "--u0", "230",
        "--emin", "71.8338309123095", "--emax", "229", "--points", "1",
    )
    assert code == 5
    (fail,) = [line for line in out.splitlines() if line.startswith("FAIL: ")]
    assert "phase_time at E=71.833831 neV" in fail


def test_oracle_check_impossible_tolerance(capsys):
    code, out, _ = run_cli(
        capsys, "oracle-check", "--points", "40", "--amp-tol", "1e-16"
    )
    assert code == 5
    assert "FAIL: amplitude at E=" in out


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "system": {"a_angstrom": 300.0, "U0_neV": 230.0,
                           "L_angstrom": 195.0, "mass_ratio": 1.0},
                "transmission": {"e_min_neV": 100.0, "e_max_neV": 150.0,
                                 "points": 3, "format": "csv"},
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "transmission", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().split("\n")) == 4
    # the command line wins over the file
    code, out, _ = run_cli(capsys, "transmission", "--config", str(cfg), "--points", "5")
    assert code == 0
    assert len(out.strip().split("\n")) == 6


def test_config_file_names_offending_field(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"system": {"a_angstrom": "wide"}}), encoding="utf-8")
    code, _, err = run_cli(capsys, "transmission", "--config", str(cfg))
    assert code == 2
    assert "a_angstrom" in err

    cfg.write_text(json.dumps({"system": {"width": 300}}), encoding="utf-8")
    code, _, err = run_cli(capsys, "transmission", "--config", str(cfg))
    assert code == 2
    assert "width" in err


@pytest.mark.parametrize(
    "command, section",
    [
        ("transmission", "system"),
        ("transmission", "transmission"),
        ("resonances", "resonances"),
        ("sweep", "sweep"),
        ("oracle-check", "oracle_check"),
    ],
)
def test_config_section_must_be_an_object(capsys, tmp_path, command, section):
    cfg = tmp_path / "section.json"
    cfg.write_text(json.dumps({section: []}), encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "config error" in err and section in err


@pytest.mark.parametrize("command", ["transmission", "oracle-check"])
@pytest.mark.parametrize(
    "points",
    ["NaN", "Infinity", "2.5", "0", "1" + "0" * 400, "1" + "0" * 5000],
    ids=["nan", "inf", "fraction", "zero", "past-float-range", "past-int-digit-limit"],
)
def test_config_points_must_be_a_positive_integer(capsys, tmp_path, command, points):
    section = command.replace("-", "_")
    cfg = tmp_path / "points.json"
    cfg.write_text(f'{{"{section}": {{"points": {points}}}}}', encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "config error" in err and "points" in err


@pytest.mark.parametrize("flag", ["--amp-tol", "--tau-tol", "--emin"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_oracle_check_number_flags_must_be_finite(capsys, flag, value):
    code, out, err = run_cli(capsys, "oracle-check", "--points", "3", flag, value)
    assert code == 2
    assert out == ""
    assert "config error" in err and "finite" in err


@pytest.mark.parametrize("field", ["amplitude_tolerance", "phase_time_tolerance"])
def test_oracle_check_tolerance_fields_must_be_finite(capsys, tmp_path, field):
    cfg = tmp_path / "tol.json"
    cfg.write_text(
        f'{{"oracle_check": {{"points": 3, "{field}": NaN}}}}', encoding="utf-8"
    )
    code, out, err = run_cli(capsys, "oracle-check", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert field in err


def test_config_file_not_utf8_is_config_error(capsys, tmp_path):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes('{"transmission": {"format": "cs\xe9"}}'.encode("latin-1"))
    code, out, err = run_cli(capsys, "transmission", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "config error" in err


def test_unknown_command_is_usage_error(capsys):
    assert main(["warp-drive"]) == 2


def test_csv_uses_12_significant_digits(capsys):
    code, out, _ = run_cli(
        capsys, "transmission", "--emin", "100", "--emax", "150", "--points", "2"
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[0] == "100"
    mantissa = row[1].replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa.split("e")[0]) <= 12
