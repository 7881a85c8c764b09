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


def test_grid_cells_env_override(capsys, monkeypatch):
    # A 3-cell scan over the full window still brackets the single root.
    monkeypatch.setenv("TUNNELKIT_GRID_CELLS", "3")
    code, out, _ = run_cli(capsys, "resonances")
    assert code == 0
    assert len(json.loads(out)) == 1
    monkeypatch.setenv("TUNNELKIT_GRID_CELLS", "zero")
    code, _, err = run_cli(capsys, "resonances")
    assert code == 2
    assert "TUNNELKIT_GRID_CELLS" in err


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
    assert rows["tau_r"][0] == pytest.approx(reference["tau_r"], rel=1e-10)
    assert rows["tau_avg"][0] == pytest.approx(reference["tau_avg"], rel=1e-10)
    assert rows["tau_r"][1] == 1e-9
    assert rows["tau_avg"][1] == 1e-3


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
