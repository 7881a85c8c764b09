from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from tunnelkit import (
    cli,
    hartman_sweep,
    neutron_filter_system,
    probability,
)
from tunnelkit.cli import NEUTRON_CHECKS, main
from tunnelkit.constants import joule_from_nev, metre_from_angstrom

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


def test_transmission_default_grid_follows_a_lower_barrier(capsys):
    # The default top is min(229, 0.999 U0) neV: at U0 = 200 the 229 neV
    # top lay above the barrier and the command exited 3 on its own defaults.
    code, out, err = run_cli(capsys, "transmission", "--u0", "200", "--points", "3")
    assert (code, err) == (0, "")
    assert [row.split(",")[0] for row in out.split("\n")[1:-1]] == ["1", "100.4", "199.8"]
    assert run_cli(capsys, "transmission", "--u0", "200", "--points", "3",
                   "--emax", "199.8") == (0, out, "")
    # The neutron filter keeps its 229 neV top.
    code, out, _ = run_cli(capsys, "transmission", "--points", "3")
    assert (code, out.split("\n")[-2].split(",")[0]) == (0, "229")


@pytest.mark.parametrize(
    "u0, bottom, top", [("1", "0.001", "0.999"), ("1.001", "0.001001", "0.999999")]
)
def test_transmission_default_grid_below_a_one_nev_top(capsys, u0, bottom, top):
    # Where the top, 0.999 U0, is not above 1 neV the 1 neV bottom would lie
    # above it, so the bottom is 1e-3 U0 there.
    code, out, err = run_cli(capsys, "transmission", "--u0", u0, "--points", "3")
    assert (code, err) == (0, "")
    energies = [row.split(",")[0] for row in out.split("\n")[1:-1]]
    assert (energies[0], energies[-1]) == (bottom, top)
    # A top above 1 neV, the default's or a flag's, keeps the 1 neV bottom.
    for argv in (["--u0", "1.002"], ["--u0", "1.001", "--emax", "1.0005"]):
        code, out, _ = run_cli(capsys, "transmission", *argv, "--points", "3")
        assert (code, out.split("\n")[1].split(",")[0]) == (0, "1")


@pytest.mark.parametrize("u0", ["1", "1.001"])
def test_resonances_default_window_below_a_one_nev_top(capsys, u0):
    assert run_cli(capsys, "resonances", "--u0", u0) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "argv, bottom",
    [
        (["--emax", "0.2"], "0.0002"),
        (["--u0", "1000", "--emax", "0.5"], "0.0005"),
    ],
)
def test_transmission_default_bottom_follows_a_top_below_it(capsys, argv, bottom):
    # A given top at or below both default bottoms (1 neV and 1e-3 U0) takes
    # 1e-3 of itself as the bottom, so every top in (0, U0) runs without --emin.
    code, out, err = run_cli(capsys, "transmission", *argv, "--points", "3")
    assert (code, err) == (0, "")
    assert out.split("\n")[1].split(",")[0] == bottom


def test_resonances_default_bottom_follows_a_top_below_it(capsys):
    assert run_cli(capsys, "resonances", "--emax", "0.2") == (0, "[]\n", "")


def test_oracle_check_default_bottom_follows_a_top_below_it(capsys):
    # The 0.05 U0 bottom (11.5 neV) lies above a 5 neV top.
    code, out, err = run_cli(capsys, "oracle-check", "--emax", "5", "--points", "3")
    assert (code, err) == (0, "")
    assert out.endswith("\nOK\n")


def test_transmission_negative_top_keeps_the_u0_bottom(capsys):
    # No top at or below zero has a bottom beneath it: the bottom stays 1e-3 U0
    # and the grid check names both ends.
    code, out, err = run_cli(capsys, "transmission", "--emax", "-1")
    assert (code, out) == (3, "")
    assert err.startswith("domain error: energy grid [0.23, -1.0] neV must lie inside ")


def test_config_window_bottom_is_checked_before_the_top(capsys, tmp_path):
    cfg = tmp_path / "window.json"
    cfg.write_text(
        json.dumps({"transmission": {"e_min_neV": "low", "e_max_neV": "high"}}),
        encoding="utf-8",
    )
    assert run_cli(capsys, "transmission", "--config", str(cfg)) == (
        2, "", "config error: field 'e_min_neV' must be a number, got 'low'\n"
    )


def test_transmission_reversed_grid_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "transmission", "--emin", "100", "--emax", "50")
    assert (code, out, err) == (3, "", "domain error: grid needs e_max > e_min\n")


def test_transmission_invalid_system_is_config_error(capsys):
    code, out, err = run_cli(capsys, "transmission", "--a", "-5", "--points", "3")
    assert (code, out) == (2, "")
    assert err.startswith("config error: invalid system parameters: barrier width a")


def test_transmission_at_energies_too_small_for_doubles_is_domain_error(capsys):
    # 1e-290 neV is 1.6e-318 J: 2mE rounds to zero, so k does too.
    code, out, err = run_cli(
        capsys, "transmission", "--emin", "1e-290", "--emax", "1e-289", "--points", "2"
    )
    assert code == 3
    assert out == ""
    assert "domain error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("resonances", "--mass-ratio", "1e300"),
        ("resonances", "--u0", "1e300"),
        ("oracle-check", "--mass-ratio", "1e300", "--points", "2"),
    ],
    ids=["resonances-mass", "resonances-u0", "oracle-check-mass"],
)
def test_overflowing_wavenumbers_are_domain_error(capsys, argv):
    # k^2 + q^2 overflows; these exited 1 with a ValueError or ZeroDivisionError
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("domain error: k^2 + q^2 overflows")


def test_oracle_check_underflowing_reference_is_domain_error(capsys):
    # At a = 1e5 A, solve's t underflows to 0: this divided by it and exited 1.
    code, out, err = run_cli(capsys, "oracle-check", "--a", "100000", "--points", "2")
    assert code == 3
    assert out == ""
    assert err == "domain error: transfer-matrix amplitude underflows to 0 at E=11.500000 neV\n"


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


def test_resonances_fit_mass_without_a_root_in_the_bracket_exits_3(capsys):
    # A MassFitError is a TunnelkitError but no DomainError: the CLI's one
    # "error:" path, still exit 3.
    code, out, err = run_cli(capsys, "resonances", "--fit-mass", "5")
    assert (code, out) == (3, "")
    assert err.startswith("error: residual does not change sign over mass bracket")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_resonances_fit_mass_must_be_finite(capsys, value):
    code, out, err = run_cli(capsys, "resonances", "--fit-mass", value)
    assert code == 2
    assert out == ""
    assert "finite" in err


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


def test_neutron_check_reports_known_violations(capsys, monkeypatch):
    # The defaults meet all four fixtures.
    code, _, err = run_cli(capsys, "neutron", "--check")
    assert code == 0
    assert err.count("PASS ") == 4
    assert "FAIL" not in err

    # A fitted-mass fixture 1e-3 away from the report is outside its 1e-4
    # tolerance; the other three rows still pass.
    moved = tuple(
        (field, expected + 1e-3, tol, kind) if field == "fitted_mass_ratio"
        else (field, expected, tol, kind)
        for field, expected, tol, kind in NEUTRON_CHECKS
    )
    monkeypatch.setattr(cli, "NEUTRON_CHECKS", moved)
    code, _, err = run_cli(capsys, "neutron", "--check")
    assert code == 4
    assert err.count("PASS ") == 3
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


def test_corrupted_config_file(capsys, tmp_path):
    bad = tmp_path / "config.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "transmission", "--config", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: config file") and "not valid JSON" in err


def test_missing_config_file_is_config_error(capsys, tmp_path):
    missing = tmp_path / "absent.json"
    code, out, err = run_cli(capsys, "transmission", "--config", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: cannot read config file {missing}")


def test_config_file_must_hold_an_object(capsys, tmp_path):
    cfg = tmp_path / "list.json"
    cfg.write_text("[]", encoding="utf-8")
    code, out, err = run_cli(capsys, "transmission", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"config error: config file {cfg} must hold a JSON object\n"


@pytest.mark.parametrize(
    "command, section",
    [
        ("transmission", {}),
        ("sweep", {"axis": "gap_length", "values_angstrom": [100.0]}),
    ],
)
def test_config_format_must_be_csv_or_json(capsys, tmp_path, command, section):
    cfg = tmp_path / "format.json"
    cfg.write_text(json.dumps({command: {**section, "format": "xml"}}), encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "config error: format must be csv or json, got 'xml'\n"


def test_neutron_takes_no_constants_file(capsys):
    # The constants are fixed (CODATA 2018 and the exact SI units); the
    # retired --constants flag is a usage error.
    code, out, _ = run_cli(capsys, "neutron", "--constants", "x.json")
    assert code == 2
    assert out == ""


# Every neV input, in the library and at the CLI, goes through
# constants.joule_from_nev, so the same energy gives bit-identical numbers.
def test_resonances_fit_mass_matches_neutron_scenario_bit_for_bit(capsys):
    code, out, _ = run_cli(capsys, "neutron")
    assert code == 0
    scenario_ratio = json.loads(out)["fitted_mass_ratio"]
    code, out, _ = run_cli(capsys, "resonances", "--fit-mass", "127")
    assert code == 0
    assert json.loads(out)["fitted_mass_ratio"] == scenario_ratio


def test_transmission_matches_library_bit_for_bit(capsys):
    code, out, _ = run_cli(
        capsys, "transmission", "--emin", "127", "--points", "1", "--format", "json"
    )
    assert code == 0
    (row,) = json.loads(out)
    assert row["probability"] == probability(neutron_filter_system(), joule_from_nev(127.0))
    assert row["E_neV"] == 127.0


def test_transmission_rows_echo_their_energy_and_reproduce(capsys):
    # The grid is built in neV with both ends as given, so the rows print 54.2
    # and 214.1 (not 54.199999999999996 and 214.09999999999997) and feeding
    # any row's energy back gives the same row.
    code, out, _ = run_cli(
        capsys, "transmission", "--emin", "54.2", "--emax", "214.1", "--points", "9",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert (rows[0]["E_neV"], rows[-1]["E_neV"]) == (54.2, 214.1)
    for row in rows:
        code, out, _ = run_cli(
            capsys, "transmission", "--emin", repr(row["E_neV"]), "--points", "1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == [row]


def test_sweep_json_echoes_its_energy(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "gap_length", "--energy", "100.1",
        "--values", "100", "200", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["energy_neV"] == 100.1


def test_sweep_default_energy_follows_a_lower_barrier(capsys):
    # The default energy is min(80.5, 0.35 U0) neV: at U0 = 60 the 80.5 neV
    # default lay above the barrier and the command exited 3 on its own defaults.
    args = ("sweep", "--u0", "60", "--axis", "gap_length", "--values", "100", "200",
            "--format", "json")
    code, out, err = run_cli(capsys, *args)
    assert (code, err) == (0, "")
    energy = json.loads(out)["energy_neV"]
    assert energy == pytest.approx(21.0, rel=1e-15)
    assert run_cli(capsys, *args, "--energy", repr(energy)) == (0, out, "")
    # The neutron filter keeps its 80.5 neV default.
    code, out, _ = run_cli(capsys, "sweep", "--axis", "gap_length", "--values", "100",
                           "--format", "json")
    assert (code, json.loads(out)["energy_neV"]) == (0, 80.5)


def test_sweep_json_echoes_its_lengths(capsys):
    # Every length and the energy print as given, in both formats: 687.7363
    # and 1498.4227, like about 1 in 10 seeded 4-decimal lengths, would not
    # survive angstrom -> metre -> angstrom unchanged.
    rng = random.Random(2020)
    drawn = {round(rng.uniform(10.0, 5000.0), 4) for _ in range(200)}
    lengths = sorted(drawn | {687.7363, 1498.4227})
    typed = [f"{v:.12g}" for v in lengths]  # 2065.0 is typed as 2065
    energy = round(rng.uniform(1.0, 229.0), 4)
    argv = ["sweep", "--axis", "gap_length", "--energy", repr(energy), "--values", *typed]

    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["energy_neV"] == energy
    assert [r["sweep_value_angstrom"] for r in doc["rows"]] == lengths

    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    column = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
    assert column == typed


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


def test_sweep_serialization_units(capsys):
    # Keys in the order written; the energy (neV) and lengths (angstrom) as
    # given, probability and times (s) as the library's rows.
    lengths = [600.0, 812.5]
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "barrier_width", "--energy", "80.5",
        "--values", "600", "812.5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["axis", "energy_neV", "rows"]
    assert doc["axis"] == "barrier_width"
    assert doc["energy_neV"] == 80.5
    table = hartman_sweep(
        neutron_filter_system(), joule_from_nev(80.5), "barrier_width",
        [metre_from_angstrom(v) for v in lengths],
    )
    assert doc["rows"] == [
        {
            "sweep_value_angstrom": length,
            "probability": row.probability,
            "tau_exact_s": row.tau_exact,
            "tau_asymptotic_s": row.tau_asymptotic,
            "flagged": row.flagged,
            "flag_reason": row.flag_reason,
        }
        for length, row in zip(lengths, table.rows)
    ]
    for row in doc["rows"]:
        assert list(row) == [
            "sweep_value_angstrom",
            "probability",
            "tau_exact_s",
            "tau_asymptotic_s",
            "flagged",
            "flag_reason",
        ]


@pytest.mark.parametrize(
    "argv",
    [
        ["transmission", "--emin", "100", "--emax", "150", "--points", "7"],
        ["sweep", "--axis", "barrier_width", "--values", "50", "100", "300", "600"],
    ],
    ids=["transmission", "sweep"],
)
def test_csv_and_json_carry_the_same_values(capsys, argv):
    # Each CSV cell is the JSON value in its column to 12 significant digits,
    # an empty cell for null and true/false for a flag.
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *lines = out.strip().split("\n")
    columns = header.split(",")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = doc["rows"] if argv[0] == "sweep" else doc
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        assert list(row)[: len(columns)] == columns
        expected = [
            "" if v is None else str(v).lower() if isinstance(v, bool) else f"{v:.12g}"
            for v in (row[c] for c in columns)
        ]
        assert line.split(",") == expected
    if argv[0] == "sweep":
        assert [r["flagged"] for r in rows] == [True, True, True, False]


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


@pytest.mark.parametrize("flag", ["--amp-tol", "--tau-tol"])
def test_oracle_check_rejects_a_negative_tolerance_flag(capsys, flag):
    code, out, err = run_cli(capsys, "oracle-check", flag, "-1", "--points", "2")
    assert code == 2
    assert out == ""
    assert "config error" in err and ">= 0" in err


@pytest.mark.parametrize("field", ["amplitude_tolerance", "phase_time_tolerance"])
def test_oracle_check_rejects_a_negative_tolerance_field(capsys, tmp_path, field):
    cfg = tmp_path / "oracle.json"
    cfg.write_text(json.dumps({"oracle_check": {field: -1e-3, "points": 2}}), encoding="utf-8")
    code, out, err = run_cli(capsys, "oracle-check", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert field in err


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
    "doc, name",
    [
        ({"transmision": {}}, "transmision"),
        ({"transmission": {"emin": 5}}, "emin"),
        ({"resonances": {"fitmass": 127}}, "fitmass"),
        ({"sweep": {"values": [300.0]}}, "values"),
        ({"oracle_check": {"amp_tol": 1.0}}, "amp_tol"),
    ],
)
@pytest.mark.parametrize("command", ["transmission", "resonances", "sweep", "oracle-check"])
def test_config_rejects_unknown_names_in_every_section(capsys, tmp_path, command, doc, name):
    # One rule for the whole document, whichever command reads it: a misspelt
    # section or field is an error, not a default taken without a word.
    cfg = tmp_path / "unknown.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: unknown") and repr(name) in err


def test_config_fit_mass_fits_and_the_flag_wins(capsys, tmp_path):
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({"resonances": {"fit_mass": 127}}), encoding="utf-8")
    expected = {}
    for target in ("127", "125"):
        code, out, _ = run_cli(capsys, "resonances", "--fit-mass", target)
        assert code == 0
        expected[target] = out
    assert expected["127"] != expected["125"]
    code, out, _ = run_cli(capsys, "resonances", "--config", str(cfg))
    assert (code, out) == (0, expected["127"])
    code, out, _ = run_cli(capsys, "resonances", "--config", str(cfg), "--fit-mass", "125")
    assert (code, out) == (0, expected["125"])


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


@pytest.mark.parametrize(
    "section, field",
    [
        ("system", "a_angstrom"),
        ("transmission", "e_min_neV"),
        ("transmission", "format"),
        ("oracle_check", "points"),
        ("sweep", "axis"),
        ("sweep", "values_angstrom"),
        ("resonances", "fit_mass"),
    ],
)
def test_config_null_field_is_config_error(capsys, tmp_path, section, field):
    # A JSON null is a bad value, not an absent field: it must not fall back
    # to the default.
    command = "transmission" if section == "system" else section.replace("_", "-")
    doc = {section: {field: None}}
    if section == "sweep":
        doc["sweep"] = {"axis": "gap_length", "values_angstrom": [100.0], field: None}
    cfg = tmp_path / "null.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("config error: ")


@pytest.mark.parametrize(
    "command, flags",
    [
        ("transmission", ["--emin", "--emax", "--points", "--format"]),
        ("resonances", ["--emin", "--emax", "--fit-mass"]),
        ("neutron", ["--check"]),
        ("sweep", ["--axis", "--energy", "--values", "--format"]),
        ("oracle-check", ["--emin", "--emax", "--points", "--amp-tol", "--tau-tol"]),
    ],
)
def test_help_lists_every_flag(capsys, command, flags):
    if command != "neutron":
        flags = ["--config", "--a", "--l", "--u0", "--mass-ratio", *flags]
    code, out, err = run_cli(capsys, command, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: tunnelkit {command} ")
    listed = {word.strip("[],") for word in out.split()}
    assert set(flags) <= listed


def test_readme_config_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| section"):].split("\n\n")[0].splitlines()[2:]
    documented = {}
    for line in table:
        section, fields = (cell.strip() for cell in line.strip("|").split("|"))
        documented[section.strip("`")] = [f.strip().strip("`") for f in fields.split(",")]
    schema = cli._build_parser()[1]
    assert list(documented) == list(schema)
    assert documented == schema
