from __future__ import annotations

import dataclasses
import json
import math

import pytest

from tunnelkit.constants import CODATA2018
from tunnelkit.errors import DomainError, OpaqueBracketError
from tunnelkit.kinematics import kinematics
from tunnelkit.phase_time import phase_time, phase_time_opaque
from tunnelkit.scenarios import (
    MEASURED_ANNOTATIONS,
    hartman_sweep,
    neutron_filter_system,
    run_neutron_scenario,
)
from tunnelkit.transmission import probability, scaled_denominator

from conftest import neutron_system


@pytest.fixture(scope="module")
def report():
    return run_neutron_scenario(CODATA2018)


def test_report_free_mass_resonance(report):
    assert report.E_r_free_mass == pytest.approx(123.0, abs=1.0)


def test_report_fitted_mass_ratio(report):
    assert report.fitted_mass_ratio == pytest.approx(0.926883, abs=1e-4)


def test_report_width_order_of_magnitude(report):
    assert 1.0 <= report.beta <= 4.0


def test_report_times_regression_values(report):
    # Both pins are the independent mpmath reference (neutron_reference):
    # tau_r and the window mean, both of which this implementation meets
    # to ~13 digits (the mean is the exact phase difference over the window).
    assert report.tau_r == pytest.approx(2.8240682137e-7, rel=1e-6)
    assert report.tau_avg == pytest.approx(2.2355201441e-7, rel=1e-9)


def test_report_average_lies_inside_window_range(report):
    sys = neutron_filter_system(report.fitted_mass_ratio)
    nev = 1.0 / CODATA2018.neV_per_J
    e_r, beta = 127.0 * nev, report.beta * nev
    samples = [
        phase_time(sys, e_r - beta + 2 * beta * i / 100).total for i in range(101)
    ]
    assert min(samples) <= report.tau_avg <= max(samples)


def test_report_fields_all_positive(report):
    assert report.E_r_free_mass > 0
    assert report.fitted_mass_ratio > 0
    assert report.beta > 0
    assert report.tau_r > 0
    assert report.tau_avg > 0


def test_report_json_schema(report):
    doc = report.to_json_dict()
    assert list(doc) == [
        "E_r_free_mass",
        "fitted_mass_ratio",
        "beta",
        "tau_r",
        "tau_avg",
        "annotations",
    ]
    assert doc["annotations"] == MEASURED_ANNOTATIONS
    json.dumps(doc)  # must be serializable as-is


def test_width_sweep_converges_to_hartman_plateau(neutron):
    E = 0.35 * neutron.U0
    kin = kinematics(neutron, E)
    values = [qa / kin.q for qa in (5, 8, 11, 14, 17, 20, 23, 25)]
    table = hartman_sweep(neutron, E, "barrier_width", values)
    assert [r.sweep_value for r in table.rows] == values
    plateau = 2 * kin.m / (kin.hbar * kin.k * kin.q)
    envelope = [abs(r.tau_exact / plateau - 1.0) for r in table.rows]
    assert envelope[-1] < 1e-8
    assert envelope[0] > envelope[-1]
    for row in table.rows:
        assert 0.0 <= row.probability <= 1.0


def test_width_sweep_probability_slope(neutron):
    E = 0.35 * neutron.U0
    kin = kinematics(neutron, E)
    values = [qa / kin.q for qa in range(15, 26)]
    table = hartman_sweep(neutron, E, "barrier_width", values)
    xs = [r.sweep_value for r in table.rows]
    ys = [math.log(r.probability) for r in table.rows]
    n = len(xs)
    xbar, ybar = sum(xs) / n, sum(ys) / n
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    assert slope == pytest.approx(-4.0 * kin.q, rel=1e-3)


def test_width_sweep_asymptotic_column_agrees_beyond_qa_15(neutron):
    E = 0.35 * neutron.U0
    kin = kinematics(neutron, E)
    values = [qa / kin.q for qa in (15, 18, 21, 24)]
    table = hartman_sweep(neutron, E, "barrier_width", values)
    for row in table.rows:
        if row.flagged:
            continue
        assert row.tau_asymptotic == pytest.approx(row.tau_exact, rel=0.01)


def test_gap_sweep_is_slow_and_almost_linear(neutron):
    # Opaque regime: tau vs L moves very little and stays near the plateau.
    E = 0.35 * neutron.U0
    kin = kinematics(neutron, E)
    sys = dataclasses.replace(neutron, a=20.0 / kin.q)
    values = [(0.5 + 0.1 * i) / kin.q for i in range(20)]
    table = hartman_sweep(sys, E, "gap_length", values)
    taus = [r.tau_exact for r in table.rows if not r.flagged]
    assert len(taus) >= 15
    plateau = 2 * kin.m / (kin.hbar * kin.k * kin.q)
    spread = (max(taus) - min(taus)) / plateau
    assert spread < 1e-10  # exponentially suppressed gap dependence


def test_gap_sweep_flags_resonant_rows(neutron):
    E = 0.35 * neutron.U0
    kin = kinematics(neutron, E)
    sys = dataclasses.replace(neutron, a=20.0 / kin.q)
    values = [(0.3 + 0.05 * i) / kin.q for i in range(80)]
    table = hartman_sweep(sys, E, "gap_length", values)
    flagged = [r for r in table.rows if r.flagged]
    assert flagged, "sweep crossing the resonance locus must flag rows"
    for row in flagged:
        assert row.tau_asymptotic is None
        assert row.flag_reason
    # flagged rows still carry the exact columns
    for row in table.rows:
        assert math.isfinite(row.tau_exact)
        assert 0.0 <= row.probability <= 1.0


@pytest.mark.parametrize("axis", ["barrier_width", "gap_length"])
def test_sweep_rows_equal_the_per_point_functions(neutron, axis):
    # A row evaluates the denominator once; its columns must still be
    # exactly what the public per-point functions return for that geometry.
    E = 0.35 * neutron.U0
    kin = kinematics(neutron, E)
    if axis == "barrier_width":
        sys = neutron
        values = [qa / kin.q for qa in (0.5, 1, 2, 5, 8, 12, 20, 30)]
    else:
        sys = dataclasses.replace(neutron, a=20.0 / kin.q)
        values = [(0.3 + 0.05 * i) / kin.q for i in range(80)]
    table = hartman_sweep(sys, E, axis, values)
    flags = set()
    for value, row in zip(values, table.rows):
        field = "a" if axis == "barrier_width" else "L"
        probe = dataclasses.replace(sys, **{field: value})
        assert row.probability == probability(probe, E)
        assert row.tau_exact == phase_time(probe, E).total
        if not row.flagged:
            assert row.tau_asymptotic == phase_time_opaque(probe, E)
        flags.add(row.flagged)
    if axis == "gap_length":
        assert flags == {True, False}


@pytest.mark.parametrize(
    "axis, lo, hi, fraction",
    # at 0.6 U0 the widening barriers move psi through the band
    [("barrier_width", 50.0, 1500.0, 0.6), ("gap_length", 50.0, 5000.0, 0.35)],
)
def test_sweep_flags_exactly_the_resonance_band(neutron, axis, lo, hi, fraction):
    # One test decides a row: flagged <=> cos^2(psi) <= 0.025 <=> the opaque
    # expansion raises, and only flagged rows drop the asymptotic column.
    E = fraction * neutron.U0
    values = [(lo + (hi - lo) * i / 199) * 1e-10 for i in range(200)]
    table = hartman_sweep(neutron, E, axis, values)
    field = "a" if axis == "barrier_width" else "L"
    for value, row in zip(values, table.rows):
        probe = dataclasses.replace(neutron, **{field: value})
        in_band = scaled_denominator(probe, E).cos_psi ** 2 <= 0.025
        try:
            phase_time_opaque(probe, E)
            raised = False
        except OpaqueBracketError:
            raised = True
        assert row.flagged == in_band == raised
        assert (row.tau_asymptotic is None) == row.flagged
        assert (row.flag_reason is None) == (not row.flagged)
    assert {r.flagged for r in table.rows} == {True, False}


def test_sweep_flags_vanishing_width_row(neutron):
    # w exp(-2qa) underflows at a = 1e-200 m: flagged, not a ZeroDivisionError
    # and not an unflagged asymptotic value.
    E = 0.35 * neutron.U0
    thin, thick = hartman_sweep(neutron, E, "barrier_width", [1e-200, 1e-8]).rows
    assert thin.flagged and thin.tau_asymptotic is None and thin.flag_reason
    assert not thick.flagged and thick.tau_asymptotic is not None
    probe = dataclasses.replace(neutron, a=1e-200)
    assert scaled_denominator(probe, E).w_scaled == 0.0
    assert thin.tau_exact == phase_time(probe, E).total
    with pytest.raises(OpaqueBracketError):
        phase_time_opaque(probe, E)


def test_sweep_serialization_units(neutron):
    E = 0.35 * neutron.U0
    kin = kinematics(neutron, E)
    values = [15.0 / kin.q, 20.0 / kin.q]
    doc = hartman_sweep(neutron, E, "barrier_width", values).to_json_dict()
    assert doc["axis"] == "barrier_width"
    assert doc["energy_neV"] == pytest.approx(E * CODATA2018.neV_per_J, rel=1e-12)
    assert doc["rows"][0]["sweep_value_angstrom"] == pytest.approx(
        values[0] * 1e10, rel=1e-12
    )
    json.dumps(doc)


def test_sweep_input_validation(neutron):
    E = 0.35 * neutron.U0
    with pytest.raises(DomainError):
        hartman_sweep(neutron, E, "barrier_width", [])
    with pytest.raises(DomainError):
        hartman_sweep(neutron, E, "barrier_width", [1e-8, 0.5e-8])
    with pytest.raises(DomainError):
        hartman_sweep(neutron, E, "barrier_width", [-1e-8, 1e-8])
    with pytest.raises(DomainError):
        hartman_sweep(neutron, E, "diagonal", [1e-8])
    with pytest.raises(DomainError):
        hartman_sweep(neutron, 2.0 * neutron.U0, "barrier_width", [1e-8])
