from __future__ import annotations

import json
import math

import pytest
from mpmath import mp

from tunnelkit.cli import main
from tunnelkit.constants import CODATA2018
from tunnelkit.errors import DomainError, OpaqueBracketError
from tunnelkit.kinematics import kinematics
from tunnelkit.phase_time import hartman_limit, phase_time, phase_time_opaque
from tunnelkit.scenarios import (
    MEASURED_ANNOTATIONS,
    hartman_sweep,
    neutron_filter_system,
    run_neutron_scenario,
)
from tunnelkit.transmission import probability, scaled_denominator

from conftest import OPAQUE_X_MAX, neutron_system, opaque_x
from neutron_reference import DoubleBarrier


@pytest.fixture(scope="module")
def report():
    return run_neutron_scenario()


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
    assert report.tau_r == pytest.approx(2.8240682137e-7, rel=1e-6, abs=0)
    assert report.tau_avg == pytest.approx(2.2355201441e-7, rel=1e-9, abs=0)


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


def test_report_json_schema(report, capsys):
    # The report's JSON document is the one `tunnelkit neutron` writes.
    assert main(["neutron"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == [
        "E_r_free_mass",
        "fitted_mass_ratio",
        "beta",
        "tau_r",
        "tau_avg",
        "annotations",
    ]
    assert doc["annotations"] == MEASURED_ANNOTATIONS
    del doc["annotations"]
    assert doc == report._asdict()


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
        assert row.tau_asymptotic == pytest.approx(row.tau_exact, rel=0.01, abs=0)


def test_gap_sweep_is_slow_and_almost_linear(neutron):
    # Opaque regime: tau vs L moves very little and stays near the plateau.
    E = 0.35 * neutron.U0
    kin = kinematics(neutron, E)
    sys = neutron._replace(a=20.0 / kin.q)
    values = [(0.5 + 0.1 * i) / kin.q for i in range(20)]
    table = hartman_sweep(sys, E, "gap_length", values)
    taus = [r.tau_exact for r in table.rows if not r.flagged]
    assert len(taus) >= 15
    plateau = 2 * kin.m / (kin.hbar * kin.k * kin.q)
    spread = (max(taus) - min(taus)) / plateau
    assert spread < 1e-10  # exponentially suppressed gap dependence


def test_gap_sweep_flags_resonant_rows(neutron):
    # At qa = 20 the expansion parameter x = 1/(w cos^2 psi) stays below
    # OPAQUE_X_MAX on every row; at qa = 5 the rows nearest the resonance
    # locus exceed it and are flagged.
    E = 0.35 * neutron.U0
    kin = kinematics(neutron, E)
    values = [(0.3 + 0.05 * i) / kin.q for i in range(80)]
    opaque = hartman_sweep(neutron._replace(a=20.0 / kin.q), E, "gap_length", values)
    assert not any(r.flagged for r in opaque.rows)
    table = hartman_sweep(neutron._replace(a=5.0 / kin.q), E, "gap_length", values)
    flagged = [r for r in table.rows if r.flagged]
    assert flagged, "sweep crossing the resonance locus must flag rows"
    for row in flagged:
        assert row.tau_asymptotic is None
        assert row.flag_reason
    # flagged rows still carry the exact columns
    for row in opaque.rows + table.rows:
        assert math.isfinite(row.tau_exact)
        assert 0.0 <= row.probability <= 1.0


@pytest.mark.parametrize("axis", ["barrier_width", "gap_length"])
def test_sweep_rows_equal_the_per_point_functions(neutron, axis):
    # A row evaluates the denominator once; its columns must still be
    # exactly what the public per-point functions return for that geometry.
    E = 0.35 * neutron.U0
    kin = kinematics(neutron, E)
    if axis == "barrier_width":
        sweeps = [(neutron, [qa / kin.q for qa in (0.5, 1, 2, 5, 8, 12, 20, 30)], None)]
    else:
        values = [(0.3 + 0.05 * i) / kin.q for i in range(80)]
        sweeps = [
            (neutron._replace(a=qa / kin.q), values, flags)
            for qa, flags in ((20.0, {False}), (5.0, {True, False}))
        ]
    field = "a" if axis == "barrier_width" else "L"
    for sys, values, expected_flags in sweeps:
        table = hartman_sweep(sys, E, axis, values)
        for value, row in zip(values, table.rows):
            probe = sys._replace(**{field: value})
            assert row.probability == probability(probe, E)
            assert row.tau_exact == phase_time(probe, E).total
            if not row.flagged:
                assert row.tau_asymptotic == phase_time_opaque(probe, E)
        if expected_flags is not None:
            assert {r.flagged for r in table.rows} == expected_flags


@pytest.mark.parametrize(
    "axis, lo, hi, fraction",
    # at 0.6 U0 the widening barriers move psi through a resonance
    [("barrier_width", 50.0, 1500.0, 0.6), ("gap_length", 50.0, 5000.0, 0.35)],
)
def test_sweep_flags_exactly_the_resonance_band(neutron, axis, lo, hi, fraction):
    # One test decides a row: flagged <=> x = 1/(w cos^2 psi) > OPAQUE_X_MAX
    # <=> the opaque expansion raises, and only flagged rows drop the
    # asymptotic column. An unflagged row is within 20 x^2 of the exact tau.
    # The 600 A barriers are opaque enough (qa ~ 5) for the gap sweep to
    # leave the flagged rows; the width sweep replaces them.
    base = neutron._replace(a=600e-10)
    E = fraction * base.U0
    values = [(lo + (hi - lo) * i / 199) * 1e-10 for i in range(200)]
    table = hartman_sweep(base, E, axis, values)
    field = "a" if axis == "barrier_width" else "L"
    for value, row in zip(values, table.rows):
        probe = base._replace(**{field: value})
        x = opaque_x(scaled_denominator(probe, E))
        try:
            phase_time_opaque(probe, E)
            raised = False
        except OpaqueBracketError:
            raised = True
        assert row.flagged == (x > OPAQUE_X_MAX) == raised
        assert (row.tau_asymptotic is None) == row.flagged
        assert (row.flag_reason is None) == (not row.flagged)
        if not row.flagged:
            assert abs(row.tau_asymptotic / row.tau_exact - 1.0) <= 20.0 * x * x + 4 * 2.0**-52
    assert {r.flagged for r in table.rows} == {True, False}


def test_sweep_flags_vanishing_width_row(neutron):
    # w exp(-2qa) underflows at a = 1e-200 m: flagged, not a ZeroDivisionError
    # and not an unflagged asymptotic value. At 1000 A (qa = 8.5) x is 4e-7.
    E = 0.35 * neutron.U0
    thin, thick = hartman_sweep(neutron, E, "barrier_width", [1e-200, 1e-7]).rows
    assert thin.flagged and thin.tau_asymptotic is None and thin.flag_reason
    assert not thick.flagged and thick.tau_asymptotic is not None
    assert opaque_x(scaled_denominator(neutron._replace(a=1e-7), E)) <= OPAQUE_X_MAX
    probe = neutron._replace(a=1e-200)
    assert scaled_denominator(probe, E).w_scaled == 0.0
    assert thin.tau_exact == phase_time(probe, E).total
    with pytest.raises(OpaqueBracketError):
        phase_time_opaque(probe, E)


def _reference_plateau_excess(sys, E: float, qa: float) -> float:
    """(tau - 2m/(hbar k q)) / (2m/(hbar k q)) from DoubleBarrier at 40 + 2qa digits."""
    with mp.workdps(int(40 + 2 * qa)):
        ref = DoubleBarrier.from_si(sys.a, sys.U0, sys.L, sys.m)
        E_nev = ref.nev(E)
        k = ref.wavenumber(E_nev) * 10**10
        q = ref.k_unit * mp.sqrt(ref.mass_ratio * (ref.U0 - E_nev)) * 10**10
        plateau = 2 * mp.mpf(sys.m) / (ref.hbar * k * q)
        return float(ref.tau(E_nev) / plateau - 1)


@pytest.mark.parametrize("axis", ["barrier_width", "gap_length"])
def test_hartman_effect_remainder_falls_as_exp_minus_2qa(neutron, axis):
    # The generalized Hartman effect: away from resonances the phase-time
    # settles on 2m/(hbar k q) whatever the width and the gap, with a
    # remainder of order exp(-2qa). Along the width axis one sweep crosses
    # the opacities; along the gap axis one sweep of eight gaps (35-450 A)
    # runs at each opacity, and its largest remainder is taken. Every row
    # must meet the mpmath reference, and the remainder must fall at a rate
    # near 2 per unit of qa (a little under: w'/w carries a factor ka).
    E = 0.35 * neutron.U0
    q = kinematics(neutron, E).q
    ladder = (6.0, 8.0, 10.0, 12.0, 14.0)
    if axis == "barrier_width":
        sweeps = [(neutron, [qa / q for qa in ladder], ladder)]
    else:
        gaps = [(0.3 + 0.5 * i) / q for i in range(8)]
        sweeps = [(neutron._replace(a=qa / q), gaps, [qa] * 8) for qa in ladder]
    field = "a" if axis == "barrier_width" else "L"
    excess = {}
    for sys, values, opacities in sweeps:
        table = hartman_sweep(sys, E, axis, values)
        for value, qa, row in zip(values, opacities, table.rows):
            probe = sys._replace(**{field: value})
            plateau = hartman_limit(probe, E)
            ref = _reference_plateau_excess(probe, E, qa)
            got = (row.tau_exact - plateau) / plateau
            assert abs(got - ref) <= 1e-6 * abs(ref) + 4 * 2.0**-52
            excess[qa] = max(excess.get(qa, 0.0), abs(ref))
    for lo, hi in zip(ladder, ladder[1:]):
        rate = math.log(excess[lo] / excess[hi]) / (hi - lo)
        assert 1.8 <= rate <= 2.0


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
