"""The per-energy records: built by one C call, bit-identical to the plain path.

The package builds Kinematics, ScaledDenominator, TransmissionResult and
PhaseTimeBreakdown with tuple.__new__ and reads them by unpacking (the
construction rule in the kinematics module docstring). This file keeps the
plain path as the reference: the same formulas in the same order, with
positional NamedTuple construction and attribute reads. Every output must
have the same repr as the reference's, TunnelkitErrors included, wherever
the reference's result is finite. Where the reference raises another error
(ZeroDivisionError at the smallest energies) or its result is inf or nan,
the package must raise DomainError instead. A second test
fails if a per-energy path goes back to the generated NamedTuple
constructors, which cost about a fifth of a spectrum point.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import Counter

import pytest

from tunnelkit.constants import CODATA2018, joule_from_nev
from tunnelkit.errors import DomainError, OpaqueBracketError, TunnelkitError
from tunnelkit.kinematics import BarrierSystem, Kinematics
from tunnelkit.phase_time import (
    PhaseTimeBreakdown,
    average_phase_time,
    phase_time,
    phase_time_opaque,
)
from tunnelkit.resonance import find_resonances
from tunnelkit.scenarios import SweepRow, SweepTable, hartman_sweep
from tunnelkit.transmission import (
    ScaledDenominator,
    TransmissionResult,
    amplitude,
    scaled_denominator,
)

from conftest import neutron_system

# -- the reference: positional construction and attribute reads ---------------


def ref_kinematics(sys, E):
    U0, m = sys.U0, sys.m
    if not E > 0.0:
        raise DomainError(f"energy must be > 0, got {E} J")
    if not E < U0:
        raise DomainError(f"energy must be below the barrier top U0={U0} J, got {E} J")
    hbar = CODATA2018.hbar
    k = math.sqrt(2.0 * m * E) / hbar
    q = math.sqrt(2.0 * m * (U0 - E)) / hbar
    delta = (q * q - k * k) / (k * q)
    sigma = (k * k + q * q) / (k * q)
    return Kinematics(E, k, q, delta, sigma, hbar, m)


def ref_scaled_denominator(sys, E):
    kin = ref_kinematics(sys, E)
    k, q, delta, s2 = kin.k, kin.q, kin.delta, kin.sigma_sq
    a = sys.a
    two_qa = 2.0 * q * a
    e = math.exp(-two_qa)
    p = -math.expm1(-two_qa)
    ka = k * a
    chsh = (1.0 + e) * p / 4.0
    w = s2 * p * p / 16.0
    w_k = -(s2 / (2.0 * q)) * (0.25 * delta * p * p + ka * chsh)
    chi = math.atan(0.5 * delta * p / (1.0 + e))
    chi_k = -(s2 * chsh + delta * ka * e) / (2.0 * q * (e + w))
    psi = k * sys.L - chi
    c, s = math.cos(psi), math.sin(psi)
    mod_sq = e * e + 4.0 * w * (e + w) * c * c
    return ScaledDenominator(kin, two_qa, e, w, w_k, chi, chi_k, c, s, mod_sq)


def _ref_z(sc):
    two_wc = 2.0 * sc.w_scaled * sc.cos_psi
    return complex(sc.e_neg + two_wc * sc.cos_psi, two_wc * sc.sin_psi)


def ref_amplitude(sys, E):
    sc = ref_scaled_denominator(sys, E)
    num = _ref_z(sc).conjugate() * (sc.e_neg / sc.mod_sq_scaled)
    amp = cmath.exp(-2j * (sc.kin.k * sys.a + sc.chi)) * num
    return TransmissionResult(amp, math.exp(-sc.log_mod_squared))


def _ref_phase_time_of(sc, L):
    kin = sc.kin
    e, w = sc.e_neg, sc.w_scaled
    gap = e * ((L - sc.chi_k) * (e + 2.0 * w) - 2.0 * sc.w_k_scaled * sc.sin_psi * sc.cos_psi)
    den = sc.mod_sq_scaled
    total = (kin.m / (kin.hbar * kin.k)) * (gap / den - sc.chi_k)
    return PhaseTimeBreakdown(total)


def ref_phase_time(sys, E):
    return _ref_phase_time_of(ref_scaled_denominator(sys, E), sys.L)


def _ref_phase_time_opaque_of(sc, L):
    if not sc.e_neg <= 0.01 * sc.w_scaled * sc.cos_psi * sc.cos_psi:
        raise OpaqueBracketError(
            f"opaque expansion undefined at E={sc.kin.E} J: 1/(w cos^2 psi) > 0.01 "
            f"(cos psi = {sc.cos_psi:.3e}, w = {sc.w_scaled:.3e}/{sc.e_neg:.3e})"
        )
    c, w = sc.cos_psi, sc.w_scaled
    den = 2.0 * w * (c * c)
    gap = sc.e_neg * (L - sc.chi_k - (sc.w_k_scaled / w) * sc.sin_psi * c) / den
    return (sc.kin.m / (sc.kin.hbar * sc.kin.k)) * (gap - sc.chi_k)


def ref_phase_time_opaque(sys, E):
    return _ref_phase_time_opaque_of(ref_scaled_denominator(sys, E), sys.L)


def ref_average_phase_time(sys, E_lo, E_hi):
    if not (0.0 < E_lo < E_hi < sys.U0):
        raise DomainError(
            f"averaging window must satisfy 0 < E_lo < E_hi < U0, got ({E_lo}, {E_hi})"
        )
    lo, hi = ref_scaled_denominator(sys, E_lo), ref_scaled_denominator(sys, E_hi)
    kin = lo.kin
    dE = E_hi - E_lo
    d_kl = 2.0 * kin.m * sys.L * dE / (kin.hbar * kin.hbar * (lo.kin.k + hi.kin.k))
    d_bounded = 2.0 * (hi.chi - lo.chi) + (cmath.phase(_ref_z(hi)) - cmath.phase(_ref_z(lo)))
    return kin.hbar * (d_kl - d_bounded) / dE


def ref_hartman_sweep(sys, E, axis, values):
    rows = []
    for value in values:
        probe = sys._replace(a=value) if axis == "barrier_width" else sys._replace(L=value)
        sc = ref_scaled_denominator(probe, E)
        prob = math.exp(-sc.log_mod_squared)
        tau_exact = _ref_phase_time_of(sc, probe.L).total
        try:
            tau_asym, flagged, reason = _ref_phase_time_opaque_of(sc, probe.L), False, None
        except OpaqueBracketError as exc:
            tau_asym, flagged, reason = None, True, str(exc)
        rows.append(SweepRow(value, prob, tau_exact, tau_asym, flagged, reason))
    return SweepTable(axis, E, tuple(rows))


# -- bit-identity ---------------------------------------------------------------


def _outcome(f, *args) -> str:
    try:
        return repr(f(*args))
    except Exception as exc:  # an error is an output too: type and message
        return repr(exc)


def _expected(ref, checked, *args) -> str:
    """The reference's outcome, or "DomainError" where it raises an error other
    than a TunnelkitError or where the numbers `checked` picks out of its
    result are not all finite."""
    try:
        out = ref(*args)
    except TunnelkitError as exc:
        return repr(exc)
    except Exception:
        return "DomainError"
    return repr(out) if all(cmath.isfinite(x) for x in checked(out)) else "DomainError"


def _agrees(new, ref, checked, *args) -> bool:
    got, expected = _outcome(new, *args), _expected(ref, checked, *args)
    if expected == "DomainError":
        return got.startswith("DomainError(")
    return got == expected


def _sweep_numbers(table) -> list:
    return [x for row in table.rows for x in (row.probability, row.tau_exact)]


# (package function, reference, the numbers of its result that must be finite)
PAIRS = (
    (scaled_denominator, ref_scaled_denominator, lambda sc: ()),
    (amplitude, ref_amplitude, tuple),
    (phase_time, ref_phase_time, lambda result: (result.total,)),
    (phase_time_opaque, ref_phase_time_opaque, lambda tau: (tau,)),
)


def _seeded_system(rng: random.Random, i: int) -> BarrierSystem:
    # qa at the barrier top log-uniform over 1e-3..700; L = 0 for one system in ten.
    U0 = joule_from_nev(10.0 * 50.0 ** rng.random())
    m = 0.5 * 4.0 ** rng.random() * CODATA2018.m_neutron
    q0 = math.sqrt(2.0 * m * U0) / CODATA2018.hbar
    a = 1e-3 * 7e5 ** rng.random() / q0
    L = 0.0 if i % 10 == 0 else 1e-10 * 1e5 ** rng.random()
    return BarrierSystem(a, U0, L, m)


def test_per_energy_outputs_match_the_plain_path_bit_for_bit():
    rng = random.Random(15015)
    compared = Counter()
    for i in range(2000):
        sys = _seeded_system(rng, i)
        U0 = sys.U0
        # the smallest positive double, the last double below U0, and eight inside
        energies = [5e-324, math.nextafter(U0, 0.0)]
        energies += [U0 * rng.random() for _ in range(4)]
        energies += [U0 * 1e-12 ** rng.random() for _ in range(4)]
        for E in energies:
            for new, ref, checked in PAIRS:
                assert _agrees(new, ref, checked, sys, E), (new.__name__, sys, E)
                compared[new.__name__] += 1
        ordered = sorted(energies)
        for lo, hi in zip(ordered, ordered[1:] + [U0]):  # the last window is invalid
            assert _agrees(
                average_phase_time, ref_average_phase_time, lambda tau: (tau,), sys, lo, hi
            ), (sys, lo, hi)
            compared["average_phase_time"] += 1
        if i % 10 == 0:
            axis = "barrier_width" if i % 20 == 0 else "gap_length"
            base = sys.a if axis == "barrier_width" else max(sys.L, 1e-10)
            values = [base * 1.25**j for j in range(20)]
            E = U0 * rng.uniform(0.05, 0.95)
            assert _agrees(
                hartman_sweep, ref_hartman_sweep, _sweep_numbers, sys, E, axis, values
            ), (sys, E, axis)
            compared["hartman_sweep"] += 1
    assert compared["scaled_denominator"] == 20_000
    assert compared["average_phase_time"] == 20_000
    assert compared["hartman_sweep"] == 200


# -- design guard -----------------------------------------------------------------

GUARDED = (Kinematics, ScaledDenominator, TransmissionResult, PhaseTimeBreakdown)


@pytest.fixture
def generated_new_calls(monkeypatch):
    """Counts calls of the generated NamedTuple __new__ of each guarded record."""
    calls = Counter()
    for cls in GUARDED:

        def counted(klass, *args, _new=cls.__new__, **kwargs):
            calls[klass.__name__] += 1
            return _new(klass, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", counted)
    return calls


def test_per_energy_paths_never_call_the_generated_constructors(generated_new_calls):
    sys = neutron_system()
    # The counter sees a constructor call made the ordinary way.
    Kinematics(*(1.0,) * 7)
    assert generated_new_calls == Counter({"Kinematics": 1})
    generated_new_calls.clear()

    for i in range(1, 50):
        E = sys.U0 * i / 50
        sc = scaled_denominator(sys, E)
        records = (sc, sc.kin, amplitude(sys, E), phase_time(sys, E))
        assert [type(r) for r in records] == [
            ScaledDenominator, Kinematics, TransmissionResult, PhaseTimeBreakdown
        ]
        assert all(len(r) == len(type(r)._fields) for r in records), records
    roots = find_resonances(sys, 1e-3 * sys.U0, 0.999 * sys.U0)
    assert len(roots) == 1
    assert generated_new_calls == Counter()
