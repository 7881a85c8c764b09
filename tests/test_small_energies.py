"""Energies near the ends of (0, U0): a finite value or a TunnelkitError.

At E within a few hundred decades of zero, 2mE can round to zero (k = 0)
and sigma^2 ~ U0/E can push the scaled record past the double range. Every
per-energy function must then raise a TunnelkitError (DomainError) rather
than a bare ZeroDivisionError or return inf or nan.
"""

from __future__ import annotations

import cmath
import random
from collections import Counter

import pytest

from tunnelkit import (
    BarrierSystem,
    DomainError,
    TunnelkitError,
    amplitude,
    average_phase_time,
    double_barrier_profile,
    hartman_limit,
    log_probability,
    neutron_filter_system,
    phase_time,
    phase_time_numeric,
    phase_time_opaque,
    resonance_residual,
    solve,
)

# Each returns the numbers that must be finite.
CHECKS = {
    "amplitude": lambda sys, E: tuple(amplitude(sys, E)),
    "log_probability": lambda sys, E: (log_probability(sys, E),),
    "phase_time": lambda sys, E: (phase_time(sys, E).total,),
    "phase_time_opaque": lambda sys, E: (phase_time_opaque(sys, E),),
    "average_phase_time": lambda sys, E: (average_phase_time(sys, E, E * (1.0 + 1e-6)),),
    "hartman_limit": lambda sys, E: (hartman_limit(sys, E),),
    "resonance_residual": lambda sys, E: (resonance_residual(sys, E),),
    "solve": lambda sys, E: tuple(solve(double_barrier_profile(sys), E)),
}


def _draw(rng: random.Random, i: int) -> tuple[BarrierSystem, float]:
    # a 1e-15-1e-3 m, U0 1e-30-1e-15 J, m 1e-31-1e-25 kg, L = 0 or 1e-15-1e-3 m;
    # E/U0 log-uniform down to 1e-320 in half the draws, uniform in the rest.
    a = 10.0 ** rng.uniform(-15.0, -3.0)
    U0 = 10.0 ** rng.uniform(-30.0, -15.0)
    m = 10.0 ** rng.uniform(-31.0, -25.0)
    L = 0.0 if i % 2 == 0 else 10.0 ** rng.uniform(-15.0, -3.0)
    ratio = 10.0 ** rng.uniform(-320.0, 0.0) if rng.random() < 0.5 else rng.random()
    return BarrierSystem(a, U0, L, m), max(U0 * ratio, 5e-324)


def test_every_per_energy_function_is_finite_or_raises_a_tunnelkit_error():
    rng = random.Random(2914)
    outcomes = Counter()
    for i in range(10_000):
        sys, E = _draw(rng, i)
        for name, check in CHECKS.items():
            try:
                numbers = check(sys, E)
            except TunnelkitError as exc:
                outcomes[name, type(exc).__name__] += 1
                continue
            assert all(cmath.isfinite(x) for x in numbers), (name, sys, E, numbers)
            outcomes[name, "finite"] += 1
    # The draws reach both failure modes: k = 0 (every function) and an
    # overflowing record (the two phase-times and log_probability only).
    for name in CHECKS:
        assert outcomes[name, "finite"] > 4000, name
        assert outcomes[name, DomainError.__name__] > 300, name
    for name in ("phase_time", "phase_time_opaque"):
        assert outcomes[name, DomainError.__name__] > outcomes["solve", DomainError.__name__]


def test_phase_time_means_raise_where_2_m_L_dE_is_not_a_normal_double():
    # On the neutron filter the gap term's numerator 2 m L dE is subnormal
    # below dE ~ 3.4e-274 J (3.27e-320 at 1e-285 J) and 0.0 at 1e-290 J,
    # where both means came out exactly 0.0 s.
    sys = neutron_filter_system()
    for call in (
        lambda: average_phase_time(sys, 1e-290, 1.5e-290),
        lambda: phase_time_numeric(sys, 1e-290),
        lambda: average_phase_time(sys, 1e-285, 1.5e-285),
    ):
        with pytest.raises(DomainError, match="not a normal double"):
            call()
