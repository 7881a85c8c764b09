"""Command-line front end.

    tunnelkit <transmission|resonances|neutron|sweep|oracle-check>
              [--config FILE] [flags]

Units at this boundary are angstrom, neV and mass ratio (to the free
neutron mass); everything internal is SI. Output is deterministic: the
same configuration produces byte-identical CSV/JSON. CSV carries 12
significant digits; JSON numbers are emitted at full round-trip precision.

Exit codes are frozen for CI use:
    0 success, 2 configuration/parse error, 3 domain error,
    4 acceptance-check violation (neutron --check),
    5 oracle-check threshold violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Optional

from .constants import (
    CODATA2018,
    PhysicalConstants,
    angstrom_from_metre,
    metre_from_angstrom,
)
from .errors import DomainError, TunnelkitError
from .kinematics import BarrierSystem, kinematics
from .phase_time import _phase_time_of, phase_time, phase_time_at_resonance, phase_time_numeric
from .resonance import find_resonances, fit_effective_mass
from .scatter_oracle import double_barrier_profile, solve
from .scenarios import (
    NEUTRON_BARRIER_HEIGHT_NEV,
    NEUTRON_BARRIER_WIDTH_ANGSTROM,
    NEUTRON_GAP_ANGSTROM,
    hartman_sweep,
    run_neutron_scenario,
)
from .transmission import amplitude, scaled_denominator
from . import __version__

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    """Bad configuration input; mapped to exit code 2."""


# Acceptance fixtures checked by `neutron --check` (value, tolerance, kind).
# The two phase-times are the high-precision mpmath reference of
# tests/neutron_reference.py, computed independently of this package;
# average_phase_time takes the mean exactly, as hbar times the phase
# difference across the window, so it carries only rounding (about
# 2^-52 O(1) / |dphi| relative) and tau_avg, like tau_r, is held to 1e-9.
# The paper reports 2.36e-7 s and 2.4e-7 s, which the stated system does
# not reproduce (README).
NEUTRON_CHECKS = (
    ("E_r_free_mass", 123.0, 1.0, "abs"),
    ("fitted_mass_ratio", 0.926883, 1e-4, "abs"),
    ("tau_r", 2.8240682137e-7, 1e-9, "rel"),
    ("tau_avg", 2.2355201441e-7, 1e-9, "rel"),
)

_SYSTEM_FIELDS = {"a_angstrom", "U0_neV", "L_angstrom", "mass_ratio"}
_DEFAULT_SYSTEM = {
    "a_angstrom": NEUTRON_BARRIER_WIDTH_ANGSTROM,
    "U0_neV": NEUTRON_BARRIER_HEIGHT_NEV,
    "L_angstrom": NEUTRON_GAP_ANGSTROM,
    "mass_ratio": 1.0,
}


def _fmt12(x: float) -> str:
    return f"{x:.12g}"


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, not UTF-8, or an integer past the digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def _number(
    section: dict, field: str, default: float, flag: Optional[float] = None
) -> float:
    """The flag if given, else the config field, else the default; finite."""
    value = section.get(field, default) if flag is None else flag
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {field!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer past the float range
        number = math.inf
    if not math.isfinite(number):  # JSON also admits NaN and Infinity
        raise ConfigError(f"field {field!r} must be a finite number, got {value!r}")
    return number


def _points(section: dict, default: int, flag: Optional[int]) -> int:
    value = _number(section, "points", default, flag)
    if not (value >= 1 and value.is_integer()):
        raise ConfigError(f"field 'points' must be an integer >= 1, got {value!r}")
    return int(value)


def _section(config: dict, name: str) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"field {name!r} must be a JSON object")
    return section


def _build_system(args, config: dict) -> BarrierSystem:
    section = _section(config, "system")
    unknown = set(section) - _SYSTEM_FIELDS
    if unknown:
        raise ConfigError(f"unknown system field(s): {sorted(unknown)}")
    merged = dict(_DEFAULT_SYSTEM)
    for field in _SYSTEM_FIELDS:
        merged[field] = _number(section, field, merged[field])
    # command-line flags win over file values
    if args.a is not None:
        merged["a_angstrom"] = args.a
    if args.l is not None:
        merged["L_angstrom"] = args.l
    if args.u0 is not None:
        merged["U0_neV"] = args.u0
    if args.mass_ratio is not None:
        merged["mass_ratio"] = args.mass_ratio
    try:
        return BarrierSystem.from_lab_units(
            merged["a_angstrom"],
            merged["U0_neV"],
            merged["L_angstrom"],
            merged["mass_ratio"],
        )
    except DomainError as exc:
        raise ConfigError(f"invalid system parameters: {exc}") from exc


def _energy_grid(sys: BarrierSystem, e_min_nev: float, e_max_nev: float, points: int):
    nev = 1.0 / CODATA2018.neV_per_J
    lo, hi = e_min_nev * nev, e_max_nev * nev
    if not (0.0 < lo < sys.U0 and 0.0 < hi < sys.U0):
        raise DomainError(
            f"energy grid [{e_min_nev}, {e_max_nev}] neV must lie inside "
            f"(0, {sys.U0 * CODATA2018.neV_per_J}) neV"
        )
    if not hi > lo:
        raise DomainError("grid needs e_max > e_min")
    if points == 1:
        return [lo]
    return [lo + (hi - lo) * i / (points - 1) for i in range(points)]


def cmd_transmission(args, config: dict) -> int:
    sys_ = _build_system(args, config)
    section = _section(config, "transmission")
    e_min = _number(section, "e_min_neV", 1.0, args.emin)
    e_max = _number(section, "e_max_neV", 229.0, args.emax)
    points = _points(section, 201, args.points)
    fmt = args.format or section.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")

    rows = []
    for E in _energy_grid(sys_, e_min, e_max, points):
        sc = scaled_denominator(sys_, E)
        rows.append(
            (
                E * CODATA2018.neV_per_J,
                math.exp(-sc.log_mod_squared),
                _phase_time_of(sc, sys_.L).total,
            )
        )
    if fmt == "csv":
        lines = ["E_neV,probability,tau_s"]
        lines += [f"{_fmt12(e)},{_fmt12(p)},{_fmt12(t)}" for e, p, t in rows]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        doc = [{"E_neV": e, "probability": p, "tau_s": t} for e, p, t in rows]
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_resonances(args, config: dict) -> int:
    sys_ = _build_system(args, config)
    section = _section(config, "resonances")
    nev = 1.0 / CODATA2018.neV_per_J
    e_min = _number(section, "e_min_neV", 1.0, args.emin)
    e_max = _number(
        section, "e_max_neV", 0.999 * sys_.U0 * CODATA2018.neV_per_J, args.emax
    )

    if args.fit_mass is not None:
        m = fit_effective_mass(
            sys_.a,
            sys_.U0,
            sys_.L,
            args.fit_mass * nev,
            (0.5 * CODATA2018.m_neutron, 1.5 * CODATA2018.m_neutron),
        )
        sys.stdout.write(
            json.dumps({"fitted_mass_ratio": m / CODATA2018.m_neutron}, indent=2) + "\n"
        )
        return 0

    found = find_resonances(sys_, e_min * nev, e_max * nev)
    doc = [
        {
            "E_r_neV": r.E_r * CODATA2018.neV_per_J,
            "beta_neV": r.beta * CODATA2018.neV_per_J,
            "tau_r_s": phase_time_at_resonance(sys_, r),
        }
        for r in found
    ]
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


def _load_constants(path: Optional[str]) -> PhysicalConstants:
    if path is None:
        return CODATA2018
    doc = _load_json_file(path)
    known = {"hbar", "m_neutron", "neV_per_J", "m_per_angstrom"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown constants field(s): {sorted(unknown)}")
    merged = {name: _number(doc, name, getattr(CODATA2018, name)) for name in known}
    # The scenario hands its constants to the unit conversions and the mass
    # fit only; every closed form takes hbar from CODATA 2018, so another
    # hbar would change no output.
    if merged["hbar"] != CODATA2018.hbar:
        raise ConfigError(
            f"constants field 'hbar' cannot be overridden: the closed forms use "
            f"CODATA 2018 hbar = {CODATA2018.hbar!r}, got {merged['hbar']!r}"
        )
    try:
        return PhysicalConstants(**merged)
    except ValueError as exc:
        raise ConfigError(f"invalid constants: {exc}") from exc


def cmd_neutron(args, config: dict) -> int:
    constants = _load_constants(args.constants)
    report = run_neutron_scenario(constants)
    doc = report.to_json_dict()
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    if not args.check:
        return 0
    failures = []
    for field, expected, tol, kind in NEUTRON_CHECKS:
        got = doc[field]
        bound = tol if kind == "abs" else tol * abs(expected)
        ok = abs(got - expected) <= bound
        sys.stderr.write(
            f"{'PASS' if ok else 'FAIL'} {field}: got {got!r}, "
            f"expected {expected!r} +- {bound!r}\n"
        )
        if not ok:
            failures.append(field)
    if failures:
        sys.stderr.write(f"acceptance violations: {', '.join(failures)}\n")
        return 4
    return 0


def cmd_sweep(args, config: dict) -> int:
    sys_ = _build_system(args, config)
    section = _section(config, "sweep")
    nev = 1.0 / CODATA2018.neV_per_J
    axis = args.axis or section.get("axis")
    if axis not in ("barrier_width", "gap_length"):
        raise ConfigError(f"axis must be barrier_width or gap_length, got {axis!r}")
    energy_nev = _number(section, "energy_neV", 80.5, args.energy)
    values_ang = args.values or section.get("values_angstrom")
    if not (isinstance(values_ang, list) and values_ang):
        raise ConfigError(
            f"sweep needs --values (angstrom), a non-empty list, got {values_ang!r}"
        )
    fmt = args.format or section.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")

    values = [
        metre_from_angstrom(_number(section, "values_angstrom", 0.0, v)) for v in values_ang
    ]
    table = hartman_sweep(sys_, energy_nev * nev, axis, values)
    if fmt == "json":
        sys.stdout.write(json.dumps(table.to_json_dict(), indent=2) + "\n")
        return 0
    lines = ["sweep_value_angstrom,probability,tau_exact_s,tau_asymptotic_s,flagged"]
    for row in table.rows:
        asym = "" if row.tau_asymptotic is None else _fmt12(row.tau_asymptotic)
        lines.append(
            f"{_fmt12(angstrom_from_metre(row.sweep_value))},{_fmt12(row.probability)},"
            f"{_fmt12(row.tau_exact)},{asym},{str(row.flagged).lower()}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_oracle_check(args, config: dict) -> int:
    sys_ = _build_system(args, config)
    section = _section(config, "oracle_check")
    u0_nev = sys_.U0 * CODATA2018.neV_per_J
    e_min = _number(section, "e_min_neV", 0.05 * u0_nev, args.emin)
    e_max = _number(section, "e_max_neV", 0.95 * u0_nev, args.emax)
    points = _points(section, 200, args.points)
    amp_tol = _number(section, "amplitude_tolerance", 1e-10, args.amp_tol)
    tau_tol = _number(section, "phase_time_tolerance", 1e-6, args.tau_tol)

    profile = double_barrier_profile(sys_)
    worst_amp = (0.0, None)
    worst_tau = (0.0, None)
    for E in _energy_grid(sys_, e_min, e_max, points):
        closed = amplitude(sys_, E).amplitude
        reference = solve(profile, E).t
        dev_amp = abs(closed - reference) / abs(reference)
        if dev_amp > worst_amp[0]:
            worst_amp = (dev_amp, E)
        analytic = phase_time(sys_, E).total
        numeric = phase_time_numeric(sys_, E)
        dev_tau = abs(analytic - numeric) / abs(analytic)
        if dev_tau > worst_tau[0]:
            worst_tau = (dev_tau, E)

    nev = CODATA2018.neV_per_J
    sys.stdout.write(
        f"amplitude: max relative deviation {worst_amp[0]:.3e} vs transfer matrix "
        f"(threshold {amp_tol:g})\n"
        f"phase_time: max relative deviation {worst_tau[0]:.3e} vs numeric derivative "
        f"(threshold {tau_tol:g})\n"
    )
    failed = []
    if worst_amp[0] > amp_tol:
        failed.append(f"amplitude at E={worst_amp[1] * nev:.6f} neV")
    if worst_tau[0] > tau_tol:
        failed.append(f"phase_time at E={worst_tau[1] * nev:.6f} neV")
    if failed:
        sys.stdout.write("FAIL: " + "; ".join(failed) + "\n")
        return 5
    sys.stdout.write("OK\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunnelkit",
        description="Double rectangular barrier: transmission, resonances, phase-times.",
    )
    parser.add_argument("--version", action="version", version=f"tunnelkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--a", type=float, help="barrier width (angstrom)")
        p.add_argument("--l", type=float, help="gap length (angstrom)")
        p.add_argument("--u0", type=float, help="barrier height (neV)")
        p.add_argument("--mass-ratio", type=float, help="mass / m_neutron")

    p_tr = sub.add_parser("transmission", help="tabulate probability and phase-time")
    add_common(p_tr)
    p_tr.add_argument("--emin", type=float, help="grid start (neV)")
    p_tr.add_argument("--emax", type=float, help="grid end (neV)")
    p_tr.add_argument("--points", type=int, help="grid size")
    p_tr.add_argument("--format", choices=("csv", "json"))
    p_tr.set_defaults(func=cmd_transmission)

    p_re = sub.add_parser("resonances", help="locate resonances or fit the mass")
    add_common(p_re)
    p_re.add_argument("--emin", type=float, help="window start (neV)")
    p_re.add_argument("--emax", type=float, help="window end (neV)")
    p_re.add_argument("--fit-mass", type=float, metavar="E_R_NEV",
                      help="invert the mass that resonates at this energy")
    p_re.set_defaults(func=cmd_resonances)

    p_ne = sub.add_parser("neutron", help="run the cold-neutron filter scenario")
    p_ne.add_argument("--check", action="store_true",
                      help="verify the scenario against its acceptance fixtures")
    p_ne.add_argument("--constants", help="JSON file overriding physical constants")
    p_ne.set_defaults(func=cmd_neutron)

    p_sw = sub.add_parser("sweep", help="sweep barrier width or gap length")
    add_common(p_sw)
    p_sw.add_argument("--axis", choices=("barrier_width", "gap_length"))
    p_sw.add_argument("--energy", type=float, help="probe energy (neV)")
    p_sw.add_argument("--values", type=float, nargs="+", help="swept lengths (angstrom)")
    p_sw.add_argument("--format", choices=("csv", "json"))
    p_sw.set_defaults(func=cmd_sweep)

    p_or = sub.add_parser("oracle-check", help="closed form vs transfer matrix and numeric tau")
    add_common(p_or)
    p_or.add_argument("--emin", type=float, help="grid start (neV)")
    p_or.add_argument("--emax", type=float, help="grid end (neV)")
    p_or.add_argument("--points", type=int, help="grid size")
    p_or.add_argument("--amp-tol", type=float, help="amplitude threshold")
    p_or.add_argument("--tau-tol", type=float, help="phase-time threshold")
    p_or.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit 2 on usage errors
        return int(exc.code or 0)
    try:
        config = _load_json_file(args.config) if getattr(args, "config", None) else {}
        return args.func(args, config)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 3
    except TunnelkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
