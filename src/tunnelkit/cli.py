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

import argparse
import json
import math
import sys
from typing import Optional

from .constants import CODATA2018, joule_from_nev, metre_from_angstrom, nev_from_joule
from .errors import DomainError, TunnelkitError
from .kinematics import BarrierSystem
from .phase_time import _phase_time_of, phase_time, phase_time_numeric
from .resonance import find_resonances, fit_effective_mass
from .scatter_oracle import double_barrier_profile, solve
from .scenarios import (
    MEASURED_ANNOTATIONS,
    NEUTRON_BARRIER_HEIGHT_NEV,
    NEUTRON_BARRIER_WIDTH_ANGSTROM,
    NEUTRON_GAP_ANGSTROM,
    NEUTRON_MASS_BRACKET,
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

# In BarrierSystem.from_lab_units' argument order.
_DEFAULT_SYSTEM = {
    "a_angstrom": NEUTRON_BARRIER_WIDTH_ANGSTROM,
    "U0_neV": NEUTRON_BARRIER_HEIGHT_NEV,
    "L_angstrom": NEUTRON_GAP_ANGSTROM,
    "mass_ratio": 1.0,
}
_FORMATS = ("csv", "json")
_AXES = ("barrier_width", "gap_length")


def _known(doc: dict, name: str, fields) -> dict:
    """doc, unless it holds a name outside fields."""
    unknown = set(doc).difference(fields)
    if unknown:
        raise ConfigError(f"unknown {name} field(s): {sorted(unknown)}")
    return doc


def _load_config(path: str, schema: dict) -> dict:
    """The config document at path: a JSON object of the schema's sections,
    each a JSON object of its fields, whichever command reads it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, not UTF-8, or an integer past the digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    for name, section in _known(doc, "top-level", schema).items():
        if not isinstance(section, dict):
            raise ConfigError(f"field {name!r} must be a JSON object")
        _known(section, name, schema[name])
    return doc


def _finite(field: str, value) -> float:
    """value, a number, as a finite float; field names it in the error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {field!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer past the float range
        number = math.inf
    if not math.isfinite(number):  # JSON also admits NaN and Infinity
        raise ConfigError(f"field {field!r} must be a finite number, got {value!r}")
    return number


def _number(args, field: str, default: Optional[float] = None) -> float:
    """The field's flag if given, else its config value, else the default; finite."""
    return _finite(field, getattr(args, field, default))


def _points(args, default: int) -> int:
    value = _number(args, "points", default)
    if not (value >= 1 and value.is_integer()):
        raise ConfigError(f"field 'points' must be an integer >= 1, got {value!r}")
    return int(value)


def _choice(args, field: str, choices: tuple, default: Optional[str] = None) -> str:
    value = getattr(args, field, default)
    if value not in choices:
        raise ConfigError(f"{field} must be {' or '.join(choices)}, got {value!r}")
    return value


def _build_system(args) -> BarrierSystem:
    values = [_number(args, field, default) for field, default in _DEFAULT_SYSTEM.items()]
    try:
        return BarrierSystem.from_lab_units(*values)
    except DomainError as exc:
        raise ConfigError(f"invalid system parameters: {exc}") from exc


def _window(args, top: float, *bottoms: float) -> tuple:
    """(e_min, e_max) in neV, each as given or else by default: the top is top,
    the bottom the first of bottoms below the top, else 1e-3 of a positive top,
    else the last of bottoms."""
    e_min = _number(args, "e_min_neV") if hasattr(args, "e_min_neV") else None
    e_max = _number(args, "e_max_neV", top)
    if e_min is None:
        fallback = 1e-3 * e_max if e_max > 0.0 else bottoms[-1]
        e_min = next((b for b in bottoms if b < e_max), fallback)
    return e_min, e_max


def _write(doc, fmt: str = "json", columns=()) -> None:
    """doc on stdout: as JSON, or as CSV of its rows (dicts) in columns, with
    numbers to 12 significant digits, None empty and booleans lower case."""
    if fmt == "json":
        text = json.dumps(doc, indent=2)
    else:
        text = "\n".join([",".join(columns)] + [
            ",".join("" if v is None else str(v).lower() if isinstance(v, bool) else f"{v:.12g}"
                     for v in (row[c] for c in columns))
            for row in doc
        ])
    sys.stdout.write(text + "\n")


def _energy_grid(sys: BarrierSystem, e_min_nev: float, e_max_nev: float, points: int):
    """The grid in neV, both ends as given, so each point prints as the number
    it was made from; the caller converts each with joule_from_nev."""
    lo, hi = joule_from_nev(e_min_nev), joule_from_nev(e_max_nev)
    if not (0.0 < lo < sys.U0 and 0.0 < hi < sys.U0):
        raise DomainError(
            f"energy grid [{e_min_nev}, {e_max_nev}] neV must lie inside "
            f"(0, {nev_from_joule(sys.U0)}) neV"
        )
    if not hi > lo:
        raise DomainError("grid needs e_max > e_min")
    if points == 1:
        return [e_min_nev]
    span = e_max_nev - e_min_nev
    return [e_min_nev + span * i / (points - 1) for i in range(points - 1)] + [e_max_nev]


def cmd_transmission(args) -> int:
    sys_ = _build_system(args)
    u0_nev = nev_from_joule(sys_.U0)
    e_min, e_max = _window(args, min(229.0, 0.999 * u0_nev), 1.0, 1e-3 * u0_nev)
    points = _points(args, 201)
    fmt = _choice(args, "format", _FORMATS, "csv")

    rows = []
    for e_nev in _energy_grid(sys_, e_min, e_max, points):
        sc = scaled_denominator(sys_, joule_from_nev(e_nev))
        rows.append({
            "E_neV": e_nev,
            "probability": math.exp(-sc.log_mod_squared),
            "tau_s": _phase_time_of(sc, sys_.L).total,
        })
    _write(rows, fmt, list(rows[0]))
    return 0


def cmd_resonances(args) -> int:
    sys_ = _build_system(args)
    u0_nev = nev_from_joule(sys_.U0)
    e_min, e_max = _window(args, 0.999 * u0_nev, 1.0, 1e-3 * u0_nev)

    if hasattr(args, "fit_mass"):
        target = joule_from_nev(_number(args, "fit_mass"))
        m = fit_effective_mass(sys_.a, sys_.U0, sys_.L, target, NEUTRON_MASS_BRACKET)
        _write({"fitted_mass_ratio": m / CODATA2018.m_neutron})
        return 0

    found = find_resonances(sys_, joule_from_nev(e_min), joule_from_nev(e_max))
    _write([
        {
            "E_r_neV": nev_from_joule(r.E_r),
            "beta_neV": nev_from_joule(r.beta),
            "tau_r_s": r.tau_r,
        }
        for r in found
    ])
    return 0


def cmd_neutron(args) -> int:
    doc = run_neutron_scenario()._asdict()
    doc["annotations"] = MEASURED_ANNOTATIONS
    _write(doc)
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


def cmd_sweep(args) -> int:
    sys_ = _build_system(args)
    axis = _choice(args, "axis", _AXES)
    energy_nev = _number(args, "energy_neV", min(80.5, 0.35 * nev_from_joule(sys_.U0)))
    values_ang = getattr(args, "values_angstrom", None)
    if not (isinstance(values_ang, list) and values_ang):
        raise ConfigError(
            f"sweep needs --values (angstrom), a non-empty list, got {values_ang!r}"
        )
    fmt = _choice(args, "format", _FORMATS, "csv")

    lengths = [_finite("values_angstrom", v) for v in values_ang]
    values = [metre_from_angstrom(v) for v in lengths]
    table = hartman_sweep(sys_, joule_from_nev(energy_nev), axis, values)
    # Energy and lengths echo as given, not converted there and back.
    rows = [
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
    doc = {"axis": axis, "energy_neV": energy_nev, "rows": rows}
    _write(doc if fmt == "json" else rows, fmt, list(rows[0])[:5])  # CSV drops flag_reason
    return 0


def cmd_oracle_check(args) -> int:
    sys_ = _build_system(args)
    u0_nev = nev_from_joule(sys_.U0)
    e_min, e_max = _window(args, 0.95 * u0_nev, 0.05 * u0_nev)
    points = _points(args, 200)
    amp_tol = _number(args, "amplitude_tolerance", 1e-10)
    tau_tol = _number(args, "phase_time_tolerance", 1e-6)
    for field, tol in (("amplitude_tolerance", amp_tol), ("phase_time_tolerance", tau_tol)):
        if tol < 0.0:
            raise ConfigError(f"field {field!r} must be >= 0, got {tol!r}")

    profile = double_barrier_profile(sys_)
    worst_amp = (0.0, None)
    worst_tau = (0.0, None)
    for e_nev in _energy_grid(sys_, e_min, e_max, points):
        E = joule_from_nev(e_nev)
        closed = amplitude(sys_, E).amplitude
        reference = solve(profile, E).t
        if reference == 0:
            raise DomainError(f"transfer-matrix amplitude underflows to 0 at E={e_nev:.6f} neV")
        dev_amp = abs(closed - reference) / abs(reference)
        if dev_amp > worst_amp[0]:
            worst_amp = (dev_amp, e_nev)
        analytic = phase_time(sys_, E).total
        numeric = phase_time_numeric(sys_, E)
        dev_tau = abs(analytic - numeric) / abs(analytic)
        if dev_tau > worst_tau[0]:
            worst_tau = (dev_tau, e_nev)

    sys.stdout.write(
        f"amplitude: max relative deviation {worst_amp[0]:.3e} vs transfer matrix "
        f"(threshold {amp_tol:g})\n"
        f"phase_time: max relative deviation {worst_tau[0]:.3e} vs numeric derivative "
        f"(threshold {tau_tol:g})\n"
    )
    failed = []
    if worst_amp[0] > amp_tol:
        failed.append(f"amplitude at E={worst_amp[1]:.6f} neV")
    if worst_tau[0] > tau_tol:
        failed.append(f"phase_time at E={worst_tau[1]:.6f} neV")
    if failed:
        sys.stdout.write("FAIL: " + "; ".join(failed) + "\n")
        return 5
    sys.stdout.write("OK\n")
    return 0


def _build_parser() -> tuple:
    """The parser, and the config schema it declares: each value option's dest is its
    field, in `system` or its command's section, and stays unset if not given."""
    parser = argparse.ArgumentParser(
        prog="tunnelkit",
        description="Double rectangular barrier: transmission, resonances, phase-times.",
    )
    parser.add_argument("--version", action="version", version=f"tunnelkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    system = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    system.add_argument("--config", help="JSON config file")
    system.add_argument("--a", dest="a_angstrom", type=float, help="barrier width (angstrom)")
    system.add_argument("--l", dest="L_angstrom", type=float, help="gap length (angstrom)")
    system.add_argument("--u0", dest="U0_neV", type=float, help="barrier height (neV)")
    system.add_argument("--mass-ratio", type=float, help="mass / m_neutron")
    commands = {}

    def add_command(name, func, help_):
        p = sub.add_parser(name, parents=[system], argument_default=argparse.SUPPRESS, help=help_)
        p.set_defaults(func=func)
        commands[name.replace("-", "_")] = p
        return p

    p_tr = add_command("transmission", cmd_transmission, "tabulate probability and phase-time")
    p_tr.add_argument("--emin", dest="e_min_neV", type=float, help="grid start (neV)")
    p_tr.add_argument("--emax", dest="e_max_neV", type=float, help="grid end (neV)")
    p_tr.add_argument("--points", type=int, help="grid size")
    p_tr.add_argument("--format", choices=_FORMATS)

    p_re = add_command("resonances", cmd_resonances, "locate resonances or fit the mass")
    p_re.add_argument("--emin", dest="e_min_neV", type=float, help="window start (neV)")
    p_re.add_argument("--emax", dest="e_max_neV", type=float, help="window end (neV)")
    p_re.add_argument("--fit-mass", type=float, metavar="E_R_NEV",
                      help="invert the mass that resonates at this energy")

    p_ne = sub.add_parser("neutron", help="run the cold-neutron filter scenario")
    p_ne.add_argument("--check", action="store_true",
                      help="verify the scenario against its acceptance fixtures")
    p_ne.set_defaults(func=cmd_neutron)

    p_sw = add_command("sweep", cmd_sweep, "sweep barrier width or gap length")
    p_sw.add_argument("--axis", choices=_AXES)
    p_sw.add_argument("--energy", dest="energy_neV", type=float, help="probe energy (neV)")
    p_sw.add_argument("--values", dest="values_angstrom", type=float, nargs="+",
                      help="swept lengths (angstrom)")
    p_sw.add_argument("--format", choices=_FORMATS)

    p_or = add_command("oracle-check", cmd_oracle_check,
                       "closed form vs transfer matrix and numeric tau")
    p_or.add_argument("--emin", dest="e_min_neV", type=float, help="grid start (neV)")
    p_or.add_argument("--emax", dest="e_max_neV", type=float, help="grid end (neV)")
    p_or.add_argument("--points", type=int, help="grid size")
    p_or.add_argument("--amp-tol", dest="amplitude_tolerance", type=float,
                      help="amplitude threshold")
    p_or.add_argument("--tau-tol", dest="phase_time_tolerance", type=float,
                      help="phase-time threshold")

    schema = {}
    for name, p in {"system": system, **commands}.items():
        fields = [a.dest for a in p._actions if a.dest not in ("help", "config")]
        schema[name] = [f for f in fields if f not in schema.get("system", ())]
    return parser, schema


def main(argv: Optional[list[str]] = None) -> int:
    parser, schema = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit 2 on usage errors
        return int(exc.code or 0)
    try:
        if getattr(args, "config", None):
            # Config values fill the fields no flag gave; a null stays, for the checks to reject.
            config = _load_config(args.config, schema)
            for name in ("system", args.command.replace("-", "_")):
                for field, value in config.get(name, {}).items():
                    vars(args).setdefault(field, value)
        return args.func(args)
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
