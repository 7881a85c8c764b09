"""Span recorder for the traced benchmark run.

The recorder wraps the package's layer functions at every module binding
that refers to them, so calls the package makes internally are recorded
too: ``scaled_denominator`` is imported by name into ``phase_time`` and
``resonance``, and ``kinematics`` into nearly every module. The package
source is never edited; ``uninstall`` restores every original binding.

Each wrapped call appends one span (function, start, end, parent span,
request id) to flat arrays held in memory. Spans are written out once,
at the end of the run. A span's self time is its duration minus the
durations of its direct child spans; calls are strictly nested (one
thread), so the children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module inside the package, function) for every traced layer function.
TRACED = (
    ("kinematics", "kinematics"),
    ("kinematics", "hyperbolic_state"),
    ("transmission", "scaled_denominator"),
    ("transmission", "amplitude"),
    ("transmission", "transmitted_phase"),
    ("transmission", "probability_opaque"),
    ("phase_time", "phase_time"),
    ("phase_time", "phase_time_numeric"),
    ("phase_time", "average_phase_time"),
    ("resonance", "resonance_residual"),
    ("resonance", "find_resonances"),
    ("resonance", "fit_effective_mass"),
    ("scatter_oracle", "solve"),
    ("scenarios", "hartman_sweep"),
    ("scenarios", "run_neutron_scenario"),
)
NAMES = tuple(f"{module}.{function}" for module, function in TRACED)
_ID = {name: i for i, name in enumerate(NAMES)}

# Exception types of find_resonances reported by name; others add to ".other".
FAILURE_TYPES = ("ResonanceValidationError", "ValueError")

# Self times reported as metrics: layers every workload reaches, so the value
# is a measured time on each of them and never a constant zero.
SELF_TIME_LAYERS = (
    "kinematics.kinematics",
    "kinematics.hyperbolic_state",
    "transmission.scaled_denominator",
    "phase_time.phase_time",
)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[int, str] = {}   # span index -> exception type
        self.roots: dict[int, int] = {}    # find_resonances span -> roots returned
        self.request_id = -1
        self._stack: list[int] = []
        self._bindings: list = []

    # -- recording ---------------------------------------------------------

    def install(self, package: str = "tunnelkit") -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for nid, (module, function) in enumerate(TRACED):
            original = getattr(sys.modules[f"{package}.{module}"], function)
            wrapper = self._wrap(nid, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def _wrap(self, nid: int, fn):
        name, parent, request = self.name, self.parent, self.request
        start, end, stack = self.start, self.end, self._stack
        errors, roots = self.errors, self.roots
        counts_roots = NAMES[nid] == "resonance.find_resonances"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(tracer.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = perf_counter()
                stack.pop()
                errors[idx] = type(exc).__name__
                raise
            end[idx] = perf_counter()
            stack.pop()
            if counts_roots:
                roots[idx] = len(result)
            return result

        return traced

    # -- transport between processes --------------------------------------

    def to_payload(self) -> dict:
        return {
            "name": list(self.name), "parent": list(self.parent),
            "start": list(self.start), "end": list(self.end),
            "errors": [[i, t] for i, t in self.errors.items()],
            "roots": [[i, n] for i, n in self.roots.items()],
        }

    def merge(self, payload: dict, request_id: int) -> None:
        """Append spans recorded in another process under one request id."""
        offset = len(self.name)
        self.name.extend(payload["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in payload["parent"])
        self.request.extend([request_id] * len(payload["name"]))
        self.start.extend(payload["start"])
        self.end.extend(payload["end"])
        self.errors.update((i + offset, t) for i, t in payload["errors"])
        self.roots.update((i + offset, n) for i, n in payload["roots"])

    def write(self, path) -> None:
        """Write every span as gzip CSV: id,function,parent,request,start_s,end_s,error."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,function,parent,request,start_s,end_s,error\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i},{NAMES[self.name[i]]},{self.parent[i]},{self.request[i]},"
                    f"{self.start[i]!r},{self.end[i]!r},{self.errors.get(i, '')}\n"
                )

    # -- aggregation -------------------------------------------------------

    def calls_by_request(self, function: str) -> Counter:
        nid = _ID[function]
        return Counter(r for n, r in zip(self.name, self.request) if n == nid)

    def signature(self) -> tuple:
        """Everything countable about the run, for the repeatability check."""
        calls = Counter(zip(self.request, self.name))
        errors = Counter((self.request[i], self.name[i], t) for i, t in self.errors.items())
        roots = Counter((self.request[i], n) for i, n in self.roots.items())
        return tuple(sorted(calls.items())), tuple(sorted(errors.items())), tuple(sorted(roots.items()))

    def summary(self) -> dict:
        """Per function: calls, self time (ms) and raised exception types."""
        n = len(self.name)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for i in range(n):
            calls[name[i]] += 1
            self_s[name[i]] += (end[i] - start[i]) - child[i]
        failures = {fn: Counter() for fn in NAMES}
        for i, t in self.errors.items():
            failures[NAMES[name[i]]][t] += 1
        return {
            fn: {"calls": calls[i], "self_ms": 1e3 * self_s[i], "failures": dict(failures[fn])}
            for i, fn in enumerate(NAMES)
        }

    def derived_counts(self) -> dict:
        """Counts defined by where a call sits in the span tree."""
        fr, rr = _ID["resonance.find_resonances"], _ID["resonance.resonance_residual"]
        avg, pt = _ID["phase_time.average_phase_time"], _ID["phase_time.phase_time"]
        num = _ID["phase_time.phase_time_numeric"]
        name, parent = self.name, self.parent
        under_fr = bytearray(len(name))
        residual_in_scans = integrand = 0
        for i in range(len(name)):
            p = parent[i]
            # a parent is always recorded before its children
            if name[i] == fr or (p >= 0 and under_fr[p]):
                under_fr[i] = 1
            if name[i] == rr and p >= 0 and under_fr[p]:
                residual_in_scans += 1
            if name[i] == pt and p >= 0 and name[p] == avg:
                integrand += 1
        retries = sum(1 for i, t in self.errors.items()
                      if name[i] == num and t == "PhaseUnwrapError")
        return {
            "residual_calls_in_scans": residual_in_scans,
            "scan_roots": sum(self.roots.values()),
            "integrand_evals": integrand,
            "backoff_retries": retries,
        }


def layer_metrics(tracer: Tracer, units: dict) -> dict:
    """The per-layer metrics of one traced pass.

    ``units`` maps ``"point"`` and ``"row"`` to ``{request id: work units}``
    for the requests each ratio is based on.
    """
    summary = tracer.summary()
    derived = tracer.derived_counts()
    out = {}
    for fn in NAMES:
        out[f"{fn}.calls"] = (summary[fn]["calls"], "count")
    for fn in SELF_TIME_LAYERS:
        out[f"{fn}.self_ms"] = (summary[fn]["self_ms"], "ms")
    failures = summary["resonance.find_resonances"]["failures"]
    for t in FAILURE_TYPES:
        out[f"resonance.find_resonances.failures.{t}"] = (failures.get(t, 0), "count")
    out["resonance.find_resonances.failures.other"] = (
        sum(c for t, c in failures.items() if t not in FAILURE_TYPES), "count")
    out["resonance.find_resonances.roots"] = (derived["scan_roots"], "count")
    out["resonance.find_resonances.residual_calls_per_root"] = (
        _ratio(derived["residual_calls_in_scans"], derived["scan_roots"]), "calls/root")
    out["phase_time.average_phase_time.integrand_evals"] = (derived["integrand_evals"], "count")
    out["phase_time.phase_time_numeric.backoff_retries"] = (derived["backoff_retries"], "count")
    sd_calls = tracer.calls_by_request("transmission.scaled_denominator")
    for base in ("point", "row"):
        per = units.get(base, {})
        out[f"transmission.scaled_denominator.calls_per_{base}"] = (
            _ratio(sum(sd_calls[r] for r in per), sum(per.values())), f"calls/{base}")
    return dict(sorted(out.items()))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
