"""tunnelkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (spectrum, resonances, oracle or cli; NOTES.md says why
each exists) against the package source in ``src/`` of the checkout this
file sits in. One process and one client in a closed loop: the next
request starts when the previous one has returned.

``--trace 0`` sets up, runs requests from the seeded stream until S
seconds of request time have passed (and at least 100 latency samples
and 100 batches exist), checks every output outside the timed region,
and reports the end-to-end metrics. It sets up eight more times, spread
over the run between requests. A batch is one rotation of the workload's
request mix.

``--trace 1`` runs a fixed, seed-chosen list of requests three times:
untraced, then twice with every layer function wrapped. It reports the
per-layer metrics of the first traced pass. The fixed list makes every
count repeat exactly. It also checks that the traced outputs are
bit-identical to the untraced ones and that the two traced passes agree
on every count. For ``resonances`` it then runs a fixed probe of scans
in the regimes where the package fails at seed, the same for every seed,
and adds its failures by type to the ``find_resonances`` failure counts.

Human-readable lines come first. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The full
result, with provenance and failures by type, is also written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
from collections import Counter
from itertools import islice
from statistics import median
from time import perf_counter

from tracing import FAILURE_TYPES, Tracer, layer_metrics
from workloads import OUT, PACKAGE_DIR, ROOT, SRC, WORKLOADS, Cli

MIN_SAMPLES = 100           # latencies and batches: leaves 10 beyond p90
SETUP_REPS = 9
WALL_CAP_S = 140.0          # stop measuring early rather than overrun 180 s


def percentile(values, p: float, beyond: int = 10) -> float:
    """Nearest-rank percentile; refuses when fewer than ``beyond`` samples lie above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    if len(ordered) - rank < beyond:
        raise ValueError(
            f"p{p:g} of {len(ordered)} samples leaves {len(ordered) - rank} beyond it, "
            f"fewer than {beyond}")
    return ordered[rank - 1]


def execute_all(workload, reqs, tracer=None):
    """Yield (index, request, output or exception, seconds) per request."""
    if tracer is not None and workload.in_process:
        tracer.install()
    try:
        for i, req in enumerate(reqs):
            if tracer is not None:
                tracer.request_id = i
            t0 = perf_counter()
            try:
                out = workload.execute(req, tracer)
            except Exception as exc:  # every failure is counted by type, none stops the run
                out = exc
            yield i, req, out, perf_counter() - t0
    finally:
        if tracer is not None and workload.in_process:
            tracer.uninstall()


def digest(out) -> str:
    text = f"{type(out).__name__}: {out}" if isinstance(out, Exception) else repr(out)
    return hashlib.sha256(text.encode()).hexdigest()


class Tally:
    """Attempted and failed requests, work done, and failures by reason."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.completed = 0
        self.failures: Counter = Counter()

    def add(self, outcome) -> None:
        self.attempted += 1
        self.completed += outcome.completed
        if outcome.reason is not None:
            self.failed += 1
            self.failures[outcome.reason] += 1


def timed_run(workload, seed: int, seconds: float, started: float) -> dict:
    setup = [_timed_setup(workload, seed)]
    tally, latencies, seen = Tally(), [], set()
    batch_costs, batch_units, batch_s, in_batch = [], 0, 0.0, 0
    timed = 0.0
    repeats = 0
    # The other set-ups are spread over the run, between requests, so that
    # the median samples the host's speed over the whole run rather than in
    # one moment (see NOTES.md, "Steadiness").
    setup_every = seconds / SETUP_REPS
    for _, req, out, dt in execute_all(workload, workload.requests(seed)):
        timed += dt
        outcome = workload.check(req, out)
        tally.add(outcome)
        key = hash(req)  # not the request itself, so memory does not grow with the run
        repeats += key in seen
        seen.add(key)
        if workload.latency_sample(req):
            latencies.append(dt)
        batch_units, batch_s, in_batch = batch_units + outcome.completed, batch_s + dt, in_batch + 1
        if in_batch == workload.batch:
            batch_costs.append(batch_s / batch_units if batch_units else math.inf)
            batch_units, batch_s, in_batch = 0, 0.0, 0
        if len(setup) < SETUP_REPS and timed >= setup_every * len(setup):
            setup.append(_timed_setup(workload, seed))
        enough = (timed >= seconds and len(latencies) >= MIN_SAMPLES
                  and len(batch_costs) >= MIN_SAMPLES)
        if enough or perf_counter() - started > WALL_CAP_S:
            break
    setup += [_timed_setup(workload, seed) for _ in range(SETUP_REPS - len(setup))]
    metrics = {
        "setup_s": (median(setup), "s"),
        # Throughput in the slowest tenth of the batches. The host's speed
        # switches between two levels, and the share of time at each drifts
        # over minutes, so the mean throughput of a run depends on that share;
        # the slow tail does not (see NOTES.md).
        "work_per_s_p10": (1.0 / percentile(batch_costs, 90), "1/s"),
        "request_p90_ms": (1e3 * percentile(latencies, 90), "ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    info = {
        f"{workload.unit}_per_s": tally.completed / timed,
        # Reported, not gated: on a host whose speed switches between two
        # levels for seconds at a time, the median of short requests jumps
        # between them from run to run (see NOTES.md).
        "request_p50_ms": 1e3 * percentile(latencies, 50),
        "error_rate": tally.failed / tally.attempted,
        "timed_s": timed,
        "setup_runs_s": setup,
        "latency_samples": len(latencies),
        "batches": len(batch_costs),
        f"{workload.unit}_completed": tally.completed,
        "repeated_input_share": repeats / tally.attempted,
    }
    return _result(workload, seed, 0, True, tally, metrics, info)


def _timed_setup(workload, seed: int) -> float:
    t0 = perf_counter()
    workload.setup(seed)
    return perf_counter() - t0


def traced_run(workload, seed: int) -> dict:
    workload.setup(seed)
    reqs = list(islice(workload.requests(seed), workload.trace_requests))
    tally, untraced, untraced_s = Tally(), [], 0.0
    units = {"point": {}, "row": {}}   # request -> units returned, per kind
    for i, req, out, dt in execute_all(workload, reqs):
        untraced_s += dt
        outcome = workload.check(req, out)
        tally.add(outcome)
        if outcome.kind in units:
            units[outcome.kind][i] = outcome.evaluated
        untraced.append(digest(out))

    passes = []
    for n in range(2):
        tracer = Tracer()
        digests, elapsed = [], 0.0
        for _, _, out, dt in execute_all(workload, reqs, tracer):
            elapsed += dt
            digests.append(digest(out))
        if n == 0:
            metrics = layer_metrics(tracer, units)
            layers = tracer.summary()
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{workload.name}-seed{seed}.csv.gz")
        passes.append((digests, elapsed, tracer.signature()))
        del tracer
    metrics["trace.overhead_ratio"] = (passes[0][1] / untraced_s, "ratio")
    probe_failures, probe_repeats = run_probe(workload)
    prefix = "resonance.find_resonances.failures."
    for reason, n in probe_failures.items():
        kind = reason[len(prefix):] if reason.startswith(prefix) else ""
        key = prefix + (kind if kind in FAILURE_TYPES else "other")
        metrics[key] = (metrics[key][0] + n, "count")

    cli = workload if isinstance(workload, Cli) else Cli()
    if cli is not workload:
        cli.setup(seed)
    cli_reqs = reqs if cli is workload else list(islice(cli.requests(seed), len(Cli.SUBCOMMANDS)))
    children = [(req, cli.run_timed_child(req)) for req in cli_reqs]
    metrics.update(cli_metrics(cli, children))

    identical = untraced == passes[0][0] == passes[1][0]
    if cli is workload:
        identical = identical and untraced == [digest(result) for _, result in children]
    repeatable = passes[0][2] == passes[1][2] and probe_repeats
    info = {
        "traced_requests": len(reqs),
        "untraced_s": untraced_s,
        "traced_s": [p[1] for p in passes],
        "outputs_identical": identical,
        "counts_repeat": repeatable,
        "error_rate": tally.failed / tally.attempted,
        "probe_requests": len(workload.probe()),
        "probe_failures": dict(sorted(probe_failures.items())),
        "layers": layers,
    }
    return _result(workload, seed, 1, identical and repeatable, tally, metrics, info)


def run_probe(workload):
    """Run the workload's fixed probe twice, untraced.

    Returns its failures by reason and whether both passes gave the same
    outputs. Probe requests are not requests of the workload: they are
    there to fail at seed, so they count in the failure metrics, not in
    ``attempted`` or ``failed``.
    """
    probe = workload.probe()
    failures, digests = Counter(), []
    for n in range(2):
        outs = list(execute_all(workload, probe))
        digests.append([digest(out) for _, _, out, _ in outs])
        if n == 0:
            for _, req, out, _ in outs:
                reason = workload.check(req, out).reason
                if reason is not None:
                    failures[reason] += 1
    return failures, digests[0] == digests[1]


def cli_metrics(cli, children) -> dict:
    metrics = {
        "cli.interpreter_ms": (cli.interpreter_ms(), "ms"),
        "cli.import_ms": (median(r.timings["import_ms"] for _, r in children), "ms"),
    }
    for sub in Cli.SUBCOMMANDS:
        times = [r.timings["command_ms"] for req, r in children if req.subcommand == sub]
        metrics[f"cli.{sub}.command_ms"] = (median(times), "ms")
    return metrics


def provenance() -> dict:
    files = sorted(PACKAGE_DIR.glob("*.py"))
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": h.hexdigest(),
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout; see src_sha256)"


def _result(workload, seed, trace, correct, tally, metrics, info) -> dict:
    return {
        "workload": workload.name, "seed": seed, "trace": trace,
        "provenance": provenance(),
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "failures": dict(sorted(tally.failures.items())),
        "metrics": metrics, "info": info,
    }


def report(result: dict) -> None:
    p = result["provenance"]
    print(f"# workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print(f"# python {p['python']}  nproc {p['nproc']}  commit {p['commit']}")
    print(f"# src sha256 {p['src_sha256']}")
    print(f"# attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    for reason, n in result["failures"].items():
        print(f"#   failed: {reason} x{n}")
    for key, value in result["info"].items():
        if key == "layers":
            for fn, s in value.items():
                print(f"#   {fn}: calls {s['calls']}  self {s['self_ms']:.3f} ms"
                      + (f"  raised {s['failures']}" if s["failures"] else ""))
        else:
            print(f"# {key} {value}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value!r} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    if not (PACKAGE_DIR / "__init__.py").is_file():
        sys.stderr.write(f"no package source at {PACKAGE_DIR}: run from a tunnelkit checkout\n")
        return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    if args.trace:
        result = traced_run(workload, args.seed)
    else:
        result = timed_run(workload, args.seed, args.seconds, started)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    report(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
