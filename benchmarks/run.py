"""Layered benchmark of kstrata: one closed-loop caller per workload.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads (a job is one pass over the workload's fixed list of operations):

* ``certify``: ``verify_sporadic`` on both embedded constructions, then
  ``smoothness_certificate`` on eight seeded unimodular transforms of smooth
  quartics and on four quartics with a node at a seeded rational point.
* ``growth``: one ladder of growing inputs per super-polynomial path
  (dense resultants, branch series, the cylinder pair, rational roots).
* ``cli``: ``python -m kstrata.cli`` subprocesses: a 20k-line classify
  batch in JSON and human mode, the ten golden commands and one invalid
  call that must exit 2.

The workload runs in a child process (``worker.py``) under a per-operation
wall budget, so a hang or a blow-up counts as a failed operation and this
script still finishes.  Every output is checked after timing against
references independent of the package (``oracles.py``).

Every time is scaled to a reference host speed by a probe of the
benchmark's own code that runs between operations (``worker.py``); the run
record keeps the raw times too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half traced, and prints the per-layer metrics: self
times and call counts from spans recorded around the package's public
functions (``tracing.py``), the growth ladders with fitted exponents, and
the tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a fuller run record is
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import tracing
from worker import OUT_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent
REQUIRED = (
    "src/kstrata/__init__.py",
    "src/kstrata/data/sporadic_quartics.json",
    "tests/test_cli.py",
    "tests/test_acceptance.py",
    "tests/golden",
)
# Wall budgets of the phases outside the timed jobs.  The whole run may take
# --seconds plus both, so a 30-second run ends within 135 s.
SETUP_BUDGET_S = 45.0
CHECK_BUDGET_S = 60.0
# Share of the traced job time that the spans' self times must cover.
MIN_SELF_COVERAGE = 0.9

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "batch_lines_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Percentile reported as call_tail_ms: the highest that keeps at least ten
# samples beyond it in a 30-second run, even when the host runs slow.
TAIL_PERCENTILE = {"certify": 97, "growth": 94, "cli": 80}

# each ladder's fitted growth, next to its rungs in inputs.LADDERS
FITS = {
    "polynomials.resultant": "degree_exponent",
    "series.branch_series": "precision_exponent",
    "degeneration.cylinders": "doubling_ratio",
    "polynomials.rational_roots": "constant_exponent",
}

FUNCTION_METRICS = (
    "signature.validate.calls", "signature.validate.self_s", "signature.parse_signature.self_s",
    "classifier.primitive_nonhyperelliptic_components.calls",
    "classifier.primitive_nonhyperelliptic_components.self_s",
    "classifier.report_to_dict.self_s", "classifier.full_component_breakdown.self_s",
    "genus_one.components.self_s",
    "degeneration.genus0_has_cylinder.self_s", "degeneration.genus0_has_simple_cylinder.self_s",
    "polynomials.resultant.calls", "polynomials.resultant.self_s",
    "polynomials.exact_divide.calls", "polynomials.exact_divide.self_s",
    "polynomials.Polynomial.__mul__.calls", "polynomials.gcd_many.self_s",
    "polynomials.rational_roots.self_s",
    "series.branch_series.calls", "series.branch_series.self_s",
    "series.polynomial_on_branch.calls", "series.vanishing_order.self_s",
    "quartic.smoothness_certificate.calls", "quartic.smoothness_certificate.self_s",
    "quartic.verify_sporadic.self_s", "cli.main.self_s",
)


def _per_layer_units() -> dict[str, str]:
    units = {f"{m}.self_s": "s" for m in tracing.MODULES}
    for name in FUNCTION_METRICS:
        units[name] = "count" if name.endswith(".calls") else "s"
    units["quartic.certified_ratio"] = "ratio"
    units["cli.import_s"] = "s"
    for stem, (_, sizes) in inputs.LADDERS.items():
        for size in sizes:
            units[f"{inputs.rung(stem, size)}_s"] = "s"
        units[f"{stem}.{FITS[stem]}"] = "ratio" if FITS[stem] == "doubling_ratio" else "exponent"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.self_coverage_ratio"] = "ratio"
    units["failed_ratio"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


# -- statistics ------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (inclusive definition)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def fit_slope(xs, ys) -> float:
    """Least-squares slope of ys against xs."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def ladder_metrics(ops) -> tuple[dict, dict]:
    """Median time per rung, and each ladder's fitted growth."""
    times: dict[str, list[float]] = {}
    for op in ops:
        times.setdefault(op["kind"], []).append(op["dt"])
    metrics, samples = {}, {}
    for stem, (prefix, rungs) in inputs.LADDERS.items():
        fit = FITS[stem]
        sizes, medians = [], []
        for size in rungs:
            kind = inputs.rung(stem, size)
            if kind not in times:
                continue
            metrics[f"{kind}_s"] = statistics.median(times[kind])
            samples[f"{kind}_s"] = len(times[kind])
            sizes.append(size)
            medians.append(metrics[f"{kind}_s"])
        if len(sizes) < 2:
            continue
        logs = [math.log(t) for t in medians]
        if fit == "doubling_ratio":  # time ratio per added order
            metrics[f"{stem}.{fit}"] = math.exp(fit_slope(sizes, logs))
        elif prefix == "c1e":  # exponent of time in the constant term
            metrics[f"{stem}.{fit}"] = fit_slope([s * math.log(10) for s in sizes], logs)
        else:
            metrics[f"{stem}.{fit}"] = fit_slope([math.log(s) for s in sizes], logs)
    return metrics, samples


# -- supervising the worker --------------------------------------------------------


class Supervisor:
    """Reads the worker's events, enforcing each phase's wall budget."""

    def __init__(self, argv):
        self.events: list[dict] = []
        self.hung: dict | None = None
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            env=dict(os.environ, PYTHONPATH=str(Path("src").resolve())),
            # its own process group, so a kill also ends the CLI processes it started
            start_new_session=True,
        )

    def run(self, seconds: float) -> int | None:
        started = time.monotonic()
        hard_limit = started + seconds + SETUP_BUDGET_S + CHECK_BUDGET_S
        deadline = started + SETUP_BUDGET_S
        current = None
        buffer = b""
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            while True:
                limit = min(deadline, hard_limit)
                if not selector.select(timeout=max(0.0, limit - time.monotonic())):
                    self.hung = current or {"kind": "worker", "phase": "unknown", "input": ""}
                    self.hung["reason"] = f"no progress within {limit - started:.1f} s of start"
                    os.killpg(self.proc.pid, signal.SIGKILL)
                    break
                chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                buffer += chunk
                *lines, buffer = buffer.split(b"\n")
                for line in lines:
                    event = json.loads(line)
                    self.events.append(event)
                    kind = event["ev"]
                    now = time.monotonic()
                    if kind == "start":
                        current = event
                        deadline = now + event["budget_s"]
                    elif kind == "op":
                        current = None
                        deadline = now + SETUP_BUDGET_S
                    elif kind == "setup":
                        deadline = now + seconds + SETUP_BUDGET_S
                    elif kind in ("rss", "trace", "cli_import"):
                        deadline = now + CHECK_BUDGET_S
        finally:
            selector.close()
            self.proc.stdout.close()
            code = self.proc.wait()
            try:  # whatever the worker left behind
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return code


def summarize(workload: str, events: list[dict], hung: dict | None, code: int, trace: bool):
    ops = [e for e in events if e["ev"] == "op"]
    starts = [e for e in events if e["ev"] == "start"]
    failures = []
    for op in ops:
        if op["error"] is not None:
            failures.append({**op, "reason": op["error"]})
    budgets = {(s["phase"], s["job"], s["i"]): s["budget_s"] for s in starts}
    for op in ops:
        budget = budgets[(op["phase"], op["job"], op["i"])]
        if op["error"] is None and op["dt"] > budget:
            failures.append({**op, "reason": f"took {op['dt']:.3f} s, budget {budget} s"})
    failures += [e for e in events if e["ev"] == "failed"]
    # Times in seconds at the reference host speed (see worker.py); an op
    # that was cut off before its probe has no scale and is left out.
    scales = {tuple(key): e["scale"] for e in events if e["ev"] == "scale" for key in e["ops"]}
    timed = [{**op, "dt": op["dt"] * scales[op["phase"], op["job"], op["i"]]}
             for op in ops if (op["phase"], op["job"], op["i"]) in scales]
    plain = [op for op in timed if op["phase"] == "plain"]
    jobs = job_times(events, timed, "plain")
    metrics, samples = {}, {}
    if trace:
        metrics, samples = trace_metrics(workload, events, timed, jobs)
        failures += trace_failures(metrics, samples)
    checked = sum(e["n"] for e in events if e["ev"] == "checked")
    done = any(e["ev"] == "done" for e in events)
    unchecked = sum(op["error"] is None for op in ops) - checked
    if hung is not None:
        failures.append(hung)
    attempted = len(starts)
    failed = len({(f.get("phase"), f.get("job"), f.get("i")) for f in failures})
    if not done:
        failed = min(attempted, failed + max(unchecked, 0)) or 1
    correct = done and code == 0 and failed == 0

    setup = next((e["samples"] for e in events if e["ev"] == "setup"), [])
    if not trace:
        calls = [op["dt"] * 1000 for op in plain if op["is_call"]]
        tail = TAIL_PERCENTILE[workload]
        if setup:
            metrics["setup_s"] = statistics.median(setup)
        if jobs:
            metrics["job_p50_s"] = statistics.median(jobs)
            metrics["batch_lines_per_s"] = statistics.median(throughput(workload, plain))
        if calls:
            metrics["call_p50_ms"] = statistics.median(calls)
            metrics["call_tail_ms"] = percentile(calls, tail)
        rss = next((e["peak_rss_mb"] for e in events if e["ev"] == "rss"), None)
        if rss is not None:
            metrics["peak_rss_mb"] = rss
        samples = {
            "setup_s": len(setup), "job_p50_s": len(jobs), "call_p50_ms": len(calls),
            "call_tail_ms": len(calls), "call_tail_percentile": tail,
            "call_tail_beyond": sum(c > metrics.get("call_tail_ms", math.inf) for c in calls),
            "batch_lines_per_s": len(jobs),
            "job_walls_s": jobs,
            "raw_job_walls_s": [e["dt"] for e in events if e["ev"] == "job" and e["phase"] == "plain"],
            "scales": [e["scale"] for e in events if e["ev"] == "scale"],
            "raw_setup_s": next((e["raw"] for e in events if e["ev"] == "setup"), []),
        }
    metrics["failed_ratio"] = failed / attempted if attempted else 1.0
    wanted = PER_LAYER if trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {
            name: {"value": metrics.get(name), "unit": unit} for name, unit in wanted.items()
        },
    }
    return result, failures, samples


def throughput(workload: str, plain: list[dict]) -> list[float]:
    """Per job: batch lines per second of batch wall time (cli), else operations per second."""
    per_job: dict[int, list[dict]] = {}
    for op in plain:
        per_job.setdefault(op["job"], []).append(op)
    out = []
    for job_ops in per_job.values():
        if workload == "cli":
            batches = [op for op in job_ops if op["lines"]]
            if batches:
                out.append(sum(op["lines"] for op in batches) / sum(op["dt"] for op in batches))
        else:
            out.append(len(job_ops) / sum(op["dt"] for op in job_ops))
    return out


def job_times(events: list[dict], timed: list[dict], phase: str) -> list[float]:
    """Per finished job: the sum of its scaled op times (probes excluded)."""
    finished = {e["job"] for e in events if e["ev"] == "job" and e["phase"] == phase}
    sums: dict[int, float] = {}
    for op in timed:
        if op["phase"] == phase and op["job"] in finished:
            sums[op["job"]] = sums.get(op["job"], 0.0) + op["dt"]
    return [sums[j] for j in sorted(sums)]


def trace_metrics(workload, events, timed, jobs):
    trace = next((e for e in events if e["ev"] == "trace"), None)
    metrics, samples = {}, {}
    if trace is not None:
        for mod, value in trace["modules"].items():
            metrics[f"{mod}.self_s"] = value
        functions = trace["functions"]
        for name in FUNCTION_METRICS:
            func, _, field = name.rpartition(".")
            metrics[name] = functions.get(func, {}).get(field, 0)
        attempts = trace["certify_attempts"]
        metrics["quartic.certified_ratio"] = trace["certified"] / attempts if attempts else 0.0
        samples["calls_differ"] = sorted(n for n, f in functions.items() if not f["calls_repeat"])
        samples["self_sums_s"] = trace["self_sums_s"]
    traced_jobs = job_times(events, timed, "traced")
    samples["traced_jobs"] = len(traced_jobs)
    if traced_jobs and jobs:
        metrics["trace.overhead_ratio"] = statistics.median(traced_jobs) / statistics.median(jobs)
        if trace is not None:
            # traced job time, as the untraced median times the overhead
            traced_p50 = statistics.median(jobs) * metrics["trace.overhead_ratio"]
            metrics["trace.self_coverage_ratio"] = statistics.median(trace["self_sums_s"]) / traced_p50
    imports = next((e["samples"] for e in events if e["ev"] == "cli_import"), None)
    if imports:
        metrics["cli.import_s"] = statistics.median(imports)
    rungs = [op for op in timed if op["phase"] == ("plain" if workload == "growth" else "ladder")]
    ladder, rung_samples = ladder_metrics([op for op in rungs if op["error"] is None])
    metrics.update(ladder)
    samples.update(rung_samples)
    return metrics, samples


def trace_failures(metrics: dict, samples: dict) -> list[dict]:
    """The traced run's own checks: counts repeat in every job, spans cover the jobs."""
    out = []
    if samples.get("calls_differ"):
        out.append({"kind": "trace", "phase": "traced", "i": "calls", "input": "",
                    "reason": f"call counts differ between traced jobs: {samples['calls_differ'][:10]}"})
    coverage = metrics.get("trace.self_coverage_ratio")
    if coverage is None or coverage < MIN_SELF_COVERAGE:
        out.append({"kind": "trace", "phase": "traced", "i": "coverage", "input": "",
                    "reason": f"self times cover {coverage} of the traced job time, "
                              f"want at least {MIN_SELF_COVERAGE}"})
    return out


# -- run record ----------------------------------------------------------------------


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = Path(".git") / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_record(args, load_at_start, result, failures, samples, wall_s) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "interpreter": sys.executable,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit(),
        "flags": {"optimize": sys.flags.optimize, "dev_mode": sys.flags.dev_mode},
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "wall_s": wall_s,
        "samples": samples,
        "failures": failures[:50],
        "result": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not Path(p).exists()]
    if missing:
        print(f"error: run from the root of a kstrata checkout; missing {missing}", file=sys.stderr)
        return 2

    load_at_start = os.getloadavg()
    started = time.monotonic()
    supervisor = Supervisor([
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ])
    code = supervisor.run(args.seconds)
    result, failures, samples = summarize(
        args.workload, supervisor.events, supervisor.hung, code, bool(args.trace)
    )
    record = run_record(args, load_at_start, result, failures, samples, time.monotonic() - started)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"record-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8"
    )
    for failure in failures[:5]:
        print(f"failed {failure.get('kind')}: {failure.get('reason')} [input: {failure.get('input', '')[:200]}]",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
