"""Run one workload in this process and stream events to the supervisor.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Events are JSON lines
on standard output; anything the package prints goes to standard error.
The order of phases is: set-up (repeated), the untraced jobs, the traced
jobs (``--trace 1``), then the output checks.  Outputs are kept in memory
during timing and checked afterwards, once per distinct output.

The host's speed moves by up to 1.9 times, in phases of seconds to
minutes, and whatever runs on it slows together.  So a fixed probe of the
benchmark's own code runs between operations, at most PROBE_EVERY_S apart,
and after every set-up repetition.  Each operation carries a scale: the
reference probe time over the mean of the probes just before and after
it.  A time multiplied by its scale is in seconds at the reference host
speed.  The probe never calls the package, so a change to the package
moves the scaled times in full.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import inputs
import oracles
import tracing

OUT_DIR = Path(".bench_out")  # run records, spans and scratch files, inside the checkout
SETUP_REPS = 9
ADDRESS_SPACE_LIMIT = 3 << 30  # a blow-up raises MemoryError instead of starving the host
CLI_BATCH_LINES = 20_000

# Probe times at the reference host speed (a quiet phase of a 2-vCPU Xeon
# guest).  In-process work is probed in-process; one-shot CLI processes by a
# fresh interpreter that imports and computes alike.
PROBE_REF_S = {"in_process": 0.0065, "fresh_interpreter": 0.095}
# about a tenth of the time goes to probes
PROBE_EVERY_S = {"in_process": 0.1, "fresh_interpreter": 1.0}
FRESH_PROBE = (
    "import argparse, json\n"
    "from fractions import Fraction\n"
    "s = Fraction(0)\n"
    "for i in range(1, 4000):\n"
    "    s += Fraction(i % 7 + 1, i + 3)\n"
)


@dataclass
class Op:
    kind: str  # also the stem of the op's metric names
    call: Callable[[], object]
    check: Callable[[object], str | None]
    describe: str  # the input, for failure reports
    budget_s: float
    is_call: bool = True  # counts toward call_p50_ms / call_tail_ms
    lines: int = 0  # signatures in a batch call
    key: Callable[[object], str] = repr


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[int]  # indices of the ops run once during set-up
    replay: list[Op] = field(default_factory=list)  # traced stand-ins, same order


class Events:
    def __init__(self, stream):
        self.stream = stream

    def emit(self, **event):
        self.stream.write(json.dumps(event) + "\n")
        self.stream.flush()


def fresh_import_s(module: str) -> float:
    """Seconds spent importing one module inside a new interpreter."""
    code = (
        "import time; t = time.perf_counter(); import " + module
        + "; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout)


# -- certify -------------------------------------------------------------------


def certify(seed: int) -> Workload:
    import kstrata.quartic as kq
    from kstrata.polynomials import Polynomial

    rng = random.Random(f"certify:{seed}")
    data = inputs.constructions()
    ops = [
        Op("quartic.verify_sporadic", lambda n=name: kq.verify_sporadic(n),
           lambda r, n=name: oracles.check_sporadic(r, n, data[n]), name, 10.0)
        for name in sorted(data)
    ]
    for name, f in inputs.smooth_quartics(rng):
        F = Polynomial(inputs.XYZ, f)
        ops.append(Op("quartic.smoothness_certificate.smooth",
                      lambda F=F: kq.smoothness_certificate(F), oracles.check_smooth,
                      f"{name}: {inputs.to_text(f, inputs.XYZ)}", 10.0))
    for point, f in inputs.nodal_quartics(rng):
        F = Polynomial(inputs.XYZ, f)
        ops.append(Op("quartic.smoothness_certificate.nodal",
                      lambda F=F: kq.smoothness_certificate(F),
                      lambda r, f=f: oracles.check_nodal(r, f),
                      f"node at {point}: {inputs.to_text(f, inputs.XYZ)}", 10.0))
    return Workload(ops, warmup=[0, 2, 10])


# -- growth --------------------------------------------------------------------


def ladder_ops(seed: int) -> list[Op]:
    import kstrata.degeneration as kd
    import kstrata.polynomials as kp
    import kstrata.series as ks

    rng = random.Random(f"growth:{seed}")
    ops = []
    for d in inputs.RESULTANT_DEGREES:
        p, q = inputs.dense_bivariate(rng, d), inputs.dense_bivariate(rng, d)
        P, Q = kp.Polynomial(inputs.XY, p), kp.Polynomial(inputs.XY, q)
        ops.append(Op(inputs.rung("polynomials.resultant", d), lambda P=P, Q=Q: kp.resultant(P, Q, "y"),
                      lambda r, p=p, q=q: oracles.check_resultant(r, p, q),
                      f"dense degree {d}: p = {inputs.to_text(p, inputs.XY)}; q = {inputs.to_text(q, inputs.XY)}",
                      30.0))
    affine = inputs.parse(inputs.constructions()["OddArf_h0_0"]["affine"], inputs.XY)
    F = kp.Polynomial(inputs.XY, affine)
    for n in inputs.SERIES_PRECISIONS:
        ops.append(Op(inputs.rung("series.branch_series", n), lambda n=n: ks.branch_series(F, n),
                      lambda phi, n=n: oracles.check_series(phi, affine, n),
                      f"OddArf_h0_0 affine quartic, N = {n}", 30.0))
    for rung, n in enumerate(inputs.CYLINDER_SIZES):
        planted = (rung + seed) % 2 == 0
        k, orders = inputs.cylinder_orders(rng, n, planted)
        ops.append(Op(inputs.rung("degeneration.cylinders", n),
                      lambda k=k, o=orders: (kd.genus0_has_cylinder(k, o), kd.genus0_has_simple_cylinder(k, o)),
                      lambda r, k=k, o=orders, a=planted: oracles.check_cylinders(r, k, o, a),
                      f"k = {k}, orders = {orders}", 30.0))
    for exponent in inputs.ROOT_EXPONENTS:
        coeffs, roots = inputs.root_polynomial(rng, 10**exponent)
        R = kp.Polynomial(("x",), coeffs)
        ops.append(Op(inputs.rung("polynomials.rational_roots", exponent),
                      lambda R=R: kp.rational_roots(R, "x"),
                      lambda r, roots=roots: oracles.check_roots(r, roots),
                      inputs.to_text(coeffs, ("x",)), 30.0))
    return ops


def growth(seed: int) -> Workload:
    ops = ladder_ops(seed)
    return Workload(ops, warmup=[0, 4, 8, 13])


# -- cli -----------------------------------------------------------------------


def _cli_output(key_outputs):
    code, out, err = key_outputs
    return hashlib.sha256(b"%d\0" % code + out + b"\0" + err).hexdigest()


def cli(seed: int) -> Workload:
    import kstrata.cli as kc

    rng = random.Random(f"cli:{seed}")
    OUT_DIR.mkdir(exist_ok=True)
    signatures = inputs.batch_signatures(rng, CLI_BATCH_LINES)
    batch = OUT_DIR / f"orders-{os.getpid()}.txt"
    batch.write_text("".join(inputs.signature_line(*s) + "\n" for s in signatures), encoding="utf-8")
    table = inputs.second_opinion_table()
    counts = None

    def batch_check(checker):
        def check(output):
            nonlocal counts
            if counts is None:
                counts = [oracles.classify_count(k, g, o, table) for k, g, o in signatures]
            return checker(output, signatures, counts)
        return check

    commands = [
        (["classify", "--orders-file", str(batch), "--json"], "batch_json",
         batch_check(oracles.check_batch_json), False),
        (["classify", "--orders-file", str(batch)], "batch_human",
         batch_check(oracles.check_batch_human), False),
    ]
    for name, argv in sorted(inputs.golden_cases().items()):
        golden = (inputs.GOLDEN_DIR / f"{name}.json").read_bytes()
        commands.append((argv, f"golden.{name}", lambda o, g=golden: oracles.check_golden(o, g), True))
    commands.append((inputs.invalid_argv(rng), "invalid", oracles.check_usage_error, True))

    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))

    def process(argv):
        done = subprocess.run([sys.executable, "-m", "kstrata.cli", *argv], capture_output=True, env=env)
        return done.returncode, done.stdout, done.stderr

    def in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = kc.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")

    def ops_for(run):
        return [
            Op(f"cli.{kind}", lambda a=argv: run(a), check, " ".join(argv),
               60.0 if not is_call else 20.0, is_call=is_call,
               lines=0 if is_call else len(signatures), key=_cli_output)
            for argv, kind, check, is_call in commands
        ]

    return Workload(ops_for(process), warmup=[2],
                    replay=ops_for(in_process))


WORKLOADS = {"certify": certify, "growth": growth, "cli": cli}
# what set-up imports, timed in a fresh interpreter
IMPORTS = {"certify": "kstrata.quartic", "growth": "kstrata", "cli": "kstrata.cli"}


# -- host-speed probe ---------------------------------------------------------------


def in_process_probe() -> float:
    """Seconds for a fixed product of dense bivariate polynomials, collector off."""
    rng = random.Random("probe")
    a, b = inputs.dense_bivariate(rng, 7), inputs.dense_bivariate(rng, 7)
    enabled = gc.isenabled()
    gc.disable()  # a collection would charge the package's heap to the probe
    try:
        t0 = perf_counter()
        inputs.pmul(a, b)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def fresh_interpreter_probe() -> float:
    t0 = perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms (run.py kills a hang)
    subprocess.run([sys.executable, "-c", FRESH_PROBE], check=True)
    return perf_counter() - t0


PROBES = {"in_process": in_process_probe, "fresh_interpreter": fresh_interpreter_probe}


# -- runner ----------------------------------------------------------------------


class Runner:
    def __init__(self, events: Events, probe_kind: str):
        self.events = events
        self.outputs: dict[tuple[int, str], tuple[Op, object, list]] = {}
        self.recorder: tracing.SpanRecorder | None = None
        self.probe = PROBES[probe_kind]
        self.probe_ref_s = PROBE_REF_S[probe_kind]
        self.probe_every_s = PROBE_EVERY_S[probe_kind]
        self.probe()  # the first one pays for cold caches
        self.last_probe_s = self.probe()
        self.last_probe_at = perf_counter()
        self.unscaled: list[tuple[str, int, int, float]] = []  # ops since the last probe
        self.job_s: dict[tuple[str, int], list[float]] = {}  # (phase, job): [raw, scaled] op time

    def rescale(self) -> float:
        """Probe again, and give the ops run since the previous probe their scale."""
        before, self.last_probe_s = self.last_probe_s, self.probe()
        self.last_probe_at = perf_counter()
        scale = self.probe_ref_s / ((before + self.last_probe_s) / 2)
        if self.unscaled:
            for phase, job, _, dt in self.unscaled:
                sums = self.job_s.setdefault((phase, job), [0.0, 0.0])
                sums[0] += dt
                sums[1] += dt * scale
            self.events.emit(ev="scale", ops=[op[:3] for op in self.unscaled], scale=scale)
            self.unscaled = []
        return scale

    def run_op(self, phase: str, job: int, index: int, op: Op) -> None:
        self.events.emit(ev="start", phase=phase, job=job, i=index, kind=op.kind, budget_s=op.budget_s)
        error = None
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed op is a measurement, not a crash
            error = f"{type(exc).__name__}: {exc}"[:300]
        dt = perf_counter() - t0
        if error is None:
            slot = self.outputs.setdefault((id(op), op.key(result)), (op, result, []))
            slot[2].append([phase, job, index])
        self.events.emit(ev="op", phase=phase, job=job, i=index, kind=op.kind, dt=dt,
                         is_call=op.is_call, lines=op.lines, error=error, input=op.describe)
        self.unscaled.append((phase, job, index, dt))
        if perf_counter() - self.last_probe_at >= self.probe_every_s:
            self.rescale()

    def run_jobs(self, phase: str, ops: list[Op], seconds: float) -> dict[int, float]:
        """Whole jobs, started until `seconds` have passed; returns each job's scale.

        A job's scale is its scaled op time over its raw op time.
        """
        start = perf_counter()
        job = 0
        while perf_counter() - start < seconds:
            if self.recorder is not None:
                self.recorder.job = job
            t0 = perf_counter()
            for index, op in enumerate(ops):
                self.run_op(phase, job, index, op)
            self.events.emit(ev="job", phase=phase, job=job, dt=perf_counter() - t0)
            job += 1
        self.rescale()
        return {j: scaled / raw for (p, j), (raw, scaled) in self.job_s.items() if p == phase}

    def check_outputs(self) -> None:
        for op, result, instances in self.outputs.values():
            try:
                reason = op.check(result)
            except Exception as exc:  # a checker that chokes on the output rejects it
                reason = f"checker raised {type(exc).__name__}: {exc}"[:300]
            if reason is not None:
                for phase, job, index in instances:
                    self.events.emit(ev="failed", phase=phase, job=job, i=index,
                                     kind=op.kind, reason=reason, input=op.describe)
            self.events.emit(ev="checked", n=len(instances))


def trace_metrics(recorder: tracing.SpanRecorder, scales: dict[int, float]) -> dict:
    """Per-job medians of self time (scaled) and calls, per function and per module."""
    per_job = recorder.per_job()
    jobs = sorted(scales)
    for j in jobs:
        for cell in per_job.get(j, {}).values():
            cell[1] *= scales[j]
    names = sorted({name for cells in per_job.values() for name in cells})

    def median_over_jobs(value):
        return statistics.median(value(per_job.get(j, {})) for j in jobs) if jobs else 0.0

    functions = {
        name: {
            "calls": median_over_jobs(lambda cells: cells.get(name, (0, 0.0))[0]),
            "self_s": median_over_jobs(lambda cells: cells.get(name, (0, 0.0))[1]),
            "calls_repeat": len({per_job.get(j, {}).get(name, (0,))[0] for j in jobs}) == 1,
        }
        for name in names
    }
    modules = {
        mod: median_over_jobs(
            lambda cells: sum(v[1] for n, v in cells.items() if n.split(".")[0] == mod)
        )
        for mod in tracing.MODULES
    }
    attempts = [o for o in recorder.outcomes if o[1] == "quartic.smoothness_certificate"]
    definite = sum(o[2] in ("smooth", "singular") for o in attempts)
    return {
        "functions": functions,
        "modules": modules,
        "self_sums_s": [sum(v[1] for v in per_job.get(j, {}).values()) for j in jobs],
        "certify_attempts": len(attempts),
        "certified": definite,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    events = Events(sys.stdout)
    sys.stdout = sys.stderr
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))

    import kstrata

    source = Path("src/kstrata").resolve()
    if Path(kstrata.__file__).resolve().parent != source:
        raise SystemExit(f"kstrata imported from {kstrata.__file__}, not {source}")

    # untraced cli jobs run one-shot processes; every other job runs in this process
    runner = Runner(events, "fresh_interpreter" if args.workload == "cli" and not args.trace else "in_process")
    build = WORKLOADS[args.workload]
    setup, raw = [], []
    for rep in range(SETUP_REPS):
        import_s = fresh_import_s(IMPORTS[args.workload])
        t0 = perf_counter()
        workload = build(args.seed)
        for index in workload.warmup:
            runner.run_op("warmup", rep, index, workload.ops[index])
        raw.append(import_s + perf_counter() - t0)
        setup.append(raw[-1] * runner.rescale())
    events.emit(ev="setup", samples=setup, raw=raw)

    plain_s = args.seconds / 2 if args.trace else args.seconds
    # the traced run's baseline replays the same calls the traced jobs make
    job_ops = (workload.replay or workload.ops) if args.trace else workload.ops
    runner.run_jobs("plain", job_ops, plain_s)
    if not args.trace:
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        )
        events.emit(ev="rss", peak_rss_mb=usage.ru_maxrss / 1024)
    else:
        recorder = runner.recorder = tracing.SpanRecorder()
        with tracing.Patch(recorder):
            scales = runner.run_jobs("traced", job_ops, args.seconds - plain_s)
        runner.recorder = None
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write(OUT_DIR / f"spans-{args.workload}.json")
        events.emit(ev="trace", **trace_metrics(recorder, scales))
        del recorder
        if args.workload != "growth":
            runner.rescale()  # a probe just before the ladder
            for index, op in enumerate(ladder_ops(args.seed)):
                runner.run_op("ladder", 0, index, op)
            runner.rescale()
        events.emit(ev="cli_import", samples=[fresh_import_s("kstrata.cli") for _ in range(SETUP_REPS)])

    runner.check_outputs()
    for leftover in OUT_DIR.glob(f"*-{os.getpid()}.txt"):
        leftover.unlink()
    events.emit(ev="done")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
