"""Tests of the benchmark itself.

    python3 -m pytest benchmarks/test_benchmarks.py -q

The checkers must reject corrupted outputs, the references must agree with
the package on two seeds, and a short run of every workload must emit every
metric named in BENCHMARK.json with its unit.
"""

from __future__ import annotations

import dataclasses
import io
import json
import random
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

import kstrata.cli as kc  # noqa: E402
import kstrata.polynomials as kp  # noqa: E402
import kstrata.quartic as kq  # noqa: E402
import kstrata.series as ks  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def cli_call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = kc.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def table():
    return inputs.second_opinion_table()


# -- each checker flags a corrupted output ------------------------------------------


def test_batch_checkers_flag_a_flipped_count(tmp_path):
    signatures = inputs.batch_signatures(random.Random(5), 300)
    batch = tmp_path / "orders.txt"
    batch.write_text("".join(inputs.signature_line(*s) + "\n" for s in signatures))
    counts = [oracles.classify_count(k, g, o, table()) for k, g, o in signatures]
    as_json = cli_call(["classify", "--orders-file", str(batch), "--json"])
    human = cli_call(["classify", "--orders-file", str(batch)])
    assert oracles.check_batch_json(as_json, signatures, counts) is None
    assert oracles.check_batch_human(human, signatures, counts) is None

    line = next(i for i, c in enumerate(counts) if c == 1)
    flipped = counts[:line] + [2] + counts[line + 1:]
    assert "count" in oracles.check_batch_json(as_json, signatures, flipped)
    assert "components" in oracles.check_batch_human(human, signatures, flipped)
    payload = json.loads(as_json[1])
    payload["reports"][line]["count"] = 2
    corrupted = (0, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(), b"")
    assert oracles.check_batch_json(corrupted, signatures, counts) is not None
    assert oracles.check_batch_json((0, as_json[1].replace(b"  ", b" ", 1), b""), signatures, counts) is not None


def test_series_checker_flags_a_dropped_coefficient():
    affine = inputs.parse(inputs.constructions()["OddArf_h0_0"]["affine"], inputs.XY)
    phi = ks.branch_series(kp.Polynomial(inputs.XY, affine), 30)
    assert oracles.check_series(phi, affine, 30) is None
    n = max(i for i, c in enumerate(phi.coefficients) if c)
    dropped = ks.PowerSeries(phi.coefficients[:n] + (0,) + phi.coefficients[n + 1:])
    assert oracles.check_series(dropped, affine, 30) is not None
    assert oracles.check_series(phi.truncate(29), affine, 30) is not None


def test_golden_checker_flags_one_changed_byte():
    for name, argv in inputs.golden_cases().items():
        golden = (inputs.GOLDEN_DIR / f"{name}.json").read_bytes()
        code, out, err = cli_call(argv)
        assert oracles.check_golden((code, out, err), golden) is None
        changed = out[:10] + bytes([out[10] ^ 1]) + out[11:]
        assert "byte 10" in oracles.check_golden((code, changed, err), golden)
        assert oracles.check_golden((code, out, b"warning"), golden) is not None


def test_usage_error_checker():
    argv = inputs.invalid_argv(random.Random(3))
    assert oracles.check_usage_error(cli_call(argv)) is None
    assert oracles.check_usage_error(cli_call(inputs.golden_cases()["arf"])) is not None


def test_nodal_checker_flags_a_wrong_point():
    point, f = inputs.nodal_quartics(random.Random(7), 1)[0]
    certificate = kq.smoothness_certificate(kp.Polynomial(inputs.XYZ, f))
    assert oracles.check_nodal(certificate, f) is None
    x, y, z = certificate.point
    for wrong in ((x, y + 1, z), (x, y, z + Fraction(1, 2)), (0, 0, 0)):
        assert oracles.check_nodal(dataclasses.replace(certificate, point=wrong), f) is not None
    assert oracles.check_nodal(dataclasses.replace(certificate, status="not_certified"), f) is not None


def test_node_at_the_documented_point():
    # the node at (-2:3:1) is returned as (1, -3/2, -1/2)
    u, v, w = inputs.linear_form((1, 0, 2)), inputs.linear_form((0, 1, -3)), inputs.linear_form((0, 0, 1))
    f = inputs.padd(inputs.pmul(inputs.pmul(u, v), inputs.pmul(w, w)),
                    inputs.padd(inputs.ppow(u, 4, 3), inputs.pmul(inputs.ppow(v, 3, 3), w)))
    certificate = kq.smoothness_certificate(kp.Polynomial(inputs.XYZ, f))
    assert oracles.check_nodal(certificate, f) is None
    assert certificate.point == (1, Fraction(-3, 2), Fraction(-1, 2))


def test_other_checkers_flag_corruption():
    data = inputs.constructions()
    for name in data:
        report = kq.verify_sporadic(name)
        assert oracles.check_sporadic(report, name, data[name]) is None
        first = report.checks[0]
        bad = dataclasses.replace(report, checks=(dataclasses.replace(first, actual="singular"),) + report.checks[1:])
        assert oracles.check_sporadic(bad, name, data[name]) is not None
        assert oracles.check_sporadic(dataclasses.replace(report, checks=report.checks[:-1]), name, data[name])
    rng = random.Random(11)
    p, q = inputs.dense_bivariate(rng, 3), inputs.dense_bivariate(rng, 3)
    r = kp.resultant(kp.Polynomial(inputs.XY, p), kp.Polynomial(inputs.XY, q), "y")
    assert oracles.check_resultant(r, p, q) is None
    assert oracles.check_resultant(-r, p, q) is not None
    k, orders = inputs.cylinder_orders(rng, 12, True)
    assert oracles.check_cylinders((True, True), k, orders, True) is None
    assert oracles.check_cylinders((True, False), k, orders, True) is not None
    _, roots = inputs.root_polynomial(rng, 10**4)
    assert oracles.check_roots(roots, roots) is None
    assert oracles.check_roots(roots[:1], roots) is not None
    assert oracles.check_smooth(dataclasses.replace(kq.smoothness_certificate(
        kp.Polynomial.from_string("x^4 + y^4 + z^4", inputs.XYZ)), status="not_certified")) is not None


def test_subset_sum_bitset_matches_brute_force():
    rng = random.Random(2)
    for _ in range(200):
        values = [rng.randint(-9, 9) or 1 for _ in range(rng.randint(1, 7))]
        target = rng.randint(-15, 15)
        brute = any(
            sum(v for bit, v in enumerate(values) if mask >> bit & 1) == target
            for mask in range(1 << len(values))
        )
        assert oracles.has_subset_sum(values, target) == brute


def test_inputs_keep_their_cost_alike_across_seeds():
    for seed in (1, 2):
        rng = random.Random(seed)
        for name, f in inputs.smooth_quartics(rng):
            assert len(f) == 15 and inputs.SMOOTH_BITS[0] <= inputs.coefficient_bits(f) <= inputs.SMOOTH_BITS[1]
        assert all(p[0] and p[1] for p, _ in inputs.nodal_quartics(rng))
        for n in inputs.CYLINDER_SIZES:
            _, orders = inputs.cylinder_orders(rng, n, seed == 1)
            target = inputs.CYLINDER_STATES[n]
            assert abs(inputs.prefix_states(orders) - target) <= inputs.CYLINDER_STATES_BAND * target
        for exponent in inputs.ROOT_EXPONENTS:
            coeffs, _ = inputs.root_polynomial(rng, 10**exponent)
            assert abs(coeffs[(0,)]) == 10**exponent


def test_prefix_states_counts_sub_multisets_by_brute_force():
    rng = random.Random(3)
    for _ in range(50):
        values = sorted(rng.randint(-9, 9) or 1 for _ in range(rng.randint(1, 6)))
        want = sum(
            len({(sum(v for bit, v in enumerate(values[:end]) if mask >> bit & 1), bin(mask).count("1"))
                 for mask in range(1 << end)})
            for end in range(len(values))
        )
        assert inputs.prefix_states(values) == want


# -- the references agree with the package on two seeds -------------------------------


@pytest.mark.parametrize("seed", [1, 2])
def test_oracles_agree_with_the_program(seed):
    ops = worker.certify(seed).ops + worker.growth(seed).ops + worker.cli(seed).replay
    answers = set()
    for op in ops:
        result = op.call()
        assert op.check(result) is None, (op.kind, op.describe[:200])
        if op.kind.startswith("degeneration.cylinders"):
            answers.add(result)
    assert answers == {(True, True), (False, False)}
    for leftover in worker.OUT_DIR.glob("orders-*.txt"):
        leftover.unlink()


# -- the harness ---------------------------------------------------------------------------


def test_patch_wraps_every_lookup_and_restores_it():
    originals = (kq.resultant, kp.resultant, kp.exact_divide, kp.Polynomial.__mul__, kp.Polynomial.zero)
    recorder = tracing.SpanRecorder()
    with tracing.Patch(recorder):
        assert kq.resultant is kp.resultant is not originals[0]
        recorder.job = 0
        kq.smoothness_certificate(kp.Polynomial.from_string("x^3*y + y^3*z + z^3*x", inputs.XYZ))
    assert (kq.resultant, kp.resultant, kp.exact_divide, kp.Polynomial.__mul__, kp.Polynomial.zero) == originals
    cells = recorder.per_job()[0]
    assert cells["polynomials.exact_divide"][0] > 0  # found as a global by _bareiss_determinant
    assert cells["quartic.smoothness_certificate"][0] == 1
    roots = [i for i, parent in enumerate(recorder.parents) if parent < 0]
    total = sum(recorder.ends[i] - recorder.starts[i] for i in roots) / 1e9
    assert sum(c[1] for c in cells.values()) == pytest.approx(total)
    assert recorder.outcomes == [(0, "quartic.smoothness_certificate", "smooth")]


HANGING_WORKER = """
import json, subprocess, sys, time
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(120)"])
print(json.dumps({"ev": "child", "pid": child.pid}))
print(json.dumps({"ev": "start", "phase": "plain", "job": 0, "i": 0, "kind": "k", "budget_s": 0.5}), flush=True)
time.sleep(120)
"""


def test_an_op_over_its_budget_is_killed_with_its_children():
    started = time.monotonic()
    supervisor = run.Supervisor([sys.executable, "-c", HANGING_WORKER])
    code = supervisor.run(1.0)
    assert time.monotonic() - started < 30
    assert code != 0 and supervisor.hung["kind"] == "k"
    pid = next(e["pid"] for e in supervisor.events if e["ev"] == "child")
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        status = Path(f"/proc/{pid}/status")
        if not status.exists() or "\nState:\tZ" in status.read_text():
            break
        time.sleep(0.1)
    else:
        pytest.fail("the worker's child outlived the kill")


def test_a_hung_or_unchecked_op_counts_as_failed():
    start = {"ev": "start", "phase": "plain", "job": 0, "i": 0, "kind": "k", "budget_s": 1.0}
    op = {**start, "ev": "op", "dt": 0.5, "is_call": True, "lines": 0, "error": None, "input": "x"}
    slow = {**op, "i": 1, "dt": 2.0}
    events = [{"ev": "setup", "samples": [0.1], "raw": [0.05]}, start, op, {**start, "i": 1}, slow,
              {"ev": "scale", "ops": [["plain", 0, 0], ["plain", 0, 1]], "scale": 2.0},
              {"ev": "job", "phase": "plain", "job": 0, "dt": 2.6}, {"ev": "rss", "peak_rss_mb": 1.0},
              {"ev": "checked", "n": 2}, {"ev": "done"}]
    result, failures, _ = run.summarize("certify", events, None, 0, False)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    # budgets hold for raw times; metrics are scaled to the reference host speed
    assert result["metrics"]["job_p50_s"]["value"] == 5.0
    assert result["metrics"]["call_p50_ms"]["value"] == 2500.0
    hung = {**start, "i": 2, "reason": "no progress"}
    result, _, _ = run.summarize("certify", events[:7] + [{**start, "i": 2}], hung, -9, False)
    assert result["failed"] == 3 and not result["correct"]


def test_trace_checks_flag_differing_counts_and_uncovered_time():
    good = {"trace.self_coverage_ratio": 0.99}
    assert run.trace_failures(good, {"calls_differ": []}) == []
    reasons = [f["reason"] for f in run.trace_failures({"trace.self_coverage_ratio": 0.5},
                                                        {"calls_differ": ["polynomials.resultant"]})]
    assert len(reasons) == 2 and "polynomials.resultant" in reasons[0] and "0.5" in reasons[1]
    assert run.trace_failures({}, {}) != []  # no trace at all


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", list(worker.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0 and done.stdout == ""
