"""Steadiness report: repeat the benchmark and set each metric's spread against its bound.

    python3 benchmarks/steady.py --workloads certify,growth,cli
    python3 benchmarks/steady.py --workloads cli --seeds 4,4,4,4,4
    python3 benchmarks/steady.py --compare .bench_out/steadiness-trace0.json
    python3 benchmarks/steady.py --workloads certify --seeds 1,2 --trace 1

Untraced (``--trace 0``): one run of run_seconds (BENCHMARK.json) per seed in
``--seeds`` (default 1..10).  A repeated seed measures the spread of the
host alone; distinct seeds add the spread of the inputs.  For each
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median and
the metric's bound.  A spread above its bound fails the report, except for
``setup_s``, whose spread is shown but not gated; a spread under a third of
the bound is marked steady.  ``--compare`` takes an earlier report and fails
a median worse than the earlier one by more than the bound, ``setup_s``
included: that is the check that two sets of runs of the same code agree.

Traced (``--trace 1``): each seed runs twice, and every ``.calls`` count
must repeat exactly between the two runs.

Runs are sequential, so they do not disturb each other.  The report is
also written to ``.bench_out/steadiness-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def spread_table(workload: str, results: list[dict], spec: dict, earlier: dict | None) -> list[dict]:
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        row = {
            "workload": workload, "metric": name, "unit": metric["unit"], "median": median,
            "q1": q1, "q3": q3, "spread": spread, "bound": metric["bound"],
            "within_bound": name == "setup_s" or spread <= metric["bound"],
            "steady": spread < metric["bound"] / 3,
        }
        if earlier is not None:
            before = next(e for e in earlier["rows"] if e["workload"] == workload and e["metric"] == name)
            change = (median - before["median"]) / before["median"]
            worse = change if metric["better"] == "lower" else -change
            row["vs_earlier"] = change
            row["earlier_ok"] = worse <= metric["bound"]
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="certify,growth,cli")
    parser.add_argument("--seeds", default=",".join(map(str, range(1, 11))),
                        help="comma-separated; repeat a seed to measure the host alone")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=Path, help="an earlier report to compare medians with")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    earlier = json.loads(args.compare.read_text(encoding="utf-8")) if args.compare else None
    seeds = [int(s) for s in args.seeds.split(",")]
    report = {"seconds": seconds, "seeds": seeds, "trace": args.trace, "rows": [], "runs": {}}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result = run_once(workload, seed, seconds, args.trace)
            ok &= result["correct"]
            results.append(result)
            if args.trace:
                again = run_once(workload, seed, seconds, 1)
                counts = {n: m["value"] for n, m in result["metrics"].items() if n.endswith(".calls")}
                repeat = {n: m["value"] for n, m in again["metrics"].items() if n.endswith(".calls")}
                if counts != repeat:
                    ok = False
                    print(f"{workload} seed {seed}: call counts differ: "
                          f"{ {n: (counts[n], repeat[n]) for n in counts if counts[n] != repeat[n]} }")
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
        report["runs"][workload] = results
        if args.trace:
            continue
        for row in spread_table(workload, results, spec, earlier):
            report["rows"].append(row)
            ok &= row["within_bound"] and row.get("earlier_ok", True)
            verdict = ("steady" if row["steady"] else "within bound" if row["within_bound"]
                       else "OVER BOUND")
            extra = ""
            if "vs_earlier" in row:
                extra = f"  vs earlier {row['vs_earlier']:+.3f}{'' if row['earlier_ok'] else ' WORSE'}"
            print(f"{workload:8} {row['metric']:18} median {row['median']:12.5g} {row['unit']:4} "
                  f"q1 {row['q1']:12.5g} q3 {row['q3']:12.5g} spread {row['spread']:.3f} "
                  f"bound {row['bound']}  {verdict}{extra}", flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"steadiness-trace{args.trace}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
