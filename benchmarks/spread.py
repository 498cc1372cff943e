"""Run the benchmark once per seed and summarise each metric's spread.

    python3 benchmarks/spread.py --label baseline

Runs ``run.py --trace 0`` for every workload of ``BENCHMARK.json`` and seeds
1-10, one run at a time, and writes ``benchmarks/results/BENCH_<label>.json``:
per workload the runs attempted and failed, and per metric the values in seed
order, their median and quartiles (``statistics.quantiles(n=4)``) and the
quartile distance as a share of the median, plus each run's machine context
and calibration.  A failed run keeps its values in the summaries.  Exits 1 if
any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900
SEEDS = range(1, 11)


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run; its result line is kept whatever the exit code."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=HERE.parent)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "exit": None, "result": None,
                "error": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    extra = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
             for line in lines if line.startswith(("context ", "calibration "))}
    return {"seed": seed, "exit": proc.returncode, "result": result,
            "error": proc.stderr[-500:] if result is None else None, **extra}


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    report = {"label": args.label, "seeds": list(SEEDS), "trace": 0,
              "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for wl in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            run = run_once(wl, seed, bench["run_seconds"])
            runs.append(run)
            result = run["result"]
            ok = ok and run["exit"] == 0 and result is not None and result["correct"]
            print(f"{wl} seed {seed}: exit {run['exit']} "
                  + (json.dumps({k: m["value"] for k, m in result["metrics"].items()})
                     if result else run["error"]), flush=True)
        results = [r["result"] for r in runs if r["result"] is not None]
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results
                      if r["metrics"].get(m["name"], {}).get("value") is not None]
            if len(values) >= 2:
                metrics[m["name"]] = {"unit": m["unit"], "bound": m["bound"],
                                      **summarise(values)}
        lost = len(runs) - len(results)  # no result line: one attempted, one failed
        report["workloads"][wl] = {
            "attempted": lost + sum(r["attempted"] for r in results),
            "failed": lost + sum(r["failed"] for r in results),
            "runs": runs,
            "metrics": metrics,
        }
        summary = report["workloads"][wl]
        print(f"  {wl}: {summary['failed']} of {summary['attempted']} failed")
        for name, m in metrics.items():
            print(f"  {wl} {name}: median {m['median']:.6g} {m['unit']}, "
                  f"iqr/median {m['iqr_over_median']:.3f} (bound {m['bound']})")

    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
