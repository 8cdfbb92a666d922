"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/steadiness.py --workloads samson-grid stats-50x50 --runs 10

For each workload, runs `run.py` once per seed (one process at a time, in
round-robin order across workloads so that a slow spell of the machine is
shared among them), then prints for every end-to-end metric its median,
quartiles and spread (inter-quartile distance over the median, with
statistics.quantiles(n=4)), beside the host canaries. Raw results are
appended to perfbench/out/steadiness.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["host"] = json.loads(proc.stderr.strip().splitlines()[-1])
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    log = HERE / "out" / "steadiness.jsonl"
    log.parent.mkdir(exist_ok=True)
    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for k in range(args.runs):
        seed = args.first_seed + k
        for w in args.workloads:
            res = run_once(w, seed, args.seconds, 0)
            results[w].append(res)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": w, "seed": seed, **res}) + "\n")
            print(f"{w} seed {seed}: op_s {res['metrics']['op_s']['value']:.4f} "
                  f"correct {res['correct']} ops {res['attempted']}", file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':12s} {'metric':12s} {'q1':>10s} {'median':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}")
    for w, runs in results.items():
        for metric in bounds:
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3, sp = spread(vals)
            print(f"{w:12s} {metric:12s} {q1:10.4f} {med:10.4f} {q3:10.4f} "
                  f"{sp:7.3f} {bounds[metric]:6.2f}")
        for canary in ("py_loop_ms", "blas_loop_ms"):
            q1, med, q3, sp = spread([r["host"][canary] for r in runs])
            print(f"{w:12s} {canary:12s} {q1:10.4f} {med:10.4f} {q3:10.4f} {sp:7.3f}")
        fails = sum(r["failed"] for r in runs)
        tried = sum(r["attempted"] for r in runs)
        print(f"{w:12s} correct {all(r['correct'] for r in runs)} failed {fails}/{tried}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
