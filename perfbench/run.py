"""Benchmark of unmixlab: training cells, initialization grids and the
stability analysis.

    python3 perfbench/run.py --workload samson-grid --seed 1 --seconds 50 --trace 0

Runs one workload in this process with one BLAS thread, times its op for
--seconds, checks every op's output, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 wraps unmixlab's entry points, records spans
and reports the per-layer metrics instead. A summary for people goes to
stderr. See perfbench/README.md.
"""

import os

# one BLAS thread, fixed before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# the layers of the basic architecture, the one the grid workload trains
BASIC_LAYER_KINDS = ("linear", "relu", "sum_to_one")


def _process_age_s() -> float:
    """Seconds since this process started, read from /proc (10 ms ticks)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _canaries() -> dict:
    """Fixed interpreter-bound and small-matmul loops; they move only when
    the machine does."""
    py, blas = [], []
    m = np.random.default_rng(0).random((64, 64))
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        t1 = time.perf_counter()
        y = m
        for _ in range(400):
            y = m @ y
            y /= y[0, 0]
        t2 = time.perf_counter()
        py.append(t1 - t0)
        blas.append(t2 - t1)
    return {"py": py, "blas": blas}


def _layer_metrics(summary, extras: dict) -> dict:
    s = summary
    steps = s.calls("nn.forward")
    cells = s.calls("harness.train_once")

    def per_step_us(seconds: float) -> float:
        return 1e6 * seconds / steps if steps else 0.0

    def mean_ms(name: str) -> float:
        return 1e3 * s.mean_s(name)

    m = {
        "nn.forward_us": ("us", per_step_us(s.total_s("nn.forward"))),
        "nn.backward_us": ("us", per_step_us(s.total_s("nn.backward"))),
        "nn.apply_gradients_us": ("us", per_step_us(s.total_s("nn.apply_gradients"))),
    }
    for kind in BASIC_LAYER_KINDS:
        m[f"nn.{kind}.forward_us"] = (
            "us", per_step_us(s.total_under_s(f"nn.{kind}.forward", "nn.forward")))
        m[f"nn.{kind}.backward_us"] = (
            "us", per_step_us(s.total_under_s(f"nn.{kind}.backward", "nn.backward")))
    run_cells = cells if s.calls("harness.run_experiment") else 0
    resamples = s.calls("stats.kw_permutation") * extras["resamples"]
    m.update({
        "nn.initialize_network_ms": ("ms", mean_ms("nn.initialize_network")),
        "nn.eval_forward_ms": ("ms", mean_ms("nn.eval_forward")),
        "nn.forward_calls_per_cell": ("count", steps / cells if cells else 0.0),
        "metrics.mse_loss_us": ("us", 1e6 * s.mean_s("metrics.mse_loss")),
        "metrics.unmixing_errors_ms": ("ms", mean_ms("metrics.unmixing_errors")),
        "harness.train_once.self_us_per_step": ("us", per_step_us(s.self_s("harness.train_once"))),
        "harness.trace_cost_ms_per_cell": ("ms", extras["trace_cost_ms"]),
        "harness.run_experiment.self_ms_per_cell": (
            "ms", 1e3 * s.self_s("harness.run_experiment") / run_cells if run_cells else 0.0),
        "harness.trace_to_csv_ms": ("ms", mean_ms("harness.trace_to_csv")),
        "harness.write_records_ms": ("ms", mean_ms("harness.write_records")),
        "harness.read_records_ms": ("ms", mean_ms("harness.read_records")),
        "harness.bytes_written": ("bytes", extras["bytes_per_op"]),
        "lmm.synthesize_ms": ("ms", mean_ms("lmm.synthesize")),
        "lmm.save_bundle_ms": ("ms", mean_ms("lmm.save_bundle")),
        "lmm.load_bundle_ms": ("ms", mean_ms("lmm.load_bundle")),
        "stats.group_scores_ms": ("ms", mean_ms("stats.group_scores")),
        "stats.midranks_ms": ("ms", mean_ms("stats.midranks")),
        "stats.levene_ms": ("ms", mean_ms("stats.levene")),
        "stats.kruskal_wallis_ms": ("ms", mean_ms("stats.kruskal_wallis")),
        "stats.kw_permutation_ms_per_1k": (
            "ms", 1e6 * s.total_s("stats.kw_permutation") / resamples if resamples else 0.0),
        "stats.conover_iman_ms": ("ms", mean_ms("stats.conover_iman")),
        "cli.import_ms": ("ms", extras["import_ms"]),
        "cli.analyze_ms": ("ms", mean_ms("cli.analyze")),
        "cli.report_ms": ("ms", mean_ms("cli.report")),
        "host.py_loop_ms": ("ms", extras["py_loop_ms"]),
        "host.blas_loop_ms": ("ms", extras["blas_loop_ms"]),
    })
    return m


def run(args) -> int:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        t0 = time.perf_counter()
        ul = importlib.import_module("unmixlab")
        importlib.import_module("unmixlab.cli")
        import_ms = 1e3 * (time.perf_counter() - t0)
    except ImportError as exc:
        print(f"cannot import unmixlab from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(ul.__file__).resolve().parent != src / "unmixlab":
        print(f"unmixlab was imported from {ul.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, ul)

    work_dir = OUT / args.workload
    workloads.clear(work_dir)
    work_dir.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](ul, args.seed, work_dir)
    wl.setup()
    if tracer:
        tracer.recording = False
    wl.op(0)  # warm-up, untimed and untraced
    setup_s = _process_age_s()
    if tracer:
        tracer.recording = True

    canary = _canaries()
    durations, outputs, failed = [], [], 0
    phase_start = time.perf_counter()
    index = 0
    while True:
        index += 1
        t_op = time.perf_counter()
        try:
            outputs.append(wl.op(index))
        except Exception:  # noqa: BLE001 - a failing op is counted, not fatal
            failed += 1
            traceback.print_exc()
        t_end = time.perf_counter()
        durations.append(t_end - t_op)
        if t_end - phase_start >= args.seconds:
            break
    phase_s = t_end - phase_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.recording = False
    after = _canaries()
    canary = {k: canary[k] + after[k] for k in canary}

    correct = True
    try:
        wl.check(outputs)
    except checks.CheckFailed as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)

    op_s = statistics.median(durations)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(durations), "op_s": op_s, "phase_s": phase_s,
        "py_loop_ms": 1e3 * statistics.median(canary["py"]),
        "blas_loop_ms": 1e3 * statistics.median(canary["blas"]),
    }
    if tracer:
        span_summary = spans.SpanSummary(tracer)
        per_cell = span_summary.children_per_parent("nn.forward", "harness.train_once")
        want = wl.steps_per_op // max(wl.cells_per_op, 1)
        short = int((per_cell < want).sum())
        if (per_cell > want).any() or short != wl.diverged_cells(outputs):
            correct = False
            print(f"traced train-mode forward calls per cell {sorted(set(per_cell.tolist()))} "
                  f"!= {want} steps", file=sys.stderr)
        extras = {
            "import_ms": import_ms,
            "trace_cost_ms": wl.trace_cost_ms(),
            "bytes_per_op": wl.bytes_per_op(outputs),
            "resamples": getattr(wl, "RESAMPLES", 0),
            "py_loop_ms": summary["py_loop_ms"],
            "blas_loop_ms": summary["blas_loop_ms"],
        }
        metrics = _layer_metrics(span_summary, extras)
        tracer.save(OUT / f"{args.workload}-spans.npz")
    else:
        metrics = {
            "setup_s": ("s", setup_s),
            "op_s": ("s", op_s),
            "ops_per_s": ("1/s", len(durations) / phase_s),
            "peak_rss_mb": ("MB", peak_rss_mb),
        }
    workloads.clear(work_dir)
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(durations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
