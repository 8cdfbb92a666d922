"""Command-line front end: synthetic datasets, training, grids, analysis.

Subcommands: gen, convert, train, experiment, analyze, plan, report.
Exit codes: 0 success, 3 when the content of a file the user named is bad,
2 for any other usage or configuration error, 1 anything else.
Failures print one machine-readable line to stderr: `error {json}`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness, lmm, nn, stats
from .metrics import format_mean_std, summarize_errors
from .seeding import mix64

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_DATA = 3

DEFAULT_THRESHOLDS = {
    "mse": (0.01, 0.015, 0.05),
    "sad": (0.05, 0.075, 0.1),
}


class DataError(ValueError):
    """Bad content in a file the user named: exit 3, where a ValueError is 2."""


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(
        "error " + json.dumps({"kind": kind, "message": message}) + "\n"
    )
    return code


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ValueError(f"override {text!r} is not key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _load_config(args) -> harness.ExperimentConfig:
    mapping: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ValueError(f"config file {path} does not exist")
        try:
            mapping = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}")
    for item in getattr(args, "set", None) or []:
        key, value = _parse_override(item)
        mapping[key] = value
    if getattr(args, "seed", None) is not None:
        mapping["master_seed"] = args.seed
    try:
        return harness.ExperimentConfig.from_mapping(mapping)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad configuration: {exc}")


def _load_bundle(args) -> lmm.HsiBundle:
    path = getattr(args, "data", None)
    if not path:
        raise ValueError("--data is required")
    try:
        return lmm.load_bundle(path)
    except ValueError as exc:
        # FormatError, DimensionError, or values the bundle types reject
        raise DataError(f"cannot load bundle {path}: {exc}")


def _cmd_gen(args) -> int:
    # mix64 splits the one user seed into independent streams for the
    # endmember curves, the abundances, and the noise
    w = lmm.generate_endmembers(
        args.bands, args.endmembers, smoothness=args.smoothness, seed=args.seed
    )
    if args.width is not None and args.height is not None:
        pixels = args.width * args.height
    else:
        pixels = args.pixels
    a = lmm.sample_abundances(
        args.endmembers,
        pixels,
        concentration=np.full(args.endmembers, args.concentration),
        pure_fraction=args.pure_fraction,
        seed=mix64(args.seed, 1),
    )
    bundle = lmm.synthesize(
        w, a, lmm.NoiseSpec(args.noise_sigma),
        seed=mix64(args.seed, 2),
        name=args.name, width=args.width, height=args.height,
    )
    lmm.save_bundle(bundle, args.out)
    print(f"wrote bundle {args.out} ({bundle.bands} bands, "
          f"{bundle.pixel_count} pixels, {args.endmembers} endmembers)")
    return EXIT_OK


def _cmd_convert(args) -> int:
    if not Path(args.csv).exists():
        raise DataError(f"CSV file {args.csv} does not exist")
    try:
        bundle = lmm.bundle_from_csv(
            args.csv, name=args.name, width=args.width, height=args.height
        )
    except ValueError as exc:
        raise DataError(str(exc))
    lmm.save_bundle(bundle, args.out)
    print(f"wrote bundle {args.out} ({bundle.bands} bands, {bundle.pixel_count} pixels)")
    return EXIT_OK


def _check_bundle(config, bundle) -> None:
    """Reject a loaded bundle that the config cannot train on."""
    if bundle.ground_truth is None and config.latent_dim is None:
        raise DataError(
            "bundle has no ground truth; set the 'endmembers' config key to train"
        )
    if config.scale and np.ptp(bundle.pixels) < lmm.MIN_SCALE_SPAN:
        raise DataError("bundle pixels are constant; scale=true cannot min-max scale them")


def _cmd_train(args) -> int:
    config = _load_config(args)
    bundle = _load_bundle(args)
    _check_bundle(config, bundle)
    init_seed, run_seed = harness.grid_seeds(config.master_seed, 1, 1)
    if args.init_seed is not None:
        init_seed = args.init_seed
    if args.run_seed is not None:
        run_seed = args.run_seed
    net, record, trace = harness.train_once(config, bundle, init_seed, run_seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out / "trace.csv")
    nn.save_checkpoint(net, out / "network.ckpt")
    record = replace(record, trace_file="trace.csv")
    harness.write_records(out / "record.jsonl", [record], config)
    status = "diverged" if record.diverged else f"recon_rmse={record.recon_rmse:.6g}"
    print(f"trained 1 model: {status}; artifacts in {out}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = _load_config(args)
    bundle = _load_bundle(args)
    _check_bundle(config, bundle)
    records = harness.run_experiment(config, bundle, out_dir=args.out, jobs=args.jobs)
    diverged = sum(r.diverged for r in records)
    print(f"grid complete: {len(records)} runs ({diverged} diverged); "
          f"records in {Path(args.out) / 'records.jsonl'}")
    return EXIT_OK


def _read_records(args):
    """The record columns (see harness.read_record_columns) and metadata of
    --records. A file this version did not write, or whose record count
    differs from its metadata's (a cut or appended file), is a data error."""
    path = Path(args.records)
    if not path.exists():
        raise DataError(f"record file {path} does not exist")
    try:
        columns, meta = harness.read_record_columns(path)
    except OSError as exc:
        raise DataError(f"cannot read record file {path}: {exc}")
    except ValueError as exc:
        raise DataError(f"cannot parse record file {path}: {exc}")
    if meta["record_format"] != harness.RECORD_FORMAT:
        raise DataError(
            f"record file {path} has record_format {meta['record_format']!r}; "
            f"this version reads {harness.RECORD_FORMAT}"
        )
    count = len(columns["diverged"])
    if meta.get("count") != count:
        raise DataError(
            f"record file {path} holds {count} records but its "
            f"metadata line says count {meta.get('count')!r}"
        )
    return columns, meta


def _score_column(columns, field: str, source: str) -> np.ndarray:
    """stats.metric_column of the diverged flags and the field column. A
    score that is not a number is a data error naming source."""
    try:
        return stats.metric_column(columns["diverged"], columns[field])
    except (TypeError, ValueError) as exc:
        raise DataError(f"{source}: a {field} score is not a number: {exc}")


def _metric_column(columns, metric: str, source: str) -> np.ndarray:
    """stats.metric_values of the records in columns, read from their
    diverged and metric columns. No records, records in which no run
    scores the metric, and a score that is not a number are data errors."""
    if metric not in stats.METRIC_NAMES:
        raise ValueError(f"unknown metric {metric!r}; expected {stats.METRIC_NAMES}")
    diverged, scores = columns["diverged"], columns[metric]
    if not diverged:
        raise DataError(f"{source} holds no records")
    if not all(diverged) and all(s is None for s, dv in zip(scores, diverged) if not dv):
        # not a divergence: the runs never computed the metric, as a
        # bundle without ground truth computes no endmember_sad
        raise DataError(
            f"no record scores {metric}: every run that did not diverge "
            f"leaves it empty; choose another --metric"
        )
    return _score_column(columns, metric, source)


def _cmd_analyze(args) -> int:
    columns, _meta = _read_records(args)
    values = _metric_column(columns, args.metric, f"record file {args.records}")
    try:
        grouped = stats.group_by_init(columns["init_id"], values)
        report = stats.analyze_grouped(grouped, alpha=args.alpha, metric=args.metric)
    except ValueError as exc:
        raise DataError(str(exc))
    files = stats.write_stat_report(report, args.out)
    verdict = "rejected" if report.rejected else "not rejected"
    if report.levene_stat is None:
        print(stats.LEVENE_NOT_RUN)
    else:
        print(f"levene W={report.levene_stat:.6g} p={report.levene_p:.6g}")
    print(f"kruskal-wallis H={report.kw_h:.6g} p={report.kw_p:.6g} "
          f"log_p={report.kw_log_p:.6g} ({verdict} at alpha={report.alpha})")
    if report.ph_ratio is not None:
        print(f"conover-iman significant-pair ratio: {report.ph_ratio:.4f}")
    else:
        print("conover-iman not run: H0 was not rejected")
    print(f"wrote {', '.join(str(f) for f in files)}")
    return EXIT_OK


def _cmd_plan(args) -> int:
    if args.p_hat is not None:
        p_hat = args.p_hat
        threshold = args.threshold if args.threshold is not None else float("nan")
    else:
        if args.records is None or args.threshold is None:
            raise ValueError("plan needs either --p-hat or --records with --threshold")
        columns, _ = _read_records(args)
        values = _metric_column(columns, args.metric, f"record file {args.records}")
        # estimate_success_prob's arithmetic, on the checked metric column
        p_hat = float(np.mean(values < args.threshold))
        threshold = args.threshold
    try:
        n_req = stats.required_trials(p_hat, args.confidence)
    except stats.UnreachableThresholdError as exc:
        raise DataError(str(exc))
    print(f"p_hat={p_hat:.6g} threshold={threshold:.6g} "
          f"confidence={args.confidence:.6g}")
    print(f"n_req={n_req}")
    return EXIT_OK


def _freedman_diaconis_bins(values: np.ndarray) -> int:
    """The Freedman-Diaconis bin count of the finite values, at most one
    bin per value: an interquartile range far below the span (tightly
    tied scores beside an outlier) would ask for billions."""
    v = values[np.isfinite(values)]
    if v.size < 2:
        return 1
    iqr = float(np.percentile(v, 75) - np.percentile(v, 25))
    span = float(v.max() - v.min())
    if iqr <= 0 or span <= 0:
        return 1
    width = 2.0 * iqr / v.size ** (1.0 / 3.0)
    return int(min(v.size, max(1.0, np.ceil(span / width))))


def emit_report(records, metric: str, out_dir, alpha: float = 0.05,
                thresholds=None, confidence: float = 0.95,
                bins: int | None = None) -> list[Path]:
    """Write histogram.csv, trials.csv, summary.txt, and the stat report
    of records, which are read in one pass (see _emit_report)."""
    return _emit_report(harness.record_columns(records), "records", metric, out_dir,
                        alpha, thresholds, confidence, bins)


def _emit_report(columns, source: str, metric: str, out_dir, alpha: float,
                 thresholds, confidence: float, bins: int | None) -> list[Path]:
    """emit_report of the records in columns (see
    harness.read_record_columns); data errors name source.

    Each column the report reads is read once: the diverged flags, the
    metric, init_id, abundance_rmse and endmember_sad. The CSV files are
    written as one text each, with csv.writer's bytes: "\r\n" line ends,
    and no field here needs quotes.
    """
    values = _metric_column(columns, metric, source)
    # the metric's own column serves again when it is one of the two
    ab_arr, em_arr = [
        values if field == metric else _score_column(columns, field, source)
        for field in ("abundance_rmse", "endmember_sad")
    ]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise DataError("all runs diverged; nothing to report")

    n_bins = bins if bins is not None else _freedman_diaconis_bins(finite)
    counts, edges = np.histogram(finite, bins=n_bins)
    edges = edges.tolist()
    hist_path = out / "histogram.csv"
    hist_path.write_text("bin_left,bin_right,count\r\n" + "".join([
        f"{edges[i]!r},{edges[i + 1]!r},{c}\r\n" for i, c in enumerate(counts.tolist())
    ]), encoding="utf-8", newline="")
    written.append(hist_path)

    rows = ["threshold,p_hat,n_req,reachable\r\n"]
    for t in thresholds or ():
        # estimate_success_prob's arithmetic, on the histogram's metric pass
        p_hat = float(np.mean(values < t))
        if p_hat > 0:
            n_req = stats.required_trials(p_hat, confidence)
            rows.append(f"{float(t)!r},{p_hat!r},{n_req},True\r\n")
        else:
            rows.append(f"{float(t)!r},{p_hat!r},,False\r\n")
    trials_path = out / "trials.csv"
    trials_path.write_text("".join(rows), encoding="utf-8", newline="")
    written.append(trials_path)

    lines = [
        f"records: {len(values)}",
        f"diverged: {int(np.sum(~np.isfinite(values)))}",
        f"metric: {metric}",
        f"{metric}_mean_std: {format_mean_std(float(finite.mean()), float(finite.std(ddof=1)) if finite.size > 1 else 0.0)}",
    ]
    try:
        summary = summarize_errors(ab_arr, em_arr)
        lines.append(
            "abundance_rmse: "
            + format_mean_std(summary.abundance_mean, summary.abundance_std)
        )
        lines.append(
            "endmember_sad: "
            + format_mean_std(summary.endmember_mean, summary.endmember_std)
        )
    except ValueError:
        lines.append("abundance_rmse: unavailable (no scored ground truth)")
    summary_path = out / "summary.txt"
    summary_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(summary_path)

    try:
        grouped = stats.group_by_init(columns["init_id"], values)
        report = stats.analyze_grouped(grouped, alpha=alpha, metric=metric)
    except ValueError:
        return written
    written.extend(stats.write_stat_report(report, out))
    return written


def _cmd_report(args) -> int:
    columns, meta = _read_records(args)
    thresholds = args.thresholds
    if thresholds is None:
        loss = (meta.get("config") or {}).get("loss", "mse")
        thresholds = DEFAULT_THRESHOLDS.get(loss, DEFAULT_THRESHOLDS["mse"])
    files = _emit_report(
        columns, f"record file {args.records}", args.metric, args.out, args.alpha,
        thresholds, args.confidence, args.bins,
    )
    print(f"wrote {', '.join(str(f) for f in files)}")
    return EXIT_OK


def _probability(text: str) -> float:
    """An argparse type: a number strictly between 0 and 1 (NaN is not)."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), not {text!r}")
    return value


def _at_least_one(text: str) -> int:
    """An argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parse_args keeps every parsed value in the namespace it returns, never
    in the parser, so one call's arguments do not reach the next."""
    parser = argparse.ArgumentParser(
        prog="unmixlab",
        description="Unmixing autoencoders with a training-stability bench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic bundle")
    p.add_argument("--out", required=True)
    p.add_argument("--bands", type=int, default=50)
    p.add_argument("--endmembers", type=int, default=3)
    p.add_argument("--pixels", type=int, default=2000)
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--pure-fraction", type=float, default=0.1)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--smoothness", type=int, default=7)
    p.add_argument("--concentration", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="synthetic")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("convert", help="ingest a CSV (one pixel per row)")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--name")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("train", help="run one training cell")
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="override master_seed")
    p.add_argument("--init-seed", type=int)
    p.add_argument("--run-seed", type=int)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("experiment", help="run the N x k grid")
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="override master_seed")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("analyze", help="test initialization dependence")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metric", default="recon_rmse", choices=stats.METRIC_NAMES)
    p.add_argument("--alpha", type=_probability, default=0.05)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("plan", help="size the retry count for a threshold")
    p.add_argument("--records")
    p.add_argument("--p-hat", type=float)
    p.add_argument("--threshold", type=float)
    p.add_argument("--metric", default="recon_rmse", choices=stats.METRIC_NAMES)
    p.add_argument("--confidence", type=_probability, default=0.95)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("report", help="emit histogram, trials, and summary files")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metric", default="recon_rmse", choices=stats.METRIC_NAMES)
    p.add_argument("--alpha", type=_probability, default=0.05)
    p.add_argument("--confidence", type=_probability, default=0.95)
    p.add_argument("--thresholds", type=float, nargs="+")
    p.add_argument("--bins", type=_at_least_one)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except DataError as exc:
        return _fail(EXIT_DATA, "data", str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        return _fail(EXIT_ERROR, "internal", f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
