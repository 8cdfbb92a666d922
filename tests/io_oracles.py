"""Reference implementations of the file readers and writers in unmixlab.

Each is the plain form the library replaced for speed: the record reader
decodes every line with json.loads, and the CSV writers emit one
csv.writer row at a time. The tests require the library to read the same
records and raise the same errors, and to write the same bytes.
"""

import csv
import json

import numpy as np

from unmixlab.cli import _freedman_diaconis_bins
from unmixlab.harness import RunRecord
from unmixlab.stats import required_trials


def read_records(path):
    """(records, metadata) of a record file, each non-blank line decoded by
    json.loads."""
    with open(path, "r", encoding="utf-8") as fh:
        numbered = (
            (number, line)
            for number, line in enumerate(fh, 1)
            if line.strip()
        )
        first = next(numbered, None)
        if first is None:
            raise ValueError(f"{path} is empty")
        number, line = first
        try:
            meta = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from exc
        if not isinstance(meta, dict) or "record_format" not in meta:
            raise ValueError(f"{path} does not start with a metadata line")
        records = []
        for number, line in numbered:
            try:
                records.append(RunRecord._from_mapping(json.loads(line)))
            except KeyError as exc:
                raise ValueError(f"{path}, line {number}: missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}, line {number}: {exc}") from exc
    return records, meta


def write_trace_csv(trace, path):
    """GradientTrace.to_csv, one writerow per (iteration, layer) pair."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "layer", "mean", "std"])
        for it, means, stds in zip(trace.iterations, trace.means, trace.stds):
            for layer, m, s in zip(trace.layers, means, stds):
                writer.writerow([it, layer, repr(m), repr(s)])


def write_report_csvs(values, out_dir, thresholds, confidence, bins=None):
    """histogram.csv and trials.csv of cli.emit_report for the metric
    scores values (metric_values of the records), one writerow per row."""
    finite = values[np.isfinite(values)]
    n_bins = bins if bins is not None else _freedman_diaconis_bins(finite)
    counts, edges = np.histogram(finite, bins=n_bins)
    with open(out_dir / "histogram.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count"])
        for i, c in enumerate(counts):
            writer.writerow([repr(float(edges[i])), repr(float(edges[i + 1])), int(c)])
    with open(out_dir / "trials.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "p_hat", "n_req", "reachable"])
        for t in thresholds:
            p_hat = float(np.mean(values < t))
            if p_hat > 0:
                writer.writerow(
                    [repr(float(t)), repr(p_hat), required_trials(p_hat, confidence), True]
                )
            else:
                writer.writerow([repr(float(t)), repr(p_hat), "", False])
