"""The record reader and the CSV writers against the plain forms they
replaced, kept in io_oracles: the reader must return the records and raise
the errors of a json.loads per line, and each writer must write the bytes
of a csv.writer row per row."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from unmixlab.cli import emit_report
from unmixlab.harness import (
    RECORD_FIELDS,
    GradientTrace,
    RunRecord,
    read_record_columns,
    read_records,
)
from unmixlab.stats import metric_values

import io_oracles as oracles

META = '{"count":3,"record_format":1}'
REQUIRED = ('"experiment_id":"e","init_id":1,"run_id":2,"init_seed":3,'
            '"run_seed":4,"init_checksum":"c"')
SCORED = RunRecord("e", 1, 1, 11, 12, "ab", 0.5, 0.25, 0.125, 0.1, 0.2, (2, 0, 1),
                   False, trace_file="t.csv").to_json()
DIVERGED = RunRecord("e", 1, 2, 11, 13, "ab", None, None, None, None, None, None,
                     True).to_json()
BARE = "{" + REQUIRED + "}"
CONSTANTS = ("{" + REQUIRED + ',"recon_rmse":NaN,"final_loss":Infinity,'
             '"abundance_rmse":-Infinity,"endmember_sad":1e999}')

# case -> the lines of a record file, its metadata line first
FILES = {
    "plain": [META, SCORED, DIVERGED, BARE],
    "surrounding-whitespace": [" " + META + "\t", " " + SCORED, DIVERGED + "\t ",
                               "\t " + BARE + " "],
    "blank-lines": ["", "  ", META, "", "\t", SCORED, "\x0c", DIVERGED, " ", BARE, ""],
    "nan-and-infinity": [META, CONSTANTS, "NaN"],
    "extra-data": [META, SCORED, BARE + " x", DIVERGED],
    "two-objects": [META, SCORED + "{}"],
    "cut-line": [META, SCORED, BARE[:-7]],
    "non-object": [META, SCORED, "[1,2]"],
    "null-line": [META, "null"],
    "missing-key": [META, SCORED, '{"init_id":1}'],
    "bad-int": [META, BARE.replace('"run_id":2', '"run_id":"x"')],
    "bom": [META, "\ufeff" + SCORED],
    "metadata-extra-data": [META + " x", SCORED],
    "metadata-cut": ['{"record_format":1,', SCORED],
    "metadata-not-an-object": ['["record_format"]', SCORED],
    "blank-only": ["", "  "],
}


def _outcome(read, path):
    """What a reader gives for path: its error's text and type, or each
    record's fields with their types, and the metadata."""
    try:
        records, meta = read(path)
    except ValueError as exc:
        return "raises", str(exc), type(exc).__name__
    fields = [[(k, type(v).__name__, repr(v)) for k, v in vars(r).items()] for r in records]
    return fields, repr(meta)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("case", list(FILES))
def test_reader_is_json_loads_per_line(tmp_path, case, newline):
    path = tmp_path / "records.jsonl"
    path.write_bytes(newline.join(FILES[case]).encode("utf-8"))
    got, want = _outcome(read_records, path), _outcome(oracles.read_records, path)
    assert got == want


def _columns_as_records(path):
    """read_record_columns(path) as a reader of (records, metadata): record
    k holds entry k of every column, the columns in field order."""
    columns, meta = read_record_columns(path)
    assert tuple(columns) == RECORD_FIELDS
    assert len({len(column) for column in columns.values()}) == 1
    return [SimpleNamespace(**dict(zip(columns, row))) for row in zip(*columns.values())], meta


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("case", list(FILES))
def test_column_reader_is_json_loads_per_line(tmp_path, case, newline):
    """The column decoder's columns are the oracle's records field by field,
    and its errors are the oracle's in type and message."""
    path = tmp_path / "records.jsonl"
    path.write_bytes(newline.join(FILES[case]).encode("utf-8"))
    got = _outcome(_columns_as_records, path)
    assert got == _outcome(oracles.read_records, path)
    if case == "plain":
        assert len(got[0]) == 3


def test_reader_cases_cover_records_and_errors(tmp_path):
    """The cases above hold files that read and files that fail, the
    NaN and Infinity tokens among the ones that read."""
    outcomes = {}
    for case, lines in FILES.items():
        path = tmp_path / f"{case}.jsonl"
        path.write_text("\n".join(lines), encoding="utf-8")
        outcomes[case] = _outcome(read_records, path)
    assert outcomes["plain"][0] != "raises" and len(outcomes["plain"][0]) == 3
    assert outcomes["blank-lines"][0] == outcomes["plain"][0]
    assert outcomes["surrounding-whitespace"][0] == outcomes["plain"][0]
    assert outcomes["nan-and-infinity"][0] == "raises"  # the bare NaN line
    for case, message in [("extra-data", "line 3: Extra data"), ("cut-line", "line 3: "),
                          ("non-object", "line 3: a record must be a JSON object"),
                          ("missing-key", "line 3: missing key 'experiment_id'"),
                          ("bom", "line 2: Unexpected UTF-8 BOM"),
                          ("metadata-extra-data", "line 1: Extra data"),
                          ("blank-only", "is empty")]:
        assert outcomes[case][0] == "raises" and message in outcomes[case][1], case
    path = tmp_path / "constants.jsonl"
    path.write_text("\n".join([META, CONSTANTS]), encoding="utf-8")
    (record,), _ = read_records(path)
    assert math.isnan(record.recon_rmse) and record.final_loss == math.inf
    assert record.abundance_rmse == -math.inf and record.endmember_sad == math.inf


EDGE_FLOATS = [0.1, -0.0, 0.0, 5e-324, 1e300, -1e-5, 1.0 / 3.0, 123456789.0, 1e16,
               math.nan, math.inf, -math.inf]


def test_trace_csv_is_the_csv_writer_bytes(tmp_path):
    trace = GradientTrace(["enc0_linear", "enc2_linear", "enc4_linear"])
    for k, it in enumerate([1, 2, 3, 1000, 1100, 12300]):
        trace.log(it, EDGE_FLOATS[k:k + 3], EDGE_FLOATS[-3 - k:len(EDGE_FLOATS) - k])
    trace.to_csv(tmp_path / "lib.csv")
    oracles.write_trace_csv(trace, tmp_path / "ref.csv")
    lib = (tmp_path / "lib.csv").read_bytes()
    assert lib == (tmp_path / "ref.csv").read_bytes()
    assert lib.count(b"\r\n") == 1 + 6 * 3


def _records(scores):
    """One record per score, two initializations; None is a diverged run."""
    return [
        RunRecord("r", 1 + k % 2, 1 + k // 2, 1, k, "c", s, s, s, s and 2 * s, s and 5 * s,
                  None, s is None)
        for k, s in enumerate(scores)
    ]


@pytest.mark.parametrize("bins", [None, 1, 7])
def test_report_csvs_are_the_csv_writer_bytes(tmp_path, bins):
    rng = np.random.default_rng(3)
    scores = [float(v) for v in np.round(rng.lognormal(-3, 0.5, 40), 4)] + [None, None]
    records = _records(scores)
    thresholds = (0.0, 1e-3, 0.05, float(np.median(scores[:40])), 1.0)
    lib, ref = tmp_path / "lib", tmp_path / "ref"
    ref.mkdir()
    emit_report(records, "recon_rmse", lib, thresholds=thresholds, confidence=0.9, bins=bins)
    oracles.write_report_csvs(metric_values(records, "recon_rmse"), ref, thresholds, 0.9,
                              bins=bins)
    for name in ("histogram.csv", "trials.csv"):
        assert (lib / name).read_bytes() == (ref / name).read_bytes(), name
    trials = (lib / "trials.csv").read_bytes()
    assert b",,False\r\n" in trials and b",True\r\n" in trials


def test_report_csvs_without_thresholds_hold_the_header_only(tmp_path):
    emit_report(_records([0.1, 0.2, 0.3, 0.4]), "recon_rmse", tmp_path, thresholds=())
    assert (tmp_path / "trials.csv").read_bytes() == b"threshold,p_hat,n_req,reachable\r\n"

