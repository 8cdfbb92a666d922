"""End-to-end command-line pipeline on small fixtures."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unmixlab import stats
from unmixlab.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, main
from unmixlab.harness import ExperimentConfig, RunRecord, read_records, write_records
from unmixlab.lmm import load_bundle
from unmixlab.stats import estimate_success_prob


@pytest.fixture()
def bundle_dir(tmp_path):
    out = tmp_path / "bundle"
    rc = main([
        "gen", "--out", str(out), "--bands", "16", "--endmembers", "2",
        "--pixels", "80", "--pure-fraction", "0.2", "--seed", "3",
    ])
    assert rc == EXIT_OK
    return out


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "experiment_id": "cli-test", "architecture": "basic", "loss": "mse",
        "encoder": "4E", "batch_size": 20, "learning_rate": 0.01,
        "epochs": 10, "init": "xgu", "N": 2, "k": 2, "master_seed": 11,
    }))
    return path


def fixture_records(path, values_by_init, loss="mse"):
    """Write a records.jsonl with given recon_rmse values per init."""
    records = []
    for i, values in enumerate(values_by_init, start=1):
        for j, v in enumerate(values, start=1):
            records.append(RunRecord(
                experiment_id="fx", init_id=i, run_id=j, init_seed=i,
                run_seed=j, init_checksum="c", final_loss=v, recon_rmse=v,
                recon_sad=v, abundance_rmse=None, endmember_sad=None,
                permutation=None, diverged=False,
            ))
    config = ExperimentConfig(
        experiment_id="fx", architecture="basic", loss=loss,
        n_inits=len(values_by_init), runs_per_init=len(values_by_init[0]),
    )
    write_records(path, records, config)
    return path


class TestGenConvert:
    def test_gen_writes_loadable_bundle(self, bundle_dir):
        bundle = load_bundle(bundle_dir)
        assert bundle.bands == 16 and bundle.pixel_count == 80
        assert bundle.ground_truth is not None

    def test_gen_is_deterministic(self, tmp_path):
        for name in ("a", "b"):
            assert main([
                "gen", "--out", str(tmp_path / name), "--bands", "8",
                "--endmembers", "2", "--pixels", "10", "--seed", "9",
            ]) == EXIT_OK
        pa = (tmp_path / "a" / "pixels.f32").read_bytes()
        pb = (tmp_path / "b" / "pixels.f32").read_bytes()
        assert pa == pb

    @pytest.mark.parametrize("bands, smoothness, named", [
        ("14", "40", "smoothness"), ("13", "13", "could not separate"),
    ], ids=["window-longer-than-spectrum", "unseparable"])
    def test_impossible_gen_request_is_usage_error(self, tmp_path, capsys,
                                                   bands, smoothness, named):
        rc = main(["gen", "--out", str(tmp_path / "g"), "--bands", bands,
                   "--endmembers", "12", "--smoothness", smoothness])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert '"kind": "usage"' in err and named in err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("args, message", [
        (["--bands", "3", "--endmembers", "3"], "need more bands than endmembers"),
        (["--pixels", "0"], "at least one pixel required"),
    ], ids=["bands-not-above-endmembers", "no-pixels"])
    def test_bad_gen_arguments_are_usage_errors(self, tmp_path, capsys, args, message):
        """No file is read, so an impossible request is the user's usage."""
        assert main(["gen", "--out", str(tmp_path / "g"), *args]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert '"kind": "usage"' in err and message in err

    def test_convert_csv(self, tmp_path):
        csv_path = tmp_path / "pixels.csv"
        rng = np.random.default_rng(0)
        np.savetxt(csv_path, rng.uniform(0, 1, (6, 4)), delimiter=",")
        out = tmp_path / "converted"
        assert main(["convert", "--csv", str(csv_path), "--out", str(out)]) == EXIT_OK
        bundle = load_bundle(out)
        assert bundle.bands == 4 and bundle.pixel_count == 6

    def test_convert_missing_file_is_data_error(self, tmp_path, capsys):
        rc = main(["convert", "--csv", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA
        assert "error {" in capsys.readouterr().err


    def test_convert_csv_holding_nan_is_data_error(self, tmp_path, capsys):
        csv_path = tmp_path / "pixels.csv"
        csv_path.write_text("0.1,0.2\nnan,0.4\n")
        rc = main(["convert", "--csv", str(csv_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA
        assert '"kind": "data"' in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestTrainExperiment:
    def test_train_writes_artifacts(self, tmp_path, bundle_dir, config_path):
        out = tmp_path / "run"
        rc = main([
            "train", "--config", str(config_path), "--data", str(bundle_dir),
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert (out / "record.jsonl").exists()
        assert (out / "trace.csv").exists()
        assert (out / "network.ckpt").exists()
        lines = (out / "record.jsonl").read_text().splitlines()
        assert len(lines) == 2  # meta + one record

    def test_experiment_grid_and_analyze(self, tmp_path, bundle_dir, config_path):
        out = tmp_path / "grid"
        rc = main([
            "experiment", "--config", str(config_path), "--data",
            str(bundle_dir), "--out", str(out),
        ])
        assert rc == EXIT_OK
        records_file = out / "records.jsonl"
        lines = records_file.read_text().splitlines()
        assert len(lines) == 1 + 4
        stat_out = tmp_path / "stats"
        rc = main(["analyze", "--records", str(records_file),
                   "--out", str(stat_out)])
        assert rc == EXIT_OK
        assert (stat_out / "stat_report.txt").exists()

    def test_experiment_determinism_excluding_meta(self, tmp_path, bundle_dir,
                                                   config_path):
        outs = []
        for name in ("g1", "g2"):
            out = tmp_path / name
            assert main([
                "experiment", "--config", str(config_path), "--data",
                str(bundle_dir), "--out", str(out),
            ]) == EXIT_OK
            outs.append(out)
        r1 = (outs[0] / "records.jsonl").read_bytes().split(b"\n")[1:]
        r2 = (outs[1] / "records.jsonl").read_bytes().split(b"\n")[1:]
        assert r1 == r2
        t1 = sorted(p.name for p in outs[0].glob("trace_*.csv"))
        for name in t1:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_set_overrides(self, tmp_path, bundle_dir, config_path):
        out = tmp_path / "ovr"
        rc = main([
            "experiment", "--config", str(config_path), "--data",
            str(bundle_dir), "--out", str(out), "--set", "N=1", "--set", "k=1",
        ])
        assert rc == EXIT_OK
        assert len((out / "records.jsonl").read_text().splitlines()) == 2

    def test_bad_config_key_is_usage_error(self, tmp_path, bundle_dir,
                                           config_path, capsys):
        rc = main([
            "experiment", "--config", str(config_path), "--data",
            str(bundle_dir), "--out", str(tmp_path / "x"),
            "--set", "typo_key=1",
        ])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error {" in err and "typo_key" in err

    def test_eleven_endmembers_are_scored(self, tmp_path, config_path):
        scene = tmp_path / "e11"
        assert main(["gen", "--out", str(scene), "--bands", "40", "--endmembers",
                     "11", "--pixels", "200", "--seed", "3"]) == EXIT_OK
        out = tmp_path / "grid"
        rc = main(["experiment", "--config", str(config_path), "--data", str(scene),
                   "--out", str(out), "--set", "N=2", "--set", "k=1",
                   "--set", "epochs=1"])
        assert rc == EXIT_OK
        records, _ = read_records(out / "records.jsonl")
        assert len(records) == 2
        for r in records:
            assert sorted(r.permutation) == list(range(11))

    @pytest.mark.parametrize("override", ["scale=False", "scale=\"false\"",
                                          "batch_size=2.7", "N=1.5", "N=null",
                                          "learning_rate=NaN", "learning_rate=true",
                                          "gd=false", "encoder=abcE"])
    def test_mistyped_override_is_usage_error(self, tmp_path, bundle_dir,
                                              config_path, override, capsys):
        out = tmp_path / "x"
        rc = main(["experiment", "--config", str(config_path), "--data",
                   str(bundle_dir), "--out", str(out), "--set", override])
        assert rc == EXIT_USAGE
        assert override.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, bundle_dir, config_path,
                                           jobs, capsys):
        out = tmp_path / "x"
        rc = main(["experiment", "--config", str(config_path), "--data",
                   str(bundle_dir), "--out", str(out), "--jobs", jobs])
        assert rc == EXIT_USAGE
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_scale_string_is_usage_error(self, tmp_path, bundle_dir,
                                                     config_path):
        mapping = json.loads(config_path.read_text())
        mapping["scale"] = "false"
        config_path.write_text(json.dumps(mapping))
        rc = main(["train", "--config", str(config_path), "--data",
                   str(bundle_dir), "--out", str(tmp_path / "t")])
        assert rc == EXIT_USAGE

    def test_scale_false_trains_unscaled(self, tmp_path, bundle_dir, config_path):
        out = tmp_path / "t"
        assert main(["train", "--config", str(config_path), "--data", str(bundle_dir),
                     "--out", str(out), "--set", "scale=false"]) == EXIT_OK
        _, meta = read_records(out / "record.jsonl")
        assert meta["config"]["scale"] is False

    @pytest.mark.parametrize("edit, named", [
        (lambda h: h.pop("bands"), "bands"),
        (lambda h: h["payload_files"].update(pixels="pixels.f32"), "mistyped"),
    ], ids=["missing-bands", "entry-not-an-object"])
    def test_malformed_header_is_data_error(self, tmp_path, bundle_dir, config_path,
                                            capsys, edit, named):
        header_path = bundle_dir / "header.json"
        header = json.loads(header_path.read_text())
        edit(header)
        header_path.write_text(json.dumps(header))
        rc = main(["train", "--config", str(config_path), "--data", str(bundle_dir),
                   "--out", str(tmp_path / "t")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert '"kind": "data"' in err and named in err

    def test_nan_pixel_under_valid_checksum_is_data_error(self, tmp_path, bundle_dir,
                                                          config_path, capsys):
        header_path = bundle_dir / "header.json"
        header = json.loads(header_path.read_text())
        payload = bundle_dir / header["payload_files"]["pixels"]["file"]
        pixels = np.frombuffer(payload.read_bytes(), dtype="<f4").copy()
        pixels[5] = np.nan
        payload.write_bytes(pixels.tobytes())
        header["payload_files"]["pixels"]["sha256"] = hashlib.sha256(
            pixels.tobytes()).hexdigest()
        header_path.write_text(json.dumps(header))
        rc = main(["train", "--config", str(config_path), "--data", str(bundle_dir),
                   "--out", str(tmp_path / "t")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert '"kind": "data"' in err and "finite" in err

    def test_missing_ground_truth_is_data_error(self, tmp_path, config_path):
        csv_path = tmp_path / "p.csv"
        np.savetxt(csv_path, np.random.default_rng(1).uniform(0, 1, (30, 16)),
                   delimiter=",")
        plain = tmp_path / "plain"
        assert main(["convert", "--csv", str(csv_path), "--out", str(plain)]) == EXIT_OK
        rc = main(["train", "--config", str(config_path), "--data", str(plain),
                   "--out", str(tmp_path / "t")])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("command", ["train", "experiment"])
    def test_scaling_a_constant_bundle_is_data_error(self, tmp_path, capsys, command):
        csv_path = tmp_path / "flat.csv"
        csv_path.write_text("0.5,0.5,0.5\n" * 3)
        flat = tmp_path / "flat"
        assert main(["convert", "--csv", str(csv_path), "--out", str(flat)]) == EXIT_OK
        rc = main([command, "--data", str(flat), "--out", str(tmp_path / "t"),
                   "--set", "scale=true", "--set", "endmembers=2"])
        assert rc == EXIT_DATA
        err = json.loads(capsys.readouterr().err.splitlines()[-1][len("error "):])
        assert err["kind"] == "data" and "constant" in err["message"]
        assert not (tmp_path / "t").exists()


class TestAnalyze:
    def test_fixture_three_groups_reports_h(self, tmp_path, capsys):
        records = fixture_records(
            tmp_path / "r.jsonl", [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        )
        out = tmp_path / "stats"
        rc = main(["analyze", "--records", str(records), "--out", str(out)])
        assert rc == EXIT_OK
        stdout = capsys.readouterr().out
        assert "H=7.2" in stdout
        report = (out / "stat_report.txt").read_text()
        kw_line = next(l for l in report.splitlines() if l.startswith("kw_h:"))
        assert float(kw_line.split(":")[1]) == pytest.approx(7.2, abs=1e-9)
        assert (out / "posthoc_matrix.csv").exists()
        matrix = np.loadtxt(out / "posthoc_matrix.csv", delimiter=",")
        assert matrix.shape == (3, 3)

    def test_no_rejection_emits_no_posthoc(self, tmp_path):
        records = fixture_records(
            tmp_path / "r.jsonl", [[1.0, 5.0, 3.0], [2.0, 4.0, 6.0]]
        )
        out = tmp_path / "stats"
        assert main(["analyze", "--records", str(records), "--out", str(out)]) == EXIT_OK
        assert not (out / "posthoc_matrix.csv").exists()
        assert "not run" in (out / "stat_report.txt").read_text()

    def test_missing_records_is_data_error(self, tmp_path):
        rc = main(["analyze", "--records", str(tmp_path / "none.jsonl"),
                   "--out", str(tmp_path / "s")])
        assert rc == EXIT_DATA

    def test_unreadable_records_is_data_error(self, tmp_path, capsys):
        rc = main(["analyze", "--records", str(tmp_path), "--out", str(tmp_path / "s")])
        assert rc == EXIT_DATA
        assert '"kind": "data"' in capsys.readouterr().err

    @staticmethod
    def _analyze_error(tmp_path, capsys, edit):
        """Exit code and error line of analyze on a fixture whose lines
        `edit` rewrites."""
        path = fixture_records(tmp_path / "r.jsonl", [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        capsys.readouterr()
        rc = main(["analyze", "--records", str(path), "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert err.startswith("error ")
        return rc, json.loads(err[len("error "):])

    @staticmethod
    def _with_meta(lines, **changes):
        meta = json.loads(lines[0])
        meta.update(changes)
        return [json.dumps(meta)] + lines[1:]

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:-1], "holds 8 records but its metadata line says count 9"),
        (lambda lines: lines + lines[-1:], "holds 10 records"),
        (lambda lines: TestAnalyze._with_meta(lines, count=10), "says count 10"),
        (lambda lines: TestAnalyze._with_meta(lines, count=None), "says count None"),
        (lambda lines: TestAnalyze._with_meta(lines, record_format=2), "record_format 2"),
    ], ids=["cut", "appended", "count-edited", "count-missing", "format"])
    def test_record_file_disagreeing_with_its_metadata_is_data_error(
            self, tmp_path, capsys, edit, message):
        rc, err = self._analyze_error(tmp_path, capsys, edit)
        assert rc == EXIT_DATA and err["kind"] == "data"
        assert message in err["message"]

    @pytest.mark.parametrize("bad, message", [
        ('{"init_id":1}', "line 3: missing key 'experiment_id'"),
        ("[1,2]", "line 3: a record must be a JSON object, not list"),
        ("{not json", "line 3: Expecting property name"),
    ], ids=["missing-key", "array", "not-json"])
    def test_bad_record_line_is_data_error_naming_the_line(
            self, tmp_path, capsys, bad, message):
        rc, err = self._analyze_error(
            tmp_path, capsys, lambda lines: lines[:2] + [bad] + lines[3:])
        assert rc == EXIT_DATA and err["kind"] == "data"
        assert message in err["message"]


    def test_an_init_with_one_scored_run_is_analyzed(self, tmp_path, capsys):
        """Levene needs two scores per group and is skipped; Kruskal-Wallis
        runs on the scores there are."""
        path = fixture_records(tmp_path / "r.jsonl", [[1, 2, 3], [4, None, None]])
        rc = main(["analyze", "--records", str(path), "--out", str(tmp_path / "s")])
        assert rc == EXIT_OK
        assert stats.LEVENE_NOT_RUN in capsys.readouterr().out
        h, p = stats.kruskal_wallis([[1, 2, 3], [4]])
        lines = (tmp_path / "s" / "stat_report.txt").read_text().splitlines()
        assert stats.LEVENE_NOT_RUN in lines
        assert f"kw_h: {h!r}" in lines and f"kw_p: {p!r}" in lines


class TestUnscoredMetric:
    @pytest.mark.parametrize("command", [
        ["analyze", "--out", "{out}"],
        ["plan", "--threshold", "0.1"],
        ["report", "--out", "{out}"],
    ])
    def test_a_metric_no_record_scores_is_named(self, tmp_path, capsys, command):
        """Records without ground truth score no endmember_sad; that is a
        data error naming the metric, not a divergence."""
        path = fixture_records(tmp_path / "records.jsonl", [[1, 2, 3], [4, 5, 6]])
        argv = [arg.format(out=tmp_path / "out") for arg in command]
        rc = main(argv + ["--records", str(path), "--metric", "endmember_sad"])
        assert rc == EXIT_DATA
        message = json.loads(capsys.readouterr().err.removeprefix("error "))["message"]
        assert "no record" in message and "scores endmember_sad" in message
        assert "diverged" not in message.replace("did not diverge", "")
        assert not (tmp_path / "out").exists()

    def test_all_diverged_runs_are_still_reported_as_divergence(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        records = [
            RunRecord(experiment_id="fx", init_id=1, run_id=j, init_seed=1, run_seed=j,
                      init_checksum="c", final_loss=None, recon_rmse=None,
                      recon_sad=None, abundance_rmse=None, endmember_sad=None,
                      permutation=None, diverged=True)
            for j in (1, 2)
        ]
        write_records(path, records, ExperimentConfig(n_inits=1, runs_per_init=2))
        rc = main(["report", "--records", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert "all runs diverged" in capsys.readouterr().err


class TestPlan:
    def test_direct_p_hat(self, capsys):
        assert main(["plan", "--p-hat", "0.5", "--confidence", "0.95"]) == EXIT_OK
        assert "n_req=5" in capsys.readouterr().out

    def test_from_records(self, tmp_path, capsys):
        records = fixture_records(
            tmp_path / "r.jsonl",
            [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]],
        )
        rc = main(["plan", "--records", str(records), "--threshold", "0.35",
                   "--metric", "recon_rmse"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "p_hat=0.5" in out and "n_req=5" in out

    def test_unreachable_threshold(self, tmp_path, capsys):
        records = fixture_records(tmp_path / "r.jsonl", [[0.5, 0.6], [0.7, 0.8]])
        rc = main(["plan", "--records", str(records), "--threshold", "0.01"])
        assert rc == EXIT_DATA

    def test_missing_arguments_usage_error(self):
        assert main(["plan"]) == EXIT_USAGE


class TestReport:
    def test_report_files_and_trials(self, tmp_path):
        values = list(np.linspace(0.0, 1.0, 100))
        records = fixture_records(tmp_path / "r.jsonl", [values[:50], values[50:]])
        out = tmp_path / "report"
        rc = main([
            "report", "--records", str(records), "--out", str(out),
            "--thresholds", "0.5", "--confidence", "0.95",
        ])
        assert rc == EXIT_OK
        hist = (out / "histogram.csv").read_text().splitlines()
        assert hist[0] == "bin_left,bin_right,count"
        counts = sum(int(line.split(",")[2]) for line in hist[1:])
        assert counts == 100
        trials = (out / "trials.csv").read_text().splitlines()
        assert trials[0] == "threshold,p_hat,n_req,reachable"
        row = trials[1].split(",")
        assert float(row[1]) == pytest.approx(0.5)
        assert int(row[2]) == 5
        summary = (out / "summary.txt").read_text()
        assert "records: 100" in summary

    def test_an_init_with_one_scored_run_writes_the_stat_report(self, tmp_path):
        """report writes the same stat_report.txt as analyze, Levene skipped."""
        path = fixture_records(tmp_path / "r.jsonl", [[1, 2, 3], [4, None, None]])
        out = tmp_path / "report"
        assert main(["report", "--records", str(path), "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "histogram.csv", "stat_report.txt", "summary.txt", "trials.csv"]
        assert main(["analyze", "--records", str(path), "--out", str(tmp_path / "s")]) == EXIT_OK
        lines = (out / "stat_report.txt").read_text().splitlines()
        assert stats.LEVENE_NOT_RUN in lines
        assert (tmp_path / "s" / "stat_report.txt").read_text().splitlines() == lines

    def test_single_value_single_nonzero_bin(self, tmp_path):
        records = fixture_records(tmp_path / "r.jsonl", [[0.3, 0.3], [0.3, 0.3]])
        out = tmp_path / "report"
        assert main(["report", "--records", str(records), "--out", str(out),
                     "--thresholds", "0.5"]) == EXIT_OK
        rows = (out / "histogram.csv").read_text().splitlines()[1:]
        nonzero = [r for r in rows if int(r.split(",")[2]) > 0]
        assert len(nonzero) == 1

    def test_unreachable_rows_flagged(self, tmp_path):
        records = fixture_records(tmp_path / "r.jsonl", [[0.5, 0.6], [0.7, 0.8]])
        out = tmp_path / "report"
        assert main(["report", "--records", str(records), "--out", str(out),
                     "--thresholds", "0.01", "0.55"]) == EXIT_OK
        rows = (out / "trials.csv").read_text().splitlines()[1:]
        first = rows[0].split(",")
        assert first[3] == "False" and first[2] == ""
        second = rows[1].split(",")
        assert second[3] == "True"

    def test_trials_rows_are_the_success_estimate(self, tmp_path):
        values = [[0.25, 0.5, None], [0.75, 0.25, 1.0]]
        path = fixture_records(tmp_path / "r.jsonl", values)
        lines = path.read_text().splitlines()
        # the third run of init 1 diverged: it counts as a failure
        lines[3] = lines[3].replace('"diverged":false', '"diverged":true')
        path.write_text("\n".join(lines) + "\n")
        records, _ = read_records(path)
        thresholds = ["0.25", "0.5000001", "1.0", "1.5", "inf", "nan", "-1"]
        out = tmp_path / "report"
        assert main(["report", "--records", str(path), "--out", str(out),
                     "--thresholds", *thresholds]) == EXIT_OK
        rows = [r.split(",") for r in (out / "trials.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == [repr(float(t)) for t in thresholds]
        for row, t in zip(rows, thresholds):
            p_hat = estimate_success_prob(records, "recon_rmse", float(t))
            assert row[1] == repr(p_hat)
            assert row[3] == str(p_hat > 0)

    def test_default_thresholds_follow_loss(self, tmp_path):
        records = fixture_records(
            tmp_path / "r.jsonl", [[0.01, 0.02], [0.03, 0.04]], loss="sad"
        )
        out = tmp_path / "report"
        assert main(["report", "--records", str(records), "--out", str(out)]) == EXIT_OK
        rows = (out / "trials.csv").read_text().splitlines()[1:]
        thresholds = [float(r.split(",")[0]) for r in rows]
        assert thresholds == [0.05, 0.075, 0.1]


class TestHistogramBins:
    @pytest.mark.parametrize("scores", [
        # tight ties beside one outlier: the rule alone asks for 12,500,000
        # bins, and 4.3e17 for the second
        [0.1] * 300 + [0.1 + 1e-7] * 400 + [0.1 + 2e-7] * 299 + [0.6],
        [1.0, 1.0 + 1e-12, 1.0 + 2e-12, 1.0 + 3e-12, 1e6],
    ])
    def test_automatic_bins_are_at_most_one_per_score(self, tmp_path, scores):
        path = fixture_records(tmp_path / "records.jsonl", [scores])
        assert main(["report", "--records", str(path), "--out",
                     str(tmp_path / "out")]) == EXIT_OK
        rows = (tmp_path / "out" / "histogram.csv").read_text().splitlines()
        assert len(rows) - 1 == len(scores)

    def test_explicit_bins_are_kept(self, tmp_path):
        path = fixture_records(tmp_path / "records.jsonl", [[1.0, 2.0, 3.0]])
        assert main(["report", "--records", str(path), "--out",
                     str(tmp_path / "out"), "--bins", "7"]) == EXIT_OK
        rows = (tmp_path / "out" / "histogram.csv").read_text().splitlines()
        assert len(rows) - 1 == 7


class TestModuleEntry:
    def test_python_m_unmixlab_prints_the_usage(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )}
        done = subprocess.run([sys.executable, "-m", "unmixlab", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.startswith("usage: unmixlab")
        assert "experiment" in done.stdout


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize("command, option, value", [
        ("analyze", "--alpha", "1.5"),
        ("analyze", "--alpha", "0"),
        ("analyze", "--alpha", "nan"),
        ("report", "--alpha", "1.5"),
        ("report", "--confidence", "1.0"),
        ("report", "--bins", "0"),
    ])
    def test_out_of_range_option_is_usage_error_before_any_file(
            self, tmp_path, capsys, command, option, value):
        records = fixture_records(tmp_path / "r.jsonl", [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        out = tmp_path / "out"
        # a reachable threshold, so that report would size its trials
        thresholds = ["--thresholds", "5"] if command == "report" else []
        rc = main([command, "--records", str(records), "--out", str(out),
                   *thresholds, option, value])
        assert rc == EXIT_USAGE
        assert f"argument {option}" in capsys.readouterr().err
        assert not out.exists()

    def test_shared_parser_carries_no_values_between_calls(self, tmp_path, bundle_dir,
                                                           config_path):
        assert build_parser() is build_parser()
        grid = ["experiment", "--config", str(config_path), "--data", str(bundle_dir)]
        # N=2 and k=2 in the config: each run's lines show which --set it saw
        for name, sets, lines in (("a", ["--set", "N=1"], 2), ("b", ["--set", "k=1"], 2),
                                  ("c", [], 4)):
            out = tmp_path / name
            assert main([*grid, "--out", str(out), *sets]) == EXIT_OK
            assert len((out / "records.jsonl").read_text().splitlines()) == lines + 1
        records = fixture_records(tmp_path / "r.jsonl", [[0.01, 0.02], [0.03, 0.04]])
        report = ["report", "--records", str(records)]
        for name, thresholds in (("r1", ["0.5"]), ("r2", [])):
            out = tmp_path / name
            args = ["--thresholds", *thresholds] if thresholds else []
            assert main([*report, "--out", str(out), *args]) == EXIT_OK
            rows = (out / "trials.csv").read_text().splitlines()[1:]
            assert [float(r.split(",")[0]) for r in rows] == (
                [float(t) for t in thresholds] or [0.01, 0.015, 0.05])

    def test_idempotent_reports(self, tmp_path):
        records = fixture_records(
            tmp_path / "r.jsonl", [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        )
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["report", "--records", str(records), "--out",
                         str(out), "--thresholds", "2.0"]) == EXIT_OK
            outs.append(out)
        for fname in ("histogram.csv", "trials.csv", "summary.txt",
                      "stat_report.txt"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
