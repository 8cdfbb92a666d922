"""Each benchmark check passes the program's real output and rejects a
deliberately wrong one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import unmixlab as ul  # noqa: E402
from unmixlab import harness, nn, stats  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402


# ---------------------------------------------------------------------------
# one trained basic cell
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cell():
    w = ul.generate_endmembers(20, 3, smoothness=5, seed=1)
    a = ul.sample_abundances(3, 300, pure_fraction=0.1, seed=2)
    data = ul.synthesize(w, a, seed=3)
    config = harness.ExperimentConfig(
        architecture="basic", loss="mse", batch_size=50, learning_rate=0.005,
        epochs=20, init_scheme="xgn", n_inits=1, runs_per_init=1, n1=4,
    )
    init_seed, run_seed = harness.grid_seeds(5, 1, 1)
    net, record, _ = harness.train_once(config, data, init_seed, run_seed)
    fresh = nn.build_network("basic", 20, 3, n1=4)
    nn.initialize_network(fresh, "xgn", init_seed)
    return {
        "record": record,
        "params": net.named_parameters(),
        "init_params": fresh.named_parameters(),
        "x": data.pixels,
        "abundances": harness.extract_abundances(net, data),
        "w_ref": data.ground_truth.endmembers,
    }


def _basic(cell, **changes):
    args = dict(cell, **changes)
    checks.check_basic_cell(args["record"], args["params"], args["init_params"],
                           args["x"], args["abundances"], args["w_ref"])


def test_basic_cell_accepts_the_real_output(cell):
    _basic(cell)


def test_basic_cell_rejects_swapped_abundance_rows(cell):
    swapped = cell["abundances"][[1, 0, 2]]
    with pytest.raises(CheckFailed, match="abundances differ"):
        _basic(cell, abundances=swapped)


def test_basic_cell_rejects_negative_abundance(cell):
    a = cell["abundances"].copy()
    a[0, 0] = -1e-3
    a[1, 0] += 1e-3
    with pytest.raises(CheckFailed, match="negative"):
        _basic(cell, abundances=a)


def test_basic_cell_rejects_a_perturbed_recon_rmse(cell):
    record = replace(cell["record"], recon_rmse=cell["record"].recon_rmse * (1 + 1e-7))
    with pytest.raises(CheckFailed, match="recon_rmse"):
        _basic(cell, record=record)


def test_basic_cell_rejects_a_wrong_permutation(cell):
    perm = cell["record"].permutation
    wrong = (perm[1], perm[0], perm[2])
    with pytest.raises(CheckFailed, match="permutation"):
        _basic(cell, record=replace(cell["record"], permutation=wrong))


def test_basic_cell_rejects_an_untrained_network(cell):
    with pytest.raises(CheckFailed, match="did not lower"):
        _basic(cell, init_params=cell["params"])


# ---------------------------------------------------------------------------
# grids on disk
# ---------------------------------------------------------------------------

GRID = dict(N=2, k=2, epochs=3, pixels=90, batch=40)


@pytest.fixture(scope="module")
def grid_dir(tmp_path_factory):
    w = ul.generate_endmembers(16, 3, smoothness=3, seed=21)
    a = ul.sample_abundances(3, GRID["pixels"], pure_fraction=0.2, seed=22)
    data = ul.synthesize(w, a, seed=23)
    config = harness.ExperimentConfig(
        architecture="basic", loss="mse", batch_size=GRID["batch"],
        learning_rate=0.01, epochs=GRID["epochs"], init_scheme="khu",
        n_inits=GRID["N"], runs_per_init=GRID["k"], master_seed=7, n1=4,
    )
    out = tmp_path_factory.mktemp("grid")
    records = harness.run_experiment(config, data, out_dir=out)
    return out, records


def _check_dir(out):
    steps = checks.steps_per_cell(GRID["epochs"], GRID["pixels"], GRID["batch"])
    return checks.check_grid_dir(out, harness.RunRecord, GRID["N"], GRID["k"], steps, layers=2)


def _copy(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst


def test_grid_dir_accepts_the_real_output(grid_dir):
    out, records = grid_dir
    assert [r.to_json() for r in _check_dir(out)] == [r.to_json() for r in records]


def test_grid_dir_rejects_a_record_file_with_one_line_cut(grid_dir, tmp_path):
    out = _copy(grid_dir[0], tmp_path / "cut")
    lines = (out / "records.jsonl").read_text().splitlines()
    (out / "records.jsonl").write_text("\n".join(lines[:-1]) + "\n")
    harness.read_records(out / "records.jsonl")  # the program's reader accepts it
    with pytest.raises(CheckFailed, match="metadata says"):
        _check_dir(out)


def test_grid_dir_rejects_a_trace_missing_one_row(grid_dir, tmp_path):
    out = _copy(grid_dir[0], tmp_path / "short")
    trace = out / grid_dir[1][2].trace_file
    lines = trace.read_text().splitlines()
    trace.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CheckFailed, match="rows, expected"):
        _check_dir(out)


def test_grid_records_reject_cells_out_of_order(grid_dir):
    records = grid_dir[1]
    with pytest.raises(CheckFailed, match="not"):
        checks.check_grid_records([records[1], records[0]] + records[2:], 2, 2)


def test_grid_records_reject_a_checksum_shared_across_inits(grid_dir):
    records = list(grid_dir[1])
    records[2] = replace(records[2], init_checksum=records[0].init_checksum)
    with pytest.raises(CheckFailed, match="checksum"):
        checks.check_grid_records(records, 2, 2)


def test_grid_records_reject_checksums_split_within_an_init(grid_dir):
    records = list(grid_dir[1])
    records[1] = replace(records[1], init_checksum="0" * 64)
    with pytest.raises(CheckFailed, match="checksum"):
        checks.check_grid_records(records, 2, 2)


@pytest.mark.parametrize("steps", [1, 7, 999, 1000, 1001, 1099, 1100, 2345])
def test_trace_rows_match_the_logging_rule(steps):
    logged = sum(harness.GradientTrace.should_log(it) for it in range(1, steps + 1))
    assert checks.trace_rows(steps, 3) == 3 * logged


# ---------------------------------------------------------------------------
# stability analysis
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def groups():
    rng = np.random.default_rng(3)
    effect = np.exp(0.3 * rng.standard_normal(8))
    return [np.round(effect[i] * np.exp(0.2 * rng.standard_normal(12)), 2) for i in range(8)]


@pytest.fixture(scope="module")
def report(groups, tmp_path_factory):
    out = tmp_path_factory.mktemp("stats")
    stats.write_stat_report(stats.analyze_grouped(groups), out)
    return out


def test_stat_report_accepts_the_real_output(groups, report):
    checks.check_stat_report(checks.read_stat_report(report / "stat_report.txt"), groups)


@pytest.mark.parametrize("key", ["kw_h", "kw_p", "levene_stat"])
def test_stat_report_rejects_a_perturbed_value(groups, report, key):
    values = checks.read_stat_report(report / "stat_report.txt")
    values[key] = repr(float(values[key]) * (1 + 1e-8))
    with pytest.raises(CheckFailed, match=key):
        checks.check_stat_report(values, groups)


def test_monotone_invariance_accepts_kruskal_wallis(groups):
    h, _ = stats.kruskal_wallis(groups)
    checks.check_monotone_invariance(stats.kruskal_wallis, groups, h)


def test_monotone_invariance_rejects_a_statistic_on_raw_values(groups):
    def not_rank_based(gs):
        pooled = np.concatenate(gs)
        return float(sum(g.size * (g.mean() - pooled.mean()) ** 2 for g in gs)), 0.0

    h, _ = not_rank_based(groups)
    with pytest.raises(CheckFailed, match="monotone"):
        checks.check_monotone_invariance(not_rank_based, groups, h)


def test_midranks_sum(groups):
    ranks = stats.midranks(np.concatenate(groups))
    checks.check_midranks(ranks)
    ranks[0] += 0.5
    with pytest.raises(CheckFailed, match="midranks"):
        checks.check_midranks(ranks)


def test_posthoc_matrix_accepts_the_real_output(report):
    checks.check_posthoc_matrix(report / "posthoc_matrix.csv", 8)


@pytest.mark.parametrize("fault", ["asymmetric", "diagonal", "range"])
def test_posthoc_matrix_rejects_a_wrong_matrix(report, tmp_path, fault):
    mat = np.loadtxt(report / "posthoc_matrix.csv", delimiter=",")
    if fault == "asymmetric":
        mat[0, 1] = mat[0, 1] / 2.0 + 0.25
    elif fault == "diagonal":
        mat[3, 3] = 0.5
    else:
        mat[2, 5] = mat[5, 2] = 1.5
    path = tmp_path / "posthoc_matrix.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in mat) + "\n")
    with pytest.raises(CheckFailed):
        checks.check_posthoc_matrix(path, 8)


def _records(scores_by_init):
    out = []
    for i, row in enumerate(scores_by_init, start=1):
        for j, v in enumerate(row, start=1):
            diverged = v is None
            out.append(harness.RunRecord(
                "t", i, j, i, j, f"{i:064x}", v, v, None, None, None, None, diverged))
    return out


@pytest.fixture(scope="module")
def trials(tmp_path_factory):
    from unmixlab.cli import emit_report

    rows = [[0.1, 0.2, None, 0.4], [0.15, 0.25, 0.35, 0.45], [0.3, 0.3, 0.5, 0.6]]
    records = _records(rows)
    out = tmp_path_factory.mktemp("report")
    emit_report(records, "recon_rmse", out, thresholds=(0.05, 0.12, 0.3, 0.55))
    scores = np.array([np.inf if v is None else v for row in rows for v in row])
    return out / "trials.csv", scores


def test_trials_accept_the_real_output(trials):
    checks.check_trials(trials[0], trials[1], 0.95)


@pytest.mark.parametrize("shift", [-1, 1])
def test_trials_reject_n_req_off_by_one(trials, tmp_path, shift):
    path, scores = trials
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    row[2] = str(int(row[2]) + shift)
    lines[2] = ",".join(row)
    bad = tmp_path / "trials.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="n_req"):
        checks.check_trials(bad, scores, 0.95)


def test_trials_reject_p_hat_that_ignores_diverged_runs(trials):
    path, scores = trials
    finite = scores[np.isfinite(scores)]
    with pytest.raises(CheckFailed, match="p_hat"):
        checks.check_trials(path, finite, 0.95)


def test_permutation_check_rejects_a_suboptimal_assignment():
    w_ref = np.eye(4)[:, :3] + 0.1
    w_hat = w_ref[:, [2, 0, 1]]
    checks.check_permutation((1, 2, 0), w_hat, w_ref)
    with pytest.raises(CheckFailed):
        checks.check_permutation((0, 1, 2), w_hat, w_ref)


def test_record_lines_need_a_matching_count(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps({"record_format": 1, "count": 2}) + "\n{}\n")
    with pytest.raises(CheckFailed):
        checks.read_record_lines(path)
