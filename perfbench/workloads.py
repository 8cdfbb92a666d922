"""The benchmark workloads.

Each workload makes its inputs from the run's seed in `setup`, repeats one
op (`op`, the only timed call), and checks every op's output afterwards
(`check`). Ops call unmixlab through module attributes (`ul.harness.train_once`,
not a name bound at import) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks


def _seeds(seed: int, tag: int, count: int) -> list[int]:
    """Independent input seeds for one workload, derived from the run seed."""
    rng = np.random.default_rng([seed, tag])
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=count)]


def _file_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Workload:
    name = ""
    steps_per_op = 0  # optimizer steps per op; 0 where no op trains
    cells_per_op = 0

    def __init__(self, ul, seed: int, work_dir: Path):
        self.ul = ul
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int):
        raise NotImplementedError

    def check(self, outputs: list) -> None:
        raise NotImplementedError

    def diverged_cells(self, outputs: list) -> int:
        return 0

    def bytes_per_op(self, outputs: list) -> float:
        return 0.0

    def trace_cost_ms(self) -> float:
        """Extra wall time of one cell with the gradient trace on (ms)."""
        return 0.0


class SamsonGrid(Workload):
    """2x2 Samson-shaped grid (basic/MSE, khu, 8 epochs) written to disk.

    Op i runs the grid with master seed base + i into a fresh directory.
    """

    name = "samson-grid"
    N, K = 2, 2
    BANDS, ENDMEMBERS, SIDE, BATCH, EPOCHS = 156, 3, 95, 256, 8

    def setup(self) -> None:
        ul = self.ul
        s_w, s_a, s_n, self.master, self.sample = _seeds(self.seed, 2, 5)
        pixels = self.SIDE * self.SIDE
        w = ul.lmm.generate_endmembers(self.BANDS, self.ENDMEMBERS, smoothness=9, seed=s_w)
        a = ul.lmm.sample_abundances(self.ENDMEMBERS, pixels, pure_fraction=0.1, seed=s_a)
        scene = ul.lmm.synthesize(
            w, a, ul.lmm.NoiseSpec(0.005), seed=s_n,
            width=self.SIDE, height=self.SIDE, name="samson-shaped",
        )
        ul.lmm.save_bundle(scene, self.work_dir / "bundle")
        self.data = ul.lmm.load_bundle(self.work_dir / "bundle")
        self.config = ul.harness.ExperimentConfig(
            experiment_id="samson", architecture="basic", loss="mse",
            batch_size=self.BATCH, learning_rate=0.005, epochs=self.EPOCHS,
            init_scheme="khu", n_inits=self.N, runs_per_init=self.K,
        )
        self.steps = checks.steps_per_cell(self.EPOCHS, pixels, self.BATCH)
        self.cells_per_op = self.N * self.K
        self.steps_per_op = self.steps * self.cells_per_op

    def config_for(self, index: int):
        return replace(self.config, master_seed=self.master + index)

    def op(self, index: int):
        out = self.work_dir / f"grid{index:05d}"
        return index, out, self.ul.harness.run_experiment(
            self.config_for(index), self.data, out_dir=out
        )

    def check(self, outputs: list) -> None:
        nn, harness = self.ul.nn, self.ul.harness
        for _, out, records in outputs:
            from_file = checks.check_grid_dir(
                out, harness.RunRecord, self.N, self.K, self.steps, layers=2
            )
            checks.require([r.to_json() for r in records] == [r.to_json() for r in from_file],
                            f"{out}: returned records differ from records.jsonl")
        # re-train one sampled cell of the last op through train_once
        index, out, records = outputs[-1]
        config = self.config_for(index)
        i, j = 1 + self.sample % self.N, 1 + (self.sample // self.N) % self.K
        init_seed, run_seed = harness.grid_seeds(config.master_seed, i, j)
        net, fresh, _ = harness.train_once(
            config, self.data, init_seed, run_seed, init_id=i, run_id=j
        )
        _, body = checks.read_record_lines(out / "records.jsonl")
        pos = (i - 1) * self.K + (j - 1)
        line = replace(fresh, trace_file=records[pos].trace_file).to_json()
        checks.require(line == body[pos], f"re-run of cell {i},{j} is not byte-identical")
        if fresh.diverged:
            return
        untrained = nn.build_network("basic", self.BANDS, self.ENDMEMBERS, n1=config.n1)
        nn.initialize_network(untrained, config.init_scheme, init_seed)
        checks.check_basic_cell(
            fresh, net.named_parameters(), untrained.named_parameters(),
            self.data.pixels, harness.extract_abundances(net, self.data),
            self.data.ground_truth.endmembers,
        )

    def diverged_cells(self, outputs: list) -> int:
        return sum(r.diverged for *_, records in outputs for r in records)

    def bytes_per_op(self, outputs: list) -> float:
        return float(np.mean([_file_bytes(out) for _, out, _ in outputs]))

    def trace_cost_ms(self) -> float:
        harness = self.ul.harness
        init_seed, run_seed = harness.grid_seeds(self.master, 1, 1)
        # on, off, off, on: a drift of the machine that is linear in time cancels
        total = {True: 0.0, False: 0.0}
        for flag in (True, False, False, True):
            t0 = time.perf_counter()
            harness.train_once(self.config, self.data, init_seed, run_seed, log_gradients=flag)
            total[flag] += time.perf_counter() - t0
        return 1e3 * (total[True] - total[False]) / 2.0


class Stats50x50(Workload):
    """analyze + report through the CLI, then a permutation Kruskal-Wallis,
    on one 50x50 record file of seeded scores."""

    name = "stats-50x50"
    N, K = 50, 50
    RESAMPLES = 100
    DIVERGED = 6
    CONFIDENCE = 0.95

    def setup(self) -> None:
        harness = self.ul.harness
        rng = np.random.default_rng([self.seed, 4])
        # init effects a few times the run-to-run scatter, so Kruskal-Wallis
        # rejects and Conover-Iman runs; 4 decimals make ties
        effect = np.exp(0.08 * rng.standard_normal(self.N))
        scores = np.round(0.02 * effect[:, None] * np.exp(0.2 * rng.standard_normal((self.N, self.K))), 4)
        diverged = np.zeros(self.N * self.K, dtype=bool)
        diverged[rng.choice(self.N * self.K, self.DIVERGED, replace=False)] = True
        diverged = diverged.reshape(self.N, self.K)
        records = []
        for i in range(self.N):
            for j in range(self.K):
                v = None if diverged[i, j] else float(scores[i, j])
                records.append(harness.RunRecord(
                    experiment_id="stats", init_id=i + 1, run_id=j + 1,
                    init_seed=i + 1, run_seed=1000 * (i + 1) + j + 1,
                    init_checksum=f"{i + 1:064x}", final_loss=v, recon_rmse=v,
                    recon_sad=None if v is None else 3.0 * v,
                    abundance_rmse=None if v is None else 2.0 * v,
                    endmember_sad=None if v is None else 5.0 * v,
                    permutation=None if v is None else (0, 1, 2),
                    diverged=bool(diverged[i, j]),
                ))
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.records_path = self.work_dir / "records.jsonl"
        config = harness.ExperimentConfig(experiment_id="stats", n_inits=self.N, runs_per_init=self.K)
        harness.write_records(self.records_path, records, config)
        self.groups = [scores[i][~diverged[i]] for i in range(self.N)]
        self.scores = np.where(diverged, np.inf, scores).ravel()
        finite = np.sort(self.scores[np.isfinite(self.scores)])
        self.thresholds = [finite[0] / 2.0, finite[finite.size // 20], float(np.median(finite)), finite[-1]]

    def op(self, index: int):
        ul = self.ul
        out = self.work_dir / f"op{index:05d}"
        path = str(self.records_path)
        with contextlib.redirect_stdout(io.StringIO()):
            rc_analyze = ul.cli.main(["analyze", "--records", path, "--out", str(out / "analyze")])
            rc_report = ul.cli.main(
                ["report", "--records", path, "--out", str(out / "report"),
                 "--confidence", repr(self.CONFIDENCE), "--thresholds"]
                + [repr(float(t)) for t in self.thresholds]
            )
        h, p = ul.stats.kruskal_wallis(
            self.groups, method="permutation", n_resamples=self.RESAMPLES, seed=index
        )
        return out, rc_analyze, rc_report, h, p

    def check(self, outputs: list) -> None:
        stats = self.ul.stats
        h_ref = None
        for out, rc_analyze, rc_report, h_perm, p_perm in outputs:
            checks.require(rc_analyze == 0 and rc_report == 0,
                            f"cli exit codes {rc_analyze}, {rc_report}")
            for sub in ("analyze", "report"):
                report = checks.read_stat_report(out / sub / "stat_report.txt")
                if h_ref is None:
                    checks.check_stat_report(report, self.groups)
                    h_ref = float(report["kw_h"])
                checks.require(float(report["kw_h"]) == h_ref, f"{out / sub}: H changed between ops")
                checks.check_posthoc_matrix(out / sub / "posthoc_matrix.csv", self.N)
            checks.check_trials(out / "report" / "trials.csv", self.scores, self.CONFIDENCE)
            checks.require(checks._close(h_perm, h_ref), f"permutation H {h_perm} != {h_ref}")
            checks.require(1.0 / (self.RESAMPLES + 1) <= p_perm <= 1.0,
                            f"permutation p {p_perm} outside its range")
        checks.check_monotone_invariance(stats.kruskal_wallis, self.groups, h_ref)
        checks.check_midranks(stats.midranks(np.concatenate(self.groups)))


WORKLOADS = {cls.name: cls for cls in (SamsonGrid, Stats50x50)}


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
