"""Seeding contracts, grid determinism, divergence containment, persistence."""

import copy
import gc
import json
import math
import os
import pickle
import re
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from unmixlab import harness, nn
from unmixlab.harness import (
    ExperimentConfig,
    GradientTrace,
    RunRecord,
    extract_abundances,
    extract_endmembers,
    grid_seeds,
    read_records,
    run_experiment,
    train_once,
    write_records,
)
from unmixlab.lmm import HsiBundle, generate_endmembers, sample_abundances, synthesize
from unmixlab.seeding import mix64
from strict_records import strict_record_lines


def tiny_scene(bands=12, endmembers=2, pixels=90, pure=0.2, seed=1):
    w = generate_endmembers(bands, endmembers, smoothness=3, seed=seed)
    a = sample_abundances(endmembers, pixels, pure_fraction=pure, seed=seed + 1)
    return synthesize(w, a, seed=seed + 2, name="tiny")


def tiny_config(**overrides):
    base = dict(
        experiment_id="t", architecture="basic", loss="mse", batch_size=15,
        learning_rate=0.01, epochs=20, init_scheme="xgu", n_inits=2,
        runs_per_init=2, master_seed=7, n1=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _zero_pixel(px):
    px[:, 40] = 0.0
    return px


def _near_float_max(px):
    px[:, -3:] *= 1e154
    return px


# case -> (config overrides, pixel edit or None to keep the ground truth).
# The comments name the failure each case reaches; a pixel edit leaves the
# scene without ground truth.
FAILING_RUNS = {
    # a zero pixel has no spectral angle: sad_loss is NaN a few steps in
    "sad-zero-pixel": (dict(loss="sad", batch_size=15, epochs=3), _zero_pixel),
    # pixels near the float64 ceiling overflow the squared loss
    "pixels-near-float-max": (dict(batch_size=15, epochs=3), _near_float_max),
    # the loss is patched to hand backward an infinite gradient
    "infinite-gradient": (dict(), None),
    # one Adam step on large gradients makes a parameter infinite
    "lr-1e308-pixels-x100": (dict(learning_rate=1e308), lambda px: px * 100.0),
    # one Adam step leaves endmember columns whose norms overflow
    "lr-1e308": (dict(learning_rate=1e308), None),
    "lr-1e300": (dict(learning_rate=1e300), None),
    # with no ground truth to match, the reconstruction error is NaN
    "lr-1e300-no-ground-truth": (dict(learning_rate=1e300), lambda px: px),
}


class TestSeeding:
    def test_mix64_is_deterministic_and_spreads(self):
        assert mix64(1, 2) == mix64(1, 2)
        assert mix64(1, 2) != mix64(2, 1)
        assert mix64(0) != mix64(1)
        vals = {mix64(0, i) for i in range(1000)}
        assert len(vals) == 1000

    def test_grid_seeds_change_with_cell(self):
        s = {grid_seeds(5, i, j) for i in range(1, 4) for j in range(1, 4)}
        assert len(s) == 9
        # init seed depends only on i
        assert grid_seeds(5, 2, 1)[0] == grid_seeds(5, 2, 9)[0]

    def test_same_init_seed_same_initial_weights(self):
        config = tiny_config(epochs=1)
        data = tiny_scene()
        _, r1, _ = train_once(config, data, init_seed=11, run_seed=100)
        _, r2, _ = train_once(config, data, init_seed=11, run_seed=200)
        _, r3, _ = train_once(config, data, init_seed=12, run_seed=100)
        assert r1.init_checksum == r2.init_checksum
        assert r1.init_checksum != r3.init_checksum

    def test_run_seed_controls_shuffle_not_weights(self):
        """Different run seeds change outcomes; same pair reproduces exactly."""
        config = tiny_config(epochs=5)
        data = tiny_scene()
        _, r1, _ = train_once(config, data, init_seed=11, run_seed=100)
        _, r2, _ = train_once(config, data, init_seed=11, run_seed=100)
        _, r3, _ = train_once(config, data, init_seed=11, run_seed=101)
        assert r1.final_loss == r2.final_loss
        assert r1.recon_rmse == r2.recon_rmse
        assert r1.abundance_rmse == r2.abundance_rmse
        assert r3.final_loss != r1.final_loss


class TestTrainOnce:
    def test_loss_improves_on_zero_noise_scene(self):
        """Final training loss beats the loss of the untouched network."""
        data = tiny_scene(bands=12, endmembers=2, pixels=120)
        config = tiny_config(epochs=200, batch_size=20, learning_rate=0.005)
        init_seed, run_seed = grid_seeds(config.master_seed, 1, 1)
        net, record, _ = train_once(config, data, init_seed, run_seed)
        fresh = nn.build_network("basic", 12, 2, n1=config.n1)
        nn.initialize_network(fresh, config.init_scheme, init_seed)
        from unmixlab.metrics import mse_loss
        recon0, _, _ = nn.forward(fresh, data.pixels, mode=nn.EVAL)
        initial_loss, _ = mse_loss(data.pixels, recon0)
        assert not record.diverged
        assert record.final_loss < initial_loss

    def test_pure_pixel_scene_reconstructs_in_best_retry(self):
        """Desk-scale oracle: best of 10 seeded retries reconstructs well."""
        w = generate_endmembers(12, 2, smoothness=3, seed=3)
        a = sample_abundances(2, 120, pure_fraction=1.0, seed=4)
        data = synthesize(w, a, seed=5)
        config = tiny_config(epochs=150, batch_size=20, learning_rate=0.01)
        best = math.inf
        for retry in range(1, 11):
            iseed, rseed = grid_seeds(42, retry, 1)
            _, record, _ = train_once(config, data, iseed, rseed,
                                      log_gradients=False)
            if not record.diverged:
                best = min(best, record.recon_rmse)
        assert best < 0.05

    @pytest.mark.parametrize("case", list(FAILING_RUNS))
    def test_divergence_is_contained_and_flagged(self, case, monkeypatch, tmp_path):
        """Every way a run fails gives the same record: diverged, with no
        loss, scores or permutation, and the trace up to the failure."""
        overrides, pixels = FAILING_RUNS[case]
        data = tiny_scene(bands=16, endmembers=3, pixels=60)
        if pixels is not None:
            data = HsiBundle(pixels=pixels(data.pixels.copy()), name=case)
        if case == "infinite-gradient":
            def loss_with_infinite_gradient(x, x_hat):
                value, grad = harness.mse_loss(x, x_hat)
                grad[0, 0] = math.inf
                return value, grad
            monkeypatch.setitem(harness._LOSSES, "mse", loss_with_infinite_gradient)
        config = tiny_config(**{"batch_size": 60, "epochs": 1, "latent_dim": 3, **overrides})
        _, record, trace = train_once(config, data, 1, 3)
        assert record.diverged
        assert record.final_loss is None and record.permutation is None
        assert record.recon_rmse is None and record.recon_sad is None
        assert record.abundance_rmse is None and record.endmember_sad is None
        assert len(trace) >= 1
        write_records(tmp_path / "records.jsonl", [record])
        assert strict_record_lines(tmp_path / "records.jsonl")[1]["diverged"] is True

    def test_record_fields_and_permutation(self):
        data = tiny_scene()
        config = tiny_config(epochs=30)
        _, record, _ = train_once(config, data, 5, 6, init_id=3, run_id=4)
        assert (record.init_id, record.run_id) == (3, 4)
        assert record.wall_time > 0
        assert sorted(record.permutation) == [0, 1]
        assert 0 <= record.recon_sad <= np.pi
        assert record.abundance_rmse >= 0
        assert record.endmember_sad >= 0

    def test_missing_latent_dim_rejected(self):
        plain = HsiBundle(pixels=tiny_scene().pixels, name="no-gt")
        with pytest.raises(ValueError):
            train_once(tiny_config(), plain, 1, 2)

    def test_latent_dim_from_config_without_ground_truth(self):
        plain = HsiBundle(pixels=tiny_scene().pixels, name="no-gt")
        config = tiny_config(epochs=3, latent_dim=2)
        _, record, _ = train_once(config, plain, 1, 2)
        assert record.abundance_rmse is None
        assert record.recon_rmse is not None

    def test_peak_memory_stays_below_two_scenes(self):
        """Besides the pixels, a cell holds one scene-sized array at a time:
        the pixel-major batch source while training, the reconstruction
        while scoring (the angle works in column blocks and the RMSE
        overwrites the reconstruction)."""
        data = tiny_scene(bands=64, endmembers=3, pixels=20000, pure=0.1, seed=8)
        config = tiny_config(epochs=1, batch_size=256, n1=10, learning_rate=0.005)
        tracemalloc.start()
        try:
            _, record, _ = train_once(config, data, 1, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not record.diverged and record.recon_rmse is not None
        assert peak <= 2.0 * data.pixels.nbytes, peak / data.pixels.nbytes

    def test_original_architecture_trains(self):
        data = tiny_scene(bands=14, endmembers=2, pixels=60)
        config = tiny_config(architecture="original", gd_rate=0.1, epochs=5,
                             batch_size=10, learning_rate=0.005)
        net, record, trace = train_once(config, data, 9, 10)
        assert not record.diverged
        assert {"enc8_batch_norm", "enc9_soft_threshold"} <= set(trace.layers)


class TestGrid:
    def test_grid_shape_and_order(self):
        data = tiny_scene()
        records = run_experiment(tiny_config(epochs=3), data)
        assert [(r.init_id, r.run_id) for r in records] == [
            (1, 1), (1, 2), (2, 1), (2, 2),
        ]

    def test_grid_is_reproducible(self):
        data = tiny_scene()
        r1 = run_experiment(tiny_config(epochs=3), data)
        r2 = run_experiment(tiny_config(epochs=3), data)
        assert [r.to_json() for r in r1] == [r.to_json() for r in r2]

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        """--jobs changes no byte of the record lines or the traces."""
        # two CPUs, so jobs=2 goes through the pool on any host
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        data = tiny_scene()
        serial = run_experiment(tiny_config(epochs=3), data, out_dir=tmp_path / "s", jobs=1)
        parallel = run_experiment(tiny_config(epochs=3), data, out_dir=tmp_path / "p", jobs=2)
        assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]
        # the metadata line holds a timestamp and wall times; the rest must match
        lines = {
            name: (tmp_path / name / "records.jsonl").read_bytes().split(b"\n")[1:]
            for name in ("s", "p")
        }
        assert len(lines["s"]) == 5 and lines["s"] == lines["p"]
        traces = sorted(p.name for p in (tmp_path / "s").glob("trace_*.csv"))
        assert traces == sorted(p.name for p in (tmp_path / "p").glob("trace_*.csv"))
        assert len(traces) == 4
        for name in traces:
            assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()
        # serially the grid is one stack of four cells, on two workers two
        # stacks of two; a stack of one gives the same bytes again
        config = tiny_config(epochs=3)
        for record in serial:
            seeds = grid_seeds(config.master_seed, record.init_id, record.run_id)
            _, alone, trace = train_once(config, data, *seeds, record.init_id, record.run_id)
            assert replace(alone, trace_file=record.trace_file).to_json() == record.to_json()
            trace.to_csv(tmp_path / "alone.csv")
            assert (tmp_path / "alone.csv").read_bytes() == (
                tmp_path / "s" / record.trace_file
            ).read_bytes()

    def test_workers_without_a_blas_setter_still_run_the_grid(self, tmp_path, monkeypatch):
        """Where no numpy library exports the OpenBLAS thread setter, pool
        workers keep their BLAS threads and the grid runs as before. The
        lookup here finds one file, which does not load."""
        libs = tmp_path / "libs"
        libs.mkdir()
        (libs / "libscipy_openblas64_-0.so").write_bytes(b"not a shared library")
        monkeypatch.setattr(harness, "_NUMPY_LIBS", libs)
        harness._pin_blas_threads()
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        data = tiny_scene()
        serial = run_experiment(tiny_config(epochs=2), data, jobs=1)
        parallel = run_experiment(tiny_config(epochs=2), data, jobs=2)
        assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -5):
            with pytest.raises(ValueError, match="jobs"):
                run_experiment(tiny_config(epochs=1), tiny_scene(), jobs=jobs)

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (500, 8, 4),  # capped at the 4 cells
        (3, 2, 2),    # capped at the CPU count
        (2, None, 1),  # an unknown CPU count runs serially
        (4, 1, 1),
    ])
    def test_worker_count_is_capped(self, monkeypatch, jobs, cpus, workers):
        """The pool gets min(jobs, cells, CPUs) workers; no process starts."""
        pools = []

        class Stop(Exception):
            pass

        def record_pool(max_workers, **kwargs):
            pools.append(max_workers)
            raise Stop

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", record_pool)
        config = tiny_config(epochs=1)
        if workers == 1:
            assert len(run_experiment(config, tiny_scene(), jobs=jobs)) == 4
            assert pools == []
        else:
            with pytest.raises(Stop):
                run_experiment(config, tiny_scene(), jobs=jobs)
            assert pools == [workers]

    def test_serial_grid_keeps_no_reference_to_the_scene(self):
        data = tiny_scene()
        alive = weakref.ref(data)
        run_experiment(tiny_config(epochs=1, scale=True), data)
        del data
        gc.collect()
        assert alive() is None

    def test_each_stacks_traces_are_written_before_the_next_stack_trains(
        self, tmp_path, monkeypatch
    ):
        written_before = {}
        real = harness.train_stack

        def spy(config, data, members, log_gradients=True):
            cells = tuple((i, j) for *_, i, j in members)
            written_before[cells] = sorted(p.name for p in tmp_path.glob("trace_*.csv"))
            return real(config, data, members, log_gradients)

        monkeypatch.setattr(harness, "train_stack", spy)
        # nine cells make two stacks, of five and four cells
        run_experiment(tiny_config(epochs=1, n_inits=3, runs_per_init=3), tiny_scene(),
                       out_dir=tmp_path)
        first, second = written_before
        assert first == ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))
        assert written_before[first] == []
        assert written_before[second] == [
            f"trace_i{i:03d}_j{j:03d}.csv" for i, j in first
        ]

    def test_a_grid_of_failed_runs_is_written(self, tmp_path):
        """At a learning rate of 1e308 every cell fails; the grid still
        returns both records and writes them as strict JSON."""
        config = tiny_config(learning_rate=1e308, epochs=1, batch_size=60,
                             n_inits=2, runs_per_init=1)
        data = tiny_scene(bands=16, endmembers=3, pixels=60)
        records = run_experiment(config, data, out_dir=tmp_path)
        assert [(r.init_id, r.diverged) for r in records] == [(1, True), (2, True)]
        meta, *lines = strict_record_lines(tmp_path / "records.jsonl")
        assert meta["count"] == 2 and len(lines) == 2
        for line in lines:
            assert line["diverged"] is True and line["permutation"] is None
            assert {line[k] for k in ("final_loss", "recon_rmse", "recon_sad",
                                      "abundance_rmse", "endmember_sad")} == {None}

    def test_shared_init_checksums_within_row(self):
        data = tiny_scene()
        records = run_experiment(tiny_config(epochs=2), data)
        by_init = {}
        for r in records:
            by_init.setdefault(r.init_id, set()).add(r.init_checksum)
        assert all(len(v) == 1 for v in by_init.values())
        assert records[0].init_checksum != records[2].init_checksum

    def test_out_dir_artifacts(self, tmp_path):
        data = tiny_scene()
        records = run_experiment(tiny_config(epochs=2), data, out_dir=tmp_path)
        assert (tmp_path / "records.jsonl").exists()
        for r in records:
            assert r.trace_file is not None
            assert (tmp_path / r.trace_file).exists()
        loaded, meta = read_records(tmp_path / "records.jsonl")
        assert len(loaded) == 4
        assert meta["config"]["architecture"] == "basic"


class TestExtraction:
    def test_extract_endmembers_returns_decoder_weights(self):
        net = nn.build_network("basic", 10, 3, n1=2)
        w = np.random.default_rng(0).uniform(0.1, 1.0, (10, 3))
        np.copyto(net.decoder.weight, w)
        np.testing.assert_array_equal(extract_endmembers(net), w)
        # a copy, not a view
        extract_endmembers(net)[0, 0] = 99.0
        assert net.decoder.weight[0, 0] == w[0, 0]

    def test_extract_abundances_shape_and_simplex(self):
        data = tiny_scene(bands=10, endmembers=2, pixels=40)
        net = nn.build_network("basic", 10, 2, n1=3)
        nn.initialize_network(net, "khu", seed=1)
        ab = extract_abundances(net, data)
        assert ab.shape == (2, 40)
        assert np.all(ab >= -1e-12)
        np.testing.assert_allclose(ab.sum(axis=0), 1.0, atol=1e-6)


class TestGradientTrace:
    def test_cadence_rule(self):
        assert GradientTrace.should_log(1)
        assert GradientTrace.should_log(1000)
        assert not GradientTrace.should_log(1001)
        assert GradientTrace.should_log(1100)
        assert not GradientTrace.should_log(1150)

    def test_csv_roundtrip(self, tmp_path):
        trace = GradientTrace(["enc0_linear", "enc2_linear"])
        trace.log(1, [0.1, -0.2], [0.01, 0.02])
        trace.log(2, [0.05, -0.1], [0.005, 0.01])
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "iteration,layer,mean,std"
        loaded = GradientTrace.from_csv(path)
        assert loaded.layers == trace.layers
        assert loaded.iterations == [1, 2]
        assert loaded.means == trace.means
        assert loaded.stds == trace.stds

    def test_iterations_strictly_increase(self):
        trace = GradientTrace(["a"])
        trace.log(5, [0.0], [0.0])
        with pytest.raises(ValueError):
            trace.log(5, [0.0], [0.0])

    def test_training_logs_dense_then_sparse(self):
        data = tiny_scene(pixels=60)
        # 60 pixels / batch 15 = 4 iterations per epoch; 300 epochs = 1200
        config = tiny_config(epochs=300, batch_size=15)
        _, _, trace = train_once(config, data, 1, 2)
        assert len(trace) == 1000 + 2  # dense window plus 1100, 1200
        assert trace.iterations[-1] == 1200


class TestRecordPersistence:
    def test_roundtrip(self, tmp_path):
        data = tiny_scene()
        config = tiny_config(epochs=2)
        records = run_experiment(config, data)
        path = tmp_path / "records.jsonl"
        write_records(path, records, config)
        loaded, meta = read_records(path)
        assert [r.to_json() for r in loaded] == [r.to_json() for r in records]
        assert meta["count"] == 4
        assert "created" in meta

    def test_byte_determinism_excluding_meta_line(self, tmp_path):
        data = tiny_scene()
        config = tiny_config(epochs=2)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_records(p1, run_experiment(config, data), config)
        write_records(p2, run_experiment(config, data), config)
        lines1 = p1.read_bytes().split(b"\n")[1:]
        lines2 = p2.read_bytes().split(b"\n")[1:]
        assert lines1 == lines2

    def test_record_json_excludes_wall_time(self):
        rec = RunRecord(
            experiment_id="e", init_id=1, run_id=1, init_seed=2, run_seed=3,
            init_checksum="x", final_loss=0.5, recon_rmse=0.1, recon_sad=0.2,
            abundance_rmse=None, endmember_sad=None, permutation=None,
            diverged=False, wall_time=12.5,
        )
        payload = json.loads(rec.to_json())
        assert "wall_time" not in payload
        back = RunRecord.from_json(rec.to_json())
        assert back.recon_rmse == 0.1 and back.wall_time == 0.0

    def test_read_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"init_id": 1}\n')
        with pytest.raises(ValueError):
            read_records(path)


def _constructed(line: str) -> RunRecord:
    """A record line decoded by json.loads and built by the dataclass
    constructor, with the coercions the reader promises."""
    return _constructed_from(json.loads(line))


def _constructed_from(d: dict) -> RunRecord:
    perm = d.get("permutation")
    return RunRecord(
        experiment_id=d["experiment_id"],
        init_id=int(d["init_id"]),
        run_id=int(d["run_id"]),
        init_seed=int(d["init_seed"]),
        run_seed=int(d["run_seed"]),
        init_checksum=d["init_checksum"],
        final_loss=d.get("final_loss"),
        recon_rmse=d.get("recon_rmse"),
        recon_sad=d.get("recon_sad"),
        abundance_rmse=d.get("abundance_rmse"),
        endmember_sad=d.get("endmember_sad"),
        permutation=tuple(perm) if perm is not None else None,
        diverged=bool(d.get("diverged", False)),
        trace_file=d.get("trace_file"),
    )


REQUIRED = ('"experiment_id":"e","init_id":1,"run_id":2,"init_seed":3,'
            '"run_seed":4,"init_checksum":"c"')
RECORD_LINES = [
    # a scored run as write_records writes it
    RunRecord("e", 1, 1, 11, 12, "ab", 0.5, 0.25, 0.125, 0.1, 0.2, (2, 0, 1),
              False, trace_file="trace_1_1.csv").to_json(),
    # a diverged run: no scores, no permutation
    RunRecord("e", 1, 2, 11, 13, "ab", None, None, None, None, None, None,
              True).to_json(),
    # required keys only
    "{" + REQUIRED + "}",
    # int scores stay int, float ids become int, 0/1 flags become bool
    '{"experiment_id":"e","init_id":2.0,"run_id":1,"init_seed":5,'
    '"run_seed":6,"init_checksum":"d","recon_rmse":1,"final_loss":2,'
    '"permutation":[],"diverged":1}',
    '{' + REQUIRED + ',"diverged":0,"permutation":null,"trace_file":null}',
    # keys this version does not know are ignored
    '{' + REQUIRED + ',"extra":[1,2],"recon_sad":1e-300}',
]


class TestRecordReader:
    """read_records and from_json build records without the dataclass
    constructor; they must yield the records it yields."""

    @staticmethod
    def _file(tmp_path, body_lines, meta='{"count":1,"record_format":1}'):
        path = tmp_path / "records.jsonl"
        path.write_text("\n".join([meta] + body_lines) + "\n", encoding="utf-8")
        return path

    @staticmethod
    def _assert_same(fast, slow):
        assert fast == slow and hash(fast) == hash(slow)
        assert list(vars(fast).items()) == list(vars(slow).items())
        assert [type(v) for v in vars(fast).values()] == \
            [type(v) for v in vars(slow).values()]
        assert type(fast.diverged) is bool and type(fast.init_id) is int
        assert fast.wall_time == 0.0 and type(fast.wall_time) is float

    def test_read_records_equals_the_constructor(self, tmp_path):
        records, _ = read_records(self._file(tmp_path, RECORD_LINES))
        assert len(records) == len(RECORD_LINES)
        for fast, line in zip(records, RECORD_LINES):
            self._assert_same(fast, _constructed(line))
        assert records[2].permutation is None and records[2].trace_file is None
        assert records[3].recon_rmse == 1 and type(records[3].recon_rmse) is int
        assert records[3].permutation == () and records[3].diverged is True

    @pytest.mark.parametrize("index", range(len(RECORD_LINES)))
    def test_from_json_equals_the_constructor(self, index):
        line = RECORD_LINES[index]
        self._assert_same(RunRecord.from_json(line), _constructed(line))

    def test_fast_records_stay_frozen_dataclasses(self, tmp_path):
        (fast,), _ = read_records(self._file(tmp_path, RECORD_LINES[:1]))
        slow = _constructed(RECORD_LINES[0])
        with pytest.raises(FrozenInstanceError):
            fast.recon_rmse = 1.0
        with pytest.raises(FrozenInstanceError):
            del fast.run_id
        assert replace(fast, run_id=9) == replace(slow, run_id=9)
        assert pickle.loads(pickle.dumps(fast)) == slow
        assert copy.deepcopy(fast) == slow and repr(fast) == repr(slow)
        assert len({fast, slow}) == 1
        assert fast.to_json() == RECORD_LINES[0]

    def test_fast_records_keep_the_compact_instance_dict(self):
        """Per-key stores keep each record's dict in the class's shared-key
        layout (about 1.6x the bytes of a constructed record, which has no
        dict object); one bulk update gives every record a full dict of its
        own, about 2.7x."""
        mappings = [json.loads(line) for line in RECORD_LINES[:1] * 2000]

        def held(build):
            tracemalloc.start()
            try:
                records = [build(d) for d in mappings]
                return tracemalloc.get_traced_memory()[0] / len(records)
            finally:
                tracemalloc.stop()

        fast = held(RunRecord._from_mapping)
        slow = held(_constructed_from)
        assert fast <= 2.0 * slow, (fast, slow)

    @pytest.mark.parametrize("line", [
        " {" + REQUIRED + "}", "{" + REQUIRED + "}\t ", "\t{ " + REQUIRED + " } ",
    ], ids=["leading", "trailing", "both-and-inside"])
    def test_whitespace_around_a_line_is_accepted(self, tmp_path, line):
        (record,), _ = read_records(self._file(tmp_path, [line]))
        self._assert_same(record, _constructed(line))

    @pytest.mark.parametrize("line, message", [
        ("{" + REQUIRED + "} x", "Extra data"),
        ("{" + REQUIRED + "}{}", "Extra data"),
        ("{" + REQUIRED, "Expecting"),
        ("\ufeff{" + REQUIRED + "}", "BOM"),
        ("[1,2]", "JSON object, not list"),
        ('"text"', "JSON object, not str"),
        ("null", "JSON object, not NoneType"),
        ('{"init_id":1}', "missing key 'experiment_id'"),
        ("{" + REQUIRED.replace('"run_id":2', '"run_id":"x"') + "}", "invalid literal"),
        ("{" + REQUIRED + ',"permutation":3}', "not iterable"),
    ], ids=["trailing-text", "two-objects", "cut", "bom", "array", "string", "null",
            "missing-key", "bad-int", "bad-permutation"])
    def test_a_bad_line_names_the_path_and_line(self, tmp_path, line, message):
        good = RECORD_LINES[0]
        # blank lines are skipped but still counted: the bad line is line 5
        path = self._file(tmp_path, [good, "", "   ", line, good])
        with pytest.raises(ValueError, match=message) as info:
            read_records(path)
        assert str(info.value).startswith(f"{path}, line 5: ")
        # json.loads plus the constructor rejected it too, less legibly
        with pytest.raises((ValueError, KeyError, TypeError, AttributeError)):
            _constructed(line)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_any_newline_convention_reads_the_same(self, tmp_path, newline):
        path = tmp_path / "records.jsonl"
        meta = '{"count":6,"record_format":1}'
        path.write_bytes(newline.join([meta] + RECORD_LINES).encode())
        records, _ = read_records(path)
        for fast, line in zip(records, RECORD_LINES, strict=True):
            self._assert_same(fast, _constructed(line))

    def test_a_bad_metadata_line_names_the_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('\n{"record_format":1,\n')
        with pytest.raises(ValueError, match=r"line 2: Expecting"):
            read_records(path)
        path.write_text('["record_format"]\n')
        with pytest.raises(ValueError, match="metadata line"):
            read_records(path)

    def test_the_library_reader_does_not_check_count(self, tmp_path):
        """A cut file reads; the CLI, not the library, checks count."""
        records, meta = read_records(self._file(
            tmp_path, RECORD_LINES[:2], meta='{"count":5,"record_format":1}'))
        assert len(records) == 2 and meta["count"] == 5


class TestConfig:
    def test_from_mapping_table_style(self):
        config = ExperimentConfig.from_mapping({
            "experiment_id": "4", "architecture": "basic", "loss": "MSE",
            "dataset": "samson", "encoder": "10E", "batch_size": 4,
            "learning_rate": 0.0001, "gd": "-", "init": "KHU",
            "N": 50, "k": 50, "master_seed": 9,
        })
        assert config.n1 == 10
        assert config.loss == "mse"
        assert config.gd_rate == 0.0
        assert config.init_scheme == "he_uniform"
        assert config.epochs == 400  # basic-architecture default

    def test_original_default_epochs(self):
        config = ExperimentConfig.from_mapping(
            {"architecture": "original", "loss": "sad", "gd": 0.1}
        )
        assert config.epochs == 100

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_mapping({"architecture": "basic", "typo": 1})

    def test_mapping_roundtrip(self):
        config = tiny_config()
        again = ExperimentConfig.from_mapping(config.to_mapping())
        assert again == config

    def test_scale_takes_only_a_flag(self):
        for value, scale in ((True, True), (False, False), (1, True), (0, False)):
            assert ExperimentConfig.from_mapping({"scale": value}).scale is scale
        # bool("False") and bool("false") are True
        for value in ("False", "false", "true", 2, 0.5, None):
            with pytest.raises(ValueError, match="scale"):
                ExperimentConfig.from_mapping({"scale": value})

    def test_integer_keys_reject_fractions(self):
        config = ExperimentConfig.from_mapping(
            {"batch_size": 20.0, "N": "3", "encoder": 4.0, "endmembers": 5}
        )
        assert (config.batch_size, config.n_inits, config.n1, config.latent_dim) == (20, 3, 4, 5)
        for key in ("batch_size", "epochs", "N", "k", "master_seed", "encoder", "endmembers"):
            for value in (2.7, True, float("inf")):
                with pytest.raises(ValueError, match=key):
                    ExperimentConfig.from_mapping({key: value})

    def test_echo_is_pinned(self):
        """The metadata line's config echo, which report reads its loss
        from, for the default config and one with every key set."""
        assert ExperimentConfig().to_mapping() == {
            "experiment_id": "exp", "architecture": "basic", "loss": "mse",
            "dataset": "", "encoder": "10E", "batch_size": 20,
            "learning_rate": 0.01, "gd": 0.0, "epochs": 400,
            "init": "glorot_uniform", "N": 50, "k": 50, "master_seed": 0,
            "scale": False,
        }
        every_key = {
            "experiment_id": 7, "architecture": " Original", "loss": "SAD",
            "dataset": "samson", "encoder": "3e", "batch_size": "8",
            "learning_rate": "0.5", "gd": 0.25, "epochs": 12.0, "init": "khn",
            "N": 3, "k": 4, "master_seed": 11, "scale": 1, "endmembers": 5,
        }
        assert set(every_key) == set(harness._CONFIG_KEYS)
        echo = ExperimentConfig.from_mapping(every_key).to_mapping()
        assert echo == {
            "experiment_id": "7", "architecture": "original", "loss": "sad",
            "dataset": "samson", "encoder": "3E", "batch_size": 8,
            "learning_rate": 0.5, "gd": 0.25, "epochs": 12,
            "init": "he_normal", "N": 3, "k": 4, "master_seed": 11,
            "scale": True, "endmembers": 5,
        }
        assert ExperimentConfig.from_mapping(echo).to_mapping() == echo

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", True), ("learning_rate", False),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("learning_rate", "NaN"), ("learning_rate", "x"), ("learning_rate", None),
        ("gd", False), ("gd", True), ("gd", float("nan")),
        ("encoder", "abcE"), ("N", None), ("k", "two"),
        ("experiment_id", True), ("architecture", None),
    ])
    def test_a_bad_value_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            ExperimentConfig.from_mapping({key: value})

    @pytest.mark.parametrize("key, field", [
        ("encoder", "n1"), ("gd", "gd_rate"), ("epochs", "epochs"),
        ("endmembers", "latent_dim"),
    ])
    def test_a_blank_value_keeps_the_default(self, key, field):
        default = getattr(ExperimentConfig(), field)
        for blank in (None, "", " - "):
            config = ExperimentConfig.from_mapping({key: blank})
            assert getattr(config, field) == default

    def test_every_key_is_in_the_readme(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        sentence = re.search(r"Config keys:(.*?)\.\s", readme, re.S).group(1)
        named = set(re.findall(r"`(\w+)`", sentence))
        assert set(harness._CONFIG_KEYS) <= named

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(architecture="original", batch_size=1)
        with pytest.raises(ValueError):
            ExperimentConfig(loss="mae")
        with pytest.raises(ValueError):
            ExperimentConfig(gd_rate=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(n_inits=0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate"):
                ExperimentConfig(learning_rate=value)
