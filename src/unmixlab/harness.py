"""Seeded training runs and the N-initializations x k-repetitions grid.

Every grid cell (i, j) trains one autoencoder. Weights come only from the
cell's init seed, while batch shuffling and dropout noise come only from the
run seed, so cells sharing an init seed start from identical weights. Both
seeds derive from the master seed through the documented mix64 function:
init_seed_i = mix64(master_seed, i) and run_seed_ij = mix64(master_seed, i, j).

Records persist as JSON lines behind a single metadata line; all timestamps
and wall times are confined to that metadata line so reruns with the same
configuration reproduce the record lines byte for byte. Gradient traces
persist as CSV with columns iteration, layer, mean, std.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import nn
from .lmm import HsiBundle, min_max_scale
from .metrics import (
    MAX_EXHAUSTIVE_ENDMEMBERS,
    DegenerateSpectrumError,
    lenient_angles,
    mse_loss,
    rmse_overwriting,
    sad_loss,
    unmixing_errors,
)
from .seeding import mix64

RECORD_FORMAT = 1
TRACE_DENSE_ITERATIONS = 1000
TRACE_SPARSE_EVERY = 100

_DEFAULT_EPOCHS = {"original": 100, "basic": 400}
_LOSSES = {"mse": mse_loss, "sad": sad_loss}

_CONFIG_KEYS = (
    "experiment_id", "architecture", "loss", "dataset", "encoder",
    "batch_size", "learning_rate", "gd", "epochs", "init", "N", "k",
    "master_seed", "scale", "endmembers",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment row: architecture, loss, and grid hyperparameters."""

    experiment_id: str = "exp"
    architecture: str = "basic"
    loss: str = "mse"
    dataset: str = ""
    n1: int = 10
    batch_size: int = 20
    learning_rate: float = 0.01
    gd_rate: float = 0.0
    epochs: int | None = None
    init_scheme: str = "glorot_uniform"
    n_inits: int = 50
    runs_per_init: int = 50
    master_seed: int = 0
    scale: bool = False
    latent_dim: int | None = None

    def __post_init__(self):
        if self.architecture not in ("original", "basic"):
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.loss not in _LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}; expected mse or sad")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.architecture == "original" and self.batch_size < 2:
            raise ValueError("original architecture trains with batch_size >= 2")
        if self.n1 < 1:
            raise ValueError("encoder multiplier must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.gd_rate < 1.0:
            raise ValueError("gd rate must lie in [0, 1)")
        if self.epochs is None:
            object.__setattr__(self, "epochs", _DEFAULT_EPOCHS[self.architecture])
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.n_inits < 1 or self.runs_per_init < 1:
            raise ValueError("N and k must be >= 1")
        object.__setattr__(
            self, "init_scheme", nn.normalize_init_scheme(self.init_scheme)
        )

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        """Build a config from table-style keys (architecture, loss, dataset,
        encoder, batch_size, learning_rate, gd, epochs, init, N, k,
        master_seed, scale, endmembers)."""
        unknown = set(mapping) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs: dict = {}
        if "experiment_id" in mapping:
            kwargs["experiment_id"] = str(mapping["experiment_id"])
        if "architecture" in mapping:
            kwargs["architecture"] = str(mapping["architecture"]).strip().lower()
        if "loss" in mapping:
            kwargs["loss"] = str(mapping["loss"]).strip().lower()
        if "dataset" in mapping:
            kwargs["dataset"] = str(mapping["dataset"])
        if "encoder" in mapping:
            kwargs["n1"] = _parse_encoder(mapping["encoder"])
        if "batch_size" in mapping:
            kwargs["batch_size"] = int(mapping["batch_size"])
        if "learning_rate" in mapping:
            kwargs["learning_rate"] = float(mapping["learning_rate"])
        if "gd" in mapping:
            kwargs["gd_rate"] = _parse_optional_float(mapping["gd"], 0.0)
        if "epochs" in mapping and mapping["epochs"] is not None:
            kwargs["epochs"] = int(mapping["epochs"])
        if "init" in mapping:
            kwargs["init_scheme"] = str(mapping["init"])
        if "N" in mapping:
            kwargs["n_inits"] = int(mapping["N"])
        if "k" in mapping:
            kwargs["runs_per_init"] = int(mapping["k"])
        if "master_seed" in mapping:
            kwargs["master_seed"] = int(mapping["master_seed"])
        if "scale" in mapping:
            kwargs["scale"] = bool(mapping["scale"])
        if "endmembers" in mapping and mapping["endmembers"] is not None:
            kwargs["latent_dim"] = int(mapping["endmembers"])
        return cls(**kwargs)

    def to_mapping(self) -> dict:
        out = {
            "experiment_id": self.experiment_id,
            "architecture": self.architecture,
            "loss": self.loss,
            "dataset": self.dataset,
            "encoder": f"{self.n1}E",
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "gd": self.gd_rate,
            "epochs": self.epochs,
            "init": self.init_scheme,
            "N": self.n_inits,
            "k": self.runs_per_init,
            "master_seed": self.master_seed,
            "scale": self.scale,
        }
        if self.latent_dim is not None:
            out["endmembers"] = self.latent_dim
        return out


def _parse_encoder(value) -> int:
    if value is None:
        return 10
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("", "-"):
            return 10
        if text.endswith("e"):
            text = text[:-1]
        return int(text)
    return int(value)


def _parse_optional_float(value, default: float) -> float:
    if value is None:
        return default
    if isinstance(value, str) and value.strip() in ("", "-"):
        return default
    return float(value)


def load_config(path) -> ExperimentConfig:
    """Read a JSON config file with table-style keys."""
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_mapping(json.load(fh))


@dataclass(frozen=True)
class RunRecord:
    """Scores and provenance of one trained model in the grid."""

    experiment_id: str
    init_id: int
    run_id: int
    init_seed: int
    run_seed: int
    init_checksum: str
    final_loss: float | None
    recon_rmse: float | None
    recon_sad: float | None
    abundance_rmse: float | None
    endmember_sad: float | None
    permutation: tuple[int, ...] | None
    diverged: bool
    wall_time: float = 0.0
    trace_file: str | None = None

    def to_json(self) -> str:
        # wall_time deliberately stays out: record lines must be
        # byte-reproducible across reruns.
        payload = {
            "experiment_id": self.experiment_id,
            "init_id": self.init_id,
            "run_id": self.run_id,
            "init_seed": self.init_seed,
            "run_seed": self.run_seed,
            "init_checksum": self.init_checksum,
            "final_loss": self.final_loss,
            "recon_rmse": self.recon_rmse,
            "recon_sad": self.recon_sad,
            "abundance_rmse": self.abundance_rmse,
            "endmember_sad": self.endmember_sad,
            "permutation": list(self.permutation) if self.permutation else None,
            "diverged": self.diverged,
            "trace_file": self.trace_file,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        return cls._from_mapping(json.loads(line))

    @classmethod
    def _from_mapping(cls, d) -> "RunRecord":
        """The record of one decoded line, built without the frozen
        __init__, whose one object.__setattr__ per field costs more than
        the decode. The values and their types are the ones the
        constructor got: int ids and seeds, a tuple permutation, a bool
        diverged flag, no wall time, and None for a missing optional key.
        Fields are stored one key at a time, in field order: that keeps the
        instance dict in the class's shared-key layout, where a bulk
        update would give each record a full dict of its own."""
        if not isinstance(d, dict):
            raise ValueError(f"a record must be a JSON object, not {type(d).__name__}")
        perm = d.get("permutation")
        record = object.__new__(cls)
        fields = record.__dict__
        fields["experiment_id"] = d["experiment_id"]
        fields["init_id"] = int(d["init_id"])
        fields["run_id"] = int(d["run_id"])
        fields["init_seed"] = int(d["init_seed"])
        fields["run_seed"] = int(d["run_seed"])
        fields["init_checksum"] = d["init_checksum"]
        fields["final_loss"] = d.get("final_loss")
        fields["recon_rmse"] = d.get("recon_rmse")
        fields["recon_sad"] = d.get("recon_sad")
        fields["abundance_rmse"] = d.get("abundance_rmse")
        fields["endmember_sad"] = d.get("endmember_sad")
        fields["permutation"] = tuple(perm) if perm is not None else None
        fields["diverged"] = bool(d.get("diverged", False))
        fields["wall_time"] = 0.0
        fields["trace_file"] = d.get("trace_file")
        return record


class GradientTrace:
    """Per-iteration mean and std of gradient entries for each encoder layer.

    Dense for the first 1000 iterations, then every 100th. Rows serialize
    one (iteration, layer) pair at a time.
    """

    def __init__(self, layers: Sequence[str]):
        self.layers = list(layers)
        self.iterations: list[int] = []
        self.means: list[list[float]] = []
        self.stds: list[list[float]] = []

    @staticmethod
    def should_log(iteration: int) -> bool:
        return iteration <= TRACE_DENSE_ITERATIONS or iteration % TRACE_SPARSE_EVERY == 0

    def log(self, iteration: int, means: Sequence[float], stds: Sequence[float]):
        if self.iterations and iteration <= self.iterations[-1]:
            raise ValueError("iterations must be strictly increasing")
        self.iterations.append(iteration)
        self.means.append([float(m) for m in means])
        self.stds.append([float(s) for s in stds])

    def __len__(self) -> int:
        return len(self.iterations)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "layer", "mean", "std"])
            for it, means, stds in zip(self.iterations, self.means, self.stds):
                for layer, m, s in zip(self.layers, means, stds):
                    writer.writerow([it, layer, repr(m), repr(s)])

    @classmethod
    def from_csv(cls, path) -> "GradientTrace":
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != ["iteration", "layer", "mean", "std"]:
                raise ValueError(f"unexpected trace header {header}")
            rows = [(int(r[0]), r[1], float(r[2]), float(r[3])) for r in reader]
        layers: list[str] = []
        for it, layer, _, _ in rows:
            if it != rows[0][0]:
                break
            layers.append(layer)
        trace = cls(layers)
        per = len(layers)
        if per == 0 or len(rows) % per != 0:
            raise ValueError("trace rows do not tile the layer list")
        for base in range(0, len(rows), per):
            chunk = rows[base : base + per]
            if [c[1] for c in chunk] != layers:
                raise ValueError("inconsistent layer order in trace")
            trace.log(chunk[0][0], [c[2] for c in chunk], [c[3] for c in chunk])
        return trace


def _trainable_encoder_layers(net: nn.Network) -> list[tuple[str, slice]]:
    """(trace name, slice of net.flat_grads) per encoder layer with
    parameters; a layer's parameters are adjacent in the arena."""
    out = []
    for i, layer in enumerate(net.encoder):
        slices = [net.param_slices[f"enc{i}.{k}"] for k in layer.params]
        if slices:
            out.append((f"enc{i}_{layer.kind}", slice(slices[0].start, slices[-1].stop)))
    return out


def _mean_std(g: np.ndarray) -> tuple[float, float]:
    """(g.mean(), g.std()) with numpy's own operation order, bit for bit,
    but one pass fewer: the sum of g is taken once for both."""
    mean = np.add.reduce(g) / g.size
    dev = g - mean
    np.square(dev, out=dev)
    return float(mean), float(np.sqrt(np.add.reduce(dev) / g.size))


def _check_scorable(data: HsiBundle) -> None:
    """Reject ground truth that unmixing_errors cannot match, before any
    training is spent on it."""
    count = data.endmember_count
    if count is not None and count > MAX_EXHAUSTIVE_ENDMEMBERS:
        raise ValueError(
            f"ground truth has {count} endmembers; scoring matches at most "
            f"{MAX_EXHAUSTIVE_ENDMEMBERS} by exhaustive search"
        )


def _resolve_latent_dim(config: ExperimentConfig, data: HsiBundle) -> int:
    if data.ground_truth is not None:
        return data.ground_truth.endmember_count
    if config.latent_dim is not None:
        return config.latent_dim
    raise ValueError(
        "latent dimension unknown: bundle has no ground truth and the config "
        "does not set 'endmembers'"
    )


def train_once(
    config: ExperimentConfig,
    data: HsiBundle,
    init_seed: int,
    run_seed: int,
    init_id: int = 1,
    run_id: int = 1,
    log_gradients: bool = True,
) -> tuple[nn.Network, RunRecord, GradientTrace]:
    """Train one autoencoder and score it against the bundle's ground truth.

    Weights depend on init_seed only; batch order and dropout noise depend on
    run_seed only. Mini-batches keep the last short batch, except that a
    single-pixel batch is skipped when the network holds batch normalization
    (which needs batch statistics). A non-finite loss or gradient marks the
    record diverged, stops the run, and leaves the metric fields empty; the
    gradient trace is kept up to the failure iteration.
    """
    t0 = time.perf_counter()
    _check_scorable(data)
    bundle = data
    if config.scale:
        bundle, _ = min_max_scale(data)
    latent = _resolve_latent_dim(config, bundle)
    net = nn.build_network(
        config.architecture, bundle.bands, latent,
        n1=config.n1, gd_rate=config.gd_rate,
    )
    nn.initialize_network(net, config.init_scheme, init_seed)
    init_checksum = net.parameter_checksum()
    state = nn.AdamState(learning_rate=config.learning_rate)
    loss_fn = _LOSSES[config.loss]
    has_bn = any(layer.kind == "batch_norm" for layer in net.encoder)

    traced = _trainable_encoder_layers(net)
    trace = GradientTrace([name for name, _ in traced])

    x = bundle.pixels
    m = x.shape[1]
    # Batches come from a pixel-major copy: the row gather xt[idx] is about
    # ten times cheaper than the column gather x[:, idx] at B=156, and its
    # transpose is the F-ordered (bands x batch) array x[:, idx] returns, so
    # every matmul sees the same operand layout and rounds the same.
    xt = np.ascontiguousarray(x.T)
    # the step's activations and input gradients live in reused buffers;
    # the pixels were checked for finiteness when the bundle was built
    workspace = nn.Workspace(net)
    rng_run = np.random.default_rng(run_seed)
    iteration = 0
    diverged = False
    final_loss: float | None = None

    # overflow inside a failing run is contained via the diverged flag, so
    # numpy warnings are noise here
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(config.epochs):
            order = rng_run.permutation(m)
            for start in range(0, m, config.batch_size):
                idx = order[start : start + config.batch_size]
                if idx.size == 1 and has_bn:
                    continue
                xb = xt[idx].T
                dropout_seed = int(rng_run.integers(0, 2**63))
                iteration += 1
                try:
                    recon, _, cache = nn.forward(
                        net, xb, mode=nn.TRAIN, seed=dropout_seed,
                        workspace=workspace,
                    )
                    value, loss_grad = loss_fn(xb, recon)
                except DegenerateSpectrumError:
                    diverged = True
                    break
                if not math.isfinite(value):
                    diverged = True
                    break
                final_loss = value
                nn.backward(net, cache, loss_grad)
                if log_gradients and trace.should_log(iteration):
                    stats = [_mean_std(net.flat_grads[sl]) for _, sl in traced]
                    trace.log(
                        iteration, [s[0] for s in stats], [s[1] for s in stats]
                    )
                try:
                    nn.apply_gradients(net, state)
                except nn.DivergenceError:
                    diverged = True
                    break
            if diverged:
                break
    del xt, workspace  # before the full-scene forward

    recon_rmse = recon_sad = abundance_rmse = endmember_sad = None
    permutation = None
    if not diverged:
        # The scene-sized arrays here are x and recon: the angle works in
        # column blocks, the RMSE then overwrites recon, and the eval cache
        # (every hidden activation of the scene) is dropped at once.
        recon, abundances = nn.forward(net, x, mode=nn.EVAL)[:2]
        recon_sad = float(lenient_angles(x, recon).mean())
        recon_rmse = rmse_overwriting(x, recon)
        if bundle.ground_truth is not None:
            try:
                pair, permutation = unmixing_errors(
                    bundle.ground_truth.endmembers,
                    bundle.ground_truth.abundances,
                    extract_endmembers(net),
                    abundances,
                )
                abundance_rmse = pair.abundance_rmse
                endmember_sad = pair.endmember_sad
            except DegenerateSpectrumError:
                # A dead endmember column is a failed solution.
                diverged = True
                recon_rmse = recon_sad = None

    record = RunRecord(
        experiment_id=config.experiment_id,
        init_id=init_id,
        run_id=run_id,
        init_seed=int(init_seed),
        run_seed=int(run_seed),
        init_checksum=init_checksum,
        final_loss=final_loss if not diverged else None,
        recon_rmse=recon_rmse,
        recon_sad=recon_sad,
        abundance_rmse=abundance_rmse,
        endmember_sad=endmember_sad,
        permutation=permutation,
        diverged=diverged,
        wall_time=time.perf_counter() - t0,
    )
    return net, record, trace


def grid_seeds(master_seed: int, init_id: int, run_id: int) -> tuple[int, int]:
    """(init_seed, run_seed) for grid cell (init_id, run_id), both 1-based."""
    return mix64(master_seed, init_id), mix64(master_seed, init_id, run_id)


_WORKER_STATE: dict = {}


def _worker_init(config: ExperimentConfig, data: HsiBundle) -> None:
    _WORKER_STATE["config"] = config
    _WORKER_STATE["data"] = data


def _worker_cell(cell: tuple[int, int]):
    i, j = cell
    config = _WORKER_STATE["config"]
    data = _WORKER_STATE["data"]
    init_seed, run_seed = grid_seeds(config.master_seed, i, j)
    _, record, trace = train_once(
        config, data, init_seed, run_seed, init_id=i, run_id=j
    )
    return record, trace


def run_experiment(
    config: ExperimentConfig,
    data: HsiBundle,
    out_dir=None,
    jobs: int = 1,
) -> list[RunRecord]:
    """Run the full N x k grid; output order is (init_id, run_id) regardless
    of scheduling.

    With out_dir set, gradient traces are written as CSV files, records gain
    their trace_file reference, and the record file records.jsonl is written.
    Divergence in a cell is contained in that cell's record.
    """
    _check_scorable(data)
    cells = [
        (i, j)
        for i in range(1, config.n_inits + 1)
        for j in range(1, config.runs_per_init + 1)
    ]
    results: dict[tuple[int, int], tuple[RunRecord, GradientTrace]] = {}
    if jobs <= 1:
        _worker_init(config, data)
        for cell in cells:
            record, trace = _worker_cell(cell)
            results[cell] = (record, trace)
    else:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_worker_init, initargs=(config, data)
        ) as pool:
            for cell, payload in zip(cells, pool.map(_worker_cell, cells)):
                results[cell] = payload

    records: list[RunRecord] = []
    traces: list[GradientTrace] = []
    for cell in sorted(results):
        record, trace = results[cell]
        records.append(record)
        traces.append(trace)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        named = []
        for record, trace in zip(records, traces):
            fname = f"trace_i{record.init_id:03d}_j{record.run_id:03d}.csv"
            trace.to_csv(out / fname)
            named.append(replace(record, trace_file=fname))
        records = named
        write_records(out / "records.jsonl", records, config)
    return records


def extract_endmembers(net: nn.Network) -> np.ndarray:
    """Decoder weight columns, read as the estimated endmember spectra."""
    return net.decoder.weight.copy()


def extract_abundances(net: nn.Network, data) -> np.ndarray:
    """Eval-mode abundance matrix (E x M) for a bundle or pixel matrix."""
    x = data.pixels if isinstance(data, HsiBundle) else np.asarray(data)
    _, abundances, _ = nn.forward(net, x, mode=nn.EVAL)
    return abundances


def write_records(
    path, records: Iterable[RunRecord], config: ExperimentConfig | None = None,
) -> None:
    """Write the metadata line plus one JSON record per line."""
    records = list(records)
    meta = {
        "record_format": RECORD_FORMAT,
        "created": datetime.now(timezone.utc).isoformat(),
        "total_wall_time": sum(r.wall_time for r in records),
        "count": len(records),
    }
    if config is not None:
        meta["config"] = config.to_mapping()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
        for record in records:
            fh.write(record.to_json() + "\n")


def read_records(path) -> tuple[list[RunRecord], dict]:
    """Read a record file; returns (records, metadata).

    The file is read line by line (LF, CRLF or CR newlines), so it is
    never held whole beside its records. Blank lines are skipped. A line
    that is not JSON, not an object, or lacks a required key raises
    ValueError naming the path and its 1-based line number. The metadata
    line must hold a record_format key, but neither it nor count is
    compared with what was read: a cut file reads without error, and the
    CLI makes those checks.
    """
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
        build = RunRecord._from_mapping
        for number, line in numbered:
            try:
                records.append(build(json.loads(line)))
            except KeyError as exc:
                raise ValueError(f"{path}, line {number}: missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}, line {number}: {exc}") from exc
    return records, meta
