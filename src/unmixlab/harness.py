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
import ctypes
import json
import math
import os
import time
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import nn
from .lmm import GroundTruth, HsiBundle, min_max_scale
from .metrics import (
    DegenerateSpectrumError,
    column_norms,
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
# a training step's losses: each forms its gradient in the reconstruction
# x_hat, the decoder's train slot, which backward does not read
_LOSSES = {
    "mse": lambda x, x_hat: mse_loss(x, x_hat, out=x_hat),
    "sad": lambda x, x_hat: sad_loss(x, x_hat, out=x_hat),
}


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
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
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
        """Build a config from the table-style keys of _CONFIG_KEYS. A value
        its key's parser rejects raises ValueError naming the key; a blank
        value, which a parser returns as None, keeps the field's default."""
        unknown = set(mapping) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for key, value in mapping.items():
            field, parse = _CONFIG_KEYS[key]
            try:
                parsed = parse(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
            if parsed is not None:
                kwargs[field] = parsed
        return cls(**kwargs)

    def to_mapping(self) -> dict:
        """The table-style keys that from_mapping reads back to this config;
        endmembers is left out when it is unset."""
        out = {key: getattr(self, field) for key, (field, _) in _CONFIG_KEYS.items()}
        out["encoder"] = f"{self.n1}E"
        if self.latent_dim is None:
            del out["endmembers"]
        return out


def _parse_text(value) -> str:
    if value is None or isinstance(value, bool):
        raise ValueError(f"must be text, not {value!r}")
    return str(value)


def _parse_name(value) -> str:
    """A case-insensitive choice, such as an architecture or a loss."""
    return _parse_text(value).strip().lower()


def _parse_int(value) -> int:
    """An int, an integral float or an integer string; a bool or a
    fraction is rejected rather than truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"must be an integer, not {value!r}")
    return int(value)


def _parse_float(value) -> float:
    """A finite number or number string; a bool is rejected rather than
    read as 0.0 or 1.0."""
    if isinstance(value, bool):
        raise ValueError(f"must be a number, not {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be finite, not {value!r}")
    return number


def _parse_flag(value) -> bool:
    """A JSON boolean, or 0 or 1. Strings are rejected, because
    bool("false") is True."""
    if isinstance(value, (bool, int)) and value in (0, 1):
        return bool(value)
    raise ValueError(f"must be true or false, not {value!r}")


def _parse_encoder(value) -> int:
    """The first hidden width as a multiple of E: "10E", "10" or 10."""
    if isinstance(value, str):
        value = value.strip().lower().removesuffix("e")
    return _parse_int(value)


def _blank_keeps_default(parse):
    """parse, except that a blank value (null, "" or "-", as a table leaves
    a cell empty) gives None, so the field keeps its default."""
    def parse_or_blank(value):
        if value is None or (isinstance(value, str) and value.strip() in ("", "-")):
            return None
        return parse(value)
    return parse_or_blank


# table key -> (ExperimentConfig field, parser): the one list of config keys
# that from_mapping, to_mapping and the unknown-key check read
_CONFIG_KEYS = {
    "experiment_id": ("experiment_id", _parse_text),
    "architecture": ("architecture", _parse_name),
    "loss": ("loss", _parse_name),
    "dataset": ("dataset", _parse_text),
    "encoder": ("n1", _blank_keeps_default(_parse_encoder)),
    "batch_size": ("batch_size", _parse_int),
    "learning_rate": ("learning_rate", _parse_float),
    "gd": ("gd_rate", _blank_keeps_default(_parse_float)),
    "epochs": ("epochs", _blank_keeps_default(_parse_int)),
    "init": ("init_scheme", _parse_text),
    "N": ("n_inits", _parse_int),
    "k": ("runs_per_init", _parse_int),
    "master_seed": ("master_seed", _parse_int),
    "scale": ("scale", _parse_flag),
    "endmembers": ("latent_dim", _blank_keeps_default(_parse_int)),
}


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
        payload = {name: getattr(self, name) for name in _RECORD_JSON_FIELDS}
        payload["permutation"] = list(self.permutation) if self.permutation else None
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


_RECORD_JSON_FIELDS = [f.name for f in fields(RunRecord) if f.name != "wall_time"]


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
        """Write the rows as one text, with csv.writer's bytes: "\r\n"
        line ends, and no field here needs quotes."""
        rows = ["iteration,layer,mean,std\r\n"]
        for it, means, stds in zip(self.iterations, self.means, self.stds):
            for layer, m, s in zip(self.layers, means, stds):
                rows.append(f"{it},{layer},{m!r},{s!r}\r\n")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("".join(rows))

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


def _mean_std(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g.mean(axis=-1), g.std(axis=-1)), each row with the bits of numpy's
    own g[r].mean() and g[r].std(), but one pass fewer: the sum of a row
    is taken once for both."""
    n = g.shape[-1]
    mean = np.add.reduce(g, axis=-1) / n
    dev = g - mean[..., None]
    np.square(dev, out=dev)
    return mean, np.sqrt(np.add.reduce(dev, axis=-1) / n)


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
    """Train one autoencoder and score it against the bundle's ground truth:
    train_stack with one member."""
    return train_stack(
        config, data, [(init_seed, run_seed, init_id, run_id)], log_gradients
    )[0]


def train_stack(
    config: ExperimentConfig,
    data: HsiBundle,
    members: Sequence[tuple[int, int, int, int]],
    log_gradients: bool = True,
) -> list[tuple[nn.Network, RunRecord, GradientTrace]]:
    """Train one autoencoder per (init_seed, run_seed, init_id, run_id) of
    members as one stacked model, and score each against the bundle's
    ground truth; returns each member's (network, record, trace) in order.

    Weights depend on init_seed only; batch order and dropout noise depend on
    run_seed only. Mini-batches keep the last short batch, except that a
    single-pixel batch is skipped when the network holds batch normalization
    (which needs batch statistics). A member's network, record and trace do
    not depend on the other members: they are the bits of a stack of one.

    A run fails on a zero-norm column in the SAD loss, a non-finite loss or
    gradient, a non-finite parameter after the last step, an endmember
    column whose norm is zero or overflows at scoring, or a non-finite
    score. A member that fails in training is frozen at that step while the
    others go on; one handler here turns a failure of either phase into a
    diverged record whose loss, scores and permutation are empty. The
    gradient trace is kept up to the failing iteration, and the network
    holds the member's state when it failed.
    """
    t0 = time.perf_counter()
    bundle = data
    if config.scale:
        bundle, _ = min_max_scale(data)
    latent = _resolve_latent_dim(config, bundle)
    stack = nn.build_network(
        config.architecture, bundle.bands, latent,
        n1=config.n1, gd_rate=config.gd_rate, members=len(members),
    )
    nn.initialize_network(stack, config.init_scheme, [seed for seed, *_ in members])
    checksums = [stack.parameter_checksum(r) for r in range(len(members))]
    traced = _trainable_encoder_layers(stack)
    traces = [GradientTrace([name for name, _ in traced]) for _ in members]
    # numpy's overflow warnings are noise: a failing run is caught below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nets, losses = _fit(
            stack, config, bundle.pixels, [run_seed for _, run_seed, *_ in members],
            traces if log_gradients else None, traced,
        )
        del stack  # scoring holds no train slots
        scene = _Scene(bundle.pixels, column_norms(bundle.pixels), bundle.ground_truth)
        share = (time.perf_counter() - t0) / len(members)
        out = []
        for net, loss, trace, checksum, (init_seed, run_seed, init_id, run_id) in zip(
            nets, losses, traces, checksums, members
        ):
            t_score = time.perf_counter()
            diverged = loss is _FROZEN
            if not diverged:
                try:
                    scores = _score(net, scene)
                except (DegenerateSpectrumError, nn.DivergenceError):
                    diverged = True
            if diverged:
                loss, scores = None, dict.fromkeys(_SCORE_FIELDS)
            record = RunRecord(
                experiment_id=config.experiment_id,
                init_id=init_id,
                run_id=run_id,
                init_seed=int(init_seed),
                run_seed=int(run_seed),
                init_checksum=checksum,
                final_loss=loss,
                **scores,
                diverged=diverged,
                wall_time=share + time.perf_counter() - t_score,
            )
            out.append((net, record, trace))
    return out


# the loss _fit returns for a member that failed in training
_FROZEN = object()


def _fit(stack, config, x, run_seeds, traces, traced) -> tuple[list, list]:
    """Train the initialized stack on the columns of x, member r from
    run_seeds[r] and logging into traces[r]; returns each member's network
    (a stack.member copy) and last loss, or _FROZEN for a member that
    failed: a NaN loss (the SAD loss's zero-norm column, or a non-finite
    loss), a non-finite gradient, or a non-finite parameter after the last
    step. A failing member is copied out as it leaves the stack at that
    step; the others are copied out at the end.
    """
    # Batches come from a pixel-major copy: the row gather xt[idx] is about
    # ten times cheaper than the column gather x[:, idx] at B=156, and its
    # transposed slices are the F-ordered (bands x batch) arrays x[:, idx]
    # returns, so every matmul sees the same operand layout and rounds the
    # same.
    xt = np.ascontiguousarray(x.T)
    state = nn.AdamState(learning_rate=config.learning_rate)
    loss_fn = _LOSSES[config.loss]
    has_bn = any(layer.kind == "batch_norm" for layer in stack.encoder)
    m, bs = x.shape[1], config.batch_size
    starts = [s for s in range(0, m, bs) if not (has_bn and min(s + bs, m) - s == 1)]
    rngs = [np.random.default_rng(seed) for seed in run_seeds]
    live = list(range(stack.members))  # the member each stack position trains
    nets: list = [None] * stack.members
    losses: list = [None] * stack.members
    gathered: dict = {}  # the batch array of each stack shape, overwritten per step

    def freeze(positions) -> None:
        nonlocal live, orders, seeds
        for p in positions:
            nets[live[p]] = stack.member(p)
            losses[live[p]] = _FROZEN
        keep = [p for p in range(len(live)) if p not in positions]
        live = [live[p] for p in keep]
        gathered.clear()
        if live:
            stack.keep_members(keep)
            if state.m is not None:
                state.m, state.v = state.m[keep], state.v[keep]
            rngs[:] = [rngs[p] for p in keep]
            orders, seeds = orders[keep], seeds[keep]

    iteration = 0
    for _ in range(config.epochs):
        # each member's stream: its epoch's permutation, then one dropout
        # seed per step, drawn at once as the steps would draw them
        orders = np.stack([rng.permutation(m) for rng in rngs])
        seeds = np.stack([rng.integers(0, 2**63, size=len(starts)) for rng in rngs])
        for step, start in enumerate(starts):
            idx = orders[:, start : start + bs]
            out = gathered.get(idx.shape)
            if out is None:
                out = gathered[idx.shape] = np.empty(idx.shape + xt.shape[1:])
            # xt[idx] without a new array; every index is in range, and
            # mode="clip" spares take the copy it makes under "raise"
            xb = np.take(xt, idx, axis=0, out=out, mode="clip").mT
            iteration += 1
            # the bundle checked its pixels once, so the batch is finite
            recon, _, cache = nn.forward(
                stack, xb, mode=nn.TRAIN, seed=seeds[:, step].tolist(), check_finite=False
            )
            values, loss_grad = loss_fn(xb, recon)
            lost = np.flatnonzero(~np.isfinite(values)).tolist()
            nn.backward(stack, cache, loss_grad)
            if traces is not None and GradientTrace.should_log(iteration):
                stats = [_mean_std(stack.flat_grads[:, sl]) for _, sl in traced]
                for p, r in enumerate(live):
                    if p not in lost:
                        traces[r].log(iteration, [mean[p] for mean, _ in stats],
                                      [std[p] for _, std in stats])
            for p, r in enumerate(live):
                losses[r] = float(values[p])
            if lost:
                freeze(lost)
                if not live:
                    return nets, losses
            try:
                nn.apply_gradients(stack, state)
            except nn.DivergenceError as exc:
                freeze(exc.members)
                if not live:
                    return nets, losses
                nn.apply_gradients(stack, state)
    for p, r in enumerate(live):
        nets[r] = stack.member(p)
        if not np.isfinite(nets[r].flat_params).all():
            losses[r] = _FROZEN
    return nets, losses


_SCORE_FIELDS = (
    "recon_rmse", "recon_sad", "abundance_rmse", "endmember_sad", "permutation",
)


class _Scene(NamedTuple):
    """What _score reads of a bundle, with the column norms of its pixels,
    computed once per stack."""

    pixels: np.ndarray
    norms: np.ndarray
    ground_truth: GroundTruth | None


def _score(net: nn.Network, scene: _Scene) -> dict:
    """The score fields of a trained net's record. An endmember column
    without an angle raises DegenerateSpectrumError, and a non-finite score
    DivergenceError."""
    # The scene-sized arrays here are x and recon: the angle works in
    # column blocks, the RMSE then overwrites recon, and the eval cache
    # (every hidden activation of the scene) is dropped at once. The
    # pixels come from a bundle, which checked them when it was built.
    x = scene.pixels
    recon, abundances = nn.forward(net, x, mode=nn.EVAL, check_finite=False)[:2]
    recon_sad = float(lenient_angles(x, recon, scene.norms).mean())
    recon_rmse = rmse_overwriting(x, recon)
    errors = (None, None, None)
    if scene.ground_truth is not None:
        truth = scene.ground_truth
        errors = unmixing_errors(
            truth.endmembers, truth.abundances, extract_endmembers(net), abundances
        )
    scalars = (recon_rmse, recon_sad, *errors[:2])
    if not all(math.isfinite(v) for v in scalars if v is not None):
        raise nn.DivergenceError("non-finite score")
    return dict(zip(_SCORE_FIELDS, (recon_rmse, recon_sad, *errors)))


def grid_seeds(master_seed: int, init_id: int, run_id: int) -> tuple[int, int]:
    """(init_seed, run_seed) for grid cell (init_id, run_id), both 1-based."""
    return mix64(master_seed, init_id), mix64(master_seed, init_id, run_id)


# the most cells trained as one stack: past it, a stack step's arrays grow
# while its fixed per-step cost is already shared
STACK_CAP = 8


def _stacks(cells: list, workers: int) -> list[list]:
    """cells, in order, cut into contiguous stacks of at most STACK_CAP
    cells and no fewer stacks than workers, their sizes within one of
    each other."""
    count = max(-(-len(cells) // STACK_CAP), workers)
    size, extra = divmod(len(cells), count)
    out, start = [], 0
    for k in range(count):
        stop = start + size + (k < extra)
        out.append(cells[start:stop])
        start = stop
    return out


def _train_cells(config: ExperimentConfig, data: HsiBundle, cells: list):
    """Each cell's (record, trace), the cells trained as one stack."""
    members = [(*grid_seeds(config.master_seed, i, j), i, j) for i, j in cells]
    return [
        (record, trace) for _, record, trace in train_stack(config, data, members)
    ]


# set in pool workers only, once each, so a task pickles just its cells
_WORKER_STATE: dict = {}
# where numpy's wheel keeps the OpenBLAS build it links
_NUMPY_LIBS = Path(np.__file__).parent.parent / "numpy.libs"


def ProcessPoolExecutor(*args, **kwargs):
    """concurrent.futures.ProcessPoolExecutor, imported on first use: its
    import pulls in multiprocessing, which a serial grid never needs."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(*args, **kwargs)


def _pin_blas_threads() -> None:
    """Give this process one OpenBLAS thread, through the setter that
    numpy's bundled scipy-openblas exports; where no such library or
    symbol is found, do nothing. Two workers that each start a BLAS thread
    per CPU oversubscribe the machine and run slower than one process."""
    for path in sorted(_NUMPY_LIBS.glob("libscipy_openblas*")):
        try:
            setter = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)
        return


def _worker_init(config: ExperimentConfig, data: HsiBundle) -> None:
    _pin_blas_threads()
    _WORKER_STATE["args"] = (config, data)


def _worker_cells(cells: list):
    return _train_cells(*_WORKER_STATE["args"], cells)


def _cell_results(config, data, cells, workers: int):
    """Each cell's (record, trace), in the order of cells, as its stack
    finishes."""
    stacks = _stacks(cells, workers)
    if workers == 1:
        for stack in stacks:
            yield from _train_cells(config, data, stack)
        return
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init, initargs=(config, data)
    ) as pool:
        for results in pool.map(_worker_cells, stacks):
            yield from results


def run_experiment(
    config: ExperimentConfig,
    data: HsiBundle,
    out_dir=None,
    jobs: int = 1,
) -> list[RunRecord]:
    """Run the full N x k grid; output order is (init_id, run_id) regardless
    of scheduling.

    jobs must be >= 1; the grid runs on min(jobs, cells, CPU count)
    processes, in this one when that is 1. The cells, in order, are cut
    into stacks (see _stacks), each trained as one stacked model by one
    process; no record or trace depends on the cut. With out_dir set, each
    cell's gradient trace is written as CSV when its stack's results
    arrive, records gain their trace_file reference, and records.jsonl is
    written at the end. Divergence in a cell is contained in that cell's
    record.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, not {jobs}")
    cells = [
        (i, j)
        for i in range(1, config.n_inits + 1)
        for j in range(1, config.runs_per_init + 1)
    ]
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    records = []
    for record, trace in _cell_results(config, data, cells, workers):
        if out is not None:
            fname = f"trace_i{record.init_id:03d}_j{record.run_id:03d}.csv"
            trace.to_csv(out / fname)
            record = replace(record, trace_file=fname)
        records.append(record)
    if out is not None:
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


# the C scanner inside json.loads, called without the decode() wrapper and
# its two whitespace regex matches per line
_scan_json = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"
# what _decode_line returns for a line of whitespace only
_BLANK = object()


def _decode_line(line: str):
    """json.loads(line), or _BLANK for a line that str.strip empties.

    A line the scanner takes whole from column 0, up to JSON whitespace,
    is decoded by that one scanner call, the call json.loads would make.
    Any other line (leading whitespace, trailing text, a BOM, bad JSON)
    goes to json.loads, which returns or raises what it always did.
    """
    try:
        value, end = _scan_json(line, 0)
    except (StopIteration, ValueError):
        if not line.strip():
            return _BLANK
        return json.loads(line)
    if line[end:].strip(_JSON_SPACE):
        return json.loads(line)  # raises "Extra data"
    return value


def read_records(path) -> tuple[list[RunRecord], dict]:
    """Read a record file; returns (records, metadata).

    The file is read line by line (LF, CRLF or CR newlines), so it is
    never held whole beside its records, and each line is decoded as
    json.loads decodes it (see _decode_line). Blank lines are skipped. A
    line that is not JSON, not an object, or lacks a required key raises
    ValueError naming the path and its 1-based line number. The metadata
    line must hold a record_format key, but neither it nor count is
    compared with what was read: a cut file reads without error, and the
    CLI makes those checks.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = enumerate(fh, 1)
        meta = _BLANK
        for number, line in lines:
            try:
                meta = _decode_line(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}, line {number}: {exc}") from exc
            if meta is not _BLANK:
                break
        if meta is _BLANK:
            raise ValueError(f"{path} is empty")
        if not isinstance(meta, dict) or "record_format" not in meta:
            raise ValueError(f"{path} does not start with a metadata line")
        records = []
        build = RunRecord._from_mapping
        for number, line in lines:
            try:
                value = _decode_line(line)
                if value is not _BLANK:
                    records.append(build(value))
            except KeyError as exc:
                raise ValueError(f"{path}, line {number}: missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}, line {number}: {exc}") from exc
    return records, meta
