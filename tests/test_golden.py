"""Golden byte-identity of training and analysis outputs.

The training hashes were recorded before the parameter arena, the in-place
Adam update and the pixel-major batch gather replaced the dict-based
training step. Any change to the training step must keep every bit of the
record lines, the gradient traces and the checkpoint payload; a moved hash
is a behaviour change to be explained, never re-pinned to pass.

The analysis hash covers every file that `unmixlab analyze` and
`unmixlab report` write for a seeded 50x50 record file with tied scores and
diverged runs. It was recorded before the record reader, the post-hoc
writers and the report's threshold rows were rewritten for speed.

Floating-point results depend on the BLAS build, so the pins hold for the
numpy line they were recorded with (numpy 2.4, OpenBLAS 0.3.31, x86-64).

Run `python tests/test_golden.py` to print the current hashes.
"""

import contextlib
import hashlib
import io
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

import unmixlab as ul
from unmixlab import nn
from unmixlab.cli import EXIT_OK, main
from unmixlab.harness import (
    ExperimentConfig,
    RunRecord,
    grid_seeds,
    train_once,
    write_records,
)

PINNED_PLATFORM = ("2.4", "x86_64")

GOLDEN = {
    "basic_mse_grid": "34eae9dc34c433e6c8e8d2bcceccfa20501425beee88333262c0de948147bdec",
    "original_sad_grid": "81af4429dfc4a868b83d57f9cf2675a5a4939667a0c6cbbcbbcabeb0b1f1cedc",
    "samson_shaped_grid": "d8dc738e05507a7ee76b042def7ab940a68c060e0394ac730fe46ac224fafa77",
    "checkpoint": "81ea7ec47fdd8817e20515f83648924015b25fdf5a1dbfc8f18264f319b0781d",
}
ANALYSIS_GOLDEN = "10e2e26273de141459c8a5bb1d3ffdd71e6e0d8ea14b8c8de39d29d3d8e84201"


def _scene(bands, pixels, seed, sigma=0.01):
    w = ul.generate_endmembers(bands, 3, smoothness=5, seed=seed)
    a = ul.sample_abundances(3, pixels, pure_fraction=0.1, seed=seed + 1)
    return ul.synthesize(w, a, ul.NoiseSpec(sigma), seed=seed + 2, name="golden")


BASIC = ExperimentConfig(
    experiment_id="gold-basic", architecture="basic", loss="mse", n1=5,
    batch_size=32, learning_rate=0.01, epochs=6, init_scheme="khu",
    n_inits=2, runs_per_init=2, master_seed=5,
)
SAMSON = ExperimentConfig(
    experiment_id="gold-samson", architecture="basic", loss="mse",
    batch_size=256, learning_rate=0.005, epochs=2, init_scheme="khu",
    n_inits=1, runs_per_init=1, master_seed=3,
)
ORIGINAL = ExperimentConfig(
    experiment_id="gold-original", architecture="original", loss="sad",
    batch_size=16, learning_rate=0.01, gd_rate=0.1, epochs=4,
    init_scheme="xgu", n_inits=2, runs_per_init=2, master_seed=9, scale=True,
)


def _grid_digest(config, data, out: Path) -> str:
    """sha256 over the record lines (metadata line excluded) and every
    trace CSV in name order."""
    ul.run_experiment(config, data, out_dir=out)
    h = hashlib.sha256()
    lines = (out / "records.jsonl").read_bytes().split(b"\n")
    h.update(b"\n".join(lines[1:]))
    for path in sorted(out.glob("trace_*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _checkpoint_digest(out: Path) -> str:
    data = _scene(24, 160, 31)
    init_seed, run_seed = grid_seeds(ORIGINAL.master_seed, 1, 1)
    net, _, _ = train_once(ORIGINAL, data, init_seed, run_seed)
    path = out / "net.ckpt"
    nn.save_checkpoint(net, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_50x50_records(path: Path, seed: int = 901, n: int = 50, k: int = 50,
                        diverged_count: int = 6) -> Path:
    """A record file of seeded scores: init effects a few times the
    run-to-run scatter (so Kruskal-Wallis rejects and Conover-Iman runs),
    scores rounded to 4 decimals (ties), and a few diverged runs."""
    rng = np.random.default_rng([seed, 4])
    effect = np.exp(0.08 * rng.standard_normal(n))
    scores = np.round(0.02 * effect[:, None] * np.exp(0.2 * rng.standard_normal((n, k))), 4)
    diverged = np.zeros(n * k, dtype=bool)
    diverged[rng.choice(n * k, diverged_count, replace=False)] = True
    diverged = diverged.reshape(n, k)
    records = []
    for i in range(n):
        for j in range(k):
            v = None if diverged[i, j] else float(scores[i, j])
            records.append(RunRecord(
                experiment_id="stats", init_id=i + 1, run_id=j + 1,
                init_seed=i + 1, run_seed=1000 * (i + 1) + j + 1,
                init_checksum=f"{i + 1:064x}", final_loss=v, recon_rmse=v,
                recon_sad=None if v is None else 3.0 * v,
                abundance_rmse=None if v is None else 2.0 * v,
                endmember_sad=None if v is None else 5.0 * v,
                permutation=None if v is None else (0, 1, 2),
                diverged=bool(diverged[i, j]),
            ))
    write_records(path, records, ExperimentConfig(
        experiment_id="stats", n_inits=n, runs_per_init=k,
    ))
    return path


def analysis_digest(root: Path) -> str:
    """sha256 over the name and bytes of every file that analyze and report
    write for the 50x50 record file, in path order."""
    records = str(write_50x50_records(root / "records.jsonl"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze", "--records", records,
                     "--out", str(root / "analyze")]) == EXIT_OK
        assert main(["report", "--records", records, "--out", str(root / "report"),
                     "--confidence", "0.95", "--thresholds",
                     "0.004", "0.0147", "0.0203", "0.05"]) == EXIT_OK
    h = hashlib.sha256()
    for sub in ("analyze", "report"):
        for path in sorted((root / sub).iterdir()):
            h.update(f"{sub}/{path.name}".encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def current_digests(root: Path) -> dict:
    return {
        "basic_mse_grid": _grid_digest(BASIC, _scene(20, 240, 11), root / "basic"),
        "original_sad_grid": _grid_digest(ORIGINAL, _scene(24, 160, 31), root / "original"),
        "samson_shaped_grid": _grid_digest(
            SAMSON, _scene(156, 95 * 95, 41, sigma=0.005), root / "samson"
        ),
        "checkpoint": _checkpoint_digest(root),
    }


def _on_pinned_platform() -> bool:
    major_minor = ".".join(np.__version__.split(".")[:2])
    return (major_minor, platform.machine()) == PINNED_PLATFORM


@pytest.mark.skipif(not _on_pinned_platform(),
                    reason=f"hashes pinned for numpy/machine {PINNED_PLATFORM}")
def test_training_outputs_are_byte_identical_to_golden(tmp_path):
    assert current_digests(tmp_path) == GOLDEN


@pytest.mark.skipif(not _on_pinned_platform(),
                    reason=f"hashes pinned for numpy/machine {PINNED_PLATFORM}")
def test_analysis_outputs_are_byte_identical_to_golden(tmp_path):
    assert analysis_digest(tmp_path) == ANALYSIS_GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in current_digests(Path(tmp)).items():
            print(f"{name} {digest}")
        print(f"analysis {analysis_digest(Path(tmp))}")
