"""Linear mixing model data types, synthetic scenes, and bundle I/O.

A hyperspectral image is a B x M matrix of reflectance values (B bands,
M pixels, one pixel per column). Under the linear mixing model a pixel is
W @ a + n, where W (B x E) holds one endmember spectrum per column, the
abundance vector a is nonnegative and sums to one, and n is additive noise.

Bundles persist as a directory with a JSON header plus raw little-endian
float32 payloads. Values quantize to float32 at the file boundary; loading
promotes them back to float64, so save -> load -> save is byte-stable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.typing as npt

from .metrics import angle_matrix

NDArrayF = npt.NDArray[np.float64]

FORMAT_VERSION = 1
ABUNDANCE_SUM_TOL = 1e-6
MIN_PAIRWISE_SAD = 0.15
REFLECTANCE_LO = 0.05
REFLECTANCE_HI = 0.95
_MAX_SEPARATION_RETRIES = 100
# min_max_scale rejects an image whose max - min is below this
MIN_SCALE_SPAN = 1e-12

HEADER_FILE = "header.json"


class DimensionError(ValueError):
    """Matrix shapes are inconsistent with the mixing model."""


class FormatError(ValueError):
    """A bundle file is malformed or does not match its header."""


class SeparationError(ValueError):
    """Drawn endmembers could not reach the pairwise-angle floor: the
    request asks for more endmembers than its bands and window can part."""


def _freeze(a: np.ndarray) -> NDArrayF:
    """a as a read-only C-ordered float64 array that owns its memory: a
    view of other memory is copied, so nothing can change the array after
    it was checked. An array that already owns its memory is kept."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.base is not None:
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GroundTruth:
    """Reference endmembers (B x E) and abundances (E x M) for a scene."""

    endmembers: NDArrayF
    abundances: NDArrayF

    def __post_init__(self):
        w = _freeze(self.endmembers)
        a = _freeze(self.abundances)
        if w.ndim != 2 or a.ndim != 2:
            raise DimensionError("endmembers and abundances must be 2-D")
        if w.shape[1] != a.shape[0]:
            raise DimensionError(
                f"endmember count mismatch: W is {w.shape}, A is {a.shape}"
            )
        if w.shape[1] < 2:
            raise DimensionError("at least 2 endmembers required")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(a)):
            raise ValueError("ground truth entries must be finite")
        if np.any(a < 0):
            raise ValueError("abundances must be nonnegative")
        sums = a.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > ABUNDANCE_SUM_TOL):
            worst = float(np.max(np.abs(sums - 1.0)))
            raise ValueError(f"abundance columns must sum to 1 (worst drift {worst:.3g})")
        object.__setattr__(self, "endmembers", w)
        object.__setattr__(self, "abundances", a)

    @property
    def endmember_count(self) -> int:
        return self.endmembers.shape[1]


@dataclass(frozen=True)
class NoiseSpec:
    """I.i.d. zero-mean Gaussian noise with standard deviation sigma per entry."""

    sigma: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma < 0:
            raise ValueError("sigma must be finite and >= 0")


@dataclass(frozen=True)
class HsiBundle:
    """A B x M pixel matrix with optional ground truth and spatial metadata."""

    pixels: NDArrayF
    name: str = "unnamed"
    width: int | None = None
    height: int | None = None
    ground_truth: GroundTruth | None = None

    def __post_init__(self):
        px = _freeze(self.pixels)
        if px.ndim != 2:
            raise DimensionError("pixels must be a 2-D (bands x pixels) matrix")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise DimensionError("need at least one band and one pixel")
        if not np.all(np.isfinite(px)):
            raise ValueError("pixel entries must be finite")
        if (self.width is None) != (self.height is None):
            raise ValueError("width and height must be given together")
        if self.width is not None:
            if self.width * self.height != px.shape[1]:
                raise DimensionError(
                    f"width*height = {self.width * self.height} != pixel count {px.shape[1]}"
                )
        if self.ground_truth is not None:
            gt = self.ground_truth
            if gt.endmembers.shape[0] != px.shape[0]:
                raise DimensionError("ground-truth endmembers band count mismatch")
            if gt.abundances.shape[1] != px.shape[1]:
                raise DimensionError("ground-truth abundances pixel count mismatch")
        object.__setattr__(self, "pixels", px)

    @property
    def bands(self) -> int:
        return self.pixels.shape[0]

    @property
    def pixel_count(self) -> int:
        return self.pixels.shape[1]


def synthesize(
    endmembers: np.ndarray,
    abundances: np.ndarray,
    noise: NoiseSpec = NoiseSpec(0.0),
    seed: int = 0,
    name: str = "synthetic",
    width: int | None = None,
    height: int | None = None,
) -> HsiBundle:
    """Mix endmembers with abundances and additive seeded Gaussian noise.

    The returned bundle carries (endmembers, abundances) as ground truth and
    is deterministic for a given seed.
    """
    w = np.asarray(endmembers, dtype=np.float64)
    a = np.asarray(abundances, dtype=np.float64)
    if w.ndim != 2 or a.ndim != 2 or w.shape[1] != a.shape[0]:
        raise DimensionError(
            f"cannot mix W {w.shape} with A {a.shape}: inner dimensions differ"
        )
    gt = GroundTruth(endmembers=w, abundances=a)
    pixels = gt.endmembers @ gt.abundances
    if noise.sigma > 0:
        rng = np.random.default_rng(seed)
        pixels = pixels + noise.sigma * rng.standard_normal(pixels.shape)
    return HsiBundle(
        pixels=pixels, name=name, width=width, height=height, ground_truth=gt
    )


def sample_abundances(
    n_endmembers: int,
    n_pixels: int,
    concentration: np.ndarray | None = None,
    pure_fraction: float = 0.0,
    seed: int = 0,
) -> NDArrayF:
    """Draw an E x M abundance matrix with Dirichlet columns.

    Columns are Dirichlet(concentration) samples, so each is nonnegative and
    sums to one by construction. The first round(pure_fraction * M) columns
    are replaced by unit vectors cycling through the endmembers.
    """
    if n_endmembers < 2:
        raise DimensionError("at least 2 endmembers required")
    if n_pixels < 1:
        raise DimensionError("at least one pixel required")
    if not 0.0 <= pure_fraction <= 1.0:
        raise ValueError("pure_fraction must lie in [0, 1]")
    if concentration is None:
        conc = np.ones(n_endmembers)
    else:
        conc = np.asarray(concentration, dtype=np.float64)
        if conc.shape != (n_endmembers,):
            raise DimensionError("concentration length must equal endmember count")
        if np.any(conc <= 0):
            raise ValueError("concentration entries must be > 0")
    rng = np.random.default_rng(seed)
    a = rng.dirichlet(conc, size=n_pixels).T
    a /= a.sum(axis=0, keepdims=True)
    n_pure = int(round(pure_fraction * n_pixels))
    if n_pure > 0:
        a[:, :n_pure] = 0.0
        cols = np.arange(n_pure)
        a[cols % n_endmembers, cols] = 1.0
    return a


def generate_endmembers(
    n_bands: int,
    n_endmembers: int,
    smoothness: int = 5,
    seed: int = 0,
) -> NDArrayF:
    """Generate B x E smooth synthetic endmember spectra in [0.05, 0.95].

    Each column is a moving-average-smoothed uniform random curve, min-max
    scaled into the reflectance range. The whole matrix is resampled until
    every column pair is at least MIN_PAIRWISE_SAD radians apart; after 100
    failed attempts a SeparationError is raised. The smoothing window must
    lie in [1, n_bands].
    """
    if n_endmembers < 2:
        raise DimensionError("at least 2 endmembers required")
    if n_bands <= n_endmembers:
        raise DimensionError("need more bands than endmembers")
    if not 1 <= smoothness <= n_bands:
        raise ValueError(
            f"smoothness window must lie in [1, n_bands={n_bands}], not {smoothness}"
        )
    rng = np.random.default_rng(seed)
    kernel = np.ones(smoothness) / smoothness
    for _ in range(_MAX_SEPARATION_RETRIES):
        raw = rng.uniform(0.0, 1.0, size=(n_bands, n_endmembers))
        w = np.empty_like(raw)
        for j in range(n_endmembers):
            col = np.convolve(raw[:, j], kernel, mode="same")
            lo, hi = col.min(), col.max()
            if hi - lo < 1e-12:
                break
            w[:, j] = REFLECTANCE_LO + (col - lo) / (hi - lo) * (
                REFLECTANCE_HI - REFLECTANCE_LO
            )
        else:
            pairs = np.triu_indices(n_endmembers, 1)
            if np.all(angle_matrix(w, w)[pairs] >= MIN_PAIRWISE_SAD):
                return w
    raise SeparationError(
        f"could not separate {n_endmembers} endmembers by "
        f"{MIN_PAIRWISE_SAD} rad in {_MAX_SEPARATION_RETRIES} attempts"
    )


def min_max_scale(bundle: HsiBundle) -> tuple[HsiBundle, tuple[float, float]]:
    """Scale pixels into [0, 1] by the global min and max.

    Because abundance columns sum to one, the same affine map applied to the
    ground-truth endmembers preserves the exact mixing relation:
    (X - lo) / (hi - lo) == ((W - lo) / (hi - lo)) @ A. Ground-truth
    endmembers are transformed accordingly so scene and reference stay in the
    same domain; abundances are unchanged. Returns the scaled bundle and the
    (lo, hi) pair actually used.
    """
    lo = float(bundle.pixels.min())
    hi = float(bundle.pixels.max())
    span = hi - lo
    if span < MIN_SCALE_SPAN:
        raise ValueError("cannot min-max scale a constant image")
    pixels = (bundle.pixels - lo) / span
    gt = bundle.ground_truth
    if gt is not None:
        gt = GroundTruth(
            endmembers=(gt.endmembers - lo) / span, abundances=gt.abundances
        )
    scaled = HsiBundle(
        pixels=pixels,
        name=bundle.name,
        width=bundle.width,
        height=bundle.height,
        ground_truth=gt,
    )
    return scaled, (lo, hi)


def _payload_entry(name: str, array: np.ndarray, order: str) -> tuple[dict, bytes]:
    data = np.asarray(array, dtype="<f4")
    blob = data.tobytes(order="F" if order == "column-major" else "C")
    entry = {
        "file": f"{name}.f32",
        "shape": list(array.shape),
        "order": order,
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
    return entry, blob


def save_bundle(bundle: HsiBundle, path: str | Path) -> None:
    """Write a bundle to `path` (a directory) as header.json plus payloads.

    Pixels are stored band-major; endmembers and abundances column-major.
    All payloads are little-endian float32 with sha256 checksums recorded in
    the header.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    arrays = {"pixels": (bundle.pixels, "band-major")}
    if bundle.ground_truth is not None:
        arrays["endmembers"] = (bundle.ground_truth.endmembers, "column-major")
        arrays["abundances"] = (bundle.ground_truth.abundances, "column-major")
    payloads: dict[str, dict] = {}
    for name, (array, order) in arrays.items():
        entry, blob = _payload_entry(name, array, order)
        (root / entry["file"]).write_bytes(blob)
        payloads[name] = entry

    header = {
        "format_version": FORMAT_VERSION,
        "bands": bundle.bands,
        "pixel_count": bundle.pixel_count,
        "name": bundle.name,
        "payload_files": payloads,
    }
    if bundle.width is not None:
        header["width"] = bundle.width
        header["height"] = bundle.height
    if bundle.ground_truth is not None:
        header["endmember_count"] = bundle.ground_truth.endmember_count

    with open(root / HEADER_FILE, "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_payload(root: Path, entry: dict) -> NDArrayF:
    fpath = root / entry["file"]
    if not fpath.exists():
        raise FormatError(f"missing payload file {entry['file']}")
    blob = fpath.read_bytes()
    if hashlib.sha256(blob).hexdigest() != entry["sha256"]:
        raise FormatError(f"checksum mismatch for {entry['file']}")
    shape = tuple(entry["shape"])
    expected = 4 * int(np.prod(shape))
    if len(blob) != expected:
        raise FormatError(
            f"payload {entry['file']} holds {len(blob)} bytes, header implies {expected}"
        )
    flat = np.frombuffer(blob, dtype="<f4")
    order = "F" if entry["order"] == "column-major" else "C"
    return flat.reshape(shape, order=order).astype(np.float64)


def load_bundle(path: str | Path) -> HsiBundle:
    """Read a bundle written by save_bundle, promoting payloads to float64.

    A header that is not a JSON object, lacks a key the bundle needs or
    holds a value of the wrong type there raises FormatError naming it.
    """
    try:
        return _load_bundle(Path(path))
    except KeyError as exc:
        raise FormatError(f"{HEADER_FILE} under {path} has no {exc} key") from exc
    except TypeError as exc:
        raise FormatError(f"{HEADER_FILE} under {path} holds a mistyped entry: {exc}") from exc


def _load_bundle(root: Path) -> HsiBundle:
    header_path = root / HEADER_FILE
    if not header_path.exists():
        raise FormatError(f"no {HEADER_FILE} under {root}")
    try:
        header = json.loads(header_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"unparseable header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{HEADER_FILE} does not hold a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {header.get('format_version')}")

    payloads = header.get("payload_files", {})
    if "pixels" not in payloads:
        raise FormatError("header lists no pixels payload")
    pixels = _read_payload(root, payloads["pixels"])
    if pixels.shape != (header["bands"], header["pixel_count"]):
        raise FormatError("pixel payload shape disagrees with header dimensions")

    gt = None
    if "endmembers" in payloads and "abundances" in payloads:
        gt = GroundTruth(
            endmembers=_read_payload(root, payloads["endmembers"]),
            abundances=_read_payload(root, payloads["abundances"]),
        )
    return HsiBundle(
        pixels=pixels,
        name=header.get("name", "unnamed"),
        width=header.get("width"),
        height=header.get("height"),
        ground_truth=gt,
    )


def bundle_from_csv(
    path: str | Path,
    name: str | None = None,
    width: int | None = None,
    height: int | None = None,
) -> HsiBundle:
    """Build a bundle from a plain-text CSV with one pixel spectrum per row."""
    path = Path(path)
    try:
        rows = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"cannot parse CSV {path}: {exc}") from exc
    if rows.size == 0:
        raise FormatError(f"CSV {path} holds no data")
    return HsiBundle(
        pixels=rows.T,
        name=name if name is not None else path.stem,
        width=width,
        height=height,
    )
