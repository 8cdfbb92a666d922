"""Dense unmixing autoencoders with hand-derived forward and backward passes.

Data flows column-wise: a batch is a (features x batch_size) matrix. The
encoder compresses B-band pixels to E latent units; a sum-to-one layer turns
the latent vector into an abundance vector; the single bias-free decoder
layer maps abundances back to B bands, so its weight columns are directly
readable as endmember spectra.

All math is float64. Every layer implements an explicit backward rule, and
gradients are validated against central finite differences in the test
suite.

A layer's forward and backward take a dict of buffers as their last
argument: an array kept there from an earlier call is reused as the `out=`
of the operation that made it, and the new result is kept again. Without a
Workspace the dict is _NO_BUFFERS, which keeps nothing, so every call
allocates as if no buffers existed.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .seeding import mix64

NDArrayF = npt.NDArray[np.float64]

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
SUM_TO_ONE_GUARD = 1e-12

TRAIN = "train"
EVAL = "eval"

CHECKPOINT_MAGIC = b"UNMIXNET"
CHECKPOINT_VERSION = 1

INIT_SCHEMES = ("he_normal", "he_uniform", "glorot_normal", "glorot_uniform")
_INIT_ALIASES = {
    "khn": "he_normal",
    "khu": "he_uniform",
    "xgn": "glorot_normal",
    "xgu": "glorot_uniform",
}


class CacheError(RuntimeError):
    """Backward was called with a cache that does not match the network state."""


class DivergenceError(RuntimeError):
    """Non-finite values appeared in gradients or the optimizer update."""


def normalize_init_scheme(name: str) -> str:
    key = name.strip().lower().replace("-", "_")
    key = _INIT_ALIASES.get(key, key)
    if key not in INIT_SCHEMES:
        raise ValueError(f"unknown init scheme {name!r}; expected one of "
                         f"{INIT_SCHEMES} or aliases {tuple(_INIT_ALIASES)}")
    return key


def init_weights(
    scheme: str, fan_in: int, fan_out: int, seed: int
) -> tuple[NDArrayF, NDArrayF]:
    """Draw a (fan_out x fan_in) weight matrix and fan_out bias vector.

    glorot_uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out)).
    glorot_normal:  N(0, 2 / (fan_in + fan_out)).
    he_normal:      N(0, 2 / fan_in).
    he_uniform:     the framework-default variant, U(-g, g) with
                    g = sqrt(6 / (6 * fan_in)) and biases
                    U(-1/sqrt(fan_in), 1/sqrt(fan_in)).

    Biases are zero for all schemes except he_uniform.
    """
    if fan_in < 1 or fan_out < 1:
        raise ValueError("fan_in and fan_out must be >= 1")
    scheme = normalize_init_scheme(scheme)
    rng = np.random.default_rng(seed)
    bias = np.zeros(fan_out)
    if scheme == "glorot_uniform":
        a = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-a, a, size=(fan_out, fan_in))
    elif scheme == "glorot_normal":
        w = rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), size=(fan_out, fan_in))
    elif scheme == "he_normal":
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
    else:  # he_uniform
        g = np.sqrt(6.0 / (6.0 * fan_in))
        w = rng.uniform(-g, g, size=(fan_out, fan_in))
        bb = 1.0 / np.sqrt(fan_in)
        bias = rng.uniform(-bb, bb, size=fan_out)
    return w, bias


class _NoBuffers:
    """The buffer dict of an allocating call: it holds and keeps nothing."""

    def get(self, name):
        return None

    def __setitem__(self, name, arr):
        pass


_NO_BUFFERS = _NoBuffers()


def _where_into(out, mask, x):
    """np.where(mask, x, 0.0), written into out when there is one. Zero
    first, then copy: x * mask would turn a negative or -0.0 entry into
    -0.0 and a masked NaN into NaN, where np.where gives +0.0."""
    if out is None:
        return np.where(mask, x, 0.0)
    out.fill(0.0)
    np.copyto(out, x, where=mask)
    return out


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Linear:
    kind = "linear"

    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        if in_features < 1 or out_features < 1:
            raise ValueError("linear layer dimensions must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        self.has_bias = bias
        self.weight = np.zeros((out_features, in_features))
        self.bias = np.zeros(out_features) if bias else None
        self.grad_views: dict[str, NDArrayF] = {}

    def spec(self) -> dict:
        return {
            "kind": self.kind,
            "in_features": self.in_features,
            "out_features": self.out_features,
            "bias": self.has_bias,
        }

    @property
    def params(self) -> dict[str, NDArrayF]:
        out = {"weight": self.weight}
        if self.has_bias:
            out["bias"] = self.bias
        return out

    def out_width(self, width: int) -> int:
        if width != self.in_features:
            raise ValueError(
                f"linear layer expects width {self.in_features}, got {width}"
            )
        return self.out_features

    def forward(self, x, mode, rng, cache, bufs=_NO_BUFFERS):
        cache["x"] = x
        y = bufs["y"] = np.matmul(self.weight, x, out=bufs.get("y"))
        if self.has_bias:
            y += self.bias[:, None]
        return y

    def backward(self, dy, cache, bufs=_NO_BUFFERS):
        out = self.grad_views
        grads = {"weight": np.matmul(dy, cache["x"].T, out=out.get("weight"))}
        if self.has_bias:
            grads["bias"] = np.sum(dy, axis=1, out=out.get("bias"))
        if cache.get("skip_dx"):
            # nothing reads the gradient of the batch itself
            return None, grads
        dx = bufs["dx"] = np.matmul(self.weight.T, dy, out=bufs.get("dx"))
        return dx, grads


class Sigmoid:
    kind = "sigmoid"

    def spec(self) -> dict:
        return {"kind": self.kind}

    @property
    def params(self):
        return {}

    def out_width(self, width: int) -> int:
        return width

    def forward(self, x, mode, rng, cache, bufs=_NO_BUFFERS):
        y = bufs["y"] = _sigmoid(x, out=bufs.get("y"))
        cache["y"] = y
        return y

    def backward(self, dy, cache, bufs=_NO_BUFFERS):
        y = cache["y"]
        dx = bufs["dx"] = np.multiply(dy, y, out=bufs.get("dx"))
        dx *= 1.0 - y
        return dx, {}


class ReLU:
    kind = "relu"

    def spec(self) -> dict:
        return {"kind": self.kind}

    @property
    def params(self):
        return {}

    def out_width(self, width: int) -> int:
        return width

    def forward(self, x, mode, rng, cache, bufs=_NO_BUFFERS):
        mask = bufs["mask"] = np.greater(x, 0, out=bufs.get("mask"))
        cache["mask"] = mask
        y = bufs["y"] = _where_into(bufs.get("y"), mask, x)
        return y

    def backward(self, dy, cache, bufs=_NO_BUFFERS):
        dx = bufs["dx"] = np.multiply(dy, cache["mask"], out=bufs.get("dx"))
        return dx, {}


class BatchNorm:
    """Per-feature batch normalization over the batch (column) axis.

    Train mode normalizes by batch statistics and updates running statistics
    with momentum 0.1 (running variance uses the unbiased batch variance);
    eval mode uses the running statistics. Train mode needs batch size >= 2.
    """

    kind = "batch_norm"

    def __init__(self, features: int):
        if features < 1:
            raise ValueError("batch norm needs at least one feature")
        self.features = features
        self.gamma = np.ones(features)
        self.beta = np.zeros(features)
        self.running_mean = np.zeros(features)
        self.running_var = np.ones(features)
        self.grad_views: dict[str, NDArrayF] = {}

    def spec(self) -> dict:
        return {"kind": self.kind, "features": self.features}

    @property
    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    @property
    def buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def out_width(self, width: int) -> int:
        if width != self.features:
            raise ValueError(f"batch norm expects width {self.features}, got {width}")
        return width

    def forward(self, x, mode, rng, cache, bufs=_NO_BUFFERS):
        if mode == TRAIN:
            m = x.shape[1]
            if m < 2:
                raise ValueError("train-mode batch norm requires batch size >= 2")
            mean = x.mean(axis=1)
            var = x.var(axis=1)
            self.running_mean *= 1.0 - BN_MOMENTUM
            self.running_mean += BN_MOMENTUM * mean
            self.running_var *= 1.0 - BN_MOMENTUM
            self.running_var += BN_MOMENTUM * var * (m / (m - 1.0))
        else:
            mean = self.running_mean
            var = self.running_var
        inv = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = bufs["x_hat"] = np.subtract(x, mean[:, None], out=bufs.get("x_hat"))
        x_hat *= inv[:, None]
        cache["x_hat"] = x_hat
        cache["inv"] = inv
        y = bufs["y"] = np.multiply(self.gamma[:, None], x_hat, out=bufs.get("y"))
        y += self.beta[:, None]
        return y

    def backward(self, dy, cache, bufs=_NO_BUFFERS):
        x_hat = cache["x_hat"]
        inv = cache["inv"]
        m = dy.shape[1]
        out = self.grad_views
        grads = {
            "gamma": np.sum(dy * x_hat, axis=1, out=out.get("gamma")),
            "beta": np.sum(dy, axis=1, out=out.get("beta")),
        }
        dxh = dy * self.gamma[:, None]
        inner = (
            m * dxh
            - dxh.sum(axis=1, keepdims=True)
            - x_hat * (dxh * x_hat).sum(axis=1, keepdims=True)
        )
        dx = bufs["dx"] = np.multiply(inv[:, None] / m, inner, out=bufs.get("dx"))
        return dx, grads


class SoftThreshold:
    """Elementwise max(0, x - alpha) with a trainable threshold per feature.

    The subgradient at the kink x - alpha = 0 is taken as zero.
    """

    kind = "soft_threshold"

    def __init__(self, features: int):
        if features < 1:
            raise ValueError("soft threshold needs at least one feature")
        self.features = features
        self.alpha = np.zeros(features)
        self.grad_views: dict[str, NDArrayF] = {}

    def spec(self) -> dict:
        return {"kind": self.kind, "features": self.features}

    @property
    def params(self):
        return {"alpha": self.alpha}

    def out_width(self, width: int) -> int:
        if width != self.features:
            raise ValueError(
                f"soft threshold expects width {self.features}, got {width}"
            )
        return width

    def forward(self, x, mode, rng, cache, bufs=_NO_BUFFERS):
        z = bufs["z"] = np.subtract(x, self.alpha[:, None], out=bufs.get("z"))
        mask = bufs["mask"] = np.greater(z, 0, out=bufs.get("mask"))
        cache["mask"] = mask
        y = bufs["y"] = _where_into(bufs.get("y"), mask, z)
        return y

    def backward(self, dy, cache, bufs=_NO_BUFFERS):
        dz = bufs["dx"] = np.multiply(dy, cache["mask"], out=bufs.get("dx"))
        alpha = np.sum(dz, axis=1, out=self.grad_views.get("alpha"))
        return dz, {"alpha": np.negative(alpha, out=alpha)}


class SumToOne:
    """Divide each column by its sum, guarded so every output is a simplex point.

    Intended for nonnegative inputs (post ReLU / soft threshold). Columns
    with a nonzero sum divide by (sum + 1e-12); a column summing to exactly
    zero (all units killed upstream) maps to the uniform vector 1/width so
    the simplex constraint holds everywhere. Dead columns get zero input
    gradient, which agrees with the zero subgradient their upstream kinks
    already produce.
    """

    kind = "sum_to_one"

    def spec(self) -> dict:
        return {"kind": self.kind}

    @property
    def params(self):
        return {}

    def out_width(self, width: int) -> int:
        return width

    def forward(self, x, mode, rng, cache, bufs=_NO_BUFFERS):
        s_raw = x.sum(axis=0, keepdims=True)
        dead = s_raw == 0.0
        s = s_raw + SUM_TO_ONE_GUARD
        y = bufs["y"] = np.divide(x, s, out=bufs.get("y"))
        if dead.any():
            np.copyto(y, 1.0 / x.shape[0], where=dead)
        cache["y"] = y
        cache["s"] = s
        cache["dead"] = dead
        return y

    def backward(self, dy, cache, bufs=_NO_BUFFERS):
        y = cache["y"]
        s = cache["s"]
        dx = bufs["dx"] = np.subtract(
            dy, (dy * y).sum(axis=0, keepdims=True), out=bufs.get("dx")
        )
        dx /= s
        dead = cache["dead"]
        if dead.any():
            np.copyto(dx, 0.0, where=dead)
        return dx, {}


class GaussianDropout:
    """Multiplicative unit-mean Gaussian noise, active in train mode only.

    rate r in [0, 1) maps to noise variance r / (1 - r); r = 0 is the
    identity. Backward reuses the exact noise realization from forward.
    """

    kind = "gaussian_dropout"

    def __init__(self, rate: float = 0.0):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.rate = rate

    def spec(self) -> dict:
        return {"kind": self.kind, "rate": self.rate}

    @property
    def params(self):
        return {}

    def out_width(self, width: int) -> int:
        return width

    def forward(self, x, mode, rng, cache, bufs=_NO_BUFFERS):
        if mode != TRAIN or self.rate == 0.0:
            cache["noise"] = None
            return x
        sigma = np.sqrt(self.rate / (1.0 - self.rate))
        # 1.0 + sigma * z, with the draw made into the kept buffer
        noise = bufs["noise"] = rng.standard_normal(x.shape, out=bufs.get("noise"))
        noise *= sigma
        noise += 1.0
        cache["noise"] = noise
        y = bufs["y"] = np.multiply(x, noise, out=bufs.get("y"))
        return y

    def backward(self, dy, cache, bufs=_NO_BUFFERS):
        noise = cache["noise"]
        if noise is None:
            return dy, {}
        dx = bufs["dx"] = np.multiply(dy, noise, out=bufs.get("dx"))
        return dx, {}


_LAYER_CLASSES = {
    cls.kind: cls
    for cls in (Linear, Sigmoid, ReLU, BatchNorm, SoftThreshold, SumToOne, GaussianDropout)
}


def layer_from_spec(spec: dict):
    """Rebuild a layer from its spec(); the keys besides kind are the
    constructor's arguments."""
    args = dict(spec)
    kind = args.pop("kind", None)
    if kind not in _LAYER_CLASSES:
        raise ValueError(f"unknown layer kind {kind!r}")
    return _LAYER_CLASSES[kind](**args)


class Network:
    """An encoder layer stack plus a single bias-free linear decoder.

    The encoder must map input_dim-vectors to latent_dim-vectors. At most
    one sum_to_one layer is allowed and only gaussian_dropout may follow it;
    its output is read back as the abundance matrix.

    The network owns all trainable values in one contiguous float64 vector,
    flat_params, laid out in named_parameters() order; every layer's
    weight, bias, gamma, beta and alpha is a view into it. flat_grads has
    the same layout and receives the gradients that backward writes, so a
    whole Adam step is a handful of vector operations. param_slices maps
    each parameter name to its slice of both vectors.
    """

    def __init__(self, encoder, decoder: Linear, input_dim: int, latent_dim: int,
                 arch: str = "custom", meta: dict | None = None):
        width = input_dim
        sum_to_one_index = None
        for i, layer in enumerate(encoder):
            if sum_to_one_index is not None and layer.kind != "gaussian_dropout":
                raise ValueError(
                    "only gaussian_dropout may follow the sum_to_one layer"
                )
            if layer.kind == "sum_to_one":
                if sum_to_one_index is not None:
                    raise ValueError("at most one sum_to_one layer is allowed")
                sum_to_one_index = i
            width = layer.out_width(width)
        if width != latent_dim:
            raise ValueError(f"encoder ends at width {width}, expected {latent_dim}")
        decoder.out_width(latent_dim)
        if decoder.out_features != input_dim:
            raise ValueError("decoder must map back to the input width")
        self.encoder = list(encoder)
        self.decoder = decoder
        self.input_dim = input_dim
        self.latent_dim = latent_dim
        self.arch = arch
        self.meta = dict(meta or {})
        self.sum_to_one_index = sum_to_one_index
        self._version = 0
        self._bind_arena()

    def _owners(self):
        return [(f"enc{i}", layer) for i, layer in enumerate(self.encoder)] + [
            ("dec", self.decoder)
        ]

    def _bind_arena(self) -> None:
        """Move every parameter into flat_params and point the layers at
        views of it and of flat_grads."""
        entries = [
            (f"{prefix}.{key}", layer, key, arr)
            for prefix, layer in self._owners()
            for key, arr in layer.params.items()
        ]
        size = sum(arr.size for *_, arr in entries)
        self.flat_params = np.empty(size)
        self.flat_grads = np.zeros(size)
        self.param_slices: dict[str, slice] = {}
        start = 0
        for name, layer, key, arr in entries:
            sl = slice(start, start + arr.size)
            param = self.flat_params[sl].reshape(arr.shape)
            param[...] = arr
            setattr(layer, key, param)
            layer.grad_views[key] = self.flat_grads[sl].reshape(arr.shape)
            self.param_slices[name] = sl
            start = sl.stop

    def __setstate__(self, state):
        # copy and pickle duplicate the views apart from the arena; rebind
        self.__dict__.update(state)
        self._bind_arena()

    @property
    def version(self) -> int:
        return self._version

    def named_parameters(self) -> dict[str, NDArrayF]:
        return {
            f"{prefix}.{key}": arr
            for prefix, layer in self._owners()
            for key, arr in layer.params.items()
        }

    def named_buffers(self) -> dict[str, NDArrayF]:
        out = {}
        for i, layer in enumerate(self.encoder):
            for key, arr in getattr(layer, "buffers", {}).items():
                out[f"enc{i}.{key}"] = arr
        return out

    def set_parameters(self, values: dict[str, np.ndarray]) -> None:
        current = self.named_parameters()
        if set(values) != set(current):
            raise ValueError("parameter name set does not match the network")
        for name, arr in values.items():
            np.copyto(current[name], arr)
        self._version += 1

    def parameter_checksum(self) -> str:
        params = self.named_parameters()
        h = hashlib.sha256()
        for name in sorted(params):
            h.update(name.encode())
            h.update(params[name].tobytes())
        return h.hexdigest()


def build_network(
    arch: str, n_bands: int, n_latent: int, n1: int = 10, gd_rate: float = 0.0
) -> Network:
    """Assemble one of the two canonical unmixing autoencoders.

    "original": four sigmoid-activated linear layers narrowing 9E, 6E, 3E, E,
    then batch norm, soft threshold, sum-to-one, and Gaussian dropout.
    "basic": two ReLU-activated linear layers (n1*E then E) and sum-to-one.
    Both use a single bias-free decoder so trained decoder columns can be
    read as endmembers. Weights start at zero; apply initialize_network.

    Custom stacks can be assembled through Network directly, e.g. to move
    activations or normalization around.
    """
    if n_latent < 2:
        raise ValueError("latent dimension must be >= 2")
    if n_bands <= n_latent:
        raise ValueError("need more bands than latent units")
    e = n_latent
    if arch == "original":
        encoder = [
            Linear(n_bands, 9 * e), Sigmoid(),
            Linear(9 * e, 6 * e), Sigmoid(),
            Linear(6 * e, 3 * e), Sigmoid(),
            Linear(3 * e, e), Sigmoid(),
            BatchNorm(e),
            SoftThreshold(e),
            SumToOne(),
            GaussianDropout(gd_rate),
        ]
    elif arch == "basic":
        if n1 < 1:
            raise ValueError("n1 must be >= 1")
        encoder = [
            Linear(n_bands, n1 * e), ReLU(),
            Linear(n1 * e, e), ReLU(),
            SumToOne(),
        ]
    else:
        raise ValueError(f"unknown architecture {arch!r}; expected original or basic")
    decoder = Linear(e, n_bands, bias=False)
    return Network(encoder, decoder, input_dim=n_bands, latent_dim=e, arch=arch)


def initialize_network(net: Network, scheme: str, seed: int) -> Network:
    """Seed all linear weights with the given scheme; reset the other params.

    Each linear layer (encoder order, then decoder) draws from its own
    stream mix64(seed, layer_index), so layer draws are independent of each
    other and of the batch/dropout randomness.
    """
    scheme = normalize_init_scheme(scheme)
    idx = 0
    linears = [l for l in net.encoder if isinstance(l, Linear)] + [net.decoder]
    for layer in linears:
        w, b = init_weights(scheme, layer.in_features, layer.out_features,
                            mix64(seed, idx))
        np.copyto(layer.weight, w)
        if layer.has_bias:
            np.copyto(layer.bias, b)
        idx += 1
    for layer in net.encoder:
        if isinstance(layer, BatchNorm):
            layer.gamma.fill(1.0)
            layer.beta.fill(0.0)
            layer.running_mean.fill(0.0)
            layer.running_var.fill(1.0)
        elif isinstance(layer, SoftThreshold):
            layer.alpha.fill(0.0)
    net.meta["init_scheme"] = scheme
    net.meta["init_seed"] = int(seed)
    net._version += 1
    return net


class _LazyRng:
    """np.random.default_rng(seed), created on the first draw: only a
    train-mode dropout layer with a non-zero rate draws, and most forwards
    have none."""

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int):
        self.seed = seed
        self._gen = None

    def __getattr__(self, name):
        if self._gen is None:
            self._gen = np.random.default_rng(self.seed)
        return getattr(self._gen, name)


class Workspace:
    """Train-mode buffers that a training loop keeps for one network.

    A forward through a workspace writes every layer's output, mask and
    input gradient into the arrays of the last forward with the same batch
    shape and layout, so a steady loop allocates no new activations. Each
    distinct batch shape gets its own set (an epoch's short last batch does
    not evict the full-width one).

    Aliasing: the reconstruction and abundances that forward returns, the
    contents of its cache and the input gradients that backward passes
    between layers are workspace arrays, overwritten by the next forward
    through the same workspace. Each forward bumps `generation`, and
    backward refuses a cache of an older generation with CacheError. Copy
    out whatever must outlive the step.
    """

    def __init__(self, net: Network):
        self.net = net
        self.generation = 0
        self._sets: dict[tuple, list[dict]] = {}

    def claim(self, x: np.ndarray) -> list[dict]:
        """Start a forward of x: one buffer dict per encoder layer, then
        the decoder's."""
        key = (x.shape, x.strides)
        bufs = self._sets.get(key)
        if bufs is None:
            bufs = self._sets[key] = [{} for _ in range(len(self.net.encoder) + 1)]
        self.generation += 1
        return bufs


@dataclass
class ForwardCache:
    """Intermediates from one forward call, consumed by backward."""

    net: Network
    version: int
    mode: str
    entries: list
    decoder_entry: dict
    abundances: NDArrayF
    latent: NDArrayF
    buffers: list
    workspace: Workspace | None = None
    generation: int = 0


def forward(
    net: Network, batch: np.ndarray, mode: str = EVAL, seed: int = 0,
    workspace: Workspace | None = None,
) -> tuple[NDArrayF, NDArrayF, ForwardCache]:
    """Run the autoencoder on a (bands x batch) matrix.

    Returns (reconstruction, abundances, cache). Abundances are the
    sum-to-one layer output, before any dropout. Dropout noise is drawn
    from the given seed and is active in train mode only.

    Without a workspace every result is a fresh array and the batch is
    checked for non-finite entries. A workspace (train mode only) lends its
    buffers instead, under the aliasing rule of Workspace, and skips that
    scan: its caller feeds pixels that were checked once at the boundary,
    as an HsiBundle's are.
    """
    if mode not in (TRAIN, EVAL):
        raise ValueError(f"mode must be {TRAIN!r} or {EVAL!r}")
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != net.input_dim:
        raise ValueError(
            f"batch must be ({net.input_dim} x b_s), got {x.shape}"
        )
    if x.shape[1] < 1:
        raise ValueError("batch must hold at least one column")
    if workspace is None:
        if not np.isfinite(x).all():
            raise ValueError("non-finite batch input")
        bufs = [_NO_BUFFERS] * (len(net.encoder) + 1)
    else:
        if workspace.net is not net:
            raise ValueError("workspace was made for a different network")
        if mode != TRAIN:
            raise ValueError("a workspace serves train-mode forwards only")
        bufs = workspace.claim(x)
    rng = _LazyRng(seed)
    entries = []
    abundances = None
    for i, layer in enumerate(net.encoder):
        entry: dict = {} if i else {"skip_dx": True}
        x = layer.forward(x, mode, rng, entry, bufs[i])
        entries.append(entry)
        if i == net.sum_to_one_index:
            abundances = x
    latent = x
    if abundances is None:
        abundances = latent
    decoder_entry: dict = {}
    recon = net.decoder.forward(latent, mode, rng, decoder_entry, bufs[-1])
    cache = ForwardCache(
        net=net,
        version=net.version,
        mode=mode,
        entries=entries,
        decoder_entry=decoder_entry,
        abundances=abundances,
        latent=latent,
        buffers=bufs,
        workspace=workspace,
        generation=0 if workspace is None else workspace.generation,
    )
    return recon, abundances, cache


def backward(
    net: Network, cache: ForwardCache, loss_grad: np.ndarray
) -> dict[str, NDArrayF]:
    """Gradients of the loss for every trainable parameter.

    loss_grad is dL/d(reconstruction) from the loss function. The cache must
    come from a train-mode forward on this exact network with no parameter
    update in between and, for a workspace forward, no later forward through
    that workspace. The returned arrays are views into net.flat_grads, so
    the next backward on the network overwrites them.
    """
    if cache.net is not net:
        raise CacheError("cache was built for a different network")
    if cache.version != net.version:
        raise CacheError("stale cache: parameters changed since forward")
    if cache.mode != TRAIN:
        raise CacheError("backward needs a train-mode forward cache")
    if cache.workspace is not None and cache.generation != cache.workspace.generation:
        raise CacheError("stale cache: a later forward reused its workspace")
    dy = np.asarray(loss_grad, dtype=np.float64)
    grads: dict[str, NDArrayF] = {}
    bufs = cache.buffers
    dy, dec_grads = net.decoder.backward(dy, cache.decoder_entry, bufs[-1])
    for key, g in dec_grads.items():
        grads[f"dec.{key}"] = g
    for i in range(len(net.encoder) - 1, -1, -1):
        dy, layer_grads = net.encoder[i].backward(dy, cache.entries[i], bufs[i])
        for key, g in layer_grads.items():
            grads[f"enc{i}.{key}"] = g
    return grads


@dataclass
class AdamState:
    """Adam hyperparameters, step counter and moments.

    m and v are flat float64 vectors in the layout of the parameters they
    serve (net.flat_params, or a named dict's iteration order for
    adam_step), created on the first step.
    """

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: NDArrayF | None = None
    v: NDArrayF | None = None

    def __post_init__(self):
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if self.learning_rate <= 0 or self.eps <= 0:
            raise ValueError("learning_rate and eps must be > 0")
        if self.t < 0:
            raise ValueError("step counter must be >= 0")


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
) -> dict[str, NDArrayF]:
    """One bias-corrected Adam update; returns the new parameter values.

    The reference for apply_gradients. The state is advanced in place
    (moments and step counter); each parameter's moments are the next slice
    of the flat state.m and state.v in the dict's iteration order. Mismatched
    names or shapes raise ValueError and non-finite gradients
    DivergenceError, before any state is touched.
    """
    if set(params) != set(grads):
        raise ValueError("parameter and gradient name sets differ")
    for name, g in grads.items():
        if np.asarray(g).shape != np.asarray(params[name]).shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient in {name}")
    if state.m is None:
        size = sum(np.asarray(p).size for p in params.values())
        state.m, state.v = np.zeros(size), np.zeros(size)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    new_params: dict[str, NDArrayF] = {}
    start = 0
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        sl = slice(start, start + g.size)
        start = sl.stop
        m = state.m[sl].reshape(g.shape)
        v = state.v[sl].reshape(g.shape)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / c1
        v_hat = v / c2
        new_params[name] = p - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_params


def apply_gradients(net: Network, state: AdamState) -> None:
    """Adam-update the network parameters in place from net.flat_grads, as
    the last backward left it (invalidates caches).

    The update is adam_step's, element for element, run once over the flat
    parameter vector. Non-finite gradients raise DivergenceError, naming
    the first bad parameter in arena order, before any state is touched.
    """
    g = net.flat_grads
    if not np.isfinite(g).all():
        bad = next(n for n, sl in net.param_slices.items() if not np.isfinite(g[sl]).all())
        raise DivergenceError(f"non-finite gradient in {bad}")
    if state.m is None:
        state.m, state.v = np.zeros(g.size), np.zeros(g.size)
    m, v, p = state.m, state.v, net.flat_params
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    # the operation order of adam_step, so every element rounds the same
    m *= b1
    t = g * (1.0 - b1)
    m += t
    v *= b2
    np.multiply(g, 1.0 - b2, out=t)
    t *= g
    v += t
    np.divide(m, c1, out=t)
    t *= state.learning_rate
    u = v / c2
    np.sqrt(u, out=u)
    u += state.eps
    t /= u
    p -= t
    net._version += 1


def save_checkpoint(net: Network, path) -> None:
    """Write the network to one file: JSON header plus float64 payload.

    The payload is the concatenation of all parameters then all buffers in
    header order, little-endian float64, with a sha256 checksum recorded in
    the header. Round-trips are bit-exact.
    """
    params = net.named_parameters()
    buffers = net.named_buffers()
    names_p = list(params)
    names_b = list(buffers)
    payload = b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes()
        for arr in [net.flat_params] + [buffers[n] for n in names_b]
    )
    header = {
        "format_version": CHECKPOINT_VERSION,
        "architecture": net.arch,
        "input_dim": net.input_dim,
        "latent_dim": net.latent_dim,
        "encoder": [layer.spec() for layer in net.encoder],
        "decoder": net.decoder.spec(),
        "meta": net.meta,
        "params": [{"name": n, "shape": list(params[n].shape)} for n in names_p],
        "buffers": [{"name": n, "shape": list(buffers[n].shape)} for n in names_b],
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(payload)


def load_checkpoint(path) -> Network:
    """Rebuild a network saved by save_checkpoint."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a network checkpoint")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        payload = fh.read()
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise ValueError("checkpoint payload checksum mismatch")
    encoder = [layer_from_spec(s) for s in header["encoder"]]
    decoder = layer_from_spec(header["decoder"])
    net = Network(
        encoder,
        decoder,
        input_dim=header["input_dim"],
        latent_dim=header["latent_dim"],
        arch=header["architecture"],
        meta=header.get("meta", {}),
    )
    offset = 0
    flat = np.frombuffer(payload, dtype="<f8")
    targets = dict(net.named_parameters())
    targets.update(net.named_buffers())
    for item in header["params"] + header["buffers"]:
        shape = tuple(item["shape"])
        size = int(np.prod(shape)) if shape else 1
        np.copyto(targets[item["name"]], flat[offset : offset + size].reshape(shape))
        offset += size
    if offset != flat.size:
        raise ValueError("checkpoint payload length disagrees with header")
    return net
