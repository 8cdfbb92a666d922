"""Dense unmixing autoencoders with hand-derived forward and backward passes.

Data flows column-wise: a batch is a (features x batch_size) matrix. The
encoder compresses B-band pixels to E latent units; a sum-to-one layer turns
the latent vector into an abundance vector; the single bias-free decoder
layer maps abundances back to B bands, so its weight columns are directly
readable as endmember spectra.

All math is float64. Every layer implements an explicit backward rule, and
gradients are validated against central finite differences in the test
suite.

Every layer also takes a stack: a (members x features x batch) input, with
parameters that carry the same leading member axis. The layers reduce over
the last two axes only and matmul per member, so member r of a stack gets
the bits that a one-member network of member r's parameters gets from the
same (features x batch) input. Only stacks train; the one-member network
(no member axis) is the single model that Network.member copies out of a
stack, that checkpoints hold and whose 2-D parameters callers read.

A layer's forward(x, mode, rng, slot) keeps in its slot, a plain dict,
both what backward(dy, slot) reads and every array it wrote as an `out=`.
An array found in the slot from an earlier call is written over, so the
train slots a Network keeps per batch shape let a step allocate no
activations, while an empty {} allocates. backward returns only the input
gradient; it writes the parameter gradients into the layer's grads, arrays
the layer owns from construction and that a Network rebinds as views of
its flat_grads.
"""

from __future__ import annotations

import hashlib
import json
import math
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
    """Non-finite values appeared in gradients or the optimizer update.

    members lists the stack positions at fault; it is None for a
    one-member network.
    """

    def __init__(self, message: str, members: list[int] | None = None):
        super().__init__(message)
        self.members = members


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


class _Parameterless:
    """spec, params and out_width of a layer that has no parameters and
    keeps the width it is given."""

    def spec(self) -> dict:
        return {"kind": self.kind}

    @property
    def params(self):
        return {}

    def out_width(self, width: int) -> int:
        return width


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
        self.grads = {key: np.zeros_like(arr) for key, arr in self.params.items()}

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

    def forward(self, x, mode, rng, slot):
        slot["x"] = x
        y = slot["y"] = np.matmul(self.weight, x, out=slot.get("y"))
        if self.has_bias:
            y += self.bias[..., None]
        return y

    def backward(self, dy, slot):
        np.matmul(dy, slot["x"].mT, out=self.grads["weight"])
        if self.has_bias:
            np.sum(dy, axis=-1, out=self.grads["bias"])
        if slot.get("skip_dx"):
            # nothing reads the gradient of the batch itself
            return None
        dx = slot["dx"] = np.matmul(self.weight.mT, dy, out=slot.get("dx"))
        return dx


class Sigmoid(_Parameterless):
    kind = "sigmoid"

    def forward(self, x, mode, rng, slot):
        y = slot["y"] = _sigmoid(x, out=slot.get("y"))
        return y

    def backward(self, dy, slot):
        y = slot["y"]
        dx = slot["dx"] = np.multiply(dy, y, out=slot.get("dx"))
        dx *= 1.0 - y
        return dx


class ReLU(_Parameterless):
    kind = "relu"

    def forward(self, x, mode, rng, slot):
        mask = slot["mask"] = np.greater(x, 0, out=slot.get("mask"))
        y = slot["y"] = _where_into(slot.get("y"), mask, x)
        return y

    def backward(self, dy, slot):
        dx = slot["dx"] = np.multiply(dy, slot["mask"], out=slot.get("dx"))
        return dx


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
        self.grads = {key: np.zeros_like(arr) for key, arr in self.params.items()}

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

    def forward(self, x, mode, rng, slot):
        if mode == TRAIN:
            m = x.shape[-1]
            if m < 2:
                raise ValueError("train-mode batch norm requires batch size >= 2")
            mean = x.mean(axis=-1)
            var = x.var(axis=-1)
            self.running_mean *= 1.0 - BN_MOMENTUM
            self.running_mean += BN_MOMENTUM * mean
            self.running_var *= 1.0 - BN_MOMENTUM
            self.running_var += BN_MOMENTUM * var * (m / (m - 1.0))
        else:
            mean = self.running_mean
            var = self.running_var
        inv = slot["inv"] = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = slot["x_hat"] = np.subtract(x, mean[..., None], out=slot.get("x_hat"))
        x_hat *= inv[..., None]
        y = slot["y"] = np.multiply(self.gamma[..., None], x_hat, out=slot.get("y"))
        y += self.beta[..., None]
        return y

    def backward(self, dy, slot):
        x_hat = slot["x_hat"]
        inv = slot["inv"]
        m = dy.shape[-1]
        np.sum(dy * x_hat, axis=-1, out=self.grads["gamma"])
        np.sum(dy, axis=-1, out=self.grads["beta"])
        dxh = dy * self.gamma[..., None]
        inner = (
            m * dxh
            - dxh.sum(axis=-1, keepdims=True)
            - x_hat * (dxh * x_hat).sum(axis=-1, keepdims=True)
        )
        dx = slot["dx"] = np.multiply(inv[..., None] / m, inner, out=slot.get("dx"))
        return dx


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
        self.grads = {key: np.zeros_like(arr) for key, arr in self.params.items()}

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

    def forward(self, x, mode, rng, slot):
        z = slot["z"] = np.subtract(x, self.alpha[..., None], out=slot.get("z"))
        mask = slot["mask"] = np.greater(z, 0, out=slot.get("mask"))
        y = slot["y"] = _where_into(slot.get("y"), mask, z)
        return y

    def backward(self, dy, slot):
        dz = slot["dx"] = np.multiply(dy, slot["mask"], out=slot.get("dx"))
        alpha = np.sum(dz, axis=-1, out=self.grads["alpha"])
        np.negative(alpha, out=alpha)
        return dz


class SumToOne(_Parameterless):
    """Divide each column by its sum, guarded so every output is a simplex point.

    Intended for nonnegative inputs (post ReLU / soft threshold). Columns
    with a nonzero sum divide by (sum + 1e-12); a column summing to exactly
    zero (all units killed upstream) maps to the uniform vector 1/width so
    the simplex constraint holds everywhere. Dead columns get zero input
    gradient, which agrees with the zero subgradient their upstream kinks
    already produce.
    """

    kind = "sum_to_one"

    def forward(self, x, mode, rng, slot):
        s_raw = x.sum(axis=-2, keepdims=True)
        dead = slot["dead"] = (s_raw == 0.0)
        s = slot["s"] = s_raw + SUM_TO_ONE_GUARD
        y = slot["y"] = np.divide(x, s, out=slot.get("y"))
        if dead.any():
            np.copyto(y, 1.0 / x.shape[-2], where=dead)
        return y

    def backward(self, dy, slot):
        y = slot["y"]
        dx = slot["dx"] = np.subtract(
            dy, (dy * y).sum(axis=-2, keepdims=True), out=slot.get("dx")
        )
        dx /= slot["s"]
        dead = slot["dead"]
        if dead.any():
            np.copyto(dx, 0.0, where=dead)
        return dx


class GaussianDropout(_Parameterless):
    """Multiplicative unit-mean Gaussian noise, active in train mode only.

    rate r in [0, 1) maps to noise variance r / (1 - r); r = 0 is the
    identity. Backward reuses the exact noise realization from forward.
    rng holds one generator per member (or is one, for a 2-D input), so
    each member draws its noise from its own stream.
    """

    kind = "gaussian_dropout"

    def __init__(self, rate: float = 0.0):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.rate = rate

    def spec(self) -> dict:
        return {"kind": self.kind, "rate": self.rate}

    def forward(self, x, mode, rng, slot):
        if mode != TRAIN or self.rate == 0.0:
            slot["noise"] = None
            return x
        sigma = np.sqrt(self.rate / (1.0 - self.rate))
        # 1.0 + sigma * z, with the draw made into the slot's array
        noise = slot.get("noise")
        if noise is None:
            noise = slot["noise"] = np.empty(x.shape)
        gens = rng if isinstance(rng, list) else [rng]
        for gen, rows in zip(gens, noise.reshape(-1, *x.shape[-2:]), strict=True):
            gen.standard_normal(rows.shape, out=rows)
        noise *= sigma
        noise += 1.0
        y = slot["y"] = np.multiply(x, noise, out=slot.get("y"))
        return y

    def backward(self, dy, slot):
        noise = slot["noise"]
        if noise is None:
            return dy
        dx = slot["dx"] = np.multiply(dy, noise, out=slot.get("dx"))
        return dx


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
    the same layout, and every layer's grads are views into it, so the
    gradients that backward writes make a whole Adam step a handful of
    vector operations. param_slices maps each parameter name to its slice
    of both vectors, and named_grads maps it to its gradient view.

    A network built with members=R is a stack of R networks of this
    architecture: flat_params and flat_grads are R x P, every parameter,
    gradient and buffer gains a leading member axis (a weight is R x out x
    in), and forward takes an R x features x batch batch. Member r's
    arrays are row r of each, and every layer computes each member from
    that member's rows alone, as a one-member network (members=None, the
    default, with no member axis) computes it. A stack is what trains, and
    its meta holds one init_seed per member; member(r) copies member r out.

    The network also keeps the train slots of forward, one list per batch
    shape and layout, and a version that every train forward, Adam step and
    initialization bumps: a cache of an older version is stale.
    """

    def __init__(self, encoder, decoder: Linear, input_dim: int, latent_dim: int,
                 arch: str = "custom", meta: dict | None = None,
                 members: int | None = None):
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
        if members is not None and members < 1:
            raise ValueError(f"a stack needs at least one member, not {members}")
        self.encoder = list(encoder)
        self.decoder = decoder
        self.input_dim = input_dim
        self.latent_dim = latent_dim
        self.arch = arch
        self.meta = dict(meta or {})
        self.sum_to_one_index = sum_to_one_index
        self.members = members
        self._version = 0
        self._slots: dict[tuple, list[dict]] = {}
        # one member's shape of every parameter and buffer, as the layers
        # were built
        self._shapes = {
            name: arr.shape
            for name, *_, arr in self._entries("params") + self._entries("buffers")
        }
        self._bind_arena()

    def _owners(self):
        return [(f"enc{i}", layer) for i, layer in enumerate(self.encoder)] + [
            ("dec", self.decoder)
        ]

    def _entries(self, kind: str):
        """(name, layer, key, array) per parameter or buffer, in arena order."""
        return [
            (f"{prefix}.{key}", layer, key, arr)
            for prefix, layer in self._owners()
            for key, arr in getattr(layer, kind, {}).items()
        ]

    def _bind_arena(self) -> None:
        """Move every parameter into flat_params and point the layers'
        parameters and grads at views of it and of flat_grads; give every
        buffer the member axis. A layer's array of one member's shape
        seeds every member."""
        lead = () if self.members is None else (self.members,)
        entries = [
            (name, layer, key, arr, self._shapes[name])
            for name, layer, key, arr in self._entries("params")
        ]
        size = sum(math.prod(shape) for *_, shape in entries)
        self.flat_params = np.empty(lead + (size,))
        self.flat_grads = np.zeros(lead + (size,))
        self.param_slices: dict[str, slice] = {}
        self.named_grads: dict[str, NDArrayF] = {}
        start = 0
        for name, layer, key, arr, shape in entries:
            sl = slice(start, start + math.prod(shape))
            param = np.reshape(self.flat_params[..., sl], lead + shape, copy=False)
            param[...] = arr
            setattr(layer, key, param)
            grad = np.reshape(self.flat_grads[..., sl], lead + shape, copy=False)
            self.named_grads[name] = layer.grads[key] = grad
            self.param_slices[name] = sl
            start = sl.stop
        for name, layer, key, arr in self._entries("buffers"):
            buf = np.empty(lead + self._shapes[name])
            buf[...] = arr
            setattr(layer, key, buf)

    def keep_members(self, keep) -> None:
        """Drop every member of the stack but those at the positions in
        keep, which then become members 0, 1, ... in keep's order; their
        parameters, gradients and buffers are kept bit for bit."""
        if self.members is None:
            raise ValueError("a one-member network has no member axis")
        keep = list(keep)
        grads = self.flat_grads[keep]
        for _, layer, key, arr in self._entries("params") + self._entries("buffers"):
            setattr(layer, key, arr[keep])
        if "init_seed" in self.meta:
            self.meta["init_seed"] = [self.meta["init_seed"][p] for p in keep]
        self.members = len(keep)
        self._bind_arena()
        self.flat_grads[...] = grads
        self._slots.clear()
        self._version += 1

    def member(self, r: int) -> "Network":
        """A one-member copy of member r: its parameters and buffers bit for
        bit, and the stack's meta with member r's init_seed."""
        if self.members is None:
            raise ValueError("a one-member network has no member axis")
        layers = [layer_from_spec(layer.spec()) for layer in self.encoder + [self.decoder]]
        meta = dict(self.meta)
        if "init_seed" in meta:
            meta["init_seed"] = meta["init_seed"][r]
        net = Network(layers[:-1], layers[-1], self.input_dim, self.latent_dim,
                      self.arch, meta)
        net.flat_params[...] = self.flat_params[r]
        buffers = self.named_buffers()
        for name, buf in net.named_buffers().items():
            buf[...] = buffers[name][r]
        return net

    def _claim_slots(self, x: np.ndarray) -> list[dict]:
        """The train slots for a batch of x's shape and layout, made on
        first use: one per encoder layer, then the decoder's. The first
        layer's input is the batch, whose gradient nothing reads."""
        key = (x.shape, x.strides)
        slots = self._slots.get(key)
        if slots is None:
            slots = self._slots[key] = [{"skip_dx": True}] + [{} for _ in self.encoder]
        return slots

    def __getstate__(self):
        # copies and pickles carry no train slots; a copy makes its own on
        # its first train forward
        return {**self.__dict__, "_slots": {}}

    def __setstate__(self, state):
        # copy and pickle duplicate the views apart from the arena; rebind
        self.__dict__.update(state)
        self._bind_arena()

    def named_parameters(self) -> dict[str, NDArrayF]:
        return {name: arr for name, *_, arr in self._entries("params")}

    def named_buffers(self) -> dict[str, NDArrayF]:
        return {name: arr for name, *_, arr in self._entries("buffers")}

    def parameter_checksum(self, member: int | None = None) -> str:
        """sha256 of the parameters in name order; of member `member`'s
        rows for a stack, which hash as that member's copy does."""
        params = self.named_parameters()
        h = hashlib.sha256()
        for name in sorted(params):
            h.update(name.encode())
            h.update((params[name] if member is None else params[name][member]).tobytes())
        return h.hexdigest()


def build_network(
    arch: str, n_bands: int, n_latent: int, n1: int = 10, gd_rate: float = 0.0,
    members: int | None = None,
) -> Network:
    """Assemble one of the two canonical unmixing autoencoders.

    "original": four sigmoid-activated linear layers narrowing 9E, 6E, 3E, E,
    then batch norm, soft threshold, sum-to-one, and Gaussian dropout.
    "basic": two ReLU-activated linear layers (n1*E then E) and sum-to-one.
    Both use a single bias-free decoder so trained decoder columns can be
    read as endmembers. Weights start at zero; apply initialize_network.
    members=R builds a stack of R such networks (see Network).

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
    return Network(encoder, decoder, input_dim=n_bands, latent_dim=e, arch=arch,
                   members=members)


def _member_seeds(seed, count: int, what: str) -> list:
    """One seed per member: an int serves all count members, and a sequence
    must hold count seeds, kept as Python ints (never a numpy array)."""
    seeds = [seed] * count if isinstance(seed, (int, np.integer)) else list(seed)
    if len(seeds) != count:
        raise ValueError(f"{len(seeds)} {what} seeds for a network of {count} members")
    return seeds


def initialize_network(net: Network, scheme: str, seed) -> Network:
    """Seed all linear weights with the given scheme; reset the other params.

    Each linear layer (encoder order, then decoder) draws from its own
    stream mix64(seed, layer_index), so layer draws are independent of each
    other and of the batch/dropout randomness. A stack takes one seed per
    member (see _member_seeds) and fills member r's rows in place from
    mix64(seed_r, layer_index), as a one-member network of seed_r.
    """
    scheme = normalize_init_scheme(scheme)
    seeds = [int(s) for s in _member_seeds(seed, net.members or 1, "init")]
    linears = [l for l in net.encoder if isinstance(l, Linear)] + [net.decoder]
    for idx, layer in enumerate(linears):
        for r, member_seed in enumerate(seeds):
            w, b = init_weights(scheme, layer.in_features, layer.out_features,
                                mix64(member_seed, idx))
            # row r of the arrays seen with a member axis, a view
            np.copyto(layer.weight.reshape(-1, *w.shape)[r], w)
            if layer.has_bias:
                np.copyto(layer.bias.reshape(-1, b.size)[r], b)
    for layer in net.encoder:
        if isinstance(layer, BatchNorm):
            layer.gamma.fill(1.0)
            layer.beta.fill(0.0)
            layer.running_mean.fill(0.0)
            layer.running_var.fill(1.0)
        elif isinstance(layer, SoftThreshold):
            layer.alpha.fill(0.0)
    net.meta["init_scheme"] = scheme
    net.meta["init_seed"] = seeds[0] if net.members is None else seeds
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


@dataclass
class ForwardCache:
    """What backward needs of one forward call: the network state it ran
    on and the slot each layer filled, in encoder order then the
    decoder's (none for an eval forward)."""

    net: Network
    version: int
    mode: str
    slots: list


def forward(
    net: Network, batch: np.ndarray, mode: str = EVAL, seed=0, check_finite: bool = True,
) -> tuple[NDArrayF, NDArrayF, ForwardCache]:
    """Run the autoencoder on a (bands x batch) matrix, or a stack on a
    (members x bands x batch) array.

    Returns (reconstruction, abundances, cache). Abundances are the
    sum-to-one layer output, before any dropout. Dropout noise, active in
    train mode only, is drawn per member from that member's seed (see
    _member_seeds; a sequence of the wrong length raises ValueError).

    With check_finite (the default), a batch with a non-finite entry raises
    ValueError. The harness passes False for batches cut from an HsiBundle,
    whose pixels were checked once, when the bundle was built, and cannot
    change since: the check lives at that boundary, not in every step.

    A train forward runs in net's train slots for the batch's shape and
    layout and bumps net's version: the arrays it returns and the slots in
    its cache are overwritten by the next train forward of that shape, and
    its cache is stale after any later train forward, so copy out whatever
    must outlive the step. An eval forward returns fresh arrays and frees
    the train slots.
    """
    if mode not in (TRAIN, EVAL):
        raise ValueError(f"mode must be {TRAIN!r} or {EVAL!r}")
    x = np.asarray(batch, dtype=np.float64)
    rows = (net.input_dim,) if net.members is None else (net.members, net.input_dim)
    if x.shape[:-1] != rows:
        raise ValueError(
            f"batch must be ({' x '.join(map(str, rows))} x b_s), got {x.shape}"
        )
    if x.shape[-1] < 1:
        raise ValueError("batch must hold at least one column")
    if check_finite and not np.isfinite(x).all():
        raise ValueError("non-finite batch input")
    rng = [_LazyRng(s) for s in _member_seeds(seed, net.members or 1, "dropout")]
    if mode == TRAIN:
        slots = net._claim_slots(x)
        net._version += 1
    else:
        # only backward reads the slots, and it refuses an eval cache: an
        # eval forward drops each slot at the next layer, and with it the
        # activation it held, so a full-scene forward holds only what the
        # running layer reads and writes
        net._slots.clear()
        slots = None
    abundances = None
    for i, layer in enumerate(net.encoder):
        x = layer.forward(x, mode, rng, {} if slots is None else slots[i])
        if i == net.sum_to_one_index:
            abundances = x
    if abundances is None:
        abundances = x
    recon = net.decoder.forward(x, mode, rng, {} if slots is None else slots[-1])
    cache = ForwardCache(
        net=net,
        version=net._version,
        mode=mode,
        slots=[] if slots is None else slots,
    )
    return recon, abundances, cache


def backward(
    net: Network, cache: ForwardCache, loss_grad: np.ndarray
) -> dict[str, NDArrayF]:
    """Gradients of the loss for every trainable parameter.

    loss_grad is dL/d(reconstruction) from the loss function. The cache must
    come from the last train-mode forward on this exact network, with no
    parameter update or initialization since. Each layer writes its
    gradients into its grads, views into net.flat_grads; the return value
    is net.named_grads, the same dict on every call, whose arrays the next
    backward on the network overwrites.
    """
    if cache.net is not net:
        raise CacheError("cache was built for a different network")
    if cache.version != net._version:
        raise CacheError("stale cache: the network changed since its forward")
    if cache.mode != TRAIN:
        raise CacheError("backward needs a train-mode forward cache")
    slots = cache.slots
    dy = net.decoder.backward(np.asarray(loss_grad, dtype=np.float64), slots[-1])
    for i in range(len(net.encoder) - 1, -1, -1):
        dy = net.encoder[i].backward(dy, slots[i])
    return net.named_grads


@dataclass
class AdamState:
    """Adam hyperparameters, step counter and moments.

    m and v are flat float64 vectors in the layout of net.flat_params
    (R x P for a stack of R), created on the first step. The step counter
    is shared: the members of a stack step together.
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
        if not (0.0 < self.learning_rate < math.inf and 0.0 < self.eps < math.inf):
            raise ValueError("learning_rate and eps must be finite and > 0")
        if self.t < 0:
            raise ValueError("step counter must be >= 0")


def apply_gradients(net: Network, state: AdamState) -> None:
    """Adam-update the network parameters in place from net.flat_grads, as
    the last backward left it (invalidates caches).

    The update is bias-corrected Adam, run once over the flat parameter
    vector, or the R x P stack of them; tests/nn_oracles.py holds the
    per-parameter form that it matches bit for bit. Non-finite gradients
    raise DivergenceError, naming the first bad parameter in arena order
    (and, for a stack, every member that has one), before any state is
    touched.
    """
    g = net.flat_grads
    finite = np.isfinite(g).all(axis=-1)
    if not finite.all():
        members = None if net.members is None else np.flatnonzero(~finite).tolist()
        row = g if members is None else g[members[0]]
        bad = next(n for n, sl in net.param_slices.items() if not np.isfinite(row[sl]).all())
        where = "" if members is None else f" of stack members {members}"
        raise DivergenceError(f"non-finite gradient in {bad}{where}", members)
    if state.m is None:
        state.m, state.v = np.zeros(g.shape), np.zeros(g.shape)
    m, v, p = state.m, state.v, net.flat_params
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    # the operation order of the per-parameter form, so every element
    # rounds the same
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
    the header. Round-trips are bit-exact. A stack has no checkpoint;
    checkpoint each member's Network.member copy.
    """
    if net.members is not None:
        raise ValueError("a stacked network cannot be checkpointed")
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
    """Rebuild a network saved by save_checkpoint. A file that is not a
    whole checkpoint (cut short, a header key missing or mistyped, a
    corrupted payload) raises ValueError."""
    try:
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
    except (struct.error, KeyError, TypeError) as exc:
        raise ValueError(f"{path} is not a whole checkpoint: {exc!r}") from exc
