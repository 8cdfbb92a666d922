"""The train-mode workspace against the allocating forward and backward it
replaces: every layer kind, a slot used again against a fresh one, and
both architectures, bit for bit (signed zeros and layouts included); the
generation guard on stale caches; and copies of a network."""

import copy
import pickle

import numpy as np
import pytest

from unmixlab import nn
from unmixlab.metrics import mse_loss, sad_loss


def _bits(a):
    """The raw bytes of a float array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint8)


def assert_same_array(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    # a matmul downstream rounds by operand layout, so layouts must agree
    assert a.strides == b.strides
    np.testing.assert_array_equal(_bits(a), _bits(b))


def _signed_input(rows, cols, seed, order="C", low=-1.0):
    """Random entries with exact zeros, negative zeros and a dead column."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(low, 1.0, (rows, cols))
    x[0, 0], x[1, 1], x[-1, 2] = -0.0, 0.0, -0.0
    x[:, 3] = -0.0
    return np.asarray(x, order=order)


def _linear(bias):
    layer = nn.Linear(6, 5, bias=bias)
    rng = np.random.default_rng(1)
    layer.weight[...] = rng.normal(size=layer.weight.shape)
    if bias:
        layer.bias[...] = rng.normal(size=5)
    return layer


def _batch_norm():
    layer = nn.BatchNorm(5)
    rng = np.random.default_rng(2)
    layer.gamma[...] = rng.normal(size=5)
    layer.beta[...] = rng.normal(size=5)
    return layer


def _soft_threshold():
    layer = nn.SoftThreshold(5)
    layer.alpha[...] = [0.1, -0.2, 0.0, 0.3, -0.0]
    return layer


LAYERS = {
    "linear": (lambda: _linear(True), 6, -1.0),
    "linear_no_bias": (lambda: _linear(False), 6, -1.0),
    "sigmoid": (nn.Sigmoid, 5, -1.0),
    "relu": (nn.ReLU, 5, -1.0),
    "batch_norm": (_batch_norm, 5, -1.0),
    "soft_threshold": (_soft_threshold, 5, -1.0),
    "sum_to_one": (nn.SumToOne, 5, 0.0),
    "gaussian_dropout": (lambda: nn.GaussianDropout(0.3), 5, -1.0),
    "gaussian_dropout_zero_rate": (lambda: nn.GaussianDropout(0.0), 5, -1.0),
}


# what layers write as out=, so a slot used again must hand back the same
# arrays; the rest of a slot (Linear's x, BatchNorm's inv, SumToOne's s and
# dead) is made anew by every call
OUT_NAMES = ("y", "dx", "mask", "z", "x_hat", "noise")


def _step(layer, x, dy, slot):
    rng = np.random.default_rng(17)
    y = layer.forward(x, nn.TRAIN, rng, slot)
    dx = layer.backward(dy, slot)
    return y, dx, getattr(layer, "grads", {})


class TestLayers:
    @pytest.mark.parametrize("kind", sorted(LAYERS))
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_buffered_layer_is_the_allocating_layer(self, kind, order):
        make, rows, low = LAYERS[kind]
        slow, fast = make(), make()
        x = _signed_input(rows, 9, seed=3, order=order, low=low)
        dy = _signed_input(5, 9, seed=4)
        slot: dict = {}
        # a first step fills the slot; the second must overwrite its arrays
        warm = _step(fast, _signed_input(rows, 9, seed=5, order=order, low=low),
                     _signed_input(5, 9, seed=6), slot)
        names = set(slot)
        kept = {name: slot[name] for name in OUT_NAMES if name in slot}
        if kind == "batch_norm":
            # the warm-up moved the running statistics; start level again
            fast = copy.deepcopy(slow)
        y_ref, dx_ref, g_ref = _step(slow, x, dy, {})
        y, dx, g = _step(fast, x, dy, slot)
        assert_same_array(y, y_ref)
        assert_same_array(dx, dx_ref)
        assert list(g) == list(g_ref)
        for name in g:
            assert_same_array(g[name], g_ref[name])
        assert set(slot) == names
        for name, arr in kept.items():
            assert slot[name] is arr, f"{kind} replaced its {name} array"
        if kind == "gaussian_dropout_zero_rate":
            assert slot == {"noise": None} and y is x and dx is dy
        else:
            assert "y" in kept and y is slot["y"] and warm[0] is y
        if kind in ("relu", "soft_threshold"):
            # the kinked layers give +0.0, never -0.0, where the mask is off
            assert not np.signbit(y[y == 0.0]).any()

    def test_first_linear_skips_the_batch_gradient(self):
        slot: dict = {"skip_dx": True}
        layer = _linear(True)
        x, dy = _signed_input(6, 4, seed=7), _signed_input(5, 4, seed=8)
        for _ in range(2):
            _, dx, _ = _step(layer, x, dy, slot)
            assert dx is None
        assert "dx" not in slot

    def test_sum_to_one_dead_column_in_both_directions(self):
        layer = nn.SumToOne()
        x = np.abs(_signed_input(4, 6, seed=9))
        dy = _signed_input(4, 6, seed=10)
        y_ref, dx_ref, _ = _step(layer, x, dy, {})
        slot: dict = {}
        _step(layer, x + 1.0, dy, slot)
        y, dx, _ = _step(layer, x, dy, slot)
        np.testing.assert_array_equal(y[:, 3], 0.25)
        np.testing.assert_array_equal(_bits(dx[:, 3]), _bits(np.zeros(4)))
        assert_same_array(y, y_ref)
        assert_same_array(dx, dx_ref)


ARCHS = [
    ("original", {"gd_rate": 0.1}, sad_loss),
    ("original", {"gd_rate": 0.0}, mse_loss),
    ("basic", {"n1": 4}, mse_loss),
]


def _net(arch, kwargs, bands=14, latent=3, seed=5):
    net = nn.build_network(arch, bands, latent, **kwargs)
    nn.initialize_network(net, "xgu", seed)
    return net


class TestNetwork:
    @pytest.mark.parametrize("arch,kwargs,loss_fn", ARCHS)
    def test_training_steps_match_the_allocating_path(self, arch, kwargs, loss_fn):
        fast = _net(arch, kwargs)
        slow = copy.deepcopy(fast)
        state_fast, state_slow = nn.AdamState(0.01), nn.AdamState(0.01)
        workspace = nn.Workspace(fast)
        rng = np.random.default_rng(11)
        xt = rng.uniform(0.05, 1.0, (40, 14))
        # pixel-major gathers as the training loop makes them, with the
        # short batch of an epoch between full ones, and one C-ordered batch
        batches = [xt[rng.permutation(40)[:w]].T for w in (8, 8, 3, 8, 3, 8)]
        batches.append(np.ascontiguousarray(batches[0]))
        for step, xb in enumerate(batches):
            r_ref, a_ref, c_ref = nn.forward(slow, xb, mode=nn.TRAIN, seed=step)
            r, a, c = nn.forward(fast, xb, mode=nn.TRAIN, seed=step, workspace=workspace)
            assert_same_array(r, r_ref)
            assert_same_array(a, a_ref)
            nn.backward(slow, c_ref, loss_fn(xb, r_ref)[1])
            nn.backward(fast, c, loss_fn(xb, r)[1])
            assert_same_array(fast.flat_grads, slow.flat_grads)
            nn.apply_gradients(slow, state_slow)
            nn.apply_gradients(fast, state_fast)
            assert_same_array(fast.flat_params, slow.flat_params)
            for name, buf in slow.named_buffers().items():
                assert_same_array(fast.named_buffers()[name], buf)
        assert workspace.generation == len(batches)

    def test_short_batch_does_not_evict_the_full_width_buffers(self):
        net = _net("basic", {"n1": 4})
        workspace = nn.Workspace(net)
        x = np.random.default_rng(12).uniform(0.05, 1.0, (14, 8))
        full, _, _ = nn.forward(net, x, mode=nn.TRAIN, workspace=workspace)
        short, _, _ = nn.forward(net, x[:, :3], mode=nn.TRAIN, workspace=workspace)
        again, _, _ = nn.forward(net, x, mode=nn.TRAIN, workspace=workspace)
        assert again is full
        assert not np.shares_memory(short, full)

    def test_backward_on_an_older_cache_is_rejected(self):
        net = _net("original", {"gd_rate": 0.1})
        workspace = nn.Workspace(net)
        x = np.random.default_rng(13).uniform(0.05, 1.0, (14, 6))
        r1, _, c1 = nn.forward(net, x, mode=nn.TRAIN, seed=1, workspace=workspace)
        g1 = mse_loss(x, r1)[1]
        r2, _, c2 = nn.forward(net, x, mode=nn.TRAIN, seed=2, workspace=workspace)
        with pytest.raises(nn.CacheError, match="workspace"):
            nn.backward(net, c1, g1)
        nn.backward(net, c2, mse_loss(x, r2)[1])
        # the allocating path keeps its caches independent, as before
        _, _, c3 = nn.forward(net, x, mode=nn.TRAIN, seed=3)
        nn.forward(net, x, mode=nn.TRAIN, seed=4)
        nn.backward(net, c3, np.zeros((14, 6)))

    def test_workspace_is_bound_to_its_network_and_to_train_mode(self):
        net = _net("basic", {"n1": 4})
        other = _net("basic", {"n1": 4})
        x = np.full((14, 4), 0.5)
        with pytest.raises(ValueError, match="different network"):
            nn.forward(other, x, mode=nn.TRAIN, workspace=nn.Workspace(net))
        with pytest.raises(ValueError, match="train-mode"):
            nn.forward(net, x, mode=nn.EVAL, workspace=nn.Workspace(net))

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda n: pickle.loads(pickle.dumps(n))])
    def test_copies_share_no_workspace_buffers(self, clone):
        net = _net("original", {"gd_rate": 0.1})
        workspace = nn.Workspace(net)
        x = np.random.default_rng(14).uniform(0.05, 1.0, (14, 6))
        recon, _, cache = nn.forward(net, x, mode=nn.TRAIN, seed=1, workspace=workspace)
        nn.backward(net, cache, mse_loss(x, recon)[1])
        kept = [arr for slot in cache.slots for arr in slot.values()
                if isinstance(arr, np.ndarray)]
        assert kept
        twin = clone(net)
        arrays = [twin.flat_params, twin.flat_grads, *twin.named_buffers().values()]
        arrays += [g for layer in twin.encoder + [twin.decoder]
                   for g in getattr(layer, "grads", {}).values()]
        for arr in arrays:
            assert not any(np.shares_memory(arr, buf) for buf in kept)
        before = recon.copy()
        nn.forward(twin, x, mode=nn.TRAIN, seed=2, workspace=nn.Workspace(twin))
        np.testing.assert_array_equal(recon, before)
