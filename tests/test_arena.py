"""The flat parameter arena and its fast paths against the slow paths they
replace: Adam over named dicts (the adam_step reference in nn_oracles) and
the band-major batch gather; and the gradient views that backward fills."""

import copy
import pickle

import numpy as np
import pytest

import nn_oracles as oracles
from unmixlab import nn
from unmixlab.metrics import mse_loss, sad_loss

ARCHS = [
    ("original", {"gd_rate": 0.1}, sad_loss),
    ("basic", {"n1": 4}, mse_loss),
]


def _net(arch, kwargs, bands=14, latent=3, seed=5):
    net = nn.build_network(arch, bands, latent, **kwargs)
    nn.initialize_network(net, "xgu", seed)
    return net


def _batches(bands, steps, size=8, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.05, 1.0, (bands, size)) for _ in range(steps)]


def _grads(net, x, seed):
    recon, _, cache = nn.forward(net, x, mode=nn.TRAIN, seed=seed)
    loss_fn = mse_loss if net.arch == "basic" else sad_loss
    return nn.backward(net, cache, loss_fn(x, recon)[1])


class TestLayout:
    @pytest.mark.parametrize("arch,kwargs,_", ARCHS)
    def test_parameters_are_views_in_named_order(self, arch, kwargs, _):
        net = _net(arch, kwargs)
        start = 0
        for name, arr in net.named_parameters().items():
            sl = net.param_slices[name]
            assert sl.start == start
            assert np.shares_memory(arr, net.flat_params)
            np.testing.assert_array_equal(arr.ravel(), net.flat_params[sl])
            start = sl.stop
        assert start == net.flat_params.size == net.flat_grads.size

    def test_layer_values_survive_binding(self):
        layer = nn.Linear(3, 2)
        layer.weight[...] = np.arange(6.0).reshape(2, 3)
        layer.bias[...] = [7.0, 8.0]
        net = nn.Network([layer, nn.ReLU(), nn.SumToOne()], nn.Linear(2, 3, bias=False),
                         input_dim=3, latent_dim=2)
        np.testing.assert_array_equal(net.flat_params, [0, 1, 2, 3, 4, 5, 7, 8] + [0] * 6)
        assert np.shares_memory(layer.weight, net.flat_params)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda n: pickle.loads(pickle.dumps(n))])
    def test_copies_own_a_bound_arena(self, clone):
        net = _net("original", {"gd_rate": 0.1})
        twin = clone(net)
        assert not np.shares_memory(twin.flat_params, net.flat_params)
        np.testing.assert_array_equal(twin.flat_params, net.flat_params)
        x = _batches(14, 1)[0]
        _grads(twin, x, seed=1)
        before = net.flat_params.copy()
        nn.apply_gradients(twin, nn.AdamState(learning_rate=0.05))
        np.testing.assert_array_equal(net.flat_params, before)
        for name, arr in twin.named_parameters().items():
            np.testing.assert_array_equal(arr.ravel(), twin.flat_params[twin.param_slices[name]])
        assert not np.array_equal(twin.flat_params, before)


class TestBackward:
    @pytest.mark.parametrize("arch,kwargs,_", ARCHS)
    def test_named_gradients_match_allocating_backward(self, arch, kwargs, _):
        # the values are the finite-difference tests' and the golden pins'
        net = _net(arch, kwargs)
        x = _batches(14, 1)[0]
        grads = _grads(net, x, seed=3)
        assert list(grads) == list(net.named_parameters())
        for name, g in grads.items():
            assert np.shares_memory(g, net.flat_grads)
            assert g.shape == net.named_parameters()[name].shape
            np.testing.assert_array_equal(g.ravel(), net.flat_grads[net.param_slices[name]])

    @pytest.mark.parametrize("arch,kwargs,_", ARCHS)
    def test_every_backward_returns_the_bound_named_grads(self, arch, kwargs, _):
        net = _net(arch, kwargs)
        x = _batches(14, 2)
        first = _grads(net, x[0], seed=1)
        second = _grads(net, x[1], seed=2)
        assert first is second is net.named_grads
        layer_grads = [g for layer in net.encoder + [net.decoder]
                       for g in getattr(layer, "grads", {}).values()]
        assert len(layer_grads) == len(first)
        for g, bound in zip(layer_grads, first.values()):
            assert g is bound and np.shares_memory(g, net.flat_grads)


class TestAdam:
    @pytest.mark.parametrize("arch,kwargs,_", ARCHS)
    def test_arena_update_is_bitwise_adam_step(self, arch, kwargs, _):
        fast = _net(arch, kwargs)
        slow = copy.deepcopy(fast)
        state_fast = nn.AdamState(learning_rate=0.01)
        state_slow = nn.AdamState(learning_rate=0.01)
        for step, x in enumerate(_batches(14, 20)):
            grads_fast = _grads(fast, x, seed=step)
            grads_slow = {k: v.copy() for k, v in _grads(slow, x, seed=step).items()}
            for name in grads_fast:
                np.testing.assert_array_equal(grads_fast[name], grads_slow[name])
            nn.apply_gradients(fast, state_fast)
            params = slow.named_parameters()
            for name, new in oracles.adam_step(params, grads_slow, state_slow).items():
                np.copyto(params[name], new)
            np.testing.assert_array_equal(fast.flat_params, slow.flat_params)
            np.testing.assert_array_equal(state_fast.m, state_slow.m)
            np.testing.assert_array_equal(state_fast.v, state_slow.v)
        assert state_fast.t == state_slow.t == 20
        assert state_fast.m.shape == state_fast.v.shape == fast.flat_params.shape

    def test_nonfinite_gradient_touches_nothing(self):
        net = _net("original", {"gd_rate": 0.1})
        state = nn.AdamState()
        x = _batches(14, 2)
        _grads(net, x[0], 0)
        nn.apply_gradients(net, state)
        grads = _grads(net, x[1], 1)
        grads["enc2.weight"][0, 1] = np.inf
        grads["enc8.gamma"][0] = np.nan
        params, m, v = net.flat_params.copy(), state.m.copy(), state.v.copy()
        # the first bad parameter in arena order
        with pytest.raises(nn.DivergenceError, match="enc2.weight"):
            nn.apply_gradients(net, state)
        assert state.t == 1
        np.testing.assert_array_equal(net.flat_params, params)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)

    def test_mismatched_names_and_shapes_rejected(self):
        # the checks live on oracles.adam_step, the reference that the arena
        # update matches
        net = _net("basic", {"n1": 4})
        params = net.named_parameters()
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        state = nn.AdamState()
        with pytest.raises(ValueError, match="name sets"):
            oracles.adam_step(params, {k: grads[k] for k in list(grads)[1:]}, state)
        grads["dec.weight"] = np.zeros(3)
        with pytest.raises(ValueError, match="shape mismatch"):
            oracles.adam_step(params, grads, state)
        assert state.t == 0 and state.m is None and state.v is None


class TestGather:
    @pytest.mark.parametrize("bands,pixels,size", [(156, 9025, 256), (156, 9025, 65),
                                                   (50, 2000, 100), (12, 90, 1)])
    def test_pixel_major_gather_is_the_band_major_one(self, bands, pixels, size):
        rng = np.random.default_rng(bands + size)
        x = rng.uniform(0.0, 1.0, (bands, pixels))
        xt = np.ascontiguousarray(x.T)
        idx = rng.permutation(pixels)[:size]
        fast, slow = xt[idx].T, x[:, idx]
        np.testing.assert_array_equal(fast, slow)
        assert fast.strides == slow.strides
        assert fast.flags.f_contiguous and slow.flags.f_contiguous
        assert fast.flags.c_contiguous == slow.flags.c_contiguous


class TestLazyRng:
    def test_forward_without_dropout_draws_no_generator(self, monkeypatch):
        basic, no_drop = _net("basic", {"n1": 4}), _net("original", {"gd_rate": 0.0})
        drop = _net("original", {"gd_rate": 0.1})
        x = _batches(14, 1)[0]
        calls = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: calls.append(a) or real(*a))
        nn.forward(basic, x, mode=nn.TRAIN, seed=3)
        nn.forward(no_drop, x, mode=nn.TRAIN, seed=3)
        nn.forward(drop, x, mode=nn.EVAL, seed=3)
        assert calls == []
        nn.forward(drop, x, mode=nn.TRAIN, seed=3)
        assert calls == [(3,)]

    def test_dropout_noise_is_the_seeded_stream(self):
        layer = nn.GaussianDropout(0.2)
        x = np.ones((3, 4))
        lazy = layer.forward(x, nn.TRAIN, nn._LazyRng(9), {})
        eager = layer.forward(x, nn.TRAIN, np.random.default_rng(9), {})
        np.testing.assert_array_equal(lazy, eager)
