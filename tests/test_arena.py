"""The flat parameter arena and its fast paths against the slow paths they
replace: adam_step over named dicts, allocating backward rules, and the
band-major batch gather."""

import copy
import pickle

import numpy as np
import pytest

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
        grads = _grads(twin, x, seed=1)
        before = net.flat_params.copy()
        nn.apply_gradients(twin, grads, nn.AdamState(learning_rate=0.05))
        np.testing.assert_array_equal(net.flat_params, before)
        for name, arr in twin.named_parameters().items():
            np.testing.assert_array_equal(arr.ravel(), twin.flat_params[twin.param_slices[name]])
        assert not np.array_equal(twin.flat_params, before)


class TestBackward:
    @pytest.mark.parametrize("arch,kwargs,_", ARCHS)
    def test_named_gradients_match_allocating_backward(self, arch, kwargs, _):
        net = _net(arch, kwargs)
        slow = copy.deepcopy(net)
        for layer in slow.encoder + [slow.decoder]:
            if hasattr(layer, "grad_views"):
                layer.grad_views = {}
        x = _batches(14, 1)[0]
        fast = _grads(net, x, seed=3)
        ref = _grads(slow, x, seed=3)
        assert list(fast) == list(ref)
        assert set(fast) == set(net.named_parameters())
        for name, g in fast.items():
            assert np.shares_memory(g, net.flat_grads)
            assert not np.shares_memory(ref[name], slow.flat_grads)
            assert g.shape == net.named_parameters()[name].shape
            np.testing.assert_array_equal(g, ref[name])


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
            nn.apply_gradients(fast, grads_fast, state_fast)
            slow.set_parameters(nn.adam_step(slow.named_parameters(), grads_slow, state_slow))
            np.testing.assert_array_equal(fast.flat_params, slow.flat_params)
            for name in state_slow.m:
                np.testing.assert_array_equal(state_fast.m[name], state_slow.m[name])
                np.testing.assert_array_equal(state_fast.v[name], state_slow.v[name])
        assert state_fast.t == state_slow.t == 20
        if arch == "original":
            assert {"enc8.gamma", "enc8.beta", "enc9.alpha"} <= set(state_fast.m)

    def test_plain_dict_gradients_take_the_same_update(self):
        net = _net("original", {"gd_rate": 0.1})
        twin = copy.deepcopy(net)
        state, twin_state = nn.AdamState(), nn.AdamState()
        for step, x in enumerate(_batches(14, 3)):
            nn.apply_gradients(net, _grads(net, x, step), state)
            plain = {k: v.tolist() for k, v in _grads(twin, x, step).items()}
            nn.apply_gradients(twin, plain, twin_state)
            np.testing.assert_array_equal(net.flat_params, twin.flat_params)

    def test_moments_carry_over_from_the_dict_path(self):
        net = _net("basic", {"n1": 4})
        twin = copy.deepcopy(net)
        state, twin_state = nn.AdamState(), nn.AdamState()
        batches = _batches(14, 4)
        for step, x in enumerate(batches):
            nn.apply_gradients(net, _grads(net, x, step), state)
            grads = {k: v.copy() for k, v in _grads(twin, x, step).items()}
            if step < 2:
                twin.set_parameters(nn.adam_step(twin.named_parameters(), grads, twin_state))
            else:
                nn.apply_gradients(twin, grads, twin_state)
            np.testing.assert_array_equal(net.flat_params, twin.flat_params)

    @pytest.mark.parametrize("plain", [False, True])
    def test_nonfinite_gradient_touches_nothing(self, plain):
        net = _net("original", {"gd_rate": 0.1})
        state = nn.AdamState()
        x = _batches(14, 2)
        nn.apply_gradients(net, _grads(net, x[0], 0), state)
        grads = _grads(net, x[1], 1)
        if plain:
            grads = {k: v.copy() for k, v in grads.items()}
        grads["enc2.weight"][0, 1] = np.inf
        grads["enc8.gamma"][0] = np.nan
        params, m = net.flat_params.copy(), state._arena[1].copy()
        with pytest.raises(nn.DivergenceError, match="enc8.gamma"):
            nn.apply_gradients(net, grads, state)
        assert state.t == 1
        np.testing.assert_array_equal(net.flat_params, params)
        np.testing.assert_array_equal(state._arena[1], m)

    def test_mismatched_names_and_shapes_rejected(self):
        net = _net("basic", {"n1": 4})
        grads = {k: np.zeros_like(v) for k, v in net.named_parameters().items()}
        with pytest.raises(ValueError, match="name sets"):
            nn.apply_gradients(net, {k: grads[k] for k in list(grads)[1:]}, nn.AdamState())
        grads["dec.weight"] = np.zeros(3)
        with pytest.raises(ValueError, match="shape mismatch"):
            nn.apply_gradients(net, grads, nn.AdamState())


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
