"""Network assembly, initializer statistics, full-model gradients, Adam."""

import copy
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nn_oracles as oracles
from unmixlab import nn
from unmixlab.metrics import mse_loss, sad_loss


def linear_widths(net):
    return [
        (layer.in_features, layer.out_features)
        for layer in net.encoder
        if isinstance(layer, nn.Linear)
    ]


class TestBuildNetwork:
    def test_original_widths_samson_sized(self):
        net = nn.build_network("original", 156, 3)
        assert linear_widths(net) == [(156, 27), (27, 18), (18, 9), (9, 3)]
        kinds = [layer.kind for layer in net.encoder]
        assert kinds == [
            "linear", "sigmoid", "linear", "sigmoid", "linear", "sigmoid",
            "linear", "sigmoid", "batch_norm", "soft_threshold", "sum_to_one",
            "gaussian_dropout",
        ]
        assert net.decoder.in_features == 3 and net.decoder.out_features == 156
        assert not net.decoder.has_bias

    def test_original_widths_jasper_sized(self):
        net = nn.build_network("original", 198, 4)
        assert linear_widths(net) == [(198, 36), (36, 24), (24, 12), (12, 4)]

    def test_basic_widths(self):
        net = nn.build_network("basic", 156, 3, n1=10)
        assert linear_widths(net) == [(156, 30), (30, 3)]
        assert [l.kind for l in net.encoder] == [
            "linear", "relu", "linear", "relu", "sum_to_one",
        ]

    def test_fresh_params(self):
        net = nn.build_network("original", 30, 3, gd_rate=0.1)
        bn = next(l for l in net.encoder if isinstance(l, nn.BatchNorm))
        st = next(l for l in net.encoder if isinstance(l, nn.SoftThreshold))
        np.testing.assert_array_equal(bn.gamma, 1.0)
        np.testing.assert_array_equal(bn.beta, 0.0)
        np.testing.assert_array_equal(st.alpha, 0.0)

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            nn.build_network("conv", 30, 3)

    def test_sum_to_one_placement_enforced(self):
        with pytest.raises(ValueError):
            nn.Network(
                [nn.Linear(5, 3), nn.SumToOne(), nn.ReLU()],
                nn.Linear(3, 5, bias=False),
                input_dim=5, latent_dim=3,
            )


class TestInitWeights:
    def test_glorot_uniform_bound(self):
        """Closed-form bound sqrt(6 / (156 + 27)) = 0.18107."""
        w, b = nn.init_weights("xgu", 156, 27, seed=0)
        bound = np.sqrt(6.0 / (156 + 27))
        assert bound == pytest.approx(0.18107, abs=1e-5)
        assert np.all(np.abs(w) < bound)
        np.testing.assert_array_equal(b, 0.0)

    def test_he_normal_std(self):
        """Sample std over 10^6 draws within 1% of sqrt(2/156) = 0.11323."""
        w, _ = nn.init_weights("khn", 156, 6500, seed=1)
        assert w.size >= 1_000_000
        target = np.sqrt(2.0 / 156)
        assert target == pytest.approx(0.11323, abs=1e-5)
        assert w.std() == pytest.approx(target, rel=0.01)

    def test_biases_zero_except_he_uniform(self):
        for scheme in ("khn", "xgn", "xgu"):
            _, b = nn.init_weights(scheme, 64, 32, seed=2)
            np.testing.assert_array_equal(b, 0.0)

    def test_he_uniform_framework_variant(self):
        """Weights U(-g, g) with g = sqrt(6/(6*fan_in)); biases U(+/-1/sqrt(fan_in))."""
        fan_in = 48
        w, b = nn.init_weights("khu", fan_in, 4000, seed=3)
        g = np.sqrt(6.0 / (6.0 * fan_in))
        bb = 1.0 / np.sqrt(fan_in)
        assert np.all(np.abs(w) < g)
        assert np.all(np.abs(b) < bb)
        assert w.max() > 0.95 * g and w.min() < -0.95 * g
        assert b.max() > 0.9 * bb

    @pytest.mark.parametrize("scheme,var_of", [
        ("glorot_uniform", lambda fi, fo: 6.0 / (fi + fo) / 3.0),
        ("glorot_normal", lambda fi, fo: 2.0 / (fi + fo)),
        ("he_normal", lambda fi, fo: 2.0 / fi),
        ("he_uniform", lambda fi, fo: (6.0 / (6.0 * fi)) ** 1 / 3.0),
    ])
    def test_moment_statistics(self, scheme, var_of):
        """Empirical mean within 1e-3 and variance within 1% of closed form."""
        fi, fo = 100, 10_000
        w, _ = nn.init_weights(scheme, fi, fo, seed=4)
        assert w.size == 1_000_000
        assert abs(w.mean()) < 1e-3
        assert w.var() == pytest.approx(var_of(fi, fo), rel=0.01)

    def test_determinism_and_seed_sensitivity(self):
        w1, b1 = nn.init_weights("khu", 20, 10, seed=5)
        w2, b2 = nn.init_weights("khu", 20, 10, seed=5)
        w3, _ = nn.init_weights("khu", 20, 10, seed=6)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(b1, b2)
        assert not np.array_equal(w1, w3)

    def test_alias_names(self):
        assert nn.normalize_init_scheme("KHN") == "he_normal"
        assert nn.normalize_init_scheme("Glorot-Uniform") == "glorot_uniform"
        with pytest.raises(ValueError):
            nn.normalize_init_scheme("lecun")


def _gradcheck_network(net, x, target, loss_fn, seed, atol=1e-8, rtol=1e-5, sample=25):
    """Full-pipeline analytic vs central finite-difference gradients."""
    recon, _, cache = nn.forward(net, x, mode=nn.TRAIN, seed=seed)
    _, loss_grad = loss_fn(target, recon)
    grads = nn.backward(net, cache, loss_grad)
    rng = np.random.default_rng(0)
    for name, arr in net.named_parameters().items():
        flat = arr.ravel()
        ga = grads[name].ravel()
        if flat.size > sample:
            idxs = rng.choice(flat.size, sample, replace=False)
        else:
            idxs = np.arange(flat.size)
        for i in idxs:
            probe = copy.deepcopy(net)
            pflat = probe.named_parameters()[name].ravel()
            orig = pflat[i]
            h = 1e-5
            pflat[i] = orig + h
            vp = loss_fn(target, nn.forward(probe, x, mode=nn.TRAIN, seed=seed)[0])[0]
            pflat[i] = orig - h
            vm = loss_fn(target, nn.forward(probe, x, mode=nn.TRAIN, seed=seed)[0])[0]
            fd = (vp - vm) / (2 * h)
            assert abs(fd - ga[i]) <= atol + rtol * max(abs(fd), abs(ga[i])), (
                f"{name}[{i}]: analytic {ga[i]:.3e} vs fd {fd:.3e}"
            )


class TestFullModelGradients:
    def test_original_architecture(self):
        rng = np.random.default_rng(20)
        net = nn.build_network("original", 8, 3, gd_rate=0.1)
        nn.initialize_network(net, "xgu", seed=21)
        x = rng.uniform(0.1, 0.9, (8, 4))
        target = rng.uniform(0.1, 0.9, (8, 4))
        _gradcheck_network(net, x, target, mse_loss, seed=7)

    def test_basic_architecture_both_losses(self):
        rng = np.random.default_rng(22)
        net = nn.build_network("basic", 10, 3, n1=4)
        nn.initialize_network(net, "khu", seed=23)
        x = rng.uniform(0.1, 0.9, (10, 4))
        target = rng.uniform(0.1, 0.9, (10, 4))
        _gradcheck_network(net, x, target, mse_loss, seed=0)
        _gradcheck_network(net, x, target, sad_loss, seed=0)

    def test_zero_upstream_gradient_gives_zero_grads(self):
        net = nn.build_network("original", 8, 2, gd_rate=0.2)
        nn.initialize_network(net, "khn", seed=24)
        x = np.random.default_rng(25).uniform(0.1, 0.9, (8, 4))
        _, _, cache = nn.forward(net, x, mode=nn.TRAIN, seed=1)
        grads = nn.backward(net, cache, np.zeros((8, 4)))
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)


class TestForwardContracts:
    def test_abundances_live_on_simplex(self):
        rng = np.random.default_rng(26)
        for arch, kwargs in (("original", {"gd_rate": 0.1}), ("basic", {"n1": 6})):
            net = nn.build_network(arch, 12, 3, **kwargs)
            nn.initialize_network(net, "xgn", seed=27)
            x = rng.uniform(0.0, 1.0, (12, 8))
            for mode in (nn.TRAIN, nn.EVAL):
                _, ab, _ = nn.forward(net, x, mode=mode, seed=3)
                assert np.all(ab >= -1e-12)
                np.testing.assert_allclose(ab.sum(axis=0), 1.0, atol=1e-6)

    def test_eval_forward_is_deterministic(self):
        net = nn.build_network("original", 10, 3, gd_rate=0.3)
        nn.initialize_network(net, "khu", seed=28)
        x = np.random.default_rng(29).uniform(0, 1, (10, 5))
        r1, a1, _ = nn.forward(net, x, mode=nn.EVAL, seed=1)
        r2, a2, _ = nn.forward(net, x, mode=nn.EVAL, seed=999)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(a1, a2)

    def test_train_dropout_depends_on_seed_only(self):
        net = nn.build_network("original", 10, 3, gd_rate=0.3)
        nn.initialize_network(net, "khu", seed=30)
        x = np.random.default_rng(31).uniform(0, 1, (10, 5))
        # a train forward writes the network's slots, which the next train
        # forward of the same shape overwrites: keep copies
        r1 = nn.forward(net, x, mode=nn.TRAIN, seed=5)[0].copy()
        r2 = nn.forward(net, x, mode=nn.TRAIN, seed=5)[0].copy()
        r3, _, _ = nn.forward(net, x, mode=nn.TRAIN, seed=6)
        np.testing.assert_array_equal(r1, r2)
        assert not np.array_equal(r1, r3)

    def test_nonfinite_input_rejected(self):
        net = nn.build_network("basic", 6, 2, n1=3)
        for bad in (np.inf, np.nan):
            x = np.ones((6, 2))
            x[0, 0] = bad
            for mode in (nn.EVAL, nn.TRAIN):
                with pytest.raises(ValueError, match="non-finite"):
                    nn.forward(net, x, mode=mode)

    def test_the_finiteness_check_can_be_left_to_the_caller(self):
        """A caller whose batch was checked before, as a bundle's pixels
        were, skips the scan; the batch then runs through unchecked."""
        net = nn.build_network("basic", 6, 2, n1=3)
        x = np.ones((6, 2))
        x[0, 0] = np.nan
        for mode in (nn.EVAL, nn.TRAIN):
            recon = nn.forward(net, x, mode=mode, check_finite=False)[0]
            alone = nn.forward(net, x[:, 1:], mode=mode)[0]
            np.testing.assert_allclose(recon[:, 1], alone[:, 0], rtol=1e-12)

    def test_batchnorm_single_column_train_rejected(self):
        net = nn.build_network("original", 8, 2)
        with pytest.raises(ValueError):
            nn.forward(net, np.ones((8, 1)), mode=nn.TRAIN)

    def test_stale_cache_rejected(self):
        net = nn.build_network("basic", 6, 2, n1=3)
        nn.initialize_network(net, "xgu", seed=32)
        x = np.random.default_rng(33).uniform(0, 1, (6, 4))
        recon, _, cache = nn.forward(net, x, mode=nn.TRAIN)
        _, lg = mse_loss(x, recon)
        nn.backward(net, cache, lg)
        nn.apply_gradients(net, nn.AdamState())
        with pytest.raises(nn.CacheError):
            nn.backward(net, cache, lg)

    def test_eval_cache_rejected_for_backward(self):
        net = nn.build_network("basic", 6, 2, n1=3)
        nn.initialize_network(net, "xgu", seed=34)
        x = np.random.default_rng(35).uniform(0, 1, (6, 4))
        _, _, cache = nn.forward(net, x, mode=nn.EVAL)
        with pytest.raises(nn.CacheError):
            nn.backward(net, cache, np.zeros((6, 4)))

    def test_eval_forward_holds_no_spent_activation(self):
        """An eval forward keeps no slots, so each hidden activation
        is freed once the next layer has read it: the traced peak stays near
        the reconstruction's one scene, not the whole stack of activations
        (1.6x the scene when every slot was kept)."""
        net = nn.build_network("basic", 64, 3, n1=10)
        nn.initialize_network(net, "khu", seed=36)
        x = np.random.default_rng(37).uniform(0.0, 1.0, (64, 20000))
        tracemalloc.start()
        try:
            recon, _, cache = nn.forward(net, x, mode=nn.EVAL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * x.nbytes, peak / x.nbytes
        assert recon.shape == x.shape and cache.slots == []

    def test_foreign_cache_rejected(self):
        net1 = nn.build_network("basic", 6, 2, n1=3)
        net2 = nn.build_network("basic", 6, 2, n1=3)
        x = np.ones((6, 3)) * 0.5
        _, _, cache = nn.forward(net1, x, mode=nn.TRAIN)
        with pytest.raises(nn.CacheError):
            nn.backward(net2, cache, np.zeros((6, 3)))


class TestAdam:
    def test_first_step_closed_form(self):
        """With g = 1 the first bias-corrected step is -lr / (1 + eps)."""
        params = {"w": np.array([0.0])}
        grads = {"w": np.array([1.0])}
        state = nn.AdamState(learning_rate=0.01)
        new = oracles.adam_step(params, grads, state)
        expected = -0.01 / (1.0 + 1e-8)
        assert new["w"][0] == pytest.approx(expected, abs=1e-6)
        assert state.t == 1

    def test_zero_gradient_keeps_params(self):
        params = {"w": np.arange(4.0)}
        state = nn.AdamState()
        new = oracles.adam_step(params, {"w": np.zeros(4)}, state)
        np.testing.assert_array_equal(new["w"], params["w"])

    def test_determinism(self):
        rng = np.random.default_rng(36)
        params = {"w": rng.normal(size=(3, 3))}
        grads = {"w": rng.normal(size=(3, 3))}
        out1 = oracles.adam_step({k: v.copy() for k, v in params.items()},
                            grads, nn.AdamState(learning_rate=0.05))
        out2 = oracles.adam_step({k: v.copy() for k, v in params.items()},
                            grads, nn.AdamState(learning_rate=0.05))
        np.testing.assert_array_equal(out1["w"], out2["w"])

    def test_nonfinite_gradient_flags_divergence(self):
        params = {"w": np.zeros(2)}
        with pytest.raises(nn.DivergenceError):
            oracles.adam_step(params, {"w": np.array([1.0, np.nan])}, nn.AdamState())

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(2), "b": np.zeros(1)}
        for grads, match in [({"w": np.zeros(3), "b": np.zeros(1)}, "shape mismatch"),
                             ({"w": np.zeros(2)}, "name sets")]:
            state = nn.AdamState()
            with pytest.raises(ValueError, match=match):
                oracles.adam_step(params, grads, state)
            assert state.t == 0 and state.m is None

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            nn.AdamState(beta1=1.0)
        with pytest.raises(ValueError):
            nn.AdamState(learning_rate=0.0)
        for field in ("learning_rate", "eps"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match="finite"):
                    nn.AdamState(**{field: value})


class TestCheckpoints:
    @pytest.mark.parametrize("arch,kwargs", [("original", {"gd_rate": 0.1}), ("basic", {"n1": 3})],
                             ids=["original", "basic"])
    def test_roundtrip_bit_exact(self, tmp_path, arch, kwargs):
        net = nn.build_network(arch, 14, 3, **kwargs)
        nn.initialize_network(net, "khu", seed=40)
        # advance running stats so buffers are nontrivial
        x = np.random.default_rng(41).uniform(0, 1, (14, 16))
        recon, _, cache = nn.forward(net, x, mode=nn.TRAIN, seed=2)
        _, lg = mse_loss(x, recon)
        nn.backward(net, cache, lg)
        nn.apply_gradients(net, nn.AdamState())
        path = tmp_path / "net.ckpt"
        nn.save_checkpoint(net, path)
        loaded = nn.load_checkpoint(path)
        for name, arr in net.named_parameters().items():
            np.testing.assert_array_equal(loaded.named_parameters()[name], arr)
        for name, arr in net.named_buffers().items():
            np.testing.assert_array_equal(loaded.named_buffers()[name], arr)
        assert [l.spec() for l in loaded.encoder] == [l.spec() for l in net.encoder]
        assert loaded.decoder.spec() == net.decoder.spec()
        assert loaded.arch == arch
        assert loaded.meta["init_scheme"] == "he_uniform"
        # outputs agree bit for bit
        r1, a1, _ = nn.forward(net, x, mode=nn.EVAL)
        r2, a2, _ = nn.forward(loaded, x, mode=nn.EVAL)
        np.testing.assert_array_equal(r1, r2)

    def test_unknown_layer_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown layer kind 'conv'"):
            nn.layer_from_spec({"kind": "conv", "features": 3})
        with pytest.raises(ValueError, match="unknown layer kind None"):
            nn.layer_from_spec({"features": 3})

    def test_corrupted_checkpoint_rejected(self, tmp_path):
        net = nn.build_network("basic", 8, 2, n1=3)
        path = tmp_path / "net.ckpt"
        nn.save_checkpoint(net, path)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0x1
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            nn.load_checkpoint(path)

    @staticmethod
    def _saved(tmp_path) -> tuple[Path, bytes, dict, bytes]:
        """(path, the bytes before the header, the header, the payload) of a
        saved checkpoint."""
        path = tmp_path / "net.ckpt"
        nn.save_checkpoint(nn.build_network("basic", 8, 2, n1=3), path)
        blob = path.read_bytes()
        start = len(nn.CHECKPOINT_MAGIC) + 12
        (hlen,) = struct.unpack("<Q", blob[start - 8 : start])
        return path, blob[:start], json.loads(blob[start : start + hlen]), blob[start + hlen :]

    @pytest.mark.parametrize("keep", [2, 6], ids=["in-version", "in-length"])
    def test_checkpoint_cut_inside_its_header_rejected(self, tmp_path, keep):
        path, prefix, _, _ = self._saved(tmp_path)
        path.write_bytes(prefix[: len(nn.CHECKPOINT_MAGIC) + keep])
        with pytest.raises(ValueError, match="checkpoint"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("key", ["payload_sha256", "input_dim", "params"])
    def test_checkpoint_header_missing_a_key_rejected(self, tmp_path, key):
        path, prefix, header, payload = self._saved(tmp_path)
        del header[key]
        blob = json.dumps(header).encode("utf-8")
        prefix = prefix[:-8] + struct.pack("<Q", len(blob))
        path.write_bytes(prefix + blob + payload)
        with pytest.raises(ValueError, match=key):
            nn.load_checkpoint(path)
