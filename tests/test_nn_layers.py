"""Per-layer forward behavior and finite-difference gradient checks.

Every layer's backward rule is checked against central finite differences
(h = 1e-5, float64) through a scalar probe loss. Inputs are constructed away
from the ReLU / soft-threshold kinks so the derivative exists everywhere the
difference quotient samples.
"""

import numpy as np
import pytest

from unmixlab import nn


def fd_gradcheck(layer, x, mode="train", seed=0, params=True, atol=1e-8, rtol=1e-5):
    """Compare analytic gradients of sum(y * probe) with central differences."""
    rng_probe = np.random.default_rng(99)

    def run(lay, xv):
        cache = {}
        y = lay.forward(xv, mode, np.random.default_rng(seed), cache)
        return y, cache

    y0, cache0 = run(layer, x)
    probe = rng_probe.normal(size=y0.shape)
    dx = layer.backward(probe, cache0)
    grads = getattr(layer, "grads", {})

    h = 1e-5
    # input gradient
    fd_dx = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        fd_dx[idx] = (np.sum(run(layer, xp)[0] * probe) - np.sum(run(layer, xm)[0] * probe)) / (2 * h)
    np.testing.assert_allclose(dx, fd_dx, atol=atol, rtol=rtol)

    if not params:
        return
    for key, arr in layer.params.items():
        fd = np.empty_like(arr)
        flat = arr.ravel()
        fd_flat = fd.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            vp = np.sum(run(layer, x)[0] * probe)
            flat[i] = orig - h
            vm = np.sum(run(layer, x)[0] * probe)
            flat[i] = orig
            fd_flat[i] = (vp - vm) / (2 * h)
        np.testing.assert_allclose(grads[key], fd, atol=atol, rtol=rtol)


class TestLinear:
    def test_identity_weight_passes_input_through(self):
        layer = nn.Linear(3, 3)
        np.copyto(layer.weight, np.eye(3))
        x = np.random.default_rng(0).normal(size=(3, 5))
        y = layer.forward(x, "eval", None, {})
        np.testing.assert_array_equal(y, x)

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        layer = nn.Linear(4, 6)
        np.copyto(layer.weight, rng.normal(size=(6, 4)))
        np.copyto(layer.bias, rng.normal(size=6))
        fd_gradcheck(layer, rng.normal(size=(4, 3)))

    def test_gradcheck_without_bias(self):
        rng = np.random.default_rng(2)
        layer = nn.Linear(5, 2, bias=False)
        np.copyto(layer.weight, rng.normal(size=(2, 5)))
        assert layer.bias is None
        fd_gradcheck(layer, rng.normal(size=(5, 4)))

    def test_backward_writes_into_its_own_grads(self):
        rng = np.random.default_rng(15)
        layer = nn.Linear(3, 2)
        np.copyto(layer.weight, rng.normal(size=(2, 3)))
        grads = layer.grads
        owned = dict(grads)
        x, dy = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        slot = {}
        layer.forward(x, "train", None, slot)
        dx = layer.backward(dy, slot)
        assert layer.grads is grads
        assert all(grads[key] is owned[key] for key in ("weight", "bias"))
        np.testing.assert_array_equal(grads["weight"], dy @ x.T)
        np.testing.assert_array_equal(grads["bias"], dy.sum(axis=1))
        np.testing.assert_array_equal(dx, layer.weight.T @ dy)


class TestSigmoid:
    def test_output_range(self):
        # float64 sigmoid saturates to exactly 1.0 past ~36, so probe the
        # representable range for strict bounds
        layer = nn.Sigmoid()
        x = np.linspace(-30, 30, 101).reshape(1, -1)
        y = layer.forward(x, "eval", None, {})
        assert np.all(y > 0) and np.all(y < 1)
        assert np.all(np.diff(y[0]) > 0)

    def test_extreme_inputs_do_not_overflow(self):
        layer = nn.Sigmoid()
        y = layer.forward(np.array([[-800.0, 800.0]]), "eval", None, {})
        assert np.all(np.isfinite(y))

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        fd_gradcheck(nn.Sigmoid(), rng.normal(size=(4, 5)))


class TestReLU:
    def test_nonnegative_output(self):
        layer = nn.ReLU()
        x = np.array([[-1.0, 0.0, 2.5]])
        np.testing.assert_array_equal(layer.forward(x, "eval", None, {}), [[0, 0, 2.5]])

    def test_gradcheck_away_from_kink(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 6))
        x[np.abs(x) < 0.05] = 0.1
        fd_gradcheck(nn.ReLU(), x)


class TestBatchNorm:
    def test_train_mode_normalizes_batch(self):
        layer = nn.BatchNorm(4)
        rng = np.random.default_rng(5)
        x = rng.normal(3.0, 2.0, size=(4, 64))
        y = layer.forward(x, "train", None, {})
        np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-4)

    def test_eval_uses_running_stats(self):
        layer = nn.BatchNorm(2)
        rng = np.random.default_rng(6)
        for _ in range(200):
            layer.forward(rng.normal(1.0, 0.5, size=(2, 32)), "train", None, {})
        x = rng.normal(1.0, 0.5, size=(2, 1000))
        y = layer.forward(x, "eval", None, {})
        # running stats should roughly whiten data from the same distribution
        assert abs(y.mean()) < 0.2
        # eval mode is pure: repeated calls bit-match and stats stay put
        y2 = layer.forward(x, "eval", None, {})
        np.testing.assert_array_equal(y, y2)

    def test_single_column_train_rejected(self):
        layer = nn.BatchNorm(3)
        with pytest.raises(ValueError):
            layer.forward(np.ones((3, 1)), "train", None, {})

    def test_gradcheck(self):
        rng = np.random.default_rng(7)
        layer = nn.BatchNorm(3)
        np.copyto(layer.gamma, rng.uniform(0.5, 1.5, 3))
        np.copyto(layer.beta, rng.normal(size=3))
        fd_gradcheck(layer, rng.normal(size=(3, 8)))


class TestSoftThreshold:
    def test_elementwise_formula(self):
        layer = nn.SoftThreshold(2)
        np.copyto(layer.alpha, [0.1, 0.1])
        x = np.array([[0.5], [-0.2]])
        y = layer.forward(x, "eval", None, {})
        np.testing.assert_allclose(y, [[0.4], [0.0]])

    def test_alpha_gradient_of_active_unit(self):
        layer = nn.SoftThreshold(1)
        cache = {}
        layer.forward(np.array([[1.0]]), "train", None, cache)
        layer.backward(np.array([[1.0]]), cache)
        assert layer.grads["alpha"][0] == -1.0

    def test_gradcheck_away_from_kink(self):
        rng = np.random.default_rng(8)
        layer = nn.SoftThreshold(3)
        np.copyto(layer.alpha, [0.2, -0.1, 0.0])
        x = rng.normal(size=(3, 6))
        z = x - layer.alpha[:, None]
        x[np.abs(z) < 0.05] += 0.1
        fd_gradcheck(layer, x)


class TestSumToOne:
    def test_examples(self):
        layer = nn.SumToOne()
        y = layer.forward(np.array([[2.0], [2.0]]), "eval", None, {})
        np.testing.assert_allclose(y, [[0.5], [0.5]])
        y = layer.forward(np.array([[3.0], [1.0]]), "eval", None, {})
        np.testing.assert_allclose(y, [[0.75], [0.25]])

    def test_all_zero_column_falls_back_to_uniform(self):
        layer = nn.SumToOne()
        cache = {}
        x = np.array([[0.0, 3.0], [0.0, 1.0], [0.0, 0.0]])
        y = layer.forward(x, "eval", None, cache)
        np.testing.assert_allclose(y[:, 0], 1.0 / 3.0)
        np.testing.assert_allclose(y[:, 1], [0.75, 0.25, 0.0])
        # dead columns carry no input gradient
        dx = layer.backward(np.ones_like(x), cache)
        np.testing.assert_array_equal(dx[:, 0], 0.0)

    def test_gradcheck(self):
        rng = np.random.default_rng(9)
        fd_gradcheck(nn.SumToOne(), rng.uniform(0.2, 1.5, size=(3, 7)))


class TestGaussianDropout:
    def test_eval_mode_is_identity(self):
        layer = nn.GaussianDropout(0.3)
        x = np.random.default_rng(10).normal(size=(3, 4))
        y = layer.forward(x, "eval", np.random.default_rng(0), {})
        np.testing.assert_array_equal(y, x)

    def test_zero_rate_is_identity_in_train(self):
        layer = nn.GaussianDropout(0.0)
        x = np.random.default_rng(11).normal(size=(3, 4))
        y = layer.forward(x, "train", np.random.default_rng(0), {})
        np.testing.assert_array_equal(y, x)

    def test_train_noise_statistics(self):
        rate = 0.2
        layer = nn.GaussianDropout(rate)
        x = np.ones((1, 200_000))
        y = layer.forward(x, "train", np.random.default_rng(12), {})
        assert y.mean() == pytest.approx(1.0, abs=0.01)
        assert y.std() == pytest.approx(np.sqrt(rate / (1 - rate)), rel=0.02)

    def test_backward_reuses_forward_noise(self):
        layer = nn.GaussianDropout(0.4)
        x = np.random.default_rng(13).normal(size=(2, 5))
        cache = {}
        y = layer.forward(x, "train", np.random.default_rng(3), cache)
        dx = layer.backward(np.ones_like(x), cache)
        np.testing.assert_allclose(dx * x, y)

    def test_gradcheck_with_fixed_seed(self):
        rng = np.random.default_rng(14)
        fd_gradcheck(nn.GaussianDropout(0.25), rng.normal(size=(3, 4)), seed=77)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            nn.GaussianDropout(1.0)
        with pytest.raises(ValueError):
            nn.GaussianDropout(-0.1)
