"""Loss gradients, permutation matching, and error aggregation."""

import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from unmixlab.harness import RunRecord
from unmixlab.metrics import (
    ANGLE_BLOCK_COLUMNS,
    DegenerateSpectrumError,
    angle_matrix,
    column_norms,
    format_mean_std,
    lenient_angles,
    match_endmembers,
    mse_loss,
    rmse_overwriting,
    sad_loss,
    summarize_errors,
    unmixing_errors,
)
from unmixlab.stats import group_scores, metric_column

from metrics_oracles import (
    brute_force_match,
    lenient_angles_reference,
    mse_loss_reference,
    rmse_abundances,
    sad_endmembers,
)


def _bits(a):
    """The raw bytes of a float array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


def _scene_and_recon(bands, pixels, seed):
    """A C-ordered scene and a reconstruction made the way a decoder makes
    one, a C-ordered matmul output."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (bands, pixels))
    w = rng.uniform(0.0, 1.0, (bands, 3))
    a = rng.dirichlet(np.ones(3), size=pixels).T
    return x, w @ a


class TestMseLoss:
    def test_zero_on_identical(self):
        x = np.random.default_rng(0).normal(size=(5, 4))
        value, grad = mse_loss(x, x)
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_unit_offset(self):
        x = np.zeros((3, 2))
        value, _ = mse_loss(x, np.ones((3, 2)))
        assert value == pytest.approx(1.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 3))
        x_hat = rng.normal(size=(5, 3))
        _, grad = mse_loss(x, x_hat)
        h = 1e-6
        for i in range(5):
            for j in range(3):
                xp = x_hat.copy(); xp[i, j] += h
                xm = x_hat.copy(); xm[i, j] -= h
                fd = (mse_loss(x, xp)[0] - mse_loss(x, xm)[0]) / (2 * h)
                assert abs(fd - grad[i, j]) <= 1e-8 * max(1.0, abs(fd))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.ones((2, 2)), np.ones((2, 3)))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_gradient_is_the_allocating_formula_bit_for_bit(self, order):
        rng = np.random.default_rng(2)
        x = np.asarray(rng.normal(size=(7, 9)), order=order)
        x[0, 0], x[1, 1] = 0.0, -0.0
        x_hat = rng.normal(size=(7, 9))
        x_hat[0, 0] = -0.0
        x_before, x_hat_before = x.copy(order="K"), x_hat.copy()
        value, grad = mse_loss(x, x_hat)
        diff = x_hat - x
        assert value == float(np.mean(diff * diff))
        ref = 2.0 * diff / diff.size
        assert grad.shape == ref.shape and grad.strides == ref.strides
        np.testing.assert_array_equal(_bits(grad), _bits(ref))
        np.testing.assert_array_equal(_bits(x), _bits(x_before))
        np.testing.assert_array_equal(_bits(x_hat), _bits(x_hat_before))


def _gathered_batch(members, bands, batch, seed):
    """A batch as a training step gathers it, the F-ordered .mT of a
    pixel-major take (2-D for members=None), and a C-ordered
    reconstruction. Every member's residuals hold +0, -0 and subnormals;
    the first member's also finite values near 1e300, whose squares
    overflow."""
    rng = np.random.default_rng(seed)
    xt = rng.uniform(0.0, 1.0, (60, bands))
    rows = [rng.permutation(60)[:batch] for _ in range(members or 1)]
    xb = np.take(xt, rows[0] if members is None else np.stack(rows), axis=0).mT
    recon = xb + rng.normal(0.0, 0.1, xb.shape)
    assert recon.flags.c_contiguous and not xb[..., 0, :].flags.c_contiguous
    small = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 3e-320)
    large = (1e300, -1e300, 8e307, -8e307)
    for m, (x_m, r_m) in enumerate(zip(xb.reshape(-1, bands, batch),
                                       recon.reshape(-1, bands, batch))):
        for k, residual in enumerate(small + (large if m == 0 else ())):
            # x is +0 there, so the residual is the reconstruction's entry
            x_m[k % bands, k], r_m[k % bands, k] = 0.0, residual
    return xb, recon


class TestMseLossOnePass:
    """The one-pass mse_loss against the allocating reference it replaced."""

    @pytest.mark.parametrize("members", [None, 1, 2, 3, 8])
    @pytest.mark.parametrize("in_place", [False, True], ids=["new", "out"])
    def test_equals_the_reference_bit_for_bit(self, members, in_place):
        xb, recon = _gathered_batch(members, 13, 11, seed=members or 0)
        with np.errstate(over="ignore"):
            ref_value, ref_grad = mse_loss_reference(xb, recon)
            x_before, recon_before = xb.copy(order="K"), recon.copy()
            value, grad = mse_loss(xb, recon, out=recon if in_place else None)
        np.testing.assert_array_equal(_bits(np.asarray(value)), _bits(np.asarray(ref_value)))
        assert grad.shape == ref_grad.shape and grad.strides == ref_grad.strides
        np.testing.assert_array_equal(_bits(grad), _bits(ref_grad))
        assert (grad is recon) == in_place
        np.testing.assert_array_equal(_bits(xb), _bits(x_before))
        if not in_place:
            np.testing.assert_array_equal(_bits(recon), _bits(recon_before))
        # the first member's loss overflowed, the others' did not
        values = np.atleast_1d(value)
        assert values[0] == math.inf and np.isfinite(values[1:]).all()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_in_place_on_equal_layouts(self, order):
        rng = np.random.default_rng(5)
        x = np.asarray(rng.normal(size=(3, 9, 7)), order=order)
        x_hat = np.asarray(rng.normal(size=(3, 9, 7)), order=order)
        x[0, 0, 0], x_hat[0, 0, 0] = 0.0, -0.0
        ref_value, ref_grad = mse_loss_reference(x, x_hat)
        value, grad = mse_loss(x, x_hat, out=x_hat)
        np.testing.assert_array_equal(_bits(value), _bits(ref_value))
        assert grad.strides == ref_grad.strides
        np.testing.assert_array_equal(_bits(grad), _bits(ref_grad))

    def test_gradient_beyond_half_the_largest_double_is_finite(self):
        """The one behaviour change: where |x_hat - x| > DBL_MAX / 2 the
        reference doubles the residual to inf, while residual / (n / 2)
        stays finite. The loss is infinite in both."""
        x = np.zeros((2, 3))
        x_hat = np.ones((2, 3))
        x_hat[1, 2] = 1.5e308
        with np.errstate(over="ignore"):
            value, grad = mse_loss(x, x_hat)
            ref_value, ref_grad = mse_loss_reference(x, x_hat)
        assert value == ref_value == math.inf
        assert ref_grad[1, 2] == math.inf
        assert grad[1, 2] == 1.5e308 / 3.0
        np.testing.assert_array_equal(_bits(grad[0]), _bits(ref_grad[0]))

    def test_peak_is_one_member_of_squares(self):
        """At the Samson stack shape the in-place call allocates one
        member's squares, not the stack's residual, squares or gradient."""
        members, bands, batch = 4, 156, 256
        rng = np.random.default_rng(6)
        xt = rng.uniform(0.0, 1.0, (2000, bands))
        idx = np.stack([rng.permutation(2000)[:batch] for _ in range(members)])
        xb = np.take(xt, idx, axis=0).mT
        recon = rng.uniform(0.0, 1.0, (members, bands, batch))
        tracemalloc.start()
        try:
            mse_loss(xb, recon, out=recon)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bands * batch * 8 + 64 * 1024


class TestSadLoss:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.1, 1.0, (6, 4))
        value, _ = sad_loss(x, x)
        assert value == pytest.approx(0.0, abs=1e-3)

    def test_orthogonal_columns(self):
        x = np.array([[1.0], [0.0]])
        x_hat = np.array([[0.0], [1.0]])
        value, _ = sad_loss(x, x_hat)
        assert value == pytest.approx(math.pi / 2, abs=1e-6)

    def test_scale_invariance(self):
        x = np.array([[1.0], [1.0]])
        value, _ = sad_loss(x, 2 * x)
        assert value == pytest.approx(0.0, abs=1e-3)
        rng = np.random.default_rng(3)
        a = rng.uniform(0.1, 1.0, (7, 5))
        b = rng.uniform(0.1, 1.0, (7, 5))
        v1, _ = sad_loss(a, b)
        v2, _ = sad_loss(a, b * rng.uniform(0.5, 3.0, size=5))
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.2, 1.0, (6, 4))
        x_hat = rng.uniform(0.2, 1.0, (6, 4))
        _, grad = sad_loss(x, x_hat)
        h = 1e-6
        for i in range(6):
            for j in range(4):
                xp = x_hat.copy(); xp[i, j] += h
                xm = x_hat.copy(); xm[i, j] -= h
                fd = (sad_loss(x, xp)[0] - sad_loss(x, xm)[0]) / (2 * h)
                assert abs(fd - grad[i, j]) <= 1e-6 * max(1.0, abs(fd), abs(grad[i, j]))

    def test_clamped_region_has_zero_gradient(self):
        x = np.array([[1.0], [0.0]])
        _, grad = sad_loss(x, x.copy())
        np.testing.assert_array_equal(grad, 0.0)

    def test_zero_column_rejected(self):
        """A zero-norm column has no angle: its pair's loss is NaN, for a
        2-D call as for a stack member, whose neighbours keep theirs."""
        x = np.array([[1.0], [1.0]])
        with np.errstate(divide="ignore", invalid="ignore"):
            value, _ = sad_loss(x, np.zeros((2, 1)))
            stacked, _ = sad_loss(np.stack([x, x]), np.stack([x, np.zeros((2, 1))]))
        assert value.shape == () and np.isnan(value)
        assert stacked.shape == (2,) and np.isfinite(stacked[0]) and np.isnan(stacked[1])

    def test_mse_zero_implies_sad_zero(self):
        """Exact reconstruction is zero under both losses (the one-way link)."""
        rng = np.random.default_rng(5)
        x = rng.uniform(0.1, 1.0, (8, 6))
        mse_value, _ = mse_loss(x, x.copy())
        sad_value, _ = sad_loss(x, x.copy())
        assert mse_value == 0.0
        assert sad_value == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("members", [None, 3])
    @pytest.mark.parametrize("x_order", ["C", "F"])
    def test_gradient_in_place_is_the_allocating_formula_bit_for_bit(self, members, x_order):
        lead = () if members is None else (members,)
        rng = np.random.default_rng(8)
        x = np.asarray(rng.uniform(0.1, 1.0, lead + (7, 10)), order=x_order)
        x_hat = rng.uniform(0.1, 1.0, lead + (7, 10))
        x_hat[..., 3] = 2.5 * x[..., 3]  # a clamped column
        x_hat[..., 0, 4] = -0.0
        nx, nh = np.linalg.norm(x, axis=-2), np.linalg.norm(x_hat, axis=-2)
        cos = np.einsum("...ij,...ij->...j", x, x_hat) / (nx * nh)
        cos_c = np.clip(cos, -(1 - 1e-7), 1 - 1e-7)
        dcos = x / (nx * nh)[..., None, :] - cos[..., None, :] * x_hat / (nh * nh)[..., None, :]
        ref = (-1.0 / np.sqrt(1.0 - cos_c * cos_c) / 10)[..., None, :] * dcos
        ref[np.broadcast_to((np.abs(cos) >= 1 - 1e-7)[..., None, :], ref.shape)] = 0.0
        value, grad = sad_loss(x, x_hat)
        assert grad.strides == ref.strides
        np.testing.assert_array_equal(_bits(grad), _bits(ref))
        value_out, grad_out = sad_loss(x, x_hat, out=x_hat)
        assert grad_out is x_hat
        np.testing.assert_array_equal(_bits(np.asarray(value_out)), _bits(np.asarray(value)))
        np.testing.assert_array_equal(_bits(grad_out), _bits(ref))

    def test_zero_column_gives_nan_in_place(self):
        """The in-place call gives the zero-norm column's NaN loss too, with
        the bits of the allocating call in both value and gradient."""
        x = np.ones((3, 2))
        x_hat = np.ones((3, 2))
        x_hat[:, 1] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            value, grad = sad_loss(x, x_hat)
            value_out, grad_out = sad_loss(x, x_hat, out=x_hat)
        assert np.isnan(value) and np.isnan(value_out)
        assert grad_out is x_hat
        np.testing.assert_array_equal(_bits(grad_out), _bits(grad))


def _whole_matrix_angles(x, x_hat):
    """The scoring pass's angles before column blocking: the oracle."""
    nx = np.linalg.norm(x, axis=0)
    nh = np.linalg.norm(x_hat, axis=0)
    ok = (nx > 0) & (nh > 0)
    angles = np.full(x.shape[1], np.pi / 2.0)
    if np.any(ok):
        cos = np.einsum("ij,ij->j", x[:, ok], x_hat[:, ok]) / (nx[ok] * nh[ok])
        angles[ok] = np.arccos(np.clip(cos, -1.0, 1.0))
    return angles


def assert_angles_match_oracle(x, x_hat):
    ref = _whole_matrix_angles(x, x_hat)
    np.testing.assert_array_equal(_bits(lenient_angles(x, x_hat)), _bits(ref))


class TestLenientAngles:
    EDGE = ANGLE_BLOCK_COLUMNS

    def _wide(self, bands, seed, order="C"):
        x, recon = _scene_and_recon(bands, 2 * self.EDGE + 377, seed)
        # zero-norm columns on both sides of the first block edge (pixels
        # and reconstruction), both at once at the second, one at the end
        x[:, [self.EDGE - 1, self.EDGE, 2 * self.EDGE]] = 0.0
        recon[:, [self.EDGE - 2, self.EDGE + 1, 2 * self.EDGE, -1]] = 0.0
        return np.asarray(x, order=order), recon

    @pytest.mark.parametrize("bands,seed", [(9, 0), (64, 1), (156, 2), (3, 3)])
    def test_blocks_match_the_whole_matrix_formula_bit_for_bit(self, bands, seed):
        x, recon = self._wide(bands, seed)
        assert x.shape[1] > 2 * ANGLE_BLOCK_COLUMNS
        assert_angles_match_oracle(x, recon)

    def test_f_ordered_pixels_match_too(self):
        x, recon = self._wide(20, 4, order="F")
        assert_angles_match_oracle(x, recon)

    def test_f_ordered_reconstructions_match_too(self):
        x, recon = self._wide(20, 7)
        assert_angles_match_oracle(x, np.asfortranarray(recon))

    @pytest.mark.parametrize("pixels", [1, ANGLE_BLOCK_COLUMNS - 1, ANGLE_BLOCK_COLUMNS,
                                        ANGLE_BLOCK_COLUMNS + 1])
    def test_narrow_scenes(self, pixels):
        x, recon = _scene_and_recon(12, pixels, 5)
        assert_angles_match_oracle(x, recon)

    def test_zero_norm_columns_count_as_right_angles(self):
        x = np.ones((4, 3))
        x[:, 2] = 0.0
        x_hat = np.ones((4, 3))
        x_hat[:, 1] = 0.0
        np.testing.assert_allclose(lenient_angles(x, x_hat), [0.0, np.pi / 2.0, np.pi / 2.0],
                                   atol=1e-7)
        np.testing.assert_array_equal(lenient_angles(np.zeros((4, 3)), x_hat), np.pi / 2.0)

    def test_inputs_untouched_and_shape_checked(self):
        x, recon = self._wide(9, 6)
        x_before, recon_before = x.copy(), recon.copy()
        lenient_angles(x, recon)
        np.testing.assert_array_equal(_bits(x), _bits(x_before))
        np.testing.assert_array_equal(_bits(recon), _bits(recon_before))
        with pytest.raises(ValueError):
            lenient_angles(x, recon[:, 1:])

    @pytest.mark.parametrize("bands,order", [(156, "C"), (17, "C"), (17, "F")])
    def test_equals_the_reference_with_and_without_norms(self, bands, order):
        """Zero-norm columns in x and in x_hat, a block where every column
        counts, an all-zero block, and a short last block."""
        pixels = 4 * self.EDGE + 299
        x, recon = _scene_and_recon(bands, pixels, 9)
        x[:, [5, 700]] = 0.0
        recon[:, [6, 700, pixels - 1]] = 0.0
        x[:, 2 * self.EDGE : 3 * self.EDGE] = 0.0  # the all-zero block
        x = np.asarray(x, order=order)
        ref = lenient_angles_reference(x, recon)
        np.testing.assert_array_equal(_bits(ref), _bits(_whole_matrix_angles(x, recon)))
        norms = column_norms(x)
        np.testing.assert_array_equal(_bits(norms), _bits(np.linalg.norm(x, axis=0)))
        for passed in (None, norms):
            np.testing.assert_array_equal(_bits(lenient_angles(x, recon, passed)), _bits(ref))
        assert (ref[2 * self.EDGE : 3 * self.EDGE] == np.pi / 2.0).all()
        with pytest.raises(ValueError, match="norms"):
            lenient_angles(x, recon, norms[1:])


class TestRmseOverwriting:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_the_allocating_formula_bit_for_bit(self, order):
        x, recon = _scene_and_recon(64, 3001, 7)
        x = np.asarray(x, order=order)
        x[:, 5] = 0.0
        ref = float(np.sqrt(np.mean((x - recon) ** 2)))
        x_before = x.copy(order="K")
        assert rmse_overwriting(x, recon) == ref
        np.testing.assert_array_equal(_bits(x), _bits(x_before))
        # recon held the squared residuals and is spent
        assert recon.min() >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse_overwriting(np.zeros((2, 3)), np.zeros((2, 2)))


class TestMatchEndmembers:
    def test_identity_on_equal(self):
        rng = np.random.default_rng(6)
        w = rng.uniform(0.1, 1.0, (10, 4))
        assert match_endmembers(angle_matrix(w, w)) == (0, 1, 2, 3)

    def test_swap_detected(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0.1, 1.0, (10, 3))
        swapped = w[:, [1, 0, 2]]
        assert match_endmembers(angle_matrix(swapped, w)) == (1, 0, 2)

    def test_matches_brute_force_enumeration(self):
        """Independent brute force over all 24 permutations."""
        rng = np.random.default_rng(8)
        w_hat = rng.uniform(0.1, 1.0, (12, 4))
        w_ref = rng.uniform(0.1, 1.0, (12, 4))

        def angle(u, v):
            c = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
            return math.acos(max(-1.0, min(1.0, c)))

        best, best_cost = None, math.inf
        for perm in itertools.permutations(range(4)):
            cost = sum(angle(w_hat[:, perm[j]], w_ref[:, j]) for j in range(4))
            if cost < best_cost:
                best, best_cost = perm, cost
        assert match_endmembers(angle_matrix(w_hat, w_ref)) == best

    def test_equals_the_exhaustive_oracle(self):
        """The subset DP returns the E! search's tuple, ties and rounding
        included, on 1200 matrices with E from 2 to 7."""
        rng = np.random.default_rng(16)
        kinds = {
            # distinct random costs
            "random": lambda e: rng.uniform(0.0, np.pi, (e, e)),
            # few distinct values, so many orderings share the least sum
            "quantized": lambda e: 0.25 * rng.integers(0, 3, (e, e)),
            # an estimate column given twice: two equal rows of angles
            "duplicate": lambda e: angle_matrix(
                rng.uniform(0.1, 1.0, (8, e))[:, [0, *range(e - 1)]],
                rng.uniform(0.1, 1.0, (8, e)),
            ),
            # a 1e16 term absorbs later small ones, so orderings whose
            # prefix sums differ can end at the same total
            "absorption": lambda e: rng.choice([1e16, 1e-17, 0.0, 1.0, 2.0], (e, e)),
        }
        checked = 0
        for kind, make in kinds.items():
            for trial in range(300):
                cost = make(2 + trial % 6)
                assert match_endmembers(cost) == brute_force_match(cost), (kind, cost)
                checked += 1
        assert checked == 1200

    def test_nonfinite_cost_rejected(self):
        cost = np.ones((4, 4))
        cost[2, 1] = np.inf
        for bad in (np.full((4, 4), np.nan), cost):
            with pytest.raises(ValueError, match="finite"):
                match_endmembers(bad)

    def test_non_square_cost_rejected(self):
        with pytest.raises(ValueError, match="square"):
            match_endmembers(np.ones((3, 2)))

    def test_zero_column_rejected(self):
        w = np.ones((5, 2))
        # a zero column has no norm, and one of 1e200s a norm that overflows
        for value in (0.0, 1e200):
            bad = w.copy()
            bad[:, 0] = value
            with np.errstate(over="ignore"), pytest.raises(DegenerateSpectrumError):
                angle_matrix(bad, w)


def _estimates_for(w_ref, perm):
    """Estimate columns laid out so that column perm[j] is reference column j."""
    w_hat = np.empty_like(w_ref)
    w_hat[:, list(perm)] = w_ref
    return w_hat


class TestAbundanceRmse:
    """The abundance error of unmixing_errors."""

    def test_zero_on_identical(self):
        rng = np.random.default_rng(10)
        w = rng.uniform(0.1, 1.0, (8, 3))
        a = rng.dirichlet(np.ones(3), size=6).T
        assert unmixing_errors(w, a, w, a)[0] == 0.0

    def test_unit_vector_flip(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        a_ref = np.array([[1.0], [0.0]])
        a_hat = np.array([[0.0], [1.0]])
        rmse, _, perm = unmixing_errors(w, a_ref, w, a_hat)
        assert perm == (0, 1)
        assert rmse == pytest.approx(1.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.1, 1.0, (10, 3))
        a_ref = rng.dirichlet(np.ones(3), size=50).T
        a_hat = rng.dirichlet(np.ones(3), size=50).T
        perm = (2, 0, 1)
        rmse, _, found = unmixing_errors(w, a_ref, _estimates_for(w, perm), a_hat)
        assert found == perm
        direct = math.sqrt(
            np.mean((a_ref - a_hat[list(perm), :]) ** 2)
        )
        assert rmse == pytest.approx(direct, abs=1e-12)
        assert rmse == rmse_abundances(a_ref, a_hat, perm)

    def test_same_permutation_both_sides_is_invariant(self):
        rng = np.random.default_rng(12)
        w = rng.uniform(0.1, 1.0, (10, 4))
        a_ref = rng.dirichlet(np.ones(4), size=30).T
        a_hat = rng.dirichlet(np.ones(4), size=30).T
        base = unmixing_errors(w, a_ref, w, a_hat)[0]
        shuffle = [2, 0, 3, 1]
        permuted = unmixing_errors(
            w[:, shuffle], a_ref[shuffle, :], w[:, shuffle], a_hat[shuffle, :]
        )[0]
        assert base == pytest.approx(permuted, abs=1e-12)


class TestSadEndmembers:
    """The endmember angle error of unmixing_errors."""

    def _a(self, e):
        return np.random.default_rng(e).dirichlet(np.ones(e), size=5).T

    def test_zero_on_identical(self):
        w = np.random.default_rng(13).uniform(0.1, 1.0, (8, 3))
        assert unmixing_errors(w, self._a(3), w, self._a(3))[1] == pytest.approx(0.0, abs=1e-7)

    def test_columnwise_scale_invariance(self):
        w = np.random.default_rng(14).uniform(0.1, 1.0, (8, 3))
        sad = unmixing_errors(w, self._a(3), 2 * w, self._a(3))[1]
        assert sad == pytest.approx(0.0, abs=1e-7)

    def test_half_orthogonal_pair(self):
        # both orderings cost pi/2, so the tie keeps (0, 1): the first pair
        # identical (angle 0), the second orthogonal (angle pi/2)
        w_ref = np.array([[1.0, 1.0],
                          [0.0, 0.0]])
        w_hat = np.array([[1.0, 0.0],
                          [0.0, 1.0]])
        _, value, perm = unmixing_errors(w_ref, self._a(2), w_hat, self._a(2))
        assert perm == (0, 1)
        assert value == pytest.approx(math.pi / 4, abs=1e-12)


class TestAggregation:
    def _rec(self, a, e, diverged=False):
        return SimpleNamespace(abundance_rmse=a, endmember_sad=e, diverged=diverged)

    @staticmethod
    def _summarize(records):
        """summarize_errors of the records' metric_column scores."""
        diverged = [rec.diverged for rec in records]
        return summarize_errors(
            metric_column(diverged, [rec.abundance_rmse for rec in records]),
            metric_column(diverged, [rec.endmember_sad for rec in records]),
        )

    def test_mean_of_two(self):
        summary = self._summarize([self._rec(0.1, 0.3), self._rec(0.3, 0.1)])
        assert summary.abundance_mean == pytest.approx(0.2)
        assert summary.endmember_mean == pytest.approx(0.2)

    def test_single_record_zero_std(self):
        summary = self._summarize([self._rec(0.25, 0.4)])
        assert summary.abundance_mean == 0.25
        assert summary.abundance_std == 0.0
        assert summary.endmember_std == 0.0

    def test_diverged_records_skipped(self):
        summary = self._summarize(
            [self._rec(0.1, 0.1), self._rec(9.0, 9.0, diverged=True)]
        )
        assert summary.count == 1
        assert summary.abundance_mean == 0.1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            self._summarize([])
        with pytest.raises(ValueError):
            summarize_errors(np.empty(0), np.empty(0))

    def test_nan_scored_record_is_dropped_as_group_scores_drops_it(self):
        lines = []
        for init_id, score in ((1, 0.1), (1, math.nan), (2, 0.3)):
            lines.append(RunRecord(
                experiment_id="nan", init_id=init_id, run_id=len(lines) + 1,
                init_seed=init_id, run_seed=len(lines) + 1, init_checksum="c",
                final_loss=score, recon_rmse=score, recon_sad=score,
                abundance_rmse=score, endmember_sad=score, permutation=(0, 1),
                diverged=False,
            ).to_json())
        assert "NaN" in lines[1]
        records = [RunRecord.from_json(line) for line in lines]
        summary = self._summarize(records)
        assert summary.count == 2
        assert summary.abundance_mean == pytest.approx(0.2)
        assert summary.endmember_mean == pytest.approx(0.2)
        assert group_scores(records, "abundance_rmse").sizes == (1, 1)

    def test_summary_formatting(self):
        assert format_mean_std(0.0712, 0.104) == "0.07±0.1"


class TestUnmixingErrors:
    def test_recovers_permuted_solution(self):
        rng = np.random.default_rng(15)
        w = rng.uniform(0.1, 1.0, (10, 3))
        a = rng.dirichlet(np.ones(3), size=20).T
        perm = [2, 0, 1]
        abundance_rmse, endmember_sad, found = unmixing_errors(w, a, w[:, perm], a[perm, :])
        assert abundance_rmse == pytest.approx(0.0, abs=1e-12)
        assert endmember_sad == pytest.approx(0.0, abs=1e-7)
        # found[j] indexes the estimate column matching reference column j
        assert [perm[found[j]] for j in range(3)] == [0, 1, 2]

    @pytest.mark.parametrize("e", [2, 3, 5, 7])
    def test_equals_the_per_factor_formulas(self, e):
        """The same permutation as the E! search, and both errors equal to
        the per-pair angle mean and the permuted-row RMSE, bit for bit."""
        rng = np.random.default_rng(100 + e)
        for _ in range(20):
            w_ref = rng.uniform(0.1, 1.0, (30, e))
            w_hat = w_ref[:, rng.permutation(e)] + rng.normal(0.0, 0.2, (30, e))
            a_ref = rng.dirichlet(np.ones(e), size=40).T
            a_hat = rng.dirichlet(np.ones(e), size=40).T
            abundance_rmse, endmember_sad, perm = unmixing_errors(w_ref, a_ref, w_hat, a_hat)
            assert perm == brute_force_match(angle_matrix(w_hat, w_ref))
            assert abundance_rmse == rmse_abundances(a_ref, a_hat, perm)
            assert endmember_sad == sad_endmembers(w_ref, w_hat, perm)

    def test_planted_permutation_recovered_at_e12(self):
        """Twelve endmembers, past the old E! search's reach."""
        rng = np.random.default_rng(17)
        w = rng.uniform(0.1, 1.0, (40, 12))
        a = rng.dirichlet(np.ones(12), size=30).T
        perm = tuple(int(p) for p in rng.permutation(12))
        w_hat = _estimates_for(w, perm)
        a_hat = np.empty_like(a)
        a_hat[list(perm), :] = a
        abundance_rmse, endmember_sad, found = unmixing_errors(w, a, w_hat, a_hat)
        assert found == perm
        assert abundance_rmse == 0.0
        assert endmember_sad == pytest.approx(0.0, abs=1e-7)

    def test_nan_abundance_scores_nan(self):
        """A NaN abundance gives a NaN score, which every consumer drops."""
        w = np.random.default_rng(18).uniform(0.1, 1.0, (8, 2))
        a = np.full((2, 4), 0.5)
        a_hat = a.copy()
        a_hat[1, 2] = np.nan
        abundance_rmse, endmember_sad, perm = unmixing_errors(w, a, w, a_hat)
        assert math.isnan(abundance_rmse)
        assert perm == (0, 1) and math.isfinite(endmember_sad)

    def test_abundance_shape_mismatch_rejected(self):
        w = np.random.default_rng(19).uniform(0.1, 1.0, (8, 2))
        with pytest.raises(ValueError, match="abundance"):
            unmixing_errors(w, np.ones((2, 4)), w, np.ones((2, 5)))
        with pytest.raises(ValueError, match="abundance"):
            unmixing_errors(w, np.ones((3, 4)), w, np.ones((3, 4)))
