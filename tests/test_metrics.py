"""Loss gradients, permutation matching, and error aggregation."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from unmixlab.harness import RunRecord
from unmixlab.metrics import (
    ANGLE_BLOCK_COLUMNS,
    DegenerateSpectrumError,
    ErrorPair,
    aggregate_errors,
    format_mean_std,
    lenient_angles,
    match_endmembers,
    mse_loss,
    rmse_abundances,
    rmse_overwriting,
    sad_endmembers,
    sad_loss,
    unmixing_errors,
)
from unmixlab.stats import group_scores


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
        x = np.array([[1.0], [1.0]])
        with pytest.raises(DegenerateSpectrumError):
            sad_loss(x, np.zeros((2, 1)))

    def test_mse_zero_implies_sad_zero(self):
        """Exact reconstruction is zero under both losses (the one-way link)."""
        rng = np.random.default_rng(5)
        x = rng.uniform(0.1, 1.0, (8, 6))
        mse_value, _ = mse_loss(x, x.copy())
        sad_value, _ = sad_loss(x, x.copy())
        assert mse_value == 0.0
        assert sad_value == pytest.approx(0.0, abs=1e-3)


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
        assert match_endmembers(w, w) == (0, 1, 2, 3)

    def test_swap_detected(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0.1, 1.0, (10, 3))
        swapped = w[:, [1, 0, 2]]
        assert match_endmembers(swapped, w) == (1, 0, 2)

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
        assert match_endmembers(w_hat, w_ref) == best

    def test_zero_column_rejected(self):
        w = np.ones((5, 2))
        bad = w.copy()
        bad[:, 0] = 0.0
        with pytest.raises(DegenerateSpectrumError):
            match_endmembers(bad, w)

    def test_too_many_endmembers_rejected(self):
        w = np.random.default_rng(9).uniform(0.1, 1, (30, 11))
        with pytest.raises(ValueError):
            match_endmembers(w, w)


class TestAbundanceRmse:
    def test_zero_on_identical(self):
        a = np.random.default_rng(10).dirichlet(np.ones(3), size=6).T
        assert rmse_abundances(a, a, (0, 1, 2)) == 0.0

    def test_unit_vector_flip(self):
        a_ref = np.array([[1.0], [0.0]])
        a_hat = np.array([[0.0], [1.0]])
        assert rmse_abundances(a_ref, a_hat, (0, 1)) == pytest.approx(1.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(11)
        a_ref = rng.dirichlet(np.ones(3), size=50).T
        a_hat = rng.dirichlet(np.ones(3), size=50).T
        perm = (2, 0, 1)
        direct = math.sqrt(
            np.mean((a_ref - a_hat[list(perm), :]) ** 2)
        )
        assert rmse_abundances(a_ref, a_hat, perm) == pytest.approx(direct, abs=1e-12)

    def test_same_permutation_both_sides_is_invariant(self):
        rng = np.random.default_rng(12)
        a_ref = rng.dirichlet(np.ones(4), size=30).T
        a_hat = rng.dirichlet(np.ones(4), size=30).T
        base = rmse_abundances(a_ref, a_hat, (0, 1, 2, 3))
        shuffle = [2, 0, 3, 1]
        permuted = rmse_abundances(a_ref[shuffle, :], a_hat[shuffle, :], (0, 1, 2, 3))
        assert base == pytest.approx(permuted, abs=1e-12)


class TestSadEndmembers:
    def test_zero_on_identical(self):
        w = np.random.default_rng(13).uniform(0.1, 1.0, (8, 3))
        assert sad_endmembers(w, w, (0, 1, 2)) == pytest.approx(0.0, abs=1e-7)

    def test_columnwise_scale_invariance(self):
        w = np.random.default_rng(14).uniform(0.1, 1.0, (8, 3))
        assert sad_endmembers(w, 2 * w, (0, 1, 2)) == pytest.approx(0.0, abs=1e-7)

    def test_half_orthogonal_pair(self):
        # first pair identical (angle 0), second orthogonal (angle pi/2)
        w_ref = np.array([[1.0, 1.0],
                          [0.0, 0.0]])
        w_hat = np.array([[1.0, 0.0],
                          [0.0, 1.0]])
        value = sad_endmembers(w_ref, w_hat, (0, 1))
        assert value == pytest.approx(math.pi / 4, abs=1e-12)


class TestAggregation:
    def _rec(self, a, e, diverged=False):
        return SimpleNamespace(abundance_rmse=a, endmember_sad=e, diverged=diverged)

    def test_mean_of_two(self):
        summary = aggregate_errors([self._rec(0.1, 0.3), self._rec(0.3, 0.1)])
        assert summary.abundance_mean == pytest.approx(0.2)
        assert summary.endmember_mean == pytest.approx(0.2)

    def test_single_record_zero_std(self):
        summary = aggregate_errors([self._rec(0.25, 0.4)])
        assert summary.abundance_mean == 0.25
        assert summary.abundance_std == 0.0
        assert summary.endmember_std == 0.0

    def test_diverged_records_skipped(self):
        summary = aggregate_errors(
            [self._rec(0.1, 0.1), self._rec(9.0, 9.0, diverged=True)]
        )
        assert summary.count == 1
        assert summary.abundance_mean == 0.1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_errors([])

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
        summary = aggregate_errors(records)
        assert summary.count == 2
        assert summary.abundance_mean == pytest.approx(0.2)
        assert summary.endmember_mean == pytest.approx(0.2)
        assert group_scores(records, "abundance_rmse").sizes == (1, 1)

    def test_summary_formatting(self):
        assert format_mean_std(0.0712, 0.104) == "0.07±0.1"

    def test_error_pair_validation(self):
        with pytest.raises(ValueError):
            ErrorPair(abundance_rmse=-0.1, endmember_sad=0.2)
        with pytest.raises(ValueError):
            ErrorPair(abundance_rmse=0.1, endmember_sad=4.0)


class TestUnmixingErrors:
    def test_recovers_permuted_solution(self):
        rng = np.random.default_rng(15)
        w = rng.uniform(0.1, 1.0, (10, 3))
        a = rng.dirichlet(np.ones(3), size=20).T
        perm = [2, 0, 1]
        pair, found = unmixing_errors(w, a, w[:, perm], a[perm, :])
        assert pair.abundance_rmse == pytest.approx(0.0, abs=1e-12)
        assert pair.endmember_sad == pytest.approx(0.0, abs=1e-7)
        # found[j] indexes the estimate column matching reference column j
        assert [perm[found[j]] for j in range(3)] == [0, 1, 2]
