"""Mixing-model generation and bundle round-trip behavior."""

import tracemalloc

import numpy as np
import pytest

from unmixlab.lmm import (
    DimensionError,
    FormatError,
    GroundTruth,
    HsiBundle,
    NoiseSpec,
    SeparationError,
    bundle_from_csv,
    generate_endmembers,
    load_bundle,
    min_max_scale,
    sample_abundances,
    save_bundle,
    synthesize,
)
from unmixlab.metrics import spectral_angle


def _f32(a):
    """Quantize to what the file format stores, promoted back to float64."""
    return np.asarray(a, dtype="<f4").astype(np.float64)


class TestSynthesize:
    def test_pure_pixel_zero_noise_equals_endmember(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0.1, 0.9, (12, 3))
        a = np.zeros((3, 4))
        a[1, :] = 1.0  # every pixel is pure endmember 2
        bundle = synthesize(w, a, NoiseSpec(0.0), seed=1)
        for col in range(4):
            np.testing.assert_array_equal(bundle.pixels[:, col], w[:, 1])

    def test_zero_endmembers_give_zero_pixels(self):
        w = np.zeros((6, 2))
        a = sample_abundances(2, 5, seed=3)
        bundle = synthesize(w, a, NoiseSpec(0.0), seed=0)
        assert np.all(bundle.pixels == 0.0)

    def test_matches_triple_loop_product(self):
        """Independent brute-force matrix multiply as the oracle."""
        rng = np.random.default_rng(7)
        w = rng.uniform(0.0, 1.0, (8, 3))
        a = sample_abundances(3, 16, seed=8)
        bundle = synthesize(w, a, NoiseSpec(0.0), seed=9)
        expected = np.zeros((8, 16))
        for b in range(8):
            for m in range(16):
                acc = 0.0
                for e in range(3):
                    acc += w[b, e] * a[e, m]
                expected[b, m] = acc
        np.testing.assert_allclose(bundle.pixels, expected, rtol=0, atol=1e-12)

    def test_linearity_in_abundances(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.0, 1.0, (10, 3))
        a1 = sample_abundances(3, 20, seed=1)
        a2 = sample_abundances(3, 20, seed=2)
        alpha = 0.3
        mixed = synthesize(w, alpha * a1 + (1 - alpha) * a2, NoiseSpec(0.0), seed=0)
        x1 = synthesize(w, a1, NoiseSpec(0.0), seed=0).pixels
        x2 = synthesize(w, a2, NoiseSpec(0.0), seed=0).pixels
        np.testing.assert_allclose(
            mixed.pixels, alpha * x1 + (1 - alpha) * x2, atol=1e-12
        )

    def test_noise_is_seeded_and_deterministic(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(0.1, 0.9, (6, 2))
        a = sample_abundances(2, 30, seed=5)
        b1 = synthesize(w, a, NoiseSpec(0.05), seed=42)
        b2 = synthesize(w, a, NoiseSpec(0.05), seed=42)
        b3 = synthesize(w, a, NoiseSpec(0.05), seed=43)
        np.testing.assert_array_equal(b1.pixels, b2.pixels)
        assert not np.array_equal(b1.pixels, b3.pixels)

    def test_dimension_mismatch_rejected(self):
        w = np.ones((6, 3))
        a = sample_abundances(2, 4, seed=0)
        with pytest.raises(DimensionError):
            synthesize(w, a)

    def test_ground_truth_attached(self):
        rng = np.random.default_rng(12)
        w = rng.uniform(0.1, 0.9, (6, 2))
        a = sample_abundances(2, 9, seed=1)
        bundle = synthesize(w, a, seed=2)
        np.testing.assert_array_equal(bundle.ground_truth.endmembers, w)
        np.testing.assert_array_equal(bundle.ground_truth.abundances, a)


class TestSampleAbundances:
    def test_full_pure_fraction_cycles_unit_vectors(self):
        a = sample_abundances(3, 6, pure_fraction=1.0, seed=0)
        expected = np.zeros((3, 6))
        for c in range(6):
            expected[c % 3, c] = 1.0
        np.testing.assert_array_equal(a, expected)

    def test_columns_are_simplex_points(self):
        a = sample_abundances(4, 500, pure_fraction=0.25, seed=10)
        assert np.all(a >= 0)
        np.testing.assert_allclose(a.sum(axis=0), 1.0, atol=1e-9)

    def test_dirichlet_mean_matches_concentration(self):
        """Monte-Carlo check of the Dirichlet mean alpha_i / sum(alpha)."""
        a = sample_abundances(3, 100_000, concentration=[1.0, 1.0, 1.0], seed=21)
        np.testing.assert_allclose(a.mean(axis=1), 1.0 / 3.0, atol=0.01)

    def test_determinism(self):
        a1 = sample_abundances(3, 50, seed=9)
        a2 = sample_abundances(3, 50, seed=9)
        np.testing.assert_array_equal(a1, a2)

    def test_invalid_arguments(self):
        with pytest.raises(DimensionError):
            sample_abundances(1, 10)
        with pytest.raises(DimensionError):
            sample_abundances(3, 0)
        with pytest.raises(ValueError):
            sample_abundances(3, 10, concentration=[1.0, 0.0, 1.0])


class TestGenerateEndmembers:
    def test_pairwise_separation(self):
        for seed in range(5):
            w = generate_endmembers(30, 3, smoothness=5, seed=seed)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert spectral_angle(w[:, i], w[:, j]) >= 0.15

    def test_reflectance_range(self):
        w = generate_endmembers(40, 4, smoothness=7, seed=3)
        assert w.min() >= 0.05 - 1e-12
        assert w.max() <= 0.95 + 1e-12

    def test_smoothing_reduces_total_variation(self):
        """Wider moving-average windows must give smoother curves."""
        tv = []
        for window in (1, 5, 15):
            w = generate_endmembers(100, 2, smoothness=window, seed=5)
            tv.append(np.abs(np.diff(w, axis=0)).sum())
        assert tv[0] > tv[1] > tv[2]

    def test_determinism(self):
        w1 = generate_endmembers(25, 3, smoothness=3, seed=17)
        w2 = generate_endmembers(25, 3, smoothness=3, seed=17)
        np.testing.assert_array_equal(w1, w2)

    def test_invalid_arguments(self):
        with pytest.raises(DimensionError):
            generate_endmembers(3, 3)
        with pytest.raises(DimensionError):
            generate_endmembers(20, 1)
        with pytest.raises(ValueError):
            generate_endmembers(20, 2, smoothness=0)
        with pytest.raises(ValueError, match="smoothness"):
            generate_endmembers(14, 12, smoothness=40)
        # a window as long as the spectrum still smooths it
        assert generate_endmembers(14, 2, smoothness=14, seed=1).shape == (14, 2)

    def test_unseparable_endmembers_raise_a_value_error(self):
        with pytest.raises(SeparationError, match="could not separate 12"):
            generate_endmembers(13, 12, smoothness=13)
        assert issubclass(SeparationError, ValueError)


class TestBundleIO:
    def _samson_shaped(self):
        w = _f32(generate_endmembers(156, 3, smoothness=9, seed=1))
        a = _f32(sample_abundances(3, 9025, pure_fraction=0.05, seed=2))
        a /= a.sum(axis=0, keepdims=True)
        px = _f32(w @ a)
        return HsiBundle(
            pixels=px, name="samson-shaped", width=95, height=95,
            ground_truth=GroundTruth(endmembers=w, abundances=_f32(a)),
        )

    def test_samson_shaped_roundtrip(self, tmp_path):
        bundle = self._samson_shaped()
        save_bundle(bundle, tmp_path / "b")
        loaded = load_bundle(tmp_path / "b")
        assert loaded.name == bundle.name
        assert (loaded.width, loaded.height) == (95, 95)
        assert loaded.bands == 156 and loaded.pixel_count == 9025
        np.testing.assert_array_equal(loaded.pixels, _f32(bundle.pixels))
        np.testing.assert_array_equal(
            loaded.ground_truth.endmembers, _f32(bundle.ground_truth.endmembers)
        )
        # a second save/load round trip is bit-stable
        save_bundle(loaded, tmp_path / "b2")
        again = load_bundle(tmp_path / "b2")
        np.testing.assert_array_equal(again.pixels, loaded.pixels)

    def test_jasper_shaped_roundtrip(self, tmp_path):
        w = _f32(generate_endmembers(198, 4, smoothness=9, seed=5))
        a = sample_abundances(4, 10_000, pure_fraction=0.05, seed=6)
        bundle = synthesize(w, a, seed=7, name="jasper-shaped", width=100, height=100)
        save_bundle(bundle, tmp_path / "j")
        loaded = load_bundle(tmp_path / "j")
        assert loaded.bands == 198 and loaded.pixel_count == 10_000
        assert loaded.ground_truth.endmember_count == 4
        np.testing.assert_array_equal(loaded.pixels, _f32(bundle.pixels))

    def test_bundle_without_ground_truth(self, tmp_path):
        rng = np.random.default_rng(8)
        bundle = HsiBundle(pixels=_f32(rng.uniform(0, 1, (12, 40))), name="plain")
        save_bundle(bundle, tmp_path / "p")
        loaded = load_bundle(tmp_path / "p")
        assert loaded.ground_truth is None
        np.testing.assert_array_equal(loaded.pixels, bundle.pixels)

    def test_corrupted_payload_rejected(self, tmp_path):
        bundle = HsiBundle(pixels=np.ones((4, 5), dtype=np.float64))
        save_bundle(bundle, tmp_path / "c")
        payload = tmp_path / "c" / "pixels.f32"
        blob = bytearray(payload.read_bytes())
        blob[0] ^= 0xFF
        payload.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_bundle(tmp_path / "c")

    def test_shape_header_mismatch_rejected(self, tmp_path):
        bundle = HsiBundle(pixels=np.ones((4, 5), dtype=np.float64))
        save_bundle(bundle, tmp_path / "s")
        payload = tmp_path / "s" / "pixels.f32"
        payload.write_bytes(payload.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_bundle(tmp_path / "s")

    def test_missing_header_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            load_bundle(tmp_path / "nothing")


class TestCsvConverter:
    def test_csv_rows_become_pixel_columns(self, tmp_path):
        rows = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        path = tmp_path / "two_pixels.csv"
        np.savetxt(path, rows, delimiter=",")
        bundle = bundle_from_csv(path)
        assert bundle.bands == 3 and bundle.pixel_count == 2
        np.testing.assert_allclose(bundle.pixels, rows.T)
        assert bundle.name == "two_pixels"

    def test_bad_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2\n")
        with pytest.raises(FormatError):
            bundle_from_csv(path)


class TestValidation:
    def test_bundle_rejects_nonfinite(self):
        px = np.ones((3, 3))
        px[1, 1] = np.nan
        with pytest.raises(ValueError):
            HsiBundle(pixels=px)

    def test_bundle_rejects_bad_spatial_dims(self):
        with pytest.raises(DimensionError):
            HsiBundle(pixels=np.ones((3, 10)), width=3, height=4)

    def test_ground_truth_rejects_negative_abundance(self):
        w = np.ones((5, 2))
        a = np.array([[1.2, 0.5], [-0.2, 0.5]])
        with pytest.raises(ValueError):
            GroundTruth(endmembers=w, abundances=a)

    def test_ground_truth_rejects_bad_sums(self):
        w = np.ones((5, 2))
        a = np.full((2, 3), 0.4)
        with pytest.raises(ValueError):
            GroundTruth(endmembers=w, abundances=a)

    def test_noise_spec_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1)

    def test_pixels_are_immutable(self):
        bundle = HsiBundle(pixels=np.ones((2, 2)))
        with pytest.raises(ValueError):
            bundle.pixels[0, 0] = 5.0

    def test_a_view_is_copied_so_its_base_cannot_change_the_bundle(self):
        base = np.ones((4, 6))
        bundle = HsiBundle(pixels=base[:, :])
        w = np.full((5, 2), 0.5)
        a = np.full((2, 6), 0.5)
        gt = GroundTruth(endmembers=w[:, :], abundances=a[:, :])
        base[0, 0] = w[0, 0] = a[0, 0] = np.nan
        assert np.isfinite(bundle.pixels).all()
        assert np.isfinite(gt.endmembers).all() and np.isfinite(gt.abundances).all()
        for frozen in (bundle.pixels, gt.endmembers, gt.abundances):
            assert frozen.base is None and not frozen.flags.writeable

    @pytest.mark.parametrize("field", ["pixels", "endmembers", "abundances"])
    def test_a_caller_array_cannot_change_the_bundle(self, field):
        """An array the caller passes is copied, even one that owns its
        memory: the caller keeps it and may set its writeable flag again."""
        w = np.full((5, 2), 0.5)
        a = np.full((2, 6), 0.5)
        passed = {"pixels": w @ a, "endmembers": w, "abundances": a}
        bundle = HsiBundle(pixels=passed["pixels"],
                           ground_truth=GroundTruth(endmembers=w, abundances=a))
        held = passed[field]
        held.flags.writeable = True
        held[0, 0] = np.nan
        frozen = bundle.pixels if field == "pixels" else getattr(bundle.ground_truth, field)
        assert np.isfinite(frozen).all()
        assert not frozen.flags.writeable

    def test_arrays_lmm_makes_are_adopted_without_a_copy(self, tmp_path):
        """load_bundle and min_max_scale hand the bundle the arrays they
        make. A copy on top would lift load_bundle's peak from 1.5 scenes
        (the float32 payload and the float64 pixels) to 2, and
        min_max_scale's from about 1 to 2."""
        w = generate_endmembers(64, 3, smoothness=5, seed=1)
        bundle = synthesize(w, sample_abundances(3, 4000, seed=2), seed=3)
        save_bundle(bundle, tmp_path / "b")
        scene = bundle.pixels.nbytes
        for make, limit in ((lambda: load_bundle(tmp_path / "b"), 1.6),
                            (lambda: min_max_scale(bundle), 1.25)):
            tracemalloc.start()
            try:
                make()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit * scene, peak / scene


class TestMinMaxScale:
    def test_preserves_mixing_relation(self):
        """Scaled pixels still equal scaled endmembers times abundances."""
        w = generate_endmembers(20, 3, smoothness=5, seed=1)
        a = sample_abundances(3, 50, seed=2)
        bundle = synthesize(w, a, seed=3)
        scaled, (lo, hi) = min_max_scale(bundle)
        assert scaled.pixels.min() == pytest.approx(0.0)
        assert scaled.pixels.max() == pytest.approx(1.0)
        np.testing.assert_allclose(
            scaled.pixels,
            scaled.ground_truth.endmembers @ scaled.ground_truth.abundances,
            atol=1e-12,
        )
        np.testing.assert_allclose((bundle.pixels - lo) / (hi - lo), scaled.pixels)
