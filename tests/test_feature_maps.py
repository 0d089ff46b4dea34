"""Feature map tests: sampling exactness, pyramid contract, file format."""

import numpy as np
import pytest

from featalign.feature_maps import (
    FeatureFileError,
    FeatureMap,
    FeatureMapError,
    FeaturePyramid,
    SampleOutOfBoundsError,
    Stencil,
    _stencil,
    area_downsample,
    build_baseline_pyramid,
    gather_stencil,
    load_feature_maps,
    load_feature_pyramid,
    save_feature_maps,
    save_feature_pyramid,
)


def _ramp_map(h=16, w=16, a=2.0, b=3.0, c=1.0):
    """f(u, v) = a*u + b*v + c as a single-channel map."""
    v, u = np.mgrid[0:h, 0:w].astype(np.float64)
    return FeatureMap(a * u + b * v + c)


def _sample(fmap, query):
    """One-row stencil: ((D,) value, (D, 2) gradient) at one query point."""
    st = gather_stencil(fmap, np.asarray(query, dtype=np.float64)[None, :])
    return st.values()[0], st.gradients()[0]


class TestBilinearSample:
    def test_constant_patch(self):
        fmap = FeatureMap(np.full((8, 8), 4.25, dtype=np.float32))
        val, grad = _sample(fmap, np.array([3.5, 3.5]))
        assert val[0] == pytest.approx(4.25)
        np.testing.assert_allclose(grad, np.zeros((1, 2)), atol=0)

    def test_exact_on_affine_ramp(self):
        # f(u, v) = 2u + 3v + 1; at (1.25, 2.5): 2.5 + 7.5 + 1 = 11.
        fmap = _ramp_map()
        val, grad = _sample(fmap, np.array([1.25, 2.5]))
        assert val[0] == pytest.approx(11.0, abs=1e-12)
        np.testing.assert_allclose(grad[0], [2.0, 3.0], atol=1e-12)

    def test_integer_query_returns_grid_value(self):
        rng = np.random.default_rng(2)
        fmap = FeatureMap(rng.normal(size=(12, 10, 3)).astype(np.float32))
        val, _ = _sample(fmap, np.array([4.0, 7.0]))
        np.testing.assert_array_equal(val, fmap.values[7, 4].astype(np.float64))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        fmap = FeatureMap(rng.normal(size=(32, 32, 2)).astype(np.float32))
        step = 1e-7
        checked = 0
        for _ in range(200):
            q = rng.uniform(2.0, 29.0, size=2)
            # The interpolant gradient is discontinuous across cell edges;
            # skip queries whose difference stencil would straddle one.
            if np.any(np.abs(q - np.round(q)) < 1e-3):
                continue
            _, grad = _sample(fmap, q)
            for axis in range(2):
                d = np.zeros(2)
                d[axis] = step
                hi, _ = _sample(fmap, q + d)
                lo, _ = _sample(fmap, q - d)
                fd = (hi - lo) / (2 * step)
                np.testing.assert_allclose(grad[:, axis], fd, atol=1e-6)
            checked += 1
        assert checked > 150

    def test_margin_violations_raise(self):
        fmap = FeatureMap(np.zeros((8, 8), dtype=np.float32))
        for q in ([0.5, 4.0], [4.0, 0.99], [6.5, 4.0], [4.0, 6.5]):
            with pytest.raises(SampleOutOfBoundsError):
                _sample(fmap, np.array(q))

    def test_boundary_of_margin_is_allowed(self):
        fmap = FeatureMap(np.arange(64, dtype=np.float32).reshape(8, 8))
        val, _ = _sample(fmap, np.array([6.0, 6.0]))
        assert val[0] == pytest.approx(54.0)  # 6*8 + 6

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        fmap = FeatureMap(rng.normal(size=(20, 24, 2)).astype(np.float32))
        qs = rng.uniform(1.5, 18.0, size=(50, 2))
        st = gather_stencil(fmap, qs)
        vals, grads = st.values(), st.gradients()
        for i in range(50):
            v, g = _sample(fmap, qs[i])
            np.testing.assert_array_equal(vals[i], v)
            np.testing.assert_array_equal(grads[i], g)


class TestStencilGather:
    """``_stencil``'s ``np.take`` gather against plain fancy indexing."""

    @staticmethod
    def fancy_index_corners(values, q):
        h, w = values.shape[:2]
        iu0 = np.minimum(np.floor(q[:, 0]).astype(np.intp), w - 2)
        iv0 = np.minimum(np.floor(q[:, 1]).astype(np.intp), h - 2)
        cells = (iv0 * w + iu0)[:, None] + (0, 1, w, w + 1)
        return values.reshape(h * w, -1)[cells].astype(np.float64)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_corners_equal_fancy_index_bit_for_bit(self, d, dtype):
        h, w = 9, 11
        rng = np.random.default_rng(d)
        values = rng.normal(size=(h, w, d)).astype(dtype)
        q = np.concatenate([
            rng.uniform(0.0, [w - 1, h - 1], size=(40, 2)),
            [[0.0, 0.0], [3.0, 5.0], [w - 2, h - 2]],  # integer nodes
            [[w - 1, h - 1], [w - 1, 2.5], [4.25, h - 1]],  # clamped to the last cell
        ])
        st = _stencil(values, q[:, 0], q[:, 1])
        expected = self.fancy_index_corners(values, q)
        assert st.corners.dtype == np.float64 and st.corners.shape == (len(q), 4, d)
        assert st.corners.tobytes() == expected.tobytes()
        assert st.iu0.max() == w - 2 and st.iv0.max() == h - 2
        np.testing.assert_array_equal(st.fu[-3:], [1.0, 1.0, 0.25])
        np.testing.assert_array_equal(st.fv[-3:], [1.0, 0.5, 1.0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_queries_give_empty_float64_corners(self, d):
        values = np.ones((6, 7, d), dtype=np.float32)
        st = _stencil(values, np.zeros(0), np.zeros(0))
        assert st.corners.shape == (0, 4, d) and st.corners.dtype == np.float64
        assert gather_stencil(FeatureMap(values), np.zeros((0, 2))).values().shape == (0, d)


class TestStackedStencil:
    """Leading dimensions of ``Stencil.corners`` share one row layout."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_stack_equals_each_copy_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        n = 7
        corners = rng.normal(size=(2, 4, d, n, 4, d))
        fu, fv = rng.uniform(0.0, 1.0, size=(2, n))
        fu[0], fv[1] = 0.0, 1.0  # cell edges
        cells = np.zeros(n, dtype=np.intp)
        stacked = Stencil(corners, fu, fv, cells, cells)
        values, grads = stacked.values(), stacked.gradients()
        assert values.shape == (2, 4, d, n, d) and grads.shape == (2, 4, d, n, d, 2)
        for idx in np.ndindex(2, 4, d):
            single = Stencil(corners[idx], fu, fv, cells, cells)
            assert values[idx].tobytes() == single.values().tobytes()
            assert grads[idx].tobytes() == single.gradients().tobytes()


class TestFeatureMapType:
    def test_rejects_non_finite(self):
        bad = np.zeros((8, 8))
        bad[3, 3] = np.nan
        with pytest.raises(FeatureMapError):
            FeatureMap(bad)

    def test_rejects_values_past_float32_range(self):
        bad = np.zeros((8, 8))
        bad[3, 3] = -1e39
        with pytest.raises(FeatureMapError):
            FeatureMap(bad)

    def test_values_read_only(self):
        fmap = FeatureMap(np.zeros((8, 8), dtype=np.float32))
        with pytest.raises(ValueError):
            fmap.values[0, 0, 0] = 1.0

    def test_2d_input_gains_channel_axis(self):
        fmap = FeatureMap(np.zeros((8, 10)))
        assert fmap.channels == 1
        assert fmap.width == 10


class TestAreaDownsample:
    def test_preserves_mean(self):
        rng = np.random.default_rng(11)
        img = rng.uniform(size=(32, 48))
        down = area_downsample(img)
        assert down.shape == (16, 24)
        assert down.mean() == pytest.approx(img.mean(), abs=1e-12)

    def test_checkerboard_averages_to_half(self):
        img = np.indices((8, 8)).sum(axis=0) % 2
        down = area_downsample(img.astype(np.float64))
        np.testing.assert_allclose(down, np.full((4, 4), 0.5), atol=0)


class TestBaselinePyramid:
    def test_dimension_contract(self):
        img = np.random.default_rng(0).uniform(size=(64, 96))
        pyr = build_baseline_pyramid(img)
        assert pyr.level(4).values.shape == (64, 96, 2)
        assert pyr.level(3).values.shape == (32, 48, 2)
        assert pyr.level(2).values.shape == (16, 24, 2)
        assert pyr.level(1).values.shape == (8, 12, 2)

    def test_constant_image_channels(self):
        pyr = build_baseline_pyramid(np.full((32, 32), 3.0))
        for lvl in (1, 2, 3, 4):
            vals = pyr.level(lvl).values
            # Normalization maps a constant channel to all zeros, and the
            # gradient channel of a constant image is zero everywhere.
            np.testing.assert_allclose(vals, 0.0, atol=0)

    def test_level_means_match_full_res_mean(self):
        # Area downsampling, the pyramid's level step, preserves the mean.
        img = (np.indices((64, 64)).sum(axis=0) % 2).astype(np.float64)
        level = img
        for _ in range(3):
            level = area_downsample(level)
            assert level.mean() == pytest.approx(img.mean(), abs=1e-9)

    def test_normalized_channels_are_standardized(self):
        img = np.random.default_rng(1).uniform(size=(64, 64))
        pyr = build_baseline_pyramid(img)
        for lvl in (1, 2, 3, 4):
            vals = pyr.level(lvl).values.astype(np.float64)
            for c in range(vals.shape[2]):
                assert abs(vals[:, :, c].mean()) < 1e-6
                assert vals[:, :, c].std() == pytest.approx(1.0, abs=1e-5)

    def test_reflect_pads_non_multiples(self):
        img = np.random.default_rng(2).uniform(size=(60, 70))
        pyr = build_baseline_pyramid(img)
        assert pyr.level(4).values.shape == (64, 72, 2)

    def test_rejects_tiny_images(self):
        with pytest.raises(FeatureMapError):
            build_baseline_pyramid(np.zeros((7, 64)))

    def test_pyramid_level_validation(self):
        maps = [FeatureMap(np.zeros((8 * 2**i, 8 * 2**i))) for i in range(4)]
        FeaturePyramid(maps)  # valid
        bad = list(maps)
        bad[1] = FeatureMap(np.zeros((17, 16)))
        with pytest.raises(FeatureMapError):
            FeaturePyramid(bad)


class TestFmapFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(9)
        maps = [
            FeatureMap(rng.normal(size=(6, 5, 3)).astype(np.float32)),
            FeatureMap(rng.normal(size=(12, 10, 3)).astype(np.float32)),
        ]
        path = tmp_path / "maps.fmap"
        save_feature_maps(str(path), maps)
        loaded = load_feature_maps(str(path))
        assert len(loaded) == 2
        for orig, back in zip(maps, loaded):
            assert np.array_equal(orig.values, back.values)

    def test_pyramid_round_trip(self, tmp_path):
        img = np.random.default_rng(4).uniform(size=(32, 40))
        pyr = build_baseline_pyramid(img)
        path = tmp_path / "pyr.fmap"
        save_feature_pyramid(str(path), pyr)
        back = load_feature_pyramid(str(path))
        for lvl in (1, 2, 3, 4):
            assert np.array_equal(back.level(lvl).values, pyr.level(lvl).values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.fmap"
        path.write_bytes(b"JUNK" + b"\x00" * 32)
        with pytest.raises(FeatureFileError):
            load_feature_maps(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        img = np.random.default_rng(4).uniform(size=(32, 32))
        pyr = build_baseline_pyramid(img)
        path = tmp_path / "pyr.fmap"
        save_feature_pyramid(str(path), pyr)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(FeatureFileError):
            load_feature_maps(str(path))

    def test_halving_violation_names_level(self, tmp_path):
        maps = [FeatureMap(np.zeros((8 * 2**i, 8 * 2**i))) for i in range(4)]
        maps[2] = FeatureMap(np.zeros((33, 32)))  # level 3 off by one row
        path = tmp_path / "bad_pyr.fmap"
        save_feature_maps(str(path), maps)
        with pytest.raises(FeatureFileError, match="level 3"):
            load_feature_pyramid(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        maps = [FeatureMap(np.zeros((8, 8)))]
        path = tmp_path / "pad.fmap"
        save_feature_maps(str(path), maps)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FeatureFileError):
            load_feature_maps(str(path))
