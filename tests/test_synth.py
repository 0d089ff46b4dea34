"""Synthetic harness tests: the ground-truth consistency oracle lives here."""

import functools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featalign import synth, toy_train
from featalign.feature_maps import (
    PYRAMID_LEVELS,
    SAMPLE_MARGIN,
    build_baseline_pyramid,
    gather_stencil,
)
from featalign.geometry import WARP_MARGIN, SE3Pose, se3_exp, warp_points
from featalign.lm_align import compute_residuals
from featalign.synth import (
    DatasetConfig,
    GradientCoverageError,
    LowOverlapError,
    PhotometricParams,
    PoseSampleError,
    SceneConfig,
    SynthError,
    SyntheticScene,
    TooFewPointsError,
    build_dataset,
    build_pair,
    generate_pair,
    generate_scene,
    load_manifest,
    load_pair_entry,
    mean_flow,
    photometric_perturb,
    pixel_grid,
    sample_pose_perturbation,
    select_sparse_points,
    warp_scene,
)
from featalign.toy_train import make_toy_training_set


def _default_scene(seed=0):
    return generate_scene(np.random.default_rng(seed), SceneConfig(), seed=seed)


def _manual_warp(uv, depths, pose, k):
    """Pinhole warp written out longhand as an independent oracle."""
    out = np.zeros_like(uv)
    for i, ((u, v), d) in enumerate(zip(uv, depths)):
        x = np.array([d * (u - k.cx) / k.fx, d * (v - k.cy) / k.fy, d])
        y = pose.rotation @ x + pose.translation
        out[i] = [k.fx * y[0] / y[2] + k.cx, k.fy * y[1] / y[2] + k.cy]
    return out


class TestSceneGeneration:
    def test_same_seed_bit_identical(self):
        a = _default_scene(3)
        b = _default_scene(3)
        assert np.array_equal(a.texture, b.texture)
        assert np.array_equal(a.depth, b.depth)

    def test_flat_texture_reported(self):
        rng = np.random.default_rng(0)
        with pytest.raises(GradientCoverageError, match="coverage"):
            generate_scene(rng, SceneConfig(texture_contrast=0.0))

    def test_depth_respects_bounds(self):
        scene = _default_scene(1)
        assert scene.depth.min() >= 1.0
        assert scene.depth.max() <= 10.0

    def test_dims_must_be_multiples_of_eight(self):
        with pytest.raises(SynthError):
            SceneConfig(height=90, width=128)

    def test_scene_validation(self):
        scene = _default_scene(2)
        with pytest.raises(SynthError):
            SyntheticScene(
                texture=scene.texture,
                depth=-scene.depth,
                intrinsics=scene.intrinsics,
                seed=0,
            )

    def test_config_from_mapping_rejects_unknown(self):
        with pytest.raises(SynthError, match="unknown"):
            SceneConfig.from_mapping({"bogus": "3"})
        cfg = SceneConfig.from_mapping({"height": "64", "depth_max": "5.0"})
        assert cfg.height == 64 and cfg.depth_max == 5.0


class TestWarpScene:
    def test_identity_pose_reproduces_scene(self):
        scene = _default_scene(4)
        view = warp_scene(scene, SE3Pose.identity())
        assert view.valid.all()
        np.testing.assert_allclose(view.image, scene.texture, atol=1e-12)
        h, w = scene.texture.shape
        grid = np.stack(np.meshgrid(np.arange(w), np.arange(h)), axis=2)
        np.testing.assert_allclose(view.correspondence, grid, atol=1e-9)

    def test_correspondence_matches_manual_warp(self):
        scene = _default_scene(5)
        pose = se3_exp(np.array([0.1, -0.05, 0.08, 0.01, 0.02, -0.015]))
        view = warp_scene(scene, pose)
        rng = np.random.default_rng(6)
        rows = rng.integers(0, 96, size=40)
        cols = rng.integers(0, 128, size=40)
        uv = np.stack([cols, rows], axis=1).astype(np.float64)
        manual = _manual_warp(uv, scene.depth[rows, cols], pose, scene.intrinsics)
        np.testing.assert_allclose(view.correspondence[rows, cols], manual, atol=1e-9)

    def test_synthesized_image_sampled_from_texture(self):
        # At any valid pixel the image must equal the texture interpolated
        # at the correspondence, which is precisely the exactness property
        # the solver's oracle relies on.
        scene = _default_scene(7)
        pose = se3_exp(np.array([0.15, 0.1, 0.0, 0.0, 0.0, 0.02]))
        view = warp_scene(scene, pose)
        vv, uu = np.nonzero(view.valid)
        corr = view.correspondence[vv, uu]
        iu = np.floor(corr[:, 0]).astype(int).clip(0, 126)
        iv = np.floor(corr[:, 1]).astype(int).clip(0, 94)
        fu = corr[:, 0] - iu
        fv = corr[:, 1] - iv
        tex = scene.texture
        interp = (
            tex[iv, iu] * (1 - fu) * (1 - fv)
            + tex[iv, iu + 1] * fu * (1 - fv)
            + tex[iv + 1, iu] * (1 - fu) * fv
            + tex[iv + 1, iu + 1] * fu * fv
        )
        np.testing.assert_allclose(view.image[vv, uu], interp, atol=1e-12)

    def test_low_overlap_raises(self):
        scene = _default_scene(8)
        pose = SE3Pose(np.eye(3), np.array([30.0, 0.0, 0.0]))
        with pytest.raises(LowOverlapError):
            warp_scene(scene, pose)

    def test_occlusion_marked_invalid(self):
        # A near block over a far background: under lateral motion the block
        # shifts further (parallax) and buries background pixels. Those must
        # be flagged by the z-buffer even though their warps stay in-frame.
        rng = np.random.default_rng(9)
        texture = np.cumsum(rng.uniform(size=(96, 128)), axis=1)
        texture /= texture.max()
        depth = np.full((96, 128), 5.0)
        depth[40:70, 50:90] = 2.0
        scene = SyntheticScene(
            texture=texture,
            depth=depth,
            intrinsics=SceneConfig().intrinsics(),
            seed=0,
        )
        pose = SE3Pose(np.eye(3), np.array([0.4, 0.0, 0.0]))
        view = warp_scene(scene, pose)
        h, w = depth.shape
        corr = view.correspondence
        in_frame = (
            (corr[:, :, 0] >= 0)
            & (corr[:, :, 0] <= w - 1)
            & (corr[:, :, 1] >= 0)
            & (corr[:, :, 1] <= h - 1)
        )
        occluded = in_frame & ~view.valid
        assert occluded.sum() > 50


class TestPoseSampling:
    def test_zero_class_is_identity(self):
        scene = _default_scene(10)
        pose = sample_pose_perturbation(np.random.default_rng(0), "zero", scene)
        np.testing.assert_array_equal(pose.rotation, np.eye(3))
        np.testing.assert_array_equal(pose.translation, np.zeros(3))

    def test_small_class_flows_in_bracket(self):
        scene = _default_scene(11)
        rng = np.random.default_rng(12)
        for _ in range(100):
            pose = sample_pose_perturbation(rng, "small", scene)
            # Independent flow computation on a fixed probe grid.
            vv, uu = np.mgrid[0:96:4, 0:128:4]
            uv = np.stack([uu.ravel(), vv.ravel()], axis=1).astype(np.float64)
            manual = _manual_warp(
                uv[::7], scene.depth[::4, ::4].ravel()[::7], pose, scene.intrinsics
            )
            flow = np.linalg.norm(manual - uv[::7], axis=1).mean()
            assert flow <= 2.5  # subsampled probe, slack over the 2.0 bracket

    def test_flow_brackets_disjoint(self):
        scene = _default_scene(13)
        rng = np.random.default_rng(14)
        small = [mean_flow(scene, sample_pose_perturbation(rng, "small", scene)) for _ in range(20)]
        large = [mean_flow(scene, sample_pose_perturbation(rng, "large", scene)) for _ in range(20)]
        assert max(small) <= 2.0
        assert min(large) > 16.0
        assert max(large) <= 24.0

    def test_fixed_seed_reproducible(self):
        scene = _default_scene(15)
        a = sample_pose_perturbation(np.random.default_rng(42), "medium", scene)
        b = sample_pose_perturbation(np.random.default_rng(42), "medium", scene)
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)

    def test_unknown_class_rejected(self):
        scene = _default_scene(16)
        with pytest.raises(PoseSampleError):
            sample_pose_perturbation(np.random.default_rng(0), "huge", scene)


class TestOneWarpPerPose:
    """The overlap check's ``warp_scene`` view is the one a pair is built
    from: no drawn pose is warped twice, and the pairs keep their bytes."""

    @staticmethod
    def _record_warps(monkeypatch):
        warped = []
        real = synth.warp_scene

        def recording(scene, pose):
            view = real(scene, pose)  # LowOverlapError draws are not recorded
            warped.append(pose.matrix34().tobytes())
            return view

        # Any module binding of warp_scene; toy_train may hold its own.
        for module in (synth, toy_train):
            monkeypatch.setattr(module, "warp_scene", recording, raising=False)
        return warped

    def test_dataset_pairs_warp_each_pose_once(self, monkeypatch):
        cfg = DatasetConfig(out_dir="unused", n_pairs=3, base_seed=11)
        warped = self._record_warps(monkeypatch)
        poses = [generate_pair(cfg, index).gt_pose.matrix34().tobytes() for index in range(3)]
        assert set(poses) <= set(warped)
        assert len(warped) == len(set(warped))

    def test_dataset_pairs_equal_a_second_warp(self):
        cfg = DatasetConfig(out_dir="unused", n_pairs=3, base_seed=11)
        for index in range(3):
            scene_rng, pose_rng, select_rng = synth._pair_streams(cfg.base_seed, index, 0)
            scene = generate_scene(scene_rng, cfg.scene, seed=index)
            cls = cfg.classes[index % len(cfg.classes)]
            pose = sample_pose_perturbation(pose_rng, cls, scene)
            # Without a view, build_pair warps the pose again itself.
            want = build_pair(scene, pose, select_rng, magnitude_class=cls, seed=index)
            got = generate_pair(cfg, index)
            for name in ("correspondence", "valid"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert got.points.uv.tobytes() == want.points.uv.tobytes()
            assert got.gt_pose.matrix34().tobytes() == want.gt_pose.matrix34().tobytes()
            for a, b in zip(got.ref_pyramid.levels, want.ref_pyramid.levels):
                assert a.values.tobytes() == b.values.tobytes()

    def test_zero_class_warps_once_in_build_pair(self, monkeypatch):
        scene = _default_scene(10)
        warped = self._record_warps(monkeypatch)
        pose, view = synth._sample_pose_view(np.random.default_rng(0), "zero", scene)
        assert view is None and not warped
        build_pair(scene, pose, np.random.default_rng(1), magnitude_class="zero")
        assert len(warped) == 1

    def test_toy_training_set_warps_each_pose_once(self, monkeypatch):
        warped = self._record_warps(monkeypatch)
        ts = make_toy_training_set(seed=2, n_pairs=4, eval_offsets=1)
        assert {p.gt_pose.matrix34().tobytes() for p in ts.pairs} <= set(warped)
        assert len(warped) == len(set(warped))


class TestPhotometric:
    def test_identity_params_unchanged(self):
        scene = _default_scene(17)
        out = photometric_perturb(scene.texture, PhotometricParams())
        assert np.array_equal(out, scene.texture)

    def test_noise_std_matches_sigma(self):
        image = np.full((100, 100), 0.5)
        out = photometric_perturb(
            image, PhotometricParams(sigma=0.05), np.random.default_rng(18)
        )
        measured = (out - image).std()
        assert abs(measured - 0.05) < 0.005

    def test_sigma_requires_rng(self):
        with pytest.raises(SynthError):
            photometric_perturb(np.zeros((4, 4)), PhotometricParams(sigma=0.1))

    def test_affine_applied(self):
        image = np.array([[0.0, 0.5], [1.0, 0.25]])
        out = photometric_perturb(image, PhotometricParams(a=2.0, b=0.1))
        np.testing.assert_allclose(out, 2.0 * image + 0.1)


class TestSelectSparsePoints:
    def test_constant_image_warns_with_zero_points(self):
        image = np.full((96, 128), 0.7)
        depth = np.full((96, 128), 2.0)
        points = select_sparse_points(image, depth, 50, np.random.default_rng(0))
        assert len(points) == 0

    def test_returns_requested_unique_points(self):
        scene = _default_scene(19)
        points = select_sparse_points(
            scene.texture, scene.depth, 500, np.random.default_rng(20)
        )
        assert len(points) == 500
        assert len({(u, v) for u, v in points.uv}) == 500
        assert points.uv[:, 0].max() < 128 and points.uv[:, 1].max() < 96

    def test_selection_biased_to_gradients(self):
        scene = _default_scene(21)
        points = select_sparse_points(
            scene.texture, scene.depth, 300, np.random.default_rng(22)
        )
        gy, gx = np.gradient(scene.texture)
        gradmag = np.hypot(gx, gy)
        selected = gradmag[points.uv[:, 1].astype(int), points.uv[:, 0].astype(int)]
        assert selected.mean() > gradmag.mean()

    def test_depths_come_from_scene(self):
        scene = _default_scene(23)
        points = select_sparse_points(
            scene.texture, scene.depth, 64, np.random.default_rng(24)
        )
        looked_up = scene.depth[points.uv[:, 1].astype(int), points.uv[:, 0].astype(int)]
        assert np.array_equal(points.depths, looked_up)

    def test_ten_percent_budget_enforced(self):
        scene = _default_scene(25)
        with pytest.raises(SynthError):
            select_sparse_points(
                scene.texture, scene.depth, 5000, np.random.default_rng(0)
            )


class TestBenchmarkPair:
    def test_ground_truth_energy_vanishes_at_every_level(self):
        # The load-bearing oracle: residual energy at the true pose must be
        # below 1e-9 at all four pyramid levels. The construction leaves
        # only float32 storage quantization, orders of magnitude smaller.
        for seed, magnitude_class in [(0, "small"), (1, "medium"), (2, "large")]:
            rng = np.random.default_rng(seed)
            scene = generate_scene(rng, SceneConfig(), seed=seed)
            pose = sample_pose_perturbation(rng, magnitude_class, scene)
            pair = build_pair(scene, pose, rng, magnitude_class=magnitude_class)
            for level in (1, 2, 3, 4):
                out = compute_residuals(
                    pair.ref_pyramid.level(level),
                    pair.tgt_pyramid.level(level),
                    pair.points.at_level(level),
                    pair.points.depths,
                    pair.gt_pose,
                    pair.intrinsics.at_level(level),
                )
                assert out.n_valid >= 8
                assert out.energy < 1e-9

    def test_points_on_coarse_lattice(self):
        rng = np.random.default_rng(3)
        scene = generate_scene(rng, SceneConfig(), seed=3)
        pose = sample_pose_perturbation(rng, "small", scene)
        pair = build_pair(scene, pose, rng)
        assert np.all(pair.points.uv % 8 == 0)

    def test_correspondence_consistent_with_pose_and_depth(self):
        rng = np.random.default_rng(4)
        scene = generate_scene(rng, SceneConfig(), seed=4)
        pose = sample_pose_perturbation(rng, "medium", scene)
        pair = build_pair(scene, pose, rng, magnitude_class="medium")
        sel = np.random.default_rng(5)
        rows = sel.integers(0, 96, size=30)
        cols = sel.integers(0, 128, size=30)
        uv = np.stack([cols, rows], axis=1).astype(np.float64)
        manual = _manual_warp(uv, scene.depth[rows, cols], pose, scene.intrinsics)
        np.testing.assert_allclose(
            pair.correspondence[rows, cols], manual, atol=1e-9
        )

    def test_brightness_offset_hits_intensity_not_gradients(self):
        rng = np.random.default_rng(6)
        scene = generate_scene(rng, SceneConfig(), seed=6)
        pose = sample_pose_perturbation(rng, "small", scene)
        # Standardizing the intensity channel removes a global offset, and
        # the gradient channel never sees it, so the truth keeps zero energy.
        pair = build_pair(
            scene, pose, np.random.default_rng(7), photometric=PhotometricParams(b=0.2)
        )
        out = compute_residuals(
            pair.ref_pyramid.level(4),
            pair.tgt_pyramid.level(4),
            pair.points.at_level(4),
            pair.points.depths,
            pair.gt_pose,
            pair.intrinsics.at_level(4),
        )
        assert out.energy < 1e-6


@functools.lru_cache(maxsize=1)
def _scene_and_pyramid():
    scene = _default_scene(12)
    return scene, build_baseline_pyramid(scene.texture)


class TestWarpMarginCoversSampleMargin:
    """exact_reference_pyramid and the toy trainer sample at every position
    warp_points marks valid, with no margin check of their own."""

    def test_warp_margin_at_least_sample_margin(self):
        assert WARP_MARGIN >= SAMPLE_MARGIN

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        translation=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        rotation=st.tuples(*[st.floats(-0.2, 0.2)] * 3),
    )
    def test_gather_accepts_every_valid_warp(self, translation, rotation):
        scene, pyramid = _scene_and_pyramid()
        pose = se3_exp(np.array(translation + rotation))
        for level, fmap in enumerate(pyramid.levels, start=1):
            scale = 2 ** (PYRAMID_LEVELS - level)
            warped, valid, _ = warp_points(
                pixel_grid(fmap.height, fmap.width),
                scene.depth[::scale, ::scale].ravel(),
                pose,
                scene.intrinsics.at_level(level),
            )
            # Raises SampleOutOfBoundsError on a valid point inside WARP_MARGIN's
            # band but outside SAMPLE_MARGIN's.
            assert gather_stencil(fmap, warped[valid]).corners.shape == (valid.sum(), 4, 2)


class TestDataset:
    def test_rebuild_bit_identical(self, tmp_path):
        cfg_a = DatasetConfig(out_dir=str(tmp_path / "a"), n_pairs=3, base_seed=11)
        cfg_b = DatasetConfig(out_dir=str(tmp_path / "b"), n_pairs=3, base_seed=11)
        manifest_a = build_dataset(cfg_a)
        manifest_b = build_dataset(cfg_b)
        assert manifest_a["pairs"] == manifest_b["pairs"]
        for entry in manifest_a["pairs"]:
            for key in ("ref_features", "tgt_features", "points", "pose"):
                pa = os.path.join(cfg_a.out_dir, entry[key])
                pb = os.path.join(cfg_b.out_dir, entry[key])
                with open(pa, "rb") as fa, open(pb, "rb") as fb:
                    assert fa.read() == fb.read(), entry[key]

    def test_scene_with_too_few_points_is_redrawn(self):
        # Base seed 4, pair 31 (class "medium") leaves 3 usable sparse
        # points on its first draw; the pair comes from the second draw.
        cfg = DatasetConfig(out_dir="unused", base_seed=4)

        def first_draw(index):
            rngs = [np.random.default_rng(c) for c in np.random.SeedSequence([4, index]).spawn(3)]
            scene = generate_scene(rngs[0], cfg.scene, seed=index)
            cls = cfg.classes[index % len(cfg.classes)]
            pose = sample_pose_perturbation(rngs[1], cls, scene)
            return build_pair(scene, pose, rngs[2], magnitude_class=cls, seed=index)

        with pytest.raises(TooFewPointsError, match="only 3 usable"):
            first_draw(31)
        pair = generate_pair(cfg, 31)
        assert len(pair.points) >= 8
        # A pair that builds on its first draw is the one drawn from
        # SeedSequence([base_seed, index]), as before redraws existed.
        kept, first = generate_pair(cfg, 30), first_draw(30)
        assert np.array_equal(kept.points.uv, first.points.uv)
        assert np.array_equal(kept.gt_pose.rotation, first.gt_pose.rotation)

    def test_empty_dataset_valid(self, tmp_path):
        manifest = build_dataset(DatasetConfig(out_dir=str(tmp_path), n_pairs=0))
        assert manifest["pairs"] == []
        loaded = load_manifest(str(tmp_path / "manifest.json"))
        assert loaded == manifest

    def test_round_trip_matches_memory(self, tmp_path):
        cfg = DatasetConfig(out_dir=str(tmp_path), n_pairs=1, base_seed=5, classes=("small",))
        manifest = build_dataset(cfg)
        ref, tgt, points, pose, intrinsics = load_pair_entry(
            manifest["pairs"][0], str(tmp_path)
        )
        pair = generate_pair(cfg, 0)
        for level in (1, 2, 3, 4):
            assert np.array_equal(
                ref.level(level).values, pair.ref_pyramid.level(level).values
            )
            assert np.array_equal(
                tgt.level(level).values, pair.tgt_pyramid.level(level).values
            )
        assert np.array_equal(points.uv, pair.points.uv)
        assert np.array_equal(pose.rotation, pair.gt_pose.rotation)
        assert np.array_equal(pose.translation, pair.gt_pose.translation)
        assert intrinsics.fx == pair.intrinsics.fx

    def test_manifest_pose_text_round_trips(self, tmp_path):
        build_dataset(DatasetConfig(out_dir=str(tmp_path), n_pairs=2, base_seed=9))
        manifest = load_manifest(str(tmp_path / "manifest.json"))
        from featalign.geometry import format_pose_text, load_pose_text

        for entry in manifest["pairs"]:
            path = os.path.join(str(tmp_path), entry["pose"])
            pose = load_pose_text(path)
            with open(path) as fh:
                assert format_pose_text(pose) == fh.read().rstrip("\n")

    def test_bad_manifest_reported(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"schema_version": 99, "pairs": []}))
        from featalign.synth import DatasetError

        with pytest.raises(DatasetError, match="schema"):
            load_manifest(str(path))
        with pytest.raises(DatasetError):
            load_manifest(str(tmp_path / "missing.json"))
