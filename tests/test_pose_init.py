"""Tests for correlation seeding."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from featalign.feature_maps import FeatureMap, FeaturePyramid, SampleOutOfBoundsError
from featalign.geometry import CameraIntrinsics, SE3Pose, se3_exp
from featalign import pose_init
from featalign.lm_align import (
    LMConfig,
    SparsePointSet,
    _huber,
    _level_inputs,
    compute_residuals,
)
from featalign.pose_init import (
    CORRELATION_BUDGET,
    InitConfig,
    InitError,
    _grid_energies,
    candidate_energy,
    corr_pose_init,
    correlation_map,
    median_correlation_flow,
)
from featalign.synth import (
    SceneConfig,
    SynthError,
    build_pair,
    generate_scene,
    mean_flow,
    sample_pose_perturbation,
)


def unit_vector_map(h, w, d, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(h, w, d))
    data /= np.linalg.norm(data, axis=2, keepdims=True)
    return FeatureMap(data)


@pytest.fixture(scope="module")
def large_pair():
    rng = np.random.default_rng(31)
    scene = generate_scene(rng, SceneConfig(), seed=31)
    pose = sample_pose_perturbation(rng, "large", scene)
    return build_pair(scene, pose, rng, magnitude_class="large", seed=31)


def serial_energy(pair, pose, huber_gamma=0.3, min_valid_points=8):
    """The seed energy written out with the one-pose solver residuals."""
    ev = compute_residuals(
        pair.ref_pyramid.level(1), pair.tgt_pyramid.level(1),
        pair.points.at_level(1), pair.points.depths, pose,
        pair.intrinsics.at_level(1), huber_gamma,
    )
    return ev.energy / ev.n_valid if ev.n_valid >= min_valid_points else math.inf


def level1_args(pair):
    return (pair.ref_pyramid.level(1), pair.tgt_pyramid.level(1), pair.points, pair.intrinsics)


class TestCorrelationMap:
    def test_self_similarity_argmax_on_diagonal(self):
        f = unit_vector_map(6, 7, 4, seed=0)
        volume = correlation_map(f, f)
        h, w = 6, 7
        flat = volume.reshape(h, w, -1)
        best = flat.argmax(axis=2)
        vv, uu = np.mgrid[0:h, 0:w]
        np.testing.assert_array_equal(best, vv * w + uu)

    def test_orthogonal_features_correlate_to_zero(self):
        a = np.zeros((5, 5, 2))
        a[:, :, 0] = 1.0
        b = np.zeros((5, 5, 2))
        b[:, :, 1] = 1.0
        volume = correlation_map(FeatureMap(a), FeatureMap(b))
        np.testing.assert_array_equal(volume, 0.0)

    def test_cosine_range_and_slab_norms(self):
        f = FeatureMap(np.random.default_rng(3).normal(size=(8, 9, 3)))
        g = FeatureMap(np.random.default_rng(4).normal(size=(7, 6, 3)))
        volume = correlation_map(f, g)
        assert volume.shape == (8, 9, 7, 6)
        assert volume.min() >= -1.0 and volume.max() <= 1.0
        slab_norms = np.linalg.norm(volume.reshape(8, 9, -1), axis=2)
        np.testing.assert_allclose(slab_norms, 1.0, atol=1e-12)

    def test_zero_feature_vector_gives_zero_slab(self):
        data = np.random.default_rng(5).normal(size=(6, 6, 2))
        data[2, 3] = 0.0
        f = FeatureMap(data)
        g = unit_vector_map(6, 6, 2, seed=6)
        volume = correlation_map(f, g)
        assert np.all(volume[2, 3] == 0.0)
        assert np.isfinite(volume).all()
        slab_norms = np.linalg.norm(volume.reshape(6, 6, -1), axis=2)
        assert np.count_nonzero(slab_norms) == 35

    def test_budget_guard(self):
        big = FeatureMap(np.zeros((65, 64, 1)))
        with pytest.raises(InitError):
            correlation_map(big, big)
        assert 65 * 64 > CORRELATION_BUDGET

    def test_channel_mismatch(self):
        with pytest.raises(InitError):
            correlation_map(
                FeatureMap(np.zeros((4, 4, 2))), FeatureMap(np.zeros((4, 4, 3)))
            )

    def test_median_flow_of_empty_signal_is_zero(self):
        assert median_correlation_flow(np.zeros((4, 4, 4, 4))) == (0.0, 0.0)


class TestCandidateEnergy:
    def test_grid_energies_match_reference_scorer(self, large_pair):
        pair = large_pair
        rng = np.random.default_rng(9)
        twists = [rng.uniform(-0.15, 0.15, size=6) for _ in range(8)]
        twists += [
            [2.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # some points past the warp margin
            [3.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [-0.77, 3.68, -3.18, 1.05, 0.64, -0.9],  # some behind the camera
            [0.0, 0.0, -4.9, 0.0, 0.0, 0.0],  # behind the camera, 1 valid
            [4.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # fewer than min_valid_points
            [6.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # none valid
        ]
        poses = [se3_exp(np.asarray(t, dtype=np.float64)) for t in twists]
        vec = grid_energies(
            pair, np.array([p.rotation for p in poses]), np.arange(len(poses)),
            np.array([p.translation for p in poses]), LMConfig(),
        )
        assert vec.shape == (len(poses),)
        for i, pose in enumerate(poses):
            ref = serial_energy(pair, pose)
            if math.isinf(ref):
                assert math.isinf(vec[i])
            else:
                assert vec[i] == pytest.approx(ref, rel=1e-12)
            # the one-pose scorer is the grid's row, bit for bit
            assert candidate_energy(*level1_args(pair), pose) == vec[i]

        # The extra poses reach every way a point drops out.
        evals = [
            compute_residuals(
                pair.ref_pyramid.level(1), pair.tgt_pyramid.level(1),
                pair.points.at_level(1), pair.points.depths, pose,
                pair.intrinsics.at_level(1),
            )
            for pose in poses[8:]
        ]
        n_valid = [ev.n_valid for ev in evals]
        behind = [int((ev.transformed[:, 2] <= 0.0).sum()) for ev in evals]
        n = len(pair.points)
        assert all(8 <= k < n for k in n_valid[:3])
        assert behind[:2] == [0, 0] and behind[2] > 0 and behind[3] > 0
        assert 0 < n_valid[3] < 8 and 0 < n_valid[4] < 8 and n_valid[5] == 0

    def test_too_few_valid_points_scores_infinite(self, large_pair):
        pair = large_pair
        # a pose that throws everything out of frame
        wild = SE3Pose(rotation=np.eye(3), translation=np.array([50.0, 0.0, 0.0]))
        e = candidate_energy(*level1_args(pair), wild)
        assert math.isinf(e)

    def test_energy_follows_solver_huber_gamma(self, large_pair):
        pair = large_pair
        pose = se3_exp(np.array([0.05, -0.02, 0.01, 0.01, 0.0, -0.01]))
        narrow = candidate_energy(*level1_args(pair), pose, LMConfig(huber_gamma=0.05))
        assert narrow == pytest.approx(serial_energy(pair, pose, huber_gamma=0.05), rel=1e-12)
        assert narrow != candidate_energy(*level1_args(pair), pose)

    def test_energy_follows_solver_min_valid_points(self, large_pair):
        pair = large_pair
        pose = se3_exp(np.array([0.05, -0.02, 0.01, 0.01, 0.0, -0.01]))
        n = len(pair.points)
        assert math.isfinite(candidate_energy(*level1_args(pair), pose, LMConfig(min_valid_points=1)))
        assert math.isinf(candidate_energy(*level1_args(pair), pose, LMConfig(min_valid_points=n + 1)))


def level1_inputs(pair):
    return _level_inputs(
        pair.ref_pyramid.level(1), pair.points.at_level(1), pair.points.depths,
        pair.intrinsics.at_level(1),
    )


def grid_energies(pair, rotations, rot_index, translations, lm_config):
    """``_grid_energies`` of a pair's coarsest level."""
    return _grid_energies(
        level1_inputs(pair), pair.tgt_pyramid.level(1), rotations, rot_index, translations,
        pair.intrinsics.at_level(1), lm_config,
    )


def one_shot_energies(pair, rotations, translations, lm_config):
    """The grid energies from one-pose ``compute_residuals`` rows, stacked: an
    oracle that shares neither the blocks nor the plane layout of the grid."""
    rows = [
        compute_residuals(
            pair.ref_pyramid.level(1), pair.tgt_pyramid.level(1), pair.points.at_level(1),
            pair.points.depths, SE3Pose(r, t), pair.intrinsics.at_level(1),
            margin=lm_config.margin,
        )
        for r, t in zip(rotations, translations)
    ]
    norms = np.stack([row.norms for row in rows])
    valid = np.stack([row.valid for row in rows])
    n_valid = valid.sum(axis=1)
    energies = np.full(valid.shape[0], np.inf)
    enough = n_valid >= lm_config.min_valid_points
    energies[enough] = _huber(norms, lm_config.huber_gamma).sum(axis=1)[enough] / n_valid[enough]
    return energies


class TestGridBlocks:
    @pytest.mark.parametrize(
        "offset", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
        ids=["1", "block-1", "block", "block+1", "2block+3"],
    )
    def test_blocks_equal_one_shot_kernel_bit_for_bit(self, large_pair, monkeypatch, offset):
        block = pose_init._GRID_BLOCK
        m = offset[0] * block + offset[1]
        rng = np.random.default_rng(m)
        twists = rng.uniform(-0.15, 0.15, size=(m, 6))
        twists[3::7] = [4.0, 0.0, 0.0, 0.0, 0.0, 0.0]  # fewer than min_valid_points
        twists[5::7] = [6.0, 0.0, 0.0, 0.0, 0.0, 0.0]  # none valid
        poses = [se3_exp(t) for t in twists]
        rotations = np.array([p.rotation for p in poses])
        translations = np.array([p.translation for p in poses])
        lm = LMConfig()
        expected = one_shot_energies(large_pair, rotations, translations, lm)

        rows = []
        real = pose_init._valid_norms

        def recording(ref_vals, tgt, warped, *rest):
            rows.append(warped.shape[0])
            return real(ref_vals, tgt, warped, *rest)

        monkeypatch.setattr(pose_init, "_valid_norms", recording)
        energies = grid_energies(large_pair, rotations, np.arange(m), translations, lm)
        assert energies.tobytes() == expected.tobytes()
        assert rows == [block] * (m // block) + ([m % block] if m % block else [])
        if m > 5:
            assert np.isinf(energies).sum() == len(twists[3::7]) + len(twists[5::7])
        assert np.isfinite(energies).any()


def flat_pyramid(pyramid):
    return FeaturePyramid([FeatureMap(np.zeros(m.values.shape)) for m in pyramid.levels])


def noise_pyramid(pyramid, rng):
    return FeaturePyramid([FeatureMap(rng.normal(size=m.values.shape)) for m in pyramid.levels])


def bounded_case(kind, magnitude_class, seed):
    """One seed-search input: a synthetic pair, or a degenerate variant of it."""
    rng = np.random.default_rng(seed)
    try:
        scene = generate_scene(rng, SceneConfig(), seed=seed)
        pose = sample_pose_perturbation(rng, magnitude_class, scene)
        pair = build_pair(scene, pose, rng, magnitude_class=magnitude_class, seed=seed)
    except SynthError:
        assume(False)
    ref, tgt, points = pair.ref_pyramid, pair.tgt_pyramid, pair.points
    init, lm = InitConfig(), LMConfig()
    if kind == "flat":
        ref = tgt = flat_pyramid(ref)
    elif kind == "flat_target":
        tgt = flat_pyramid(tgt)
    elif kind == "few_points":  # many rows keep fewer than min_valid_points
        points = SparsePointSet(uv=points.uv[:9], depths=points.depths[:9])
    elif kind == "all_points_needed":
        lm = LMConfig(min_valid_points=len(points))
    elif kind == "zero_ranges":
        init = InitConfig(yaw_range_deg=0.0, pitch_range_deg=0.0, t_range=0.0, t_steps=1)
    elif kind == "noise":  # unrelated features: a flat energy profile
        ref, tgt = noise_pyramid(ref, rng), noise_pyramid(tgt, rng)
    return ref, tgt, points, pair.intrinsics, init, lm


class TestBoundedSearch:
    def test_shared_rotations_match_the_one_shot_kernel(self, large_pair):
        # Rows that share a rotation are turned once per block; their
        # energies are still those of the one-pose kernel, row by row.
        rng = np.random.default_rng(3)
        poses = [se3_exp(t) for t in rng.uniform(-0.15, 0.15, size=(40, 6))]
        poses += [se3_exp(np.array([4.0, 0.0, 0.0, 0.0, 0.0, 0.0]))]  # fewer than 8 valid
        rotations = np.array([p.rotation for p in poses])
        translations = np.array([p.translation for p in poses])
        rot_index = rng.integers(0, len(poses), size=700)
        lm = LMConfig()
        expected = one_shot_energies(
            large_pair, rotations[rot_index], translations[rot_index], lm
        )
        exact = grid_energies(large_pair, rotations, rot_index, translations[rot_index], lm)
        assert np.isinf(exact).any() and np.isfinite(exact).any()
        assert exact.tobytes() == expected.tobytes()

    def test_flat_features_score_only_the_first_batch(self, large_pair, monkeypatch):
        # Every energy is 0: the rows after identity tie it and cannot win.
        pair = large_pair
        flat = flat_pyramid(pair.ref_pyramid)
        rows = []
        real = pose_init._grid_energies

        def recording(*args):
            rows.append(args[3].shape[0])
            return real(*args)

        monkeypatch.setattr(pose_init, "_grid_energies", recording)
        pose = corr_pose_init(flat, flat, pair.points, pair.intrinsics)
        assert rows == [1 + pose_init._FIRST_EXACT]
        np.testing.assert_array_equal(pose.rotation, np.eye(3))
        np.testing.assert_array_equal(pose.translation, np.zeros(3))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @example(kind="noise", magnitude_class="large", seed=7002)
    @example(kind="pair", magnitude_class="small", seed=7000)
    @example(kind="pair", magnitude_class="medium", seed=7001)
    @example(kind="pair", magnitude_class="large", seed=7002)
    @given(
        kind=st.sampled_from(
            ["pair", "flat", "flat_target", "few_points", "all_points_needed", "zero_ranges",
             "noise"]
        ),
        magnitude_class=st.sampled_from(["small", "medium", "large"]),
        seed=st.integers(0, 10**6),
    )
    def test_bounds_hold_and_the_search_returns_the_full_grid_argmin(
        self, kind, magnitude_class, seed
    ):
        ref, tgt, points, intrinsics, init, lm = bounded_case(kind, magnitude_class, seed)
        calls = []
        real = pose_init._best_row

        def recording(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pose_init, "_best_row", recording)
            pose = corr_pose_init(ref, tgt, points, intrinsics, init, lm)
        args, row = calls[0]
        exact = _grid_energies(*args)
        assert row == int(np.argmin(exact))
        rotations, rot_index, translations = args[2:5]
        np.testing.assert_array_equal(pose.rotation, rotations[rot_index[row]])
        np.testing.assert_array_equal(pose.translation, translations[row])

        finite = np.isfinite(exact)
        for stride in pose_init._BOUND_STRIDES:
            bounds, _ = pose_init._grid_bounds(*args, stride)
            # One way only: a row that loses unsampled points keeps a
            # finite bound under its upper valid count.
            assert not np.any(np.isinf(bounds) & finite)
            assert np.all(bounds[finite] <= exact[finite] * (1.0 + 1e-9))


class TestCorrPoseInit:
    def test_identical_pyramids_give_identity(self, large_pair):
        pair = large_pair
        pose = corr_pose_init(
            pair.tgt_pyramid, pair.tgt_pyramid, pair.points, pair.intrinsics
        )
        np.testing.assert_array_equal(pose.rotation, np.eye(3))
        np.testing.assert_array_equal(pose.translation, np.zeros(3))

    def test_pure_translation_flow_recovered(self):
        rng = np.random.default_rng(4)
        cfg = SceneConfig(depth_slant=0.0, depth_noise=0.0)
        scene = generate_scene(rng, cfg, seed=4)
        tx = 18.0 * float(scene.depth.mean()) / cfg.fx
        pose = SE3Pose(rotation=np.eye(3), translation=np.array([tx, 0.0, 0.0]))
        pair = build_pair(scene, pose, rng, magnitude_class="large", seed=4)
        volume = correlation_map(pair.ref_pyramid.level(1), pair.tgt_pyramid.level(1))
        du, dv = median_correlation_flow(volume)
        gt_level1 = mean_flow(scene, pose) / 8.0
        assert abs(du - gt_level1) <= 1.0
        assert abs(dv) <= 1.0

    def test_never_worse_than_identity(self):
        for s in (50, 51, 52):
            rng = np.random.default_rng(s)
            scene = generate_scene(rng, SceneConfig(), seed=s)
            pose = sample_pose_perturbation(rng, "large", scene)
            pair = build_pair(scene, pose, rng, magnitude_class="large", seed=s)
            seeded = corr_pose_init(
                pair.ref_pyramid, pair.tgt_pyramid, pair.points, pair.intrinsics
            )
            args = level1_args(pair)
            assert candidate_energy(*args, seeded) <= candidate_energy(*args, SE3Pose.identity())

    def test_seed_usually_beats_identity_on_large_baselines(self):
        wins = 0
        for s in range(10):
            rng = np.random.default_rng(100 + s)
            scene = generate_scene(rng, SceneConfig(), seed=100 + s)
            pose = sample_pose_perturbation(rng, "large", scene)
            pair = build_pair(scene, pose, rng, magnitude_class="large", seed=100 + s)
            seeded = corr_pose_init(
                pair.ref_pyramid, pair.tgt_pyramid, pair.points, pair.intrinsics
            )
            args = level1_args(pair)
            if candidate_energy(*args, seeded) < candidate_energy(*args, SE3Pose.identity()):
                wins += 1
        assert wins >= 8

    def test_one_scorer_call_with_identity_first_and_solver_settings(self, large_pair, monkeypatch):
        pair = large_pair
        calls = []
        real = pose_init._best_row

        def recording(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pose_init, "_best_row", recording)
        lm = LMConfig(huber_gamma=0.05, min_valid_points=6, margin=3.0)
        corr_pose_init(pair.ref_pyramid, pair.tgt_pyramid, pair.points, pair.intrinsics, lm_config=lm)
        assert len(calls) == 1
        rotations, rot_index, translations, _, lm_config = calls[0][2:]
        assert rot_index.shape == (1 + 81 * 125,) and translations.shape == (1 + 81 * 125, 3)
        assert rotations.shape == (1 + 81, 3, 3)
        np.testing.assert_array_equal(rotations[rot_index[0]], np.eye(3))
        np.testing.assert_array_equal(translations[0], np.zeros(3))
        assert lm_config is lm

    def test_zero_ranges_score_identity_and_the_flow_seed(self, large_pair, monkeypatch):
        pair = large_pair
        rows = []
        real = pose_init._best_row

        def recording(*args):
            rows.append(args[3].shape[0])
            return real(*args)

        monkeypatch.setattr(pose_init, "_best_row", recording)
        cfg = InitConfig(yaw_range_deg=0.0, pitch_range_deg=0.0, t_range=0.0, t_steps=1)
        corr_pose_init(pair.ref_pyramid, pair.tgt_pyramid, pair.points, pair.intrinsics, cfg)
        assert rows == [2]

    @pytest.mark.parametrize("identity_ahead", [True, False])
    def test_tie_with_identity_returns_identity(self, large_pair, monkeypatch, identity_ahead):
        pair = large_pair
        real = pose_init._grid_energies
        picked = []

        def tied(level, tgt, rotations, rot_index, translations, *rest):
            energies = real(level, tgt, rotations, rot_index, translations, *rest)
            if not picked:
                # The search's first call scores identity first, with the
                # best grid pose's energy or one ulp above it.
                assert rot_index[0] == 0 and not translations[0].any()
                everything = real(level, tgt, rotations, *searched, *rest)
                best = 1 + int(np.argmin(everything[1:]))
                picked.append(SE3Pose(rotations[searched[0][best]], searched[1][best]))
                top = everything[best]
                energies[0] = top if identity_ahead else np.nextafter(top, np.inf)
            return energies

        searched = []
        real_search = pose_init._best_row

        def search(level, tgt, rotations, rot_index, translations, *rest):
            searched.extend([rot_index, translations])
            return real_search(level, tgt, rotations, rot_index, translations, *rest)

        monkeypatch.setattr(pose_init, "_grid_energies", tied)
        monkeypatch.setattr(pose_init, "_best_row", search)
        pose = corr_pose_init(pair.ref_pyramid, pair.tgt_pyramid, pair.points, pair.intrinsics)
        expected = SE3Pose.identity() if identity_ahead else picked[0]
        assert np.any(picked[0].translation != 0.0)
        np.testing.assert_array_equal(pose.rotation, expected.rotation)
        np.testing.assert_array_equal(pose.translation, expected.translation)

    def test_target_smaller_than_intrinsics_raises(self, large_pair):
        pair = large_pair
        k = pair.intrinsics
        wide = CameraIntrinsics(k.fx, k.fy, k.cx, k.cy, k.width + 16, k.height)
        with pytest.raises(SampleOutOfBoundsError, match="smaller than the"):
            corr_pose_init(pair.ref_pyramid, pair.tgt_pyramid, pair.points, wide)

    def test_too_few_points_fall_back_to_identity(self, large_pair):
        pair = large_pair
        thin = SparsePointSet(
            uv=pair.points.uv[:4], depths=pair.points.depths[:4], warning=None
        )
        pose = corr_pose_init(pair.ref_pyramid, pair.tgt_pyramid, thin, pair.intrinsics)
        np.testing.assert_array_equal(pose.rotation, np.eye(3))
        np.testing.assert_array_equal(pose.translation, np.zeros(3))


class TestInitConfig:
    def test_even_step_count_rejected(self):
        with pytest.raises(InitError):
            InitConfig(t_steps=4)

    def test_unknown_key_rejected(self):
        with pytest.raises(InitError):
            InitConfig.from_mapping({"yaw_range": 3.0})

    def test_mapping_round_trip(self):
        cfg = InitConfig.from_mapping({"yaw_range_deg": "3.0", "t_steps": "3"})
        assert cfg.yaw_range_deg == 3.0
        assert cfg.t_steps == 3
        assert cfg.pitch_range_deg == 6.0

    def test_grid_rows_capped(self):
        # 81 * 81 * 125 + 1 = 820,126 rows are allowed, 121 * 121 * 125 + 1 are not.
        InitConfig(yaw_step_deg=0.15, pitch_step_deg=0.15)
        with pytest.raises(InitError, match="more than 1e\\+06"):
            InitConfig(yaw_step_deg=0.1, pitch_step_deg=0.1)
        with pytest.raises(InitError, match="1.8e\\+08 rows"):
            InitConfig(yaw_step_deg=0.01, pitch_step_deg=0.01)
        with pytest.raises(InitError):
            InitConfig(t_steps=201)
        with pytest.raises(InitError):
            InitConfig.from_mapping({"yaw_step_deg": "0.01", "pitch_step_deg": "0.01"})

    @pytest.mark.parametrize("key", ["huber_gamma", "min_valid_points"])
    def test_solver_energy_keys_are_not_init_keys(self, key):
        with pytest.raises(InitError, match=f"unknown init config key '{key}'"):
            InitConfig.from_mapping({key: "1"})
