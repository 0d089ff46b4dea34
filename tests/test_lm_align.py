"""LM solver tests: residuals, weights, normal equations, damping schedule.

Scenario maps use power-of-two intrinsics (fx = fy = 64, cx = cy = 32) so
identity warps reproduce pixel coordinates exactly in floating point.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featalign.feature_maps import (
    SAMPLE_MARGIN,
    FeatureMap,
    FeaturePyramid,
    SampleOutOfBoundsError,
    _stencil,
    build_baseline_pyramid,
    in_margins,
)
from featalign.geometry import (
    Z_MIN,
    CameraIntrinsics,
    SE3Pose,
    _project_planes,
    boxplus,
    se3_exp,
    warp_points,
)
from featalign import lm_align
from featalign.lm_align import (
    AlignmentError,
    DegenerateSystemError,
    LMConfig,
    PointFileError,
    SparsePointSet,
    _damping_matrix,
    _evaluate,
    _huber,
    _level_inputs,
    _stencil_jacobian,
    _valid_norms,
    align_coarse_to_fine,
    align_level,
    build_normal_equations,
    compute_jacobian,
    compute_residuals,
    huber_energy,
    huber_weights,
    load_points_text,
    save_points_text,
    solve_step,
)
from featalign.synth import SceneConfig, build_pair, generate_scene, sample_pose_perturbation

from solver_helpers import damp


def _K64():
    return CameraIntrinsics(fx=64.0, fy=64.0, cx=32.0, cy=32.0, width=64, height=64)


def _ramp_pair(a=0.05, b=0.08, h=64, w=64):
    """Reference and target both hold the same two-channel ramp."""
    v, u = np.mgrid[0:h, 0:w].astype(np.float64)
    chans = np.stack([a * u + b * v, b * u - a * v], axis=2)
    return FeatureMap(chans), FeatureMap(chans)


def _grid_points(rng, n=24, lo=8.0, hi=56.0, depth_lo=2.0, depth_hi=4.0):
    uv = rng.uniform(lo, hi, size=(n, 2))
    depths = rng.uniform(depth_lo, depth_hi, size=n)
    return uv, depths


class TestHuber:
    def test_weights_inside_and_outside(self):
        w = huber_weights(np.array([0.2, 0.3, 0.6]), gamma=0.3)
        np.testing.assert_allclose(w, [1.0, 1.0, 0.5])

    def test_energy_hand_values(self):
        # 0.5 * 0.2^2 = 0.02; 0.3 * (0.6 - 0.15) = 0.135
        assert huber_energy(np.array([0.2]), 0.3) == pytest.approx(0.02)
        assert huber_energy(np.array([0.6]), 0.3) == pytest.approx(0.135)

    def test_energy_continuous_at_gamma(self):
        below = huber_energy(np.array([0.3 - 1e-12]), 0.3)
        above = huber_energy(np.array([0.3 + 1e-12]), 0.3)
        assert abs(below - above) < 1e-9

    def test_zero_norm_weight_is_one(self):
        assert huber_weights(np.array([0.0]), 0.3)[0] == 1.0

    def test_weight_below_1e_300_is_gamma_over_norm(self):
        gamma, s = 7.1e-301, 9e-301
        got = huber_weights(np.array([s]), gamma)[0]
        assert np.float64(got).tobytes() == np.float64(gamma / s).tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(gamma=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_weights_are_one_or_gamma_over_norm(self, gamma, seed):
        rng = np.random.default_rng(seed)
        s = gamma * rng.uniform(0.0, 3.0, size=64)
        s[:4] = (0.0, gamma, np.nextafter(gamma, 0.0), np.nextafter(gamma, np.inf))
        with np.errstate(divide="ignore"):
            want = np.where(s <= gamma, 1.0, gamma / s)
        assert huber_weights(s, gamma).tobytes() == want.tobytes()


class TestComputeResiduals:
    def test_identical_maps_identity_pose(self):
        rng = np.random.default_rng(1)
        fmap = FeatureMap(rng.uniform(size=(64, 64, 2)).astype(np.float32))
        uv, depths = _grid_points(rng)
        out = compute_residuals(fmap, fmap, uv, depths, SE3Pose.identity(), _K64())
        assert out.n_valid == len(uv)
        np.testing.assert_allclose(out.residuals, 0.0, atol=1e-12)
        assert out.energy == pytest.approx(0.0, abs=1e-20)

    def test_constant_offset_appears_in_every_block(self):
        rng = np.random.default_rng(2)
        base = rng.uniform(size=(64, 64, 2))
        ref = FeatureMap(base)
        tgt = FeatureMap(base + 0.25)
        uv, depths = _grid_points(rng)
        out = compute_residuals(ref, tgt, uv, depths, SE3Pose.identity(), _K64())
        np.testing.assert_allclose(out.residuals[out.valid], 0.25, atol=1e-6)

    def test_invalid_points_hold_zeros(self):
        rng = np.random.default_rng(3)
        fmap = FeatureMap(rng.uniform(size=(64, 64, 1)).astype(np.float32))
        uv = np.array([[32.0, 32.0], [63.0, 32.0]])  # second too close to border
        depths = np.array([2.0, 2.0])
        out = compute_residuals(fmap, fmap, uv, depths, SE3Pose.identity(), _K64())
        assert list(out.valid) == [True, False]
        np.testing.assert_array_equal(out.residuals[1], 0.0)

    def test_pose_pushing_points_out_reduces_valid_count(self):
        rng = np.random.default_rng(4)
        fmap = FeatureMap(rng.uniform(size=(64, 64, 1)).astype(np.float32))
        uv, depths = _grid_points(rng)
        pose = SE3Pose(np.eye(3), np.array([50.0, 0.0, 0.0]))
        out = compute_residuals(fmap, fmap, uv, depths, pose, _K64())
        assert out.n_valid == 0
        assert out.energy == 0.0


class TestComputeJacobian:
    def test_zero_gradient_map_gives_zero_jacobian(self):
        fmap = FeatureMap(np.full((64, 64, 1), 2.0, dtype=np.float32))
        rng = np.random.default_rng(5)
        uv, depths = _grid_points(rng)
        jac, valid = compute_jacobian(fmap, uv, depths, SE3Pose.identity(), _K64())
        assert valid.all()
        np.testing.assert_array_equal(jac, 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        smooth = np.cumsum(np.cumsum(rng.normal(size=(64, 64, 2)), axis=0), axis=1)
        smooth = (smooth - smooth.mean()) / smooth.std()
        ref = FeatureMap(np.zeros((64, 64, 2), dtype=np.float32))
        tgt = FeatureMap(smooth.astype(np.float32))
        k = _K64()
        pose = se3_exp(np.array([0.01, -0.02, 0.015, 0.004, -0.003, 0.006]))
        step = 1e-6

        checked = 0
        for _ in range(40):
            uv = rng.uniform(10, 54, size=(1, 2))
            depths = rng.uniform(2.0, 4.0, size=1)
            base = compute_residuals(ref, tgt, uv, depths, pose, k)
            if not base.valid[0]:
                continue
            # Skip warps near interpolation cell edges where the sampled
            # gradient is discontinuous and differencing is invalid.
            frac = base.warped[0] - np.floor(base.warped[0])
            if np.any(np.minimum(frac, 1.0 - frac) < 5e-3):
                continue
            jac, _ = compute_jacobian(tgt, uv, depths, pose, k)
            fd = np.zeros((2, 6))
            for col in range(6):
                d = np.zeros(6)
                d[col] = step
                hi = compute_residuals(ref, tgt, uv, depths, boxplus(d, pose), k)
                lo = compute_residuals(ref, tgt, uv, depths, boxplus(-d, pose), k)
                fd[:, col] = (hi.residuals[0] - lo.residuals[0]) / (2 * step)
            scale = max(np.abs(fd).max(), 1e-9)
            assert np.abs(jac[0] - fd).max() / scale < 1e-3
            checked += 1
        assert checked >= 25


class TestPerLevelKernel:
    """The solver's per-level path reproduces the one-pose functions bit for bit."""

    @staticmethod
    def _scene():
        rng = np.random.default_rng(12)
        smooth = np.cumsum(np.cumsum(rng.normal(size=(64, 64, 2)), axis=0), axis=1)
        smooth = (smooth - smooth.mean()) / smooth.std()
        ref = FeatureMap(smooth + rng.normal(0.0, 0.1, size=smooth.shape))
        tgt = FeatureMap(smooth)
        # Points reach onto the border, so the reference and warp masks differ.
        uv, depths = _grid_points(rng, n=60, lo=0.0, hi=63.0)
        poses = [SE3Pose.identity(), SE3Pose(np.eye(3), np.array([0.15, -0.1, 0.0]))]
        poses += [se3_exp(rng.uniform(-0.05, 0.05, size=6)) for _ in range(5)]
        return ref, tgt, uv, depths, poses

    def test_level_inputs_reused_across_poses_match_compute_residuals(self):
        ref, tgt, uv, depths, poses = self._scene()
        k = _K64()
        level = _level_inputs(ref, uv, depths, k)
        for pose in poses:
            want = compute_residuals(ref, tgt, uv, depths, pose, k)
            assert 0 < want.n_valid < len(uv)
            # The solver's compact evaluation holds exactly the valid rows.
            got = _evaluate(level, tgt, pose, k, 0.3, 2.0)
            assert got.energy == want.energy
            assert got.n_valid == want.n_valid
            assert got.ids.tobytes() == np.flatnonzero(want.valid).tobytes()
            for name in ("residuals", "norms", "transformed"):
                assert getattr(got, name).tobytes() == getattr(want, name)[want.valid].tobytes()
            assert got.stencil.corners.tobytes() == want.stencil.corners.tobytes()
            assert not want.residuals[~want.valid].any()
            assert not want.norms[~want.valid].any()

    def test_synthesis_and_solver_warp_alike(self):
        # Synthesis builds its exact reference maps with warp_points; the
        # solver's ground-truth residuals stay at float32 rounding only if it
        # warps to the very same bits.
        ref, tgt, uv, depths, poses = self._scene()
        cases = [(ref, tgt, uv, depths, pose, _K64()) for pose in poses]
        rng = np.random.default_rng(1)
        scene = generate_scene(rng, SceneConfig(), seed=1)
        pose = sample_pose_perturbation(rng, "medium", scene)
        pair = build_pair(scene, pose, rng, magnitude_class="medium", seed=1)
        cases += [
            (pair.ref_pyramid.level(l), pair.tgt_pyramid.level(l), pair.points.at_level(l),
             pair.points.depths, pair.gt_pose, pair.intrinsics.at_level(l))
            for l in (1, 2, 3, 4)
        ]
        for ref, tgt, uv, depths, pose, k in cases:
            warped, valid, transformed = warp_points(uv, depths, pose, k)
            want = compute_residuals(ref, tgt, uv, depths, pose, k)
            assert want.warped.tobytes() == warped.tobytes()
            assert want.transformed.tobytes() == transformed.tobytes()
            got = _evaluate(_level_inputs(ref, uv, depths, k), tgt, pose, k, 0.3, 2.0)
            assert got.transformed.tobytes() == transformed[got.ids].tobytes()
            in_ref = in_margins(uv, ref.width, ref.height, SAMPLE_MARGIN)
            assert np.array_equal(want.valid, valid & in_ref)
            assert want.n_valid > 0

    def test_norms_core_matches_full_kernel(self):
        ref, tgt, uv, depths, poses = self._scene()
        k = _K64()
        level = _level_inputs(ref, uv, depths, k)
        # The oracle stacks one-pose rows, so it shares no code with the
        # many-pose planes the core is fed in the seed grid.
        rows = [compute_residuals(ref, tgt, uv, depths, pose, k, margin=3.0) for pose in poses]
        u, v = np.stack([row.warped for row in rows]).transpose(2, 0, 1)
        valid = np.stack([row.valid for row in rows])
        core = _valid_norms(level.ref_vals, tgt, u, v, valid)
        assert core.tobytes() == np.stack([row.norms for row in rows]).tobytes()

    @pytest.mark.parametrize("extent", [(65, 64), (64, 65), (80, 80)])
    def test_target_smaller_than_intrinsics_raises(self, extent):
        # Valid pixels are sampled without a margin test, which is only
        # safe on a target map that covers the intrinsics' image.
        ref, tgt, uv, depths, poses = self._scene()
        wide = CameraIntrinsics(
            fx=64.0, fy=64.0, cx=32.0, cy=32.0, width=extent[0], height=extent[1]
        )
        with pytest.raises(SampleOutOfBoundsError, match="smaller than the"):
            compute_residuals(ref, tgt, uv, depths, poses[1], wide)
        with pytest.raises(SampleOutOfBoundsError, match="smaller than the"):
            align_level(ref, tgt, uv, depths, poses[1], wide, LMConfig())
        # A map larger than the image is sampled as before.
        big = FeatureMap(np.pad(tgt.values, ((0, 16), (0, 16), (0, 0))))
        want = compute_residuals(ref, tgt, uv, depths, poses[1], _K64())
        got = compute_residuals(ref, big, uv, depths, poses[1], _K64())
        assert got.residuals.tobytes() == want.residuals.tobytes()

    @pytest.mark.parametrize("margin", [0.999, 0.0, -3.0])
    def test_one_pose_functions_refuse_margin_below_sampling_margin(self, margin):
        ref, tgt, uv, depths, poses = self._scene()
        k = _K64()
        with pytest.raises(AlignmentError, match="margin must be at least 1"):
            compute_residuals(ref, tgt, uv, depths, poses[0], k, margin=margin)
        with pytest.raises(AlignmentError, match="margin must be at least 1"):
            compute_jacobian(tgt, uv, depths, poses[0], k, margin=margin)
        assert compute_residuals(ref, tgt, uv, depths, poses[0], k, margin=1.0).n_valid > 0
        assert compute_jacobian(tgt, uv, depths, poses[0], k, margin=1.0)[1].any()

    def test_stencil_jacobian_matches_compute_jacobian(self):
        ref, tgt, uv, depths, poses = self._scene()
        k = _K64()
        warp_only = 0
        for pose in poses:
            ev = compute_residuals(ref, tgt, uv, depths, pose, k)
            jac, jac_valid = compute_jacobian(tgt, uv, depths, pose, k)
            assert not (ev.valid & ~jac_valid).any()
            warp_only += int((jac_valid & ~ev.valid).sum())
            got = _stencil_jacobian(ev.stencil, ev.transformed[ev.valid], k)
            assert got.tobytes() == jac[ev.valid].tobytes()
        assert warp_only > 0


class TestTrimmedFormulas:
    """The solver's norms, energy and damping against the NumPy formulas
    they spell out, byte for byte: ``np.linalg.norm(res, axis=1)``,
    ``np.sum`` of the Huber penalties and the Marquardt floor as ``damp``
    first wrote it."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        channels=st.integers(1, 8),
        points=st.integers(0, 40),
        scale=st.sampled_from([1e-30, 1e-3, 1.0, 1e3, 1e30]),
        shift=st.sampled_from([0.0, 0.1, 100.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_norms_and_energy_match_linalg_norm(self, channels, points, scale, shift, seed):
        rng = np.random.default_rng(seed)
        k = CameraIntrinsics(fx=16.0, fy=16.0, cx=8.0, cy=8.0, width=16, height=16)
        ref = FeatureMap(scale * rng.normal(size=(16, 16, channels)))
        tgt = FeatureMap(scale * rng.normal(size=(16, 16, channels)))
        uv = rng.uniform(0.0, 15.0, size=(points, 2))
        depths = rng.uniform(1.0, 3.0, size=points)
        # A shift of 100 moves every point out of the image: zero valid points.
        pose = SE3Pose(se3_exp(rng.uniform(-0.05, 0.05, size=6)).rotation, [shift, 0.0, 0.0])
        level = _level_inputs(ref, uv, depths, k)
        gamma = float(rng.choice([1e-3, 0.3, 1e3])) * scale
        got = _evaluate(level, tgt, pose, k, gamma, 2.0)
        norms = np.linalg.norm(got.residuals, axis=1)
        assert got.norms.tobytes() == norms.tobytes()
        assert got.energy == float(np.sum(_huber(norms, gamma)))
        if shift == 100.0:
            assert got.n_valid == 0 and got.energy == 0.0

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        lam=st.sampled_from([0.0, 1e-12, 0.1, 0.4, 3.0, 1e8]),
        dead=st.integers(0, 6),
        scale=st.sampled_from([1e-9, 1.0, 1e9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_damping_matrix_matches_the_marquardt_formula(self, lam, dead, scale, seed):
        rng = np.random.default_rng(seed)
        a = scale * rng.normal(size=(20, 6))
        a[:, rng.permutation(6)[:dead]] = 0.0  # dead directions hit the 1e-12 floor
        h = a.T @ a
        want = h + lam * np.diag(np.maximum(np.diag(h), 1e-12))
        assert (h + lam * _damping_matrix(h, "marquardt")).tobytes() == want.tobytes()
        assert damp(h, lam, "marquardt").tobytes() == want.tobytes()
        assert damp(h, lam, "levenberg").tobytes() == (h + lam * np.eye(6)).tobytes()


class TestPerLayerCalls:
    """perfbench times ``boxplus``, ``build_normal_equations`` and
    ``solve_step`` through ``lm_align``'s bindings. One ``align_level`` run
    must call them as its trace says, so a kernel that stops going through
    them fails here before their per-layer figures read zero."""

    @staticmethod
    def _count_calls(monkeypatch):
        calls = dict.fromkeys(("boxplus", "build_normal_equations", "solve_step"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(lm_align, name, counted(name, getattr(lm_align, name)))
        return calls

    @pytest.mark.parametrize(
        "case", ["rejections", "max_iters", "degenerate_solves", "lambda_cap"]
    )
    def test_call_counts_follow_the_trace(self, monkeypatch, case):
        ref, tgt, uv, depths, poses = TestPerLevelKernel._scene()
        pose, config = poses[3], LMConfig()
        if case == "max_iters":
            pose = se3_exp(np.array([0.1, -0.1, 0.0, 0.05, -0.05, 0.1]))
        elif case == "degenerate_solves":
            config = LMConfig(damping="levenberg", cond_max=50.0)
        elif case == "lambda_cap":
            ref, tgt, uv, depths = _margin_pinned_scenario()
            pose = SE3Pose.identity()
            config = LMConfig(damping="levenberg", min_valid_points=len(uv))
        calls = self._count_calls(monkeypatch)
        _, stats = align_level(ref, tgt, uv, depths, pose, _K64(), config)
        trace = stats.trace
        assert stats.rejected > 0
        if case in ("max_iters", "lambda_cap"):
            assert stats.termination == case
        if case == "degenerate_solves":
            assert any(rec.note.startswith("degenerate") for rec in trace)
        # One solve per iteration, raising or not.
        assert calls["solve_step"] == stats.iterations == len(trace) > 0
        # One system for the first iteration and one after each accepted step.
        assert calls["build_normal_equations"] == 1 + sum(rec.accepted for rec in trace[:-1])
        # One boxplus per candidate.
        assert calls["boxplus"] == sum(rec.candidate_energy is not None for rec in trace)


def stencil_norms_oracle(ref_vals, tgt, u, v, valid):
    """The seed's residual norms over the solver's stencil path, as
    ``_valid_norms`` computed them before it read one channel plane at a
    time: ``_stencil``'s (k, 4, D) corners, ``Stencil.values()``' einsum and
    ``np.linalg.norm``. Also returns the stencil and the reference rows."""
    flat = np.flatnonzero(valid)
    stencil = _stencil(tgt.values, u.reshape(-1)[flat], v.reshape(-1)[flat])
    ref = ref_vals[flat % valid.shape[-1]]
    norms = np.zeros(valid.shape)
    norms.reshape(-1)[flat] = np.linalg.norm(stencil.values() - ref, axis=1)
    return norms, stencil, ref


class TestPlanarNorms:
    @settings(max_examples=200, deadline=None)
    @given(
        channels=st.sampled_from([1, 2, 3, 7, 8]),
        rows=st.integers(1, 12),
        points=st.integers(1, 40),
        margin=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        pad=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_planes_match_the_stencil_path(self, channels, rows, points, margin, scale, pad, seed):
        rng = np.random.default_rng(seed)
        w, h = (int(n) for n in rng.integers(8, 17, size=2))
        k = CameraIntrinsics(fx=12.0, fy=12.0, cx=w / 2, cy=h / 2, width=w, height=h)
        # A target map larger than the intrinsics' image is sampled as is.
        tgt = FeatureMap(scale * rng.normal(size=(h + pad, w + pad, channels)))
        ref_vals = scale * rng.normal(size=(points, channels))
        usable = rng.random(points) < 0.9
        x, y = rng.uniform(-1.0, 1.0, size=(2, rows, points))
        z = rng.uniform(-0.5, 2.0, size=(rows, points))  # some behind the camera
        z[rng.random(rows) < 0.2] = -1.0  # rows with no valid entry
        u, v, _ = _project_planes(usable, x, y, z, k, margin)
        # Pixels exactly on the margins; at margin 1 that is the last
        # interior node, where the cell is clamped.
        on_u, on_v = rng.random((2, rows, points)) < 0.2
        u[on_u] = rng.choice([margin, w - 1 - margin], size=on_u.sum())
        v[on_v] = rng.choice([margin, h - 1 - margin], size=on_v.sum())
        valid = usable & (z > Z_MIN) & in_margins(np.stack([u, v], axis=-1), w, h, margin)

        got = _valid_norms(ref_vals, tgt, u, v, valid)
        want, stencil, ref = stencil_norms_oracle(ref_vals, tgt, u, v, valid)
        assert not got[~valid].any()
        if 2 <= channels <= 7:
            assert got.tobytes() == want.tobytes()
            return
        # At D = 1 the einsum adds the corners in another order, and from
        # D = 8 on np.linalg.norm sums the squares pairwise. Either moves a
        # norm by a few roundings of the largest magnitude entering it; in
        # ulp of the norm itself, cancellation in value - reference could
        # make that any number.
        magnitude = np.zeros(valid.shape)
        magnitude[valid] = np.linalg.norm(np.abs(stencil.corners).max(axis=1) + np.abs(ref), axis=1)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(magnitude))


class TestNormalEquations:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        n, d = 30, 2
        jac = rng.normal(size=(n, d, 6))
        res = rng.normal(size=(n, d))
        w = rng.uniform(0.1, 1.0, size=n)
        h, b = build_normal_equations(jac, res, w)

        j_flat = jac.reshape(n * d, 6)
        w_flat = np.repeat(w, d)
        h_ref = j_flat.T @ np.diag(w_flat) @ j_flat
        b_ref = -j_flat.T @ np.diag(w_flat) @ res.reshape(-1)
        np.testing.assert_allclose(h, h_ref, atol=1e-12)
        np.testing.assert_allclose(b, b_ref, atol=1e-12)

    def test_valid_rows_equal_zero_padded_rows_bit_for_bit(self):
        # The solver sums over its valid points only; zero rows with zero
        # weights, where the invalid points were, add nothing to any bit.
        rng = np.random.default_rng(9)
        for _ in range(1000):
            n, d = int(rng.integers(1, 601)), int(rng.integers(1, 5))
            valid = rng.random(n) < rng.random()
            k = int(valid.sum())
            jac = rng.normal(size=(k, d, 6))
            res = rng.normal(size=(k, d))
            w = rng.uniform(0.0, 1.0, size=k)
            padded = [np.zeros((n, d, 6)), np.zeros((n, d)), np.zeros(n)]
            for full, rows in zip(padded, (jac, res, w)):
                full[valid] = rows
            for got, want in zip(build_normal_equations(jac, res, w),
                                 build_normal_equations(*padded)):
                assert got.tobytes() == want.tobytes()

    def test_hessian_is_psd(self):
        rng = np.random.default_rng(8)
        jac = rng.normal(size=(20, 2, 6))
        res = rng.normal(size=(20, 2))
        w = rng.uniform(0.0, 1.0, size=20)
        h, _ = build_normal_equations(jac, res, w)
        eigs = np.linalg.eigvalsh(h)
        assert eigs[0] > -1e-10
        np.testing.assert_allclose(h, h.T, atol=1e-12)


class TestDamping:
    def test_levenberg_adds_identity(self):
        h = np.diag([2.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        out = damp(h, 3.0, "levenberg")
        np.testing.assert_allclose(out, h + 3.0 * np.eye(6), atol=0)

    def test_marquardt_scales_diagonal_with_floor(self):
        h = np.diag([2.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        out = damp(h, 3.0, "marquardt")
        assert out[0, 0] == pytest.approx(8.0)
        assert out[1, 1] == pytest.approx(3e-12)

    def test_zero_lambda_keeps_h(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 6))
        h = a @ a.T
        for mode in ("levenberg", "marquardt"):
            np.testing.assert_allclose(damp(h, 0.0, mode), h, atol=0)


class TestSolveStep:
    def test_zero_lambda_equals_gauss_newton(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(12, 6))
        h = a.T @ a + 0.5 * np.eye(6)
        b = rng.normal(size=6)
        delta = solve_step(damp(h, 0.0, "levenberg"), b)
        np.testing.assert_allclose(delta, np.linalg.solve(h, b), atol=1e-10)

    def test_huge_lambda_approaches_scaled_gradient(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(12, 6))
        h = a.T @ a  # spectral norm well below 100
        h *= 10.0 / np.linalg.eigvalsh(h)[-1]
        b = rng.normal(size=6)
        lam = 1e8
        delta = solve_step(damp(h, lam, "levenberg"), b)
        ref = b / lam
        assert np.linalg.norm(delta - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_singular_system_raises(self):
        h = np.zeros((6, 6))
        h[0, 0] = 1.0
        with pytest.raises(DegenerateSystemError):
            solve_step(h, np.ones(6))

    def test_non_finite_system_raises(self):
        h = np.eye(6)
        for bad in (np.inf, -np.inf, np.nan):
            h_bad = h.copy()
            h_bad[2, 3] = h_bad[3, 2] = bad
            with pytest.raises(DegenerateSystemError, match="non-finite"):
                solve_step(h_bad, np.ones(6))
            b_bad = np.ones(6)
            b_bad[4] = bad
            with pytest.raises(DegenerateSystemError, match="non-finite"):
                solve_step(h, b_bad)

    def test_marquardt_damping_is_scale_invariant(self):
        # Rescaling Jacobian column k by s rescales the solved step's
        # component k by 1/s when damping follows the diagonal.
        rng = np.random.default_rng(12)
        jac = rng.normal(size=(25, 2, 6))
        res = rng.normal(size=(25, 2))
        w = rng.uniform(0.2, 1.0, size=25)
        h, b = build_normal_equations(jac, res, w)
        base = solve_step(damp(h, 0.7, "marquardt"), b)
        for s in (0.1, 10.0):
            scales = np.ones(6)
            scales[2] = s
            h2, b2 = build_normal_equations(jac * scales, res, w)
            scaled = solve_step(damp(h2, 0.7, "marquardt"), b2)
            np.testing.assert_allclose(scaled, base / scales, rtol=1e-9)


def _margin_pinned_scenario():
    """All points sit exactly on the u = 2 validity margin of a steep ramp.

    Any candidate that lowers the energy must move some point left past the
    margin, which drops it below min_valid_points = n; any candidate that
    keeps every point valid cannot lower the sum. Every step is therefore
    rejected and the damping factor grows by exactly 4 until the cap.
    """
    g = 10.0
    v, u = np.mgrid[0:64, 0:64].astype(np.float64)
    ref = FeatureMap(np.zeros((64, 64, 1), dtype=np.float32))
    tgt = FeatureMap((g * u)[:, :, None])
    uv = np.stack([np.full(16, 2.0), np.linspace(6.0, 58.0, 16)], axis=1)
    depths = np.full(16, 2.0)
    return ref, tgt, uv, depths


class TestAlignLevelSchedule:
    def test_forced_failure_quadruples_lambda_until_cap(self):
        ref, tgt, uv, depths = _margin_pinned_scenario()
        config = LMConfig(damping="levenberg", min_valid_points=len(uv))
        pose, stats = align_level(ref, tgt, uv, depths, SE3Pose.identity(), _K64(), config)

        assert stats.termination == "lambda_cap"
        assert stats.accepted == 0
        assert stats.rejected == stats.iterations
        # 0.1 * 4^k first exceeds 1e8 at k = 15.
        assert stats.iterations == 15
        for rec in stats.trace:
            assert not rec.accepted
            assert rec.lambda_after == pytest.approx(rec.lambda_before * 4.0, rel=0)
        np.testing.assert_array_equal(pose.rotation, np.eye(3))
        np.testing.assert_array_equal(pose.translation, np.zeros(3))

    def test_forced_success_halves_lambda_each_iteration(self):
        ref, tgt = _ramp_pair()
        rng = np.random.default_rng(13)
        uv, depths = _grid_points(rng, n=32, lo=12.0, hi=52.0)
        init = se3_exp(np.array([0.02, -0.015, 0.01, 0.0, 0.0, 0.0]))
        config = LMConfig(damping="levenberg")
        pose, stats = align_level(ref, tgt, uv, depths, init, _K64(), config)

        assert stats.termination == "step_norm"
        assert stats.rejected == 0
        assert stats.accepted >= 2
        for rec in stats.trace:
            if rec.accepted:
                assert rec.lambda_after == pytest.approx(rec.lambda_before * 0.5, rel=0)
        # The ramp pair's energy minimum is the identity pose.
        assert np.abs(pose.translation).max() < 1e-6

    def test_already_converged_returns_immediately(self):
        ref, tgt = _ramp_pair()
        rng = np.random.default_rng(14)
        uv, depths = _grid_points(rng, n=20, lo=12.0, hi=52.0)
        config = LMConfig()
        pose, stats = align_level(ref, tgt, uv, depths, SE3Pose.identity(), _K64(), config)

        assert stats.initial_energy < 1e-12
        assert stats.iterations <= 2
        assert stats.termination == "step_norm"
        np.testing.assert_allclose(pose.translation, np.zeros(3), atol=1e-9)
        assert np.abs(pose.rotation - np.eye(3)).max() < 1e-9

    def test_insufficient_overlap_skips_level(self):
        rng = np.random.default_rng(15)
        fmap = FeatureMap(rng.uniform(size=(64, 64, 1)).astype(np.float32))
        uv, depths = _grid_points(rng, n=10)
        pose = SE3Pose(np.eye(3), np.array([100.0, 0.0, 0.0]))
        out_pose, stats = align_level(fmap, fmap, uv, depths, pose, _K64(), LMConfig())
        assert stats.skipped_reason is not None
        assert "insufficient overlap" in stats.skipped_reason
        assert stats.iterations == 0
        assert out_pose is pose


class TestCoarseToFine:
    def test_lambda_resets_per_level(self):
        rng = np.random.default_rng(16)
        img = np.cumsum(np.cumsum(rng.normal(size=(64, 64)), axis=0), axis=1)
        pyr = build_baseline_pyramid(img)
        points = SparsePointSet(
            uv=rng.uniform(16, 48, size=(24, 2)), depths=rng.uniform(2, 4, size=24)
        )
        k = _K64()
        init = se3_exp(np.array([0.003, -0.002, 0.001, 0.0005, -0.0005, 0.001]))
        result = align_coarse_to_fine(pyr, pyr, points, k, LMConfig(), init)
        ran = [s for s in result.levels if s.skipped_reason is None and s.trace]
        assert len(ran) >= 2
        for stats in ran:
            assert stats.trace[0].lambda_before == pytest.approx(0.1)

    def test_skipped_level_passes_pose_through(self):
        rng = np.random.default_rng(17)
        img = np.cumsum(np.cumsum(rng.normal(size=(64, 64)), axis=0), axis=1)
        pyr = build_baseline_pyramid(img)
        # Level-1 coordinates of these points are below the sampling margin,
        # so the coarsest level must be skipped; level 4 still runs.
        points = SparsePointSet(
            uv=rng.uniform(4.0, 7.5, size=(10, 2)), depths=np.full(10, 3.0)
        )
        result = align_coarse_to_fine(
            pyr, pyr, points, _K64(), LMConfig(levels=(1, 4), min_valid_points=8)
        )
        assert result.levels[0].skipped_reason is not None
        assert result.levels[1].skipped_reason is None
        assert result.converged

    def test_all_levels_skipped_reports_failure(self):
        rng = np.random.default_rng(18)
        img = rng.uniform(size=(64, 64))
        pyr = build_baseline_pyramid(img)
        points = SparsePointSet(uv=rng.uniform(16, 48, size=(10, 2)), depths=np.full(10, 3.0))
        pose = SE3Pose(np.eye(3), np.array([200.0, 0.0, 0.0]))
        result = align_coarse_to_fine(pyr, pyr, points, _K64(), LMConfig(), pose)
        assert not result.converged
        assert result.failure_reason is not None
        assert result.total_iterations == 0


class TestConfigAndPoints:
    def test_config_rejects_unknown_damping(self):
        with pytest.raises(AlignmentError):
            LMConfig(damping="cauchy")

    @pytest.mark.parametrize("margin", [0.999, 0.5, 0.0, -3.0, math.nan])
    def test_config_rejects_margin_below_sampling_margin(self, margin):
        with pytest.raises(AlignmentError, match="margin must be at least 1"):
            LMConfig(margin=margin)
        assert LMConfig(margin=1.0).margin == 1.0

    @pytest.mark.parametrize("key, value", [
        ("min_valid_points", 0), ("min_valid_points", -1),
        ("max_iters_per_level", 0), ("step_norm_eps", -1e-9),
        ("min_valid_points", math.nan), ("max_iters_per_level", math.nan),
        ("min_valid_points", math.inf), ("max_iters_per_level", math.inf),
    ])
    def test_config_rejects_out_of_range_settings(self, key, value):
        with pytest.raises(AlignmentError, match=key):
            LMConfig(**{key: value})

    @pytest.mark.parametrize(
        "key", ["lambda_init", "lambda_max", "huber_gamma", "step_norm_eps", "cond_max", "margin"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_config_rejects_non_finite_floats(self, key, value):
        # The config-file parser refuses these too; this is the Python API.
        with pytest.raises(AlignmentError, match=key):
            LMConfig(**{key: value})

    def test_config_from_mapping(self):
        cfg = LMConfig.from_mapping(
            {"lambda_init": "0.5", "damping": "levenberg", "levels": "3 4"}
        )
        assert cfg.lambda_init == 0.5
        assert cfg.levels == (3, 4)
        with pytest.raises(AlignmentError):
            LMConfig.from_mapping({"bogus": "1"})

    def test_point_text_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        pts = SparsePointSet(
            uv=rng.uniform(0, 64, size=(12, 2)), depths=rng.uniform(1, 9, size=12)
        )
        path = tmp_path / "points.txt"
        save_points_text(str(path), pts)
        back = load_points_text(str(path))
        assert np.array_equal(back.uv, pts.uv)
        assert np.array_equal(back.depths, pts.depths)

    def test_point_file_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0\n")
        with pytest.raises(PointFileError):
            load_points_text(str(path))

    def test_point_set_rejects_nonpositive_depth(self):
        with pytest.raises(AlignmentError):
            SparsePointSet(uv=np.zeros((2, 2)), depths=np.array([1.0, 0.0]))

    def test_point_set_rejects_non_finite_values(self, tmp_path):
        for uv, depths in (
            ([[1.0, 2.0], [3.0, np.nan]], [1.0, 2.0]),
            ([[1.0, 2.0], [3.0, 4.0]], [np.nan, 2.0]),
            ([[1.0, np.inf], [3.0, 4.0]], [1.0, 2.0]),
            ([[1.0, 2.0], [3.0, 4.0]], [1.0, np.inf]),
        ):
            with pytest.raises(AlignmentError):
                SparsePointSet(uv=np.array(uv), depths=np.array(depths))
        path = tmp_path / "nan.txt"
        path.write_text("10.0 12.0 2.0\n11.0 13.0 nan\n")
        with pytest.raises(AlignmentError, match="finite"):
            load_points_text(str(path))
