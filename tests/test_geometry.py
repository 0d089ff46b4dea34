"""Geometry tests: the exp map, warps, error metrics, pose text format.

Derived expectations use scipy's matrix exponential of the 4x4 twist matrix
as an independent oracle for se3_exp, and plain matrix arithmetic for warps.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from featalign import geometry
from featalign.geometry import (
    SMALL_ANGLE,
    CameraIntrinsics,
    GeometryError,
    PoseFormatError,
    SE3Pose,
    _exp_arrays,
    boxplus,
    format_pose_text,
    parse_pose_text,
    pose_twist_jacobian,
    rotation_error,
    se3_exp,
    translation_error,
    warp_points,
)


def _K(fx=100.0, fy=100.0, cx=50.0, cy=50.0, w=101, h=101):
    return CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=w, height=h)


def _warp_one(pixel, depth, pose, k, margin=2.0):
    """One-row warp_points: (target pixel, valid flag, target-frame point)."""
    warped, valid, transformed = warp_points(
        np.asarray(pixel, dtype=np.float64)[None, :], np.array([depth]), pose, k, margin
    )
    return warped[0], bool(valid[0]), transformed[0]


def _pinhole(point, k):
    """Pinhole projection of one camera-frame point (test oracle)."""
    return np.array([k.fx * point[0] / point[2] + k.cx, k.fy * point[1] / point[2] + k.cy])


def _skew(w):
    return np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]], dtype=float)


def _exp_oracle(delta):
    """Independent exponential map: expm of the 4x4 twist matrix."""
    m = np.zeros((4, 4))
    m[:3, :3] = _skew(delta[3:])
    m[:3, 3] = delta[:3]
    full = expm(m)
    return full[:3, :3], full[:3, 3]


class TestSE3Exp:
    def test_zero_twist_is_identity(self):
        pose = se3_exp(np.zeros(6))
        np.testing.assert_allclose(pose.rotation, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(pose.translation, np.zeros(3), atol=1e-15)

    def test_quarter_turn_about_z(self):
        pose = se3_exp(np.array([0, 0, 0, 0, 0, math.pi / 2]))
        # Rz(90deg) maps x->y, y->-x.
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
        np.testing.assert_allclose(pose.rotation, expected, atol=1e-15)
        np.testing.assert_allclose(pose.translation, np.zeros(3), atol=1e-15)

    def test_matches_matrix_exponential_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            delta = rng.uniform(-1.5, 1.5, size=6)
            pose = se3_exp(delta)
            r_ref, t_ref = _exp_oracle(delta)
            np.testing.assert_allclose(pose.rotation, r_ref, atol=1e-12)
            np.testing.assert_allclose(pose.translation, t_ref, atol=1e-12)

    def test_small_angle_branch_is_continuous(self):
        v = np.array([0.3, -0.2, 0.5])
        for scale in (0.999e-8, 1.001e-8):
            w = np.array([1.0, -2.0, 2.0]) / 3.0 * scale
            pose = se3_exp(np.concatenate([v, w]))
            r_ref, t_ref = _exp_oracle(np.concatenate([v, w]))
            np.testing.assert_allclose(pose.rotation, r_ref, atol=1e-14)
            np.testing.assert_allclose(pose.translation, t_ref, atol=1e-14)

    def test_output_satisfies_pose_invariants(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            w = rng.uniform(-1, 1, size=3)
            w = w / np.linalg.norm(w) * rng.uniform(0, 10.0)
            pose = se3_exp(np.concatenate([rng.uniform(-5, 5, size=3), w]))
            err = np.abs(pose.rotation.T @ pose.rotation - np.eye(3)).max()
            assert err < 1e-9
            assert abs(np.linalg.det(pose.rotation) - 1.0) < 1e-9


class TestBoxplus:
    def test_zero_delta_keeps_pose(self):
        pose = se3_exp(np.array([1.0, -2.0, 0.5, 0.2, -0.1, 0.3]))
        updated = boxplus(np.zeros(6), pose)
        np.testing.assert_allclose(updated.rotation, pose.rotation, atol=1e-15)
        np.testing.assert_allclose(updated.translation, pose.translation, atol=1e-15)

    def test_left_composition_order(self):
        # boxplus must be exp(delta) * pose, not pose * exp(delta).
        pose = se3_exp(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]))
        delta = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        updated = boxplus(delta, pose)
        np.testing.assert_allclose(updated.translation, [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(updated.rotation, pose.rotation, atol=1e-15)

    def test_bit_identical_to_exp_then_compose(self):
        rng = np.random.default_rng(11)
        for scale in (1e-12, 1e-9, 1e-3, 0.3, 2.0):
            for _ in range(20):
                delta = scale * rng.uniform(-1, 1, size=6)
                pose = se3_exp(rng.uniform(-2, 2, size=6))
                got = boxplus(delta, pose)
                step = se3_exp(delta)
                rotation = step.rotation @ pose.rotation
                translation = step.rotation @ pose.translation + step.translation
                assert got.rotation.tobytes() == rotation.tobytes()
                assert got.translation.tobytes() == translation.tobytes()

    @pytest.mark.parametrize(
        "delta",
        [
            [0.0, 0.0, 0.0, np.nan, 0.0, 0.0],
            [np.nan, 0.1, 0.1, 0.1, 0.1, 0.1],
            [1.7e308, 1.7e308, 1.7e308, 0.0, 0.0, 0.5],  # V(omega) @ v overflows
            [0.0, 0.0, 0.0, 1e200, 0.0, 0.0],  # |omega| overflows
        ],
    )
    def test_rejects_non_finite_exp(self, delta):
        pose = se3_exp(np.array([0.1, 0.2, 0.3, 0.01, 0.02, 0.03]))
        with np.errstate(all="ignore"):
            with pytest.raises(GeometryError):
                se3_exp(np.array(delta))
            with pytest.raises(GeometryError):
                boxplus(np.array(delta), pose)

    def test_updates_commute_to_first_order(self):
        # The defect of combining two updates in one step shrinks as
        # O(|delta|^2): scaling deltas by 0.1 must shrink it ~100x.
        rng = np.random.default_rng(3)
        pose = se3_exp(rng.uniform(-0.5, 0.5, size=6))
        d1 = rng.uniform(-1, 1, size=6)
        d2 = rng.uniform(-1, 1, size=6)

        def defect(eps):
            a = boxplus(eps * d2, boxplus(eps * d1, pose))
            b = boxplus(eps * (d1 + d2), pose)
            return np.linalg.norm(a.matrix34() - b.matrix34())

        d_coarse = defect(1e-2)
        d_fine = defect(1e-3)
        assert d_fine < 1e-4
        assert d_coarse / d_fine > 30.0


def _exp_arrays_oracle(delta):
    """``_exp_arrays`` as first written: theta from ``np.linalg.norm`` and
    fresh ``np.eye(3)`` identities. The map's own coefficients and
    products are shared, so any difference is the theta or the identity."""
    d = np.asarray(delta, dtype=np.float64)
    v, w = d[:3], d[3:]
    theta = np.linalg.norm(w)
    if not math.isfinite(theta):
        raise GeometryError("twist rotation is not finite")
    k = geometry._skew(w)
    k2 = k @ k
    if theta < SMALL_ANGLE:
        a = 1.0 - theta**2 / 6.0
        b = 0.5 - theta**2 / 24.0
        c = 1.0 / 6.0 - theta**2 / 120.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta**2
        c = (theta - math.sin(theta)) / theta**3
    return np.eye(3) + a * k + b * k2, (np.eye(3) + b * k + c * k2) @ v


class TestExpMapTheta:
    """theta is ``math.sqrt(w.dot(w))``, ``np.linalg.norm``'s own 1-D formula.
    ``TestBoxplus.test_bit_identical_to_exp_then_compose`` cannot see a
    change of theta: both of its sides go through ``_exp_arrays``."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        # |omega| from a tenth to ten times SMALL_ANGLE, across the branch switch.
        log_ratio=st.floats(-1.0, 1.0),
        far=st.sampled_from([None, 1e-300, 1e-20, 1e-3, 1.0, 3.0, 1e3, 1e150]),
        strided=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_linalg_norm_formula(self, log_ratio, far, strided, seed):
        rng = np.random.default_rng(seed)
        axis = rng.normal(size=3)
        angle = SMALL_ANGLE * 10.0**log_ratio if far is None else far
        delta = np.concatenate([rng.normal(size=3), angle * axis / np.linalg.norm(axis)])
        if strided:
            buffer = np.zeros(12)
            buffer[::2] = delta
            delta = buffer[::2]
        with np.errstate(over="ignore"):  # theta**3 overflows to inf at 1e150
            rot, trans = _exp_arrays(delta)
            want_rot, want_trans = _exp_arrays_oracle(delta)
        assert rot.tobytes() == want_rot.tobytes()
        assert trans.tobytes() == want_trans.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        where=st.integers(0, 5),
        bad=st.sampled_from([np.nan, np.inf, -np.inf, 1.5e154, -1e200, 1.7e308]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_non_finite_and_overflowing_twists_raise(self, where, bad, seed):
        delta = np.random.default_rng(seed).uniform(-1.0, 1.0, size=6)
        delta[where] = bad
        if math.isfinite(bad) and where < 3:
            # A huge finite translation is a pose; |omega| must overflow.
            delta[3 + where] = bad
        pose = se3_exp(np.array([0.1, 0.2, 0.3, 0.01, 0.02, 0.03]))
        with np.errstate(all="ignore"):
            with pytest.raises(GeometryError):
                se3_exp(delta)
            with pytest.raises(GeometryError):
                boxplus(delta, pose)
            with pytest.raises(GeometryError):
                step = _exp_arrays_oracle(delta)
                SE3Pose(*step)


class TestProjection:
    def test_project_known_point(self):
        # The principal point at depth 2 lifts to (0, 0, 2); the translation
        # moves it to (0.1, -0.2, 2), which projects to
        # 100 * 0.1 / 2 + 50 = 55, 100 * -0.2 / 2 + 50 = 40.
        pose = SE3Pose(np.eye(3), np.array([0.1, -0.2, 0.0]))
        pixel, valid, point = _warp_one([50.0, 50.0], 2.0, pose, _K())
        assert valid
        np.testing.assert_allclose(point, [0.1, -0.2, 2.0], atol=1e-12)
        np.testing.assert_allclose(pixel, [55.0, 40.0], atol=1e-12)

    def test_unproject_known_pixel(self):
        _, _, point = _warp_one([55.0, 40.0], 2.0, SE3Pose.identity(), _K())
        np.testing.assert_allclose(point, [0.1, -0.2, 2.0], atol=1e-12)

    def test_round_trip(self):
        # margin -1 keeps every pixel of [0, 100] valid
        rng = np.random.default_rng(5)
        k = _K()
        for _ in range(50):
            pixel = rng.uniform(0, 100, size=2)
            depth = rng.uniform(0.1, 20.0)
            back, valid, _ = _warp_one(pixel, depth, SE3Pose.identity(), k, margin=-1.0)
            assert valid
            np.testing.assert_allclose(back, pixel, atol=1e-9)

    def test_project_rejects_point_behind_camera(self):
        # The principal point at depth 2 moved to z = 1e-7 and z = -1.
        for tz in (-2.0 + 1e-7, -3.0):
            pose = SE3Pose(np.eye(3), np.array([0.0, 0.0, tz]))
            _, valid, _ = _warp_one([50.0, 50.0], 2.0, pose, _K())
            assert not valid

    def test_unproject_rejects_bad_depth(self):
        for depth in (0.0, -2.0):
            _, valid, _ = _warp_one([50.0, 50.0], depth, SE3Pose.identity(), _K())
            assert not valid


class TestWarpPoint:
    def test_identity_pose_keeps_pixel(self):
        k = _K()
        for depth in (0.5, 2.0, 9.0):
            warped, valid, _ = _warp_one(np.array([37.0, 62.0]), depth, SE3Pose.identity(), k)
            assert valid
            np.testing.assert_allclose(warped, [37.0, 62.0], atol=1e-12)

    def test_pure_translation_case(self):
        # (55, 40) at depth 2 lifts to X = (0.1, -0.2, 2); shifting x by 0.1
        # gives (0.2, -0.2, 2) -> (100*0.2/2+50, 40) = (60, 40).
        pose = SE3Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))
        warped, valid, _ = _warp_one(np.array([55.0, 40.0]), 2.0, pose, _K())
        assert valid
        np.testing.assert_allclose(warped, [60.0, 40.0], atol=1e-12)

    def test_rotation_case_matches_matrix_arithmetic(self):
        rng = np.random.default_rng(17)
        k = _K()
        pose = se3_exp(np.array([0.05, -0.02, 0.1, 0.03, -0.04, 0.05]))
        for _ in range(25):
            pixel = rng.uniform(20, 80, size=2)
            depth = rng.uniform(1.0, 8.0)
            x = np.array(
                [
                    depth * (pixel[0] - k.cx) / k.fx,
                    depth * (pixel[1] - k.cy) / k.fy,
                    depth,
                ]
            )
            y = pose.rotation @ x + pose.translation
            expected = np.array([k.fx * y[0] / y[2] + k.cx, k.fy * y[1] / y[2] + k.cy])
            warped, valid, _ = _warp_one(pixel, depth, pose, k)
            assert valid
            np.testing.assert_allclose(warped, expected, atol=1e-10)

    def test_out_of_margin_is_invalid(self):
        # A pixel right at the border projects inside [2, w-3] only if it
        # stays 2px away from the edge; identity warp of pixel u=1 fails.
        warped, valid, _ = _warp_one(np.array([1.0, 50.0]), 2.0, SE3Pose.identity(), _K())
        assert not valid

    def test_behind_camera_is_invalid_not_raising(self):
        pose = SE3Pose(np.eye(3), np.array([0.0, 0.0, -5.0]))
        _, valid, _ = _warp_one(np.array([50.0, 50.0]), 2.0, pose, _K())
        assert not valid

    def test_batch_matches_single(self):
        rng = np.random.default_rng(23)
        k = _K()
        pose = se3_exp(np.array([0.1, 0.0, -0.05, 0.02, 0.01, -0.03]))
        pixels = rng.uniform(5, 95, size=(40, 2))
        depths = rng.uniform(0.5, 10.0, size=40)
        warped, valid, _ = warp_points(pixels, depths, pose, k)
        for i in range(40):
            w_single, v_single, _ = _warp_one(pixels[i], depths[i], pose, k)
            assert v_single == valid[i]
            if valid[i]:
                np.testing.assert_allclose(warped[i], w_single, atol=0)


class TestPoseTwistJacobian:
    def test_principal_point_hand_values(self):
        # Y = (0, 0, 2), fx = fy = 100: dPi/dY = [[50, 0, 0], [0, 50, 0]],
        # -skew(Y) = [[0, 2, 0], [-2, 0, 0], [0, 0, 0]], so
        # J = [[50, 0, 0, 0, 100, 0], [0, 50, 0, -100, 0, 0]].
        j = pose_twist_jacobian(np.array([[0.0, 0.0, 2.0]]), _K())[0]
        expected = np.array(
            [
                [50.0, 0.0, 0.0, 0.0, 100.0, 0.0],
                [0.0, 50.0, 0.0, -100.0, 0.0, 0.0],
            ]
        )
        np.testing.assert_allclose(j, expected, atol=1e-12)

    def test_z_rotation_column_off_center(self):
        # Y = (x, y, z): the z-rotation column is dPi/dY @ (-y, x, 0)
        # = (-fx*y/z, fy*x/z).
        k = _K()
        y = np.array([[0.4, -0.6, 2.0]])
        j = pose_twist_jacobian(y, k)[0]
        np.testing.assert_allclose(j[:, 5], [100 * 0.6 / 2.0, 100 * 0.4 / 2.0], atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        k = _K()
        for _ in range(20):
            pose = se3_exp(rng.uniform(-0.2, 0.2, size=6))
            x = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1.5, 6.0)])
            y = pose.transform(x)
            j = pose_twist_jacobian(y[None, :], k)[0]
            step = 1e-6
            fd = np.zeros((2, 6))
            for col in range(6):
                d = np.zeros(6)
                d[col] = step
                hi = _pinhole(boxplus(d, pose).transform(x), k)
                lo = _pinhole(boxplus(-d, pose).transform(x), k)
                fd[:, col] = (hi - lo) / (2 * step)
            np.testing.assert_allclose(j, fd, rtol=1e-4, atol=1e-4)

    def test_projection_jacobian_hand_case(self):
        # The translation columns are dPi/dY.
        # x=0.1, y=-0.2, z=2: [[50, 0, -100*0.1/4], [0, 50, -100*-0.2/4]]
        j = pose_twist_jacobian(np.array([[0.1, -0.2, 2.0]]), _K())[0, :, :3]
        expected = np.array([[50.0, 0.0, -2.5], [0.0, 50.0, 5.0]])
        np.testing.assert_allclose(j, expected, atol=1e-12)


class TestErrorMetrics:
    def test_translation_error(self):
        # |(1,2,3) - (1,2,5)| = 2
        assert translation_error([1.0, 2.0, 3.0], [1.0, 2.0, 5.0]) == pytest.approx(2.0)

    def test_rotation_error_identity(self):
        assert rotation_error(np.eye(3), np.eye(3)) == 0.0

    def test_rotation_error_known_angles(self):
        for angle_deg in (1.0, 30.0, 179.0):
            r = se3_exp(np.array([0, 0, 0, math.radians(angle_deg), 0, 0])).rotation
            assert abs(rotation_error(r, np.eye(3)) - angle_deg) < 1e-9

    def test_rotation_error_clamps_rounding(self):
        # Two representations of the same rotation whose trace rounds just
        # above 3.0 must give 0, not NaN.
        r = se3_exp(np.array([0, 0, 0, 1e-9, 1e-9, 1e-9])).rotation
        err = rotation_error(r, r)
        assert err == 0.0


class TestSE3PoseValidation:
    def test_rejects_non_orthonormal(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-6
        with pytest.raises(GeometryError):
            SE3Pose(bad, np.zeros(3))

    def test_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(GeometryError):
            SE3Pose(refl, np.zeros(3))

    def test_rejects_negated_rotation(self):
        rot = se3_exp(np.array([0.0, 0.0, 0.0, 0.4, -1.1, 2.0])).rotation
        with pytest.raises(GeometryError, match="determinant"):
            SE3Pose(-rot, np.zeros(3))

    @pytest.mark.parametrize("where", ["rotation", "translation"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, where, value):
        r, t = np.eye(3), np.zeros(3)
        (r if where == "rotation" else t)[0] = value
        with pytest.raises(GeometryError, match="non-finite"):
            SE3Pose(r, t)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.integers(0, 11),
                st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e-300, 0.5]),
            ),
            max_size=3,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_refuses_exactly_the_non_finite_entries(self, entries, seed):
        # The finiteness check reads Python floats; it must refuse exactly
        # what np.isfinite over both arrays refuses, with the same message.
        rng = np.random.default_rng(seed)
        r = se3_exp(rng.uniform(-1.0, 1.0, size=6)).rotation.copy()
        t = rng.uniform(-5.0, 5.0, size=3)
        for index, value in entries:
            (r.reshape(-1) if index < 9 else t)[index % 9 if index < 9 else index - 9] = value
        non_finite = not (np.isfinite(r).all() and np.isfinite(t).all())
        with np.errstate(all="ignore"):
            try:
                SE3Pose(r, t)
                refused = None
            except GeometryError as exc:
                refused = str(exc)
        assert (refused == "pose contains non-finite entries") == non_finite

    def test_arrays_are_read_only(self):
        pose = SE3Pose.identity()
        with pytest.raises(ValueError):
            pose.rotation[0, 0] = 2.0

class TestIntrinsics:
    def test_level_scaling(self):
        k = CameraIntrinsics(fx=96.0, fy=80.0, cx=48.0, cy=40.0, width=96, height=80)
        for level, factor in ((1, 1 / 8), (2, 1 / 4), (3, 1 / 2), (4, 1.0)):
            kl = k.at_level(level)
            assert kl.fx == pytest.approx(96.0 * factor)
            assert kl.fy == pytest.approx(80.0 * factor)
            assert kl.cx == pytest.approx(48.0 * factor)
            assert kl.width == int(96 * factor)

    def test_rejects_bad_values(self):
        with pytest.raises(GeometryError):
            CameraIntrinsics(fx=-1.0, fy=1.0, cx=0.0, cy=0.0, width=8, height=8)
        with pytest.raises(GeometryError):
            CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=0, height=8)


class TestPoseTextFormat:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            pose = se3_exp(rng.uniform(-2, 2, size=6))
            text = format_pose_text(pose)
            assert len(text.split()) == 12
            back = parse_pose_text(text)
            assert np.array_equal(back.rotation, pose.rotation)
            assert np.array_equal(back.translation, pose.translation)

    def test_rejects_wrong_field_count(self):
        with pytest.raises(PoseFormatError):
            parse_pose_text("1 0 0 0 1 0 0 0 1 0 0")

    def test_rejects_non_numeric(self):
        with pytest.raises(PoseFormatError):
            parse_pose_text("1 0 0 0 1 0 0 0 x 0 0 0")

    def test_rejects_non_orthonormal(self):
        # Rotation part perturbed by 1e-4 is far outside the 1e-6 gate.
        with pytest.raises(PoseFormatError):
            parse_pose_text("1.0001 0 0 0 0 1 0 0 0 1 0 0")

    def test_snaps_low_precision_records(self):
        pose = se3_exp(np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]))
        rough = " ".join(format(x, ".8g") for x in pose.matrix34().reshape(-1))
        back = parse_pose_text(rough)
        assert rotation_error(back.rotation, pose.rotation) < 1e-5
