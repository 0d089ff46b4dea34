"""Rigid-body geometry for direct image alignment.

Conventions used throughout the package:

* A pose ``xi`` maps reference-frame coordinates into target-frame
  coordinates: ``X_tgt = R @ X_ref + t``.
* Twist vectors are ordered ``(v, omega)``: translation first, rotation
  last, both in scene units / radians.
* Pose updates compose on the left: ``boxplus(delta, xi) = exp(delta) * xi``.
* Pixel coordinates are ``(u, v)`` with ``u`` along image columns (x) and
  ``v`` along rows (y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configfile import check_finite, dataclass_from_mapping

# Depth of a camera-frame point must exceed this before projection.
Z_MIN = 1e-6

# Below this rotation magnitude, exp switches to second-order Taylor
# expansions of the Rodrigues coefficients.
SMALL_ANGLE = 1e-8

_ORTHONORMAL_TOL = 1e-9
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


class GeometryError(ValueError):
    """Base class for geometry failures."""


class BehindCameraError(GeometryError):
    """Raised when differentiating the projection at or behind the camera plane."""


class PoseFormatError(ValueError):
    """Raised for malformed or non-rigid pose text records."""


def _skew(w: np.ndarray) -> np.ndarray:
    # Python floats from tolist() build the array faster than NumPy scalars.
    a, b, c = w.tolist()
    return np.array([[0.0, -c, b], [c, 0.0, -a], [-b, a, 0.0]])


@dataclass(frozen=True)
class SE3Pose:
    """Rigid transform with a validated rotation and a translation vector."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        r = np.array(self.rotation, dtype=np.float64)
        t = np.array(self.translation, dtype=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise GeometryError(f"bad pose shapes {r.shape}, {t.shape}")
        # The twelve entries as Python floats: one pass of math.isfinite
        # costs less than np.isfinite on two small arrays.
        (a, b, c), (d, e, f), (g, h, i) = r.tolist()
        if not all(map(math.isfinite, (a, b, c, d, e, f, g, h, i, *t.tolist()))):
            raise GeometryError("pose contains non-finite entries")
        # ndarray.max()'s own reduction, without its dispatch.
        err = np.maximum.reduce(np.abs(r.T @ r - _EYE3), axis=None)
        if err > _ORTHONORMAL_TOL:
            raise GeometryError(f"rotation not orthonormal (|R'R - I| = {err:.3e})")
        # Determinant by cofactors: within 1e-8 of +1 or -1 once R'R = I holds.
        if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) < 0.0:
            raise GeometryError("rotation has negative determinant")
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "SE3Pose":
        return SE3Pose(np.eye(3), np.zeros(3))

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply the transform to one point (3,) or a batch (n, 3)."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def matrix34(self) -> np.ndarray:
        return np.hstack([self.rotation, self.translation[:, None]])


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics plus the image extent they refer to."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        check_finite(self, GeometryError)
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise GeometryError("focal lengths must be positive")
        if self.width < 1 or self.height < 1:
            raise GeometryError("image extent must be positive")

    def scaled(self, factor: float) -> "CameraIntrinsics":
        """Intrinsics for an image resized by ``factor`` (corner-anchored)."""
        return CameraIntrinsics(
            fx=self.fx * factor,
            fy=self.fy * factor,
            cx=self.cx * factor,
            cy=self.cy * factor,
            width=max(1, int(round(self.width * factor))),
            height=max(1, int(round(self.height * factor))),
        )

    def at_level(self, level: int) -> "CameraIntrinsics":
        """Intrinsics for pyramid level 1..4 where level 4 is full resolution."""
        if level not in (1, 2, 3, 4):
            raise GeometryError(f"pyramid level must be 1..4, got {level}")
        return self.scaled(2.0 ** (level - 4))

    @classmethod
    def from_mapping(cls, mapping) -> "CameraIntrinsics":
        """Build from config-file strings; all six fields are required."""
        return dataclass_from_mapping(cls, mapping, GeometryError, "intrinsics")


def _exp_arrays(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation and translation of ``exp(delta)``, not yet checked as a pose.

    Rodrigues formula for the rotation; the translation is ``V(omega) @ v``
    with the standard left Jacobian ``V``. Coefficients switch to their
    second-order Taylor expansions for ``|omega| < 1e-8``.
    """
    d = np.asarray(delta, dtype=np.float64)
    if d.shape != (6,):
        raise GeometryError(f"twist must have shape (6,), got {d.shape}")
    v, w = d[:3], d[3:]
    # np.linalg.norm(w)'s own 1-D formula, without its dispatch. np.sqrt
    # keeps theta a NumPy float, whose theta**3 overflows to inf where a
    # Python float would raise OverflowError.
    theta = np.sqrt(w.dot(w))
    if not math.isfinite(theta):
        raise GeometryError("twist rotation is not finite")
    k = _skew(w)
    k2 = k @ k
    if theta < SMALL_ANGLE:
        # sin(t)/t ~ 1 - t^2/6, (1-cos t)/t^2 ~ 1/2 - t^2/24, ...
        a = 1.0 - theta**2 / 6.0
        b = 0.5 - theta**2 / 24.0
        c = 1.0 / 6.0 - theta**2 / 120.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta**2
        c = (theta - math.sin(theta)) / theta**3
    rot = _EYE3 + a * k + b * k2
    vmat = _EYE3 + b * k + c * k2
    return rot, vmat @ v


def se3_exp(delta: np.ndarray) -> SE3Pose:
    """Exponential map from a twist ``(v, omega)`` to a pose."""
    return SE3Pose(*_exp_arrays(delta))


def boxplus(delta: np.ndarray, pose: SE3Pose) -> SE3Pose:
    """Left-compositional pose update ``exp(delta) * pose``.

    The product of ``se3_exp(delta)``'s rotation and translation with the
    pose's, bit for bit, with the pose checks run once, on the product: a
    non-finite ``exp(delta)`` fails them there.
    """
    rot, trans = _exp_arrays(delta)
    return SE3Pose(rot @ pose.rotation, rot @ pose.translation + trans)


# Points projecting closer than this to the image border are invalid; it
# leaves one interpolation cell plus one safety pixel.
WARP_MARGIN = 2.0


def _unproject(
    pixels: np.ndarray, depths: np.ndarray, intrinsics: CameraIntrinsics
) -> np.ndarray:
    """Reference-frame 3-D points (n, 3) of pixels with known depths."""
    uv = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    d = np.asarray(depths, dtype=np.float64).reshape(-1)
    if uv.shape[0] != d.shape[0]:
        raise GeometryError("pixel and depth counts differ")
    x = d * (uv[:, 0] - intrinsics.cx) / intrinsics.fx
    y = d * (uv[:, 1] - intrinsics.cy) / intrinsics.fy
    return np.stack([x, y, d], axis=1)


def _project_planes(
    usable: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray,
    intrinsics: CameraIntrinsics, margin: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project target-frame coordinate planes, (n,) or (M, n): ``(u, v, valid)``.

    ``usable`` (n,) marks the points that may be valid at all, at least
    those with positive reference depth. A point is valid when it is also
    in front of the target camera and its pixel lies ``margin`` inside the
    image, with ``in_margins``' inclusive bounds. The pixels do not depend
    on ``usable``. Planes keep the arithmetic on long contiguous rows.
    """
    front = z > Z_MIN
    zsafe = np.where(front, z, 1.0)
    valid = usable & front
    # u = fx * x / zsafe + cx, in place; likewise v.
    u = intrinsics.fx * x
    u /= zsafe
    u += intrinsics.cx
    v = intrinsics.fy * y
    v /= zsafe
    v += intrinsics.cy
    valid &= u >= margin
    valid &= u <= intrinsics.width - 1 - margin
    valid &= v >= margin
    valid &= v <= intrinsics.height - 1 - margin
    return u, v, valid


def _warp(
    points: np.ndarray, usable: np.ndarray, pose: SE3Pose,
    intrinsics: CameraIntrinsics, margin: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``warp_points`` of reference-frame points (n, 3) whose ``usable``
    mask is known, with the pixels as two (n,) arrays: ``(u, v, valid,
    transformed)``. Synthesis and the solver warp here, so they agree bit
    for bit."""
    transformed = pose.transform(points)
    u, v, valid = _project_planes(
        usable, transformed[:, 0], transformed[:, 1], transformed[:, 2], intrinsics, margin
    )
    return u, v, valid, transformed


def warp_points(
    pixels: np.ndarray,
    depths: np.ndarray,
    pose: SE3Pose,
    intrinsics: CameraIntrinsics,
    margin: float = WARP_MARGIN,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Warp pixels with known depths through a relative pose, vectorized.

    Returns ``(warped, valid, transformed)`` where ``warped`` is (n, 2),
    ``valid`` is a boolean mask and ``transformed`` holds the target-frame
    3-D points. Entries of ``warped``/``transformed`` for invalid points are
    present but must not be used. Pixels are invalid when their depth is
    non-positive, the transformed point falls at or behind the camera, or
    the projection lies outside the margin-shrunk image.
    """
    points = _unproject(pixels, depths, intrinsics)
    u, v, valid, transformed = _warp(points, points[:, 2] > 0.0, pose, intrinsics, margin)
    return np.stack([u, v], axis=-1), valid, transformed


def pose_twist_jacobian(
    transformed: np.ndarray, intrinsics: CameraIntrinsics
) -> np.ndarray:
    """d(pixel)/d(twist) at delta = 0 for left-composed updates, batched.

    ``transformed`` holds target-frame points Y (n, 3). For a left update
    exp(delta) the point moves as Y + v + omega x Y, so
    d(pixel)/d(delta) = dPi/dY @ [I | -skew(Y)], returned as (n, 2, 6).

    Both factors are zero-filled arrays, dPi/dY (n, 2, 3) and
    [I | -skew(Y)] (n, 3, 6), joined by one matmul. The second is filled
    through a flat (n, 18) view, the identity's three ones in one strided
    write; its entries are the ones a per-entry fill gives, signed zeros
    included (-x, -y and -z negate the same coordinates), so the product
    keeps that matmul's bytes. The translation block stays in the matmul:
    there the identity's zero products turn a -0.0 of dPi/dY into +0.0,
    which a copy of dPi/dY would not.
    """
    pts = np.asarray(transformed, dtype=np.float64).reshape(-1, 3)
    n = pts.shape[0]
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    if (z <= Z_MIN).any():
        raise BehindCameraError("transformed point at or behind the camera")
    fx, fy = intrinsics.fx, intrinsics.fy

    z2 = z**2
    dpi = np.zeros((n, 2, 3))
    dpi[:, 0, 0] = fx / z
    dpi[:, 0, 2] = -fx * x / z2
    dpi[:, 1, 1] = fy / z
    dpi[:, 1, 2] = -fy * y / z2

    # [I | -skew(Y)] with -skew(Y) = [[0, z, -y], [-z, 0, x], [y, -x, 0]];
    # row r of the 3 x 6 factor starts at flat column 6 r.
    neg = -pts
    dpoint = np.zeros((n, 18))
    dpoint[:, 0:15:7] = 1.0
    dpoint[:, 4] = z
    dpoint[:, 5] = neg[:, 1]
    dpoint[:, 9] = neg[:, 2]
    dpoint[:, 11] = x
    dpoint[:, 15] = y
    dpoint[:, 16] = neg[:, 0]
    return dpi @ dpoint.reshape(n, 3, 6)


def translation_error(t_est: np.ndarray, t_gt: np.ndarray) -> float:
    """Euclidean distance between two translation vectors, in scene units."""
    return float(np.linalg.norm(np.asarray(t_est, dtype=np.float64) - np.asarray(t_gt, dtype=np.float64)))


def rotation_error(r_est: np.ndarray, r_gt: np.ndarray) -> float:
    """Geodesic angle between two rotations, in degrees.

    The argument of the arccos is clamped to [-1, 1] so that rounding noise
    on exactly-equal rotations cannot produce NaN.
    """
    r_est = np.asarray(r_est, dtype=np.float64)
    r_gt = np.asarray(r_gt, dtype=np.float64)
    cos_theta = (np.trace(r_est.T @ r_gt) - 1.0) / 2.0
    cos_theta = min(1.0, max(-1.0, cos_theta))
    return math.degrees(math.acos(cos_theta))


def pose_errors(est: SE3Pose, gt: SE3Pose) -> tuple[float, float]:
    """Translation (scene units) and rotation (degrees) error of a pose estimate."""
    return (
        translation_error(est.translation, gt.translation),
        rotation_error(est.rotation, gt.rotation),
    )


# ---------------------------------------------------------------------------
# Pose text format: 12 whitespace-separated decimals, row-major [R | t].
# ---------------------------------------------------------------------------


def format_pose_text(pose: SE3Pose) -> str:
    """Serialize a pose as 12 decimals that round-trip float64 exactly."""
    return " ".join(format(x, ".17g") for x in pose.matrix34().reshape(-1))


def parse_pose_text(text: str) -> SE3Pose:
    """Parse the 12-number pose record, rejecting non-rigid rotations."""
    fields = text.split()
    if len(fields) != 12:
        raise PoseFormatError(f"expected 12 fields, got {len(fields)}")
    try:
        values = np.array([float(f) for f in fields], dtype=np.float64)
    except ValueError as exc:
        raise PoseFormatError(f"non-numeric pose field: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise PoseFormatError("pose record contains non-finite values")
    mat = values.reshape(3, 4)
    r, t = mat[:, :3], mat[:, 3]
    err = np.abs(r.T @ r - np.eye(3)).max()
    if err > 1e-6:
        raise PoseFormatError(f"rotation not orthonormal to 1e-6 (|R'R - I| = {err:.3e})")
    if np.linalg.det(r) < 0.0:
        raise PoseFormatError("rotation is a reflection (negative determinant)")
    if err > _ORTHONORMAL_TOL:
        # Records stored at reduced precision pass the 1e-6 format check but
        # not the pose type's own validation; snap those to the nearest
        # rotation. Full-precision records are kept bit-exact.
        u, _, vt = np.linalg.svd(r)
        r = u @ vt
        if np.linalg.det(r) < 0.0:
            u[:, 2] = -u[:, 2]
            r = u @ vt
    return SE3Pose(r, t)


def save_pose_text(path: str, pose: SE3Pose) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_pose_text(pose) + "\n")


def load_pose_text(path: str) -> SE3Pose:
    with open(path, "r", encoding="ascii") as fh:
        return parse_pose_text(fh.read())
