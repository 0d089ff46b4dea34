"""Correlation-driven coarse pose seeding.

The solver needs a starting pose within a few pixels of the truth at the
coarsest pyramid level. This module estimates one without any learned
machinery: an all-pairs feature correlation at the coarsest level gives a
dominant 2-D flow, the flow lifts to a translation guess, and a small grid
search over yaw/pitch and axis translations picks the candidate with the
lowest coarse-level alignment energy. The identity pose always competes,
so the seed can never be worse than not seeding at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configfile import dataclass_from_mapping
from .feature_maps import FeatureMap, FeaturePyramid
from .geometry import CameraIntrinsics, SE3Pose
from .lm_align import SparsePointSet, _huber, _level_inputs, _residuals_batched, compute_residuals

CORRELATION_BUDGET = 4096  # max pixels per map in the all-pairs product


class InitError(Exception):
    pass


# ---------------------------------------------------------------------------
# Correlation volume.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationMap:
    """All-pairs feature similarity, indexed (v, u, v2, u2).

    With unit feature vectors every raw entry is a cosine similarity in
    [-1, 1]. When ``slab_normalized`` each (v, u) slab has unit L2 norm
    (or is identically zero where the source vector was zero).
    """

    values: np.ndarray
    slab_normalized: bool


def _normalize_rows(flat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(flat, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    return flat / safe[:, None]


def correlation_map(
    ref: FeatureMap, tgt: FeatureMap, normalize_slabs: bool = True
) -> CorrelationMap:
    """Cosine similarity of every reference pixel against every target pixel.

    Feature vectors are L2-normalized per pixel first; zero vectors (flat
    image regions) normalize to zero instead of NaN so they cannot poison
    the volume. The optional second stage rescales each source pixel's
    similarity slab to unit norm.
    """
    if ref.channels != tgt.channels:
        raise InitError(
            f"channel mismatch: {ref.channels} vs {tgt.channels}"
        )
    for m in (ref, tgt):
        if m.height * m.width > CORRELATION_BUDGET:
            raise InitError(
                f"map {m.width}x{m.height} exceeds the correlation budget "
                f"of {CORRELATION_BUDGET} pixels"
            )
    a = _normalize_rows(ref.values.reshape(-1, ref.channels).astype(np.float64))
    b = _normalize_rows(tgt.values.reshape(-1, tgt.channels).astype(np.float64))
    volume = (a @ b.T).reshape(ref.height, ref.width, tgt.height, tgt.width)
    if normalize_slabs:
        flat = volume.reshape(ref.height, ref.width, -1)
        norms = np.linalg.norm(flat, axis=2)
        flat = flat / np.where(norms > 0.0, norms, 1.0)[:, :, None]
        volume = flat.reshape(volume.shape)
    return CorrelationMap(values=volume, slab_normalized=normalize_slabs)


def median_correlation_flow(cmap: CorrelationMap) -> tuple[float, float]:
    """Median (du, dv) of the per-pixel correlation argmax displacements.

    Pixels whose whole slab is (numerically) zero carry no signal and are
    skipped; with no signal anywhere the flow is (0, 0).
    """
    h, w, h2, w2 = cmap.values.shape
    flat = cmap.values.reshape(h, w, -1)
    best = flat.argmax(axis=2)
    peak = flat.max(axis=2)
    v2, u2 = np.divmod(best, w2)
    vv, uu = np.mgrid[0:h, 0:w]
    keep = peak > 1e-12
    if not keep.any():
        return 0.0, 0.0
    du = float(np.median((u2 - uu)[keep]))
    dv = float(np.median((v2 - vv)[keep]))
    return du, dv


# ---------------------------------------------------------------------------
# Grid-search pose seeding.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitConfig:
    yaw_range_deg: float = 6.0
    yaw_step_deg: float = 1.5
    pitch_range_deg: float = 6.0
    pitch_step_deg: float = 1.5
    t_range: float = 0.5
    t_steps: int = 5
    huber_gamma: float = 0.3
    min_valid_points: int = 8

    def __post_init__(self):
        if self.t_steps < 1 or self.t_steps % 2 == 0:
            raise InitError("t_steps must be odd so the seed itself is a candidate")
        if self.yaw_step_deg <= 0 or self.pitch_step_deg <= 0:
            raise InitError("angle steps must be positive")
        if self.huber_gamma <= 0:
            raise InitError("huber_gamma must be positive")

    @classmethod
    def from_mapping(cls, mapping) -> "InitConfig":
        return dataclass_from_mapping(cls, mapping, InitError, "init")


def candidate_energy(
    ref_l1: FeatureMap,
    tgt_l1: FeatureMap,
    points: SparsePointSet,
    intrinsics: CameraIntrinsics,
    pose: SE3Pose,
    huber_gamma: float = 0.3,
    min_valid_points: int = 8,
) -> float:
    """Mean per-valid-point Huber energy of a pose at the coarsest level.

    Infinite when fewer than ``min_valid_points`` survive the warp, so a
    candidate cannot win by throwing points away. This is the quantity the
    grid search minimizes; it is public so tests (and callers comparing
    against identity) score candidates through the exact same expression.
    """
    k1 = intrinsics.at_level(1)
    ev = compute_residuals(
        ref_l1, tgt_l1, points.at_level(1), points.depths, pose, k1, huber_gamma
    )
    if ev.n_valid < min_valid_points:
        return float("inf")
    return ev.energy / ev.n_valid


def _grid_energies(
    ref_l1: FeatureMap,
    tgt_l1: FeatureMap,
    uv1: np.ndarray,
    depths: np.ndarray,
    rotations: np.ndarray,
    translations: np.ndarray,
    k1: CameraIntrinsics,
    huber_gamma: float,
    min_valid_points: int,
) -> np.ndarray:
    """candidate_energy over (m, 3, 3) + (m, 3) candidates, one per row.

    Scores every candidate with the residual kernel behind
    compute_residuals, then takes the Huber mean over each row's valid
    points. Rows are summed with their invalid (zero) entries in place, so
    an energy can differ from candidate_energy's in the last bits.
    """
    _, norms, valid, _, _, _ = _residuals_batched(
        _level_inputs(ref_l1, uv1, depths, k1), tgt_l1, rotations, translations, k1
    )
    n_valid = valid.sum(axis=1)
    energies = np.full(valid.shape[0], np.inf)
    enough = n_valid >= min_valid_points
    energies[enough] = _huber(norms, huber_gamma).sum(axis=1)[enough] / n_valid[enough]
    return energies


def corr_pose_init(
    ref_pyramid: FeaturePyramid,
    tgt_pyramid: FeaturePyramid,
    points: SparsePointSet,
    intrinsics: CameraIntrinsics,
    config: InitConfig | None = None,
) -> SE3Pose:
    """Coarse pose seed from correlation flow plus a small grid search.

    The median coarse-level correlation flow lifts to a translation guess
    (sideways displacement at the median point depth); yaw/pitch angles
    and per-axis translation offsets around that guess form the candidate
    grid. Candidates are scored with candidate_energy and the best one is
    returned only if it strictly beats the identity pose; degenerate
    inputs (too-large maps, too few points) fall back to identity rather
    than raising.
    """
    config = config or InitConfig()
    identity = SE3Pose.identity()
    ref_l1 = ref_pyramid.level(1)
    tgt_l1 = tgt_pyramid.level(1)
    if (
        ref_l1.height * ref_l1.width > CORRELATION_BUDGET
        or tgt_l1.height * tgt_l1.width > CORRELATION_BUDGET
        or len(points) < config.min_valid_points
    ):
        return identity
    k1 = intrinsics.at_level(1)

    cmap = correlation_map(ref_l1, tgt_l1)
    du, dv = median_correlation_flow(cmap)
    z_med = float(np.median(points.depths))
    t_seed = np.array([z_med * du / k1.fx, z_med * dv / k1.fy, 0.0])

    def degree_grid(rng_deg, step_deg):
        n_side = int(round(rng_deg / step_deg))
        return np.radians(step_deg) * np.arange(-n_side, n_side + 1)

    yaws = degree_grid(config.yaw_range_deg, config.yaw_step_deg)
    pitches = degree_grid(config.pitch_range_deg, config.pitch_step_deg)
    offsets = np.linspace(-config.t_range, config.t_range, config.t_steps)

    yy, pp = np.meshgrid(yaws, pitches, indexing="ij")
    yy, pp = yy.ravel(), pp.ravel()
    cy, sy = np.cos(yy), np.sin(yy)
    cp, sp = np.cos(pp), np.sin(pp)
    n_ang = yy.size
    ry = np.zeros((n_ang, 3, 3))
    ry[:, 0, 0], ry[:, 0, 2] = cy, sy
    ry[:, 1, 1] = 1.0
    ry[:, 2, 0], ry[:, 2, 2] = -sy, cy
    rx = np.zeros((n_ang, 3, 3))
    rx[:, 0, 0] = 1.0
    rx[:, 1, 1], rx[:, 1, 2] = cp, -sp
    rx[:, 2, 1], rx[:, 2, 2] = sp, cp
    rot_ang = np.einsum("mij,mjk->mik", ry, rx)

    ox, oy, oz = np.meshgrid(offsets, offsets, offsets, indexing="ij")
    t_off = np.stack([ox.ravel(), oy.ravel(), oz.ravel()], axis=1)

    m = n_ang * t_off.shape[0]
    rotations = np.repeat(rot_ang, t_off.shape[0], axis=0)
    translations = t_seed[None, :] + np.tile(t_off, (n_ang, 1))
    assert rotations.shape[0] == m

    energies = _grid_energies(
        ref_l1, tgt_l1, points.at_level(1), points.depths,
        rotations, translations, k1,
        config.huber_gamma, config.min_valid_points,
    )
    best = int(np.argmin(energies))
    if not np.isfinite(energies[best]):
        return identity
    candidate = SE3Pose(rotation=rotations[best], translation=translations[best])

    # the final comparison runs through the public scorer so the fallback
    # contract holds exactly, not merely up to vectorization rounding
    e_candidate = candidate_energy(
        ref_l1, tgt_l1, points, intrinsics, candidate,
        config.huber_gamma, config.min_valid_points,
    )
    e_identity = candidate_energy(
        ref_l1, tgt_l1, points, intrinsics, identity,
        config.huber_gamma, config.min_valid_points,
    )
    if e_candidate < e_identity:
        return candidate
    return identity
