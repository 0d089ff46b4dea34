"""Correlation-driven coarse pose seeding.

The solver needs a starting pose within a few pixels of the truth at the
coarsest pyramid level. This module estimates one without any learned
machinery: an all-pairs feature correlation at the coarsest level gives a
dominant 2-D flow, the flow lifts to a translation guess, and a small grid
search over yaw/pitch and axis translations picks the candidate with the
lowest coarse-level alignment energy. The identity pose is the grid's
first row and wins ties, so the seed can never be worse than not seeding
at all. One scorer, ``_grid_energies``, scores every candidate with the
Huber gamma, minimum valid-point count and warp margin of the solver's
``LMConfig``, so the seed minimizes the energy the solver then minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configfile import dataclass_from_mapping
from .feature_maps import FeatureMap, FeaturePyramid
from .geometry import CameraIntrinsics, SE3Pose
from .lm_align import LMConfig, SparsePointSet, _huber, _level_inputs, _residuals_batched

CORRELATION_BUDGET = 4096  # max pixels per map in the all-pairs product
# Candidate rows per residual-kernel call. A block's (rows, points, 4, D)
# float64 corner stack is about 2 MB at 64 points and D = 2, against about
# 41 MB for the whole grid at once, which is slower.
_GRID_BLOCK = 512


class InitError(Exception):
    pass


# ---------------------------------------------------------------------------
# Correlation volume.
# ---------------------------------------------------------------------------


def _normalize_rows(flat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(flat, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    return flat / safe[:, None]


def correlation_map(ref: FeatureMap, tgt: FeatureMap) -> np.ndarray:
    """Slab-normalized similarity of every reference pixel to every target
    pixel, indexed (v, u, v2, u2).

    Feature vectors are L2-normalized per pixel, so the raw product is a
    cosine similarity; each reference pixel's (v2, u2) slab is then scaled
    to unit L2 norm. Zero vectors (flat image regions) normalize to zero
    instead of NaN, so their slabs are zero and cannot poison the volume.
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
    return _normalize_rows(a @ b.T).reshape(ref.height, ref.width, tgt.height, tgt.width)


def median_correlation_flow(volume: np.ndarray) -> tuple[float, float]:
    """Median (du, dv) of the per-pixel correlation argmax displacements.

    Pixels whose whole slab is (numerically) zero carry no signal and are
    skipped; with no signal anywhere the flow is (0, 0).
    """
    h, w, h2, w2 = volume.shape
    flat = volume.reshape(h, w, -1)
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

    def __post_init__(self):
        if self.t_steps < 1 or self.t_steps % 2 == 0:
            raise InitError("t_steps must be odd so the seed itself is a candidate")
        if self.yaw_step_deg <= 0 or self.pitch_step_deg <= 0:
            raise InitError("angle steps must be positive")
        for key in ("yaw_range_deg", "pitch_range_deg", "t_range"):
            if getattr(self, key) < 0:
                raise InitError(f"{key} must be non-negative")

    @classmethod
    def from_mapping(cls, mapping) -> "InitConfig":
        return dataclass_from_mapping(cls, mapping, InitError, "init")


def candidate_energy(
    ref_l1: FeatureMap,
    tgt_l1: FeatureMap,
    points: SparsePointSet,
    intrinsics: CameraIntrinsics,
    pose: SE3Pose,
    lm_config: LMConfig | None = None,
) -> float:
    """The seed's coarse-level energy of one pose: ``_grid_energies``'s
    one-row call, so it equals that pose's row in the grid bit for bit."""
    return float(_grid_energies(
        ref_l1, tgt_l1, points.at_level(1), points.depths,
        pose.rotation[None], pose.translation[None], intrinsics.at_level(1),
        lm_config or LMConfig(),
    )[0])


def _grid_energies(
    ref_l1: FeatureMap,
    tgt_l1: FeatureMap,
    uv1: np.ndarray,
    depths: np.ndarray,
    rotations: np.ndarray,
    translations: np.ndarray,
    k1: CameraIntrinsics,
    lm_config: LMConfig,
) -> np.ndarray:
    """Mean per-valid-point Huber energy of (m, 3, 3) + (m, 3) poses, one
    per row, at the coarsest level.

    Every row goes through the solver's residual kernel with the solver's
    Huber gamma and warp margin. A row is infinite when fewer than
    ``lm_config.min_valid_points`` survive the warp, so a candidate cannot
    win by throwing points away. Rows are summed with their invalid (zero)
    entries in place, so an energy can differ from the serial
    ``compute_residuals(...).energy / n_valid`` in the last bits.

    The level inputs are built once and the kernel runs over blocks of
    ``_GRID_BLOCK`` rows. Each row's energy depends on that row alone, so
    the blocks give the same bits as one call over every row, while peak
    memory scales with block x points instead of candidates x points.
    """
    level = _level_inputs(ref_l1, uv1, depths, k1)
    energies = np.full(rotations.shape[0], np.inf)
    for start in range(0, rotations.shape[0], _GRID_BLOCK):
        rows = slice(start, start + _GRID_BLOCK)
        _, norms, valid, _, _, _ = _residuals_batched(
            level, tgt_l1, rotations[rows], translations[rows], k1, lm_config.margin
        )
        n_valid = valid.sum(axis=1)
        enough = n_valid >= lm_config.min_valid_points
        block = energies[rows]  # a view: writes land in ``energies``
        block[enough] = _huber(norms[enough], lm_config.huber_gamma).sum(axis=1) / n_valid[enough]
    return energies


def corr_pose_init(
    ref_pyramid: FeaturePyramid,
    tgt_pyramid: FeaturePyramid,
    points: SparsePointSet,
    intrinsics: CameraIntrinsics,
    config: InitConfig | None = None,
    lm_config: LMConfig | None = None,
) -> SE3Pose:
    """Coarse pose seed from correlation flow plus a small grid search.

    The median coarse-level correlation flow lifts to a translation guess
    (sideways displacement at the median point depth); yaw/pitch angles
    and per-axis translation offsets around that guess form the candidate
    grid. The identity pose and the grid are scored in one
    ``_grid_energies`` call with ``lm_config``'s energy settings (the
    solver defaults when None), and the lowest energy wins. Identity is
    row 0 and ``argmin`` takes the first of equal minima, so a grid pose
    is returned only when it strictly beats identity, and identity when
    no candidate keeps ``min_valid_points``. Degenerate inputs (too-large
    maps, too few points) fall back to identity rather than raising.
    """
    config = config or InitConfig()
    lm_config = lm_config or LMConfig()
    ref_l1 = ref_pyramid.level(1)
    tgt_l1 = tgt_pyramid.level(1)
    if (
        ref_l1.height * ref_l1.width > CORRELATION_BUDGET
        or tgt_l1.height * tgt_l1.width > CORRELATION_BUDGET
        or len(points) < lm_config.min_valid_points
    ):
        return SE3Pose.identity()
    k1 = intrinsics.at_level(1)

    volume = correlation_map(ref_l1, tgt_l1)
    du, dv = median_correlation_flow(volume)
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

    rotations = np.concatenate([np.eye(3)[None], np.repeat(rot_ang, t_off.shape[0], axis=0)])
    translations = np.concatenate([np.zeros((1, 3)), t_seed + np.tile(t_off, (n_ang, 1))])
    energies = _grid_energies(
        ref_l1, tgt_l1, points.at_level(1), points.depths,
        rotations, translations, k1, lm_config,
    )
    best = int(np.argmin(energies))
    return SE3Pose(rotation=rotations[best], translation=translations[best])
