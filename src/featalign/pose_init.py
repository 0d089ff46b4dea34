"""Correlation-driven coarse pose seeding.

The solver needs a starting pose within a few pixels of the truth at the
coarsest pyramid level. This module estimates one without any learned
machinery: an all-pairs feature correlation at the coarsest level gives a
dominant 2-D flow, the flow lifts to a translation guess, and a small grid
search over yaw/pitch and axis translations picks the candidate with the
lowest coarse-level alignment energy. The identity pose is the grid's
first row and wins ties, so the seed can never be worse than not seeding
at all. One scorer, ``_grid_energies``, defines a candidate's energy with
the Huber gamma, minimum valid-point count and warp margin of the solver's
``LMConfig``, so the seed minimizes the energy the solver then minimizes.
``_best_row`` finds the grid's lowest-energy row bit for bit while scoring
only the few rows that lower bounds cannot rule out; a bound projects and
samples only a subset of the points and divides by an upper bound of the
row's valid-point count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configfile import check_finite, dataclass_from_mapping
from .feature_maps import FeatureMap, FeaturePyramid
from .geometry import CameraIntrinsics, SE3Pose, _project_planes
from .lm_align import (
    LMConfig,
    SparsePointSet,
    _check_pair,
    _huber,
    _level_inputs,
    _LevelInputs,
    _valid_norms,
)

CORRELATION_BUDGET = 4096  # max pixels per map in the all-pairs product
# Candidate rows per ``_valid_norms`` call when every point is sampled; a
# bound round at stride s runs s times as many rows over 1/s of the points.
# The kernel's temporaries are flat float64 arrays over a block's valid
# entries, up to 16,384 of them at 64 points. Measured in-process on the
# 120 reloc_corr pairs of seed 7, 256 rows take about 540 minor page faults
# per pair against 1,220 at 512 rows, while 128 and 64 rows lose more to
# per-block overhead than they save (seed ms per pair 9.7, 9.0, 9.5 and
# 11.8 at 512, 256, 128 and 64 rows; 256 also wins at seed 11).
_GRID_BLOCK = 256
# The seed grid is scored in full only where it can still win (``_best_row``):
# every row first gets a lower bound from every 8th point, the rows that
# survive a tighter one from every 2nd point. After each round the
# ``_FIRST_EXACT`` most promising rows are scored exactly to set the cut.
_BOUND_STRIDES = (8, 2)
_FIRST_EXACT = 32
# A bound sums a subset of the non-negative terms of its row's energy in
# another order; this relative slack covers that rounding many times over.
_BOUND_SLACK = 1e-9
# Every row holds a translation, a rotation index and a few per-row
# scores, about 100 bytes; a million rows keep that near 100 MB (the
# default grid has 10,126).
MAX_GRID_ROWS = 10**6


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
        check_finite(self, InitError)
        if self.t_steps < 1 or self.t_steps % 2 == 0:
            raise InitError("t_steps must be odd so the seed itself is a candidate")
        if self.yaw_step_deg <= 0 or self.pitch_step_deg <= 0:
            raise InitError("angle steps must be positive")
        for key in ("yaw_range_deg", "pitch_range_deg", "t_range"):
            if getattr(self, key) < 0:
                raise InitError(f"{key} must be non-negative")
        # Counted in floats, so an absurd range cannot overflow the check.
        rows = (
            (2 * np.round(self.yaw_range_deg / self.yaw_step_deg) + 1)
            * (2 * np.round(self.pitch_range_deg / self.pitch_step_deg) + 1)
            * float(self.t_steps) ** 3 + 1
        )
        if not rows <= MAX_GRID_ROWS:
            raise InitError(
                f"the seed grid would have {rows:.3g} rows, more than {MAX_GRID_ROWS:g}"
            )

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
    k1 = intrinsics.at_level(1)
    _check_pair(ref_l1, tgt_l1, k1)
    return float(_grid_energies(
        _level_inputs(ref_l1, points.at_level(1), points.depths, k1), tgt_l1,
        pose.rotation[None], np.zeros(1, dtype=np.intp), pose.translation[None], k1,
        lm_config or LMConfig(),
    )[0])


def _grid_energies(
    level: _LevelInputs,
    tgt_l1: FeatureMap,
    rotations: np.ndarray,
    rot_index: np.ndarray,
    translations: np.ndarray,
    k1: CameraIntrinsics,
    lm_config: LMConfig,
) -> np.ndarray:
    """Mean per-valid-point Huber energy at the coarsest level of the rows
    whose poses are ``rotations[rot_index[i]], translations[i]``.

    Every row warps with the solver's margin and reads its residual norms
    from ``_valid_norms``, one target channel plane at a time, with the
    solver's Huber gamma. For 2 <= D <= 7 channels those norms are
    ``compute_residuals``' bit for bit; at D = 1 and D >= 8 they can differ
    in the last bits (``_valid_norms``). The seed's bounds and energies
    all come from that one kernel, so at every D the chosen row is the
    exact argmin of these energies. A row is infinite when fewer than
    ``lm_config.min_valid_points`` survive the warp, so a candidate cannot
    win by throwing points away. Rows are summed with their invalid (zero)
    entries in place, so an energy can differ from the serial
    ``compute_residuals(...).energy / n_valid`` in the last bits.

    This is ``_grid_bounds`` sampling every point, where the bound is the
    energy. Each row's energy depends on that row alone, so any subset of
    the rows, in any blocks, gives the same bits.
    """
    return _grid_bounds(level, tgt_l1, rotations, rot_index, translations, k1, lm_config, 1)[0]


def _grid_bounds(
    level: _LevelInputs,
    tgt_l1: FeatureMap,
    rotations: np.ndarray,
    rot_index: np.ndarray,
    translations: np.ndarray,
    k1: CameraIntrinsics,
    lm_config: LMConfig,
    stride: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Lower bounds of ``_grid_energies``, and estimates of it, for the rows
    whose poses are ``rotations[rot_index[i]], translations[i]``.

    Each row projects and samples only every ``stride``-th point. The rows
    run in blocks of ``_GRID_BLOCK * stride``, so a block's arrays hold
    about ``_GRID_BLOCK`` rows' worth of points at any stride and peak
    memory scales with block x points. Each block turns the sampled points
    once per distinct rotation it uses and projects them as x, y and z
    planes.
    - The bound is the Huber sum over the valid sampled points divided by
      an upper bound of the row's valid count: its valid sampled points
      plus the unsampled points that may be valid at all (in the
      reference, positive depth). Each sampled term is the same float as
      in the exact energy, since it comes from the same coordinates, so
      the bound can exceed the energy only by the rounding of a shorter
      sum (``_BOUND_SLACK``). It is infinite where that upper count is
      below ``min_valid_points``, so an infinite bound means an infinite
      energy; a row that loses unsampled points can keep a finite bound
      with an infinite energy. At stride 1 the upper count is the exact
      count and the bound is the energy.
    - The estimate is the same sum over the count of valid sampled points
      (infinite when there are none): a guess at the energy that, unlike
      the bound, does not favour rows that lose points.
    """
    sampled = slice(None, None, stride)
    points = level.points[sampled]
    usable = level.usable[sampled]
    ref_vals = level.ref_vals[sampled]
    unsampled = np.count_nonzero(level.usable) - np.count_nonzero(usable)
    bounds = np.empty(rot_index.shape[0])
    estimates = np.empty(rot_index.shape[0])
    block = _GRID_BLOCK * stride
    for start in range(0, rot_index.shape[0], block):
        rows = slice(start, start + block)
        turns, turn_of_row = np.unique(rot_index[rows], return_inverse=True)
        planes = (points @ rotations[turns].transpose(0, 2, 1)).transpose(2, 0, 1)
        t = translations[rows]
        x, y, z = (planes[c].take(turn_of_row, axis=0) + t[:, c, None] for c in range(3))
        u, v, valid = _project_planes(usable, x, y, z, k1, lm_config.margin)
        norms = _valid_norms(ref_vals, tgt_l1, u, v, valid)
        sums = _huber(norms, lm_config.huber_gamma).sum(axis=1)
        n_sampled = np.count_nonzero(valid, axis=1)
        n_upper = n_sampled + unsampled
        enough = n_upper >= lm_config.min_valid_points
        bounds[rows] = np.where(enough, sums / np.maximum(n_upper, 1), np.inf)
        estimates[rows] = np.where(n_sampled > 0, sums / np.maximum(n_sampled, 1), np.inf)
    return bounds, estimates


def _best_row(
    level: _LevelInputs,
    tgt_l1: FeatureMap,
    rotations: np.ndarray,
    rot_index: np.ndarray,
    translations: np.ndarray,
    k1: CameraIntrinsics,
    lm_config: LMConfig,
) -> int:
    """The row ``np.argmin`` picks from ``_grid_energies`` over every row,
    where row i is the pose ``rotations[rot_index[i]], translations[i]``.

    Only the rows that can still win are scored in full. For each stride
    in ``_BOUND_STRIDES``, coarse to fine:
    1. every row still alive gets a bound and an estimate from every
       stride-th point (``_grid_bounds``);
    2. the ``_FIRST_EXACT`` rows with the lowest estimates, plus row 0 in
       the first round, are scored exactly, and the lowest energy so far,
       plus ``_BOUND_SLACK``, is the cut;
    3. rows whose bound exceeds the cut are dropped, and so are rows after
       the best one so far whose bound equals it.
    The rows left at the end are scored exactly. The first row with the
    minimum energy is never dropped, so the first minimum in row order is
    the full grid's, bit for bit. A row with an infinite bound is infinite
    too and can win only when every row is, and then row 0 does.
    """
    energies = np.full(rot_index.shape[0], np.inf)
    alive = np.ones(rot_index.shape[0], dtype=bool)

    def score(rows):
        energies[rows] = _grid_energies(
            level, tgt_l1, rotations, rot_index[rows], translations[rows], k1, lm_config
        )
        alive[rows] = False

    for round_, stride in enumerate(_BOUND_STRIDES):
        rows = np.flatnonzero(alive)
        if not rows.size:
            break
        bounds, estimates = _grid_bounds(
            level, tgt_l1, rotations, rot_index[rows], translations[rows], k1, lm_config, stride
        )
        promising = rows
        if rows.size > _FIRST_EXACT:
            promising = rows[np.argpartition(estimates, _FIRST_EXACT)[:_FIRST_EXACT]]
        # Identity joins the first batch, so the cut never lies above its energy.
        score(np.union1d(promising, [0]) if round_ == 0 else promising)
        best = int(np.argmin(energies))
        cut = energies[best] * (1.0 + _BOUND_SLACK)
        # A bound at the cut means an energy of at least the best one, which
        # only a row ahead of the best can tie and win: on flat features
        # every energy is 0 and this drops all the other rows at once.
        alive[rows] &= np.isfinite(bounds) & (
            (bounds < cut) | ((bounds == cut) & (rows < best))
        )
    rows = np.flatnonzero(alive)
    if rows.size:
        score(rows)
    return int(np.argmin(energies))


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
    grid. ``_best_row`` finds the row of the identity pose plus the grid
    with the lowest energy under ``lm_config``'s energy settings (the
    solver defaults when None), exactly as ``np.argmin`` over
    ``_grid_energies`` of every row would. Identity is row 0 and the first
    of equal minima wins, so a grid pose is returned only when it strictly
    beats identity, and identity when no candidate keeps
    ``min_valid_points``. Degenerate inputs (too-large
    maps, too few points) fall back to identity rather than raising; maps
    the solver cannot compare raise as in ``align_level`` (``_check_pair``).
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
    _check_pair(ref_l1, tgt_l1, k1)

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

    # Row 0 is identity; row 1 + a * len(t_off) + o turns by rot_ang[a] and
    # moves by t_seed + t_off[o].
    rotations = np.concatenate([np.eye(3)[None], rot_ang])
    rot_index = np.concatenate([[0], np.repeat(np.arange(1, n_ang + 1), t_off.shape[0])])
    translations = np.concatenate([np.zeros((1, 3)), *[t_seed + t_off] * n_ang])
    level = _level_inputs(ref_l1, points.at_level(1), points.depths, k1)
    best = _best_row(level, tgt_l1, rotations, rot_index, translations, k1, lm_config)
    return SE3Pose(rotation=rotations[rot_index[best]], translation=translations[best])
