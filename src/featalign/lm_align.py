"""Levenberg-Marquardt direct alignment over feature pyramids.

The solver minimizes the Huber-aggregated feature-metric energy

    E(xi) = sum_p  rho_gamma( || F_tgt(warp(p, d_p, xi)) - F_ref(p) || )

over the 6-DOF relative pose, with left-compositional updates
``xi <- exp(delta) * xi``. Levels run coarse to fine; the damping factor
follows the classic schedule: halve on an accepted step, quadruple on a
rejected one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import reduce
from typing import NamedTuple

import numpy as np

from .configfile import check_finite, dataclass_from_mapping
from .feature_maps import (
    SAMPLE_MARGIN,
    FeatureMap,
    FeaturePyramid,
    SampleOutOfBoundsError,
    _cells,
    _corner_gradients,
    _corner_sum,
    _corner_weights,
    gather_stencil,
    in_margins,
)
from .geometry import (
    CameraIntrinsics,
    SE3Pose,
    _unproject,
    _warp,
    boxplus,
    pose_twist_jacobian,
    warp_points,
)

LAMBDA_SUCCESS_MULT = 0.5
LAMBDA_FAILURE_MULT = 4.0


class AlignmentError(ValueError):
    """Base class for alignment failures."""


class DegenerateSystemError(AlignmentError):
    """Raised when the damped normal equations are singular or ill-conditioned."""


class PointFileError(ValueError):
    """Raised for malformed sparse point files."""


@dataclass(frozen=True)
class SparsePointSet:
    """Sparse anchor points in full-resolution pixel coordinates, with depths."""

    uv: np.ndarray  # (n, 2) float64, level-4 pixel coordinates
    depths: np.ndarray  # (n,) float64, reference-frame depths

    def __post_init__(self) -> None:
        uv = np.ascontiguousarray(np.asarray(self.uv, dtype=np.float64).reshape(-1, 2))
        d = np.ascontiguousarray(np.asarray(self.depths, dtype=np.float64).reshape(-1))
        if uv.shape[0] != d.shape[0]:
            raise AlignmentError("point and depth counts differ")
        if not (np.isfinite(uv).all() and np.isfinite(d).all()):
            raise AlignmentError("point coordinates and depths must be finite")
        if np.any(d <= 0.0):
            raise AlignmentError("point depths must be positive")
        uv.flags.writeable = False
        d.flags.writeable = False
        object.__setattr__(self, "uv", uv)
        object.__setattr__(self, "depths", d)

    def __len__(self) -> int:
        return self.uv.shape[0]

    def at_level(self, level: int) -> np.ndarray:
        """Point coordinates rescaled to a pyramid level (level 4 = native)."""
        return self.uv * 2.0 ** (level - 4)


def save_points_text(path: str, points: SparsePointSet) -> None:
    """One 'u v depth' line per point, full float64 precision."""
    with open(path, "w", encoding="ascii") as fh:
        for (u, v), d in zip(points.uv, points.depths):
            fh.write(f"{u:.17g} {v:.17g} {d:.17g}\n")


def load_points_text(path: str) -> SparsePointSet:
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 3:
                raise PointFileError(f"line {lineno}: expected 'u v depth', got {len(fields)} fields")
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise PointFileError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise PointFileError("point file holds no points")
    arr = np.asarray(rows, dtype=np.float64)
    return SparsePointSet(uv=arr[:, :2], depths=arr[:, 2])


@dataclass(frozen=True)
class LMConfig:
    """Solver settings; defaults are tuned for normalized feature channels."""

    lambda_init: float = 0.1
    lambda_max: float = 1e8
    damping: str = "marquardt"  # or "levenberg"
    huber_gamma: float = 0.3
    max_iters_per_level: int = 50
    step_norm_eps: float = 1e-7
    min_valid_points: int = 8
    cond_max: float = 1e12
    margin: float = 2.0
    levels: tuple[int, ...] = (1, 2, 3, 4)

    def __post_init__(self) -> None:
        if self.damping not in ("levenberg", "marquardt"):
            raise AlignmentError(f"unknown damping mode {self.damping!r}")
        if self.lambda_init < 0.0:
            raise AlignmentError("lambda_init must be non-negative")
        if self.huber_gamma <= 0.0:
            raise AlignmentError("huber_gamma must be positive")
        # Written as `not x >= bound` so that NaN fails them too.
        if not self.max_iters_per_level >= 1:
            raise AlignmentError("max_iters_per_level must be at least 1")
        if not self.step_norm_eps >= 0.0:
            raise AlignmentError("step_norm_eps must be non-negative")
        # With no valid point a level ends on a zero step, "converged".
        if not self.min_valid_points >= 1:
            raise AlignmentError("min_valid_points must be at least 1")
        if not self.levels or any(l not in (1, 2, 3, 4) for l in self.levels):
            raise AlignmentError(f"levels must be drawn from 1..4, got {self.levels}")
        if list(self.levels) != sorted(self.levels):
            raise AlignmentError("levels must be ascending (coarse to fine)")
        _check_margin(self.margin)
        check_finite(self, AlignmentError)

    @classmethod
    def from_mapping(cls, mapping) -> "LMConfig":
        return dataclass_from_mapping(cls, mapping, AlignmentError, "solver")


def _check_margin(margin: float) -> None:
    """Refuse a warp margin that would let a valid point sit outside the
    target's interpolation margins; the kernel samples valid points
    without testing them again."""
    if not margin >= SAMPLE_MARGIN:
        raise AlignmentError(
            f"margin must be at least {SAMPLE_MARGIN:g} (the sampling margin), got {margin}"
        )


def _huber(norms: np.ndarray, gamma: float) -> np.ndarray:
    """Per-point Huber penalties of residual norms."""
    s = np.asarray(norms, dtype=np.float64)
    return np.where(s <= gamma, 0.5 * s * s, gamma * (s - 0.5 * gamma))


def huber_energy(norms: np.ndarray, gamma: float) -> float:
    """Sum of Huber penalties over per-point residual norms."""
    # np.sum's own reduction, without its dispatch.
    return float(np.add.reduce(_huber(norms, gamma), axis=None))


def huber_weights(norms: np.ndarray, gamma: float) -> np.ndarray:
    """IRLS weights: 1 inside the quadratic zone, gamma/s outside."""
    s = np.asarray(norms, dtype=np.float64)
    # The quotient is only kept where s > gamma, where a floor at gamma
    # leaves s as it is for any positive gamma.
    return np.where(s <= gamma, 1.0, gamma / np.maximum(s, gamma))


@dataclass
class ResidualEval:
    """Residuals of one level at one pose. Invalid points hold zero rows."""

    residuals: np.ndarray  # (n, D)
    valid: np.ndarray  # (n,) bool
    norms: np.ndarray  # (n,) per-point residual norms, 0 where invalid
    energy: float
    warped: np.ndarray  # (n, 2) target pixels, meaningful where valid
    transformed: np.ndarray  # (n, 3) target-frame points, meaningful where valid
    corners: np.ndarray  # (4, D, k) target corners of the valid points, in point order

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())


class _LevelInputs(NamedTuple):
    """The pose-independent half of one level's residuals."""

    points: np.ndarray  # (n, 3) reference-frame points
    ref: np.ndarray  # (D, n) reference samples, zero where not sampleable
    usable: np.ndarray  # (n,) bool, sampleable in the reference with a positive depth
    planes: np.ndarray  # (D, h*w) the target's channels as float64 planes
    width: int  # of the target map
    height: int
    corner_ids: np.ndarray  # (4, D, 1) flat offsets of a cell's corners in ``planes``


def _level_inputs(
    ref: FeatureMap, tgt: FeatureMap, uv: np.ndarray, depths: np.ndarray,
    intrinsics: CameraIntrinsics,
) -> _LevelInputs:
    """Refuse maps the per-pose kernels cannot compare, then sample the
    reference and stack the target's planes, once per entry-point call.

    The channel counts must agree. Valid pixels lie a warp margin of at
    least ``SAMPLE_MARGIN`` (``_check_margin``) inside the ``intrinsics``
    extent, so they are sampled without a second margin test once the
    target map covers that extent; a smaller one raises
    ``SampleOutOfBoundsError``.
    """
    if ref.channels != tgt.channels:
        raise AlignmentError(
            f"channel mismatch: {ref.channels}-channel reference map against "
            f"a {tgt.channels}-channel target map"
        )
    h, w, d = tgt.values.shape
    if w < intrinsics.width or h < intrinsics.height:
        raise SampleOutOfBoundsError(
            f"{w}x{h} target map is smaller than the "
            f"{intrinsics.width}x{intrinsics.height} image of its intrinsics"
        )
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    points = _unproject(uv, depths, intrinsics)
    in_ref = in_margins(uv, ref.width, ref.height, SAMPLE_MARGIN)
    ref_vals = np.zeros((d, uv.shape[0]))
    ref_vals[:, in_ref] = gather_stencil(ref, uv[in_ref]).values().T
    planes = np.ascontiguousarray(tgt.values.reshape(h * w, d).T, dtype=np.float64)
    corner_ids = (np.array([0, 1, w, w + 1])[:, None] + h * w * np.arange(d))[:, :, None]
    return _LevelInputs(points, ref_vals, in_ref & (points[:, 2] > 0.0), planes, w, h, corner_ids)


def _sample_residuals(level: _LevelInputs, u, v, valid, keep_corners=False) -> tuple:
    """Feature residuals at the target pixels ``(u, v)`` of the valid
    entries of an (n,) or (M, n) mask over ``level``'s n points: the one
    residual kernel of the solver (``_evaluate``) and the seed grid
    (``_grid_bounds``).

    Returns ``(ids, residuals, norms, corners, fu, fv)``: the ascending flat
    ids of the k valid entries, their (D, k) residuals, their (k,) norms
    (squares summed in channel order), their corners and their cell
    fractions. The solver asks to ``keep_corners``: one (4, D, k) take,
    kept for the Jacobian, whose products come from one broadcast multiply.
    The seed streams each corner as a (D, k) read, and ``corners`` is None.
    Both sum their products with ``_corner_sum``, so both give the same
    bytes (``test_solver_corner_sum_equals_corner_sum``). Valid pixels are
    read without a margin test (``_level_inputs``).
    """
    planes, w = level.planes, level.width
    ids = valid.reshape(-1).nonzero()[0]
    iu0, iv0, fu, fv = _cells(u.take(ids), v.take(ids), w, level.height)
    weights = _corner_weights(fu, fv, np.empty((4, ids.size)))
    cell = iv0 * w + iu0
    corners = None
    if keep_corners:
        corners = planes.take(level.corner_ids + cell)
        values = _corner_sum(weights[:, None] * corners)
    else:
        # A plane stack viewed from offset o reads cell + o. Each read is
        # fresh, so it is scaled in place.
        reads = (planes[:, o:].take(cell, axis=1) for o in (0, 1, w, w + 1))
        values = _corner_sum(np.multiply(read, wt, out=read) for read, wt in zip(reads, weights))
    n = valid.shape[-1]
    # Floor division is about twice as fast as %.
    values -= level.ref.take(ids if valid.ndim == 1 else ids - n * (ids // n), axis=1)
    return ids, values, np.sqrt(reduce(np.add, values * values)), corners, fu, fv


class _ValidEval(NamedTuple):
    """Residuals of one level at one pose over its k valid points only."""

    ids: np.ndarray  # (k,) ascending indices of the valid points
    corners: np.ndarray  # (4, D, k) their target corners
    fu: np.ndarray  # (k,) their cell fractions
    fv: np.ndarray  # (k,)
    residuals: np.ndarray  # (k, D), C-ordered
    norms: np.ndarray  # (k,)
    transformed: np.ndarray  # (k, 3) target-frame points
    energy: float

    @property
    def n_valid(self) -> int:
        return self.ids.size


def _evaluate(
    level: _LevelInputs, pose: SE3Pose, intrinsics: CameraIntrinsics,
    huber_gamma: float, margin: float,
) -> _ValidEval:
    """``compute_residuals``' rows whose mask is set, without the
    zero-padded (n, ...) arrays the solver would only skip again."""
    u, v, valid, transformed = _warp(level.points, level.usable, pose, intrinsics, margin)
    ids, res, norms, corners, fu, fv = _sample_residuals(level, u, v, valid, True)
    # A transposed view would change build_normal_equations' sums.
    return _ValidEval(
        ids, corners, fu, fv, np.ascontiguousarray(res.T), norms,
        transformed.take(ids, axis=0), huber_energy(norms, huber_gamma),
    )


def compute_residuals(
    ref: FeatureMap,
    tgt: FeatureMap,
    uv: np.ndarray,
    depths: np.ndarray,
    pose: SE3Pose,
    intrinsics: CameraIntrinsics,
    huber_gamma: float = 0.3,
    margin: float = 2.0,
) -> ResidualEval:
    """Feature residuals F_tgt(warped) - F_ref(p) for one pyramid level.

    ``uv`` must already be in this level's pixel coordinates. Points whose
    warp leaves the margins, falls behind the camera, or whose own
    coordinates cannot be sampled in the reference are marked invalid and
    contribute nothing: ``warp_points``' own ``_warp``, then
    ``_sample_residuals``, zero-padded to all n points. ``margin`` must be
    at least ``SAMPLE_MARGIN``.
    """
    _check_margin(margin)
    level = _level_inputs(ref, tgt, uv, depths, intrinsics)
    u, v, valid, transformed = _warp(level.points, level.usable, pose, intrinsics, margin)
    ids, res, norms, corners, _, _ = _sample_residuals(level, u, v, valid, True)
    residuals = np.zeros((valid.shape[0], tgt.channels))
    residuals[ids] = res.T
    padded = np.zeros(valid.shape[0])
    padded[ids] = norms
    return ResidualEval(
        residuals, valid, padded, huber_energy(norms, huber_gamma),
        np.stack([u, v], axis=-1), transformed, corners,
    )


def _stencil_jacobian(ev: _ValidEval, intrinsics: CameraIntrinsics) -> np.ndarray:
    """d(residual)/d(twist) at delta = 0 of the k points of ``ev``, (k, D, 2) @ (k, 2, 6).

    The reference term has no pose dependence, so the Jacobian is the
    target feature gradient (``_corner_gradients`` of the kept corners)
    chained with the projection and the left-update point motion of the
    target-frame points.
    """
    grads = np.empty((ev.fu.size, ev.corners.shape[1], 2))
    _corner_gradients(ev.corners, ev.fu, ev.fv, grads.T)
    return grads @ pose_twist_jacobian(ev.transformed, intrinsics)


def compute_jacobian(
    tgt: FeatureMap,
    uv: np.ndarray,
    depths: np.ndarray,
    pose: SE3Pose,
    intrinsics: CameraIntrinsics,
    margin: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """d(residual)/d(twist) at delta = 0, shape (n, D, 6), and the warp mask.

    Rows of points whose warp is invalid are zero. ``margin`` must be at
    least ``SAMPLE_MARGIN``.
    """
    _check_margin(margin)
    warped, valid, transformed = warp_points(uv, depths, pose, intrinsics, margin=margin)
    jac = np.zeros((valid.shape[0], tgt.channels, 6))
    stencil = gather_stencil(tgt, warped[valid])
    jac[valid] = stencil.gradients() @ pose_twist_jacobian(transformed[valid], intrinsics)
    return jac, valid


def build_normal_equations(
    jac: np.ndarray, residuals: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted Gauss-Newton system: H = J'WJ, b = -J'Wr.

    ``weights`` is one scalar per point, applied to all of the point's
    channels. The Jacobian is weighted once, ``JW = J * w[:, None, None]``,
    and H and b are the two-operand einsums ``ncx,ncy->xy`` over (JW, J)
    and ``ncx,nc->x`` over (JW, r). The three-operand einsums
    ``ncx,n,ncy->xy`` and ``ncx,n,nc->x`` also multiply J by w first and
    add in the same fixed order, so H and b are their bytes (checked for
    0 to 600 rows and D in {1, 2, 3, 8}, with zero and unit weights), and
    reproducible for identical inputs.
    """
    j = np.asarray(jac, dtype=np.float64)
    r = np.asarray(residuals, dtype=np.float64)
    jw = j * np.asarray(weights, dtype=np.float64)[:, None, None]
    h = np.einsum("ncx,ncy->xy", jw, j)
    b = -np.einsum("ncx,nc->x", jw, r)
    return h, b


def _damping_matrix(h: np.ndarray, mode: str) -> np.ndarray:
    """M of the damped system H + lambda * M: I (levenberg) or diag(H)
    (marquardt). It depends on H only, so the solver builds it once per
    system and reuses it for every damping retry.

    Marquardt diagonal entries are floored at 1e-12 so a dead parameter
    direction still receives some damping. The floored diagonal is written
    straight into the diagonal of a zero 6 x 6 matrix: the bytes of
    ``np.diag(np.maximum(np.diag(h), 1e-12))``.
    """
    if mode == "levenberg":
        return np.eye(6)
    if mode == "marquardt":
        m = np.zeros((6, 6))
        np.maximum(h.diagonal(), 1e-12, out=m.reshape(-1)[::7])
        return m
    raise AlignmentError(f"unknown damping mode {mode!r}")


def solve_step(h_damped: np.ndarray, b: np.ndarray, cond_max: float = 1e12) -> np.ndarray:
    """Solve the damped system, refusing non-finite or ill-conditioned ones."""
    # ndarray.all()'s own reduction, without its dispatch.
    all_true = np.logical_and.reduce
    if not (all_true(np.isfinite(h_damped), axis=None) and all_true(np.isfinite(b))):
        raise DegenerateSystemError("damped system holds non-finite entries")
    eigs = np.linalg.eigvalsh(h_damped)
    if eigs[0] <= 0.0 or eigs[-1] / eigs[0] > cond_max:
        raise DegenerateSystemError(
            f"damped Hessian condition {eigs[-1]:.3e}/{eigs[0]:.3e} exceeds {cond_max:.1e}"
        )
    return np.linalg.solve(h_damped, b)


@dataclass
class IterationRecord:
    """One solver iteration for trace inspection and tests."""

    index: int
    lambda_before: float
    lambda_after: float
    accepted: bool
    energy: float
    candidate_energy: float | None
    step_norm: float | None
    n_valid: int
    note: str = ""


@dataclass
class LevelStats:
    """Outcome of one pyramid level."""

    level: int
    n_points: int
    n_valid_final: int = 0
    iterations: int = 0
    accepted: int = 0
    rejected: int = 0
    initial_energy: float = math.nan
    final_energy: float = math.nan
    termination: str = ""
    skipped_reason: str | None = None
    trace: list[IterationRecord] = field(default_factory=list)

    def to_dict(self, include_trace: bool = False) -> dict:
        out = asdict(self)
        if not include_trace:
            del out["trace"]
        return out


@dataclass
class AlignmentResult:
    """Final pose plus per-level solver statistics.

    ``converged``: the finest level ran and ended on a step below
    ``step_norm_eps``. ``failure_reason`` is set only for skipped levels.
    """

    pose: SE3Pose
    levels: list[LevelStats]
    converged: bool
    failure_reason: str | None = None

    @property
    def total_iterations(self) -> int:
        return sum(s.iterations for s in self.levels)

    @property
    def final_energy(self) -> float:
        for stats in reversed(self.levels):
            if stats.skipped_reason is None:
                return stats.final_energy
        return math.nan

    def to_dict(self, include_trace: bool = False) -> dict:
        return {
            "pose": [float(x) for x in self.pose.matrix34().reshape(-1)],
            "converged": self.converged,
            "failure_reason": self.failure_reason,
            "total_iterations": self.total_iterations,
            "final_energy": self.final_energy,
            "levels": [s.to_dict(include_trace) for s in self.levels],
        }


def align_level(
    ref: FeatureMap,
    tgt: FeatureMap,
    uv: np.ndarray,
    depths: np.ndarray,
    init_pose: SE3Pose,
    intrinsics: CameraIntrinsics,
    config: LMConfig,
    level: int = 4,
) -> tuple[SE3Pose, LevelStats]:
    """Run damped Gauss-Newton iterations on a single pyramid level.

    ``uv`` must be in this level's coordinates. The reference samples,
    the unprojected points and the target's planes are computed once. Each
    pose is evaluated over its valid points only (``_evaluate``): the
    Jacobian reuses the target corners the residuals were sampled with,
    and the Huber weights and the normal equations run over those k rows.
    The system is rebuilt only after an accepted step; rejected steps
    reuse it with a larger damping factor, which is equivalent to
    rebuilding at the unchanged pose.
    """
    inputs = _level_inputs(ref, tgt, uv, depths, intrinsics)
    stats = LevelStats(level=level, n_points=inputs.points.shape[0])
    pose = init_pose
    lam = config.lambda_init

    def evaluate(at: SE3Pose) -> _ValidEval:
        return _evaluate(inputs, at, intrinsics, config.huber_gamma, config.margin)

    current = evaluate(pose)
    if current.n_valid < config.min_valid_points:
        stats.skipped_reason = (
            f"insufficient overlap: {current.n_valid} valid points "
            f"(minimum {config.min_valid_points})"
        )
        stats.n_valid_final = current.n_valid
        return pose, stats

    stats.initial_energy = current.energy
    system_fresh = False
    h = b = damping = None

    for it in range(config.max_iters_per_level):
        if lam > config.lambda_max:
            stats.termination = "lambda_cap"
            break
        if not system_fresh:
            jac = _stencil_jacobian(current, intrinsics)
            weights = huber_weights(current.norms, config.huber_gamma)
            h, b = build_normal_equations(jac, current.residuals, weights)
            damping = _damping_matrix(h, config.damping)
            system_fresh = True

        stats.iterations += 1
        rec = IterationRecord(
            index=it,
            lambda_before=lam,
            lambda_after=lam,
            accepted=False,
            energy=current.energy,
            candidate_energy=None,
            step_norm=None,
            n_valid=current.n_valid,
        )
        stats.trace.append(rec)

        try:
            delta = solve_step(h + lam * damping, b, config.cond_max)
        except DegenerateSystemError as exc:
            lam *= LAMBDA_FAILURE_MULT
            stats.rejected += 1
            rec.lambda_after = lam
            rec.note = f"degenerate: {exc}"
            continue

        # np.linalg.norm(delta)'s own 1-D formula, without its dispatch.
        step_norm = math.sqrt(delta.dot(delta))
        rec.step_norm = step_norm
        if step_norm < config.step_norm_eps:
            stats.termination = "step_norm"
            rec.note = "step below threshold"
            break

        candidate = boxplus(delta, pose)
        cand_eval = evaluate(candidate)
        rec.candidate_energy = cand_eval.energy

        if cand_eval.n_valid >= config.min_valid_points and cand_eval.energy < current.energy:
            pose = candidate
            current = cand_eval
            lam *= LAMBDA_SUCCESS_MULT
            stats.accepted += 1
            rec.accepted = True
            system_fresh = False
        else:
            lam *= LAMBDA_FAILURE_MULT
            stats.rejected += 1
            if cand_eval.n_valid < config.min_valid_points:
                rec.note = "candidate lost overlap"
        rec.lambda_after = lam
    else:
        stats.termination = "max_iters"

    stats.final_energy = current.energy
    stats.n_valid_final = current.n_valid
    return pose, stats


def align_coarse_to_fine(
    ref_pyramid: FeaturePyramid,
    tgt_pyramid: FeaturePyramid,
    points: SparsePointSet,
    intrinsics: CameraIntrinsics,
    config: LMConfig | None = None,
    init_pose: SE3Pose | None = None,
) -> AlignmentResult:
    """Align over the configured levels, coarse to fine.

    Points and intrinsics are given at full resolution and rescaled per
    level. The damping factor restarts from ``lambda_init`` on every level.
    A level without enough valid points is skipped (recorded with a reason)
    and the pose passes through unchanged.
    """
    if config is None:
        config = LMConfig()
    pose = SE3Pose.identity() if init_pose is None else init_pose
    all_stats: list[LevelStats] = []

    for level in config.levels:
        ref = ref_pyramid.level(level)
        tgt = tgt_pyramid.level(level)
        uv = points.at_level(level)
        k_level = intrinsics.at_level(level)
        pose, stats = align_level(
            ref, tgt, uv, points.depths, pose, k_level, config, level
        )
        all_stats.append(stats)

    last = all_stats[-1]
    failure = None
    if all(s.skipped_reason is not None for s in all_stats):
        failure = "insufficient overlap at every level"
    elif last.skipped_reason is not None:
        failure = f"finest level skipped: {last.skipped_reason}"
    return AlignmentResult(
        pose=pose,
        levels=all_stats,
        converged=last.termination == "step_norm",
        failure_reason=failure,
    )
