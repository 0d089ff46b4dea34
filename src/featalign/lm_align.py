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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .configfile import check_finite, dataclass_from_mapping
from .feature_maps import (
    SAMPLE_MARGIN,
    FeatureMap,
    FeaturePyramid,
    SampleOutOfBoundsError,
    Stencil,
    _stencil,
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
    warning: str | None = None

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
    return float(np.sum(_huber(norms, gamma)))


def huber_weights(norms: np.ndarray, gamma: float) -> np.ndarray:
    """IRLS weights: 1 inside the quadratic zone, gamma/s outside."""
    s = np.asarray(norms, dtype=np.float64)
    safe = np.maximum(s, 1e-300)
    return np.where(s <= gamma, 1.0, gamma / safe)


@dataclass
class ResidualEval:
    """Residuals of one level at one pose. Invalid points hold zero rows."""

    residuals: np.ndarray  # (n, D)
    valid: np.ndarray  # (n,) bool
    norms: np.ndarray  # (n,) per-point residual norms, 0 where invalid
    energy: float
    warped: np.ndarray  # (n, 2) target pixels, meaningful where valid
    transformed: np.ndarray  # (n, 3) target-frame points, meaningful where valid
    stencil: Stencil  # target samples of the valid points, in point order

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())


class _LevelInputs(NamedTuple):
    """The pose-independent half of one level's residuals."""

    points: np.ndarray  # (n, 3) reference-frame points
    ref_vals: np.ndarray  # (n, D) reference samples, zero where not sampleable
    usable: np.ndarray  # (n,) bool, sampleable in the reference with a positive depth


def _level_inputs(
    ref: FeatureMap, uv: np.ndarray, depths: np.ndarray, intrinsics: CameraIntrinsics
) -> _LevelInputs:
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    points = _unproject(uv, depths, intrinsics)
    in_ref = in_margins(uv, ref.width, ref.height, SAMPLE_MARGIN)
    ref_vals = np.zeros((uv.shape[0], ref.channels))
    ref_vals[in_ref] = gather_stencil(ref, uv[in_ref]).values()
    return _LevelInputs(points, ref_vals, in_ref & (points[:, 2] > 0.0))


def _sample_valid(
    ref_vals: np.ndarray, tgt: FeatureMap, warped: np.ndarray, valid: np.ndarray,
    intrinsics: CameraIntrinsics,
) -> tuple[np.ndarray, Stencil, np.ndarray]:
    """Target stencil and residuals of the valid entries of an (n,) or (M, n) mask.

    ``warped`` (..., 2) holds target pixels and ``ref_vals`` (n, D) the
    reference samples. Returns the flat (pose, point) ids of the valid
    entries in row-major order, their stencil and their (k, D) residuals.
    Valid pixels lie a warp margin of at least ``SAMPLE_MARGIN``
    (``_check_margin``) inside the ``intrinsics`` extent, so they are
    sampled without a second margin test once the target map is known to
    cover that extent; a smaller map raises ``SampleOutOfBoundsError``.
    """
    if tgt.width < intrinsics.width or tgt.height < intrinsics.height:
        raise SampleOutOfBoundsError(
            f"{tgt.width}x{tgt.height} target map is smaller than the "
            f"{intrinsics.width}x{intrinsics.height} image of its intrinsics"
        )
    # np.take and flat stores move the same bytes as boolean-mask
    # indexing, faster.
    flat = np.flatnonzero(valid)
    stencil = _stencil(tgt.values, np.take(warped.reshape(-1, 2), flat, axis=0))
    res = stencil.values() - np.take(ref_vals, flat % valid.shape[-1], axis=0)
    return flat, stencil, res


def _valid_norms(
    ref_vals: np.ndarray, tgt: FeatureMap, warped: np.ndarray, valid: np.ndarray,
    intrinsics: CameraIntrinsics,
) -> np.ndarray:
    """Residual norms (M, n) of ``_sample_valid``'s entries, zero where invalid:
    row i is ``compute_residuals``' norms at pose i. The seed grid scores
    with them."""
    flat, _, res = _sample_valid(ref_vals, tgt, warped, valid, intrinsics)
    norms = np.zeros(valid.shape)
    norms.reshape(-1)[flat] = np.linalg.norm(res, axis=1)
    return norms


class _ValidEval(NamedTuple):
    """Residuals of one level at one pose over its k valid points only."""

    ids: np.ndarray  # (k,) ascending indices of the valid points
    stencil: Stencil  # their target samples
    residuals: np.ndarray  # (k, D)
    norms: np.ndarray  # (k,)
    transformed: np.ndarray  # (k, 3) target-frame points
    energy: float

    @property
    def n_valid(self) -> int:
        return self.ids.size


def _evaluate(
    level: _LevelInputs, tgt: FeatureMap, pose: SE3Pose, intrinsics: CameraIntrinsics,
    huber_gamma: float, margin: float,
) -> _ValidEval:
    """``compute_residuals``' rows whose mask is set, bit for bit, without
    the zero-padded (n, ...) arrays the solver would only skip again."""
    warped, valid, transformed = _warp(level.points, level.usable, pose, intrinsics, margin)
    ids, stencil, res = _sample_valid(level.ref_vals, tgt, warped, valid, intrinsics)
    norms = np.linalg.norm(res, axis=1)
    return _ValidEval(
        ids, stencil, res, norms, np.take(transformed, ids, axis=0),
        huber_energy(norms, huber_gamma),
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
    ``_sample_valid``, zero-padded to all n points. ``margin`` must be at
    least ``SAMPLE_MARGIN``.
    """
    _check_margin(margin)
    level = _level_inputs(ref, uv, depths, intrinsics)
    warped, valid, transformed = _warp(level.points, level.usable, pose, intrinsics, margin)
    ids, stencil, res = _sample_valid(level.ref_vals, tgt, warped, valid, intrinsics)
    residuals = np.zeros((valid.shape[0], tgt.channels))
    residuals[ids] = res
    norms = np.zeros(valid.shape[0])
    norms[ids] = np.linalg.norm(res, axis=1)
    energy = huber_energy(norms[ids], huber_gamma)
    return ResidualEval(residuals, valid, norms, energy, warped, transformed, stencil)


def _stencil_jacobian(
    stencil: Stencil, transformed: np.ndarray, intrinsics: CameraIntrinsics
) -> np.ndarray:
    """d(residual)/d(twist) at delta = 0 of sampled points, (m, D, 2) @ (m, 2, 6).

    The reference term has no pose dependence, so the Jacobian is the
    target feature gradient chained with the projection and the left-update
    point motion of the target-frame points ``transformed``.
    """
    return stencil.gradients() @ pose_twist_jacobian(transformed, intrinsics)


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
    jac[valid] = _stencil_jacobian(stencil, transformed[valid], intrinsics)
    return jac, valid


def build_normal_equations(
    jac: np.ndarray, residuals: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted Gauss-Newton system: H = J'WJ, b = -J'Wr.

    ``weights`` is one scalar per point, applied to all of the point's
    channels. Reductions are plain fixed-order sums, so results are
    reproducible bit-for-bit for identical inputs.
    """
    j = np.asarray(jac, dtype=np.float64)
    r = np.asarray(residuals, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    h = np.einsum("ncx,n,ncy->xy", j, w, j)
    b = -np.einsum("ncx,n,nc->x", j, w, r)
    return h, b


def damp(h: np.ndarray, lam: float, mode: str) -> np.ndarray:
    """Apply damping: lam * I (levenberg) or lam * diag(H) (marquardt).

    Marquardt diagonal entries are floored at 1e-12 so a dead parameter
    direction still receives some damping.
    """
    if mode == "levenberg":
        return h + lam * np.eye(6)
    if mode == "marquardt":
        return h + lam * np.diag(np.maximum(np.diag(h), 1e-12))
    raise AlignmentError(f"unknown damping mode {mode!r}")


def solve_step(h_damped: np.ndarray, b: np.ndarray, cond_max: float = 1e12) -> np.ndarray:
    """Solve the damped system, refusing non-finite or ill-conditioned ones."""
    if not (np.isfinite(h_damped).all() and np.isfinite(b).all()):
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
    lam_before: float
    lam_after: float
    accepted: bool
    energy: float
    candidate_energy: float | None
    step_norm: float | None
    n_valid: int
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "lambda_before": self.lam_before,
            "lambda_after": self.lam_after,
            "accepted": self.accepted,
            "energy": self.energy,
            "candidate_energy": self.candidate_energy,
            "step_norm": self.step_norm,
            "n_valid": self.n_valid,
            "note": self.note,
        }


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
        out = {
            "level": self.level,
            "n_points": self.n_points,
            "n_valid_final": self.n_valid_final,
            "iterations": self.iterations,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "initial_energy": self.initial_energy,
            "final_energy": self.final_energy,
            "termination": self.termination,
            "skipped_reason": self.skipped_reason,
        }
        if include_trace:
            out["trace"] = [rec.to_dict() for rec in self.trace]
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

    ``uv`` must be in this level's coordinates. The reference samples and
    the unprojected points are computed once. Each pose is evaluated over
    its valid points only (``_evaluate``): the Jacobian reuses the target
    stencil the residuals were sampled with, and the Huber weights and the
    normal equations run over those k rows, which gives the same bits as
    the zero-padded n rows would. The system is rebuilt only after an
    accepted step; rejected steps reuse it with a larger damping factor,
    which is equivalent to rebuilding at the unchanged pose.
    """
    inputs = _level_inputs(ref, uv, depths, intrinsics)
    stats = LevelStats(level=level, n_points=inputs.points.shape[0])
    pose = init_pose
    lam = config.lambda_init

    def evaluate(at: SE3Pose) -> _ValidEval:
        return _evaluate(inputs, tgt, at, intrinsics, config.huber_gamma, config.margin)

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
    h = b = None

    for it in range(config.max_iters_per_level):
        if lam > config.lambda_max:
            stats.termination = "lambda_cap"
            break
        if not system_fresh:
            jac = _stencil_jacobian(current.stencil, current.transformed, intrinsics)
            weights = huber_weights(current.norms, config.huber_gamma)
            h, b = build_normal_equations(jac, current.residuals, weights)
            system_fresh = True

        stats.iterations += 1
        rec = IterationRecord(
            index=it,
            lam_before=lam,
            lam_after=lam,
            accepted=False,
            energy=current.energy,
            candidate_energy=None,
            step_norm=None,
            n_valid=current.n_valid,
        )
        stats.trace.append(rec)

        try:
            delta = solve_step(damp(h, lam, config.damping), b, config.cond_max)
        except DegenerateSystemError as exc:
            lam *= LAMBDA_FAILURE_MULT
            stats.rejected += 1
            rec.lam_after = lam
            rec.note = f"degenerate: {exc}"
            continue

        step_norm = float(np.linalg.norm(delta))
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
        rec.lam_after = lam
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
