"""Correspondence-level losses that shape feature maps for alignment.

Four terms, all driven by sampled feature vectors and the 2x2 per-point
normal equations of the alignment update:

  match:    corresponding features should agree (squared distance).
  negative: random non-correspondences should stay a margin apart (hinge).
  gd step:  from a ring around the true match, one heavily damped update
            step should move measurably closer to it (hinge on progress).
  gn step:  within a pixel of the true match, an almost-undamped step
            should land on it, with the local curvature acting as the
            precision of a Gaussian (negative log-density form).

Every term consumes bilinear interpolation stencils, so the training
gradient can be computed by central finite differences over individual
stored cell values without re-evaluating untouched samples.

Sign convention: the per-point right-hand side is b = -J^T r and update
steps are p + (H + damping)^{-1} b, i.e. steps descend the local quadratic
model. See the decision record for why this is spelled out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configfile import check_finite, dataclass_from_mapping
from .feature_maps import (
    FeatureMap,
    SAMPLE_MARGIN,
    Stencil,
    gather_stencil,
    in_margins,
    stencil_gradients,
    stencil_values,
)

LOG_TWO_PI = math.log(2.0 * math.pi)
DET_FLOOR = 1e-12
FD_STEP = 1e-4


class LossError(Exception):
    pass


@dataclass(frozen=True)
class LossConfig:
    margin: float = 1.0          # squared-feature-distance hinge for negatives
    lambda_f: float = 2.0        # damping of the ring-sample update step
    gd_margin: float = 0.1       # required squared-distance progress slack
    epsilon: float = 1e-6        # damping of the near-sample update step
    gd_radius: float = 5.0       # ring radius around the true match, pixels
    gn_radius: float = 1.0       # near-sample disk radius, pixels
    w_match: float = 1.0
    w_negative: float = 1.0
    w_gd: float = 1.0
    w_gn: float = 1.0

    def __post_init__(self):
        check_finite(self, LossError)
        for name in ("margin", "lambda_f", "gd_margin", "epsilon", "gd_radius", "gn_radius"):
            if getattr(self, name) <= 0:
                raise LossError(f"{name} must be positive")
        if not self.epsilon < self.lambda_f / 1000.0:
            raise LossError("epsilon must be well below lambda_f (by 1000x)")
        for name in ("w_match", "w_negative", "w_gd", "w_gn"):
            if getattr(self, name) < 0:
                raise LossError(f"{name} must be non-negative")

    @classmethod
    def from_mapping(cls, mapping, base: "LossConfig | None" = None) -> "LossConfig":
        """Override fields of ``base`` (default: class defaults) from strings."""
        return dataclass_from_mapping(cls, mapping, LossError, "loss", base)


@dataclass(frozen=True)
class CorrespondenceBatch:
    """Sampled evaluation points for one reference/target map pair.

    Per row: a reference pixel, its true target correspondence, one global
    negative, one ring sample at the basin rim, and one near sample within
    a pixel of the truth.
    """

    ref_uv: np.ndarray
    gt_uv: np.ndarray
    neg_uv: np.ndarray
    ring_uv: np.ndarray
    near_uv: np.ndarray

    def __post_init__(self):
        n = self.ref_uv.shape[0]
        for name in ("ref_uv", "gt_uv", "neg_uv", "ring_uv", "near_uv"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (n, 2):
                raise LossError(f"{name} must be ({n}, 2), got {arr.shape}")
            object.__setattr__(self, name, arr)
        if n == 0:
            raise LossError("batch needs at least one correspondence")

    def __len__(self) -> int:
        return self.ref_uv.shape[0]


# ---------------------------------------------------------------------------
# Stencil-level term arithmetic (shared by batches and FD).
# ---------------------------------------------------------------------------


def _sq_dist_terms(corners, fu, fv, f_ref):
    diff = stencil_values(corners, fu, fv) - f_ref
    return np.einsum("nd,nd->n", diff, diff)


def _gn_pieces(corners, fu, fv, f_ref):
    """Residual, 2x2 Hessian and rhs for every row, from raw stencils."""
    jac = stencil_gradients(corners, fu, fv)       # (n, D, 2)
    res = stencil_values(corners, fu, fv) - f_ref  # (n, D)
    hess = np.einsum("ndi,ndj->nij", jac, jac)     # (n, 2, 2)
    rhs = -np.einsum("ndi,nd->ni", jac, res)       # (n, 2)
    return res, jac, hess, rhs


def _solve_2x2(hess, damping, rhs):
    a = hess[:, 0, 0] + damping
    b = hess[:, 0, 1]
    c = hess[:, 1, 0]
    d = hess[:, 1, 1] + damping
    det = a * d - b * c
    out = np.empty_like(rhs)
    out[:, 0] = (d * rhs[:, 0] - b * rhs[:, 1]) / det
    out[:, 1] = (-c * rhs[:, 0] + a * rhs[:, 1]) / det
    return out


def _gd_terms(corners, fu, fv, f_ref, ring_uv, gt_uv, config):
    _, _, hess, rhs = _gn_pieces(corners, fu, fv, f_ref)
    after = ring_uv + _solve_2x2(hess, config.lambda_f, rhs)
    gain = np.einsum("ni,ni->n", after - gt_uv, after - gt_uv)
    before = np.einsum("ni,ni->n", ring_uv - gt_uv, ring_uv - gt_uv)
    return np.maximum(gain - before + config.gd_margin, 0.0)


def _gn_terms(corners, fu, fv, f_ref, near_uv, gt_uv, config):
    _, _, hess, rhs = _gn_pieces(corners, fu, fv, f_ref)
    after = near_uv + _solve_2x2(hess, config.epsilon, rhs)
    diff = after - gt_uv
    quad = 0.5 * np.einsum("ni,nij,nj->n", diff, hess, diff)
    det = hess[:, 0, 0] * hess[:, 1, 1] - hess[:, 0, 1] * hess[:, 1, 0]
    return quad + LOG_TWO_PI - 0.5 * np.log(np.maximum(det, DET_FLOOR))


# ---------------------------------------------------------------------------
# Batch sampling and evaluation.
# ---------------------------------------------------------------------------


def sample_batch(rng, gt_correspondences, image_dims, config: LossConfig) -> CorrespondenceBatch:
    """Draw the negative/ring/near companions for each correspondence.

    ``gt_correspondences`` is (n, 4): reference u, v and target u, v per
    row. Rows whose points sit too close to the interpolation margins are
    dropped. Ring samples are rejection-sampled to honour both the radius
    band (0.8..1.2 of gd_radius) and the margins.
    """
    h, w = image_dims
    corr = np.asarray(gt_correspondences, dtype=np.float64).reshape(-1, 4)
    if corr.shape[0] < 1:
        raise LossError("need at least one ground-truth correspondence")
    r_hi = 1.2 * config.gd_radius
    if min(h, w) < 2 * (r_hi + SAMPLE_MARGIN) + 2:
        raise LossError(f"image {w}x{h} too small for ring radius {config.gd_radius}")

    lo = SAMPLE_MARGIN
    hi_u = w - 1 - SAMPLE_MARGIN
    hi_v = h - 1 - SAMPLE_MARGIN
    keep = in_margins(corr[:, 0:2], w, h, lo) & in_margins(
        corr[:, 2:4], w, h, lo + config.gn_radius
    )
    corr = corr[keep]
    n = corr.shape[0]
    if n == 0:
        raise LossError("no correspondence clears the sampling margins")

    local = np.random.default_rng(int(rng.integers(0, 2**31 - 1)))

    neg = np.stack(
        [local.uniform(lo, hi_u, size=n), local.uniform(lo, hi_v, size=n)], axis=1
    )

    gt = corr[:, 2:4]
    ring = np.empty((n, 2))
    pending = np.arange(n)
    for _ in range(500):
        m = len(pending)
        radius = config.gd_radius * local.uniform(0.8, 1.2, size=m)
        angle = local.uniform(0.0, 2.0 * np.pi, size=m)
        cand = gt[pending] + np.stack(
            [radius * np.cos(angle), radius * np.sin(angle)], axis=1
        )
        ok = in_margins(cand, w, h, lo)
        ring[pending[ok]] = cand[ok]
        pending = pending[~ok]
        if len(pending) == 0:
            break
    else:
        raise LossError("could not place ring samples inside the margins")

    rad = config.gn_radius * np.sqrt(local.uniform(0.0, 1.0, size=n))
    ang = local.uniform(0.0, 2.0 * np.pi, size=n)
    near = gt + np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)

    return CorrespondenceBatch(
        ref_uv=corr[:, 0:2], gt_uv=gt, neg_uv=neg, ring_uv=ring, near_uv=near
    )


def batch_terms(ref_map: FeatureMap, tgt_map: FeatureMap, batch, config) -> dict:
    """All four loss terms for every batch row, vectorized. Returns arrays."""
    f_ref = gather_stencil(ref_map, batch.ref_uv).values()
    st_gt = gather_stencil(tgt_map, batch.gt_uv)
    st_neg = gather_stencil(tgt_map, batch.neg_uv)
    st_ring = gather_stencil(tgt_map, batch.ring_uv)
    st_near = gather_stencil(tgt_map, batch.near_uv)
    return {
        "match": _sq_dist_terms(st_gt.corners, st_gt.fu, st_gt.fv, f_ref),
        "negative": np.maximum(
            config.margin - _sq_dist_terms(st_neg.corners, st_neg.fu, st_neg.fv, f_ref),
            0.0,
        ),
        "gd": _gd_terms(
            st_ring.corners, st_ring.fu, st_ring.fv, f_ref,
            batch.ring_uv, batch.gt_uv, config,
        ),
        "gn": _gn_terms(
            st_near.corners, st_near.fu, st_near.fv, f_ref,
            batch.near_uv, batch.gt_uv, config,
        ),
    }


_TERM_WEIGHTS = {
    "match": "w_match",
    "negative": "w_negative",
    "gd": "w_gd",
    "gn": "w_gn",
}


def total_loss(ref_map, tgt_map, batch, config) -> tuple[float, dict]:
    """Weighted sum of the four per-term means, with the breakdown."""
    terms = batch_terms(ref_map, tgt_map, batch, config)
    breakdown = {name: float(values.mean()) for name, values in terms.items()}
    total = sum(
        getattr(config, attr) * breakdown[name] for name, attr in _TERM_WEIGHTS.items()
    )
    breakdown["total"] = float(total)
    return float(total), breakdown


# ---------------------------------------------------------------------------
# Finite-difference training gradient.
# ---------------------------------------------------------------------------


def _touched_cells(st: Stencil):
    """Row and column indices ``(iv, iu)`` of a stencil's corners, each (n, 4)."""
    iu = np.stack([st.iu0, st.iu0 + 1, st.iu0, st.iu0 + 1], axis=1)
    iv = np.stack([st.iv0, st.iv0, st.iv0 + 1, st.iv0 + 1], axis=1)
    return iv, iu


def loss_gradient_fd(
    ref_map: FeatureMap,
    params: np.ndarray,
    batch: CorrespondenceBatch,
    config: LossConfig,
    step: float = FD_STEP,
) -> np.ndarray:
    """Central-difference gradient of total_loss w.r.t. target map cells.

    ``params`` is the float64 master copy of the learnable target map. The
    loss is evaluated on the float32 FeatureMap cast of it, so every bumped
    corner value is cast to float32 too: each difference measures the same
    perturbation as rebuilding the map around the bumped cell would.

    Per bumped cell, only the loss terms whose interpolation stencil
    contains that cell are re-evaluated; terms elsewhere cancel in the
    central difference. Each (sign, corner, channel) bump is one more copy
    of the batch, so every term is evaluated once over 8 * d stacked copies.
    """
    params = np.asarray(params, dtype=np.float64)
    d = params.shape[2]
    grad = np.zeros_like(params)

    tgt_map = FeatureMap(params)
    n = len(batch)
    copies = 8 * d
    f_ref = np.tile(gather_stencil(ref_map, batch.ref_uv).values(), (copies, 1))
    gt_uv = np.tile(batch.gt_uv, (copies, 1))

    term_eval = {
        "match": lambda corners, fu, fv: _sq_dist_terms(corners, fu, fv, f_ref),
        "negative": lambda corners, fu, fv: np.maximum(
            config.margin - _sq_dist_terms(corners, fu, fv, f_ref), 0.0
        ),
        "gd": lambda corners, fu, fv: _gd_terms(
            corners, fu, fv, f_ref, np.tile(batch.ring_uv, (copies, 1)), gt_uv, config
        ),
        "gn": lambda corners, fu, fv: _gn_terms(
            corners, fu, fv, f_ref, np.tile(batch.near_uv, (copies, 1)), gt_uv, config
        ),
    }
    points = {
        "match": batch.gt_uv,
        "negative": batch.neg_uv,
        "gd": batch.ring_uv,
        "gn": batch.near_uv,
    }

    corner = np.arange(4)[:, None]
    chan = np.arange(d)[None, :]
    for name, uv in points.items():
        weight = getattr(config, _TERM_WEIGHTS[name])
        if weight == 0.0:
            continue
        st = gather_stencil(tgt_map, uv)
        iv, iu = _touched_cells(st)
        base = params[iv, iu].transpose(1, 2, 0)  # (corner, channel, row)
        # bumped[s, k, c] holds the batch's corners with corner k, channel c
        # moved up (s = 0) or down (s = 1) by the step.
        bumped = np.broadcast_to(st.corners, (2, 4, d) + st.corners.shape).copy()
        bumped[0, corner, chan, :, corner, chan] = np.float32(base + step)
        bumped[1, corner, chan, :, corner, chan] = np.float32(base - step)
        values = term_eval[name](
            bumped.reshape(-1, 4, d), np.tile(st.fu, copies), np.tile(st.fv, copies)
        ).reshape(2, 4, d, n)
        contrib = weight * (values[0] - values[1]) / (2.0 * step * n)
        # Indexed in (corner, channel, row) order, so every cell sums its
        # contributions corner by corner, then row by row.
        np.add.at(grad, (iv.T[:, None, :], iu.T[:, None, :], chan[:, :, None]), contrib)
    return grad
