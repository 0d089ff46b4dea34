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

``TERMS`` pairs each term with its weight and target samples, and ``_term``
holds its formula over the interpolated target values (and, for the gd and
gn steps, their gradients), so the training gradient is a central
difference per stored cell that re-evaluates only touched samples.
``loss_gradient_fd`` takes every pair of a training step at once: it
stacks the pairs' batch rows against the one target map, gathers each
term's stencil once, and returns each pair's loss breakdown (the bits of
``total_loss``) with the in-order sum of the pairs' gradients (the bits of
summing one-pair calls). A bump of one cell's channel moves only that
channel of the rows that read the cell, so each bump re-interpolates that
one channel and copies the others from the unbumped rows. From two
channels on it sums the corners as ``feature_maps._corner_sum`` does,
which is ``Stencil.values()``' einsum bit for bit; at one channel the
einsum adds the corners in another order, so there it keeps the einsum.

Sign convention: the per-point right-hand side is b = -J^T r, as in
``lm_align.build_normal_equations``, so the update step
p + (H + damping)^{-1} b descends the local quadratic model.
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
    _corner_sum,
    _corner_weights,
    gather_stencil,
    in_margins,
)

LOG_TWO_PI = math.log(2.0 * math.pi)
DET_FLOOR = 1e-12
FD_STEP = 1e-4

# Each loss term's LossConfig weight field and the CorrespondenceBatch field
# of the target samples it reads, in breakdown order.
TERMS = {
    "match": ("w_match", "gt_uv"),
    "negative": ("w_negative", "neg_uv"),
    "gd": ("w_gd", "ring_uv"),
    "gn": ("w_gn", "near_uv"),
}
# The terms that take an update step, and so read the interpolant gradients.
_STEP_TERMS = ("gd", "gn")


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
        for weight, _ in TERMS.values():
            if getattr(self, weight) < 0:
                raise LossError(f"{weight} must be non-negative")

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
# Term arithmetic on interpolated target samples (shared by batches and FD).
# The target values and gradients may carry leading stack dimensions ahead
# of the batch rows.
# ---------------------------------------------------------------------------


def _sum_products(a, b):
    """Sum over the last axis of ``a * b``, product by product from +0.0:
    the bits of the einsum that contracts a non-innermost axis, without
    its cost on stacked operands."""
    acc = a[..., 0] * b[..., 0]
    acc += 0.0  # as einsum's zero start, which turns a -0.0 into +0.0
    for k in range(1, a.shape[-1]):
        acc += a[..., k] * b[..., k]
    return acc


def _gn_pieces(values, jac, f_ref):
    """Residual, 2x2 Hessian and rhs for every row of target samples with
    interpolated values (..., n, D) and gradients ``jac`` (..., n, D, 2)."""
    res = values - f_ref                          # (..., n, D)
    ju, jv = jac[..., 0], jac[..., 1]
    # J^T J and -J^T r, as einsum("...ndi,...ndj->...nij") and
    # -einsum("...ndi,...nd->...ni") give them.
    hess = np.empty(res.shape[:-1] + (2, 2))      # (..., n, 2, 2)
    hess[..., 0, 0] = _sum_products(ju, ju)
    hess[..., 0, 1] = hess[..., 1, 0] = _sum_products(ju, jv)
    hess[..., 1, 1] = _sum_products(jv, jv)
    rhs = np.empty(res.shape[:-1] + (2,))         # (..., n, 2)
    rhs[..., 0] = -_sum_products(ju, res)
    rhs[..., 1] = -_sum_products(jv, res)
    return res, hess, rhs


def _solve_2x2(hess, damping, rhs):
    a = hess[..., 0, 0] + damping
    b = hess[..., 0, 1]
    c = hess[..., 1, 0]
    d = hess[..., 1, 1] + damping
    det = a * d - b * c
    out = np.empty_like(rhs)
    out[..., 0] = (d * rhs[..., 0] - b * rhs[..., 1]) / det
    out[..., 1] = (-c * rhs[..., 0] + a * rhs[..., 1]) / det
    return out


def _term(name: str, values, jac, f_ref, batch, config) -> np.ndarray:
    """Per-row values of loss term ``name`` from the target's interpolated
    values (..., n, D) at its ``TERMS`` samples of ``batch``, against
    reference features ``f_ref`` (n, D). ``jac`` holds the interpolant
    gradients (..., n, D, 2), which only the ``_STEP_TERMS`` read; the
    others take None. The result keeps the leading stack dimensions."""
    if name not in _STEP_TERMS:
        diff = values - f_ref
        dist = np.einsum("...nd,...nd->...n", diff, diff)
        return dist if name == "match" else np.maximum(config.margin - dist, 0.0)
    uv, gt_uv = getattr(batch, TERMS[name][1]), batch.gt_uv
    _, hess, rhs = _gn_pieces(values, jac, f_ref)
    if name == "gd":
        after = uv + _solve_2x2(hess, config.lambda_f, rhs)
        gain = np.einsum("...ni,...ni->...n", after - gt_uv, after - gt_uv)
        before = np.einsum("ni,ni->n", uv - gt_uv, uv - gt_uv)
        return np.maximum(gain - before + config.gd_margin, 0.0)
    after = uv + _solve_2x2(hess, config.epsilon, rhs)
    # diff^T H diff, summed as einsum("...ni,...nij,...nj->...n") sums it;
    # its zero start changes nothing, as H[0, 0] >= 0 keeps the first
    # product from being -0.0.
    diff = after - gt_uv
    d0, d1 = diff[..., 0], diff[..., 1]
    quad = 0.5 * (
        d0 * hess[..., 0, 0] * d0 + d0 * hess[..., 0, 1] * d1
        + d1 * hess[..., 1, 0] * d0 + d1 * hess[..., 1, 1] * d1
    )
    det = hess[..., 0, 0] * hess[..., 1, 1] - hess[..., 0, 1] * hess[..., 1, 0]
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


def _samples(st: Stencil, name: str):
    """The interpolated values and, for a step term, the gradients of the
    target stencil ``st`` that ``_term(name, ...)`` reads."""
    return st.values(), st.gradients() if name in _STEP_TERMS else None


def batch_terms(ref_map: FeatureMap, tgt_map: FeatureMap, batch, config) -> dict:
    """All four loss terms for every batch row, vectorized. Returns arrays."""
    f_ref = gather_stencil(ref_map, batch.ref_uv).values()
    return {
        name: _term(
            name, *_samples(gather_stencil(tgt_map, getattr(batch, field)), name),
            f_ref, batch, config,
        )
        for name, (_, field) in TERMS.items()
    }


def _breakdown(terms: dict, config) -> tuple[float, dict]:
    """Weighted sum of the per-term means of ``terms`` (name -> per-row
    values of one batch), with the breakdown."""
    breakdown = {name: float(values.mean()) for name, values in terms.items()}
    total = sum(
        getattr(config, weight) * breakdown[name] for name, (weight, _) in TERMS.items()
    )
    breakdown["total"] = float(total)
    return float(total), breakdown


def total_loss(ref_map, tgt_map, batch, config) -> tuple[float, dict]:
    """Weighted sum of the four per-term means, with the breakdown."""
    return _breakdown(batch_terms(ref_map, tgt_map, batch, config), config)


# ---------------------------------------------------------------------------
# Finite-difference training gradient.
# ---------------------------------------------------------------------------


def _with_channel(unbumped, moved):
    """(2, 4, d, N, D, ...) copies of the unbumped rows (N, D, ...), each
    bump's channel c replaced by ``moved[:, :, c]`` (2, 4, d, N, ...)."""
    out = np.broadcast_to(unbumped, moved.shape[:3] + unbumped.shape).copy()
    for c in range(moved.shape[2]):
        out[:, :, c, :, c] = moved[:, :, c]
    return out


def loss_gradient_fd(
    f_refs,
    params: np.ndarray,
    batches,
    config: LossConfig,
    step: float = FD_STEP,
) -> tuple[np.ndarray, list]:
    """Each pair's ``total_loss`` and the sum of their central-difference
    gradients w.r.t. target map cells, in one pass.

    Pair p has the batch ``batches[p]`` and the reference features
    ``f_refs[p]`` (n_p, D) at its ``ref_uv``; all pairs read one target
    map, whose float64 master copy is ``params``. The loss is evaluated on
    the float32 FeatureMap cast of it, so every bumped corner value is cast
    to float32 too: each difference measures the same perturbation as
    rebuilding the map around the bumped cell would.

    Returns ``(grad, losses)``. ``losses[p]`` is pair p's ``(total,
    breakdown)``, bit for bit ``total_loss``'s, from the unbumped rows.
    ``grad`` is bit for bit the in-order sum of one-pair calls: each row's
    difference is scaled by its own pair's 1 / n_p and lands in its pair's
    plane of a (pairs, h, w, d) array, so each cell sums its contributions
    term by term, corner by corner, then row by row, as with that pair alone.

    The pairs' N rows are stacked, so each term's target stencil is
    gathered once. Per bumped cell, only the loss terms whose stencil
    contains that cell are re-evaluated; terms elsewhere cancel in the
    central difference. A (sign, corner, channel) bump changes only that
    channel of each row's interpolated value and gradient, so only that
    channel is re-interpolated, from (2, 4, d, N, 4) bumped corners. Its
    values come from ``feature_maps._corner_sum``, the einsum's bits from
    two channels on, and from ``Stencil.values()``' einsum itself at one
    channel, where the two add the corners in different orders; its
    gradients from ``Stencil.gradients()``, which is elementwise. The
    unbumped rows' other channels are copied in around it, and every
    weighted term is evaluated once by ``_term`` over all 8 * d bumps.
    """
    params = np.asarray(params, dtype=np.float64)
    h, w, d = params.shape
    sizes = [len(batch) for batch in batches]
    batch = CorrespondenceBatch(**{
        name: np.concatenate([getattr(b, name) for b in batches])
        for name in CorrespondenceBatch.__dataclass_fields__
    })
    f_ref = np.concatenate(f_refs)
    pair = np.repeat(np.arange(len(sizes)), sizes)
    # 2 * step * n_p per row, as one pair's scalar divisor.
    scale = 2.0 * step * np.repeat(sizes, sizes)
    # Flat (pair, row, column, channel) index and value of every
    # contribution, term by term, each in (corner, channel, row) order;
    # the empty heads stand in when every weight is zero.
    slots, contribs = [np.empty(0, dtype=np.intp)], [np.empty(0)]

    tgt_map = FeatureMap(params)
    corner = np.arange(4)[:, None]
    chan = np.arange(d)[None, :]
    terms = {}
    for name, (weight_field, field) in TERMS.items():
        st = gather_stencil(tgt_map, getattr(batch, field))
        values, jac = _samples(st, name)
        terms[name] = _term(name, values, jac, f_ref, batch, config)
        weight = getattr(config, weight_field)
        if weight == 0.0:
            continue
        # Flat cell of each corner, (4, N) in Stencil corner order.
        cells = st.iv0 * w + st.iu0 + np.array([0, 1, w, w + 1])[:, None]
        # (corner, channel, row), as ``contrib`` and ``slot`` below.
        base = params.reshape(h * w, d).take(cells, axis=0).transpose(0, 2, 1)
        # bumped[s, k, c] holds channel c's corners of every row with corner
        # k moved up (s = 0) or down (s = 1) by the step.
        corners = st.corners.transpose(2, 0, 1)  # (channel, row, corner)
        bumped = np.broadcast_to(corners, (2, 4) + corners.shape).copy()
        bumped[0, corner, chan, :, corner] = np.float32(base + step)
        bumped[1, corner, chan, :, corner] = np.float32(base - step)
        moved = Stencil(bumped[..., None], st.fu, st.fv, st.iu0, st.iv0)
        if d == 1:
            # The einsum adds the corners of one channel in its own order.
            moved_values = moved.values()[..., 0]
        else:
            weights = _corner_weights(st.fu, st.fv, np.empty((4, st.fu.size)))
            moved_values = _corner_sum(weights, np.moveaxis(bumped, -1, 0))
        # Each bump's rows: the unbumped rows with its one channel replaced.
        stack_values = _with_channel(values, moved_values)
        stack_jac = None if jac is None else _with_channel(jac, moved.gradients()[..., 0, :])
        bumps = _term(name, stack_values, stack_jac, f_ref, batch, config)
        contrib = weight * (bumps[0] - bumps[1]) / scale
        slot = ((pair * (h * w) + cells) * d)[:, None, :] + chan[:, :, None]
        contribs.append(contrib.reshape(-1))
        slots.append(slot.reshape(-1))

    # bincount adds each slot's values in the order given, from +0.0, so
    # every cell sums its contributions term by term, corner by corner,
    # then row by row.
    grads = np.bincount(
        np.concatenate(slots), np.concatenate(contribs), minlength=len(sizes) * params.size
    ).reshape((len(sizes),) + params.shape)
    grad = np.zeros_like(params)
    for plane in grads:
        grad += plane
    ends = np.cumsum(sizes)
    losses = [
        _breakdown({name: values[end - n:end] for name, values in terms.items()}, config)
        for n, end in zip(sizes, ends)
    ]
    return grad, losses
