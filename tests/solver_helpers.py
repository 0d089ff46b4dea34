"""Solver helpers that only the tests call, kept out of ``featalign``.

Besides ``damp`` and ``kernel_inputs``, this module keeps the earlier formulas of the LM
iteration's kernels, and of the training gradient, as oracles: each is
written the way the kernel computed it before its NumPy calls were cut, and
the kernel must still return its bytes.
"""

import numpy as np

from featalign.feature_maps import FeatureMap, Stencil, gather_stencil
from featalign.geometry import Z_MIN
from featalign.lm_align import _damping_matrix, _level_inputs
from featalign.losses import FD_STEP, TERMS, CorrespondenceBatch, _breakdown, _term


def damp(h: np.ndarray, lam: float, mode: str) -> np.ndarray:
    """Apply damping: H + lam * I (levenberg) or H + lam * diag(H) (marquardt),
    the damped system ``align_level`` solves."""
    return h + lam * _damping_matrix(h, mode)


def kernel_inputs(tgt: FeatureMap, ref_vals: np.ndarray, intrinsics):
    """``_level_inputs`` of the target map ``tgt`` with the (n, D) reference
    samples ``ref_vals``: what the residual kernel reads, without a
    reference map or points."""
    level = _level_inputs(tgt, tgt, np.zeros((0, 2)), np.zeros(0), intrinsics)
    return level._replace(ref=np.ascontiguousarray(ref_vals.T))


def normal_equations_oracle(jac, residuals, weights):
    """H = J'WJ and b = -J'Wr as three-operand einsums."""
    h = np.einsum("ncx,n,ncy->xy", jac, weights, jac)
    b = -np.einsum("ncx,n,nc->x", jac, weights, residuals)
    return h, b


def marquardt_matrix_oracle(h):
    """diag(H), floored at 1e-12, through ``np.diag``."""
    return np.diag(np.maximum(np.diag(h), 1e-12))


def twist_jacobian_oracle(transformed, intrinsics):
    """dPi/dY @ [I | -skew(Y)] as one matmul of two zero-filled factors."""
    pts = np.asarray(transformed, dtype=np.float64).reshape(-1, 3)
    n = pts.shape[0]
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    fx, fy = intrinsics.fx, intrinsics.fy
    dpi = np.zeros((n, 2, 3))
    dpi[:, 0, 0] = fx / z
    dpi[:, 0, 2] = -fx * x / z**2
    dpi[:, 1, 1] = fy / z
    dpi[:, 1, 2] = -fy * y / z**2
    dpoint = np.zeros((n, 3, 6))
    dpoint[:, 0, 0] = 1.0
    dpoint[:, 1, 1] = 1.0
    dpoint[:, 2, 2] = 1.0
    dpoint[:, 0, 4] = z
    dpoint[:, 0, 5] = -y
    dpoint[:, 1, 3] = -z
    dpoint[:, 1, 5] = x
    dpoint[:, 2, 3] = y
    dpoint[:, 2, 4] = -x
    return dpi @ dpoint


def stencil_values_oracle(stencil):
    """Bilinear values with the (n, 4) weights filled column by column."""
    fu, fv = stencil.fu, stencil.fv
    gu, gv = 1.0 - fu, 1.0 - fv
    weights = np.empty((fu.shape[0], 4))
    weights[:, 0], weights[:, 1], weights[:, 2], weights[:, 3] = (
        gu * gv, fu * gv, gu * fv, fu * fv
    )
    return np.einsum("nc,...ncd->...nd", weights, stencil.corners)


def stencil_gradients_oracle(stencil):
    """Bilinear gradients (du, dv) joined by ``np.stack``."""
    fu, fv = stencil.fu[:, None], stencil.fv[:, None]
    c0, c1, c2, c3 = (stencil.corners[..., k, :] for k in range(4))
    du = (1.0 - fv) * (c1 - c0) + fv * (c3 - c2)
    dv = (1.0 - fu) * (c2 - c0) + fu * (c3 - c1)
    return np.stack([du, dv], axis=-1)


def cells_oracle(u, v, width, height):
    """Bilinear cells through ``np.floor`` before the integer cast."""
    iu0 = np.floor(u).astype(np.intp)
    iv0 = np.floor(v).astype(np.intp)
    np.minimum(iu0, width - 2, out=iu0)
    np.minimum(iv0, height - 2, out=iv0)
    return iu0, iv0, u - iu0, v - iv0


def project_planes_oracle(usable, x, y, z, intrinsics, margin):
    """Pixels and validity of coordinate planes, one temporary per step."""
    front = z > Z_MIN
    zsafe = np.where(front, z, 1.0)
    valid = usable & front
    u = intrinsics.fx * x / zsafe + intrinsics.cx
    v = intrinsics.fy * y / zsafe + intrinsics.cy
    valid &= (u >= margin) & (u <= intrinsics.width - 1 - margin)
    valid &= (v >= margin) & (v <= intrinsics.height - 1 - margin)
    return u, v, valid


def loss_gradient_fd_oracle(f_refs, params, batches, config, step=FD_STEP):
    """``losses.loss_gradient_fd`` with every channel of every bump
    re-interpolated: the (sign, corner, channel) bumps stack ahead of the
    rows of one (2, 4, d, N, 4, D) stencil, whose ``values()`` and
    ``gradients()`` feed ``_term``, and ``np.add.at`` scatters the
    differences into per-pair planes."""
    params = np.asarray(params, dtype=np.float64)
    d = params.shape[2]
    sizes = [len(batch) for batch in batches]
    batch = CorrespondenceBatch(**{
        name: np.concatenate([getattr(b, name) for b in batches])
        for name in CorrespondenceBatch.__dataclass_fields__
    })
    f_ref = np.concatenate(f_refs)
    pair = np.repeat(np.arange(len(sizes)), sizes)
    scale = 2.0 * step * np.repeat(sizes, sizes)
    grads = np.zeros((len(sizes),) + params.shape)

    tgt_map = FeatureMap(params)
    corner = np.arange(4)[:, None]
    chan = np.arange(d)[None, :]
    terms = {}
    for name, (weight_field, field) in TERMS.items():
        st = gather_stencil(tgt_map, getattr(batch, field))
        terms[name] = _term(name, st.values(), st.gradients(), f_ref, batch, config)
        weight = getattr(config, weight_field)
        if weight == 0.0:
            continue
        iv = st.iv0[:, None] + (0, 0, 1, 1)
        iu = st.iu0[:, None] + (0, 1, 0, 1)
        base = params[iv, iu].transpose(1, 2, 0)  # (corner, channel, row)
        bumped = np.broadcast_to(st.corners, (2, 4, d) + st.corners.shape).copy()
        bumped[0, corner, chan, :, corner, chan] = np.float32(base + step)
        bumped[1, corner, chan, :, corner, chan] = np.float32(base - step)
        stacked = Stencil(bumped, st.fu, st.fv, st.iu0, st.iv0)
        values = _term(name, stacked.values(), stacked.gradients(), f_ref, batch, config)
        contrib = weight * (values[0] - values[1]) / scale
        np.add.at(grads, (pair, iv.T[:, None, :], iu.T[:, None, :], chan[:, :, None]), contrib)

    grad = np.zeros_like(params)
    for plane in grads:
        grad += plane
    ends = np.cumsum(sizes)
    losses = [
        _breakdown({name: values[end - n:end] for name, values in terms.items()}, config)
        for n, end in zip(sizes, ends)
    ]
    return grad, losses
