"""Dense feature maps, bilinear sampling, pyramids, and their file format.

Feature maps store (h, w, D) float32 grids; all sampling arithmetic runs in
float64. Sampling uses the convention that integer coordinates sit exactly
on grid nodes, so a query at (u, v) = (3.0, 7.0) returns the stored value
bit-for-bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

# Interpolation is defined on [1, w-2] x [1, h-2]; one pixel is kept free on
# each side so gradient lookups next to a query never leave the grid.
SAMPLE_MARGIN = 1.0

FMAP_MAGIC = b"FMAP"
FMAP_VERSION = 1

PYRAMID_LEVELS = 4


class FeatureMapError(ValueError):
    """Base class for feature map failures."""


class SampleOutOfBoundsError(FeatureMapError):
    """Raised when sampling outside the interpolation margins."""


class FeatureFileError(FeatureMapError):
    """Raised for malformed feature map files."""


@dataclass(frozen=True)
class FeatureMap:
    """Immutable dense feature grid of shape (h, w, D)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        if vals.ndim == 2:
            vals = vals[:, :, None]
        if vals.ndim != 3 or vals.shape[2] < 1:
            raise FeatureMapError(f"feature map must be (h, w, d) with d >= 1, got {vals.shape}")
        # Checked after the cast, so values past the float32 range fail too.
        with np.errstate(over="ignore"):
            vals = np.ascontiguousarray(vals, dtype=np.float32)
        if not np.all(np.isfinite(vals)):
            raise FeatureMapError("feature map contains non-finite or out-of-float32-range values")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


class FeaturePyramid:
    """Four feature maps, coarse to fine, with 2x size steps.

    Level 4 is full resolution; level l has dimensions divided by 2**(4-l).
    """

    def __init__(self, levels: list[FeatureMap] | tuple[FeatureMap, ...]):
        levels = tuple(levels)
        if len(levels) != PYRAMID_LEVELS:
            raise FeatureMapError(f"pyramid needs {PYRAMID_LEVELS} levels, got {len(levels)}")
        fine = levels[-1]
        for i, lvl in enumerate(levels):
            scale = 2 ** (PYRAMID_LEVELS - 1 - i)
            if lvl.height * scale != fine.height or lvl.width * scale != fine.width:
                raise FeatureMapError(
                    f"level {i + 1} is {lvl.height}x{lvl.width}, expected "
                    f"{fine.height // scale}x{fine.width // scale}"
                )
            if lvl.channels != fine.channels:
                raise FeatureMapError(f"level {i + 1} channel count differs")
        self._levels = levels

    def level(self, index: int) -> FeatureMap:
        if index not in (1, 2, 3, 4):
            raise FeatureMapError(f"pyramid level must be 1..4, got {index}")
        return self._levels[index - 1]

    @property
    def levels(self) -> tuple[FeatureMap, ...]:
        return self._levels

    @property
    def channels(self) -> int:
        return self._levels[0].channels


@dataclass
class Stencil:
    """Bilinear interpolation footprint for a batch of query points.

    ``corners`` holds the four cell values per query in the order
    (u0,v0), (u1,v0), (u0,v1), (u1,v1), cast to float64. Leading stack
    dimensions of ``corners`` share the per-row ``fu`` and ``fv`` and stay
    in front of ``values()`` and ``gradients()``.
    """

    corners: np.ndarray  # (..., n, 4, D)
    fu: np.ndarray  # (n,)
    fv: np.ndarray  # (n,)
    iu0: np.ndarray  # (n,) int
    iv0: np.ndarray  # (n,) int

    def values(self) -> np.ndarray:
        """Interpolated values, (..., n, D).

        ``_corner_weights`` writes the four corner products straight into
        the columns of one C-ordered (n, 4) array, the bytes ``np.stack``
        of the products gives, and the einsum ``nc,...ncd->...nd`` sums
        the corners with them. The einsum's sums follow the weights'
        memory layout, so they stay (n, 4) C-ordered: the same numbers
        read from a (4, n) array change last bits.
        """
        weights = np.empty((self.fu.shape[0], 4))
        _corner_weights(self.fu, self.fv, weights.T)
        return np.einsum("nc,...ncd->...nd", weights, self.corners)

    def gradients(self) -> np.ndarray:
        """Interpolant gradients d(value)/d(u, v), (..., n, D, 2).

        ``du = (1 - fv) (c1 - c0) + fv (c3 - c2)`` and ``dv = (1 - fu) (c2 -
        c0) + fu (c3 - c1)``, each added straight into its half of one
        output array: ``np.stack([du, dv], axis=-1)``'s bytes.
        """
        fu, fv = self.fu[:, None], self.fv[:, None]
        c0, c1, c2, c3 = (self.corners[..., k, :] for k in range(4))
        out = np.empty(c0.shape + (2,))
        np.add((1.0 - fv) * (c1 - c0), fv * (c3 - c2), out=out[..., 0])
        np.add((1.0 - fu) * (c2 - c0), fu * (c3 - c1), out=out[..., 1])
        return out


def _cells(
    u: np.ndarray, v: np.ndarray, width: int, height: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cell ``(iu0, iv0)`` and in-cell fractions ``(fu, fv)`` of float64
    pixel coordinates in [0, width-1] x [0, height-1]: the one home of the
    bilinear floor, clamp and fraction. The coordinates are not negative,
    so the integer cast's truncation is their floor."""
    iu0 = u.astype(np.intp)
    iv0 = v.astype(np.intp)
    # Keep the +1 neighbour on-grid when a query sits exactly on the last
    # interior node.
    np.minimum(iu0, width - 2, out=iu0)
    np.minimum(iv0, height - 2, out=iv0)
    return iu0, iv0, u - iu0, v - iv0


def _corner_weights(fu: np.ndarray, fv: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the four bilinear corner weights at cell fractions (fu, fv)
    into ``out[0]`` .. ``out[3]``, in Stencil corner order, and return
    ``out``: the one home of their products."""
    gu = 1.0 - fu
    gv = 1.0 - fv
    np.multiply(gu, gv, out=out[0])
    np.multiply(fu, gv, out=out[1])
    np.multiply(gu, fv, out=out[2])
    np.multiply(fu, fv, out=out[3])
    return out


def _corner_sum(weights, corners) -> np.ndarray:
    """The bilinear value ``((w0 c0 + w1 c1) + w2 c2) + w3 c3`` of four
    corner weights and four corner arrays, in Stencil corner order, each
    product added in turn into a fresh array. ``corners`` may be any
    iterable, so a caller can read each corner as the sum needs it.

    For corners with two or more channels this is ``Stencil.values()``'
    einsum bit for bit, so one channel of a stencil can be interpolated
    alone: the seed grid reads the target a plane at a time
    (``lm_align._valid_norms``), and a training-gradient bump moves one
    channel (``losses.loss_gradient_fd``). At one channel the einsum adds
    the corners in another order, so a caller that must match it there
    keeps the einsum.
    """
    pairs = zip(weights, corners)
    weight, corner = next(pairs)
    out = weight * corner
    for weight, corner in pairs:
        out += weight * corner
    return out


def in_margins(uv: np.ndarray, width: int, height: int, margin: float) -> np.ndarray:
    """Mask of (..., 2) pixel positions at least ``margin`` inside a width x height grid.

    Bounds are inclusive: ``margin <= u <= width - 1 - margin``, likewise
    for ``v``. NaN positions are outside.
    """
    inside = (uv >= margin) & (uv <= (width - 1 - margin, height - 1 - margin))
    return inside[..., 0] & inside[..., 1]


def gather_stencil(fmap: FeatureMap, queries: np.ndarray) -> Stencil:
    """Fetch interpolation corners for queries inside the margins."""
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 2)
    h, w = fmap.height, fmap.width
    inside = in_margins(q, w, h, SAMPLE_MARGIN)
    if not inside.all():
        i = int(np.argmin(inside))
        raise SampleOutOfBoundsError(
            f"query ({q[i, 0]:.3f}, {q[i, 1]:.3f}) outside margins of {w}x{h} map"
        )
    return _stencil(fmap.values, q[:, 0], q[:, 1])


def _stencil(values: np.ndarray, u: np.ndarray, v: np.ndarray) -> Stencil:
    """Stencil of (h, w, D) ``values`` at (n,) float64 query coordinates
    ``(u, v)`` in [0, w-1] x [0, h-1].

    The stencil core, shared by ``gather_stencil``, the solver's residuals and
    ``synth.warp_scene``. Its cells come from ``_cells`` and its values'
    weights from ``_corner_weights``, which the seed grid's per-plane reads
    (``lm_align._valid_norms``) share.
    """
    h, w = values.shape[:2]
    iu0, iv0, fu, fv = _cells(u, v, w, h)
    # Flat cell ids of the four corners, in Stencil corner order.
    cells = (iv0 * w + iu0)[:, None] + (0, 1, w, w + 1)
    # take copies the same bytes as ``flat[cells]`` far faster.
    corners = values.reshape(h * w, -1).take(cells, axis=0).astype(np.float64)
    return Stencil(corners=corners, fu=fu, fv=fv, iu0=iu0, iv0=iv0)


# ---------------------------------------------------------------------------
# Baseline pyramid construction.
# ---------------------------------------------------------------------------


def area_downsample(image: np.ndarray) -> np.ndarray:
    """Halve both dimensions by averaging 2x2 blocks."""
    h, w = image.shape
    if h % 2 or w % 2:
        raise FeatureMapError(f"cannot halve odd dimensions {h}x{w}")
    return image.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def _gradient_magnitude(image: np.ndarray) -> np.ndarray:
    gy, gx = np.gradient(image)
    return np.sqrt(gx * gx + gy * gy)


def _level_channels(image: np.ndarray) -> np.ndarray:
    """Intensity and gradient magnitude, each standardized to zero mean, unit std."""
    stack = []
    for chan in (image, _gradient_magnitude(image)):
        std = float(chan.std())
        stack.append((chan - chan.mean()) / max(std, 1e-12))
    return np.stack(stack, axis=2)


def build_baseline_pyramid(image: np.ndarray) -> FeaturePyramid:
    """Four-level pyramid of intensity and gradient-magnitude channels.

    The image is area-downsampled 2x per level; channels are computed on
    each level's own grid and then standardized independently, so coarse
    levels are not simple averages of fine-level features. Images whose
    dimensions are not multiples of 8 are reflect-padded up.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise FeatureMapError(f"pyramid input must be 2-D, got shape {img.shape}")
    h, w = img.shape
    if h < 8 or w < 8:
        raise FeatureMapError(f"image {w}x{h} too small for a 4-level pyramid")
    pad_h = (-h) % 8
    pad_w = (-w) % 8
    if pad_h or pad_w:
        img = np.pad(img, ((0, pad_h), (0, pad_w)), mode="reflect")

    finest = img
    per_level = [finest]
    for _ in range(PYRAMID_LEVELS - 1):
        finest = area_downsample(finest)
        per_level.append(finest)
    per_level.reverse()  # coarse first
    return FeaturePyramid([FeatureMap(_level_channels(lvl)) for lvl in per_level])


# ---------------------------------------------------------------------------
# FMAP binary format.
#
# Layout (little-endian):
#   magic "FMAP" | u32 version | u32 level_count |
#   per level: u32 height | u32 width | u32 channels | h*w*d float32
# Data is row-major with channel fastest: (row, col, channel).
# ---------------------------------------------------------------------------


def save_feature_maps(path: str, maps: list[FeatureMap] | tuple[FeatureMap, ...]) -> None:
    with open(path, "wb") as fh:
        fh.write(FMAP_MAGIC)
        fh.write(struct.pack("<II", FMAP_VERSION, len(maps)))
        for m in maps:
            fh.write(struct.pack("<III", m.height, m.width, m.channels))
            fh.write(np.ascontiguousarray(m.values, dtype="<f4").tobytes())


def load_feature_maps(path: str) -> list[FeatureMap]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != FMAP_MAGIC:
        raise FeatureFileError(f"bad magic {data[:4]!r}, expected {FMAP_MAGIC!r}")
    if len(data) < 12:
        raise FeatureFileError("truncated header")
    version, count = struct.unpack_from("<II", data, 4)
    if version != FMAP_VERSION:
        raise FeatureFileError(f"unsupported version {version}")
    offset = 12
    maps = []
    for i in range(count):
        if offset + 12 > len(data):
            raise FeatureFileError(f"truncated level header at level {i + 1}")
        h, w, d = struct.unpack_from("<III", data, offset)
        offset += 12
        nbytes = h * w * d * 4
        if offset + nbytes > len(data):
            raise FeatureFileError(f"truncated data at level {i + 1}")
        vals = np.frombuffer(data, dtype="<f4", count=h * w * d, offset=offset)
        offset += nbytes
        maps.append(FeatureMap(vals.reshape(h, w, d).copy()))
    if offset != len(data):
        raise FeatureFileError(f"{len(data) - offset} trailing bytes after last level")
    return maps


def save_feature_pyramid(path: str, pyramid: FeaturePyramid) -> None:
    save_feature_maps(path, pyramid.levels)


def load_feature_pyramid(path: str) -> FeaturePyramid:
    maps = load_feature_maps(path)
    try:
        return FeaturePyramid(maps)
    except FeatureMapError as exc:
        raise FeatureFileError(str(exc)) from exc
