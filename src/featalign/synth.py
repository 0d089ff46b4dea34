"""Synthetic ground-truth harness: scenes, warped pairs, benchmark datasets.

The scene texture plays the role of the target image; the reference view
is synthesized by sampling that texture at forward-warped positions through
the solver's own ``warp_points`` and its one bilinear stencil core
(``feature_maps._stencil``, behind ``gather_stencil``). At the true pose
the solver warps the sparse points through the same function, so their
target positions are the same bits as those the reference was sampled at.
The energy there is not zero but the float32 rounding of the stored
reference samples: 1.7e-14 to 4.9e-14 per level on ``test_synth``'s three
pairs, below the 1e-9 its ground-truth test checks. Feature pyramids for
benchmark pairs repeat this construction per level, and sparse points are
kept on a stride-8 lattice so their coordinates stay integral at every
pyramid scale.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .configfile import check_finite, dataclass_from_mapping
from .feature_maps import (
    FeatureMap,
    FeaturePyramid,
    PYRAMID_LEVELS,
    _stencil,
    build_baseline_pyramid,
    gather_stencil,
    in_margins,
    load_feature_pyramid,
    save_feature_pyramid,
)
from .geometry import (
    CameraIntrinsics,
    SE3Pose,
    load_pose_text,
    save_pose_text,
    se3_exp,
    warp_points,
)
from .lm_align import SparsePointSet, load_points_text, save_points_text

MANIFEST_SCHEMA_VERSION = 1

# Mean-flow brackets (pixels at full resolution) per perturbation class.
# Lower bounds keep the classes disjoint so class-conditional statistics
# are meaningful; "zero" always maps to the identity pose.
FLOW_CLASSES = {
    "small": (0.5, 2.0),
    "medium": (4.0, 8.0),
    "large": (16.0, 24.0),
}

# Uniform twist boxes the rejection sampler draws from, scaled per class:
# (|t_xy| bound, |t_z| bound, |rotation| bound in radians).
_TWIST_BOXES = {
    "small": (0.08, 0.10, 0.012),
    "medium": (0.30, 0.38, 0.045),
    "large": (0.90, 1.10, 0.13),
}

_ZBUF_REL_EPS = 1e-3
# A pose must leave at least this fraction of reference pixels valid.
_MIN_VALID_FRACTION = 0.5
# Grid stride, in pixels, of the mean-flow estimate.
_FLOW_STRIDE = 4
# Draws before the pose sampler gives up on a flow class.
_POSE_TRIES = 2000
_POINT_LATTICE_STRIDE = 8
# In-frame test slack: identity warps land on integers only up to roundoff,
# and edge pixels must not flicker invalid over a quarter-ulp excursion.
_EDGE_EPS = 1e-9


class SynthError(Exception):
    pass


class GradientCoverageError(SynthError):
    """Scene texture too flat: gradient coverage below the configured floor."""


class LowOverlapError(SynthError):
    """Pose leaves fewer than the required fraction of pixels valid."""


class PoseSampleError(SynthError):
    pass


class DatasetError(SynthError):
    pass


class TooFewPointsError(SynthError):
    """Fewer than 8 sparse points clear the gradient threshold and margins."""


@dataclass(frozen=True)
class SceneConfig:
    height: int = 96
    width: int = 128
    depth_min: float = 1.0
    depth_max: float = 10.0
    octaves: int = 4
    texture_contrast: float = 1.0
    depth_slant: float = 0.35
    depth_noise: float = 0.12
    depth_discontinuity: bool = False
    fx: float = 96.0
    fy: float = 96.0
    gradient_floor: float = 0.01
    gradient_coverage_min: float = 0.30

    def __post_init__(self):
        if self.height % 8 or self.width % 8:
            raise SynthError("scene dims must be multiples of 8")
        if not 0.0 < self.depth_min < self.depth_max:
            raise SynthError("need 0 < depth_min < depth_max")
        if self.octaves < 0:
            raise SynthError("octaves must be non-negative")

    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(
            fx=self.fx,
            fy=self.fy,
            cx=self.width / 2.0,
            cy=self.height / 2.0,
            width=self.width,
            height=self.height,
        )

    @classmethod
    def from_mapping(cls, mapping) -> "SceneConfig":
        return dataclass_from_mapping(cls, mapping, SynthError, "scene")


@dataclass(frozen=True)
class SyntheticScene:
    """A textured plane-ish surface seen from the reference camera.

    ``texture`` is the appearance as seen from the warped (target) viewpoint;
    ``depth`` assigns a depth to every reference pixel.
    """

    texture: np.ndarray
    depth: np.ndarray
    intrinsics: CameraIntrinsics
    seed: int

    def __post_init__(self):
        if self.texture.shape != self.depth.shape:
            raise SynthError("texture and depth shapes differ")
        if not np.all(self.depth > 0.0):
            raise SynthError("all scene depths must be positive")


@dataclass(frozen=True)
class WarpedView:
    """Reference-grid output of warping a scene to a new viewpoint."""

    image: np.ndarray           # (h, w) synthesized reference intensities
    valid: np.ndarray           # (h, w) bool: warp in-frame and unoccluded
    correspondence: np.ndarray  # (h, w, 2) target pixel for each ref pixel


@dataclass(frozen=True)
class BenchmarkPair:
    ref_pyramid: FeaturePyramid
    tgt_pyramid: FeaturePyramid
    points: SparsePointSet
    gt_pose: SE3Pose
    correspondence: np.ndarray
    valid: np.ndarray
    magnitude_class: str
    intrinsics: CameraIntrinsics
    seed: int


@dataclass(frozen=True)
class PhotometricParams:
    """Global appearance perturbation: out = a * I**gamma + b + noise(sigma)."""

    a: float = 1.0
    b: float = 0.0
    sigma: float = 0.0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        check_finite(self, SynthError)

    def is_identity(self) -> bool:
        return self.a == 1.0 and self.b == 0.0 and self.sigma == 0.0 and self.gamma == 1.0


def _value_noise(rng, height, width, spacing, amplitude):
    """One octave of bilinearly interpolated lattice noise."""
    gh = height // spacing + 2
    gw = width // spacing + 2
    lattice = rng.uniform(-1.0, 1.0, size=(gh, gw))
    v = np.arange(height)[:, None] / spacing
    u = np.arange(width)[None, :] / spacing
    iv = np.floor(v).astype(int)
    iu = np.floor(u).astype(int)
    fv = v - iv
    fu = u - iu
    c00 = lattice[iv, iu]
    c10 = lattice[iv, iu + 1]
    c01 = lattice[iv + 1, iu]
    c11 = lattice[iv + 1, iu + 1]
    top = c00 * (1 - fu) + c10 * fu
    bot = c01 * (1 - fu) + c11 * fu
    return amplitude * (top * (1 - fv) + bot * fv)


def generate_scene(rng, config: SceneConfig | None = None, seed: int = 0) -> SyntheticScene:
    """Multi-octave value-noise texture over a smooth slanted depth field.

    Raises GradientCoverageError when the texture's gradient magnitude
    clears the floor on less than the configured fraction of pixels, so
    degenerate scenes are reported instead of silently producing
    unalignable pairs.
    """
    cfg = config or SceneConfig()
    h, w = cfg.height, cfg.width

    texture = np.zeros((h, w))
    for octave in range(cfg.octaves):
        spacing = max(4, 2 ** (cfg.octaves - octave + 1))
        texture += _value_noise(rng, h, w, spacing, amplitude=0.5 ** octave)
    span = texture.max() - texture.min()
    if span > 0:
        texture = (texture - texture.min()) / span
    texture = 0.5 + cfg.texture_contrast * (texture - 0.5)

    gy, gx = np.gradient(texture)
    coverage = float(np.mean(np.hypot(gx, gy) > cfg.gradient_floor))
    if coverage < cfg.gradient_coverage_min:
        raise GradientCoverageError(
            f"gradient coverage {coverage:.3f} below required "
            f"{cfg.gradient_coverage_min:.3f}"
        )

    depth_span = cfg.depth_max - cfg.depth_min
    base = 0.5 * (cfg.depth_min + cfg.depth_max)
    kx, ky = rng.uniform(-1.0, 1.0, size=2) * cfg.depth_slant * depth_span
    uu = (np.arange(w)[None, :] / w) - 0.5
    vv = (np.arange(h)[:, None] / h) - 0.5
    depth = base + kx * uu + ky * vv
    depth = depth + _value_noise(rng, h, w, 16, 0.5 * cfg.depth_noise * depth_span)
    if cfg.depth_discontinuity:
        v0, u0 = rng.integers(h // 4, h // 2), rng.integers(w // 4, w // 2)
        depth[v0 : v0 + h // 3, u0 : u0 + w // 3] += rng.uniform(0.2, 0.4) * depth_span
    depth = np.clip(depth, cfg.depth_min, cfg.depth_max)

    return SyntheticScene(
        texture=texture, depth=depth, intrinsics=cfg.intrinsics(), seed=seed
    )


def pixel_grid(height: int, width: int, stride: int = 1) -> np.ndarray:
    """(n, 2) float64 (u, v) of every ``stride``-th pixel of a grid, row-major."""
    vv, uu = np.mgrid[0:height:stride, 0:width:stride]
    return np.stack([uu.ravel(), vv.ravel()], axis=1).astype(np.float64)


def warp_scene(scene: SyntheticScene, pose: SE3Pose) -> WarpedView:
    """Forward-warp every reference pixel and synthesize the reference view.

    Occlusions are resolved with a z-buffer over rounded target cells: a
    pixel whose transformed depth exceeds the front-most depth landing in
    the same cell (beyond a relative epsilon) is marked invalid. Valid
    pixels read the texture at their warped position through the solver's
    bilinear stencil core. Raises LowOverlapError when fewer than half of
    the pixels survive, signalling the caller to draw a different pose.
    """
    h, w = scene.texture.shape
    # A pixel is valid anywhere inside the frame (plus roundoff slack);
    # interpolation margins are the solver's concern, not synthesis's.
    warped, valid, transformed = warp_points(
        pixel_grid(h, w), scene.depth.ravel(), pose, scene.intrinsics, margin=-_EDGE_EPS
    )

    # Z-buffer pass over target cells to mark occluded reference pixels.
    z = transformed[:, 2]
    cells_u = np.clip(np.rint(warped[:, 0]).astype(int), 0, w - 1)
    cells_v = np.clip(np.rint(warped[:, 1]).astype(int), 0, h - 1)
    flat = cells_v * w + cells_u
    zbuf = np.full(h * w, np.inf)
    np.minimum.at(zbuf, flat[valid], z[valid])
    occluded = valid & (z > zbuf[flat] * (1.0 + _ZBUF_REL_EPS))
    valid = valid & ~occluded

    fraction = float(valid.mean())
    if fraction < _MIN_VALID_FRACTION:
        raise LowOverlapError(
            f"only {fraction:.2f} of pixels valid, need {_MIN_VALID_FRACTION:.2f}"
        )

    image = np.zeros(h * w)
    # Valid pixels reach _EDGE_EPS below 0; the stencil core clamps only the high edges.
    queries = np.maximum(warped[valid], 0.0)
    image[valid] = _stencil(scene.texture[:, :, None], queries).values()[:, 0]
    return WarpedView(
        image=image.reshape(h, w),
        valid=valid.reshape(h, w),
        correspondence=warped.reshape(h, w, 2),
    )


def mean_flow(scene: SyntheticScene, pose: SE3Pose) -> float:
    """Mean pixel displacement induced by a pose over a subsampled grid."""
    h, w = scene.texture.shape
    uv = pixel_grid(h, w, _FLOW_STRIDE)
    depths = scene.depth[::_FLOW_STRIDE, ::_FLOW_STRIDE].ravel()
    warped, valid, _ = warp_points(uv, depths, pose, scene.intrinsics)
    if not valid.any():
        return float("inf")
    return float(np.linalg.norm(warped[valid] - uv[valid], axis=1).mean())


def sample_pose_perturbation(rng, magnitude_class: str, scene: SyntheticScene) -> SE3Pose:
    """Draw a pose whose mean induced flow lands in the class bracket.

    Twists are uniform in a per-class box; draws outside the flow bracket
    or with insufficient overlap are rejected and redrawn.
    """
    if magnitude_class == "zero":
        return SE3Pose.identity()
    if magnitude_class not in FLOW_CLASSES:
        raise PoseSampleError(f"unknown magnitude class: {magnitude_class!r}")
    lo, hi = FLOW_CLASSES[magnitude_class]
    t_xy, t_z, rot = _TWIST_BOXES[magnitude_class]
    box = np.array([t_xy, t_xy, t_z, rot, rot, rot])

    for _ in range(_POSE_TRIES):
        twist = rng.uniform(-1.0, 1.0, size=6) * box
        pose = se3_exp(twist)
        flow = mean_flow(scene, pose)
        if not lo < flow <= hi:
            continue
        # warp_scene enforces the overlap precondition; reuse its check.
        try:
            warp_scene(scene, pose)
        except LowOverlapError:
            continue
        return pose
    raise PoseSampleError(
        f"no {magnitude_class}-class pose found in {_POSE_TRIES} draws"
    )


def photometric_perturb(image, params: PhotometricParams, rng=None):
    out = np.asarray(image, dtype=np.float64)
    if params.gamma != 1.0:
        out = np.clip(out, 0.0, None) ** params.gamma
    out = params.a * out + params.b
    if params.sigma > 0.0:
        if rng is None:
            raise SynthError("sigma > 0 requires an rng")
        out = out + params.sigma * rng.standard_normal(out.shape)
    return out


def select_sparse_points(
    image,
    depth,
    n: int,
    rng,
    stride: int = 1,
    mask=None,
    margin: float = 8.0,
):
    """Gradient-weighted sampling of distinct pixel locations.

    Candidates are lattice positions (every ``stride`` pixels) inside the
    border margin whose gradient magnitude clears an adaptive threshold of
    half the image mean. When fewer than ``n`` candidates exist, all of
    them are returned and the point set's warning field says so.
    """
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    if n > 0.1 * h * w:
        raise SynthError("asking for more than 10% of pixels")
    gy, gx = np.gradient(image)
    gradmag = np.hypot(gx, gy)
    threshold = 0.5 * gradmag.mean()

    lattice = pixel_grid(h, w, stride)
    uu, vv = lattice.T.astype(np.intp)
    keep = in_margins(lattice, w, h, margin) & (gradmag[vv, uu] > threshold)
    if mask is not None:
        keep &= np.asarray(mask, dtype=bool)[vv, uu]
    uu, vv = uu[keep], vv[keep]

    warning = None
    if len(uu) < n:
        warning = f"only {len(uu)} candidates above gradient threshold, wanted {n}"
    if len(uu) > n:
        weights = gradmag[vv, uu]
        probs = weights / weights.sum()
        idx = rng.choice(len(uu), size=n, replace=False, p=probs)
        uu, vv = uu[idx], vv[idx]

    uv = np.stack([uu, vv], axis=1).astype(np.float64)
    depths = np.asarray(depth)[vv, uu].astype(np.float64)
    return SparsePointSet(uv=uv, depths=depths, warning=warning)


def exact_reference_pyramid(
    scene: SyntheticScene, pose: SE3Pose, tgt_pyramid: FeaturePyramid
) -> FeaturePyramid:
    """Per-level reference features sampled from the target pyramid.

    Level l of the reference is defined as the target level's features at
    the warped position of each level-l grid point, with depth read at the
    corresponding full-resolution pixel. Points whose full-resolution
    coordinates are multiples of 2**(4-l) then reproduce the solver's
    sampling expression exactly.
    """
    levels = []
    for level_index, tgt_level in enumerate(tgt_pyramid.levels, start=1):
        h_l, w_l, d = tgt_level.height, tgt_level.width, tgt_level.channels
        scale = 2 ** (PYRAMID_LEVELS - level_index)
        k_l = scene.intrinsics.at_level(level_index)
        depths = scene.depth[::scale, ::scale].ravel()
        # warp_points' WARP_MARGIN covers gather_stencil's SAMPLE_MARGIN.
        warped, valid, _ = warp_points(pixel_grid(h_l, w_l), depths, pose, k_l)

        data = np.zeros((h_l * w_l, d), dtype=np.float64)
        data[valid] = gather_stencil(tgt_level, warped[valid]).values()
        levels.append(FeatureMap(data.reshape(h_l, w_l, d)))
    return FeaturePyramid(levels=tuple(levels))


def build_pair(
    scene: SyntheticScene,
    pose: SE3Pose,
    rng,
    magnitude_class: str = "small",
    n_points: int = 64,
    photometric: PhotometricParams | None = None,
    seed: int = 0,
) -> BenchmarkPair:
    """Assemble a benchmark pair with exact ground-truth consistency.

    Without photometric perturbation the energy at the ground-truth pose is
    float32 rounding, about 1e-14, at every pyramid level. Perturbations
    are applied to the target texture only, so the clean-geometry pathway
    stays intact while appearance robustness can be probed.
    """
    view = warp_scene(scene, pose)

    clean_pyramid = tgt_pyramid = build_baseline_pyramid(scene.texture)
    if photometric is not None and not photometric.is_identity():
        tgt_pyramid = build_baseline_pyramid(photometric_perturb(scene.texture, photometric, rng))
    ref_pyramid = exact_reference_pyramid(scene, pose, clean_pyramid)

    # Points must stay clear of every level's margins; the coarsest level
    # shrinks pixel distances by 8, so 16 full-res pixels of slack keeps a
    # 2-pixel cushion even there. Validity of the warped position is taken
    # from the correspondence field at the same cushion.
    h, w = scene.texture.shape
    cushion = 16.0
    warped_inside = view.valid & in_margins(view.correspondence, w, h, cushion)
    points = select_sparse_points(
        view.image,
        scene.depth,
        n_points,
        rng,
        stride=_POINT_LATTICE_STRIDE,
        mask=warped_inside,
        margin=cushion,
    )
    if len(points) < 8:
        raise TooFewPointsError(f"only {len(points)} usable sparse points (need 8 or more)")

    return BenchmarkPair(
        ref_pyramid=ref_pyramid,
        tgt_pyramid=tgt_pyramid,
        points=points,
        gt_pose=pose,
        correspondence=view.correspondence,
        valid=view.valid,
        magnitude_class=magnitude_class,
        intrinsics=scene.intrinsics,
        seed=seed,
    )


@dataclass(frozen=True)
class DatasetConfig:
    out_dir: str
    n_pairs: int = 8
    classes: tuple[str, ...] = ("small", "medium", "large")
    base_seed: int = 0
    n_points: int = 64
    scene: SceneConfig = SceneConfig()
    photometric: PhotometricParams | None = None


def dataset_config_from_mapping(mapping, out_dir: str) -> DatasetConfig:
    """Build a DatasetConfig from config-file strings.

    Dataset-level keys are claimed first (``out_dir`` comes from the command
    line); ``photometric_*`` keys populate the appearance perturbation;
    everything else must be a SceneConfig field (SceneConfig.from_mapping
    rejects strays).
    """
    own, photo, scene = {}, {}, {}
    for key, raw in mapping.items():
        if key in DatasetConfig.__dataclass_fields__ and key != "out_dir":
            own[key] = raw
        elif key.startswith("photometric_"):
            photo[key.removeprefix("photometric_")] = raw
        else:
            scene[key] = raw
    base = DatasetConfig(
        out_dir=out_dir,
        scene=SceneConfig.from_mapping(scene),
        photometric=(
            dataclass_from_mapping(PhotometricParams, photo, SynthError, "photometric")
            if photo
            else None
        ),
    )
    config = dataclass_from_mapping(DatasetConfig, own, DatasetError, "dataset", base)
    unknown = [c for c in config.classes if c not in FLOW_CLASSES]
    if not config.classes or unknown:
        raise DatasetError(
            f"classes must name flow classes from {sorted(FLOW_CLASSES)}, "
            f"got {mapping['classes']!r}"
        )
    return config


# Draws per pair before a scene without enough usable sparse points
# aborts the dataset.
PAIR_ATTEMPTS = 4


def _pair_streams(base_seed: int, index: int, attempt: int):
    """Independent, reproducible RNG streams for one draw of one pair.

    A trailing zero word leaves a SeedSequence unchanged, so attempt 0
    draws the streams of ``SeedSequence([base_seed, index])``.
    """
    ss = np.random.SeedSequence([base_seed, index, attempt])
    return [np.random.default_rng(child) for child in ss.spawn(3)]


def generate_pair(config: DatasetConfig, index: int) -> BenchmarkPair:
    """Draw pair ``index``; a scene that leaves too few sparse points is
    redrawn from the next attempt's streams, up to PAIR_ATTEMPTS draws."""
    magnitude_class = config.classes[index % len(config.classes)]
    for attempt in range(PAIR_ATTEMPTS):
        scene_rng, pose_rng, select_rng = _pair_streams(config.base_seed, index, attempt)
        scene = generate_scene(scene_rng, config.scene, seed=index)
        pose = sample_pose_perturbation(pose_rng, magnitude_class, scene)
        try:
            return build_pair(
                scene,
                pose,
                select_rng,
                magnitude_class=magnitude_class,
                n_points=config.n_points,
                photometric=config.photometric,
                seed=index,
            )
        except TooFewPointsError as exc:
            error = exc
    raise TooFewPointsError(
        f"pair {index}: too few usable sparse points in {PAIR_ATTEMPTS} draws (last: {error})"
    )


def build_dataset(config: DatasetConfig) -> dict:
    """Generate pairs, write them under ``out_dir``, and return the manifest.

    Every random decision flows from ``base_seed`` and the pair index, so
    rebuilding with the same config reproduces all files byte for byte.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    entries = []
    for index in range(config.n_pairs):
        pair = generate_pair(config, index)
        name = f"pair_{index:04d}"
        pair_dir = os.path.join(config.out_dir, name)
        os.makedirs(pair_dir, exist_ok=True)
        save_feature_pyramid(os.path.join(pair_dir, "ref.fmap"), pair.ref_pyramid)
        save_feature_pyramid(os.path.join(pair_dir, "tgt.fmap"), pair.tgt_pyramid)
        save_points_text(os.path.join(pair_dir, "points.txt"), pair.points)
        save_pose_text(os.path.join(pair_dir, "pose.txt"), pair.gt_pose)
        with open(os.path.join(pair_dir, "intrinsics.txt"), "w") as handle:
            for key, value in asdict(pair.intrinsics).items():
                handle.write(f"{key} = {value!r}\n")
        entries.append(
            {
                "name": name,
                "seed": index,
                "class": pair.magnitude_class,
                "ref_features": f"{name}/ref.fmap",
                "tgt_features": f"{name}/tgt.fmap",
                "points": f"{name}/points.txt",
                "pose": f"{name}/pose.txt",
                "intrinsics": asdict(pair.intrinsics),
            }
        )
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "base_seed": config.base_seed,
        "n_pairs": config.n_pairs,
        "pairs": entries,
    }
    path = os.path.join(config.out_dir, "manifest.json")
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def load_manifest(path: str) -> dict:
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetError(f"cannot read manifest {path}: {exc}") from exc
    if manifest.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        raise DatasetError(
            f"unsupported manifest schema: {manifest.get('schema_version')!r}"
        )
    return manifest


def load_pair_entry(entry: dict, root: str):
    """Load one manifest entry back into solver-ready structures."""
    try:
        ref = load_feature_pyramid(os.path.join(root, entry["ref_features"]))
        tgt = load_feature_pyramid(os.path.join(root, entry["tgt_features"]))
        points = load_points_text(os.path.join(root, entry["points"]))
        pose = load_pose_text(os.path.join(root, entry["pose"]))
        intrinsics = CameraIntrinsics.from_mapping(entry["intrinsics"])
    except KeyError as exc:
        raise DatasetError(f"manifest entry missing field {exc}") from exc
    except TypeError as exc:
        # A field of the wrong JSON type, e.g. a null intrinsics record.
        raise DatasetError(f"malformed manifest entry: {exc}") from exc
    return ref, tgt, points, pose, intrinsics

