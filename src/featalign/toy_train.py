"""Small-scale feature training loop over the correspondence losses.

Trains a single learnable feature map (float64 master, evaluated as
float32 like every other map) on several warped views of one synthetic
scene. Reference features are the current map warp-sampled into each
view plus a fixed per-view noise pattern, mirroring how a shared encoder
would see both frames of a pair; they are refreshed from the live
parameters every epoch but treated as constants by the gradient
(stop-gradient on the reference branch). The optimizer is plain gradient
descent on central finite differences; at this scale (a 64x64
two-channel map, a few dozen samples per pair) that is fast enough and
sidesteps hand-derived backpropagation through the per-point 2x2 solve.

The success metric is what actually matters downstream: how often does
the pose solver, started from a perturbed pose, still land on the ground
truth when reading the trained map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .configfile import check_finite, dataclass_from_mapping
from .feature_maps import (
    FeatureMap,
    SampleOutOfBoundsError,
    build_baseline_pyramid,
    gather_stencil,
    in_margins,
)
from .geometry import SE3Pose, boxplus, se3_exp, warp_points
from .lm_align import AlignmentError, LMConfig, SparsePointSet, align_level
from .losses import TERMS, LossConfig, LossError, loss_gradient_fd, sample_batch, total_loss
from .synth import (
    SceneConfig,
    SynthError,
    SyntheticScene,
    generate_scene,
    mean_flow,
    pixel_grid,
    sample_pose_perturbation,
    select_sparse_points,
    warp_scene,
)


# Draws allowed per evaluation offset; the default sets need about 10.
_OFFSET_TRIES = 1000


@dataclass(frozen=True)
class ToyPair:
    """One warped view: where to sample the live map, plus its fixed noise."""

    gt_pose: SE3Pose
    noise: np.ndarray            # (h, w, C) added to the sampled reference
    sample_uv: np.ndarray        # (k, 2) warped positions readable in-map
    sample_rows: np.ndarray      # (k,) flat row indices of those positions
    correspondences: np.ndarray  # (m, 4): ref u, v, target u, v
    points: SparsePointSet


@dataclass(frozen=True)
class ToyTrainingSet:
    pairs: tuple
    init_params: np.ndarray      # (h, w, C) float64 learnable map
    scene: SyntheticScene
    eval_offsets: tuple          # twists applied to gt poses for evaluation


@dataclass(frozen=True)
class ToyTrainConfig:
    """Training recipe; the defaults are the tuned toy-scale demo.

    The loss weights deliberately differ from the all-ones defaults of
    ``LossConfig``: on a single-level 64x64 problem the step-likelihood
    term's sharpening pressure outweighs the basin-shaping term unless the
    ring loss is upweighted, and nothing in the term definitions fixes the
    balance.
    """

    epochs: int = 200
    lr: float = 0.15
    batch_size: int = 48
    eval_interval: int = 50
    seed: int = 0
    loss: LossConfig = LossConfig(w_gd=4.0, w_gn=0.2)
    divergence_factor: float = 10.0
    eval_max_iters: int = 60
    success_flow_px: float = 1.0
    # make_toy_training_set's arguments, at its defaults
    n_pairs: int = 8
    eval_offsets: int = 10
    eval_flow_px: float = 5.0
    ref_noise: float = 0.2

    def __post_init__(self):
        check_finite(self, LossError)
        if self.epochs < 0:
            raise LossError("epochs must be non-negative")
        for name in ("batch_size", "eval_interval", "eval_max_iters"):
            if getattr(self, name) < 1:
                raise LossError(f"{name} must be positive")

    @classmethod
    def from_mapping(cls, mapping) -> "ToyTrainConfig":
        """Build from config-file strings; loss keys ride along flat.

        Loss overrides start from the tuned trainer defaults, not from the
        all-ones ``LossConfig`` defaults, so overriding one weight does not
        silently reset the others.
        """
        loss_keys = LossConfig.__dataclass_fields__
        loss = LossConfig.from_mapping(
            {k: v for k, v in mapping.items() if k in loss_keys}, base=cls().loss
        )
        own = {k: v for k, v in mapping.items() if k not in loss_keys}
        return dataclass_from_mapping(cls, own, LossError, "toy training", cls(loss=loss))


@dataclass
class ToyTrainResult:
    params: np.ndarray
    trace: list = field(default_factory=list)
    aborted: bool = False
    initial_success: float = 0.0
    final_success: float = 0.0
    initial_accuracy: float = float("nan")
    final_accuracy: float = float("nan")


def reference_map(params: np.ndarray, pair: ToyPair) -> FeatureMap:
    """The pair's reference view rendered from the given map parameters.

    Positions outside the view (or too close to the border to sample) stay
    at zero plus the stored noise; the noise is fixed per pair so repeated
    calls with the same parameters give the same map.
    """
    live = FeatureMap(params)
    h, w, c = pair.noise.shape
    data = np.zeros((h * w, c), dtype=np.float64)
    data[pair.sample_rows] = gather_stencil(live, pair.sample_uv).values()
    return FeatureMap(data.reshape(h, w, c) + pair.noise)


def make_toy_training_set(
    seed: int,
    n_pairs: int = 8,
    eval_offsets: int = 10,
    eval_flow_px: float = 5.0,
    ref_noise: float = 0.2,
) -> ToyTrainingSet:
    """One 64x64 scene, several warped reference views of it.

    Evaluation offsets are twists with close to ``eval_flow_px`` mean flow,
    drawn once so every epoch (and every loss ablation) measures success
    from identical perturbed starts. A target the draws cannot reach (say
    500 px) raises SynthError after ``_OFFSET_TRIES`` draws for one offset.

    ``ref_noise`` is the per-view Gaussian appearance noise. Without it the
    ground truth is the exact energy minimum for any parameters and no
    term has an accuracy signal to improve on; with it the minimum sits
    slightly off the truth and sharpening the features (what the
    step-likelihood term rewards) visibly tightens the estimates.
    """
    if n_pairs < 4:
        raise SynthError("toy training wants at least 4 pairs")
    if eval_offsets < 1:
        raise SynthError("eval_offsets must be at least 1")
    if ref_noise < 0.0:
        raise SynthError("ref_noise must be non-negative")
    rng = np.random.default_rng(seed)
    cfg = SceneConfig(height=64, width=64, fx=64.0, fy=64.0, depth_noise=0.2)
    scene = generate_scene(rng, cfg, seed=seed)
    h, w = scene.texture.shape
    k = scene.intrinsics

    init = build_baseline_pyramid(scene.texture).level(4).values.astype(np.float64)
    channels = init.shape[2]

    grid_uv = pixel_grid(h, w)
    grid_depth = scene.depth.ravel()

    pairs = []
    while len(pairs) < n_pairs:
        magnitude = "small" if len(pairs) % 2 == 0 else "medium"
        pose = sample_pose_perturbation(rng, magnitude, scene)
        view = warp_scene(scene, pose)

        # warp_points' WARP_MARGIN covers gather_stencil's SAMPLE_MARGIN.
        warped, valid, _ = warp_points(grid_uv, grid_depth, pose, k)
        noise = rng.normal(0.0, ref_noise, size=(h, w, channels)) if ref_noise > 0 else np.zeros((h, w, channels))

        corr = view.correspondence
        inner = view.valid.copy()
        inner[:8, :] = inner[-8:, :] = False
        inner[:, :8] = inner[:, -8:] = False
        inner &= in_margins(corr, w, h, 8)
        vv, uu = np.nonzero(inner)
        pool = np.stack(
            [uu.astype(np.float64), vv.astype(np.float64), corr[vv, uu, 0], corr[vv, uu, 1]],
            axis=1,
        )
        points = select_sparse_points(
            view.image, scene.depth, 48, rng, stride=2, mask=inner, margin=8.0
        )
        if len(pool) < 64 or len(points) < 12:
            continue
        pairs.append(
            ToyPair(
                gt_pose=pose,
                noise=noise,
                sample_uv=warped[valid],
                sample_rows=np.nonzero(valid)[0],
                correspondences=pool,
                points=points,
            )
        )

    offsets = []
    while len(offsets) < eval_offsets:
        for _ in range(_OFFSET_TRIES):
            twist = rng.uniform(-1.0, 1.0, size=6) * np.array([0.3, 0.3, 0.35, 0.045, 0.045, 0.045])
            flow = mean_flow(scene, se3_exp(twist))
            if abs(flow - eval_flow_px) <= 0.5:
                break
        else:
            raise SynthError(f"no {eval_flow_px} px evaluation offset in {_OFFSET_TRIES} draws")
        offsets.append(twist)

    return ToyTrainingSet(
        pairs=tuple(pairs),
        init_params=init,
        scene=scene,
        eval_offsets=tuple(offsets),
    )


def evaluate_alignment(
    training_set: ToyTrainingSet, params: np.ndarray, config: ToyTrainConfig
) -> tuple[float, float]:
    """(success rate, mean flow error of the successful runs) over all starts.

    Success means the estimated pose reprojects the sparse points within
    ``success_flow_px`` of the ground-truth projections on average. Flow
    error rather than translation error is the accuracy figure because a
    near-planar 64x64 scene leaves depth-scaled translation poorly
    constrained even when the reprojection is tight.
    """
    tgt_map = FeatureMap(params)
    k = training_set.scene.intrinsics
    lm = LMConfig(max_iters_per_level=config.eval_max_iters, min_valid_points=6)
    successes = 0
    total = 0
    flow_errors = []
    for pair in training_set.pairs:
        ref_map = reference_map(params, pair)
        gt_warp, gt_valid, _ = warp_points(
            pair.points.uv, pair.points.depths, pair.gt_pose, k
        )
        for twist in training_set.eval_offsets:
            total += 1
            init = boxplus(twist, pair.gt_pose)
            try:
                pose, _ = align_level(
                    ref_map, tgt_map, pair.points.uv, pair.points.depths,
                    init, k, lm,
                )
            except (AlignmentError, SampleOutOfBoundsError):
                # The solver failures run_trial records; anything else is a bug.
                continue
            est_warp, est_valid, _ = warp_points(
                pair.points.uv, pair.points.depths, pose, k
            )
            both = gt_valid & est_valid
            if both.sum() < 6:
                continue
            flow_err = np.linalg.norm(est_warp[both] - gt_warp[both], axis=1).mean()
            if flow_err < config.success_flow_px:
                successes += 1
                flow_errors.append(flow_err)
    rate = successes / total if total else 0.0
    acc = float(np.mean(flow_errors)) if flow_errors else float("nan")
    return rate, acc


def train_toy_features(
    training_set: ToyTrainingSet, config: ToyTrainConfig
) -> ToyTrainResult:
    """Gradient-descend the feature map under the combined loss.

    References are refreshed from the live parameters at every epoch but
    the finite-difference gradient only flows through the target branch.
    The per-epoch trace records the loss breakdown every epoch and the
    alignment success rate every ``eval_interval`` epochs (plus first and
    last). Aborts, keeping the trace, if the loss exceeds
    ``divergence_factor`` times its initial value.
    """
    params = training_set.init_params.copy()
    dims = params.shape[:2]
    result = ToyTrainResult(params=params)

    rate, acc = evaluate_alignment(training_set, params, config)
    result.initial_success = rate
    result.initial_accuracy = acc

    initial_total = None
    for epoch in range(config.epochs):
        epoch_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, epoch])
        )
        tgt_map = FeatureMap(params)
        grad = np.zeros_like(params)
        totals = []
        breakdowns = []
        for pair in training_set.pairs:
            ref_map = reference_map(params, pair)
            pool = pair.correspondences
            take = min(config.batch_size, len(pool))
            rows = epoch_rng.choice(len(pool), size=take, replace=False)
            batch = sample_batch(epoch_rng, pool[rows], dims, config.loss)
            total, breakdown = total_loss(ref_map, tgt_map, batch, config.loss)
            grad += loss_gradient_fd(ref_map, params, batch, config.loss)
            totals.append(total)
            breakdowns.append(breakdown)
        grad /= len(training_set.pairs)
        loss_now = float(np.mean(totals))
        if initial_total is None:
            initial_total = loss_now

        row = {
            "epoch": epoch,
            "total": loss_now,
            "success_rate": None,
            "mean_flow_error": None,
        }
        for name in TERMS:
            row[name] = float(np.mean([b[name] for b in breakdowns]))
        if epoch % config.eval_interval == 0 and config.lr != 0.0 and epoch > 0:
            rate, acc = evaluate_alignment(training_set, params, config)
            row["success_rate"] = rate
            row["mean_flow_error"] = acc
        result.trace.append(row)

        if loss_now > config.divergence_factor * initial_total:
            result.aborted = True
            break
        params -= config.lr * grad

    result.params = params
    rate, acc = evaluate_alignment(training_set, params, config)
    result.final_success = rate
    result.final_accuracy = acc
    if result.trace:
        result.trace[-1]["success_rate"] = rate
        result.trace[-1]["mean_flow_error"] = acc
    return result
