"""Feature-metric direct image alignment on multi-scale feature pyramids.

The package splits into small layers: geometry (rigid transforms,
projection, pose error metrics), feature_maps (bilinear sampling and
pyramids), lm_align (the damped Gauss-Newton solver), losses and
toy_train (correspondence-level training objectives and a small trainer),
pose_init (correlation-based pose seeding), synth (ground-truth pair
generation), and evaluation (benchmark curves, AUC, reports). The CLI in
cli.py wires them together; this namespace re-exports the pieces most
callers need.
"""

from .evaluation import (
    CumulativeCurve,
    EvalError,
    TrialRecord,
    auc,
    compare_reports,
    cumulative_curve,
    run_benchmark,
    run_trial,
    write_report,
)
from .feature_maps import (
    FeatureMap,
    FeatureMapError,
    FeaturePyramid,
    SampleOutOfBoundsError,
    build_baseline_pyramid,
    gather_stencil,
    load_feature_pyramid,
    save_feature_pyramid,
)
from .geometry import (
    CameraIntrinsics,
    GeometryError,
    SE3Pose,
    boxplus,
    load_pose_text,
    pose_errors,
    rotation_error,
    save_pose_text,
    se3_exp,
    translation_error,
    warp_points,
)
from .lm_align import (
    AlignmentError,
    AlignmentResult,
    DegenerateSystemError,
    LMConfig,
    SparsePointSet,
    align_coarse_to_fine,
    align_level,
    compute_residuals,
    load_points_text,
    save_points_text,
)
from .losses import (
    CorrespondenceBatch,
    LossConfig,
    LossError,
    loss_gradient_fd,
    sample_batch,
    total_loss,
)
from .pose_init import (
    InitConfig,
    InitError,
    corr_pose_init,
    correlation_map,
)
from .synth import (
    DatasetConfig,
    SceneConfig,
    SynthError,
    build_dataset,
    build_pair,
    generate_scene,
    load_manifest,
    sample_pose_perturbation,
)
from .toy_train import (
    ToyTrainConfig,
    ToyTrainResult,
    make_toy_training_set,
    train_toy_features,
)

__all__ = [name for name in dir() if not name.startswith("_")]
