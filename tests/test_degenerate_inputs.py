"""Property test: every degenerate input to run_trial ends as a record.

One pre-built benchmark pair is distorted along the axes that have broken
the solver or its reports before: feature scale (down to 1e-40, up past
the float32 range, or all zero), points moved onto the image border,
depths scaled from 1e-300 to 1e300, any ground-truth rotation up to near
pi, and both init modes. A scale that takes a map past the float32 range
must fail at map construction with FeatureMapError; every other run must
return a record (never raise), and the one-record report must be strict
JSON. A second property test gives the reference and target maps 0 to 3
channels: a map with none is refused when it is built, and a pair whose
counts differ ends as a record that names the channel mismatch and is
never converged.
"""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from featalign.evaluation import report_json_text, run_trial
from featalign.feature_maps import FeatureMap, FeatureMapError, FeaturePyramid
from featalign.geometry import SE3Pose, se3_exp
from featalign.lm_align import SparsePointSet
from featalign.synth import DatasetConfig, generate_pair


@functools.lru_cache(maxsize=1)
def _pair():
    return generate_pair(DatasetConfig(out_dir="unused", base_seed=7000), 0)


def _scaled(pyramid, factor):
    return FeaturePyramid(
        [FeatureMap(level.values.astype(np.float64) * factor) for level in pyramid.levels]
    )


def _overflows_float32(pyramid, factor):
    with np.errstate(all="ignore"):
        return any(
            np.isinf((level.values.astype(np.float64) * factor).astype(np.float32)).any()
            for level in pyramid.levels
        )


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    feature_scale=st.one_of(
        st.just(0.0), st.floats(-40.0, math.log10(3e38)).map(lambda e: 10.0**e)
    ),
    n_border=st.integers(0, 45),
    depth_scale=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda a: np.linalg.norm(a) > 1e-3),
    angle=st.floats(0.0, math.pi - 1e-6),
    init_mode=st.sampled_from(("identity", "corr")),
)
@example(feature_scale=3e38, n_border=0, depth_scale=1.0, axis=(0.0, 0.0, 1.0), angle=0.0,
         init_mode="identity")
@example(feature_scale=3e38, n_border=0, depth_scale=1.0, axis=(0.0, 0.0, 1.0), angle=0.0,
         init_mode="corr")
@example(feature_scale=1.0, n_border=0, depth_scale=1e200, axis=(0.0, 0.0, 1.0), angle=0.0,
         init_mode="corr")
def test_degenerate_pair_ends_as_a_record(
    feature_scale, n_border, depth_scale, axis, angle, init_mode
):
    pair = _pair()
    k = pair.intrinsics
    uv = pair.points.uv.copy()
    # Alternate the moved points between the left and the bottom border.
    uv[0:n_border:2, 0] = 0.0
    uv[1:n_border:2, 1] = k.height - 1.0
    points = SparsePointSet(uv, pair.points.depths * depth_scale)
    rotvec = angle * np.asarray(axis) / np.linalg.norm(axis)
    gt_rotation = se3_exp(np.concatenate([np.zeros(3), rotvec])).rotation
    gt = SE3Pose(gt_rotation, pair.gt_pose.translation)

    overflowing = [
        p for p in (pair.ref_pyramid, pair.tgt_pyramid) if _overflows_float32(p, feature_scale)
    ]
    for pyramid in overflowing:
        with pytest.raises(FeatureMapError):
            _scaled(pyramid, feature_scale)
    if overflowing:
        return

    # Overflow warnings are part of the inputs under test, not a failure.
    with np.errstate(all="ignore"):
        record = run_trial(
            _scaled(pair.ref_pyramid, feature_scale),
            _scaled(pair.tgt_pyramid, feature_scale),
            points,
            gt,
            k,
            init_mode=init_mode,
        )

    assert not math.isnan(record.t_err) and not math.isnan(record.r_err_deg)
    text = report_json_text({"records": [record.to_record_dict()]})
    loaded = json.loads(text, parse_constant=_reject_constant)
    assert len(loaded["records"]) == 1


def _with_channels(pyramid, channels):
    """The pyramid with ``channels`` channels per level, cycling its own."""
    return FeaturePyramid([
        FeatureMap(level.values[:, :, np.arange(channels) % level.channels])
        for level in pyramid.levels
    ])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    ref_channels=st.integers(0, 3),
    tgt_channels=st.integers(0, 3),
    init_mode=st.sampled_from(("identity", "corr")),
)
@example(ref_channels=2, tgt_channels=3, init_mode="identity")
@example(ref_channels=1, tgt_channels=2, init_mode="identity")
@example(ref_channels=1, tgt_channels=2, init_mode="corr")
@example(ref_channels=0, tgt_channels=0, init_mode="identity")
def test_channel_counts_end_as_a_record_or_a_refused_map(ref_channels, tgt_channels, init_mode):
    pair = _pair()
    if 0 in (ref_channels, tgt_channels):
        with pytest.raises(FeatureMapError, match="d >= 1"):
            _with_channels(pair.ref_pyramid, 0)
        return
    record = run_trial(
        _with_channels(pair.ref_pyramid, ref_channels),
        _with_channels(pair.tgt_pyramid, tgt_channels),
        pair.points,
        pair.gt_pose,
        pair.intrinsics,
        init_mode=init_mode,
    )
    if ref_channels != tgt_channels:
        assert not record.converged
        assert "channel mismatch" in record.failure
