"""Tests for cumulative error curves, AUC, and the benchmark harness."""

import json
import math
import os

import numpy as np
import pytest

from featalign.evaluation import (
    CURVE_BINS,
    CSV_COLUMNS,
    EvalError,
    auc,
    compare_reports,
    cumulative_curve,
    report_csv_text,
    report_json_text,
    run_benchmark,
    run_trial,
    write_report,
)
from featalign.geometry import SE3Pose, save_pose_text
from featalign.feature_maps import save_feature_pyramid
from featalign.lm_align import LMConfig, save_points_text
from featalign.synth import (
    DatasetConfig,
    SceneConfig,
    build_dataset,
    build_pair,
    generate_scene,
    load_manifest,
)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("bench"))
    config = DatasetConfig(out_dir=root, n_pairs=4, classes=("small",), base_seed=3)
    build_dataset(config)
    return root, load_manifest(os.path.join(root, "manifest.json"))


@pytest.fixture(scope="module")
def identity_dataset(tmp_path_factory):
    """Pairs whose ground-truth motion is exactly zero."""
    root = str(tmp_path_factory.mktemp("ident"))
    entries = []
    for i in range(3):
        rng = np.random.default_rng(40 + i)
        scene = generate_scene(rng, SceneConfig(), seed=40 + i)
        pair = build_pair(scene, SE3Pose.identity(), rng, magnitude_class="small", seed=40 + i)
        name = f"pair_{i:04d}"
        os.makedirs(os.path.join(root, name))
        save_feature_pyramid(os.path.join(root, name, "ref.fmap"), pair.ref_pyramid)
        save_feature_pyramid(os.path.join(root, name, "tgt.fmap"), pair.tgt_pyramid)
        save_points_text(os.path.join(root, name, "points.txt"), pair.points)
        save_pose_text(os.path.join(root, name, "pose.txt"), pair.gt_pose)
        k = pair.intrinsics
        entries.append(
            {
                "name": name,
                "seed": 40 + i,
                "class": "small",
                "ref_features": f"{name}/ref.fmap",
                "tgt_features": f"{name}/tgt.fmap",
                "points": f"{name}/points.txt",
                "pose": f"{name}/pose.txt",
                "intrinsics": {
                    "fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy,
                    "width": k.width, "height": k.height,
                },
            }
        )
    manifest = {"schema_version": 1, "base_seed": 0, "n_pairs": 3, "pairs": entries}
    return root, manifest


class TestCumulativeCurve:
    def test_all_zero_errors_give_constant_one(self):
        curve = cumulative_curve([0.0, 0.0, 0.0], 0.5)
        np.testing.assert_array_equal(curve.fractions, 1.0)
        assert curve.thresholds.shape == (CURVE_BINS + 1,)
        assert curve.thresholds[0] == 0.0
        assert curve.thresholds[-1] == 0.5

    def test_errors_beyond_max_give_constant_zero(self):
        curve = cumulative_curve([0.6, 2.0, math.inf], 0.5)
        np.testing.assert_array_equal(curve.fractions, 0.0)

    def test_two_point_staircase(self):
        curve = cumulative_curve([0.1, 0.3], 0.5)
        step = 0.5 / CURVE_BINS
        assert curve.fractions[int(round(0.05 / step))] == 0.0
        assert curve.fractions[int(round(0.1 / step))] == 0.5
        assert curve.fractions[int(round(0.2 / step))] == 0.5
        assert curve.fractions[int(round(0.3 / step))] == 1.0
        assert curve.fractions[-1] == 1.0

    def test_matches_empirical_cdf_at_grid_points_on_data(self):
        errors = np.array([0.0, 0.1, 0.1, 0.25, 0.4])
        curve = cumulative_curve(errors, 0.5)
        step = 0.5 / CURVE_BINS
        for value, expect in [(0.0, 1 / 5), (0.1, 3 / 5), (0.25, 4 / 5), (0.4, 1.0)]:
            assert curve.fractions[int(round(value / step))] == expect

    def test_infinite_errors_never_count(self):
        curve = cumulative_curve([0.0, math.inf], 10.0)
        np.testing.assert_array_equal(curve.fractions, 0.5)

    def test_non_decreasing(self):
        errs = np.random.default_rng(1).exponential(0.2, size=200)
        curve = cumulative_curve(errs, 0.5)
        assert (np.diff(curve.fractions) >= 0.0).all()
        assert curve.fractions[-1] <= 1.0

    def test_input_validation(self):
        with pytest.raises(EvalError):
            cumulative_curve([], 0.5)
        with pytest.raises(EvalError):
            cumulative_curve([0.1], 0.0)
        with pytest.raises(EvalError):
            cumulative_curve([math.nan], 0.5)
        with pytest.raises(EvalError):
            cumulative_curve([-0.1], 0.5)


class TestAuc:
    def test_perfect_errors_score_100(self):
        assert auc([0.0, 0.0], 0.5) == 100.0

    def test_hopeless_errors_score_0(self):
        assert auc([0.6, 1.0, math.inf], 0.5) == 0.0

    def test_error_exactly_at_max_counts_only_at_final_threshold(self):
        # CDF convention: P(err <= t), so a data point at max contributes
        # half of one trapezoid bin and nothing more.
        bin_width = 0.5 / CURVE_BINS
        expected = 0.5 * bin_width / 0.5 * 100.0
        assert auc([0.5], 0.5) == pytest.approx(expected, rel=1e-12)

    def test_half_perfect_half_lost_scores_50(self):
        assert auc([0.0, math.inf], 0.5) == pytest.approx(50.0, abs=1e-12)

    def test_uniform_errors_score_about_50(self):
        errs = np.random.default_rng(9).uniform(0.0, 0.5, size=100_000)
        assert auc(errs, 0.5) == pytest.approx(50.0, abs=0.5)

    def test_bounded_and_monotone_in_single_error(self):
        rng = np.random.default_rng(5)
        errs = rng.uniform(0.0, 0.8, size=50)
        base = auc(errs, 0.5)
        assert 0.0 <= base <= 100.0
        for i in (0, 17, 49):
            bumped = errs.copy()
            bumped[i] += 0.1
            assert auc(bumped, 0.5) <= base + 1e-12


class TestRunTrial:
    def test_identity_pair_scores_exact_zero(self):
        rng = np.random.default_rng(7)
        scene = generate_scene(rng, SceneConfig(), seed=7)
        pair = build_pair(scene, SE3Pose.identity(), rng, magnitude_class="small", seed=7)
        rec = run_trial(
            pair.ref_pyramid, pair.tgt_pyramid, pair.points, pair.gt_pose, pair.intrinsics
        )
        assert rec.converged
        assert rec.t_err == 0.0
        assert rec.r_err_deg == 0.0
        assert rec.failure == ""

    def test_unknown_init_mode_rejected(self):
        rng = np.random.default_rng(7)
        scene = generate_scene(rng, SceneConfig(), seed=7)
        pair = build_pair(scene, SE3Pose.identity(), rng, magnitude_class="small", seed=7)
        with pytest.raises(EvalError):
            run_trial(
                pair.ref_pyramid, pair.tgt_pyramid, pair.points, pair.gt_pose,
                pair.intrinsics, init_mode="oracle",
            )

    def test_record_dict_has_no_timing(self):
        rng = np.random.default_rng(8)
        scene = generate_scene(rng, SceneConfig(), seed=8)
        pair = build_pair(scene, SE3Pose.identity(), rng, magnitude_class="small", seed=8)
        rec = run_trial(
            pair.ref_pyramid, pair.tgt_pyramid, pair.points, pair.gt_pose, pair.intrinsics
        )
        assert rec.wall_time_s > 0.0
        data = rec.to_record_dict()
        assert "wall_time_s" not in data
        assert set(data) == {
            "pair", "class", "init_pose", "est_pose", "gt_pose",
            "t_err", "r_err_deg", "converged", "iterations", "failure",
        }


class TestRunBenchmark:
    def test_identity_manifest_scores_100(self, identity_dataset):
        root, manifest = identity_dataset
        report = run_benchmark(manifest, root)
        assert report["t_auc"] == 100.0
        assert report["r_auc"] == 100.0
        assert report["n_converged"] == 3
        assert report["n_failures"] == 0

    def test_two_runs_are_byte_identical(self, small_dataset):
        root, manifest = small_dataset
        a = run_benchmark(manifest, root)
        b = run_benchmark(manifest, root)
        assert report_json_text(a) == report_json_text(b)
        assert report_csv_text(a) == report_csv_text(b)

    def test_small_pairs_converge_accurately(self, small_dataset):
        root, manifest = small_dataset
        report = run_benchmark(manifest, root, LMConfig(damping="marquardt"))
        assert report["n_converged"] == 4
        for rec in report["records"]:
            assert rec["t_err"] < 1e-3
            assert rec["r_err_deg"] < 0.01

    def test_broken_pair_recorded_and_run_continues(self, small_dataset, tmp_path):
        root, manifest = small_dataset
        broken = dict(manifest)
        broken["pairs"] = list(manifest["pairs"]) + [
            {
                "name": "pair_9999",
                "seed": 9999,
                "class": "small",
                "ref_features": "missing/ref.fmap",
                "tgt_features": "missing/tgt.fmap",
                "points": "missing/points.txt",
                "pose": "missing/pose.txt",
                "intrinsics": manifest["pairs"][0]["intrinsics"],
            }
        ]
        report = run_benchmark(broken, root)
        assert report["n_pairs"] == 5
        assert report["n_failures"] == 1
        bad = report["records"][-1]
        assert bad["failure"].startswith("load:")
        assert not bad["converged"]
        assert report["n_converged"] == 4

    def test_incomplete_intrinsics_recorded_as_load_failure(self, small_dataset):
        root, manifest = small_dataset
        first = manifest["pairs"][0]
        no_record = {k: v for k, v in first.items() if k != "intrinsics"}
        no_focal = dict(first, intrinsics={
            k: v for k, v in first["intrinsics"].items() if k != "fx"
        })
        null_record = dict(first, intrinsics=None)
        broken = dict(
            manifest, pairs=[no_record, no_focal, null_record] + list(manifest["pairs"][1:])
        )
        report = run_benchmark(broken, root)
        assert report["n_pairs"] == 6
        assert report["n_failures"] == 3
        for bad in report["records"][:3]:
            assert bad["failure"].startswith("load:")
            assert not bad["converged"]
        assert "intrinsics" in report["records"][0]["failure"]
        assert "fx" in report["records"][1]["failure"]
        assert "malformed" in report["records"][2]["failure"]
        assert report["n_converged"] == 3

    def test_nan_points_recorded_as_load_failure(self, small_dataset, tmp_path):
        root, manifest = small_dataset
        bad = tmp_path / "points.txt"
        bad.write_text("40.0 30.0 2.5\nnan 31.0 2.5\n")
        broken = dict(manifest, pairs=[dict(manifest["pairs"][0], points=str(bad))])
        report = run_benchmark(broken, root)
        assert report["n_failures"] == 1
        assert report["records"][0]["failure"].startswith("load: AlignmentError")

    def test_empty_manifest_rejected(self):
        with pytest.raises(EvalError):
            run_benchmark({"pairs": []}, ".")

    def test_csv_columns_and_written_files(self, small_dataset, tmp_path):
        root, manifest = small_dataset
        report = run_benchmark(manifest, root)
        jp = str(tmp_path / "report.json")
        cp = str(tmp_path / "report.csv")
        write_report(report, json_path=jp, csv_path=cp)
        with open(cp) as handle:
            header = handle.readline().strip().split(",")
        assert tuple(header) == CSV_COLUMNS
        with open(jp) as handle:
            loaded = json.load(handle)
        assert loaded["t_auc"] == report["t_auc"]
        assert len(loaded["records"]) == 4
        assert len(loaded["curves"]["translation"]["thresholds"]) == CURVE_BINS + 1


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestReportJson:
    def test_non_finite_floats_written_as_null(self):
        text = report_json_text(
            {"t_err": math.inf, "rows": [1.0, -math.inf, math.nan], "n": 3}
        )
        loaded = json.loads(text, parse_constant=_reject_constant)
        assert loaded == {"t_err": None, "rows": [1.0, None, None], "n": 3}

    def test_finite_report_text_unchanged(self):
        report = {"b": [0.1, 2], "a": {"t_auc": 12.5, "failure": ""}}
        assert report_json_text(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


def tiny_report(t_aucs, rows):
    """Hand-rolled report dict with just the keys compare_reports reads."""
    return {
        "t_auc": t_aucs[0],
        "r_auc": t_aucs[1],
        "n_converged": sum(r[4] for r in rows),
        "per_class": {
            "small": {"t_auc": t_aucs[0], "r_auc": t_aucs[1], "n": len(rows),
                      "n_converged": sum(r[4] for r in rows)}
        },
        "records": [
            {"pair": r[0], "class": "small", "t_err": r[1], "r_err_deg": r[2],
             "converged": bool(r[4]), "iterations": r[3], "failure": ""}
            for r in rows
        ],
    }


class TestCompareReports:
    def test_report_against_itself_is_all_zero(self, small_dataset):
        root, manifest = small_dataset
        report = run_benchmark(manifest, root)
        delta = compare_reports(report, report)
        assert delta["overall"] == {"t_auc": 0.0, "r_auc": 0.0, "n_converged": 0}
        for row in delta["pairs"]:
            assert row["t_err"] == 0.0
            assert row["r_err_deg"] == 0.0
            assert row["converged"] == 0

    def test_hand_built_two_row_delta(self):
        a = tiny_report(
            (60.0, 70.0),
            [("p0", 0.10, 1.0, 12, True), ("p1", 0.30, 2.0, 20, False)],
        )
        b = tiny_report(
            (72.5, 71.0),
            [("p0", 0.05, 0.5, 10, True), ("p1", 0.20, 1.5, 15, True)],
        )
        delta = compare_reports(a, b)
        assert delta["overall"]["t_auc"] == pytest.approx(12.5)
        assert delta["overall"]["r_auc"] == pytest.approx(1.0)
        assert delta["overall"]["n_converged"] == 1
        assert delta["pairs"][0] == {
            "pair": "p0", "class": "small",
            "t_err": pytest.approx(-0.05), "r_err_deg": pytest.approx(-0.5),
            "converged": 0,
        }
        assert delta["pairs"][1]["t_err"] == pytest.approx(-0.1)
        assert delta["pairs"][1]["converged"] == 1

    def test_one_signed_deltas_for_strictly_better_report(self):
        a = tiny_report((50.0, 50.0), [("p0", 0.2, 2.0, 9, False), ("p1", 0.4, 3.0, 9, False)])
        b = tiny_report((90.0, 80.0), [("p0", 0.1, 1.0, 5, True), ("p1", 0.2, 2.0, 5, True)])
        delta = compare_reports(a, b)
        assert delta["overall"]["t_auc"] > 0 and delta["overall"]["r_auc"] > 0
        assert all(row["t_err"] < 0 for row in delta["pairs"])
        assert all(row["r_err_deg"] < 0 for row in delta["pairs"])

    def test_null_errors_read_as_infinite(self):
        a = tiny_report((50.0, 50.0), [("p0", 0.2, 2.0, 9, True)])
        b = tiny_report((50.0, 50.0), [("p0", None, None, 9, True)])
        row = compare_reports(a, b)["pairs"][0]
        assert row["t_err"] == math.inf
        assert row["r_err_deg"] == math.inf
        assert compare_reports(b, a)["pairs"][0]["t_err"] == -math.inf

    def test_mismatched_pair_ids_rejected(self):
        a = tiny_report((50.0, 50.0), [("p0", 0.2, 2.0, 9, True)])
        b = tiny_report((50.0, 50.0), [("p9", 0.2, 2.0, 9, True)])
        with pytest.raises(EvalError):
            compare_reports(a, b)
