"""End-to-end tests of the command-line interface.

Everything drives featalign.cli.main(argv) in-process: the returned int is
the exit code the console script would produce.
"""

import json
import os
import struct

import numpy as np
import pytest

from featalign import losses
from featalign.cli import EXIT_ERROR, EXIT_OK, EXIT_PARTIAL, main
from featalign.evaluation import run_trial
from featalign.feature_maps import FMAP_MAGIC, FMAP_VERSION, load_feature_maps
from featalign.lm_align import LMConfig, SparsePointSet, load_points_text, save_points_text
from featalign.synth import load_pair_entry


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("clids"))
    cfg = os.path.join(root, "ds.cfg")
    with open(cfg, "w") as handle:
        handle.write("n_pairs = 2\nclasses = small\nbase_seed = 11\n")
    out = os.path.join(root, "data")
    assert main(["synth", "--config", cfg, "--out", out]) == EXIT_OK
    return out


def pair_args(dataset, index=0):
    pair = os.path.join(dataset, f"pair_{index:04d}")
    return [
        "--ref", os.path.join(pair, "ref.fmap"),
        "--target", os.path.join(pair, "tgt.fmap"),
        "--points", os.path.join(pair, "points.txt"),
        "--intrinsics", os.path.join(pair, "intrinsics.txt"),
    ], os.path.join(pair, "pose.txt")


def write_channels(src, dst, channels):
    """Copy an FMAP pyramid with ``channels`` channels per level, cycling
    the source's; written by hand, since ``FeatureMap`` refuses 0."""
    maps = load_feature_maps(src)
    with open(dst, "wb") as handle:
        handle.write(FMAP_MAGIC + struct.pack("<II", FMAP_VERSION, len(maps)))
        for level in maps:
            values = level.values[:, :, np.arange(channels) % level.channels]
            handle.write(struct.pack("<III", *values.shape))
            handle.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


# Rewritten pyramids of pair_0000 (2 channels) and the failure each names.
MISMATCHED = {
    "pair_3ch_target": ({"tgt": 3}, "channel mismatch"),
    "pair_1ch_reference": ({"ref": 1}, "channel mismatch"),
    "pair_0ch_maps": ({"ref": 0, "tgt": 0}, "d >= 1"),
}


def mismatched_manifest(dataset, tmp_path):
    """Manifest of pair_0000 followed by the ``MISMATCHED`` pairs."""
    with open(os.path.join(dataset, "manifest.json")) as handle:
        manifest = json.load(handle)
    good = manifest["pairs"][0]
    pairs = [good]
    for name, (channels, _) in MISMATCHED.items():
        entry = dict(good, name=name)
        for side, count in channels.items():
            path = str(tmp_path / f"{name}-{side}.fmap")
            write_channels(os.path.join(dataset, good[f"{side}_features"]), path, count)
            entry[f"{side}_features"] = path
        pairs.append(entry)
    path = str(tmp_path / "mismatched.json")
    with open(path, "w") as handle:
        json.dump(dict(manifest, pairs=pairs), handle)
    return path


class TestSynth:
    def test_dataset_layout(self, dataset):
        assert os.path.exists(os.path.join(dataset, "manifest.json"))
        for name in ("ref.fmap", "tgt.fmap", "points.txt", "pose.txt", "intrinsics.txt"):
            assert os.path.exists(os.path.join(dataset, "pair_0000", name))

    def test_bad_config_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_speed = 9\n")
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_unrecognised_boolean_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_pairs = 1\ndepth_discontinuity = on\n")
        out = tmp_path / "x"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestAlign:
    def test_align_with_gt_and_trace(self, dataset, tmp_path, capsys):
        args, gt = pair_args(dataset)
        out = str(tmp_path / "result.json")
        pose_out = str(tmp_path / "pose.txt")
        code = main(
            ["align", *args, "--gt", gt, "--out", out, "--pose-out", pose_out, "--trace"]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "converged: True" in printed
        with open(out) as handle:
            payload = json.load(handle)
        assert payload["converged"] is True
        assert payload["t_err"] < 1e-3
        assert payload["r_err_deg"] < 0.01
        assert payload["init_mode"] == "identity"
        for level in payload["levels"]:
            if level["skipped_reason"] is None:
                assert isinstance(level["trace"], list) and level["trace"]
        assert os.path.exists(pose_out)

    def test_trace_omitted_by_default(self, dataset, tmp_path):
        args, _ = pair_args(dataset)
        out = str(tmp_path / "result.json")
        assert main(["align", *args, "--out", out]) == EXIT_OK
        with open(out) as handle:
            payload = json.load(handle)
        assert all("trace" not in level for level in payload["levels"])

    def test_corr_init_mode(self, dataset):
        args, gt = pair_args(dataset, index=1)
        assert main(["align", *args, "--init", "corr", "--gt", gt]) == EXIT_OK

    def test_init_pose_and_corr_conflict(self, dataset, tmp_path, capsys):
        args, gt = pair_args(dataset)
        code = main(["align", *args, "--init", "corr", "--init-pose", gt])
        assert code == EXIT_ERROR
        assert "mutually exclusive" in capsys.readouterr().err

    @pytest.mark.parametrize("init", ["identity", "corr"])
    def test_intrinsics_larger_than_maps_exit_1(self, dataset, tmp_path, capsys, init):
        args, _ = pair_args(dataset)
        k = args.index("--intrinsics") + 1
        with open(args[k]) as handle:
            text = handle.read()
        assert "width = 128" in text
        wide = tmp_path / "intrinsics.txt"
        wide.write_text(text.replace("width = 128", "width = 160"))
        args[k] = str(wide)
        assert main(["align", *args, "--init", init]) == EXIT_ERROR
        assert "smaller than the" in capsys.readouterr().err

    def test_channel_mismatch_exits_1(self, dataset, tmp_path, capsys):
        args, _ = pair_args(dataset)
        at = args.index("--target") + 1
        target = str(tmp_path / "tgt3.fmap")
        write_channels(args[at], target, 3)
        args[at] = target
        assert main(["align", *args]) == EXIT_ERROR
        assert "error: channel mismatch" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        code = main(
            ["align", "--ref", "no.fmap", "--target", "no.fmap",
             "--points", "no.txt", "--intrinsics", "no.txt"]
        )
        assert code == EXIT_ERROR

    def test_points_file_with_nan_exits_1(self, dataset, tmp_path, capsys):
        args, _ = pair_args(dataset)
        bad = tmp_path / "points.txt"
        bad.write_text("40.0 30.0 2.5\n41.0 31.0 nan\n")
        args[args.index("--points") + 1] = str(bad)
        assert main(["align", *args]) == EXIT_ERROR
        assert "finite" in capsys.readouterr().err

    def test_unknown_solver_key_exits_1(self, dataset, tmp_path, capsys):
        args, _ = pair_args(dataset)
        cfg = tmp_path / "lm.cfg"
        cfg.write_text("momentum = 0.9\n")
        assert main(["align", *args, "--config", str(cfg)]) == EXIT_ERROR
        assert "unknown solver config key" in capsys.readouterr().err

    def test_non_finite_solver_value_exits_1(self, dataset, tmp_path, capsys):
        args, _ = pair_args(dataset)
        cfg = tmp_path / "lm.cfg"
        cfg.write_text("lambda_init = nan\n")
        assert main(["align", *args, "--config", str(cfg)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_converged_means_a_step_norm_exit(self, dataset, tmp_path, capsys):
        args, _ = pair_args(dataset)
        cfg = tmp_path / "lm.cfg"
        cfg.write_text("max_iters_per_level = 1\n")
        assert main(["align", *args, "--config", str(cfg)]) == EXIT_OK
        assert "converged: False" in capsys.readouterr().out
        with open(os.path.join(dataset, "manifest.json")) as handle:
            entry = json.load(handle)["pairs"][0]
        ref, tgt, points, gt_pose, k = load_pair_entry(entry, dataset)
        record = run_trial(ref, tgt, points, gt_pose, k, LMConfig(max_iters_per_level=1))
        assert not record.converged
        assert record.failure == ""

    def test_damping_override(self, dataset, tmp_path):
        args, _ = pair_args(dataset)
        out = str(tmp_path / "result.json")
        assert main(["align", *args, "--damping", "marquardt", "--out", out]) == EXIT_OK


class TestEvalLoss:
    def test_breakdown_and_outputs(self, dataset, tmp_path, capsys):
        args, gt = pair_args(dataset)
        out_csv = str(tmp_path / "terms.csv")
        out_json = str(tmp_path / "summary.json")
        code = main(
            ["eval-loss", *args, "--gt", gt, "--seed", "3",
             "--out-csv", out_csv, "--out-json", out_json]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        for name in ("match:", "negative:", "gd:", "gn:", "total:"):
            assert name in printed
        with open(out_csv) as handle:
            header = handle.readline().strip().split(",")
        assert header == ["row", "ref_u", "ref_v", "match", "negative", "gd", "gn"]
        with open(out_json) as handle:
            summary = json.load(handle)
        assert summary["seed"] == 3
        assert summary["n_samples"] >= 1
        # ground-truth correspondences on an exact pair: match stays tiny
        assert summary["breakdown"]["match"] < 1e-10

    def test_terms_evaluated_once(self, dataset, tmp_path, monkeypatch):
        # The printed breakdown and the CSV rows come from one evaluation.
        args, gt = pair_args(dataset)
        calls = []
        real = losses._term

        def counted(name, *rest):
            calls.append(name)
            return real(name, *rest)

        monkeypatch.setattr(losses, "_term", counted)
        code = main(["eval-loss", *args, "--gt", gt, "--out-csv", str(tmp_path / "terms.csv")])
        assert code == EXIT_OK
        assert calls == list(losses.TERMS)

    def test_deterministic_given_seed(self, dataset, tmp_path):
        args, gt = pair_args(dataset)
        paths = [str(tmp_path / f"s{i}.json") for i in range(2)]
        for path in paths:
            assert main(
                ["eval-loss", *args, "--gt", gt, "--seed", "7", "--out-json", path]
            ) == EXIT_OK
        with open(paths[0]) as a, open(paths[1]) as b:
            assert a.read() == b.read()


class TestTrainToy:
    def test_single_epoch_run(self, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(
            "epochs = 1\neval_interval = 1\nn_pairs = 4\neval_offsets = 2\n"
        )
        out = str(tmp_path / "toy.json")
        code = main(
            ["train-toy", "--config", str(cfg), "--seed", "1", "--no-gn", "--out", out]
        )
        assert code == EXIT_OK
        assert "success rate:" in capsys.readouterr().out
        with open(out) as handle:
            payload = json.load(handle)
        assert payload["ablation"] == {"no_gd": False, "no_gn": True, "no_neg": False}
        assert payload["aborted"] is False
        assert payload["weights"]["w_gn"] == 0.0
        assert len(payload["trace"]) == 1
        # the trace keeps raw term means; the zero weight must drop the
        # gn term from the total while the term itself stays visible
        row = payload["trace"][0]
        weights = payload["weights"]
        expected = (
            weights["w_match"] * row["match"]
            + weights["w_negative"] * row["negative"]
            + weights["w_gd"] * row["gd"]
        )
        assert row["gn"] > 0.0
        assert row["total"] == pytest.approx(expected, rel=1e-12)

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("optimizer = adam\n")
        assert main(["train-toy", "--config", str(cfg)]) == EXIT_ERROR
        assert "unknown toy training config key" in capsys.readouterr().err

    def test_non_finite_training_set_key_exits_1(self, tmp_path, capsys):
        # used to be cast with a plain float, and the offset draw never ended
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("eval_flow_px = nan\n")
        assert main(["train-toy", "--config", str(cfg), "--epochs", "1"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error:" in err and "'eval_flow_px'" in err

    @pytest.mark.parametrize(
        "key, value",
        [("eval_interval", "0"), ("eval_offsets", "0"), ("ref_noise", "-1"),
         ("eval_max_iters", "0"), ("batch_size", "0"), ("batch_size", "-2")],
    )
    def test_bad_training_value_exits_1(self, tmp_path, capsys, key, value):
        # eval_interval = 0 used to divide by zero, eval_offsets = 0 to report
        # nan over no starts, ref_noise = -1 to train without noise,
        # eval_max_iters = 0 to count every evaluation start as a miss,
        # batch_size = 0 to blame the correspondences and batch_size = -2 to
        # fail inside NumPy
        lines = {"n_pairs": "4", "eval_offsets": "2", key: value}
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        assert main(["train-toy", "--config", str(cfg), "--epochs", "1"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error:" in err and key in err

    @pytest.mark.parametrize("epochs", ["-1", "-3"])
    def test_negative_epochs_exits_1(self, tmp_path, capsys, epochs):
        # used to exit 0 and write an empty trace
        out = str(tmp_path / "toy.json")
        assert main(["train-toy", "--epochs", epochs, "--out", out]) == EXIT_ERROR
        assert "error: epochs must be non-negative" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestBenchmark:
    def test_report_files_and_determinism(self, dataset, tmp_path):
        manifest = os.path.join(dataset, "manifest.json")
        outs = []
        for tag in ("a", "b"):
            oj = str(tmp_path / f"rep_{tag}.json")
            oc = str(tmp_path / f"rep_{tag}.csv")
            code = main(
                ["benchmark", "--manifest", manifest, "--out-json", oj, "--out-csv", oc]
            )
            assert code == EXIT_OK
            outs.append((oj, oc))
        with open(outs[0][0]) as a, open(outs[1][0]) as b:
            assert a.read() == b.read()
        with open(outs[0][1]) as a, open(outs[1][1]) as b:
            assert a.read() == b.read()

    def test_partial_failure_exits_2(self, dataset, tmp_path, capsys):
        manifest_path = os.path.join(dataset, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["pairs"].append(
            dict(manifest["pairs"][0], name="pair_broken", ref_features="gone/ref.fmap")
        )
        broken = str(tmp_path / "broken_manifest.json")
        with open(broken, "w") as handle:
            json.dump(manifest, handle)
        code = main(
            ["benchmark", "--manifest", broken, "--root", dataset,
             "--out-json", str(tmp_path / "rep.json")]
        )
        assert code == EXIT_PARTIAL
        assert "failures: 1" in capsys.readouterr().out

    @pytest.mark.parametrize("init", ["identity", "corr"])
    def test_mismatched_maps_end_as_records(self, dataset, tmp_path, init):
        out = str(tmp_path / "rep.json")
        code = main(["benchmark", "--manifest", mismatched_manifest(dataset, tmp_path),
                     "--root", dataset, "--init", init, "--out-json", out])
        assert code == EXIT_PARTIAL
        with open(out) as handle:
            records = json.load(handle)["records"]
        assert [r["pair"] for r in records] == ["pair_0000", *MISMATCHED]
        assert records[0]["failure"] == ""
        for record, (_, cause) in zip(records[1:], MISMATCHED.values()):
            assert not record["converged"]
            assert cause in record["failure"]

    def test_non_finite_init_value_exits_1(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "init.cfg"
        cfg.write_text("yaw_range_deg = inf\n")
        manifest = os.path.join(dataset, "manifest.json")
        code = main(["benchmark", "--manifest", manifest, "--init", "corr",
                     "--init-config", str(cfg)])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["yaw_range_deg", "pitch_range_deg", "t_range"])
    def test_negative_search_range_exits_1(self, dataset, tmp_path, capsys, key):
        cfg = tmp_path / "init.cfg"
        cfg.write_text(f"{key} = -6\n")
        manifest = os.path.join(dataset, "manifest.json")
        code = main(["benchmark", "--manifest", manifest, "--init", "corr",
                     "--init-config", str(cfg)])
        assert code == EXIT_ERROR
        assert f"error: {key} must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("margin", ["0.5", "0", "-3"])
    def test_margin_below_sampling_margin_exits_1(self, dataset, tmp_path, capsys, margin):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text(f"margin = {margin}\n")
        manifest = os.path.join(dataset, "manifest.json")
        code = main(["benchmark", "--manifest", manifest, "--init", "corr",
                     "--config", str(cfg), "--out-json", str(tmp_path / "rep.json")])
        assert code == EXIT_ERROR
        assert "error: margin must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()

    def test_min_valid_points_below_one_exits_1(self, dataset, tmp_path, capsys):
        # With no valid point required a level could end "converged" on none.
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("min_valid_points = 0\n")
        manifest = os.path.join(dataset, "manifest.json")
        code = main(["benchmark", "--manifest", manifest, "--config", str(cfg),
                     "--out-json", str(tmp_path / "rep.json")])
        assert code == EXIT_ERROR
        assert "error: min_valid_points must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()

    def test_missing_manifest_exits_1(self, capsys):
        assert main(["benchmark", "--manifest", "nowhere.json"]) == EXIT_ERROR


class TestCompare:
    def test_self_compare_is_zero(self, dataset, tmp_path, capsys):
        manifest = os.path.join(dataset, "manifest.json")
        rep = str(tmp_path / "rep.json")
        assert main(["benchmark", "--manifest", manifest, "--out-json", rep]) == EXIT_OK
        capsys.readouterr()
        delta_out = str(tmp_path / "delta.json")
        code = main(["compare", rep, rep, "--out", delta_out])
        assert code == EXIT_OK
        assert "t_auc +0.0000" in capsys.readouterr().out
        with open(delta_out) as handle:
            delta = json.load(handle)
        assert delta["overall"]["t_auc"] == 0.0

    def test_overflowing_error_report_is_strict_json(self, tmp_path, capsys):
        # Pair 0 of base seed 7000 with its depths scaled by 1e200: the
        # correlation seed lifts the depth into the translation and the
        # translation error overflows to infinity.
        cfg = tmp_path / "ds.cfg"
        cfg.write_text("n_pairs = 1\nbase_seed = 7000\n")
        data = str(tmp_path / "data")
        assert main(["synth", "--config", str(cfg), "--out", data]) == EXIT_OK
        points_path = os.path.join(data, "pair_0000", "points.txt")
        points = load_points_text(points_path)
        save_points_text(points_path, SparsePointSet(points.uv, points.depths * 1e200))
        rep = str(tmp_path / "rep.json")
        code = main(["benchmark", "--manifest", os.path.join(data, "manifest.json"),
                     "--init", "corr", "--out-json", rep])
        assert code == EXIT_OK

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        with open(rep) as handle:
            report = json.load(handle, parse_constant=reject)
        assert report["records"][0]["t_err"] is None
        delta_out = str(tmp_path / "delta.json")
        assert main(["compare", rep, rep, "--out", delta_out]) == EXIT_OK
        with open(delta_out) as handle:
            json.load(handle, parse_constant=reject)

    def test_mismatched_reports_exit_1(self, dataset, tmp_path, capsys):
        manifest = os.path.join(dataset, "manifest.json")
        rep = str(tmp_path / "rep.json")
        assert main(["benchmark", "--manifest", manifest, "--out-json", rep]) == EXIT_OK
        with open(rep) as handle:
            other = json.load(handle)
        other["records"] = other["records"][:1]
        rep2 = str(tmp_path / "rep2.json")
        with open(rep2, "w") as handle:
            json.dump(other, handle)
        assert main(["compare", rep, rep2]) == EXIT_ERROR
