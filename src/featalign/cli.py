"""Command-line surface over the alignment, training, and benchmark tools.

Every subcommand speaks the same config dialect (key = value text, see
configfile.py) and exits 0 on success, 1 on any hard error, 2 when a
benchmark completed but some pairs failed. All randomness is reachable
through --seed; commands without a --seed flag have nothing random in them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from .configfile import load_config
from .evaluation import compare_reports, report_json_text, run_benchmark, write_report
from .feature_maps import load_feature_pyramid
from .geometry import (
    CameraIntrinsics,
    SE3Pose,
    load_pose_text,
    pose_errors,
    save_pose_text,
    warp_points,
)
from .lm_align import LMConfig, align_coarse_to_fine, load_points_text
from .losses import LossConfig, LossError, batch_terms, sample_batch, total_loss
from .pose_init import InitConfig, InitError, corr_pose_init
from .synth import SynthError, build_dataset, dataset_config_from_mapping, load_manifest
from .toy_train import ToyTrainConfig, make_toy_training_set, train_toy_features

# LossError, InitError, and SynthError do not descend from ValueError the
# way the file-format and config errors do, so the dispatcher names them.
_HARD_ERRORS = (ValueError, OSError, LossError, InitError, SynthError)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2

def _mapping(path: str | None) -> dict:
    return load_config(path) if path else {}


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        handle.write(report_json_text(payload))


def cmd_synth(args) -> int:
    config = dataset_config_from_mapping(_mapping(args.config), args.out)
    if args.seed is not None:
        config = dataclasses.replace(config, base_seed=args.seed)
    manifest = build_dataset(config)
    print(f"wrote {manifest['n_pairs']} pairs under {args.out}")
    return EXIT_OK


def _load_pair_files(args):
    ref = load_feature_pyramid(args.ref)
    tgt = load_feature_pyramid(args.target)
    points = load_points_text(args.points)
    intrinsics = CameraIntrinsics.from_mapping(load_config(args.intrinsics))
    return ref, tgt, points, intrinsics


def cmd_align(args) -> int:
    ref, tgt, points, intrinsics = _load_pair_files(args)
    overrides = _mapping(args.config)
    if args.damping:
        overrides["damping"] = args.damping
    if args.levels:
        overrides["levels"] = args.levels
    lm_config = LMConfig.from_mapping(overrides)

    if args.init_pose and args.init == "corr":
        raise ValueError("--init-pose and --init corr are mutually exclusive")
    if args.init_pose:
        init_pose = load_pose_text(args.init_pose)
    elif args.init == "corr":
        init_pose = corr_pose_init(ref, tgt, points, intrinsics, lm_config=lm_config)
    else:
        init_pose = SE3Pose.identity()

    result = align_coarse_to_fine(ref, tgt, points, intrinsics, lm_config, init_pose)
    payload = result.to_dict(include_trace=args.trace)
    payload["init_mode"] = "pose-file" if args.init_pose else args.init
    payload["init_pose"] = [float(x) for x in init_pose.matrix34().reshape(-1)]

    print(f"converged: {result.converged}")
    print(f"iterations: {result.total_iterations}")
    for stats in result.levels:
        outcome = stats.skipped_reason or stats.termination
        print(f"  level {stats.level}: {stats.iterations} iters, {outcome}")
    if args.gt:
        gt_pose = load_pose_text(args.gt)
        t_err, r_err = pose_errors(result.pose, gt_pose)
        payload["t_err"] = t_err
        payload["r_err_deg"] = r_err
        print(f"t_err: {t_err:.6g}")
        print(f"r_err_deg: {r_err:.6g}")
    if args.out:
        _write_json(args.out, payload)
    if args.pose_out:
        save_pose_text(args.pose_out, result.pose)
    return EXIT_OK


def cmd_eval_loss(args) -> int:
    ref, tgt, points, intrinsics = _load_pair_files(args)
    gt_pose = load_pose_text(args.gt)
    config = LossConfig.from_mapping(_mapping(args.config))

    ref_map = ref.level(4)
    tgt_map = tgt.level(4)
    uv = points.at_level(4)
    warped, valid, _ = warp_points(uv, points.depths, gt_pose, intrinsics.at_level(4))
    if not valid.any():
        raise LossError("no sparse point projects into the target view")
    corr = np.hstack([uv[valid], warped[valid]])

    rng = np.random.default_rng(args.seed)
    batch = sample_batch(rng, corr, (tgt_map.height, tgt_map.width), config)
    total, breakdown = total_loss(ref_map, tgt_map, batch, config)
    for name in ("match", "negative", "gd", "gn", "total"):
        print(f"{name}: {breakdown[name]:.9g}")

    if args.out_csv:
        terms = batch_terms(ref_map, tgt_map, batch, config)
        with open(args.out_csv, "w") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("row", "ref_u", "ref_v", "match", "negative", "gd", "gn"))
            for i in range(len(batch.ref_uv)):
                writer.writerow(
                    [
                        i,
                        f"{batch.ref_uv[i, 0]:.17g}",
                        f"{batch.ref_uv[i, 1]:.17g}",
                        f"{terms['match'][i]:.17g}",
                        f"{terms['negative'][i]:.17g}",
                        f"{terms['gd'][i]:.17g}",
                        f"{terms['gn'][i]:.17g}",
                    ]
                )
    if args.out_json:
        _write_json(
            args.out_json,
            {
                "breakdown": breakdown,
                "n_samples": int(len(batch.ref_uv)),
                "seed": args.seed,
                "weights": {
                    "w_match": config.w_match,
                    "w_negative": config.w_negative,
                    "w_gd": config.w_gd,
                    "w_gn": config.w_gn,
                },
            },
        )
    return EXIT_OK


def cmd_train_toy(args) -> int:
    config = ToyTrainConfig.from_mapping(_mapping(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.epochs is not None:
        config = dataclasses.replace(config, epochs=args.epochs)

    loss = config.loss
    if args.no_gd:
        loss = dataclasses.replace(loss, w_gd=0.0)
    if args.no_gn:
        loss = dataclasses.replace(loss, w_gn=0.0)
    if args.no_neg:
        loss = dataclasses.replace(loss, w_negative=0.0)
    config = dataclasses.replace(config, loss=loss)

    training_set = make_toy_training_set(
        config.seed, config.n_pairs, config.eval_offsets, config.eval_flow_px, config.ref_noise
    )
    result = train_toy_features(training_set, config)

    print(f"epochs: {config.epochs}{' (aborted)' if result.aborted else ''}")
    print(f"success rate: {result.initial_success:.3f} -> {result.final_success:.3f}")
    print(
        "mean flow error of successes: "
        f"{result.initial_accuracy:.4f} -> {result.final_accuracy:.4f}"
    )
    if args.out:
        _write_json(
            args.out,
            {
                "aborted": result.aborted,
                "initial_success": result.initial_success,
                "final_success": result.final_success,
                "initial_accuracy": result.initial_accuracy,
                "final_accuracy": result.final_accuracy,
                "ablation": {
                    "no_gd": args.no_gd,
                    "no_gn": args.no_gn,
                    "no_neg": args.no_neg,
                },
                "weights": {
                    "w_match": loss.w_match,
                    "w_negative": loss.w_negative,
                    "w_gd": loss.w_gd,
                    "w_gn": loss.w_gn,
                },
                "seed": config.seed,
                "epochs": config.epochs,
                "trace": result.trace,
            },
        )
    if result.aborted:
        print("training diverged", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def cmd_benchmark(args) -> int:
    manifest = load_manifest(args.manifest)
    root = args.root if args.root else os.path.dirname(args.manifest) or "."
    lm_config = LMConfig.from_mapping(_mapping(args.config))
    init_config = (
        InitConfig.from_mapping(_mapping(args.init_config)) if args.init_config else None
    )
    report = run_benchmark(
        manifest,
        root,
        lm_config,
        init_mode=args.init,
        init_config=init_config,
        t_max=args.t_max,
        r_max_deg=args.r_max,
    )
    write_report(report, json_path=args.out_json, csv_path=args.out_csv)
    print(
        f"pairs: {report['n_pairs']}  converged: {report['n_converged']}  "
        f"failures: {report['n_failures']}"
    )
    print(f"t_auc: {report['t_auc']:.4f}  r_auc: {report['r_auc']:.4f}")
    return EXIT_PARTIAL if report["n_failures"] else EXIT_OK


def cmd_compare(args) -> int:
    with open(args.report_a) as handle:
        report_a = json.load(handle)
    with open(args.report_b) as handle:
        report_b = json.load(handle)
    delta = compare_reports(report_a, report_b)
    overall = delta["overall"]
    print(
        f"overall: t_auc {overall['t_auc']:+.4f}  r_auc {overall['r_auc']:+.4f}  "
        f"converged {overall['n_converged']:+d}"
    )
    for cls, row in delta["per_class"].items():
        print(
            f"{cls}: t_auc {row['t_auc']:+.4f}  r_auc {row['r_auc']:+.4f}  "
            f"converged {row['n_converged']:+d}"
        )
    if args.out:
        _write_json(args.out, delta)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="featalign",
        description="Feature-metric direct alignment: synthesis, solving, training, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    p.add_argument("--config", help="dataset config file (key = value)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, help="override the dataset base seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("align", help="align one stored pair")
    p.add_argument("--ref", required=True, help="reference feature pyramid (.fmap)")
    p.add_argument("--target", required=True, help="target feature pyramid (.fmap)")
    p.add_argument("--points", required=True, help="sparse points text file")
    p.add_argument("--intrinsics", required=True, help="intrinsics config file")
    p.add_argument("--config", help="solver config file (LMConfig fields)")
    p.add_argument("--init", choices=("identity", "corr"), default="identity")
    p.add_argument("--init-pose", help="pose text file to start from")
    p.add_argument("--damping", choices=("levenberg", "marquardt"))
    p.add_argument("--levels", help="pyramid levels, e.g. '1 2 3 4'")
    p.add_argument("--gt", help="ground-truth pose text file (prints errors)")
    p.add_argument("--out", help="write the result JSON here")
    p.add_argument("--pose-out", help="write the estimated pose text here")
    p.add_argument("--trace", action="store_true", help="include per-iteration traces")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("eval-loss", help="loss term breakdown on a stored pair")
    p.add_argument("--ref", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--intrinsics", required=True)
    p.add_argument("--gt", required=True, help="ground-truth pose text file")
    p.add_argument("--config", help="loss config file (LossConfig fields)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-csv", help="per-sample term values")
    p.add_argument("--out-json", help="summary JSON")
    p.set_defaults(func=cmd_eval_loss)

    p = sub.add_parser("train-toy", help="train the toy feature map")
    p.add_argument("--config", help="training config file")
    p.add_argument("--seed", type=int, help="override the training seed")
    p.add_argument("--epochs", type=int, help="override the epoch count")
    p.add_argument("--no-gd", action="store_true", help="drop the ring descent term")
    p.add_argument("--no-gn", action="store_true", help="drop the step-likelihood term")
    p.add_argument("--no-neg", action="store_true", help="drop the negative hinge term")
    p.add_argument("--out", help="write metrics and trace JSON here")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("benchmark", help="run the relocalization benchmark")
    p.add_argument("--manifest", required=True, help="dataset manifest.json")
    p.add_argument("--root", help="dataset root (default: manifest directory)")
    p.add_argument("--config", help="solver config file")
    p.add_argument("--init", choices=("identity", "corr"), default="identity")
    p.add_argument("--init-config", help="correlation seeding config file")
    p.add_argument("--t-max", type=float, default=0.5, help="translation curve limit")
    p.add_argument("--r-max", type=float, default=0.5, help="rotation curve limit, degrees")
    p.add_argument("--out-json", help="write the report JSON here")
    p.add_argument("--out-csv", help="write the per-pair CSV here")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("compare", help="delta table between two benchmark reports")
    p.add_argument("report_a", help="baseline report JSON")
    p.add_argument("report_b", help="candidate report JSON")
    p.add_argument("--out", help="write the delta JSON here")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _HARD_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
