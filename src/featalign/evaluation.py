"""Relocalization benchmark: error curves, AUC, trial records, report deltas.

The flow is deliberately boring: load pairs from a dataset manifest, run the
coarse-to-fine solver on each, measure pose errors against ground truth, and
summarize with cumulative error curves and their area-under-curve in percent.
Reports are plain dicts so they serialize to JSON unchanged, plus a fixed-
column CSV for external plotting.

Determinism contract: given the same manifest, solver config, and init mode,
two runs produce byte-identical JSON and CSV. Pairs are therefore evaluated
in a plain serial loop and wall-clock timings never enter the serialized
output (they stay on the in-memory TrialRecord only).
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .feature_maps import SampleOutOfBoundsError
from .geometry import SE3Pose, pose_errors
from .lm_align import AlignmentError, LMConfig, align_coarse_to_fine
from .pose_init import InitConfig, InitError, corr_pose_init
from .synth import SynthError, load_pair_entry

REPORT_SCHEMA_VERSION = 1
CURVE_BINS = 500
INIT_MODES = ("identity", "corr")

# Fixed CSV column order. `t_err` is in scene units, `r_err_deg` in degrees;
# both measure the returned pose, converged or not. A pose whose translation
# overflows the norm gives an infinite `t_err`, written as null in the JSON.
CSV_COLUMNS = ("pair", "class", "converged", "iterations", "t_err", "r_err_deg", "failure")


class EvalError(ValueError):
    """Bad benchmark input: empty error lists, mismatched reports, etc."""


@dataclass
class TrialRecord:
    """One benchmark pair's outcome.

    ``failure`` is empty for a clean run (converged or not); it carries the
    exception text when the pair could not be processed at all. Errors are
    measured on whatever pose came back, converged or not; the curve
    assembly is what maps non-converged trials to infinite error.
    """

    pair_id: str
    magnitude_class: str
    init_pose: SE3Pose
    est_pose: SE3Pose
    gt_pose: SE3Pose
    t_err: float
    r_err_deg: float
    converged: bool
    iterations: int
    wall_time_s: float
    failure: str = ""

    def to_record_dict(self) -> dict:
        """Serializable form. Wall time is intentionally dropped so reports
        from identical runs compare byte for byte."""
        return {
            "pair": self.pair_id,
            "class": self.magnitude_class,
            "init_pose": [float(x) for x in self.init_pose.matrix34().reshape(-1)],
            "est_pose": [float(x) for x in self.est_pose.matrix34().reshape(-1)],
            "gt_pose": [float(x) for x in self.gt_pose.matrix34().reshape(-1)],
            "t_err": float(self.t_err),
            "r_err_deg": float(self.r_err_deg),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "failure": self.failure,
        }


@dataclass(frozen=True)
class CumulativeCurve:
    thresholds: np.ndarray  # (CURVE_BINS + 1,) uniform on [0, max]
    fractions: np.ndarray  # fraction of trials with error <= threshold


def cumulative_curve(errors, max_threshold: float) -> CumulativeCurve:
    """Empirical CDF of ``errors`` sampled on a uniform threshold grid.

    Infinite entries (the non-converged convention) count against every
    threshold. NaN or negative errors are rejected rather than silently
    sorted somewhere surprising.
    """
    errs = np.asarray(errors, dtype=np.float64).reshape(-1)
    if errs.size == 0:
        raise EvalError("cumulative_curve needs at least one error value")
    if not max_threshold > 0.0:
        raise EvalError(f"max_threshold must be positive, got {max_threshold}")
    if np.isnan(errs).any():
        raise EvalError("errors contain NaN")
    if (errs < 0.0).any():
        raise EvalError("errors must be non-negative")
    thresholds = np.linspace(0.0, float(max_threshold), CURVE_BINS + 1)
    counts = np.searchsorted(np.sort(errs), thresholds, side="right")
    return CumulativeCurve(thresholds=thresholds, fractions=counts / errs.size)


def auc(errors, max_threshold: float) -> float:
    """Area under the cumulative error curve, in percent of the ideal."""
    curve = cumulative_curve(errors, max_threshold)
    area = np.trapezoid(curve.fractions, curve.thresholds)
    return float(area / max_threshold * 100.0)


def _curve_errors(records: list[TrialRecord], attr: str) -> list[float]:
    return [getattr(r, attr) if r.converged else math.inf for r in records]


def run_trial(
    ref_pyramid,
    tgt_pyramid,
    points,
    gt_pose: SE3Pose,
    intrinsics,
    lm_config: LMConfig | None = None,
    init_mode: str = "identity",
    init_config: InitConfig | None = None,
    pair_id: str = "pair",
    magnitude_class: str = "unlabeled",
) -> TrialRecord:
    """Align one pair and measure it against ground truth.

    ``converged`` is the solver's verdict (``AlignmentResult.converged``).
    Exceptions are captured in ``failure`` and scored at the init pose.
    """
    if lm_config is None:
        lm_config = LMConfig()
    if init_mode not in INIT_MODES:
        raise EvalError(f"unknown init mode {init_mode!r}")

    start = time.perf_counter()
    init_pose = SE3Pose.identity()
    est_pose = init_pose
    converged = False
    iterations = 0
    failure = ""
    try:
        if init_mode == "corr":
            init_pose = corr_pose_init(
                ref_pyramid, tgt_pyramid, points, intrinsics, init_config, lm_config
            )
            est_pose = init_pose
        result = align_coarse_to_fine(
            ref_pyramid, tgt_pyramid, points, intrinsics, lm_config, init_pose
        )
        est_pose = result.pose
        iterations = result.total_iterations
        converged = result.converged
        failure = result.failure_reason or ""
    except (AlignmentError, InitError, SynthError, SampleOutOfBoundsError) as exc:
        failure = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start

    t_err, r_err = pose_errors(est_pose, gt_pose)
    return TrialRecord(
        pair_id=pair_id,
        magnitude_class=magnitude_class,
        init_pose=init_pose,
        est_pose=est_pose,
        gt_pose=gt_pose,
        t_err=t_err,
        r_err_deg=r_err,
        converged=converged,
        iterations=iterations,
        wall_time_s=wall,
        failure=failure,
    )


def _curve_dict(curve: CumulativeCurve) -> dict:
    return {
        "thresholds": [float(x) for x in curve.thresholds],
        "fractions": [float(x) for x in curve.fractions],
    }


def _aggregate(records: list[TrialRecord], t_max: float, r_max_deg: float) -> dict:
    return {
        "n": len(records),
        "n_converged": sum(r.converged for r in records),
        "t_auc": auc(_curve_errors(records, "t_err"), t_max),
        "r_auc": auc(_curve_errors(records, "r_err_deg"), r_max_deg),
    }


def run_benchmark(
    manifest: dict,
    root: str,
    lm_config: LMConfig | None = None,
    init_mode: str = "identity",
    init_config: InitConfig | None = None,
    t_max: float = 0.5,
    r_max_deg: float = 0.5,
) -> dict:
    """Evaluate every manifest pair and assemble the report dict.

    A pair that fails to load is recorded as a non-converged failure scored
    against an identity ground truth (its errors are placeholders; the
    ``failure`` text is the part that matters) and the run continues.
    """
    if lm_config is None:
        lm_config = LMConfig()
    if init_mode not in INIT_MODES:
        raise EvalError(f"unknown init mode {init_mode!r}")
    pairs = manifest.get("pairs", [])
    if not pairs:
        raise EvalError("manifest lists no pairs")

    records: list[TrialRecord] = []
    for entry in pairs:
        pair_id = entry.get("name", f"pair_{len(records):04d}")
        magnitude_class = entry.get("class", "unlabeled")
        try:
            ref, tgt, points, gt_pose, intrinsics = load_pair_entry(entry, root)
        except (SynthError, OSError, ValueError) as exc:
            identity = SE3Pose.identity()
            records.append(
                TrialRecord(
                    pair_id=pair_id,
                    magnitude_class=magnitude_class,
                    init_pose=identity,
                    est_pose=identity,
                    gt_pose=identity,
                    t_err=0.0,
                    r_err_deg=0.0,
                    converged=False,
                    iterations=0,
                    wall_time_s=0.0,
                    failure=f"load: {type(exc).__name__}: {exc}",
                )
            )
            continue
        records.append(
            run_trial(
                ref,
                tgt,
                points,
                gt_pose,
                intrinsics,
                lm_config,
                init_mode,
                init_config,
                pair_id=pair_id,
                magnitude_class=magnitude_class,
            )
        )

    overall = _aggregate(records, t_max, r_max_deg)
    per_class: dict[str, dict] = {}
    for cls in sorted({r.magnitude_class for r in records}):
        per_class[cls] = _aggregate(
            [r for r in records if r.magnitude_class == cls], t_max, r_max_deg
        )

    t_curve = cumulative_curve(_curve_errors(records, "t_err"), t_max)
    r_curve = cumulative_curve(_curve_errors(records, "r_err_deg"), r_max_deg)

    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "init_mode": init_mode,
        "damping": lm_config.damping,
        "levels": list(lm_config.levels),
        "base_seed": manifest.get("base_seed"),
        "t_max": float(t_max),
        "r_max_deg": float(r_max_deg),
        "n_pairs": overall["n"],
        "n_converged": overall["n_converged"],
        "n_failures": sum(1 for r in records if r.failure),
        "t_auc": overall["t_auc"],
        "r_auc": overall["r_auc"],
        "per_class": per_class,
        "curves": {"translation": _curve_dict(t_curve), "rotation": _curve_dict(r_curve)},
        "records": [r.to_record_dict() for r in records],
    }


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def report_csv_text(report: dict) -> str:
    """Per-pair table with the fixed CSV_COLUMNS order."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in report["records"]:
        writer.writerow(
            [
                rec["pair"],
                rec["class"],
                "true" if rec["converged"] else "false",
                rec["iterations"],
                _fmt(rec["t_err"]),
                _fmt(rec["r_err_deg"]),
                rec["failure"],
            ]
        )
    return out.getvalue()


def _json_safe(obj):
    """Replace non-finite floats with None so reports stay strict JSON."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def report_json_text(report: dict) -> str:
    """Strict JSON text: non-finite floats are written as null."""
    return json.dumps(_json_safe(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_report(report: dict, json_path: str | None = None, csv_path: str | None = None) -> None:
    if json_path is not None:
        with open(json_path, "w") as handle:
            handle.write(report_json_text(report))
    if csv_path is not None:
        with open(csv_path, "w") as handle:
            handle.write(report_csv_text(report))


def _error(value) -> float:
    return math.inf if value is None else value


def compare_reports(report_a: dict, report_b: dict) -> dict:
    """Per-metric deltas (B minus A) with a per-class breakdown.

    Both reports must cover the same pair ids in the same order; comparing
    disjoint runs would produce numbers that look meaningful but are not.
    A null error (a non-finite value in strict JSON) reads as infinite.
    """
    ids_a = [r["pair"] for r in report_a["records"]]
    ids_b = [r["pair"] for r in report_b["records"]]
    if ids_a != ids_b:
        raise EvalError("reports cover different pairs; cannot compare")

    classes = sorted(set(report_a["per_class"]) | set(report_b["per_class"]))
    per_class = {}
    for cls in classes:
        a = report_a["per_class"].get(cls)
        b = report_b["per_class"].get(cls)
        if a is None or b is None:
            raise EvalError(f"class {cls!r} missing from one report")
        per_class[cls] = {
            "t_auc": b["t_auc"] - a["t_auc"],
            "r_auc": b["r_auc"] - a["r_auc"],
            "n_converged": b["n_converged"] - a["n_converged"],
        }

    pair_rows = []
    for rec_a, rec_b in zip(report_a["records"], report_b["records"]):
        pair_rows.append(
            {
                "pair": rec_a["pair"],
                "class": rec_a["class"],
                "t_err": _error(rec_b["t_err"]) - _error(rec_a["t_err"]),
                "r_err_deg": _error(rec_b["r_err_deg"]) - _error(rec_a["r_err_deg"]),
                "converged": int(rec_b["converged"]) - int(rec_a["converged"]),
            }
        )

    return {
        "overall": {
            "t_auc": report_b["t_auc"] - report_a["t_auc"],
            "r_auc": report_b["r_auc"] - report_a["r_auc"],
            "n_converged": report_b["n_converged"] - report_a["n_converged"],
        },
        "per_class": per_class,
        "pairs": pair_rows,
    }
