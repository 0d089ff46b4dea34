"""Acceptance checklist for the alignment engine, one test per criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line with the measured
figure (via ``capsys.disabled`` so it survives capture), then asserts. The
expensive fixtures are module-scoped and shared; the full module runs in a
few minutes on a laptop.
"""

import json
import math
import time

import numpy as np
import pytest

from featalign.cli import EXIT_OK, main
from featalign.evaluation import auc
from featalign.feature_maps import FeatureMap, build_baseline_pyramid
from featalign.geometry import SE3Pose, boxplus, pose_errors, rotation_error, se3_exp
from featalign.lm_align import (
    LMConfig,
    align_coarse_to_fine,
    build_normal_equations,
    compute_jacobian,
    compute_residuals,
    solve_step,
)
from featalign.losses import LOG_TWO_PI, CorrespondenceBatch, LossConfig, batch_terms
from featalign.pose_init import candidate_energy, corr_pose_init
from featalign.synth import (
    DatasetConfig,
    SynthError,
    build_dataset,
    build_pair,
    generate_scene,
    sample_pose_perturbation,
)
from featalign.toy_train import ToyTrainConfig, make_toy_training_set, train_toy_features

from solver_helpers import damp


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def _build_pairs(start_seed, n, magnitude_class):
    """Deterministic pair stream; seeds that fail to synthesize are skipped."""
    pairs = []
    seed = start_seed
    while len(pairs) < n:
        try:
            rng = np.random.default_rng(seed)
            scene = generate_scene(rng, seed=seed)
            pose = sample_pose_perturbation(rng, magnitude_class, scene)
            pairs.append(
                build_pair(scene, pose, rng, magnitude_class=magnitude_class, seed=seed)
            )
        except SynthError:
            pass
        seed += 1
    return pairs


def _align(pair, config, init_pose=None):
    return align_coarse_to_fine(
        pair.ref_pyramid, pair.tgt_pyramid, pair.points, pair.intrinsics, config, init_pose
    )


@pytest.fixture(scope="module")
def large_pairs():
    return _build_pairs(1000, 200, "large")


@pytest.fixture(scope="module")
def large_ctf_results(large_pairs):
    config = LMConfig()
    return [_align(pair, config) for pair in large_pairs]


@pytest.fixture(scope="module")
def disk_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_bench")
    build_dataset(
        DatasetConfig(out_dir=str(root), n_pairs=12, classes=("large",), base_seed=77)
    )
    return root


# -- 1: analytic twist Jacobian vs central finite differences ---------------


def test_jacobian_matches_finite_differences(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(3000)
    step = 1e-6
    box = np.array([0.05, 0.05, 0.03, 0.02, 0.02, 0.02])

    checked = 0
    worst = 0.0
    for scene_seed in range(10):
        scene = generate_scene(rng, seed=3000 + scene_seed)
        tgt = build_baseline_pyramid(scene.texture).level(4)
        k = scene.intrinsics
        h, w = scene.texture.shape
        for _ in range(3):
            pose = se3_exp(rng.uniform(-1.0, 1.0, size=6) * box)
            for _ in range(12):
                uv = rng.uniform([8.0, 8.0], [w - 9.0, h - 9.0], size=(1, 2))
                depths = scene.depth[int(uv[0, 1]), int(uv[0, 0])][None]
                base = compute_residuals(tgt, tgt, uv, depths, pose, k)
                if not base.valid[0]:
                    continue
                # Differencing across an interpolation cell edge compares
                # two different bilinear patches; skip those warps.
                frac = base.warped[0] - np.floor(base.warped[0])
                if np.any(np.minimum(frac, 1.0 - frac) < 5e-3):
                    continue
                jac, _ = compute_jacobian(tgt, uv, depths, pose, k)
                fd = np.zeros((tgt.channels, 6))
                for col in range(6):
                    d = np.zeros(6)
                    d[col] = step
                    hi = compute_residuals(tgt, tgt, uv, depths, boxplus(d, pose), k)
                    lo = compute_residuals(tgt, tgt, uv, depths, boxplus(-d, pose), k)
                    fd[:, col] = (hi.residuals[0] - lo.residuals[0]) / (2 * step)
                rel = np.abs(jac[0] - fd).max() / max(np.abs(fd).max(), 1e-9)
                worst = max(worst, rel)
                checked += 1

    elapsed = time.monotonic() - t0
    ok = checked >= 100 and worst < 1e-3 and elapsed < 10.0
    _report(
        capsys, 1, ok,
        f"{checked} scene/pose/point configs, max rel err {worst:.2e}, {elapsed:.1f}s",
    )
    assert checked >= 100
    assert worst < 1e-3
    assert elapsed < 10.0


# -- 2: small-motion pose recovery from identity -----------------------------


def test_small_pairs_recover_pose(capsys):
    t0 = time.monotonic()
    pairs = _build_pairs(2000, 200, "small")
    config = LMConfig(damping="marquardt")

    failures = []
    for i, pair in enumerate(pairs):
        result = _align(pair, config)
        t_err, r_err = pose_errors(result.pose, pair.gt_pose)
        if not (t_err < 1e-3 and r_err < 0.01):
            last = result.levels[-1]
            failures.append(
                f"pair {i} (seed {pair.seed}): t {t_err:.2e}, R {r_err:.2e} deg, "
                f"termination {last.termination!r}, {result.failure_reason or 'no error'}"
            )
    rate = 1.0 - len(failures) / len(pairs)
    elapsed = time.monotonic() - t0

    ok = rate >= 0.95 and elapsed < 60.0
    _report(
        capsys, 2, ok,
        f"{rate:.1%} of 200 within t<1e-3, R<0.01deg (marquardt), {elapsed:.1f}s",
    )
    if failures:
        with capsys.disabled():
            for line in failures:
                print(f"    failed: {line}")
    assert rate >= 0.95, failures
    assert elapsed < 60.0


# -- 3: coarse-to-fine enlarges the convergence basin ------------------------


def test_coarse_to_fine_beats_single_level(capsys, large_pairs, large_ctf_results):
    single_config = LMConfig(levels=(4,))

    def success(result, pair):
        t_err, _ = pose_errors(result.pose, pair.gt_pose)
        return t_err < 0.01

    ctf = np.mean(
        [success(r, p) for r, p in zip(large_ctf_results, large_pairs)]
    )
    single = np.mean(
        [success(_align(p, single_config), p) for p in large_pairs]
    )
    gap_pp = (ctf - single) * 100.0

    ok = gap_pp >= 20.0
    _report(
        capsys, 3, ok,
        f"large-class success {ctf:.1%} coarse-to-fine vs {single:.1%} "
        f"level-4 only, gap {gap_pp:.1f}pp",
    )
    assert gap_pp >= 20.0


# -- 4: damping limit behavior ------------------------------------------------


def test_damping_limits(capsys, large_pairs):
    pair = large_pairs[0]
    uv1 = pair.points.at_level(1)
    depths = pair.points.depths
    k1 = pair.intrinsics.at_level(1)
    identity = SE3Pose.identity()

    def system(ref_map, tgt_map):
        ev = compute_residuals(ref_map, tgt_map, uv1, depths, identity, k1)
        jac, _ = compute_jacobian(tgt_map, uv1, depths, identity, k1)
        return build_normal_equations(jac, ev.residuals, np.ones(len(uv1)))

    h, b = system(pair.ref_pyramid.level(1), pair.tgt_pyramid.level(1))
    gn = np.linalg.solve(h, b)
    lev0 = solve_step(damp(h, 0.0, "levenberg"), b, 1e12)
    rel_zero = np.linalg.norm(lev0 - gn) / np.linalg.norm(gn)

    # The huge-damping limit needs a small-norm system: the relative gap to
    # b/lambda scales like |H|/lambda, so shrink the feature amplitudes
    # until |H| is a couple of orders below lambda * tolerance.
    scale = 0.05
    h_s, b_s = system(
        FeatureMap(pair.ref_pyramid.level(1).values * scale),
        FeatureMap(pair.tgt_pyramid.level(1).values * scale),
    )
    assert np.abs(h_s).max() <= 100.0
    lam = 1e8
    huge = solve_step(damp(h_s, lam, "levenberg"), b_s, 1e12)
    rel_huge = np.linalg.norm(huge - b_s / lam) / np.linalg.norm(b_s / lam)

    ok = rel_zero <= 1e-10 and rel_huge < 1e-6
    _report(
        capsys, 4, ok,
        f"lambda=0 matches plain GN to {rel_zero:.1e}; "
        f"lambda=1e8 step within {rel_huge:.1e} of b/lambda",
    )
    assert rel_zero <= 1e-10
    assert rel_huge < 1e-6


# -- 5: damping schedule read off the iteration traces ------------------------


def test_lambda_schedule(capsys, large_ctf_results):
    # Success path: an easy exact pair where nearly every step is accepted.
    pair = _build_pairs(2000, 1, "small")[0]
    result = _align(pair, LMConfig())
    accepted = [
        rec
        for stats in result.levels
        for rec in stats.trace
        if rec.accepted
    ]
    accept_bad = sum(rec.lambda_after != 0.5 * rec.lambda_before for rec in accepted)

    # Failure path: every rejection in the large-motion runs. Records whose
    # damping did not move are the step-norm exits, not rejections.
    rejected = [
        rec
        for res in large_ctf_results
        for stats in res.levels
        for rec in stats.trace
        if not rec.accepted and rec.lambda_after != rec.lambda_before
    ]
    reject_bad = sum(rec.lambda_after != 4.0 * rec.lambda_before for rec in rejected)

    ok = (
        len(accepted) >= 8
        and accept_bad == 0
        and len(rejected) >= 50
        and reject_bad == 0
    )
    _report(
        capsys, 5, ok,
        f"{len(accepted)} accepted steps all x0.5, "
        f"{len(rejected)} rejected steps all x4.0 (exact float equality)",
    )
    assert len(accepted) >= 8 and accept_bad == 0
    assert len(rejected) >= 50 and reject_bad == 0


# -- 6: hand-computed loss identities -----------------------------------------


def _ramp_map(h, w, slopes_u, slopes_v):
    vv, uu = np.mgrid[0:h, 0:w].astype(np.float64)
    channels = [a * uu + b * vv for a, b in zip(slopes_u, slopes_v)]
    return FeatureMap(np.stack(channels, axis=2))


def _const_map(h, w, values):
    data = np.zeros((h, w, len(values)))
    data[:] = np.asarray(values)
    return FeatureMap(data)


def _one_row_terms(ref, tgt, p, gt, neg=None, ring=None, near=None, config=None):
    """batch_terms of a one-row batch; samples left unset sit at ``gt``."""
    rows = [p, gt, neg or gt, ring or gt, near or gt]
    batch = CorrespondenceBatch(*(np.array([uv], dtype=np.float64) for uv in rows))
    terms = batch_terms(ref, tgt, batch, config or LossConfig())
    return {name: float(values[0]) for name, values in terms.items()}


def test_loss_identities(capsys):
    # Unit curvature, zero residual at the truth: only the normalization
    # constant of the step density remains.
    tgt = _ramp_map(12, 12, [1.0, 0.0], [0.0, 1.0])
    gt = (6.0, 7.0)
    ref = _const_map(12, 12, [6.0, 7.0])
    gn = _one_row_terms(ref, tgt, (2.0, 2.0), gt, near=gt)["gn"]
    gn_err = abs(gn - LOG_TWO_PI)

    # Identical features at a non-corresponding site: full hinge.
    flat = _const_map(10, 10, [0.25, -0.5])
    neg = _one_row_terms(flat, flat, (3.0, 3.0), (7.0, 6.0), neg=(7.0, 6.0))["negative"]

    # Damped step from the ring moves straight toward the truth, so the
    # progress hinge is exactly zero.
    tgt_r = _ramp_map(12, 24, [2.0], [0.0])
    ref_r = _const_map(12, 24, [20.0])
    gd = _one_row_terms(
        ref_r, tgt_r, (10.0, 5.0), (10.0, 5.0), ring=(15.0, 5.0), config=LossConfig(lambda_f=2.0)
    )["gd"]

    ok = gn_err <= 1e-9 and neg == 1.0 and gd == 0.0
    _report(
        capsys, 6, ok,
        f"unit-curvature step density off log(2*pi) by {gn_err:.1e}; "
        f"identical-feature hinge {neg}; collinear progress hinge {gd}",
    )
    assert gn_err <= 1e-9
    assert neg == 1.0
    assert gd == 0.0


# -- 7: training-signal ablations on the toy trainer --------------------------


def test_toy_loss_ablation(capsys):
    t0 = time.monotonic()
    base = ToyTrainConfig()
    variants = {
        "full": base,
        "no_gd": ToyTrainConfig(loss=LossConfig(w_gd=0.0, w_gn=base.loss.w_gn)),
        "no_gn": ToyTrainConfig(loss=LossConfig(w_gd=base.loss.w_gd, w_gn=0.0)),
    }
    success = {name: [] for name in variants}
    accuracy = {name: [] for name in variants}
    improved = 0
    for seed in range(5):
        training_set = make_toy_training_set(seed)
        for name, config in variants.items():
            result = train_toy_features(training_set, config)
            success[name].append(result.final_success)
            accuracy[name].append(result.final_accuracy)
            if name == "full" and result.final_success > result.initial_success:
                improved += 1

    med_success = {k: float(np.median(v)) for k, v in success.items()}
    med_accuracy = {k: float(np.median(v)) for k, v in accuracy.items()}
    elapsed = time.monotonic() - t0

    ok = (
        med_success["full"] > med_success["no_gd"]
        and med_accuracy["full"] <= med_accuracy["no_gn"]
        and elapsed < 300.0
    )
    _report(
        capsys, 7, ok,
        f"median success {med_success['full']:.3f} full vs {med_success['no_gd']:.3f} "
        f"without basin term; median accuracy {med_accuracy['full']:.4f} full vs "
        f"{med_accuracy['no_gn']:.4f} without step term; "
        f"{improved}/5 full runs improved; {elapsed:.0f}s",
    )
    assert med_success["full"] > med_success["no_gd"]
    assert med_accuracy["full"] <= med_accuracy["no_gn"]
    assert improved >= 3
    assert elapsed < 300.0


# -- 8: correlation seeding helps on large motion ------------------------------


def test_correlation_seed_utility(capsys, large_pairs, disk_dataset):
    sample = large_pairs[:40]
    reduced = 0
    for pair in sample:
        seed_pose = corr_pose_init(
            pair.ref_pyramid, pair.tgt_pyramid, pair.points, pair.intrinsics
        )
        args = (pair.ref_pyramid.level(1), pair.tgt_pyramid.level(1),
                pair.points, pair.intrinsics)
        if candidate_energy(*args, seed_pose) < candidate_energy(*args, SE3Pose.identity()):
            reduced += 1
    frac = reduced / len(sample)

    reports = {}
    for mode in ("identity", "corr"):
        out = disk_dataset / f"report_{mode}.json"
        code = main(
            [
                "benchmark",
                "--manifest", str(disk_dataset / "manifest.json"),
                "--init", mode,
                "--out-json", str(out),
            ]
        )
        assert code in (0, 2)
        reports[mode] = json.loads(out.read_text())
    auc_id = reports["identity"]["per_class"]["large"]["t_auc"]
    auc_corr = reports["corr"]["per_class"]["large"]["t_auc"]

    ok = frac >= 0.9 and auc_corr >= auc_id
    _report(
        capsys, 8, ok,
        f"coarse energy reduced on {reduced}/{len(sample)} large pairs; "
        f"benchmark t_auc {auc_corr:.1f} seeded vs {auc_id:.1f} identity",
    )
    assert frac >= 0.9
    assert auc_corr >= auc_id


# -- 9: metric sanity -----------------------------------------------------------


def test_metric_sanity(capsys):
    rng = np.random.default_rng(9)
    max_err = 0.5
    uniform_auc = auc(rng.uniform(0.0, max_err, size=100_000), max_err)

    worst = 0.0
    for theta_deg in (1.0, 30.0, 179.0):
        for k in range(3):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            omega = axis * math.radians(theta_deg)
            pose = se3_exp(np.concatenate([np.zeros(3), omega]))
            got = rotation_error(pose.rotation, np.eye(3))
            worst = max(worst, abs(got - theta_deg))

    ok = abs(uniform_auc - 50.0) <= 0.5 and worst <= 1e-9
    _report(
        capsys, 9, ok,
        f"uniform-error area {uniform_auc:.2f} (want 50 +/- 0.5); "
        f"axis-angle round trip off by {worst:.1e} deg",
    )
    assert abs(uniform_auc - 50.0) <= 0.5
    assert worst <= 1e-9


# -- 10: benchmark byte determinism ---------------------------------------------


def test_benchmark_byte_determinism(capsys, disk_dataset):
    outputs = []
    for run in ("a", "b"):
        csv_path = disk_dataset / f"det_{run}.csv"
        json_path = disk_dataset / f"det_{run}.json"
        code = main(
            [
                "benchmark",
                "--manifest", str(disk_dataset / "manifest.json"),
                "--init", "corr",
                "--out-csv", str(csv_path),
                "--out-json", str(json_path),
            ]
        )
        assert code in (0, 2)
        outputs.append((csv_path.read_bytes(), json_path.read_bytes()))

    same_csv = outputs[0][0] == outputs[1][0]
    same_json = outputs[0][1] == outputs[1][1]
    ok = same_csv and same_json
    _report(
        capsys, 10, ok,
        f"repeated runs byte-identical: csv {same_csv} "
        f"({len(outputs[0][0])} bytes), json {same_json}",
    )
    assert same_csv
    assert same_json
