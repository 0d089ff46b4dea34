"""Hand-checked values and invariants for the correspondence losses.

Feature values in the constructed maps are dyadic rationals (multiples of
powers of two) wherever a test asserts exact numbers, so the float32 cast
inside FeatureMap does not move them.
"""

import math

import numpy as np
import pytest

from featalign.feature_maps import FeatureMap, gather_stencil
from featalign.losses import (
    DET_FLOOR,
    FD_STEP,
    LOG_TWO_PI,
    TERMS,
    CorrespondenceBatch,
    LossConfig,
    LossError,
    _gn_pieces,
    _solve_2x2,
    batch_terms,
    loss_gradient_fd,
    sample_batch,
    total_loss,
)


def ramp_map(h, w, slopes_u, slopes_v, offsets=None):
    """Per-channel planes a*u + b*v + c; exact in float32 for small ints."""
    vv, uu = np.mgrid[0:h, 0:w].astype(np.float64)
    channels = []
    for i, (a, b) in enumerate(zip(slopes_u, slopes_v)):
        c = 0.0 if offsets is None else offsets[i]
        channels.append(a * uu + b * vv + c)
    return FeatureMap(np.stack(channels, axis=2))


def constant_map(h, w, values):
    data = np.zeros((h, w, len(values)))
    data[:] = np.asarray(values)
    return FeatureMap(data)


def one_row_batch(ref_uv, gt_uv, neg_uv, ring_uv, near_uv):
    return CorrespondenceBatch(
        ref_uv=np.asarray(ref_uv, dtype=np.float64)[None, :],
        gt_uv=np.asarray(gt_uv, dtype=np.float64)[None, :],
        neg_uv=np.asarray(neg_uv, dtype=np.float64)[None, :],
        ring_uv=np.asarray(ring_uv, dtype=np.float64)[None, :],
        near_uv=np.asarray(near_uv, dtype=np.float64)[None, :],
    )


def row_terms(ref, tgt, p, gt, neg=None, ring=None, near=None, config=None):
    """The four loss terms of a one-row batch; unset samples sit at ``gt``."""
    batch = one_row_batch(
        p,
        gt,
        gt if neg is None else neg,
        gt if ring is None else ring,
        gt if near is None else near,
    )
    terms = batch_terms(ref, tgt, batch, LossConfig() if config is None else config)
    return {name: float(values[0]) for name, values in terms.items()}


def gn_system(ref, tgt, p, q):
    """Residual, Jacobian, Hessian and rhs of one target sample, from its stencil."""
    f_ref = gather_stencil(ref, np.asarray(p, dtype=np.float64)[None, :]).values()
    st = gather_stencil(tgt, np.asarray(q, dtype=np.float64)[None, :])
    res, jac, hess, rhs = _gn_pieces(st, f_ref)
    return res[0], jac[0], hess[0], rhs[0]


def brute_gradient(ref_map, params, batch, config, entries, step=FD_STEP):
    """Central differences of total_loss, rebuilding the whole map per entry.

    The test oracle for loss_gradient_fd: every entry costs two full loss
    evaluations, so calls are capped at 10,000 entries.
    """
    assert len(entries) <= 10_000, "entry budget is 10000 per call"
    grad = np.zeros_like(params)
    for (v, u, c) in entries:
        bumped = params.copy()
        bumped[v, u, c] = params[v, u, c] + step
        up, _ = total_loss(ref_map, FeatureMap(bumped), batch, config)
        bumped[v, u, c] = params[v, u, c] - step
        down, _ = total_loss(ref_map, FeatureMap(bumped), batch, config)
        grad[v, u, c] = (up - down) / (2.0 * step)
    return grad


class TestMatchLoss:
    def test_identical_point_is_zero(self):
        m = ramp_map(12, 12, [0.5, -0.25], [0.25, 0.5])
        assert row_terms(m, m, (5.0, 6.0), (5.0, 6.0))["match"] == 0.0

    def test_constant_maps_hand_value(self):
        ref = constant_map(10, 10, [0.0, 0.0])
        tgt = constant_map(10, 10, [0.25, -0.5])
        # 0.25^2 + 0.5^2 = 0.3125 regardless of the sample positions
        assert row_terms(ref, tgt, (3.0, 3.0), (6.5, 2.25))["match"] == pytest.approx(
            0.3125, abs=1e-12
        )

    def test_bilinear_midpoint_hand_value(self):
        ref = constant_map(8, 8, [0.0])
        data = np.zeros((8, 8, 1))
        data[2, 3, 0] = 1.0  # neighbours stay 0
        tgt = FeatureMap(data)
        # halfway between (3,2) and (4,2): interpolated value 0.5
        assert row_terms(ref, tgt, (1.0, 1.0), (3.5, 2.0))["match"] == pytest.approx(
            0.25, abs=1e-12
        )


class TestNegativeHinge:
    def test_identical_features_cost_full_margin(self):
        m = ramp_map(10, 10, [0.5], [0.25])
        p = (4.0, 4.0)
        terms = row_terms(m, m, p, p, neg=p, config=LossConfig(margin=1.0))
        assert terms["negative"] == 1.0

    def test_partial_separation(self):
        ref = constant_map(10, 10, [0.0])
        tgt = constant_map(10, 10, [0.5])  # d2 = 0.25
        terms = row_terms(ref, tgt, (2.0, 2.0), (7.0, 7.0), neg=(7.0, 7.0))
        assert terms["negative"] == pytest.approx(0.75, abs=1e-12)

    def test_wide_separation_is_free(self):
        ref = constant_map(10, 10, [0.0])
        tgt = constant_map(10, 10, [4.0])  # d2 = 16 > margin
        assert row_terms(ref, tgt, (2.0, 2.0), (7.0, 7.0), neg=(7.0, 7.0))["negative"] == 0.0


class TestPointGNSystem:
    def test_ramp_jacobian_and_hessian_exact(self):
        # channel 0 rises along u, channel 1 along v: J = I, H = I
        tgt = ramp_map(12, 12, [1.0, 0.0], [0.0, 1.0])
        ref = constant_map(12, 12, [3.0, 4.0])
        res, jac, hess, rhs = gn_system(ref, tgt, (2.0, 2.0), (5.0, 7.0))
        np.testing.assert_array_equal(jac, np.eye(2))
        np.testing.assert_array_equal(hess, np.eye(2))
        # residual = F'(5,7) - (3,4) = (2, 3); rhs = -J^T r
        np.testing.assert_allclose(res, [2.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(rhs, [-2.0, -3.0], atol=1e-12)

    def test_hessian_matches_jtj_and_is_psd(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(14, 14, 3))
        tgt = FeatureMap(data)
        ref = FeatureMap(rng.normal(size=(14, 14, 3)))
        for _ in range(20):
            p = rng.uniform(2.0, 11.0, size=2)
            q = rng.uniform(2.0, 11.0, size=2)
            _, jac, hess, _ = gn_system(ref, tgt, p, q)
            np.testing.assert_allclose(hess, jac.T @ jac, rtol=0, atol=1e-12)
            eigs = np.linalg.eigvalsh(hess)
            assert eigs.min() >= -1e-12

    def test_huge_damping_step_approaches_rhs_over_lambda(self):
        rng = np.random.default_rng(9)
        tgt = FeatureMap(rng.normal(size=(16, 16, 2)))
        ref = FeatureMap(rng.normal(size=(16, 16, 2)))
        lam = 1e6
        for _ in range(10):
            _, _, hess, rhs = gn_system(
                ref, tgt, rng.uniform(2, 13, size=2), rng.uniform(2, 13, size=2)
            )
            step = _solve_2x2(hess[None], lam, rhs[None])[0]
            expected = rhs / lam
            denom = np.linalg.norm(expected)
            if denom == 0.0:
                continue
            assert np.linalg.norm(step - expected) / denom <= 1e-4


class TestGdStepLoss:
    def test_flat_gradient_costs_exactly_the_margin(self):
        # zero image gradient: the step is zero, progress is zero, and the
        # hinge sits exactly at the slack
        ref = constant_map(24, 24, [0.0])
        tgt = constant_map(24, 24, [0.0])
        cfg = LossConfig()
        gt = (11.0, 11.0)
        ring = (16.0, 11.0)
        assert row_terms(ref, tgt, (3.0, 3.0), gt, ring=ring, config=cfg)["gd"] == pytest.approx(
            cfg.gd_margin, abs=1e-12
        )

    def test_collinear_step_toward_truth_is_free(self):
        # ramp 2u; ref feature equals the value at gt, so the damped step
        # from the ring moves straight toward gt by r*H/(H+lambda) = 10/3 px
        tgt = ramp_map(12, 24, [2.0], [0.0])
        ref = constant_map(12, 24, [20.0])  # 2 * gt_u
        cfg = LossConfig(lambda_f=2.0)
        loss = row_terms(ref, tgt, (10.0, 5.0), (10.0, 5.0), ring=(15.0, 5.0), config=cfg)["gd"]
        assert loss == 0.0

    def test_collinear_step_away_hand_value(self):
        # same ramp, ref feature 2*(gt_u + 6.5) = 33: residual at the ring
        # is -3, the step is +1 px away from gt, distances 5 -> 6:
        # 36 - 25 + 0.1
        tgt = ramp_map(12, 24, [2.0], [0.0])
        ref = constant_map(12, 24, [33.0])
        cfg = LossConfig(lambda_f=2.0, gd_margin=0.1)
        loss = row_terms(ref, tgt, (10.0, 5.0), (10.0, 5.0), ring=(15.0, 5.0), config=cfg)["gd"]
        assert loss == pytest.approx(11.1, abs=1e-12)


class TestGnStepLoss:
    def test_truth_with_unit_hessian_is_log_two_pi(self):
        tgt = ramp_map(12, 12, [1.0, 0.0], [0.0, 1.0])
        gt = (6.0, 7.0)
        ref = constant_map(12, 12, [6.0, 7.0])  # residual 0 at gt
        cfg = LossConfig()
        loss = row_terms(ref, tgt, (2.0, 2.0), gt, near=gt, config=cfg)["gn"]
        assert loss == pytest.approx(LOG_TWO_PI, abs=1e-12)

    def test_scaled_hessian_log_det(self):
        # channels (2u, 2v): H = 4I, det 16
        tgt = ramp_map(12, 12, [2.0, 0.0], [0.0, 2.0])
        gt = (6.0, 5.0)
        ref = constant_map(12, 12, [12.0, 10.0])
        cfg = LossConfig()
        loss = row_terms(ref, tgt, (2.0, 2.0), gt, near=gt, config=cfg)["gn"]
        assert loss == pytest.approx(LOG_TWO_PI - 0.5 * math.log(16.0), abs=1e-12)

    def test_unit_hessian_reduces_to_half_squared_distance(self):
        tgt = ramp_map(16, 16, [1.0, 0.0], [0.0, 1.0])
        gt = np.array([7.0, 8.0])
        near = np.array([7.5, 8.25])
        # residual zero at the near sample: the step is zero and the
        # density is evaluated on the remaining offset alone
        ref = constant_map(16, 16, [7.5, 8.25])
        cfg = LossConfig()
        loss = row_terms(ref, tgt, (2.0, 2.0), gt, near=near, config=cfg)["gn"]
        expected = 0.5 * (0.5**2 + 0.25**2) + LOG_TWO_PI
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_flat_region_hits_determinant_floor(self):
        ref = constant_map(10, 10, [0.0])
        tgt = constant_map(10, 10, [0.0])
        cfg = LossConfig()
        gt = (5.0, 5.0)
        loss = row_terms(ref, tgt, (2.0, 2.0), gt, near=gt, config=cfg)["gn"]
        assert loss == pytest.approx(LOG_TWO_PI - 0.5 * math.log(DET_FLOOR), abs=1e-9)


class TestChannelPermutation:
    def test_all_terms_invariant_under_channel_permutation(self):
        rng = np.random.default_rng(21)
        h, w, d = 20, 22, 3
        ref_data = rng.normal(size=(h, w, d))
        tgt_data = rng.normal(size=(h, w, d))
        perm = [2, 0, 1]
        ref, tgt = FeatureMap(ref_data), FeatureMap(tgt_data)
        ref_p, tgt_p = FeatureMap(ref_data[:, :, perm]), FeatureMap(tgt_data[:, :, perm])
        cfg = LossConfig()
        p, gt, ring, near, neg = (
            (4.0, 5.0), (9.0, 9.0), (14.0, 9.0), (9.5, 8.75), (15.0, 15.0)
        )
        terms = row_terms(ref, tgt, p, gt, neg, ring, near, cfg)
        permuted = row_terms(ref_p, tgt_p, p, gt, neg, ring, near, cfg)
        for name in ("match", "negative", "gd", "gn"):
            assert terms[name] == pytest.approx(permuted[name], rel=1e-12)


class TestSampleBatch:
    def _corr(self, n, row=(20.0, 20.0, 32.0, 32.0)):
        return np.tile(np.asarray(row), (n, 1))

    def test_deterministic_given_rng_state(self):
        cfg = LossConfig()
        a = sample_batch(np.random.default_rng(7), self._corr(50), (64, 64), cfg)
        b = sample_batch(np.random.default_rng(7), self._corr(50), (64, 64), cfg)
        for name in ("ref_uv", "gt_uv", "neg_uv", "ring_uv", "near_uv"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_ring_radii_inside_band(self):
        cfg = LossConfig(gd_radius=5.0)
        batch = sample_batch(np.random.default_rng(3), self._corr(400), (64, 64), cfg)
        radii = np.linalg.norm(batch.ring_uv - batch.gt_uv, axis=1)
        assert radii.min() >= 0.8 * 5.0 - 1e-9
        assert radii.max() <= 1.2 * 5.0 + 1e-9

    def test_near_samples_within_disk(self):
        cfg = LossConfig(gn_radius=1.0)
        batch = sample_batch(np.random.default_rng(3), self._corr(400), (64, 64), cfg)
        dist = np.linalg.norm(batch.near_uv - batch.gt_uv, axis=1)
        assert dist.max() <= 1.0 + 1e-9

    def test_margin_rows_dropped(self):
        cfg = LossConfig()
        corr = np.array([
            [20.0, 20.0, 32.0, 32.0],   # fine
            [0.5, 20.0, 32.0, 32.0],    # reference too close to the edge
            [20.0, 20.0, 62.9, 32.0],   # target too close for the near pad
        ])
        batch = sample_batch(np.random.default_rng(0), corr, (64, 64), cfg)
        assert len(batch) == 1

    def test_all_rows_dropped_raises(self):
        cfg = LossConfig()
        with pytest.raises(LossError):
            sample_batch(
                np.random.default_rng(0),
                np.array([[0.0, 0.0, 1.0, 1.0]]),
                (64, 64),
                cfg,
            )

    def test_too_small_image_raises(self):
        cfg = LossConfig(gd_radius=5.0)
        with pytest.raises(LossError):
            sample_batch(np.random.default_rng(0), self._corr(4), (12, 12), cfg)

    def test_negatives_cover_the_frame_uniformly(self):
        # chi-square on a 4x4 grid, 10^4 draws, alpha = 0.01
        cfg = LossConfig()
        batch = sample_batch(
            np.random.default_rng(123), self._corr(10_000), (64, 64), cfg
        )
        lo, hi = 1.0, 62.0
        edges = np.linspace(lo, hi, 5)
        counts, _, _ = np.histogram2d(
            batch.neg_uv[:, 0], batch.neg_uv[:, 1], bins=(edges, edges)
        )
        expected = len(batch) / 16.0
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 30.578  # chi-square 15 dof, upper 1% point


class TestConfigValidation:
    def test_epsilon_must_sit_well_below_lambda(self):
        with pytest.raises(LossError):
            LossConfig(lambda_f=2.0, epsilon=0.01)

    def test_negative_weight_rejected(self):
        with pytest.raises(LossError):
            LossConfig(w_gd=-0.5)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(LossError):
            LossConfig(gd_radius=0.0)


class TestTotalLoss:
    def _setup(self, seed=11):
        rng = np.random.default_rng(seed)
        ref = FeatureMap(rng.normal(size=(32, 32, 2)))
        tgt = FeatureMap(rng.normal(size=(32, 32, 2)))
        corr = np.column_stack([
            rng.uniform(8, 24, size=25), rng.uniform(8, 24, size=25),
            rng.uniform(10, 22, size=25), rng.uniform(10, 22, size=25),
        ])
        batch = sample_batch(rng, corr, (32, 32), LossConfig(gd_radius=3.0))
        return ref, tgt, batch

    def test_zero_weights_zero_total_with_breakdown(self):
        ref, tgt, batch = self._setup()
        cfg = LossConfig(
            gd_radius=3.0, w_match=0.0, w_negative=0.0, w_gd=0.0, w_gn=0.0
        )
        total, breakdown = total_loss(ref, tgt, batch, cfg)
        assert total == 0.0
        assert set(breakdown) == {"match", "negative", "gd", "gn", "total"}
        assert breakdown["match"] > 0.0

    def test_total_recomposes_from_breakdown(self):
        ref, tgt, batch = self._setup()
        cfg = LossConfig(gd_radius=3.0, w_match=0.5, w_negative=2.0, w_gd=4.0, w_gn=0.25)
        total, breakdown = total_loss(ref, tgt, batch, cfg)
        recomposed = (
            0.5 * breakdown["match"]
            + 2.0 * breakdown["negative"]
            + 4.0 * breakdown["gd"]
            + 0.25 * breakdown["gn"]
        )
        assert total == pytest.approx(recomposed, rel=1e-15)

    def test_batch_terms_match_scalar_ops_rowwise(self):
        ref, tgt, batch = self._setup(seed=4)
        cfg = LossConfig(gd_radius=3.0)
        terms = batch_terms(ref, tgt, batch, cfg)
        for i in range(len(batch)):
            row = row_terms(
                ref, tgt, batch.ref_uv[i], batch.gt_uv[i],
                batch.neg_uv[i], batch.ring_uv[i], batch.near_uv[i], cfg,
            )
            for name in ("match", "negative", "gd", "gn"):
                assert terms[name][i] == pytest.approx(row[name], rel=1e-12, abs=1e-14)


class TestLossGradientFD:
    def _random_problem(self, seed=2, h=24, w=24, d=2, n=12):
        rng = np.random.default_rng(seed)
        ref = FeatureMap(rng.normal(size=(h, w, d)))
        params = rng.normal(size=(h, w, d))
        corr = np.column_stack([
            rng.uniform(6, w - 7, size=n), rng.uniform(6, h - 7, size=n),
            rng.uniform(7, w - 8, size=n), rng.uniform(7, h - 8, size=n),
        ])
        batch = sample_batch(rng, corr, (h, w), LossConfig(gd_radius=3.0))
        return ref, params, batch, LossConfig(gd_radius=3.0)

    def test_untouched_cells_have_zero_gradient(self):
        ref, params, batch, cfg = self._random_problem()
        grad = loss_gradient_fd(ref, params, batch, cfg)
        touched = set()
        for uv in (batch.gt_uv, batch.neg_uv, batch.ring_uv, batch.near_uv):
            touched.update(self._stencil_cells(uv, params.shape))
        mask = np.ones(params.shape[:2], dtype=bool)
        for (v, u) in touched:
            mask[v, u] = False
        assert np.all(grad[mask] == 0.0)

    def test_match_corner_gradients_sum_to_chain_rule_value(self):
        # dyadic map values and a dyadic step keep the float32 bumps exact,
        # and the match term is quadratic per corner, so the central
        # difference is exact up to float64 rounding
        rng = np.random.default_rng(8)
        h = w = 16
        params = np.round(rng.uniform(-1, 1, size=(h, w, 1)) * 256) / 256.0
        ref = FeatureMap(np.round(rng.uniform(-1, 1, size=(h, w, 1)) * 256) / 256.0)
        cfg = LossConfig(w_negative=0.0, w_gd=0.0, w_gn=0.0, gd_radius=3.0)
        p = np.array([4.0, 5.0])
        gt = np.array([7.5, 9.25])
        batch = one_row_batch(p, gt, (12.0, 12.0), (10.0, 9.0), (7.25, 9.0))
        grad = loss_gradient_fd(ref, params, batch, cfg, step=2.0**-13)

        f_ref = gather_stencil(ref, p[None, :]).values()
        f_tgt = gather_stencil(FeatureMap(params), gt[None, :]).values()
        expected = 2.0 * (f_tgt[0, 0] - f_ref[0, 0])
        corner_sum = grad[9, 7, 0] + grad[9, 8, 0] + grad[10, 7, 0] + grad[10, 8, 0]
        assert corner_sum == pytest.approx(expected, rel=1e-9)

    def test_step_doubling_shows_second_order_truncation(self):
        # dyadic values and dyadic steps keep every float32 bump exact, so
        # the difference between step sizes is pure truncation error: tiny,
        # and growing fourfold per step doubling
        rng = np.random.default_rng(13)
        h = w = 24
        params = np.round(rng.normal(size=(h, w, 2)) * 256) / 256.0
        ref = FeatureMap(np.round(rng.normal(size=(h, w, 2)) * 256) / 256.0)
        corr = np.column_stack([
            rng.uniform(6, w - 7, 12), rng.uniform(6, h - 7, 12),
            rng.uniform(7, w - 8, 12), rng.uniform(7, h - 8, 12),
        ])
        cfg = LossConfig(gd_radius=3.0)
        batch = sample_batch(rng, corr, (h, w), cfg)
        g1 = loss_gradient_fd(ref, params, batch, cfg, step=2.0**-13)
        g2 = loss_gradient_fd(ref, params, batch, cfg, step=2.0**-12)
        g3 = loss_gradient_fd(ref, params, batch, cfg, step=2.0**-11)
        scale = np.abs(g1).max()
        assert scale > 0
        assert np.abs(g2 - g1).max() <= 1e-5 * scale
        ratio = np.abs(g3 - g2).max() / np.abs(g2 - g1).max()
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_fast_matches_brute_on_touched_and_untouched_entries(self):
        ref, params, batch, cfg = self._random_problem(seed=3, n=6)
        gt0 = batch.gt_uv[0]
        u0, v0 = int(gt0[0]), int(gt0[1])
        entries = [
            (v0, u0, 0), (v0, u0 + 1, 0), (v0 + 1, u0, 1),
            (2, 2, 0),  # far from every sample
        ]
        fast = loss_gradient_fd(ref, params, batch, cfg)
        brute = brute_gradient(ref, params, batch, cfg, entries)
        rows, cols, chans = np.array(entries).T
        np.testing.assert_allclose(
            fast[rows, cols, chans], brute[rows, cols, chans], rtol=1e-8, atol=1e-12
        )
        assert fast[2, 2, 0] == 0.0

    @staticmethod
    def _stencil_cells(uv, shape):
        """The (v, u) cells a sample set's bilinear stencils read, sorted."""
        iu0 = np.minimum(np.floor(uv[:, 0]).astype(int), shape[1] - 2)
        iv0 = np.minimum(np.floor(uv[:, 1]).astype(int), shape[0] - 2)
        return sorted({
            (v0 + dv, u0 + du) for u0, v0 in zip(iu0, iv0) for dv in (0, 1) for du in (0, 1)
        })

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", list(TERMS))
    def test_each_term_matches_brute_on_every_cell_it_reads(self, name, d):
        # only ``name`` is weighted, so every cell its samples read must
        # match the oracle, and the cells only other terms read must be 0
        ref, params, batch, _ = self._random_problem(seed=5, d=d, n=6)
        weights = {weight: 0.0 for weight, _ in TERMS.values()}
        cfg = LossConfig(gd_radius=3.0, **{**weights, TERMS[name][0]: 1.5})
        touched = self._stencil_cells(getattr(batch, TERMS[name][1]), params.shape)
        others = [
            cell
            for _, field in TERMS.values()
            for cell in self._stencil_cells(getattr(batch, field), params.shape)
            if cell not in touched
        ]
        untouched = sorted(set(others))[:3] + [(0, 0), (params.shape[0] - 1, 0)]
        assert len(untouched) == 5 and not set(untouched) & set(touched)
        entries = [(v, u, c) for v, u in touched + untouched for c in range(d)]
        fast = loss_gradient_fd(ref, params, batch, cfg)
        brute = brute_gradient(ref, params, batch, cfg, entries)
        # the oracle differences two whole losses, so it rounds by about
        # eps * |loss| / step; the gn term's log-det loss reaches ~24 here
        total, _ = total_loss(ref, FeatureMap(params), batch, cfg)
        atol = 8.0 * np.finfo(np.float64).eps * abs(total) / FD_STEP
        rows, cols, chans = np.array(entries).T
        np.testing.assert_allclose(
            fast[rows, cols, chans], brute[rows, cols, chans], rtol=1e-8, atol=atol
        )
        assert np.any(fast[rows, cols, chans] != 0.0)
        for v, u in untouched:
            assert np.all(fast[v, u] == 0.0) and np.all(brute[v, u] == 0.0)
