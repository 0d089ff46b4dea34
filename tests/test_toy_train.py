"""Behavioural tests for the toy feature-training loop."""

import numpy as np
import pytest

from featalign import toy_train
from featalign.feature_maps import FeatureMap, gather_stencil
from featalign.lm_align import AlignmentError, compute_residuals
from featalign.losses import LossConfig, LossError
from featalign.synth import SynthError, mean_flow
from featalign.geometry import se3_exp
from featalign.toy_train import (
    ToyTrainConfig,
    evaluate_alignment,
    make_toy_training_set,
    reference_map,
    train_toy_features,
)


@pytest.fixture(scope="module")
def small_set():
    return make_toy_training_set(seed=2, n_pairs=4, eval_offsets=4)


class TestTrainingSet:
    def test_too_few_pairs_rejected(self):
        with pytest.raises(SynthError):
            make_toy_training_set(seed=0, n_pairs=2)

    @pytest.mark.parametrize("flow_px", [500.0, float("nan")])
    def test_unreachable_offset_flow_raises(self, flow_px):
        with pytest.raises(SynthError, match="px evaluation offset in 1000 draws"):
            make_toy_training_set(seed=0, n_pairs=4, eval_offsets=1, eval_flow_px=flow_px)

    def test_eval_offsets_have_requested_flow(self, small_set):
        for twist in small_set.eval_offsets:
            flow = mean_flow(small_set.scene, se3_exp(np.asarray(twist)))
            assert 4.5 <= flow <= 5.5

    def test_noiseless_references_are_exact_at_ground_truth(self):
        ts = make_toy_training_set(seed=5, n_pairs=4, eval_offsets=4, ref_noise=0.0)

        tgt = FeatureMap(ts.init_params)
        for pair in ts.pairs:
            ref = reference_map(ts.init_params, pair)
            ev = compute_residuals(
                ref, tgt, pair.points.uv, pair.points.depths,
                pair.gt_pose, ts.scene.intrinsics,
            )
            assert ev.n_valid >= 12
            assert ev.energy < 1e-9

    def test_reference_map_is_deterministic(self, small_set):
        pair = small_set.pairs[0]
        a = reference_map(small_set.init_params, pair)
        b = reference_map(small_set.init_params, pair)
        np.testing.assert_array_equal(a.values, b.values)


class TestReferenceFeatures:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rendered_cells_match_the_full_reference_map(self, seed):
        ts = make_toy_training_set(seed)
        rng = np.random.default_rng(seed)
        h, w, _ = ts.init_params.shape
        queries = np.vstack([
            rng.uniform(1.0, (w - 2, h - 2), size=(300, 2)),
            rng.integers(1, (w - 1, h - 1), size=(40, 2)).astype(np.float64),
            [(w - 2.0, h - 2.0), (1.0, 1.0), (w - 2.0, 7.5)],  # last interior node, first, edge
        ])
        for params in (ts.init_params, ts.init_params + rng.normal(0.0, 0.3, ts.init_params.shape)):
            live = FeatureMap(params)
            for pair in ts.pairs:
                want = gather_stencil(toy_train.reference_map(params, pair), queries).values()
                got = toy_train._reference_features(live, pair, queries)
                assert got.tobytes() == want.tobytes()
                # Some queries read only cells outside the view (noise only).
                iu0 = np.floor(queries[:, 0]).astype(int)
                iv0 = np.floor(queries[:, 1]).astype(int)
                sampled = np.isin(iv0 * w + iu0, pair.sample_rows)
                for dv, du in ((0, 1), (1, 0), (1, 1)):
                    sampled |= np.isin((iv0 + dv) * w + iu0 + du, pair.sample_rows)
                assert not sampled.all() and sampled.any()


class TestTraining:
    def test_config_rejects_no_evaluation_iterations(self):
        # The solver would refuse it at every start, and each counts as a miss.
        with pytest.raises(LossError, match="eval_max_iters"):
            ToyTrainConfig(eval_max_iters=0)

    @pytest.mark.parametrize(
        "field, value", [("epochs", -1), ("epochs", -3), ("batch_size", 0), ("batch_size", -2)]
    )
    def test_config_rejects_negative_epochs_and_empty_batches(self, field, value):
        with pytest.raises(LossError, match=f"{field} must be"):
            ToyTrainConfig(**{field: value})

    def test_config_allows_zero_epochs(self):
        assert ToyTrainConfig(epochs=0).epochs == 0

    def test_zero_learning_rate_changes_nothing(self, small_set):
        cfg = ToyTrainConfig(epochs=3, lr=0.0, seed=2)
        result = train_toy_features(small_set, cfg)
        np.testing.assert_array_equal(result.params, small_set.init_params)
        assert result.initial_success == result.final_success
        assert result.initial_accuracy == pytest.approx(result.final_accuracy)
        totals = [row["total"] for row in result.trace]
        assert len(totals) == 3
        # batches are resampled per epoch, so totals wobble, but with
        # frozen parameters they cannot drift
        assert max(totals) / min(totals) < 1.3

    def test_divergent_learning_rate_aborts_with_trace(self, small_set):
        cfg = ToyTrainConfig(epochs=40, lr=200.0, seed=2)
        result = train_toy_features(small_set, cfg)
        assert result.aborted
        assert 0 < len(result.trace) < 40
        assert result.trace[-1]["total"] > 10.0 * result.trace[0]["total"]

    def test_deterministic_given_seed(self, small_set):
        cfg = ToyTrainConfig(epochs=4, lr=0.15, seed=7, eval_interval=100)
        a = train_toy_features(small_set, cfg)
        b = train_toy_features(small_set, cfg)
        np.testing.assert_array_equal(a.params, b.params)
        assert a.final_success == b.final_success
        for ra, rb in zip(a.trace, b.trace):
            assert ra == rb

    def test_trace_reports_all_terms_every_epoch(self, small_set):
        cfg = ToyTrainConfig(epochs=2, lr=0.05, seed=1)
        result = train_toy_features(small_set, cfg)
        for row in result.trace:
            for key in ("epoch", "total", "match", "negative", "gd", "gn"):
                assert key in row
            assert np.isfinite(row["total"])

    def test_full_loss_improves_success_rate(self):
        # the headline behaviour: 200 epochs of the combined loss raise the
        # alignment success rate over the untrained features
        ts = make_toy_training_set(seed=2)
        result = train_toy_features(ts, ToyTrainConfig(seed=2))
        assert not result.aborted
        assert result.final_success > result.initial_success


class TestEvaluation:
    def test_matches_standalone_evaluation(self, small_set):
        cfg = ToyTrainConfig(epochs=1, lr=0.0, seed=0)
        result = train_toy_features(small_set, cfg)
        rate, acc = evaluate_alignment(small_set, small_set.init_params, cfg)
        assert result.initial_success == rate
        assert result.initial_accuracy == pytest.approx(acc)

    def test_success_rate_bounds(self, small_set):
        cfg = ToyTrainConfig()
        rate, acc = evaluate_alignment(small_set, small_set.init_params, cfg)
        assert 0.0 <= rate <= 1.0
        if rate > 0:
            assert 0.0 <= acc < cfg.success_flow_px

    def test_solver_failure_counts_as_a_miss(self, small_set, monkeypatch):
        def fail(*args, **kwargs):
            raise AlignmentError("no overlap")

        monkeypatch.setattr(toy_train, "align_level", fail)
        rate, acc = evaluate_alignment(small_set, small_set.init_params, ToyTrainConfig())
        assert rate == 0.0 and np.isnan(acc)

    def test_programming_error_propagates(self, small_set, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bad call")

        monkeypatch.setattr(toy_train, "align_level", broken)
        with pytest.raises(TypeError, match="bad call"):
            evaluate_alignment(small_set, small_set.init_params, ToyTrainConfig())
