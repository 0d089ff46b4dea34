"""Per-layer metrics from a traced run.

Counts and times are per timed item: per pair on the ``reloc_*``
workloads, per training run on ``toy_train``. Set-up metrics
(``synth.build_dataset.s``, ``synth.generate_pair.ms``) are per call of
the set-up spans, which are traced apart from the timed window. A layer the
workload bypasses reads 0.
"""

from __future__ import annotations


def _per_call(total: float, calls: float) -> float:
    return total / calls if calls else 0.0


def layer_metrics(tracer, outcome) -> dict:
    """name -> (value, unit), in the order of BENCHMARK.json's per_layer."""
    summary = tracer.summary()
    fns, sites = summary["functions"], summary["sites"]
    counters = tracer.counters
    items = max(outcome.items, 1)
    setup = outcome.facts.get("setup_trace", {})

    def fn(name, key):
        return fns.get(name, {}).get(key, 0.0)

    def per_item(value):
        return value / items

    lm_iters = counters["lm.iters"]
    m = {}
    m["pose_init.corr_pose_init.ms"] = (per_item(fn("pose_init.corr_pose_init", "ms")), "ms")
    m["pose_init.correlation_map.ms"] = (per_item(fn("pose_init.correlation_map", "ms")), "ms")
    m["pose_init.grid_search.self_ms"] = (per_item(fn("pose_init.corr_pose_init", "self_ms")), "ms")
    m["pose_init.candidate_energy.calls"] = (per_item(fn("pose_init.candidate_energy", "calls")), "count")
    m["pose_init.candidates_per_pair"] = (per_item(counters["grid.candidates"]), "count")
    m["pose_init.seed_kept_frac"] = (_per_call(counters["corr.kept"], counters["corr.calls"]), "fraction")
    for level in (1, 2, 3, 4):
        m[f"lm_align.level{level}.ms"] = (per_item(counters[f"level{level}.ms"]), "ms")
        m[f"lm_align.level{level}.iters"] = (per_item(counters[f"level{level}.iters"]), "count")
    for name in ("compute_residuals", "compute_jacobian"):
        m[f"lm_align.{name}.calls"] = (per_item(fn(f"lm_align.{name}", "calls")), "count")
        m[f"lm_align.{name}.ms"] = (per_item(fn(f"lm_align.{name}", "ms")), "ms")
    m["lm_align.build_normal_equations.ms"] = (per_item(fn("lm_align.build_normal_equations", "ms")), "ms")
    m["lm_align.solve_step.ms"] = (per_item(fn("lm_align.solve_step", "ms")), "ms")
    m["lm_align.accept_ratio"] = (_per_call(counters["lm.accepted"], lm_iters), "fraction")
    m["lm_align.residuals_per_iter"] = (
        _per_call(sites.get(("lm_align", "lm_align.compute_residuals"), 0), lm_iters),
        "count",
    )
    for name in ("warp_points", "boxplus"):
        m[f"geometry.{name}.calls"] = (per_item(fn(f"geometry.{name}", "calls")), "count")
        m[f"geometry.{name}.ms"] = (per_item(fn(f"geometry.{name}", "ms")), "ms")
    m["feature_maps.gather_stencil.calls"] = (per_item(fn("feature_maps.gather_stencil", "calls")), "count")
    m["feature_maps.gather_stencil.points"] = (per_item(counters["gather.points"]), "count")
    m["feature_maps.gather_stencil.ms"] = (per_item(fn("feature_maps.gather_stencil", "ms")), "ms")
    m["losses.loss_gradient_fd.calls"] = (per_item(fn("losses.loss_gradient_fd", "calls")), "count")
    m["losses.loss_gradient_fd.ms"] = (per_item(fn("losses.loss_gradient_fd", "ms")), "ms")
    m["losses.total_loss.ms"] = (per_item(fn("losses.total_loss", "ms")), "ms")
    m["losses.sample_batch.ms"] = (per_item(fn("losses.sample_batch", "ms")), "ms")
    m["toy_train.evaluate_alignment.calls"] = (per_item(fn("toy_train.evaluate_alignment", "calls")), "count")
    m["toy_train.evaluate_alignment.ms"] = (per_item(fn("toy_train.evaluate_alignment", "ms")), "ms")
    m["toy_train.align_level.calls"] = (per_item(sites.get(("toy_train", "lm_align.align_level"), 0)), "count")
    m["toy_train.reference_map.ms"] = (per_item(fn("toy_train.reference_map", "ms")), "ms")
    build = setup.get("synth.build_dataset", {})
    gen = setup.get("synth.generate_pair", {})
    m["synth.build_dataset.s"] = (_per_call(build.get("ms", 0.0), build.get("calls", 0)) / 1000.0, "s")
    m["synth.generate_pair.ms"] = (_per_call(gen.get("ms", 0.0), gen.get("calls", 0)), "ms")
    m["synth.build_dataset.failed"] = (float(outcome.facts.get("setup_failures", 0)), "count")
    m["synth.load_pair_entry.ms"] = (per_item(fn("synth.load_pair_entry", "ms")), "ms")
    m["feature_maps.load_feature_pyramid.ms"] = (per_item(fn("feature_maps.load_feature_pyramid", "ms")), "ms")
    m["synth.load_pair_entry.bytes"] = (float(outcome.facts.get("pair_bytes", 0.0)), "bytes")
    m["evaluation.run_trial.ms"] = (per_item(fn("evaluation.run_trial", "ms")), "ms")
    m["trace.overhead_pct"] = (_overhead_pct(outcome.facts), "%")
    return m


def _overhead_pct(facts: dict) -> float:
    """Traced minus untraced time of the same items (the first shard, or one
    training run), in percent of untraced, both at reference host speed."""
    return 100.0 * (facts["traced_s"] - facts["untraced_s"]) / facts["untraced_s"]
