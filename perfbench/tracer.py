"""Span tracing around the calls into featalign's modules.

The tracer replaces a public function by a timing wrapper in every
featalign module namespace that binds it. ``from .x import y`` gives each
importing module its own name for ``y``, so wrapping only the defining
module would miss the calls that go through ``pose_init.compute_residuals``,
``toy_train.align_level`` and the like. Each span records the function,
the module whose binding was called (the call site), start, end, parent
span and the benchmark item (pair or training run) it belongs to.
Spans are kept in memory and written out when the benchmark ends.

A few targets are counted without a span (``COUNT_ONLY``) so that they do
not split their caller's self time, e.g. the seed grid scored inside
``corr_pose_init``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import pkgutil
import time
from collections import defaultdict

import numpy as np

# (defining module, function) pairs that get a span.
TRACED = (
    ("synth", "build_dataset"),
    ("synth", "generate_pair"),
    ("synth", "load_pair_entry"),
    ("feature_maps", "load_feature_pyramid"),
    ("feature_maps", "gather_stencil"),
    ("geometry", "warp_points"),
    ("geometry", "boxplus"),
    ("lm_align", "align_coarse_to_fine"),
    ("lm_align", "align_level"),
    ("lm_align", "compute_residuals"),
    ("lm_align", "compute_jacobian"),
    ("lm_align", "build_normal_equations"),
    ("lm_align", "solve_step"),
    ("pose_init", "corr_pose_init"),
    ("pose_init", "correlation_map"),
    ("pose_init", "candidate_energy"),
    ("losses", "sample_batch"),
    ("losses", "total_loss"),
    ("losses", "loss_gradient_fd"),
    ("toy_train", "reference_map"),
    ("toy_train", "evaluate_alignment"),
    ("evaluation", "run_trial"),
)

# Counted, not spanned. A missing one is an error, like a missing traced
# function: a counter that silently read 0 would look like a speed-up.
COUNT_ONLY = (("pose_init", "_grid_energies"),)


def _rows(array) -> int:
    shape = getattr(array, "shape", None)
    if shape:
        return int(shape[0])
    return len(array)


class Tracer:
    """Collects spans and counters while installed; restores on uninstall."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self.counters: dict = defaultdict(float)
        self.item = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------

    def _modules(self):
        mods = [self.package]
        for info in pkgutil.iter_modules(self.package.__path__):
            mods.append(importlib.import_module(f"{self.package.__name__}.{info.name}"))
        return mods

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        short = {m: m.__name__.rsplit(".", 1)[-1] for m in modules}
        targets = {}
        for mod_name, fn_name, counted in [(m, f, False) for m, f in TRACED] + [
            (m, f, True) for m, f in COUNT_ONLY
        ]:
            module = importlib.import_module(f"{self.package.__name__}.{mod_name}")
            fn = getattr(module, fn_name, None)
            if fn is None:
                kind = "counted" if counted else "traced"
                raise RuntimeError(f"{kind} function {mod_name}.{fn_name} not found")
            targets[id(fn)] = (fn, f"{mod_name}.{fn_name}", counted)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is None or hit[0] is not value:
                    continue
                fn, name, counted = hit
                site = short[module] if module is not self.package else "featalign"
                wrapper = self._counter(fn, name) if counted else self._span(fn, name, site)
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, site):
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, site, start, end, parent, tracer.item)
            if observe is not None:
                observe(tracer.counters, args, result, end - start)
            return result

        return traced

    def _counter(self, fn, name):
        observe = _OBSERVERS[name]
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(tracer.counters, args, result, 0.0)
            return result

        return counted

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict:
        """Per function name: calls, inclusive ms, self ms; per site: calls."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[4] >= 0:
                child_s[span[4]] += span[3] - span[2]
        out: dict = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        sites: dict = defaultdict(int)
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, site, start, end, _parent, _item = span
            row = out[name]
            row["calls"] += 1
            row["ms"] += 1000.0 * (end - start)
            row["self_ms"] += 1000.0 * (end - start - child_s[index])
            sites[(site, name)] += 1
        return {"functions": dict(out), "sites": dict(sites)}

    def write(self, path: str, label=None) -> None:
        """Spans as gzip JSON lines; ``label(span_index, span)`` may rename items."""
        with gzip.open(path, "wt") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, site, start, end, parent, item = span
                if label is not None:
                    item = label(index, span)
                handle.write(
                    json.dumps(
                        {
                            "i": index,
                            "name": name,
                            "site": site,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "item": item,
                        }
                    )
                    + "\n"
                )


# -- counters read off arguments and results --------------------------------


def _observe_align_level(counters, args, result, seconds):
    _pose, stats = result
    counters[f"level{stats.level}.calls"] += 1
    counters[f"level{stats.level}.ms"] += 1000.0 * seconds
    counters[f"level{stats.level}.iters"] += stats.iterations
    counters["lm.iters"] += stats.iterations
    counters["lm.accepted"] += stats.accepted


def _observe_gather(counters, args, result, seconds):
    counters["gather.points"] += _rows(args[1])


def _observe_corr_init(counters, args, result, seconds):
    counters["corr.calls"] += 1
    if result.translation.any() or (result.rotation != np.eye(3)).any():
        counters["corr.kept"] += 1


def _observe_grid(counters, args, result, seconds):
    counters["grid.candidates"] += _rows(result)


_OBSERVERS = {
    "lm_align.align_level": _observe_align_level,
    "feature_maps.gather_stencil": _observe_gather,
    "pose_init.corr_pose_init": _observe_corr_init,
    "pose_init._grid_energies": _observe_grid,
}
