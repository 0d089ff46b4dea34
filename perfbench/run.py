"""featalign performance benchmark.

    python3 perfbench/run.py --workload reloc_identity --seed 7 --seconds 25 --trace 0
    python3 -m pytest perfbench/tests      # smoke test, about a minute

Workloads (see BENCHMARK.json and perfbench/plan.json for why each exists):
``reloc_identity`` and ``reloc_corr`` relocalize synthetic pairs from disk
with the identity or the correlation seed; ``toy_train`` runs the toy
feature trainer. Run from the root of a featalign checkout: the package is
imported from ``src/`` next to this directory, never from site-packages.

With ``--trace 0`` the end-to-end metrics are measured without tracing.
With ``--trace 1`` the calls into every featalign module are wrapped in
spans (perfbench/tracer.py) and the per-layer metrics are reported instead,
with the tracing overhead against an untraced pass of the same items.
Times are reported at a reference host speed (perfbench/speed.py); the
table above the result line also shows each one as measured.

Every run checks its outputs (perfbench/workloads.py) and exits 1 if a
check fails. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
above it repeat each metric with its unit and sample count, plus machine
facts. Run artefacts (spans, a full result record, determinism
fingerprints) go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# One process drives the load; BLAS gets one thread so the benchmark never
# asks for more threads than the machine has cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The end-to-end metrics of the result line, as named in BENCHMARK.json.
E2E_METRICS = (
    "pair_ms_p50", "pair_ms_p90", "pairs_per_s", "job_s", "t_auc", "r_auc",
    "converged_frac", "ok_frac", "success_rate", "peak_rss_mb", "setup_s",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("reloc_identity", "reloc_corr", "toy_train"))
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float, default=25.0, help="timed window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the smoke test only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        if ".so" not in path:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(np) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "processes": 1,
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def code_digest(np) -> str:
    """sha256 over featalign's sources, the benchmark's own and the Python
    and NumPy versions: runs are compared only with runs of the same code."""
    digest = hashlib.sha256(f"{platform.python_version()} {np.__version__}".encode())
    for base in (os.path.join(SRC, "featalign"), HERE):
        for dirpath, dirnames, files in os.walk(base):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_fingerprint(key: str, fingerprint: dict):
    """Compare with the fingerprint an earlier run stored under the same key.

    Returns (ok, detail). The key names the workload, seed, sizes and code
    digest, so repeated runs of one seed on the same code must agree on
    every deterministic count; a change to the code starts a new key.
    """
    path = os.path.join(OUT, "fingerprints.json")
    try:
        with open(path) as handle:
            stored = json.load(handle)
    except (OSError, json.JSONDecodeError):
        stored = {}
    previous = stored.get(key, {})
    differ = [k for k in fingerprint if k in previous and previous[k] != fingerprint[k]]
    if differ:
        return False, "; ".join(f"{k}: {previous[k]} != {fingerprint[k]}" for k in differ)
    if any(k not in previous for k in fingerprint):
        stored[key] = {**previous, **fingerprint}
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(stored, handle, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return True, "matches an earlier run" if previous else "first run of this key"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "featalign", "__init__.py")):
        print(f"perfbench: no featalign sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    import numpy as np

    import featalign

    if not os.path.abspath(featalign.__file__).startswith(SRC + os.sep):
        print(f"perfbench: featalign imported from {featalign.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import layers
    import workloads
    from speed import SpeedProbe
    from tracer import Tracer

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    tracer = Tracer(featalign) if args.trace else None
    probe = SpeedProbe()
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, sizes, workdir, tracer, probe
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)

    key = f"{args.workload}|seed={args.seed}|{sizes}|code={code_digest(np)}"
    fingerprint = dict(outcome.fingerprint)
    if tracer is not None:
        per_layer = layers.layer_metrics(tracer, outcome)
        first_pass = outcome.facts.pop("first_pass_counters", tracer.counters)
        fingerprint["lm_accepted"] = first_pass["lm.accepted"]
        fingerprint["lm_traced_iterations"] = first_pass["lm.iters"]
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        span_path = os.path.join(OUT, "spans", f"{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(span_path, outcome.span_label)
        outcome.facts["spans"] = {"file": os.path.relpath(span_path, ROOT), "count": len(tracer.spans)}
    ok, detail = check_fingerprint(key, fingerprint)
    outcome.check("repeats_earlier_runs", ok, detail)

    facts = machine_facts(np)
    facts.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                 trace=args.trace, smoke=args.smoke, items=outcome.items, fingerprint_key=key)
    facts.update(outcome.facts)

    factor = probe.factor()
    facts["speed_factor"] = factor
    facts["speed_probe_samples"] = len(probe.samples_ms)

    def at_reference(value: float, unit: str) -> float:
        if unit in ("s", "ms"):
            return value / factor
        if unit == "1/s":
            return value * factor
        return value

    e2e = {n: (v, u, c, outcome.raw.get(n, v)) for n, (v, u, c) in outcome.metrics.items()}
    layer = ({n: (at_reference(v, u), u, v) for n, (v, u) in per_layer.items()}
             if tracer is not None else {})
    correct = all(ok for _, ok, _ in outcome.checks)

    print(f"# featalign perfbench: {args.workload} seed={args.seed} trace={args.trace}")
    print("# machine: " + json.dumps({k: facts[k] for k in (
        "nproc", "python", "numpy", "blas", "blas_threads", "processes")}))
    print(f"# pairs per pass: {facts.get('pairs_per_pass', '-')}, timed items: {outcome.items}, "
          f"dataset shards that failed to build: {facts.get('setup_failures', 0)}")
    print(f"# host speed factor {factor:.4f} ({len(probe.samples_ms)} probes): times are at the "
          "reference host speed (perfbench/speed.py); raw = as measured")
    for name, (value, unit, samples, raw) in e2e.items():
        print(f"e2e   {name:<36} {value:>14.6g} {unit:<10} n={samples:<6} raw={raw:.6g}")
    for name, (value, unit, raw) in layer.items():
        note = " (computed from file sizes)" if name.endswith(".bytes") else ""
        print(f"layer {name:<36} {value:>14.6g} {unit:<10} raw={raw:.6g}{note}")
    for name, passed, detail in outcome.checks:
        print(f"check {name:<36} {'ok' if passed else 'FAILED'}  {detail}")

    record = {
        "facts": facts,
        "checks": [{"name": n, "ok": o, "detail": d} for n, o, d in outcome.checks],
        "end_to_end": {n: {"value": v, "unit": u, "samples": c, "raw": r}
                       for n, (v, u, c, r) in e2e.items()},
        "per_layer": {n: {"value": v, "unit": u, "raw": r} for n, (v, u, r) in layer.items()},
        "probe_ms": probe.samples_ms,
        "fingerprint": fingerprint,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    result_path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)

    metrics = {}
    shown = layer if tracer is not None else {n: e2e[n] for n in E2E_METRICS}
    for name, entry in shown.items():
        value, unit = entry[0], entry[1]
        if not math.isfinite(value):
            correct = False
            print(f"check {name:<36} FAILED  value is not finite")
            value = None
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
