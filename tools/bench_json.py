"""Fold perfbench result records into one checked-in BENCH_<n>.json.

    python3 tools/bench_json.py BENCH_6.json \
        parent=runs/parent/toy_train-1.json change=runs/change/toy_train-1.json ...

Each argument names a side (``parent`` or ``change``, any label works) and
one record that ``perfbench/run.py`` wrote to
``.perfbench/results/<workload>-seed<s>-trace<t>.json``; copy each record
away before the next run of the same workload overwrites it. Records are
grouped by side, workload and trace mode. For every end-to-end metric of
the untraced records the output holds the values in argument order, their
median and quartiles, and, where both sides have the same number of runs,
how many of the side-by-side pairs the second side wins (pairs in argument
order, ties count for neither side, the direction from BENCHMARK.json).
Records of the default seed in ``perfbench/plan.json`` go under the
workload's name, those of any other seed under ``<workload>-seed<s>``.
Traced records contribute their per-layer medians. The machine facts of
every record are kept; records from different machines are refused.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MACHINE_KEYS = ("nproc", "cpu_count", "python", "numpy", "blas", "blas_threads", "processes")


def summarize(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def fold(args: list) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        better = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}
    with open(os.path.join(ROOT, "perfbench", "plan.json")) as handle:
        default_seed = json.load(handle)["seeds"]["default"]
    runs: dict = {}
    machine = None
    for arg in args:
        side, _, path = arg.partition("=")
        if not path:
            raise SystemExit(f"expected SIDE=RECORD, got {arg!r}")
        with open(path) as handle:
            record = json.load(handle)
        facts = record["facts"]
        this_machine = {k: facts.get(k) for k in MACHINE_KEYS}
        if machine is not None and this_machine != machine:
            raise SystemExit(f"{path} was measured on another machine: {this_machine}")
        machine = this_machine
        mode = "per_layer" if facts["trace"] else "end_to_end"
        key = (facts["workload"], facts["seed"], mode)
        runs.setdefault(key, {}).setdefault(side, []).append(record)

    out = {"machine": machine, "workloads": {}}
    for (workload, seed, mode), sides in sorted(runs.items()):
        name = workload if seed == default_seed else f"{workload}-seed{seed}"
        entry = out["workloads"].setdefault(name, {"seed": seed})
        for side, records in sides.items():
            names = records[0][mode]
            block = entry.setdefault(side, {})
            block[mode] = {
                name: {"unit": names[name]["unit"],
                       **summarize([r[mode][name]["value"] for r in records])}
                for name in names
            }
            block.setdefault("runs", {})[mode] = len(records)
            block.setdefault("all_checks_ok", True)
            block["all_checks_ok"] &= all(c["ok"] for r in records for c in r["checks"])
            block.setdefault("speed_factors", []).extend(r["facts"]["speed_factor"] for r in records)
        labels = list(sides)
        if mode == "end_to_end" and len(labels) == 2 and len(set(map(len, sides.values()))) == 1:
            base, new = (entry[label]["end_to_end"] for label in labels)
            wins = {}
            for name, direction in better.items():
                pairs = zip(base[name]["values"], new[name]["values"])
                sign = 1.0 if direction == "higher" else -1.0
                wins[name] = sum(sign * (b - a) > 0 for a, b in pairs)
            entry[f"{labels[1]}_wins_of_{len(sides[labels[0]])}_pairs"] = wins
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    folded = fold(argv[1:])
    with open(argv[0], "w") as handle:
        json.dump(folded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
