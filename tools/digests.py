"""Print sha256 digests of featalign's deterministic outputs.

    python3 tools/digests.py

Builds three datasets with ``featalign synth`` (24 pairs at base_seed 7000
and at 11000, and 48 photometric pairs at base_seed 7000), runs
``featalign benchmark --init identity`` and ``--init corr`` on each, and
trains the toy feature map for 80 epochs. It prints one ``<sha256>  <name>``
line per dataset file, report JSON and CSV, plus the trained toy params and
the ``repr`` of the toy run's final success rate and accuracy, which the
params do not depend on. On one pair of each class of ``clean7000`` it
also runs ``featalign align --trace`` from identity and from the
correlation seed and prints the digest of each result JSON, which pins
every lambda and accept/reject decision; the comment line before each
digest counts the rejected steps. On the same three pairs it runs
``featalign eval-loss`` against the ground truth with the default
``--seed 0`` and prints the digests of its ``--out-json`` and ``--out-csv``
files, which pin the correspondences ``warp_points`` builds there.
A refactor that claims byte-identical behaviour runs this script at the
parent and at the change and diffs the two outputs. The ``featalign``
package is imported from the ``src/`` next to this directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from featalign.cli import main  # noqa: E402
from featalign.toy_train import ToyTrainConfig, make_toy_training_set, train_toy_features  # noqa: E402

DATASETS = {
    "clean7000": "n_pairs = 24\nbase_seed = 7000\n",
    "clean11000": "n_pairs = 24\nbase_seed = 11000\n",
    "photo7000": (
        "n_pairs = 48\nbase_seed = 7000\n"
        "photometric_a = 0.95\nphotometric_b = 0.02\nphotometric_sigma = 0.01\n"
    ),
}
TOY_EPOCHS = 80
# The first small, medium and large pairs of clean7000 whose identity-start
# alignment rejects steps, so the digests pin the failure branch too.
ALIGN_DATASET = "clean7000"
ALIGN_PAIRS = ("pair_0009", "pair_0010", "pair_0005")


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def run(argv: list) -> int:
    """featalign's CLI in-process, its stdout kept off this script's output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def align_digests(tmp: str, data: str) -> None:
    """``align --trace`` and ``eval-loss`` output digests of the ``ALIGN_PAIRS``."""
    with open(os.path.join(data, "manifest.json")) as handle:
        entries = {entry["name"]: entry for entry in json.load(handle)["pairs"]}
    for name in ALIGN_PAIRS:
        entry = entries[name]
        pair = [
            "--ref", os.path.join(data, entry["ref_features"]),
            "--target", os.path.join(data, entry["tgt_features"]),
            "--points", os.path.join(data, entry["points"]),
            "--intrinsics", os.path.join(data, name, "intrinsics.txt"),
            "--gt", os.path.join(data, entry["pose"]),
        ]
        for init in ("identity", "corr"):
            out = os.path.join(tmp, f"{name}-align-{init}.json")
            code = run(["align", *pair, "--init", init, "--trace", "--out", out])
            with open(out) as handle:
                rejected = sum(level["rejected"] for level in json.load(handle)["levels"])
            print(f"# {ALIGN_DATASET} {name} ({entry['class']}): align --init {init} "
                  f"exit {code}, {rejected} rejected steps")
            print(f"{sha256_file(out)}  {ALIGN_DATASET}-{name}-align-{init}.json")
        stem = os.path.join(tmp, f"{name}-eval-loss")
        code = run(["eval-loss", *pair, "--out-json", stem + ".json", "--out-csv", stem + ".csv"])
        print(f"# {ALIGN_DATASET} {name} ({entry['class']}): eval-loss exit {code}")
        for ext in (".json", ".csv"):
            print(f"{sha256_file(stem + ext)}  {ALIGN_DATASET}-{name}-eval-loss{ext}")


def main_digests() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in DATASETS.items():
            cfg = os.path.join(tmp, f"{name}.cfg")
            with open(cfg, "w") as handle:
                handle.write(text)
            data = os.path.join(tmp, name)
            print(f"# {name}: synth exit {run(['synth', '--config', cfg, '--out', data])}")
            for dirpath, dirnames, filenames in os.walk(data):
                dirnames.sort()
                for filename in sorted(filenames):
                    path = os.path.join(dirpath, filename)
                    print(f"{sha256_file(path)}  {os.path.relpath(path, tmp)}")
            for init in ("identity", "corr"):
                stem = os.path.join(tmp, f"{name}-{init}")
                code = run([
                    "benchmark", "--manifest", os.path.join(data, "manifest.json"),
                    "--init", init, "--out-json", stem + ".json", "--out-csv", stem + ".csv",
                ])
                print(f"# {name}: benchmark --init {init} exit {code}")
                for ext in (".json", ".csv"):
                    print(f"{sha256_file(stem + ext)}  {name}-{init}{ext}")
            if name == ALIGN_DATASET:
                align_digests(tmp, data)
    config = ToyTrainConfig(epochs=TOY_EPOCHS)
    result = train_toy_features(make_toy_training_set(config.seed), config)
    params = hashlib.sha256(np.ascontiguousarray(result.params).tobytes()).hexdigest()
    print(f"{params}  toy params, {TOY_EPOCHS} epochs, seed {config.seed}")
    print(f"{result.final_success!r} {result.final_accuracy!r}  toy final success and accuracy")


if __name__ == "__main__":
    main_digests()
