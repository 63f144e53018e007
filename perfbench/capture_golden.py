"""Capture the golden config pools of the `sim-*` workloads.

Run once, from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/capture_golden.py

It writes `perfbench/golden/sim-dense.json` and `sim-small.json`: each entry
is a simulate config (the phase grid stored as its length), the SHA-256 of
the `counts.csv` the CLI writes for it, and the report's `fits` and `witness`
sections. Re-running it on a later commit would make the checks compare that
commit against itself, so the committed files are only rewritten when the
workloads themselves change.
"""

import json
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import (  # noqa: E402
    DENSE_PHASES,
    DETECTOR_MODELS,
    GOLDEN_DIR,
    SMALL_SHOTS,
    sha256_file,
    sim_config,
)

from renyi2 import cli  # noqa: E402

POOL_SIZES = {"sim-dense": 16, "sim-small": 48}
MASTER_SEED = 20050511


def draw_pool(name: str, rng) -> list[dict]:
    pool = []
    for k in range(POOL_SIZES[name]):
        pool.append({
            "n_phases": DENSE_PHASES if name == "sim-dense" else int(rng.integers(9, 26)),
            "shots_per_phase": SMALL_SHOTS,
            "visibility": float(rng.uniform(0.9, 1.0)),
            "background_rate": float(rng.uniform(0.0, 0.02)),
            "seed": int(rng.integers(0, 2**32)),
            "detector_model": DETECTOR_MODELS[k % 2],
        })
    return pool


def main() -> int:
    work = os.path.join(ROOT, ".perfbench_work", "golden")
    os.makedirs(work, exist_ok=True)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    rng = np.random.default_rng(MASTER_SEED)
    try:
        for name in POOL_SIZES:
            pool = draw_pool(name, rng)
            for entry in pool:
                cfg_path = os.path.join(work, "config.json")
                with open(cfg_path, "w", encoding="utf-8") as fh:
                    json.dump(sim_config(entry), fh)
                out = os.path.join(work, "out")
                if cli.main(["simulate", "--config", cfg_path, "--out", out]) != 0:
                    raise RuntimeError(f"simulate failed on {entry}")
                entry["counts_sha256"] = sha256_file(os.path.join(out, "counts.csv"))
                with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                    report = json.load(fh)
                entry["fits"] = report["fits"]
                entry["witness"] = report["witness"]
            with open(os.path.join(GOLDEN_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
                json.dump(pool, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
