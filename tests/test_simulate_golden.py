"""Byte-identity guard for `renyi2 simulate`.

`golden/simulate.json` holds, for one 200-phase config per detector model,
the SHA-256 of the `counts.csv` the CLI writes and the `config`, `fits` and
`witness` sections of its `report.json`. The sections are compared by the
benchmark's own `compare_json` (floats within 1e-12, relative above 1, the
rest exact and of one type), read from `perfbench/` without changing it.
The file was captured before the outcome curves moved to the phase-Gram
form, so any later change to the sampling, the estimates or the fit that
moves a count or a float shows here.

Regenerate it only when the outputs are meant to change, from the
repository root:

    PYTHONPATH=src python tests/test_simulate_golden.py --capture
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from renyi2.cli import main

TESTS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(TESTS), "perfbench"))
from workloads import compare_json  # noqa: E402

GOLDEN = os.path.join(TESTS, "golden", "simulate.json")
N_PHASES = 200
CONFIGS = (
    {
        "shots_per_phase": 100_000,
        "visibility": 0.965,
        "background_rate": 0.01,
        "seed": 20050511,
        "detector_model": "number_resolving",
    },
    {
        "shots_per_phase": 100_000,
        "visibility": 0.965,
        "background_rate": 0.01,
        "seed": 20050511,
        "detector_model": "bucket_with_pbs",
    },
)
REPORT_SECTIONS = ("config", "fits", "witness")


def run_simulate(entry: dict, workdir: str) -> tuple[str, dict]:
    """(counts.csv SHA-256, report.json) of one CLI run on the entry's config."""
    cfg = dict(entry)
    cfg["phi_grid"] = np.linspace(0.0, np.pi, N_PHASES).tolist()
    cfg_path = os.path.join(workdir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    out = os.path.join(workdir, "out")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
    with open(os.path.join(out, "counts.csv"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    return digest, report


def load_golden() -> list[dict]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("index", range(len(CONFIGS)), ids=[c["detector_model"] for c in CONFIGS])
def test_simulate_matches_golden_outputs(index, tmp_path, capsys):
    entry = load_golden()[index]
    assert {k: entry[k] for k in CONFIGS[index]} == CONFIGS[index]
    digest, report = run_simulate(CONFIGS[index], str(tmp_path))
    capsys.readouterr()
    assert digest == entry["counts_sha256"]
    for section in REPORT_SECTIONS:
        assert compare_json(report[section], entry[section], section) is None


def capture() -> None:
    import tempfile

    pool = []
    for cfg in CONFIGS:
        with tempfile.TemporaryDirectory() as work:
            digest, report = run_simulate(cfg, work)
        entry = dict(cfg, counts_sha256=digest)
        entry.update({section: report[section] for section in REPORT_SECTIONS})
        pool.append(entry)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: test_simulate_golden.py --capture")
    capture()
