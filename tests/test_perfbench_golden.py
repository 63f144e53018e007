"""The benchmark's golden pools as a byte-identity gate for `renyi2 simulate`.

`perfbench/golden/sim-dense.json` and `sim-small.json` hold 64 simulate
configs, each with the SHA-256 of the `counts.csv` the CLI wrote for it and
the `fits` and `witness` sections of its report. Every entry is run here
through `cli.main` and checked by the benchmark's own `check_simulate`:
`counts.csv` byte-identical, `config` and report floats within 1e-12. This
only reads `perfbench/`.
"""

import json
import os
import sys

import pytest

from renyi2.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)
from workloads import check_simulate, load_pool, sim_config  # noqa: E402

ENTRIES = [(name, i, entry) for name in ("sim-dense", "sim-small") for i, entry in enumerate(load_pool(name))]


def test_pools_hold_64_entries():
    assert len(ENTRIES) == 64


@pytest.mark.parametrize("name, index, entry", ENTRIES, ids=[f"{n}-{i}" for n, i, _ in ENTRIES])
def test_simulate_matches_perfbench_golden(tmp_path, name, index, entry):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(sim_config(entry)))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert check_simulate(str(out), entry) is None
