"""Byte guard for the table outputs of `renyi2 phase-scan`, `werner-scan` and
`purity --format csv`.

`golden/cli_tables.json` maps each command line in TABLES to the SHA-256 of
the bytes it writes with `--out`. The digests were captured before the CLI
moved to one table writer, so any later change to a header, a key order, a
number's spelling or a line ending shows here. (`test_werner_scan_golden.py`
compares the scan values to 1e-12; this file pins the bytes.) The digests
were taken with numpy 2.4.6 and its bundled OpenBLAS: the `werner-scan`
values come from batched eigvalsh and SVD calls, so another LAPACK build may
move a last digit and fail here while the 1e-12 guard passes.

Regenerate it only when the outputs are meant to change, from the
repository root:

    PYTHONPATH=src python tests/test_cli_table_golden.py --capture
"""

import hashlib
import json
import os
import sys

import pytest

from renyi2.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli_tables.json")
TABLES = {
    "phase-scan-default-csv": ["phase-scan", "--format", "csv"],
    "phase-scan-default-json": ["phase-scan", "--format", "json"],
    "phase-scan-wide-csv": ["phase-scan", "--grid=-6.28:12.57:1000", "--format", "csv"],
    "phase-scan-wide-json": ["phase-scan", "--grid=-6.28:12.57:1000", "--format", "json"],
    "werner-scan-1001-json": ["werner-scan", "--steps", "1001", "--format", "json"],
    "werner-scan-7-csv": ["werner-scan", "--steps", "7", "--format", "csv"],
    "purity-werner-csv": ["purity", "--state", "werner:0.7", "--format", "csv"],
}


def digest(name: str, workdir: str) -> str:
    path = os.path.join(workdir, name)
    assert main([*TABLES[name], "--out", path]) == 0
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_table():
    assert set(load_golden()) == set(TABLES)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_bytes_match_golden(name, tmp_path):
    assert digest(name, str(tmp_path)) == load_golden()[name]


def capture() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        golden = {name: digest(name, work) for name in TABLES}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: test_cli_table_golden.py --capture")
    capture()
