"""Float guard for `renyi2 werner-scan`.

`golden/werner_scan.json` holds the output of two scans: a 1001-step JSON
scan over [0.013, 0.97] and a short CSV scan (its lines, split into fields).
The file was captured before the scan moved to the stacked kernels, so any
later change that moves a PPT eigenvalue, an entropic margin or a CHSH value
shows here. The header and the row count must match exactly, every float to
1e-12.

Regenerate it only when the outputs are meant to change, from the
repository root:

    PYTHONPATH=src python tests/test_werner_scan_golden.py --capture
"""

import json
import os
import sys

from renyi2.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "werner_scan.json")
FLOAT_TOL = 1e-12
SCANS = {
    "json": ["--pmin", "0.013", "--pmax", "0.97", "--steps", "1001", "--format", "json"],
    "csv": ["--pmin", "0.0", "--pmax", "1.0", "--steps", "7", "--format", "csv"],
}


def run_scan(name: str, workdir: str):
    """Rows of one CLI scan: a list of dicts (JSON) or of string fields (CSV)."""
    path = os.path.join(workdir, f"scan.{name}")
    assert main(["werner-scan", *SCANS[name], "--out", path]) == 0
    with open(path, encoding="utf-8") as fh:
        if name == "json":
            return json.load(fh)
        return [line.split(",") for line in fh.read().splitlines()]


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_json_scan_matches_golden(tmp_path):
    want = load_golden()["json"]
    got = run_scan("json", str(tmp_path))
    assert len(got) == len(want) == 1001
    for i, (g, w) in enumerate(zip(got, want)):
        assert set(g) == set(w), f"row {i}: keys differ"
        for key in w:
            assert abs(g[key] - w[key]) <= FLOAT_TOL, f"row {i} {key}: {g[key]!r} != {w[key]!r}"


def test_csv_scan_matches_golden(tmp_path):
    want = load_golden()["csv"]
    got = run_scan("csv", str(tmp_path))
    assert got[0] == want[0] == ["p", "ppt_min_eig", "entropic_margin", "max_chsh"]
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(g) == len(w), f"line {i}: field count differs"
        for field, (a, b) in zip(want[0], zip(g, w)):
            assert abs(float(a) - float(b)) <= FLOAT_TOL, f"line {i} {field}: {a} != {b}"


def capture() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        golden = {name: run_scan(name, work) for name in SCANS}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: test_werner_scan_golden.py --capture")
    capture()
