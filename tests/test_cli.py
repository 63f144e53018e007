import contextlib
import copy
import functools
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from renyi2 import cli, qstate
from renyi2.cli import _canonical_json, _report_json, main
from renyi2.experiment import MAX_GRID_POINTS, MAX_SHOTS, RunConfig, analyze_counts, witness_from_run
from renyi2.qstate import random_density

PI = np.pi


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def write_config(path, **overrides):
    cfg = {
        "phi_grid": list(np.linspace(0.0, PI, 9)),
        "shots_per_phase": 2000,
        "visibility": 0.965,
        "background_rate": 0.0,
        "seed": 20260817,
        "detector_model": "number_resolving",
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


# -- purity ---------------------------------------------------------------------


def test_purity_singlet_text(capsys):
    code, out, err = run_cli(capsys, "purity", "--state", "singlet")
    assert code == 0 and err == ""
    assert "p_aa=0.250000" in out
    assert "tr rho^2  : reconstructed 1.000000  direct 1.000000" in out
    assert "violated" in out


def test_purity_werner_zero_json(capsys):
    code, out, _ = run_cli(capsys, "purity", "--state", "werner:0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["purities"]["joint"]["direct"] == pytest.approx(0.25)
    assert payload["purities"]["joint"]["reconstructed"] == pytest.approx(0.25)
    assert payload["witness"]["violated"] is False


def test_purity_at_witness_threshold(capsys):
    code, out, _ = run_cli(capsys, "purity", "--state", "werner:0.57735", "--format", "json")
    assert code == 0
    margins = json.loads(out)["witness"]
    assert abs(margins["margin_a"]) < 1e-4
    assert abs(margins["margin_b"]) < 1e-4


def test_purity_csv_matches_matrix_file_input(capsys, tmp_path):
    code, from_name, _ = run_cli(capsys, "purity", "--state", "singlet", "--format", "csv")
    assert code == 0
    half = 0.5
    mat = [
        [0, 0, 0, 0],
        [0, half, [-half, 0], 0],
        [0, [-half, 0], half, 0],
        [0, 0, 0, 0],
    ]
    f = tmp_path / "state.json"
    f.write_text(json.dumps({"dim_a": 2, "dim_b": 2, "matrix": mat}))
    code, from_file, _ = run_cli(capsys, "purity", "--state", f"file:{f}", "--format", "csv")
    assert code == 0
    header, rows_name = parse_csv(from_name)
    header_f, rows_file = parse_csv(from_file)
    assert header == header_f
    assert header[:4] == ["p_cc", "p_ca", "p_ac", "p_aa"]
    # the named singlet goes through 1/sqrt(2) amplitudes, the file through
    # exact 0.5 entries, so match values rather than bytes
    assert rows_file[0] == pytest.approx(rows_name[0], abs=1e-12)


def test_purity_rejects_unknown_family(capsys):
    code, out, err = run_cli(capsys, "purity", "--state", "ghz")
    assert code != 0
    assert err.startswith("error:") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize(
    "text, detail",
    [
        ("{not json", ""),
        (json.dumps({"dim_a": 2, "matrix": [[1]]}), ""),
        # numpy's "inhomogeneous shape" ValueError used to escape, without the path;
        # then the short row was named as "matrix entries must be a number, got a list"
        (
            json.dumps({"dim_a": 2, "dim_b": 2, "matrix": [[0.25, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0]]}),
            "matrix entries must be a number, got a ragged row\n",
        ),
        # a TypeError about list indices used to escape
        ("[1, 2]", ""),
    ],
    ids=["not-json", "no-dim-b", "ragged-rows", "top-level-list"],
)
def test_purity_rejects_malformed_matrix_file(capsys, tmp_path, text, detail):
    f = tmp_path / "bad.json"
    f.write_text(text)
    code, out, err = run_cli(capsys, "purity", "--state", f"file:{f}")
    assert code == 2 and out == ""
    assert err.startswith(f"error: malformed matrix file {f}: {detail}") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_purity_refuses_a_non_finite_werner_parameter(capsys, value):
    # the message used to be "mixing parameter must be in [0, 1], got nan"
    code, out, err = run_cli(capsys, "purity", "--state", f"werner:{value}")
    assert_contract(code, err, value)
    assert (code, out, err) == (2, "", f"error: mixing parameter must be finite, got {value}\n")


def test_purity_reports_bad_matrix_entries_before_bad_dimensions(capsys, tmp_path):
    # the dimensions are read by make_density, once every entry has been read
    f = tmp_path / "state.json"
    f.write_text('{"dim_a": 2.5, "dim_b": 2, "matrix": [[true, 0], [0, 0]]}')
    code, out, err = run_cli(capsys, "purity", "--state", f"file:{f}")
    assert code == 2 and out == ""
    assert err.startswith(f"error: malformed matrix file {f}: matrix entries must be a number, got a bool")
    assert err.count("\n") == 1


def test_purity_rejects_non_finite_matrix_file(capsys, tmp_path):
    # Python's json reads NaN; this used to fail later, as "p_cc = nan outside [0, 1]"
    f = tmp_path / "nan.json"
    f.write_text('{"dim_a": 2, "dim_b": 2, "matrix": [[NaN,0,0,0],[0,0.5,0,0],[0,0,0.5,0],[0,0,0,0]]}')
    code, out, err = run_cli(capsys, "purity", "--state", f"file:{f}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "matrix entries must be finite" in err


@pytest.mark.parametrize(
    "dim_a, size",
    [("Infinity", 4), ("true", 2), ("1e30", 4), ("2.5", 4), ('"2"', 4), ("null", 4), ("[2]", 4)],
    ids=["infinite", "bool", "huge", "fraction", "string", "null", "list"],
)
def test_purity_rejects_non_integer_dimensions(capsys, tmp_path, dim_a, size):
    # Infinity used to raise OverflowError (a traceback, exit 1); true was read as 1
    mat = (np.eye(size) / size).tolist()
    f = tmp_path / "dims.json"
    f.write_text(f'{{"dim_a": {dim_a}, "dim_b": 2, "matrix": {json.dumps(mat)}}}')
    code, out, err = run_cli(capsys, "purity", "--state", f"file:{f}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "dim_a" in err


@pytest.mark.parametrize(
    "matrix, detail",
    [
        ("[[true, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]", "be a number, got a bool"),
        ("[[1, false, 0, 0], [false, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]", "be a number, got a bool"),
        ('[["0.25", 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]', "be a number, got a str"),
        ("[[[0.25, 0, 99], 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]", "be a number, got a ragged row"),
        (
            json.dumps([[[0.25 * (i == j), 0, 1] for j in range(4)] for i in range(4)]),
            "form an array of shape (n, n, 2), got shape (4, 4, 3)",
        ),
        ("[[[], 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]", "be a number, got a ragged row"),
    ],
    ids=["true", "false", "string", "triple", "all-triples", "empty-pair"],
)
def test_purity_rejects_mistyped_matrix_entries(capsys, tmp_path, matrix, detail):
    # the first four were read as a number (true as 1, "0.25" parsed, the triple cut to 0.25) and exited 0
    f = tmp_path / "state.json"
    f.write_text(f'{{"dim_a": 2, "dim_b": 2, "matrix": {matrix}}}')
    code, out, err = run_cli(capsys, "purity", "--state", f"file:{f}")
    assert (code, out, err) == (2, "", f"error: malformed matrix file {f}: matrix entries must {detail}\n")


@pytest.mark.parametrize("subcommand", ["simulate", "purity"])
def test_a_file_that_is_not_utf8_is_named_in_its_refusal(capsys, tmp_path, subcommand):
    # the decoding error used to reach the error line without the file's path
    f = tmp_path / "input.json"
    f.write_bytes(b'{"phi_grid": [0, 1], "shots_per_phase": 10, "note": "\xff"}')
    argv, what = {
        "simulate": (["simulate", "--config", str(f), "--out", str(tmp_path / "o")], "config"),
        "purity": (["purity", "--state", f"file:{f}"], "matrix"),
    }[subcommand]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: malformed {what} file {f}: 'utf-8' codec can't decode") and err.count("\n") == 1


# -- werner-scan ------------------------------------------------------------------


def test_werner_scan_reveals_three_regimes(capsys):
    code, out, _ = run_cli(capsys, "werner-scan", "--pmin", "0", "--pmax", "1", "--steps", "21")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["p", "ppt_min_eig", "entropic_margin", "max_chsh"]
    by_p = {round(r[0], 3): r for r in rows}
    p, ppt, margin, chsh = by_p[0.3]
    assert ppt > 0 and margin < 0 and chsh < 2
    p, ppt, margin, chsh = by_p[0.6]
    assert ppt < 0 and margin > 0 and chsh < 2
    p, ppt, margin, chsh = by_p[0.8]
    assert margin > 0 and chsh > 2


def test_werner_scan_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "werner-scan", "--steps", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["p"] for r in rows] == [0.0, 0.5, 1.0]
    assert out == json.dumps(rows, indent=2, sort_keys=True, allow_nan=False) + "\n"


def test_werner_scan_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, "werner-scan", "--pmin", "0.9", "--pmax", "0.2")
    assert code != 0 and "bad range" in err
    code, _, err = run_cli(capsys, "werner-scan", "--pmin", "0", "--pmax", "1.5")
    assert code != 0 and "bad range" in err
    code, _, err = run_cli(capsys, "werner-scan", "--steps", "1")
    assert code != 0 and "steps" in err


# -- phase-scan -------------------------------------------------------------------


def test_phase_scan_marked_rows(capsys):
    code, out, _ = run_cli(capsys, "phase-scan", "--grid", f"0:{PI}:3")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["phi", "p_cc", "p_ca", "p_ac", "p_aa"]
    assert rows[0][1:] == pytest.approx([0.6, 0.0, 0.0, 0.4], abs=1e-10)
    assert rows[1][1:] == pytest.approx([0.3, 0.3, 0.3, 0.1], abs=1e-10)
    for row in rows:
        assert sum(row[1:]) == pytest.approx(1.0, abs=1e-10)


def test_phase_scan_uses_lf_endings_and_final_newline(capsys):
    code, out, _ = run_cli(capsys, "phase-scan", "--grid", "0:1.6:4")
    assert code == 0
    assert "\r" not in out and out.endswith("\n")


def test_phase_scan_writes_output_file(capsys, tmp_path):
    target = tmp_path / "curves.csv"
    code, out, _ = run_cli(capsys, "phase-scan", "--grid", "0:1.6:4", "--out", str(target))
    assert code == 0 and out == ""
    header, rows = parse_csv(target.read_text())
    assert header[0] == "phi" and len(rows) == 4


def test_phase_scan_rejects_bad_grids(capsys):
    code, _, err = run_cli(capsys, "phase-scan", "--grid", "0-1-5")
    assert code != 0 and "start:stop:n" in err
    code, _, err = run_cli(capsys, "phase-scan", "--grid", "0:1:0")
    assert code != 0 and "empty" in err


@pytest.mark.parametrize(
    "argv",
    [["werner-scan", "--steps", str(10**18)], ["phase-scan", "--grid", f"0:1:{10**18}"]],
    ids=["steps", "grid"],
)
def test_grid_sizes_are_bounded_before_allocation(argv):
    code, err = run_in_process(argv)
    assert code == 2 and str(MAX_GRID_POINTS) in err
    assert_contract(code, err, argv)


def test_grid_limit_admits_exactly_max_points(monkeypatch):
    monkeypatch.setattr(qstate, "MAX_GRID_POINTS", 10)
    assert run_in_process(["werner-scan", "--steps", "10"]) == (0, "")
    assert run_in_process(["phase-scan", "--grid", "0:1:10"]) == (0, "")
    for argv in (["werner-scan", "--steps", "11"], ["phase-scan", "--grid", "0:1:11"]):
        code, err = run_in_process(argv)
        assert code == 2 and "10" in err
        assert_contract(code, err, argv)


def test_negative_grid_start_needs_the_equals_form():
    # argparse reads a value starting with "-" as an option
    assert run_in_process(["phase-scan", "--grid=-1:1:5"]) == (0, "")
    code, err = run_in_process(["phase-scan", "--grid", "-1:1:5"])
    assert code == 2 and "expected one argument" in err
    assert_contract(code, err, "space form")


@pytest.mark.parametrize("spec", ["-1e308:1e308:3", "-9e307:9e307:3", "-1e308:1e308:1", "1e308:-1e308:2"])
def test_phase_scan_refuses_a_grid_span_that_overflows(spec):
    # np.linspace printed two RuntimeWarnings, then the error blamed a non-finite phase
    argv = ["phase-scan", f"--grid={spec}"]
    code, err = run_in_process(argv)
    assert code == 2 and "span" in err
    assert_contract(code, err, argv)


def test_phase_scan_admits_the_widest_finite_span():
    assert run_in_process(["phase-scan", "--grid=-8.9e307:8.9e307:3"]) == (0, "")


# -- simulate ---------------------------------------------------------------------


def test_simulate_writes_deterministic_outputs(capsys, tmp_path):
    cfg = write_config(tmp_path / "run.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code, line, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_a))
    assert code == 0
    assert line.startswith("witness violated (significance ")
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_b))
    assert code == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "counts.csv").read_bytes() == (out_b / "counts.csv").read_bytes()

    report = json.loads((out_a / "report.json").read_text())
    assert set(report) == {"config", "counts", "fits", "witness"}
    assert set(report["fits"]) == {"p_ac", "p_aa"}
    canonical = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert canonical.encode() == (out_a / "report.json").read_bytes()

    header, rows = parse_csv((out_a / "counts.csv").read_text())
    assert header == ["phi", "n_cc", "n_ca", "n_ac", "n_aa", "n_other"]
    assert len(rows) == 9
    assert all(sum(r[1:]) == 2000 for r in rows)


@settings(max_examples=50)
@given(
    n=st.integers(4, 40),
    lo=st.floats(-2 * PI, 2 * PI),
    span=st.floats(PI / 2, 2 * PI),
    shots=st.integers(10, 10**5),
    seed=st.integers(0, 2**63 - 1),
    detector_model=st.sampled_from(["number_resolving", "bucket_with_pbs"]),
)
def test_counts_csv_reads_back_as_the_reports_count_rows(n, lo, span, shots, seed, detector_model):
    # the table a run writes is the one it analysed: counts.csv, read with float for phi and
    # int for the counts, gives report.json's count rows and the config's phases exactly
    raw = {
        "phi_grid": np.linspace(lo, lo + span, n).tolist(), "shots_per_phase": shots, "seed": seed,
        "detector_model": detector_model,
    }
    with tempfile.TemporaryDirectory() as tmp:
        assert run_simulate(raw, tmp) == (0, "")
        lines = (Path(tmp) / "o" / "counts.csv").read_text().splitlines()
        report = json.loads((Path(tmp) / "o" / "report.json").read_text())
    header = lines[0].split(",")
    rows = [(float(phi), *map(int, counts)) for phi, *counts in (line.split(",") for line in lines[1:])]
    assert rows == [tuple(row[key] for key in header) for row in report["counts"]]
    assert [row[0] for row in rows] == raw["phi_grid"]


@settings(max_examples=50)
@given(
    phi_grid=st.lists(st.floats(-1.0, 2.5), min_size=17, max_size=36),
    shots=st.integers(10**2, 10**5),
    seed=st.integers(0, 2**64 - 1),
    detector_model=st.sampled_from(["number_resolving", "bucket_with_pbs"]),
)
def test_report_json_is_the_analysis_of_counts_csv(phi_grid, shots, seed, detector_model):
    # analysing the written counts.csv again, under the config with the read-back phases,
    # writes report.json byte for byte: the report is a function of the counts and the config
    raw = {"phi_grid": phi_grid, "shots_per_phase": shots, "seed": seed, "detector_model": detector_model}
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_simulate(raw, tmp)
        # a grid the fit refuses (too narrow a span, too few distinct phases) writes no report
        assume(code == 0)
        assert err == ""
        lines = (Path(tmp) / "o" / "counts.csv").read_text().splitlines()
        report = (Path(tmp) / "o" / "report.json").read_text()
    rows = [(float(phi), *map(int, counts)) for phi, *counts in (line.split(",") for line in lines[1:])]
    config = RunConfig(**{**raw, "phi_grid": [row[0] for row in rows]})
    assert _report_json(analyze_counts(config, [row[1:] for row in rows])) == report


def test_simulate_seed_flag_overrides_config(capsys, tmp_path):
    cfg = write_config(tmp_path / "run.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_a))
    run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_b), "--seed", "1")
    rep_a = json.loads((out_a / "report.json").read_text())
    rep_b = json.loads((out_b / "report.json").read_text())
    assert rep_b["config"]["seed"] == 1
    assert rep_a["counts"] != rep_b["counts"]


@pytest.mark.parametrize("detector_model", ["number_resolving", "bucket_with_pbs"])
def test_parsed_report_re_emits_byte_identical(capsys, tmp_path, detector_model):
    grid = list(np.linspace(-6.0, 40.0, 25))
    cfg = write_config(tmp_path / "run.json", phi_grid=grid, detector_model=detector_model)
    assert run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path))[0] == 0
    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    report = json.loads(text)
    assert [row["phi"] for row in report["counts"]] == grid
    assert all(set(row) == {"phi", "n_cc", "n_ca", "n_ac", "n_aa", "n_other"} for row in report["counts"])
    assert _canonical_json(report) == text


def test_simulate_flat_config_reports_no_violation(capsys, tmp_path):
    cfg = write_config(tmp_path / "run.json", visibility=0.0)
    code, line, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 0
    assert line.startswith("witness not violated")


def test_simulate_config_validation_messages(capsys, tmp_path):
    cfg = write_config(tmp_path / "run.json", visibility=2.0)
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code != 0 and "visibility" in err

    cfg = write_config(tmp_path / "run2.json", extra_knob=1, another=2)
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert (code, err) == (2, "error: unknown config field(s): another, extra_knob\n")

    # the required fields are listed in RunConfig's field order
    partial = tmp_path / "run3.json"
    for raw, missing in [({}, "phi_grid, shots_per_phase"), ({"shots_per_phase": 100}, "phi_grid")]:
        partial.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "simulate", "--config", str(partial), "--out", str(tmp_path / "o"))
        assert (code, err) == (2, f"error: config is missing required field(s): {missing}\n")

    broken = tmp_path / "run4.json"
    broken.write_text("{oops")
    code, _, err = run_cli(capsys, "simulate", "--config", str(broken), "--out", str(tmp_path / "o"))
    assert code != 0 and "malformed config" in err

    code, _, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o"))
    assert code != 0 and err.startswith("error:")


@pytest.mark.parametrize(
    "raw_config, field",
    [
        ('{"phi_grid": [0, 1, 2, NaN], "shots_per_phase": 100}', "phi_grid"),
        ('{"phi_grid": [0, 1, 2, Infinity], "shots_per_phase": 100}', "phi_grid"),
        ('{"phi_grid": [0, 1, 2, 3], "shots_per_phase": Infinity}', "shots_per_phase"),
        ('{"phi_grid": [0, 1, 2, 3], "shots_per_phase": 1e30}', "shots_per_phase"),
        ('{"phi_grid": 1.5, "shots_per_phase": 100}', "phi_grid"),
        ('{"phi_grid": [0, 1, 2, 3], "shots_per_phase": 100, "bad\\nkey": 1}', "unknown config field(s): 'bad\\nkey'"),
    ],
    ids=["nan-phase", "infinite-phase", "infinite-shots", "huge-shots", "scalar-grid", "newline-in-field-name"],
)
def test_simulate_rejects_bad_config_with_one_error_line(capsys, tmp_path, raw_config, field):
    cfg = tmp_path / "run.json"
    cfg.write_text(raw_config)
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert field in err and "missing" not in err
    assert not (tmp_path / "o").exists()


def test_simulate_shows_unknown_field_names_that_would_break_the_line_by_repr(capsys, tmp_path):
    # a name str.isprintable() refuses is shown by its repr; a printable one, ASCII or not, as it is
    cfg = write_config(tmp_path / "run.json", **{"bad\nkey": 1, "tab\t": 2, "café": 3})
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert (code, out) == (2, "")
    assert err == "error: unknown config field(s): 'bad\\nkey', café, 'tab\\t'\n"


@pytest.mark.parametrize(
    "n, stop, detector_model, message",
    [
        (3, 1.6, "number_resolving", "need at least 4 points, got 3"),
        (200_000, 1.0, "bucket_with_pbs", "points span 1 rad, need at least half a period (pi/2)"),
    ],
    ids=["three-phases", "narrow-span"],
)
def test_simulate_refuses_an_unfittable_grid_before_the_draw(monkeypatch, tmp_path, n, stop, detector_model, message):
    # the fit refused these grids only after every count was drawn: 1.8 s and 112 MB for the narrow span
    def no_draw(config):
        raise AssertionError("simulate_counts ran")

    monkeypatch.setattr(cli.experiment, "simulate_counts", no_draw)
    raw = {"phi_grid": np.linspace(0.0, stop, n).tolist(), "shots_per_phase": 1000, "detector_model": detector_model}
    assert run_simulate(raw, tmp_path) == (2, f"error: {message}\n")
    assert not (tmp_path / "o").exists()


def test_simulate_shows_a_refused_detector_model_briefly(capsys, tmp_path):
    # the refusal printed the whole repr: a 2000-entry list made an 11 kB line
    for model, shown in ((["bucket_with_pbs"] * 2000, "a list"), ("kaleidoscope", "'kaleidoscope'")):
        cfg = write_config(tmp_path / "run.json", detector_model=model)
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == f"error: detector_model must be one of ('number_resolving', 'bucket_with_pbs'), got {shown}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ["[1, 2]", "3", "null", '"run"'], ids=["list", "number", "null", "string"])
def test_simulate_refuses_a_config_that_holds_no_json_object(capsys, tmp_path, text):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert (code, out) == (2, "")
    assert err == f"error: malformed config file {cfg}: it must hold a JSON object\n"


def test_simulate_says_why_fitted_minima_form_no_distribution(capsys, tmp_path):
    # one shot per phase at zero visibility: the fitted minima leave p_cc below 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "phi_grid": np.linspace(0.0, PI, 5).tolist(),
        "shots_per_phase": 1,
        "visibility": 0,
        "seed": 5,
        "detector_model": "bucket_with_pbs",
    }))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert (code, out) == (2, "")
    assert err.startswith("error: fitted minima do not form a probability distribution: p_ac = ")
    assert err.count("\n") == 1 and "p_aa = " in err and "p_cc = " in err


def test_simulate_fits_at_maximal_shots(capsys, tmp_path):
    # at N = 2**63 - 1 a zero count makes the fit weights span ~18 decades;
    # the phase geometry is sound, so the run must not be refused as degenerate
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "phi_grid": [0, 0.8, 1.6, 2.4],
        "shots_per_phase": 2**63 - 1,
        "detector_model": "bucket_with_pbs",
    }))
    out_dir = tmp_path / "o"
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))
    assert code == 0 and err == ""
    fits = json.loads((out_dir / "report.json").read_text())["fits"]
    for fit in fits.values():
        for key in ("offset", "amplitude", "phase_origin", "residual_rms"):
            assert np.isfinite(fit[key])
        for key in ("minima_values", "minima_stderr"):
            assert fit[key] and np.all(np.isfinite(fit[key]))
        assert min(fit["minima_stderr"]) >= 0.0
    # ideal source: the raw minima are 0 (p_ac) and 0.4 * 1/4 (p_aa)
    assert abs(fits["p_ac"]["minima_values"][0]) < 1e-6
    assert abs(fits["p_aa"]["minima_values"][0] - 0.1) < 1e-6


def test_phase_scan_rejects_non_finite_grid_bounds(capsys):
    for spec in ("nan:1:5", "0:inf:5"):
        code, out, err = run_cli(capsys, "phase-scan", "--grid", spec)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "finite" in err


# -- contract fuzz -----------------------------------------------------------------

# JSON values that no field accepts, or that one accepts only at the edge of its range
JUNK_VALUES = [
    float("nan"), float("inf"), -float("inf"), 1e30, -1e30, 2**70, -(2**70),
    True, False, None, "", "2", "x" * 100_000, [], [1, 2], [[0.5]], {"a": 1},
]
JUNK = st.one_of(
    st.sampled_from(JUNK_VALUES),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 2), st.lists(st.integers(0, 1), max_size=2)), max_size=3),
)
FUZZ_CONFIG = {
    "phi_grid": np.linspace(0.0, PI, 8).tolist(),
    "shots_per_phase": 500,
    "visibility": 0.9,
    "background_rate": 0.01,
    "seed": 3,
    "detector_model": "bucket_with_pbs",
}
FUZZ_MATRIX_FILE = {
    "dim_a": 2,
    "dim_b": 2,
    "matrix": [[0.5, 0, 0, [0, -0.5]], [0, 0, 0, 0], [0, 0, 0, 0], [[0, 0.5], 0, 0, 0.5]],
}


def _paths(data, prefix=()):
    """Key paths of every value nested in a JSON object or list."""
    for key, value in data.items() if isinstance(data, dict) else enumerate(data):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _replaced(data, path, value):
    data = copy.deepcopy(data)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


@st.composite
def corrupted(draw, data):
    """data with zero to two values set to junk or dropped, a field of any name
    but data's own added, or the whole of it replaced by junk."""
    fields = set(data)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(data)) or [None]))
        if path is None:
            break
        if len(path) == 1 and draw(st.integers(0, 3)) == 0:
            data = {k: v for k, v in data.items() if k != path[0]}
        else:
            data = _replaced(data, path, draw(JUNK))
    if draw(st.integers(0, 9)) == 0:
        names = st.one_of(st.text(max_size=4), st.just("x" * 100_000))
        data = {**data, draw(names.filter(lambda name: name not in fields)): 1}
    return draw(JUNK) if draw(st.integers(0, 9)) == 0 else data


def run_in_process(argv):
    """cli.main on argv: (exit code, stderr). A warning would be another stderr line."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse exits on --help
                code = exc.code
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    return code, err.getvalue()


# a refusal line is "error: ", then its message, cut to its first 400 characters
# and "... (N characters)" when longer
MAX_ERROR_LINE = len("error: ") + 400 + len(f"... ({sys.maxsize} characters)\n")


def assert_contract(code, err, what):
    if code == 0:
        assert err == "", what
    else:
        assert code == 2, what
        assert err.startswith("error:") and err.count("\n") == 1, (what, err)
        assert len(err) <= MAX_ERROR_LINE, (what, len(err))


def run_simulate(raw, tmp):
    cfg = Path(tmp) / "run.json"
    cfg.write_text(json.dumps(raw))
    return run_in_process(["simulate", "--config", str(cfg), "--out", str(Path(tmp) / "o")])


def run_purity(data, tmp):
    f = Path(tmp) / "state.json"
    f.write_text(json.dumps(data))
    return run_in_process(["purity", "--state", f"file:{f}", "--format", "json"])


@pytest.mark.parametrize(
    "run, base", [(run_simulate, FUZZ_CONFIG), (run_purity, FUZZ_MATRIX_FILE)], ids=["simulate", "purity"]
)
def test_every_junk_value_in_every_field_keeps_the_contract(tmp_path, run, base):
    assert run(base, tmp_path) == (0, "")
    for path in _paths(base):
        for value in JUNK_VALUES:
            assert_contract(*run(_replaced(base, path, value), tmp_path), (path, value))


# an integer of 5000 digits; json.dumps refuses to write one, so the files hold it as text
HUGE_INT = "9" * 5000


@pytest.mark.parametrize(
    "what, text",
    [
        ("config", '{"phi_grid": [0, 0.8, 1.6, 2.4], "shots_per_phase": %s}' % HUGE_INT),
        ("matrix", '{"dim_a": %s, "dim_b": 1, "matrix": [[1]]}' % HUGE_INT),
    ],
    ids=["simulate", "purity"],
)
def test_a_file_holding_an_integer_beyond_4300_digits_is_named(tmp_path, what, text):
    # json.load raises a bare ValueError for it, and the refusal named no file
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = {
        "config": ["simulate", "--config", str(path), "--out", str(tmp_path / "o")],
        "matrix": ["purity", "--state", f"file:{path}"],
    }[what]
    code, err = run_in_process(argv)
    assert_contract(code, err, what)
    assert code == 2 and err.startswith(f"error: malformed {what} file {path}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["werner-scan", "--steps", "abc"],
        ["bogus"],
        [],
        ["simulate"],
        ["purity", "--state", "singlet", "--format", "xml"],
        ["phase-scan", "--grid"],
        ["werner-scan", "--pmin", "0", "--colour", "red"],
        # each refusal below echoed its 100,000 characters whole
        ["werner-scan", "--steps", "9" * 100_000],
        ["simulate", "--config", "run.json", "--out", "o", "--seed", "9" * 100_000],
        ["x" * 100_000],
        ["purity", "--state", "werner:" + "x" * 100_000],
        ["purity", "--state", "x" * 100_000],
        ["phase-scan", "--grid", "x" * 100_000],
        ["phase-scan", "--grid", "0:1:" + "9" * 100_000],
        ["purity", "--state", "file:" + "p" * 100_000],
    ],
    ids=[
        "bad-int", "unknown-subcommand", "no-subcommand", "missing-flags", "bad-choice", "missing-value",
        "unknown-flag", "long-steps", "long-seed", "long-subcommand", "long-werner", "long-family", "long-grid",
        "long-grid-size", "long-path",
    ],
)
def test_bad_argv_gives_one_error_line(argv):
    # argparse printed a usage block before its error line
    code, err = run_in_process(argv)
    assert code == 2
    assert_contract(code, err, argv)


def test_a_usage_error_returns_2_in_process_and_help_still_exits_0(capsys):
    # a usage error raised SystemExit(2) out of an in-process main
    code, out, err = run_cli(capsys, "bogus")
    assert (code, out) == (2, "")
    assert err.startswith("error: argument subcommand: invalid choice: 'bogus'") and err.count("\n") == 1
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: renyi2")


def test_simulate_refuses_phases_whose_double_overflows(tmp_path):
    # cos(2 phi) at phi = 1e308 printed three numpy warnings before the error
    code, err = run_simulate({"phi_grid": [1e308] * 4, "shots_per_phase": 100}, tmp_path)
    assert code == 2 and err.startswith("error: phi must lie within") and err.count("\n") == 1


@settings(max_examples=100)
@given(
    st.fixed_dictionaries({
        "phi_grid": st.lists(st.floats(-2 * PI, 2 * PI), min_size=1, max_size=8),
        "shots_per_phase": st.integers(1, 5000),
        "visibility": st.floats(0.0, 1.0),
        "background_rate": st.floats(0.0, 1.0),
        "seed": st.integers(0, 2**64 - 1),
        "detector_model": st.sampled_from(["number_resolving", "bucket_with_pbs"]),
    }).flatmap(corrupted)
)
def test_fuzzed_simulate_config_keeps_the_contract(raw):
    with tempfile.TemporaryDirectory() as tmp:
        assert_contract(*run_simulate(raw, tmp), raw)


def _matrix_file(dim_a, dim_b, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(dim_a, dim_b, rng, components=int(rng.integers(1, 4))).matrix
    matrix = [[[e.real, e.imag] if e.imag else e.real for e in row] for row in rho.tolist()]
    return {"dim_a": dim_a, "dim_b": dim_b, "matrix": matrix}


@settings(max_examples=100)
@given(
    st.builds(_matrix_file, st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
    .flatmap(corrupted)
)
def test_fuzzed_matrix_file_keeps_the_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        assert_contract(*run_purity(data, tmp), data)


# any JSON value: nested lists and objects, strings, bools, null, integers
# beyond 64 bits, NaN and the infinities
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.floats(), st.text(max_size=4),
        st.integers(-(2**70), 2**70), st.sampled_from([2**70, -(2**70)]),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)


@pytest.mark.parametrize(
    "run, base", [(run_simulate, FUZZ_CONFIG), (run_purity, FUZZ_MATRIX_FILE)], ids=["simulate", "purity"]
)
@settings(max_examples=150)
@given(data=st.data())
def test_any_json_in_any_field_keeps_the_contract(run, base, data):
    # each field keeps its value or holds an arbitrary JSON value
    raw = data.draw(st.fixed_dictionaries({k: st.one_of(st.just(v), JSON_VALUES) for k, v in base.items()}))
    with tempfile.TemporaryDirectory() as tmp:
        assert_contract(*run(raw, tmp), raw)


# flag values per subcommand; "{tmp}" stands for a fresh temporary directory
# holding state.json and run.json, the only place an --out may point. Sizes
# that would run stay at most 10**4; larger ones must be refused unallocated.
NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-0", "", "abc", "0x10"]),
)
SIZE_TEXT = st.one_of(
    st.integers(-2, 10**4).map(str),
    st.sampled_from([str(MAX_GRID_POINTS + 1), str(10**18), "1e3", "", "ten"]),
)
OUT_PATHS = st.sampled_from(["{tmp}/out", "{tmp}", "{tmp}/no/such/dir/out", "{tmp}/state.json"])
ARGV_FLAGS = {
    "purity": {
        "--state": st.one_of(
            st.sampled_from(["singlet", "file:{tmp}/state.json", "file:{tmp}/missing.json", "file:{tmp}"]),
            NUMBER_TEXT.map("werner:{}".format),
            st.text(max_size=6).filter(lambda s: not s.startswith("file:")),
        ),
        "--format": st.sampled_from(["text", "csv", "json", "xml", ""]),
        "--out": OUT_PATHS,
    },
    "werner-scan": {
        "--pmin": NUMBER_TEXT,
        "--pmax": NUMBER_TEXT,
        "--steps": SIZE_TEXT,
        "--format": st.sampled_from(["csv", "json", "text"]),
        "--out": OUT_PATHS,
    },
    "phase-scan": {
        "--grid": st.one_of(st.tuples(NUMBER_TEXT, NUMBER_TEXT, SIZE_TEXT).map(":".join), st.text(max_size=6)),
        "--format": st.sampled_from(["csv", "json", "text"]),
        "--out": OUT_PATHS,
    },
    "simulate": {
        "--config": st.sampled_from(["{tmp}/run.json", "{tmp}/state.json", "{tmp}/missing.json", "{tmp}"]),
        "--out": OUT_PATHS,
        "--seed": st.one_of(st.integers(-2, 2**65).map(str), NUMBER_TEXT),
    },
}


@st.composite
def fuzzed_argv(draw, subcommand):
    """subcommand with any subset of its flags in any order, each as
    `--flag value` or `--flag=value`, now and then with a stray token."""
    flags = ARGV_FLAGS[subcommand]
    argv = [subcommand]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        value = draw(flags[flag])
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if draw(st.integers(0, 9)) == 0:
        stray = draw(st.sampled_from(["--help", "--bogus", "-x", "extra", "--"]))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@pytest.mark.parametrize("subcommand", sorted(ARGV_FLAGS))
@settings(max_examples=60)
@given(data=st.data())
def test_fuzzed_argv_keeps_the_contract(subcommand, data):
    argv = data.draw(fuzzed_argv(subcommand))
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "state.json").write_text(json.dumps(FUZZ_MATRIX_FILE))
        Path(tmp, "run.json").write_text(json.dumps(FUZZ_CONFIG))
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        assert_contract(*run_in_process(argv), argv)


# -- report.json template ----------------------------------------------------------


@functools.cache
def _sample_report():
    return witness_from_run(RunConfig(phi_grid=tuple(np.linspace(0.0, PI, 5)), shots_per_phase=100, seed=3))


def _report_with(phi_grid, counts):
    sample = _sample_report()
    return {**sample, "config": {**sample["config"], "phi_grid": phi_grid}, "counts": counts}


def _count_row(phi, n_cc, n_ca, n_ac, n_aa, n_other):
    return {"phi": phi, "n_cc": n_cc, "n_ca": n_ca, "n_ac": n_ac, "n_aa": n_aa, "n_other": n_other}


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGE_COUNTS = [
    _count_row(-0.0, 0, MAX_SHOTS, 0, 0, 0),
    _count_row(5e-324, MAX_SHOTS, 0, 1, 2, 3),
    _count_row(1e300, 0, 0, 0, 0, MAX_SHOTS),
]


@settings(max_examples=100)
@given(
    st.lists(FINITE, min_size=1, max_size=5),
    st.lists(st.builds(_count_row, FINITE, *[st.integers(0, MAX_SHOTS)] * 5), min_size=1, max_size=5),
)
@example([2.5], EDGE_COUNTS)
@example([-0.0, 5e-324, 1e300], EDGE_COUNTS)
def test_report_template_matches_canonical_json(phi_grid, counts):
    rows = [tuple(row.values()) for row in counts]
    assert _report_json(_report_with(phi_grid, rows)) == _canonical_json(_report_with(phi_grid, counts))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_report_json_refuses_a_non_finite_phase(bad):
    with pytest.raises(ValueError, match="not finite"):
        _report_json(_report_with([0.0, bad], []))


# -- table writer ------------------------------------------------------------------

CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, MAX_SHOTS))


@st.composite
def tables(draw, min_rows=0):
    """(keys, rows): distinct keys in any order, rows of finite floats and ints."""
    keys = tuple(draw(st.lists(st.text(max_size=4), min_size=1, max_size=6, unique=True)))
    row = st.tuples(*[CELLS] * len(keys))
    return keys, draw(st.lists(row, min_size=min_rows, max_size=5))


EDGE_TABLE = (("phi", "n_cc", "a", "Z"), [(-0.0, 0, 5e-324, MAX_SHOTS), (1e300, MAX_SHOTS, 0, -0.0)])


@settings(max_examples=200)
@given(tables())
@example(EDGE_TABLE)
@example((("b", "a"), []))
def test_table_json_matches_canonical_json(table):
    keys, rows = table
    assert cli._table(keys, rows, "json") == _canonical_json([dict(zip(keys, row)) for row in rows])


@settings(max_examples=200)
@given(tables())
@example(EDGE_TABLE)
def test_table_csv_joins_formatted_cells(table):
    keys, rows = table
    lines = [",".join(keys)]
    lines += [",".join(cli._fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    assert cli._table(keys, iter(rows), "csv") == "\n".join(lines) + "\n"


@settings(max_examples=50)
@given(tables(min_rows=1), st.sampled_from([float("nan"), float("inf"), -float("inf")]), st.data())
def test_table_json_refuses_non_finite_cells(table, bad, data):
    keys, rows = table
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(keys) - 1))
    rows[i] = rows[i][:j] + (bad,) + rows[i][j + 1:]
    with pytest.raises(ValueError, match="not finite"):
        cli._table(keys, iter(rows), "json")


# -- entry point -------------------------------------------------------------------


def run_fresh(*argv, env=None, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """`python *argv` in a fresh interpreter that imports this checkout's renyi2.

    env updates the inherited environment; a None value removes that variable.
    stdout is captured unless another target is given.
    """
    src = str(Path(cli.__file__).parents[1])
    environ = {**os.environ, "PYTHONPATH": src, **(env or {})}
    return subprocess.run(
        [sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE, text=True,
        env={k: v for k, v in environ.items() if v is not None},
    )


LAYERS = ["renyi2.chsh", "renyi2.experiment", "renyi2.fock", "renyi2.qstate", "renyi2.two_copy"]


def test_package_import_loads_neither_numpy_nor_a_layer():
    out = run_fresh("-c", "import sys, renyi2; print(sorted(m for m in sys.modules if m.startswith(('numpy', 'renyi2'))))").stdout
    assert out == "['renyi2']\n"


def test_cli_import_loads_every_layer():
    # the benchmark's tracer reads each layer from sys.modules after `import renyi2.cli`
    out = run_fresh("-c", "import sys, renyi2.cli; print(sorted(m for m in sys.modules if m.startswith('renyi2.')))").stdout
    assert out == f"{sorted(LAYERS + ['renyi2.cli'])}\n"


# one name each of the layers cli imports lazily: a layer has run once its own
# __dict__ holds the name (object.__getattribute__ reads it without loading the layer)
LAZY_LAYERS = {
    "chsh": "max_chsh_values", "experiment": "RunConfig", "fock": "outcome_curves", "qstate": "make_density",
    "two_copy": "entropic_witness",
}


NUMPY_LOADED = 'sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))'


def test_cli_import_loads_no_numpy_and_runs_no_layer():
    code = f"""
import json, sys
import renyi2.cli
ran = sorted(layer for layer, name in {LAZY_LAYERS!r}.items()
             if name in object.__getattribute__(sys.modules[f"renyi2.{{layer}}"], "__dict__"))
print(json.dumps([{NUMPY_LOADED}, ran]))
"""
    proc = run_fresh("-c", code)
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [[], []]


@pytest.mark.parametrize(
    "argv, status",
    [(["--help"], 0), (["simulate", "--help"], 0), (["simulate"], 2), (["purity", "--state", "bogus"], 2)],
    ids=["help", "simulate-help", "usage-error", "bad-state"],
)
def test_help_and_refused_arguments_load_no_numpy(argv, status):
    code = f"""
import contextlib, gc, io, json, sys
import renyi2.__main__ as entry
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        status = entry.main({argv!r})
    except SystemExit as exc:
        status = exc.code
print(json.dumps([status, {NUMPY_LOADED}, gc.isenabled(), gc.get_freeze_count() > 0]))
"""
    proc = run_fresh("-c", code)
    assert proc.stderr == ""
    # the entry leaves the collector on, with every object it found frozen, however the run ends
    assert json.loads(proc.stdout) == [status, [], True, True]


@pytest.mark.parametrize(
    "argv, ran",
    [
        (["purity", "--state", "singlet"], ["qstate", "two_copy"]),
        (["werner-scan", "--steps", "5"], ["chsh", "qstate", "two_copy"]),
        (["phase-scan"], ["fock", "qstate"]),
        (["simulate", "--config", "{config}", "--out", "{out}"], ["experiment", "fock", "qstate", "two_copy"]),
    ],
    ids=["purity", "werner-scan", "phase-scan", "simulate"],
)
def test_a_command_runs_only_the_layers_it_calls(tmp_path, argv, ran):
    config = write_config(tmp_path / "run.json", shots_per_phase=1000)
    argv = [a.format(config=config, out=tmp_path / "out") for a in argv]
    code = f"""
import contextlib, io, json, sys
import renyi2.__main__ as entry
with contextlib.redirect_stdout(io.StringIO()):
    status = entry.main({argv!r})
layers = {{layer: sys.modules.get(f"renyi2.{{layer}}") for layer in {LAZY_LAYERS!r}}}
ran = sorted(layer for layer, m in layers.items()
             if m is not None and {LAZY_LAYERS!r}[layer] in object.__getattribute__(m, "__dict__"))
modules = sorted(m for m in sys.modules if m.startswith("renyi2."))
print(json.dumps([status, ran, modules, "dataclasses" in sys.modules]))
"""
    proc = run_fresh("-c", code)
    assert proc.stderr == ""
    # the records are plain classes: no command loads dataclasses
    assert json.loads(proc.stdout) == [0, ran, sorted(LAYERS + ["renyi2.__main__", "renyi2.cli"]), False]


def test_a_layer_imported_before_or_after_the_cli_is_one_module_object():
    code = """
import json, sys
import renyi2.experiment as before
import renyi2.cli
import renyi2
# bound on the package by renyi2.cli, as an import binds a submodule
resolved = renyi2.chsh.max_chsh_values.__module__
import renyi2.chsh as after
from renyi2.fock import outcome_curves
same = [before is sys.modules["renyi2.experiment"] is renyi2.cli.experiment is renyi2.experiment,
        after is sys.modules["renyi2.chsh"] is renyi2.cli.chsh is renyi2.chsh,
        outcome_curves is renyi2.cli.fock.outcome_curves is renyi2.fock.outcome_curves,
        renyi2.cli.experiment.RunConfig is renyi2.RunConfig]
print(json.dumps([resolved, same, [type(m).__name__ for m in (before, after, renyi2.fock)]]))
"""
    proc = run_fresh("-c", code)
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == ["renyi2.chsh", [True] * 4, ["module"] * 3]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="/dev/full is absent, so no write can fail")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["purity", "--state", "singlet"],
        ["werner-scan", "--steps", "1001"],
        ["simulate", "--config", "{config}", "--out", "{out}"],
        ["--help"],
    ],
    ids=["purity", "werner-scan", "simulate", "help"],
)
def test_a_stdout_that_cannot_be_written_is_one_error_line(tmp_path, argv, buffered):
    # buffered, purity and --help said "Exception ignored ... OSError: [Errno 28]" at interpreter
    # exit and exited 120; unbuffered, --help exited 0 with its text lost
    config = write_config(tmp_path / "run.json", shots_per_phase=1000)
    argv = [a.format(config=config, out=tmp_path / "out") for a in argv]
    with open("/dev/full", "w") as full:
        proc = run_fresh("-m", "renyi2", *argv, env={"PYTHONUNBUFFERED": None if buffered else "1"}, stdout=full)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "No space left on device" in proc.stderr


def test_every_export_resolves_to_its_home_module_object():
    code = f"""
import importlib, json, sys
import renyi2
layers = [importlib.import_module(name) for name in {LAYERS!r}]
wrong = []
for name in renyi2.__all__:
    namespace = {{}}
    exec(f"from renyi2 import {{name}}", namespace)
    obj = namespace[name]
    if name == "__version__":
        continue
    home = getattr(obj, "__module__", None)
    # a constant has no __module__: its home is the one layer that binds it
    homes = [home] if home in sys.modules else [m.__name__ for m in layers if name in vars(m)]
    # and _EXPORTS lists each name under its home
    listed = f"renyi2.{{renyi2._LAYER[name]}}"
    if homes != [listed] or getattr(sys.modules[listed], name) is not obj:
        wrong.append(name)
print(json.dumps([wrong, sorted(set(renyi2.__all__) - set(dir(renyi2))), len(renyi2.__all__)]))
"""
    wrong, undisclosed, n = json.loads(run_fresh("-c", code).stdout)
    assert wrong == [] and undisclosed == [] and n == 32  # 31 names and __version__


# runs purity and simulate (which loads numpy.random) through the console-script
# entry, then reports the BLAS thread setting, where /proc lists them this
# process's threads, the collector's state and whether OpenSSL's _hashlib is blocked
ENTRY_PROBE = """
import gc, json, os, sys, tempfile
import renyi2.__main__ as entry
assert "numpy" not in sys.modules
with tempfile.TemporaryDirectory() as tmp:
    config = os.path.join(tmp, "run.json")
    with open(config, "w") as fh:
        json.dump({"phi_grid": [0, 0.8, 1.6, 2.4], "shots_per_phase": 1000}, fh)
    codes = [entry.main(["purity", "--state", "singlet", "--format", "json"]),
             entry.main(["simulate", "--config", config, "--out", os.path.join(tmp, "out")])]
tasks = "/proc/self/task"
threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
import hashlib
print(json.dumps({
    "codes": codes, "blas": os.environ.get("OPENBLAS_NUM_THREADS"), "threads": threads,
    "numpy_random": "numpy.random" in sys.modules, "gc_enabled": gc.isenabled(),
    "frozen": gc.get_freeze_count() > 0, "hashlib_blocked": sys.modules.get("_hashlib", 0) is None,
    "sha256": hashlib.sha256(b"renyi2").hexdigest(),
}))
"""
RENYI2_SHA256 = "c8ea6cc8d3d1503d12241be46537b7a5a0d5339e198f4024eff290ca7e8ebec7"


def entry_probe(**env) -> dict:
    proc = run_fresh("-c", ENTRY_PROBE, env=env)
    assert proc.stderr == ""
    return json.loads(proc.stdout.splitlines()[-1])


def test_entry_starts_one_blas_thread_by_default():
    probe = entry_probe(OPENBLAS_NUM_THREADS=None)
    assert probe["codes"] == [0, 0] and probe["blas"] == "1"
    if probe["threads"] is None:
        pytest.skip("/proc/self/task is absent, so the thread count is not checked")
    assert probe["threads"] == 1


def test_entry_keeps_the_users_blas_setting():
    probe = entry_probe(OPENBLAS_NUM_THREADS="2")
    assert probe["codes"] == [0, 0] and probe["blas"] == "2"


def test_entry_freezes_the_collector_and_runs_numpy_random_without_openssl():
    probe = entry_probe()
    assert probe["codes"] == [0, 0] and probe["numpy_random"]
    # the collector runs again after the import, and the shutdown passes find the import graph frozen
    assert probe["gc_enabled"] and probe["frozen"]
    # hashlib still hashes, through CPython's built-in sha256
    assert probe["hashlib_blocked"] and probe["sha256"] == RENYI2_SHA256


def test_cli_import_leaves_the_environment_alone(tmp_path):
    config = write_config(tmp_path / "run.json", shots_per_phase=1000)
    code = f"""
import contextlib, gc, io, json, os, sys
before = dict(os.environ)
import renyi2.cli
with contextlib.redirect_stdout(io.StringIO()):
    status = renyi2.cli.main(["simulate", "--config", {str(config)!r}, "--out", {str(tmp_path / "out")!r}])
print(json.dumps([status, dict(os.environ) == before, "numpy.random" in sys.modules, gc.isenabled(),
                  gc.get_freeze_count(), sys.modules.get("_hashlib", 0) is None]))
"""
    proc = run_fresh("-c", code, env={"OPENBLAS_NUM_THREADS": None})
    assert json.loads(proc.stdout) == [0, True, True, True, 0, False]


# the public names of the Fock network oracle, tests/fock_network.py
NETWORK_NAMES = (
    "CoincidenceRecord", "FockState", "ModeIndex", "OutcomeClass", "Polarization", "apply_creation",
    "beam_splitter", "classify_outcome", "coincidence_probabilities", "conditional_state_after_anticoalescence",
    "hamiltonian_expansion", "hamiltonian_four_photon_term", "spdc_four_photon_state", "vacuum",
)


def test_unknown_package_attribute_raises_attribute_error():
    import renyi2

    with pytest.raises(AttributeError, match="no_such_name"):
        renyi2.no_such_name
    # the test oracles left the package surface, the Fock network with its module
    assert not hasattr(renyi2, "projectors") and not hasattr(renyi2, "ProjectorPair")
    assert importlib.util.find_spec("renyi2._fock_network") is None
    assert not [name for name in NETWORK_NAMES if hasattr(renyi2, name)]


@pytest.mark.parametrize("subcommand", ["simulate", "purity"])
def test_deeply_nested_json_gives_one_error_line(tmp_path, subcommand):
    # json.load raised RecursionError, which escaped main as a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    argv = {
        "simulate": ["simulate", "--config", str(path), "--out", str(tmp_path / "out")],
        "purity": ["purity", "--state", f"file:{path}"],
    }[subcommand]
    proc = run_fresh("-m", "renyi2", *argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: malformed ") and proc.stderr.count("\n") == 1


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "renyi2", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for name in ("purity", "werner-scan", "phase-scan", "simulate"):
        assert name in proc.stdout
