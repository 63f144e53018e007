"""The four benchmark workloads: job generation from a seed, and output checks.

A job is one `python -m renyi2 ...` invocation. Every job carries the argv
the CLI receives, the number of items it processes (phases for `sim-*`,
states otherwise), the paths it writes, and a check that reads those outputs
back and returns None when they are right or a one-line reason when not.

The `sim-*` workloads draw their configs out of pools captured with golden
outputs (`golden/*.json`, written by `capture_golden.py`), so that counts and
report floats can be compared against the values this code produced when the
benchmark was defined, for any workload seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

WORKLOADS = ("sim-dense", "sim-small", "state-scan", "purity-highdim")

# configs whose fixed fields the golden pools were captured with
DENSE_PHASES = 1000
SMALL_SHOTS = 100_000
DETECTOR_MODELS = ("number_resolving", "bucket_with_pbs")
HIGHDIM_DIMS = ((6, 6), (5, 7), (4, 9))
HIGHDIM_STATES_PER_DIMS = 4

FLOAT_TOL = 1e-12


@dataclass
class Job:
    argv: list[str]
    items: int
    outputs: list[str]  # files the job writes, read back by the check
    check: Callable[[], str | None]


def sim_config(entry: dict) -> dict:
    """The simulate config of one golden-pool entry (the grid is rebuilt)."""
    cfg = {k: entry[k] for k in ("shots_per_phase", "visibility", "background_rate", "seed", "detector_model")}
    cfg["phi_grid"] = np.linspace(0.0, np.pi, entry["n_phases"]).tolist()
    return cfg


def load_pool(workload: str) -> list[dict]:
    with open(os.path.join(GOLDEN_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


def compare_json(got, want, path: str = "") -> str | None:
    """Structural comparison; floats to FLOAT_TOL (relative above 1), the rest exact."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path or 'root'}: keys differ"
        for k in sorted(want):
            err = compare_json(got[k], want[k], f"{path}.{k}")
            if err:
                return err
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            err = compare_json(g, w, f"{path}[{i}]")
            if err:
                return err
        return None
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return None if _close(float(got), want) else f"{path}: {got!r} != {want!r}"
    return None if (type(got) is type(want) and got == want) else f"{path}: {got!r} != {want!r}"


def check_simulate(out_dir: str, entry: dict) -> str | None:
    counts_path = os.path.join(out_dir, "counts.csv")
    if sha256_file(counts_path) != entry["counts_sha256"]:
        return "counts.csv digest differs from golden"
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    if set(report) != {"config", "counts", "fits", "witness"}:
        return f"report keys {sorted(report)}"
    err = compare_json(report["config"], sim_config(entry), "config")
    if err:
        return err
    # the report's count table must be the one in counts.csv, already pinned by digest
    with open(counts_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    table = [dict(zip(header, line.split(","))) for line in lines[1:]]
    want_counts = [
        {k: (float(row[k]) if k == "phi" else int(row[k])) for k in header} for row in table
    ]
    return (
        compare_json(report["counts"], want_counts, "counts")
        or compare_json(report["fits"], entry["fits"], "fits")
        or compare_json(report["witness"], entry["witness"], "witness")
    )


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


class Workload:
    """Deterministic job sequence of one workload; job(j) is cheap after set-up."""

    def __init__(self, name: str, seed: int, work_dir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        if name.startswith("sim-"):
            self._setup_sim(rng)
        elif name == "purity-highdim":
            self._setup_highdim(rng)

    def _setup_sim(self, rng) -> None:
        pool = load_pool(self.name)
        # one shuffled cycle per detector model, taken alternately
        self.cycles = [
            [pool[i] for i in rng.permutation([i for i, e in enumerate(pool) if e["detector_model"] == m])]
            for m in DETECTOR_MODELS
        ]
        self.config_paths = {}
        for k, entry in enumerate(pool):
            path = os.path.join(self.work_dir, f"config-{k}.json")
            _write_json(path, sim_config(entry))
            self.config_paths[id(entry)] = path

    def _setup_highdim(self, rng) -> None:
        self.states = []
        for k in range(HIGHDIM_STATES_PER_DIMS * len(HIGHDIM_DIMS)):
            da, db = HIGHDIM_DIMS[k % len(HIGHDIM_DIMS)]
            d = da * db
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = g @ g.conj().T
            rho = (rho + rho.conj().T) / 2.0
            rho /= np.trace(rho).real
            entries = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
            path = os.path.join(self.work_dir, f"state-{k}.json")
            _write_json(path, {"dim_a": da, "dim_b": db, "matrix": entries})
            # expected values from the matrix exactly as the file spells it
            m = np.array([[complex(re, im) for re, im in row] for row in entries])
            r = m.reshape(da, db, da, db)
            rho_a = np.einsum("abcb->ac", r)
            rho_b = np.einsum("abad->bd", r)
            purities = tuple(float(np.trace(x @ x).real) for x in (m, rho_a, rho_b))
            self.states.append((path, purities))

    def job(self, j: int) -> Job:
        out = os.path.join(self.work_dir, f"out-{j % 4}")
        if self.name.startswith("sim-"):
            cycle = self.cycles[j % 2]
            entry = cycle[(j // 2) % len(cycle)]
            argv = ["simulate", "--config", self.config_paths[id(entry)], "--out", out]
            outputs = [os.path.join(out, "counts.csv"), os.path.join(out, "report.json")]
            return Job(argv, entry["n_phases"], outputs, lambda: check_simulate(out, entry))
        if self.name == "state-scan":
            rng = np.random.default_rng([self.seed, 2, j])
            pmin = float(rng.uniform(0.0, 0.2))
            pmax = float(rng.uniform(0.8, 1.0))
            steps = int(rng.integers(991, 1012))
            fmt = ("csv", "json")[j % 2]
            path = f"{out}.{fmt}"
            argv = ["werner-scan", "--pmin", repr(pmin), "--pmax", repr(pmax),
                    "--steps", str(steps), "--format", fmt, "--out", path]
            return Job(argv, steps, [path], lambda: check_werner_scan(path, fmt, pmin, pmax, steps))
        state_path, purities = self.states[j % len(self.states)]
        path = f"{out}.json"
        argv = ["purity", "--state", f"file:{state_path}", "--format", "json", "--out", path]
        return Job(argv, 1, [path], lambda: check_purity(path, purities))


def check_werner_scan(path: str, fmt: str, pmin: float, pmax: float, steps: int) -> str | None:
    """Rows against the Werner closed forms, computed independently of renyi2."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        rows = json.loads(text)
    else:
        lines = text.splitlines()
        if lines[0] != "p,ppt_min_eig,entropic_margin,max_chsh":
            return f"csv header {lines[0]!r}"
        keys = lines[0].split(",")
        rows = [dict(zip(keys, map(float, line.split(",")))) for line in lines[1:]]
    grid = np.linspace(pmin, pmax, steps)
    if len(rows) != steps:
        return f"{len(rows)} rows, expected {steps}"
    for row, p in zip(rows, grid.tolist()):
        want = {
            "p": float(p),
            "ppt_min_eig": (1.0 - 3.0 * p) / 4.0,
            "entropic_margin": (3.0 * p * p - 1.0) / 8.0,
            "max_chsh": 2.0 * math.sqrt(2.0) * p,
        }
        for k, v in want.items():
            if not _close(row[k], v):
                return f"p={p!r}: {k} = {row[k]!r}, closed form {v!r}"
    return None


def check_purity(path: str, purities: tuple[float, float, float]) -> str | None:
    """Purities and collision probabilities against the benchmark's own numpy values.

    The collision quadruple follows from the purities J, A, B in closed form:
    p_cc = (1+A+B+J)/4, p_ca = (1+A-B-J)/4, p_ac = (1-A+B-J)/4, p_aa = (1-A-B+J)/4.
    """
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    for key, want in zip(("joint", "side_a", "side_b"), purities):
        for how in ("direct", "reconstructed"):
            got = report["purities"][key][how]
            if not _close(got, want):
                return f"{key} {how} purity {got!r}, expected {want!r}"
    j, a, b = purities
    closed = {"p_cc": (1 + a + b + j) / 4, "p_ca": (1 + a - b - j) / 4,
              "p_ac": (1 - a + b - j) / 4, "p_aa": (1 - a - b + j) / 4}
    for key, want in closed.items():
        got = report["collisions"][key]
        if not _close(got, want):
            return f"collision {key} {got!r}, closed form {want!r}"
    return None
