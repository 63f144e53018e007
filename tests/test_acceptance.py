"""End-to-end acceptance gate, one test per numbered criterion.

Each test carries its own wall-clock budget; the terminal summary prints a
PASS/FAIL line per criterion (see conftest.py).
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from renyi2.chsh import max_chsh
from renyi2.experiment import RunConfig, witness_from_run
from fock_network import (
    DEFAULT_CAP,
    FockState,
    conditional_state_after_anticoalescence,
    hamiltonian_four_photon_term,
    spdc_four_photon_state,
    _kdag,
    _ldag,
    _VACUUM_KEY,
)
from renyi2.fock import coincidence_curves
from renyi2.qstate import SINGLET_VEC, partial_trace, purity, ppt_min_eigenvalue, random_density, singlet, werner
from renyi2.two_copy import collision_probabilities, entropic_witness, purities_from_probabilities

from oracles import projector_collision_probabilities

PI = np.pi


@contextmanager
def budget(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"exceeded the {seconds}s budget: {elapsed:.2f}s"


def bisect_root(f, lo, hi, tol=1e-8):
    f_lo = f(lo)
    assert f_lo * f(hi) < 0, "bisection bracket does not straddle a sign change"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f_lo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            f_lo = f(lo)
    return 0.5 * (lo + hi)


def test_criterion_1_singlet_collision_quadruple():
    with budget(1.0):
        p = collision_probabilities(singlet())
        assert abs(p.p_cc - 0.75) < 1e-12
        assert abs(p.p_ca) < 1e-12
        assert abs(p.p_ac) < 1e-12
        assert abs(p.p_aa - 0.25) < 1e-12


def test_criterion_2_purity_closure_on_random_states():
    with budget(10.0):
        rng = np.random.default_rng(20260815)
        for i in range(1000):
            rho = random_density(2, 2, rng, components=1 + i % 4)
            p = collision_probabilities(rho)
            # the explicit two-copy trace, so the closure is not a tautology
            oracle = projector_collision_probabilities(rho)
            assert max(abs(c - o) for c, o in zip(p.as_tuple(), oracle)) < 1e-12
            rec = purities_from_probabilities(p)
            direct = (
                purity(rho),
                purity(partial_trace(rho, "A")),
                purity(partial_trace(rho, "B")),
            )
            assert max(abs(r - d) for r, d in zip(rec, direct)) < 1e-10


def test_criterion_3_threshold_triple():
    with budget(5.0):
        p_ppt = bisect_root(lambda p: ppt_min_eigenvalue(werner(p)), 0.2, 0.5)
        assert abs(p_ppt - 1.0 / 3.0) < 1e-6

        def margin(p):
            return entropic_witness(collision_probabilities(werner(p))).margin_a

        p_witness = bisect_root(margin, 0.4, 0.7)
        assert abs(p_witness - 1.0 / np.sqrt(3.0)) < 1e-6

        p_chsh = bisect_root(lambda p: max_chsh(werner(p)) - 2.0, 0.6, 0.8)
        assert abs(p_chsh - 1.0 / np.sqrt(2.0)) < 1e-6


def test_criterion_4_witness_chsh_hierarchy_window():
    with budget(1.0):
        for p in (0.60, 0.65, 0.70):
            rho = werner(p)
            verdict = entropic_witness(collision_probabilities(rho))
            assert verdict.entangled, p
            assert max_chsh(rho) <= 2.0 + 1e-9, p


def test_criterion_5_interference_curve_oracle():
    with budget(5.0):
        grid = np.linspace(0.0, PI, 181)
        for phi, cc, ca, ac, aa in coincidence_curves(grid):
            c2 = np.cos(2.0 * phi)
            assert abs(ac - 0.15 * (1.0 - c2)) < 1e-10
            assert abs(ca - 0.15 * (1.0 - c2)) < 1e-10
            assert abs(aa - (0.25 + 0.15 * c2)) < 1e-10
        # phase marking: the spurious double-pair terms cancel exactly here
        ((_, _, ca0, ac0, _),) = coincidence_curves([0.0])
        assert abs(ac0) < 1e-12 and abs(ca0) < 1e-12
        ((_, _, _, _, aa90),) = coincidence_curves([PI / 2])
        assert abs(aa90 - 0.1) < 1e-10


def test_criterion_6_hamiltonian_sector_consistency():
    with budget(5.0):
        for phi in (0.0, PI / 4, PI / 2):
            source = spdc_four_photon_state(phi)
            for order in (2, 3):
                sector = hamiltonian_four_photon_term(phi, order)
                assert abs(abs(sector.inner(source)) - 1.0) < 1e-10, (phi, order)


def test_criterion_7_entanglement_swapping_fidelity():
    with budget(1.0):
        raw = _ldag(_kdag({_VACUUM_KEY: 1.0 + 0j}, DEFAULT_CAP), DEFAULT_CAP)
        two_singlets = FockState({k: v / 2.0 for k, v in raw.items()})
        rho_b = conditional_state_after_anticoalescence(two_singlets, "A")
        fidelity = float((SINGLET_VEC @ rho_b.matrix @ SINGLET_VEC).real)
        assert abs(fidelity - 1.0) < 1e-10


def test_criterion_8_pipeline_reproduces_reference_minima():
    with budget(120.0):
        grid = tuple(np.linspace(0.0, PI, 25))
        report = witness_from_run(
            RunConfig(
                phi_grid=grid,
                shots_per_phase=100_000,
                visibility=0.965,
                background_rate=0.0,
                seed=20260817,
                detector_model="number_resolving",
            )
        )
        w = report["witness"]
        # reference bars 0.0255 +- 0.008 and 0.2585 +- 0.008
        assert 0.0255 - 0.008 <= w["p_min_ac"]["value"] <= 0.0255 + 0.008
        assert 0.2585 - 0.008 <= w["p_min_aa"]["value"] <= 0.2585 + 0.008
        assert w["significance"] >= 5.0
        assert w["verdict"] == "violated" and w["violated_a"] and w["violated_b"]

        control = witness_from_run(
            RunConfig(phi_grid=grid, shots_per_phase=100_000, visibility=0.0, seed=20260817)
        )
        assert control["witness"]["verdict"] == "not violated"
        assert not control["witness"]["violated_a"]
        assert not control["witness"]["violated_b"]


def test_criterion_9_simulate_determinism(tmp_path):
    with budget(60.0):
        config = {
            "phi_grid": list(np.linspace(0.0, PI, 25)),
            "shots_per_phase": 20_000,
            "visibility": 0.965,
            "background_rate": 0.001,
            "seed": 424242,
            "detector_model": "bucket_with_pbs",
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        outs = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "renyi2", "simulate",
                 "--config", str(cfg_path), "--out", str(out_dir)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out_dir)
        first, second = outs
        assert (first / "counts.csv").read_bytes() == (second / "counts.csv").read_bytes()
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
