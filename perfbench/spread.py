"""Repeat the benchmark over seeds and report each metric's median and spread.

Run from the repository root:

    python3 perfbench/spread.py --out perfbench/BASELINE.json

Two sets each run `run.py` once per seed (1..10) and per workload,
untraced, with `run_seconds` from BENCHMARK.json, each run in its own
process, as an outside harness would. The sets take turns seed by seed.
Spread is (Q3 - Q1) / median of the per-run values, with the quartiles from
`statistics.quantiles(values, n=4)`. For every gated metric the second set's
median is compared with the first set's, both ways, against the bound in
BENCHMARK.json. Two traced runs per workload follow the sets. The output also
records the machine and software the numbers came from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETS = 2
SEEDS = list(range(1, 11))
TRACED_SEEDS = SEEDS[:2]
# figures run.py prints but does not put in its result line
PRINTED_ONLY = re.compile(r"^\[[^\]]+\] (job_s_p50|failed_ratio)\s+(\S+) (\S+)$")


def provenance() -> dict:
    probe = ("import json, numpy, renyi2; "
             "print(json.dumps([numpy.__version__, renyi2.KERNEL_BACKEND]))")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    numpy_version, backend = json.loads(subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=ROOT, check=True,
        capture_output=True, text=True).stdout)
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_revision": rev.stdout.strip() if rev.returncode == 0 else "unknown",
        "kernel_backend": backend,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["printed"] = {}
    for line in lines[:-1]:
        m = PRINTED_ONLY.match(line)
        if m:
            res["printed"][m.group(1)] = {"value": float(m.group(2)), "unit": m.group(3)}
    return res


def summarize(runs: list[dict], key: str) -> dict:
    out = {}
    for name, first in runs[0][key].items():
        values = [r[key][name]["value"] for r in runs]
        med = statistics.median(values)
        entry = {"unit": first["unit"], "median": med, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["spread"] = (q3 - q1) / med if med else None
        out[name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join("perfbench", "BASELINE.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    report = {"provenance": provenance(), "seconds": seconds, "workloads": {}}
    for w in WORKLOADS:
        report["workloads"][w] = {"seeds": SEEDS, "sets": []}
    for w in WORKLOADS:
        # the sets take turns seed by seed, so both see the same stretches of
        # a machine whose speed drifts over minutes (README.md)
        runs = [[] for _ in range(SETS)]
        for s in SEEDS:
            for set_runs in runs:
                set_runs.append(run_once(w, s, seconds, 0))
        for set_runs in runs:
            entry = {
                "attempted": sum(r["attempted"] for r in set_runs),
                "failed": sum(r["failed"] for r in set_runs),
                "end_to_end": summarize(set_runs, "metrics"),
                "printed_only": summarize(set_runs, "printed"),
            }
            for name, m in {**entry["end_to_end"], **entry["printed_only"]}.items():
                print(f"{w:<15} {name:<14} median {m['median']:.6g} {m['unit']:<8} "
                      f"spread {m.get('spread') or 0.0:.3f}", flush=True)
            report["workloads"][w]["sets"].append(entry)
    for w in WORKLOADS:
        sets = report["workloads"][w]["sets"]
        verdicts = {}
        for name, spec in bounds.items():
            first, last = sets[0]["end_to_end"][name]["median"], sets[-1]["end_to_end"][name]["median"]
            change = (last - first) / first if spec["better"] == "lower" else (first - last) / first
            verdicts[name] = {"worse_by": change, "bound": spec["bound"], "ok": abs(change) <= spec["bound"]}
            print(f"{w:<15} {name:<14} second set worse by {change:+.3f} (bound {spec['bound']})", flush=True)
        report["workloads"][w]["second_vs_first_set"] = verdicts
        traced = [run_once(w, s, seconds, 1) for s in TRACED_SEEDS]
        report["workloads"][w]["per_layer"] = summarize(traced, "metrics")
    with open(os.path.join(ROOT, args.out), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
