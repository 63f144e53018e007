"""renyi2 benchmark: CLI jobs timed end to end, or traced layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload sim-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

--trace 0 runs the workload as a closed loop from this process: one client,
one `python -m renyi2 ...` job in flight at a time, against the `src/` tree of
the checkout it sits in. It reports the end-to-end metrics. --trace 1 calls
`renyi2.cli.main(argv)` in-process with the same argv, alternating an
untraced and a traced call of each job, and reports the per-layer metrics
and the tracing overhead. Every job's output is checked; the last line of
standard output is one JSON object with the result. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_REPS = 9
# the tail is the job with ten slower ones beyond it, so every run needs eleven
MIN_JOBS = 11
MIN_TRACED_JOBS = 2
CHECK_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError)


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_check(job) -> str | None:
    try:
        return job.check()
    except CHECK_ERRORS as exc:
        return f"output unreadable: {exc!r}"


def remove_outputs(job) -> None:
    for path in job.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def time_import(env: dict) -> float:
    """Wall time of a fresh interpreter that only imports renyi2.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import renyi2.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def run_cli_job(job, env: dict, log_dir: str) -> tuple[float, int, float]:
    """One CLI process: (wall seconds, exit code, max RSS in MB)."""
    remove_outputs(job)
    with open(os.path.join(log_dir, "stdout"), "wb") as out, open(os.path.join(log_dir, "stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "renyi2", *job.argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def tail(times: list[float]) -> tuple[float, float]:
    """The job time with exactly ten slower jobs beyond it, and its percentile."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_untraced(wl: Workload, seconds: float, log) -> dict:
    env = job_env()
    time_import(env)  # compiles bytecode once, as an installed package has it
    setup_times, times, items, rss = [], [], 0, 0.0
    failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    j = 0
    while time.perf_counter() < deadline or j < MIN_JOBS:
        # spread the set-up samples over the run, so they see the same
        # slow and fast stretches of a shared machine as the jobs do
        due = start + seconds * len(setup_times) / SETUP_REPS
        if len(setup_times) < SETUP_REPS and time.perf_counter() >= due:
            setup_times.append(time_import(env))
        job = wl.job(j)
        wall, rc, peak = run_cli_job(job, env, wl.work_dir)
        err = f"exit code {rc}" if rc != 0 else run_check(job)
        if err:
            failed += 1
            log(f"job {j} failed: {err}")
        times.append(wall)
        items += job.items
        rss = max(rss, peak)
        j += 1
    while len(setup_times) < SETUP_REPS:
        setup_times.append(time_import(env))
    tail_s, tail_pct = tail(times)
    log(f"{len(times)} jobs; job_s_tail is p{tail_pct:.1f} with 10 jobs beyond it")
    # printed but not gated: on a shared machine the median of short jobs flips
    # between the machine's fast and slow states from run to run (README.md)
    log(f"{'job_s_p50':<48} {statistics.median(times)!r} s")
    log(f"{'failed_ratio':<48} {failed / len(times)!r} 1")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_s_tail": (tail_s, "s"),
        "items_per_s": (items / sum(times), "items/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return result(len(times), failed, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


class InProcess:
    """Calls renyi2.cli.main(argv) in this process, as a CLI job would run it."""

    def __init__(self):
        sys.path.insert(0, SRC)
        import renyi2.cli

        self.cli = renyi2.cli
        self.caches = {id(obj): obj for name, mod in list(sys.modules.items())
                       if name.startswith("renyi2") and mod is not None
                       for obj in vars(mod).values() if hasattr(obj, "cache_clear")}

    def call(self, job) -> tuple[float, str | None, int]:
        """(wall seconds, failed check or None, bytes written to stdout)."""
        remove_outputs(job)
        for fn in self.caches.values():  # every CLI job starts in a fresh process
            fn.cache_clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(job.argv)
            except SystemExit as exc:
                rc = exc.code
            wall = time.perf_counter() - t0
        err = f"exit code {rc}" if rc != 0 else run_check(job)
        return wall, err, len(out.getvalue().encode())


def run_traced(wl: Workload, seconds: float, log) -> dict:
    from tracer import Tracer, layer_metrics

    runner = InProcess()
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    jobs_traced = 0
    deadline = time.perf_counter() + seconds
    # warm-up: first-call costs of this process are not traced job time
    _, warm_err, _ = runner.call(wl.job(0))
    attempted, failed = 1, int(warm_err is not None)
    j = 0
    while time.perf_counter() < deadline or jobs_traced < MIN_TRACED_JOBS:
        job = wl.job(j)
        wall, err, _ = runner.call(job)
        untraced_s += wall
        tracer.install(j)
        try:
            twall, terr, stdout_bytes = runner.call(job)
        finally:
            tracer.uninstall()
        traced_s += twall
        tracer.counters["cli.bytes_written"] += stdout_bytes + sum(os.path.getsize(p) for p in job.outputs
                                                                   if os.path.exists(p))
        for e in (err, terr):
            attempted += 1
            if e:
                failed += 1
                log(f"job {j} failed: {e}")
        jobs_traced += 1
        j += 1
    os.makedirs(OUT_ROOT, exist_ok=True)
    spans_path = os.path.join(OUT_ROOT, f"spans-{wl.name}.jsonl")
    tracer.write(spans_path)
    log(f"{jobs_traced} jobs traced, {len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    metrics = layer_metrics(tracer, jobs_traced)
    metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s, "unit": "1"}
    return result(attempted, failed, metrics)


def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    def log(msg: str) -> None:
        print(f"[{name}] {msg}", flush=True)

    work_dir = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    try:
        wl = Workload(name, seed, work_dir)
        res = (run_traced if trace else run_untraced)(wl, seconds, log)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    for metric, m in res["metrics"].items():
        log(f"{metric:<48} {m['value']:.6g} {m['unit']}")
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "renyi2", "cli.py")):
        print(f"error: no renyi2 source tree at {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if args.workload == "all":
        final = result(
            sum(r["attempted"] for r in results.values()),
            sum(r["failed"] for r in results.values()),
            {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        )
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
