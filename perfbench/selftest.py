"""Self-test of the benchmark's tracer and output checks.

Run from the repository root; exits nonzero when a check fails:

    python3 perfbench/selftest.py

1. Each layer records spans on the workload designed to exercise it, and
   `fock` records none on the workloads that should not reach it. This also
   proves the wrappers sit where callers resolve each name.
2. On every traced job, the self times sum to no more than the job time.
3. A deliberately corrupted output fails its check, for every output file of
   every workload, and a run whose outputs are all corrupted counts every job
   as failed.
"""

from __future__ import annotations

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORK_ROOT, InProcess, run_check, run_untraced  # noqa: E402
from tracer import ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

EXERCISED = {
    "sim-dense": {"fock", "experiment", "cli"},
    "sim-small": {"fock", "experiment", "cli"},
    "state-scan": {"qstate", "two_copy", "chsh", "cli"},
    "purity-highdim": {"qstate", "two_copy", "cli"},
}
NO_FOCK = ("state-scan", "purity-highdim")


def corrupt_first_digit(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    i = next(k for k, c in enumerate(text) if c.isdigit())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])


def check_job(name: str, job, runner, expect) -> None:
    tracer = Tracer()
    tracer.install(0)
    try:
        wall, err, _ = runner.call(job)
    finally:
        tracer.uninstall()
    expect(err is None, f"{name}: traced job passes its output check ({err})")

    layers = {span[0].split(".")[0] for span in tracer.spans}
    expect(EXERCISED[name] <= layers,
           f"{name}: spans from {sorted(EXERCISED[name])} (got {sorted(layers)})")
    if name in NO_FOCK:
        expect("fock" not in layers, f"{name}: no fock spans")

    job_s = sum(end - start for n, start, end, _, _ in tracer.spans if n == ROOT_SPAN)
    self_sum = sum(tracer.self_times())
    expect(0 < job_s <= wall and self_sum <= job_s * (1 + 1e-9),
           f"{name}: self times {self_sum:.6f} s <= job time {job_s:.6f} s")

    for path in job.outputs:
        with open(path, "rb") as fh:
            good = fh.read()
        corrupt_first_digit(path)
        err = run_check(job)
        expect(err is not None, f"{name}: corrupted {os.path.basename(path)} fails ({err})")
        with open(path, "wb") as fh:
            fh.write(good)


def main() -> int:
    problems = []

    def expect(ok: bool, msg: str) -> None:
        print(("ok   " if ok else "FAIL ") + msg, flush=True)
        if not ok:
            problems.append(msg)

    runner = InProcess()
    work = os.path.join(WORK_ROOT, f"selftest-{os.getpid()}")
    try:
        for name in WORKLOADS:
            wl = Workload(name, 1, os.path.join(work, name))
            for job in (wl.job(0), wl.job(1)):  # both detector models / output formats
                check_job(name, job, runner, expect)

        wl = Workload("sim-small", 2, os.path.join(work, "corrupt-run"))
        make_job = wl.job

        def corrupted_job(j):
            job = make_job(j)
            check = job.check

            def corrupt_then_check():
                corrupt_first_digit(job.outputs[0])
                return check()

            job.check = corrupt_then_check
            return job

        wl.job = corrupted_job
        res = run_untraced(wl, 0.0, lambda msg: None)
        expect(res["failed"] == res["attempted"] and not res["correct"],
               f"corrupted run counts every job as failed ({res['failed']}/{res['attempted']})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
