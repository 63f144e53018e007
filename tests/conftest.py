import re

from hypothesis import settings

# one profile for every property test: no per-example deadline (a CLI run or a
# batched eigensolve can be slow on a shared machine), and a failing property
# prints the @reproduce_failure blob that replays it
settings.register_profile("renyi2", deadline=None, print_blob=True)
settings.load_profile("renyi2")

_CRITERIA = {
    1: "singlet collision quadruple (3/4, 0, 0, 1/4)",
    2: "purity reconstruction closure on 1000 random states",
    3: "Werner thresholds 1/3, 1/sqrt(3), 1/sqrt(2) by bisection",
    4: "entropic violation with max CHSH <= 2 for p in {0.60, 0.65, 0.70}",
    5: "ideal curves match closed forms with phase marking",
    6: "Hamiltonian 4-photon sector matches the source state",
    7: "swapping: conditioned far side is a perfect singlet",
    8: "pipeline lands in reference error bars at >= 5 sigma; flat control",
    9: "simulate outputs byte-identical across reruns",
}

_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_outcomes: dict[int, str] = {}


def pytest_runtest_logreport(report):
    m = _PATTERN.search(report.nodeid)
    if not m:
        return
    n = int(m.group(1))
    if report.when == "call":
        _outcomes[n] = "PASS" if report.passed else "FAIL"
    elif report.failed:  # setup/teardown error
        _outcomes[n] = "FAIL"
    elif report.skipped:
        _outcomes.setdefault(n, "SKIP")


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_CRITERIA):
        status = _outcomes.get(n, "NOT RUN")
        terminalreporter.write_line(f"criterion {n} [{status}] {_CRITERIA[n]}")
