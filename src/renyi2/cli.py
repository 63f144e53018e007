"""Command-line front end: purity reports, threshold scans, run simulation.

Output contracts kept stable for downstream tooling: CSV is UTF-8 with LF
endings and a fixed header row, numbers in full-precision scientific
notation; JSON is emitted in one canonical form (two-space indent, sorted
keys) so identical data is byte-identical on disk.
"""

import argparse
import dataclasses
import importlib.util
import json
import math
import os
import sys
from itertools import chain

import numpy as np

from .qstate import (
    MAX_GRID_POINTS,
    DensityOperator,
    _finite,
    _integer,
    _numbers,
    make_density,
    partial_trace,
    ppt_min_eigenvalues,
    purity,
    singlet,
    werner,
    werner_stack,
)
from .two_copy import (
    collision_probabilities,
    collision_quadruples,
    entropic_witness,
    purities_from_probabilities,
    witness_margins,
)


def _lazy(name: str):
    """renyi2.<name>, registered in sys.modules and bound on the package, whose body runs on its first
    attribute lookup (the importlib recipe, with importlib.util.LazyLoader); a layer already imported
    is returned as it is, so the process never holds two copies of it.

    Imports inside the commands would do the same with less machinery, but the benchmark's tracer
    reads every layer from sys.modules right after `import renyi2.cli`. ROADMAP item 2 replaces the
    tracer, and these lazy modules with imports inside the commands.
    """
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# the layers only some commands call: `purity` runs none of them, `werner-scan`
# runs chsh, `phase-scan` fock, and `simulate` experiment and fock
chsh = _lazy("chsh")
experiment = _lazy("experiment")
fock = _lazy("fock")


def _fmt(x: float) -> str:
    return np.format_float_scientific(float(x), unique=True)


def _canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _table(keys, rows, fmt: str) -> str:
    """Rows of Python floats and ints, one cell per key, as "csv" or "json".

    CSV is a header line, then floats through _fmt and ints through str.
    JSON is byte for byte _canonical_json of the rows as dicts, NaN and inf
    refused alike, but each row is written from one template of repr cells
    (json writes Python numbers as repr): json.dumps falls back to its
    pure-Python encoder whenever it indents.
    """
    if fmt == "csv":
        lines = [",".join(keys)]
        lines.extend(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    rows = list(rows)
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise ValueError("a table value is not finite, which JSON cannot represent")
    members = (
        json.dumps(keys[i]).replace("{", "{{").replace("}", "}}") + f": {{{i}!r}}"
        for i in sorted(range(len(keys)), key=keys.__getitem__)
    )
    template = "  {{\n    " + ",\n    ".join(members) + "\n  }}"
    body = ",\n".join(template.format(*row) for row in rows)
    return f"[\n{body}\n]\n" if body else "[]\n"


def _report_json(report: dict) -> str:
    """_canonical_json(report), with the count-row tuples written by _table as objects."""
    text = _canonical_json({**report, "counts": []})
    head, _, tail = text.partition('\n  "counts": [],\n')
    counts = _table(experiment._COUNT_FIELDS, report["counts"], "json").rstrip().replace("\n", "\n  ")
    return f'{head}\n  "counts": {counts},\n{tail}'


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load_state(spec: str) -> DensityOperator:
    if spec == "singlet":
        return singlet()
    if spec.startswith("werner:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"werner parameter is not a number in {spec!r}") from None
        return werner(p)
    if spec.startswith("file:"):
        return _load_matrix_file(spec.split(":", 1)[1])
    raise ValueError(f"unknown state family {spec!r} (expected singlet, werner:P or file:PATH)")


def _load_json(path: str, what: str) -> dict:
    """The JSON object held in the file at path; ValueError if it holds none."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    # json.load raises RecursionError on nesting deeper than the interpreter's stack
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed {what} file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"malformed {what} file {path}: it must hold a JSON object")
    return data


def _load_matrix_file(path: str) -> DensityOperator:
    data = _load_json(path, "matrix")
    try:
        dim_a, dim_b = data["dim_a"], data["dim_b"]
        # every entry is read (a number e as [e, 0], or an [re, im] pair) before make_density reads the dimensions
        pairs = [[e if isinstance(e, list) else [e, 0] for e in row] for row in data["matrix"]]
        table = _numbers("matrix entries", pairs, float)
        if table.ndim != 3 or table.shape[2] != 2:
            raise ValueError(f"matrix entries must be numbers or [re, im] pairs, got shape {table.shape}")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix file {path}: {exc!r}") from None
    except ValueError as exc:
        raise ValueError(f"malformed matrix file {path}: {exc}") from None
    # a complex view of the [re, im] pairs: no arithmetic on the parts
    return make_density(table.view(complex)[..., 0], dim_a, dim_b)


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like start:stop:n, got {spec!r}")
    try:
        start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"grid must look like start:stop:n, got {spec!r}") from None
    start, stop = _finite("grid start", start), _finite("grid stop", stop)
    # np.linspace warns twice and fills the grid with inf when stop - start overflows
    if not math.isfinite(stop - start):
        raise ValueError(f"grid span stop - start overflows a float, got {spec!r}")
    if n < 1:
        raise ValueError("phase grid is empty")
    if n > MAX_GRID_POINTS:
        raise ValueError(f"phase grid has more than {MAX_GRID_POINTS} points, got {n}")
    return np.linspace(start, stop, n)


# each purity of the report by its matrix, which names its CSV columns and text
# line: its JSON key, and the side partial_trace keeps (None for the joint state)
_PURITIES = {"rho": ("joint", None), "rhoA": ("side_a", "A"), "rhoB": ("side_b", "B")}


def cmd_purity(args) -> int:
    rho = _load_state(args.state)
    p = collision_probabilities(rho)
    verdict = entropic_witness(p)
    collisions = dataclasses.asdict(p)
    # (reconstructed, direct) of each matrix
    purities = {
        m: (rec, purity(rho if side is None else partial_trace(rho, side)))
        for (m, (_, side)), rec in zip(_PURITIES.items(), purities_from_probabilities(p))
    }
    margins = {"margin_a": verdict.margin_a, "margin_b": verdict.margin_b}

    if args.format == "json":
        payload = {
            "state": args.state,
            "collisions": collisions,
            "purities": {
                _PURITIES[m][0]: {"reconstructed": rec, "direct": direct} for m, (rec, direct) in purities.items()
            },
            "witness": {**margins, "violated": verdict.entangled},
        }
        text = _canonical_json(payload)
    elif args.format == "csv":
        names = chain.from_iterable((f"tr_{m}2_rec", f"tr_{m}2") for m in purities)
        row = (*collisions.values(), *chain.from_iterable(purities.values()), *margins.values())
        text = _table((*collisions, *names, *margins), [row], "csv")
    else:
        lines = [
            f"state: {args.state}",
            "collision probabilities: " + " ".join(f"{k}={v:.6f}" for k, v in collisions.items()),
            *(
                f"{f'tr {m}^2':<10}: reconstructed {rec:.6f}  direct {direct:.6f}"
                for m, (rec, direct) in purities.items()
            ),
            f"witness margins: a={verdict.margin_a:+.6f} b={verdict.margin_b:+.6f} "
            f"({'violated' if verdict.entangled else 'not violated'})",
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_werner_scan(args) -> int:
    if not (0.0 <= args.pmin < args.pmax <= 1.0):
        raise ValueError(f"bad range: need 0 <= pmin < pmax <= 1, got [{args.pmin}, {args.pmax}]")
    steps = _integer("steps", args.steps, 2, MAX_GRID_POINTS, f"in [2, {MAX_GRID_POINTS}]")
    ps = np.linspace(args.pmin, args.pmax, steps)
    states = werner_stack(ps)
    columns = (
        ps,
        ppt_min_eigenvalues(states, 2, 2),
        witness_margins(collision_quadruples(states, 2, 2))[:, 0],
        chsh.max_chsh_values(states, 2, 2),
    )
    keys = ("p", "ppt_min_eig", "entropic_margin", "max_chsh")
    _emit(_table(keys, zip(*(c.tolist() for c in columns)), args.format), args.out)
    return 0


def cmd_phase_scan(args) -> int:
    grid = _parse_grid(args.grid) if args.grid else np.linspace(0.0, np.pi, 25)
    _emit(_table(fock._CURVE_FIELDS, fock.coincidence_curves(grid), args.format), args.out)
    return 0


def cmd_simulate(args) -> int:
    raw = _load_json(args.config, "config")
    fields = dataclasses.fields(experiment.RunConfig)
    unknown = sorted(set(raw).difference(f.name for f in fields))
    if unknown:
        raise ValueError(f"unknown config field(s): {', '.join(unknown)}")
    missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in raw]
    if missing:
        raise ValueError(f"config is missing required field(s): {', '.join(missing)}")
    if args.seed is not None:
        raw.update(seed=args.seed)
    config = experiment.RunConfig(**raw)

    report = experiment.witness_from_run(config)

    os.makedirs(args.out, exist_ok=True)
    _emit(_table(experiment._COUNT_FIELDS, report["counts"], "csv"), os.path.join(args.out, "counts.csv"))
    _emit(_report_json(report), os.path.join(args.out, "report.json"))

    w = report["witness"]
    print(f"witness {w['verdict']} (significance {w['significance']:.2f})")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are one `error: ...` line, exit 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="renyi2",
        description="Two-copy collision probabilities: purity reports, threshold scans, run simulation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_pur = sub.add_parser("purity", help="collision probabilities and purities of one state")
    p_pur.add_argument("--state", required=True, help="singlet | werner:P | file:PATH")
    p_pur.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_pur.add_argument("--out", default=None, help="write to this file instead of stdout")
    p_pur.set_defaults(func=cmd_purity)

    p_wer = sub.add_parser("werner-scan", help="threshold table over the Werner family")
    p_wer.add_argument("--pmin", type=float, default=0.0)
    p_wer.add_argument("--pmax", type=float, default=1.0)
    p_wer.add_argument("--steps", type=int, default=21)
    p_wer.add_argument("--format", choices=("csv", "json"), default="csv")
    p_wer.add_argument("--out", default=None)
    p_wer.set_defaults(func=cmd_werner_scan)

    p_phs = sub.add_parser("phase-scan", help="ideal four-photon outcome curves")
    p_phs.add_argument("--grid", default=None, help="start:stop:n (default 0:pi:25)")
    p_phs.add_argument("--format", choices=("csv", "json"), default="csv")
    p_phs.add_argument("--out", default=None)
    p_phs.set_defaults(func=cmd_phase_scan)

    p_sim = sub.add_parser("simulate", help="simulate a run and analyze it")
    p_sim.add_argument("--config", required=True, help="JSON file with run settings")
    p_sim.add_argument("--out", required=True, help="output directory for counts.csv and report.json")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def _release_stdout() -> None:
    """Flush stdout; if it cannot be written, point its file descriptor at os.devnull (what the io docs
    advise for a broken pipe), so the interpreter's own flush at exit has nothing left to fail on."""
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a buffered stdout reports a write error here, not at interpreter exit
        return status
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _release_stdout()
        return 2


if __name__ == "__main__":
    sys.exit(main())
