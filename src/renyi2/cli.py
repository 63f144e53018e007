"""Command-line front end: purity reports, threshold scans, run simulation.

Output contracts kept stable for downstream tooling: CSV is UTF-8 with LF
endings and a fixed header row, numbers in full-precision scientific
notation; JSON is emitted in one canonical form (two-space indent, sorted
keys) so identical data is byte-identical on disk.
"""

import argparse
import importlib.util
import json
import math
import os
import sys
from itertools import chain, repeat


def _lazy(name: str):
    """renyi2.<name>, registered in sys.modules and bound on the package, whose body runs on its first
    attribute lookup (the importlib recipe, with importlib.util.LazyLoader); a layer already imported
    is returned as it is, so the process never holds two copies of it.

    All five layers load this way, so `import renyi2.cli` runs no layer and loads no numpy; a command
    loads numpy with the first layer it calls. Imports inside the commands would do the same with less
    machinery, but the benchmark's tracer reads every layer from sys.modules right after
    `import renyi2.cli`. ROADMAP item 4 replaces the tracer, and these lazy modules with imports
    inside the commands.
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


# each command runs only the layers it calls: `purity` qstate and two_copy, `werner-scan`
# chsh, qstate and two_copy, `phase-scan` fock and qstate, `simulate` experiment, fock,
# qstate and two_copy. cli reads numpy as qstate.np, bound once qstate has run, so that
# no cell of a table pays for an import statement.
chsh = _lazy("chsh")
experiment = _lazy("experiment")
fock = _lazy("fock")
qstate = _lazy("qstate")
two_copy = _lazy("two_copy")


def _fmt(x: float) -> str:
    return qstate.np.format_float_scientific(float(x), unique=True)


def _canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _json_numbers(values) -> list:
    """Each number as json writes it, its repr; NaN and inf refused, as JSON cannot represent them."""
    if not all(map(math.isfinite, values)):
        raise ValueError("a table value is not finite, which JSON cannot represent")
    return list(map(repr, values))


def _table(keys, rows, fmt: str) -> str:
    """Rows of Python floats and ints, one cell per key, as "csv" or "json".

    The rows are transposed once, and each column is formatted in one pass.
    CSV is a header line, then floats through _fmt and ints through str.
    JSON is byte for byte _canonical_json of the rows as dicts, but written
    from _json_numbers cells: json.dumps falls back to its pure-Python
    encoder whenever it indents. Each row is its cells interleaved, through
    zip and repeat, with the fixed text between them, members in sorted key
    order.
    """
    columns = list(zip(*rows)) or [()] * len(keys)
    if fmt == "csv":
        cells = [[_fmt(v) if isinstance(v, float) else str(v) for v in column] for column in columns]
        return "\n".join([",".join(keys), *map(",".join, zip(*cells))]) + "\n"
    parts, lead = [], "  {\n    "
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        parts += repeat(f"{lead}{json.dumps(keys[i])}: "), _json_numbers(columns[i])
        lead = ",\n    "
    body = ",\n".join(map("".join, zip(*parts, repeat("\n  }"))))
    return f"[\n{body}\n]\n" if body else "[]\n"


def _report_json(report: dict) -> str:
    """_canonical_json(report), with config.phi_grid written from _json_numbers cells and the
    count-row tuples written by _table as objects."""
    config = report["config"]
    text = _canonical_json({**report, "config": {**config, "phi_grid": []}, "counts": []})
    head, _, rest = text.partition('\n    "phi_grid": [],\n')
    middle, _, tail = rest.partition('\n  "counts": [],\n')
    phases = ",\n      ".join(_json_numbers(config["phi_grid"]))
    grid = f"[\n      {phases}\n    ]" if phases else "[]"
    counts = _table(experiment._COUNT_FIELDS, report["counts"], "json").rstrip().replace("\n", "\n  ")
    return f'{head}\n    "phi_grid": {grid},\n{middle}\n  "counts": {counts},\n{tail}'


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load_state(spec: str) -> "qstate.DensityOperator":
    if spec == "singlet":
        return qstate.singlet()
    if spec.startswith("werner:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"werner parameter is not a number in {spec!r}") from None
        return qstate.werner(p)
    if spec.startswith("file:"):
        return _load_matrix_file(spec.split(":", 1)[1])
    raise ValueError(f"unknown state family {spec!r} (expected singlet, werner:P or file:PATH)")


def _load_json(path: str, what: str) -> dict:
    """The JSON object held in the file at path; ValueError if it holds none."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    # json.load raises RecursionError on nesting deeper than the interpreter's stack, and a plain
    # ValueError on an integer of more than 4300 digits; JSONDecodeError and UnicodeDecodeError are ValueErrors
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed {what} file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"malformed {what} file {path}: it must hold a JSON object")
    return data


def _load_matrix_file(path: str) -> "qstate.DensityOperator":
    data = _load_json(path, "matrix")
    try:
        dim_a, dim_b = data["dim_a"], data["dim_b"]
        # every entry is read (a number e as [e, 0], or an [re, im] pair) before make_density reads the dimensions
        pairs = [[e if isinstance(e, list) else [e, 0] for e in row] for row in data["matrix"]]
        table = qstate._numbers("matrix entries", pairs, float, (None, None, 2))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix file {path}: {exc!r}") from None
    except ValueError as exc:
        raise ValueError(f"malformed matrix file {path}: {exc}") from None
    # a complex view of the [re, im] pairs: no arithmetic on the parts
    return qstate.make_density(table.view(complex)[..., 0], dim_a, dim_b)


def _parse_grid(spec: str) -> "qstate.np.ndarray":
    try:
        start, stop, n = spec.split(":")  # a wrong number of parts is a ValueError too
        start, stop, n = float(start), float(stop), int(n)
    except ValueError:
        raise ValueError(f"grid must look like start:stop:n, got {spec!r}") from None
    start = float(qstate._numbers("grid start", start, float, ()))
    stop = float(qstate._numbers("grid stop", stop, float, ()))
    # np.linspace warns twice and fills the grid with inf when stop - start overflows
    if not math.isfinite(stop - start):
        raise ValueError(f"grid span stop - start overflows a float, got {spec!r}")
    if n < 1:
        raise ValueError("phase grid is empty")
    if n > qstate.MAX_GRID_POINTS:
        raise ValueError(f"phase grid has more than {qstate.MAX_GRID_POINTS} points, got {n}")
    return qstate.np.linspace(start, stop, n)


# each purity of the report by its matrix, which names its CSV columns and text
# line: its JSON key, and the side partial_trace keeps (None for the joint state)
_PURITIES = {"rho": ("joint", None), "rhoA": ("side_a", "A"), "rhoB": ("side_b", "B")}


def cmd_purity(args) -> int:
    rho = _load_state(args.state)
    p = two_copy.collision_probabilities(rho)
    verdict = two_copy.entropic_witness(p)
    collisions = dict(zip(p.__slots__, p.as_tuple()))
    # (reconstructed, direct) of each matrix
    purities = {
        m: (rec, qstate.purity(rho if side is None else qstate.partial_trace(rho, side)))
        for (m, (_, side)), rec in zip(_PURITIES.items(), two_copy.purities_from_probabilities(p))
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
    steps = qstate._integer("steps", args.steps, 2, qstate.MAX_GRID_POINTS, f"in [2, {qstate.MAX_GRID_POINTS}]")
    ps = qstate.np.linspace(args.pmin, args.pmax, steps)
    states = qstate.werner_stack(ps)
    columns = (
        ps,
        qstate.ppt_min_eigenvalues(states, 2, 2),
        two_copy.witness_margins(two_copy.collision_quadruples(states, 2, 2))[:, 0],
        chsh.max_chsh_values(states, 2, 2),
    )
    keys = ("p", "ppt_min_eig", "entropic_margin", "max_chsh")
    _emit(_table(keys, zip(*(c.tolist() for c in columns)), args.format), args.out)
    return 0


def cmd_phase_scan(args) -> int:
    grid = _parse_grid(args.grid) if args.grid else qstate.np.linspace(0.0, math.pi, 25)
    _emit(_table(fock._CURVE_FIELDS, fock.coincidence_curves(grid), args.format), args.out)
    return 0


def cmd_simulate(args) -> int:
    raw = _load_json(args.config, "config")
    fields = experiment.RunConfig.__slots__
    unknown = sorted(set(raw).difference(fields))
    if unknown:
        # a name that would break the one error line is shown by its repr
        shown = (name if name.isprintable() else repr(name) for name in unknown)
        raise ValueError(f"unknown config field(s): {', '.join(shown)}")
    # the fields before those RunConfig gives a default
    required = fields[: len(fields) - len(experiment.RunConfig.__init__.__defaults__)]
    missing = [name for name in required if name not in raw]
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
    """An ArgumentParser whose usage errors raise ValueError, for main to refuse as any input, and
    whose help, when stdout cannot be written, raises the OSError that argparse would swallow."""

    def error(self, message):
        raise ValueError(message)

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


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


# main cuts a refusal's message to this many characters, as it may echo an input of any length
_MAX_SHOWN = 400


def _release_stdout() -> None:
    """Flush stdout; if it cannot be written, point its file descriptor at os.devnull (what the io docs
    advise for a broken pipe), so the interpreter's own flush at exit has nothing left to fail on."""
    try:
        sys.stdout.flush()
    except OSError:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def main(argv=None) -> int:
    """Run the command argv names; any refusal, a usage error included, is one `error:` line and exit 2."""
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        finally:
            sys.stdout.flush()  # a buffered stdout, --help's included, reports a write error here
    except (ValueError, OSError) as exc:
        message = str(exc)
        if len(message) > _MAX_SHOWN:
            message = f"{message[:_MAX_SHOWN]}... ({len(message)} characters)"
        print(f"error: {message}", file=sys.stderr)
        _release_stdout()
        return 2


if __name__ == "__main__":
    sys.exit(main())
