"""Command-line surface: CSV in, scores/flags/edges/reports out.

Exit codes: 0 success, 1 input or configuration error, 2 geometry error
(degenerate input without jitter). Errors also emit one machine-readable
JSON line on stderr. The subcommands only raise; main alone maps exceptions
to exit codes and error objects.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import DuplicatePointError, GeometryError, MAX_DIM, PointSet, jitter_points
from .oracle import BRUTEFORCE_MAX_N, delaunay_bruteforce
from .outlyingness import flag as flag_scores
from .outlyingness import score
from .simulation import (
    SimulationConfig,
    run_consistency_experiment,
    run_relative_outlyingness_experiment,
)
from .triangulation import delaunay

SCORES_SCHEMA = "delo.scores.v1"
EDGES_SCHEMA = "delo.edges.v1"
FLAGS_SCHEMA = "delo.flags.v1"


class CLIInputError(Exception):
    """Bad input file or flags; maps to exit code 1."""


@dataclass(frozen=True)
class ColumnSpec:
    columns: tuple | None = None  # names or 0-based indices; None = all
    delimiter: str = ","
    header: bool = False


def parse_columns(text: str | None):
    if text is None:
        return None
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise CLIInputError("--columns must select at least one column")
    try:
        return tuple(int(t) for t in items)
    except ValueError:
        return tuple(items)


def _read_rows(path: str, spec: ColumnSpec, strict: bool):
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as err:
        raise CLIInputError(f"cannot read {path}: {err}") from err
    with fh:
        reader = csv.reader(fh, delimiter=spec.delimiter)
        rows = [row for row in reader if row and not row[0].startswith("#")]
    if not rows:
        raise CLIInputError(f"{path} has no data rows")

    header = None
    if spec.header:
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]

    if spec.columns is None:
        idx = list(range(len(rows[0]) if rows else 0))
    elif all(isinstance(c, int) for c in spec.columns):
        idx = list(spec.columns)
    else:
        if header is None:
            raise CLIInputError("column names require --header")
        try:
            idx = [header.index(str(c)) for c in spec.columns]
        except ValueError as err:
            raise CLIInputError(f"unknown column name: {err}") from err
    if not idx:
        raise CLIInputError("no columns selected")
    if len(idx) > MAX_DIM:
        raise CLIInputError(f"{len(idx)} coordinate columns selected; at most {MAX_DIM} supported")

    coords = []
    kept_rows = []
    skipped = 0
    for rno, row in enumerate(rows):
        try:
            vals = [float(row[c]) for c in idx]
            if not all(np.isfinite(vals)):
                raise ValueError("non-finite value")
        except (ValueError, IndexError) as err:
            if strict:
                raise CLIInputError(f"row {rno}: cannot parse columns {idx}: {err}") from err
            skipped += 1
            continue
        coords.append(vals)
        kept_rows.append(rno)
    if skipped:
        print(f"warning: skipped {skipped} unparseable rows", file=sys.stderr)
    if len(coords) < 2:
        raise CLIInputError(f"{path}: fewer than 2 valid rows")
    return np.array(coords, dtype=np.float64), kept_rows


def ingest_csv(path: str, spec: ColumnSpec, strict: bool = True,
               jitter_seed: int | None = None):
    """Read a CSV into a PointSet plus the original row number of each point."""
    arr, rows = _read_rows(path, spec, strict)
    if jitter_seed is not None:
        return jitter_points(arr, jitter_seed), rows
    try:
        return PointSet(arr), rows
    except DuplicatePointError as err:
        i, j = err.indices
        raise DuplicatePointError(rows[i], rows[j]) from None


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _output(path: str | None):
    """A context manager for the file at path, or for stdout (left open) if no path."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def _emit_json(obj, path: str | None):
    with _output(path) as out:
        out.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _emit_csv(path: str | None, schema: str, header, rows, footer: str | None = None):
    """A '# schema=' line, the header, one line per row (each field as its
    repr, so floats round-trip) and an optional '# footer' line."""
    with _output(path) as out:
        out.write(f"# schema={schema}\n" + ",".join(header) + "\n")
        out.writelines(",".join(map(repr, row)) + "\n" for row in rows)
        if footer:
            out.write(f"# {footer}\n")


def _error(kind: str, message: str, detail: dict | None = None) -> int:
    obj = {"schema_version": "delo.error.v1", "kind": kind, "message": message}
    if detail:
        obj["detail"] = detail
    print(json.dumps(obj, sort_keys=True), file=sys.stderr)
    return 1 if kind == "input" else 2


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load(args):
    if len(args.delimiter) != 1:
        raise CLIInputError(f"--delimiter must be one character, got {args.delimiter!r}")
    spec = ColumnSpec(columns=parse_columns(args.columns),
                      delimiter=args.delimiter, header=args.header)
    jitter_seed = args.jitter_seed if args.jitter else None
    return ingest_csv(args.input, spec, strict=not args.lenient,
                      jitter_seed=jitter_seed)


def _scored(args):
    """The input's ScoreTable, and per point (row, coords, log_score, score)
    as Python values."""
    ps, rows = _load(args)
    table = score(delaunay(ps))
    return table, list(zip(rows, ps.coords.tolist(), table.log_scores.tolist(),
                           table.scores.tolist()))


def cmd_score(args) -> int:
    table, points = _scored(args)
    if args.format == "json":
        recs = [{"row": r, "coords": c, "log_score": ls, "score": s}
                for r, c, ls, s in points]
        _emit_json({"schema_version": SCORES_SCHEMA, "records": recs}, args.output)
    else:
        _emit_csv(args.output, SCORES_SCHEMA,
                  ["row", *(f"x{d}" for d in range(table.dim)), "log_score", "score"],
                  ([r, *c, ls, s] for r, c, ls, s in points))
    return 0


def cmd_flag(args) -> int:
    if not (math.isfinite(args.alpha) and args.alpha >= 0):
        raise CLIInputError("--alpha must be finite and nonnegative")
    table, points = _scored(args)
    flagged = [points[i] for i in flag_scores(table, args.alpha).flagged]
    if args.format == "json":
        recs = [{"row": r, "coords": c, "score": s} for r, c, _, s in flagged]
        _emit_json({"schema_version": FLAGS_SCHEMA, "alpha": args.alpha,
                    "flagged_count": len(flagged), "total": len(points),
                    "flagged": recs}, args.output)
    else:
        _emit_csv(args.output, FLAGS_SCHEMA,
                  ["row", *(f"x{d}" for d in range(table.dim)), "score"],
                  ([r, *c, s] for r, c, _, s in flagged),
                  f"flagged={len(flagged)} total={len(points)} alpha={args.alpha!r}")
    return 0


def cmd_triangulate(args) -> int:
    ps, _ = _load(args)
    if args.oracle and ps.n > BRUTEFORCE_MAX_N:
        raise CLIInputError(f"--oracle is limited to n <= {BRUTEFORCE_MAX_N}")
    graph = delaunay(ps)
    agreement = delaunay_bruteforce(ps) == graph.edge_set() if args.oracle else None
    edges = [[i, j, length]
             for (i, j), length in zip(graph.edges.tolist(), graph.lengths.tolist())]
    if args.format == "json":
        obj = {"schema_version": EDGES_SCHEMA, "edges": edges,
               "simplices": graph.cells.tolist()}
        if agreement is not None:
            obj["oracle_agreement"] = agreement
        _emit_json(obj, args.output)
    else:
        _emit_csv(args.output, EDGES_SCHEMA, ["i", "j", "length"], edges,
                  None if agreement is None else f"oracle_agreement={str(agreement).lower()}")
    return 0


def cmd_simulate(args) -> int:
    cfg = SimulationConfig(
        dim=args.dim, n_inliers=args.n, replicates=args.replicates,
        seed=args.seed, r_lo=args.r_lo, r_hi=args.r_hi,
        outliers=tuple(args.outlier or ()), thresholds=args.thresholds,
    )
    report = run_relative_outlyingness_experiment(cfg, processes=args.processes)
    _emit_json(report.to_dict(include_runtime=args.include_runtime), args.output)
    if args.histogram_csv:
        edges = report.histogram_edges
        _emit_csv(args.histogram_csv, "delo.histogram.v1", ["bin_lo", "bin_hi", "count"],
                  zip(edges, edges[1:], report.histogram_counts))
    print(f"runtime_seconds={report.runtime_seconds:.3f}", file=sys.stderr)
    return 0


def cmd_consistency(args) -> int:
    report = run_consistency_experiment(
        dim=args.dim, radius=args.radius,
        center=args.center or (0.0,) * args.dim,
        outliers=args.outlier or [(3.0,) + (0.0,) * (args.dim - 1)],
        n_schedule=args.schedule, replicates=args.replicates, seed=args.seed,
        processes=args.processes)
    _emit_json(report.to_dict(include_runtime=args.include_runtime), args.output)
    print(f"runtime_seconds={report.runtime_seconds:.3f}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIInputError(f"{message}\n{self.format_usage()}")


def number_list(text: str) -> tuple[float, ...]:
    """'x,y,...' as floats: --thresholds, --center and each --outlier."""
    return tuple(float(v) for v in text.split(","))


def integer_list(text: str) -> tuple[int, ...]:
    """'n1,n2,...' as ints: --schedule."""
    return tuple(int(v) for v in text.split(","))


def _add_io_args(p):
    p.add_argument("input", help="CSV file of coordinates")
    p.add_argument("--columns", default=None,
                   help="comma-separated column names or 0-based indices")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--header", action="store_true", help="first row is a header")
    p.add_argument("--lenient", action="store_true",
                   help="skip unparseable rows instead of failing")
    p.add_argument("--jitter", action="store_true",
                   help="perturb coordinates by 1e-9 x bbox diameter (seeded)")
    p.add_argument("--jitter-seed", type=int, default=0, help="non-negative seed of --jitter")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="delo",
                     description="Delaunay outlyingness scores and experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score every row of a CSV")
    _add_io_args(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("flag", help="flag rows with score at least alpha")
    _add_io_args(p)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=cmd_flag)

    p = sub.add_parser("triangulate", help="emit the Delaunay edge list")
    _add_io_args(p)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check edges against the brute-force oracle (n <= 40)")
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("simulate", help="replicated shell experiment")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="inliers per replicate")
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r-lo", type=float, default=0.7)
    p.add_argument("--r-hi", type=float, default=1.1)
    p.add_argument("--thresholds", type=number_list, default="0.9,1.0")
    p.add_argument("--outlier", action="append", type=number_list, default=None,
                   help="outlier coordinates 'x,y,...' (default: origin)")
    p.add_argument("--processes", type=int, default=None,
                   help="replicate workers (capped by DELO_THREADS)")
    p.add_argument("--histogram-csv", default=None)
    p.add_argument("--include-runtime", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("consistency", help="outlier score floor vs sample size")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--center", type=number_list, default=None,
                   help="'x,y,...' (default: origin)")
    p.add_argument("--outlier", action="append", type=number_list, default=None,
                   help="outlier coordinates 'x,y,...' (default: 3,0,...,0)")
    p.add_argument("--schedule", type=integer_list, default="50,100,200,400")
    p.add_argument("--replicates", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--processes", type=int, default=None)
    p.add_argument("--include-runtime", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_consistency)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except GeometryError as err:  # a ValueError, so it goes first
        detail = {}
        if hasattr(err, "subset"):
            detail = {"kind": err.kind, "subset": list(err.subset)}
        elif hasattr(err, "indices"):
            detail = {"kind": "duplicate", "rows": list(err.indices)}
        return _error("geometry", str(err), detail)
    except (CLIInputError, OSError, OverflowError, ValueError, csv.Error) as err:
        # ValueError covers UnicodeDecodeError from the CSV reader
        return _error("input", str(err))


if __name__ == "__main__":
    sys.exit(main())
