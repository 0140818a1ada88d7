"""Batch command-line front end.

Two subcommands:
  gradix eval  --lattice <kind> --script <path> [--out <dir>] [--scheme A:int,...]
  gradix check --suite <id> [--lattice <kind>] [--seed <n>] [--n <count>]

Scripts are sequences of LOAD/VAR/LET/EVAL/EVALPTC/COMPILE/SAVE statements;
outputs are written deterministically (sorted rows, 9-significant-digit
ranks), so identical inputs and seeds give byte-identical output.  The
GRADIX_SEED environment variable is the seed fallback; flags win.  `check`
prints its report on stdout and one `TIMING <id> elapsed_s=… instances_per_s=…`
line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path

from . import algebra as ra
from . import parsing
from . import ptc as pc
from .errors import GradixError, ParseError, TypeRegistryError
from .lattice import ResiduatedLattice, lattice_from_spec, make_lattice
from .table import (
    AttributeRegistry,
    DatabaseInstance,
    RankedDataTable,
    read_csv,
    table_to_csv,
    write_csv,
)

EXIT_OK = 0
EXIT_QUERY = 1
EXIT_IO = 2
EXIT_UNKNOWN_SUITE = 3

class Session:
    """One lattice, one attribute-type registry, the loaded tables."""

    def __init__(self, lattice: ResiduatedLattice):
        self.lattice = lattice
        self.registry = AttributeRegistry()
        self.tables: dict[str, RankedDataTable] = {}

    def bind(self, name: str, table: RankedDataTable) -> None:
        self.tables[name] = table

    def instance(self) -> DatabaseInstance:
        return DatabaseInstance(self.lattice, self.tables)


def _bind(expr, session: Session, check_types: bool = True):
    """`expr`, an algebra or calculus expression, bound to the session in
    one walk: its relation symbols take the schemes of the session's
    tables, and, where `check_types`, its singleton values are checked
    against their declared types.  An `int` on a `decimal` attribute
    becomes the equal float, the value the CSV reader gives the same text,
    so one column does not mix the two; any other mismatch, a string or an
    int beyond the floats there among them, is a `TypeRegistryError`, and
    so is a bool on any declared type (Python counts a bool as an int, the
    CSV reader does not).  It is raised after the walk, for the first such
    singleton, so that an unbound symbol anywhere is reported first."""
    resolve = ra._resolver({name: t.scheme for name, t in session.tables.items()})
    registry, mistyped = session.registry, []

    def rule(node, *below):
        if below:
            return ra._with_children(node, below)
        if type(node) is not ra.Singleton or not check_types:
            return resolve(node)
        value_type = registry.value_type(node.attribute)
        if value_type is float and type(node.value) is int:
            try:
                return ra.Singleton(node.attribute, float(node.value))
            except OverflowError:
                pass
        if value_type and (type(node.value) is bool or not isinstance(node.value, value_type)):
            mistyped.append(node)
        return node

    bound = ra.fold(expr, rule)[id(expr)]
    if mistyped:
        node = mistyped[0]
        raise TypeRegistryError(
            f"singleton value {node.value!r} does not match declared "
            f"type {registry.type_of(node.attribute)} of {node.attribute!r}"
        )
    return bound


def _unreadable(path, exc: OSError | UnicodeDecodeError) -> str:
    """Why a text file could not be read, naming the file."""
    if isinstance(exc, UnicodeDecodeError):
        return f"{path} is not UTF-8 text ({exc.reason})"
    return str(exc)  # the text of an OSError from open() names its file


def _select_lattice(spec: str):
    """(lattice, EXIT_OK), or (None, exit code) once the reason the
    selection is unusable has gone to stderr."""
    try:
        return lattice_from_spec(spec), EXIT_OK
    except GradixError as exc:
        print(f"gradix: {exc}", file=sys.stderr)
        return None, EXIT_QUERY
    except (OSError, UnicodeDecodeError) as exc:
        # only a table:<path> selection reads a file
        path = spec.partition(":")[2].strip()
        print(f"gradix: cannot read lattice file: {_unreadable(path, exc)}", file=sys.stderr)
        return None, EXIT_IO


def run_script(statements, session: Session, out_dir=None, stdout=None) -> int:
    """Execute parsed statements in order; returns the process exit code.
    An expression statement walks its expression once to bind it, then once
    more to number it (EVAL, LET), or twice: to check and compile the
    formula, then to number it (EVALPTC) or to print it (COMPILE)."""
    stdout = stdout or sys.stdout
    out_base = Path(out_dir) if out_dir else None

    def emit_table(kind: str, line: int, table: RankedDataTable):
        stdout.write(f"-- {kind} (line {line})\n")
        write_csv(table, stdout)
        stdout.write("\n")

    for stmt in statements:
        try:
            match stmt:
                case parsing.LoadStmt(name, path, types, _line):
                    # utf-8-sig: a byte-order mark is not part of the first attribute
                    with open(path, encoding="utf-8-sig", newline="") as fh:
                        table = read_csv(fh, session.lattice, session.registry,
                                         dict(types))
                    session.bind(name, table)
                case parsing.VarStmt():
                    pass
                case parsing.LetStmt(name, expr, _line):
                    expr = _bind(expr, session)
                    session.bind(name, ra.eval_ra(expr, session.instance()))
                case parsing.EvalStmt(expr, line):
                    emit_table("EVAL", line, ra.eval_ra(_bind(expr, session), session.instance()))
                case parsing.EvalPtcStmt(expr, line):
                    expr = _bind(expr, session)
                    emit_table("EVALPTC", line, pc.eval_ptc(expr, session.instance()))
                case parsing.CompileStmt(expr, line):
                    compiled = pc.compile_ptc_to_ra(_bind(expr, session, check_types=False))
                    stdout.write(f"-- COMPILE (line {line})\n")
                    stdout.write(ra.ra_to_text(compiled) + "\n")
                case parsing.SaveStmt(name, path, _line):
                    # the whole text first: a failed write_csv leaves no partial
                    # file, and an unbound name no directory
                    text = table_to_csv(session.instance().table(name))
                    target = Path(path)
                    if out_base is not None and not target.is_absolute():
                        target = out_base / target
                    target.parent.mkdir(parents=True, exist_ok=True)
                    target.write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"gradix: i/o error at line {stmt.line}: {exc}", file=sys.stderr)
            return EXIT_IO
        except UnicodeDecodeError as exc:
            # LOAD is the only statement that reads a file
            print(f"gradix: i/o error at line {stmt.line}: {_unreadable(stmt.path, exc)}",
                  file=sys.stderr)
            return EXIT_IO
        except GradixError as exc:
            print(f"gradix: error at line {stmt.line}: {exc}", file=sys.stderr)
            return EXIT_QUERY
    return EXIT_OK


def _cmd_eval(args) -> int:
    lattice, code = _select_lattice(args.lattice)
    if lattice is None:
        return code
    session = Session(lattice)
    if args.scheme:
        try:
            for part in args.scheme.split(","):
                attr, _, ty = part.partition(":")
                session.registry.declare(attr.strip(), ty.strip())
        except GradixError as exc:
            print(f"gradix: {exc}", file=sys.stderr)
            return EXIT_QUERY
    try:
        text = Path(args.script).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"gradix: cannot read script: {_unreadable(args.script, exc)}", file=sys.stderr)
        return EXIT_IO
    try:
        statements = parsing.parse_script(text)
    except ParseError as exc:
        print(f"gradix: {args.script}:{exc}", file=sys.stderr)
        return EXIT_QUERY
    return run_script(statements, session, out_dir=args.out)


def _default_seed() -> int:
    env = os.environ.get("GRADIX_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"gradix: ignoring non-integer GRADIX_SEED {env!r}", file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    # only `check` needs the harness, so `eval` does not import it
    from .harness.gen import GenConfig
    from .harness.suites import BOOLEAN_SUITES, THEOREM_IDS, run_theorem_suite

    if args.suite not in THEOREM_IDS:
        print(f"gradix: unknown suite {args.suite!r}; known: {', '.join(THEOREM_IDS)}",
              file=sys.stderr)
        return EXIT_UNKNOWN_SUITE
    if args.suite in BOOLEAN_SUITES:
        lattice = make_lattice("boolean")
    else:
        lattice, code = _select_lattice(args.lattice or "godel")
        if lattice is None:
            return code
    seed = args.seed if args.seed is not None else _default_seed()
    config = GenConfig(seed=seed, lattice=lattice)
    start = time.perf_counter()
    try:
        report = run_theorem_suite(args.suite, config, args.n)
    except GradixError as exc:
        print(f"gradix: {exc}", file=sys.stderr)
        return EXIT_QUERY
    elapsed = time.perf_counter() - start
    print(report.summary())
    # throughput is a diagnostic, so stdout stays byte-deterministic
    print(f"TIMING {report.theorem_id} elapsed_s={elapsed:.6f} "
          f"instances_per_s={report.instances / elapsed:.1f}", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_QUERY


def count(text: str) -> int:
    """A whole number of at least 1; argparse makes anything else a usage error."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="gradix",
        description="rank-aware relational algebra engine and theorem harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="run a batch query script")
    p_eval.add_argument("--lattice", required=True,
                        help="boolean | godel | lukasiewicz | goguen | chain:<n> | table:<path>")
    p_eval.add_argument("--script", required=True, help="script file to run")
    p_eval.add_argument("--out", help="base directory for SAVE targets")
    p_eval.add_argument("--scheme", help="session attribute types, e.g. A:int,B:text")
    p_eval.set_defaults(func=_cmd_eval)

    p_check = sub.add_parser("check", help="run a theorem suite")
    p_check.add_argument("--suite", required=True, help="suite id; an unknown one lists them all")
    p_check.add_argument("--lattice", help="lattice for graded suites (default godel)")
    p_check.add_argument("--seed", type=int, help="suite seed (falls back to GRADIX_SEED)")
    p_check.add_argument("--n", type=count, help="instances to test, at least 1")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
