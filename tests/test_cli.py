"""End-to-end command-line behaviour: scripts, CSV flow, suites, exit codes,
and byte-level determinism."""

import contextlib
import io
import re

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gradix import AttributeRegistry, algebra as ra, cli, parsing
from gradix.cli import EXIT_IO, EXIT_OK, EXIT_QUERY, EXIT_UNKNOWN_SUITE, Session, main
from gradix.lattice import lattice_from_spec

SP_CSV = "S,P\ns1,p1\ns1,p2\ns2,p1\n"
P_CSV = "P\np1\np2\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "sp.csv").write_text(SP_CSV)
    (tmp_path / "p.csv").write_text(P_CSV)
    return tmp_path


def write_script(workdir, text):
    path = workdir / "script.gx"
    path.write_text(text)
    return str(path)


SCRIPT = """
LOAD SP FROM "{d}/sp.csv" SCHEME S:text, P:text
LOAD P FROM "{d}/p.csv" SCHEME P:text
VAR r : {{S}}
VAR s : {{P}}
EVAL DIV(SP BY P OVER PROJECT[S](SP))
EVALPTC ALL s . (P(s) => SP(r, s))
COMPILE ALL s . (P(s) => SP(r, s))
SAVE SP TO "copy.csv"
"""


def run_main(argv):
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_eval_script_end_to_end(workdir):
    script = write_script(workdir, SCRIPT.format(d=workdir))
    code, out = run_main([
        "eval", "--lattice", "boolean", "--script", script,
        "--out", str(workdir / "outputs"),
    ])
    assert code == EXIT_OK
    assert "-- EVAL (line 6)\nS,rank\ns1,1\n" in out
    assert "-- EVALPTC (line 7)\nS,rank\ns1,1\n" in out
    # the ALL divides by its antecedent P, as EVALPTC evaluates it
    assert "-- COMPILE (line 8)\nGCODD(SP, P; UNIV EADOM[S])\n" in out
    assert (workdir / "outputs" / "copy.csv").read_text() == \
        "P,S,rank\np1,s1,1\np1,s2,1\np2,s1,1\n"


def test_eval_deterministic_bytes(workdir):
    script = write_script(workdir, SCRIPT.format(d=workdir))
    argv = ["eval", "--lattice", "boolean", "--script", script,
            "--out", str(workdir / "outputs")]
    assert run_main(argv) == run_main(argv)


def test_eval_missing_csv_is_io_error(workdir):
    script = write_script(workdir, 'LOAD X FROM "no-such.csv"\n')
    code, _ = run_main(["eval", "--lattice", "boolean", "--script", script])
    assert code == EXIT_IO


def test_eval_missing_script_is_io_error(workdir):
    code, _ = run_main(["eval", "--lattice", "boolean",
                        "--script", str(workdir / "absent.gx")])
    assert code == EXIT_IO


def test_eval_syntax_error_is_query_error(workdir):
    script = write_script(workdir, 'LOAD SP FROM "{}/sp.csv"\nEVAL DIV(SP BY SP)\n'.format(workdir))
    code, _ = run_main(["eval", "--lattice", "boolean", "--script", script])
    assert code == EXIT_QUERY


def test_eval_scheme_error_at_runtime(workdir):
    script = write_script(
        workdir,
        'LOAD SP FROM "{d}/sp.csv"\nLOAD P FROM "{d}/p.csv"\nEVAL SP UNION P\n'.format(d=workdir),
    )
    code, _ = run_main(["eval", "--lattice", "boolean", "--script", script])
    assert code == EXIT_QUERY


def test_eval_bad_lattice(workdir):
    script = write_script(workdir, "")
    code, _ = run_main(["eval", "--lattice", "squishy", "--script", script])
    assert code == EXIT_QUERY


def test_eval_session_scheme_flag(workdir):
    (workdir / "n.csv").write_text("A\n1\n2\n")
    script = write_script(workdir, f'LOAD N FROM "{workdir}/n.csv"\nEVAL N\n')
    code, out = run_main([
        "eval", "--lattice", "godel", "--script", script, "--scheme", "A:int",
    ])
    assert code == EXIT_OK
    assert "A,rank\n1,1\n2,1\n" in out


def test_eval_singleton_type_check(workdir):
    script = write_script(
        workdir,
        f'LOAD SP FROM "{workdir}/sp.csv" SCHEME S:text, P:text\nEVAL SP JOIN [S: 3]\n',
    )
    code, _ = run_main(["eval", "--lattice", "boolean", "--script", script])
    assert code == EXIT_QUERY


def _run_on_decimal_table(workdir, stmts):
    """(exit code, stdout, session) of LOAD D, a decimal column A, then `stmts`."""
    (workdir / "d.csv").write_text("A,rank\n1,0.5\n2.5,1\n1.5,0.25\n")
    load = f'LOAD D FROM "{workdir}/d.csv" SCHEME A:decimal\n'
    if isinstance(stmts, str):
        stmts = parsing.parse_script(load + stmts)
    else:
        stmts = parsing.parse_script(load) + stmts
    session, out = Session(lattice_from_spec("godel")), io.StringIO()
    return cli.run_script(stmts, session, stdout=out), out.getvalue(), session


@pytest.mark.parametrize("template", ["EVAL D JOIN [A: {}]", "EVAL ([A: {}] UNION D)",
                                      "LET E = [A: {}]\nEVAL (E UNION D)"])
def test_int_literal_on_decimal_is_the_equal_float(workdir, template):
    texts = []
    for literal in ("2", "2.0", "1", "1.0"):
        code, out, session = _run_on_decimal_table(workdir, template.format(literal) + "\n")
        assert code == EXIT_OK
        assert {type(v) for t in session.tables.values() for (v,) in t._rows} == {float}
        texts.append(out)
    assert texts[0] == texts[1] and texts[2] == texts[3]
    if "UNION" in template:  # an int 2 would sort after the floats 1.5 and 2.5
        assert texts[0].endswith("A,rank\n2,1\n2.5,1\n1,0.5\n1.5,0.25\n\n")


@pytest.mark.parametrize("value", [True, "1", 10 ** 400], ids=["bool", "str", "huge-int"])
def test_bool_string_or_huge_int_on_decimal_is_refused(workdir, value, capsys):
    stmt = parsing.EvalStmt(ra.NaturalJoin(ra.RelSym("D"), ra.Singleton("A", value)), 7)
    code, out, _session = _run_on_decimal_table(workdir, [stmt])
    assert code == EXIT_QUERY and out == ""
    assert capsys.readouterr().err == (
        f"gradix: error at line 7: singleton value {value!r} does not match "
        "declared type decimal of 'A'\n")


@pytest.mark.parametrize("declared", ["integer", "text"])
def test_bool_literal_is_refused_on_every_declared_type(declared, capsys):
    # the parser makes no bool; a library caller can, and Python counts it an int
    session, out = Session(lattice_from_spec("godel")), io.StringIO()
    session.registry.declare("A", declared)
    stmt = parsing.EvalStmt(ra.Singleton("A", True), 1)
    assert cli.run_script([stmt], session, stdout=out) == EXIT_QUERY
    assert out.getvalue() == ""
    assert capsys.readouterr().err == (
        "gradix: error at line 1: singleton value True does not match declared type "
        f"{declared} of 'A'\n")


@pytest.mark.parametrize("declared, good, bad", [
    ("text", "x", 3), ("integer", 3, "3"), ("decimal", 2.5, "2.5"), ("decimal", 2, True),
])
def test_singleton_type_checks_need_no_parser_table(declared, good, bad, capsys, monkeypatch):
    # the check asks the registry for the values' Python type; the parsers
    # of CSV cells, which have no entry for text, play no part
    monkeypatch.setattr(AttributeRegistry, "_PARSERS", {})
    session, out = Session(lattice_from_spec("godel")), io.StringIO()
    session.registry.declare("A", declared)
    assert session.registry.value_type("A") is {"text": str, "integer": int,
                                                  "decimal": float}[declared]
    assert session.registry.value_type("B") is None
    assert cli.run_script([parsing.EvalStmt(ra.Singleton("A", good), 1)], session,
                          stdout=out) == EXIT_OK
    assert out.getvalue() == f"-- EVAL (line 1)\nA,rank\n{good},1\n\n"
    assert cli.run_script([parsing.EvalStmt(ra.Singleton("A", bad), 2)], session,
                          stdout=out) == EXIT_QUERY
    assert capsys.readouterr().err == (
        f"gradix: error at line 2: singleton value {bad!r} does not match declared type "
        f"{declared} of 'A'\n")


def test_string_literal_on_decimal_exits_one(workdir, capsys):
    (workdir / "d.csv").write_text("A,rank\n1,0.5\n")
    script = write_script(workdir, f'LOAD D FROM "{workdir}/d.csv" SCHEME A:decimal\n'
                                   'EVAL D JOIN [A: "1"]\n')
    code, out = run_main(["eval", "--lattice", "godel", "--script", script])
    assert code == EXIT_QUERY and out == ""
    assert capsys.readouterr().err == (
        "gradix: error at line 2: singleton value '1' does not match declared type "
        "decimal of 'A'\n")


def test_empty_script_exits_zero(workdir):
    script = write_script(workdir, "")
    code, out = run_main(["eval", "--lattice", "boolean", "--script", script])
    assert code == EXIT_OK and out == ""


def test_check_pass_and_output(capsys):
    code, out = run_main(["check", "--suite", "T1", "--lattice", "godel",
                          "--seed", "7", "--n", "25"])
    assert code == EXIT_OK
    assert "THEOREM T1 instances=25" in out
    assert "status=PASS" in out


def test_check_reports_throughput_on_stderr(capsys):
    from gradix.harness import GenConfig, run_theorem_suite

    code = main(["check", "--suite", "T1", "--lattice", "godel", "--seed", "7", "--n", "25"])
    out, err = capsys.readouterr()
    report = run_theorem_suite("T1", GenConfig(seed=7, lattice=lattice_from_spec("godel")), 25)
    assert code == EXIT_OK
    assert out == report.summary() + "\n"
    assert re.fullmatch(r"TIMING T1 elapsed_s=\d+\.\d{6} instances_per_s=\d+\.\d\n", err)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()
    # a reused parser carries nothing over from an earlier call
    parser = cli.build_parser()
    first = parser.parse_args(["check", "--suite", "T1", "--seed", "5", "--n", "3"])
    second = parser.parse_args(["check", "--suite", "L-semidiff"])
    assert (first.seed, first.n) == (5, 3)
    assert (second.suite, second.seed, second.n, second.lattice) == ("L-semidiff", None, None, None)


def test_check_boolean_suites_ignore_lattice():
    code, out = run_main(["check", "--suite", "boolean-collapse", "--n", "5"])
    assert code == EXIT_OK
    assert "status=PASS" in out


def test_check_on_a_one_element_lattice_is_a_query_error(workdir, capsys):
    # a one-element lattice has no nonzero degree for the generator to draw
    lat_file = workdir / "one.lat"
    lat_file.write_text("carrier 0\n")
    code = main(["check", "--suite", "T1", "--lattice", f"table:{lat_file}", "--n", "2"])
    out, err = capsys.readouterr()
    assert code == EXIT_QUERY
    assert out == "" and err.startswith("gradix: ") and "Traceback" not in err
    # a Boolean suite does not read the lattice it is given
    code = main(["check", "--suite", "L-semidiff", "--lattice", f"table:{lat_file}", "--n", "2"])
    assert code == EXIT_OK


def test_check_unknown_suite():
    code, _ = run_main(["check", "--suite", "bogus"])
    assert code == EXIT_UNKNOWN_SUITE


@pytest.mark.parametrize("n", ["0", "-3", "abc"])
def test_check_count_below_one_is_a_usage_error(capsys, n):
    # a PASS over no instances checks nothing, so it is refused like a non-number
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "T1", "--n", n])
    assert exc.value.code == 2  # argparse's usage error
    out, err = capsys.readouterr()
    assert out == "" and "argument --n" in err and "Traceback" not in err


def test_check_deterministic():
    argv = ["check", "--suite", "C-gsdo-ggdo", "--lattice", "lukasiewicz",
            "--seed", "3", "--n", "20"]
    assert run_main(argv) == run_main(argv)


def test_check_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("GRADIX_SEED", "5")
    _, via_env = run_main(["check", "--suite", "T1", "--n", "10"])
    monkeypatch.delenv("GRADIX_SEED")
    _, via_flag = run_main(["check", "--suite", "T1", "--seed", "5", "--n", "10"])
    assert via_env == via_flag
    # flags win over the environment
    monkeypatch.setenv("GRADIX_SEED", "99")
    _, flag_wins = run_main(["check", "--suite", "T1", "--seed", "5", "--n", "10"])
    assert flag_wins == via_flag


def test_eval_with_finite_table_lattice(workdir):
    """Full path through a lattice file: label-valued ranks in CSV, graded
    operations over a non-chain structure of degrees."""
    lat_file = workdir / "diamond.lat"
    lat_file.write_text(
        "carrier 0 a b 1\n"
        "order 0 a\norder 0 b\norder a 1\norder b 1\n"
        "otimes a a a\notimes a b 0\notimes b b b\n"
    )
    (workdir / "d.csv").write_text("X,rank\nx1,a\nx2,b\nx3,1\n")
    script = write_script(
        workdir,
        f'LOAD D FROM "{workdir}/d.csv" SCHEME X:text\n'
        "EVAL D ISECT D\n"
        "EVAL NABLA(D)\n",
    )
    code, out = run_main(["eval", "--lattice", f"table:{lat_file}", "--script", script])
    assert code == EXIT_OK
    # ranks round-trip as carrier labels, sorted by carrier position
    assert "-- EVAL (line 2)\nX,rank\nx3,1\nx2,b\nx1,a\n" in out
    assert "-- EVAL (line 3)\nX,rank\nx1,1\nx2,1\nx3,1\n" in out


def test_cross_process_determinism(workdir):
    """Identical bytes even under different hash randomization, so nothing
    set-ordered leaks into the output."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import gradix

    # The child must import the gradix under test, whether it comes from a
    # source checkout on PYTHONPATH or from an installed package.
    import_root = str(Path(gradix.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [import_root, os.environ.get("PYTHONPATH")]))

    script = write_script(workdir, SCRIPT.format(d=workdir))
    outputs, saved = [], []
    for hashseed in ("1", "2"):
        out_dir = workdir / f"o{hashseed}"
        proc = subprocess.run(
            [sys.executable, "-m", "gradix.cli", "eval", "--lattice", "godel",
             "--script", script, "--out", str(out_dir)],
            capture_output=True,
            env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
        saved.append((out_dir / "copy.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert saved[0] == saved[1]


def test_an_eadom_past_the_row_bound_ends_in_exit_1(tmp_path):
    """`EADOM[A,B,C,D,E,F,G]` over 20 values an attribute would hold 1.28·10⁹
    rows, on the order of 100 GB.  `gradix eval` refuses it before building
    any row: exit 1, with a message naming the node, the count and the bound,
    within 30 s of wall time and a peak resident set of 150 MB (about 25 MB in
    practice).  The child runs with 1 GB of address space and 60 s of CPU
    time, so that an engine without the bound fails the test and not the
    host."""
    import os
    import resource
    import subprocess
    import sys
    import time
    from pathlib import Path

    import gradix

    import_root = str(Path(gradix.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [import_root, os.environ.get("PYTHONPATH")]))
    attrs = "ABCDEFG"
    lines = [",".join(attrs)] + [",".join(f"{a.lower()}{i}" for a in attrs)
                                 for i in range(20)]
    (tmp_path / "r.csv").write_text("\n".join(lines) + "\n")
    script = write_script(tmp_path, 'LOAD R FROM "r.csv"\nLET X = EADOM[A,B,C,D,E,F,G]\n')

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (60, 60))

    with open(tmp_path / "out", "w") as out, open(tmp_path / "err", "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "gradix.cli", "eval", "--lattice", "godel",
             "--script", script],
            stdout=out, stderr=err, cwd=tmp_path, preexec_fn=limit,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath},
        )
        _pid, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == EXIT_QUERY
    assert (tmp_path / "err").read_text() == (
        "gradix: error at line 2: EADOM[A,B,C,D,E,F,G] would build 1280000000 rows, "
        "more than the bound of 10000000 (table.MAX_ROWS)\n")
    assert elapsed < 30
    assert usage.ru_maxrss < 150 * 1024  # kilobytes on Linux


def test_a_join_on_a_shared_value_past_the_row_bound_ends_in_exit_1(tmp_path):
    """Two 4,000-row tables whose rows all share one value of A would join in
    1.6·10⁷ rows.  `gradix eval` counts them from the join's groups and
    refuses before building any: exit 1, naming the join, the count and the
    bound, under the same limits as the `EADOM` test above."""
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    import gradix

    import_root = str(Path(gradix.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [import_root, os.environ.get("PYTHONPATH")]))
    for name, other in (("r", "B"), ("s", "C")):
        lines = [f"A,{other}"] + [f"a,{other.lower()}{i}" for i in range(4000)]
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
    script = write_script(tmp_path, 'LOAD R FROM "r.csv"\nLOAD S FROM "s.csv"\n'
                                    'LET X = (R JOIN S)\n')

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (60, 60))

    proc = subprocess.run(
        [sys.executable, "-m", "gradix.cli", "eval", "--lattice", "godel", "--script", script],
        capture_output=True, text=True, cwd=tmp_path, preexec_fn=limit, timeout=120,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == EXIT_QUERY
    assert proc.stderr == (
        "gradix: error at line 3: join of tables on ['A', 'B'] and ['A', 'C'] would build "
        "16000000 rows, more than the bound of 10000000 (table.MAX_ROWS)\n")


def test_run_script_direct_api(workdir):
    session = Session(lattice_from_spec("boolean"))
    stmts = parsing.parse_script(
        f'LOAD SP FROM "{workdir}/sp.csv" SCHEME S:text, P:text\n'
        'LET R = PROJECT[S](SP)\n'
    )
    out = io.StringIO()
    assert cli.run_script(stmts, session, stdout=out) == EXIT_OK
    assert sorted(session.tables) == ["R", "SP"]
    assert len(session.tables["R"]) == 2


def test_a_byte_order_mark_is_not_part_of_the_first_attribute(tmp_path):
    (tmp_path / "sp.csv").write_bytes(b"\xef\xbb\xbfS,P,rank\ns1,p1,1\n")
    session, out = Session(lattice_from_spec("boolean")), io.StringIO()
    stmts = parsing.parse_script(f'LOAD SP FROM "{tmp_path}/sp.csv"\nEVAL SP\n'
                                 'EVAL PROJECT[S](SP)\n')
    assert cli.run_script(stmts, session, stdout=out) == EXIT_OK
    assert session.tables["SP"].scheme == frozenset({"S", "P"})
    assert out.getvalue() == ("-- EVAL (line 2)\nP,S,rank\np1,s1,1\n\n"
                              "-- EVAL (line 3)\nS,rank\ns1,1\n\n")


def test_a_script_may_start_with_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.gx", tmp_path / "marked.gx"
    plain.write_bytes(b"EVAL DEE(1)\n")
    marked.write_bytes(b"\xef\xbb\xbfEVAL DEE(1)\n")
    outputs = [run_main(["eval", "--lattice", "godel", "--script", str(path)])
               for path in (plain, marked)]
    assert outputs[0][0] == outputs[1][0] == EXIT_OK
    assert outputs[1][1] == outputs[0][1] != ""


def test_save_of_an_unbound_symbol_is_a_query_error(tmp_path, capsys):
    # the parser refuses it in a script; a library caller can still build it
    session = Session(lattice_from_spec("boolean"))
    stmt = parsing.SaveStmt("X", "x.csv", 1)
    assert cli.run_script([stmt], session, out_dir=tmp_path / "out") == EXIT_QUERY
    assert capsys.readouterr().err == (
        "gradix: error at line 1: relation symbol 'X' is not bound\n")
    assert not (tmp_path / "out").exists()


def test_eval_rejects_nan_decimal_values(tmp_path, capsys):
    (tmp_path / "x.csv").write_text("X,rank\nnan,0.5\nnan,0.7\n")
    script = write_script(tmp_path, f'LOAD T FROM "{tmp_path}/x.csv" SCHEME X:decimal\nEVAL T\n')
    code, out = run_main(["eval", "--lattice", "godel", "--script", script])
    assert code == EXIT_QUERY
    assert out == ""
    assert "not a finite decimal" in capsys.readouterr().err


def test_compiled_text_evaluates_like_the_calculus(tmp_path):
    """`COMPILE` prints each EADOM with the constants on its attributes, so
    `EVAL` of the printed text gives the table `EVALPTC` gives."""
    (tmp_path / "r.csv").write_text("A,B,rank\n1,x,0.5\n2,y,1\n")
    head = (f'LOAD R FROM "{tmp_path}/r.csv" SCHEME A:int, B:text\n'
            "VAR a : {A}\nVAR b : {B}\n")
    # the antecedent is not on b alone, so the ALL divides by EADOM[B]
    formula = 'ALL b . (R(a, b) => [B: "z"](b))'
    script = write_script(tmp_path, f"{head}EVALPTC {formula}\nCOMPILE {formula}\n")
    code, out = run_main(["eval", "--lattice", "godel", "--script", script])
    assert code == EXIT_OK
    evalptc, compiled = out.split("-- COMPILE (line 5)\n")
    assert 'OVER EADOM[A,B; B: "z"]), EADOM[B; B: "z"]; UNIV EADOM[A])' in compiled
    script = write_script(tmp_path, f"{head}EVAL {compiled}")
    code, out = run_main(["eval", "--lattice", "godel", "--script", script])
    assert code == EXIT_OK
    assert out.replace("-- EVAL", "-- EVALPTC") == evalptc == "-- EVALPTC (line 4)\nA,rank\n\n"


#: LOAD statements for binding tests; `Nope` is declared so that a script
#: parses, and left unbound by running the statements after it without it
BINDING_HEAD = """\
LOAD SP FROM "{d}/sp.csv" SCHEME S:text, P:text
LOAD Nope FROM "{d}/p.csv" SCHEME P:text
VAR r : {{S}}
VAR s : {{P}}
"""


@pytest.mark.parametrize("stmt, second", [
    ("EVAL ([S: 3] JOIN Nope)",
     "singleton value 3 does not match declared type text of 'S'"),
    ("LET X = ([P: 1] JOIN (SP JOIN Nope))",
     "singleton value 1 does not match declared type text of 'P'"),
    ("EVALPTC ANY s . ([P: 1](s) * Nope(r, s))",
     "singleton value 1 does not match declared type text of 'P'"),
    # COMPILE checks no value type; its formula is ill-formed before its Nope
    ('COMPILE (ALL r . ([P: "x"](s)) * Nope(r, s))',
     "quantifier binds variables not free in its body"),
], ids=["EVAL", "LET", "EVALPTC", "COMPILE"])
def test_an_unbound_symbol_is_reported_before_any_other_binding_error(workdir, capsys, stmt,
                                                                      second):
    load_sp, load_nope, *rest = parsing.parse_script(BINDING_HEAD.format(d=workdir) + stmt)
    session, out = Session(lattice_from_spec("godel")), io.StringIO()
    assert cli.run_script([load_sp, *rest], session, stdout=out) == EXIT_QUERY
    assert out.getvalue() == ""
    assert capsys.readouterr().err == (
        "gradix: error at line 5: relation symbol 'Nope' is not defined\n")
    # once Nope is bound, the statement's other error is the one reported
    assert cli.run_script([load_nope, rest[-1]], session, stdout=out) == EXIT_QUERY
    assert out.getvalue() == ""
    assert capsys.readouterr().err == f"gradix: error at line 5: {second}\n"


@pytest.mark.parametrize("stmt, value, attr", [
    ("EVAL ([S: 3] JOIN [P: 4])", 3, "S"),
    ("EVAL (SP JOIN ([P: 4] JOIN [S: 3]))", 4, "P"),
    ("EVALPTC (SP(r, s) * ([S: 3](r) * [P: 4](s)))", 3, "S"),
])
def test_the_first_of_two_mistyped_singletons_is_reported(workdir, capsys, stmt, value, attr):
    load_sp, _load_nope, *rest = parsing.parse_script(BINDING_HEAD.format(d=workdir) + stmt)
    session, out = Session(lattice_from_spec("godel")), io.StringIO()
    assert cli.run_script([load_sp, *rest], session, stdout=out) == EXIT_QUERY
    assert capsys.readouterr().err == (
        f"gradix: error at line 5: singleton value {value} does not match declared type "
        f"text of {attr!r}\n")


def test_each_statement_walks_its_expression_once_per_stage(workdir, monkeypatch):
    """EVAL and LET walk their expression to bind and to number it;
    EVALPTC to bind, to check and compile, and to number; COMPILE to bind,
    to check and compile, and to print.  A walk is one `algebra.fold`."""
    stmts = parsing.parse_script(SCRIPT.format(d=workdir) + "LET X = PROJECT[S](SP)\n")
    session = Session(lattice_from_spec("boolean"))
    kinds = (parsing.EvalStmt, parsing.LetStmt, parsing.EvalPtcStmt, parsing.CompileStmt)
    assert cli.run_script([s for s in stmts if type(s) not in kinds], session,
                          out_dir=workdir / "outputs") == EXIT_OK
    calls = []
    fold = ra.fold

    def counting_fold(*args, **kwargs):
        calls.append(args[1])
        return fold(*args, **kwargs)

    monkeypatch.setattr(ra, "fold", counting_fold)
    walks = {parsing.EvalStmt: 2, parsing.LetStmt: 2, parsing.EvalPtcStmt: 3,
             parsing.CompileStmt: 3}
    for stmt in stmts:
        if type(stmt) in kinds:
            calls.clear()
            assert cli.run_script([stmt], session, stdout=io.StringIO()) == EXIT_OK
            assert len(calls) == walks[type(stmt)], (type(stmt).__name__, calls)


def test_eval_names_a_lattice_file_line_given_twice(tmp_path, capsys):
    lat = tmp_path / "lat.txt"
    lat.write_text("carrier 0 1\ncarrier a b c\n")
    script = write_script(tmp_path, "EVAL DEE(1)\n")
    assert main(["eval", "--lattice", f"table:{lat}", "--script", script]) == EXIT_QUERY
    assert capsys.readouterr().err == (
        f"gradix: {lat}:2: a second carrier line (the first is line 1)\n")
    lat.write_text("carrier 0 1\notimes 1 1 1\notimes 1 1 0\n")
    assert main(["eval", "--lattice", f"table:{lat}", "--script", script]) == EXIT_QUERY
    assert capsys.readouterr().err == (
        f"gradix: {lat}:3: otimes 1 1 given twice with different values (1 at line 2, 0 here)\n")


def test_eval_names_a_lattice_file_that_fails_validation(tmp_path, capsys):
    lat = tmp_path / "lat.txt"
    lat.write_text("carrier 0 a b 1\norder 0 a\norder 0 b\n")
    script = write_script(tmp_path, "EVAL DEE(1)\n")
    assert main(["eval", "--lattice", f"table:{lat}", "--script", script]) == EXIT_QUERY
    assert capsys.readouterr().err == (
        f"gradix: {lat}: axiom 'lattice-meet' fails at ('0', '1'): no unique bound\n")


@pytest.mark.parametrize("script, message", [
    ("EVAL [A: 1e400]\n", "script.gx:1:10: number '1e400' is not finite"),
    # a calculus primary that only an atom can be reports the atom's own error
    ("VAR a : {A}\nCOMPILE [A: 1e400](a)\n", "script.gx:2:13: number '1e400' is not finite"),
])
def test_non_finite_number_literal_is_a_query_error(tmp_path, capsys, script, message):
    # a literal too large for a float once read as inf, and COMPILE printed
    # `[A: inf]`, which EVAL could not read back
    assert main(["eval", "--lattice", "godel", "--script", write_script(tmp_path, script)]) \
        == EXIT_QUERY
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err
    assert "Traceback" not in err


LIMIT = parsing.MAX_DEPTH


@pytest.mark.parametrize("terms", [LIMIT, LIMIT + 1, 1000, 10_000])
def test_eval_union_chain_of_any_length(workdir, capsys, terms):
    # only brackets are limited: an infix chain builds an AST as deep as it
    # is long, and the engine folds it without recursing
    chain = " UNION ".join(["SP"] * terms)
    script = write_script(workdir, f'LOAD SP FROM "{workdir}/sp.csv"\nEVAL {chain}\n')
    assert main(["eval", "--lattice", "godel", "--script", script]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert out == "-- EVAL (line 2)\nP,S,rank\np1,s1,1\np1,s2,1\np2,s1,1\n\n"


@pytest.mark.parametrize("depth, code", [(LIMIT, EXIT_OK), (LIMIT + 1, EXIT_QUERY),
                                         (330, EXIT_QUERY)])
def test_eval_nested_nabla_depth_limit(workdir, capsys, depth, code):
    expr = "NABLA(" * depth + "SP" + ")" * depth
    script = write_script(workdir, f'LOAD SP FROM "{workdir}/sp.csv"\nEVAL {expr}\n')
    assert main(["eval", "--lattice", "godel", "--script", script]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert (out != "") == (code == EXIT_OK)


@pytest.fixture
def unreadable(tmp_path):
    """Paths that cannot be read as UTF-8 text files."""
    not_utf8 = b"carrier 0 1\n\xff\xfe\n"
    (tmp_path / "latin1.lat").write_bytes(not_utf8)
    (tmp_path / "latin1.csv").write_bytes(b"A\ncaf\xe9\n")
    (tmp_path / "latin1.gx").write_bytes(b"EVAL EADOM[A]\n# caf\xe9\n")
    (tmp_path / "load.gx").write_text(f'LOAD R FROM "{tmp_path}/latin1.csv" SCHEME A:text\n')
    (tmp_path / "ok.gx").write_text("EVAL DEE(1)\n")
    (tmp_path / "dir.lat").mkdir()
    return tmp_path


@pytest.mark.parametrize("argv, culprit", [
    (["eval", "--lattice", "table:{d}/missing.lat", "--script", "{d}/ok.gx"], "missing.lat"),
    (["eval", "--lattice", "table:{d}/dir.lat", "--script", "{d}/ok.gx"], "dir.lat"),
    (["eval", "--lattice", "table:{d}/latin1.lat", "--script", "{d}/ok.gx"], "latin1.lat"),
    (["check", "--suite", "T1", "--lattice", "table:{d}/missing.lat"], "missing.lat"),
    (["check", "--suite", "T1", "--lattice", "table:{d}/dir.lat"], "dir.lat"),
    (["check", "--suite", "T1", "--lattice", "table:{d}/latin1.lat"], "latin1.lat"),
    (["eval", "--lattice", "godel", "--script", "{d}/latin1.gx"], "latin1.gx"),
    (["eval", "--lattice", "godel", "--script", "{d}/load.gx"], "latin1.csv"),
], ids=["eval-missing-lattice", "eval-directory-lattice", "eval-latin1-lattice",
        "check-missing-lattice", "check-directory-lattice", "check-latin1-lattice",
        "latin1-script", "latin1-csv"])
def test_unreadable_input_is_io_error(unreadable, capsys, argv, culprit):
    code = main([a.format(d=unreadable) for a in argv])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith("gradix: ") and culprit in err
    assert "Traceback" not in err


#: pieces of script text, as bytes; no SAVE, so a drawn script writes no file
SCRIPT_BYTES = st.lists(st.one_of(
    st.binary(max_size=4),
    st.sampled_from([
        b"LOAD R FROM \"r.csv\" SCHEME A:text", b"LOAD", b"FROM", b"SCHEME", b"VAR",
        b"a : {A}", b"LET", b"EVAL", b"EVALPTC", b"COMPILE", b"ALL", b"ANY", b"UNION",
        b"JOIN", b"NABLA", b"EADOM[A]", b"DIV", b"BY", b"OVER", b"PROJECT", b"GTODD",
        b"DEE(1)", b"DEE(\"x\")", b"[A: 1]", b"R", b"a", b"R(a)", b"X", b"=", b"=>",
        b"->", b"*", b"&", b".", b",", b";", b":", b"(", b")", b"[", b"]", b"{", b"}",
        b"\"", b"\\", b"\n", b"\r", b" ", b"#", b"1", b"-0.5", b"1e400", b"\x00",
        b"\xff", b"\xc3", b"\xc3\xa9", b"\xe2\x82\xac", "\u00b2".encode(),
    ]),
), max_size=20).map(b"".join)


# every example writes both files again and none saves, so one directory serves them all
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(SCRIPT_BYTES)
@example(b"EVAL DEE(1\n")  # unbalanced bracket
@example(b"EVAL [A: \"never closed\n")
@example(b"EVAL \x00")
@example(b"EVAL \xff\xfe")
@example(b"LOAD R FROM \"r.csv\" SCHEME A:text\nVAR a : {A}\nEVALPTC ALL a . (R(a))\n")
def test_any_script_bytes_end_in_exit_0_1_or_2(tmp_path, monkeypatch, script):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.csv").write_text("A,rank\nx,0.5\ny,1\n")
    (tmp_path / "script.gx").write_bytes(script)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--lattice", "godel", "--script", "script.gx"])
    assert code in (EXIT_OK, EXIT_QUERY, EXIT_IO)
    assert "Traceback" not in err.getvalue()


#: pieces of CSV text, as bytes: headers, cells and ranks, good and bad
CSV_BYTES = st.lists(st.one_of(
    st.binary(max_size=4),
    st.sampled_from([
        b"A", b"B", b"rank", b"A,rank\n", b"A,B,rank\n", b",", b"\n", b"\r\n", b"\"", b" ",
        b"x", b"1", b"0", b"0.5", b"0.25", b"1.0", b"-0", b"abc", b"0.5x", b"nan", b"inf",
        b"-inf", b"1e400", b"1e308", b"\x00", b"\xff", b"\xc3\xa9", b"\"a,b\"", b"\"\"",
    ]),
), max_size=24).map(b"".join)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["boolean", "godel", "lukasiewicz", "goguen", "chain:5"]), CSV_BYTES)
@example("boolean", b"A,rank\nx,abc\n")
@example("boolean", b"A,rank\nx,0.5x\n")
@example("boolean", b"A,rank\nx,\n")
@example("chain:5", b"A,rank\nx,nan\n")
@example("chain:5", b"A,rank\nx,inf\n")
@example("chain:5", b"A,rank\nx,1e308\n")
def test_any_csv_bytes_end_in_exit_0_1_or_2(tmp_path, monkeypatch, spec, data):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.csv").write_bytes(data)
    (tmp_path / "script.gx").write_text('LOAD R FROM "r.csv"\nEVAL R\n')
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--lattice", spec, "--script", "script.gx"])
    assert code in (EXIT_OK, EXIT_QUERY, EXIT_IO)
    assert "Traceback" not in err.getvalue()


#: pieces of lattice-file text, as bytes
LATTICE_BYTES = st.lists(st.one_of(
    st.binary(max_size=4),
    st.sampled_from([
        b"carrier 0 a 1\n", b"carrier", b"order", b"otimes", b"0", b"a", b"b", b"1", b" ",
        b"\n", b"#", b"order 0 a\n", b"order a 1\n", b"otimes a a a\n", b"otimes a a 0\n",
        b"\x00", b"\xff", b"\xc3\xa9",
    ]),
), max_size=20).map(b"".join)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(LATTICE_BYTES)
@example(b"carrier 0 a 1\norder 0 a\norder a 1\notimes a a a\n")
@example(b"carrier 0 a 1\norder a 0\n")
@example(b"carrier\n")
def test_any_lattice_file_bytes_end_in_exit_0_1_or_2(tmp_path, monkeypatch, data):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "l.lat").write_bytes(data)
    (tmp_path / "r.csv").write_text("A,rank\nx,1\ny,a\n")
    (tmp_path / "script.gx").write_text('LOAD R FROM "r.csv"\nEVAL NABLA(R)\n')
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--lattice", "table:l.lat", "--script", "script.gx"])
    assert code in (EXIT_OK, EXIT_QUERY, EXIT_IO)
    assert "Traceback" not in err.getvalue()
