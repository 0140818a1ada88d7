"""What the benchmark measures and why: workloads, end-to-end metrics and
per-layer metrics.  `BENCHMARK.json` at the repository root is generated
from this file (``python3 bench/spec.py``); the fields that file has no
room for (sizes, lattices, the op, the layers stressed and bypassed, and
which end-to-end metric each per-layer metric should move) live here.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 25

WORKLOADS = {
    "query-bulk": dict(
        why="bulk ranked queries: table and division operators, CSV read and write on 20k-row tables",
        sizes="SP 20,000 rows and SP2 20,000 rows over 400 suppliers x 400 parts; divisor 50 rows "
              "with a planted 40-supplier cover; 10 projects x 10 parts; Great/Darwen block "
              "10 suppliers, 150-row mediator",
        lattices=["godel"],
        op="one statement of a 25-statement script (10 LOAD, 13 EVAL, 1 LET, 1 SAVE) run by "
           "cli.run_script on a shared Session",
        stresses=["table operators", "division", "table.read_csv", "table.write_csv", "lattice ops"],
        bypasses=["ptc", "harness", "lattice.load_lattice_file",
                  "parsing (the script is parsed once in set-up)",
                  "per-call overhead (38 table constructions per pass)"],
    ),
    "harness-suites": dict(
        why="theorem suites on thousands of tiny tables: per-call overhead, generators, oracles",
        sizes="20 instances per suite batch; T1 on the witness lattice 1,500 instances; "
              "lattice search up to carrier 6 (179 structures) in set-up",
        lattices=["lukasiewicz", "chain:5", "carrier-6 witness", "boolean (Boolean suites)"],
        op="one run_theorem_suite call on one (suite, lattice) pair with its own derived seed; "
           "30 pairs per pass",
        stresses=["table construction", "harness.gen", "harness.oracle", "algebra.scheme_of",
                  "evaluator set-up", "finite-table lattice arithmetic", "harness.latsearch"],
        bypasses=["parsing", "cli", "table.read_csv", "bulk row throughput"],
    ),
    "cli-session": dict(
        why="many small eval scripts: parsing, per-statement instance rebuild, EADOM, eval_ptc",
        sizes="24 scripts, 8 per lattice; each 3 tables with about 20 values and 80 rows",
        lattices=["lukasiewicz", "chain:5", "table:bench/witness6.lat"],
        op="one in-process cli.main eval run of one script (LOAD, VAR, EVALPTC and COMPILE "
           "with ALL/ANY/=>, EVAL EADOM, GTODD, LET, SAVE)",
        stresses=["parsing", "ptc.eval_ptc", "ptc.compile_ptc_to_ra", "algebra.eadom",
                  "cli.run_script", "lattice.load_lattice_file", "Tuple construction"],
        bypasses=["harness", "large tables"],
    ),
}

#: name: (unit, better, bound).  The times are host-normalised seconds (see
#: ``bench/run.py``): wall time scaled by the host's speed measured with a
#: reference loop right before and after each set-up and each op.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "op_p50_s": ("s", "lower", 0.25),
    "op_p90_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

LATTICE_OPS = ("check", "meet", "join", "otimes", "residuum")
TABLE_OPS = ("natural_join", "projection", "union", "intersection", "semijoin",
             "difference_graded", "residuum_with_range", "nabla", "delta")
DIVISIONS = ("div_ranged", "div_gsdo", "div_gsd", "div_gcodd", "div_gtodd", "div_ggdo",
             "div_gddo", "semidifference")


def _per_layer():
    m = {}
    for op in LATTICE_OPS:
        m[f"lattice.{op}.calls"] = ("count", "ops_per_s on query-bulk, then cli-session")
    m["lattice.load_file_s"] = ("s", "op_p50_s on cli-session")
    for name in ("table.Tuple.calls", "table.RankedDataTable.calls",
                 "table.RankedDataTable.rows_in"):
        m[name] = ("count", "ops_per_s on harness-suites and cli-session")
    for op in TABLE_OPS:
        m[f"table.{op}.self_s"] = ("s", "op_p50_s on query-bulk")
        m[f"table.{op}.rows_in"] = ("rows", "op_p50_s on query-bulk")
        m[f"table.{op}.rows_out"] = ("rows", "op_p50_s on query-bulk")
    m["table.read_csv.s"] = ("s", "op_p90_s on query-bulk")
    m["table.read_csv.rows"] = ("rows", "op_p90_s on query-bulk")
    m["table.write_csv.s"] = ("s", "op_p90_s on query-bulk")
    m["table.write_csv.bytes"] = ("bytes", "op_p90_s on query-bulk")
    for op in DIVISIONS:
        moves = "op_p90_s on query-bulk and ops_per_s on harness-suites"
        m[f"division.{op}.self_s"] = ("s", moves)
        m[f"division.{op}.rows_out"] = ("rows", moves)
        m[f"division.{op}.residuum_calls"] = ("count", moves)
    moves = "ops_per_s on harness-suites and cli-session"
    m["algebra.eval_ra.calls"] = ("count", moves)
    m["algebra.eval_ra.self_s"] = ("s", moves)
    m["algebra.scheme_of.calls"] = ("count", moves)
    m["algebra.eadom.s"] = ("s", moves)
    m["algebra.eadom.rows"] = ("rows", moves)
    m["parsing.parse_script.s"] = ("s", "op_p50_s on cli-session")
    m["parsing.tokens"] = ("count", "op_p50_s on cli-session")
    m["ptc.eval_ptc.calls"] = ("count", "op_p50_s on cli-session")
    m["ptc.eval_ptc.self_s"] = ("s", "op_p50_s on cli-session")
    m["ptc.compile_ptc_to_ra.s"] = ("s", "op_p50_s on cli-session")
    m["cli.run_script.self_s"] = ("s", "op_p50_s on cli-session")
    m["harness.gen.s"] = ("s", "ops_per_s on harness-suites")
    m["harness.oracle.s"] = ("s", "ops_per_s on harness-suites")
    m["harness.suites.self_s"] = ("s", "ops_per_s on harness-suites")
    m["harness.latsearch.s"] = ("s", "setup_s on harness-suites")
    m["harness.latsearch.structures"] = ("count", "setup_s on harness-suites")
    m["trace.overhead"] = ("ratio", "none: traced wall time over untraced wall time of the "
                           "same ops, per workload")
    return m


#: name: (unit, the end-to-end metric and workload it should move)
PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]} for name, w in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": "lower"}
                      for name, (unit, _moves) in PER_LAYER.items()],
    }


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out.write_text(json.dumps(benchmark_json(), indent=2, ensure_ascii=False) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
