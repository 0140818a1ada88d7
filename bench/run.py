#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of gradix (standard library only).

    python3 bench/run.py --workload query-bulk --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # each workload in its own process

Run from the repository root; the engine is imported from ``src/``.  The
workloads are described in ``bench/spec.py``.

``--trace 0`` sets the workload up several times (fresh import of gradix,
input generation, file writes, and on harness-suites the lattice search)
and reports the median as ``setup_s``, then runs whole passes of ops in a
closed loop, one op at a time, until at least ``--seconds`` of op time and
100 ops are done.  Every op's output is checked outside its timed region;
an exception or a wrong output counts as failed.  The last stdout line is
one JSON object with the end-to-end metrics.

The end-to-end times are host-normalised seconds.  A shared host's speed
drifts by half or more within seconds, so every set-up and every op is
bracketed by two runs of `ReferenceLoop`, a fixed piece of pure-Python
work, and its wall time is scaled by ``REF_S / (mean of the two reference
times)``: the time it would take on a host where the loop takes ``REF_S``.
A regression in gradix moves the normalised time as it moves the wall
time; a change of host speed moves both the op and the loop and cancels.
The wall-clock values are printed too, on ``wall.*`` lines.

``--trace 1`` makes a fixed number of passes without tracing, then the same
passes again with `layertrace.Tracer` installed, and reports the per-layer
metrics of the traced passes; counts repeat exactly for a given seed.

The benchmark's own tests: ``python -m pytest bench``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
#: nominal duration of `ReferenceLoop.time()`, near its duration on an idle
#: 2-core x86-64 host with CPython 3.11
REF_S = 0.001
MIN_OPS = 100
TRACE_PASSES = {"query-bulk": 1, "harness-suites": 2, "cli-session": 2}
MAX_LOGGED_FAILURES = 5

_MODULES = (("cli", "gradix.cli"), ("parsing", "gradix.parsing"),
            ("algebra", "gradix.algebra"), ("table", "gradix.table"),
            ("lattice", "gradix.lattice"), ("gen", "gradix.harness.gen"),
            ("suites", "gradix.harness.suites"), ("latsearch", "gradix.harness.latsearch"))


def workload_class(name: str):
    if name == "query-bulk":
        from query_bulk import QueryBulk
        return QueryBulk
    if name == "harness-suites":
        from harness_suites import HarnessSuites
        return HarnessSuites
    if name == "cli-session":
        from cli_session import CliSession
        return CliSession
    raise KeyError(name)


def fresh_import():
    """Import gradix from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "gradix" or n.startswith("gradix.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{attr: importlib.import_module(mod)
                                    for attr, mod in _MODULES})


def set_up(cls, workdir: Path, seed: int, size: str, repeats: int, loop):
    """The workload after the last of `repeats` set-ups, and the wall time
    of each set-up with the reference loop's mean time around it."""
    walls, refs = [], []
    workload = None
    for _ in range(repeats):
        workload = None  # release the previous set-up's data first
        before = loop.time()
        t0 = time.perf_counter()
        workload = cls(fresh_import(), workdir, seed, size)
        walls.append(time.perf_counter() - t0)
        refs.append((before + loop.time()) / 2)
    return workload, (walls, refs)


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, label: str, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= MAX_LOGGED_FAILURES:
                print(f"bench: op {label} failed: {detail}", file=sys.stderr)


def settle(full: bool) -> None:
    """Move every object allocated so far out of the collector's generations,
    so that the garbage-collection work inside the next op depends on that
    op's own allocations and not on how much earlier ops left behind.  A
    full collection first, once per pass, frees earlier cyclic garbage."""
    if full:
        gc.unfreeze()
        gc.collect()
    gc.freeze()


def run_op(op):
    """(seconds, output, traceback text or None) of one op."""
    settle(full=False)
    t0 = time.perf_counter()
    try:
        out = op()
    except Exception:
        return time.perf_counter() - t0, None, traceback.format_exc()
    return time.perf_counter() - t0, out, None


def check_op(workload, counter: Counter, index: int, out, error) -> None:
    label = f"{workload.name}#{index}"
    if error is not None:
        counter.record(False, label, error)
        return
    try:
        ok = workload.check(index, out)
    except Exception:
        counter.record(False, label, traceback.format_exc())
        return
    counter.record(ok, label, "wrong output")


class ReferenceLoop:
    """A fixed piece of pure-Python work of the kind gradix's operators do
    (tuple keys, dict lookups and stores, float comparisons).  Timed right
    before and right after a set-up or an op, it gives the host's speed at
    that moment."""

    def __init__(self):
        self.keys = [(f"s{i % 400:03d}", f"p{i * 7 % 401:03d}") for i in range(3000)]

    def time(self) -> float:
        t0 = time.perf_counter()
        d: dict = {}
        for i, key in enumerate(self.keys):
            d[key] = max(d.get(key, 0.0), (i % 20) / 20)
        return time.perf_counter() - t0


def measure(workload, seconds: float, counter: Counter, loop: ReferenceLoop) -> tuple:
    """Per-op wall times of whole passes until `seconds` of op time and
    MIN_OPS, and for each op the reference loop's mean time around it."""
    times: list = []
    refs: list = []
    busy = 0.0
    passes = 0
    while passes == 0 or busy < seconds or len(times) < MIN_OPS:
        settle(full=True)
        for index, op in workload.ops(passes):
            before = loop.time()
            dt, out, error = run_op(op)
            refs.append((before + loop.time()) / 2)
            times.append(dt)
            busy += dt
            check_op(workload, counter, index, out, error)
        passes += 1
    return times, refs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timing_metrics(setup: list, times: list) -> dict:
    """setup_s, ops_per_s, op_p50_s and op_p90_s of set-up and op times."""
    q = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": q[4],
        "op_p90_s": q[8],
    }


def end_to_end(workload, seconds: float, setup: tuple, counter: Counter,
               loop: ReferenceLoop) -> dict:
    """Host-normalised end-to-end metrics; the wall-clock ones are printed."""
    times, refs = measure(workload, seconds, counter, loop)
    setup_walls, setup_refs = setup
    wall = timing_metrics(setup_walls, times)
    for key, value in wall.items():
        print(f"wall.{key} {value} {'1/s' if key == 'ops_per_s' else 's'}")
    print(f"wall.reference_loop_p50_s {statistics.median(setup_refs + refs)} s")
    values = timing_metrics([w * REF_S / r for w, r in zip(setup_walls, setup_refs)],
                            [t * REF_S / r for t, r in zip(times, refs)])
    values["peak_rss_mb"] = peak_rss_mb()
    return values


def traced(workload, name: str, seed: int, counter: Counter) -> dict:
    from layertrace import Tracer

    def passes():
        wall = 0.0
        outputs = []
        for p in range(TRACE_PASSES[name]):
            settle(full=True)
            for index, op in workload.ops(p):
                dt, out, error = run_op(op)
                wall += dt
                outputs.append((index, out, error))
        return wall, outputs

    plain_wall, plain_out = passes()
    tracer = Tracer()
    tracer.install()
    try:
        traced_setup = getattr(workload, "traced_setup", None)
        if traced_setup is not None:
            traced_setup(tracer)
        traced_wall, traced_out = passes()
    finally:
        tracer.uninstall()
    for index, out, error in plain_out + traced_out:
        check_op(workload, counter, index, out, error)
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / "spans" / f"{name}-seed{seed}.csv")
    return layer_metrics(tracer, traced_wall / plain_wall)


def layer_metrics(tr, overhead: float) -> dict:
    from spec import DIVISIONS, LATTICE_OPS, PER_LAYER, TABLE_OPS

    aggs, totals = tr.aggs, tr.totals
    agg = aggs.__getitem__  # an empty aggregate for a span that never opened

    def layer_self(prefix) -> float:
        return sum((a.self_s for n, a in aggs.items() if n.startswith(prefix)), 0.0)

    m = {f"lattice.{op}.calls": totals[f"lattice.{op}"] for op in LATTICE_OPS}
    m["lattice.load_file_s"] = agg("lattice.load_lattice_file").total_s
    m["table.Tuple.calls"] = totals["table.Tuple"]
    m["table.RankedDataTable.calls"] = totals["table.RankedDataTable"]
    m["table.RankedDataTable.rows_in"] = totals["table.RankedDataTable.rows_in"]
    for op in TABLE_OPS:
        a = agg(f"table.{op}")
        m[f"table.{op}.self_s"] = a.self_s
        m[f"table.{op}.rows_in"] = a.counts["rows_in"]
        m[f"table.{op}.rows_out"] = a.counts["rows_out"]
    m["table.read_csv.s"] = agg("table.read_csv").total_s
    m["table.read_csv.rows"] = agg("table.read_csv").counts["rows_out"]
    m["table.write_csv.s"] = agg("table.write_csv").total_s
    m["table.write_csv.bytes"] = agg("table.write_csv").counts["bytes"]
    for op in DIVISIONS:
        a = agg(f"division.{op}")
        m[f"division.{op}.self_s"] = a.self_s
        m[f"division.{op}.rows_out"] = a.counts["rows_out"]
        m[f"division.{op}.residuum_calls"] = a.counts["lattice.residuum"]
    m["algebra.eval_ra.calls"] = agg("algebra.eval_ra").calls
    m["algebra.eval_ra.self_s"] = agg("algebra.eval_ra").self_s
    m["algebra.scheme_of.calls"] = totals["algebra.scheme_of"]
    m["algebra.eadom.s"] = agg("algebra.eadom").total_s
    m["algebra.eadom.rows"] = agg("algebra.eadom").counts["rows_out"]
    m["parsing.parse_script.s"] = agg("parsing.parse_script").total_s
    m["parsing.tokens"] = totals["parsing.tokens"]
    m["ptc.eval_ptc.calls"] = agg("ptc.eval_ptc").calls
    m["ptc.eval_ptc.self_s"] = agg("ptc.eval_ptc").self_s
    m["ptc.compile_ptc_to_ra.s"] = agg("ptc.compile_ptc_to_ra").total_s
    m["cli.run_script.self_s"] = agg("cli.run_script").self_s
    m["harness.gen.s"] = layer_self("harness.gen.")
    m["harness.oracle.s"] = layer_self("harness.oracle.")
    m["harness.suites.self_s"] = agg("harness.run_theorem_suite").self_s
    m["harness.latsearch.s"] = agg("harness.latsearch").total_s
    m["harness.latsearch.structures"] = totals["harness.latsearch.structures"]
    m["trace.overhead"] = overhead
    assert set(m) == set(PER_LAYER), sorted(set(m) ^ set(PER_LAYER))
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    from spec import END_TO_END, PER_LAYER

    cls = workload_class(name)
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    counter = Counter()
    try:
        loop = ReferenceLoop()
        workload, setup = set_up(cls, workdir, seed, size,
                                 1 if trace else SETUP_REPEATS, loop)
        if trace:
            values = traced(workload, name, seed, counter)
            units = {k: unit for k, (unit, _moves) in PER_LAYER.items()}
        else:
            values = end_to_end(workload, seconds, setup, counter, loop)
            units = {k: unit for k, (unit, _b, _bound) in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {name} seed {seed} size {size} trace {int(trace)}: "
          f"{counter.attempted} ops, {counter.failed} failed")
    for key, value in values.items():
        print(f"{key} {value} {units[key]}")
    print(f"fail_ratio {counter.failed / counter.attempted} ratio")
    return {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    from spec import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} exited with {proc.returncode}")
        print("\n".join(f"{name}: {line}" for line in lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["query-bulk", "harness-suites", "cli-session", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="op time to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input sizes; tiny is for smoke tests")
    args = parser.parse_args(argv)
    if not (SRC / "gradix" / "__init__.py").is_file():
        print(f"bench: gradix sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    if args.seconds is None:
        from spec import RUN_SECONDS
        args.seconds = RUN_SECONDS
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


def pin_hash_seed(argv) -> None:
    """Re-execute with PYTHONHASHSEED taken from --seed.  Set iteration order
    decides how far some short-circuiting loops run, so traced counts repeat
    exactly only when string hashing is a function of the seed too."""
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=1)
    wanted = str(seed.parse_known_args(argv)[0].seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        env = {**os.environ, "PYTHONHASHSEED": wanted}
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


if __name__ == "__main__":
    pin_hash_seed(sys.argv[1:])
    sys.exit(main())
