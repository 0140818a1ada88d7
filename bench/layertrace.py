"""Layer tracing for the traced benchmark run, installed from outside the
engine.

`Tracer.install()` replaces each traced public function in every gradix
module namespace that binds it (``division`` imports ``natural_join`` and
``projection`` by name and ``cli`` imports ``read_csv`` and
``table_to_csv`` by name, so patching only the defining module would miss
those calls).  Lattice operations and ``Tuple``/``RankedDataTable``
constructions are counted at class level.  Spans (id, parent, name, start,
end) stay in memory until `write_spans`; self time is a span's duration
minus the time its child spans cover, and every count is attributed to the
innermost open span.  `uninstall()` restores the original objects; the
untraced run never installs anything.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

from spec import LATTICE_OPS, TABLE_OPS

ROOT = "<root>"


class _Agg:
    __slots__ = ("calls", "self_s", "total_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.counts = defaultdict(int)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []      # (id, parent id, name, start, end)
        self.aggs: dict[str, _Agg] = defaultdict(_Agg)
        self.totals: dict[str, int] = defaultdict(int)
        # open spans: [id, name, start, child time, aggregate]
        self._stack = [[0, ROOT, 0.0, 0.0, self.aggs[ROOT]]]
        self._next_id = 1
        self._undo: list = []
        self._t0 = time.perf_counter()

    # -- spans and counts ---------------------------------------------------

    def count(self, key: str, k: int = 1) -> None:
        self._stack[-1][4].counts[key] += k
        self.totals[key] += k

    def open(self, name: str):
        frame = [self._next_id, name, time.perf_counter(), 0.0, self.aggs[name]]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is frame, "span stack out of order"
        span_id, name, start, child, agg = frame
        dur = end - start
        agg.calls += 1
        agg.total_s += dur
        agg.self_s += dur - child
        parent = self._stack[-1]
        parent[3] += dur
        self.spans.append((span_id, parent[0], name, start - self._t0, end - self._t0))

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.open(name)
        try:
            yield frame
        finally:
            self.close(frame)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items()
                if m is not None and (n == "gradix" or n.startswith("gradix."))}
        table, lattice = mods["gradix.table"], mods["gradix.lattice"]
        algebra, parsing, ptc = mods["gradix.algebra"], mods["gradix.parsing"], mods["gradix.ptc"]
        span, rows_span = self._span, self._rows_span
        wrappers = [rows_span(f"table.{f}", getattr(table, f)) for f in TABLE_OPS]
        wrappers += [rows_span(f"division.{f}", fn, rows_in=False)
                     for f, fn in _public_functions(mods["gradix.division"])]
        for layer in ("gen", "oracle"):
            wrappers += [span(f"harness.{layer}.{f}", fn)
                         for f, fn in _public_functions(mods[f"gradix.harness.{layer}"])]
        wrappers += [
            rows_span("table.read_csv", table.read_csv, rows_in=False),
            self._write_csv(table.write_csv),
            span("algebra.eval_ra", algebra.eval_ra),
            rows_span("algebra.eadom", algebra.eadom, rows_in=False),
            self._counter("algebra.scheme_of", algebra.scheme_of),
            span("parsing.parse_script", parsing.parse_script),
            self._tokens(parsing.tokenize),
            span("ptc.eval_ptc", ptc.eval_ptc),
            span("ptc.compile_ptc_to_ra", ptc.compile_ptc_to_ra),
            span("cli.run_script", mods["gradix.cli"].run_script),
            span("lattice.load_lattice_file", lattice.load_lattice_file),
            span("harness.run_theorem_suite", mods["gradix.harness.suites"].run_theorem_suite),
        ]

        # rebind in every namespace that holds one of the originals
        by_original = {id(w.__wrapped__): w for w in wrappers}
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                w = by_original.get(id(value))
                if w is not None and w.__wrapped__ is value:
                    setattr(mod, attr, w)
                    self._undo.append((mod, attr, value))

        # class-level counters
        self._patch_init(table.Tuple, "table.Tuple", rows=False)
        self._patch_init(table.RankedDataTable, "table.RankedDataTable", rows=True)
        for cls in _subclasses(lattice.ResiduatedLattice):
            for op in LATTICE_OPS:
                fn = cls.__dict__.get(op)
                if fn is not None:
                    setattr(cls, op, self._counter(f"lattice.{op}", fn))
                    self._undo.append((cls, op, fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- wrapper factories --------------------------------------------------

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)
        return wrapper

    def _rows_span(self, name, fn, rows_in=True):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(frame)
            agg = frame[4]
            if rows_in:
                agg.counts["rows_in"] += sum(len(a) for a in args if hasattr(a, "rows"))
            agg.counts["rows_out"] += len(out)
            return out
        return wrapper

    def _write_csv(self, fn):
        @functools.wraps(fn)
        def wrapper(d, out):
            sink = _CountingWriter(out)
            frame = self.open("table.write_csv")
            try:
                return fn(d, sink)
            finally:
                self.close(frame)
                frame[4].counts["bytes"] += sink.bytes
        return wrapper

    def _tokens(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.count("parsing.tokens", len(out))
            return out
        return wrapper

    def _counter(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return wrapper

    def _patch_init(self, cls, key, rows):
        init = cls.__dict__["__init__"]
        count = self.count

        if rows:
            def wrapper(obj, scheme, lattice, rows=()):
                if not hasattr(rows, "__len__"):
                    rows = list(rows)
                count(key)
                count(key + ".rows_in", len(rows))
                init(obj, scheme, lattice, rows)
        else:
            def wrapper(obj, *args, **kwargs):
                count(key)
                init(obj, *args, **kwargs)

        cls.__init__ = wrapper
        self._undo.append((cls, "__init__", init))

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(f"{span_id},{parent},{name},{start:.9f},{end:.9f}\n")


class _CountingWriter:
    """File-like proxy that counts the UTF-8 bytes written through it."""

    def __init__(self, out):
        self._out = out
        self.bytes = 0

    def write(self, s):
        self.bytes += len(s.encode("utf-8"))
        return self._out.write(s)


def _public_functions(module):
    for name, fn in sorted(vars(module).items()):
        if (inspect.isfunction(fn) and not name.startswith("_")
                and fn.__module__ == module.__name__):
            yield name, fn


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out
