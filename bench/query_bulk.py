"""query-bulk: ranked supplier/part queries through `cli.run_script`.

One op is one statement of a fixed script, run on a shared `Session` over
the Gödel lattice: the LOADs, an EVAL of every table operator and every
graded division, a LET and a SAVE of the large join.  The data are
planted: a supplier cover supplies every part of the divisor, so each
division returns a non-empty ranked answer instead of the empty table
that uniform random data gives.  The Great/Darwen divisions run on a
smaller block of their own, because the default ``joinable`` GDDO costs
|D1⋈D2|·|D4|·|D3|.

Outputs are checked against `Reference`, plain-dict code that recomputes a
seeded sample of result tuples and of non-result tuples (which must score
0) from the generated input rows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from pathlib import Path

SIZES = {
    # suppliers, parts, SP rows, divisor rows, cover suppliers, categories,
    # projects, parts per project, cities, Great-block suppliers, Great-block
    # mediator rows
    "full": dict(n_s=400, n_p=400, n_sp=20000, n_dp=50, n_cover=40, n_c=20,
                 n_t=10, per_t=10, n_city=10, n_gs=10, n_gsp=150),
    "tiny": dict(n_s=30, n_p=30, n_sp=200, n_dp=6, n_cover=3, n_c=4,
                 n_t=4, per_t=3, n_city=3, n_gs=4, n_gsp=20),
}

#: (check kind, statement); {name} fields are replaced by CSV paths.  With
#: 25 statements the median and the 90th percentile of a whole number of
#: passes fall in the middle of one statement's cluster of op times (ranks
#: 12.5 and 22.5 of 25), not on the edge between two clusters.
SCRIPT = (
    ("load", 'LOAD SP FROM "{SP}" SCHEME S:text, P:text'),
    ("load", 'LOAD SP2 FROM "{SP2}" SCHEME S:text, P:text'),
    ("load", 'LOAD DP FROM "{DP}" SCHEME P:text'),
    ("load", 'LOAD SUP FROM "{SUP}" SCHEME S:text'),
    ("load", 'LOAD PC FROM "{PC}" SCHEME P:text, C:text'),
    ("load", 'LOAD PT FROM "{PT}" SCHEME P:text, T:text'),
    ("load", 'LOAD SCITY FROM "{SCITY}" SCHEME S:text, CITY:text'),
    ("load", 'LOAD DPW FROM "{DPW}" SCHEME P:text, W:text'),
    ("load", 'LOAD GS FROM "{GS}" SCHEME S:text'),
    ("load", 'LOAD GSP FROM "{GSP}" SCHEME S:text, P:text'),
    ("let", "LET J = (SP JOIN PC)"),
    ("project_sc", "EVAL PROJECT[S, C](J)"),
    ("semijoin", "EVAL SEMIJOIN(SP, DP)"),
    ("union", "EVAL (SP UNION SP2)"),
    ("res", "EVAL RES(SP -> SP2 OVER SP)"),
    ("nabla", "EVAL NABLA(SEMIJOIN(SP2, DP))"),
    ("delta", "EVAL DELTA(SP)"),
    ("div", "EVAL DIV(SP BY DP OVER PROJECT[S](SP))"),
    ("gsdo", "EVAL GSDO(SUP, DP; MED SP)"),
    ("gsd", "EVAL GSD(SCITY, DPW; MED SP)"),
    ("gcodd", "EVAL GCODD(SP, DP; UNIV NABLA(SUP))"),
    ("gtodd", "EVAL GTODD(SP, PT; UNIV (NABLA(SUP) JOIN NABLA(PROJECT[T](PT))))"),
    ("ggdo", "EVAL GGDO(GS, PROJECT[T](PT); MED GSP, PT)"),
    ("gddo", "EVAL GDDO(GS, PROJECT[T](PT); MED GSP, PT)"),
    ("save", 'SAVE J TO "join.csv"'),
)

#: attribute order of each input table
SCHEMES = {"SP": ("S", "P"), "SP2": ("S", "P"), "DP": ("P",), "SUP": ("S",),
           "PC": ("P", "C"), "PT": ("P", "T"), "SCITY": ("S", "CITY"),
           "DPW": ("P", "W"), "GS": ("S",), "GSP": ("S", "P")}

SAMPLE = 25


def _rank(rng: random.Random) -> str:
    return f"{rng.randint(1, 20) / 20:.9g}"


def generate(seed: int, size: str) -> tuple[dict, dict]:
    """Planted input tables as {name: {value tuple: rank text}} plus the
    value domain of each attribute."""
    z = SIZES[size]
    rng = random.Random(f"query-bulk/{seed}")
    dom = {
        "S": [f"s{i:03d}" for i in range(z["n_s"])],
        "P": [f"p{i:03d}" for i in range(z["n_p"])],
        "C": [f"c{i:02d}" for i in range(z["n_c"])],
        "T": [f"t{i:02d}" for i in range(z["n_t"])],
        "CITY": [f"city{i}" for i in range(z["n_city"])],
        "W": ["light", "medium", "heavy"],
    }
    dp = rng.sample(dom["P"], z["n_dp"])
    cover = rng.sample(dom["S"], z["n_cover"])

    def sp_table(planted):
        rows = {}
        if planted:
            for s in cover:
                for p in dp:
                    rows[(s, p)] = _rank(rng)
        while len(rows) < z["n_sp"]:
            rows[(rng.choice(dom["S"]), rng.choice(dom["P"]))] = _rank(rng)
        return rows

    t = {"SP": sp_table(True), "SP2": sp_table(False)}
    t["DP"] = {(p,): _rank(rng) for p in dp}
    t["SUP"] = {(s,): _rank(rng) for s in dom["S"]}
    t["PC"] = {(p, rng.choice(dom["C"])): _rank(rng) for p in dom["P"]}
    t["PT"] = {}
    parts_of = {}
    for proj in dom["T"]:
        parts_of[proj] = rng.sample(dp, z["per_t"])
        for p in parts_of[proj]:
            t["PT"][(p, proj)] = _rank(rng)
    t["SCITY"] = {(s, rng.choice(dom["CITY"])): _rank(rng) for s in dom["S"]}
    t["DPW"] = {(p, rng.choice(dom["W"])): _rank(rng) for p in dp}
    gs = rng.sample(dom["S"], z["n_gs"])
    t["GS"] = {(s,): _rank(rng) for s in gs}
    gsp = {}
    for s in gs[: len(gs) // 2]:  # planted: half the block covers one project
        for p in parts_of[rng.choice(dom["T"])]:
            gsp[(s, p)] = _rank(rng)
    while len(gsp) < z["n_gsp"]:
        gsp[(rng.choice(gs), rng.choice(dom["P"]))] = _rank(rng)
    t["GSP"] = gsp
    return t, dom


def write_csv(path: Path, attrs, rows) -> None:
    """A CSV table: header of attribute names plus rank, then the rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(list(attrs) + ["rank"])
        for key, rank in rows.items():
            w.writerow(list(key) + [rank])


def quote_path(path: Path) -> str:
    """A path as the body of a script string literal."""
    return str(path).replace("\\", "\\\\").replace('"', '\\"')


class Reference:
    """Independent Gödel-lattice scores of every statement's result, from
    the input rows with plain dicts (⊗ = ∧ = min, ∨ = max, a→b = 1 if a ≤ b
    else b)."""

    def __init__(self, tables: dict):
        self.t = {name: {k: float(v) for k, v in rows.items()} for name, rows in tables.items()}
        sp = self.t["SP"]
        self.sp_by_s: dict = {}
        for (s, p), a in sp.items():
            self.sp_by_s.setdefault(s, []).append((p, a))
        self.pt_by_t: dict = {}
        for (p, proj), a in self.t["PT"].items():
            self.pt_by_t.setdefault(proj, []).append((p, a))
        self.dpw_p: dict = {}
        for (p, _w), a in self.t["DPW"].items():
            self.dpw_p[p] = max(self.dpw_p.get(p, 0.0), a)

    def get(self, name, *key) -> float:
        return self.t[name].get(key, 0.0)

    @staticmethod
    def imp(a: float, b: float) -> float:
        return 1.0 if a <= b else b

    def _inf_div(self, divisor, scores) -> float:
        # ⋀ over the divisor rows of divisor(p) → scores(p); ⋀∅ = 1
        return min((self.imp(b, scores(p)) for p, b in divisor), default=1.0)

    def score(self, kind: str, r: dict) -> float:
        g = self.get
        if kind == "J":
            return min(g("SP", r["S"], r["P"]), g("PC", r["P"], r["C"]))
        if kind == "project_sc":
            return max((min(a, g("PC", p, r["C"])) for p, a in self.sp_by_s.get(r["S"], ())
                        if g("PC", p, r["C"]) > 0), default=0.0)
        if kind == "semijoin":
            return min(g("SP", r["S"], r["P"]), g("DP", r["P"]))
        if kind == "union":
            return max(g("SP", r["S"], r["P"]), g("SP2", r["S"], r["P"]))
        if kind == "res":
            a = g("SP", r["S"], r["P"])
            return min(a, self.imp(a, g("SP2", r["S"], r["P"])))
        if kind == "nabla":
            return 1.0 if g("SP2", r["S"], r["P"]) > 0 and g("DP", r["P"]) > 0 else 0.0
        if kind == "delta":
            return 1.0 if g("SP", r["S"], r["P"]) == 1.0 else 0.0
        dp = [(p, b) for (p,), b in self.t["DP"].items()]
        if kind == "div":
            rng = max((a for _p, a in self.sp_by_s.get(r["S"], ())), default=0.0)
            return min(rng, self._inf_div(dp, lambda p: g("SP", r["S"], p))) if rng else 0.0
        if kind == "gsdo":
            a = g("SUP", r["S"])
            return min(a, self._inf_div(dp, lambda p: g("SP", r["S"], p))) if a else 0.0
        if kind == "gsd":
            a = g("SCITY", r["S"], r["CITY"])
            body = self._inf_div(self.dpw_p.items(), lambda p: g("SP", r["S"], p))
            return min(a, body) if a else 0.0
        if kind == "gcodd":
            if not g("SUP", r["S"]):
                return 0.0
            return self._inf_div(dp, lambda p: g("SP", r["S"], p))
        if kind == "gtodd":
            if not g("SUP", r["S"]) or r["T"] not in self.pt_by_t:
                return 0.0
            return self._inf_div(self.pt_by_t[r["T"]], lambda p: g("SP", r["S"], p))
        if kind in ("ggdo", "gddo"):
            parts = self.pt_by_t.get(r["T"], ())
            gt = max((a for _p, a in parts), default=0.0)
            a = min(g("GS", r["S"]), gt)
            return min(a, self._inf_div(parts, lambda p: g("GSP", r["S"], p))) if a else 0.0
        raise KeyError(kind)


def parse_table_csv(text: str) -> tuple[list, dict]:
    """Header attributes and {value tuple: rank text} of a CSV table."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = {tuple(row[:-1]): row[-1] for row in reader if row}
    return header[:-1], rows


class QueryBulk:
    name = "query-bulk"

    def __init__(self, mods, workdir: Path, seed: int, size: str):
        self.seed = seed
        tables, self.dom = generate(seed, size)
        workdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, rows in tables.items():
            paths[name] = workdir / f"{name.lower()}.csv"
            write_csv(paths[name], SCHEMES[name], rows)
        text = "\n".join(stmt.format(**{k: quote_path(v) for k, v in paths.items()})
                         for _kind, stmt in SCRIPT) + "\n"
        self.statements = mods.parsing.parse_script(text)
        self.kinds = [kind for kind, _stmt in SCRIPT]
        self.mods = mods
        self.session = mods.cli.Session(mods.lattice.make_lattice("godel"))
        self.workdir = workdir
        self.tables = tables
        self.reference = None
        self.verified: dict = {}

    def ops(self, _pass: int) -> list:
        return [(i, self._op(stmt)) for i, stmt in enumerate(self.statements)]

    def _op(self, stmt):
        def run():
            buf = io.StringIO()
            rc = self.mods.cli.run_script([stmt], self.session, out_dir=self.workdir, stdout=buf)
            return rc, buf.getvalue()
        return run

    # -- checks ---------------------------------------------------------------

    def check(self, index: int, output) -> bool:
        rc, text = output
        if rc != 0:
            return False
        kind = self.kinds[index]
        stmt = self.statements[index]
        if self.reference is None:
            self.reference = Reference(self.tables)
        if kind == "load":
            return self._check_loaded(stmt.name)
        if kind == "let":
            table = self.session.tables[stmt.name]
            return self._check_rows(index, stmt.name, sorted(table.scheme),
                                    self._engine_rows(table))
        if kind == "save":
            text = (self.workdir / stmt.path).read_text(encoding="utf-8")
            kind = stmt.name
        else:
            text = text.split("\n", 1)[1]  # drop the "-- EVAL (line n)" marker
        digest = hashlib.blake2b(text.encode()).digest()
        known = self.verified.get(index)
        if known is not None and known[0] == digest:
            return known[1]
        attrs, rows = parse_table_csv(text)
        ok = self._check_rows(index, kind, attrs, rows)
        self.verified[index] = (digest, ok)
        return ok

    def _engine_rows(self, table) -> dict:
        attrs = sorted(table.scheme)
        fmt = table.lattice.format_degree
        return {tuple(t[a] for a in attrs): fmt(d) for t, d in table.rows.items()}

    def _check_loaded(self, name: str) -> bool:
        table = self.session.tables[name]
        want = self.tables[name]
        if len(table) != len(want):
            return False
        order = SCHEMES[name]
        got = {tuple(t[a] for a in order): d for t, d in table.rows.items()}
        rng = random.Random(f"{self.seed}/load/{name}")
        keys = rng.sample(sorted(want), min(SAMPLE, len(want)))
        return all(got.get(k) == float(want[k]) for k in keys)

    def _check_rows(self, index, kind, attrs, rows: dict) -> bool:
        """Seeded sample of result rows must match the reference score, and
        a sample of tuples outside the result must score 0."""
        if not rows:
            return False
        rng = random.Random(f"{self.seed}/{index}")
        ref = self.reference
        for key in rng.sample(sorted(rows), min(SAMPLE, len(rows))):
            if f"{ref.score(kind, dict(zip(attrs, key))):.9g}" != rows[key]:
                return False
        misses = 0
        for _ in range(SAMPLE * 20):
            key = tuple(rng.choice(self.dom[a]) for a in attrs)
            if key in rows:
                continue
            if ref.score(kind, dict(zip(attrs, key))) != 0.0:
                return False
            misses += 1
            if misses == SAMPLE:
                break
        return True
