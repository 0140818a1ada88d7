"""cli-session: many small ``gradix eval`` scripts through in-process
`cli.main`, one script per op.

Each script loads three tables, about 20 values and 80 rows in all at
scale 1; the scripts of each lattice are spread evenly over scales 0.5 to
1.5, so that op times form a continuum rather than one cluster.  A script
declares tuple variables, evaluates and compiles calculus formulas with
⋁, ⋀ and →, evaluates an EADOM and a GTODD, and LETs and SAVEs a ranged
division.  Scripts rotate over ``lukasiewicz``, ``chain:5`` and
``table:<witness file>``, so every third op also parses and validates a
lattice file.

Checks, made outside the timed region: every EVALPTC output must equal
`eval_ra` of the re-parsed text that COMPILE printed for the same formula,
and every SAVE file must equal the CSV of the same table recomputed with
`eval_ra`.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
from pathlib import Path

from query_bulk import quote_path, write_csv

WITNESS_FILE = Path(__file__).resolve().parent / "witness6.lat"

SIZES = {
    # scripts per lattice, and at scale 1: values of A, B and C, rows of R,
    # Q and K; the scripts of each lattice scale these from 0.5 to 1.5
    "full": dict(per_lattice=8, n_a=8, n_b=8, n_c=4, n_r=50, n_q=6, n_k=24),
    "tiny": dict(per_lattice=1, n_a=3, n_b=3, n_c=2, n_r=6, n_q=2, n_k=4),
}

LATTICES = ("lukasiewicz", "chain:5", "table")

#: nonzero rank texts per lattice, the top degree last
RANKS = {
    "lukasiewicz": [f"{k / 20:.9g}" for k in range(1, 21)],
    "chain:5": ["0.25", "0.5", "0.75", "1"],
    "table": ["x1", "x2", "x3", "x4", "1"],
}

SCRIPT = """\
LOAD R FROM "{R}" SCHEME A:text, B:text
LOAD Q FROM "{Q}" SCHEME B:text
LOAD K FROM "{K}" SCHEME B:text, C:text
VAR a : {{A}}
VAR b : {{B}}
VAR c : {{C}}
EVALPTC ALL b . (Q(b) => R(a, b))
COMPILE ALL b . (Q(b) => R(a, b))
EVALPTC ANY b . (R(a, b) * K(b, c))
COMPILE ANY b . (R(a, b) * K(b, c))
EVALPTC ALL b . (Q(b) => ANY c . (R(a, b) * K(b, c)))
COMPILE ALL b . (Q(b) => ANY c . (R(a, b) * K(b, c)))
EVAL EADOM[A, C]
EVAL GTODD(R, K; UNIV EADOM[A, C])
LET X = DIV(R BY Q OVER PROJECT[A](R))
SAVE X TO "x.csv"
"""

SAVED = {"x.csv": "DIV(R BY Q OVER PROJECT[A](R))"}
TYPES = {"R": {"A": "text", "B": "text"}, "Q": {"B": "text"}, "K": {"B": "text", "C": "text"}}


def write_script(directory: Path, lattice: str, rng: random.Random, z: dict) -> None:
    """Seeded tables plus the script.  Two A values cover all of Q at the
    top degree, so the ranged division has a non-empty answer on every
    lattice; on the witness lattice, random degrees alone can give 0, since
    there x1 ⊗ x4 = 0."""
    directory.mkdir(parents=True, exist_ok=True)
    ranks = RANKS[lattice]
    a_vals = [f"a{i}" for i in range(z["n_a"])]
    b_vals = [f"b{i}" for i in range(z["n_b"])]
    c_vals = [f"c{i}" for i in range(z["n_c"])]
    q = {(b,): rng.choice(ranks) for b in rng.sample(b_vals, z["n_q"])}
    r = {}
    for a in a_vals[:2]:
        for (b,) in q:
            r[(a, b)] = ranks[-1]
    while len(r) < z["n_r"]:
        r[(rng.choice(a_vals), rng.choice(b_vals))] = rng.choice(ranks)
    k = {}
    while len(k) < z["n_k"]:
        k[(rng.choice(b_vals), rng.choice(c_vals))] = rng.choice(ranks)
    paths = {name: directory / f"{name.lower()}.csv" for name in ("R", "Q", "K")}
    write_csv(paths["R"], ["A", "B"], r)
    write_csv(paths["Q"], ["B"], q)
    write_csv(paths["K"], ["B", "C"], k)
    text = SCRIPT.format(**{name: quote_path(p) for name, p in paths.items()})
    (directory / "script.gx").write_text(text, encoding="utf-8")


def split_sections(text: str) -> list:
    """[(statement kind, body)] of a script's stdout."""
    sections = []
    for line in text.splitlines(keepends=True):
        if line.startswith("-- "):
            sections.append([line.split()[1], ""])
        else:
            sections[-1][1] += line
    return [(kind, body) for kind, body in sections]


class CliSession:
    name = "cli-session"

    def __init__(self, mods, workdir: Path, seed: int, size: str):
        self.mods = mods
        z = SIZES[size]
        rng = random.Random(f"cli-session/{seed}")
        self.scripts = []
        steps = max(z["per_lattice"] - 1, 1)
        for i in range(z["per_lattice"]):
            scale = 0.5 + i / steps if z["per_lattice"] > 1 else 1.0
            sized = {k: max(2, round(v * scale)) for k, v in z.items()}
            # keep every table at most 3/4 full, so random filling ends fast
            sized["n_r"] = min(sized["n_r"], sized["n_a"] * sized["n_b"] * 3 // 4)
            sized["n_k"] = min(sized["n_k"], sized["n_b"] * sized["n_c"] * 3 // 4)
            sized["n_q"] = min(sized["n_q"], sized["n_b"])
            for lattice in LATTICES:
                directory = workdir / f"script{len(self.scripts):02d}"
                write_script(directory, lattice, rng, sized)
                spec = f"table:{WITNESS_FILE}" if lattice == "table" else lattice
                self.scripts.append((spec, directory))
        self.verified: dict = {}

    def ops(self, _pass: int) -> list:
        return [(i, self._op(spec, directory))
                for i, (spec, directory) in enumerate(self.scripts)]

    def _op(self, spec: str, directory: Path):
        argv = ["eval", "--lattice", spec, "--script", str(directory / "script.gx"),
                "--out", str(directory / "out")]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = self.mods.cli.main(argv)
            saved = {name: (directory / "out" / name).read_text(encoding="utf-8")
                     for name in SAVED}
            return rc, buf.getvalue(), saved
        return run

    # -- checks ---------------------------------------------------------------

    def check(self, index: int, output) -> bool:
        rc, text, saved = output
        if rc != 0:
            return False
        digest = hashlib.blake2b(repr((text, sorted(saved.items()))).encode()).digest()
        known = self.verified.get(index)
        if known is not None and known[0] == digest:
            return known[1]
        ok = self._verify(index, text, saved)
        self.verified[index] = (digest, ok)
        return ok

    def _verify(self, index: int, text: str, saved: dict) -> bool:
        m = self.mods
        spec, directory = self.scripts[index]
        lat = m.lattice.lattice_from_spec(spec)
        registry = m.table.AttributeRegistry()
        tables = {}
        for name, types in TYPES.items():
            with open(directory / f"{name.lower()}.csv", encoding="utf-8", newline="") as fh:
                tables[name] = m.table.read_csv(fh, lat, registry, types)
        inst = m.table.DatabaseInstance(lat, tables)
        schemes = {name: t.scheme for name, t in tables.items()}
        sections = split_sections(text)
        pairs = 0
        for (kind, body), (next_kind, compiled) in zip(sections, sections[1:]):
            if kind == "EVALPTC":
                if next_kind != "COMPILE":
                    return False
                expr = m.parsing.parse_ra(compiled.strip(), schemes)
                if not _same_table(m.algebra.eval_ra(expr, inst), body):
                    return False
                pairs += 1
        if pairs != SCRIPT.count("EVALPTC"):
            return False
        for name, expr_text in SAVED.items():
            want = m.algebra.eval_ra(m.parsing.parse_ra(expr_text, schemes), inst)
            if not want.rows or m.table.table_to_csv(want) != saved[name]:
                return False
        return True


def _same_table(table, csv_text: str) -> bool:
    """Pointwise equal degrees (within the lattice's tolerance), reading
    absent rows as bottom."""
    lat = table.lattice
    body = csv_text.rstrip("\n") + "\n"
    reader = csv.reader(io.StringIO(body))
    attrs = next(reader)[:-1]
    printed = {tuple(row[:-1]): lat.parse_degree(row[-1]) for row in reader if row}
    got = {tuple(t[a] for a in attrs): d for t, d in table.rows.items()}
    return all(lat.eq(printed.get(k, lat.bottom), got.get(k, lat.bottom))
               for k in printed.keys() | got.keys())
