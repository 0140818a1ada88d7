"""harness-suites: the twelve theorem suites on small seeded batches.

One op is one `run_theorem_suite` call with a seed derived from the run
seed, the pass and the op.  Graded suites run on Łukasiewicz, ``chain:5``
and the carrier-6 witness lattice, which set-up finds by enumerating every
residuated lattice up to carrier 6; the Boolean suites run on Boolean.
Every verdict has a known answer: T1 fails on the witness lattice (the
paper's result, ⊗ does not distribute over ∧ there) and every other
verdict passes.
"""

from __future__ import annotations

import contextlib
import hashlib

BATCH = {"full": 20, "tiny": 2}

#: T1 finds a counterexample on the witness lattice in about 1.5% of the
#: generated instances, so its batch must be large for the expected FAIL to
#: be certain: 0.9855**1500 < 1e-9.
T1_WITNESS_BATCH = 1500

MAX_CARRIER = 6


def find_witness(latsearch, tracer=None):
    """Enumerate every residuated lattice up to the carrier bound and return
    the first whose ⊗ fails to distribute over ∧; a tracer also gets the
    number of structures enumerated."""
    span = tracer.span("harness.latsearch") if tracer else contextlib.nullcontext()
    with span:
        structures = 0
        witness = None
        for n, leq, meet, _join, otimes in latsearch.enumerate_residuated_lattices(MAX_CARRIER):
            structures += 1
            if witness is None and latsearch.find_meet_distributivity_gap(n, meet, otimes):
                witness = latsearch.as_table_lattice(n, leq, otimes)
    if tracer:
        tracer.count("harness.latsearch.structures", structures)
    if witness is None:
        raise RuntimeError(f"no distributivity witness up to carrier {MAX_CARRIER}")
    return witness


class HarnessSuites:
    name = "harness-suites"

    def __init__(self, mods, workdir, seed: int, size: str):
        self.mods = mods
        self.seed = seed
        self.witness = find_witness(mods.latsearch)
        make = mods.lattice.make_lattice
        graded = (("lukasiewicz", make("lukasiewicz")),
                  ("chain:5", mods.lattice.FiniteChain(5)),
                  ("witness6", self.witness))
        boolean = (("boolean", make("boolean")),)
        suites = mods.suites
        self.combos = []
        for sid in suites.THEOREM_IDS:
            for lname, lat in (boolean if sid in suites.BOOLEAN_SUITES else graded):
                n = T1_WITNESS_BATCH if (sid, lname) == ("T1", "witness6") else BATCH[size]
                self.combos.append((sid, lname, lat, n))
        self.expected = [not (sid == "T1" and lname == "witness6")
                         for sid, lname, _lat, _n in self.combos]

    def traced_setup(self, tracer) -> None:
        """Repeat set-up's lattice search under the tracer."""
        find_witness(self.mods.latsearch, tracer)

    def derived_seed(self, pass_index: int, index: int) -> int:
        sid, lname, _lat, _n = self.combos[index]
        key = f"{self.seed}|{pass_index}|{sid}|{lname}".encode()
        return int.from_bytes(hashlib.blake2b(key, digest_size=6).digest(), "big")

    def ops(self, pass_index: int) -> list:
        return [(i, self._op(i, self.derived_seed(pass_index, i)))
                for i in range(len(self.combos))]

    def _op(self, index: int, seed: int):
        sid, _lname, lat, n = self.combos[index]
        config = self.mods.gen.GenConfig(seed=seed, lattice=lat)

        def run():
            return self.mods.suites.run_theorem_suite(sid, config, n)
        return run

    def check(self, index: int, report) -> bool:
        sid, _lname, _lat, n = self.combos[index]
        return (report.theorem_id == sid and report.instances == n
                and report.passed == self.expected[index])
