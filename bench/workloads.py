"""The benchmark's three workloads: inputs from a seed, the timed call, and
the check of every output against the pinned reference.

Each workload yields an endless stream of *units*; the runner times one
``run(unit)`` call per unit until the run's seconds are spent.  ``prepare``
and ``collect`` run outside the timed bracket.  Every workload is serial and
closed-loop: the next unit starts when the previous one returns.

The program is reached only through module attributes looked up at call
time, so the tracer's patches apply to the same calls.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from itertools import count
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

# scan_l2 runs `heissplit scan -p 3..SCAN_MAX_P -l 2`: 448 cheap points
# over 17 primes.  A scan lasts a few seconds, which evens out the short
# swings in speed of a shared host.
SCAN_MAX_P = 61
# Untimed determinism checks run on this smaller slice.
SLICE_MAX_P = 13

ORACLE_ELL = 5
ORACLE_PRIMES = (11, 31, 41, 61, 71)

# frob_large takes this many fresh primes of each kind per run, so that at
# least eleven cold first queries set the tail, and ell = 2 queries make up
# three quarters of the stream, so that the median falls among them.
FROB_ELL2_PRIMES = 18
FROB_ELL3_PRIMES = 6


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _rng(name: str, seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(x) for x in (name, seed) + parts))


def program_seed(name: str, seed: int) -> int:
    """The seed handed to the program, derived from the workload seed."""
    return _rng(name, seed, "program").getrandbits(32)


def strip_seed_column(csv_text: str) -> str:
    """Scan CSV without its last column (the master seed)."""
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in csv_text.splitlines())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def clear_program_caches() -> None:
    """Empty every functools cache in the package, as a fresh process has."""
    for name, mod in list(sys.modules.items()):
        if name == "heissplit" or name.startswith("heissplit."):
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


class Program:
    """The package's modules, imported from the checkout's src/."""

    def __init__(self):
        import heissplit.cli
        import heissplit.finite_field
        import heissplit.heis_arith
        import heissplit.verification

        self.cli = heissplit.cli
        self.finite_field = heissplit.finite_field
        self.heis_arith = heissplit.heis_arith
        self.verification = heissplit.verification


class ScanL2:
    """`heissplit scan -p 3..61 -l 2 -o FILE` in-process, once per unit.

    Program caches are emptied before each scan, so every scan costs what a
    fresh `heissplit scan` process pays.  A unit's points are all admissible
    (p, a) of the scan.
    """

    name = "scan_l2"

    def __init__(self, ref: dict, seed: int, out_dir: Path, program=None):
        self.ref = ref["scan_l2"]
        self.program = program
        self.seed = program_seed(self.name, seed)
        self.out_path = out_dir / "scan_l2.csv"

    def units(self):
        return count()

    def argv(self, max_p: int, seed: int, jobs: int = 1) -> list[str]:
        return [
            "scan", "-p", f"3..{max_p}", "-l", "2", "--seed", str(seed),
            "--jobs", str(jobs), "-o", str(self.out_path),
        ]

    def prepare(self, unit) -> None:
        clear_program_caches()

    def point_id(self, unit) -> str:
        return f"scan{unit}"

    def run(self, unit):
        return self.program.cli.main(self.argv(SCAN_MAX_P, self.seed))

    def collect(self, unit, exit_code, error):
        """(points, failed points, output bytes) of one scan."""
        if error is not None:
            return self.ref["rows"], self.ref["rows"], error
        text = self.out_path.read_text()
        rows = text.splitlines()[1:]
        bad = sum(1 for row in rows if row.split(",")[9] != "true")
        seeds_ok = all(row.rsplit(",", 1)[1] == str(self.seed) for row in rows)
        if (
            exit_code != 0
            or not seeds_ok
            or len(rows) != self.ref["rows"]
            or sha256(strip_seed_column(text)) != self.ref["sha256_without_seed"]
        ):
            bad = len(rows) or self.ref["rows"]
        return len(rows), bad, text

    def scan_text(self, max_p: int, seed: int, jobs: int = 1) -> str:
        clear_program_caches()
        self.program.cli.main(self.argv(max_p, seed, jobs))
        return self.out_path.read_text()


class OracleL5:
    """`verification.scan_point` at admissible (p, a), ell = 5.

    Points are drawn without replacement, one prime after another in turn;
    when all are used the stream starts over with a fresh program seed, so
    no point is ever served from the oracle's per-point cache.
    """

    name = "oracle_l5"

    def __init__(self, ref: dict, seed: int, out_dir: Path = None, program=None):
        table = ref["oracle_l5"]["points"]
        self.expected = {
            (int(p), a): tuple(rest) for p, rows in table.items() for a, *rest in rows
        }
        self.by_prime = {int(p): [row[0] for row in rows] for p, rows in table.items()}
        self.seed = seed
        self.program = program
        self.base_seed = program_seed(self.name, seed)
        self._contexts: dict[int, object] = {}

    def units(self):
        for cycle in count():
            rng = _rng(self.name, self.seed, cycle)
            cycle_seed = self.base_seed + cycle
            queues = {p: rng.sample(vals, len(vals)) for p, vals in self.by_prime.items()}
            while any(queues.values()):
                for p in ORACLE_PRIMES:
                    if queues[p]:
                        yield (p, queues[p].pop(), cycle_seed)

    def prepare(self, unit) -> None:
        p = unit[0]
        if p not in self._contexts:
            self._contexts[p] = self.program.finite_field.make_context(p, ORACLE_ELL)

    def point_id(self, unit) -> str:
        return f"{unit[0]}:{unit[1]}"

    def run(self, unit):
        p, a, seed = unit
        return self.program.verification.scan_point(self._contexts[p], a, seed)

    def collect(self, unit, rec, error):
        if error is not None:
            return 1, 1, error
        got = (rec.prediction.predicted_count, rec.oracle_K.prime_count, rec.oracle_R.prime_count)
        ok = rec.agree and got == self.expected[unit[:2]]
        return 1, 0 if ok else 1, describe_record(rec)

    def counts(self, p: int, a: int, seed: int) -> tuple:
        """Oracle counts and residue degrees at one point (for seed checks)."""
        rec = self.program.verification.scan_point(self._contexts[p], a, seed)
        return (
            rec.oracle_K.prime_count, rec.oracle_K.residue_degrees,
            rec.oracle_R.prime_count, rec.oracle_R.residue_degrees,
        )


def describe_record(rec) -> str:
    pred = rec.prediction
    return repr(
        (
            pred, rec.oracle_K.prime_count, rec.oracle_K.residue_degrees,
            rec.oracle_R.prime_count, rec.oracle_R.residue_degrees, rec.agree,
        )
    )


class FrobLarge:
    """`make_context` + `frobenius_prediction` (what `heissplit frob` does).

    Each run takes fresh primes from the pinned pools: ell = 2 primes just
    above 2e5 and ell = 3 primes just above 1100.  Queries visit the primes
    in turn, so the first query of each prime comes first and pays the cold
    cost.  ell = 2 queries take a uniform admissible a; ell = 3 queries take
    an a with both cubic symbols trivial, the case the criterion value
    decides.  The oracle never runs.
    """

    name = "frob_large"

    def __init__(self, ref: dict, seed: int, out_dir: Path = None, program=None):
        pools = ref["frob_large"]
        rng = _rng(self.name, seed)
        chosen = [
            (2, p) for p in rng.sample(sorted(pools["2"], key=int), FROB_ELL2_PRIMES)
        ] + [(3, p) for p in rng.sample(sorted(pools["3"], key=int), FROB_ELL3_PRIMES)]
        rng.shuffle(chosen)
        self.order = [(ell, int(p)) for ell, p in chosen]
        self.pool = {
            (ell, int(p)): pools[str(ell)][p] for ell, p in chosen
        }
        self.seed = seed
        self.program = program

    def units(self):
        rng = _rng(self.name, self.seed, "queries")
        while True:
            for ell, p in self.order:
                a, predicted, _oracle = rng.choice(self.pool[ell, p])
                yield (ell, p, a, predicted)

    def prepare(self, unit) -> None:
        pass

    def point_id(self, unit) -> str:
        return f"{unit[1]}:{unit[2]}"

    def run(self, unit):
        ell, p, a, _ = unit
        ctx = self.program.finite_field.make_context(p, ell)
        return self.program.heis_arith.frobenius_prediction(ctx, a)

    def collect(self, unit, pred, error):
        if error is not None:
            return 1, 1, error
        return 1, 0 if pred.predicted_count == unit[3] else 1, repr(pred)


CLASSES = {cls.name: cls for cls in (ScanL2, OracleL5, FrobLarge)}
WORKLOADS = tuple(CLASSES)


def build(name: str, seed: int, ref: dict, out_dir: Path, program=None):
    """The workload's inputs for this seed (no program code runs here)."""
    return CLASSES[name](ref, seed, out_dir, program)
