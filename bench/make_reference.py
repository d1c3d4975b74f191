"""Regenerate bench/reference.json, the pinned outputs the benchmark checks.

Run from the repository root at the commit whose outputs are the reference:

    python3 bench/make_reference.py

It records the scan_l2 CSV digest, the predicted and oracle counts at every
oracle_l5 point, and the frob_large pools (primes, sampled a, predicted and
oracle counts).  Every prediction must equal the oracle's count, or nothing
is written.  Takes a few minutes on one core.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402
from heissplit import (  # noqa: E402
    frobenius_prediction,
    is_prime,
    make_context,
    split_R,
)
from heissplit.verification import admissible_values, scan_point  # noqa: E402

REFERENCE_SEED = 20251117
FROB_POOL = {2: (200_000, 36), 3: (1_100, 12)}  # ell: (lower bound, primes)
POOL_SIZE = 64


def scan_reference(out_dir: Path) -> dict:
    scan = workloads.ScanL2({"scan_l2": {}}, 0, out_dir, workloads.Program())
    text = scan.scan_text(workloads.SCAN_MAX_P, REFERENCE_SEED)
    rows = text.splitlines()[1:]
    if any(row.split(",")[9] != "true" for row in rows):
        raise SystemExit("scan_l2: a row disagrees")
    return {
        "argv": scan.argv(workloads.SCAN_MAX_P, REFERENCE_SEED)[:5],
        "rows": len(rows),
        "sha256_without_seed": workloads.sha256(workloads.strip_seed_column(text)),
    }


def oracle_reference() -> dict:
    points = {}
    for p in workloads.ORACLE_PRIMES:
        ctx = make_context(p, workloads.ORACLE_ELL)
        rows = []
        for a in admissible_values(ctx):
            rec = scan_point(ctx, a, REFERENCE_SEED)
            if not rec.agree:
                raise SystemExit(f"oracle_l5: disagreement at p={p} a={a}")
            rows.append(
                [a, rec.prediction.predicted_count, rec.oracle_K.prime_count,
                 rec.oracle_R.prime_count]
            )
        points[str(p)] = rows
        print(f"oracle_l5 p={p}: {len(rows)} points", file=sys.stderr)
    return {"ell": workloads.ORACLE_ELL, "points": points}


def _criterion_values(p: int, ell: int) -> list[int]:
    """Admissible a; for ell >= 3 only those with both symbols trivial."""
    if ell == 2:
        half = (p + 1) // 2
        return [a for a in range(2, p) if a != half]
    e = (p - 1) // ell
    return [a for a in range(2, p) if pow(a, e, p) == 1 and pow(1 - a, e, p) == 1]


def frob_pools() -> dict:
    pools = {}
    for ell, (lower, how_many) in FROB_POOL.items():
        primes = []
        n = lower
        while len(primes) < how_many:
            if is_prime(n) and (n - 1) % ell == 0:
                primes.append(n)
            n += 1
        pool = {}
        for p in primes:
            ctx = make_context(p, ell)
            rng = random.Random(f"pool:{ell}:{p}")
            values = _criterion_values(p, ell)
            rows = []
            for a in sorted(rng.sample(values, min(POOL_SIZE, len(values)))):
                predicted = frobenius_prediction(ctx, a).predicted_count
                oracle = split_R(ctx, a, REFERENCE_SEED).prime_count
                if predicted != oracle:
                    raise SystemExit(f"frob_large: disagreement at p={p} a={a}")
                rows.append([a, predicted, oracle])
            pool[str(p)] = rows
            print(f"frob_large ell={ell} p={p}: {len(rows)} points", file=sys.stderr)
        pools[str(ell)] = pool
    return pools


def main() -> None:
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    reference = {
        "scan_l2": scan_reference(out_dir),
        "oracle_l5": oracle_reference(),
        "frob_large": frob_pools(),
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
