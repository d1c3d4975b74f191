"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every check is exact (field equality, integer equality);
there are no tolerances anywhere.

The exhaustive scans are shared session-wide: criterion 1/2 build them,
criteria 3 and 8 re-read them.
"""

import time

import pytest

from heissplit import (
    DEFAULT_SEED,
    a2_value,
    a_ell_value,
    check_block_det,
    discriminant_ratio_check,
    expand_a_poly,
    is_prime,
    lth_root,
    make_context,
    power_residue_symbol,
    prime_field,
    split_R2_curve,
    verify_theorems_scan,
)
from heissplit.cli import main as cli_main
from heissplit.heis_arith import a2_by_closed_form, a2_by_recurrence, epsilon_value
from heissplit.verification import admissible_values
from reference_factor import Poly

SEED = DEFAULT_SEED


def primes_upto(bound: int, start: int = 2) -> list[int]:
    return [p for p in range(start, bound + 1) if is_prime(p)]


def report(criterion: str, failures: list, detail: str, elapsed: float) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} failures)"
    print(f"\n[acceptance] {criterion}: {status} | {detail} | {elapsed:.1f}s")
    assert not failures, failures[:5]


@pytest.fixture(scope="session")
def l2_scans():
    return {
        p: verify_theorems_scan(make_context(p, 2), SEED)
        for p in primes_upto(200, start=3)
    }


@pytest.fixture(scope="session")
def l3_scans():
    return {
        p: verify_theorems_scan(make_context(p, 3), SEED)
        for p in primes_upto(200)
        if (p - 1) % 3 == 0
    }


@pytest.fixture(scope="session")
def l5_scans():
    return {
        p: verify_theorems_scan(make_context(p, 5), SEED)
        for p in primes_upto(100)
        if (p - 1) % 5 == 0
    }


def test_criterion_1_ell2_case_table(l2_scans):
    """Every odd p <= 200, every a not in {0,1,1/2}: the oracle count equals
    the value dictated by the A_2(a) case table (8 / 4 / 2).  Exact."""
    t0 = time.time()
    failures = []
    points = 0
    for p, result in l2_scans.items():
        ctx = make_context(p, 2)
        inv2 = pow(2, -1, p)
        assert [r.a for r in result.records] == [
            a for a in range(2, p) if a != inv2
        ]
        for rec in result.records:
            a = rec.a
            val = a2_value(ctx, a)
            # the case table, spelled out independently of the prediction code
            if val == 1:
                expected = 8
            elif val in (p - 1, 0) or val * val % p == pow((1 - a) % p, -1, p):
                expected = 4
            elif val * val % p == a * pow((1 - a) % p, -1, p) % p:
                expected = 2
            else:
                failures.append(f"p={p} a={a}: A_2={val} matches no case")
                continue
            points += 1
            if rec.oracle_R.prime_count != expected:
                failures.append(
                    f"p={p} a={a}: case table says {expected}, "
                    f"oracle found {rec.oracle_R.prime_count}"
                )
    report(
        "criterion 1 (ell=2 case table, odd p <= 200)",
        failures,
        f"{points} points over {len(l2_scans)} primes",
        time.time() - t0,
    )


def test_criterion_2_ell_odd_total_split_criterion(l3_scans, l5_scans):
    """ell=3 (p <= 200) and ell=5 (p <= 100): with both symbols trivial the
    count is ell^3 iff A_ell(a) = 1 and ell^2 otherwise; with any nontrivial
    symbol the count is ell^2.  Exact, zero failures."""
    t0 = time.time()
    failures = []
    points = 0
    for ell, scans in ((3, l3_scans), (5, l5_scans)):
        for p, result in scans.items():
            ctx = make_context(p, ell)
            for rec in result.records:
                a = rec.a
                trivial = (
                    power_residue_symbol(ctx, a) == 0
                    and power_residue_symbol(ctx, (1 - a) % p) == 0
                )
                if trivial:
                    expected = ell**3 if a_ell_value(ctx, a) == 1 else ell**2
                else:
                    expected = ell**2
                points += 1
                if rec.oracle_R.prime_count != expected:
                    failures.append(
                        f"p={p} ell={ell} a={a}: expected {expected}, "
                        f"oracle found {rec.oracle_R.prime_count}"
                    )
    report(
        "criterion 2 (ell>=3 total-splitting criterion)",
        failures,
        f"{points} points, ell=3 over {len(l3_scans)} primes, "
        f"ell=5 over {len(l5_scans)} primes",
        time.time() - t0,
    )


def test_criterion_3_structural_bounds(l2_scans, l3_scans, l5_scans):
    """Across all scans: every ell>=3 count lies in {ell^3, ell^2}; every
    ell=2 count exceeds 1.  Exact."""
    t0 = time.time()
    failures = []
    n = 0
    for ell, scans in ((2, l2_scans), (3, l3_scans), (5, l5_scans)):
        for p, result in scans.items():
            for rec in result.records:
                n += 1
                count = rec.oracle_R.prime_count
                ok = count in (ell**3, ell**2) if ell >= 3 else count > 1
                if not ok:
                    failures.append(f"p={p} ell={ell} a={rec.a}: count {count}")
    report(
        "criterion 3 (structural bounds on oracle counts)",
        failures,
        f"{n} oracle reports checked",
        time.time() - t0,
    )


def test_criterion_4_a2_classification_matches_symbols():
    """p <= 500, ell = 2: the four-way A_2 classification matches the pair of
    quadratic symbols of (a, 1-a) for every admissible a.  Exact."""
    t0 = time.time()
    failures = []
    points = 0
    # the expected pairing, spelled out independently
    table = {
        (0, 0): "unit",
        (0, 1): "zero",
        (1, 0): "inv_one_minus_a",
        (1, 1): "a_over_one_minus_a",
    }
    from heissplit import classify_a2

    for p in primes_upto(500, start=3):
        ctx = make_context(p, 2)
        inv2 = pow(2, -1, p)
        for a in range(2, p):
            if a == inv2:
                continue
            case = classify_a2(ctx, a)
            key = (
                power_residue_symbol(ctx, a),
                power_residue_symbol(ctx, (1 - a) % p),
            )
            points += 1
            if case != table[key]:
                failures.append(f"p={p} a={a}: case {case}, symbols {key}")
    report(
        "criterion 4 (A_2 classification vs symbol pair, p <= 500)",
        failures,
        f"{points} points",
        time.time() - t0,
    )


def test_criterion_5_block_determinant_lemma():
    """1000 randomized instances (n <= 4, ell in {2,3,5}, p in {11,13,31})
    satisfy the block determinant identity exactly against a dense exact
    determinant."""
    t0 = time.time()
    failures = []
    configs = [
        (n, ell, p)
        for n in (1, 2, 3, 4)
        for ell in (2, 3, 5)
        for p in (11, 13, 31)
        if (p - 1) % ell == 0
    ]
    trials_each = -(-1000 // len(configs))  # ceil
    total = 0
    for n, ell, p in configs:
        rep = check_block_det(prime_field(p), n, ell, SEED, trials=trials_each)
        total += trials_each
        if not rep.passed:
            failures.append(f"n={n} ell={ell} p={p}: {rep.failures[0]}")
    assert total >= 1000
    report(
        "criterion 5 (block determinant identity)",
        failures,
        f"{total} trials over {len(configs)} configurations",
        time.time() - t0,
    )


def test_criterion_6_discriminant_ratio():
    """ell in {2,3}, >= 20 pairs (a, a2) per ell at p in {13, 31}:
    det D != 0 and the squared ratio equals
    (a(1-a)/(a2(1-a2)))^(ell^2 (ell-1)) exactly."""
    t0 = time.time()
    failures = []
    pair_counts = {2: 0, 3: 0}
    for ell in (2, 3):
        for p in (13, 31):
            ctx = make_context(p, ell)
            values = admissible_values(ctx)
            anchor = values[0]
            others = [a for a in values if a != anchor][:12]
            for i, a in enumerate(others):
                repd = discriminant_ratio_check(
                    ctx, a, anchor, check_choice_invariance=(i == 0)
                )
                pair_counts[ell] += 1
                if not repd.det_nonzero:
                    failures.append(f"p={p} ell={ell} a={a}: det D = 0")
                elif not repd.ratio_ok:
                    failures.append(f"p={p} ell={ell} a={a}: ratio mismatch")
    assert pair_counts[2] >= 20 and pair_counts[3] >= 20
    report(
        "criterion 6 (discriminant ratio at specializations)",
        failures,
        f"{pair_counts[2]} pairs for ell=2, {pair_counts[3]} for ell=3",
        time.time() - t0,
    )


def test_criterion_7_formula_cross_agreement(l3_scans, l5_scans):
    """Recurrence = closed form = polynomial evaluation for all a, p <= 500;
    the recurrence at index p is 1 for every a; the ell >= 3 value is
    independent of the root choice.  Exact."""
    t0 = time.time()
    failures = []
    points = 0
    for p in primes_upto(500, start=3):
        ctx = make_context(p, 2)
        poly = Poly(prime_field(p), expand_a_poly(ctx))
        half = (p - 1) // 2
        for a in range(p):
            if a2_by_recurrence(p, a, p) != 1:
                failures.append(f"p={p} a={a}: x_p != 1")
            if a in (0, 1):
                continue
            rec = a2_by_recurrence(p, a, half)
            closed = a2_by_closed_form(ctx, a)
            evaluated = poly.evaluate(a)
            points += 1
            if not (rec == closed == evaluated):
                failures.append(
                    f"p={p} a={a}: recurrence {rec}, closed {closed}, "
                    f"poly {evaluated}"
                )
    root_checks = 0
    for ell, scans in ((3, l3_scans), (5, l5_scans)):
        for p in scans:
            ctx = make_context(p, ell)
            for a in range(2, p):
                if power_residue_symbol(ctx, a) != 0:
                    continue
                if power_residue_symbol(ctx, (1 - a) % p) != 0:
                    continue
                root = lth_root(ctx, a)
                vals = {
                    pow(
                        epsilon_value(ctx, root * pow(ctx.zeta, i, p) % p),
                        ctx.cofactor,
                        p,
                    )
                    for i in range(ell)
                }
                root_checks += 1
                if vals != {a_ell_value(ctx, a)}:
                    failures.append(f"p={p} ell={ell} a={a}: root choice leaks")
    report(
        "criterion 7 (formula cross-agreement)",
        failures,
        f"{points} triple agreements, {root_checks} root-choice checks",
        time.time() - t0,
    )


def test_criterion_8_curve_cross_check(l2_scans):
    """p <= 200, ell = 2, both symbols trivial: the curve-fiber count equals
    the factorization oracle's count.  Exact."""
    t0 = time.time()
    failures = []
    points = 0
    for p, result in l2_scans.items():
        ctx = make_context(p, 2)
        for rec in result.records:
            if rec.prediction.e_alpha != 0 or rec.prediction.e_beta != 0:
                continue
            points += 1
            curve = split_R2_curve(ctx, rec.a)
            if curve.prime_count != rec.oracle_R.prime_count:
                failures.append(
                    f"p={p} a={rec.a}: curve {curve.prime_count}, "
                    f"oracle {rec.oracle_R.prime_count}"
                )
    report(
        "criterion 8 (ell=2 curve-model cross-check)",
        failures,
        f"{points} doubly-trivial points",
        time.time() - t0,
    )


def test_criterion_9_polynomiality():
    """expand_a_poly raises nothing on any tested (p, ell), and its output
    has the expected shape.  That the sum of shifts leaves only exponents
    divisible by ell is held to the long-way sum in test_heis_arith."""
    t0 = time.time()
    failures = []
    tested = 0
    combos = (
        [(p, 2) for p in primes_upto(500, start=3)]
        + [(p, 3) for p in primes_upto(1999) if (p - 1) % 3 == 0]
        + [(p, 5) for p in primes_upto(999) if (p - 1) % 5 == 0]
        + [(p, 7) for p in primes_upto(599) if (p - 1) % 7 == 0]
    )
    for p, ell in combos:
        ctx = make_context(p, ell)
        try:
            poly = expand_a_poly(ctx)
        except Exception as exc:  # any raise here is a criterion failure
            failures.append(f"p={p} ell={ell}: {exc!r}")
            continue
        tested += 1
        if poly[0] != 1:
            failures.append(f"p={p} ell={ell}: constant term {poly[0]}")
    report(
        "criterion 9 (polynomiality of the expansion)",
        failures,
        f"{tested} (p, ell) pairs expanded",
        time.time() - t0,
    )


def test_criterion_10_determinism(tmp_path):
    """Parallel and serial scans produce byte-identical output for the same
    seed; repeated serial runs agree too."""
    t0 = time.time()
    failures = []
    spec = [("31", "3"), ("13,97", "2")]
    for pspec, ell in spec:
        serial = tmp_path / f"serial_{pspec.replace(',', '_')}_{ell}.csv"
        parallel = tmp_path / f"parallel_{pspec.replace(',', '_')}_{ell}.csv"
        again = tmp_path / f"again_{pspec.replace(',', '_')}_{ell}.csv"
        assert cli_main(["scan", "-p", pspec, "-l", ell, "--seed", "17",
                         "-o", str(serial)]) == 0
        assert cli_main(["scan", "-p", pspec, "-l", ell, "--seed", "17",
                         "--jobs", "4", "-o", str(parallel)]) == 0
        assert cli_main(["scan", "-p", pspec, "-l", ell, "--seed", "17",
                         "-o", str(again)]) == 0
        if serial.read_bytes() != parallel.read_bytes():
            failures.append(f"p={pspec} ell={ell}: parallel differs from serial")
        if serial.read_bytes() != again.read_bytes():
            failures.append(f"p={pspec} ell={ell}: serial rerun differs")
    report(
        "criterion 10 (byte-identical parallel/serial output)",
        failures,
        f"{len(spec)} scan configurations",
        time.time() - t0,
    )
