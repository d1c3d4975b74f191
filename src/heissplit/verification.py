"""Executable verification: exhaustive prediction-vs-oracle scans, the block
determinant identity, the discriminant ratio at specializations, and
Frobenius-class statistics.

A scan walks every admissible a in F_p, computes the formula-side prediction
and the factorization oracle's count, and records both; disagreements and
structural-bound violations are collected as data (the scan itself never
raises for them).  The block determinant and discriminant checks are exact
field equalities with no tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from itertools import product

from .errors import (
    DegenerateValueError,
    NoRootOfUnityError,
    NonPositiveCountError,
    UnsupportedEllError,
)
from .finite_field import Context, binomial_roots, build_extension
from .heis_arith import FrobPrediction, frobenius_prediction
from .heisenberg import conjugacy_classes, class_label
from .seeds import derive_seed
from .splitting_oracle import SplitReport, split_K, split_R

# Flat row schema shared by all scan-type commands (csv column order).
SCAN_COLUMNS = (
    "p",
    "ell",
    "a",
    "e_alpha",
    "e_beta",
    "a_ell",
    "predicted",
    "oracle_K",
    "oracle_R",
    "agree",
    "seed",
)


def admissible_values(ctx: Context) -> list[int]:
    """All a the splitting criteria cover: F_p minus {0, 1}, minus 1/2 for ell=2."""
    excluded = {0, 1}
    if ctx.ell == 2:
        excluded.add(pow(2, -1, ctx.p))
    return [a for a in range(2, ctx.p) if a not in excluded]


@dataclass(frozen=True)
class ScanRecord:
    a: int
    prediction: FrobPrediction
    oracle_K: SplitReport
    oracle_R: SplitReport
    agree: bool
    bound_ok: bool


@dataclass(frozen=True)
class ScanResult:
    p: int
    ell: int
    seed: int
    records: tuple[ScanRecord, ...]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        counts: dict[int, int] = {}
        for rec in self.records:
            counts[rec.oracle_R.prime_count] = counts.get(rec.oracle_R.prime_count, 0) + 1
        return {
            "p": self.p,
            "ell": self.ell,
            "seed": self.seed,
            "records": len(self.records),
            "failures": len(self.failures),
            "count_histogram": dict(sorted(counts.items())),
        }


def scan_point(ctx: Context, a: int, seed: int) -> ScanRecord:
    """Prediction and oracle for one a.  Neither uses randomness; the
    oracle reports record ``seed``."""
    pred = frobenius_prediction(ctx, a)
    rep_k = split_K(ctx, a, seed)
    rep_r = split_R(ctx, a, seed)
    ell = ctx.ell
    if ell >= 3:
        bound_ok = rep_r.prime_count in (ell**3, ell**2)
    else:
        bound_ok = rep_r.prime_count > 1  # (t - a) is never inert
    return ScanRecord(
        a=a,
        prediction=pred,
        oracle_K=rep_k,
        oracle_R=rep_r,
        agree=pred.predicted_count == rep_r.prime_count,
        bound_ok=bound_ok,
    )


def verify_theorems_scan(ctx: Context, seed: int) -> ScanResult:
    """Compare prediction and oracle for every admissible a; collect failures."""
    records = []
    failures = []
    for a in admissible_values(ctx):
        rec = scan_point(ctx, a, seed)
        records.append(rec)
        if not rec.agree:
            failures.append(
                f"a={a}: predicted {rec.prediction.predicted_count}, "
                f"oracle {rec.oracle_R.prime_count}"
            )
        if not rec.bound_ok:
            failures.append(
                f"a={a}: oracle count {rec.oracle_R.prime_count} violates the "
                f"structural bound for ell={ctx.ell}"
            )
    return ScanResult(
        p=ctx.p,
        ell=ctx.ell,
        seed=seed,
        records=tuple(records),
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Block determinant identity
# ---------------------------------------------------------------------------


def determinant(field, rows: list[list]) -> object:
    """Exact determinant over any field, by Gaussian elimination."""
    n = len(rows)
    m = [row[:] for row in rows]
    det = field.one
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != field.zero), None)
        if pivot is None:
            return field.zero
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = field.neg(det)
        pv = m[col][col]
        det = field.mul(det, pv)
        inv = field.inv(pv)
        for r in range(col + 1, n):
            c = field.mul(m[r][col], inv)
            if c != field.zero:
                m[r] = [
                    field.sub(x, field.mul(c, y)) for x, y in zip(m[r], m[col])
                ]
    return det


def _element_of_order(field, ell: int):
    """The second root of x^ell - 1 by key (the first is 1): order ell.

    ``binomial_roots`` requires ell | p - 1, so an extension field whose
    order q has only ell | q - 1 raises DivisibilityError.
    """
    if (field.order - 1) % ell != 0:
        raise NoRootOfUnityError(
            f"field of order {field.order} has no element of order {ell}"
        )
    return binomial_roots(field, ell, field.one)[1]


def block_matrix(field, zeta, blocks: list[list[list]]) -> list[list]:
    """The ell x ell block matrix with (r, c) block zeta^(r*c) * A_c."""
    ell = len(blocks)
    n = len(blocks[0])
    big = []
    for r in range(ell):
        for i in range(n):
            row = []
            for c in range(ell):
                scale = field.pow(zeta, r * c)
                row.extend(field.mul(scale, x) for x in blocks[c][i])
            big.append(row)
    return big


def vandermonde_unit(field, zeta, ell: int):
    """prod_{0 <= i < j < ell} (zeta^j - zeta^i), the Vandermonde determinant."""
    powers = [field.pow(zeta, k) for k in range(ell)]
    acc = field.one
    for i in range(ell):
        for j in range(i + 1, ell):
            acc = field.mul(acc, field.sub(powers[j], powers[i]))
    return acc


@dataclass(frozen=True)
class BlockDetReport:
    ell: int
    n: int
    trials: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def check_block_det(field, n: int, ell: int, seed: int, trials: int) -> BlockDetReport:
    """Randomized exact check of det(A) = prod det(A_i) * vandermonde^n.

    A is the block matrix whose (r, c) block is zeta^(r*c) A_c for random
    n x n blocks A_0 .. A_{ell-1}; the right-hand side multiplies the block
    determinants by the n-th power of the Vandermonde determinant of the
    ell-th roots of unity.  The left side is computed by a dense exact
    determinant, making this an independent oracle for the identity.  A
    block size n or a trial count below 1 raises ``NonPositiveCountError``:
    n = 0 and no trials would pass vacuously, and n < 0 is no matrix.
    """
    if n < 1 or trials < 1:
        raise NonPositiveCountError(
            f"block size n = {n} and trials = {trials} must both be >= 1"
        )
    rng = random.Random(derive_seed(seed, "blockdet", n, ell))
    zeta = _element_of_order(field, ell)
    vdm = vandermonde_unit(field, zeta, ell)
    failures = []
    for trial in range(trials):
        blocks = [
            [[field.sample(rng) for _ in range(n)] for _ in range(n)]
            for _ in range(ell)
        ]
        lhs = determinant(field, block_matrix(field, zeta, blocks))
        rhs = field.pow(vdm, n)
        for b in blocks:
            rhs = field.mul(rhs, determinant(field, b))
        if lhs != rhs:
            failures.append(f"trial {trial}: det {lhs} != rhs {rhs}")
    return BlockDetReport(ell=ell, n=n, trials=trials, failures=tuple(failures))


# ---------------------------------------------------------------------------
# Discriminant ratio at specializations
# ---------------------------------------------------------------------------


def _canonical_root(field, ell: int, value, policy: str):
    """An ell-th root of ``value`` in ``field``; policy picks min or max key."""
    roots = binomial_roots(field, ell, value)
    assert roots, "the ambient field must contain the required roots"
    return roots[0] if policy == "min" else roots[-1]


def _integral_basis_det(ctx: Context, field, a: int, policy: str):
    """det of the ell^3 x ell^3 matrix of Galois conjugates of the integral
    basis, specialized at t = a inside ``field``.

    Basis columns are indexed by (i, j, k): for k = 0 the element
    t^(i/ell) (1-t)^(j/ell); for k > 0 the element t^(i/ell) times the
    ell-th root of B_{j,k} = prod_n (1 - zeta^(n+j) x)^(k n mod ell).
    Rows are the Galois elements (x, y, z); the group action shifts the
    second basis index by x and scales by zeta^(i x + j y) (k = 0) or
    zeta^(i x - j y + k z) (k > 0).  The squared determinant does not depend
    on any of the root choices.
    """
    p, ell = ctx.p, ctx.ell
    zeta_pow = [field.pow(field.embed(ctx.zeta), k) for k in range(ell)]
    x_hat = _canonical_root(field, ell, field.embed(a), policy)
    y_hat = _canonical_root(field, ell, field.embed((1 - a) % p), policy)
    x_pows = [field.one]
    y_pows = [field.one]
    for _ in range(ell - 1):
        x_pows.append(field.mul(x_pows[-1], x_hat))
        y_pows.append(field.mul(y_pows[-1], y_hat))
    # gamma[j][k] = chosen ell-th root of B_{j,k}, k >= 1
    gamma = [[None] * ell for _ in range(ell)]
    for j in range(ell):
        for k in range(1, ell):
            b = field.one
            for n in range(1, ell):
                term = field.sub(
                    field.one, field.mul(zeta_pow[(n + j) % ell], x_hat)
                )
                b = field.mul(b, field.pow(term, (k * n) % ell))
            gamma[j][k] = _canonical_root(field, ell, b, policy)
    cols = list(product(range(ell), repeat=3))  # (i, j, k)
    rows = []
    for x, y, z in product(range(ell), repeat=3):
        row = []
        for i, j, k in cols:
            if k == 0:
                scale = zeta_pow[(i * x + j * y) % ell]
                val = field.mul(scale, field.mul(x_pows[i], y_pows[j]))
            else:
                scale = zeta_pow[(i * x - j * y + k * z) % ell]
                val = field.mul(
                    scale, field.mul(x_pows[i], gamma[(j + x) % ell][k])
                )
            row.append(val)
        rows.append(row)
    return determinant(field, rows)


@dataclass(frozen=True)
class DiscReport:
    p: int
    ell: int
    a: int
    a2: int
    det_nonzero: bool
    ratio_ok: bool

    @property
    def passed(self) -> bool:
        return self.det_nonzero and self.ratio_ok


def discriminant_ratio_check(
    ctx: Context,
    a: int,
    a2: int,
    *,
    allow_large: bool = False,
    check_choice_invariance: bool = True,
) -> DiscReport:
    """Exact check that (det D(a) / det D(a2))^2 equals
    (a(1-a) / a2(1-a2))^(ell^2 (ell-1)).

    D is the matrix of Galois conjugates of the integral basis evaluated at
    the specialization, inside the canonical extension of degree ell^2
    (large enough to contain every required ell-th root).  With a == a2 the
    check degenerates to 1 = 1 and serves as a smoke test.  ell >= 5 means
    an ell^3 x ell^3 determinant over F_{p^(ell^2)} and requires
    ``allow_large``.
    """
    p, ell = ctx.p, ctx.ell
    if ell not in (2, 3) and not allow_large:
        raise UnsupportedEllError("ell >= 5 requires allow_large=True")
    a %= p
    a2 %= p
    if a in (0, 1) or a2 in (0, 1):
        raise DegenerateValueError("specialization points must avoid {0, 1}")
    field = build_extension(p, ell * ell)
    det_a = _integral_basis_det(ctx, field, a, "min")
    det_a2 = _integral_basis_det(ctx, field, a2, "min")
    if check_choice_invariance:
        alt_a = _integral_basis_det(ctx, field, a, "max")
        alt_a2 = _integral_basis_det(ctx, field, a2, "max")
        assert field.mul(det_a, det_a) == field.mul(alt_a, alt_a)
        assert field.mul(det_a2, det_a2) == field.mul(alt_a2, alt_a2)
    det_nonzero = det_a != field.zero and det_a2 != field.zero
    if not det_nonzero:
        return DiscReport(p=p, ell=ell, a=a, a2=a2, det_nonzero=False, ratio_ok=False)
    ratio = field.mul(det_a, field.inv(det_a2))
    lhs = field.mul(ratio, ratio)
    base = a * (1 - a) % p * pow(a2 * (1 - a2) % p, -1, p) % p
    rhs = field.embed(pow(base, ell * ell * (ell - 1), p))
    return DiscReport(
        p=p, ell=ell, a=a, a2=a2, det_nonzero=True, ratio_ok=lhs == rhs
    )


# ---------------------------------------------------------------------------
# Frobenius class statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassBin:
    label: str
    class_size: int
    observed: int
    expected: float

    @property
    def deviation(self) -> float:
        return self.observed - self.expected


@dataclass(frozen=True)
class ClassHistogram:
    p: int
    ell: int
    total: int
    bins: tuple[ClassBin, ...]


def chebotarev_stats(ctx: Context) -> ClassHistogram:
    """Histogram of predicted Frobenius classes over all admissible a.

    Expected frequencies are class_size / ell^3 of the admissible count;
    deviations are informational and never asserted.
    """
    ell = ctx.ell
    values = admissible_values(ctx)
    observed: dict[str, int] = {}
    for a in values:
        label = frobenius_prediction(ctx, a).class_label
        observed[label] = observed.get(label, 0) + 1
    bins = []
    order = ell**3
    for cls in conjugacy_classes(ell):
        label = class_label(cls[0])
        bins.append(
            ClassBin(
                label=label,
                class_size=len(cls),
                observed=observed.get(label, 0),
                expected=len(cls) * len(values) / order,
            )
        )
    assert sum(b.observed for b in bins) == len(values)
    return ClassHistogram(p=ctx.p, ell=ell, total=len(values), bins=tuple(bins))


# ---------------------------------------------------------------------------
# Serialization (schema shared with the CLI)
# ---------------------------------------------------------------------------


def record_to_row(p: int, ell: int, seed: int, rec: ScanRecord) -> dict:
    pred = rec.prediction
    return {
        "p": p,
        "ell": ell,
        "a": rec.a,
        "e_alpha": pred.e_alpha,
        "e_beta": pred.e_beta,
        "a_ell": pred.a_value,
        "predicted": pred.predicted_count,
        "oracle_K": rec.oracle_K.prime_count,
        "oracle_R": rec.oracle_R.prime_count,
        "agree": rec.agree,
        "seed": seed,
    }


def scan_rows(result: ScanResult) -> list[dict]:
    return [
        record_to_row(result.p, result.ell, result.seed, rec)
        for rec in result.records
    ]


def histogram_rows(hist: ClassHistogram) -> list[dict]:
    return [
        {
            "p": hist.p,
            "ell": hist.ell,
            "label": b.label,
            "class_size": b.class_size,
            "observed": b.observed,
            "expected": f"{b.expected:.6f}",
            "deviation": f"{b.deviation:+.6f}",
        }
        for b in hist.bins
    ]


def rows_to_csv(rows: list[dict], columns: tuple[str, ...]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in columns])
    return buf.getvalue()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def rows_to_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2) + "\n"
