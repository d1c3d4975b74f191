"""Command-line front end.

Subcommands: symbol, apoly, avalue, frob, split, scan, verify, stats,
detlemma, disc.  Scan-type commands emit the flat row schema
(p,ell,a,e_alpha,e_beta,a_ell,predicted,oracle_K,oracle_R,agree,seed) as CSV
or JSON; exit code 0 means success/agreement, 1 means a verification failure
was found, 2 a usage error.

Each ``_cmd_*`` handler only computes: it returns ``(columns, rows, ok)``
and neither writes nor picks an exit code.  ``_run_command`` checks that
-o can be written before the handler runs, writes the rows, and exits 0
when ``ok`` holds and 1 when it does not; a HeisSplitError exits 2.

Batch output with --jobs k is byte-identical to the serial output for the
same seed: no row depends on scheduling (the master seed is only recorded,
in the seed column and in the oracle's reports), and rows are emitted in -p
order, then by a.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .errors import HeisSplitError, MalformedSpecError
from .finite_field import Context, is_prime, make_context, power_residue_symbol
from .heis_arith import (
    a2_value,
    a_ell_value,
    a_poly_eval,
    expand_a_poly,
    frobenius_prediction,
)
from .seeds import DEFAULT_SEED
from .splitting_oracle import split_K, split_R
from .verification import (
    SCAN_COLUMNS,
    admissible_values,
    check_block_det,
    chebotarev_stats,
    discriminant_ratio_check,
    histogram_rows,
    record_to_row,
    rows_to_csv,
    rows_to_json,
    scan_point,
    scan_rows,
    verify_theorems_scan,
)

OUTPUT_DIR_ENV = "HEISSPLIT_OUTPUT_DIR"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

HISTOGRAM_COLUMNS = ("p", "ell", "label", "class_size", "observed", "expected", "deviation")


def _parse_p_spec(spec: str) -> list[int]:
    """Expand a p list/range: "13", "13,31", "3..200" (primes in range).
    A p listed twice is kept once, where it first appears."""
    spec = spec.strip()
    try:
        for sep in ("..", "-"):
            if sep in spec and "," not in spec:
                lo_s, hi_s = spec.split(sep, 1)
                if lo_s and hi_s:
                    lo, hi = int(lo_s), int(hi_s)
                    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]
        return list(dict.fromkeys(int(tok) for tok in spec.split(",") if tok.strip()))
    except ValueError:
        raise MalformedSpecError(
            f'malformed -p {spec!r}: expected "13", "13,31" or "3..200"'
        ) from None


def _contexts(p_spec: str, ell: int) -> list[Context]:
    """Contexts for every usable (p, ell); each skipped p is warned about."""
    contexts = []
    for p in _parse_p_spec(p_spec):
        try:
            contexts.append(make_context(p, ell))
        except HeisSplitError as exc:
            print(f"skipping p={p}, ell={ell}: {exc}", file=sys.stderr)
    if not contexts:
        raise MalformedSpecError(f"-p {p_spec!r} -l {ell} leaves no usable (p, ell)")
    return contexts


def _resolve_output(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _cannot_write(path: Path, exc: OSError) -> MalformedSpecError:
    return MalformedSpecError(f"cannot write {path}: {exc.strerror}")


def _check_output(output: str | None) -> None:
    """Fail before any work when the output target cannot be opened.

    The probe leaves nothing behind. A missing target is created
    exclusively and removed again, with the directories made for it. An
    existing file or directory is opened for appending, which truncates
    nothing. Any other existing target (a FIFO, a device, a dangling
    symlink) is not opened, since opening it has effects of its own; the
    write reports its errors.
    """
    path = _resolve_output(output)
    if path is None:
        return
    made = []
    parent = path.parent
    while parent != parent.parent and not parent.exists():
        made.append(parent)
        parent = parent.parent
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            if path.is_file() or path.is_dir():
                os.close(os.open(path, os.O_WRONLY | os.O_APPEND))
        else:
            os.close(fd)
            path.unlink()
    except OSError as exc:
        raise _cannot_write(path, exc) from None
    finally:
        for directory in made:
            try:
                directory.rmdir()
            except OSError:
                pass


def _emit(rows: list[dict], columns, fmt: str, output: str | None) -> None:
    text = rows_to_csv(rows, columns) if fmt == "csv" else rows_to_json(rows)
    path = _resolve_output(output)
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        except OSError as exc:
            raise _cannot_write(path, exc) from None


def _scan_worker(task: tuple[Context, int, int]) -> dict:
    ctx, a, seed = task
    return record_to_row(ctx.p, ctx.ell, seed, scan_point(ctx, a, seed))


def _parallel_scan(contexts: list[Context], seed: int, jobs: int) -> list[dict]:
    tasks = [(ctx, a, seed) for ctx in contexts for a in admissible_values(ctx)]
    # the pool starts all its workers at once, so never more than the CPUs
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        return [_scan_worker(t) for t in tasks]
    import concurrent.futures  # only a parallel scan pays for the pool

    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_scan_worker, tasks, chunksize=8))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _one_row(row: dict, ok: bool = True) -> tuple:
    """A single-row command's result: its keys are its columns."""
    return tuple(row), [row], ok


def _cmd_symbol(args):
    ctx = make_context(args.p, args.ell)
    n = power_residue_symbol(ctx, args.a)
    return _one_row(
        {"p": ctx.p, "ell": ctx.ell, "a": args.a % ctx.p, "seed": args.seed, "symbol": n}
    )


def _cmd_apoly(args):
    ctx = make_context(args.p, args.ell)
    coeffs = list(expand_a_poly(ctx))
    text = ";".join(map(str, coeffs)) if args.format == "csv" else coeffs
    return _one_row({"p": ctx.p, "ell": ctx.ell, "degree": len(coeffs) - 1, "coeffs": text})


def _cmd_avalue(args):
    ctx = make_context(args.p, args.ell)
    a = ctx.reduce_a(args.a)
    if ctx.ell == 2:
        value = a2_value(ctx, a)
        method = "recurrence"
    elif (
        power_residue_symbol(ctx, a) == 0
        and power_residue_symbol(ctx, (1 - a) % ctx.p) == 0
    ):
        value = a_ell_value(ctx, a)
        method = "closed"
    else:
        value = a_poly_eval(ctx, a)
        method = "poly"
    return _one_row(
        {"p": ctx.p, "ell": ctx.ell, "a": a, "seed": args.seed, "method": method, "value": value}
    )


def _cmd_frob(args):
    ctx = make_context(args.p, args.ell)
    pred = frobenius_prediction(ctx, args.a)
    return _one_row(
        {
            "p": pred.p,
            "ell": pred.ell,
            "a": pred.a,
            "seed": args.seed,
            "e_alpha": pred.e_alpha,
            "e_beta": pred.e_beta,
            "a_ell": pred.a_value,
            "case": pred.a2_case,
            "e_central": pred.e_central,
            "central_resolved": pred.central_resolved,
            "predicted": pred.predicted_count,
            "class": pred.class_label,
        }
    )


def _cmd_split(args):
    ctx = make_context(args.p, args.ell)
    a = args.a % ctx.p
    if args.mode == "both":
        row = record_to_row(ctx.p, ctx.ell, args.seed, scan_point(ctx, a, args.seed))
    else:
        row = dict.fromkeys(SCAN_COLUMNS)
        row.update(p=ctx.p, ell=ctx.ell, a=a, seed=args.seed)
        if args.mode == "predict":
            pred = frobenius_prediction(ctx, a)
            row.update(
                e_alpha=pred.e_alpha,
                e_beta=pred.e_beta,
                a_ell=pred.a_value,
                predicted=pred.predicted_count,
            )
        else:
            row["oracle_K"] = split_K(ctx, a, args.seed).prime_count
            row["oracle_R"] = split_R(ctx, a, args.seed).prime_count
    return SCAN_COLUMNS, [row], row["agree"] is not False


def _cmd_scan(args):
    rows = _parallel_scan(_contexts(args.p, args.ell), args.seed, args.jobs)
    return SCAN_COLUMNS, rows, all(r["agree"] for r in rows)


def _cmd_verify(args):
    rows: list[dict] = []
    failed = False
    for ctx in _contexts(args.p, args.ell):
        result = verify_theorems_scan(ctx, args.seed)
        rows.extend(scan_rows(result))
        print(
            f"verify p={ctx.p} ell={ctx.ell}: {len(result.records)} records, "
            f"{len(result.failures)} failures",
            file=sys.stderr,
        )
        for failure in result.failures:
            failed = True
            print(f"  FAIL {failure}", file=sys.stderr)
        det = check_block_det(ctx.field, 2, ctx.ell, args.seed, trials=50)
        if not det.passed:
            failed = True
            print(f"  FAIL block determinant: {det.failures[0]}", file=sys.stderr)
        if ctx.ell in (2, 3):
            values = admissible_values(ctx)[:2]
            if len(values) >= 2:
                disc = discriminant_ratio_check(
                    ctx, values[0], values[1], check_choice_invariance=False
                )
                if not disc.passed:
                    failed = True
                    print(f"  FAIL discriminant ratio at {disc}", file=sys.stderr)
        hist = chebotarev_stats(ctx)
        for b in hist.bins:
            print(
                f"  class {b.label}: observed {b.observed}, expected {b.expected:.2f}",
                file=sys.stderr,
            )
    return SCAN_COLUMNS, rows, not failed


def _cmd_stats(args):
    rows: list[dict] = []
    for ctx in _contexts(args.p, args.ell):
        rows.extend(histogram_rows(chebotarev_stats(ctx)))
    return HISTOGRAM_COLUMNS, rows, True


def _cmd_detlemma(args):
    ctx = make_context(args.p, args.ell)
    report = check_block_det(ctx.field, args.block_size, ctx.ell, args.seed, args.trials)
    return _one_row(
        {
            "p": ctx.p,
            "ell": ctx.ell,
            "n": args.block_size,
            "trials": args.trials,
            "seed": args.seed,
            "passed": report.passed,
        },
        report.passed,
    )


def _cmd_disc(args):
    ctx = make_context(args.p, args.ell)
    report = discriminant_ratio_check(ctx, args.a, args.a2, allow_large=args.allow_large_ell)
    return _one_row(
        {
            "p": ctx.p,
            "ell": ctx.ell,
            "a": report.a,
            "a2": report.a2,
            "seed": args.seed,
            "det_nonzero": report.det_nonzero,
            "ratio_ok": report.ratio_ok,
            "passed": report.passed,
        },
        report.passed,
    )


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type of the counts (--jobs, --trials, -n): an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heissplit",
        description=(
            "Splitting of degree-one primes (t - a) in mod-ell Heisenberg "
            "extensions of F_p(t): criterion formulas, factorization oracle, "
            "and verification suites."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--job-file",
        metavar="FILE",
        help="run one job per line (key=value tokens mirroring the flags)",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"master seed (default {DEFAULT_SEED})")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("-o", "--output", default=None,
                        help=f"output path (relative paths honor ${OUTPUT_DIR_ENV})")
    single_p = argparse.ArgumentParser(add_help=False)
    single_p.add_argument("-p", type=int, required=True, help="prime p")
    single_p.add_argument("-l", "--ell", type=int, required=True, help="prime ell | p-1")
    multi_p = argparse.ArgumentParser(add_help=False)
    multi_p.add_argument("-p", required=True,
                         help='prime list or range: "13", "13,31", "3..200"')
    multi_p.add_argument("-l", "--ell", type=int, required=True, help="prime ell")
    need_a = argparse.ArgumentParser(add_help=False)
    need_a.add_argument("-a", type=int, required=True, help="specialization point a")

    sub = parser.add_subparsers(dest="command")

    p_symbol = sub.add_parser("symbol", parents=[common, single_p, need_a],
                              help="power residue symbol index of a")
    p_symbol.set_defaults(handler=_cmd_symbol)

    p_apoly = sub.add_parser("apoly", parents=[common, single_p],
                             help="coefficients of the criterion polynomial")
    p_apoly.set_defaults(handler=_cmd_apoly)

    p_avalue = sub.add_parser("avalue", parents=[common, single_p, need_a],
                              help="criterion value A_ell(a)")
    p_avalue.set_defaults(handler=_cmd_avalue)

    p_frob = sub.add_parser("frob", parents=[common, single_p, need_a],
                            help="Frobenius-side prediction record")
    p_frob.set_defaults(handler=_cmd_frob)

    p_split = sub.add_parser("split", parents=[common, single_p, need_a],
                             help="prime counts above (t - a)")
    mode = p_split.add_mutually_exclusive_group()
    mode.add_argument("--oracle", dest="mode", action="store_const", const="oracle")
    mode.add_argument("--predict", dest="mode", action="store_const", const="predict")
    mode.add_argument("--both", dest="mode", action="store_const", const="both")
    p_split.set_defaults(handler=_cmd_split, mode="both")

    p_scan = sub.add_parser("scan", parents=[common, multi_p],
                            help="prediction vs oracle for every admissible a")
    p_scan.add_argument("--jobs", type=_positive_int, default=1, help="worker processes")
    p_scan.set_defaults(handler=_cmd_scan)

    p_verify = sub.add_parser("verify", parents=[common, multi_p],
                              help="full verification suite per (p, ell)")
    p_verify.set_defaults(handler=_cmd_verify)

    p_stats = sub.add_parser("stats", parents=[common, multi_p],
                             help="Frobenius class histogram (informational)")
    p_stats.set_defaults(handler=_cmd_stats)

    p_det = sub.add_parser("detlemma", parents=[common, single_p],
                           help="randomized block determinant identity trials")
    p_det.add_argument("--trials", type=_positive_int, default=100)
    p_det.add_argument("-n", "--block-size", type=_positive_int, default=2)
    p_det.set_defaults(handler=_cmd_detlemma)

    p_disc = sub.add_parser("disc", parents=[common, single_p, need_a],
                            help="discriminant ratio check at (a, a2)")
    p_disc.add_argument("--a2", type=int, required=True)
    p_disc.add_argument("--allow-large-ell", action="store_true",
                        help="permit ell >= 5 (ell^3 x ell^3 determinant)")
    p_disc.set_defaults(handler=_cmd_disc)

    return parser


_JOB_KEY_FLAGS = {
    "command": None,
    "p": "-p",
    "ell": "-l",
    "l": "-l",
    "a": "-a",
    "a2": "--a2",
    "seed": "--seed",
    "format": "--format",
    "output": "-o",
    "o": "-o",
    "jobs": "--jobs",
    "trials": "--trials",
    "n": "--block-size",
    "mode": None,  # expanded to --oracle/--predict/--both
}


def _job_line_to_argv(line: str) -> list[str]:
    argv: list[str] = []
    command = None
    mode = None
    for token in line.split():
        if "=" not in token:
            raise ValueError(f"malformed token {token!r} (expected key=value)")
        key, value = token.split("=", 1)
        key = key.strip().lower()
        if key == "command":
            command = value
        elif key == "mode":
            mode = value
        elif key in _JOB_KEY_FLAGS:
            argv.extend([_JOB_KEY_FLAGS[key], value])
        else:
            raise ValueError(f"unknown job key {key!r}")
    if command is None:
        raise ValueError("job line is missing command=...")
    if command == "batch" or command == "--job-file":
        raise ValueError("job files cannot nest")
    if mode is not None:
        argv.append(f"--{mode}")
    return [command] + argv


def _run_job_file(path: str, parser: argparse.ArgumentParser) -> int:
    worst = EXIT_OK
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read job file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            argv = _job_line_to_argv(line)
        except ValueError as exc:
            print(f"job line {lineno}: {exc}", file=sys.stderr)
            worst = max(worst, EXIT_USAGE)
            continue
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse rejected this line
            code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
            print(f"job line {lineno}: invalid arguments: {line}", file=sys.stderr)
        else:
            code = _run_command(args, f"job line {lineno}: ")
        worst = max(worst, code)
    return worst


def _run_command(args, where: str = "") -> int:
    """Check -o, run the handler, write its rows and map ``ok`` to the exit
    code; a HeisSplitError is reported after ``where`` and exits 2."""
    try:
        _check_output(args.output)
        columns, rows, ok = args.handler(args)
        _emit(rows, columns, args.format, args.output)
    except HeisSplitError as exc:
        print(f"{where}error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if ok else EXIT_FAILURE


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.job_file:
        return _run_job_file(args.job_file, parser)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    return _run_command(args)


def run_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run_main()
