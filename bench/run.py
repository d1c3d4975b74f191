"""Run one heissplit benchmark workload and print its metrics.

    python3 bench/run.py --workload scan_l2 --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from the src/ directory next to
bench/.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (see README.md); with --trace 1 the workload runs untraced
for half the seconds, then traced on the same units, and the metrics are the
per-layer ones, including the tracing overhead.

Exit status: 0 when every output matched the pinned reference and every
determinism check passed, 1 otherwise (also when the program cannot be
imported, in which case nothing is printed on standard output).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import measure
import workloads
from tracer import TARGETS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 7
SETUP_UNITS = 100
SETUP_CODE = """
import itertools, sys, time
t0 = time.perf_counter()
import workloads
workloads.Program()  # imports heissplit
wl = workloads.build(sys.argv[1], int(sys.argv[2]), workloads.load_reference(),
                    workloads.BENCH_DIR / "out")
list(itertools.islice(wl.units(), int(sys.argv[3])))
print(time.perf_counter() - t0)
"""

# Points re-run with a second program seed by the oracle_l5 seed check.
SEED_CHECK_POINTS = 2

# F_{61^5}, the largest residue field of oracle_l5, for the kernel timings.
KERNEL_P, KERNEL_M = 61, 5
KERNEL_PAIRS = 200
KERNEL_REPEATS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("point_p50_ms", "ms"),
    ("point_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, better).  Names are <module>.<function>.<stat>.
PER_LAYER = (
    ("finite_field.ExtField.mul.calls", "count", "lower"),
    ("finite_field.ExtField.mul.calls_deg2", "count", "lower"),
    ("finite_field.ExtField.mul.calls_deg5", "count", "lower"),
    ("finite_field.ExtField.mul.coeff_products", "count", "lower"),
    ("finite_field.ExtField.inv.calls", "count", "lower"),
    ("finite_field.ExtField.mul.us_deg5", "us", "lower"),
    ("finite_field.ExtField.pow.ms_deg5", "ms", "lower"),
    ("polynomial.factor.calls", "count", "lower"),
    ("polynomial.factor.total_s", "s", "lower"),
    ("polynomial.Poly.pow_mod.calls", "count", "lower"),
    ("polynomial.Poly.pow_mod.total_s", "s", "lower"),
    ("polynomial.Poly.mul.calls", "count", "lower"),
    ("polynomial.Poly.divmod.calls", "count", "lower"),
    ("polynomial.edf.draws", "count", "lower"),
    ("polynomial.edf.useful_ratio", "ratio", "higher"),
    ("polynomial.roots_in_field.calls", "count", "lower"),
    ("polynomial.roots_in_field.total_s", "s", "lower"),
    ("polynomial.field_embedding.total_s", "s", "lower"),
    ("splitting_oracle.split_K.total_s", "s", "lower"),
    ("splitting_oracle.split_K.self_s", "s", "lower"),
    ("splitting_oracle.split_R.total_s", "s", "lower"),
    ("splitting_oracle.split_R.self_s", "s", "lower"),
    ("splitting_oracle.kprime_cache.hit_ratio", "ratio", "higher"),
    ("splitting_oracle.calls", "count", "lower"),
    ("heis_arith.frobenius_prediction.calls", "count", "lower"),
    ("heis_arith.frobenius_prediction.total_s", "s", "lower"),
    ("heis_arith.frobenius_prediction.self_s", "s", "lower"),
    ("heis_arith.a2_value.calls", "count", "lower"),
    ("heis_arith.a2_value.total_s", "s", "lower"),
    ("heis_arith.a2_by_closed_form.total_s", "s", "lower"),
    ("heis_arith.a_ell_value.total_s", "s", "lower"),
    ("heis_arith.expand_a_poly.total_s", "s", "lower"),
    ("heis_arith.expand_a_poly.misses", "count", "lower"),
    ("finite_field.make_context.calls", "count", "lower"),
    ("finite_field.make_context.total_s", "s", "lower"),
    ("cli.make_context.calls", "count", "lower"),
    ("seeds.derive_seed.calls", "count", "lower"),
    ("seeds.derive_seed.total_s", "s", "lower"),
    ("verification.scan_point.calls", "count", "lower"),
    ("verification.scan_point.self_s", "s", "lower"),
    ("verification.rows_to_csv.total_s", "s", "lower"),
    ("cli.main.total_s", "s", "lower"),
    ("finite_field.build_extension.misses", "count", "lower"),
    ("finite_field.build_extension.total_s", "s", "lower"),
    ("finite_field.lth_root.calls", "count", "lower"),
    ("finite_field.lth_root.total_s", "s", "lower"),
    ("finite_field.power_residue_symbol.calls", "count", "lower"),
    ("heisenberg.element_order.total_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("verification.self_s", "s", "lower"),
    ("heis_arith.self_s", "s", "lower"),
    ("splitting_oracle.self_s", "s", "lower"),
    ("polynomial.self_s", "s", "lower"),
    ("finite_field.self_s", "s", "lower"),
    ("heisenberg.self_s", "s", "lower"),
    ("seeds.self_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def import_program():
    """The heissplit modules from this checkout's src/, or exit 1."""
    sys.path.insert(0, str(SRC))
    try:
        import heissplit
    except ImportError as exc:
        raise SystemExit(f"cannot import heissplit from {SRC}: {exc}")
    if Path(heissplit.__file__).resolve().parent != SRC / "heissplit":
        raise SystemExit(f"heissplit was imported from {heissplit.__file__}, not {SRC}")
    return workloads.Program()


def setup_probe(workload: str, seed: int):
    """A callable timing import plus input generation in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    argv = [sys.executable, "-c", SETUP_CODE, workload, str(seed), str(SETUP_UNITS)]

    def probe() -> float:
        done = subprocess.run(
            argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        return float(done.stdout.strip().splitlines()[-1])

    return probe


def timed_pass(wl, seconds: float, units=None, tracer=None, probe=None) -> dict:
    """Run units until the seconds are spent (or every unit of ``units``).

    ``probe`` runs SETUP_REPEATS times between units, spread evenly over the
    seconds, so that the set-up samples see the same machine as the units.
    """
    workloads.clear_program_caches()
    rec = {"units": [], "times": [], "points": 0, "failed": 0, "outputs": [], "errors": [],
           "setup": []}
    probes = SETUP_REPEATS if probe is not None else 0
    source = wl.units() if units is None else units
    start = perf_counter()
    for unit in source:
        if len(rec["setup"]) < probes and (
            perf_counter() - start >= len(rec["setup"]) * seconds / probes
        ):
            rec["setup"].append(probe())
        wl.prepare(unit)
        if tracer is not None:
            tracer.point = wl.point_id(unit)
        error = None
        t0 = perf_counter()
        try:
            result = wl.run(unit)
        except Exception:  # a failing point is counted, and the run goes on
            result, error = None, traceback.format_exc()
        elapsed = perf_counter() - t0
        points, failed, output = wl.collect(unit, result, error)
        rec["units"].append(unit)
        rec["times"].append(elapsed)
        rec["points"] += points
        rec["failed"] += failed
        rec["outputs"].append(output)
        if error is not None:
            rec["errors"].append(error)
        if units is None and perf_counter() - start >= seconds:
            break
    while len(rec["setup"]) < probes:
        rec["setup"].append(probe())
    return rec


def determinism_checks(wl, rec: dict, nproc: int) -> list[str]:
    """Untimed: a second program seed gives the same counts; for scan_l2,
    --jobs 2 gives the serial bytes.  Returns the failed checks."""
    slice_max_p, strip = workloads.SLICE_MAX_P, workloads.strip_seed_column
    problems = []
    if wl.name == "scan_l2":
        serial = wl.scan_text(slice_max_p, wl.seed)
        other = wl.scan_text(slice_max_p, wl.seed + 1)
        if strip(serial) != strip(other):
            problems.append("scan_l2 slice: a second seed changed the rows")
        jobs = min(2, nproc)
        if wl.scan_text(slice_max_p, wl.seed, jobs) != serial:
            problems.append(f"scan_l2 slice: --jobs {jobs} output differs from serial")
        print(f"check: scan 3..{slice_max_p} second seed and --jobs {jobs} vs serial: "
              f"{'ok' if not problems else 'FAILED'}")
    elif wl.name == "oracle_l5":
        for p, a, seed in rec["units"][:SEED_CHECK_POINTS]:
            if wl.counts(p, a, seed) != wl.counts(p, a, seed ^ 0x5EED):
                problems.append(f"oracle_l5 p={p} a={a}: a second seed changed the counts")
        print(f"check: oracle counts at {SEED_CHECK_POINTS} points under a second seed: "
              f"{'ok' if not problems else 'FAILED'}")
    return problems


def kernel_timings(program) -> dict:
    """Untraced F_{61^5} kernels: one multiply (us) and one (q-1)/5 power (ms)."""
    import random

    fld = program.finite_field.build_extension(KERNEL_P, KERNEL_M)
    rng = random.Random(KERNEL_P)
    pairs = [(fld.sample(rng), fld.sample(rng)) for _ in range(KERNEL_PAIRS)]
    mul_us, pow_ms = [], []
    exponent = (fld.order - 1) // KERNEL_M
    mul = fld.mul
    for i in range(KERNEL_REPEATS):
        t0 = perf_counter()
        for _ in range(10):
            for a, b in pairs:
                mul(a, b)
        mul_us.append((perf_counter() - t0) / (10 * KERNEL_PAIRS) * 1e6)
        t0 = perf_counter()
        fld.pow(pairs[i][0], exponent)
        pow_ms.append((perf_counter() - t0) * 1000)
    return {"mul_us": statistics.median(mul_us), "pow_ms": statistics.median(pow_ms)}


def layer_metrics(tracer, untraced_s: float, traced_s: float, kernel: dict) -> dict:
    calls, total, self_time = tracer.calls, tracer.total, tracer.self_time
    by_degree = tracer.mul_by_degree
    draws = calls["polynomial._random_poly"]
    hits = calls["splitting_oracle._k_primes.hits"]
    lookups = hits + calls["splitting_oracle._k_primes.misses"]
    values = {
        "finite_field.ExtField.mul.calls": sum(by_degree.values()),
        "finite_field.ExtField.mul.calls_deg2": by_degree[2],
        "finite_field.ExtField.mul.calls_deg5": by_degree[5],
        "finite_field.ExtField.mul.coeff_products": sum(m * m * n for m, n in by_degree.items()),
        "finite_field.ExtField.mul.us_deg5": kernel["mul_us"],
        "finite_field.ExtField.pow.ms_deg5": kernel["pow_ms"],
        "polynomial.edf.draws": draws,
        "polynomial.edf.useful_ratio": tracer.edf_splits / draws if draws else 0.0,
        "splitting_oracle.kprime_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "splitting_oracle.calls": sum(
            calls[f"splitting_oracle.{path}"] for mod, path, _ in TARGETS
            if mod == "splitting_oracle"
        ),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    for module, seconds in tracer.module_self_seconds().items():
        values[f"{module}.self_s"] = seconds
    for name, _unit, _better in PER_LAYER:
        if name in values:
            continue
        function, stat = name.rsplit(".", 1)
        if stat == "total_s":
            values[name] = total[function]
        elif stat == "self_s":
            values[name] = self_time[function]
        else:  # calls, misses
            values[name] = calls[function if stat == "calls" else f"{function}.{stat}"]
    return {name: values[name] for name, _unit, _better in PER_LAYER}


def print_shares(tracer, traced_s: float) -> dict:
    """Self-time share of each layer, plus inclusive shares of the entry points."""
    shares = {m: s / traced_s for m, s in tracer.module_self_seconds().items()}
    shares["bench"] = 1 - sum(shares.values())
    for name in ("polynomial.factor", "heis_arith.frobenius_prediction",
                 "splitting_oracle.split_R", "verification.scan_point"):
        shares[f"{name} (inclusive)"] = tracer.total[name] / traced_s
    for name, share in shares.items():
        print(f"share {name}: {share:.1%}")
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = import_program()
    machine = measure.machine_info()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu']!r} python={machine['python']}")
    OUT_DIR.mkdir(exist_ok=True)

    wl = workloads.build(args.workload, args.seed, workloads.load_reference(), OUT_DIR, program)

    if args.trace == 0:
        rec = timed_pass(wl, args.seconds, probe=setup_probe(args.workload, args.seed))
        rss = measure.peak_rss_mb()
        passes = [rec]
    else:
        kernel = kernel_timings(program)
        rec = timed_pass(wl, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_pass(wl, 0, units=rec["units"], tracer=tracer)
        finally:
            tracer.remove()
        passes = [rec, traced]

    try:
        problems = determinism_checks(wl, rec, machine["nproc"])
    except Exception:  # a check that raises is a failed check
        print(traceback.format_exc(), file=sys.stderr)
        problems = ["a determinism check raised"]
    attempted = sum(r["points"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    for r in passes:
        for error in r["errors"][:1]:
            print(error, file=sys.stderr)
    if failed:
        problems.append(f"{failed} of {attempted} points raised or disagreed with the reference")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")

    if args.trace == 0:
        stats = measure.summarize(rec["times"])
        unit = "scan" if args.workload == "scan_l2" else "point"
        print(f"timed units: {stats['n']} ({unit}s), {rec['points']} points in "
              f"{sum(rec['times']):.3f} s")
        print(f"point_tail_ms is p{stats['tail_percentile']:.1f}: "
              f"{stats['tail_beyond']} of {stats['n']} {unit}s lie beyond it")
        metrics = {
            "setup_s": statistics.median(rec["setup"]),
            "points_per_s": rec["points"] / sum(rec["times"]),
            "point_p50_ms": stats["p50_ms"],
            "point_tail_ms": stats["tail_ms"],
            "peak_rss_mb": rss,
        }
        units = dict(END_TO_END)
    else:
        untraced_s, traced_s = sum(rec["times"]), sum(traced["times"])
        if traced["outputs"] != rec["outputs"]:
            problems.append("data outputs differ with tracing on")
        print(f"check: outputs with tracing on and off: "
              f"{'identical' if traced['outputs'] == rec['outputs'] else 'DIFFERENT'}")
        print(f"tracing overhead: {traced_s - untraced_s:+.3f} s "
              f"({traced_s:.3f} traced vs {untraced_s:.3f} untraced, "
              f"{len(rec['units'])} units, {len(tracer.spans)} spans kept, "
              f"{tracer.dropped} dropped)")
        print("ExtField.mul calls by degree: "
              + ", ".join(f"deg{m}={n}" for m, n in sorted(tracer.mul_by_degree.items())))
        shares = print_shares(tracer, traced_s)
        metrics = layer_metrics(tracer, untraced_s, traced_s, kernel)
        units = {name: unit for name, unit, _ in PER_LAYER}
        tracer.write_spans(OUT_DIR / f"spans_{args.workload}.jsonl")
        summary = {"workload": args.workload, "seed": args.seed, "machine": machine,
                   "shares": shares, "metrics": metrics}
        (OUT_DIR / f"trace_{args.workload}.json").write_text(json.dumps(summary, indent=1))

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for problem in problems:
        print(f"FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
