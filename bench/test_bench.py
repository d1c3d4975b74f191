"""Tests of the benchmark itself: metric names, the tail rule, seeded inputs,
and that tracing leaves the package as it found it."""

from __future__ import annotations

import json
import re
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_the_spec():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layer = [m["name"] for m in SPEC["per_layer"]]
    for name in e2e + layer + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name), name
    assert len(set(e2e + layer)) == len(e2e + layer)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        run.PER_LAYER
    )
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize(
    "n, index, beyond",
    [
        (1, 0, 0),
        (8, 4, 3),  # too few samples: the upper median stands in
        (11, 5, 5),
        (20, 10, 9),
        (21, 10, 10),
        (100, 89, 10),
        (1000, 989, 10),
    ],
)
def test_tail_rank(n, index, beyond):
    assert measure.tail_index(n) == index
    stats = measure.summarize([float(i) for i in range(n)])
    assert stats["tail_ms"] == index * 1000 >= stats["p50_ms"]
    assert stats["tail_beyond"] == beyond


def test_tail_percentile_label():
    stats = measure.summarize([0.001 * i for i in range(200)])
    assert stats["tail_percentile"] == 95.0
    assert stats["tail_beyond"] == 10


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_inputs_are_deterministic_per_seed(name, tmp_path):
    ref = workloads.load_reference()

    def first_units(seed):
        wl = workloads.build(name, seed, ref, tmp_path)
        return wl.seed, list(islice(wl.units(), 300))

    assert first_units(7) == first_units(7)
    assert first_units(7) != first_units(8)


def test_frob_large_takes_fresh_primes_in_three_to_one_shares(tmp_path):
    wl = workloads.build("frob_large", 3, workloads.load_reference(), tmp_path)
    first_round = list(islice(wl.units(), len(wl.order)))
    primes = [(ell, p) for ell, p, _a, _pred in first_round]
    assert len(set(primes)) == len(primes) >= 11
    ells = [ell for ell, _p in primes]
    assert ells.count(2) == 3 * ells.count(3)


def test_tracer_restores_every_binding():
    import heissplit.cli  # noqa: F401  (loads every traced module)
    from heissplit import finite_field, heis_arith

    before = {m: dict(vars(sys.modules[f"heissplit.{m}"])) for m in MODULES}
    methods = dict(vars(finite_field.ExtField))
    tracer = Tracer()
    tracer.install()
    try:
        heis_arith.frobenius_prediction(finite_field.make_context(13, 3), 3)
    finally:
        tracer.remove()
    assert tracer.calls["heis_arith.frobenius_prediction"] == 1
    assert tracer.spans
    for m in MODULES:
        after = vars(sys.modules[f"heissplit.{m}"])
        assert all(after[k] is v for k, v in before[m].items()), m
    assert all(vars(finite_field.ExtField)[k] is v for k, v in methods.items())
