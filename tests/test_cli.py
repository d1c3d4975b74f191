"""CLI surface: subcommands, formats, exit codes, job files, parallelism."""

import ast
import concurrent.futures
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from heissplit import (
    DegenerateValueError,
    a_ell_value,
    a_poly_eval,
    cli,
    make_context,
    power_residue_symbol,
    verification,
)
from heissplit.cli import main, _parse_p_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


APOLY_SHA256 = {
    (5, 2): ("be2109c5f0f600b2d808fd4a8c5cd51335701e25b59f8e51bd40f1c169791aab",
             "95e33d3045173d79370d97ccb7e5437385e7c29631bd77e12bdc3fd06e01be9a"),
    (13, 2): ("028826b598999a9c5bf3516e660be32a1894550a979bfc476b34641230fdb127",
              "a471047c895236e5a447b3e97fba5fcf5aa02dfb6c1fad7645e491f957e6fd70"),
    (31, 3): ("e16e00cadf371f00fd7ce7d5835b2a7474daaed12431f826d229cdfb771446b6",
              "a2d1621a59c87807144373fe80f5c9fd1422697e387f80412bffc6c6fee0b8a2"),
    (11, 5): ("55dfc22d84aa99ff4680c2b9a0f0c9da3b14373b6f59fd0e79378bdf1a19295c",
              "fdaf9ebe7ce1f398b226af80af336458d0d05a92cc83664c73e612ff7ae502c0"),
    (29, 7): ("65dffb8848a73f777054afd2198a6ab07cc9b1eb0156f1f69cb15df35e856410",
              "92530e4c103ec703e8dd3fcafbb44a9bf6399b02d423be98ec1106d46cdd0be5"),
    (23, 11): ("2687f18b1b6763ef14869cf69a2273602af9e042965e386aedfbf3626e26b1f8",
               "5beee4975bf4e6a5bd4f39d3eb4d1569010d94fe1387abd189324df4184b7b0c"),
    (10009, 3): ("2ed539992acc32d0423686eccb59f46dc158f8efd86a633653a9a79ba17656c6",
                 "d58eb2fc83e420d7baba6c8519351d25725a9fbb88da8fd0503aa76fed380058"),
    (200003, 2): ("51d780ed3684d68e6fa86ad851725e21d4661668736fd6256f17907bfa1ec2d9",
                  "866cab2a853f7014c8abffbf71f2a0cab42ed9a9019a4a53c2c0ae33b039e6e9"),
}


class TestPSpec:
    def test_single(self):
        assert _parse_p_spec("13") == [13]

    def test_list(self):
        assert _parse_p_spec("13,31") == [13, 31]

    def test_range_expands_to_primes(self):
        assert _parse_p_spec("3..20") == [3, 5, 7, 11, 13, 17, 19]
        assert _parse_p_spec("3-20") == [3, 5, 7, 11, 13, 17, 19]

    def test_repeats_keep_the_first_place(self):
        assert _parse_p_spec("13,31,13,7,31") == [13, 31, 7]

    @pytest.mark.parametrize("command", ["scan", "verify", "stats"])
    def test_repeated_p_is_run_once(self, capsys, command):
        once = run(capsys, command, "-p", "13,7", "-l", "3")
        assert run(capsys, command, "-p", "13,7,13", "-l", "3") == once


class TestSplit:
    def test_both_example(self, capsys):
        code, out, _ = run(capsys, "split", "--both", "-p", "13", "-l", "2", "-a", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("p,ell,a,")
        assert lines[1] == "13,2,4,0,0,1,8,4,8,true,271828"

    def test_oracle_only(self, capsys):
        code, out, _ = run(capsys, "split", "--oracle", "-p", "13", "-l", "2", "-a", "4")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[6] == ""  # no prediction column
        assert row[7] == "4" and row[8] == "8"

    def test_predict_only(self, capsys):
        code, out, _ = run(capsys, "split", "--predict", "-p", "13", "-l", "2", "-a", "4")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[6] == "8" and row[7] == "" and row[8] == ""

    @pytest.mark.parametrize("agree", [True, False])
    @pytest.mark.parametrize(
        "p,ell,a", [(13, 2, 4), (13, 2, 6), (31, 3, 2), (31, 3, 5), (11, 5, 3)]
    )
    def test_both_equals_the_scan_row(self, capsys, monkeypatch, p, ell, a, agree):
        # split --both is scan at one point: the same CSV row and exit
        # code, also where the prediction disagrees with the oracle
        if not agree:
            predict = verification.frobenius_prediction

            def off_by_one_at_a(ctx, b):
                pred = predict(ctx, b)
                if b != a:
                    return pred
                return dataclasses.replace(pred, predicted_count=pred.predicted_count + 1)

            monkeypatch.setattr(verification, "frobenius_prediction", off_by_one_at_a)
        argv = ("-p", str(p), "-l", str(ell))
        code, out, _ = run(capsys, "split", "--both", *argv, "-a", str(a))
        header, row = out.splitlines()
        scan_code, scan_out, _ = run(capsys, "scan", *argv)
        scan_header, *scan_rows = scan_out.splitlines()
        assert header == scan_header
        assert [r for r in scan_rows if r.split(",")[2] == str(a)] == [row]
        assert code == scan_code == (0 if agree else 1)


class TestSimpleCommands:
    def test_symbol(self, capsys):
        code, out, _ = run(capsys, "symbol", "-p", "7", "-l", "3", "-a", "2")
        assert code == 0
        assert out.strip().split("\n")[1].endswith(",2")

    def test_apoly_example(self, capsys):
        code, out, _ = run(capsys, "apoly", "-p", "5", "-l", "2")
        assert code == 0
        assert out.strip().split("\n")[1] == "5,2,1,1;1"

    def test_apoly_json(self, capsys):
        code, out, _ = run(capsys, "apoly", "-p", "5", "-l", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["coeffs"] == [1, 1]

    def test_apoly_p10009_ell3(self, capsys):
        # 3 divides 10008; the expansion has (p - 1) / 3 + 1 coefficients
        code, out, _ = run(capsys, "apoly", "-p", "10009", "-l", "3")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[:3] == ["10009", "3", "3336"]
        assert len(row[3].split(";")) == 3337
        ctx = make_context(10009, 3)
        both_trivial = [
            a for a in range(2, ctx.p)
            if power_residue_symbol(ctx, a) == 0
            and power_residue_symbol(ctx, (1 - a) % ctx.p) == 0
        ][:20]
        assert len(both_trivial) == 20
        for a in both_trivial:
            assert a_ell_value(ctx, a) == a_poly_eval(ctx, a), a

    @pytest.mark.parametrize("p,ell", list(APOLY_SHA256))
    def test_apoly_output_is_pinned(self, capsys, p, ell):
        # sha256 of the CSV and JSON apoly outputs: the binomial (ell = 2)
        # and Kronecker (ell >= 3) expansions, byte for byte
        got = []
        for fmt in ("csv", "json"):
            code, out, _ = run(capsys, "apoly", "-p", str(p), "-l", str(ell), "--format", fmt)
            assert code == 0
            got.append(hashlib.sha256(out.encode()).hexdigest())
        assert tuple(got) == APOLY_SHA256[p, ell]

    def test_avalue_methods(self, capsys):
        code, out, _ = run(capsys, "avalue", "-p", "31", "-l", "3", "-a", "2",
                           "--format", "json")
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["value"] == 1 and rec["method"] == "closed"
        code, out, _ = run(capsys, "avalue", "-p", "7", "-l", "3", "-a", "2",
                           "--format", "json")
        rec = json.loads(out)[0]
        assert rec["method"] == "poly"

    @pytest.mark.parametrize("p,ell,a", [
        (7, 2, 0), (7, 2, 1), (7, 3, 0), (7, 3, 1), (7, 3, 8), (11, 5, 1), (29, 7, 0),
    ])
    def test_avalue_degenerate_a_exit_2(self, capsys, p, ell, a):
        # every ell refuses a in {0, 1} with the same typed error
        code, out, err = run(capsys, "avalue", "-p", str(p), "-l", str(ell), "-a", str(a))
        assert (code, out, err) == (2, "", "error: a must avoid {0, 1}\n")

    def test_frob(self, capsys):
        code, out, _ = run(capsys, "frob", "-p", "5", "-l", "2", "-a", "4",
                           "--format", "json")
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["predicted"] == 4 and rec["case"] == "zero"

    def test_stats(self, capsys):
        code, out, _ = run(capsys, "stats", "-p", "13", "-l", "2")
        assert code == 0
        assert len(out.strip().split("\n")) == 6

    def test_detlemma(self, capsys):
        code, out, _ = run(capsys, "detlemma", "-p", "13", "-l", "2",
                           "--trials", "10")
        assert code == 0
        assert out.strip().split("\n")[1].endswith("true")

    def test_disc(self, capsys):
        code, out, _ = run(capsys, "disc", "-p", "13", "-l", "2", "-a", "4",
                           "--a2", "10")
        assert code == 0
        assert out.strip().split("\n")[1].endswith("true,true,true")


class TestScanVerify:
    def test_scan_exit_ok(self, capsys):
        code, out, _ = run(capsys, "scan", "-p", "13", "-l", "2", "--seed", "5")
        assert code == 0
        assert len(out.strip().split("\n")) == 11

    def test_scan_skips_bad_pairs_with_warning(self, capsys):
        code, out, err = run(capsys, "scan", "-p", "11,13", "-l", "3", "--seed", "5")
        assert code == 0
        assert "skipping p=11" in err
        rows = out.strip().split("\n")[1:]
        assert all(r.split(",")[0] == "13" for r in rows)

    def test_verify_exit_ok(self, capsys):
        code, out, err = run(capsys, "verify", "-p", "7", "-l", "3")
        assert code == 0
        assert "0 failures" in err

    def test_usage_error_exit_2(self, capsys):
        code, _, err = run(capsys, "split", "-p", "7", "-l", "5", "-a", "2")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("spec", ["abc", "3..x"])
    def test_malformed_p_spec_exit_2(self, capsys, spec):
        code, _, err = run(capsys, "scan", "-p", spec, "-l", "2")
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "-p", "3..2", "-l", "2"),
            ("scan", "-p", "4", "-l", "2"),
            ("verify", "-p", "7", "-l", "5"),
            ("stats", "-p", "4", "-l", "3"),
        ],
    )
    def test_no_usable_pair_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "error: " in err and "Traceback" not in err

    def test_frob_beyond_expansion_cap_exit_2(self, capsys):
        # ell = 2 would expand about 10^9 coefficients at p = 2^31 - 1
        start = time.perf_counter()
        code, out, err = run(capsys, "frob", "-p", "2147483647", "-l", "2", "-a", "5")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_frob_prime_past_the_bound_exit_2(self, capsys):
        # 2^31 + 11 is prime; the bound rejects it with a typed error
        code, out, err = run(capsys, "frob", "-p", "2147483659", "-l", "2", "-a", "5")
        assert code == 2 and out == ""
        assert err == "error: p = 2147483659 exceeds the supported bound 2^31\n"

    def test_no_command_usage(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2


BAD_COUNTS = [
    ("detlemma", "-p", "13", "-l", "2", "-n", "-1"),
    ("detlemma", "-p", "13", "-l", "2", "-n", "0"),
    ("detlemma", "-p", "13", "-l", "2", "--trials", "-3"),
    ("scan", "-p", "13", "-l", "2", "--jobs", "0"),
    ("scan", "-p", "13", "-l", "2", "--jobs", "-2"),
    ("scan", "-p", "13", "-l", "2", "--jobs", "two"),
]


class TestCounts:
    @pytest.mark.parametrize("argv", BAD_COUNTS)
    def test_count_below_one_exit_2(self, capsys, argv):
        # a count below 1 is a usage error, not a vacuous or failed run
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"expected a positive integer, got {argv[-1]!r}" in errors[0]
        assert "Traceback" not in captured.err

    def test_count_below_one_in_job_file(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.txt"
        jobs.write_text(
            "command=detlemma p=13 l=2 n=-1\n"
            "command=detlemma p=13 l=2 trials=0\n"
            "command=scan p=13 l=2 jobs=-2\n"
            "command=symbol p=7 l=3 a=2\n"
        )
        code = main(["--job-file", str(jobs)])
        captured = capsys.readouterr()
        assert code == 2
        for lineno in (1, 2, 3):
            assert f"job line {lineno}: invalid arguments" in captured.err
        assert captured.err.count("expected a positive integer") == 3
        assert "Traceback" not in captured.err
        assert captured.out == "p,ell,a,seed,symbol\n7,3,2,271828,2\n"


# one run of each command at p = 13, ell = 2
COMMANDS = {
    "symbol": ("-p", "13", "-l", "2", "-a", "4"),
    "apoly": ("-p", "13", "-l", "2"),
    "avalue": ("-p", "13", "-l", "2", "-a", "4"),
    "frob": ("-p", "13", "-l", "2", "-a", "4"),
    "split": ("-p", "13", "-l", "2", "-a", "4"),
    "scan": ("-p", "13", "-l", "2"),
    "verify": ("-p", "13", "-l", "2"),
    "stats": ("-p", "13", "-l", "2"),
    "detlemma": ("-p", "13", "-l", "2", "--trials", "3"),
    "disc": ("-p", "13", "-l", "2", "-a", "4", "--a2", "10"),
}
SINGLE_ROW = ["symbol", "apoly", "avalue", "frob", "detlemma", "disc"]

# what the handlers compute with; each command calls at least one of them
WORK = (
    "power_residue_symbol", "expand_a_poly", "a2_value", "a_ell_value",
    "a_poly_eval", "frobenius_prediction", "split_K", "split_R", "scan_point",
    "verify_theorems_scan", "check_block_det", "discriminant_ratio_check",
    "chebotarev_stats",
)


def _replace_the_work(monkeypatch, fn):
    """Route the computations of every command through ``fn``."""
    for name in WORK:
        monkeypatch.setattr(cli, name, fn)


class TestOutputs:
    def test_output_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HEISSPLIT_OUTPUT_DIR", str(tmp_path))
        code, out, _ = run(capsys, "scan", "-p", "13", "-l", "2",
                           "-o", "rows.csv", "--seed", "3")
        assert code == 0 and out == ""
        assert (tmp_path / "rows.csv").exists()
        text = (tmp_path / "rows.csv").read_text()
        assert text.startswith("p,ell,a,")

    def test_directory_as_output_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "frob", "-p", "13", "-l", "3", "-a", "5",
                             "-o", str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_unwritable_output_fails_before_any_point(self, capsys, monkeypatch,
                                                      tmp_path, command):
        def no_point(*args, **kwargs):
            raise AssertionError("a point was computed")

        _replace_the_work(monkeypatch, no_point)
        monkeypatch.setattr(cli, "make_context", no_point)
        code, out, err = run(capsys, command, *COMMANDS[command], "-o", str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_failed_run_leaves_the_output_alone(self, capsys, monkeypatch,
                                                tmp_path, command):
        # the check opens the target without truncating it, and removes a
        # file that it created, so a run that fails after it writes nothing
        def failing_point(*args, **kwargs):
            raise DegenerateValueError("injected")

        _replace_the_work(monkeypatch, failing_point)
        old = tmp_path / "old.csv"
        old.write_text("kept\n")
        new = tmp_path / "sub" / "new.csv"
        for target in (old, new):
            code, out, err = run(capsys, command, *COMMANDS[command], "-o", str(target))
            assert code == 2 and out == "" and err == "error: injected\n"
        assert old.read_text() == "kept\n"
        assert not (tmp_path / "sub").exists()

    def test_dangling_symlink_output_is_kept(self, capsys, monkeypatch, tmp_path):
        # the probe does not create the link's target, so a failed run
        # leaves the link dangling and a successful one writes through it
        link, target = tmp_path / "link.csv", tmp_path / "target.csv"
        link.symlink_to(target)

        def failing_point(*args):
            raise DegenerateValueError("injected")

        _, expected, _ = run(capsys, "scan", "-p", "13", "-l", "2")
        with monkeypatch.context() as m:
            _replace_the_work(m, failing_point)
            code, _, err = run(capsys, "scan", "-p", "13", "-l", "2", "-o", str(link))
            assert code == 2 and err == "error: injected\n"
        assert link.is_symlink() and not target.exists()
        code, out, _ = run(capsys, "scan", "-p", "13", "-l", "2", "-o", str(link))
        assert code == 0 and out == ""
        assert link.is_symlink() and target.read_text() == expected

    def test_fifo_output_is_not_probed(self, tmp_path):
        # opening a FIFO's write end blocks until a reader comes, and closing
        # it would hand that reader EOF before the rows
        fifo = tmp_path / "rows.fifo"
        os.mkfifo(fifo)
        probe = threading.Thread(target=cli._check_output, args=(str(fifo),), daemon=True)
        probe.start()
        probe.join(timeout=5)
        blocked = probe.is_alive()
        if blocked:  # a reader releases the write end that the probe waits on
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            probe.join()
        assert not blocked

    @pytest.mark.parametrize("command", ["scan", "verify", "stats"])
    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path, command):
        target = tmp_path / "rows.csv"
        target.write_text("stale rows that the run replaces\n" * 100)
        _, expected, _ = run(capsys, command, "-p", "13", "-l", "2")
        code, out, _ = run(capsys, command, "-p", "13", "-l", "2", "-o", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == expected

    def test_unwritable_output_does_not_stop_a_job_file(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.txt"
        jobs.write_text(
            f"command=frob p=13 l=3 a=5 o={tmp_path}\n"
            "command=symbol p=7 l=3 a=2\n"
        )
        code = main(["--job-file", str(jobs)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: cannot write {tmp_path}" in captured.err
        assert captured.out == "p,ell,a,seed,symbol\n7,3,2,271828,2\n"

    @pytest.mark.parametrize("command", SINGLE_ROW)
    def test_csv_header_is_the_json_keys(self, capsys, command):
        _, csv_out, _ = run(capsys, command, *COMMANDS[command])
        _, json_out, _ = run(capsys, command, *COMMANDS[command], "--format", "json")
        header = csv_out.splitlines()[0].split(",")
        (row,) = json.loads(json_out)
        assert header == list(row)

    def test_empty_scan_prints_the_header(self, capsys):
        # no admissible a at p = 3, ell = 2: the columns still name the schema
        code, out, _ = run(capsys, "scan", "-p", "3", "-l", "2")
        assert (code, out) == (0, ",".join(verification.SCAN_COLUMNS) + "\n")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "scan", "-p", "13", "-l", "2",
                           "--format", "json", "--seed", "3")
        rows = json.loads(out)
        assert len(rows) == 10
        assert all(r["agree"] for r in rows)
        assert all(r["seed"] == 3 for r in rows)


class TestJobFile:
    def test_runs_jobs_and_reports_bad_lines(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.txt"
        jobs.write_text(
            "# two queries and one malformed line\n"
            "command=symbol p=7 l=3 a=2 seed=1\n"
            "command=split p=13 ell=2 a=4 mode=both\n"
            "bogus line without equals\n"
        )
        code = main(["--job-file", str(jobs)])
        captured = capsys.readouterr()
        assert code == 2  # worst exit: the malformed line
        assert "job line 4" in captured.err
        assert "13,2,4,0,0,1,8,4,8,true" in captured.out

    def test_nested_job_files_rejected(self, capsys, tmp_path):
        inner = tmp_path / "inner.txt"
        inner.write_text("command=symbol p=7 l=3 a=2\n")
        outer = tmp_path / "outer.txt"
        outer.write_text(f"command=--job-file o={inner}\n")
        code = main(["--job-file", str(outer)])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot nest" in captured.err

    def test_job_file_not_utf8_exit_2(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.txt"
        jobs.write_bytes(b"command=symbol p=7 l=3 a=\xff\n")
        code = main(["--job-file", str(jobs)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("cannot read job file: ")

    def test_usage_error_line_does_not_stop_the_file(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("command=scan p=13\ncommand=symbol p=7 l=3 a=2\n")
        code = main(["--job-file", str(jobs)])
        captured = capsys.readouterr()
        assert code == 2  # argparse: scan needs -l
        assert "7,3,2," in captured.out
        assert "job line 1" in captured.err

    def test_handler_error_names_its_line(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.txt"
        jobs.write_text(
            f"command=symbol p=7 l=3 a=2 o={tmp_path}\n"
            "command=symbol p=7 l=3 a=2\n"
        )
        code = main(["--job-file", str(jobs)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"job line 1: error: cannot write {tmp_path}")
        assert captured.out == "p,ell,a,seed,symbol\n7,3,2,271828,2\n"


class TestJobs:
    def test_jobs_clamped_to_cpu_count(self, capsys, monkeypatch):
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        code, clamped, _ = run(capsys, "scan", "-p", "13", "-l", "2", "--jobs", "100000")
        assert code == 0 and workers == [3]
        code, serial, _ = run(capsys, "scan", "-p", "13", "-l", "2")
        assert code == 0 and workers == [3]
        assert clamped == serial


    def test_serial_scan_leaves_the_pool_unimported(self):
        # a fresh interpreter: a serial scan must not pay for the pool module
        code = (
            "import contextlib, io, sys\n"
            "from heissplit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['scan', '-p', '13', '-l', '2']) == 0\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"


class TestDeterminism:
    def test_parallel_matches_serial_bytes(self, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert main(["scan", "-p", "13,29", "-l", "2", "--seed", "17",
                     "-o", str(serial)]) == 0
        assert main(["scan", "-p", "13,29", "-l", "2", "--seed", "17",
                     "--jobs", "4", "-o", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_parallel_keeps_p_spec_order(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # take the pool path
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert main(["scan", "-p", "29,13", "-l", "2", "--seed", "17",
                     "-o", str(serial)]) == 0
        assert main(["scan", "-p", "29,13", "-l", "2", "--seed", "17",
                     "--jobs", "2", "-o", str(parallel)]) == 0
        assert serial.read_text().splitlines()[1].startswith("29,")
        assert serial.read_bytes() == parallel.read_bytes()


# ---------------------------------------------------------------------------
# Handler contract: the handlers compute rows, and only the runner checks
# -o, writes and picks the exit code
# ---------------------------------------------------------------------------

RUNNER_NAMES = {"_emit", "_check_output"}


def runner_names_in_handlers(source: str) -> dict[str, set[str]]:
    """For each ``_cmd_*`` function, the runner's names that it mentions:
    ``_emit``, ``_check_output``, ``args.output`` and any ``EXIT_*``."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")):
            continue
        names = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and (
                sub.id in RUNNER_NAMES or sub.id.startswith("EXIT_")
            ):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute) and sub.attr == "output":
                names.add(f"{ast.unparse(sub.value)}.output")
        if names:
            found[node.name] = names
    return found


def test_handlers_leave_output_and_exit_codes_to_the_runner():
    source = Path(cli.__file__).read_text()
    # every handler has a run in COMMANDS, so the -o tests cover it
    handlers = {name for name in vars(cli) if name.startswith("_cmd_")}
    assert handlers == {f"_cmd_{command}" for command in COMMANDS}
    assert runner_names_in_handlers(source) == {}


def test_handler_guard_sees_each_name():
    source = "\n".join([
        "def _cmd_a(args):\n    _emit([], (), 'csv', None)",
        "def _cmd_b(args):\n    _check_output(None)",
        "def _cmd_c(args):\n    return EXIT_FAILURE",
        "def _cmd_d(args):\n    print(args.output)",
        "def _run(args):\n    _check_output(args.output)\n    return EXIT_OK",
    ])
    assert runner_names_in_handlers(source) == {
        "_cmd_a": {"_emit"},
        "_cmd_b": {"_check_output"},
        "_cmd_c": {"EXIT_FAILURE"},
        "_cmd_d": {"args.output"},
    }
