import contextlib
import csv
import dataclasses
import filecmp
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qwalk._csvtext
import qwalk.cli
import qwalk.dynamics
import qwalk.spectral
from oracles import EDGE_THETAS
from qwalk import (
    Distribution,
    LimitDensity,
    Schedule,
    ScheduleKind,
    WalkParams,
    delta_mass,
    distribution,
    evolve,
    localized_mass,
    moment,
    rescaled_cdf_distance,
    spectral_evolve,
    tau_sweep,
    theorem1_limit,
)
from qwalk.analysis import mass_trace
from qwalk.cli import EmptyOutput, Table, emit, main
from qwalk.limits import MAX_MOMENT_ORDER

SRC = str(Path(__file__).resolve().parents[1] / "src")
THETA = str(math.pi / 4)
WALK = ["--theta", THETA, "--theta1", "0"]
SUBCOMMANDS = ["simulate", "spectral-check", "eigen", "limits", "density",
               "trace", "compare", "figures"]
FIGURES = ["1a", "1b", "2a", "2b", "3a", "3b", "4a", "4b", "5a", "5b", "5c",
           "7a", "7b"]


#: The CLI evolves on the closed-form momentum-space route; position-space
#: stepping agrees with it to this much, entrywise and in every moment.
ROUTE_TOL = 1e-13


def read_table(path):
    """CSV back to (meta dict, list of row dicts), floats parsed."""
    meta, rows = {}, []
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        else:
            body.append(line)
    for row in csv.DictReader(body):
        rows.append({k: float(v) for k, v in row.items()})
    return meta, rows


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_every_subcommand_has_help(name, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([name, "--help"])
    assert excinfo.value.code == 0
    assert "--help" in capsys.readouterr().out


def test_top_level_help(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for name in SUBCOMMANDS:
        assert name in out


def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1


def test_simulate_csv_matches_library(tmp_path, example_params):
    out = tmp_path / "dist.csv"
    code = main(["simulate", *WALK, "--preset", "symmetric", "--tau", "2",
                 "--t", "5", "--out", str(out)])
    assert code == 0
    meta, rows = read_table(out)
    assert list(rows[0]) == ["x", "prob", "amp0_re", "amp0_im",
                             "amp1_re", "amp1_im"]
    p = dataclasses.replace(example_params, tau=2)
    state = spectral_evolve(p, Schedule.half_time(), 5)
    expected = distribution(state)
    reference = distribution(evolve(p, Schedule.half_time(), 5))
    assert len(rows) == 11
    for row, amp in zip(rows, state.amps):
        assert [row["amp0_re"], row["amp0_im"], row["amp1_re"], row["amp1_im"]] == \
            [amp[0].real, amp[0].imag, amp[1].real, amp[1].imag]
    # the printed rows keep the sites where x + t is odd, as exact zeros
    assert [row["prob"] for row in rows[1::2]] == [0.0] * 5
    xs, ps = expected.as_arrays()
    assert [row["x"] for row in rows[::2]] == xs.tolist()
    for row, prob, ref in zip(rows[::2], ps, reference.values, strict=True):
        assert row["prob"] == prob
        assert abs(row["prob"] - ref) <= ROUTE_TOL


def test_simulate_writes_stdout_by_default(capsys):
    assert main(["simulate", *WALK, "--t", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("x,prob,amp0_re")
    assert out.endswith("\n")


def test_simulate_json_round_trip(tmp_path, example_params):
    out = tmp_path / "dist.json"
    assert main(["simulate", *WALK, "--t", "4", "--format", "json",
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    expected = distribution(spectral_evolve(example_params, Schedule.half_time(), 4))
    xs, ps = expected.as_arrays()
    assert [(row["x"], row["prob"]) for row in rows[::2]] == list(zip(xs.tolist(), ps.tolist()))
    assert [(row["x"], row["prob"]) for row in rows[1::2]] == [(x, 0.0) for x in (-3, -1, 1, 3)]
    reference = distribution(evolve(example_params, Schedule.half_time(), 4))
    for row, ref in zip(rows[::2], reference.values, strict=True):
        assert abs(row["prob"] - ref) <= ROUTE_TOL


def test_simulate_requires_exactly_one_time_flag(capsys):
    assert main(["simulate", *WALK]) == 1
    assert main(["simulate", *WALK, "--t", "4", "--times", "2,4"]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_times_writes_one_file_each(tmp_path):
    out = tmp_path / "dist.csv"
    assert main(["simulate", *WALK, "--times", "2,4", "--out", str(out)]) == 0
    for t in (2, 4):
        _, rows = read_table(tmp_path / f"dist_t{t}.csv")
        assert len(rows) == 2 * t + 1
        single = tmp_path / f"single_t{t}.csv"
        assert main(["simulate", *WALK, "--t", str(t), "--out", str(single)]) == 0
        assert filecmp.cmp(tmp_path / f"dist_t{t}.csv", single, shallow=False)


@pytest.mark.parametrize("out, first", [("out.d/dist", "out.d/dist_t2"),
                                        ("runs/.dist", "runs/.dist_t2"),
                                        ("a.csv", "a_t2.csv")])
def test_simulate_times_names_stay_in_out_directory(out, first, tmp_path):
    (tmp_path / out).parent.mkdir(exist_ok=True)
    assert main(["simulate", *WALK, "--times", "2,4", "--out", str(tmp_path / out)]) == 0
    written = sorted(p.relative_to(tmp_path).as_posix()
                     for p in tmp_path.rglob("*") if p.is_file())
    assert written == [first, first.replace("_t2", "_t4")]


def test_simulate_rejects_negative_times(capsys):
    assert main(["simulate", *WALK, "--times", "2,-1"]) == 1
    assert "non-negative" in capsys.readouterr().err


def test_time_cap_env_respected(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QWALK_MAX_T", "10")
    assert main(["simulate", *WALK, "--t", "20"]) == 1
    assert "cap" in capsys.readouterr().err
    assert main(["simulate", *WALK, "--t", "10"]) == 0
    # every time is checked before the first file is written
    out = tmp_path / "dist.csv"
    assert main(["simulate", *WALK, "--times", "2,20", "--out", str(out)]) == 1
    assert "cap" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_excluded_angle_exits_1(capsys):
    assert main(["simulate", "--theta", "0", "--theta1", "0", "--t", "2"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("walk", [
    ["--theta", "nan", "--theta1", "0"],
    ["--theta", "inf", "--theta1", "0"],
    ["--theta", "0.5", "--theta1", "nan"],
    ["--theta", "0.5", "--theta1", "0", "--alpha=nan,0", "--beta=0,0"],
])
def test_non_finite_walk_exits_1(walk, capsys):
    assert main(["limits", *walk, "--parity", "odd", "--xmax", "1"]) == 1
    assert "must be finite" in capsys.readouterr().err


def test_missing_angles_exit_1(capsys):
    assert main(["simulate", "--theta", THETA, "--t", "2"]) == 1
    assert "theta1" in capsys.readouterr().err


def test_malformed_number_exits_1(capsys):
    # "-x" is no number, so it stays an option and leaves --theta without one
    for value in ("bogus", "-x"):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--theta", value, "--theta1", "0", "--t", "2"])
        assert excinfo.value.code == 1
        assert capsys.readouterr().err.startswith("usage:")


@pytest.mark.parametrize("spaced, joined", [
    (["--theta", "-1e-3", "--theta1", "0"], ["--theta=-1e-3", "--theta1", "0"]),
    (["--theta", "0.5", "--theta1", "0", "--alpha", "-0.6,0", "--beta", "0,0.8"],
     ["--theta", "0.5", "--theta1", "0", "--alpha=-0.6,0", "--beta=0,0.8"]),
    (["--theta", "0.5", "--theta1", "-.25e1"], ["--theta", "0.5", "--theta1=-.25e1"]),
])
def test_negative_values_parse_after_a_space(spaced, joined, capsys):
    # argparse alone takes "-1e-3" and "-0.6,0" for options
    assert main(["simulate", *spaced, "--tau", "2", "--t", "5"]) == 0
    out = capsys.readouterr().out
    assert main(["simulate", *joined, "--tau", "2", "--t", "5"]) == 0
    assert capsys.readouterr().out == out


def test_byte_identical_reruns(tmp_path):
    args = ["simulate", *WALK, "--tau", "3", "--t", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert filecmp.cmp(a, b, shallow=False)
    for i, argv in enumerate((
            ["figures", "--paper-fig", "7a"],
            ["eigen", "--theta", THETA, "--k-samples", "300"],
            ["compare", *WALK, "--tau", "10", "--t", "22"],
            ["trace", *WALK, "--observable", "ks", "--taus", "4,9,2"])):
        c, d = tmp_path / f"c{i}", tmp_path / f"d{i}"
        assert main([*argv, "--out", str(c)]) == 0
        assert main([*argv, "--out", str(d)]) == 0
        assert filecmp.cmp(c, d, shallow=False)


#: sha256 prefixes of the stdout of CLI commands on the walk ``PINNED_W``,
#: and of the files that ``simulate --times`` writes.
PINNED_W = ["--theta", "0.7", "--theta1", "2.1"]
PINNED_OUTPUTS = (
    (["simulate", *PINNED_W, "--tau", "100", "--t", "201"], "eb693b952352"),
    (["simulate", *PINNED_W, "--schedule", "usual", "--t", "300"], "081dedb23da0"),
    (["simulate", *PINNED_W, "--schedule", "multi", "--swap-steps", "3,10,40",
      "--t", "151", "--format", "json"], "f443630ce2d7"),
    (["compare", *PINNED_W, "--tau", "200", "--t", "401", "--moments", "0,1,2,4"],
     "08ecf4575002"),
    (["trace", *PINNED_W, "--observable", "ks", "--taus", "5,50,10,200"], "73a2ce598611"),
    (["trace", *PINNED_W, "--observable", "moment", "--r", "2", "--parity", "even",
      "--taus", "0,7,100"], "17292b93f61f"),
    # odd order: exactly 0 for the symmetric spinor, signed for "up"
    (["trace", *PINNED_W, "--observable", "moment", "--r", "3", "--parity", "odd",
      "--taus", "0,7,100"], "b8418ee16765"),
    (["trace", *PINNED_W, "--preset", "up", "--observable", "moment", "--r", "3",
      "--parity", "odd", "--taus", "0,7,100"], "d91f8d356622"),
    (["trace", *PINNED_W, "--observable", "mass", "--x", "1", "--taus", "0,3,30,300"],
     "8ef8c8cecb6d"),
    (["trace", *PINNED_W, "--schedule", "usual", "--observable", "mass", "--x", "1",
      "--taus", "0,3,30,300"], "243d7d14cca0"),
    # taus 19, 20 and 21 (t = 39..43) straddle the swap at 40
    (["trace", *PINNED_W, "--schedule", "multi", "--swap-steps", "3,10,40", "--observable",
      "moment", "--r", "2", "--taus", "0,3,19,20,21,300"], "7da89c26191e"),
    (["spectral-check", *PINNED_W, "--tau", "40", "--t", "81"], "e189f022cb67"),
    (["spectral-check", *PINNED_W, "--tau", "40", "--t", "81", "--n-grid", "500"],
     "c690016f6fdb"),
    # normal, subnormal and exact-zero masses
    (["limits", *PINNED_W, "--parity", "odd", "--xmax", "500"], "c67742183d09"),
    (["limits", *PINNED_W, "--parity", "even", "--xmax", "500"], "e4249c808414"),
    (["limits", *PINNED_W, "--parity", "even", "--xmax", "500", "--format", "json"],
     "54a0ae859078"),
    # 7001 rows: more than two CSV blocks
    (["simulate", *PINNED_W, "--tau", "1700", "--t", "3500"], "bf2816955533"),
    (["density", *PINNED_W, "--points", "2001"], "c817f4d7776a"),
    (["eigen", "--theta", "0.7", "--k-samples", "1000"], "28452ef5ba72"),
    (["eigen", "--theta", "0.7", "--k-samples", "1000", "--format", "json"], "addee8a7ef80"),
    # rows 575 and 786 of re_l1 are near a rounding tie, so Python formats
    # them; re_l2, their negation, reuses those slots under a '-'
    (["eigen", "--theta", "0.7", "--k-samples", "1361"], "3367fa06cdee"),
    *((["figures", "--paper-fig", fig], digest) for fig, digest in (
        ("1a", "e726b2d24721"), ("1b", "e27b9d867076"), ("2a", "5f2c489af38d"),
        ("2b", "cecc65dffeff"), ("3a", "a6a692bbd92f"), ("3b", "59b4bdd1e68a"),
        ("4a", "0b7f2ef5d849"), ("4b", "80dd38422442"), ("5a", "c8a6e5a43f65"),
        ("5b", "82cc9add68ca"), ("5c", "1515e7aa0117"), ("7a", "9a03ec421e88"),
        ("7b", "ae82e593effc"))),
)
PINNED_TIMES = {"sim_t3.csv": "d5c9b5238eae", "sim_t101.csv": "31f9ffd4e749",
                "sim_t102.csv": "501bd5e71387"}


def test_cli_outputs_match_pinned_hashes(tmp_path, capsys):
    """CLI output is pinned byte for byte, run in-process through ``main``.

    A change that alters output on purpose updates the hash in this table
    and lists the command and the reason in CHANGES.md.
    """
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:12]

    mismatches = []
    for argv, want in PINNED_OUTPUTS:
        assert main(argv) == 0, argv
        got = digest(capsys.readouterr().out.encode())
        if got != want:
            mismatches.append(f"qwalk {' '.join(argv)}: pinned {want}, got {got}")
    argv = ["simulate", *PINNED_W, "--tau", "50", "--times", "3,101,102",
            "--out", str(tmp_path / "sim.csv")]
    assert main(argv) == 0 and capsys.readouterr().out == ""
    for name, want in PINNED_TIMES.items():
        got = digest((tmp_path / name).read_bytes())
        if got != want:
            mismatches.append(f"qwalk {' '.join(argv)} -> {name}: pinned {want}, got {got}")
    assert not mismatches, "\n".join(mismatches)


def test_preset_equals_explicit_spinor(tmp_path):
    root = "0.7071067811865476"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", *WALK, "--preset", "symmetric", "--t", "6",
                 "--out", str(a)]) == 0
    assert main(["simulate", *WALK, "--alpha", f"{root},0", "--beta",
                 f"0,{root}", "--t", "6", "--out", str(b)]) == 0
    _, rows_a = read_table(a)
    _, rows_b = read_table(b)
    for ra, rb in zip(rows_a, rows_b):
        assert abs(ra["prob"] - rb["prob"]) < 1e-12


def test_preset_conflicts_with_explicit_spinor(capsys):
    assert main(["simulate", *WALK, "--preset", "up", "--alpha", "1,0",
                 "--t", "2"]) == 1
    assert "exclusive" in capsys.readouterr().err
    assert main(["simulate", *WALK, "--alpha", "1,0", "--t", "2"]) == 1
    assert "together" in capsys.readouterr().err


def test_schedule_flag_validation(capsys):
    assert main(["simulate", *WALK, "--schedule", "multi", "--t", "4"]) == 1
    assert "swap-steps" in capsys.readouterr().err
    assert main(["simulate", *WALK, "--schedule", "usual", "--swap-steps",
                 "1,2", "--t", "4"]) == 1
    assert main(["simulate", *WALK, "--schedule", "multi", "--swap-steps",
                 "1,3", "--t", "6"]) == 0


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "walk.json"
    cfg.write_text(json.dumps({
        "theta": math.pi / 4, "theta1": 0.0, "tau": 3,
        "alpha_re": 1.0, "alpha_im": 0.0, "beta_re": 0.0, "beta_im": 0.0,
        "schedule": "half-time",
    }))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--t", "8",
                 "--out", str(a)]) == 0
    assert main(["simulate", *WALK, "--tau", "3", "--preset", "up", "--t", "8",
                 "--out", str(b)]) == 0
    assert filecmp.cmp(a, b, shallow=False)
    # any of the four spinor keys makes the config supply the spinor; the rest read 0
    cfg.write_text(json.dumps({"theta": 0.7, "theta1": 2.1, "tau": 5,
                               "alpha_im": 1.0, "beta_im": 0.0}))
    assert main(["simulate", "--config", str(cfg), "--t", "12", "--out", str(a)]) == 0
    assert main(["simulate", *PINNED_W, "--tau", "5", "--alpha=0,1", "--beta=0,0",
                 "--t", "12", "--out", str(b)]) == 0
    assert filecmp.cmp(a, b, shallow=False)


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "walk.json"
    cfg.write_text(json.dumps({"theta": 0.3, "theta1": 0.9, "tau": 1}))
    out = tmp_path / "a.csv"
    assert main(["simulate", "--config", str(cfg), "--theta1", "0.0",
                 "--preset", "up", "--t", "3", "--out", str(out)]) == 0
    _, rows = read_table(out)
    # with theta1 forced to 0 the swap step is diag(1, -1), so the
    # leftmost amplitude after steps U, H, U is cos(theta)^2
    c = math.cos(0.3)
    top = [r for r in rows if r["x"] == -3][0]
    assert abs(abs(top["amp0_re"]) - c * c) < 1e-12


def test_config_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["simulate", "--config", str(bad), "--t", "2"]) == 1
    assert "malformed" in capsys.readouterr().err
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    assert main(["simulate", "--config", str(lst), "--t", "2"]) == 1
    assert main(["simulate", "--config", str(tmp_path / "none.json"),
                 "--t", "2"]) == 1
    for tau in (2.7, True, "3"):
        cfg = tmp_path / "tau.json"
        cfg.write_text(json.dumps({"theta": 0.3, "theta1": 0.9, "tau": tau}))
        assert main(["simulate", "--config", str(cfg), "--t", "2"]) == 1
        assert "tau must be an integer" in capsys.readouterr().err
    for entries, message in (({"alpha_re": "1"}, "alpha_re must be a real number"),
                             ({"schedule": "multi", "swap_steps": 5}, "swap steps"),
                             ({"theta": True}, "theta must be finite and real"),
                             ({"theta": "0.3"}, "theta must be finite and real"),
                             ({"shedule": "usual"}, "unknown key 'shedule'"),
                             ({"alpha": [1, 0]}, "unknown key 'alpha'")):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps({"theta": 0.3, "theta1": 0.9, **entries}))
        assert main(["simulate", "--config", str(cfg), "--t", "2"]) == 1
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_unwritable_output_exits_1(fmt, tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / f"out.{fmt}"
    assert main(["simulate", *WALK, "--t", "2", "--format", fmt, "--out", str(target)]) == 1
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("error", (MemoryError, OSError))
def test_failed_writes_leave_no_partial_file(error, fmt, tmp_path, monkeypatch, capsys):
    # the writer fails after its first part: a new path stays absent, an
    # earlier file keeps its bytes, and no temporary file is left behind
    def failing(table, meta):
        yield b"x,prob\n"
        raise error("disk full")
    if fmt == "csv":
        monkeypatch.setattr(qwalk._csvtext, "csv_text", failing)
    else:
        monkeypatch.setattr(qwalk.cli, "_json_text", failing)
    old, new = tmp_path / "old.out", tmp_path / "new.out"
    old.write_bytes(b"earlier\n")
    for path in (old, new):
        assert main(["simulate", *WALK, "--t", "4", "--format", fmt, "--out", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: out of memory\n" if error is MemoryError
                       else f"error: cannot write {path}: disk full\n")
    assert [p.name for p in tmp_path.iterdir()] == ["old.out"]
    assert old.read_bytes() == b"earlier\n"


def test_out_files_are_replaced_whole(tmp_path, capsys):
    # a new file gets the mode open() gives, an earlier one keeps its mode,
    # a link is written through, and /dev/null is written in place
    argv = ["simulate", *WALK, "--t", "4", "--out"]
    assert main([*argv[:-1]]) == 0
    text = capsys.readouterr().out.encode()
    (tmp_path / "ref").write_bytes(b"")
    old, new, link = tmp_path / "old.csv", tmp_path / "new.csv", tmp_path / "link.csv"
    old.write_bytes(b"earlier\n")
    old.chmod(0o640)
    link.symlink_to(old)
    for path in (old, new, link):
        assert main([*argv, str(path)]) == 0
        assert path.read_bytes() == text
    assert link.is_symlink()
    assert old.stat().st_mode & 0o7777 == 0o640
    assert new.stat().st_mode == (tmp_path / "ref").stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "new.csv", "old.csv", "ref"]
    assert main([*argv, os.devnull]) == 0
    assert main([*argv[:-1], "--format", "json", "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_read_only_out_file_is_refused(tmp_path, capsys):
    # a file its user may not write is refused, as open(path, "wb") refuses
    # it, and keeps its bytes and mode.  root may write any file, so the
    # command runs in a child process, which under root becomes nobody (and
    # may not read the modules a first run imports: it runs here first)
    argv = ["simulate", *WALK, "--t", "4"]
    assert main(argv) == 0
    capsys.readouterr()
    old = tmp_path / "old.csv"
    old.write_bytes(b"earlier\n")
    old.chmod(0o444)
    tmp_path.chmod(0o777)  # the child may create a temporary beside it
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 3
        try:
            os.close(read)
            os.chdir(tmp_path)
            if os.geteuid() == 0:
                os.setgid(65534)
                os.setuid(65534)
            sys.stderr = io.StringIO()
            code = main([*argv, "--out", old.name])
            os.write(write, sys.stderr.getvalue().encode())
        finally:
            os._exit(code)
    os.close(write)
    with open(read, "rb") as fh:
        err = fh.read().decode()
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 1
    assert err == "error: cannot write old.csv: Permission denied\n"
    assert old.read_bytes() == b"earlier\n"
    assert old.stat().st_mode & 0o7777 == 0o444
    assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]


def test_out_of_memory_is_an_error(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError
    # the handlers look emit up by name when they run
    monkeypatch.setattr(qwalk.cli, "emit", exhausted)
    assert main(["density", *WALK, "--points", "3", "--format", "json"]) == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")


@pytest.mark.parametrize("argv", [
    # 3073 rows of 164 bytes: two blocks, each cut into slices of 399 rows
    ["simulate", *PINNED_W, "--tau", "700", "--t", "1536"],
    ["limits", *PINNED_W, "--parity", "even", "--xmax", "2000"],
    ["density", *PINNED_W, "--points", "5000"],
    ["eigen", "--theta", "0.7", "--k-samples", "4000"],
    ["trace", *PINNED_W, "--observable", "mass", "--x", "1", "--taus", "0,3,30"],
    ["figures", "--paper-fig", "2a"],
    ["limits", *PINNED_W, "--parity", "odd", "--xmax", "200", "--format", "json"],
], ids=("simulate", "limits", "density", "eigen", "trace", "figure-2a", "json"))
def test_out_file_holds_the_stdout_text(argv, tmp_path, capsys):
    # a file gets the writer's bytes and stdout their text: the two must agree
    assert main(argv) == 0
    text = capsys.readouterr().out
    path = tmp_path / "out"
    assert main([*argv, "--out", str(path)]) == 0
    assert path.read_bytes() == text.encode("utf-8")


def test_spectral_check_exit_codes(tmp_path, capsys):
    assert main(["spectral-check", "--theta", "0.3", "--theta1", "1.1",
                 "--tau", "7", "--t", "30"]) == 0
    assert "max entrywise deviation" in capsys.readouterr().out
    assert main(["spectral-check", *WALK, "--tau", "3", "--t", "20",
                 "--tol", "1e-30"]) == 2
    capsys.readouterr()
    # it prints one line and writes no file: output flags are usage errors
    out = tmp_path / "sc.txt"
    for flags in (["--out", str(out)], ["--format", "json"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["spectral-check", *PINNED_W, "--tau", "5", "--t", "11", *flags])
        assert excinfo.value.code == 1
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not out.exists()


def test_spectral_check_grid_holds_t_plus_1_points(monkeypatch, capsys):
    argv = ["spectral-check", *WALK, "--tau", "9", "--t", "20", "--n-grid"]
    assert main([*argv, "21"]) == 0
    capsys.readouterr()

    def no_route(*args, **kwargs):
        raise AssertionError("a route ran on a grid that cannot hold t")
    monkeypatch.setattr(qwalk.cli, "evolve", no_route)
    monkeypatch.setattr(qwalk.cli, "spectral_evolve", no_route)
    for n_grid in ("20", "1", "0", "-5"):
        assert main([*argv, n_grid]) == 1
        assert f"at least t + 1 = 21, got {n_grid}" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ("nan", "-inf", "inf", "-1e-12", "-0.5", "x"))
def test_spectral_check_rejects_bad_tolerance(tol, capsys):
    # a NaN tolerance used to report a tolerance failure (exit 2) on a correct walk
    with pytest.raises(SystemExit) as excinfo:
        main(["spectral-check", *WALK, "--tau", "3", "--t", "8", f"--tol={tol}"])
    assert excinfo.value.code == 1
    assert "argument --tol" in capsys.readouterr().err
    assert main(["spectral-check", *WALK, "--tau", "3", "--t", "8", "--tol", "0"]) in (0, 2)


@pytest.mark.parametrize("argv,flag", [
    (["density", *WALK, "--points", "-3"], "--points"),
    (["density", *WALK, "--points", "0"], "--points"),
    (["eigen", "--theta", THETA, "--k-samples", "0"], "--k-samples"),
    (["eigen", "--theta", THETA, "--k-samples", "-7"], "--k-samples"),
    (["eigen", "--theta", THETA, "--k-samples", "2.5"], "--k-samples"),
])
def test_sample_counts_validated_up_front(argv, flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert "Number of samples" not in err


def test_eigen_table(tmp_path):
    out = tmp_path / "eigen.csv"
    assert main(["eigen", "--theta", THETA, "--k-samples", "16",
                 "--out", str(out)]) == 0
    _, rows = read_table(out)
    assert list(rows[0]) == ["k", "re_l1", "im_l1", "re_l2", "im_l2"]
    assert len(rows) == 16
    for row in rows:
        l1 = complex(row["re_l1"], row["im_l1"])
        l2 = complex(row["re_l2"], row["im_l2"])
        assert abs(l1 * l2 + 1.0) < 1e-13


def test_limits_table_with_delta_header(tmp_path, example_params):
    out = tmp_path / "limits.csv"
    assert main(["limits", *WALK, "--parity", "even", "--xmax", "4",
                 "--out", str(out)]) == 0
    meta, rows = read_table(out)
    assert abs(float(meta["delta_mass"]) - delta_mass(example_params)) < 1e-15
    assert list(rows[0]) == ["x", "limit_mass"]
    assert [int(r["x"]) for r in rows] == list(range(-4, 5))
    for row in rows:
        expected = theorem1_limit(example_params, int(row["x"]), "even")
        assert row["limit_mass"] == expected


def test_density_table(tmp_path, example_params):
    out = tmp_path / "density.csv"
    assert main(["density", *WALK, "--points", "11", "--out", str(out)]) == 0
    meta, rows = read_table(out)
    assert abs(float(meta["delta_mass"]) - delta_mass(example_params)) < 1e-15
    assert len(rows) == 11
    bound = abs(math.cos(math.pi / 4))
    for row in rows:
        assert -bound < row["x"] < bound
        assert row["f_ac"] >= 0.0


def test_trace_mass_csv(tmp_path, example_params):
    out = tmp_path / "trace.csv"
    assert main(["trace", *WALK, "--observable", "mass", "--x", "0",
                 "--parity", "even", "--taus", "0,1,5",
                 "--out", str(out)]) == 0
    meta, rows = read_table(out)
    assert meta["observable"] == "mass"
    assert [int(r["tau"]) for r in rows] == [0, 1, 5]
    assert [int(r["t"]) for r in rows] == [2, 4, 12]
    expected = mass_trace(example_params, 0, "even", (0, 1, 5))
    for row, value in zip(rows, expected.values):
        assert row["value"] == value


def test_trace_parallel_jobs_match_serial(tmp_path):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    args = ["trace", *WALK, "--observable", "mass", "--x", "1",
            "--parity", "odd", "--taus", "0,1,2,3"]
    assert main([*args, "--out", str(serial)]) == 0
    assert main([*args, "--jobs", "2", "--out", str(parallel)]) == 0
    assert filecmp.cmp(serial, parallel, shallow=False)


def test_trace_observables_ks_and_moment(tmp_path, example_params):
    out = tmp_path / "trace.csv"
    assert main(["trace", *WALK, "--observable", "ks", "--taus", "5",
                 "--parity", "odd", "--out", str(out)]) == 0
    _, rows = read_table(out)
    p = dataclasses.replace(example_params, tau=5)
    (state,) = tau_sweep(example_params, Schedule.half_time(), "odd", (5,))
    dist = distribution(state.sublattice())
    assert rows[0]["value"] == rescaled_cdf_distance(p, dist)
    dist = distribution(evolve(p, Schedule.half_time(), 11))
    assert abs(rows[0]["value"] - rescaled_cdf_distance(p, dist)) <= ROUTE_TOL
    assert main(["trace", *WALK, "--observable", "moment", "--r", "2",
                 "--taus", "5", "--parity", "even", "--out", str(out)]) == 0
    _, rows = read_table(out)
    dist = distribution(evolve(p, Schedule.half_time(), 12))
    # the trace reads the moment off the closed-form k-space state, so it
    # matches the position-space route to roundoff, not bit for bit
    assert abs(rows[0]["value"] - moment(dist, 2)) <= 1e-13


def test_trace_unsorted_and_repeated_taus(tmp_path):
    out = tmp_path / "trace.csv"
    for observable in (["mass", "--x", "-2"], ["moment", "--r", "3"]):
        args = ["trace", *WALK, "--observable", *observable, "--parity", "even"]
        assert main([*args, "--taus", "7,2,7,0", "--out", str(out)]) == 0
        _, rows = read_table(out)
        assert [int(r["tau"]) for r in rows] == [7, 2, 7, 0]
        assert rows[0] == rows[2]
        # same largest tau, so the same grid: identical rows
        assert main([*args, "--taus", "0,2,7", "--out", str(out)]) == 0
        _, ordered = read_table(out)
        assert [rows[3], rows[1], rows[0]] == ordered
        # one tau per call: a smaller grid, equal to roundoff
        for row in ordered:
            assert main([*args, "--taus", str(int(row["tau"])), "--out", str(out)]) == 0
            _, (single,) = read_table(out)
            assert single["t"] == row["t"]
            assert abs(single["value"] - row["value"]) <= 1e-13


def test_trace_respects_time_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QWALK_MAX_T", "10")
    out = str(tmp_path / "trace.csv")
    for observable in (["mass", "--x", "1"], ["moment"]):
        args = ["trace", *WALK, "--observable", *observable, "--parity", "odd"]
        assert main([*args, "--taus", "5", "--out", out]) == 1  # t = 11
        assert "cap" in capsys.readouterr().err
        assert main([*args, "--taus", "4", "--out", out]) == 0  # t = 9
        assert main([*args, "--taus", "4,0,5", "--out", out]) == 1


def test_trace_rejects_a_negative_order_before_propagating(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("trace propagated before checking --r")

    monkeypatch.setattr(qwalk.spectral.Propagator, "state", never)
    monkeypatch.setattr(qwalk.spectral.Propagator, "split", never)
    assert main(["trace", *WALK, "--observable", "moment", "--r", "-1",
                 "--taus", "3,4"]) == 1
    assert "moment order must be non-negative, got -1" in capsys.readouterr().err


def test_trace_flag_validation(capsys):
    assert main(["trace", *WALK, "--observable", "mass", "--taus", "1"]) == 1
    assert "--x" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["trace", *WALK, "--observable", "mass", "--x", "0"])


def test_compare_report_schema(tmp_path, example_params):
    out = tmp_path / "report.json"
    assert main(["compare", *WALK, "--tau", "10", "--t", "21",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"ks_distance", "delta_mass_sim",
                           "delta_mass_theory", "moments"}
    p = dataclasses.replace(example_params, tau=10)
    dist = distribution(spectral_evolve(p, Schedule.half_time(), 21))
    reference = distribution(evolve(p, Schedule.half_time(), 21))
    assert report["ks_distance"] == rescaled_cdf_distance(p, dist)
    assert abs(report["ks_distance"] - rescaled_cdf_distance(p, reference)) <= ROUTE_TOL
    assert report["delta_mass_sim"] == localized_mass(dist)
    assert abs(report["delta_mass_sim"] - localized_mass(reference)) <= ROUTE_TOL
    assert report["delta_mass_theory"] == delta_mass(p)
    assert [m["r"] for m in report["moments"]] == [0, 1, 2]
    for entry in report["moments"]:
        assert entry["walk"] == moment(dist, entry["r"])
        assert abs(entry["walk"] - moment(reference, entry["r"])) <= ROUTE_TOL
        assert entry["limit"] == LimitDensity.from_params(p).moment(entry["r"])


def test_compare_evolves_once(monkeypatch):
    # one closed-form momentum-space state, and no position-space stepping
    states, loops = [], []
    original_state = qwalk.spectral.Propagator.state
    original_snapshots = qwalk.dynamics.snapshots

    def counting_state(self, *args):
        states.append(args)
        return original_state(self, *args)

    def counting_snapshots(*args):
        loops.append(args)
        return original_snapshots(*args)

    monkeypatch.setattr(qwalk.spectral.Propagator, "state", counting_state)
    monkeypatch.setattr(qwalk.dynamics, "snapshots", counting_snapshots)
    monkeypatch.setattr(qwalk.cli, "snapshots", counting_snapshots)
    assert main(["compare", *WALK, "--tau", "10", "--t", "21"]) == 0
    assert len(states) == 1
    assert loops == []


@pytest.mark.parametrize("theta", (*EDGE_THETAS, 0.3))
def test_cli_routes_match_position_space(theta, tmp_path):
    # simulate --t, simulate --times and compare against stepping, at the
    # angles closest to the excluded multiples of pi/2
    params = WalkParams(theta=theta, theta1=0.9, tau=150, alpha=0.6, beta=0.8j)
    walk = ["--theta", repr(theta), "--theta1", "0.9", "--alpha=0.6,0",
            "--beta=0,0.8", "--tau", "150"]
    for flags, schedule in ((["half-time"], Schedule.half_time()),
                            (["usual"], Schedule.usual()),
                            (["multi", "--swap-steps", "3,40,100"], Schedule.multi({3, 40, 100}))):
        argv = ["simulate", *walk, "--schedule", *flags]
        assert main([*argv, "--times", "302,301", "--out", str(tmp_path / "times.csv")]) == 0
        for t in (301, 302):
            reference = evolve(params, schedule, t)
            ref_dist = distribution(reference)
            assert main([*argv, "--t", str(t), "--out", str(tmp_path / "one.csv")]) == 0
            for name in ("one.csv", f"times_t{t}.csv"):
                _, rows = read_table(tmp_path / name)
                amps = np.array([[complex(r["amp0_re"], r["amp0_im"]),
                                  complex(r["amp1_re"], r["amp1_im"])] for r in rows])
                assert float(np.max(np.abs(amps - reference.amps))) <= ROUTE_TOL
                assert np.all(amps[1::2] == 0)  # x + t odd: exact zeros
                probs = np.array([r["prob"] for r in rows])
                assert abs(math.fsum(probs) - 1.0) <= ROUTE_TOL
                dist = Distribution(time=t, values=probs[::2])
                for r in (0, 1, 2, 3):
                    assert abs(moment(dist, r) - moment(ref_dist, r)) <= ROUTE_TOL
            if schedule.kind is not ScheduleKind.HALF_TIME:
                continue
            out = tmp_path / "report.json"
            assert main(["compare", *walk, "--t", str(t), "--moments", "0,1,2,3",
                         "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert abs(report["delta_mass_sim"] - localized_mass(ref_dist)) <= ROUTE_TOL
            for entry in report["moments"]:
                assert abs(entry["walk"] - moment(ref_dist, entry["r"])) <= ROUTE_TOL


def test_compare_rejects_mismatched_time(capsys):
    assert main(["compare", *WALK, "--tau", "10", "--t", "20"]) == 1
    assert "2*tau" in capsys.readouterr().err


def test_compare_checks_the_time_before_evolving(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("compare evolved before checking --t")

    monkeypatch.setattr(qwalk.cli, "spectral_evolve", never)
    assert main(["compare", "--theta", "0.7", "--theta1", "2", "--tau", "5",
                 "--t", "1000000"]) == 1
    assert "t must be 2*tau+1 or 2*tau+2 for tau=5, got 1000000" in capsys.readouterr().err


@pytest.mark.parametrize("schedule", [["usual"], ["multi", "--swap-steps", "3"]])
def test_limit_law_commands_need_half_time(schedule, capsys):
    flags = [*WALK, "--schedule", *schedule]
    assert main(["compare", *flags, "--tau", "10", "--t", "21"]) == 1
    assert "half-time" in capsys.readouterr().err
    assert main(["trace", *flags, "--observable", "ks", "--taus", "20"]) == 1
    assert "half-time" in capsys.readouterr().err
    for argv in (["limits", *flags, "--parity", "odd"], ["density", *flags]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {argv[0]} needs --schedule half-time: "
                                           "the limit law exists only for the half-time walk\n")
    assert main(["trace", *flags, "--observable", "mass", "--x", "1", "--taus", "2"]) == 0


def test_compare_rejects_moment_orders_above_the_maximum(capsys):
    flags = ["compare", *WALK, "--tau", "10", "--t", "21"]
    assert main([*flags, "--moments", f"0,{MAX_MOMENT_ORDER}"]) == 0
    capsys.readouterr()
    for order in (MAX_MOMENT_ORDER + 1, 1500):
        assert main([*flags, "--moments", f"0,{order}"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and f"0..{MAX_MOMENT_ORDER}" in out.err


def test_compare_csv_format_rejected(monkeypatch, capsys):
    # compare writes a flat report, which has no CSV form: a usage error
    # before anything is evolved, not a failure in emit after the work
    def never(*args, **kwargs):
        raise AssertionError("compare evolved before rejecting --format csv")

    monkeypatch.setattr(qwalk.cli, "spectral_evolve", never)
    with pytest.raises(SystemExit) as excinfo:
        main(["compare", *WALK, "--tau", "2", "--t", "5", "--format", "csv"])
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert "--format: invalid choice: 'csv'" in err and err.startswith("usage: qwalk compare")


@pytest.mark.parametrize("fig", FIGURES)
def test_figures_produce_plausible_tables(fig, tmp_path):
    out = tmp_path / f"fig{fig}.csv"
    assert main(["figures", "--paper-fig", fig, "--out", str(out)]) == 0
    meta, rows = read_table(out)
    if fig in ("1a", "1b", "3a", "3b"):
        assert len(rows) == 1001
        assert abs(sum(r["prob"] for r in rows) - 1.0) < 1e-12
        spike = max(rows, key=lambda r: r["prob"])
        if fig.startswith("1"):
            assert abs(spike["x"]) <= 2  # localized at the origin
        else:
            assert abs(spike["x"]) > 300  # ballistic fronts only
    elif fig in ("2a", "2b", "4a", "4b"):
        assert len(rows) == 101 * 101
        t40 = [r["prob"] for r in rows if r["t"] == 40]
        assert len(t40) == 81 and abs(sum(t40) - 1.0) < 1e-12
    elif fig in ("5a", "5b", "5c"):
        positions = {"5a": {-1, 1}, "5b": {0}, "5c": {-2, 2}}[fig]
        limit = {"5a": (13 - 9 * math.sqrt(2)) / 2,
                 "5b": (3 - 2 * math.sqrt(2)) / 2,
                 "5c": (139 - 98 * math.sqrt(2)) / 4}[fig]
        assert {int(r["x"]) for r in rows} == positions
        assert len(rows) == 251 * len(positions)
        assert all(0.0 <= r["prob"] <= 1.0 for r in rows)
        # the even-parity traces oscillate, so average out the tail
        tail = [r["prob"] for r in rows if r["tau"] >= 200]
        assert abs(sum(tail) / len(tail) - limit) < 0.02
    else:
        assert len(rows) == 2001
        assert "delta_mass" in meta
        assert all(r["f_ac"] >= 0.0 for r in rows)


def test_figures_rejects_unknown_key():
    with pytest.raises(SystemExit) as excinfo:
        main(["figures", "--paper-fig", "6a"])
    assert excinfo.value.code == 1


def test_emit_validation():
    with pytest.raises(EmptyOutput):
        emit(Table(a=[]), "csv", None)
    with pytest.raises(EmptyOutput):
        emit({}, "json", None)
    with pytest.raises(ValueError, match="row data"):
        emit({"a": 1.0}, "csv", None)
    with pytest.raises(ValueError, match="row data"):
        emit([{"a": 1.0}], "csv", None)  # rows as dicts are no table
    with pytest.raises(ValueError):
        emit(Table(a=[1.0]), "yaml", None)


def test_emit_formats(tmp_path):
    path = tmp_path / "t.csv"
    emit(Table(x=[0], prob=[1.0]), "csv", str(path))
    assert path.read_text() == "x,prob\n0,1\n"
    emit(Table(x=np.array([0]), v=np.array([1 / 3])), "csv", str(path), meta={"d": 0.25})
    text = path.read_text()
    assert text.startswith("# d = 0.25\n")
    assert "0.33333333333333331" in text
    jpath = tmp_path / "t.json"
    emit({"v": 1 / 3}, "json", str(jpath), meta={"d": 0.25})
    assert json.loads(jpath.read_text()) == {"d": 0.25, "v": 1 / 3}
    emit(Table(x=[1]), "json", str(jpath), meta={"d": 0.25})
    assert json.loads(jpath.read_text()) == {"d": 0.25, "rows": [{"x": 1}]}
    emit(Table(x=np.array([1, 2])), "json", str(jpath))
    assert json.loads(jpath.read_text()) == [{"x": 1}, {"x": 2}]


def row_formatter_text(rows, fmt, meta=None):
    """What ``emit`` wrote for a list of row dicts, before it took only tables."""
    if fmt == "json":
        return json.dumps({**meta, "rows": rows} if meta else rows, indent=2) + "\n"

    def cell(value):
        return format(value, ".17g") if isinstance(value, float) else str(value)

    lines = [f"# {k} = {cell(v)}" for k, v in meta.items()] if meta else []
    keys = list(rows[0])
    lines.append(",".join(keys))
    lines.extend(",".join(cell(row[k]) for k in keys) for row in rows)
    return "\n".join(lines) + "\n"


def edge_columns(n: int) -> dict:
    """Columns of ``n`` rows of each kind a table takes: nan, +-inf, +-0,
    subnormals and int64 extremes, then random bit patterns."""
    rng = np.random.default_rng(n)
    floats = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072009e-308]
    bits = rng.integers(0, 2 ** 64, size=(3, n), dtype=np.uint64)
    bits[:, :len(floats)] = np.array(floats).view(np.uint64)
    ints = rng.integers(-2 ** 63, 2 ** 63, size=n, dtype=np.int64)
    ints[:3] = (-2 ** 63, 2 ** 63 - 1, 0)
    v, re, im = bits.view(np.float64)
    return {"x": ints, "v": v, "re": re, "im": im, "u": (np.arange(n) % 256).astype(np.uint8),
            "tuple": tuple(rng.standard_normal(n).tolist())}


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("meta", (None, {"delta_mass": 0.1, "observable": "ks", "n": 3}))
def test_emit_table_matches_row_formatter(fmt, meta, tmp_path, capsys):
    ints = np.array([0, -3, 7, 2 ** 40, 1])
    floats = np.array([-0.0, 5e-324, 1e300, 0.1, 1 / 3])
    amps = np.array([1 + 2j, -0.0 - 0.0j, 5e-324j, 0.1, -1e300j])
    columns = {"x": ints, "v": floats, "re": amps.real, "im": amps.imag,
               "u": np.arange(5, dtype=np.uint8), "tuple": (0.5, -0.0, 2.0, 1e-300, 7.0)}
    # these 5 rows alone, and after edge rows to one row short of, exactly
    # at and one row past a JSON block
    tables = [columns] + [
        {key: np.concatenate([head, col]) if isinstance(col, np.ndarray) else head + col
         for (key, head), col in zip(edge_columns(n - 5).items(), columns.values())}
        for n in range(qwalk.cli.JSON_BLOCK_ROWS - 1, qwalk.cli.JSON_BLOCK_ROWS + 2)]
    path = tmp_path / "out"
    for columns in tables:
        table = Table(**columns)
        rows = [dict(zip(columns, row)) for row in zip(
            *(c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()))]
        expected = row_formatter_text(rows, fmt, meta)
        emit(table, fmt, str(path), meta)
        assert path.read_text() == expected
        emit(table, fmt, None, meta)
        assert capsys.readouterr().out == expected
        if fmt == "csv":
            assert [line.split(",")[1] for line in expected.splitlines()[-5:]] == [
                "-0", "4.9406564584124654e-324", "1.0000000000000001e+300",
                "0.10000000000000001", "0.33333333333333331"]


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("column", (
    [0.5, -0.0, 2, 1e-300, 7],  # ints among floats: 2.0 and 7.0 in JSON
    (3, -1, 2 ** 40),
    np.linspace(-1.0, 1.0, 101).tolist(),
), ids=("mixed", "int-tuple", "long-float-list"))
def test_sequence_columns_emit_as_their_arrays(fmt, column, capsys):
    # Table makes every column an array, so a Python sequence prints as np.asarray of it
    emit(Table(v=column), fmt)
    as_sequence = capsys.readouterr().out
    emit(Table(v=np.asarray(column)), fmt)
    assert as_sequence == capsys.readouterr().out


def emitted_cells(column) -> list[str]:
    """The CSV cells ``emit`` writes for a one-column table."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(Table(v=column), "csv")
    return out.getvalue().splitlines()[1:]


def expected_cells(column: np.ndarray) -> list[str]:
    """``'%.17g' % v`` per float and ``str(i)`` per integer."""
    if column.dtype.kind == "f":
        return ["%.17g" % v for v in column.tolist()]
    return [str(i) for i in column.tolist()]


#: Each power of ten that is a normal or subnormal double, with the
#: doubles on both sides of it, of both signs: where the decimal exponent
#: and the rounding of the 17th digit change.
POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-323, 309)])
DECADE_EDGES = np.concatenate([POWERS_OF_TEN, np.nextafter(POWERS_OF_TEN, 0.0),
                               np.nextafter(POWERS_OF_TEN, np.inf)])
DECADE_EDGES = np.concatenate([DECADE_EDGES, -DECADE_EDGES])


@pytest.mark.parametrize("column", (
    DECADE_EDGES,
    # 1234567890123456.75 has 18 significant digits: an exact rounding tie
    np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              math.inf, -math.inf, math.nan, 0.5, 1234567890123456.75, 1e-290, 1e290,
              9.9999999999999995e-5, 1e16 - 2, 1e17 - 16, 99999999999999999.0]),
    np.array([0, -1, 9, 10, 99999, -100000, 2 ** 63 - 1, -2 ** 63, 10 ** 18, -10 ** 18]),
    np.array([0, 2 ** 64 - 1, 10 ** 19, 10 ** 19 - 1], dtype=np.uint64),
    np.arange(256, dtype=np.uint8),
    np.arange(-128, 128, dtype=np.int8),
    np.linspace(-1.0, 1.0, 40001, dtype=np.float32),
), ids=("decade-edges", "float-specials", "int64", "uint64", "uint8", "int8", "float32"))
def test_csv_cells_print_as_percent_17g_and_str(column):
    assert emitted_cells(column) == expected_cells(column)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
@example([0x7FF8000000000000, 0x7FF0000000000000, 0xFFF0000000000000, 0xFFF8000000000001])
def test_csv_float_cells_for_any_bit_pattern(bits):
    # nan payloads, infinities, subnormals and normals alike
    column = np.array(bits, dtype=np.uint64).view(np.float64)
    assert emitted_cells(column) == expected_cells(column)
    # a list of Python floats prints as its array does
    assert emitted_cells(column.tolist()) == expected_cells(column)


#: Bits of a NaN with a payload and one with its sign set, +-0, +-inf, the
#: least subnormal of each sign, and the tie 1234567890123456.75, which
#: Python formats: every kind of slot a reused column can take.
EDGE_BITS = [0x7FF8000000000001, 0xFFF8000000000000, 0, 0x8000000000000000,
             0x7FF0000000000000, 0xFFF0000000000000, 1, 0x8000000000000001,
             int(np.array(1234567890123456.75).view(np.uint64))]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=32))
@example(EDGE_BITS)
@example([0])
def test_csv_reused_and_filler_float_columns_for_any_bit_pattern(bits):
    # over two blocks: the drawn column, its negation, itself again and its
    # abs share their magnitudes; the next column shares only its first cell;
    # then a column of +0.0 only and a column of occupied rows that is all
    # +0.0 after the first block
    drawn = np.array(bits, dtype=np.uint64).view(np.float64)
    n = qwalk._csvtext.BLOCK_ROWS + 2 * len(drawn) + 1
    v = np.resize(drawn, n)
    occupied = np.arange(n) % 3 != 1
    sparse = np.zeros(np.count_nonzero(occupied))
    sparse[:len(drawn)] = drawn
    columns = {"x": np.arange(n), "v": v, "neg": -v, "again": v.copy(), "abs": np.abs(v),
               "head": np.concatenate([v[:1], v[:0:-1]]), "zero": np.zeros(n),
               "sparse": sparse}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(Table(occupied=occupied, **columns), "csv")
    got = out.getvalue().splitlines(keepends=True)
    want = row_formatter_text(dense_rows(columns, occupied), "csv").splitlines(keepends=True)
    # the differing lines only: a diff of the whole text, at every shrink
    # step of a failure, would take minutes
    assert len(got) == len(want)
    assert not [(a, b) for a, b in zip(got, want) if a != b][:3]


def test_csv_formats_each_distinct_float_column_of_a_block_once(monkeypatch, capsys,
                                                                example_params):
    # limits: a block whose masses all underflow to +0.0 is the 0 filler,
    # not formatted; eigen: re_l2 and im_l2 reuse the slots of re_l1 and
    # im_l1, as lambda_2 = -conj(lambda_1)
    calls, slots = [], qwalk._csvtext.float_slots  # the lengths of the columns it formats
    monkeypatch.setattr(qwalk._csvtext, "float_slots",
                        lambda a: calls.append(len(a)) or slots(a))
    assert main(["limits", *PINNED_W, "--parity", "odd", "--xmax", "20000"]) == 0
    params = dataclasses.replace(example_params, theta=0.7, theta1=2.1)
    xs = np.arange(-20000, 20001)
    occupied = xs % 2 == 1
    masses = theorem1_limit(params, xs[occupied], "odd")
    blocks = [part for _, _, (_, part) in Table(occupied=occupied, x=xs, limit_mass=masses)
              .blocks(qwalk._csvtext.BLOCK_ROWS)]
    assert calls == [len(part) for part in blocks if part.any()]
    assert 0 < len(calls) < len(blocks)
    calls.clear()
    assert main(["eigen", "--theta", "0.7", "--k-samples", "10000"]) == 0
    sizes = [min(qwalk._csvtext.BLOCK_ROWS, 10000 - lo)
             for lo in range(0, 10000, qwalk._csvtext.BLOCK_ROWS)]
    assert calls == [size for size in sizes for _ in range(3)]
    capsys.readouterr()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=64))
def test_csv_int_cells_for_any_int64(values):
    column = np.array(values, dtype=np.int64)
    assert emitted_cells(column) == expected_cells(column)


@pytest.mark.parametrize("extra", (-1, 0, 1))
def test_csv_blocks_join_exactly(extra, tmp_path):
    # a table one row short of, exactly at and one row past a block
    n = qwalk._csvtext.BLOCK_ROWS + extra
    rng = np.random.default_rng(n)
    floats = rng.integers(0, 2 ** 64, size=n, dtype=np.uint64).view(np.float64)
    ints = rng.integers(-2 ** 63, 2 ** 63, size=n, dtype=np.int64)
    texts = [float(v) for v in rng.standard_normal(n)]
    path = tmp_path / "t.csv"
    emit(Table(x=ints, v=floats, w=texts), "csv", str(path), meta={"n": n})
    rows = [dict(x=i, v=v, w=w) for i, v, w in zip(ints.tolist(), floats.tolist(), texts)]
    assert path.read_text() == row_formatter_text(rows, "csv", {"n": n})


def test_csv_blocks_of_changing_width_join_exactly():
    # the block buffer is sized on the first block: a block of wider rows
    # after it takes a larger one, and a block of narrower rows reuses it
    n = qwalk._csvtext.BLOCK_ROWS
    column = np.concatenate([np.arange(n), np.full(n, -2 ** 63), np.arange(n // 2)])
    assert emitted_cells(column) == expected_cells(column)


def dense_rows(table_columns, occupied):
    """Rows of a table whose columns may hold the occupied rows only, 0.0 elsewhere."""
    columns = {}
    for key, col in table_columns.items():
        if len(col) < len(occupied):
            full = np.zeros(len(occupied), col.dtype)
            full[occupied] = col
            col = full
        columns[key] = col.tolist()
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


@pytest.mark.parametrize("extra", (-1, 0, 1))
@pytest.mark.parametrize("t", (1536, 1537, None))
def test_csv_sublattice_blocks_join_exactly(extra, t, tmp_path):
    # rows x = -1536.., occupied where x + t is even: the first row is
    # occupied for t even and not for t odd (t None: rows occupied at
    # random); one row short of, exactly at and one row past a block of
    # the CSV writer and one of the JSON writer, with meta and without
    for n in (qwalk._csvtext.BLOCK_ROWS + extra, qwalk.cli.JSON_BLOCK_ROWS + extra):
        xs = np.arange(-1536, n - 1536)
        rng = np.random.default_rng(n + (t or 0))
        occupied = rng.random(n) < 0.5 if t is None else (xs + t) % 2 == 0
        edges = edge_columns(int(occupied.sum()))
        columns = {"x": xs, "v": edges["v"], "w": rng.standard_normal(len(edges["v"])),
                   "i": edges["x"]}
        table = Table(occupied=occupied, **columns)
        rows = dense_rows(columns, occupied)
        for fmt, meta in itertools.product(("csv", "json"), ({"n": n}, None)):
            path = tmp_path / f"t.{fmt}"
            emit(table, fmt, str(path), meta=meta)
            assert path.read_text() == row_formatter_text(rows, fmt, meta)


@pytest.mark.parametrize("t", (1535, 1536))  # 2t + 1 rows: one short of and one past a block
def test_simulate_rows_match_the_dense_window(t, tmp_path, example_params):
    path = tmp_path / "sim.csv"
    assert main(["simulate", *PINNED_W, "--tau", "700", "--t", str(t), "--out", str(path)]) == 0
    params = dataclasses.replace(example_params, theta=0.7, theta1=2.1, tau=700)
    amps = spectral_evolve(params, Schedule.half_time(), t).amps
    sq = np.abs(amps) ** 2
    columns = {"x": np.arange(-t, t + 1), "prob": sq[:, 0] + sq[:, 1],
               "amp0_re": amps[:, 0].real, "amp0_im": amps[:, 0].imag,
               "amp1_re": amps[:, 1].real, "amp1_im": amps[:, 1].imag}
    expected = row_formatter_text(dense_rows(columns, np.ones(2 * t + 1, bool)), "csv")
    assert path.read_text() == expected


@pytest.mark.parametrize("parity", ("odd", "even"))
@pytest.mark.parametrize("xmax", (1535, 1536))  # 2 xmax + 1 rows around a block
def test_limits_rows_match_the_dense_masses(parity, xmax, tmp_path, example_params):
    path = tmp_path / "limits.csv"
    assert main(["limits", *PINNED_W, "--parity", parity, "--xmax", str(xmax),
                 "--out", str(path)]) == 0
    params = dataclasses.replace(example_params, theta=0.7, theta1=2.1)
    xs = np.arange(-xmax, xmax + 1)
    columns = {"x": xs, "limit_mass": theorem1_limit(params, xs, parity)}
    rows = dense_rows(columns, np.ones(len(xs), bool))
    assert path.read_text() == row_formatter_text(rows, "csv", {"delta_mass": delta_mass(params)})


@pytest.mark.parametrize("argv, t", [
    (["simulate", *WALK, "--t", "3"], 3),
    (["figures", "--paper-fig", "2a"], None),
    (["limits", *WALK, "--parity", "odd", "--xmax", "3"], 1),
    (["limits", *WALK, "--parity", "even", "--xmax", "3"], 2),
])
def test_json_unoccupied_rows_read_float_zero(argv, t, capsys):
    assert main([*argv, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    rows = data["rows"] if isinstance(data, dict) else data
    unoccupied = [row for row in rows if (row["x"] + (row["t"] if t is None else t)) % 2]
    values = [v for row in unoccupied for k, v in row.items() if k not in ("x", "t")]
    assert values and all(type(v) is float and math.copysign(1.0, v) == 1.0 and v == 0.0
                          for v in values)


@pytest.mark.parametrize("extra", (-1, 0, 1))
@pytest.mark.parametrize("dtype", (np.float64, np.int64))
def test_short_columns_print_alike(dtype, extra, monkeypatch):
    # every column, however short, goes through the slot formatter of its
    # dtype, once, and prints as '%.17g' % v or str(i): 1-3 and 99-101 rows
    for n in (2 + extra, 100 + extra):
        for column_type in (dtype, np.float32 if dtype == np.float64 else np.uint8):
            rng = np.random.default_rng(n)
            column = rng.integers(0, 256, size=n * np.dtype(column_type).itemsize,
                                  dtype=np.uint8).view(column_type)
            calls = []
            for name in ("float_slots", "int_slots"):
                slots = getattr(qwalk._csvtext, name)
                monkeypatch.setattr(qwalk._csvtext, name,
                                    lambda a, slots=slots, name=name: calls.append((name, len(a)))
                                    or slots(a))
            assert emitted_cells(column) == expected_cells(column)
            assert calls == [("float_slots" if column.dtype.kind == "f" else "int_slots", n)]
            monkeypatch.undo()


def test_csv_writer_memory_is_bounded(tmp_path):
    # the writer formats a block of rows at a time; its peak allocation
    # must not grow with the table the way a whole-text writer's does
    rng = np.random.default_rng(7)
    table = Table(**{f"c{j}": rng.standard_normal(10 ** 6) for j in range(5)})
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        emit(table, "csv", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    path.unlink()
    assert size > 80 * 10 ** 6
    assert peak < size / 10, (peak, size)


def test_json_writer_memory_is_bounded(tmp_path):
    # the JSON writer holds one block of rows as Python objects, not a
    # dict per row of the table (80 MB traced here when it did; 1.8 MB now)
    xs = np.arange(10 ** 5)
    occupied = xs % 2 == 0
    table = Table(occupied=occupied, x=xs, prob=np.linspace(0.0, 1.0, 10 ** 5 // 2))
    path = tmp_path / "big.json"
    tracemalloc.start()
    try:
        emit(table, "json", str(path), meta={"delta_mass": 0.5})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert json.loads(path.read_text())["rows"][-2] == {"x": 10 ** 5 - 2, "prob": 1.0}
    assert peak < 16 * 10 ** 6, peak


@pytest.mark.parametrize("command, flag, at_cap", [
    (["limits", *WALK, "--parity", "odd"], "--xmax", 10),
    (["density", *WALK], "--points", 21),
    (["eigen", "--theta", THETA], "--k-samples", 21),
])
def test_tables_are_capped_at_the_rows_of_simulate(command, flag, at_cap, monkeypatch,
                                                    capsys):
    # QWALK_MAX_T = 10: simulate --t 10 prints 21 rows, and so may any table
    monkeypatch.setenv("QWALK_MAX_T", "10")
    assert main(["simulate", *WALK, "--t", "10"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 21
    assert main([*command, flag, str(at_cap)]) == 0
    assert capsys.readouterr().out.count("\n") >= 21
    assert main([*command, flag, str(at_cap + 1)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert flag in err and "limit of 21" in err and "QWALK_MAX_T" in err


def test_oversized_tables_are_rejected_before_allocating(monkeypatch, capsys):
    # a hundred times the default cap's 2 * 10**6 + 1 rows would need GBs
    monkeypatch.delenv("QWALK_MAX_T", raising=False)
    main(["limits", *WALK, "--parity", "odd", "--xmax", "0"])  # builds the parser
    tracemalloc.start()
    try:
        for argv in (["limits", *WALK, "--parity", "odd", "--xmax", "100000000"],
                     ["density", *WALK, "--points", "200000000"],
                     ["eigen", "--theta", THETA, "--k-samples", "200000000"]):
            assert main(argv) == 1, argv
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6, peak
    assert capsys.readouterr().err.count("limit of 2000001") == 3


def test_table_validation():
    with pytest.raises(ValueError):
        Table(x=np.arange(3), p=np.zeros(2))
    with pytest.raises(EmptyOutput):
        emit(Table(x=np.arange(0), p=np.zeros(0)), "csv", None)
    assert len(Table(x=[1, 2], p=(0.5, 0.5))) == 2


REFUSED_COLUMNS = {
    "bool": lambda n: np.arange(n) % 2 == 0,
    "complex": lambda n: np.full(n, 1 + 2j),
    "str": lambda n: np.array(["a"] * n),
    "object": lambda n: np.array([1.0] * n, dtype=object),
    "longdouble": lambda n: np.arange(n, dtype=np.longdouble) / 7,
}


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("rows", (3, 150))
@pytest.mark.parametrize("kind", REFUSED_COLUMNS)
def test_table_refuses_columns_it_cannot_print(kind, rows, fmt, capsys):
    # Python and numpy disagree, or fail, on the text of these dtypes
    column = REFUSED_COLUMNS[kind](rows)
    if column.dtype.itemsize == 8 and kind == "longdouble":
        pytest.skip("long double is float64 on this platform")
    with pytest.raises(ValueError, match=f"column 'v' has dtype {column.dtype}"):
        emit(Table(x=np.arange(rows), v=column), fmt)
    assert capsys.readouterr().out == ""


def test_tracer_targets_resolve(monkeypatch, tmp_path):
    # perfbench/run.py --trace 1 patches every TARGETS entry; a missing one
    # would break it, so open the recorder over a real command
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    original = qwalk.cli.emit
    with tracer.SpanRecorder() as recorder:
        for module, path, _ in tracer.TARGETS:
            assert recorder.bindings[tracer.layer_name(module, path)] >= 1
        assert qwalk.cli.emit is not original
        assert qwalk.cli.main(["trace", *WALK, "--observable", "ks", "--taus", "1,4",
                               "--out", str(tmp_path / "trace.csv")]) == 0
        assert qwalk.cli.main(["compare", *WALK, "--tau", "2", "--t", "5",
                               "--out", str(tmp_path / "report.json")]) == 0
    assert qwalk.cli.emit is original
    totals = recorder.layer_totals()
    assert totals["cli.emit"]["calls"] == 2
    # one distribution per traced tau (t = 3, 9) and one for compare (t = 5);
    # the counter reads the dense window, 2t + 1 sites
    assert totals["dynamics.distribution"]["calls"] == 3
    assert totals["dynamics.distribution"]["sites"] == 7 + 19 + 11


def test_benchmark_modules_import_and_build(monkeypatch):
    # perfbench/checks.py imports qwalk names at load time; a deleted one
    # would fail every benchmark op, so import it and build each workload
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    checks = importlib.import_module("checks")
    # the checks read the dense window: -t..t, exact zeros where x + t is odd
    params = WalkParams(theta=0.7, theta1=0.0, tau=2, alpha=0.6, beta=0.8j)
    amps = checks.Checker().amps(params, Schedule.half_time(), 5)
    assert amps.shape == (11, 2)
    assert np.all(amps[1::2] == 0)
    workloads = importlib.import_module("workloads")
    for name in workloads.WORKLOADS:
        ops = workloads.build(name, 0)
        assert ops and ops == workloads.build(name, 0)


def _fresh_cli(argv, cwd, max_t):
    """``python -m qwalk.cli argv`` in a new interpreter: (exit code, stdout, stderr)."""
    env = {**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80"}
    env.pop("QWALK_MAX_T", None)
    if max_t is not None:
        env["QWALK_MAX_T"] = max_t
    proc = subprocess.run([sys.executable, "-m", "qwalk.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_calls_like_fresh_processes(tmp_path, monkeypatch, capsys):
    # main reuses its parser; each call must still behave as the same
    # command alone in a fresh process: exit code, stdout, stderr, files
    calls = [
        (None, ["limits", *PINNED_W, "--parity", "odd", "--xmax", "3"]),
        (None, ["trace", *PINNED_W, "--observable", "mass", "--x", "1",
                "--taus", "0,3,30", "--out", "trace.csv"]),
        (None, ["trace", *PINNED_W, "--observable", "bogus", "--taus", "1"]),  # usage
        (None, ["trace", *PINNED_W, "--observable", "mass", "--taus", "1"]),  # validation
        ("10", ["simulate", *PINNED_W, "--t", "20"]),  # the cap is read at call time
        (None, ["--help"]),
        ("30", ["simulate", *PINNED_W, "--tau", "9", "--t", "20", "--out", "sim.csv"]),
        (None, ["compare", *PINNED_W, "--tau", "9", "--t", "20"]),
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    monkeypatch.setenv("COLUMNS", "80")
    # build the parser while other streams are installed: no call below
    # may write to the streams of the call that built it
    qwalk.cli._parser.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["limits", *PINNED_W, "--parity", "even", "--xmax", "1"]) == 0
    codes = []
    for max_t, argv in calls:
        if max_t is None:
            monkeypatch.delenv("QWALK_MAX_T", raising=False)
        else:
            monkeypatch.setenv("QWALK_MAX_T", max_t)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == _fresh_cli(argv, fresh, max_t), argv
        codes.append(code)
    assert codes == [0, 0, 1, 1, 1, 0, 0, 0]
    assert sorted(p.name for p in here.iterdir()) == ["sim.csv", "trace.csv"]
    for name in ("sim.csv", "trace.csv"):
        assert (here / name).read_bytes() == (fresh / name).read_bytes(), name


def test_importing_the_cli_builds_no_parser():
    # the parser is built by the first main call, so a fresh import (the
    # benchmark's setup time) does not pay for it, and the second call reuses it
    code = textwrap.dedent("""
        import argparse, sys
        built = []
        init = argparse.ArgumentParser.__init__
        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting
        import qwalk.cli
        counts = [len(built)]
        for _ in range(2):
            qwalk.cli.main(["eigen", "--theta", "0.7", "--k-samples", "2"])
            counts.append(len(built))
        print(*counts, file=sys.stderr)
    """)
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120, check=True)
    at_import, first, second = map(int, proc.stderr.split())
    assert at_import == 0
    assert first == 1 + len(SUBCOMMANDS)  # the parser and one per subcommand
    assert second == first


def test_only_csv_tables_load_the_writer():
    # commands that write no CSV table never import qwalk._csvtext; run in
    # a new interpreter, since this module imports it itself
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        import qwalk.cli
        argvs = json.loads(sys.argv[1])
        runs = []
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                runs.append((qwalk.cli.main(argv), "qwalk._csvtext" in sys.modules))
        print(json.dumps(runs))
    """)
    argvs = [
        ["compare", *WALK, "--tau", "3", "--t", "7"],
        ["spectral-check", *WALK, "--t", "5"],
        ["simulate", *WALK, "--t", "5", "--format", "json"],
        ["limits", *WALK, "--parity", "odd", "--xmax", "3", "--format", "json"],
        ["limits", *WALK, "--parity", "odd", "--xmax", "3"],
    ]
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == [[0, False]] * 4 + [[0, True]]
