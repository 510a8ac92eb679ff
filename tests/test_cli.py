"""Command-line driver: exit codes, determinism, config precedence."""

import json
import math
import os
import subprocess
import sys

import pytest

import gfs
from gfs.cli import COMMANDS, main, parse_profile, parse_scalar


def test_parse_scalar_pi_suffix():
    assert parse_scalar("-0.9pi") == pytest.approx(-0.9 * math.pi)
    assert parse_scalar("2.5") == 2.5
    assert parse_scalar(" 1PI ") == pytest.approx(math.pi)


def test_parse_profile_ref_and_file(tmp_path, rho_ref):
    prof = parse_profile("REF:-0.9pi,0.1")
    assert prof.drho(0.05) == pytest.approx(rho_ref.drho(0.05))
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(rho_ref.to_json()))
    clone = parse_profile(str(path))
    assert clone.rho(0.3) == pytest.approx(rho_ref.rho(0.3))


def test_barcode_limit_run_is_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["barcode", "--n", "1", "--R", "1", "--k", "5", "--limit"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "barcode.json").read_bytes() == \
        (out2 / "barcode.json").read_bytes()
    assert (out1 / "barcode.tsv").read_bytes() == \
        (out2 / "barcode.tsv").read_bytes()
    obj = json.loads((out1 / "barcode.json").read_text())
    assert obj["schema"] == "gfs/1" and obj["field"] == 5


def test_barcode_finite_profile(tmp_path):
    code = main(["barcode", "--n", "1", "--R", "1", "--k", "3",
                 "--profile", "REF:-0.9pi,0.1", "--out", str(tmp_path)])
    assert code == 0
    obj = json.loads((tmp_path / "barcode.json").read_text())
    degrees = sorted({b["degree"] for b in obj["bars"]})
    assert degrees == [2, 3, 4, 5]


def test_barcode_flag_validation(tmp_path, capsys):
    assert main(["barcode", "--k", "4", "--limit",
                 "--out", str(tmp_path)]) == 2
    assert "odd prime" in capsys.readouterr().err
    assert main(["barcode", "--limit", "--out", str(tmp_path)]) == 2
    assert main(["barcode", "--k", "3", "--mode", "bogus"]) == 2


def test_equivariant_limit_with_k_one_is_a_flag_error(tmp_path, capsys):
    # the mode defaults to equivariant, which needs k an odd prime
    assert main(["barcode", "--k", "1", "--limit",
                 "--out", str(tmp_path)]) == 2
    assert "odd prime" in capsys.readouterr().err
    assert not (tmp_path / "barcode.json").exists()
    assert main(["barcode", "--k", "1", "--limit", "--mode", "plain",
                 "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv", [
    ["barcode", "--k", "3", "--n", "0", "--limit"],
    ["barcode", "--k", "3", "--R", "-1"],
    ["nonsqueeze", "--A1", "1.5", "--A2", "1.2", "--evidence", "--n", "0"],
    ["barcode", "--k", "3", "--R", "inf"],
    ["nonsqueeze", "--A1", "inf", "--A2", "1"],
    ["nonsqueeze", "--A1", "inf", "--A2", "1", "--evidence"],
    ["nonsqueeze", "--A1", "2", "--A2", "1", "--A3", "inf"],
    ["barcode", "--k", "3", "--R", "1e-200"],     # pi R^2 underflows to 0
    ["barcode", "--k", "3", "--R", "1e200"],      # pi R^2 overflows
])
def test_bad_ball_is_a_flag_error(tmp_path, capsys, argv):
    out = ["--out", str(tmp_path)] if argv[0] == "barcode" else []
    assert main(argv + out) == 2
    captured = capsys.readouterr()
    assert "error" in captured.err and captured.out == ""
    assert not (tmp_path / "barcode.json").exists()


@pytest.mark.parametrize("lmax", ["0", "-1"])
def test_lmax_below_one_is_a_flag_error(tmp_path, capsys, lmax):
    assert main(["barcode", "--k", "3", "--limit", "--mode", "plain",
                 "--lmax", lmax, "--out", str(tmp_path)]) == 2
    assert "lmax" in capsys.readouterr().err
    assert not (tmp_path / "barcode.json").exists()


def test_barcode_computation_error(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["barcode", "--k", "3", "--profile", str(missing),
                 "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("content", [b"not json", b"\xff\xfe"],
                         ids=["not-json", "not-utf8"])
def test_unreadable_profile_file_is_a_computation_error(tmp_path, capsys,
                                                        content):
    path = tmp_path / "prof.json"
    path.write_bytes(content)
    assert main(["barcode", "--k", "3", "--profile", str(path),
                 "--out", str(tmp_path)]) == 3
    assert "invalid profile" in capsys.readouterr().err
    assert not (tmp_path / "barcode.json").exists()


@pytest.mark.parametrize("key, value", [("c", "x"), ("delta", "y"),
                                        ("delta", 1.0)])
def test_profile_file_with_bad_c_or_delta_is_a_computation_error(
        tmp_path, capsys, rho_ref, key, value):
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(dict(rho_ref.to_json(), **{key: value})))
    assert main(["barcode", "--k", "3", "--profile", str(path),
                 "--out", str(tmp_path)]) == 3
    assert "error: invalid profile" in capsys.readouterr().err
    assert not (tmp_path / "barcode.json").exists()


@pytest.mark.parametrize("literal", [
    "REF:xpi,0.1",            # not a number
    "REF:-0.9pi",             # one part
    "REF:-0.9pi,0.1,0.2",     # three parts
    "REF:0.9pi,0.1",          # ref_profile needs c < 0
    "REF:-0.9pi,1.5",         # ... and delta in (0, 1 - 2 blend)
])
def test_barcode_malformed_ref_profile(tmp_path, capsys, literal):
    # a REF literal is a flag value: exit 2, not a computation error
    assert main(["barcode", "--k", "3", "--profile", literal,
                 "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_non_finite_ref_slope_is_a_flag_error(tmp_path):
    # in a fresh interpreter, so that a numpy RuntimeWarning would reach
    # stderr rather than pytest's warning capture
    src = os.path.dirname(os.path.dirname(gfs.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys; from gfs.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, "barcode", "--k", "3",
         "--profile", "REF:-inf,0.1", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "slope" in lines[0] and "Warning" not in proc.stderr
    assert not (tmp_path / "barcode.json").exists()


@pytest.mark.parametrize("R", ["1e-160", "1e-150"])
def test_ball_too_small_for_the_shell_count_is_a_computation_error(tmp_path,
                                                                    R):
    # pi R^2 is positive and finite, but -rho'(0) k / (pi R^2) is inf
    # (1e-160) or about 3e300 (1e-150): no shell count is left to bisect.
    # In a fresh interpreter, which times the call and can be stopped.
    src = os.path.dirname(os.path.dirname(gfs.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, time; from gfs.cli import main; "
            "t = time.perf_counter(); code = main(sys.argv[1:]); "
            "print(time.perf_counter() - t); sys.exit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", code, "barcode", "--k", "3", "--R", R,
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert float(proc.stdout) < 1.0
    assert not (tmp_path / "barcode.json").exists()


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(gfs.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import gfs, gfs.cli, sys; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_verify_negative_seed_is_a_flag_error(capsys):
    assert main(["verify", "--suite", "generation", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "seed" in captured.err and captured.out == ""


def test_verify_exit_codes(capsys):
    assert main(["verify", "--suite", "algebra"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert main(["verify", "--suite", "bogus"]) == 2
    assert main(["verify"]) == 2


@pytest.mark.parametrize("suite, checks", [
    ("generation", 1), ("values", 3), ("chains", 6)])
def test_verify_fast_suites(capsys, suite, checks):
    assert main(["verify", "--suite", suite]) == 0
    out = capsys.readouterr().out
    assert "suite %s: %d/%d checks passed" % (suite, checks, checks) in out


def test_verify_index_suite(capsys):
    assert main(["verify", "--suite", "index"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert "[PASS] index (n=1,k=3,l=1): maslov 2 nullity 1 gap 0.053" in out
    assert "suite index: 8/8 checks passed" in out


def test_nonsqueeze_exit_codes(capsys):
    assert main(["nonsqueeze", "--A1", "1.5", "--A2", "1.2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "primeFraction" and obj["k"] == 5 and obj["l"] == 4

    assert main(["nonsqueeze", "--A1", "0.45", "--A2", "0.40"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "none"
    # 1/A2 overflows: no conjugation index, no traceback
    assert main(["nonsqueeze", "--A1", "0.3", "--A2", "1e-320",
                 "--A3", "0.5"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "none"

    assert main(["nonsqueeze", "--A1", "1.0", "--A2", "1.5"]) == 2
    capsys.readouterr()
    assert main(["nonsqueeze", "--A1", "1.0001", "--A2", "1.0",
                 "--max-prime", "1000"]) == 4


def test_nonsqueeze_boundary_queries(capsys):
    # A2 = 3/2 exactly: the small ball's limit bar [0, 2*A2) dies at a = 3
    assert main(["nonsqueeze", "--A1", "1.515", "--A2", "1.5",
                 "--evidence"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["kind"], obj["k"], obj["l"]) == ("primeFraction", 3, 2)
    assert obj["evidence"]["ranks"] == [1, 1, 0]
    # A1 one ulp above 23/9: floor(23/A1) + 1 = 10, but 23 < 9*A1 already
    assert main(["nonsqueeze", "--A1", "2.555555555555556",
                 "--A2", "2.5555555555555554", "--max-prime", "397"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["kind"], obj["k"], obj["l"]) == ("primeFraction", 23, 9)


def test_nonsqueeze_evidence_and_determinism(capsys):
    args = ["nonsqueeze", "--A1", "1.5", "--A2", "1.2", "--evidence"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    obj = json.loads(first)
    assert obj["evidence"]["ranks"] == [1, 1, 0]
    assert obj["evidence"]["inclusion_ranks"] == [1, 0]


def test_config_file_and_flag_precedence(tmp_path):
    conf = tmp_path / "gfs.conf"
    conf.write_text("k=7\nmode=plain\nlmax=2\n# comment\n")
    out1 = tmp_path / "fromconf"
    assert main(["barcode", "--config", str(conf), "--limit",
                 "--out", str(out1)]) == 0
    obj = json.loads((out1 / "barcode.json").read_text())
    assert obj["field"] == 7
    assert len(obj["bars"]) == 2            # lmax from config

    out2 = tmp_path / "flagwins"
    assert main(["barcode", "--config", str(conf), "--k", "3", "--limit",
                 "--out", str(out2)]) == 0
    obj2 = json.loads((out2 / "barcode.json").read_text())
    assert obj2["field"] == 3               # flag beats config


@pytest.mark.parametrize("config", [
    "k=x\n", "k=3\nlimit\n", None, "k=3\nlimit=maybe\n", "k=3\nlimt=1\n"],
    ids=["not-an-int", "no-equals", "missing-file", "not-a-bool",
         "unknown-key"])
def test_bad_config_is_a_flag_error(tmp_path, capsys, config):
    conf = tmp_path / "gfs.conf"
    if config is not None:
        conf.write_text(config)
    assert main(["barcode", "--config", str(conf),
                 "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "barcode.json").exists()


@pytest.mark.parametrize("word, limit", [
    ("On", True), ("yes", True), ("0", False), ("FALSE", False)])
def test_config_bool_spellings(tmp_path, word, limit):
    conf = tmp_path / "gfs.conf"
    conf.write_text("k=3\nlimit=%s\n" % word)
    assert main(["barcode", "--config", str(conf),
                 "--out", str(tmp_path / "conf")]) == 0
    flag = ["--limit"] if limit else []
    assert main(["barcode", "--k", "3", "--out", str(tmp_path / "flag")]
                + flag) == 0
    assert (tmp_path / "conf" / "barcode.json").read_bytes() == \
        (tmp_path / "flag" / "barcode.json").read_bytes()


@pytest.mark.parametrize("argv", [
    ["barcode", "--k", "3", "--limit", "--workers", "1"],
    ["barcode", "--k", "3", "--limit", "--seed", "0"],
    ["verify", "--suite", "algebra", "--workers", "1"],
])
def test_removed_flags_are_rejected(tmp_path, capsys, argv):
    out = ["--out", str(tmp_path)] if argv[0] == "barcode" else []
    assert main(argv + out) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "barcode.json").exists()


def test_help_and_no_command(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    assert "barcode" in capsys.readouterr().out

@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_names_every_option(capsys, command):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    _, table, _ = COMMANDS[command]
    for flag in ["--" + name.replace("_", "-") for name in table] + ["--config"]:
        assert flag in out, flag
