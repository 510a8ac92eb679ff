"""Command-line driver: exit codes, determinism, config precedence."""

import argparse
import ast
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

import gfs
from gfs.cli import (COMMANDS, _add_options, main, parse_profile,
                     parse_scalar)


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == gfs.__version__


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


def test_a_ball_above_the_generator_bound_exits_3_at_once(tmp_path, capsys):
    # k = 1000003 has about 900,000 shells below k: refused before any of
    # them is bisected
    start = time.perf_counter()
    assert main(["barcode", "--k", "1000003", "--out", str(tmp_path)]) == 3
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err
    assert "1800005 generators" in err and "bound 100000" in err
    assert not (tmp_path / "barcode.json").exists()


def test_every_error_class_has_a_raise_site():
    # an error class that nothing raises documents a refusal that never
    # happens; collect the name at every `raise X` and `raise X(...)`
    from gfs import errors
    from gfs.cli import FlagError
    package = os.path.dirname(gfs.__file__)
    raised = set()
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = getattr(node.exc, "func", node.exc)
                    raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    classes = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.GfsError)
               and cls is not errors.GfsError] + [FlagError]
    assert [cls.__name__ for cls in classes
            if cls.__name__ not in raised] == []


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


@pytest.mark.parametrize("content", [
    b"not json", b"\xff\xfe",
    b'{"knots": ["0", "1"], "pieces": [[1, -2, 1]]}',
    b'{"knots": [0, 1], "pieces": [[true, -2, true]]}'],
    ids=["not-json", "not-utf8", "string-knots", "bool-pieces"])
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


@pytest.mark.parametrize("k", ["1", "3"])
def test_profile_whose_rho_jumps_at_a_knot_is_a_computation_error(
        tmp_path, capsys, k):
    # rho' is continuous, but rho jumps up from 0 to 0.25 at m = 0.5, so
    # rho is not non-increasing; the grids of `validate` cannot see it
    path = tmp_path / "prof.json"
    path.write_text(json.dumps({"knots": [0, 0.5, 1], "pieces": [
        [3, -4, 1.25], [1, -1, 0.25]]}))
    assert main(["barcode", "--k", k, "--R", "0.3", "--profile", str(path),
                 "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == \
        "error: invalid profile: rho is discontinuous at knot 0.5\n"
    assert not (tmp_path / "barcode.json").exists()


@pytest.mark.parametrize("k", ["1", "3"])
def test_profile_that_reads_nan_is_a_computation_error(tmp_path, capsys, k):
    # (m + 1e200)^2 overflows, and 0.0 * inf is nan: every read of rho on
    # [0, 1] is nan, which no min/max comparison refuses
    path = tmp_path / "prof.json"
    path.write_text(json.dumps({"knots": [-1e200, 0.5, 1], "pieces": [
        [0, 0, 0], [0, 0, 0]]}))
    assert main(["barcode", "--k", k, "--profile", str(path),
                 "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "error: invalid profile: rho, rho' or rho'' is not finite on [0, 1]\n")
    assert not (tmp_path / "barcode.json").exists()


@pytest.mark.parametrize("knots, pieces", [
    ([0, 1], [[-10, 12]]),                  # rho(1-) = 2, rho'(1-) = -10
    ([0, 1], [[5.0]]),                      # rho(1-) = 5
    ([0, 1], [[-1, 2]]),                    # rho(1-) = 1, rho'(1-) = -1
    ([0, 0.25, 0.6, 1], [[-2, 2], [-2, 1.5], [-2, 0.8]]),  # rho'(1-) = -2
])
def test_profile_that_does_not_vanish_at_one_is_refused(
        tmp_path, capsys, knots, pieces):
    # every read at m >= 1 is 0.0, so only the left limits at m = 1 see it
    path = tmp_path / "prof.json"
    path.write_text(json.dumps({"knots": knots, "pieces": pieces}))
    assert main(["barcode", "--k", "1", "--profile", str(path),
                 "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == ("error: invalid profile: rho or "
                                       "rho' does not vanish as m -> 1\n")
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


def test_the_module_entry_point_reads_sys_argv(capsys):
    # `python -m gfs.cli` calls main() with no argv, as the gfs script does
    src = os.path.dirname(os.path.dirname(gfs.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["nonsqueeze", "--A1", "1.5", "--A2", "1.2", "--evidence"]
    proc = subprocess.run([sys.executable, "-m", "gfs.cli", *argv],
                          env=env, capture_output=True)
    assert main(argv) == 0
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == capsys.readouterr().out.encode()
    proc = subprocess.run([sys.executable, "-m", "gfs.cli"], env=env,
                          capture_output=True)
    assert proc.returncode == 2


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


# `gfs verify` stdout (seed 0) for the deterministic suites, byte for byte.
VERIFY_STDOUT = {
    "algebra": """\
[PASS] (T-1)N = 0 in Z_5[T]/(T^5-1) (residual 0.000e+00)
[PASS] circle complex k=3 (residual 0.000e+00)
[PASS] circle complex k=5 (residual 0.000e+00)
[PASS] lens(2,5) plain ranks (1,0,0,1) (residual 0.000e+00)
[PASS] lens(2,5) coinvariant rank 1 everywhere (residual 0.000e+00)
[PASS] ball complex d^2 = 0 and filtered (residual 0.000e+00)
[PASS] two-shell vanishing forces the norm connector (residual 0.000e+00)
suite algebra: 7/7 checks passed
""",
    "values": """\
[PASS] l=1 shell value = 5pi/6 (residual 7.854e-07)
[PASS] l=1 shell value = sum of primitives (residual 2.190e-12)
[PASS] origin value = k*rho(0) (residual 0.000e+00)
suite values: 3/3 checks passed
""",
    "index": """\
[PASS] index (n=1,k=3,l=1): maslov 2 nullity 1 gap 0.053 (residual 0.000e+00)
[PASS] index (n=1,k=3,l=2): maslov 4 nullity 1 gap 0.075 (residual 0.000e+00)
[PASS] index (n=1,k=5,l=1): maslov 2 nullity 1 gap 0.012 (residual 0.000e+00)
[PASS] index (n=1,k=5,l=2): maslov 4 nullity 1 gap 0.017 (residual 0.000e+00)
[PASS] index (n=1,k=5,l=3): maslov 6 nullity 1 gap 0.022 (residual 0.000e+00)
[PASS] index (n=1,k=5,l=4): maslov 8 nullity 1 gap 0.031 (residual 0.000e+00)
[PASS] index (n=2,k=3,l=1): maslov 4 nullity 3 gap 0.053 (residual 0.000e+00)
[PASS] index (n=2,k=3,l=2): maslov 8 nullity 3 gap 0.062 (residual 0.000e+00)
suite index: 8/8 checks passed
""",
    "chains": """\
[PASS] chain shell-l1 verifies (residual 0.000e+00)
[PASS] chain shell-l2 verifies (residual 0.000e+00)
[PASS] chain origin verifies (residual 0.000e+00)
[PASS] chain_scan finds 3 families (expect 3) (residual 0.000e+00)
[PASS] l=1 family action = 5pi/6 (residual 7.854e-07)
[PASS] one free Z_3 family at the l=1 action (residual 0.000e+00)
suite chains: 6/6 checks passed
""",
    "generation": """\
[PASS] fibre-critical embedding matches the graph (100 samples) \
(residual 4.441e-16)
suite generation: 1/1 checks passed
""",
    "invariance": """\
[PASS] sharp cyclic invariance (1000 pts) (residual 8.882e-16)
[PASS] P cyclic invariance (residual 1.776e-15)
[PASS] P scale invariance (a=0.7) (residual 2.665e-15)
[PASS] P integer theta-shift invariance (residual 1.776e-15)
suite invariance: 4/4 checks passed
""",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_STDOUT))
def test_verify_output_is_pinned(capsys, suite):
    assert main(["verify", "--suite", suite, "--seed", "0"]) == 0
    assert capsys.readouterr().out == VERIFY_STDOUT[suite]


def test_generation_suite_fails_a_nan_covector(capsys, monkeypatch):
    # max(0.0, nan) is 0.0: a worst error kept by max would pass this
    real = gfs.cli.graph_of

    def nan_covector(mp, p):
        gp = real(mp, p)
        gp.covector = gp.covector * math.nan
        return gp

    monkeypatch.setattr(gfs.cli, "graph_of", nan_covector)
    assert main(["verify", "--suite", "generation"]) == 1
    assert capsys.readouterr().out == (
        "[FAIL] fibre-critical embedding matches the graph (100 samples) "
        "(residual nan)\nsuite generation: 0/1 checks passed\n")


def test_chains_suite_fails_a_chain_that_does_not_verify(capsys, monkeypatch):
    # an exact check reports its count of violations against the gate 1
    monkeypatch.setattr(gfs.cli, "verify_chain", lambda lift, chain: False)
    assert main(["verify", "--suite", "chains"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[FAIL] chain shell-l1 verifies (residual 1.000e+00)"
    assert lines[-1] == "suite chains: 3/6 checks passed"


def test_index_suite_fails_a_maslov_number_off_by_two(capsys, monkeypatch):
    real = gfs.cli.newton_critical

    def off_by_two(G, seed):
        m = real(G, seed)
        m.maslov += 2
        return m

    monkeypatch.setattr(gfs.cli, "newton_critical", off_by_two)
    assert main(["verify", "--suite", "index"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9 and lines[-1] == "suite index: 0/8 checks passed"
    for line in lines[:-1]:
        assert line.startswith("[FAIL] index ")
        assert float(line.split(" (residual ")[1][:-1]) >= 2


def test_invariance_suite_fails_a_nan_value_of_p(capsys, monkeypatch):
    real = gfs.GenFn.value

    def value(G, w):
        return math.nan if G.meta.get("kind") == "contactP" else real(G, w)

    monkeypatch.setattr(gfs.GenFn, "value", value)
    assert main(["verify", "--suite", "invariance"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[PASS] sharp cyclic invariance")
    assert [x.split(" (residual ")[1] for x in lines[1:4]] == ["nan)"] * 3
    assert all(x.startswith("[FAIL] P ") for x in lines[1:4])
    assert lines[4] == "suite invariance: 1/4 checks passed"


# The certificate JSON of three --evidence queries, as `gfs nonsqueeze` prints
# it: two prime fractions, the second with l*A2 = k, so that the threshold
# a = k sits on the small ball's bar endpoint (inclusion ranks [1, 0]), and a
# conjugated certificate with ambient room.
NONSQUEEZE_STDOUT = {
    ("--A1", "1.3", "--A2", "1.25"): """\
{
  "schema": "gfs/1",
  "kind": "primeFraction",
  "k": 5,
  "l": 4,
  "areas": {
    "A1": 1.3,
    "A2": 1.25
  },
  "evidence": {
    "degree": 8,
    "a": 5.0,
    "ranks": [
      1,
      1,
      0
    ],
    "inclusion_ranks": [
      1,
      0
    ],
    "prequantized": {
      "degrees": [
        8,
        9
      ],
      "ranks": [
        1,
        1
      ]
    }
  }
}
""",
    ("--A1", "1.5", "--A2", "1.2"): """\
{
  "schema": "gfs/1",
  "kind": "primeFraction",
  "k": 5,
  "l": 4,
  "areas": {
    "A1": 1.5,
    "A2": 1.2
  },
  "evidence": {
    "degree": 8,
    "a": 5.0,
    "ranks": [
      1,
      1,
      0
    ],
    "inclusion_ranks": [
      1,
      0
    ],
    "prequantized": {
      "degrees": [
        8,
        9
      ],
      "ranks": [
        1,
        1
      ]
    }
  }
}
""",
    ("--A1", "0.45", "--A2", "0.40", "--A3", "0.5"): """\
{
  "schema": "gfs/1",
  "kind": "conjugated",
  "k": 3,
  "l": 7,
  "m": 2,
  "inner": {
    "kind": "integerK",
    "K": 3,
    "areas": {
      "A1": 4.500000000000001,
      "A2": 2.0000000000000004
    }
  },
  "areas": {
    "A1": 0.45,
    "A2": 0.4,
    "A3": 0.5
  },
  "evidence": {
    "degree": 2,
    "a": 3.0,
    "ranks": [
      1,
      1,
      0
    ],
    "inclusion_ranks": [
      1,
      0
    ],
    "prequantized": {
      "degrees": [
        2,
        3
      ],
      "ranks": [
        1,
        1
      ]
    }
  }
}
""",
}


@pytest.mark.parametrize("query", sorted(NONSQUEEZE_STDOUT))
def test_nonsqueeze_evidence_output_is_pinned(capsys, query):
    assert main(["nonsqueeze", *query, "--evidence"]) == 0
    assert capsys.readouterr().out == NONSQUEEZE_STDOUT[query]


# sha256 of the bytes of barcode.json followed by those of barcode.tsv.
BARCODE_SHA256 = {
    ("--k", "1", "--profile", "REF:-1000pi,0.1"):
        "d8f504d692b37a1aaf279316e3d8f27a5a944b307508e662183d72469dff28ca",
    ("--k", "3"):
        "fa24367125909700fcf91411cc524506cf451a2d756a0a3c50ad6b274a125bd7",
    ("--k", "5", "--mode", "plain"):
        "b206ab71ed398acd47201de224a20a9b3bafd0557be6a3957d08ba0bf551f5b0",
}


@pytest.mark.parametrize("flags", sorted(BARCODE_SHA256))
def test_barcode_files_are_pinned(tmp_path, capsys, flags):
    assert main(["barcode", *flags, "--out", str(tmp_path)]) == 0
    data = b"".join((tmp_path / name).read_bytes()
                    for name in ("barcode.json", "barcode.tsv"))
    assert hashlib.sha256(data).hexdigest() == BARCODE_SHA256[flags]


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


def test_nonsqueeze_out_onto_a_file_prints_no_certificate(tmp_path, capsys):
    # certificate.json is written before stdout: a failed --out prints none
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["nonsqueeze", "--A1", "1.5", "--A2", "1.2",
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("error:")
    assert out.read_text() == ""


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


# each command's --help with COLUMNS=80: argparse wraps to the terminal width
HELP = {
    "barcode": """\
usage: gfs barcode [-h] [--n N] [--R R] [--k K] [--profile PROFILE]
                   [--mode MODE] [--limit] [--lmax LMAX] [--out OUT]
                   [--config CONFIG]

options:
  -h, --help         show this help message and exit
  --n N              half the real dimension of the ball B^2n(R)
  --R R              radius of the ball
  --k K              1 or an odd prime (required)
  --profile PROFILE  REF:c,delta (scalars may end in 'pi') or a JSON profile
                     file
  --mode MODE        equivariant or plain
  --limit            emit the idealized steep-profile limit barcode
  --lmax LMAX        number of shells in the plain limit barcode
  --out OUT          directory for barcode.json and barcode.tsv
  --config CONFIG    key=value file of option values
""",
    "verify": """\
usage: gfs verify [-h] [--suite SUITE] [--seed SEED] [--config CONFIG]

options:
  -h, --help       show this help message and exit
  --suite SUITE    one of: algebra, chains, generation, index, invariance,
                   values (required)
  --seed SEED      seed of the random suites, at least 0
  --config CONFIG  key=value file of option values
""",
    "nonsqueeze": """\
usage: gfs nonsqueeze [-h] [--A1 A1] [--A2 A2] [--A3 A3]
                      [--max-prime MAX_PRIME] [--evidence] [--n N] [--out OUT]
                      [--config CONFIG]

options:
  -h, --help            show this help message and exit
  --A1 A1               area pi R1^2 of the ball to squeeze (required)
  --A2 A2               area pi R2^2 of the target ball (required)
  --A3 A3               area of the ambient room, above A1
  --max-prime MAX_PRIME
                        largest odd prime k the search tries
  --evidence            add the limit-barcode ranks behind the certificate
  --n N                 half the real dimension of the evidence balls
  --out OUT             also write certificate.json to this directory
  --config CONFIG       key=value file of option values
""",
}


def test_help_and_no_command(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    assert "barcode" in capsys.readouterr().out


# `gfs` itself with COLUMNS=80: its help, usage line and errors
PROGRAM_USAGE = "usage: gfs [-h] [--version] {barcode,verify,nonsqueeze} ...\n"
PROGRAM_HELP = PROGRAM_USAGE + """
Generating-function homology toolkit: barcodes, verification suites, and non-
squeezing certificates.

positional arguments:
  {barcode,verify,nonsqueeze}
    barcode             emit barcode JSON and TSV step plot
    verify              run a verification suite
    nonsqueeze          search for a non-squeezing obstruction certificate

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""


def _command_error(command, error):
    """stderr of a flag error after `command`: its usage, then its name."""
    return "%s\ngfs %s: error: %s\n" % (HELP[command].split("\n\n")[0],
                                        command, error)


PROGRAM_SURFACE = {
    (): (2, PROGRAM_HELP, ""),
    ("--help",): (0, PROGRAM_HELP, ""),
    ("--version",): (0, gfs.__version__ + "\n", ""),
    ("bogus",): (2, "", PROGRAM_USAGE + "gfs: error: argument command: "
                 "invalid choice: 'bogus' (choose from 'barcode', 'verify', "
                 "'nonsqueeze')\n"),
    ("barcode", "--k", "3", "--bogus"): (2, "", _command_error(
        "barcode", "unrecognized arguments: --bogus")),
    ("verify", "--suite", "algebra", "extra"): (2, "", _command_error(
        "verify", "unrecognized arguments: extra")),
    ("nonsqueeze", "--A1", "1.5", "--A2", "1.2", "--bogus", "1"): (
        2, "", _command_error("nonsqueeze",
                              "unrecognized arguments: --bogus 1")),
    ("nonsqueeze", "--A1", "x"): (2, "", _command_error(
        "nonsqueeze", "argument --A1: invalid float value: 'x'")),
}


@pytest.mark.parametrize("argv", sorted(PROGRAM_SURFACE),
                         ids=lambda argv: " ".join(argv) or "no-arguments")
def test_program_surface_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == PROGRAM_SURFACE[argv]


def test_a_command_builds_only_its_own_parser(tmp_path, capsys, monkeypatch):
    def refuse():
        raise AssertionError("a named command built the program parser")

    monkeypatch.setattr(gfs.cli, "build_parser", refuse)
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["barcode", "--k", "3", "--limit", "--out",
                 str(tmp_path)]) == 0
    assert capsys.readouterr().out == "wrote %s (2 bars over F_3) and %s\n" % (
        tmp_path / "barcode.json", tmp_path / "barcode.tsv")
    data = b"".join((tmp_path / name).read_bytes()
                    for name in ("barcode.json", "barcode.tsv"))
    assert hashlib.sha256(data).hexdigest() == \
        "959e842e855e166920579347d340729c0a68604a85e3febbf932d7d2ae4d3752"
    assert main(["verify", "--suite", "algebra"]) == 0
    assert capsys.readouterr().out == VERIFY_STDOUT["algebra"]
    assert main(["nonsqueeze", "--A1", "1.5", "--A2", "1.2"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "schema": "gfs/1",\n  "kind": "primeFraction",\n  "k": 5,\n'
        '  "l": 4,\n  "areas": {\n    "A1": 1.5,\n    "A2": 1.2\n  }\n}\n')
    for command in COMMANDS:
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out == HELP[command]


def test_a_command_reads_the_terminal_width_once(capsys, monkeypatch):
    # argparse's HelpFormatter reads it on each add_argument unless it is
    # given a width: 9 reads per nonsqueeze call
    reads = []
    real = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size",
                        lambda *a: reads.append(a) or real(*a))
    assert main(["nonsqueeze", "--A1", "1.5", "--A2", "1.2",
                 "--evidence"]) == 0
    capsys.readouterr()
    assert len(reads) == 1


def _default_parser(command):
    """The command's parser as argparse builds it with the default
    HelpFormatter, which reads the terminal width itself."""
    parser = argparse.ArgumentParser(prog="gfs " + command)
    _add_options(parser, COMMANDS[command][1])
    return parser


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_wraps_as_the_default_formatter_does(capsys, monkeypatch,
                                                  command, columns):
    monkeypatch.setenv("COLUMNS", columns)
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out == _default_parser(command).format_help()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_usage_error_wraps_as_the_default_formatter_does(capsys,
                                                           monkeypatch,
                                                           command):
    monkeypatch.setenv("COLUMNS", "40")
    assert main([command, "--bogus"]) == 2
    err = capsys.readouterr().err
    with pytest.raises(SystemExit):
        _default_parser(command).parse_args(["--bogus"])
    assert capsys.readouterr().err == err
    assert err.index("unrecognized arguments") > err.index("\n  ")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_names_every_option(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    _, table, _ = COMMANDS[command]
    for flag in ["--" + name.replace("_", "-") for name in table] + ["--config"]:
        assert flag in out, flag
    assert out == HELP[command]


def _barcode_json(tmp_path, name, *flags):
    out = tmp_path / name
    assert main(["barcode", "--out", str(out)] + list(flags)) == 0
    return (out / "barcode.json").read_bytes()


def _assert_k_is_required(tmp_path, capsys):
    capsys.readouterr()
    assert main(["barcode", "--limit", "--out", str(tmp_path / "nok")]) == 2
    assert "--k is required" in capsys.readouterr().err


def test_a_flag_does_not_outlive_its_call(tmp_path, capsys):
    # main() builds its state per call: a later call sees none of the flags
    # of an earlier one
    first = _barcode_json(tmp_path, "first", "--k", "3", "--limit")
    other = _barcode_json(tmp_path, "other", "--k", "5", "--limit",
                          "--mode", "plain", "--lmax", "2")
    assert other != first
    assert _barcode_json(tmp_path, "again", "--k", "3", "--limit") == first
    _assert_k_is_required(tmp_path, capsys)


def test_a_config_value_does_not_outlive_its_call(tmp_path, capsys):
    conf = tmp_path / "gfs.conf"
    conf.write_text("k=7\nmode=plain\nlmax=2\nlimit=yes\n")
    limit = _barcode_json(tmp_path, "limit", "--k", "3", "--limit")
    finite = _barcode_json(tmp_path, "finite", "--k", "3")
    obj = json.loads(_barcode_json(tmp_path, "conf", "--config", str(conf)))
    assert obj["field"] == 7 and len(obj["bars"]) == 2
    assert _barcode_json(tmp_path, "limit2", "--k", "3", "--limit") == limit
    assert _barcode_json(tmp_path, "finite2", "--k", "3") == finite
    _assert_k_is_required(tmp_path, capsys)
