"""Tiny-size self-test of the gfs benchmark.

Run from the repository root, either directly or under pytest:

    python3 bench/selftest.py
    python3 -m pytest -q bench/selftest.py

It runs every workload on three tasks with tracing off and on, checks that
every metric named in BENCHMARK.json is printed with its unit and that no
task failed, feeds deliberately corrupted outputs through the checks, and
checks that the benchmark refuses to run without the gfs sources.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
TIMEOUT_S = 170

sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--tasks", "3"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    return proc


def _check_printed(proc, names_units):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == set(names_units)
    for name, unit in names_units.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, name
        assert isinstance(metric["value"], (int, float)), name
        printed = [ln.split() for ln in lines[:-1] if ln.split()[:1] == [name]]
        assert printed and printed[0][2] == unit, "%s not printed" % name
    fail = [ln.split() for ln in lines if ln.startswith("fail_ratio ")]
    assert fail and float(fail[0][1]) == 0.0 and fail[0][2] == "ratio"
    return lines


def test_end_to_end_metrics_printed():
    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert units == run.END_TO_END_UNITS
    for wl in spec["workloads"]:
        _check_printed(_run(wl["name"], 0), units)


def test_per_layer_metrics_printed_and_predictions_hold():
    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert units == run.per_layer_units()
    for wl in spec["workloads"]:
        lines = _check_printed(_run(wl["name"], 1), units)
        predictions = [ln for ln in lines if ln.startswith("prediction:")]
        assert len(predictions) == len(
            workloads.WORKLOADS[wl["name"]].zero_calls)
        assert all(ln.split(": ")[2].startswith("holds")
                   for ln in predictions), predictions


def _corrupt_fails(workload, corrupt):
    """Run one real task, corrupt its output, and check that the ledger
    counts it as failed while the intact output passes."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gfs
    wl = workloads.WORKLOADS[workload]
    ctx = wl.build(gfs)
    task = wl.generate(7, ctx)[0]
    out = wl.run(ctx, task)
    good = run.Ledger(wl, ctx, [task])
    good.check_first([out], {})
    good.record([out], {})
    assert good.failed == 0, good.bad
    bad = run.Ledger(wl, ctx, [task])
    broken = corrupt(out)
    bad.check_first([broken], {})
    bad.record([broken], {})
    assert bad.failed == 1 and 0 in bad.bad


def test_corrupted_barcode_counts_as_failed():
    def corrupt(out):
        obj = json.loads(out["json"])
        obj["bars"][0]["rank"] += 1
        return dict(out, json=json.dumps(obj, indent=2) + "\n")
    _corrupt_fails("barcode_family", corrupt)


def test_corrupted_certificate_counts_as_failed():
    def corrupt(out):
        obj = json.loads(out["text"])
        obj["kind"] = "none"
        return dict(out, text=json.dumps(obj, indent=2) + "\n")
    _corrupt_fails("certificate_grid", corrupt)


def test_refuses_to_run_without_sources():
    bare = os.path.join(BENCH_DIR, "results", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(BENCH_DIR):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(BENCH_DIR, name),
                        os.path.join(bare, "bench"))
    try:
        proc = _run("symmetry_sweep", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print("ok", name)
    print("%d self-tests passed" % len(tests))
