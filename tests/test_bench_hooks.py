"""The benchmark's span tracer hooks into gfs by name: every function and
method it wraps must exist on the live package, and removing the tracer must
put every original back.  The benchmark's own output checks must pass on the
live package, so a wrong output shows here before a benchmark run."""

import importlib.util
import math
import os

import numpy as np
import pytest

import gfs

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "gfs_bench_" + name, os.path.join(BENCH_DIR, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def _current(owner, key):
    if isinstance(owner, type):
        return owner.__dict__[key]
    return getattr(owner, key)


def test_hooks_install_and_restore(spans):
    tracer = spans.Tracer()
    inst = spans.Instrumentation(gfs, tracer)
    try:
        inst.install()       # raises if a hooked name is missing
        patches = list(inst.patches)
        assert patches
        for owner, key, original in patches:
            assert _current(owner, key) is not original, key
        # a traced call still computes and lands in its span
        amb = gfs.Ambient(n=1, R=1.0)
        rho = gfs.ref_profile(-0.9 * math.pi, 0.1)
        small = gfs.gf_small_map(amb, gfs.RadialMap(amb, rho, 0.2))
        assert math.isfinite(small.value(np.array([0.3, -0.2])))
        assert tracer.layer_calls("genfun.small_map.value") == 1
        assert tracer.layer_calls("sympl.profile") >= 1
    finally:
        inst.remove()
    hooked = {(owner, key) for owner, key, _ in patches}
    for op in ("value", "grad", "hess"):
        assert (gfs.GenFn, op) in hooked
    for owner, key, original in patches:
        assert _current(owner, key) is original, key


@pytest.mark.parametrize("name, count", [("barcode_family", None),
                                         ("newton_scan", 20),
                                         ("symmetry_sweep", 20),
                                         ("certificate_grid", 20)])
def test_bench_checks_pass(workloads, name, count):
    """Seed 7: every barcode_family task, the first 20 of each other one."""
    workload = workloads.WORKLOADS[name]
    ctx = workload.build(gfs)
    for task in workload.generate(7, ctx)[:count]:
        problems, _ = workload.check(ctx, task, workload.run(ctx, task))
        assert problems == [], (name, task)
