"""gfs benchmark: run one seeded workload and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload newton_scan --seed 1 --seconds 20 --trace 0

The workload runs in this process as a closed loop with one caller.  The
seeded task list is run in passes until `--seconds` of measurement are used
(at least MIN_PASSES passes); `wall_s` is the median over passes of the time
spent inside tasks, and the task percentiles pool every pass.  Set-up is
timed in fresh interpreters (`setup_probe.py`).  Times are rescaled to the
nominal host speed by a reference kernel run between tasks (`hostspeed.py`);
raw times are printed beside them.  Outputs are checked outside the timed
region.  `--trace 1` adds one traced pass and prints the per-layer metrics
instead of the end-to-end ones.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A record of
the run is written to bench/results/.
"""

import os

# One BLAS/OpenMP thread: every matrix here is small, and the benchmark
# measures one single-threaded caller.  Set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
import hostspeed  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
# Reference samples taken before and after each set-up probe.
PROBE_REFS = 8
# Passes of an end-to-end run; every task output is compared across them.
MIN_PASSES = 2
# Task samples of an end-to-end run, so that ten lie beyond the 90th
# percentile.
MIN_SAMPLES = 100
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "task_p50_ms": "ms",
                    "task_p90_ms": "ms", "peak_rss_mb": "MB"}
SETUP_UNITS = {"setup.import_s": "s", "setup.import_scipy_s": "s",
               "setup.build_s": "s"}
BASELINE_UNITS = dict(
    [("baseline.%s.%s_ms" % (f, op), "ms")
     for f in ("F", "F3", "P3") for op in ("value", "grad", "hess")]
    + [("baseline.drho_us", "us"), ("baseline.radial_map_us", "us"),
       ("baseline.jacobian_us", "us")])


def per_layer_units():
    units = dict(SETUP_UNITS)
    units.update(spans.metric_units())
    units.update({"trace_overhead_ratio": "ratio",
                  "check.max_residual": "abs"})
    units.update(BASELINE_UNITS)
    return units


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_commit(root):
    """HEAD commit read from .git without running git (None outside a
    repository)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(root):
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "gfs")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        return None


def environment(root):
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "processes": 1,
    }


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------

def setup_probes(root, workload, speed):
    """Median import and build seconds over fresh interpreters, rescaled to
    the nominal host speed by reference samples taken around each probe."""
    runs = []
    for _ in range(SETUP_PROBES):
        refs = [speed.sample() for _ in range(PROBE_REFS)]
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
             workload],
            cwd=root, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        refs += [speed.sample() for _ in range(PROBE_REFS)]
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        f = hostspeed.factor(refs)
        runs.append({key: f * value for key, value in raw.items()})
        runs[-1]["raw_s"] = raw["import_s"] + raw["build_s"]
    return {
        "setup_s": statistics.median(r["import_s"] + r["build_s"]
                                     for r in runs),
        "setup.import_s": statistics.median(r["import_s"] for r in runs),
        "setup.build_s": statistics.median(r["build_s"] for r in runs),
        "raw_setup_s": statistics.median(r["raw_s"] for r in runs),
    }


def import_breakdown(root):
    """(seconds importing gfs, seconds of that spent importing scipy) from
    `python -X importtime`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import sys; sys.path.insert(0, 'src'); import gfs"],
        cwd=root, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("import probe failed:\n" + proc.stderr)
    rows = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue            # the header line
        name = parts[2]
        rows.append((len(name) - len(name.lstrip()), name.strip(), cumulative))

    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    gfs_us = scipy_us = 0
    for i, (indent, name, cumulative) in enumerate(rows):
        if name == "gfs":
            gfs_us = cumulative
        if is_scipy(name):
            # importtime lists children before their parent: the parent is
            # the next row with a smaller indent
            parent = next((r for r in rows[i + 1:] if r[0] < indent), None)
            if parent is None or not is_scipy(parent[1]):
                scipy_us += cumulative
    return gfs_us * 1e-6, scipy_us * 1e-6


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_pass(workload, ctx, tasks, tracer=None, speed=None):
    """Run every task once; returns (wall seconds, task seconds, outputs,
    {task index: error text}, task rescaling factors or None).  Reference
    samples are taken between tasks, never inside a task's timer."""
    times, mids, outputs, errors, refs = [], [], [], {}, []
    start = time.perf_counter()
    if speed is not None:
        refs.append(speed.sample())
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task_id = i
        t0 = time.perf_counter()
        try:
            out = workload.run(ctx, task)
        except Exception:  # one failed task must not stop the benchmark
            out = None
            errors[i] = traceback.format_exc(limit=4)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        mids.append(0.5 * (t0 + t1))
        outputs.append(out)
        if speed is not None:
            speed.after_task(times[-1], refs)
    wall = time.perf_counter() - start
    if speed is not None:
        refs.append(speed.sample())
        factors = hostspeed.task_factors(mids, refs)
    else:
        factors = None
    return wall, times, outputs, errors, factors


class Ledger:
    """Failure and output bookkeeping across passes.

    The first pass's outputs are checked; every later pass must reproduce
    each task's output digest byte for byte."""

    def __init__(self, workload, ctx, tasks):
        self.workload = workload
        self.ctx = ctx
        self.tasks = tasks
        self.digests = None
        self.bad = {}            # task index -> reason its output is wrong
        self.residuals = []
        self.attempted = 0
        self.failed = 0

    def check_first(self, outputs, errors):
        self.digests = []
        for i, (task, out) in enumerate(zip(self.tasks, outputs)):
            if i in errors:
                self.bad[i] = errors[i]
                self.digests.append(None)
                continue
            try:
                problems, residual = self.workload.check(self.ctx, task, out)
            except Exception:  # a check that crashes counts as failed
                problems, residual = [traceback.format_exc(limit=4)], None
            if problems:
                self.bad[i] = "; ".join(problems)
            if residual is not None:
                self.residuals.append(residual)
            self.digests.append(hashlib.sha256(
                self.workload.digest(out)).hexdigest())

    def record(self, outputs, errors):
        """Count one pass's executions; returns nothing."""
        for i, out in enumerate(outputs):
            self.attempted += 1
            if i in errors or i in self.bad:
                self.failed += 1
                continue
            digest = hashlib.sha256(self.workload.digest(out)).hexdigest()
            if digest != self.digests[i]:
                self.failed += 1
                self.bad.setdefault(i, "output differs between passes")

    def outputs_sha256(self):
        h = hashlib.sha256()
        for d in self.digests:
            h.update((d or "error").encode())
        return h.hexdigest()


def measure(workload, ctx, tasks, ledger, speed, budget_s, min_passes):
    """Untraced passes until the next one would overrun `budget_s` (at
    least `min_passes`); returns (pass walls, per-pass task seconds,
    per-pass task rescaling factors)."""
    walls, samples, factors, elapsed = [], [], [], 0.0
    while True:
        wall, times, outputs, errors, pass_factors = run_pass(
            workload, ctx, tasks, speed=speed)
        if ledger.digests is None:
            ledger.check_first(outputs, errors)
        ledger.record(outputs, errors)
        del outputs
        walls.append(wall)
        samples.append(times)
        factors.append(pass_factors)
        elapsed += wall
        if len(walls) >= min_passes and \
                elapsed + statistics.median(walls) > budget_s:
            return walls, samples, factors


def task_digest(tasks):
    def plain(x):
        if isinstance(x, np.ndarray):
            return [repr(float(v)) for v in x]
        if isinstance(x, float):
            return repr(x)
        if isinstance(x, dict):
            return {key: plain(v) for key, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        return x
    return hashlib.sha256(
        json.dumps(plain(tasks), sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _median_seconds(fn, reps, inner=1):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return statistics.median(times)


def baseline_table(gfs, seed):
    """Per-call times of the ROADMAP baseline table: F (time-one map),
    F^{#3} and P3 value/grad/hess at a seeded point, scalar rho', the radial
    map and its Jacobian."""
    amb = gfs.sympl.Ambient(n=1)
    rho = gfs.sympl.ref_profile(-0.9 * math.pi, 0.1)
    F = gfs.genfun.gf_time_one(amb, rho)
    fns = {"F": F, "F3": gfs.genfun.sharp_k(F, 3),
           "P3": gfs.genfun.contact_p(gfs.genfun.contact_lift_gf(F), 3)}
    rng = np.random.default_rng(seed)
    out = {}
    for label, G in fns.items():
        w = rng.normal(0.0, 0.5, G.total_dim)
        for op in ("value", "grad", "hess"):
            fn = getattr(G, op)
            out["baseline.%s.%s_ms" % (label, op)] = 1e3 * _median_seconds(
                lambda: fn(w), reps=5)
    phi = gfs.sympl.RadialMap(amb, rho, 1.0)
    z = rng.normal(0.0, 0.5, 2)
    out["baseline.drho_us"] = 1e6 * _median_seconds(
        lambda: rho.drho(0.3), reps=5, inner=200)
    out["baseline.radial_map_us"] = 1e6 * _median_seconds(
        lambda: phi(z), reps=5, inner=200)
    out["baseline.jacobian_us"] = 1e6 * _median_seconds(
        lambda: phi.jacobian(z), reps=5, inner=200)
    return out


def traced_pass(gfs, workload, ctx, tasks, ledger, speed):
    """One pass with every gfs public function traced; returns the tracer,
    the raw seconds spent inside tasks and the same rescaled to the nominal
    host speed.  The reference kernel calls no gfs function, so it adds no
    span."""
    tracer = spans.Tracer()
    inst = spans.Instrumentation(gfs, tracer)
    inst.install()
    try:
        _, times, outputs, errors, factors = run_pass(workload, ctx, tasks,
                                                      tracer, speed)
    finally:
        inst.remove()
    ledger.record(outputs, errors)
    return tracer, sum(times), sum(f * t for f, t in zip(factors, times))


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 \
        else values[0]


def _fmt(value):
    if isinstance(value, int):
        return str(value)
    return "%.6g" % value


def emit(lines, name, value, unit, note=""):
    lines.append("%-34s %14s %-6s %s" % (name, _fmt(value), unit, note))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tasks", type=int, default=None,
                        help="run only the first N tasks (for the self-test)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gfs", "__init__.py")):
        print("error: run from the gfs repository root (src/gfs not found "
              "in %s)" % root, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    workload = workloads.WORKLOADS[args.workload]
    # One CPU for this process and its set-up probes, so that the reference
    # samples time the same CPU as the work they rescale.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    env = environment(root)
    env["pinned_cpu"] = cpu
    speed = hostspeed.HostSpeed()
    setup = setup_probes(root, args.workload, speed)

    import gfs
    ctx = workload.build(gfs)
    tasks = workload.generate(args.seed, ctx)
    if args.tasks is not None:
        tasks = tasks[:args.tasks]
    ledger = Ledger(workload, ctx, tasks)

    lines = ["# gfs benchmark  workload=%s seed=%d seconds=%g trace=%d"
             % (args.workload, args.seed, args.seconds, args.trace),
             "env %s" % json.dumps(env, sort_keys=True),
             "tasks %d per pass  task_sha256 %s"
             % (len(tasks), task_digest(tasks))]

    budget = args.seconds / 2 if args.trace else args.seconds
    min_passes = 1 if args.trace else max(MIN_PASSES,
                                          -(-MIN_SAMPLES // len(tasks)))
    walls, samples, factors = measure(workload, ctx, tasks, ledger, speed,
                                      budget, min_passes)
    # Task times rescaled to the nominal host speed (hostspeed.py).
    scaled = [[f * t for f, t in zip(fs, times)]
              for fs, times in zip(factors, samples)]
    task_ms = [1e3 * t for times in scaled for t in times]
    raw_ms = [1e3 * t for times in samples for t in times]
    e2e = {
        "setup_s": setup["setup_s"],
        "wall_s": statistics.median(sum(times) for times in scaled),
        "task_p50_ms": statistics.median(task_ms),
        "task_p90_ms": _p90(task_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    raw = {"setup_s": setup["raw_setup_s"],
           "wall_s": statistics.median(sum(times) for times in samples),
           "task_p50_ms": statistics.median(raw_ms),
           "task_p90_ms": _p90(raw_ms)}
    max_residual = max(ledger.residuals) if ledger.residuals else None

    layer = None
    accounting = None
    predictions = None
    if args.trace:
        baseline = baseline_table(gfs, args.seed)
        import_s, scipy_s = import_breakdown(root)
        tracer, traced_wall, traced_scaled = traced_pass(
            gfs, workload, ctx, tasks, ledger, speed)
        layer, accounting = tracer.layer_metrics(traced_wall)
        layer.update({"setup.import_s": import_s,
                      "setup.import_scipy_s": scipy_s,
                      "setup.build_s": setup["setup.build_s"],
                      "trace_overhead_ratio":
                          traced_scaled / e2e["wall_s"],
                      "check.max_residual": max_residual or 0.0})
        layer.update(baseline)
        predictions = {prefix: tracer.layer_calls(prefix)
                       for prefix in workload.zero_calls}
        os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
        tracer.save(os.path.join(BENCH_DIR, "results", "spans_%s_seed%d.npz"
                                 % (args.workload, args.seed)))

    fail_ratio = ledger.failed / ledger.attempted
    lines.append("# times at the nominal host speed; raw seconds in brackets "
                  "(host speed factor %.3f, median over tasks)"
                  % statistics.median(f for fs in factors for f in fs))
    emit(lines, "setup_s", e2e["setup_s"], "s",
         "median of %d fresh interpreters (import %.3f s, build %.3f s) "
         "[raw %.4f]" % (SETUP_PROBES, setup["setup.import_s"],
                         setup["setup.build_s"], raw["setup_s"]))
    emit(lines, "wall_s", e2e["wall_s"], "s",
         "median of %d passes of %d tasks [raw %.4f]"
         % (len(walls), len(tasks), raw["wall_s"]))
    emit(lines, "task_p50_ms", e2e["task_p50_ms"], "ms",
         "%d samples [raw %.4f]" % (len(task_ms), raw["task_p50_ms"]))
    emit(lines, "task_p90_ms", e2e["task_p90_ms"], "ms",
         "%d samples [raw %.4f]" % (len(task_ms), raw["task_p90_ms"]))
    emit(lines, "fail_ratio", fail_ratio, "ratio",
         "%d of %d attempted" % (ledger.failed, ledger.attempted))
    emit(lines, "peak_rss_mb", e2e["peak_rss_mb"], "MB")
    if max_residual is not None:
        emit(lines, "max_residual", max_residual, "abs",
             "worst over %d checked tasks" % len(ledger.residuals))
    lines.append("outputs_sha256 %s" % ledger.outputs_sha256())
    for i in sorted(ledger.bad)[:5]:
        lines.append("FAILED task %d: %s" % (i, ledger.bad[i].strip()))

    correct = ledger.failed == 0
    if args.trace:
        units = per_layer_units()
        lines.append("# per-layer metrics of one traced pass "
                     "(raw seconds; %.4f s inside tasks)" % traced_wall)
        for name, unit in units.items():
            emit(lines, name, layer[name], unit)
        gap = abs(accounting["self_sum_s"] - accounting["root_s"])
        balanced = gap <= 1e-6 * max(1.0, accounting["root_s"])
        correct = correct and balanced
        lines.append("accounting: layer self times %.4f s + bench self %.4f s "
                     "= traced task time %.4f s (span self-time gap %.2e s)"
                     % (accounting["self_sum_s"], accounting["bench_self_s"],
                        accounting["wall_s"], gap))
        for prefix, calls in predictions.items():
            lines.append("prediction: zero %s calls on %s: %s (%d calls)"
                         % (prefix, args.workload,
                            "holds" if calls == 0 else "VIOLATED", calls))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    result = {"correct": correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
    record = {"schema": "gfs-bench/1", "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "tasks": len(tasks),
              "task_sha256": task_digest(tasks),
              "outputs_sha256": ledger.outputs_sha256(), "pass_walls_s": walls,
              "pass_task_s": samples, "pass_task_factor": factors,
              "raw_end_to_end": raw,
              "fail_ratio": fail_ratio, "max_residual": max_residual,
              "end_to_end": e2e, "per_layer": layer, "accounting": accounting,
              "predictions": predictions, "failures": ledger.bad,
              "result": result}
    path = os.path.join(BENCH_DIR, "results", "BENCH_%s_seed%d_trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
