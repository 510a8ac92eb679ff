"""The four seeded workloads of the gfs benchmark.

Each workload is a closed loop with one caller: the benchmark runs one task,
waits for it to return, then runs the next.  A workload provides

* `build(gfs)`        -- the fixed gfs objects its tasks share (set-up);
* `generate(seed, ctx)` -- the seeded task list (the benchmark's own inputs);
* `run(ctx, task)`    -- one task: calls into gfs only, returns its outputs;
* `check(ctx, task, out)` -- (problems, residual) for one task's outputs;
* `digest(out)`       -- the deterministic output bytes of one task.

Task lists are stratified: every seed draws the same multiset of task
templates (kinds and sizes) and varies the continuous inputs inside each
template, so two seeds give different inputs but nearly the same amount of
work.  This module must not import gfs at module level: the set-up probe
times `import gfs` itself.
"""

import contextlib
import importlib
import io
import json
import math

import numpy as np

PI = math.pi


def _unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _off_endpoints(a, endpoints, gap=1e-9):
    """Move threshold a to the middle of its gap if it sits on an endpoint."""
    pts = sorted(set(endpoints) | {0.0})
    for i, e in enumerate(pts):
        if abs(a - e) < gap:
            hi = pts[i + 1] if i + 1 < len(pts) else e + 1.0
            return 0.5 * (e + hi)
    return a


# ---------------------------------------------------------------------------
# barcode_family
# ---------------------------------------------------------------------------

class BarcodeFamily:
    """Finite-stage barcodes of seeded REF(c, delta) profiles.

    Three task kinds: (a) k = 1 plain barcodes with many generators, where
    the threshold sweep dominates; (b) odd-prime k equivariant barcodes of
    steep profiles, where `shells` finds hundreds of shells and the window
    keeps a few; (c) large odd-prime k plain barcodes, where circulant
    expansion dominates.  The c ladders fix the shell counts; a seed moves c
    inside one ladder step and delta freely."""

    name = "barcode_family"
    zero_calls = ("genfun", "crit", "squeeze")
    # (n, |c|/pi ladder) for kind (a); generators = 2n * floor(|c|/pi) + 1
    K1_LADDER = ((1, tuple(range(8, 60, 3))), (2, tuple(range(4, 52, 4))))
    # (k, |c|/pi ladder) for kind (b); shells found ~ k * |c| / pi
    EQ_LADDER = ((3, (16, 28, 40, 52)), (5, (12, 22, 32)), (7, (10, 18, 26)))
    PLAIN_K = (11, 13, 17, 19, 23)

    def build(self, gfs):
        return {"gfs": gfs,
                "amb": {n: gfs.sympl.Ambient(n=n) for n in (1, 2)}}

    def generate(self, seed, ctx):
        rng = np.random.default_rng(seed)
        tasks = []

        def add(kind, n, k, mode, c_over_pi):
            tasks.append({"kind": kind, "n": n, "k": k, "mode": mode,
                          "c": -c_over_pi * PI,
                          "delta": float(rng.uniform(0.05, 0.3)),
                          "thresholds": [float(u) for u in
                                         rng.uniform(0.02, 0.98, 2)]})

        for n, ladder in self.K1_LADDER:
            for step in ladder:
                add("k1_plain", n, 1, "plain", step + rng.uniform(0.1, 0.9))
        for k, ladder in self.EQ_LADDER:
            for step in ladder:
                add("steep_equivariant", 1, k, "equivariant",
                    step + rng.uniform(0.1, 0.9))
        for k in self.PLAIN_K:
            add("prime_plain", 1, k, "plain", rng.uniform(1.05, 1.45))
        rng.shuffle(tasks)
        return tasks

    def run(self, ctx, task):
        g = ctx["gfs"]
        rho = g.sympl.ref_profile(task["c"], task["delta"])
        cx = g.equivar.ball_complex(ctx["amb"][task["n"]], rho, task["k"])
        bc = g.equivar.barcode(cx, task["mode"])
        return {"complex": cx, "json": bc.to_json(), "tsv": bc.to_tsv()}

    def check(self, ctx, task, out):
        g = ctx["gfs"]
        problems = []
        bc = g.equivar.Barcode.from_json(out["json"])
        if bc.to_json() != out["json"]:
            problems.append("barcode JSON does not round-trip")
        if bc.to_tsv() != out["tsv"]:
            problems.append("barcode TSV does not match the JSON bars")
        cx = out["complex"]
        values = [gen.value for gen in cx.generators]
        top = max(values) if values else 1.0
        for u in task["thresholds"]:
            a = _off_endpoints(u * top, values)
            alive = [v > a for v in values]
            want = cx.homology_ranks(task["mode"], alive)
            for d in cx.degrees():
                got = bc.rank_at(d, a)
                if got != want.get(d, 0):
                    problems.append(
                        "rank at a=%.6g degree %d: barcode %d, homology %d"
                        % (a, d, got, want.get(d, 0)))
        return problems, None

    def digest(self, out):
        return (out["json"] + out["tsv"]).encode()


# ---------------------------------------------------------------------------
# newton_scan
# ---------------------------------------------------------------------------

class NewtonScan:
    """Critical-point solves on F^{#k} and on the contact composition P.

    Most tasks run `newton_critical` on F^{#k} from a perturbed
    `sharp_critical_seed` at a random point of a shell sphere (l < k); the
    rest run `chain_scan(P, 3, [seed])` from a perturbed `seed_from_chain`.
    The (n, k) and chain multiset is the same for every seed; the seed
    picks the shell l, the point on its sphere and the perturbation."""

    name = "newton_scan"
    zero_calls = ("equivar", "squeeze")
    PROFILE = (-0.9 * PI, 0.1)
    PAIRS = ((1, 3), (1, 5), (2, 3))
    # (n, k) templates, then chain orbit ids, per task list; each F^{#k}
    # task solves on a seeded shell l < k, every l equally often
    SOLVES = ((1, 3),) * 28 + ((1, 5),) * 8 + ((2, 3),) * 10
    # The two shell chains are the slowest tasks; kept under a tenth of the
    # list, the 90th percentile falls inside the k = 5 solves rather than on
    # the edge between two clusters of task costs.
    CHAINS = ("shell-l1", "shell-l2", "origin", "origin")
    # Small enough that every solve takes the same two Newton steps.
    PERTURBATION = 1e-4

    def build(self, gfs):
        rho = gfs.sympl.ref_profile(*self.PROFILE)
        ctx = {"gfs": gfs, "F": {}, "Fk": {}, "shell": {}}
        for n in sorted({n for n, _ in self.PAIRS}):
            amb = gfs.sympl.Ambient(n=n)
            ctx["F"][n] = gfs.genfun.gf_time_one(amb, rho)
        for n, k in self.PAIRS:
            ctx["Fk"][(n, k)] = gfs.genfun.sharp_k(ctx["F"][n], k)
            for s in gfs.sympl.shells(gfs.sympl.Ambient(n=n), rho, k):
                if s.kind == "sphereShell" and s.l < k:
                    ctx["shell"][(n, k, s.l)] = s
        lift = gfs.genfun.contact_lift_gf(ctx["F"][1])
        ctx["P"] = gfs.genfun.contact_p(lift, 3)
        ctx["chains"] = gfs.sympl.translated_chains(gfs.sympl.Ambient(n=1),
                                                    rho, 3)
        ctx["chain"] = {c.orbit_id: c for c in ctx["chains"]}
        return ctx

    def generate(self, seed, ctx):
        rng = np.random.default_rng(seed)
        eps = self.PERTURBATION
        tasks = []
        shells = {pair: list(rng.permutation(np.arange(1, pair[1])))
                  for pair in self.PAIRS}
        for n, k in self.SOLVES:
            l = int(shells[(n, k)].pop())
            if not shells[(n, k)]:
                shells[(n, k)] = list(rng.permutation(np.arange(1, k)))
            dim = ctx["Fk"][(n, k)].total_dim
            tasks.append({"kind": "newton", "n": n, "k": k, "l": l,
                          "direction": _unit(rng, 2 * n),
                          "perturbation": eps * _unit(rng, dim)})
        for orbit in self.CHAINS:
            tasks.append({"kind": "chain", "orbit": orbit, "perturbation":
                          eps * _unit(rng, ctx["P"].total_dim)})
        rng.shuffle(tasks)
        return tasks

    def run(self, ctx, task):
        g = ctx["gfs"]
        if task["kind"] == "newton":
            n, k, l = task["n"], task["k"], task["l"]
            shell = ctx["shell"][(n, k, l)]
            z = math.sqrt(shell.m) * task["direction"]
            seed = g.crit.sharp_critical_seed(ctx["F"][n], k, z)
            found = [g.crit.newton_critical(ctx["Fk"][(n, k)],
                                            seed + task["perturbation"])]
        else:
            chain = ctx["chain"][task["orbit"]]
            seed = g.crit.seed_from_chain(ctx["P"], chain)
            found = g.crit.chain_scan(ctx["P"], 3,
                                      [seed + task["perturbation"]],
                                      chains=ctx["chains"])
        return {"found": found, "csv": g.crit.to_csv(found)}

    def check(self, ctx, task, out):
        found = out["found"]
        if len(found) != 1:
            return ["expected one critical family, got %d" % len(found)], None
        m = found[0]
        problems = []
        if task["kind"] == "newton":
            n, k, l = task["n"], task["k"], task["l"]
            expected = ctx["shell"][(n, k, l)].value
            if m.maslov != 2 * n * l or m.l != l:
                problems.append("maslov %r (l=%r), expected %d (l=%d)"
                                % (m.maslov, m.l, 2 * n * l, l))
            if m.nullity != 2 * n - 1:
                problems.append("nullity %d, expected %d"
                                % (m.nullity, 2 * n - 1))
        else:
            expected = ctx["chain"][task["orbit"]].action
            if m.linked_orbit_id != task["orbit"]:
                problems.append("family linked to %r, seeded from %r"
                                % (m.linked_orbit_id, task["orbit"]))
        defect = abs(m.value - expected)
        if defect > 1e-6:
            problems.append("value %.15g, expected %.15g"
                            % (m.value, expected))
        return problems, max(defect, m.diagnostics["grad_norm"])

    def digest(self, out):
        return out["csv"].encode()


# ---------------------------------------------------------------------------
# symmetry_sweep
# ---------------------------------------------------------------------------

class SymmetrySweep:
    """The invariance suite's computation at seeded random points: values
    only, far from criticality.  Every task costs about the same."""

    name = "symmetry_sweep"
    zero_calls = ("equivar", "squeeze")
    PROFILE = (-0.9 * PI, 0.1)
    TASKS = 60
    SCALE = 0.7
    GATE = 1e-12

    def build(self, gfs):
        amb = gfs.sympl.Ambient(n=1)
        F = gfs.genfun.gf_time_one(amb, gfs.sympl.ref_profile(*self.PROFILE))
        return {"gfs": gfs, "F3": gfs.genfun.sharp_k(F, 3),
                "P": gfs.genfun.contact_p(gfs.genfun.contact_lift_gf(F), 3)}

    def generate(self, seed, ctx):
        rng = np.random.default_rng(seed)
        return [{"w3": rng.normal(0.0, 0.5, ctx["F3"].total_dim),
                 "wp": rng.normal(0.0, 0.5, ctx["P"].total_dim)}
                for _ in range(self.TASKS)]

    def run(self, ctx, task):
        F3, P = ctx["F3"], ctx["P"]
        w, wp = task["w3"], task["wp"]
        ops = P.sym_ops
        v = P.value(wp)
        cyc = F3.sym_ops["cyclic"]
        return {
            "sharp_cyclic": abs(F3.value(cyc(w)) - F3.value(w)),
            "p_cyclic": abs(P.value(ops["cyclic"](wp)) - v),
            "p_scale": abs(P.value(ops["r_action"](wp, self.SCALE)) - v),
            "p_shift": abs(P.value(ops["z_shift"](wp)) - v),
        }

    def check(self, ctx, task, out):
        problems = ["%s defect %.3e above %.0e" % (name, d, self.GATE)
                    for name, d in out.items() if not d < self.GATE]
        return problems, max(out.values())

    def digest(self, out):
        return b""


# ---------------------------------------------------------------------------
# certificate_grid
# ---------------------------------------------------------------------------

def _primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i in range(3, n + 1) if sieve[i]]


class CertificateGrid:
    """Seeded `gfs nonsqueeze` queries through `gfs.cli.main`, in process.

    Five query kinds with fixed counts per task list: integer gaps, prime
    fractions, near-critical ratios (larger --max-prime), equal radii (which
    scan every prime up to the default bound) and sub-unit conjugated
    queries with A3.  Four in five queries ask for --evidence.  Each task
    also revalidates the printed certificate with `validate_certificate`,
    as a user checking a certificate would."""

    name = "certificate_grid"
    zero_calls = ("genfun", "crit", "sympl.shells")
    COUNTS = {"integer_gap": 450, "prime_fraction": 375, "near_critical": 225,
              "equal_radii": 150, "conjugated": 300}
    NEAR_MAX_PRIME = 5000
    DEFAULT_MAX_PRIME = 10 ** 4

    def __init__(self):
        self._primes = None

    def build(self, gfs):
        importlib.import_module("gfs.cli")
        return {"gfs": gfs}

    def _searchable(self, A1, A2, max_prime):
        """Independent feasibility check: an integer strictly between the
        areas, or an odd prime k <= max_prime with A2 <= k/l < A1."""
        if math.floor(A2) + 1 < A1:
            return True
        if self._primes is None:
            self._primes = _primes_upto(max(self.DEFAULT_MAX_PRIME,
                                            self.NEAR_MAX_PRIME))
        for k in self._primes:
            if k > max_prime:
                return False
            l = math.floor(k / A1) + 1
            if 1 <= l < k and A2 <= k / l < A1:
                return True
        return False

    def _query(self, rng, kind):
        while True:
            if kind == "integer_gap":
                A2 = float(rng.integers(1, 8)) + rng.uniform(0.05, 0.95)
                A1 = math.floor(A2) + 1 + rng.uniform(0.05, 0.95)
                argv, max_prime, A3 = [], self.DEFAULT_MAX_PRIME, None
            elif kind == "prime_fraction":
                k = int(rng.choice([3, 5, 7, 11, 13]))
                l = int(rng.integers(2, k))
                x = k / l
                d = min(x - math.floor(x), math.ceil(x) - x)
                A2 = x - rng.uniform(0.1, 0.9) * d
                A1 = x + rng.uniform(0.1, 0.9) * d
                argv, max_prime, A3 = [], self.DEFAULT_MAX_PRIME, None
            elif kind == "near_critical":
                A2 = rng.uniform(1.0, 4.0)
                A1 = A2 * (1.0 + rng.uniform(0.002, 0.01))
                max_prime, A3 = self.NEAR_MAX_PRIME, None
                argv = ["--max-prime", str(max_prime)]
            elif kind == "equal_radii":
                A2 = A1 = rng.uniform(1.0, 6.0)
                argv, max_prime, A3 = [], self.DEFAULT_MAX_PRIME, None
            else:
                m = int(rng.integers(1, 3))
                inner2 = rng.uniform(1.1, 5.0)
                inner1 = inner2 + rng.uniform(0.3, 1.5)
                A2 = inner2 / (1.0 + m * inner2)
                A1 = inner1 / (1.0 + m * inner1)
                A3 = A1 + rng.uniform(0.2, 0.8) * (1.0 / m - A1)
                argv, max_prime = ["--A3", repr(A3)], self.DEFAULT_MAX_PRIME
                if not self._searchable(A1 / (1.0 - m * A1),
                                        A2 / (1.0 - m * A2), max_prime):
                    continue
            if kind in ("equal_radii", "conjugated") or \
                    self._searchable(A1, A2, max_prime):
                return ["nonsqueeze", "--A1", repr(A1),
                        "--A2", repr(A2)] + argv

    def generate(self, seed, ctx):
        rng = np.random.default_rng(seed)
        tasks = []
        for kind, count in self.COUNTS.items():
            for i in range(count):
                argv = self._query(rng, kind)
                evidence = i % 5 != 4
                if evidence:
                    argv.append("--evidence")
                    if i % 10 == 3:
                        argv += ["--n", "2"]
                tasks.append({"kind": kind, "argv": argv,
                              "evidence": evidence})
        rng.shuffle(tasks)
        return tasks

    def _certificate(self, squeeze, obj):
        inner = obj.get("inner")
        return squeeze.SqueezeCertificate(
            kind=obj["kind"], K=obj.get("K"), k=obj.get("k"), l=obj.get("l"),
            m=obj.get("m"),
            inner=self._certificate(squeeze, inner) if inner else None,
            areas=obj.get("areas", {}))

    def run(self, ctx, task):
        g = ctx["gfs"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = g.cli.main(task["argv"])
        text = stdout.getvalue()
        valid = None
        if code == 0:
            cert = self._certificate(g.squeeze, json.loads(text))
            valid = g.squeeze.validate_certificate(cert)
        return {"code": code, "text": text, "stderr": stderr.getvalue(),
                "valid": valid}

    EXPECTED_KINDS = {"integer_gap": ("integerK",),
                      "prime_fraction": ("primeFraction",),
                      "near_critical": ("integerK", "primeFraction"),
                      "equal_radii": ("equalRadii",),
                      "conjugated": ("conjugated",)}

    def check(self, ctx, task, out):
        if out["code"] != 0:
            return ["exit code %d: %s"
                    % (out["code"], out["stderr"].strip())], None
        obj = json.loads(out["text"])
        problems = []
        if obj["kind"] not in self.EXPECTED_KINDS[task["kind"]]:
            problems.append("%s query gave a %s certificate"
                            % (task["kind"], obj["kind"]))
        if out["valid"] is not True:
            problems.append("validate_certificate rejects the certificate")
        if task["evidence"]:
            want = [1, 1, 1] if obj["kind"] == "equalRadii" else [1, 1, 0]
            got = obj.get("evidence", {}).get("ranks")
            if got != want:
                problems.append("evidence ranks %r, expected %r" % (got, want))
        elif "evidence" in obj:
            problems.append("evidence printed without --evidence")
        return problems, None

    def digest(self, out):
        return ("%d\n" % out["code"] + out["text"]).encode()


WORKLOADS = {w.name: w for w in (BarcodeFamily(), NewtonScan(),
                                 SymmetrySweep(), CertificateGrid())}
