"""Command-line surface: barcode emission, verification suites, and
non-squeezing certificates.

Exit codes: 0 success (for nonsqueeze: certificate found), 1 verification
failure / no certificate, 2 flag validation, 3 computation error, 4 search
bound exceeded.  All JSON output carries schema "gfs/1" with fixed key
order; outputs are bit-identical for fixed flags and seed.  Computing is
single-threaded.  Each command declares its options once, in a table of
name -> (type, default, help) that yields both its flags and its config
keys.  Config files are line-based key=value; precedence flags > config >
defaults, and an unreadable or malformed config file, or a key that names
no option, is a flag error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import GfsError, SearchBoundExceeded
from .sympl import (Ambient, ContactLift, RadialMap, RadialProfile,
                    ref_profile, shells, translated_chains, verify_chain)
from .genfun import (contact_lift_gf, contact_p, fibre_critical_config,
                     gf_time_one, graph_of, sharp_k)
from .crit import (chain_scan, classify_hessian, maslov, seed_from_chain,
                   sharp_critical_seed)
from .equivar import (Generator, GroupRingComplex, _block, _field,
                      ball_complex, barcode, lens_complex, limit_barcode)
from .squeeze import (DEFAULT_MAX_PRIME, SqueezeQuery, certificate_json,
                      evidence, find_obstruction)


def parse_scalar(text):
    """Float literal with an optional 'pi' suffix: '-0.9pi' -> -0.9*pi."""
    text = text.strip()
    if text.lower().endswith("pi"):
        return float(text[:-2]) * math.pi
    return float(text)


def parse_profile(text):
    """'REF:c,delta' builds the reference profile; anything else is read as
    a JSON profile file."""
    if text.startswith("REF:"):
        parts = text[4:].split(",")
        if len(parts) != 2:
            raise GfsError("profile must be REF:c,delta or a JSON profile file")
        return ref_profile(parse_scalar(parts[0]), parse_scalar(parts[1]))
    with open(text, "rb") as fh:
        return RadialProfile.from_json(fh.read())


class FlagError(GfsError):
    """A flag or config-file value fails validation (exit 2)."""


def flag_value(build, *args, **kwargs):
    """build(*args, **kwargs), where the arguments are flag values: its
    GfsError or ValueError is a flag error."""
    try:
        return build(*args, **kwargs)
    except (GfsError, ValueError) as exc:
        raise FlagError(str(exc)) from exc


def read_config(path):
    """Line-based key=value file; '#' starts a comment."""
    conf = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, ValueError) as exc:     # missing, unreadable, not text
        raise FlagError("cannot read config file: %s" % exc)
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FlagError("config line without '=': %r" % line)
        key, value = line.split("=", 1)
        conf[key.strip()] = value.strip()
    return conf


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def resolve(args, table):
    """Merge flag values, config-file values, and table defaults (in that
    precedence) into a dict keyed by option name.  A flag left at None
    falls through to the config file, then the default."""
    conf = read_config(args.config) if args.config else {}
    unknown = sorted(set(conf) - set(table))
    if unknown:
        raise FlagError("config key %r names no option (choose from %s)"
                        % (unknown[0], ", ".join(table)))
    out = {}
    for name, (kind, default, _) in table.items():
        flag = getattr(args, name)
        if flag is not None:
            out[name] = flag
        elif name in conf:
            raw = conf[name]
            try:
                out[name] = _BOOLS[raw.lower()] if kind is bool else kind(raw)
            except (KeyError, ValueError):
                raise FlagError("config value for %s is not a valid %s: %r"
                                % (name, kind.__name__, raw))
        else:
            out[name] = default
    return out


# ---------------------------------------------------------------------------
# barcode


BARCODE = {
    "n": (int, 1, "half the real dimension of the ball B^2n(R)"),
    "R": (float, 1.0, "radius of the ball"),
    "k": (int, None, "1 or an odd prime (required)"),
    "profile": (str, "REF:-0.9pi,0.1",
                "REF:c,delta (scalars may end in 'pi') or a JSON profile file"),
    "mode": (str, "equivariant", "equivariant or plain"),
    "limit": (bool, False, "emit the idealized steep-profile limit barcode"),
    "lmax": (int, 4, "number of shells in the plain limit barcode"),
    "out": (str, ".", "directory for barcode.json and barcode.tsv"),
}


def cmd_barcode(opts):
    k = opts["k"]
    if k is None:
        raise FlagError("--k is required")
    flag_value(_field, k)
    flag_value(_block, k, opts["mode"])
    if opts["lmax"] < 1:
        raise FlagError("lmax must be at least 1, got %d" % opts["lmax"])
    amb = flag_value(Ambient, n=opts["n"], R=opts["R"])
    # a REF literal is a flag value; a profile file is read below
    profile = opts["profile"]
    rho = (flag_value(parse_profile, profile)
           if profile.startswith("REF:") else None)
    if opts["limit"]:
        bc = flag_value(limit_barcode, amb, k, opts["mode"],
                        lmax=opts["lmax"])
    else:
        cx = ball_complex(amb, rho or parse_profile(profile), k)
        bc = barcode(cx, opts["mode"])

    os.makedirs(opts["out"], exist_ok=True)
    json_path = os.path.join(opts["out"], "barcode.json")
    tsv_path = os.path.join(opts["out"], "barcode.tsv")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(bc.to_json())
    with open(tsv_path, "w", encoding="utf-8") as fh:
        fh.write(bc.to_tsv())
    print("wrote %s (%d bars over F_%d) and %s"
          % (json_path, len(bc), bc.field, tsv_path))
    return 0


# ---------------------------------------------------------------------------
# verify


def _reference(n=1):
    """The suites' reference system: the unit ball B^2n(1), the profile
    REF(-0.9pi, 0.1) and its time-one generating function."""
    amb = Ambient(n=n, R=1.0)
    rho = ref_profile(-0.9 * math.pi, 0.1)
    return amb, rho, gf_time_one(amb, rho)


def _worst(*errs):
    """The largest error, nan when any is nan (`max(0.0, nan)` is 0.0)."""
    return float(np.max(errs))


def _suite_generation(seed):
    _, _, F = _reference()
    phi = F.map_handle
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        zbar = rng.normal(0.0, 0.55, 2)
        base, zeta = fibre_critical_config(F, zbar)
        w = np.concatenate([base, zeta])
        g = F.grad(w)
        gp = graph_of(phi, zbar)
        worst = _worst(worst,
                       float(np.max(np.abs(g[2:]))) if len(g) > 2 else 0.0,
                       float(np.max(np.abs(base - gp.base))),
                       float(np.max(np.abs(g[:2] - gp.covector))))
    return [("fibre-critical embedding matches the graph (100 samples)",
             worst < 1e-8, worst)]


def _suite_values(seed):
    amb, rho, F = _reference()
    F3 = sharp_k(F, 3)
    sh = shells(amb, rho, 3)
    m1 = [s for s in sh if s.l == 1][0].m
    w = sharp_critical_seed(F, 3, np.array([math.sqrt(m1) * amb.R, 0.0]))
    v = float(F3.value(w))
    phi = RadialMap(amb, rho, 1.0)
    z = np.array([math.sqrt(m1) * amb.R, 0.0])
    ssum = 0.0
    for _ in range(3):
        ssum += float(phi.S(z))
        z = phi(z)
    r1 = abs(v - 5 * math.pi / 6)
    r2 = abs(v - ssum)
    r3 = abs(float(F3.value(np.zeros(F3.total_dim))) - 3 * rho.rho(0.0))
    return [
        ("l=1 shell value = 5pi/6", r1 < 1e-6, r1),
        ("l=1 shell value = sum of primitives", r2 < 1e-6, r2),
        ("origin value = k*rho(0)", r3 < 1e-9, r3),
    ]


def _index_case(n, k):
    amb, rho, F = _reference(n)
    Fk = sharp_k(F, k)
    checks = []
    for s in shells(amb, rho, k):
        if s.kind != "sphereShell" or s.l >= k:
            continue
        z = np.zeros(2 * n)
        z[0] = math.sqrt(s.m) * amb.R
        w = sharp_critical_seed(F, k, z)
        index, nullity, gap, morse_bott = classify_hessian(
            np.linalg.eigvalsh(Fk.hess(w)))
        nu = maslov(index, k, F.quad_index, n)
        ok = nu == 2 * n * s.l and nullity == 2 * n - 1 and morse_bott
        checks.append(("index (n=%d,k=%d,l=%d): maslov %d nullity %d gap %.2g"
                       % (n, k, s.l, nu, nullity, gap), ok,
                       abs(nu - 2 * n * s.l)))
    return checks


def _suite_index(seed):
    return [c for n, k in ((1, 3), (1, 5), (2, 3)) for c in _index_case(n, k)]


def _suite_chains(seed):
    amb, rho, F = _reference()
    chains = translated_chains(amb, rho, 3)
    lift = ContactLift(amb, rho)
    checks = []
    for ch in chains:
        checks.append(("chain %s verifies" % ch.orbit_id,
                       verify_chain(lift, ch), 0.0))
    P = contact_p(contact_lift_gf(F), 3)
    seeds = [seed_from_chain(P, ch) for ch in chains]
    fams = chain_scan(P, 3, seeds, chains=chains)
    checks.append(("chain_scan finds %d families (expect %d)"
                   % (len(fams), len(chains)), len(fams) == len(chains), 0.0))
    hit = [f for f in fams if f.l == 1]
    res = abs(hit[0].value - 5 * math.pi / 6) if hit else math.inf
    checks.append(("l=1 family action = 5pi/6", res < 1e-6, res))
    free = sum(1 for f in fams
               if f.zk_orbit == "free" and abs(f.value - 5 * math.pi / 6) < 1e-3)
    checks.append(("one free Z_3 family at the l=1 action", free == 1, 0.0))
    return checks


def _suite_invariance(seed):
    _, _, F = _reference()
    F3 = sharp_k(F, 3)
    P = contact_p(contact_lift_gf(F), 3)
    rng = np.random.default_rng(seed)
    worst_c = 0.0
    for _ in range(1000):
        w = rng.normal(0.0, 0.5, F3.total_dim)
        worst_c = _worst(worst_c, abs(F3.value(F3.sym_ops["cyclic"](w))
                                      - F3.value(w)))
    worst = {"cyclic": 0.0, "r_action": 0.0, "z_shift": 0.0}
    ops = P.sym_ops
    for _ in range(1000):
        w = rng.normal(0.0, 0.5, P.total_dim)
        v = P.value(w)
        worst["cyclic"] = _worst(worst["cyclic"],
                                 abs(P.value(ops["cyclic"](w)) - v))
        worst["r_action"] = _worst(worst["r_action"],
                                   abs(P.value(ops["r_action"](w, 0.7)) - v))
        worst["z_shift"] = _worst(worst["z_shift"],
                                  abs(P.value(ops["z_shift"](w)) - v))
    return [
        ("sharp cyclic invariance (1000 pts)", worst_c < 1e-12, worst_c),
        ("P cyclic invariance", worst["cyclic"] < 1e-12, worst["cyclic"]),
        ("P scale invariance (a=0.7)", worst["r_action"] < 1e-12,
         worst["r_action"]),
        ("P integer theta-shift invariance", worst["z_shift"] < 1e-12,
         worst["z_shift"]),
    ]


def _suite_algebra(seed):
    path = GroupRingComplex(5, [Generator(d) for d in (0, 1, 2)])
    path.add_diff(1, 2, 4)          # N = x^4 into the middle generator
    path.add_diff(0, 1, 1)          # T - 1 = x out of it: x^4 x = 0
    checks = [("(T-1)N = 0 in Z_5[T]/(T^5-1)", not path.check_d2(), 0.0)]
    for k in (3, 5):
        cx = lens_complex(1, k)
        ok = (cx.homology_ranks("plain") == {0: 1, 1: 1}
              and cx.homology_ranks("equivariant") == {0: 1, 1: 1}
              and not cx.check_d2())
        checks.append(("circle complex k=%d" % k, ok, 0.0))
    lens = lens_complex(2, 5)
    ok = lens.homology_ranks("plain") == {0: 1, 1: 0, 2: 0, 3: 1}
    checks.append(("lens(2,5) plain ranks (1,0,0,1)", ok, 0.0))
    ok = lens.homology_ranks("equivariant") == {0: 1, 1: 1, 2: 1, 3: 1}
    checks.append(("lens(2,5) coinvariant rank 1 everywhere", ok, 0.0))
    amb, rho, _ = _reference()
    cx = ball_complex(amb, rho, 3)     # add_diff refuses a rising entry
    checks.append(("ball complex d^2 = 0 and filtered", not cx.check_d2(),
                   0.0))
    # Plain two-shell relative homology vanishes between the shells, which
    # pins the connecting map to the norm element.
    alive = [g.value > 0 for g in cx.generators]
    ranks = cx.homology_ranks("plain", alive)
    ok = ranks.get(3, -1) == 0 and ranks.get(4, -1) == 0
    checks.append(("two-shell vanishing forces the norm connector", ok, 0.0))
    return checks


SUITES = {
    "generation": _suite_generation,
    "values": _suite_values,
    "index": _suite_index,
    "chains": _suite_chains,
    "invariance": _suite_invariance,
    "algebra": _suite_algebra,
}


VERIFY = {
    "suite": (str, None, "one of: %s (required)" % ", ".join(sorted(SUITES))),
    "seed": (int, 0, "seed of the random suites, at least 0"),
}


def cmd_verify(opts):
    suite = opts["suite"]
    if suite is None:
        raise FlagError("--suite is required")
    if suite not in SUITES:
        raise FlagError("unknown suite %r (choose from %s)"
                        % (suite, ", ".join(sorted(SUITES))))
    if opts["seed"] < 0:
        raise FlagError("seed must be at least 0, got %d" % opts["seed"])
    checks = SUITES[suite](opts["seed"])
    for name, ok, residual in checks:
        print("[%s] %s (residual %.3e)" % ("PASS" if ok else "FAIL",
                                           name, residual))
    passed = sum(1 for _, ok, _ in checks if ok)
    print("suite %s: %d/%d checks passed" % (suite, passed, len(checks)))
    return 0 if passed == len(checks) else 1


# ---------------------------------------------------------------------------
# nonsqueeze


NONSQUEEZE = {
    "A1": (float, None, "area pi R1^2 of the ball to squeeze (required)"),
    "A2": (float, None, "area pi R2^2 of the target ball (required)"),
    "A3": (float, None, "area of the ambient room, above A1"),
    "max_prime": (int, DEFAULT_MAX_PRIME,
                  "largest odd prime k the search tries"),
    "evidence": (bool, False, "add the limit-barcode ranks behind the "
                              "certificate"),
    "n": (int, 1, "half the real dimension of the evidence balls"),
    "out": (str, None, "also write certificate.json to this directory"),
}


def cmd_nonsqueeze(opts):
    if opts["A1"] is None or opts["A2"] is None:
        raise FlagError("--A1 and --A2 are required")
    q = flag_value(SqueezeQuery, opts["A1"], opts["A2"], opts["A3"],
                   max_prime=opts["max_prime"])
    amb = flag_value(Ambient, n=opts["n"], R=1.0)
    cert = find_obstruction(q)
    report = evidence(cert, amb) if opts["evidence"] and cert.found() else None
    text = certificate_json(cert, report)
    sys.stdout.write(text)
    if opts["out"]:
        os.makedirs(opts["out"], exist_ok=True)
        path = os.path.join(opts["out"], "certificate.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if cert.found() else 1


# ---------------------------------------------------------------------------


COMMANDS = {
    "barcode": (cmd_barcode, BARCODE, "emit barcode JSON and TSV step plot"),
    "verify": (cmd_verify, VERIFY, "run a verification suite"),
    "nonsqueeze": (cmd_nonsqueeze, NONSQUEEZE,
                   "search for a non-squeezing obstruction certificate"),
}

# The first entry an error is an instance of gives its exit code.
EXIT_CODES = ((FlagError, 2), (SearchBoundExceeded, 4),
              ((GfsError, OSError), 3))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gfs",
        description="Generating-function homology toolkit: barcodes, "
                    "verification suites, and non-squeezing certificates.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    for command, (_, table, text) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, (kind, _, help_text) in table.items():
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None,
                               help=help_text)
            else:
                p.add_argument(flag, type=kind, help=help_text)
        p.add_argument("--config", type=str,
                       help="key=value file of option values")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command is None:
        parser.print_help()
        return 2
    run, table, _ = COMMANDS[args.command]
    try:
        return run(resolve(args, table))
    except (GfsError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return next(code for kind, code in EXIT_CODES
                    if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
