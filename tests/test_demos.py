"""Every narrated demo runs to completion as a script; the barcode and
certificate demos' outputs are pinned byte for byte; the README's Library
example runs and holds to its comments."""

import glob
import hashlib
import math
import os
import subprocess
import sys

import pytest

import gfs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) >= 5


def _run(path):
    src = os.path.dirname(os.path.dirname(gfs.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, path], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(path):
    proc = _run(path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_barcode_demo_output_is_pinned():
    proc = _run(os.path.join(ROOT, "demos", "04_barcodes.py"))
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        "c07e2cd86a76786010d7dd695b1c657110cee7696f4f5eb9fba802009f17c4ef"


def test_certificate_demo_output_is_pinned():
    proc = _run(os.path.join(ROOT, "demos", "05_certificates.py"))
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        "7b12bf3bbfb0b1a29ea4b9e1fccee755d03a9c28ba70c4d3ccd7b43e7a584ba8"


def test_readme_library_example_holds():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        library = fh.read().split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(compile(code, "README.md", "exec"), ns)
    cert, m = ns["cert"], ns["m"]
    assert (cert.kind, cert.k, cert.l) == ("primeFraction", 5, 4)
    assert ns["report"]["ranks"] == [1, 1, 0]
    assert m.maslov == 2 and m.zk_orbit == "free"
    assert abs(m.value - 5 * math.pi / 6) < 1e-6
