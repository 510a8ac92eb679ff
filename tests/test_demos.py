"""Every narrated demo runs to completion as a script; the barcode demo's
output is pinned byte for byte."""

import glob
import hashlib
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
