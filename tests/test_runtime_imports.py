"""The package runs on numpy alone: a fresh interpreter that imports
degree_lab and its CLI loads no scipy module.  scipy is a test oracle,
listed in the test extra, never a runtime dependency."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LOADED_SCIPY = ("import sys, degree_lab, degree_lab.cli; "
                "print(sorted(name for name in sys.modules "
                "if name.split('.')[0] == 'scipy'))")


def test_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LOADED_SCIPY], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
