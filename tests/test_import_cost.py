"""What ``import bergman`` loads.  Process start plus imports is the
benchmark's ``setup_s`` on every workload, so the heavy modules that the
library does not need at import time must stay out: mpmath (test
references only), ``scipy.stats`` (the ball's Sobol sample, loaded on
first use) and ``scipy.spatial``."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
KEPT_OUT = ("mpmath", "scipy.stats", "scipy.spatial")


def test_import_leaves_heavy_modules_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    code = ("import sys, bergman; "
            f"print(' '.join(m for m in {KEPT_OUT!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
