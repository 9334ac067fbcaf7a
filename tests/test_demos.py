"""The demo scripts run cleanly and print exactly what they always printed."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hookweight

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(hookweight.__file__).resolve().parent.parent)

# sha256 of each demo's stdout
DIGESTS = {
    "01_weights_and_hook_products.py":
        "b5aa5068a897592ed89866ad000e1d68dd5b69c0ed1e8f9d023acc11bcc15f4a",
    "02_q_specializations.py":
        "079f3edff3b4e761234c4a9a0caf815bea2251e7ba6cbce4a2bf635d4906a4b3",
    "03_shuffle_algebra_morphisms.py":
        "1fa63e0da8d4a41a313c99d421dd7431f5e5df68a47607ce5476c37ff38c9537",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]
