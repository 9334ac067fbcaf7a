"""Helpers shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import hookweight


def run_python(*argv, timeout=20) -> subprocess.CompletedProcess:
    """Run ``python *argv`` in a fresh interpreter on this package's source,
    within ``timeout`` seconds."""
    env = dict(os.environ)
    src = str(Path(hookweight.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)
