import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def fresh_python():
    """``fresh_python(*args)`` runs ``python *args`` in a fresh interpreter that
    imports hyperac from this checkout's ``src``, asserts that it exits 0 and
    returns its stdout."""

    def run(*args: str) -> str:
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
