"""The command line run in a fresh interpreter, as a user runs it: this umbra
first on the path and Python's default warning filters."""
import os
import subprocess
import sys
from pathlib import Path

import umbra


def fresh_env() -> dict:
    """The environment with this umbra on the path and Python's default warning filters."""
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(umbra.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    return env


def fresh_umbra(argv: list, cwd) -> subprocess.CompletedProcess:
    """`umbra argv` in a fresh interpreter started in cwd."""
    return subprocess.run([sys.executable, "-m", "umbra.cli", *argv], env=fresh_env(), capture_output=True,
                          text=True, timeout=300, cwd=cwd)
