"""The acceptance criteria under `python -O`.

-O strips bare asserts from the library, so every check a criterion
leans on must raise on its own there. Pytest rewrites the asserts of
test modules into explicit checks, which -O keeps, so the criteria
themselves still judge.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import zvsearch


def test_acceptance_criteria_pass_under_O():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zvsearch.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tests / "test_acceptance.py")],
        cwd=tests.parent,
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    tail = proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.returncode == 0, tail
    assert re.search(r"\b10 passed\b", proc.stdout), tail
