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


# A certified answer under -O: grid:3,3 is settled by its k = 3
# certificate, so the closure never runs and the bag sweep's replay is
# the only check between the witness and the document.
CERTIFIED = """
import zvsearch.solver as solver
from zvsearch.game import is_successful, simulate
from zvsearch.graphs import grid_graph

g = grid_graph(3, 3)
res = solver.inspection_number(g)
print(res.value, res.explored_states, res.certificate.k, res.certificate.i,
      is_successful(simulate(g, res.witness)))
real = solver._merge_bags
solver._merge_bags = lambda bags, cap: real(bags, cap)[:-1]
try:
    solver.inspection_number(g)
except AssertionError as ex:
    print("refused:", ex)
else:
    print("accepted")
"""


def test_certified_answer_is_replayed_under_O():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zvsearch.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CERTIFIED],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["4 0 3 6 True", "refused: bag sweep failed"]
