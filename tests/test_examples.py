"""Every example script prints what ``examples/out/<name>.txt`` holds.

The examples narrate end-to-end flows on the simulated clock with fixed
seeds, so their output is exact; a change that moves a number an example
prints has to update the committed output on purpose.  Each script runs in
its own process, as a user would run it.  Regenerate one with::

    PYTHONPATH=src python examples/<name>.py > examples/out/<name>.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
SCRIPTS = sorted(EXAMPLES.glob("*.py"))


def test_every_example_has_a_committed_output():
    assert SCRIPTS
    assert sorted(path.stem for path in (EXAMPLES / "out").glob("*.txt")) \
        == [script.stem for script in SCRIPTS]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.stem)
def test_example_output_is_the_committed_one(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    expected = (EXAMPLES / "out" / f"{script.stem}.txt").read_text(
        encoding="utf-8")
    assert done.stdout == expected
