"""Every example runs to completion: each ``examples/*.py`` in its own
interpreter, from an empty working directory, must exit 0.

This is what makes the examples roots of the reachability gate
(``tests/test_reachability.py``): code an example reaches is code a
test runs.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent
EXAMPLES = sorted((SRC.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(example, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(example)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
