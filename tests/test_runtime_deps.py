"""The runtime stays numpy-only: importing the package and building the CLI
loads no test or benchmark dependency.

A fresh interpreter is used, since this test session has already imported
pytest, hypothesis and scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NOT_AT_RUNTIME = ("scipy", "hypothesis", "pytest", "perfbench")

PROGRAM = f"""
import json, sys
import attnhawkes
import attnhawkes.cli
attnhawkes.cli.build_parser()
print(json.dumps(sorted({{name.split(".")[0] for name in sys.modules}} & {set(NOT_AT_RUNTIME)!r})))
"""


def test_package_and_cli_import_no_test_or_benchmark_dependency():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == []
