"""Every ``examples/*.py`` walkthrough runs and prints its key result.

Each example runs in a fresh interpreter with ``PYTHONPATH=src``, the
way its docstring tells a reader to run it, so an API change that
breaks one cannot land unnoticed.
"""

import os
import re
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

EXAMPLES = sorted(f for f in os.listdir(os.path.join(REPO_ROOT, "examples"))
                  if f.endswith(".py"))

#: example file -> a line its output must contain (a regex, multiline);
#: every example needs one.
KEY_LINES = {
    "litmus_consistency.py":
        r"^  atomic +: [\d,]+ cycles, 0 stale PIM-result reads$",
    "quickstart.py": r"^stale PIM-result reads: 0$",
    "tpch_filter.py":
        r"^predicate matched \d+ of \d+ rows "
        r"\(verified against a Python reference\)$",
    "ycsb_scan.py": r"^atomic +\d+ +[\d.]+ +0 +yes ",
}


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs(example):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    env.pop("REPRO_STORE", None)  # simulate, never serve from a store
    proc = subprocess.run(
        [sys.executable, os.path.join("examples", example)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert re.search(KEY_LINES[example], proc.stdout, re.MULTILINE), \
        proc.stdout
