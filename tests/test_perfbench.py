"""The benchmark's self-test, run against the current program.

``perfbench/selftest.py`` checks the benchmark's oracles against the
program and that every output check rejects a planted wrong value, so a
change to the program's output format or results that the benchmark
would misjudge fails here first.

The self-test lists ``invariants:P600`` as an expected failure of the
``dense`` workload, from when the CLI could not print a ``q_g`` past the
interpreter's int/str digit limit.  The CLI prints it now, so this test
runs the self-test with no expected failures: every operation of every
workload must check clean.
"""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SELFTEST = """
import selftest
selftest.EXPECTED_FAILURES = {}
selftest.oracles_agree_with_program()
selftest.checks_catch_planted_errors()
"""


def test_selftest_passes_with_every_operation_clean():
    proc = subprocess.run([sys.executable, "-c", SELFTEST], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest FAILED" not in proc.stdout
