"""Make the program under ``src/`` importable for the benchmark's tests."""

import sys

from perfbench import harness

if str(harness.SRC) not in sys.path:
    sys.path.insert(0, str(harness.SRC))
