"""Run the program's CLI with layer tracing installed.

Usage: ``python -m perfbench.traced_cli <repro-experiment arguments>``
with ``$PERFBENCH_TRACE_DIR`` naming the directory spans are written to.
"""

import os
import sys

from perfbench import tracing


def main() -> int:
    argv = sys.argv[1:]
    role = " ".join(argv[:2])
    tracing.install(os.environ[tracing.TRACE_DIR_ENV], role)
    from repro.experiments.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
