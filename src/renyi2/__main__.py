"""The renyi2 command: `python -m renyi2` and the installed console script.

Every renyi2 matrix is 36x36 or smaller, too small for a BLAS thread pool to
pay for its start-up, so a CLI process asks OpenBLAS for one thread unless
the user has set OPENBLAS_NUM_THREADS. OpenBLAS reads the variable when numpy
loads it, so this runs before the first numpy import. A library import of
renyi2 leaves the environment alone.
"""

import os
import sys


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
