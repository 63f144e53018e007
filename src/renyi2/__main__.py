"""The renyi2 command: `python -m renyi2` and the installed console script.

A CLI process is short and small, so this entry makes three process-wide
choices before it imports the CLI; a library import of renyi2 makes none of
them and leaves the environment, `sys.modules` and the collector alone.

- BLAS threads. Every renyi2 matrix is 36x36 or smaller, too small for a BLAS
  thread pool to pay for its start-up, so OpenBLAS gets one thread unless the
  user has set OPENBLAS_NUM_THREADS. OpenBLAS reads the variable when numpy
  loads it.
- The cyclic garbage collector. The import graph is ~22k long-lived objects
  that the collector would traverse dozens of times during import and again,
  in full passes, at interpreter shutdown. It is off during the import, whose
  objects are then frozen out of its reach; it is on again for the run.
- OpenSSL. numpy.random imports `secrets`, hence `hmac` and `hashlib`, which
  would load OpenSSL's libcrypto through `_hashlib`. renyi2 hashes nothing, so
  `_hashlib` is blocked in `sys.modules` (unless already loaded) and those
  modules use CPython's built-in fallbacks.
"""

import gc
import os
import sys


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.modules.setdefault("_hashlib", None)
    gc.disable()
    from .cli import main as cli_main

    gc.freeze()
    gc.enable()
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
