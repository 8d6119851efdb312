"""The `rqbm` process: `python -m rqbm` and the `rqbm` console script."""

import gc
import logging
import os
import sys


def run() -> int:
    """Run the command line on `sys.argv` as the whole process, and end it with `os._exit`.

    The cyclic GC stays off for the whole process: the ~35k objects the
    `rqbm.cli` import builds live until exit, and a run makes no cyclic
    garbage that grows with its size.  An int `SystemExit` from argparse
    (--help, --version, usage errors) is the return code; it leaves before
    numpy is imported.  Any other exception, another `SystemExit` and a
    failed flush (a closed pipe) leave through the interpreter's normal exit.
    """
    gc.disable()
    from ._options import main

    try:
        rc = main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        rc = exc.code
    # teardown is waste once main has closed every output and reaped the writer child
    try:
        logging.shutdown()
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        return rc
    os._exit(rc)


if __name__ == "__main__":
    sys.exit(run())
