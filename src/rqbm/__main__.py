"""The `rqbm` process: `python -m rqbm` and the `rqbm` console script."""

import gc
import logging
import os
import sys


def run() -> int:
    """Run `rqbm.cli.main` on `sys.argv` as the whole process, and end it with `os._exit`.

    An int `SystemExit` from argparse (--help, --version, usage errors) is the
    return code.  Any other exception, another `SystemExit` and a failed flush
    (a closed pipe) leave through the interpreter's normal exit.
    """
    # the ~35k objects the import builds live until exit, so collecting them is waste,
    # and so is teardown once main has closed every output and reaped the writer child
    gc.disable()
    from .cli import main

    gc.freeze()
    gc.enable()
    try:
        rc = main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        rc = exc.code
    try:
        logging.shutdown()
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        return rc
    os._exit(rc)


if __name__ == "__main__":
    sys.exit(run())
