"""The `rqbm` process: `python -m rqbm` and the `rqbm` console script."""

import gc
import logging
import os
import sys


def _import_cli_frozen():
    """`rqbm.cli`, imported with the GC paused, and what the import built frozen.

    The ~35k objects the import builds live until exit, so collecting them is
    waste.  The parser's cyclic garbage is collected first, so it is not frozen.
    """
    gc.collect(1)
    gc.disable()
    from . import cli

    gc.freeze()
    gc.enable()
    return cli


def run() -> int:
    """Run the command line on `sys.argv` as the whole process, and end it with `os._exit`.

    An int `SystemExit` from argparse (--help, --version, usage errors) is the
    return code; it leaves before numpy is imported.  Any other exception,
    another `SystemExit` and a failed flush (a closed pipe) leave through the
    interpreter's normal exit.
    """
    from ._options import _main

    try:
        rc = _main(None, _import_cli_frozen)
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
