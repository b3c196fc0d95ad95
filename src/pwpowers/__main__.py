"""`python -m pwpowers` and the `pwpowers` script: run cli.main, then exit.

run() flushes stdout and stderr once cli.main has returned and ends the
process with os._exit, skipping interpreter finalization: the atexit
handlers, module teardown and the final garbage collection, which cost
several milliseconds of a call that does a few milliseconds of work. Nothing
in the package registers an atexit handler or needs a finalizer, and every
worker pool is shut down before cli.main returns. An exception out of
cli.main (argparse's SystemExit among them), or a failed flush, takes the
interpreter's normal exit path instead. cli.main itself still returns its
exit code, so in-process callers see no change.
"""

import os
import sys

from .cli import main


def run() -> None:
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        # a broken or closed stream: leave it to the interpreter's exit,
        # which flushes again and reports the failure
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
