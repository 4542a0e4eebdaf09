"""Entry point for ``python -m planetrees`` and the ``planetrees`` command.

A reader that closes stdout before the output is written, as ``planetrees
table | head -1`` does, ends the command with exit code 1 and no traceback.
As the note on SIGPIPE in the documentation of the ``signal`` module
advises, stdout is then pointed at devnull, so that the interpreter's last
flush at exit has nothing to fail on.
"""

import os
import sys

from .cli import EXIT_VERIFY_FAILED, main

#: the exit code of a command whose reader closed stdout
EXIT_BROKEN_PIPE = EXIT_VERIFY_FAILED


def run() -> int:
    try:
        code = main()
        sys.stdout.flush()  # a closed reader shows here, not at exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(run())
