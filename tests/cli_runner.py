"""Run the CLI in-process and capture what it writes and its exit code."""

import io
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout

from factorwords.cli import main

# output is stdout and stderr interleaved, as written
Result = namedtuple("Result", "exit_code stdout output")


class _Tee(io.StringIO):
    """A stream that also copies each write into ``both``."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


def invoke(args) -> Result:
    both = io.StringIO()
    out = _Tee(both)
    with redirect_stdout(out), redirect_stderr(_Tee(both)):
        try:
            main(list(args))
            code = 0
        except SystemExit as e:
            code = 0 if e.code is None else e.code
    return Result(code, out.getvalue(), both.getvalue())
