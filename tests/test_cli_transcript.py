"""The CLI's text output on the worked example, pinned byte for byte.

`rationalize`, `check`, `martingale` and `known-omega` run in text mode
on the worked two-state observation (prior 1/2-1/2, a quarter of the
agents at (4/5, 1/5) and three quarters at (1, 0)), saved in rational
and in float mode; their stdout and exit codes must equal the transcript
in `data/worked_example_cli.txt`, which pins the table layout and every
printed number. The file needs only the
standard library and also runs as a script, without site-packages:

    python -S tests/test_cli_transcript.py
"""

import io
import os
import sys
import tempfile
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "data", "worked_example_cli.txt")
COMMANDS = ("rationalize", "check", "martingale", "known-omega")


def transcript() -> str:
    """Each command line, its stdout and its exit code, in COMMANDS order
    for each mode."""
    from fractions import Fraction as F

    from beliefcheck import Dist, Observation, WeightedPosteriors
    from beliefcheck import save_observation
    from beliefcheck.cli import main

    s = ("H", "L")
    posteriors = WeightedPosteriors(
        (
            (F(1, 4), Dist(s, (F(4, 5), F(1, 5)))),
            (F(3, 4), Dist(s, (F(1), F(0)))),
        )
    )
    obs = Observation(Dist(s, (F(1, 2), F(1, 2))), posteriors)
    parts = []
    with tempfile.TemporaryDirectory() as work:
        for mode in ("rational", "float"):
            name = "worked_%s.json" % mode
            path = os.path.join(work, name)
            save_observation(obs, path, mode)
            for command in COMMANDS:
                out = io.StringIO()
                with redirect_stdout(out):
                    code = main([command, path])
                parts.append("$ beliefcheck %s %s\n" % (command, name))
                parts.append(out.getvalue())
                parts.append("exit %d\n" % code)
    return "".join(parts)


def test_worked_example_transcript():
    with open(GOLDEN) as fh:
        expected = fh.read()
    assert transcript() == expected


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
    got = transcript()
    with open(GOLDEN) as fh:
        expected = fh.read()
    if got != expected:
        import difflib

        sys.stdout.writelines(
            difflib.unified_diff(
                expected.splitlines(True),
                got.splitlines(True),
                GOLDEN,
                "output",
            )
        )
        sys.exit(1)
    print("CLI transcript holds on Python %s" % sys.version.split()[0])
