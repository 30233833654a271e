"""The CLI's text output on the worked example, pinned byte for byte.

`rationalize`, `check`, `martingale` and `known-omega` run in text mode
on the worked two-state observation (prior 1/2-1/2, a quarter of the
agents at (4/5, 1/5) and three quarters at (1, 0)), saved in rational
and in float mode; so do `verify` and `simulate` on its constructed
model, saved in the same mode. Their stdout and exit codes must equal
the transcript in `data/worked_example_cli.txt`, which pins the table
layout and every printed number. The file needs only the
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
OBS, MODEL = "worked_%s.json", "worked_%s_model.json"
COMMANDS = (
    ("rationalize", OBS),
    ("check", OBS),
    ("martingale", OBS),
    ("known-omega", OBS),
    ("verify", MODEL, OBS),
    ("simulate", MODEL, "--n", "1000", "--seed", "7"),
)


def transcript() -> str:
    """Each command line, its stdout and its exit code, in COMMANDS order
    for each mode."""
    from fractions import Fraction as F

    from beliefcheck import Dist, Observation, WeightedPosteriors
    from beliefcheck import construct_rationalization, save_model
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
    model = construct_rationalization(obs)
    parts = []
    with tempfile.TemporaryDirectory() as work:
        for mode in ("rational", "float"):
            paths = {
                name % mode: os.path.join(work, name % mode)
                for name in (OBS, MODEL)
            }
            save_observation(obs, paths[OBS % mode], mode)
            save_model(model, paths[MODEL % mode], mode)
            for command in COMMANDS:
                words = [w % mode if w in (OBS, MODEL) else w for w in command]
                out = io.StringIO()
                with redirect_stdout(out):
                    code = main([paths.get(w, w) for w in words])
                parts.append("$ beliefcheck %s\n" % " ".join(words))
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
