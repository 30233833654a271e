"""Model and observation files are overwritten in place, to the bytes of a
fresh write.

`io._write`, the writer behind `save_model`, `save_observation` and
`rationalize --out`, opens an existing file without truncating it,
writes the new text over the old and cuts the file to the length
written. These checks hold it to what `open(path, "w")` gives:

- rewrites: a file rewritten with longer text and then shorter text (a
  k = 48 observation or model over a k = 12 one and back) holds byte for
  byte what a fresh write gives, through all three writers, and a
  `rationalize --out OUT` refused on a number no file can hold leaves an
  existing OUT's bytes as they were;
- targets: `--out` to the null device exits 0; `--out /dev/stdout` into a
  pipe delivers the file's bytes; `--out DIR` and `--out
  missing/dir/m.json` exit 1 with the one-line error open(path, "w")
  raises; a symlink is written through; an existing file keeps its
  inode, its permission bits and its hard links;
- no truncation: `_write` opens the file once per write, and never asks
  `os.open` for O_TRUNC.

Stdlib only. Run as a script, or under pytest:

    python -S -W error tests/test_overwrite.py
"""

import io
import os
import random
import stat
import subprocess
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))


@contextmanager
def patched(module, name, value):
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, old)


def cli(*argv):
    """`beliefcheck.cli.main` in process: (exit code, stdout, stderr)."""
    from beliefcheck.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def observations():
    """Two observations over four states, with 12 and 48 posteriors."""
    import genobs

    rng = random.Random(12)
    return [genobs.random_observation(rng, 4, k) for k in (12, 48)]


def rewritten(write, small, large, tmp, name):
    """Write `small` to a fresh file, then `large` over it and `small`
    again, checking each rewrite against a fresh write of the same value;
    returns the fresh bytes of (small, large)."""
    fresh = []
    for j, value in enumerate((small, large)):
        path = os.path.join(tmp, "%s-fresh%d.json" % (name, j))
        write(value, path)
        fresh.append(read(path))
    assert len(fresh[0]) < len(fresh[1]), name
    path = os.path.join(tmp, "%s.json" % name)
    for j in (0, 1, 0):
        write((small, large)[j], path)
        assert read(path) == fresh[j], (name, j)
    return fresh


def test_rewrites_give_the_bytes_of_a_fresh_write():
    from beliefcheck import construct_rationalization, save_model
    from beliefcheck import save_observation

    small, large = observations()
    with tempfile.TemporaryDirectory() as tmp:
        obs_paths = []
        for mode in ("rational", "float"):
            rewritten(
                lambda obs, path: save_observation(obs, path, mode),
                small,
                large,
                tmp,
                "obs-" + mode,
            )
            rewritten(
                lambda obs, path: save_model(
                    construct_rationalization(obs), path, mode
                ),
                small,
                large,
                tmp,
                "model-" + mode,
            )
        for k, obs in zip((12, 48), (small, large)):
            path = os.path.join(tmp, "obs%d.json" % k)
            save_observation(obs, path)
            obs_paths.append(path)

        def rationalize(obs_path, out):
            code, stdout, stderr = cli("rationalize", obs_path, "--out", out)
            assert (code, stderr) == (0, ""), stderr
            assert stdout.endswith("model written to %s\n" % out)

        fresh = rewritten(rationalize, *obs_paths, tmp, "out")
        model = os.path.join(tmp, "model-rational-fresh0.json")
        assert fresh[0] == read(model)


def test_a_refused_write_leaves_the_file_as_it_was():
    import json

    from beliefcheck import construct_rationalization, save_model

    # 1e-4300 and 1 - 1e-4300 need the 4301-digit denominator 10^4300,
    # which no file the loaders read can hold: the writer refuses the
    # model before it opens --out.
    small, nines = "1e-4300", "0." + "9" * 4300
    raw = {
        "mode": "rational",
        "states": ["H", "L"],
        "prior": {"H": small, "L": nines},
        "posteriors": [{"weight": "1", "belief": {"H": small, "L": nines}}],
    }
    with tempfile.TemporaryDirectory() as tmp:
        obs = os.path.join(tmp, "o.json")
        with open(obs, "w") as fh:
            json.dump(raw, fh)
        out = os.path.join(tmp, "out.json")
        save_model(construct_rationalization(observations()[0]), out)
        before = read(out)
        code, stdout, stderr = cli("rationalize", obs, "--out", out)
        assert code == 1, stderr
        assert stderr == (
            "error: cannot write 1e-4300: its p/q form has a run of more "
            "than 4300 digits\n"
        )
        assert read(out) == before


def open_error(path):
    """The error line main prints for what open(path, "w") raises."""
    try:
        open(path, "w").close()
    except OSError as err:
        return "error: %s\n" % err
    raise AssertionError("%s is writable" % path)


def test_writes_reach_the_targets_open_reaches():
    from beliefcheck import save_observation

    small, large = observations()
    with tempfile.TemporaryDirectory() as tmp:
        obs = os.path.join(tmp, "o.json")
        save_observation(small, obs)
        fresh = os.path.join(tmp, "fresh.json")
        assert cli("rationalize", obs, "--out", fresh)[0] == 0
        expected = read(fresh)

        assert cli("rationalize", obs, "--out", os.devnull)[0] == 0

        # Each failed open creates nothing, so the targets stay unwritable.
        for target in (tmp, os.path.join(tmp, "missing", "dir", "m.json")):
            message = open_error(target)
            assert message.startswith("error: [Errno "), message
            assert cli("rationalize", obs, "--out", target) == (1, "", message)

        # An existing file with other permission bits and a second name,
        # holding more bytes than the model: the model is written into it.
        out, other = os.path.join(tmp, "out.json"), os.path.join(tmp, "hard")
        save_observation(large, out)
        os.chmod(out, 0o640)
        os.link(out, other)
        before = os.stat(out)
        assert cli("rationalize", obs, "--out", out)[0] == 0
        after = os.stat(out)
        assert read(out) == read(other) == expected
        assert after.st_ino == before.st_ino
        assert after.st_nlink == 2
        assert stat.S_IMODE(after.st_mode) == stat.S_IMODE(before.st_mode)

        link = os.path.join(tmp, "link.json")
        try:
            os.symlink(out, link)
        except (OSError, NotImplementedError):  # no symlinks on this system
            return
        save_observation(large, out)
        assert cli("rationalize", obs, "--out", link)[0] == 0
        assert os.path.islink(link) and os.readlink(link) == out
        assert read(out) == expected


def test_out_to_a_pipe_delivers_the_file():
    from beliefcheck import save_observation

    if not os.path.exists("/dev/stdout"):
        return
    import beliefcheck

    package = os.path.dirname(os.path.abspath(beliefcheck.__file__))
    src = os.path.dirname(package)
    with tempfile.TemporaryDirectory() as tmp:
        obs = os.path.join(tmp, "o.json")
        save_observation(observations()[0], obs)
        fresh = os.path.join(tmp, "fresh.json")
        assert cli("rationalize", obs, "--out", fresh)[0] == 0
        # --json prints the file's text after --out has written it.
        proc = subprocess.run(
            [sys.executable, "-S", "-W", "error", "-m", "beliefcheck.cli"]
            + ["rationalize", obs, "--json", "--out", "/dev/stdout"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
        assert proc.stdout == read(fresh) * 2


def test_no_write_truncates():
    # Observed: each save_model, save_observation and rationalize --out
    # opens its path with one os.open call, flags os.O_WRONLY | os.O_CREAT
    # (0o101 on Linux) and mode 0o666, over a new file and an existing
    # one alike; open(path, "w") asked the system for O_TRUNC as well.
    from beliefcheck import construct_rationalization, save_model
    from beliefcheck import save_observation

    calls = []
    real = os.open

    def spy(path, flags, *args, **kwargs):
        calls.append(flags)
        return real(path, flags, *args, **kwargs)

    small, _ = observations()
    model = construct_rationalization(small)
    with tempfile.TemporaryDirectory() as tmp:
        obs, out = os.path.join(tmp, "o.json"), os.path.join(tmp, "m.json")
        with patched(os, "open", spy):
            for _ in range(2):  # a new file, then an existing one
                save_observation(small, obs)
                save_model(model, out, "float")
                assert cli("rationalize", obs, "--out", out)[0] == 0
    assert len(calls) == 6, calls
    assert not any(flags & os.O_TRUNC for flags in calls), calls
    binary = getattr(os, "O_BINARY", 0)
    assert set(calls) == {os.O_WRONLY | os.O_CREAT | binary}, calls


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
    sys.path.insert(0, HERE)
    test_rewrites_give_the_bytes_of_a_fresh_write()
    test_a_refused_write_leaves_the_file_as_it_was()
    test_writes_reach_the_targets_open_reaches()
    test_out_to_a_pipe_delivers_the_file()
    test_no_write_truncates()
    print("overwrite checks hold on Python %s" % sys.version.split()[0])
