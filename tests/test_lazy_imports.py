"""A process loads only the modules its calls run.

`beliefcheck.cli` runs every subcommand, but only `simulate` needs
`beliefcheck.simulate` (and with it hashlib) and only `known-omega` needs
`beliefcheck.known_omega`; the package resolves their names on first use
(PEP 562). No module imports `typing`, and `dataclasses`, which brings
`inspect`, `ast` and `dis`, is imported only to raise its
`FrozenInstanceError`. So in a fresh interpreter this imports
`beliefcheck.cli` and checks that none of those modules is loaded, then
reads one name of each lazy module and checks what it loads, and last
assigns to a `Dist` field. The result does not depend on the host or on a
bytecode cache. Run as a script, or under pytest:

    python -S -W error tests/test_lazy_imports.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")

#: Modules that importing `beliefcheck.cli` must not load.
UNUSED = (
    "dataclasses",
    "inspect",
    "typing",
    "hashlib",
    "beliefcheck.simulate",
    "beliefcheck.known_omega",
)


def loaded(names) -> list:
    return [name for name in names if name in sys.modules]


def probe() -> dict:
    """In this process: the modules of UNUSED loaded after each step, and
    the class of the error that assigning to a Dist field raises."""
    sys.path.insert(0, SRC)
    import beliefcheck.cli  # noqa: F401, imports beliefcheck first

    import beliefcheck

    steps = {"import beliefcheck.cli": loaded(UNUSED)}
    beliefcheck.simulate_panel
    steps["read simulate_panel"] = loaded(UNUSED)
    beliefcheck.check_proposition1
    steps["read check_proposition1"] = loaded(UNUSED)
    try:
        beliefcheck.Dist.uniform(["a"]).den = 2
    except Exception as err:
        raised = err
    from dataclasses import FrozenInstanceError

    return {
        "steps": steps,
        "frozen": type(raised) is FrozenInstanceError,
    }


def test_a_process_loads_only_the_modules_its_calls_run():
    # A fresh interpreter: the test session has imported every module.
    proc = subprocess.run(
        [sys.executable, "-S", "-W", "error", __file__, "--probe"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["steps"] == {
        "import beliefcheck.cli": [],
        "read simulate_panel": ["hashlib", "beliefcheck.simulate"],
        "read check_proposition1": [
            "hashlib",
            "beliefcheck.simulate",
            "beliefcheck.known_omega",
        ],
    }, found
    assert found["frozen"], found


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps(probe()))
    else:
        test_a_process_loads_only_the_modules_its_calls_run()
        print(
            "importing beliefcheck.cli loads none of %s on Python %s"
            % (", ".join(UNUSED), sys.version.split()[0])
        )
