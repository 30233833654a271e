"""The package's public names, now that `simulate`'s and `known_omega`'s
are resolved on first use (PEP 562). Checks that depend on what a process
has loaded run in a fresh interpreter: the test session has imported
every module."""

import json
import os
import subprocess
import sys

import pytest

import beliefcheck
from beliefcheck.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")

ALL = [
    "TOL",
    "Dist",
    "Observation",
    "RnDerivative",
    "RnEntry",
    "RnReport",
    "WeightedPosteriors",
    "condition",
    "martingale_check",
    "pushforward",
    "rn_derivative",
    "AbsoluteContinuityViolation",
    "FormatError",
    "InvalidMixError",
    "NotRationalizableError",
    "PreconditionError",
    "ResourceBoundError",
    "StructuralError",
    "UndefinedUpdateError",
    "ZeroProbabilityCell",
    "load_model",
    "load_observation",
    "save_model",
    "save_observation",
    "Prop1Report",
    "brute_force_known_omega",
    "check_proposition1",
    "construct_known_omega_model",
    "set_partitions",
    "Model",
    "VerifyReport",
    "check_condition1",
    "construct_rationalization",
    "induced_observables",
    "target_mix",
    "uniform_mix",
    "verify_model",
    "PanelSample",
    "simulate_panel",
    "tv_distance",
]

LAZY = {
    "known_omega": [
        "Prop1Report",
        "brute_force_known_omega",
        "check_proposition1",
        "construct_known_omega_model",
        "set_partitions",
    ],
    "simulate": ["PanelSample", "simulate_panel", "tv_distance"],
}


def fresh(code: str):
    """The JSON that `code` prints in a fresh `python -S -W error`."""
    proc = subprocess.run(
        [sys.executable, "-S", "-W", "error", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_all_lists_the_same_names():
    assert beliefcheck.__all__ == ALL


def test_dir_lists_every_public_name_before_any_is_resolved():
    names = fresh(
        "import beliefcheck, json; print(json.dumps(dir(beliefcheck)))"
    )
    assert set(ALL) <= set(names)
    assert {"simulate", "known_omega"} <= set(names)


def test_star_import_binds_every_name():
    bound = fresh(
        "import json; from beliefcheck import *; "
        "print(json.dumps(sorted(k for k in dir() if not k.startswith('_'))))"
    )
    assert set(ALL) <= set(bound)


@pytest.mark.parametrize("module", sorted(LAZY))
def test_each_lazy_name_is_its_modules_object_and_is_cached(module):
    # Read through the package first, then compare with the submodule;
    # a name read once is bound in the package, so later reads do not
    # call its __getattr__.
    same, cached = fresh(
        "import beliefcheck, json, importlib\n"
        "names = %r\n"
        "read = [getattr(beliefcheck, name) for name in names]\n"
        "owner = importlib.import_module('beliefcheck.%s')\n"
        "print(json.dumps([[value is getattr(owner, name)"
        " for name, value in zip(names, read)],"
        " [name in vars(beliefcheck) for name in names]]))"
        % (LAZY[module], module)
    )
    assert same == cached == [True] * len(LAZY[module])


def test_a_module_is_an_attribute_before_it_is_imported():
    assert fresh(
        "import beliefcheck, json; "
        "print(json.dumps([beliefcheck.simulate.MAX_AGENTS, "
        "beliefcheck.known_omega.MAX_BRUTE_FORCE_STATES]))"
    ) == [10**7, 10]


def test_an_unknown_name_is_an_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="'beliefcheck'.*'no_such_name'"):
        beliefcheck.no_such_name
    with pytest.raises(ImportError):
        from beliefcheck import no_such_name  # noqa: F401


def test_simulate_help_prints_the_agent_cap(capsys):
    with pytest.raises(SystemExit) as done:
        main(["simulate", "--help"])
    assert done.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  --n N" + " " * 17 + "number of agents, at most 10000000" in lines


def test_the_agent_cap_is_read_from_simulate():
    from beliefcheck.simulate import MAX_AGENTS

    assert MAX_AGENTS == 10**7
